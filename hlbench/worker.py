"""One repetition of one benchmark workload, in a fresh interpreter.

run.py starts this script with ``PYTHONPATH`` pointing at the checkout's
``src/``.  It imports hermanlab, makes one tiny warm-up call of each kernel
the workload uses (so a JIT or build-on-import backend pays its cost in
set-up, not in the work), runs the workload once, optionally under the
tracer, checks the outputs, and prints one JSON line as the last line of
its standard output.  A fixed python loop timed just before and just after
the work (speed_probe) tells run.py how fast the host ran at the time.

Usage: python3 hlbench/worker.py REQUEST_JSON
  REQUEST_JSON keys: workload, size, seed, trace, run_id, workdir, spawn_t
  (time.monotonic() just before the process was started), trace_path,
  tamper (shift the reference value so that the c_close check fails).
"""

import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

import spec


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- warm-up -------------------------------------------------------------------

def warm_up(name):
    import numpy as np

    from hermanlab import _kernels, maps

    m = maps.herman_family(3, 2, spec.C_REF)
    num0, den = maps.family_core(3, 2)
    if name in ("tune-deep", "chain"):
        _kernels.tune_residual(num0, den, spec.C_REF, 3, 1e-8, 1e8)
        _kernels.orbit(m.num, m.den, 1.0 + 0.0j, 3, 1e-3, 1e3)
    if name == "chain":
        _kernels.orbit_samples(m.num, m.den, 1.0 + 0.0j, np.arange(1, 4, dtype=np.int64),
                               1e-8, 1e8)
        _kernels.classify_kernel(m.num, m.den, -2.0, -2.0, 2.0, 2.0, 2, 2, 3, 1e-6, 1e6)
    if name == "tune-circle":
        maps.blaschke(2, 0.25).eval(0.6 + 0.8j)


# -- workloads: work(cfg, seed, outdir) -> output,
#    check(cfg, output, outdir) -> (checks, invariant values, seeded values) --

def work_tune_deep(cfg, seed, outdir):
    from hermanlab import rotation

    return rotation.tune_asymmetric(3, 2, "golden", "preset", m=cfg["m"])


def check_tune_deep(cfg, res, outdir):
    checks = {
        "c_close": bool(abs(res.parameter - cfg["c_ref"]) <= cfg["c_tol"]),
        "verify_all": bool(res.report["verify"]["all"]),
    }
    fingerprint = {"parameter": repr(res.parameter), "newton_steps": res.iterations}
    return checks, fingerprint, {}


def work_tune_circle(cfg, seed, outdir):
    from hermanlab import rotation

    return rotation.tune_blaschke(2, "golden", tol=cfg["tol"], qcap=cfg["qcap"])


def check_tune_circle(cfg, res, outdir):
    checks = {"c_close": bool(abs(res.parameter - cfg["c_ref"]) < cfg["c_tol"])}
    fingerprint = {"parameter": repr(res.parameter), "bisection_iters": res.iterations}
    return checks, fingerprint, {}


def chain_window(cfg, seed):
    """[-2,-2,2,2] shifted by a seeded sub-pixel offset; pixel count is unchanged."""
    rng = random.Random(seed)
    px = 4.0 / cfg["resolution"]
    dx, dy = rng.random() * px, rng.random() * px
    return [-2.0 + dx, -2.0 + dy, 2.0 + dx, 2.0 + dy]


def work_chain(cfg, seed, outdir):
    from hermanlab import cli

    config = {
        "schema": 1, "family": [3, 2], "theta": "golden", "seed": "preset",
        "tune_depth": cfg["tune_depth"], "trace_depth": cfg["trace_depth"],
        "renorm_depth": cfg["renorm_depth"], "resolution": cfg["resolution"],
        "maxiter": cfg["maxiter"], "window": chain_window(cfg, seed), "outdir": outdir,
    }
    cfg_path = os.path.join(outdir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    curve_csv = os.path.join(outdir, "curve.csv")
    calls = {
        "pipeline": ["pipeline", "--config", cfg_path],
        "geometry": ["geometry", "--curve", curve_csv,
                     "--out", os.path.join(outdir, "geometry.json")],
        "dims": ["dims", "--points", curve_csv, "--connect",
                 "--out", os.path.join(outdir, "dims.json")],
        "porosity": ["porosity", "--grid", os.path.join(outdir, "grid.bin"),
                     "--center-re", "1", "--center-im", "0", "--radii", "0.8,0.4,0.2,0.1",
                     "--out", os.path.join(outdir, "porosity.json")],
    }
    return {name: cli.main(argv) for name, argv in calls.items()}


def check_chain(cfg, exits, outdir):
    def load(name):
        with open(os.path.join(outdir, name)) as fh:
            return json.load(fh)

    checks = {"exit0_" + k: v == 0 for k, v in exits.items()}
    report = load("report.json")
    checks["c_close"] = bool(abs(complex(*report["parameter"]) - cfg["c_ref"]) <= cfg["c_tol"])
    checks["stages_ok"] = all(s["ok"] for s in report["stages"].values())
    checks["verify_all"] = bool(report["verify"]["all"])
    checks["mu"] = bool(abs(abs(complex(*report["mu"])) - 0.662) <= cfg["mu_tol"])
    lo, hi = cfg["slope"]
    checks["dims_slope"] = bool(lo < load("dims.json")["slope"] < hi)
    ratios = load("porosity.json")["ratios"]
    rises = sum(b > a for a, b in zip(ratios, ratios[1:]))
    checks["porosity_profile"] = len(ratios) == 4 and rises <= 1
    report.pop("config_hash")
    invariant = {"report.json": hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()}
    for name in ("curve.csv", "ratios.csv", "geometry.json", "dims.json"):
        invariant[name] = _sha(os.path.join(outdir, name))
    seeded = {name: _sha(os.path.join(outdir, name))
              for name in ("grid.bin", "render.ppm", "porosity.json")}
    return checks, invariant, seeded


WORKLOADS = {
    "tune-deep": (work_tune_deep, check_tune_deep),
    "tune-circle": (work_tune_circle, check_tune_circle),
    "chain": (work_chain, check_chain),
}


def _probe_loop(z=0.5 + 0.3j, coeffs=(0.5 + 0.1j, -0.3 + 0.2j, 0.7 - 0.4j, 0.2 + 0.0j)):
    n = 0
    for i in range(15_000):
        acc = 0j
        for a in coeffs:
            acc = acc * z + a
        n += i * i % 7


def speed_probe(chunks=9):
    """Seconds per run of a fixed pure-python loop (complex Horner steps and
    integer arithmetic, like the kernels), one per chunk."""
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        _probe_loop()
        times.append(time.perf_counter() - t0)
    return times


def _error(e):
    return "".join(traceback.format_exception_only(type(e), e)).strip()


def main(req):
    name = req["workload"]
    cfg = dict(spec.workload(name)["sizes"][req["size"]])
    cfg["c_ref"] = spec.C_BLASCHKE if name == "tune-circle" else spec.C_REF
    if req["tamper"]:
        cfg["c_ref"] += 1e-3
    work, check = WORKLOADS[name]
    import hermanlab
    from hermanlab import _kernels

    warm_up(name)
    result = {"setup_s": time.monotonic() - req["spawn_t"], "backend": _kernels.BACKEND,
              "version": hermanlab.__version__, "ok": False}
    probe = speed_probe()
    tracer = None
    if req["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer(run_id=req["run_id"])
    try:
        if tracer is not None:
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        out = work(cfg, req["seed"], req["workdir"])
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
    except Exception as e:
        result["error"] = _error(e)
        print(json.dumps(result))
        return
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["speed_s"] = statistics.median(probe + speed_probe())
    if tracer is not None:
        tracer.dump(req["trace_path"])
        result["layers"] = layer_metrics(tracer.summary(result["wall_s"]))
    try:
        checks, result["invariant"], result["seeded"] = check(cfg, out, req["workdir"])
    except Exception as e:
        checks = {"outputs_readable": False}
        result["error"] = _error(e)
    result["checks"] = checks
    result["ok"] = all(checks.values())
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
