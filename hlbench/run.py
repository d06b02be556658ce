"""hermanlab benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Runs one workload (or all of them) against the checkout's ``src/`` with
``PYTHONPATH=src``; nothing is installed.  Each repetition is a fresh,
single-threaded worker process (worker.py); repetitions follow each other
until ``--seconds`` have passed.

  --trace 0  end-to-end metrics from untraced repetitions, as medians:
             wall_s (the work after set-up), setup_s (fresh interpreter to
             ready: import plus kernel warm-up) and peak_rss_mb.
  --trace 1  untraced and traced repetitions alternate; prints the
             per-layer metrics from the traced ones (tracer.py), the
             tracing overhead against the untraced ones, and the raw
             host figures (host.*).

Times are rescaled to a reference host speed (spec.HOST_REF_S) by a fixed
python loop each worker times around its work, because on a shared 2-vCPU VM
the CPU speed drifted by 20-30% over minutes; the raw times are printed per
repetition and reported as host.raw_wall_s and host.raw_setup_s.

Every repetition's outputs are checked (worker.py); counts and artifact
hashes must repeat exactly within a run and across runs of the same code
(state kept in .hlbench/ at the checkout root).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Usage:
  python3 hlbench/run.py --workload tune-deep --seed 1 --seconds 30 --trace 0
  python3 hlbench/run.py --workload all     # every workload, both modes;
                                            # rewrites BENCHMARK.json and
                                            # hlbench/baseline.json
  python3 hlbench/selftest.py               # toy sizes, well under a minute
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".hlbench"
# stop starting repetitions after this long, so a run ends well within 180 s
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0

UNITS = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.LAYER_TABLE}


# -- environment ---------------------------------------------------------------

def _version(dist):
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit():
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(backend):
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "backend": backend,
        "numba_imports": numba_imports,
        "HERMANLAB_THREADS": os.environ.get("HERMANLAB_THREADS", "unset"),
        "HERMANLAB_PRECISION": os.environ.get("HERMANLAB_PRECISION", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
    }


# -- repetitions ---------------------------------------------------------------

def run_rep(workload, size, seed, traced, index, tamper, timeout):
    """One worker process; returns its result dict (ok False on any failure)."""
    workdir = STATE / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # one thread per worker: native thread pools would compete with the
    # single-threaded work for the host's few cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    req = {"workload": workload, "size": size, "seed": seed, "trace": traced,
           "run_id": "%s-%s-seed%d-rep%d" % (workload, size, seed, index),
           "workdir": str(workdir), "tamper": tamper,
           "trace_path": str(STATE / "traces" / workload / ("rep%d.json" % index))}
    req["spawn_t"] = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(req)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "traced": traced, "error": "timed out after %.0f s" % timeout}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "traced": traced,
                "error": "worker exit %d: %s" % (proc.returncode, tail[0])}
    result = json.loads(lines[-1])
    result["traced"] = traced
    return result


def run_set(workload, size, seed, seconds, trace, tamper=False):
    """Repetitions until `seconds` have passed (traced and untraced alternate if trace)."""
    shutil.rmtree(STATE / "traces" / workload, ignore_errors=True)
    (STATE / "traces" / workload).mkdir(parents=True)
    t0 = time.monotonic()
    reps = []
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - t0))
        rep = run_rep(workload, size, seed, traced, len(reps), tamper, timeout)
        reps.append(rep)
        print(describe_rep(len(reps), rep))
        elapsed = time.monotonic() - t0
        enough = len(reps) >= (2 if trace else 1)
        if (elapsed >= seconds and enough) or elapsed >= LAST_START_S:
            break
    shutil.rmtree(STATE / "work" / workload, ignore_errors=True)
    return reps


def describe_rep(i, rep):
    kind = "traced  " if rep["traced"] else "untraced"
    if "wall_s" not in rep:
        return "# rep %d %s FAILED: %s" % (i, kind, rep.get("error"))
    failed = [k for k, v in rep.get("checks", {}).items() if not v]
    status = "ok" if rep["ok"] else "FAILED checks %s %s" % (failed, rep.get("error", ""))
    return "# rep %d %s raw wall_s=%.4f setup_s=%.4f speed_s=%.6f peak_rss_mb=%.1f %s" % (
        i, kind, rep["wall_s"], rep["setup_s"], rep.get("speed_s", 0.0),
        rep.get("peak_rss_mb", 0.0), status)


# -- exact repeats ---------------------------------------------------------------

def code_hash():
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".py", ".json") and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(workload, size, seed, rep):
    """Values that must repeat exactly: key -> value (seeded keys carry the seed)."""
    base = "%s/%s/" % (workload, size)
    seeded = "%sseed=%d/" % (base, seed)
    items = {base + k: v for k, v in rep.get("invariant", {}).items()}
    items.update({seeded + k: v for k, v in rep.get("seeded", {}).items()})
    for k, v in rep.get("layers", {}).items():
        if UNITS.get(k) == "count":
            items[(seeded if k in spec.SEEDED_COUNTS else base) + k] = v
    return items


def check_repeats(workload, size, seed, reps):
    """Mismatches of exact-repeat values within this run and against earlier runs."""
    seen, mismatches = {}, []
    for rep in reps:
        if rep["ok"]:
            for k, v in fingerprint(workload, size, seed, rep).items():
                if seen.setdefault(k, v) != v:
                    mismatches.append("%s: %r != %r within the run" % (k, v, seen[k]))
    path = STATE / "repeats" / (code_hash() + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    state = json.loads(path.read_text()) if path.exists() else {}
    for k, v in seen.items():
        if state.setdefault(k, v) != v:
            mismatches.append("%s: %r != %r in an earlier run" % (k, v, state[k]))
    path.write_text(json.dumps(state, indent=1, sort_keys=True))
    return mismatches


# -- metrics -------------------------------------------------------------------

def ref_seconds(rep, seconds):
    """seconds rescaled to the reference host speed by the repetition's own probe."""
    return seconds * spec.HOST_REF_S / rep["speed_s"]


def _median_ref(reps, key):
    return statistics.median(ref_seconds(r, r[key]) for r in reps)


def summarize(workload, size, seed, trace, reps):
    """(result dict for the JSON line, extra facts for printing)."""
    untraced = [r for r in reps if r["ok"] and not r["traced"]]
    traced = [r for r in reps if r["ok"] and r["traced"]]
    failed = sum(not r["ok"] for r in reps)
    if not untraced or (trace and not traced):
        return None, {}
    wall = _median_ref(untraced, "wall_s")
    if not trace:
        values = {
            "wall_s": wall,
            "setup_s": _median_ref(untraced, "setup_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        source = "median of %d repetitions" % len(untraced)
    else:
        # every per-layer figure comes from one traced repetition, the one with
        # the median wall time, so that its layer self times add up to its wall
        mid = sorted(traced, key=lambda r: ref_seconds(r, r["wall_s"]))[(len(traced) - 1) // 2]
        values = {name: ref_seconds(mid, v) if UNITS[name] in ("s", "ns") else v
                  for name, v in mid["layers"].items()}
        values["trace.overhead_frac"] = ref_seconds(mid, mid["wall_s"]) / wall - 1.0
        values["process.cpu_s"] = _median_ref(untraced, "cpu_s")
        for key in ("wall_s", "setup_s", "speed_s"):
            values["host.raw_" + key] = statistics.median(r[key] for r in untraced)
        source = "median-wall traced repetition of %d; counts exact" % len(traced)
    mismatches = check_repeats(workload, size, seed, reps)
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
    return result, {"source": source, "mismatches": mismatches,
                    "backend": untraced[0]["backend"]}


def print_result(workload, result, facts):
    source = facts["source"]
    for k, m in result["metrics"].items():
        print("%-58s %14.6g %-8s (%s)" % (workload + " " + k, m["value"], m["unit"], source))
    print("%-58s %14.6g %-8s (%d failed of %d attempted)" % (
        workload + " fail_frac", result["failed"] / result["attempted"], "fraction",
        result["failed"], result["attempted"]))
    for m in facts["mismatches"]:
        print("# EXACT-REPEAT MISMATCH " + m)


def run_one(workload, seed, seconds, trace):
    w = spec.workload(workload)
    print("# hlbench workload=%s seed=%d%s seconds=%d trace=%d" % (
        workload, seed, "" if w["uses_seed"] else " (ignored: no random input)",
        seconds, trace))
    reps = run_set(workload, "full", seed, seconds, trace)
    result, facts = summarize(workload, "full", seed, trace, reps)
    if result is None:
        print("# no successful repetition to measure", file=sys.stderr)
        return 1
    print("# env " + json.dumps(environment(facts["backend"])))
    print_result(workload, result, facts)
    print(json.dumps(result))
    return 0


def run_all(seed, seconds):
    """Every workload untraced then traced; writes BENCHMARK.json and baseline.json."""
    baseline = {"seed": seed, "seconds": seconds, "workloads": {}}
    backend = None
    for w in spec.WORKLOADS:
        name = w["name"]
        entry = {"why": w["why"], "config": w["sizes"]["full"], "uses_seed": w["uses_seed"]}
        for trace in (0, 1):
            print("# hlbench workload=%s seed=%d seconds=%d trace=%d" % (
                name, seed, seconds, trace))
            reps = run_set(name, "full", seed, seconds, trace)
            result, facts = summarize(name, "full", seed, trace, reps)
            if result is None:
                print("# %s: no successful repetition to measure" % name, file=sys.stderr)
                return 1
            backend = facts["backend"]
            print_result(name, result, facts)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: m["value"] for k, m in result["metrics"].items()}
            entry[key + "_source"] = facts["source"]
            entry["fail_frac" if not trace else "traced_fail_frac"] = (
                result["failed"] / result["attempted"])
            entry.setdefault("mismatches", []).extend(facts["mismatches"])
        layers = entry["per_layer"]
        self_sum = sum(layers[layer + ".self_s"] for layer in LAYERS)
        entry["trace_overhead_frac"] = layers["trace.overhead_frac"]
        entry["layer_self_sum_s"] = self_sum
        untraced_s = layers["trace.wall_s"] / (1.0 + layers["trace.overhead_frac"])
        print("# %s: layer self times sum to %.4f s, plus %.4f s outside spans, of the traced "
              "wall %.4f s; the untraced median of the same run is %.4f s (tracing overhead "
              "%+.1f%%)" % (name, self_sum, layers["trace.unspanned_s"], layers["trace.wall_s"],
                            untraced_s, 100 * layers["trace.overhead_frac"]))
        baseline["workloads"][name] = entry
    baseline["env"] = environment(backend)
    baseline["layer_table"] = [{"metric": m["name"], "unit": m["unit"], "moves": m["moves"],
                                "on": list(m["on"])} for m in spec.LAYER_TABLE]
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    print("# wrote BENCHMARK.json and hlbench/baseline.json")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hermanlab" / "__init__.py").is_file():
        print("hlbench: no hermanlab sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
