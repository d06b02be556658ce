"""Self-test of the benchmark at toy sizes (well under a minute).

Runs each workload once untraced and once traced at the "toy" size and
checks that every end-to-end and per-layer metric is emitted with its unit,
that spans nest (children inside their parent, self time >= 0), that layer
self times plus time outside spans add up to the traced wall time, that
tune-circle makes no kernel call and tune-deep no julia call, and that a
deliberately failed check shows up in fail_frac.  It also checks
BENCHMARK.json against spec.py and the limits of its format, and that the
benchmark refuses to run without the hermanlab sources.

Usage: python3 hlbench/selftest.py      (exit code 0 when every check holds)
"""

import json
import re
import shutil
import subprocess
import sys

import run
import spec
import tracer

FAILURES = []


def expect(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def check_metrics(result, table, label):
    metrics = result["metrics"]
    for m in table:
        got = metrics.get(m["name"])
        expect(got is not None and got["unit"] == m["unit"]
               and isinstance(got["value"], (int, float)),
               "%s emits %s in %s" % (label, m["name"], m["unit"]))


def check_spans(path, label):
    with open(path) as fh:
        spans = json.load(fh)["spans"]
    nested = all(s["parent"] < 0 or (spans[s["parent"]]["start"] <= s["start"]
                                     and s["end"] <= spans[s["parent"]]["end"])
                 for s in spans)
    expect(bool(spans) and nested, "%s: %d spans nest inside their parents" % (label, len(spans)))
    expect(all(s["self_s"] >= -1e-9 for s in spans), "%s: every span's self time >= 0" % label)


def check_workload(name):
    reps = run.run_set(name, "toy", 1, 0, trace=1)
    expect(len(reps) == 2 and all(r["ok"] for r in reps), "%s: both repetitions pass" % name)
    e2e, _ = run.summarize(name, "toy", 1, 0, reps)
    layers, _ = run.summarize(name, "toy", 1, 1, reps)
    if e2e is None or layers is None:
        expect(False, "%s: metrics computed" % name)
        return
    check_metrics(e2e, spec.END_TO_END, name)
    check_metrics(layers, spec.LAYER_TABLE, name)
    check_spans(run.STATE / "traces" / name / "rep1.json", name)
    v = {k: m["value"] for k, m in layers["metrics"].items()}
    total = sum(v[layer + ".self_s"] for layer in tracer.LAYERS) + v["trace.unspanned_s"]
    expect(abs(total - v["trace.wall_s"]) <= 1e-6 * v["trace.wall_s"],
           "%s: layer self times + unspanned = traced wall (%.6f vs %.6f s)"
           % (name, total, v["trace.wall_s"]))
    if name == "tune-circle":
        expect(v["kernels.self_s"] == 0 and all(
            v["kernels.%s.iterates" % k] == 0 for k in ("tune_residual", "orbit", "orbit_samples"))
            and v["kernels.classify_kernel.pixel_iterates"] == 0, "tune-circle: no kernel call")
        expect(v["maps.eval_calls"] > 0 and v["rotation.sign_tests"] > 0,
               "tune-circle: counts eval calls and sign tests")
    if name == "tune-deep":
        expect(v["julia.self_s"] == 0 and all(v[k] == 0 for k in v if k.startswith("julia.")),
               "tune-deep: no julia call")
        expect(v["rotation.residual_evals"] > 0 and v["kernels.tune_residual.iterates"] > 0,
               "tune-deep: counts residual evaluations and iterates")
    if name == "chain":
        expect(all(v[s + ".s"] > 0 for s in tracer.TIMED_SPANS) and v["cli.self_s"] > 0,
               "chain: every named span of curve, renorm, julia and cli ran")


def check_failure_counted():
    good = run.run_set("tune-deep", "toy", 1, 0, trace=0)
    bad = run.run_set("tune-deep", "toy", 1, 0, trace=0, tamper=True)
    expect(len(bad) == 1 and not bad[0]["ok"] and not bad[0]["checks"]["c_close"],
           "a tampered reference fails the c_close check")
    result, _ = run.summarize("tune-deep", "toy", 1, 0, good + bad)
    expect(result is not None and not result["correct"]
           and result["failed"] / result["attempted"] == 0.5,
           "the failed check shows up as fail_frac = 1/2 and correct = false")


def check_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(doc == spec.benchmark_json(), "BENCHMARK.json matches spec.py")
    names = [w["name"] for w in doc["workloads"]] + [m["name"] for m in
                                                     doc["end_to_end"] + doc["per_layer"]]
    expect(all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
           and len(set(names)) == len(names), "metric and workload names are valid and unique")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"]),
           "every why is one line of at most 200 characters")
    expect(all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"]), "every bound is in (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"]),
           "setup_s has the largest bound")


def check_refuses_without_sources():
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "hlbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    p = subprocess.run([sys.executable, "hlbench/run.py", "--workload", "chain", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=60)
    shutil.rmtree(bare)
    expect(p.returncode != 0 and not p.stdout.strip(),
           "without src/ the benchmark exits %d and prints no result" % p.returncode)


def main():
    check_benchmark_json()
    check_refuses_without_sources()
    for name in spec.WORKLOAD_NAMES:
        check_workload(name)
    check_failure_counted()
    print("selftest: %s" % ("%d failure(s)" % len(FAILURES) if FAILURES else "all checks hold"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
