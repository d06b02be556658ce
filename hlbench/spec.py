"""What the hermanlab benchmark measures: workloads, metrics and bounds.

This module is the single source of the benchmark's definition.
``benchmark_json()`` renders ``BENCHMARK.json`` from it, and
``LAYER_TABLE`` records, for every per-layer metric, which end-to-end
metric it should move and on which workload.
"""

# c_ref: the m=31 deep-tuned (3,2) golden parameter.
C_REF = complex(-1.144208397941167, -0.9644541484142908)
# criterion-1 value of the (2,2) golden Blaschke parameter
C_BLASCHKE = complex(-0.7557, -0.654917)

RUN_SECONDS = 30

# Host speed.  On a shared 2-vCPU VM the CPU speed drifted by 20-30% over minutes
# (neighbouring load), which moves every timing alike.  Each worker times a
# fixed python loop (worker.speed_probe) just before and after its work, and
# every reported time is rescaled to a host on which one probe loop takes
# HOST_REF_S: time * HOST_REF_S / probe.  The raw figures are reported too,
# as host.raw_wall_s, host.raw_setup_s and host.raw_speed_s.
HOST_REF_S = 0.007

# Each workload runs closed loop: one single-threaded worker process per
# repetition, started only after the previous one ended.
WORKLOADS = [
    {
        "name": "tune-deep",
        "why": "Newton tuning ladder q_16..q_22 plus verify_herman: the paper's "
               "deep-tuning step, almost all of it in _kernels.tune_residual",
        "uses_seed": False,
        "sizes": {
            "full": {"m": 22, "c_tol": 1e-9},
            "toy": {"m": 18, "c_tol": 1e-7},
        },
    },
    {
        "name": "tune-circle",
        "why": "Blaschke bisection on closest-return sign tests: all cost in "
               "maps.RationalMap.eval and none in _kernels, so it bypasses kernel work",
        "uses_seed": False,
        "sizes": {
            "full": {"qcap": 50000, "tol": 1e-15, "c_tol": 1e-4},
            "toy": {"qcap": 5000, "tol": 1e-15, "c_tol": 1e-4},
        },
    },
    {
        "name": "chain",
        "why": "the CLI chain pipeline, geometry, dims, porosity in one process: "
               "the only user of classify_kernel, curve, renorm and artifact I/O",
        "uses_seed": True,
        "sizes": {
            "full": {"tune_depth": 20, "trace_depth": 20, "renorm_depth": 16,
                     "resolution": 384, "maxiter": 400,
                     "c_tol": 1e-8, "mu_tol": 0.01, "slope": (1.0, 1.1)},
            "toy": {"tune_depth": 18, "trace_depth": 20, "renorm_depth": 14,
                    "resolution": 320, "maxiter": 100,
                    "c_tol": 1e-7, "mu_tol": 0.01, "slope": (1.0, 1.1)},
        },
    },
]
WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

ALL = tuple(WORKLOAD_NAMES)


def _layer(name, unit, better, moves, on):
    return {"name": name, "unit": unit, "better": better, "moves": moves, "on": on}


LAYER_TABLE = [
    _layer("kernels.tune_residual.iterates", "count", "lower", ["wall_s"], ["tune-deep", "chain"]),
    _layer("kernels.tune_residual.ns_per_iterate", "ns", "lower", ["wall_s"], ["tune-deep", "chain"]),
    _layer("kernels.orbit.iterates", "count", "lower", ["wall_s"], ["chain"]),
    _layer("kernels.orbit.ns_per_iterate", "ns", "lower", ["wall_s"], ["chain"]),
    _layer("kernels.orbit_samples.iterates", "count", "lower", ["wall_s"], ["chain"]),
    _layer("kernels.orbit_samples.ns_per_iterate", "ns", "lower", ["wall_s"], ["chain"]),
    _layer("kernels.classify_kernel.pixel_iterates", "count", "lower", ["wall_s", "peak_rss_mb"], ["chain"]),
    _layer("kernels.classify_kernel.ns_per_pixel_iterate", "ns", "lower", ["wall_s", "peak_rss_mb"], ["chain"]),
    _layer("kernels.classify_kernel.undecided_frac", "fraction", "lower", ["wall_s", "peak_rss_mb"], ["chain"]),
    _layer("kernels.self_s", "s", "lower", ["wall_s"], ["tune-deep", "chain"]),
    _layer("rotation.residual_evals", "count", "lower", ["wall_s"], ["tune-deep"]),
    _layer("rotation.newton_steps", "count", "lower", ["wall_s"], ["tune-deep"]),
    _layer("rotation.ladder_levels", "count", "lower", ["wall_s"], ["tune-deep"]),
    _layer("rotation.step_accept_ratio", "ratio", "higher", ["wall_s"], ["tune-deep"]),
    _layer("rotation.sign_tests", "count", "lower", ["wall_s"], ["tune-circle"]),
    _layer("rotation.bisection_iters", "count", "lower", ["wall_s"], ["tune-circle"]),
    _layer("rotation.self_s", "s", "lower", ["wall_s"], ALL),
    _layer("maps.eval_calls", "count", "lower", ["wall_s"], ["tune-circle"]),
    _layer("maps.ns_per_eval", "ns", "lower", ["wall_s"], ["tune-circle"]),
    _layer("maps.self_s", "s", "lower", ["wall_s"], ["tune-circle"]),
    _layer("cfrac.convergents.calls", "count", "lower", ["wall_s"], ["tune-circle", "chain"]),
    _layer("cfrac.convergents.s", "s", "lower", ["wall_s"], ["tune-circle", "chain"]),
    _layer("cfrac.self_s", "s", "lower", ["wall_s"], ["tune-circle", "chain"]),
    _layer("curve.trace.s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("curve.critical_angle.s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("curve.bounded_turning.s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("curve.self_s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("renorm.scaling_ratios.s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("renorm.self_similarity.s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("renorm.self_s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("julia.classify.s", "s", "lower", ["wall_s", "peak_rss_mb"], ["chain"]),
    _layer("julia.box_dimension.s", "s", "lower", ["wall_s", "peak_rss_mb"], ["chain"]),
    _layer("julia.porosity_profile.s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("julia.render.s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("julia.save_grid.s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("julia.load_grid.s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("julia.self_s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("cli.self_s", "s", "lower", ["wall_s"], ["chain"]),
    _layer("trace.unspanned_s", "s", "lower", [], []),
    _layer("trace.wall_s", "s", "lower", [], []),
    _layer("trace.overhead_frac", "fraction", "lower", [], []),
    _layer("process.cpu_s", "s", "lower", [], []),
    _layer("host.raw_wall_s", "s", "lower", [], []),
    _layer("host.raw_setup_s", "s", "lower", [], []),
    _layer("host.raw_speed_s", "s", "lower", [], []),
]

# counts that depend on the chain's seeded render window; every other count
# must repeat exactly across all seeds
SEEDED_COUNTS = {"kernels.classify_kernel.pixel_iterates"}


def workload(name):
    for w in WORKLOADS:
        if w["name"] == name:
            return w
    raise KeyError(name)


def benchmark_json():
    """The BENCHMARK.json document, with exactly the keys its format allows."""
    return {
        "command": ["python3", "hlbench/run.py"],
        "paths": ["hlbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [{"name": m["name"], "unit": m["unit"], "better": m["better"]}
                      for m in LAYER_TABLE],
    }
