"""Acceptance criteria: one test (one pass/fail line under pytest -v) each.

Every test prints a `CRITERION n: ...` summary line with the measured
values; the pytest verdict for the test is the pass/fail line for the
criterion.
"""

import json
import math

import mpmath
import numpy as np
import pytest

import hermanlab as hl
from hermanlab.cfrac import GOLDEN, SILVER, tiling_is_partition, tiling_refines
from hermanlab.cli import main as cli_main
from hermanlab.julia import box_dimension, porosity_profile
from hermanlab.renorm import commuting_pair, log_lift, self_similarity

C22_FIG = complex(-0.755700, -0.654917)
B32_FIG = complex(-1.144208, -0.964454)


def _report(n, ok, msg):
    print("CRITERION %d: %s - %s" % (n, "PASS" if ok else "FAIL", msg))
    assert ok, "criterion %d: %s" % (n, msg)


def test_criterion_01_symmetric_parameter_recovery(blaschke22_golden):
    res, _ = blaschke22_golden
    err = abs(res.parameter - C22_FIG)
    _report(1, err < 1e-4,
            "tuned (2,2) golden parameter %s, |err| = %.3g (tol 1e-4)"
            % (res.parameter, err))


def test_criterion_02_asymmetric_parameter_recovery(golden32):
    res, _ = golden32
    err = abs(res.parameter - B32_FIG)
    _report(2, err < 1e-4,
            "tuned (3,2) golden parameter %s, |err| = %.3g (tol 1e-4)"
            % (res.parameter, err))


def test_criterion_03_rotation_number_functoriality(blaschke3_silver):
    _, m = blaschke3_silver
    lift = log_lift(m, "silver")
    chis = {n: commuting_pair(m, "silver", n, lift=lift).height()
            for n in range(2, 11)}
    ok = all(chi == 2 for chi in chis.values())
    _report(3, ok, "silver heights chi(n), n=2..10: %s (expect all 2)"
            % [chis[n] for n in sorted(chis)])


def test_criterion_04_critical_angles(trace22_deep, trace32_deep):
    a22, _ = hl.critical_angle(trace22_deep)
    a32, _ = hl.critical_angle(trace32_deep)
    e22 = abs(a22 - math.pi)
    e32 = abs(a32 - 5 * math.pi / 4)
    ok = e22 < 0.0175 and e32 < 0.0524
    _report(4, ok,
            "(2,2) angle %.5f (pi err %.4f, tol 0.0175); "
            "(3,2) angle %.5f (5pi/4 err %.4f, tol 0.0524)"
            % (a22, e22, a32, e32))


def test_criterion_05_scaling_ratio_universality(blaschke22_golden, arnold_golden):
    _, m22 = blaschke22_golden
    _, arnold = arnold_golden
    slope, r2, pairs = hl.convergence_report(m22, arnold, "golden", 16,
                                             n_range=(4, 14))
    ok = slope < 0 and r2 >= 0.9
    _report(5, ok, "log|s_n ratio - 1| fit over n=4..14: slope %.4f "
            "(expect < 0), R^2 %.4f (expect >= 0.9)" % (slope, r2))


def test_criterion_06_self_similarity_cauchy(golden32):
    _, m = golden32
    rep = self_similarity(m, "golden", N=18)
    last4 = rep.cauchy_factors[-4:]
    worst_rel = 0.0
    for n in sorted(rep.ratios):
        if n in rep.s and n + 1 in rep.s:
            worst_rel = max(worst_rel, abs(rep.ratios[n] - rep.s[n] * rep.s[n + 1])
                            / abs(rep.ratios[n]))
    ok = len(last4) == 4 and min(last4) >= 1.5 and worst_rel < 1e-10
    _report(6, ok, "mu = %.5f%+.5fj; last-4 Cauchy factors %s (expect >= 1.5); "
            "product identity worst rel err %.2g (tol 1e-10)"
            % (rep.mu.real, rep.mu.imag, [round(f, 4) for f in last4], worst_rel))


def test_criterion_07_commutation_identity(golden32, blaschke22_golden):
    worst = 0.0
    for theta_map in ((golden32, "golden"), (blaschke22_golden, "golden")):
        (res, m), theta = theta_map
        lift = log_lift(m, theta)
        for n in range(2, 13):
            p = commuting_pair(m, theta, n, lift=lift)
            worst = max(worst, p.commutation_residual() / abs(p.endpoint_minus))
    _report(7, worst < 1e-9,
            "worst |f-f+(0) - f+f-(0)| / |f-(0)| over both tuned families, "
            "n=2..12: %.3g (tol 1e-9)" % worst)


def _pinned_dimension(points):
    x, y = points.real, points.imag
    ox, oy = float(x.min()) - 1e-12, float(y.min()) - 1e-12
    diam = max(float(x.max()) - ox, float(y.max()) - oy)
    return box_dimension(points, connect=True,
                         eps_range=(diam / 2 ** 14 * 0.999, diam / 2 ** 4 * 1.001))


def test_criterion_08_dimension_ordering(trace22_deep, trace32_deep):
    r22 = _pinned_dimension(trace22_deep.points)
    r32 = _pinned_dimension(trace32_deep.points)
    diff = r32.slope - r22.slope
    usum = r22.slope_err + r32.slope_err
    ok = 0.98 <= r22.slope <= 1.02 and diff > usum
    _report(8, ok, "dim(2,2) = %.4f +/- %.4f (expect in [0.98, 1.02]); "
            "dim(3,2) = %.4f +/- %.4f; excess %.4f > summed uncertainty %.4f"
            % (r22.slope, r22.slope_err, r32.slope, r32.slope_err, diff, usum))


def test_criterion_09_tiling_and_ordering_invariants():
    ok = True
    for cf, name in ((GOLDEN, "golden"), (SILVER, "silver")):
        for n in range(2, 17):
            ok = ok and tiling_is_partition(cf, n) and tiling_refines(cf, n)
        # closest returns alternate sides: sign of q_n theta - p_n alternates
        th = cf.value()
        signs = [mpmath.sign(cf.q[n] * th - cf.p[n]) for n in range(1, 17)]
        ok = ok and all(a * b < 0 for a, b in zip(signs, signs[1:]))
    _report(9, ok, "P_{n+1} refines P_n exactly and closest returns alternate "
            "sides, n=2..16, golden and silver")


def test_criterion_10_non_porosity_at_critical_point(grid32_criterion10):
    prof = porosity_profile(grid32_criterion10, 1.0 + 0.0j, [0.8, 0.4, 0.2, 0.1])
    ratios = prof.ratios
    violations = sum(b > a for a, b in zip(ratios, ratios[1:]))
    ok = len(ratios) == 4 and violations <= 1
    _report(10, ok, "porosity ratios at z=1, r=0.8,0.4,0.2,0.1: %s "
            "(%d monotonicity violations, <= 1 allowed)"
            % ([round(q, 4) for q in ratios], violations))


def test_criterion_11_pipeline_determinism(tmp_path):
    outs = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        cfg = tmp_path / (name + ".json")
        cfg.write_text(json.dumps({
            "schema": 1, "family": [3, 2], "theta": "golden",
            "seed": "preset", "tune_depth": 18, "trace_depth": 16,
            "renorm_depth": 14, "resolution": 256, "maxiter": 300,
            "outdir": str(outdir)}))
        assert cli_main(["pipeline", "--config", str(cfg)]) == 0
        outs.append(outdir)
    a, b = outs
    arts = ["curve.csv", "ratios.csv", "grid.bin", "render.ppm"]
    identical = {f: (a / f).read_bytes() == (b / f).read_bytes() for f in arts}
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    ra.pop("config_hash"), rb.pop("config_hash")   # outdir path differs
    identical["report.json"] = ra == rb
    ok = all(identical.values())
    _report(11, ok, "repeated pipeline artifacts byte-identical: %s" % identical)
