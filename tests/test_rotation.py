"""Rotation numbers, circle lifts, and parameter tuning."""

import math
from fractions import Fraction

import numpy as np
import pytest

import hermanlab as hl
from hermanlab.cfrac import GOLDEN, SILVER
from hermanlab.rotation import (CircleLift, rotation_number, sign_rho_vs_theta,
                                tune_arnold, tune_blaschke, verify_herman)


def rigid(theta):
    return CircleLift(lambda x: x + theta)


def test_rotation_number_of_rigid_rotation():
    th = GOLDEN.value_float()
    lo, hi = rotation_number(rigid(th), depth=30)
    assert float(lo) <= th <= float(hi)
    assert float(hi) - float(lo) < 1e-6


def test_rotation_number_detects_rational():
    lo, hi = rotation_number(rigid(0.25), depth=30)
    assert lo == hi == Fraction(1, 4)


def test_sign_rho_vs_theta():
    th = GOLDEN.value_float()
    assert sign_rho_vs_theta(rigid(th + 1e-6), GOLDEN) == 1
    assert sign_rho_vs_theta(rigid(th - 1e-6), GOLDEN) == -1
    # undecidable at depth for the exact value
    assert sign_rho_vs_theta(rigid(th), GOLDEN) == 0


def test_circle_lift_is_degree_one_monotone(blaschke22_golden):
    _, m = blaschke22_golden
    F = hl.circle_lift(m)
    assert F.check()


def test_tuned_blaschke_rotation_number(blaschke22_golden):
    res, m = blaschke22_golden
    F = hl.circle_lift(m)
    th = GOLDEN.value_float()
    lo, hi = rotation_number(F, depth=25)
    assert abs(0.5 * (float(lo) + float(hi)) - th) < 1e-4


def test_tune_arnold_bracket(arnold_golden):
    res, F = arnold_golden
    assert res.residual < 1e-8
    lo, hi = rotation_number(F, depth=25)
    assert abs(0.5 * (float(lo) + float(hi)) - GOLDEN.value_float()) < 1e-4


def test_tune_asymmetric_rejects_bad_ladder():
    with pytest.raises(Exception):
        # a hopeless seed far from any root must not silently "converge"
        hl.tune_asymmetric(3, 2, "golden", 10.0 + 10.0j, m=16)


def test_verify_herman_tuned_map(golden32):
    _, m = golden32
    rep = verify_herman(m, "golden", 12)
    assert rep["all"]


def test_verify_herman_rejects_untuned_map():
    m = hl.herman_family(3, 2, -1.0 - 1.0j)  # arbitrary untuned parameter
    rep = verify_herman(m, "golden", 10)
    assert not rep["all"]


def test_preset_seed_roundtrip():
    seed = hl.rotation.resolve_seed(3, 2, GOLDEN, "preset")
    assert abs(seed - complex(-1.144208, -0.964454)) < 1e-3
    with pytest.raises(KeyError):
        hl.rotation.resolve_seed(9, 9, GOLDEN, "preset")


def test_preset_seed_refuses_unnamed_theta():
    # [0; 2, 1, 1, ...] shares golden's period but is a different number
    theta = hl.ContinuedFraction.from_periodic([2], [1])
    with pytest.raises(KeyError):
        hl.rotation.resolve_seed(3, 2, theta, "preset")


def test_preset_seed_refuses_unknown_name():
    with pytest.raises(hl.rotation.PresetError, match="bogus"):
        hl.rotation.resolve_seed(3, 2, GOLDEN, "bogus")
    with pytest.raises(hl.rotation.PresetError, match="bogus"):
        hl.tune_asymmetric(3, 2, "golden", "bogus", m=12)


@pytest.mark.parametrize("m", [6, 8, 11, 14, 15, 16])
def test_shallow_ladder_verifies_below_its_top(m):
    """The ladder top's return sits on the critical point, so verify stops one
    level short of it, and at 14 for deep ladders."""
    res = hl.tune_asymmetric(3, 2, "golden", complex(-1.144208, -0.964454), m=m)
    assert res.verified_depth == min(m - 1, 14)
    assert res.report["verify"]["all"] is True


def test_sign_rho_vs_theta_accepts_convergents():
    th = GOLDEN.value_float()
    conv = hl.rotation._convergents(GOLDEN)
    for x in (th + 1e-6, th - 1e-6, th):
        assert sign_rho_vs_theta(rigid(x), conv) == sign_rho_vs_theta(rigid(x), GOLDEN)


def test_bisection_builds_convergents_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return hl.cfrac.convergents(*args, **kwargs)

    monkeypatch.setattr(hl.rotation, "convergents", counted)
    res = tune_arnold("golden", qcap=2000)
    assert res.iterations > 1 and len(calls) == 1


def test_tune_blaschke_pinned():
    """The (2,2) golden bisection that the tune-circle benchmark runs, pinned
    bit for bit to the result of numpy scalar evaluation."""
    res = tune_blaschke(2, "golden", tol=1e-15, qcap=50000)
    assert res.parameter == -0.7556990644648718 - 0.6549190209231349j
    assert res.iterations == 32


@pytest.mark.parametrize("d0,dinf", [(3, 2), (2, 2), (2, 3)])
def test_conjugated_preset_seed_fails_cyclic_order(d0, dinf):
    """z -> conj(z) conjugates F_c to F_conj(c) and reverses the curve's
    orientation, so the conjugate seed tunes to rotation number 1 - theta."""
    seed = hl.rotation.resolve_seed(d0, dinf, GOLDEN)
    assert hl.tune_asymmetric(d0, dinf, GOLDEN, "preset", m=16).report["verify"]["all"]
    res = hl.tune_asymmetric(d0, dinf, GOLDEN, seed.conjugate(), m=16)
    assert res.report["verify"]["cyclic_order"] is False


def test_rational_map_coefficients_are_frozen():
    m = hl.blaschke(2, 0.3)
    with pytest.raises(ValueError):
        m.num[0] = 1.0
    with pytest.raises(ValueError):
        m.den[-1] = 1.0
    with pytest.raises(AttributeError):
        m.num = np.ones(2, dtype=np.complex128)


def test_rational_map_copies_its_input():
    src = hl.herman_family(3, 2, -1.144208 - 0.964454j)
    num, den = np.array(src.num), np.array(src.den)
    m = hl.RationalMap(num, den)
    z = 0.3 + 0.7j
    before = m.eval(z)
    num[:] = 0.0
    den[0] = 5.0
    assert m.eval(z) == before == src.eval(z)
