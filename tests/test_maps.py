"""Rational-family oracles: explicit formulas, symmetry, critical structure."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermanlab.maps import (INF, PoleResult, RationalMap, arnold_lift, blaschke,
                            critical_points, herman_family, preimages)

B_FIG = complex(-1.144208, -0.964454)
C_FIG = complex(-0.755700, -0.654917)


def test_32_matches_explicit_formula():
    # F_{3,2,b}(z) = b z^3 (4 - z) / (1 - 4z + 6z^2)
    m = herman_family(3, 2, B_FIG)
    rng = np.random.default_rng(1)
    for z in rng.standard_normal(20) + 1j * rng.standard_normal(20):
        expect = B_FIG * z ** 3 * (4 - z) / (1 - 4 * z + 6 * z ** 2)
        assert m.eval(z) == pytest.approx(expect, rel=1e-12)


def test_22_matches_explicit_formula():
    # F_{2,2,c}(z) = c z^2 (z - 3) / (1 - 3z)
    m = herman_family(2, 2, C_FIG)
    rng = np.random.default_rng(2)
    for z in rng.standard_normal(20) + 1j * rng.standard_normal(20):
        expect = C_FIG * z ** 2 * (z - 3) / (1 - 3 * z)
        assert m.eval(z) == pytest.approx(expect, rel=1e-12)


def test_value_at_one_is_parameter():
    for d0, dinf in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]:
        m = herman_family(d0, dinf, B_FIG)
        assert m.eval(1.0) == pytest.approx(B_FIG, rel=1e-12)


def test_local_degrees_at_zero_and_infinity():
    for d0, dinf in [(2, 2), (3, 2), (2, 3)]:
        m = herman_family(d0, dinf, B_FIG)
        # vanishing order at 0 equals d0
        for k in range(d0):
            assert abs(m.deriv(0.0, order=k)) < 1e-12
        assert abs(m.deriv(0.0, order=d0)) > 1e-12
        # pole order at infinity equals dinf: f(z) ~ z^dinf for large z
        z = 1e6
        ratio = abs(m.eval(2 * z)) / abs(m.eval(z))
        assert ratio == pytest.approx(2 ** dinf, rel=1e-3)


def test_critical_point_at_one_has_multiplicity_m_minus_1():
    # local degree at z=1 is m = d0 + dinf - 1, i.e. f' vanishes to order m-1
    for d0, dinf in [(2, 2), (3, 2), (2, 3)]:
        mdeg = d0 + dinf - 1
        mp = herman_family(d0, dinf, B_FIG)
        for k in range(1, mdeg):
            assert abs(mp.deriv(1.0, order=k)) < 1e-9
        assert abs(mp.deriv(1.0, order=mdeg)) > 1e-9


def test_critical_points_budget_and_locations():
    m = herman_family(3, 2, B_FIG)
    cps = critical_points(m)
    assert sum(mult for _, mult in cps) == 2 * m.total_degree - 2
    pts = {round(p.real, 6) + 1j * round(p.imag, 6): mult
           for p, mult in cps if p is not INF}
    # z = 1 with multiplicity m-1 = 3; z = 0 with multiplicity d0-1 = 2
    assert pts.get(1.0 + 0j) == 3
    assert pts.get(0j) == 2


def test_inversion_symmetry_23_is_conjugate_32():
    # F_{2,3,1/b}(1/z) = 1 / F_{3,2,b}(z)
    m32 = herman_family(3, 2, B_FIG)
    m23 = herman_family(2, 3, 1 / B_FIG)
    rng = np.random.default_rng(3)
    for z in rng.standard_normal(20) + 1j * rng.standard_normal(20):
        assert m23.eval(1 / z) == pytest.approx(1 / m32.eval(z), rel=1e-10)


def test_blaschke_preserves_circle():
    m = blaschke(2, 0.6136486381292343)
    for t in np.linspace(0, 1, 37, endpoint=False):
        z = cmath.exp(2j * math.pi * t)
        assert abs(abs(m.eval(z)) - 1.0) < 1e-12


def test_infinity_chart_agrees_with_plane_chart():
    m = herman_family(3, 2, B_FIG)
    for z in [1e9, 1e9 + 1e9j, -5e8j]:
        direct = B_FIG * z ** 3 * (4 - z) / (1 - 4 * z + 6 * z ** 2)
        assert m.eval(z) == pytest.approx(direct, rel=1e-6)


def test_preimages_full_fiber():
    m = herman_family(3, 2, B_FIG)
    w = 0.3 + 0.2j
    pre = preimages(m, w)
    assert len(pre) + pre.missing == m.total_degree
    for r in pre:
        assert abs(m.eval(r) - w) < 1e-8 * (1 + abs(w))


def test_arnold_lift_critical_point():
    F = arnold_lift(0.61)
    assert F.deriv(0.5) == pytest.approx(0.0, abs=1e-15)
    # degree-one lift periodicity
    assert F(1.3) - F(0.3) == pytest.approx(1.0, abs=1e-12)
    # second-order (cubic-type) criticality: F' has a double zero at 1/2
    assert F.deriv(0.5 + 1e-4) == pytest.approx(0.0, abs=1e-6)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_family_defining_properties(d0, dinf, c):
    m = herman_family(d0, dinf, c)
    assert m.eval(1.0) == pytest.approx(c, rel=1e-9)
    # numerator valuation d0 at 0, denominator degree d0-1
    assert all(abs(x) < 1e-14 for x in m.num[:d0])
    assert len(m.den) == d0


# -- RationalMap.eval against numpy complex128 scalar arithmetic -------------

def _np_horner(c, z):
    acc = 0.0 + 0.0j
    for j in range(len(c) - 1, -1, -1):
        acc = acc * z + c[j]  # c[j] is a numpy complex128 scalar
    return acc


def _np_scale(c, r):
    return float(np.sum(np.abs(c) * (max(r, 1.0) ** np.arange(len(c)))))


def _oracle_plane(num, den, z):
    nv, dv = _np_horner(num, z), _np_horner(den, z)
    if abs(dv) <= 1e-14 * max(1.0, _np_scale(den, abs(z))):
        if abs(nv) <= 1e-14 * max(1.0, _np_scale(num, abs(z))):
            raise ZeroDivisionError
        return PoleResult()
    return nv / dv


def _oracle_inf(num, den, z):
    L = max(len(num), len(den))
    rn = np.zeros(L, dtype=np.complex128)
    rd = np.zeros(L, dtype=np.complex128)
    rn[: len(num)] = num
    rd[: len(den)] = den
    rn, rd = rn[::-1], rd[::-1]
    w = 0.0 if cmath.isinf(z) else 1.0 / z
    nv, dv = _np_horner(rn, w), _np_horner(rd, w)
    if abs(dv) <= 1e-14 * float(np.sum(np.abs(rd) * (abs(w) ** np.arange(L)))):
        return PoleResult()
    return nv / dv


def _outcome(f, *args):
    """f's result as comparable bits: "0/0", "pole", "nan" or the float bytes."""
    try:
        v = f(*args)
    except ZeroDivisionError:
        return "0/0"
    if isinstance(v, PoleResult):
        return "pole"
    assert type(v) is np.complex128
    return "nan" if np.isnan(v) else v.real.tobytes() + v.imag.tobytes()


_coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _map_and_point(draw):
    num = np.array(draw(st.lists(_coeff, min_size=1, max_size=6)), dtype=np.complex128)
    den = np.array(draw(st.lists(_coeff, min_size=1, max_size=6)), dtype=np.complex128)
    if draw(st.booleans()):
        num = np.convolve(num, den)  # N shares every root of D: a 0/0 there
    m = RationalMap(num, den)
    where = draw(st.sampled_from(["plane", "near_pole", "inf_chart"]))
    direction = cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    if where == "near_pole" and len(m.den) > 1:
        root = draw(st.sampled_from(list(np.roots(m.den[::-1]))))
        z = root + draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(st.floats(-15, -6)) * direction
    elif where == "inf_chart":
        z = 10.0 ** draw(st.floats(8.0, 12.0)) * direction
    else:
        z = 10.0 ** draw(st.floats(-10.0, 8.0)) * direction
    return m, complex(z)


@given(_map_and_point())
@settings(max_examples=400, deadline=None)
def test_eval_bit_equal_to_numpy_scalar_formula(case):
    m, z = case
    oracle = _oracle_inf if abs(z) > 1e8 else _oracle_plane
    with np.errstate(all="ignore"):
        assert _outcome(m.eval, z) == _outcome(oracle, m.num, m.den, z)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False,
                          allow_infinity=False),
       st.floats(-12.0, -4.0), st.sampled_from([-1.0, 1.0]), st.floats(0.0, 2 * math.pi))
@settings(max_examples=100, deadline=None)
def test_plane_and_infinity_charts_agree_near_switch(d0, dinf, c, log_gap, side, angle):
    m = herman_family(d0, dinf, c)
    z = 1e8 * (1.0 + side * 10.0 ** log_gap) * cmath.exp(1j * angle)
    # eval picks one chart by |z|; the oracle evaluates the other one
    other = _oracle_inf if abs(z) <= 1e8 else _oracle_plane
    assert complex(m.eval(z)) == pytest.approx(complex(other(m.num, m.den, z)), rel=1e-9)
