"""Rational-family oracles: explicit formulas, symmetry, critical structure."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from hermanlab.maps import RationalMap, arnold_lift, blaschke, herman_family

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


def _vanishing_order(poly, x):
    """How many times poly (a numpy Polynomial) can be differentiated
    before its value at x leaves a 1e-9 relative band around 0."""
    scale = np.max(np.abs(poly.coef))
    k = 0
    while k <= poly.degree() and abs(poly.deriv(k)(x)) < 1e-9 * scale:
        k += 1
    return k


def test_local_degrees_at_zero_and_infinity():
    for d0, dinf in [(2, 2), (3, 2), (2, 3)]:
        m = herman_family(d0, dinf, B_FIG)
        # the numerator vanishes to order exactly d0 at 0, the denominator not
        assert _vanishing_order(Polynomial(m.num), 0.0) == d0
        assert _vanishing_order(Polynomial(m.den), 0.0) == 0
        # pole order at infinity equals dinf: f(z) ~ z^dinf for large z
        z = 1e6
        ratio = abs(m.eval(2 * z)) / abs(m.eval(z))
        assert ratio == pytest.approx(2 ** dinf, rel=1e-3)


def test_critical_point_at_one_has_multiplicity_m_minus_1():
    # local degree at z=1 is m = d0 + dinf - 1: f' = (N'D - ND')/D^2 vanishes
    # there to order m-1, and D(1) != 0
    for d0, dinf in [(2, 2), (3, 2), (2, 3)]:
        mdeg = d0 + dinf - 1
        mp = herman_family(d0, dinf, B_FIG)
        N, D = Polynomial(mp.num), Polynomial(mp.den)
        assert _vanishing_order(D, 1.0) == 0
        assert _vanishing_order(N.deriv() * D - N * D.deriv(), 1.0) == mdeg - 1


def test_inversion_symmetry_23_is_conjugate_32():
    # F_{2,3,1/b}(1/z) = 1 / F_{3,2,b}(z)
    m32 = herman_family(3, 2, B_FIG)
    m23 = herman_family(2, 3, 1 / B_FIG)
    rng = np.random.default_rng(3)
    for z in rng.standard_normal(20) + 1j * rng.standard_normal(20):
        assert m23.eval(1 / z) == pytest.approx(1 / m32.eval(z), rel=1e-10)


def test_maps_compare_by_coefficients_and_parameter():
    assert herman_family(3, 2, -1 - 1j) == herman_family(3, 2, -1 - 1j)
    assert herman_family(3, 2, -1 - 1j) != herman_family(3, 2, -1 - 1.5j)


def test_blaschke_preserves_circle():
    m = blaschke(2, 0.6136486381292343)
    for t in np.linspace(0, 1, 37, endpoint=False):
        z = cmath.exp(2j * math.pi * t)
        assert abs(abs(m.eval(z)) - 1.0) < 1e-12


def test_arnold_lift_critical_point():
    F = arnold_lift(0.61)
    # degree-one lift periodicity
    assert F(1.3) - F(0.3) == pytest.approx(1.0, abs=1e-12)
    # cubic-type criticality: F' = 1 + cos(2 pi x) has a double zero at 1/2,
    # so a difference across 1/2 is (4/3) pi^2 h^3, where F' = 1 it is 2h
    h = 1e-3
    assert F(0.5 + h) - F(0.5 - h) == pytest.approx(4 / 3 * math.pi ** 2 * h ** 3, rel=1e-4)
    assert F(0.25 + h) - F(0.25 - h) == pytest.approx(2 * h, rel=1e-9)


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


def _oracle(num, den, z):
    return _np_horner(num, z) / _np_horner(den, z)


def _outcome(f, *args):
    """f's result as comparable bits: "nan" or the float bytes."""
    v = f(*args)
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
    where = draw(st.sampled_from(["plane", "near_pole", "far"]))
    direction = cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    if where == "near_pole" and len(m.den) > 1:
        root = draw(st.sampled_from(list(np.roots(m.den[::-1]))))
        z = root + draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(st.floats(-15, -6)) * direction
    elif where == "far":
        z = 10.0 ** draw(st.floats(8.0, 12.0)) * direction
    else:
        z = 10.0 ** draw(st.floats(-10.0, 8.0)) * direction
    return m, complex(z)


@given(_map_and_point())
@settings(max_examples=400, deadline=None)
def test_eval_bit_equal_to_numpy_scalar_formula(case):
    """eval is numpy's quotient of the two Horner sums at every point: in
    the plane, at or near a pole (inf or nan parts, nan at a 0/0) and past
    |z| = 1e8."""
    m, z = case
    with np.errstate(all="ignore"):
        assert _outcome(m.eval, z) == _outcome(_oracle, m.num, m.den, z)
