"""The orbit kernels against independent oracles: RationalMap.eval loops,
numpy.polyval, finite differences and 50-digit mpmath orbits; the C
kernels against the python references, bit for bit."""

import ast
import contextlib
import decimal
import json
import math
import os
import pathlib
import re
import shutil
import struct
import subprocess
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hermanlab as hl
from hermanlab import _kernels as K, _reference
from hermanlab.curve import _critical_orbit

B_FIG = complex(-1.144208, -0.964454)


@pytest.fixture(scope="module")
def map32():
    return hl.herman_family(3, 2, B_FIG)


def eval_orbit(m, z, n):
    """The first n iterates of z under RationalMap.eval."""
    out = []
    for _ in range(n):
        z = m.eval(z)
        out.append(z)
    return np.array(out, dtype=np.complex128)


def test_horner_agrees(map32):
    """_horner against numpy.polyval."""
    rng = np.random.default_rng(11)
    for z in rng.standard_normal(30) + 1j * rng.standard_normal(30):
        for coeffs in (map32.num, map32.den):
            assert K._horner(coeffs, z) == pytest.approx(
                np.polyval(coeffs[::-1], z), rel=1e-14)


def test_orbit_agrees(map32):
    """orbit is bit-equal to iterating RationalMap.eval before the trap; n_ok
    counts those iterates and the rest, from the trapped one on, are NaN."""
    a, na = K.orbit(map32.num, map32.den, 1.0 + 0.0j, 200, 1e-8, 1e8)
    assert na == 200
    assert np.array_equal(a, eval_orbit(map32, 1.0 + 0.0j, 200))
    # 0.1 falls into the superattracting basin of 0 within a few steps
    a, na = K.orbit(map32.num, map32.den, 0.1 + 0.0j, 50, 1e-8, 1e8)
    ref = eval_orbit(map32, 0.1 + 0.0j, na + 1)
    assert 0 < na < 50 and np.all(np.abs(ref[:na]) >= 1e-8) and abs(ref[na]) < 1e-8
    assert np.array_equal(a[:na], ref[:na])
    assert np.all(np.isnan(a[na:]))


def test_orbit_samples_agrees(map32):
    """orbit_samples equals the RationalMap.eval orbit at the sampled indices."""
    ks = np.array([1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144], dtype=np.int64)
    a, na = K.orbit_samples(map32.num, map32.den, 1.0 + 0.0j, ks, 1e-8, 1e8)
    assert na == len(ks)
    assert np.array_equal(a, eval_orbit(map32, 1.0 + 0.0j, ks[-1])[ks - 1])


def residual(qm, c):
    num0, den = hl.maps.family_core(3, 2)
    return K.tune_residual(num0, den, c, qm, 1e-8, 1e8)


def test_tune_residual_agrees(map32):
    """The residual against the RationalMap.eval orbit, dG/dc against a
    central difference."""
    h = 1e-6 * abs(B_FIG)
    for qm in (5, 13, 89):
        r, dr = residual(qm, B_FIG)
        ref = eval_orbit(map32, 1.0 + 0.0j, qm)[-1] - 1.0
        assert abs(r - ref) <= 1e-12 * abs(ref)
        fd = (residual(qm, B_FIG + h)[0] - residual(qm, B_FIG - h)[0]) / (2 * h)
        assert abs(dr - fd) <= 1e-6 * abs(dr)


def test_classify_agrees(map32):
    """classify_kernel against a scalar RationalMap.eval escape loop that
    compares |z|^2 with r0^2 and rinf^2."""
    w = h = 48
    maxiter, r0, rinf = 120, 1e-6, 1e6
    x0, y0, dx, dy = -2.0, -2.0, 4.0 / w, 4.0 / h
    labels, iters = K.classify_kernel(map32.num, map32.den, x0, y0, dx, dy, w, h,
                                      maxiter, r0, rinf)
    ref_labels = np.full((h, w), 2, dtype=np.uint8)
    ref_iters = np.full((h, w), maxiter, dtype=np.uint32)
    for iy in range(h):
        for ix in range(w):
            z = complex(x0 + (ix + 0.5) * dx, y0 + (iy + 0.5) * dy)
            for k in range(maxiter):
                m2 = z.real ** 2 + z.imag ** 2
                if m2 < r0 ** 2 or m2 > rinf ** 2:
                    ref_labels[iy, ix] = 0 if m2 < r0 ** 2 else 1
                    ref_iters[iy, ix] = k
                    break
                z = map32.eval(z)
    assert set(np.unique(labels)) == {0, 1, 2}
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(iters, ref_iters)


def test_double_orbit_matches_mpmath(map32):
    """The complex128 critical orbit against a 50-digit mpmath orbit of the
    same coefficients, up to q_14 = 610: the round-off drifts to 3.8e-13."""
    q = hl.GOLDEN.q[14]
    ks = np.arange(1, q + 1, dtype=np.int64)
    orb = _critical_orbit(map32, ks, 1.0)
    with mpmath.workdps(50):
        num = [mpmath.mpc(c.real, c.imag) for c in map32.num[::-1]]
        den = [mpmath.mpc(c.real, c.imag) for c in map32.den[::-1]]
        z = mpmath.mpc(1)
        ref = []
        for _ in range(q):
            z = mpmath.polyval(num, z) / mpmath.polyval(den, z)
            ref.append(complex(z))
    assert np.max(np.abs(orb - np.array(ref))) <= 5e-13


# -- the C kernels against the python references ---------------------------------

needs_c = pytest.mark.skipif(K.BACKEND != "c", reason="C kernels not built (no cc)")


def bits(x):
    """The bit patterns of complex values, every NaN mapped to one pattern."""
    a = np.array(x, dtype=np.complex128).view(np.float64)
    b = a.view(np.uint64).copy()
    b[np.isnan(a)] = 0x7FF8000000000000
    return b.tolist()


def test_backend_is_c_when_cc_exists():
    """A missing C backend must not silently turn the tests below into skips."""
    assert K.BACKEND == ("c" if shutil.which("cc") else "numpy")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc'")
def test_c_source_compiles_without_warnings(tmp_path):
    res = subprocess.run(["cc", *K._CFLAGS, "-Wall", "-Wextra", "-Werror",
                          "-o", str(tmp_path / "k.so"), K._SOURCE, "-lm"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


coeff = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
coeffs = st.lists(coeff, min_size=1, max_size=5)


# trap radii around the edges where r0^2 or rinf^2 leaves the normal range
# (2^-511 and 2^511 square to normal numbers, the next radii out do not),
# where the C loops decide every iterate by hypot
EXTREME_R0 = [1e-8, 1e-160, 5e-324, 2.0 ** -511, float(np.nextafter(2.0 ** -511, 0.0))]
EXTREME_RINF = [1e8, 1e160, np.inf, 2.0 ** 511, 2.0 ** 512]


@st.composite
def orbit_case(draw, z0=None):
    """(num, den, z0, n, r0, rinf): random coefficients and start; for kind
    "pole" D(z0) is within 1e-12 of 0, for kind "trap" r0 or rinf equals the
    modulus of one iterate or is one ulp either side of it, the other radius
    0, inf or normal; for kind "extreme" r0 and rinf come from EXTREME_R0
    and EXTREME_RINF."""
    num, den = draw(coeffs), draw(coeffs)
    z0 = draw(coeff) if z0 is None else z0
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["free", "pole", "trap", "extreme"]))
    if kind == "pole":
        den[0] -= complex(K._horner(den, z0)) - draw(st.floats(-1e-12, 1e-12))
    num, den = np.array(num, dtype=np.complex128), np.array(den, dtype=np.complex128)
    r0, rinf = 1e-8, 1e8
    if kind == "trap":
        with np.errstate(all="ignore"):
            ref, _ = _reference._orbit_samples(num, den, z0, np.arange(1, n + 1), 0.0, np.inf)
        a = abs(ref[draw(st.integers(0, n - 1))])
        a = draw(st.sampled_from([a, np.nextafter(a, 0.0), np.nextafter(a, np.inf)]))
        r0, rinf = draw(st.sampled_from([(a, np.inf), (0.0, a), (a, 1e8), (1e-8, a)]))
    if kind == "extreme":
        r0, rinf = draw(st.sampled_from(EXTREME_R0)), draw(st.sampled_from(EXTREME_RINF))
    return num, den, z0, n, r0, rinf


@needs_c
@settings(max_examples=300, deadline=None)
@given(orbit_case())
def test_c_orbit_bit_equal(case):
    """orbit is bit-equal to the reference _orbit_samples at ks = 1..n, NaNs included."""
    num, den, z0, n, r0, rinf = case
    with np.errstate(all="ignore"):
        ref, nref = _reference._orbit_samples(num, den, z0, np.arange(1, n + 1), r0, rinf)
    out, nout = K.orbit(num, den, z0, n, r0, rinf)
    assert nout == nref
    assert bits(out) == bits(ref)


@needs_c
@settings(max_examples=300, deadline=None)
@given(orbit_case(), st.lists(st.integers(1, 60), min_size=1, max_size=12))
def test_c_orbit_samples_bit_equal(case, ks):
    num, den, z0, n, r0, rinf = case
    ks = np.array(sorted(ks), dtype=np.int64)
    with np.errstate(all="ignore"):
        ref, nref = _reference._orbit_samples(num, den, z0, ks, r0, rinf)
    out, nout = K.orbit_samples(num, den, z0, ks, r0, rinf)
    assert nout == nref
    assert bits(out) == bits(ref)


@needs_c
@settings(max_examples=300, deadline=None)
@given(orbit_case(z0=1.0 + 0.0j), coeff)
def test_c_tune_residual_bit_equal(case, c):
    """The residual orbit starts at 1, so kind "pole" puts 1 near a pole."""
    num0, den, _, qm, r0, rinf = case
    with np.errstate(all="ignore"):
        ref = _reference._tune_residual(num0, den, c, qm, r0, rinf)
    out = K.tune_residual(num0, den, c, qm, r0, rinf)
    assert bits(out) == bits(ref)


# real and imaginary parts of coefficients and starts that carry signed zeros
# through the orbit loops
SIGNED = [0.0, -0.0, 0.5, -0.5, 1.0, -2.0]
signed_coeff = st.builds(complex, st.sampled_from(SIGNED), st.sampled_from(SIGNED))
signed_coeffs = st.lists(signed_coeff, min_size=1, max_size=4)


@needs_c
@settings(max_examples=400, deadline=None)
@given(signed_coeffs, signed_coeffs, signed_coeff, signed_coeff, st.integers(0, 1),
       st.sampled_from([complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.5, -0.0),
                        complex(-0.0, -0.0), None]),
       st.sampled_from([(1e-8, 1e8), (0.0, np.inf), (5e-324, 2.0 ** 512)]))
def test_c_orbit_kernels_signed_zero_top_coefficient(num, den, z0, c, which, top, radii):
    """A top coefficient with a -0.0 part makes horner in _kernels.c and
    _horner take Horner's first step in full instead of starting from it:
    in the numerator or the denominator (which), and in tune_residual's
    derivative coefficients j*a_j, whose top has a -0.0 part where a_j has
    a real part -0.0, or an imaginary part -0.0 and a negative real part
    (top 0.5 - 0.0i steps in full in the numerator only); top None keeps
    the drawn one.  Coefficients and starts with signed-zero parts carry
    the sign of a zero to the results.  Orbits and residuals equal the
    references' bit for bit at both starts, also where every iterate's
    trap is decided by hypot."""
    polys = [np.array(num, dtype=np.complex128), np.array(den, dtype=np.complex128)]
    if top is not None:
        polys[which][-1] = top
    r0, rinf = radii
    with np.errstate(all="ignore"):
        ref, nref = _reference._orbit_samples(*polys, z0, np.arange(1, 31), r0, rinf)
        out, nout = K.orbit(*polys, z0, 30, r0, rinf)
        assert nout == nref and bits(out) == bits(ref)
        ref = _reference._tune_residual(*polys, c, 30, r0, rinf)
        assert bits(K.tune_residual(*polys, c, 30, r0, rinf)) == bits(ref)


@needs_c
def test_c_traps_decided_as_hypot_decides():
    """Under N0(z) = z, D(z) = 1 the first iterate of orbit is z0 and that of
    tune_residual is c, both exactly.  With r0 or rinf at |z| (hypot) or one
    ulp either side of it, the C loops trap that iterate exactly when the
    references do, at moduli where the squares are normal, where they
    underflow (to subnormals near 1e-160, to 0 near 1e-170 and below) and
    where they overflow (near 1e154 and above); the other radius is
    normal, 0, inf or negative."""
    num, den = np.array([0, 1], dtype=np.complex128), np.array([1], dtype=np.complex128)
    rng = np.random.default_rng(5)
    for scale in (1e-8, 1.0, 1e8, 1e-155, 1e-160, 1e-170, 1e-310, 1e153, 1e155, 1e300):
        for z in (rng.uniform(0.3, 3.0, (12, 2)) * rng.choice([-1, 1], (12, 2)) * scale):
            z = complex(*z)
            a = abs(z)
            for edge in (np.nextafter(a, 0.0), a, np.nextafter(a, np.inf)):
                for r0, rinf in ((edge, 1e150), (edge, np.inf), (1e-150, edge), (0.0, edge),
                                 (-1.0, edge), (1e-150, -1e150)):
                    ref, nref = _reference._orbit_samples(num, den, z, np.array([1]), r0, rinf)
                    out, nout = K.orbit(num, den, z, 1, r0, rinf)
                    assert nout == nref and bits(out) == bits(ref)
                    ref = _reference._tune_residual(num, den, z, 1, r0, rinf)
                    assert bits(K.tune_residual(num, den, z, 1, r0, rinf)) == bits(ref)


def pole_window(m, n=9, step=2.0 ** -10):
    """(x0, y0, dx, dy, w, h) of an n x n window whose centre pixel starts
    exactly on a real root of the map's denominator (it must have one)."""
    roots = np.roots(m.den[::-1])
    p = float(roots[np.argmin(np.abs(roots.imag))].real)
    assert K._horner(m.den, complex(p)) == 0
    x0, y0 = p - (n // 2 + 0.5) * step, -(n // 2 + 0.5) * step
    assert x0 + (n // 2 + 0.5) * step == p and y0 + (n // 2 + 0.5) * step == 0.0
    return x0, y0, step, step, n, n


def family(d0, dinf):
    return hl.herman_family(d0, dinf, B_FIG)


def classify_checked(*args, lanes=None):
    """The C classifier's arrays at the given lane count (classify_kernel's
    widest by default), asserted equal to the reference's."""
    if lanes is None:
        out = K.classify_kernel(*args)
    else:
        out = K._classify_c(*K._complex(*args[:2]), *args[2:], K._cpus(), lanes)
    ref = _reference._classify(*args)
    assert np.array_equal(out[0], ref[0]) and np.array_equal(out[1], ref[1])
    return out


@needs_c
def test_c_classify_bit_equal():
    """The C classifier equals the float-array reference on the (3,2), (2,2)
    and (3,3) maps, on the standard window at two sizes (128 x 72 pixels
    span two of the reference's blocks) and on a zoom around the (3,2)
    pole (1 - i/sqrt(2))/3; on the (2,2) map's pole at 1/3 the quotient is
    not finite, becomes 2 rinf and escapes at the next iterate."""
    assert 128 * 72 > _reference._BLOCK > 96 * 80
    for d0, dinf in ((3, 2), (2, 2), (3, 3)):
        m = family(d0, dinf)
        for win in ((-2.0, -2.0, 4.0 / 96, 4.0 / 80, 96, 80, 150),
                    (-2.0, -2.0, 4.0 / 128, 4.0 / 72, 128, 72, 150),
                    (0.1, -0.6, 0.4 / 64, 0.4 / 64, 64, 64, 300)):
            classify_checked(m.num, m.den, *win, 1e-6, 1e6)
    m = family(2, 2)
    labels, iters = classify_checked(m.num, m.den, *pole_window(m), 50, 1e-6, 1e6)
    assert (labels[4, 4], iters[4, 4]) == (1, 1)


@needs_c
def test_c_classify_rows_split_independent(map32):
    """One worker and three (h not a multiple of 3) give identical arrays,
    at every lane count."""
    win = (*K._complex(map32.num, map32.den), -2.0, -2.0, 4.0 / 50, 4.0 / 47, 50, 47, 200,
           1e-6, 1e6)
    for lanes in K._WIDTHS:
        one, three = K._classify_c(*win, 1, lanes), K._classify_c(*win, 3, lanes)
        assert one[0].dtype == np.uint8 and one[1].dtype == np.uint32
        assert np.array_equal(one[0], three[0]) and np.array_equal(one[1], three[1])


@needs_c
def test_c_classify_widths_cover_the_cpu():
    """2 lanes always, the wider counts only when the CPU has their
    instructions; any other count is refused, not run, by the classifier
    and by the arc ratios."""
    assert K._WIDTHS[0] == 2 and K._WIDTHS == (2, 4, 8)[:len(K._WIDTHS)]
    m = family(3, 2)
    pts = np.exp(2j * np.pi * np.arange(20) / 20)
    ii, jj = np.array([0, 3], dtype=np.int64), np.array([7, 15], dtype=np.int64)
    for lanes in (0, 3, 16, *(n for n in (4, 8) if n not in K._WIDTHS)):
        with pytest.raises(ValueError, match="lanes"):
            K._classify_c(*K._complex(m.num, m.den), -2.0, -2.0, 0.5, 0.5, 8, 8, 10,
                          1e-6, 1e6, 1, lanes)
        with pytest.raises(ValueError, match="lanes"):
            K._arc_ratios_c(pts, ii, jj, 1, lanes)


@needs_c
@pytest.mark.parametrize("lanes", [2, 4, 8])
def test_c_classify_lanes_bit_equal(lanes):
    """Each lane count equals the reference on windows of fewer pixels than
    lanes, of pixel counts no multiple of it and of L+1, 2L-1, 2L and 2L+1
    pixels (one row or one column) at the edges of the classifier's two
    vectors of L lanes, at maxiter 0, 1 and 150; on a window that mixes
    pixels labelled at iterate 1 with pixels undecided at maxiter, so that
    lanes refill while others keep iterating; and at the (2,2) map's pole.
    An empty grid gives empty arrays."""
    if lanes not in K._WIDTHS:
        pytest.skip("this CPU lacks the instructions of the %d-lane classifier" % lanes)
    edges = [(n, 1) for n in (lanes + 1, 2 * lanes - 1, 2 * lanes, 2 * lanes + 1)]
    for d0, dinf in ((3, 2), (2, 2), (3, 3)):
        m = family(d0, dinf)
        for w, h in ((1, 1), (3, 3), (5, 7), (9, 1), *edges, *((h, w) for w, h in edges)):
            for maxiter in (0, 1, 150):
                classify_checked(m.num, m.den, -1.5, -1.2, 3.0 / w, 2.4 / h, w, h, maxiter,
                                 1e-6, 1e6, lanes=lanes)
    # column 0 on the imaginary axis through the (3,2) map's triple zero at 0,
    # whose pixels within 0.006 of it reach |z| < 1e-6 at iterate 1; column 1
    # through the critical point 1 on the Herman curve, all undecided
    m = family(3, 2)
    mixed = (m.num, m.den, -0.5, -0.012, 1.0, 1e-3, 2, 24, 150, 1e-6, 1e6)
    labels, iters = _reference._classify(*mixed)
    assert (iters[:, 0] == 1).sum() == 12 and (labels[:, 1] == 2).all()
    for workers in (1, 2):
        out = K._classify_c(*K._complex(m.num, m.den), *mixed[2:], workers, lanes)
        assert np.array_equal(out[0], labels) and np.array_equal(out[1], iters)
    m = family(2, 2)
    labels, iters = classify_checked(m.num, m.den, *pole_window(m), 50, 1e-6, 1e6, lanes=lanes)
    assert (labels[4, 4], iters[4, 4]) == (1, 1)
    for w, h in ((0, 4), (4, 0), (0, 0)):
        labels, iters = classify_checked(m.num, m.den, -1.0, -1.0, 0.1, 0.1, w, h, 20,
                                         1e-6, 1e6, lanes=lanes)
        assert labels.shape == iters.shape == (h, w)


@needs_c
def test_c_classify_signed_zero_top_coefficient():
    """A top coefficient with a -0.0 part makes the C loops and _horner_arrays
    take Horner's first step in full instead of starting from it; both
    starts give the reference's arrays at every lane count, also with
    rinf = inf, where an escaped iterate becomes inf."""
    m = family(3, 2)
    for top in (complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.0), 0j):
        num = np.concatenate([m.num[:-1], [top]])
        for rinf in (1e6, np.inf):
            for lanes in K._WIDTHS:
                with np.errstate(all="ignore"):
                    classify_checked(num, m.den, -2.0, -2.0, 4.0 / 23, 4.0 / 19, 23, 19, 60,
                                     1e-6, rinf, lanes=lanes)


@st.composite
def classify_case(draw):
    """A small window of one of the three maps; for kind "edge" r0 or rinf is
    the modulus of one pixel's centre or one ulp either side of it."""
    m = family(*draw(st.sampled_from([(3, 2), (2, 2), (3, 3)])))
    x0, y0 = draw(st.floats(-2.5, 2.0)), draw(st.floats(-2.5, 2.0))
    dx, dy = draw(st.floats(1e-3, 0.5)), draw(st.floats(1e-3, 0.5))
    w, h, maxiter = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(0, 80))
    r0, rinf = 1e-6, 1e6
    if draw(st.sampled_from(["free", "edge"])) == "edge":
        x = x0 + (draw(st.integers(0, w - 1)) + 0.5) * dx
        y = y0 + (draw(st.integers(0, h - 1)) + 0.5) * dy
        a = float(np.sqrt(x * x + y * y))
        a = draw(st.sampled_from([a, np.nextafter(a, 0.0), np.nextafter(a, np.inf)]))
        r0, rinf = draw(st.sampled_from([(a, np.inf), (0.0, a)]))
    return m.num, m.den, x0, y0, dx, dy, w, h, maxiter, r0, rinf


@needs_c
@settings(max_examples=200, deadline=None)
@given(classify_case(), st.sampled_from(K._WIDTHS))
def test_c_classify_bit_equal_random_windows(case, lanes):
    """Every lane count this CPU runs."""
    classify_checked(*case, lanes=lanes)


@needs_c
def test_c_kernels_bit_equal_on_deep_orbits(map32):
    """The tuned (3,2) golden map at orbit lengths of the tuning ladder."""
    num0, den = hl.maps.family_core(3, 2)
    c = complex(-1.144208397941167, -0.9644541484142908)
    for qm in (89, 1597, 17711):
        assert bits(K.tune_residual(num0, den, c, qm, 1e-8, 1e8)) == bits(
            _reference._tune_residual(num0, den, c, qm, 1e-8, 1e8))
    m = hl.herman_family(3, 2, c)
    out, n = K.orbit(m.num, m.den, 1.0 + 0.0j, 20000, 1e-8, 1e8)
    ref, nref = _reference._orbit_samples(m.num, m.den, 1.0 + 0.0j, np.arange(1, 20001), 1e-8, 1e8)
    assert n == nref == 20000 and bits(out) == bits(ref)


def real_coefficient_calls(num, den):
    """orbit_samples, tune_residual and classify_kernel of the (3,2) family's
    real core N0/D, given as num and den, at the tuned (3,2) golden
    parameter: their results, NaN-safe bits and arrays."""
    c = complex(-1.144208397941167, -0.9644541484142908)
    ks = np.array([1, 5, 89, 1597], dtype=np.int64)
    out, n = K.orbit_samples(num, den, 0.6 + 0.7j, ks, 1e-8, 1e8)
    labels, iters = K.classify_kernel(num, den, -2.0, -2.0, 4.0 / 48, 4.0 / 40, 48, 40, 150,
                                      1e-6, 1e6)
    return (bits(out), n, bits(K.tune_residual(num, den, c, 1597, 1e-8, 1e8)),
            labels.tolist(), iters.tolist())


def real_coefficients():
    """The (3,2) core as complex128 arrays, and as float64 arrays (strided
    .real views) and lists of floats of the same values."""
    num0, den = hl.maps.family_core(3, 2)
    assert not (num0.imag.any() or den.imag.any())
    return (num0, den), [(num0.real, den.real), (num0.real.tolist(), den.real.tolist())]


@needs_c
def test_c_kernels_take_real_and_list_coefficients(monkeypatch):
    """float64 and list coefficients give the complex128 coefficients'
    results bit for bit, in C: the python references, made to raise, are
    never called."""
    exact, others = real_coefficients()
    want = real_coefficient_calls(*exact)

    def refused(*args):
        raise AssertionError("the python reference ran")

    for name in ("_orbit_samples", "_tune_residual", "_classify"):
        monkeypatch.setattr(_reference, name, refused)
    for num, den in others:
        assert real_coefficient_calls(num, den) == want


def test_kernels_without_the_library_pass_complex128(monkeypatch):
    """With no C library, the orbit, residual and classifier references
    receive contiguous complex128 coefficients whatever they are given,
    and return for float64 and list coefficients what they return for
    complex128."""
    exact, others = real_coefficients()
    monkeypatch.setattr(K, "_lib", None)
    seen = []

    def checked(reference):
        def call(num, den, *rest):
            for a in (num, den):
                assert a.dtype == np.complex128 and a.flags.c_contiguous
            seen.append(reference.__name__)
            return reference(num, den, *rest)
        return call

    for name in ("_orbit_samples", "_tune_residual", "_classify"):
        monkeypatch.setattr(_reference, name, checked(getattr(_reference, name)))
    want = real_coefficient_calls(*exact)
    for num, den in others:
        assert real_coefficient_calls(num, den) == want
    assert sorted(set(seen)) == ["_classify", "_orbit_samples", "_tune_residual"]
    assert len(seen) == 9


def blaschke_den(d):
    """What blaschke_advance takes for the (d, d) Blaschke family: the bytes
    of its denominator's real coefficients, highest degree first."""
    return hl.blaschke(d, 0.5).den.real[::-1].tobytes()


@needs_c
@pytest.mark.parametrize("d", range(2, 7))
def test_c_blaschke_advance_bit_equal(d):
    """blaschke_advance in C against the reference _blaschke_advance, by hex:
    random alpha, also within 1e-9 of 0 and of 1, from x = 0 and -0.0, x in
    [0, 1), negative x and x of order 5e4, n from 0 to 3000, and integer x
    past 2^52, which a step leaves unchanged; and a sweep of alpha from
    x = 0, where the + 0.0 on the imaginary part turns the -0.0 of
    top * sin(0) into 0.0 for a negative top coefficient."""
    den, slope = blaschke_den(d), float(2 * d - 2)
    rng = np.random.default_rng(d)
    alphas = [*rng.random(24), *(rng.random(8) * 1e-9), *(1.0 - rng.random(8) * 1e-9), 0.0]
    for alpha in alphas:
        for x in (0.0, -0.0, rng.random(), -5.0 * rng.random(), rng.uniform(-5e4, 5e4)):
            n = int(rng.integers(0, 3001))
            want = _reference._blaschke_advance(den, alpha, slope, x, n)
            assert K.blaschke_advance(den, alpha, slope, x, n).hex() == want.hex(), (alpha, x, n)
        for x in (2.0 ** 52 + 1.0, -3e17, 1e300):
            want = _reference._blaschke_advance(den, alpha, slope, x, 3)
            assert K.blaschke_advance(den, alpha, slope, x, 3).hex() == want.hex(), (alpha, x)
    for k in range(200):
        for n in (0, 1, 13):
            want = _reference._blaschke_advance(den, k / 200, slope, 0.0, n)
            assert K.blaschke_advance(den, k / 200, slope, 0.0, n).hex() == want.hex(), (k, n)


def test_blaschke_advance_without_the_library_runs_the_reference(monkeypatch):
    """With no C library, blaschke_advance calls _blaschke_advance, and the
    (2,2) golden bisection on it returns the pinned parameter.  Both
    backends refuse a den of fewer than two whole coefficients."""
    for short in (b"", bytes(8), bytes(20)):
        with pytest.raises(ValueError, match="two or more"):
            K.blaschke_advance(short, 0.3, 2.0, 0.0, 1)
    calls = []
    reference = _reference._blaschke_advance

    def counted(*args):
        calls.append(args)
        return reference(*args)

    monkeypatch.setattr(K, "_lib", None)
    monkeypatch.setattr(_reference, "_blaschke_advance", counted)
    den = blaschke_den(3)
    assert K.blaschke_advance(den, 0.3, 4.0, 0.25, 50).hex() == reference(
        den, 0.3, 4.0, 0.25, 50).hex()
    assert calls == [(den, 0.3, 4.0, 0.25, 50)]
    with pytest.raises(ValueError, match="two or more"):
        K.blaschke_advance(bytes(8), 0.3, 2.0, 0.0, 1)
    res = hl.tune_blaschke(2, "golden", tol=1e-15, qcap=50000)
    assert res.parameter == -0.7556990644648718 - 0.6549190209231349j
    assert len(calls) > 32


@st.composite
def arc_case(draw):
    """(pts, ii, jj): a closed polygon of m vertices and vertex pairs.

    Coordinates are normal ("wide"), small integers with many ties
    ("ties"), integer multiples of 1e-160 or of the smallest subnormal,
    whose squares underflow ("narrow"), or a rotated ellipse traversed
    twice ("round"): there many points lie near each axis extreme, and the
    ends of the diameter are extremes of no axis, so the estimate depends
    on which 8 points each axis keeps.  The pairs include equal vertices
    (zero chord), wrapping outer arcs, a tie of inner and outer arc, arcs
    of 2 to 10 points, and arcs of 512, 513 and up to 1023 points after
    coarsening."""
    m = draw(st.sampled_from([2, 3, 9, 17, 200, 1100, 2100, 2200]))
    kind = draw(st.sampled_from(["wide", "ties", "narrow", "round"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "wide":
        xy = rng.standard_normal((2, m)) * 10.0 ** rng.integers(-3, 4)
    elif kind == "round":
        t = 4.0 * np.pi * np.arange(m) / m
        z = (np.cos(t) + 1j * rng.uniform(0.7, 1.0) * np.sin(t)) * np.exp(1j * rng.uniform(0, 7))
        xy = np.array([z.real, z.imag])
    else:
        xy = rng.integers(-3, 4, size=(2, m)).astype(np.float64)
        if kind == "narrow":
            xy *= draw(st.sampled_from([1e-160, 5e-324]))
    pts = xy[0] + 1j * xy[1]
    ii, jj = list(rng.integers(0, m, 40)), list(rng.integers(0, m, 40))
    for i, j in [(0, 0), (0, m - 1), (m - 1, 1), (0, m // 2), (m // 3, m - 2),
                 (0, 511), (0, 512), (5, 5 + 1022), (0, 1030), (m - 1, 600),
                 *((1, 1 + n) for n in range(1, 10))]:
        if max(i, j) < m:
            ii.append(i)
            jj.append(j)
    return pts, np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64)


@needs_c
@settings(max_examples=150, deadline=None)
@given(arc_case(), st.sampled_from(K._WIDTHS))
def test_c_arc_ratios_bit_equal(case, lanes):
    """The C arc ratios equal the reference's bit for bit, at each lane count
    and with 1 and 3 workers."""
    pts, ii, jj = case
    ref = _reference._arc_ratios(pts, ii, jj)
    assert bits(K._arc_ratios_c(pts, ii, jj, 1, lanes)) == bits(ref)
    assert bits(K._arc_ratios_c(pts, ii, jj, 3, lanes)) == bits(ref)
    assert bits(K.arc_ratios(pts, ii, jj)) == bits(ref)


@needs_c
@pytest.mark.parametrize("lanes", [2, 4, 8])
def test_c_arc_ratios_lanes_bit_equal(lanes):
    """Each lane count equals the reference on every vertex pair of polygons
    of 1, 2 and 13 points (arcs of 1 to 7 points, fewer than the lanes or
    no multiple of them; a 1-point arc has a zero chord and ratio 0) and
    on arcs of 506 to 1031 points, 513 to 1023 of them kept uncoarsened."""
    if lanes not in K._WIDTHS:
        pytest.skip("this CPU lacks the instructions of the %d-lane arc kernel" % lanes)
    rng = np.random.default_rng(4)
    for m in (1, 2, 13, 2100):
        pts = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        if m <= 13:
            ii, jj = np.indices((m, m)).reshape(2, -1)
        else:
            jj = np.arange(505, 1031)
            ii = np.zeros_like(jj)
        ref = _reference._arc_ratios(pts, ii, jj)
        assert (ref[ii == jj] == 0).all() and (ref[ii != jj] > 0).all()
        for workers in (1, 3):
            assert bits(K._arc_ratios_c(pts, ii, jj, workers, lanes)) == bits(ref)



@needs_c
@pytest.mark.parametrize("side", [1, -1], ids=["highest", "lowest"])
def test_c_arc_ratios_keep_axis_ties_as_a_stable_sort(side):
    """Nine arc points share the extreme x: Q = (side, 0.2) first, then eight
    at (side, 0.5).  Each axis end keeps eight points, the other ends eight
    ties each, and F = (0.1 side, 0.9) is extreme on no axis.  The highest
    end keeps the latest eight and drops Q, so no candidate gives |Q - F| =
    sqrt(1.3) and the diameter is |Q - (0, 0.5)| = sqrt(1.09); the lowest
    end keeps the earliest, Q among them, and the diameter is sqrt(1.3).
    Each end's tie rule, flipped, swaps the two."""
    arc = ([(1.0, 0.2)] + [(1.0, 0.5)] * 8 + [(0.0, 0.5)] * 8 + [(0.5, 1.0)] * 8
           + [(0.1, 0.9)] + [(0.5, 0.0)] * 8)
    pts = np.array([side * x + 1j * y for x, y in arc + [(0.5, 0.5)] * len(arc)])
    ii, jj = np.array([0]), np.array([len(arc) - 1])
    ref = _reference._arc_ratios(pts, ii, jj)
    diameter = math.sqrt(1.09 if side == 1 else 1.3)
    assert ref[0] == pytest.approx(diameter / abs(pts[0] - pts[len(arc) - 1]), rel=1e-15)
    for lanes in K._WIDTHS:
        for workers in (1, 3):
            assert bits(K._arc_ratios_c(pts, ii, jj, workers, lanes)) == bits(ref)


def polyline_case(shape, m, rng):
    """(pts, ii, jj): m points of a segment ("collinear") or a circle
    ("circle"), with pairs whose arcs run from 2 to m // 2 + 1 points."""
    t = np.sort(rng.random(m))
    if shape == "collinear":
        pts = (0.3 - 0.1j) + (1.0 + 2.0j) * t
    else:
        pts = (0.5 + 0.25j) + 1.7 * np.exp(2j * np.pi * t)
    ii = rng.integers(0, m, 300)
    jj = (ii + np.concatenate([rng.integers(1, m, 200), rng.integers(30, 40, 50),
                               np.arange(m // 2 - 25, m // 2 + 25)])) % m
    return pts, ii, jj


@needs_c
@pytest.mark.parametrize("shape", ["collinear", "circle"])
def test_c_pruned_arcs_bit_equal(shape):
    """An arc of more than 32 points skips the points that cannot raise its
    largest squared distance.  On collinear arcs, where every point but
    those next to the ends lies inside the bound, and on circle arcs, the
    ratios still equal the reference's bit for bit at each lane count
    and with 1 and 3 workers."""
    rng = np.random.default_rng(17)
    for m in (70, 1500, 2600):
        pts, ii, jj = polyline_case(shape, m, rng)
        ref = _reference._arc_ratios(pts, ii, jj)
        assert (ref > 0.5).all()
        for lanes in K._WIDTHS:
            for workers in (1, 3):
                assert bits(K._arc_ratios_c(pts, ii, jj, workers, lanes)) == bits(ref)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf),
                                 complex(math.nan, 1.0)])
def test_arc_ratios_refuse_non_finite_vertices(monkeypatch, bad):
    """Both backends raise ValueError for a non-finite vertex, which the C
    loop used to skip (ratio 1.0 for a NaN) and the reference to propagate
    (NaN)."""
    pts = np.exp(2j * np.pi * np.arange(12) / 12)
    pts[3] = bad
    with pytest.raises(ValueError, match="finite"):
        K.arc_ratios(pts, [0], [6])
    monkeypatch.setattr(K, "_lib", None)
    with pytest.raises(ValueError, match="finite"):
        K.arc_ratios(pts, [0], [6])


@pytest.mark.parametrize("lib", ["c", "numpy"])
def test_kernels_refuse_bad_indices_on_both_backends(monkeypatch, map32, lib):
    """orbit_samples without sample indices and arc_ratios on index vectors
    of two lengths or an index past the polygon raise the same errors on
    both backends; the reference used to meet the empty ks as numpy's
    index -1 out of bounds."""
    if lib == "numpy":
        monkeypatch.setattr(K, "_lib", None)
    elif K._lib is None:
        pytest.skip("C kernels not built (no cc)")
    with pytest.raises(IndexError, match="no sample indices"):
        K.orbit_samples(map32.num, map32.den, 1.0 + 0.0j, np.array([], dtype=np.int64),
                        1e-6, 1e6)
    pts = np.exp(2j * np.pi * np.arange(12) / 12)
    with pytest.raises(ValueError, match="index vectors of one length"):
        K.arc_ratios(pts, [0, 1], [6])
    for ii, jj in (([0], [12]), ([-1], [6])):
        with pytest.raises(IndexError, match="vertex index out of range"):
            K.arc_ratios(pts, ii, jj)


def same_bits(x, y):
    """float64 arrays x and y hold the same bits, any NaN equal to any NaN."""
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and np.array_equal(
        x[~nan].view(np.uint64), y[~nan].view(np.uint64))


def spread_floats(rng, n):
    """n floats of random sign and magnitude 10^-300..10^300, one in ten of
    them +-0, +-inf, NaN or +-5e-324."""
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    odd = rng.random(n) < 0.1
    x[odd] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324], odd.sum())
    return x


def test_array_helpers_equal_numpy_complex_scalars():
    """_cdiv_arrays equals numpy's complex128 scalar division bit for bit,
    also on ties |br| = |bi| (zero divisors left out: there cdiv gives inf
    or NaN and _cdiv_arrays NaN), and _horner_arrays equals _horner on the
    three maps' coefficients, with and without a -0.0 top part."""
    rng = np.random.default_rng(39)
    ar, ai, br, bi = (spread_floats(rng, 20000) for _ in range(4))
    tie = rng.random(20000) < 0.1
    bi[tie] = rng.choice([-1.0, 1.0], tie.sum()) * br[tie]
    keep = ~((br == 0) & (bi == 0))
    ar, ai, br, bi = ar[keep], ai[keep], br[keep], bi[keep]
    with np.errstate(all="ignore"):
        re, im = _reference._cdiv_arrays(ar, ai, br, bi)
        want = np.array([np.complex128(complex(a, b)) / np.complex128(complex(c, d))
                         for a, b, c, d in zip(ar, ai, br, bi)])
    assert same_bits(re, want.real) and same_bits(im, want.imag)
    zr, zi = spread_floats(rng, 1000), spread_floats(rng, 1000)
    for d0, dinf in ((3, 2), (2, 2), (3, 3)):
        m = family(d0, dinf)
        for coeffs in (m.num, m.den, np.concatenate([m.den[:-1], [-0.0j]])):
            with np.errstate(all="ignore"):
                ar, ai = _reference._horner_arrays(coeffs, zr, zi)
                want = np.array([K._horner(coeffs, np.complex128(complex(x, y)))
                                 for x, y in zip(zr, zi)])
            assert same_bits(ar, want.real) and same_bits(ai, want.imag)


# -- the curve CSV codec ----------------------------------------------------------

@contextlib.contextmanager
def spy(name):
    """The argument tuples of each call of _reference's function name
    while the block runs."""
    calls, real = [], getattr(_reference, name)
    with mock.patch.object(_reference, name, lambda *args: calls.append(args) or real(*args)):
        yield calls


def refused_runs(rows):
    """The runs (lo, hi) of rows holding a float that curve_csv_rows leaves
    to the reference: one not +-0 and of modulus outside [2^-16, 2^61)."""
    runs = []
    for i, row in enumerate(rows):
        if all(x == 0 or 2.0 ** -16 <= abs(x) < 2.0 ** 61 for x in row[1:]):
            continue
        if runs and runs[-1][1] == i:
            runs[-1] = (runs[-1][0], i + 1)
        else:
            runs.append((i, i + 1))
    return runs


def check_csv_rows(rows):
    """curve_csv_rows prints rows [k, x, y, z] as "%d,%r,%r,%r\\n" does, in C
    for every row whose floats it takes, if the library is loaded."""
    assert sys.float_repr_style == "short"
    cols = (np.array([r[0] for r in rows], dtype=np.int64),
            *(np.array([r[i] for r in rows], dtype=np.float64) for i in (1, 2, 3)))
    with spy("_curve_csv_rows") as calls:
        out = K.curve_csv_rows(*cols)
    assert out == "".join("%d,%r,%r,%r\n" % tuple(r) for r in rows).encode()
    runs = [(lo, hi) for _, lo, hi in calls]
    assert runs == (refused_runs(rows) if K.BACKEND == "c" else [(0, len(rows))])


def from_bits(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


# any float, any 64-bit pattern, and patterns with an exponent of the C
# formatter's range, a mantissa of 0 (a power of two) among them
c_floats = st.one_of(
    st.floats(),
    st.integers(0, 2 ** 64 - 1).map(from_bits),
    st.tuples(st.integers(0, 1), st.integers(1023 - 17, 1023 + 61),
              st.one_of(st.just(0), st.integers(0, 2 ** 52 - 1)))
    .map(lambda t: from_bits(t[0] << 63 | t[1] << 52 | t[2])))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1), c_floats, c_floats, c_floats),
                min_size=1, max_size=30))
def test_curve_csv_rows_equal_repr(rows):
    """Over st.floats() and raw 64-bit patterns, the writer prints what repr
    prints, and the reference writes exactly the runs of rows with a float
    outside the C formatter's range."""
    check_csv_rows(rows)


def test_curve_csv_rows_equal_repr_near_powers_of_two_and_decimals():
    """Neighbours within 2 ulps of every power of two from 2^-17 to 2^62
    and of decimals of 1 to 17 digits, and uniform draws: where the
    shortest digits are decided by one ulp, or the lower neighbour is half
    as far."""
    rng = np.random.default_rng(23)
    base = [2.0 ** e for e in range(-17, 63)]
    base += [float("%.*g" % (int(p), x)) for p, x in
             zip(rng.integers(1, 18, 3000), rng.random(3000) * 10.0 ** rng.integers(-6, 19, 3000))]
    vals = []
    for b in base:
        for steps in (-2, -1, 0, 1, 2):
            vals.append(b)
            b = math.nextafter(b, math.inf if steps >= 0 else -math.inf)
    vals += rng.random(3000).tolist()
    vals = [v * s for v, s in zip(vals, rng.choice([-1.0, 1.0], len(vals)).tolist())]
    vals += [0.0] * (-len(vals) % 3)
    check_csv_rows([[k - 9, *vals[3 * k:3 * k + 3]] for k in range(len(vals) // 3)])


def test_curve_csv_rows_mix_c_and_reference():
    """Rows with 5e-324, 1e-300, 1e300, inf or NaN go to the reference whole,
    the others, -0.0 and the ends of the C range among them, to C."""
    odd = [5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan, 2.0 ** -16 / 2, 2.0 ** 61]
    fine = [-0.0, 0.0, 0.5, -2.0 ** -16, math.nextafter(2.0 ** 61, 0), 1e16, 0.1, 123.456]
    rows = [[k, fine[k % 8], fine[(k + 3) % 8], fine[(k + 5) % 8]] for k in range(12)]
    for k, x in zip((1, 2, 3, 7, 8, 11), odd):
        rows[k][1 + k % 3] = x
    rows[8][1] = math.nan
    check_csv_rows(rows)
    assert refused_runs(rows) == [(1, 4), (7, 9), (11, 12)]
    check_csv_rows([[0, math.inf, 0.5, 0.5]])
    check_csv_rows([[-2 ** 63, -0.0, 0.0, -0.0], [2 ** 63 - 1, 0.75, -0.75, 1.0]])


def test_curve_csv_codec_refuses_what_it_cannot_bound(monkeypatch):
    """Columns of different lengths and a start outside the data raise
    ValueError, and ks that int64 cannot hold TypeError, on both backends,
    before any pointer is passed."""
    for lib in (K._lib, None):
        monkeypatch.setattr(K, "_lib", lib)
        with pytest.raises(ValueError, match="one length"):
            K.curve_csv_rows(np.arange(3), np.zeros(3), np.zeros(2), np.zeros(3))
        with pytest.raises(TypeError):
            K.curve_csv_rows(np.array([2 ** 63], dtype=np.uint64), *np.zeros((3, 1)))
        for start in (-1, 5):
            with pytest.raises(ValueError, match="outside"):
                K.curve_csv_parse(b"0,1\n", start)


def parsed(tokens):
    """curve_csv_parse of one row per token, each "k,t,t,t": the first
    column as a list, or None if the reader refuses the text.  With the
    library, the python reference runs only for a text that C refuses."""
    data = b"".join(b"%d,%s,%s,%s\n" % (k, t, t, t)
                    for k, t in enumerate(t.encode() for t in tokens))
    with spy("_curve_csv_parse") as calls:
        try:
            cols = K.curve_csv_parse(data, 0)
        except ValueError:
            cols = None
    assert bool(calls) == (cols is None or K.BACKEND != "c")
    if cols is None:
        return None
    assert cols[1].tobytes() == cols[2].tobytes() == cols[3].tobytes()
    assert cols[0].tolist() == list(range(len(tokens)))
    return cols[1].tolist()


def check_parse_equals_float(tokens):
    """The reader takes every token and gives float(token) bit for bit,
    +-0.0 included: C alone with the library, the reference without it."""
    got = parsed(tokens)
    assert got is not None
    assert [t for t, x in zip(tokens, got)
            if struct.pack("<d", x) != struct.pack("<d", float(t))] == []


def grammar_forms(x):
    """x as repr, %.17g, %.25f and %.30e print it, with the exponent of %g
    and %e in the writer's form e[+-]XX; x finite."""
    return [repr(x), "%.17g" % x, "%.25f" % x, "%.30e" % x]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(0, 2 ** 64 - 1).map(from_bits)
                          .filter(math.isfinite)), min_size=1, max_size=20))
def test_curve_csv_parse_equals_float(xs):
    """Over st.floats() and raw 64-bit patterns, written as repr, %.17g,
    %.25f and %.30e print them, the reader gives float(token) bit for bit."""
    check_parse_equals_float([t for x in xs for t in grammar_forms(x)])


def exact(n, e):
    """The exact decimal of n 2^e as a Decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        return decimal.Decimal(n) * decimal.Decimal(2) ** e


def decimal_forms(d, digits):
    """d rounded to digits significant digits, then that decimal less and
    plus one in its last digit, each in %f and %e form."""
    sign, ds, ex = d.as_tuple()
    w = int("".join(map(str, ds)))
    drop = max(len(ds) - digits, 0)
    w, ex = w // 10 ** drop, ex + drop
    out = []
    for v in (w - 1, w, w + 1):
        r = decimal.Decimal((sign, tuple(map(int, str(v))), ex))
        out += ["{:f}".format(r), "{:e}".format(r)]
    return out


def test_curve_csv_parse_binary_midpoints():
    """Exact midpoints between neighbouring doubles, which round to the even
    one, and the decimals one unit in the last digit below and above them:
    in full, and rounded to 15 to 19 significant digits, where the 128-bit
    product's lower bits are all ones or all zeros and the second product
    and the ties-to-even branch decide the result."""
    rng = np.random.default_rng(31)
    tokens = []
    # midpoints (2^53 + 2j + 1) 2^e of normal doubles, the short ones with
    # e >= 0 written w e+q with q in [0, 23]
    ms, es = rng.integers(2 ** 52, 2 ** 53, 400).tolist(), rng.integers(-120, 80, 400).tolist()
    for m, e in zip(ms, es):
        d = exact(2 * m + 1, e)
        tokens += decimal_forms(d, 200)
        for digits in (15, 16, 17, 18, 19):
            tokens += decimal_forms(d, digits)
    for q in range(24):
        lo, hi = -(-2 ** 53 // 5 ** q), 2 ** 54 // 5 ** q
        for j in (lo | 1, (lo + hi) // 2 | 1, (hi - 1) | 1):
            assert 2 ** 53 < j * 5 ** q < 2 ** 54
            w = j
            while w < 10 ** 19:
                tokens += ["%de+%02d" % (w + dw, q) for dw in (-1, 0, 1)]
                w *= 2
    # short midpoints below 1 in each binade: n/2, n/4, n/8 with n odd
    for n in (2 ** 53 + 1, 2 ** 53 + 3, 2 ** 54 - 1):
        for f in (2, 4, 8):
            tokens += decimal_forms(exact(n, -f.bit_length() + 1), 19)
    check_parse_equals_float(tokens)


@pytest.mark.parametrize("token", [
    "12345678901234567890", "1.2345678901234567890123", "0.10000000000000000555",
    "9007199254740993.0000000000001", "000000000000000000000000000001.5",
    "0.0000000000000000000000000000000000000000000000000000000000000000000001",
    "-0", "-0.0", "0.000e-00", "-000.000e+99999", "00012.50",
    "1e-65", "1e+65", "9.999999999999999e-65", "1.7976931348623157e+308",
    "1.7976931348623158e+308", "2.2250738585072014e-308", "2.2250738585072011e-308",
    "4.9406564584124654e-324", "5e-324", "2e-324", "1e-400", "-1e-400",
    "1e+00000000000000000000000000000000", "123456789012345678e-00000000000000000000064",
    "1e+23", "8.98846567431158e+307", "9007199254740993", "4503599627370496.5",
])
def test_curve_csv_parse_edge_tokens(token):
    """More than 19 digits, leading zeros, -0, exponents outside [-64, 64],
    subnormal and the largest results, and short midpoints read as float."""
    check_parse_equals_float([token])


@pytest.mark.parametrize("token", ["1e400", "1e+400", "-1.8e+308", "1.7976931348623159e+308"])
def test_curve_csv_parse_refuses_infinite_values(token):
    """A token that rounds past DBL_MAX is refused by C and by the python
    reference, which names the line."""
    assert parsed(["0.5", token]) is None


def test_curve_csv_parse_long_fractions_and_exponents():
    """A fraction of 99,990 digits shifts q as far as an exponent of 100,000
    or more: 10^-99991 times 10^100000 reads as 1e9, and times 10^1000000 as
    inf, which is refused, whatever digits the exponent has past 100000;
    long runs of leading and trailing zeros read as float reads them."""
    tiny = "0." + "0" * 99990 + "1"
    check_parse_equals_float([tiny + "e+100000", tiny + "e+099999", tiny + "e-5",
                              "0" * 99990 + "1.5", "1" + "0" * 300])
    for e in ("e+1000000", "e+100400", "e+0000000000000000000000001000000"):
        assert parsed(["0.5", tiny + e]) is None


@pytest.mark.parametrize("k, takes", [
    ("9223372036854775807", True), ("-9223372036854775808", True), ("-0", True),
    ("0009223372036854775807", True), ("9223372036854775808", False),
    ("-9223372036854775809", False), ("18446744073709551616", False),
])
def test_curve_csv_parse_reads_k_within_int64(monkeypatch, k, takes):
    """A k reads as int(k) while int64 holds it; past either end the reader
    refuses the text: C and the python reference alike."""
    data = b"%s,0.5,0.5,0.5\n" % k.encode()
    for lib in (K._lib, None):
        monkeypatch.setattr(K, "_lib", lib)
        if takes:
            assert K.curve_csv_parse(data, 0)[0].tolist() == [int(k)]
        else:
            with pytest.raises(ValueError):
                K.curve_csv_parse(data, 0)


def test_curve_csv_parse_reads_a_zero_padded_k_as_c_does(monkeypatch):
    """A k padded with more zeros than int() takes digits reads as its
    value on both backends, as C reads it; a k of that many significant
    digits is refused on both."""
    for lib in (K._lib, None):
        monkeypatch.setattr(K, "_lib", lib)
        for sign in (b"", b"-"):
            k = sign + b"0" * (sys.get_int_max_str_digits() + 10) + b"7"
            assert K.curve_csv_parse(k + b",0.5,0.5,0.5\n", 0)[0].tolist() == [int(sign + b"7")]
        with pytest.raises(ValueError):
            K.curve_csv_parse(b"1" * (sys.get_int_max_str_digits() + 10) + b",0,0,0\n", 0)


def test_pow5_table_equals_lemire_rules():
    """The C reader's 128-bit powers of five, regenerated from Lemire's
    rules with python integers: for q >= 0, 5^q shifted to 128 bits and
    truncated; for q < 0, floor(2^b / 5^-q) + 1 with b = z + 127 (q >= -27)
    or 2z + 128, z the least with 2^z >= 5^-q, truncated to 128 bits."""
    src = pathlib.Path(K._SOURCE).read_text()
    body = src[src.index("POW5[129][2] = {"):]
    body = body[:body.index("};")]
    words = [int(h, 16) for h in re.findall(r"0x([0-9a-f]{16})\b", body)]
    table = [hi << 64 | lo for hi, lo in zip(words[::2], words[1::2])]
    want = []
    for q in range(-64, 65):
        if q >= 0:
            c = 5 ** q << max(128 - (5 ** q).bit_length(), 0)
            c >>= max(c.bit_length() - 128, 0)
        else:
            z = (5 ** -q - 1).bit_length()
            c = 2 ** (z + 127 if q >= -27 else 2 * z + 128) // 5 ** -q + 1
            c >>= max(c.bit_length() - 128, 0)
        assert c >> 127 == 1
        want.append(c)
    assert len(words) == 258 and table == want

def brute_distance(mask):
    """Distance from each pixel to the nearest False pixel by comparing every
    pair of pixels; inf without a False pixel."""
    h, w = mask.shape
    zy, zx = np.nonzero(~mask)
    yy, xx = np.mgrid[0:h, 0:w]
    if not len(zy):
        return np.full((h, w), np.inf)
    d2 = (yy[..., None] - zy) ** 2 + (xx[..., None] - zx) ** 2
    return np.sqrt(d2.min(axis=-1).astype(np.float64))


@st.composite
def mask_case(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # from no False pixel (all Fatou) to all False
    return rng.random((h, w)) >= draw(st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]))


@settings(max_examples=150, deadline=None)
@given(mask_case())
def test_distance_transform_against_brute_force(mask):
    """The C kernel (if built) and the reference against the brute force."""
    ref = brute_distance(mask)
    assert np.array_equal(_reference._distance_transform(mask), ref)
    assert np.array_equal(K.distance_transform(mask), ref)


def test_distance_transform_all_fatou():
    mask = np.ones((7, 300), dtype=bool)
    assert np.array_equal(K.distance_transform(mask), np.full((7, 300), np.inf))
    assert np.array_equal(_reference._distance_transform(mask), np.full((7, 300), np.inf))


def test_distance_transform_equals_scipy():
    """Bit-equal to scipy's exact transform wherever there is a False pixel."""
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(5)
    for shape, p in (((300, 257), 0.001), ((64, 1), 0.1), ((1, 90), 0.1), ((120, 80), 0.4)):
        mask = rng.random(shape) >= p
        mask[rng.integers(shape[0]), rng.integers(shape[1])] = False
        edt = ndimage.distance_transform_edt(mask)
        assert np.array_equal(K.distance_transform(mask), edt)
        assert np.array_equal(_reference._distance_transform(mask), edt)


# -- backend selection in a fresh interpreter --------------------------------------

SELECT = r"""
import hashlib, json, logging
records = []
class Keep(logging.Handler):
    def emit(self, record):
        records.append([record.levelname, record.getMessage()])
log = logging.getLogger("hermanlab")
log.addHandler(Keep())
log.setLevel(logging.DEBUG)
import numpy as np
from hermanlab import _kernels as K, maps
num0, den = maps.family_core(3, 2)
m = maps.herman_family(3, 2, complex(-1.144208, -0.964454))
r, dr = K.tune_residual(num0, den, complex(-1.144208, -0.964454), 89, 1e-8, 1e8)
orb, n = K.orbit(m.num, m.den, 1.0 + 0.0j, 500, 1e-8, 1e8)
ks = np.array([1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144], dtype=np.int64)
smp, ns = K.orbit_samples(m.num, m.den, 1.0 + 0.0j, ks, 1e-8, 1e8)
lab, its = K.classify_kernel(m.num, m.den, -2.0, -2.0, 4.0 / 48, 4.0 / 40, 48, 40, 150,
                             1e-6, 1e6)
rng = np.random.default_rng(3)
ii, jj = rng.integers(0, 2000, 300), rng.integers(0, 2000, 300)
arcs = K.arc_ratios(rng.standard_normal(2000) + 1j * rng.standard_normal(2000), ii, jj)
dist = K.distance_transform(lab != 2)
# a curve CSV written and read back, with values C formats and values it leaves to repr
import os, tempfile, types
from hermanlab import cli
vals = np.concatenate([rng.standard_normal(600) * 10.0 ** rng.integers(-8, 20, 600),
                       [0.0, -0.0, 5e-324, 1e300, 2.0 ** -16, 2.0 ** 61]])
pts = np.empty(202, dtype=np.complex128)
pts.real, pts.imag = vals[202:404], vals[404:]
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "c.csv")
    cli._write_curve_csv(types.SimpleNamespace(ks=np.arange(202) - 7, angles=vals[:202],
                                               points=pts), path)
    with open(path, "rb") as fh:
        csv = fh.read()
    back = b"".join(a.tobytes() for a in cli._read_curve_csv(path))
print(json.dumps({"backend": K.BACKEND, "records": records, "results": [
    [x.hex() for x in (r.real, r.imag, dr.real, dr.imag)],
    n, hashlib.sha256(orb[:n].tobytes()).hexdigest(),
    ns, hashlib.sha256(smp.tobytes()).hexdigest(),
    hashlib.sha256(lab.tobytes() + its.tobytes()).hexdigest(),
    hashlib.sha256(arcs.tobytes()).hexdigest(), hashlib.sha256(dist.tobytes()).hexdigest(),
    hashlib.sha256(csv).hexdigest(), hashlib.sha256(back).hexdigest()]}))
"""


def loaded(how, path):
    """_load's debug line, which names the classifier's vectors and lanes."""
    return "kernel backend c (classifier 2 vectors of %d lanes): %s %s" % (K._WIDTHS[-1], how,
                                                                           path)


def select_backend(tmp_path, path=None):
    """Start a fresh interpreter that imports the kernels with an empty
    XDG_CACHE_HOME under tmp_path (and PATH replaced if given)."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if path is not None:
        env["PATH"] = path
    return subprocess.Popen([sys.executable, "-c", SELECT], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def test_no_compiler_falls_back_with_one_warning(tmp_path):
    nocc = tmp_path / "bin"
    nocc.mkdir()
    doc = finish(select_backend(tmp_path, path=str(nocc)))
    assert doc["backend"] == "numpy"
    warnings = [msg for level, msg in doc["records"] if level == "WARNING"]
    assert len(warnings) == 1 and "cc" in warnings[0]
    if K.BACKEND == "c":
        assert doc["results"] == finish(select_backend(tmp_path / "c"))["results"]


@needs_c
def test_concurrent_builds_then_cache_hit(tmp_path):
    """Two interpreters building into one empty cache both load the library;
    the cache then holds exactly one library, which a third one reuses."""
    docs = [finish(p) for p in [select_backend(tmp_path) for _ in range(2)]]
    libs = os.listdir(tmp_path / "cache" / "hermanlab")
    assert len(libs) == 1 and libs[0].endswith(".so")
    path = str(tmp_path / "cache" / "hermanlab" / libs[0])
    for doc in docs:
        assert doc["backend"] == "c"
        assert not [r for r in doc["records"] if r[0] != "DEBUG"]
        assert doc["records"][0][1] in (loaded("built", path), loaded("cache hit", path))
    again = finish(select_backend(tmp_path))
    assert again["records"] == [["DEBUG", loaded("cache hit", path)]]
    assert again["results"] == docs[0]["results"] == docs[1]["results"]


@needs_c
def test_truncated_cached_library_is_rebuilt(tmp_path):
    """A cached library that cannot be loaded is rebuilt once, with one warning."""
    first = finish(select_backend(tmp_path))
    cache = tmp_path / "cache" / "hermanlab"
    (name,) = os.listdir(cache)
    lib = cache / name
    lib.write_bytes(lib.read_bytes()[:100])
    doc = finish(select_backend(tmp_path))
    assert doc["backend"] == "c"
    warnings = [msg for level, msg in doc["records"] if level == "WARNING"]
    assert len(warnings) == 1 and "rebuilding" in warnings[0]
    assert doc["results"] == first["results"]
    again = finish(select_backend(tmp_path))
    assert again["records"] == [["DEBUG", loaded("cache hit", lib)]]


def test_cache_key_names_the_compiler(tmp_path, monkeypatch):
    """Two `cc` shims linked to different compilers give different cached
    libraries, so a library built by one compiler is never loaded for the
    other; the stubbed build compiles nothing."""
    built = []

    def stub(path):
        built.append(os.path.basename(path))
        raise OSError("stub build")

    monkeypatch.setattr(K, "_build", stub)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for name in ("gcc", "clang"):
        target = tmp_path / ("fake-" + name)
        target.write_text("#!/bin/sh\necho %s\n" % name)
        target.chmod(0o755)
        shim = tmp_path / name
        shim.mkdir()
        (shim / "cc").symlink_to(target)
        monkeypatch.setenv("PATH", str(shim))
        assert K._load() is None
    assert len(built) == 2 and built[0] != built[1]


# -- process state -------------------------------------------------------------------

def environment_reads(node, where):
    """The enclosing def or class name (where, at top level) of each read of
    os.environ or os.getenv under node, by attribute, by name or by import."""
    names = {"environ", "environb", "getenv", "getenvb"}
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute) and child.attr in names
                or isinstance(child, ast.Name) and child.id in names
                or isinstance(child, ast.ImportFrom) and child.module == "os"
                and any(a.name in names for a in child.names)):
            yield where
        inner = getattr(child, "name", where) if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else where
        yield from environment_reads(child, inner)


def test_only_the_cache_dir_reads_the_environment():
    """Library calls read no environment variable: the one read in the
    package is _kernels._cache_dir's XDG_CACHE_HOME, where the compiled
    kernels are cached."""
    pkg = pathlib.Path(hl.__file__).parent
    reads = [(path.name, where) for path in sorted(pkg.glob("*.py"))
             for where in environment_reads(ast.parse(path.read_text()), "<module>")]
    assert reads == [("_kernels.py", "_cache_dir")]
