"""The orbit kernels against independent oracles: RationalMap.eval loops,
numpy.polyval, finite differences and 50-digit mpmath orbits."""

import mpmath
import numpy as np
import pytest

import hermanlab as hl
from hermanlab import _kernels as K
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
    """orbit is bit-equal to iterating RationalMap.eval, up to the trap."""
    a, na = K.orbit(map32.num, map32.den, 1.0 + 0.0j, 200, 1e-8, 1e8)
    assert na == 200
    assert np.array_equal(a, eval_orbit(map32, 1.0 + 0.0j, 200))
    # 0.1 falls into the superattracting basin of 0 within a few steps
    a, na = K.orbit(map32.num, map32.den, 0.1 + 0.0j, 50, 1e-8, 1e8)
    assert na < 50 and abs(a[na - 1]) < 1e-8
    assert np.array_equal(a[:na], eval_orbit(map32, 0.1 + 0.0j, na))


def test_orbit_samples_agrees(map32):
    """orbit_samples equals orbit at the sampled indices."""
    ks = np.array([1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144], dtype=np.int64)
    a, na = K.orbit_samples(map32.num, map32.den, 1.0 + 0.0j, ks, 1e-8, 1e8)
    full, nfull = K.orbit(map32.num, map32.den, 1.0 + 0.0j, ks[-1], 1e-8, 1e8)
    assert na == len(ks) and nfull == ks[-1]
    assert np.array_equal(a, full[ks - 1])


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
    """classify_kernel against a scalar RationalMap.eval escape loop."""
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
                if abs(z) < r0 or abs(z) > rinf:
                    ref_labels[iy, ix] = 0 if abs(z) < r0 else 1
                    ref_iters[iy, ix] = k
                    break
                z = map32.eval(z)
    assert set(np.unique(labels)) == {0, 1, 2}
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(iters, ref_iters)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                    reason="longdouble is double on this platform")
def test_extended_precision_orbit_consistent(map32):
    """Extended critical orbit against a 50-digit mpmath orbit of the same
    coefficients, up to q_14 = 610 (double precision drifts to ~4e-13)."""
    q = hl.convergents(hl.GOLDEN, 14).q[14]
    ks = np.arange(1, q + 1, dtype=np.int64)
    ext = _critical_orbit(map32, ks, 1.0, "extended")
    with mpmath.workdps(50):
        num = [mpmath.mpc(c.real, c.imag) for c in map32.num[::-1]]
        den = [mpmath.mpc(c.real, c.imag) for c in map32.den[::-1]]
        z = mpmath.mpc(1)
        ref = []
        for _ in range(q):
            z = mpmath.polyval(num, z) / mpmath.polyval(den, z)
            ref.append(complex(z))
    assert np.max(np.abs(ext - np.array(ref))) <= 1e-15
