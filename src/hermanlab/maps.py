"""Explicit rational families with critical quasicircles, and map utilities.

The central family is

    F_{d0,dinf,c}(z) = -c * sum_{j=d0}^{d0+dinf-1} C(d0+dinf-1, j) (-z)^j
                          / sum_{j=0}^{d0-1}       C(d0+dinf-1, j) (-z)^j

with superattracting fixed points at 0 (local degree d0) and infinity
(local degree dinf), a single free critical point at z = 1 with
F(1) = c, and total degree d0 + dinf - 1.  For d0 = dinf = d and
c = e^{2 pi i alpha} this is the Blaschke product B_{d,alpha}, which
preserves the unit circle.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _cdiv, _horner

# evaluation switches to the w = 1/z chart past this radius
_INF_CHART = 1e8
_POLE_TOL = 1e-14


class PoleResult(complex):
    """Complex infinity returned when evaluating at (or within 1e-14 of) a pole."""

    def __new__(cls):
        return super().__new__(cls, math.inf, 0.0)


@dataclass
class RationalMap:
    """Rational function N(z)/D(z) with ascending complex coefficient vectors.

    The map keeps read-only copies of the coefficients: ``num`` and ``den``
    can be neither written into nor reassigned, so the evaluation data that
    ``eval`` caches at construction never goes stale.
    """

    num: np.ndarray
    den: np.ndarray
    d0: int | None = None
    dinf: int | None = None
    parameter: complex | None = None
    kind: str = "generic"
    _deriv_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _plane: tuple = field(init=False, repr=False, compare=False)
    _chart: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        num = _trim(np.asarray(self.num, dtype=np.complex128))
        den = _trim(np.asarray(self.den, dtype=np.complex128))
        if len(den) == 0:
            raise ValueError("zero denominator")
        if len(num) == 0:
            num = np.zeros(1, dtype=np.complex128)
        self.num, self.den = _frozen_copy(num), _frozen_copy(den)
        # the infinity chart: N(z)/D(z) = revN(w)/revD(w) with w = 1/z, both
        # padded to the common length L
        L = max(len(num), len(den))
        rn = np.zeros(L, dtype=np.complex128)
        rd = np.zeros(L, dtype=np.complex128)
        rn[: len(num)] = num
        rd[: len(den)] = den
        rn = rn[::-1]
        rd = rd[::-1]
        # the Horner coefficients as python complex, whose arithmetic rounds
        # like numpy's complex128 scalars; and cheap upper bounds, with a 2x
        # rounding margin, on the pole scales max(1, _poly_scale(den, r)) and
        # that of the infinity chart, so that eval only forms the exact scale
        # near a pole: max(1, 2 sum |d_j|) max(r, 1)^deg D in the plane
        self._plane = (tuple(num.tolist()), tuple(den.tolist()),
                       max(1.0, 2.0 * float(np.sum(np.abs(den)))), len(den) - 1)
        self._chart = (tuple(rn.tolist()), tuple(rd.tolist()), rd,
                       2.0 * float(np.sum(np.abs(rd))))

    def __setattr__(self, name, value):
        if name in ("num", "den") and "_plane" in self.__dict__:
            raise AttributeError("the coefficients of a RationalMap are fixed")
        super().__setattr__(name, value)

    @property
    def total_degree(self):
        return max(len(self.num), len(self.den)) - 1

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        """N(z)/D(z) as numpy complex128, bit-identical to numpy scalar
        arithmetic; PoleResult at a pole, ZeroDivisionError at a 0/0."""
        z = complex(z)
        r = abs(z)  # inf if z is
        if r > _INF_CHART:
            return self._eval_inf_chart(z)
        num, den, den_bound, den_deg = self._plane
        nv = _horner(num, z)
        dv = _horner(den, z)
        try:
            far = abs(dv) > _POLE_TOL * den_bound * (r ** den_deg if r > 1.0 else 1.0)
        except OverflowError:  # |D(z)| or the bound beyond the float range
            far = False
        if far:
            return np.complex128(_cdiv(nv, dv))
        nv, dv = np.complex128(nv), np.complex128(dv)
        if abs(dv) <= _POLE_TOL * max(1.0, _poly_scale(self.den, r)):
            if abs(nv) <= _POLE_TOL * max(1.0, _poly_scale(self.num, r)):
                raise ZeroDivisionError("0/0 at z=%r (common root?)" % z)
            return PoleResult()
        return nv / dv

    def _eval_inf_chart(self, z):
        rn, rd, rd_arr, rd_bound = self._chart
        w = 0.0 if cmath.isinf(z) else 1.0 / z
        nv = _horner(rn, w)
        dv = _horner(rd, w)
        try:
            far = abs(dv) > _POLE_TOL * rd_bound
        except OverflowError:
            far = False
        if far:
            return np.complex128(_cdiv(nv, dv))
        nv, dv = np.complex128(nv), np.complex128(dv)
        # the denominator legitimately shrinks like w^(L-1-deg D); a pole
        # is only declared relative to the coefficient scale at |w|
        scale = float(np.sum(np.abs(rd_arr) * (abs(w) ** np.arange(len(rd_arr)))))
        if abs(dv) <= _POLE_TOL * scale:
            return PoleResult()
        return nv / dv

    def derivative_map(self, k=1):
        """The k-th derivative as a RationalMap (quotient rule, cached)."""
        if k == 0:
            return self
        if k not in self._deriv_cache:
            prev = self.derivative_map(k - 1)
            n, d = prev.num, prev.den
            dn = _poly_deriv(n)
            dd = _poly_deriv(d)
            new_num = _poly_sub(_poly_mul(dn, d), _poly_mul(n, dd))
            new_den = _poly_mul(d, d)
            self._deriv_cache[k] = RationalMap(new_num, new_den)
        return self._deriv_cache[k]

    def deriv(self, z, order=1):
        return self.derivative_map(order).eval(z)


def _trim(c, rel=1e-14):
    if len(c) == 0:
        return c
    scale = np.max(np.abs(c))
    if scale == 0:
        return c[:1]
    keep = len(c)
    while keep > 1 and abs(c[keep - 1]) < rel * scale:
        keep -= 1
    return np.ascontiguousarray(c[:keep])


def _frozen_copy(c):
    c = np.array(c)
    c.flags.writeable = False
    return c


def _poly_scale(coeffs, r):
    return float(np.sum(np.abs(coeffs) * (max(r, 1.0) ** np.arange(len(coeffs)))))


def _poly_deriv(c):
    if len(c) <= 1:
        return np.zeros(1, dtype=np.complex128)
    return c[1:] * np.arange(1, len(c))


def _poly_mul(a, b):
    return np.convolve(a, b)


def _poly_sub(a, b):
    L = max(len(a), len(b))
    out = np.zeros(L, dtype=np.complex128)
    out[: len(a)] += a
    out[: len(b)] -= b
    return out


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def herman_family(d0, dinf, c):
    """The (d0, dinf) rational family member with free critical value c.

    F(0)=0 with local degree d0, F(inf)=inf with local degree dinf, and
    the unique free critical point sits at z=1 with F(1)=c.
    """
    if d0 < 2 or dinf < 2:
        raise ValueError("need d0, dinf >= 2")
    if c == 0:
        raise ValueError("parameter c must be nonzero")
    m = d0 + dinf - 1
    if m > 60:
        raise OverflowError("binomial coefficients overflow float range for d0+dinf > 60")
    num = np.zeros(m + 1, dtype=np.complex128)
    for j in range(d0, m + 1):
        num[j] = -c * math.comb(m, j) * (-1) ** j
    den = np.zeros(d0, dtype=np.complex128)
    for j in range(d0):
        den[j] = math.comb(m, j) * (-1) ** j
    return RationalMap(num, den, d0=d0, dinf=dinf, parameter=complex(c),
                       kind="herman_family")


def family_core(d0, dinf):
    """Coefficients (num0, den) of R = F/c, so that F_c = c * num0/den.

    Used by the tuner kernels, which exploit df/dc = f/c.
    """
    f = herman_family(d0, dinf, 1.0)
    return f.num.copy(), f.den.copy()


def blaschke(d, alpha):
    """Blaschke member B_{d,alpha} = F_{d,d} with parameter e^{2 pi i alpha}."""
    if d < 2:
        raise ValueError("need d >= 2")
    c = cmath.exp(2j * math.pi * (alpha % 1.0))
    f = herman_family(d, d, c)
    f.kind = "blaschke"
    return f


INF = complex(math.inf, 0.0)


def critical_points(map_, cluster_tol=1e-3):
    """Critical points with multiplicities, as a list of (point, mult).

    Finite critical points are the roots of W = N'D - ND' (clustered to
    recover multiplicities); the multiplicity at infinity is the
    remainder of the 2*deg - 2 budget.
    """
    n, d = map_.num, map_.den
    w = _poly_sub(_poly_mul(_poly_deriv(n), d), _poly_mul(n, _poly_deriv(d)))
    w = _trim(w, rel=1e-12)
    out = []
    degw = len(w) - 1
    if degw >= 1:
        roots = np.roots(w[::-1])
        used = np.zeros(len(roots), dtype=bool)
        for i in range(len(roots)):
            if used[i]:
                continue
            close = ~used & (np.abs(roots - roots[i]) < cluster_tol * max(1.0, abs(roots[i])))
            cluster = roots[close]
            used |= close
            center = complex(cluster.mean())
            out.append((center, len(cluster)))
    budget = 2 * map_.total_degree - 2
    m_inf = budget - degw
    if m_inf > 0:
        out.append((INF, m_inf))
    assert sum(m for _, m in out) == budget, "critical multiplicity budget violated"
    return out


def preimages(map_, w):
    """All deg-many solutions of f(z) = w via companion-matrix root solving.

    Degree drops (leading coefficient cancellation, preimages at infinity)
    are reported through the 'missing' count on the returned list object.
    """
    if cmath.isinf(complex(w)):
        raise ValueError("w must be finite; swap to 1/f for preimages of infinity")
    poly = _poly_sub(map_.num, complex(w) * map_.den)
    poly = _trim(poly, rel=1e-13)
    deg = map_.total_degree
    roots = list(np.roots(poly[::-1])) if len(poly) > 1 else []
    # one polish step per root keeps residuals within contract near clusters
    fp = map_.derivative_map()
    polished = []
    for r in roots:
        try:
            fr = map_.eval(r)
            dfr = fp.eval(r)
            if np.isfinite(fr.real) and abs(dfr) > 1e-12:
                step = (fr - w) / dfr
                if abs(step) < 1e-3 * max(1.0, abs(r)):
                    r = r - step
        except ZeroDivisionError:
            pass
        polished.append(complex(r))
    residuals = []
    good = []
    for r in polished:
        fr = map_.eval(r)
        res = abs(fr - w) if np.isfinite(fr.real) else math.inf
        residuals.append(res)
        if res < 1e-8 * (1.0 + abs(w)):
            good.append(r)
    result = PreimageList(good)
    result.residuals = residuals
    result.missing = deg - len(good)
    return result


class PreimageList(list):
    """List of preimages with residual/missing-count metadata attached."""

    residuals: list = ()
    missing: int = 0


class ArnoldLift:
    """Degree-one lift F(x) = x + alpha + sin(2 pi x)/(2 pi).

    A critical circle map: F'(x) = 1 + cos(2 pi x) vanishes (to second
    order) exactly at x = 1/2 + Z, so the critical point of the circle
    map is at x = 1/2.
    """

    critical_point = 0.5

    def __init__(self, alpha):
        self.alpha = float(alpha)

    def __call__(self, x):
        return x + self.alpha + math.sin(2 * math.pi * x) / (2 * math.pi)

    def deriv(self, x):
        return 1.0 + math.cos(2 * math.pi * x)


def arnold_lift(alpha):
    return ArnoldLift(alpha)
