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
from dataclasses import dataclass

import numpy as np

from ._kernels import _horner

# _trim drops trailing coefficients this far below the largest
_TRIM_REL = 1e-14


@dataclass(frozen=True, eq=False)
class RationalMap:
    """Rational function N(z)/D(z) with ascending complex coefficient vectors.

    The map keeps read-only copies of the coefficients, and no field can be
    reassigned, because the family fields describe the coefficients, and
    ``circle_lift``, ``trace`` and ``__eq__`` rely on that.

    ``eval`` cross-checks the compiled orbit: the circle scan of
    ``circle_lift`` makes 64 calls per Blaschke tune, at about 2
    microseconds each on a 2-vCPU VM.
    """

    num: np.ndarray
    den: np.ndarray
    d0: int | None = None
    dinf: int | None = None
    parameter: complex | None = None

    def __post_init__(self):
        num = _trim(np.asarray(self.num, dtype=np.complex128))
        den = _trim(np.asarray(self.den, dtype=np.complex128))
        if len(den) == 0:
            raise ValueError("zero denominator")
        if len(num) == 0:
            num = np.zeros(1, dtype=np.complex128)
        object.__setattr__(self, "num", _frozen_copy(num))
        object.__setattr__(self, "den", _frozen_copy(den))

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return ((self.num.tolist(), self.den.tolist(), self.d0, self.dinf, self.parameter)
                == (other.num.tolist(), other.den.tolist(), other.d0, other.dinf,
                    other.parameter))

    @property
    def total_degree(self):
        return max(len(self.num), len(self.den)) - 1

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        """N(z)/D(z) as numpy complex128, bit-identical to numpy scalar
        arithmetic: Horner's rule on each coefficient array, then numpy's
        division, which gives inf+nanj at a pole and nan+nanj at a 0/0."""
        z = complex(z)
        return _horner(self.num, z) / _horner(self.den, z)


def _trim(c):
    """c without its trailing coefficients below _TRIM_REL times its largest."""
    if len(c) == 0:
        return c
    scale = np.max(np.abs(c))
    if scale == 0:
        return c[:1]
    keep = len(c)
    while keep > 1 and abs(c[keep - 1]) < _TRIM_REL * scale:
        keep -= 1
    return np.ascontiguousarray(c[:keep])


def _frozen_copy(c):
    c = np.array(c)
    c.flags.writeable = False
    return c


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
    return RationalMap(num, den, d0=d0, dinf=dinf, parameter=complex(c))


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
    return herman_family(d, d, cmath.exp(2j * math.pi * (alpha % 1.0)))


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

    def advance(self, x, n):
        """F^n(x), each step rounded as ``__call__`` rounds it."""
        alpha, sin, twopi = self.alpha, math.sin, 2 * math.pi
        for _ in range(n):
            x = x + alpha + sin(twopi * x) / twopi
        return x


def arnold_lift(alpha):
    return ArnoldLift(alpha)
