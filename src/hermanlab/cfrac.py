"""Continued fractions, convergents, and the dynamical tilings.

Rotation numbers of bounded type drive everything downstream: the
convergent denominators q_n are the closest-return times, the
combinatorial lengths l_n = |p_n - q_n*theta| set every scale, and the
dynamical tilings P_n refine each other along the expansion.

Quadratic irrationals (eventually periodic expansions) are represented
symbolically by (preperiod, period) so quotients at arbitrary depth are
exact; float inputs are expanded only as far as round-off allows.
Each ContinuedFraction builds its convergents p_n, q_n to its depth once,
and computes the exact lengths l_n only when asked (lengths).

All arithmetic is exact, on integers and fractions.Fraction: a finite
quotient list or a double has its exact value, and a periodic tail is
the root of a quadratic taken with math.isqrt to within 2^-256 (_BITS),
so the lengths l_n are exact up to that bound.
"""

import bisect
import math
from fractions import Fraction

# a periodic theta's value is within 2**-_BITS of the quadratic irrational
_BITS = 256
# fewer exactly known partial quotients than this and theta counts as rational
MIN_IRRATIONAL_DEPTH = 8
# any theta's deepest usable level: q_48 >= golden's 7.8e9, past any orbit run here
MAX_DEPTH = 48


class RationalInputError(ValueError):
    """Raised when a continued-fraction expansion terminates (rational input).
    .quotients: the quotients found; .certified: those less a last one snapped
    up from a round-off remainder or ending the expansion exactly, either of
    which is exact only for a rational value."""

    def __init__(self, quotients, snapped=False):
        super().__init__("rational input: expansion terminated after %d quotients %r"
                         % (len(quotients), quotients))
        self.quotients = quotients
        self.certified = quotients[:-1] if snapped else quotients


class ContinuedFraction:
    """A rotation number in (0,1) with its partial quotients a_1, a_2, ...

    Construct from a finite quotient list, via :meth:`from_value` (float
    expansion) or via :meth:`from_periodic` (exact quadratic irrational).
    The constructor builds the convergents p_n/q_n for n <= depth once, as
    the read-only tuples p and q, by p_n = a_n p_{n-1} + p_{n-2} with
    p_0 = q_{-1} = 0 and q_0 = p_{-1} = 1.  :meth:`lengths` gives the exact
    combinatorial lengths l_n = |p_n - q_n*theta|.
    """

    def __init__(self, quotients, preperiod=None, period=None, value=None):
        quotients = [int(a) for a in quotients]
        self._quotients = quotients
        self.preperiod = list(preperiod) if preperiod is not None else None
        self.period = list(period) if period is not None else None
        if self.period == []:
            raise ValueError("period must be nonempty")
        if any(a < 1 for a in quotients + (self.preperiod or []) + (self.period or [])):
            raise ValueError("partial quotients must be >= 1")
        self._value = value
        p, q = [1, 0], [0, 1]  # p_{-1}, p_0 and q_{-1}, q_0
        for a in self.quotients(self.depth):
            p.append(a * p[-1] + p[-2])
            q.append(a * q[-1] + q[-2])
        self.p, self.q = tuple(p[1:]), tuple(q[1:])

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_value(cls, theta, n):
        """Expand theta in (0,1) to n partial quotients.

        Expands the exact value of the double and stops (raising
        RationalInputError) when the remainder falls below 64*eps*q_n^2,
        past which further quotients are round-off noise of the input.
        """
        if not 0 < theta < 1:
            raise ValueError("theta must lie in (0,1)")
        if n < 1:
            raise ValueError("need n >= 1")
        x = Fraction(theta)
        eps = Fraction(1, 2 ** 52)
        quotients = []
        qm1, qm2 = 1, 0
        snapped = False
        for _ in range(n):
            if x < 64 * eps * qm1 * qm1:
                raise RationalInputError(quotients, snapped)
            a, x = divmod(1 / x, 1)
            # an exact end: theta is this convergent, so a is not certified
            if x == 0:
                snapped = True
            # snap to the integer above when the remainder is round-off
            elif 1 - x < 64 * eps * qm1 * qm1:
                a += 1
                x, snapped = Fraction(0), True
            quotients.append(a)
            qm1, qm2 = a * qm1 + qm2, qm1
        return cls(quotients, value=theta)

    @classmethod
    def from_periodic(cls, preperiod, period):
        return cls([], preperiod=preperiod, period=period)

    # -- quotient access ----------------------------------------------------

    def quotient(self, i):
        """a_i (1-based)."""
        if self.period is not None:
            pre = self.preperiod or []
            if i <= len(pre):
                return pre[i - 1]
            return self.period[(i - 1 - len(pre)) % len(self.period)]
        if i <= len(self._quotients):
            return self._quotients[i - 1]
        raise IndexError("quotient a_%d beyond available depth %d" % (i, len(self._quotients)))

    def quotients(self, n):
        return [self.quotient(i) for i in range(1, n + 1)]

    @property
    def depth(self):
        """The deepest usable level: the number of exactly known quotients, at
        most MAX_DEPTH; a periodic expansion's quotients go on past MAX_DEPTH."""
        return MAX_DEPTH if self.period is not None else min(MAX_DEPTH, len(self._quotients))

    def level(self, q):
        """The deepest level n in 0..depth with q_n <= q, or -1 for q below q_0 = 1."""
        return bisect.bisect_right(self.q, q) - 1

    # -- value --------------------------------------------------------------

    def value(self):
        """theta as a Fraction: exact for a finite quotient list or a double,
        within 2**-_BITS of a periodic expansion's quadratic irrational."""
        if self.period is not None:
            # periodic tail y = [0; period, period, ...] is a fixed point of
            # the Moebius map composed of x -> 1/(a+x) over one period:
            # y = (A*y + B)/(C*y + D) with [[A,B],[C,D]] = prod [[0,1],[1,a]]
            A, B, C, D = 1, 0, 0, 1
            for a in self.period:
                A, B, C, D = B, A + a * B, D, C + a * D
            # C y^2 + (D - A) y - B = 0, take the root in (0,1); the floored
            # square root is within 2**-_BITS and 2C >= 2 halves that
            root = math.isqrt(((D - A) ** 2 + 4 * B * C) << (2 * _BITS))
            x = Fraction(((A - D) << _BITS) + root, (2 * C) << _BITS)
            # each x -> 1/(a+x) has slope below 1, so the bound holds
            for a in reversed(self.preperiod or []):
                x = 1 / (a + x)
            return x
        if self._value is not None:
            return Fraction(self._value)
        x = Fraction(0)
        for a in reversed(self._quotients):
            x = 1 / (a + x)
        return x

    def value_float(self):
        return float(self.value())

    def lengths(self, n):
        """The exact combinatorial lengths l_k = |p_k - q_k*theta| for k <= n,
        as Fractions; ValueError for a level n outside 0..depth."""
        if not 0 <= n <= self.depth:
            raise ValueError("depth %d is outside theta's usable levels 0..%d" % (n, self.depth))
        th = self.value()
        return [abs(p - q * th) for p, q in zip(self.p[:n + 1], self.q[:n + 1])]

    def __repr__(self):
        if self.period is not None:
            return "ContinuedFraction(preperiod=%r, period=%r)" % (
                self.preperiod or [], self.period)
        return "ContinuedFraction(%r)" % (self._quotients,)


# named rotation numbers
GOLDEN = ContinuedFraction.from_periodic([], [1])        # (sqrt5-1)/2
SILVER = ContinuedFraction.from_periodic([], [2])        # sqrt2-1
BRONZE_ALT = ContinuedFraction.from_periodic([], [1, 2])  # [0;1,2,1,2,...]

NAMED_THETAS = {"golden": GOLDEN, "silver": SILVER, "bronze-alt": BRONZE_ALT}


def resolve_theta(theta):
    """theta as a ContinuedFraction.

    Accepts a ContinuedFraction, a name in NAMED_THETAS, the partial quotients
    as a string "a,b,c", or a float or decimal string in (0,1), which keeps the
    quotients from_value certifies (a double has fewer than 64).  Fewer than
    MIN_IRRATIONAL_DEPTH quotients, listed or certified, raise RationalInputError."""
    if isinstance(theta, ContinuedFraction):
        return theta
    if isinstance(theta, str):
        if theta in NAMED_THETAS:
            return NAMED_THETAS[theta]
        if "," in theta:
            quotients = [int(a) for a in theta.split(",")]
            if len(quotients) < MIN_IRRATIONAL_DEPTH:
                raise RationalInputError(quotients)
            return ContinuedFraction(quotients)
    try:
        return ContinuedFraction.from_value(float(theta), 64)
    except RationalInputError as e:
        if len(e.certified) < MIN_IRRATIONAL_DEPTH:
            raise
        return ContinuedFraction(e.certified, value=float(theta))


def tiling_indices(cf, n):
    """The dynamical tiling P_n in angle coordinates, as exact integer indices.

    Interval k of the tiling has endpoints {i*theta} and {(q_n + i)*theta}
    for i < q_{n+1}, plus {(q_{n+1}+j)*theta} to {j*theta} for j < q_n.
    Returns (vertex_ks, intervals) where vertex_ks = range(q_n + q_{n+1})
    and intervals is an integer array of (k_left_index, k_right_index)
    rows into the orbit index set -- all exact integers, no rounding.
    """
    import numpy as np

    qn, qn1 = cf.q[n], cf.q[n + 1]
    i, j = np.arange(qn1), np.arange(qn)
    intervals = np.concatenate([np.column_stack([i, qn + i]), np.column_stack([qn1 + j, j])])
    return range(qn + qn1), intervals


def _vertices(cf, n):
    """The float positions {k*theta} of P_n's vertices, their order around
    the circle, and the tolerance the positions are compared under."""
    import numpy as np

    m, ln1 = cf.q[n] + cf.q[n + 1], float(cf.lengths(n + 1)[n + 1])
    # the positions, and the sort keys that hold them to 2^(b - 64) above
    # their index's b bits, are exact for this purpose as long as the
    # round-off m*eps and the key step stay far below the smallest gap
    th, b = cf.value_float(), m.bit_length()
    err = m * th * 2.0 ** -52
    if max(err, 2.0 ** (b - 64)) > 2e-2 * ln1:
        raise ValueError("depth too large for float64 angle separation")
    pos = (np.arange(m, dtype=np.float64) * th) % 1.0
    # one np.sort of the keys is several times faster than np.argsort(pos)
    keys = np.sort((pos * 2.0 ** (64 - b)).astype(np.uint64) << np.uint64(b)
                   | np.arange(m, dtype=np.uint64))
    return pos, (keys & np.uint64((1 << b) - 1)).astype(np.int64), max(1e-9 * ln1, 8 * err)


def tiling_is_partition(cf, n):
    """Check exactly (in angle coordinates) that P_n tiles the circle.

    A valid tiling means: when the q_n + q_{n+1} vertex angles {k*theta}
    are sorted around the circle, the endpoint pair of every tile is an
    adjacent pair (so tiles meet only at endpoints), every adjacent pair
    is covered exactly once, and each gap length is l_n or l_{n+1}.
    """
    import numpy as np

    posv, order, tol = _vertices(cf, n)
    _, intervals = tiling_indices(cf, n)
    m = len(posv)
    ln, ln1 = map(float, cf.lengths(n + 1)[n:])
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    left, right = rank[intervals[:, 0]], rank[intervals[:, 1]]
    fwd = (left + 1) % m == right
    bwd = (right + 1) % m == left
    if not np.all(fwd | bwd):
        return False
    slots = np.where(fwd, left, right)
    counts = np.bincount(slots, minlength=m)
    if not np.all(counts == 1):
        return False
    sortedp = posv[order]
    gaps = np.diff(np.concatenate([sortedp, [sortedp[0] + 1.0]]))
    return bool(np.all((np.abs(gaps - ln) < tol) | (np.abs(gaps - ln1) < tol)))


def tiling_refines(cf, n):
    """P_{n+1} refines P_n: each tile of P_{n+1} lies within one tile of P_n.

    Tested on the tiles of tiling_indices, without assuming that either
    level is a partition, at the float positions {k*theta} of P_{n+1}'s
    vertices and within tiling_is_partition's tolerance there.  A tile
    (k, k') of P_n runs from {k*theta} to {k'*theta} counterclockwise for
    even n, where q_n*theta > p_n, and clockwise for odd n.
    """
    import numpy as np

    pos, order, tol = _vertices(cf, n + 1)

    def furthest_end(level):
        # per vertex, the furthest end of P_level's tiles starting there, or -inf
        _, intervals = tiling_indices(cf, level)
        k = intervals[:, level % 2]
        out = np.full(len(pos), -np.inf)
        np.maximum.at(out, k, pos[k] + (pos[intervals[:, 1 - level % 2]] - pos[k]) % 1.0)
        return out

    coarse = furthest_end(n)
    # the furthest end, at each vertex in circle order, of the tiles of P_n
    # that start there or before, or of any moved back a turn
    reach = np.maximum.accumulate(np.maximum(coarse[order], coarse.max() - 1.0))
    return bool(np.all(reach >= furthest_end(n + 1)[order] - tol))
