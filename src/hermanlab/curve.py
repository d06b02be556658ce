"""Tracing the invariant Herman quasicircle and measuring its geometry.

The curve is represented purely by orbit samples of the critical point:
vertex k is (k, {k*theta}, f^k(c)), and for irrational theta sorting by
the conjugacy angle {k*theta} lays the samples out in their cyclic order
along the curve.  No interpolating spline is ever fitted; estimators are
sample-based.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cfrac import ContinuedFraction, resolve_theta

# the least trace depth of critical_angle: a depth-n trace holds c_{q_1}..c_{q_{n-1}},
# and each one-sided phase fit takes three of one parity from c_{q_6} on
ANGLE_LEAST_DEPTH = 12

# the most vertices a trace holds, q_n for depth n: 2^22 keeps golden depth 32
# (q_32 = 3,524,578) and refuses depth 33 (q_33 = 5,702,887)
MAX_VERTICES = 1 << 22


@dataclass
class HermanCurve:
    """Traced invariant quasicircle: combinatorially ordered critical orbit."""

    ks: np.ndarray          # orbit indices, sorted by angle
    angles: np.ndarray      # {k*theta}
    points: np.ndarray      # f^k(critical_point)
    theta: ContinuedFraction
    critical_point: complex
    depth: int              # trace depth n (q_n vertices)

    def __len__(self):
        return len(self.ks)

    def closest_returns(self, upto=None):
        """c_{q_k} = f^{q_k}(c) - c for all convergent indices in the trace, found
        in one pass over the vertices; a repeated index gives its last vertex."""
        levels = range(1, min(self.depth, self.theta.level(len(self.ks)) + 1))
        if upto is not None:
            levels = levels[:max(upto, 1)]
        qs = {k: self.theta.q[k] for k in levels}
        hits = np.flatnonzero(np.isin(self.ks, list(qs.values())))
        pts = {int(self.ks[i]): complex(self.points[i]) for i in hits}
        return {k: pts[q] - self.critical_point for k, q in qs.items() if q in pts}

    def winding_number(self, z0=0.0):
        args = np.angle(self.points - z0)
        inc = (np.diff(np.concatenate([args, args[:1]])) + math.pi) % (2 * math.pi) - math.pi
        return int(round(inc.sum() / (2 * math.pi)))


class OrbitEscapeError(RuntimeError):
    pass


def _critical_orbit(map_, ks, z0):
    """Samples f^k(z0) for sorted ks, iterated in complex128."""
    pts, nok = _kernels.orbit_samples(map_.num, map_.den, complex(z0), ks, *_kernels.TRAPS)
    if nok != len(ks):
        raise OrbitEscapeError("orbit escaped after %d of %d samples" % (nok, len(ks)))
    return pts


def trace_size(theta, n):
    """q_n, the vertices of a depth-n trace of theta (a ContinuedFraction);
    ValueError for n outside 0..theta.depth or q_n past MAX_VERTICES."""
    if not 0 <= n <= theta.depth:
        raise ValueError("depth %d is outside theta's usable levels 0..%d" % (n, theta.depth))
    qn = theta.q[n]
    if qn > MAX_VERTICES:
        raise ValueError("depth %d asks for q_%d = %d vertices, more than the %d a trace holds"
                         % (n, n, qn, MAX_VERTICES))
    return qn


def trace(map_, theta, n):
    """Trace the Herman curve to depth n: the q_n first orbit points of the
    critical point 1, at most MAX_VERTICES (ValueError past it).

    Vertices are sorted by conjugacy angle {k*theta}; for maps with
    d0 == dinf (Blaschke members, whose curve is the unit circle) they are
    sorted by the actual circle argument instead, which stays exact at
    depths beyond the parameter's tuning level.  A spot check of about 257
    vertices raises OrbitEscapeError where f(v_k) is not v_{k+1} to 1e-9,
    relative to the curve's scale when that exceeds 1.
    """
    theta = resolve_theta(theta)
    qn = trace_size(theta, n)
    ks = np.arange(1, qn, dtype=np.int64)
    pts = _critical_orbit(map_, ks, 1.0)
    ks = np.concatenate([[0], ks])
    pts = np.concatenate([[1.0 + 0.0j], pts])
    th = theta.value_float()
    angles = (ks * th) % 1.0
    if map_.d0 is not None and map_.d0 == map_.dinf:
        # dividing by the critical point 1+0j can change the sign of a zero
        # imaginary part, and with it the argument and the order
        order = np.argsort(np.angle(pts / (1.0 + 0.0j)) % (2 * math.pi), kind="stable")
    else:
        order = np.argsort(angles, kind="stable")
    curve = HermanCurve(ks=ks[order], angles=angles[order], points=pts[order],
                        theta=theta, critical_point=1.0 + 0.0j, depth=n)
    scale = float(np.max(np.abs(curve.points - np.mean(curve.points))))
    # vertex-dynamics spot check on a subsample; a NaN difference passes
    k = np.arange(0, qn - 1, max(1, qn // 257))
    with np.errstate(all="ignore"):
        bad = np.flatnonzero(np.abs(_images(map_, pts[k]) - pts[k + 1]) > 1e-9 * max(scale, 1.0))
    if len(bad):
        raise OrbitEscapeError("vertex dynamics check failed at k=%d" % k[bad[0]])
    return curve


def _images(map_, z):
    """f(z) at each point of the array z, N(z)/D(z) by numpy's Horner from
    the top coefficient (np.polyval): apart from the C kernels that trace
    the orbit, and one array pass instead of a RationalMap.eval per point."""
    return np.polyval(map_.num[::-1], z) / np.polyval(map_.den[::-1], z)


def _aitken(seq):
    """One Aitken delta-squared acceleration pass."""
    out = []
    for i in range(len(seq) - 2):
        d2 = seq[i + 2] - 2 * seq[i + 1] + seq[i]
        if d2 == 0:
            out.append(seq[i + 2])
        else:
            out.append(seq[i + 2] - (seq[i + 2] - seq[i + 1]) ** 2 / d2)
    return out


def _median(a):
    """np.median of a non-empty 1-D float array by numpy's arithmetic: the
    middle sorted value, or the mean of the middle two; nan if a value is
    nan.  np.median itself imports numpy.ma for its nan check."""
    s = np.sort(a)
    if s[-1] != s[-1]:  # nan sorts last
        return float(s[-1])
    h = len(s) // 2
    return float(s[h]) if len(s) % 2 else (float(s[h - 1]) + float(s[h])) / 2


def _clean_prefix(phis, tol=0.12):
    """Truncate a one-sided phase sequence where round-off breaks its

    geometric convergence (successive-difference ratios drift off the
    median of the clean regime).  The deepest closest returns are
    O(1e-11) from the critical point, so their phases carry relative
    noise that would dominate the extrapolation.
    """
    if len(phis) < 4:
        return phis
    d = np.diff(phis)
    if np.any(d == 0):
        return phis
    r = d[1:] / d[:-1]
    med = _median(r[: max(3, len(r) // 2)])
    keep = len(d)
    for i in range(1, len(r)):
        if abs(r[i] - med) > tol:
            keep = i + 1
            break
    return phis[: keep + 1]


def _accelerate(phis):
    """Two Aitken passes (Shanks order 2) on a phase sequence."""
    out = _aitken(phis)
    if len(out) >= 3:
        out = _aitken(out)
    return out if out else phis


def critical_angle(curve):
    """Interior angle of the curve at the critical point, in radians.

    The closest returns c_{q_k} approach the critical point along two
    limiting directions (even k on one side, odd k on the other); each
    one-sided phase sequence is accelerated with Aitken's delta-squared,
    and the angle is the width of the sector between the two limits that
    contains the inward direction (towards 0, the d0 side).  For d0 == dinf
    the curve is the unit circle and the angle is pi.  The law
    pi*(2*d0 - 1)/(d0 + dinf - 1) holds only there: for d0 != dinf the
    curve has a corner at the critical value, and (3,2) reads 3.8786 at
    depth 29, 0.048 below its 5*pi/4, and (2,3) 2.4039 at depth 24, 0.048
    above its 3*pi/4.
    """
    n = curve.depth
    if n < ANGLE_LEAST_DEPTH:
        raise ValueError("need trace depth >= %d for the angle estimate, not %d"
                         % (ANGLE_LEAST_DEPTH, n))
    cq = curve.closest_returns()
    ks = sorted(cq)
    lo = min(10, max(6, n - 12))
    even = [cmath.phase(cq[k]) for k in ks if k >= lo and k % 2 == 0]
    odd = [cmath.phase(cq[k]) for k in ks if k >= lo and k % 2 == 1]
    if len(even) < 3 or len(odd) < 3:
        raise ValueError("too few near-critical closest returns for the angle fit")
    even = _clean_prefix(np.unwrap(even).tolist())
    odd = _clean_prefix(np.unwrap(odd).tolist())
    ae, ao = _accelerate(even), _accelerate(odd)
    phi_e, phi_o = ae[-1], ao[-1]
    disp = abs(ae[-1] - ae[-2]) + abs(ao[-1] - ao[-2]) if len(ae) > 1 and len(ao) > 1 \
        else float("nan")
    # two complementary sectors; pick the one containing the inward direction
    width = (phi_e - phi_o) % (2 * math.pi)
    inw = (cmath.phase(-curve.critical_point) - phi_o) % (2 * math.pi)  # towards 0
    angle = width if inw <= width else 2 * math.pi - width
    return angle, disp


def bounded_turning(curve):
    """Max over 4000 sampled vertex pairs of diam(shorter arc) / |a - b|.

    The bounded-turning (Ahlfors) constant of the traced curve; finite
    for quasicircles.  Returns (constant, (i, j)) with the maximizing
    sorted-order index pair.

    The pairs are fixed: ii takes the first 4000 and jj the next 4000
    outputs z of splitmix64 from state 7 (Steele, Lea and Flood, OOPSLA
    2014), in wrapping uint64 arithmetic, each mapped to
    (z >> 32) * m >> 32 in [0, m) for 1 <= m <= 2^32 vertices.  numpy
    does not promise to keep its random streams across releases.
    """
    m = len(curve.points)
    if not 1 <= m <= 2 ** 32:
        raise ValueError("bounded_turning needs 1 to 2^32 vertices, not %d" % m)
    u = np.uint64
    z = np.arange(1, 8001, dtype=u) * u(0x9E3779B97F4A7C15) + u(7)
    z = (z ^ (z >> u(30))) * u(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u(27))) * u(0x94D049BB133111EB)
    z ^= z >> u(31)
    ii, jj = ((z >> u(32)) * u(m) >> u(32)).astype(np.int64).reshape(2, 4000)
    ratios = _kernels.arc_ratios(curve.points, ii, jj)
    k = int(np.argmax(ratios))   # the first maximum
    if not ratios[k] > 0:        # no pair with a nonzero chord
        return 0.0, (0, 0)
    return float(ratios[k]), (int(ii[k]), int(jj[k]))


def beta_number(curve, x, r):
    """Jones beta number: (1/r) * min over lines of max sample distance.

    Samples are the curve vertices inside D(x, r); the line search uses
    the principal axis through the centroid plus a 1-D sweep over
    parallel offsets and 41 small angle perturbations.
    """
    x = complex(x)
    pts = curve.points[np.abs(curve.points - x) <= r]
    if len(pts) < 20:
        raise ValueError("need >= 20 curve samples in the disk (have %d)" % len(pts))
    xy = np.column_stack([pts.real, pts.imag])
    ctr = xy.mean(axis=0)
    u, s, vt = np.linalg.svd(xy - ctr, full_matrices=False)
    axis = vt[0]
    theta0 = math.atan2(axis[1], axis[0])
    best = math.inf
    for dth in np.linspace(-0.2, 0.2, 41):
        th = theta0 + dth
        nvec = np.array([-math.sin(th), math.cos(th)])
        proj = (xy - ctr) @ nvec
        # optimal offset for min-max distance is the midrange
        half_spread = 0.5 * (proj.max() - proj.min())
        best = min(best, half_spread)
    return best / r
