"""Log lifts, pre-renormalizations, and scaling diagnostics.

The n-th pre-renormalization of a quasicircle map f is the commuting
pair (T_{-p_n} F^{q_n} on [c_{q_{n-1}}, 0], T_{-p_{n-1}} F^{q_{n-1}} on
[0, c_{q_n}]) in log coordinates, where F is a lift of f with the
critical point at 0 and c_j = T_{-p} F^j(0) are the lifted closest
returns.  Its height chi and its closest returns carry the
combinatorics; the pairs are never rescaled.

Scaling ratios (Eq. s_n = (f^{q_{n+1}}(c)-c)/(f^{q_n}(c)-c)) and the
self-similarity factor mu (limit of c_{q_{n+s}}/c_{q_n}) are computed in
the plane chart centered at the critical point; limits of ratios are
chart-independent.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .cfrac import resolve_theta
from .curve import _aitken, _critical_orbit
from .rotation import _closest_returns

# the most steps CommutingPair.height takes to find chi
_HEIGHT_STEPS = 200


class BranchAmbiguityError(RuntimeError):
    pass


@dataclass
class LogLift:
    """Branch-selected lift F(z) = log(f(e^{2 pi i z}))/(2 pi i) near the curve.

    The chart sends the critical point (z=1 in the plane) to 0, and the
    branch at each point is the integer translate minimizing
    |F(z) - z - theta|.
    """

    map: object
    theta_float: float

    def ensure_table(self, K):
        """Lift table x_k = h({k theta}) for the first K critical-orbit points.

        The fractional lift of orbit point k is obtained by continuous
        continuation of arg along the traced curve in its combinatorial
        order (the curve winds once around 0, so the accumulated angle is
        the conjugacy h up to normalization h(0) = 0).  This pins log
        branches exactly; nearest-branch selection alone fails when the
        conjugacy distortion over one renormalization interval exceeds
        1/2, which happens at shallow levels for wilder curves.
        """
        K = max(K, 1500)   # coarse polygons break the arg continuation
        if getattr(self, "_table", None) is not None and len(self._table) >= K:
            return
        pts = _critical_orbit(self.map, np.arange(1, K, dtype=np.int64), 1.0)
        pts = np.concatenate([[1.0 + 0.0j], pts])
        pos = (np.arange(K) * self.theta_float) % 1.0
        order = np.argsort(pos, kind="stable")
        w = pts[order]
        inc = np.angle(w / np.concatenate([[1.0 + 0.0j], w[:-1]]))
        if np.max(np.abs(inc)) > 3.0:
            raise BranchAmbiguityError("curve continuation step too large")
        psi = np.cumsum(inc)
        x = np.empty(K)
        x[order] = psi / (2 * math.pi)
        self._table = x - 1j * np.log(np.abs(pts)) / (2 * math.pi)

    def _match(self, z):
        """Index k and integer shift m with z = x_k - m to within 1e-6, or
        (None, None)."""
        tab = getattr(self, "_table", None)
        if tab is None:
            return None, None
        zr = z.real - math.floor(z.real)
        for cand in (zr, zr - 1.0, zr + 1.0):
            d = np.abs(tab - (cand + 1j * z.imag))
            k = int(np.argmin(d))
            if d[k] < 1e-6:
                return k, round(tab[k].real - z.real)
        return None, None

    def power(self, z, q, p):
        """T_{-p} F^q (z): analytic plane orbit, branch pinned by the table.

        For a tabulated orbit point z = x_k - m the exact branch comes
        from the lift identity F^q(x_k + floor(k theta)) =
        x_{k+q} + floor((k+q) theta); otherwise the branch nearest to
        z + q theta - p is used, valid while the distortion over the
        interval stays below 1/2.  Raises OrbitEscapeError when the plane
        orbit (q >= 1 steps) leaves the annulus of _kernels.TRAPS.
        """
        w = _critical_orbit(self.map, [q], cmath.exp(2j * math.pi * z))[0]
        base = cmath.log(w) / (2j * math.pi)
        k0, m = self._match(z)
        if k0 is not None and k0 + q < len(self._table):
            th = self.theta_float
            target = (self._table[k0 + q].real
                      + math.floor((k0 + q) * th) - math.floor(k0 * th) - m - p)
        else:
            target = z.real + q * self.theta_float - p
        k = round(target - base.real)
        res = base + k
        if abs(res.real - target) > 0.45:
            raise BranchAmbiguityError("ambiguous log branch at z=%r" % z)
        return res


def log_lift(map_, theta):
    theta = resolve_theta(theta)
    return LogLift(map=map_, theta_float=theta.value_float())


@dataclass
class CommutingPair:
    """Evaluable commuting pair with base intervals [f_+(0),0] and [0,f_-(0)]."""

    f_minus: object
    f_plus: object
    endpoint_minus: complex     # f_-(0) = c_{q_n} (right end of I_+)
    endpoint_plus: complex      # f_+(0) = c_{q_{n-1}} (left end of I_-)

    def commutation_residual(self):
        a = self.f_minus(self.f_plus(0.0 + 0.0j))
        b = self.f_plus(self.f_minus(0.0 + 0.0j))
        return abs(a - b)

    def height(self):
        """chi: first time f_-^{chi+1}(f_+(0)) enters int I_+ = (0, f_-(0))."""
        z = self.f_plus(0.0 + 0.0j)
        for j in range(_HEIGHT_STEPS):
            z = self.f_minus(z)
            if _in_open_segment(z, 0.0 + 0.0j, self.endpoint_minus):
                return j
        raise RuntimeError("height not found within %d steps" % _HEIGHT_STEPS)


def _in_open_segment(z, a, b):
    """Is z strictly inside segment (a, b), up to a transverse deviation
    below 0.35 |b - a|?  (The pair orbits live on a quasi-arc, not the
    straight chord.)"""
    d = b - a
    if d == 0:
        return False
    t = ((z - a) / d).real
    perp = abs(((z - a) / d).imag)
    return 0.0 < t < 1.0 and perp < 0.35


def commuting_pair(map_, theta, n, lift=None):
    """The n-th pre-renormalization of the tuned map as a CommutingPair."""
    theta = resolve_theta(theta)
    if n < 2:
        raise ValueError("need n >= 2")
    if lift is None:
        lift = log_lift(map_, theta)
    p, q = theta.p, theta.q
    lift.ensure_table(q[n + 1] + q[n] + 2)
    pn, qn = p[n], q[n]
    pn1, qn1 = p[n - 1], q[n - 1]

    def f_minus(z):
        return lift.power(z, qn, pn)

    def f_plus(z):
        return lift.power(z, qn1, pn1)

    em = f_minus(0.0 + 0.0j)
    ep = f_plus(0.0 + 0.0j)
    return CommutingPair(f_minus=f_minus, f_plus=f_plus,
                         endpoint_minus=em, endpoint_plus=ep)


@dataclass
class ScalingReport:
    s: dict                      # n -> s_n
    cq: dict                     # n -> c_{q_n} (plane chart)
    ratios: dict                 # n -> c_{q_{n+s}}/c_{q_n}
    period: int                  # the ratio step s
    mu: complex | None = None
    mu_err: float | None = None
    cauchy_factors: list = field(default_factory=list)


def closest_return_displacements(f, theta, N):
    """c_{q_n} = f^{q_n}(c) - c for n <= N, in the plane chart.

    f may be a RationalMap (critical point z=1) or a circle-map lift, whose
    advance and .critical_point give real displacements F^{q_n}(x_c)-x_c-p_n.
    """
    theta = resolve_theta(theta)
    if hasattr(f, "num"):
        ks = np.array(theta.q[1:N + 1], dtype=np.int64)
        vals = _critical_orbit(f, ks, 1.0)
        return {n: complex(vals[n - 1]) - 1.0 for n in range(1, N + 1)}
    # circle-map lift path
    xc = f.critical_point
    return {n: complex(x - xc - theta.p[n]) for n, x in _closest_returns(f, theta, xc, N)}


def scaling_ratios(f, theta, N):
    """Scaling ratios s_n, n = 1..N + 1, and self-similarity ratios
    c_{q_{n+s}}/c_{q_n}, n = 1..N, with s the length of theta's period
    rounded up to even (2 for a theta that is not eventually periodic):
    theta's combinatorics repeat every s levels, and the orientation of
    c_{q_n} every 2."""
    theta = resolve_theta(theta)
    step = 2 if theta.period is None else math.lcm(len(theta.period), 2)
    cq = closest_return_displacements(f, theta, N + step)
    eps = 1e3 * np.finfo(float).eps
    s = {n: cq[n + 1] / cq[n] for n in range(1, N + 2) if abs(cq[n]) > eps}
    ratios = {n: cq[n + step] / cq[n] for n in range(1, N + 1) if abs(cq[n]) > eps}
    rep = ScalingReport(s=s, cq=cq, ratios=ratios, period=step)
    # Cauchy contraction along the natural subsequences: ratios with n of
    # the same residue mod `step` converge monotonically to mu, so the
    # successive differences to compare are `step` levels apart.
    diffs = {n: abs(ratios[n] - ratios[n - step])
             for n in ratios if n - step in ratios}
    rep.cauchy_factors = [diffs[n - step] / diffs[n]
                          for n in sorted(diffs)
                          if n - step in diffs and diffs[n] > 0]
    return rep


def self_similarity(f, theta, N):
    """Self-similarity factor mu = lim c_{q_{n+s}}/c_{q_n}, Aitken-accelerated,
    from scaling_ratios to depth N, with its step s.

    theta must be eventually periodic; the error bar is the magnitude of
    the last two accelerated differences.  Raises RuntimeError unless
    0 < |mu| < 1 and the error bar is below |mu|.
    """
    theta = resolve_theta(theta)
    if theta.period is None:
        raise ValueError("theta must be eventually periodic (quadratic irrational)")
    rep = scaling_ratios(f, theta, N)
    ns = sorted(rep.ratios)
    seq = [rep.ratios[n] for n in ns]
    if len(seq) < 5:
        raise ValueError("insufficient depth for 3 Cauchy differences")
    acc = _aitken(seq)
    mu = acc[-1]
    err = abs(acc[-1] - acc[-2]) + abs(acc[-2] - acc[-3])
    rep.mu = mu
    rep.mu_err = err
    if not (0 < abs(mu) < 1):
        raise RuntimeError("self-similarity factor |mu|=%.4f outside (0,1)" % abs(mu))
    if not err < abs(mu):
        raise RuntimeError("self-similarity factor unresolved: mu_err=%.3g >= |mu|=%.3g"
                           % (err, abs(mu)))
    return rep


def convergence_report(f1, f2, theta, N, n_range=None):
    """Fit log|s_n(f2)/s_n(f1) - 1| vs n; slope < 0 means universality.

    Returns (slope, r_squared, pairs) where pairs are the (n, log-diff)
    points used.  Identical ratio sequences are flagged degenerate.
    """
    r1 = scaling_ratios(f1, theta, N)
    r2 = scaling_ratios(f2, theta, N)
    ns = sorted(set(r1.s) & set(r2.s))
    if n_range is not None:
        ns = [n for n in ns if n_range[0] <= n <= n_range[1]]
    noise = 1e3 * np.finfo(float).eps
    pairs = []
    for n in ns:
        d = abs(r2.s[n] / r1.s[n] - 1.0)
        if d > noise:
            pairs.append((n, math.log(d)))
    if len(pairs) < 5:
        if all(abs(r2.s[n] / r1.s[n] - 1.0) <= noise for n in ns):
            return float("-inf"), 1.0, []
        raise ValueError("fewer than 5 usable scaling-ratio comparisons")
    xs = np.array([p[0] for p in pairs], dtype=float)
    ys = np.array([p[1] for p in pairs], dtype=float)
    A = np.vstack([xs, np.ones_like(xs)]).T
    sol, res, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    slope = float(sol[0])
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    ss_res = float(np.sum((A @ sol - ys) ** 2))
    r2v = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2v, pairs
