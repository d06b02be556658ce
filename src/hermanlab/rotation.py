"""Rotation numbers of circle maps and parameter tuning of the families.

Rotation numbers are computed by exact return-time sign tests (Farey /
Stern-Brocot bisection), never by Birkhoff averaging: the sign of
F^q(x) - x - p decides rho vs p/q exactly, and for irrational targets
the alternating closest-return tests decide rho vs theta down to the
combinatorial length of the deepest checked convergent.

Three tuners are provided:

* tune_blaschke: monotone bisection in alpha for the circle-preserving
  Blaschke family (d, d).
* tune_arnold: the same bisection for the Arnold family of circle-map
  lifts x + alpha + sin(2 pi x)/(2 pi).
* tune_asymmetric: damped Newton on the closest-return residual
  G_m(c) = f_c^{q_m}(1) - 1 with a continuation ladder over the depth m,
  i.e. continuation along the continued-fraction truncations p_m/q_m of
  theta, each level seeded by extrapolating the geometric convergence of
  the previous levels' roots.  The Jacobian is the derivative of the
  orbit with respect to the parameter, propagated analytically along the
  orbit (the basin of a finite-difference Jacobian collapses at deep
  levels where neighboring roots are closer than any usable difference
  step).
"""

import cmath
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .cfrac import MIN_IRRATIONAL_DEPTH, NAMED_THETAS, resolve_theta
from .maps import arnold_lift, blaschke, family_core, herman_family

_QCAP_DEFAULT = 30000
# a ladder level is seeded by extrapolation only while the two latest
# ratios of root steps of one parity agree to this relative tolerance
_EXTRAPOLATION_GUARD = 0.01
# a preset ladder deeper than the default top starts this many levels
# below it, so that the extrapolation guard holds before the default top
_LOWER_START = 4

# the least depth n at which verify_herman can pass: its alternation check
# compares the phases of the closest returns q_2..q_n, three at least
VERIFY_LEAST_DEPTH = 4

_log = logging.getLogger("hermanlab")

# tuning seeds by "d0,dinf,theta name"
_PRESETS = {
    "2,2,golden": complex(-0.755700, -0.654917),
    "3,2,golden": complex(-1.144208, -0.964454),
    "2,3,golden": complex(-0.510948, -0.430678),
}


class CircleNotInvariantError(ValueError):
    pass


class PresetError(KeyError):
    """No shipped preset seed for the requested family and theta."""


class TuningError(RuntimeError):
    pass


@dataclass
class TuneResult:
    parameter: complex
    alpha: float | None
    residual: float
    iterations: int
    verified_depth: int
    report: dict = field(default_factory=dict)


class _BlaschkeLift:
    """The lift of ``circle_lift`` for a Blaschke member F_{d,d,c}, |c| = 1,
    in closed form.

    With m = 2d - 1 and D the (real) denominator, the numerator is
    -c (-z)^m D(1/z), so on |z| = 1, B(z) = -c (-z)^m conj(D(z)) / D(z).
    As m is odd, with {x} = x mod 1 and alpha = arg c / 2pi,

        F(x) = x + frac(alpha + (m - 1) {x} - arg D(e^{2 pi i {x}}) / pi):

    one Horner of degree d - 1 and one atan2 per step.  D has no zero on
    the circle (its zeros are the poles of B), so no step makes a complex
    division or meets a pole.  D depends on d alone, so the members of one
    family share it and differ only in alpha (``at``).

    A step runs in floats the operations that complex arithmetic makes on
    (cos y, sin y) = exp(2 pi i {x}) and on D's real coefficients, dropping
    only products that are exactly zero, so it equals the complex Horner
    bit for bit (``_reference._blaschke_advance`` says how).  ``advance``
    makes one ``_kernels.blaschke_advance`` call for all its steps, in C,
    or in that python reference without a compiler.  The constructor takes
    D's coefficients packed for it (once per family), m - 1 and c.
    """

    critical_point = 0.0

    def __init__(self, den_bytes, slope, c):
        self._den, self._slope, self._alpha = den_bytes, slope, cmath.phase(c) / (2 * math.pi)

    def at(self, c):
        """The lift of the same family's member with parameter c, |c| = 1."""
        return _BlaschkeLift(self._den, self._slope, c)

    def advance(self, x, n):
        """F^n(x), n closed-form steps."""
        return _kernels.blaschke_advance(self._den, self._alpha, self._slope, x, n)


def _is_blaschke_member(map_):
    """map_ is herman_family(d, d, c) for its own fields d0 = dinf = d and
    parameter c.  A map without those fields, or with fields that
    herman_family refuses, is not."""
    d, c = map_.d0, map_.parameter
    if d is None or d != map_.dinf or c is None:
        return False
    try:
        return map_ == herman_family(d, d, c)
    except (ValueError, OverflowError):
        return False


def circle_lift(map_):
    """The closed-form lift F(x) = x + frac(arg f(e^{2 pi i x})/2pi - x) of
    a (d, d) family member f (_BlaschkeLift), with F(0) in [0, 1).

    A map that moves the unit circle at one of 64 points, or has a pole
    there (where eval gives inf or nan parts), raises
    CircleNotInvariantError, any other non-member ValueError.  A lift (this
    one, ``maps.ArnoldLift``) is ``advance(x, n)`` = F^n(x) and ``critical_point``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in np.linspace(0.0, 1.0, 64, endpoint=False):
            if not abs(abs(map_.eval(cmath.exp(2j * math.pi * t))) - 1.0) <= 1e-10:
                raise CircleNotInvariantError("map does not preserve the unit circle")
    if not _is_blaschke_member(map_):
        raise ValueError("circle_lift needs a (d, d) family member herman_family(d, d, c)")
    return _BlaschkeLift(map_.den.real[::-1].tobytes(), float(2 * map_.d0 - 2), map_.parameter)


def rotation_number(lift, depth=40):
    """Bracket rho by Stern-Brocot bisection with exact sign tests from x = 0.

    Returns (lo, hi) as Fractions with rho in [lo, hi]; if a periodic
    orbit is detected the two coincide.  depth counts mediant steps.  A
    test is one ``lift.advance(0.0, q)`` call, which reads the sign of
    F^q(0) - p for a nondecreasing lift, as every lift the package builds
    is: a ``_BlaschkeLift`` step adds a float in [0, 1), and an
    ``ArnoldLift`` has F' = 1 + cos 2 pi x >= 0.
    """
    lo, hi = Fraction(0, 1), Fraction(1, 1)
    for _ in range(depth):
        med = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        if med.denominator > 200000:
            break
        s = lift.advance(0.0, med.denominator) - med.numerator
        if abs(s) < 1e-13:
            return med, med
        if s > 0:
            lo = med
        else:
            hi = med
    return lo, hi


def checked_level(theta, qcap=_QCAP_DEFAULT):
    """The deepest level n of theta (a ContinuedFraction) with q_n <= qcap:
    the last closest return that the bisection's sign tests check."""
    return theta.level(qcap)


def sign_rho_vs_theta(lift, theta, qcap=_QCAP_DEFAULT):
    """Sign of rho(lift) - theta via alternating closest-return tests from x = 0.

    theta is a ContinuedFraction, tested to its depth.  Returns +1, -1, or 0
    when undecided at depth (rho within the deepest checked combinatorial
    length of theta).
    """
    for n, x in _closest_returns(lift, theta, 0.0, checked_level(theta, qcap)):
        s = x - theta.p[n]
        # for odd n, q_n*theta - p_n < 0; rho > theta iff the return overshoots
        if n % 2 == 1 and s > 0:
            return 1
        if n % 2 == 0 and s < 0:
            return -1
    return 0


def _closest_returns(lift, theta, x, last):
    """(n, F^{q_n}(x)) for n = 1..last, each from the one before."""
    k = 0
    for n in range(1, last + 1):
        x = lift.advance(x, theta.q[n] - k)
        k = theta.q[n]
        yield n, x


def tune_lift_family(make_lift, theta, tol=1e-10, qcap=_QCAP_DEFAULT):
    """Bisection in alpha over [0, 1] for any monotone one-parameter lift family."""
    theta = resolve_theta(theta)
    if theta.depth < MIN_IRRATIONAL_DEPTH:
        raise ValueError("theta must be irrational (deep CF); rational input rejected")
    if not theta.q[1] <= qcap:
        raise ValueError("qcap = %r is below q_1 = %d: no return time to test"
                         % (qcap, theta.q[1]))
    lo, hi = 0.0, 1.0
    undecided = False
    for it in range(1, 81):
        mid = 0.5 * (lo + hi)
        s = sign_rho_vs_theta(make_lift(mid), theta, qcap=qcap)
        if s > 0:
            hi = mid
        elif s < 0:
            lo = mid
        else:
            undecided = True
            break
        if hi - lo < tol:
            break
    alpha = 0.5 * (lo + hi)
    return alpha, hi - lo, it, checked_level(theta, qcap), undecided


def _tune_circle(make_lift, parameter, family, theta, tol, qcap):
    """tune_lift_family as a TuneResult; parameter maps alpha to the map parameter."""
    alpha, width, it, depth, undecided = tune_lift_family(make_lift, theta, tol, qcap)
    return TuneResult(parameter=parameter(alpha), alpha=alpha, residual=width,
                      iterations=it, verified_depth=depth,
                      report={"undecided_at_depth": undecided, "family": family})


def tune_blaschke(d, theta, tol=1e-10, qcap=_QCAP_DEFAULT):
    """Tune alpha so that B_{d,alpha} has rotation number theta on the circle.

    The family is checked once, by circle_lift on its first midpoint; each
    midpoint's lift is that lift ``at`` the parameter blaschke(d, a) takes."""
    lift = circle_lift(blaschke(d, 0.5))
    return _tune_circle(lambda a: lift.at(cmath.exp(2j * math.pi * (a % 1.0))),
                        lambda a: cmath.exp(2j * math.pi * a), (d, d), theta, tol, qcap)


def tune_arnold(theta, tol=1e-12, qcap=_QCAP_DEFAULT):
    """Tune the Arnold-family lift x + alpha + sin(2 pi x)/(2 pi) to theta."""
    return _tune_circle(arnold_lift, complex, "arnold", theta, tol, qcap)


# ---------------------------------------------------------------------------
# asymmetric Newton tuner
# ---------------------------------------------------------------------------

def _newton_polish(num0, den, c, qm, tol):
    """Damped Newton on G_m(c) = f_c^{q_m}(1) - 1 (40 steps of 20 halvings at most).

    Returns (c, |G|, steps, last_step, evals), evals counting the residual
    evaluations: converged when either |G| < tol or the Newton step falls
    below parameter round-off (the residual has a depth-dependent noise
    floor from orbit round-off, so deep levels converge in parameter long
    before the raw residual is small).  An escape at c raises TuningError.
    """
    r, dr = _kernels.tune_residual(num0, den, c, qm, *_kernels.TRAPS)
    evals = 1
    if r != r:
        raise TuningError("orbit escaped during residual evaluation")
    steps = 0
    last_step = math.inf
    for _ in range(40):
        if abs(r) < tol:
            break
        step = -r / dr
        if abs(step) < 4e-16 * max(1.0, abs(c)):
            last_step = abs(step)
            break
        lam = 1.0
        moved = False
        for _ in range(20):
            cn = c + lam * step
            rn, drn = _kernels.tune_residual(num0, den, cn, qm, *_kernels.TRAPS)
            evals += 1
            if rn == rn and abs(rn) < abs(r):
                c, r, dr = cn, rn, drn
                last_step = lam * abs(step)
                moved = True
                steps += 1
                break
            lam *= 0.5
        if not moved:
            break
    return c, abs(r), steps, last_step, evals


def _steps(roots):
    """The root steps d_j = c_{j+1} - c_j of consecutive ladder roots."""
    return [b - a for a, b in zip(roots, roots[1:])]


def _extrapolated_seed(roots):
    """Seed for the level after c_k = roots[-1], or None unless the ladder
    is geometric enough to extrapolate.

    The ratio d_j / d_{j-1} alternates between two complex values from
    level to level, so the next step is predicted from the ratio of its
    own parity two levels back: c_k + d_{k-1} d_{k-2} / d_{k-3}.  The guard
    asks that the latest two ratios of the other parity, d_{k-1} / d_{k-2}
    and d_{k-3} / d_{k-4}, agree to _EXTRAPOLATION_GUARD.
    """
    if len(roots) < 5:
        return None
    d4, d3, d2, d1 = _steps(roots[-5:])
    if not (d4 and d3 and d2):
        return None
    if not abs((d1 / d2) / (d3 / d4) - 1.0) < _EXTRAPOLATION_GUARD:
        return None
    return roots[-1] + d1 * (d2 / d3)


def _limit(roots):
    """c_k plus the sum of all the remaining extrapolated root steps,
    c_k + d_{k-1} r (1 + r') / (1 - r r') with r = d_{k-2} / d_{k-3} and
    r' = d_{k-1} / d_{k-2}; None for fewer than four roots or a zero step."""
    if len(roots) < 4:
        return None
    d3, d2, d1 = _steps(roots[-4:])
    if not (d3 and d2):
        return None
    r, r1 = d2 / d3, d1 / d2
    return complex(roots[-1] + d1 * r * (1 + r1) / (1 - r * r1))


def tune_asymmetric(d0, dinf, theta, seed, m=None, tol=1e-12):
    """Newton-tune the (d0, dinf) family parameter to rotation number theta.

    seed: a complex starting parameter, or the string "preset" to use the
    shipped preset for (d0, dinf, theta-name); any other string raises
    PresetError.  m is the final ladder depth; by default the smallest n
    with q_n >= 1000 (the preset's level, which balances conditioning
    against round-off) or theta's depth for a preset seed, and the deeper
    of m0 and VERIFY_LEAST_DEPTH + 1 for an explicit seed.  The ladder
    polishes G_k(c) = 0 for k = m0..m, which is continuation along the CF
    truncations of theta; the result at depth m realizes the closest-return
    combinatorics of theta through time q_m, verified at depth
    min(m - 1, 14): the return at time q_m is the one the ladder has just
    driven onto the critical point, so its phase is round-off.  An m below
    VERIFY_LEAST_DEPTH + 1 raises ValueError before any residual is
    evaluated.

    m0 is the default depth for a preset seed, or _LOWER_START levels
    below it when m is deeper, and the first level with q_n >= 10 for an
    explicit seed (theta's depth + 1 if none: a given m starts there, and
    the default m is refused as past theta).  The level roots converge geometrically, with a step ratio
    d_{k-1} / d_k that alternates between two values.  Once five roots
    are known and the ratios of one parity agree, each level is seeded by
    two-level extrapolation (_extrapolated_seed), which lands inside
    Newton's quadratic basin; otherwise, or when the extrapolated seed's
    orbit escapes, the level starts from the last root.  Every level
    still makes at least one residual evaluation, and passes the
    convergence test and the 0.05 jump test.

    report holds the family, ladder_top, verify (verify_herman's checks),
    ladder (per level: level, q, residual |G|, steps, evals, iterates =
    evals * q, extrapolated), delta (level k -> |d_{k-2} / d_{k-1}|, the
    parameter-side scaling of renormalization) and c_limit (_limit of the
    roots, None for fewer than four levels).
    """
    theta = resolve_theta(theta)
    if isinstance(seed, str):
        c = resolve_seed(d0, dinf, theta, seed)
        top = min(theta.level(999) + 1, theta.depth)
        m = top if m is None else m
        m0 = max(1, top - _LOWER_START) if m > top else top
    else:
        c = complex(seed)
        # arbitrary seeds may be far from the root: climb from a shallow level
        m0 = theta.level(9) + 1
        m = max(m0, VERIFY_LEAST_DEPTH + 1) if m is None else m
    if m > theta.depth:
        raise ValueError("ladder depth %d > theta's deepest usable level %d" % (m, theta.depth))
    if m - 1 < VERIFY_LEAST_DEPTH:
        raise ValueError("ladder depth %d < %d: the result is verified at depth m - 1, and "
                         "verify_herman needs depth %d or more"
                         % (m, VERIFY_LEAST_DEPTH + 1, VERIFY_LEAST_DEPTH))
    num0, den = family_core(d0, dinf)
    roots, ladder = [], []
    start = min(m0, m)
    for k in range(start, m + 1):
        escaped = 0
        guess = _extrapolated_seed(roots)
        if guess is not None:
            try:
                c_k, residual, steps, last_step, evals = _newton_polish(num0, den, guess,
                                                                        theta.q[k], tol)
            except TuningError:
                guess, escaped = None, 1  # the orbit escaped: start from the last root
        if guess is None:
            c_k, residual, steps, last_step, evals = _newton_polish(num0, den, c, theta.q[k], tol)
            evals += escaped
        if residual > max(tol, 1e-10) and last_step > 1e-12 * max(1.0, abs(c_k)):
            raise TuningError(
                "Newton did not converge at ladder depth %d (|G|=%.3e)" % (k, residual))
        if roots and abs(c_k - roots[-1]) > 0.05:
            raise TuningError("ladder jumped between roots at depth %d" % k)
        c = c_k
        roots.append(c)
        ladder.append({"level": k, "q": theta.q[k], "residual": float(residual), "steps": steps,
                       "evals": evals, "iterates": evals * theta.q[k],
                       "extrapolated": guess is not None})
        _log.debug("ladder level %d (q = %d): |G| = %.3e, %d steps, %d evaluations, %s seed",
                   k, theta.q[k], residual, steps, evals,
                   "extrapolated" if guess is not None else "last-root")
    d = _steps(roots)
    delta = {k: float(abs(a / b)) for k, a, b in zip(range(start + 2, m + 1), d, d[1:]) if b}
    verify_depth = min(m - 1, 14)
    vrep = verify_herman(herman_family(d0, dinf, c), theta, verify_depth)
    return TuneResult(
        parameter=c,
        alpha=None,
        residual=residual,
        iterations=sum(e["steps"] for e in ladder),
        verified_depth=verify_depth,
        report={"family": (d0, dinf), "ladder_top": m, "verify": vrep, "ladder": ladder,
                "delta": delta, "c_limit": _limit(roots)},
    )


def resolve_seed(d0, dinf, theta, name="preset"):
    """Look up a tuning seed in the preset table; "preset" is the only seed
    name."""
    if name != "preset":
        raise PresetError("unknown seed name %r: the only named seed is 'preset'" % (name,))
    theta = resolve_theta(theta)
    tname = None
    for key, cf in NAMED_THETAS.items():
        if cf.period == theta.period and (cf.preperiod or []) == (theta.preperiod or []):
            tname = key
            break
    if tname is None:
        raise PresetError("no preset seed for theta %r: presets exist only for %s"
                          % (theta, sorted(NAMED_THETAS)))
    key = "%d,%d,%s" % (d0, dinf, tname)
    try:
        return _PRESETS[key]
    except KeyError:
        raise PresetError("no preset seed for (d0,dinf,theta)=%s" % key)


def verify_herman(map_, theta, n):
    """Three report-only sanity checks that the tuned map has a Herman curve.

    (i) the orbit of the critical point 1 stays in 1e-3 < |z| < 1e3 for
    q_n iterates; (ii) the cyclic order of orbit arguments matches the
    cyclic order of {k theta}; (iii) closest returns f^{q_k}(1) alternate
    sides of the critical point: each plane-chart phase lies nearer the
    phase two levels on than the next one, whatever the critical angle.
    (iii) compares the phases at q_2..q_n, so n below VERIFY_LEAST_DEPTH
    raises ValueError.
    """
    if n < VERIFY_LEAST_DEPTH:
        raise ValueError("verify_herman needs depth %d or more, not %d" % (VERIFY_LEAST_DEPTH, n))
    theta = resolve_theta(theta)
    if n > theta.depth:
        raise ValueError("verify depth %d is past theta's deepest usable level %d"
                         % (n, theta.depth))
    qn = theta.q[n]
    orb, nok = _kernels.orbit(map_.num, map_.den, 1.0 + 0.0j, qn, 1e-3, 1e3)
    checks = {}
    checks["annulus"] = bool(nok == qn)
    if not checks["annulus"]:
        checks["cyclic_order"] = False
        checks["alternation"] = False
        checks["all"] = False
        return checks

    th = theta.value_float()
    ks = np.arange(1, qn + 1)
    order = np.argsort((ks * th) % 1.0, kind="stable")
    args = np.angle(orb[order])
    # winding about 0: argument increments along the combinatorial order
    inc = np.diff(np.concatenate([args, args[:1]])) % (2 * math.pi)
    winding = inc.sum() / (2 * math.pi)
    checks["cyclic_order"] = bool(abs(winding - 1.0) < 1e-9 and inc.max() < math.pi)

    phases = [cmath.phase(complex(orb[theta.q[k] - 1]) - 1.0) for k in range(2, n + 1)]
    ok = True
    for i in range(len(phases) - 2):
        same = abs((phases[i] - phases[i + 2] + math.pi) % (2 * math.pi) - math.pi)
        opp = abs((phases[i] - phases[i + 1] + math.pi) % (2 * math.pi) - math.pi)
        if not same < opp:
            ok = False
    checks["alternation"] = ok
    checks["all"] = checks["annulus"] and checks["cyclic_order"] and checks["alternation"]
    return checks
