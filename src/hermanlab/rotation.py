"""Rotation numbers of circle maps and parameter tuning of the families.

Rotation numbers are computed by exact return-time sign tests (Farey /
Stern-Brocot bisection), never by Birkhoff averaging: the sign of
F^q(x) - x - p decides rho vs p/q exactly, and for irrational targets
the alternating closest-return tests decide rho vs theta down to the
combinatorial length of the deepest checked convergent.

Two tuners are provided:

* tune_blaschke: monotone bisection in alpha for the circle-preserving
  Blaschke family (d, d).
* tune_asymmetric: damped Newton on the closest-return residual
  G_m(c) = f_c^{q_m}(1) - 1 with a continuation ladder over the depth m,
  i.e. continuation along the continued-fraction truncations p_m/q_m of
  theta.  The Jacobian is the derivative of the orbit with respect to
  the parameter, propagated analytically along the orbit (the basin of a
  finite-difference Jacobian collapses at deep levels where neighboring
  roots are closer than any usable difference step).
"""

import cmath
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .cfrac import (MIN_IRRATIONAL_DEPTH, ContinuedFraction, Convergents, NAMED_THETAS,
                    convergents, resolve_theta)
from .maps import arnold_lift, blaschke, family_core, herman_family

_QCAP_DEFAULT = 30000


def _convergents(theta):
    """Convergents of theta to depth 48, or to the depth of its known quotients."""
    return convergents(theta, 48 if theta.depth is None else min(48, theta.depth))


class CircleNotInvariantError(ValueError):
    pass


class NonMonotoneLiftError(ValueError):
    pass


class PresetError(KeyError):
    """No shipped preset seed for the requested family and theta."""


class TuningError(RuntimeError):
    def __init__(self, msg, last=None):
        super().__init__(msg)
        self.last = last


@dataclass
class CircleLift:
    """Degree-one lift F of a circle homeomorphism, as a real evaluator."""

    evaluator: object
    source: object = None

    def __call__(self, x):
        return self.evaluator(x)

    def check(self, samples=1000, tol=1e-10):
        xs = np.linspace(0.0, 1.0, samples, endpoint=False)
        prev = None
        for x in xs:
            v = self.evaluator(x)
            if abs(self.evaluator(x + 1.0) - v - 1.0) > tol:
                return False
            if prev is not None and v < prev - 1e-12:
                return False
            prev = v
        return True


@dataclass
class TuneResult:
    parameter: complex
    alpha: float | None
    residual: float
    iterations: int
    verified_depth: int
    report: dict = field(default_factory=dict)


def circle_lift(map_):
    """Lift of a circle-preserving rational map via its displacement.

    F(x) = x + frac(arg f(e^{2 pi i x})/2pi - x); continuous and
    degree-one as long as f has no fixed point on the circle, with
    F(0) in [0, 1).
    """
    for t in np.linspace(0.0, 1.0, 64, endpoint=False):
        z = cmath.exp(2j * math.pi * t)
        if abs(abs(map_.eval(z)) - 1.0) > 1e-10:
            raise CircleNotInvariantError("map does not preserve the unit circle")

    def F(x):
        z = cmath.exp(2j * math.pi * x)
        w = map_.eval(z)
        d = (cmath.phase(w) / (2 * math.pi) - x) % 1.0
        return x + d

    return CircleLift(F, source=map_)


def rotation_number(lift, depth=40, x0=0.0, qcap=200000, rational_tol=1e-13):
    """Bracket rho by Stern-Brocot bisection with exact sign tests.

    Returns (lo, hi) as Fractions with rho in [lo, hi]; if a periodic
    orbit is detected the two coincide.  depth counts mediant steps.
    """
    def signed(p, q):
        # sign of F^q(x0) - x0 - p
        x = x0
        for _ in range(q):
            xn = lift(x)
            if xn < x - 1e-12:
                raise NonMonotoneLiftError("lift decreased along orbit")
            x = xn
        return x - x0 - p

    lo, hi = Fraction(0, 1), Fraction(1, 1)
    for _ in range(depth):
        med = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        if med.denominator > qcap:
            break
        s = signed(med.numerator, med.denominator)
        if abs(s) < rational_tol:
            return med, med
        if s > 0:
            lo = med
        else:
            hi = med
    return lo, hi


def sign_rho_vs_theta(lift, theta_cf, qcap=_QCAP_DEFAULT, x0=0.0):
    """Sign of rho(lift) - theta via alternating closest-return tests.

    theta_cf is theta as a ContinuedFraction, or the Convergents that
    ``_convergents`` built from it, so that a bisection tests every lift
    against convergents built once.  Returns +1, -1, or 0 when undecided
    at depth (rho within the deepest checked combinatorial length of theta).
    """
    conv = theta_cf if isinstance(theta_cf, Convergents) else _convergents(theta_cf)
    x = x0
    k = 0
    for n in range(1, len(conv.q)):
        if conv.q[n] > qcap:
            break
        while k < conv.q[n]:
            x = lift(x)
            k += 1
        s = x - x0 - conv.p[n]
        # for odd n, q_n*theta - p_n < 0; rho > theta iff the return overshoots
        if n % 2 == 1 and s > 0:
            return 1
        if n % 2 == 0 and s < 0:
            return -1
    return 0


def tune_lift_family(make_lift, theta, tol=1e-10, qcap=_QCAP_DEFAULT,
                     bracket=(0.0, 1.0), max_iter=80):
    """Bisection in alpha for any monotone one-parameter lift family."""
    theta = resolve_theta(theta)
    if theta.depth is not None and theta.depth < MIN_IRRATIONAL_DEPTH:
        raise ValueError("theta must be irrational (deep CF); rational input rejected")
    conv = _convergents(theta)
    lo, hi = bracket
    it = 0
    undecided = False
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        s = sign_rho_vs_theta(make_lift(mid), conv, qcap=qcap)
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
    depth_checked = max(n for n in range(1, len(conv.q)) if conv.q[n] <= qcap)
    return alpha, hi - lo, it, depth_checked, undecided


def _tune_circle(make_lift, parameter, family, theta, tol, qcap):
    """tune_lift_family as a TuneResult; parameter maps alpha to the map parameter."""
    alpha, width, it, depth, undecided = tune_lift_family(make_lift, theta, tol, qcap)
    return TuneResult(parameter=parameter(alpha), alpha=alpha, residual=width,
                      iterations=it, verified_depth=depth,
                      report={"undecided_at_depth": undecided, "family": family})


def tune_blaschke(d, theta, tol=1e-10, qcap=_QCAP_DEFAULT):
    """Tune alpha so that B_{d,alpha} has rotation number theta on the circle."""
    return _tune_circle(lambda a: circle_lift(blaschke(d, a)),
                        lambda a: cmath.exp(2j * math.pi * a), (d, d), theta, tol, qcap)


def tune_arnold(theta, tol=1e-12, qcap=_QCAP_DEFAULT):
    """Tune the Arnold-family lift x + alpha + sin(2 pi x)/(2 pi) to theta."""
    return _tune_circle(arnold_lift, complex, "arnold", theta, tol, qcap)


# ---------------------------------------------------------------------------
# asymmetric Newton tuner
# ---------------------------------------------------------------------------

def _default_depth(conv):
    """Smallest n with q_n >= 1000 (conditioning vs round-off balance)."""
    for n in range(1, len(conv.q)):
        if conv.q[n] >= 1000:
            return n
    return len(conv.q) - 1


def _newton_polish(num0, den, c, qm, tol=1e-14, max_iter=40, max_halvings=20):
    """Damped Newton on G_m(c) = f_c^{q_m}(1) - 1.

    Returns (c, |G|, steps, last_step): converged when either |G| < tol
    or the Newton step falls below parameter round-off (the residual has
    a depth-dependent noise floor from orbit round-off, so deep levels
    converge in parameter long before the raw residual is small).
    """
    r, dr = _kernels.tune_residual(num0, den, c, qm, *_kernels.TRAPS)
    if r != r:
        raise TuningError("orbit escaped during residual evaluation", last=c)
    steps = 0
    last_step = math.inf
    for _ in range(max_iter):
        if abs(r) < tol:
            break
        step = -r / dr
        if abs(step) < 4e-16 * max(1.0, abs(c)):
            last_step = abs(step)
            break
        lam = 1.0
        moved = False
        for _ in range(max_halvings):
            cn = c + lam * step
            rn, drn = _kernels.tune_residual(num0, den, cn, qm, *_kernels.TRAPS)
            if rn == rn and abs(rn) < abs(r):
                c, r, dr = cn, rn, drn
                last_step = lam * abs(step)
                moved = True
                steps += 1
                break
            lam *= 0.5
        if not moved:
            break
    return c, abs(r), steps, last_step


def tune_asymmetric(d0, dinf, theta, seed, m=None, tol=1e-12, verify_depth=None):
    """Newton-tune the (d0, dinf) family parameter to rotation number theta.

    seed: a complex starting parameter, or the string "preset" to use the
    shipped preset for (d0, dinf, theta-name); any other string raises
    PresetError.  m is the final ladder
    depth (default: smallest n with q_n >= 1000).  The ladder polishes
    G_k(c) = 0 for k = m0..m, which is continuation along the CF
    truncations of theta; the result at depth m realizes the closest-
    return combinatorics of theta through time q_m.
    """
    theta = resolve_theta(theta)
    conv = _convergents(theta)
    from_preset = isinstance(seed, str)
    if from_preset:
        seed = resolve_seed(d0, dinf, theta, seed)
    c = complex(seed)
    if from_preset:
        m0 = _default_depth(conv)
    else:
        # arbitrary seeds may be far from the root: climb from a shallow level
        m0 = next(n for n in range(1, len(conv.q)) if conv.q[n] >= 10)
    if m is None:
        m = m0
    if m >= len(conv.q):
        raise ValueError("ladder depth %d > the %d known quotients of theta" % (m, len(conv.q) - 1))
    num0, den = family_core(d0, dinf)
    total_steps = 0
    residual = math.inf
    prev = None
    for k in range(min(m0, m), m + 1):
        c, residual, steps, last_step = _newton_polish(num0, den, c, conv.q[k], tol=tol)
        total_steps += steps
        if residual > max(tol, 1e-10) and last_step > 1e-12 * max(1.0, abs(c)):
            raise TuningError(
                "Newton did not converge at ladder depth %d (|G|=%.3e)" % (k, residual),
                last=c)
        if prev is not None and abs(c - prev) > 0.05:
            raise TuningError("ladder jumped between roots at depth %d" % k, last=c)
        prev = c
    map_ = herman_family(d0, dinf, c)
    vrep = verify_herman(map_, theta, verify_depth or min(m, 14))
    return TuneResult(
        parameter=c,
        alpha=None,
        residual=residual,
        iterations=total_steps,
        verified_depth=verify_depth or min(m, 14),
        report={"family": (d0, dinf), "ladder_top": m, "verify": vrep},
    )


def resolve_seed(d0, dinf, theta, name="preset"):
    """Look up a tuning seed from the shipped presets file; "preset" is the
    only seed name."""
    import json

    if name != "preset":
        raise PresetError("unknown seed name %r: the only named seed is 'preset'" % (name,))

    path = os.path.join(os.path.dirname(__file__), "presets.json")
    with open(path) as fh:
        presets = json.load(fh)
    tname = None
    for key, cf in NAMED_THETAS.items():
        if isinstance(theta, ContinuedFraction) and cf.period == theta.period \
                and (cf.preperiod or []) == (theta.preperiod or []):
            tname = key
            break
    if tname is None:
        raise PresetError("no preset seed for theta %r: presets exist only for %s"
                          % (theta, sorted(NAMED_THETAS)))
    key = "%d,%d,%s" % (d0, dinf, tname)
    try:
        re, im = presets["seeds"][key]
    except KeyError:
        raise PresetError("no preset seed for (d0,dinf,theta)=%s" % key)
    return complex(re, im)


def verify_herman(map_, theta, n):
    """Three report-only sanity checks that the tuned map has a Herman curve.

    (i) the orbit of the critical point 1 stays in 1e-3 < |z| < 1e3 for
    q_n iterates; (ii) the cyclic order of orbit arguments matches the
    cyclic order of {k theta}; (iii) closest returns f^{q_k}(1) alternate
    sides of the critical point (plane-chart phases cluster into two
    nearly-opposite directions, alternating with k).
    """
    theta = resolve_theta(theta)
    conv = convergents(theta, max(n + 1, 3))
    qn = conv.q[n]
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

    phases = [cmath.phase(complex(orb[conv.q[k] - 1]) - 1.0) for k in range(2, n + 1)]
    ok = True
    for i in range(len(phases) - 2):
        same = abs((phases[i] - phases[i + 2] + math.pi) % (2 * math.pi) - math.pi)
        opp = abs((phases[i] - phases[i + 1] + math.pi) % (2 * math.pi) - math.pi)
        if same > math.pi / 2 or opp < math.pi / 2:
            ok = False
    checks["alternation"] = bool(ok and len(phases) >= 3)
    checks["all"] = checks["annulus"] and checks["cyclic_order"] and checks["alternation"]
    return checks
