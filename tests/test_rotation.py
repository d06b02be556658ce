"""Rotation numbers, circle lifts, and parameter tuning."""

import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hermanlab as hl
from hermanlab.cfrac import GOLDEN, SILVER
from hermanlab.renorm import closest_return_displacements
from hermanlab.rotation import (CircleNotInvariantError, _BlaschkeLift, rotation_number,
                                sign_rho_vs_theta, tune_arnold, tune_blaschke, verify_herman)


class Rigid:
    """The rigid rotation x -> x + theta as a lift."""

    critical_point = 0.0

    def __init__(self, theta):
        self.theta = theta

    def advance(self, x, n):
        for _ in range(n):
            x = x + self.theta
        return x


def test_rotation_number_of_rigid_rotation():
    th = GOLDEN.value_float()
    lo, hi = rotation_number(Rigid(th), depth=30)
    assert float(lo) <= th <= float(hi)
    assert float(hi) - float(lo) < 1e-6


def test_rotation_number_detects_rational():
    lo, hi = rotation_number(Rigid(0.25), depth=30)
    assert lo == hi == Fraction(1, 4)


def test_sign_rho_vs_theta():
    th = GOLDEN.value_float()
    assert sign_rho_vs_theta(Rigid(th + 1e-6), GOLDEN) == 1
    assert sign_rho_vs_theta(Rigid(th - 1e-6), GOLDEN) == -1
    # undecidable at depth for the exact value
    assert sign_rho_vs_theta(Rigid(th), GOLDEN) == 0


def test_circle_lift_is_degree_one_monotone(blaschke22_golden):
    _, m = blaschke22_golden
    F = hl.circle_lift(m)
    xs = np.linspace(0.0, 1.0, 1000, endpoint=False)
    vs = np.array([F.advance(x, 1) for x in xs])
    assert all(abs(F.advance(x + 1.0, 1) - v - 1.0) <= 1e-10 for x, v in zip(xs, vs))
    assert np.all(np.diff(vs) >= -1e-12)


def test_tuned_blaschke_rotation_number(blaschke22_golden):
    res, m = blaschke22_golden
    F = hl.circle_lift(m)
    th = GOLDEN.value_float()
    lo, hi = rotation_number(F, depth=25)
    assert abs(0.5 * (float(lo) + float(hi)) - th) < 1e-4


def test_blaschke_rotation_number_matches_stepwise_tests(blaschke22_golden):
    """rotation_number tests a lift by one advance(0.0, q) call; the same
    steps taken one advance(x, 1) at a time give the same bracket."""
    F = hl.circle_lift(blaschke22_golden[1])

    class Stepwise:
        critical_point = F.critical_point

        def advance(self, x, n):
            return iterate(lambda y: F.advance(y, 1), x, n)

    assert rotation_number(F, depth=20) == rotation_number(Stepwise(), depth=20)


def per_step_lift(map_):
    """A lift step through RationalMap.eval: the oracle of the closed-form
    step."""
    def F(x):
        z = cmath.exp(2j * math.pi * x)
        w = map_.eval(z)
        d = (cmath.phase(w) / (2 * math.pi) - x) % 1.0
        return x + d

    return F


def iterate(step, x, n):
    for _ in range(n):
        x = step(x)
    return x


UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@pytest.mark.parametrize("d", range(2, 7))
def test_blaschke_denominator_has_no_root_on_the_circle(d):
    """The closed-form lift takes arg D(z) on the circle, which needs D to
    have no root there: D's roots, the poles of B, lie well inside the
    unit disk."""
    den = hl.herman_family(d, d, 1.0).den
    assert np.all(den.imag == 0)
    assert np.max(np.abs(np.roots(den.real[::-1]))) < 0.4


def test_circle_lift_is_closed_form_exactly_for_blaschke_members():
    b = hl.blaschke(3, 0.3)
    assert isinstance(hl.circle_lift(b), _BlaschkeLift)
    # the same coefficients without the family fields, with degrees but no
    # parameter, with degrees herman_family refuses, fields whose
    # parameter does not build them, or coefficients the fields do not
    # build (-B also preserves the circle): refused
    for m in (hl.RationalMap(b.num, b.den),
              hl.RationalMap(b.num, b.den, d0=3, dinf=3),
              hl.RationalMap(b.num, b.den, d0=1, dinf=1, parameter=b.parameter),
              hl.RationalMap(b.num, b.den, d0=31, dinf=31, parameter=b.parameter),
              hl.RationalMap(b.num, b.den, d0=3, dinf=3, parameter=cmath.exp(0.5j)),
              hl.RationalMap(-b.num, b.den, d0=3, dinf=3, parameter=b.parameter)):
        assert m != b
        with pytest.raises(ValueError, match="family member") as err:
            hl.circle_lift(m)
        assert not isinstance(err.value, CircleNotInvariantError)
    assert hl.blaschke(3, 0.3) == b


def test_circle_lift_refuses_a_pole_on_the_circle():
    """1/(1 - z) has its pole at z = 1, the circle scan's first point, where
    eval gives inf+nanj; z (1 - z)/(1 - z) preserves the circle but for the
    0/0 there, nan+nanj.  The scan refuses both, and no RuntimeWarning of
    numpy's division escapes it."""
    pole, hole = hl.RationalMap([1], [1, -1]), hl.RationalMap([0, 1, -1], [1, -1])
    with np.errstate(all="ignore"):
        assert np.isinf(pole.eval(1.0).real) and np.isnan(hole.eval(1.0))
        assert abs(hole.eval(-1.0)) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (pole, hole):
            with pytest.raises(CircleNotInvariantError):
                hl.circle_lift(m)


@given(st.integers(min_value=2, max_value=6), UNIT, UNIT)
@settings(max_examples=200, deadline=None)
def test_blaschke_closed_form_step_matches_eval(d, alpha, x):
    """One closed-form step agrees with a step through RationalMap.eval to
    1e-14.  Where f fixes x up to rounding, the two may round the
    displacement to opposite ends of [0, 1], so they agree modulo 1."""
    m = hl.blaschke(d, alpha)
    got, want = hl.circle_lift(m).advance(x, 1), per_step_lift(m)(x)
    assert abs((got - want + 0.5) % 1.0 - 0.5) < 1e-14
    if 1e-13 < want - x < 1.0 - 1e-13:
        assert abs(got - want) < 1e-14


@given(st.integers(min_value=2, max_value=6), UNIT, UNIT, st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_blaschke_closed_form_advance_bit_equal(d, alpha, x, n):
    lift = hl.circle_lift(hl.blaschke(d, alpha))
    assert lift.advance(x, n).hex() == iterate(lambda y: lift.advance(y, 1), x, n).hex()


I2PI = complex(0.0, 2 * math.pi)


def complex_closed_form_lift(map_):
    """The closed-form step of a Blaschke member in complex arithmetic, as
    the lift once computed it: z = exp(2 pi i {x}) by cmath.exp, D(z) by a
    complex Horner whose real coefficients enter as (c, 0.0), and one atan2.
    Every operand is complex, so the oracle does not depend on how an
    interpreter mixes floats into complex arithmetic.  The oracle of the
    float step of _BlaschkeLift."""
    den = [complex(c.real, 0.0) for c in map_.den[::-1]]
    alpha = cmath.phase(map_.parameter) / (2 * math.pi)
    slope = float(2 * map_.d0 - 2)

    def F(x):
        u = x % 1.0
        z = cmath.exp(I2PI * complex(u))
        dv = den[0]
        for c in den[1:]:
            dv = dv * z + c
        return x + (alpha + slope * u - math.atan2(dv.imag, dv.real) / math.pi) % 1.0

    return F


def derived_lift(map_):
    """The lift of map_ as tune_blaschke derives it: the checked lift of
    another member of its family, at map_'s parameter."""
    return hl.circle_lift(hl.blaschke(map_.d0, 0.5)).at(map_.parameter)


@given(st.integers(min_value=2, max_value=6), UNIT,
       st.one_of(st.just(0.0), UNIT, st.floats(min_value=-50.0, max_value=50.0)),
       st.integers(min_value=0, max_value=300))
@settings(max_examples=150, deadline=None)
def test_blaschke_float_step_bit_equals_complex_oracle(d, alpha, x, n):
    """The member's own lift, and the lift the bisection derives for it from
    another member of its family, both step as the complex oracle does."""
    m = hl.blaschke(d, alpha)
    want = iterate(complex_closed_form_lift(m), x, n)
    for lift in (hl.circle_lift(m), derived_lift(m)):
        assert lift.advance(x, n).hex() == want.hex()


@pytest.mark.parametrize("d", range(2, 7))
def test_blaschke_float_step_from_zero_bit_equals_complex_oracle(d):
    """Every sign test starts at x = 0, where top * sin(0) is -0.0 for a
    negative top coefficient: the float step's + 0.0 makes it 0.0 as the
    complex Horner does, or atan2 gives -pi for pi.  A sweep of 200 alpha."""
    for k in range(200):
        m = hl.blaschke(d, k / 200)
        oracle = complex_closed_form_lift(m)
        for lift in (hl.circle_lift(m), derived_lift(m)):
            assert lift.advance(0.0, 1).hex() == oracle(0.0).hex(), k
            assert lift.advance(0.0, 13).hex() == iterate(oracle, 0.0, 13).hex(), k


def test_blaschke_closed_form_closest_returns_match_mpmath():
    """F^{q_n}(0) - p_n, n = 1..12, of the (2,2) golden closed-form lift
    against a 60-digit orbit of the same map (measured error 7.7e-13; the
    plane-chart lift's is 8.8e-12)."""
    m = hl.blaschke(2, 0.6136486389004858)
    got = closest_return_displacements(hl.circle_lift(m), GOLDEN, 12)
    p, q = GOLDEN.p, GOLDEN.q
    with mpmath.workdps(60):
        num = [mpmath.mpc(complex(c)) for c in m.num[::-1]]
        den = [mpmath.mpc(complex(c)) for c in m.den[::-1]]
        x, k = mpmath.mpf(0), 0
        for n in range(1, 13):
            for _ in range(q[n] - k):
                z = mpmath.expjpi(2 * x)
                w = mpmath.polyval(num, z) / mpmath.polyval(den, z)
                x += mpmath.frac(mpmath.arg(w) / (2 * mpmath.pi) - x)
            k = q[n]
            assert got[n].imag == 0
            assert abs(got[n].real - (x - p[n])) < 2e-12, n


@given(UNIT, UNIT, st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_arnold_lift_advance_bit_equal(alpha, x, n):
    F = hl.arnold_lift(alpha)
    assert F.advance(x, n).hex() == iterate(F, x, n).hex()


@pytest.mark.parametrize("d0,dinf,c", [(3, 2, -1.144208 - 0.964454j), (2, 2, 0.5)],
                         ids=["asymmetric", "blaschke-off-circle"])
def test_circle_lift_refuses_maps_off_the_circle(d0, dinf, c):
    """The unit circle is invariant under no (3,2) member and under no
    (2,2) member with |c| != 1, so neither has a circle lift."""
    with pytest.raises(CircleNotInvariantError):
        hl.circle_lift(hl.herman_family(d0, dinf, c))


def test_tune_arnold_bracket(arnold_golden):
    """rotation_number steps an ArnoldLift, whose advance is a python loop,
    as it steps every lift: the deep-tuned golden lift's bracket is two
    convergents of theta with theta between them."""
    res, F = arnold_golden
    assert res.residual < 1e-8
    lo, hi = rotation_number(F, depth=25)
    convergents = {Fraction(p, q) for p, q in zip(GOLDEN.p, GOLDEN.q)}
    assert lo in convergents and hi in convergents
    assert lo < Fraction(GOLDEN.value_float()) < hi
    assert float(hi - lo) < 1e-10


def test_tune_asymmetric_rejects_bad_ladder():
    with pytest.raises(Exception):
        # a hopeless seed far from any root must not silently "converge"
        hl.tune_asymmetric(3, 2, "golden", 10.0 + 10.0j, m=16)


def test_verify_herman_tuned_map(golden32):
    _, m = golden32
    rep = verify_herman(m, "golden", 12)
    assert rep["all"]


def test_verify_herman_rejects_untuned_map():
    m = hl.herman_family(3, 2, -1.0 - 1.0j)  # arbitrary untuned parameter
    rep = verify_herman(m, "golden", 10)
    assert not rep["all"]


@pytest.mark.parametrize("d0,dinf", [(3, 2), (2, 2)])
def test_verify_herman_refuses_depths_it_cannot_pass(d0, dinf, monkeypatch):
    """The alternation check compares the closest returns q_2..q_n, three at
    least, so verify_herman raises below VERIFY_LEAST_DEPTH = 4 (it used to
    fail there on every map) and passes from 4 on on a preset-tuned map;
    the ladder, verified at m - 1, refuses m below 5 before any residual is
    evaluated (m = 1 used to return c = 1)."""
    least = hl.rotation.VERIFY_LEAST_DEPTH
    assert least == 4
    res = hl.tune_asymmetric(d0, dinf, "golden", "preset")
    m = hl.herman_family(d0, dinf, res.parameter)
    for n in range(least):
        with pytest.raises(ValueError, match="depth %d or more" % least):
            verify_herman(m, "golden", n)
    assert all(verify_herman(m, "golden", n)["all"] for n in range(least, least + 4))
    seen = _count_residual_iterates(monkeypatch)
    for top in (1, least):
        with pytest.raises(ValueError, match="ladder depth %d" % top):
            hl.tune_asymmetric(d0, dinf, "golden", "preset", m=top)
    assert seen == []
    assert hl.tune_asymmetric(d0, dinf, "golden", "preset", m=least + 1).report["verify"]["all"]


def test_tune_deep_ladder_pinned_at_m22():
    """The tune-deep benchmark's ladder: its parameter bit for bit, its Newton
    steps and its residual evaluations per level."""
    res = hl.tune_asymmetric(3, 2, "golden", "preset", m=22)
    assert (res.parameter.real.hex(), res.parameter.imag.hex()) == (
        "-0x1.24ead7725cc2ep+0", "-0x1.edccef1f05165p-1")
    assert res.parameter == complex(-1.144208398266311, -0.964454147850614)
    assert res.iterations == 32
    assert [e["evals"] for e in res.report["ladder"]] == [5, 8, 8, 8, 8, 3, 3, 2, 2, 2, 2]


def test_preset_seed_roundtrip():
    seed = hl.rotation.resolve_seed(3, 2, GOLDEN, "preset")
    assert abs(seed - complex(-1.144208, -0.964454)) < 1e-3
    with pytest.raises(KeyError):
        hl.rotation.resolve_seed(9, 9, GOLDEN, "preset")


@pytest.mark.parametrize("d0, dinf, seed", [(2, 2, complex(-0.755700, -0.654917)),
                                             (3, 2, complex(-1.144208, -0.964454)),
                                             (2, 3, complex(-0.510948, -0.430678))])
def test_preset_seeds(d0, dinf, seed):
    """The three golden presets, to the six decimals they always had."""
    assert hl.rotation.resolve_seed(d0, dinf, GOLDEN) == seed


def test_preset_seed_resolves_theta_name():
    assert hl.rotation.resolve_seed(3, 2, "golden") == hl.rotation.resolve_seed(3, 2, GOLDEN)


def test_preset_seed_refuses_unnamed_theta():
    # [0; 2, 1, 1, ...] shares golden's period but is a different number
    theta = hl.ContinuedFraction.from_periodic([2], [1])
    with pytest.raises(KeyError):
        hl.rotation.resolve_seed(3, 2, theta, "preset")


def test_preset_seed_refuses_unknown_name():
    with pytest.raises(hl.rotation.PresetError, match="bogus"):
        hl.rotation.resolve_seed(3, 2, GOLDEN, "bogus")
    with pytest.raises(hl.rotation.PresetError, match="bogus"):
        hl.tune_asymmetric(3, 2, "golden", "bogus", m=12)


def test_explicit_seed_on_a_theta_without_q_n_of_10():
    """No q_n of [1] * 5 reaches 10, so an explicit seed's start level is one
    past theta's depth: a given m = 5 starts the ladder at 5, and the default
    m is refused by the ladder's depth check (both used to raise a bare
    StopIteration from the start-level search)."""
    theta, seed = hl.ContinuedFraction([1] * 5), complex(-1.144208, -0.964454)
    res = hl.tune_asymmetric(3, 2, theta, seed, m=5)
    assert [e["level"] for e in res.report["ladder"]] == [5]
    with pytest.raises(ValueError, match="ladder depth 6 > theta's deepest usable level 5"):
        hl.tune_asymmetric(3, 2, theta, seed)


@pytest.mark.parametrize("m", [6, 8, 11, 14, 15, 16])
def test_shallow_ladder_verifies_below_its_top(m):
    """The ladder top's return sits on the critical point, so verify stops one
    level short of it, and at 14 for deep ladders."""
    res = hl.tune_asymmetric(3, 2, "golden", complex(-1.144208, -0.964454), m=m)
    assert res.verified_depth == min(m - 1, 14)
    assert res.report["verify"]["all"] is True


def test_tune_blaschke_pinned():
    """The (2,2) golden bisection that the tune-circle benchmark runs, pinned
    bit for bit to the result of numpy scalar evaluation."""
    res = tune_blaschke(2, "golden", tol=1e-15, qcap=50000)
    assert res.parameter == -0.7556990644648718 - 0.6549190209231349j
    assert res.iterations == 32


def test_tune_blaschke_work_pinned(monkeypatch):
    """The same bisection's work: its 32 sign tests advance the lift 203,696
    steps in all, and the family is circle-checked once (64 evaluations),
    not once per midpoint (2,048)."""
    steps, evals, signs = [], [], []
    advance, evaluate = _BlaschkeLift.advance, hl.RationalMap.eval
    sign = hl.rotation.sign_rho_vs_theta

    def counted_advance(self, x, n):
        steps.append(n)
        return advance(self, x, n)

    def counted_eval(self, z):
        evals.append(z)
        return evaluate(self, z)

    def counted_sign(*args, **kwargs):
        signs.append(args)
        return sign(*args, **kwargs)

    monkeypatch.setattr(_BlaschkeLift, "advance", counted_advance)
    monkeypatch.setattr(hl.RationalMap, "eval", counted_eval)
    monkeypatch.setattr(hl.rotation, "sign_rho_vs_theta", counted_sign)
    res = tune_blaschke(2, "golden", tol=1e-15, qcap=50000)
    assert res.iterations == len(signs) == 32
    assert sum(steps) == 203_696
    assert len(evals) <= 64


def test_bisection_refuses_qcap_below_q1():
    """No return time of theta is at most qcap, so no sign test can run."""
    with pytest.raises(ValueError, match="qcap = 1 is below q_1 = 2"):
        tune_blaschke(2, SILVER, qcap=1)
    with pytest.raises(ValueError, match="qcap = 0 is below q_1 = 1"):
        tune_arnold(GOLDEN, qcap=0)


@pytest.mark.parametrize("d0,dinf", [(3, 2), (2, 2), (2, 3)])
def test_conjugated_preset_seed_fails_cyclic_order(d0, dinf):
    """z -> conj(z) conjugates F_c to F_conj(c) and reverses the curve's
    orientation, so the conjugate seed tunes to rotation number 1 - theta."""
    seed = hl.rotation.resolve_seed(d0, dinf, GOLDEN)
    assert hl.tune_asymmetric(d0, dinf, GOLDEN, "preset", m=16).report["verify"]["all"]
    res = hl.tune_asymmetric(d0, dinf, GOLDEN, seed.conjugate(), m=16)
    assert res.report["verify"]["cyclic_order"] is False


def test_rational_map_coefficients_are_frozen():
    m = hl.blaschke(2, 0.3)
    with pytest.raises(ValueError):
        m.num[0] = 1.0
    with pytest.raises(ValueError):
        m.den[-1] = 1.0
    with pytest.raises(AttributeError):
        m.num = np.ones(2, dtype=np.complex128)
    # the family fields describe the coefficients, so they are fixed too
    for name, value in (("d0", 3), ("dinf", 3), ("parameter", 1j)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    assert (m.d0, m.dinf) == (2, 2)
    with pytest.raises(TypeError, match="unhashable"):
        hash(m)


def test_rational_map_copies_its_input():
    src = hl.herman_family(3, 2, -1.144208 - 0.964454j)
    num, den = np.array(src.num), np.array(src.den)
    m = hl.RationalMap(num, den)
    z = 0.3 + 0.7j
    before = m.eval(z)
    num[:] = 0.0
    den[0] = 5.0
    assert m.eval(z) == before == src.eval(z)


# the m = 20 ladder roots of the three golden presets, as the ladder seeded
# from each level's previous root found them
LADDER_M20 = {
    (3, 2): -1.1442084006991486 - 0.9644541436327397j,
    (2, 2): -0.7556990681277681 - 0.6549190166965858j,
    (2, 3): -0.5109476819428045 - 0.4306781952729703j,
}


@pytest.mark.parametrize("d0,dinf", sorted(LADDER_M20))
def test_extrapolated_ladder_pinned_at_m20(d0, dinf):
    """Starting four levels below the preset's level and seeding by two-level
    extrapolation reaches the same m = 20 roots bit for bit."""
    res = hl.tune_asymmetric(d0, dinf, GOLDEN, "preset", m=20)
    assert res.parameter == LADDER_M20[(d0, dinf)]
    assert res.report["verify"]["all"]
    levels = [e["level"] for e in res.report["ladder"]]
    assert levels == list(range(12, 21))
    assert any(e["extrapolated"] for e in res.report["ladder"])


def test_verify_herman_reads_theta_to_its_last_level():
    """verify_herman at depth n reads q_2..q_n, so it runs at theta's own
    depth: on golden's 14-quotient prefix at 14 it gives golden's checks
    (it used to raise ValueError there), and it refuses 15."""
    m = hl.herman_family(3, 2, LADDER_M20[(3, 2)])
    prefix = hl.cfrac.ContinuedFraction([1] * 14)
    rep = verify_herman(m, prefix, 14)
    assert rep == verify_herman(m, GOLDEN, 14) and rep["all"] is True
    with pytest.raises(ValueError, match="verify depth 15 is past theta's deepest usable "
                                         "level 14"):
        verify_herman(m, prefix, 15)


def _count_residual_iterates(monkeypatch):
    """Make every tune_residual call add its qm to the returned list."""
    seen = []
    real = hl._kernels.tune_residual

    def counted(num0, den, c, qm, *traps):
        seen.append(qm)
        return real(num0, den, c, qm, *traps)

    monkeypatch.setattr(hl._kernels, "tune_residual", counted)
    return seen


def test_ladder_ledger_counts_every_residual(monkeypatch):
    """The tune-deep benchmark's ladder: the ledger accounts for every kernel
    call, and the extrapolated seeds keep it below a third of the 531,563
    iterates that seeding from the previous root took."""
    seen = _count_residual_iterates(monkeypatch)
    res = hl.tune_asymmetric(3, 2, "golden", "preset", m=22)
    ladder = res.report["ladder"]
    assert sum(e["iterates"] for e in ladder) == sum(seen) <= 185_000
    assert sum(e["evals"] for e in ladder) == len(seen)
    assert sum(e["steps"] for e in ladder) == res.iterations
    assert all(e["evals"] >= 1 and e["iterates"] == e["evals"] * e["q"] for e in ladder)
    assert ladder[-1]["q"] == 28657 and ladder[-1]["residual"] == res.residual


def test_ladder_delta_and_limit(golden32):
    """The root steps shrink by the universal delta ~ 2.9126 per level, and the
    extrapolated limit of the m = 22 roots lies within 1e-13 of the m = 31 root."""
    res, _ = golden32
    assert abs(res.parameter - (-1.144208397941167 - 0.9644541484142908j)) < 1e-12
    for k in range(27, 32):
        assert 2.905 <= res.report["delta"][k] <= 2.920
    limit22 = hl.tune_asymmetric(3, 2, "golden", "preset", m=22).report["c_limit"]
    assert abs(limit22 - res.parameter) < 1e-13


def test_escaped_extrapolated_seed_falls_back_to_last_root(monkeypatch):
    """An extrapolated seed whose orbit escapes is replaced by the last root,
    and its one evaluation still shows in the ledger."""
    real = hl.rotation._extrapolated_seed
    hopeless = []

    def escaping(roots):
        guess = real(roots)
        if guess is None:
            return None
        hopeless.append(10.0 + 10.0j)
        return hopeless[-1]

    monkeypatch.setattr(hl.rotation, "_extrapolated_seed", escaping)
    seen = _count_residual_iterates(monkeypatch)
    res = hl.tune_asymmetric(3, 2, GOLDEN, "preset", m=20)
    assert hopeless and not any(e["extrapolated"] for e in res.report["ladder"])
    assert sum(e["iterates"] for e in res.report["ladder"]) == sum(seen)
    assert abs(res.parameter - LADDER_M20[(3, 2)]) < 1e-12
    assert res.report["verify"]["all"]


def test_extrapolated_seed_guard():
    """The seed continues a two-parity geometric ladder exactly, and a ladder
    whose step ratios wander (as a seed far from the root gives) is not
    extrapolated."""
    def ladder(ratios, c0=1.0 + 1.0j, d0=1e-3 + 2e-3j):
        roots, d = [c0], d0
        for r in ratios:
            roots.append(roots[-1] + d)
            d *= r
        return roots, roots[-1] + d

    a, b = -1 / (2.8666 + 0.5154j), -1 / (2.8666 - 0.5154j)
    roots, nxt = ladder([a, b, a, b, a])
    assert hl.rotation._extrapolated_seed(roots[:-1]) == pytest.approx(roots[-1], abs=1e-15)
    assert hl.rotation._extrapolated_seed(roots) == pytest.approx(nxt, abs=1e-15)
    assert hl.rotation._extrapolated_seed(roots[:4]) is None
    roots, _ = ladder([-1 / 34, -1 / 53, -1 / 37, -1 / 27, -1 / 21])
    assert hl.rotation._extrapolated_seed(roots) is None
