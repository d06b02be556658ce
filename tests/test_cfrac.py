"""Continued-fraction oracles: recurrences, named values, Gauss shift, tilings."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermanlab
from hermanlab.cfrac import (BRONZE_ALT, GOLDEN, MIN_IRRATIONAL_DEPTH, SILVER,
                             ContinuedFraction, RationalInputError, resolve_theta, tiling_indices,
                             tiling_is_partition, tiling_refines)


def exact_convergents(quots):
    """Independent oracle: build p_n/q_n with Fraction arithmetic."""
    fr = []
    for n in range(1, len(quots) + 1):
        x = Fraction(0)
        for a in reversed(quots[:n]):
            x = Fraction(1, a + x)
        fr.append(x)
    return fr


def test_golden_fibonacci_denominators():
    assert GOLDEN.q[:11] == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
    assert GOLDEN.p[:11] == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55)


def test_silver_denominators():
    assert SILVER.q[:5] == (1, 2, 5, 12, 29)


@pytest.mark.parametrize("theta", [GOLDEN, SILVER, BRONZE_ALT,
                                   resolve_theta("0.41421356237309515"),
                                   ContinuedFraction([3, 1, 4, 1, 5])],
                         ids=["golden", "silver", "bronze-alt", "decimal", "finite"])
def test_convergent_table_reaches_depth_and_is_read_only(theta):
    """Each theta holds p_n and q_n for n = 0..depth, in tuples that refuse
    item assignment; lengths and curve.trace_size refuse a level outside
    0..depth."""
    assert len(theta.p) == len(theta.q) == theta.depth + 1
    with pytest.raises(TypeError):
        theta.q[1] = 2
    assert len(theta.lengths(theta.depth)) == theta.depth + 1
    for n in (-1, theta.depth + 1):
        for read in (theta.lengths, lambda n: hermanlab.curve.trace_size(theta, n)):
            with pytest.raises(ValueError, match="outside theta's usable levels"):
                read(n)


@pytest.mark.parametrize("make, msg", [
    (lambda: ContinuedFraction.from_periodic([], [0]), "partial quotients must be >= 1"),
    (lambda: ContinuedFraction.from_periodic([], [-1]), "partial quotients must be >= 1"),
    (lambda: ContinuedFraction.from_periodic([0], [1]), "partial quotients must be >= 1"),
    (lambda: ContinuedFraction([], period=[]), "period must be nonempty"),
], ids=["period-0", "period-negative", "preperiod-0", "empty-period"])
def test_every_stored_quotient_is_checked(make, msg):
    """A preperiod or period entry below 1 is refused as a finite list's is
    ([0] used to be accepted as theta = 1.0 with q = 1, 0, 1, 0, ..., and
    [-1] or a preperiod [0] with a value of 1.618, outside (0,1)), and so
    is an empty period."""
    with pytest.raises(ValueError, match=msg):
        make()


def test_named_values():
    assert GOLDEN.value_float() == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    assert SILVER.value_float() == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
    # bronze-alt satisfies x = 1/(1 + 1/(2 + x))
    x = BRONZE_ALT.value_float()
    assert x == pytest.approx(1 / (1 + 1 / (2 + x)), abs=1e-14)


def test_lengths_match_direct_formula():
    lengths = GOLDEN.lengths(12)
    with mpmath.workdps(50):
        th = (mpmath.sqrt(5) - 1) / 2
        for n in range(13):
            ln = abs(GOLDEN.p[n] - GOLDEN.q[n] * th)
            assert abs(float(ln) - float(lengths[n])) < 1e-14


@pytest.mark.parametrize("cf,root", [(GOLDEN, lambda: (mpmath.sqrt(5) - 1) / 2),
                                     (SILVER, lambda: mpmath.sqrt(2) - 1),
                                     (BRONZE_ALT, lambda: mpmath.sqrt(3) - 1)],
                         ids=["golden", "silver", "bronze-alt"])
def test_periodic_value_within_bound(cf, root):
    """value() of a periodic theta lies within 2^-250 of a 100-digit value
    of its quadratic irrational.  (bronze-alt x = 1/(1 + 1/(2 + x)) solves
    x^2 + 2x - 2 = 0.)"""
    with mpmath.workdps(100):
        th = root()
        v = cf.value()
        assert abs(mpmath.mpf(v.numerator) / v.denominator - th) < mpmath.mpf(2) ** -250


def test_deep_lengths_match_mpmath_fold():
    """Forty 9s: every l_n against a 200-digit fold of the same quotients.
    60 digits cannot resolve p_n - q_n*theta once q_n passes about 1e20."""
    quots = [9] * 40
    cf = ContinuedFraction(quots)
    lengths = cf.lengths(40)
    with mpmath.workdps(200):
        th = mpmath.mpf(0)
        for a in reversed(quots):
            th = 1 / (a + th)
        for n in range(40):
            ln = abs(cf.p[n] - cf.q[n] * th)
            assert float(lengths[n]) == float(ln)
    assert lengths[40] == 0
    assert 2e-39 < lengths[39] < 8e-39


def test_import_leaves_mpmath_out():
    """mpmath is a test dependency only: the package never imports it."""
    code = ("import sys, hermanlab\n"
            "hermanlab.GOLDEN.lengths(48)\n"
            "assert 'mpmath' not in sys.modules, 'mpmath imported'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermanlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_expand_near_rational():
    # 0.3 = [0; 3, 3] exactly; float round-off must not produce [3, 2, ...]
    cf = ContinuedFraction.from_value(0.3, 2)
    assert cf.quotients(2) == [3, 3]
    with pytest.raises(RationalInputError):
        ContinuedFraction.from_value(0.3, 8)


def test_expand_irrational_matches_known():
    cf = ContinuedFraction.from_value((math.sqrt(5) - 1) / 2, 12)
    assert cf.quotients(12) == [1] * 12
    cf = ContinuedFraction.from_value(math.sqrt(2) - 1, 10)
    assert cf.quotients(10) == [2] * 10
    cf = ContinuedFraction.from_value(math.pi - 3, 4)
    assert cf.quotients(4) == [7, 15, 1, 292]


def test_resolve_decimal_keeps_certified_quotients():
    """A decimal keeps all the quotients double precision certifies; fewer than
    MIN_IRRATIONAL_DEPTH of them make it rational."""
    silver = resolve_theta("0.41421356237309515")
    assert silver.depth == 18 and silver.quotients(18) == [2] * 18
    # the 34th quotient of this double is 1 but is snapped up to 2 from a
    # round-off remainder; it is not certified (the double has 37 ones)
    golden = resolve_theta("0.6180339887498949")
    assert golden.depth == 33 and golden.quotients(33) == [1] * 33
    with pytest.raises(RationalInputError) as e:
        resolve_theta("0.25")
    assert e.value.quotients == [4]


def test_resolve_refuses_a_short_quotient_list():
    """A quotient list of fewer than MIN_IRRATIONAL_DEPTH quotients is refused
    as a decimal that certifies fewer is ("1,2,3" used to resolve to a theta
    of depth 3); eight quotients resolve."""
    for spec in ("1,2,3", "1,1,1,1,1,1,1"):
        with pytest.raises(RationalInputError) as e:
            resolve_theta(spec)
        assert e.value.certified == [int(a) for a in spec.split(",")]
    assert resolve_theta("1,1,1,1,1,1,1,1").depth == MIN_IRRATIONAL_DEPTH


def test_resolve_refuses_a_double_equal_to_its_last_convergent():
    """A double whose exact expansion ends is rational: its last quotient is
    not certified, so 49/128 = [0; 2, 1, 1, 1, 1, 2, 1, 2] keeps 7."""
    with pytest.raises(RationalInputError) as e:
        resolve_theta(0.3828125)
    assert e.value.quotients == [2, 1, 1, 1, 1, 2, 1, 2]
    assert e.value.certified == [2, 1, 1, 1, 1, 2, 1]


@given(st.integers(min_value=4, max_value=40).flatmap(
    lambda k: st.tuples(st.integers(min_value=1, max_value=2 ** k - 1), st.just(k))))
@settings(max_examples=300, deadline=None)
def test_resolved_dyadic_is_not_its_last_convergent(mk):
    m, k = mk
    try:
        cf = resolve_theta(m / 2 ** k)
    except RationalInputError:
        return
    assert cf.lengths(cf.depth)[-1] > 0


def exact_quotients(x, n):
    """Independent oracle: the first n quotients of the exact rational value of x."""
    out, x = [], Fraction(x)
    while x and len(out) < n:
        x = 1 / x
        out.append(math.floor(x))
        x -= out[-1]
    return out


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_resolve_decimal_keeps_only_exact_quotients(x):
    try:
        kept = resolve_theta(repr(x))
    except RationalInputError as e:
        kept = ContinuedFraction(e.certified)
    assert kept.quotients(kept.depth) == exact_quotients(x, kept.depth)


small_quotients = st.integers(min_value=1, max_value=5)


@given(st.lists(small_quotients, max_size=3), st.lists(small_quotients, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_periodic_theta_decimal_keeps_a_prefix(preperiod, period):
    """The decimal of an eventually periodic theta resolves to a prefix of its
    quotients, with the same convergents.  (Every such theta with quotients
    up to 5 resolves; larger ones can end the double's expansion early.)"""
    theta = ContinuedFraction.from_periodic(preperiod, period)
    kept = resolve_theta(repr(theta.value_float()))
    n = kept.depth
    assert kept.quotients(n) == theta.quotients(n)
    assert (kept.p, kept.q) == (theta.p[:n + 1], theta.q[:n + 1])


@pytest.mark.parametrize("cf", [GOLDEN, SILVER], ids=["golden", "silver"])
def test_tiling_partition_and_refinement(cf):
    for n in range(2, 17):
        assert tiling_is_partition(cf, n)
        assert tiling_refines(cf, n)


@pytest.mark.parametrize("cf", [GOLDEN, SILVER], ids=["golden", "silver"])
@pytest.mark.parametrize("n", [4, 5])
def test_tiling_refines_refuses_a_tile_across_a_coarser_vertex(cf, n, monkeypatch):
    """The two tiles of P_{n+1} that meet at vertex 0, merged into one, cross
    vertex 0 of P_n, so no tile of P_n holds the merged tile."""
    q = cf.q
    real = hermanlab.cfrac.tiling_indices

    def merged(cf, level):
        ks, intervals = real(cf, level)
        if level == n + 1:
            intervals[0] = (q[n + 2], q[n + 1])  # (q_{n+2}, 0) then (0, q_{n+1})
        return ks, intervals

    assert tiling_refines(cf, n)
    monkeypatch.setattr(hermanlab.cfrac, "tiling_indices", merged)
    assert not tiling_refines(cf, n)


@pytest.mark.parametrize("cf", [GOLDEN, SILVER], ids=["golden", "silver"])
def test_tiling_indices_and_vertex_order_match_their_definitions(cf):
    """tiling_indices' arrays hold the pairs of its docstring, and the order
    from the packed sort keys is the stable argsort of the positions."""
    n = 9
    q = cf.q
    ks, intervals = tiling_indices(cf, n)
    assert ks == range(q[n] + q[n + 1])
    assert intervals.tolist() == ([[i, q[n] + i] for i in range(q[n + 1])]
                                  + [[q[n + 1] + j, j] for j in range(q[n])])
    pos, order, _ = hermanlab.cfrac._vertices(cf, n)
    assert order.tolist() == np.argsort(pos, kind="stable").tolist()


def test_tiling_interval_count():
    _, intervals = tiling_indices(GOLDEN, 5)
    assert len(intervals) == GOLDEN.q[5] + GOLDEN.q[6]


quotient = st.integers(min_value=1, max_value=12)


@given(st.one_of(
    st.lists(quotient, min_size=2, max_size=12).map(ContinuedFraction),
    st.builds(ContinuedFraction.from_periodic, st.lists(quotient, max_size=3),
              st.lists(quotient, min_size=1, max_size=4))))
@settings(max_examples=100, deadline=None)
def test_convergent_recurrence_vs_fractions(cf):
    """The table p, q to depth, of a finite or eventually periodic theta,
    against a Fraction fold of its quotients."""
    oracle = exact_convergents(cf.quotients(cf.depth))
    assert (cf.p[0], cf.q[0]) == (0, 1)
    for n in range(1, cf.depth + 1):
        assert Fraction(cf.p[n], cf.q[n]) == oracle[n - 1]
        # determinant identity p_n q_{n-1} - p_{n-1} q_n = (-1)^{n-1}
        det = cf.p[n] * cf.q[n - 1] - cf.p[n - 1] * cf.q[n]
        assert det == (-1) ** (n - 1)


@given(st.one_of(st.lists(quotient, min_size=1, max_size=60).map(ContinuedFraction),
                 st.sampled_from([GOLDEN, SILVER, BRONZE_ALT])), st.data())
@settings(max_examples=200, deadline=None)
def test_level_is_the_deepest_q_n_at_most_q(cf, data):
    """level(q) agrees with a scan of the whole table, for q from -1 to past
    q_depth: at each q_n and either side of it, and at drawn q."""
    qs = {-1, 0, 10 * cf.q[-1]} | {qn + d for qn in cf.q for d in (-1, 0, 1)}
    qs.update(data.draw(st.lists(st.integers(-1, cf.q[-1] + 2), max_size=20)))
    for q in qs:
        assert cf.level(q) == max((n for n, qn in enumerate(cf.q) if qn <= q), default=-1)
