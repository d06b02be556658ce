"""Continued-fraction oracles: recurrences, named values, Gauss shift, tilings."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermanlab.cfrac import (BRONZE_ALT, GOLDEN, SILVER, ContinuedFraction,
                             RationalInputError, cf_expand, comb_length,
                             convergents, gauss, resolve_theta, return_ordering,
                             tiling_indices, tiling_is_partition, tiling_refines)


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
    conv = convergents(GOLDEN, 10)
    assert conv.q == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert conv.p == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_silver_denominators():
    conv = convergents(SILVER, 4)
    assert conv.q == [1, 2, 5, 12, 29]


def test_named_values():
    assert GOLDEN.value_float() == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    assert SILVER.value_float() == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
    # bronze-alt satisfies x = 1/(1 + 1/(2 + x))
    x = BRONZE_ALT.value_float()
    assert x == pytest.approx(1 / (1 + 1 / (2 + x)), abs=1e-14)


def test_lengths_match_direct_formula():
    conv = convergents(GOLDEN, 12)
    th = GOLDEN.value_mp(50)
    with mpmath.workdps(50):
        for n in range(13):
            ln = abs(conv.p[n] - conv.q[n] * th)
            assert abs(float(ln) - float(conv.lengths[n])) < 1e-14


def test_expand_near_rational():
    # 0.3 = [0; 3, 3] exactly; float round-off must not produce [3, 2, ...]
    cf = cf_expand(0.3, 2)
    assert cf.quotients(2) == [3, 3]
    with pytest.raises(RationalInputError):
        cf_expand(0.3, 8)


def test_expand_irrational_matches_known():
    cf = cf_expand((math.sqrt(5) - 1) / 2, 12)
    assert cf.quotients(12) == [1] * 12
    cf = cf_expand(math.sqrt(2) - 1, 10)
    assert cf.quotients(10) == [2] * 10
    cf = cf_expand(math.pi - 3, 4)
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
        kept = ContinuedFraction.from_quotients(e.certified)
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
    a, b = convergents(kept, n), convergents(theta, n)
    assert (a.p[:n + 1], a.q[:n + 1]) == (b.p[:n + 1], b.q[:n + 1])


def test_gauss_shift_symbolic_and_float():
    assert gauss(GOLDEN).quotients(5) == [1] * 5
    g = gauss(BRONZE_ALT)
    assert g.quotients(4) == [2, 1, 2, 1]
    x = 0.37
    assert gauss(x) == pytest.approx((1 / x) % 1.0, abs=1e-15)


def test_gauss_commutes_with_expansion():
    th = GOLDEN.value_float()
    assert gauss(th) == pytest.approx(gauss(GOLDEN).value_float(), abs=1e-12)


def test_comb_length_decreasing():
    prev = None
    for n in range(1, 12):
        ln = comb_length(GOLDEN, n)
        if prev is not None:
            assert ln < prev
        prev = ln


def test_return_ordering_alternates():
    angles = return_ordering(GOLDEN, 8)
    th = GOLDEN.value_float()
    conv = convergents(GOLDEN, 8)
    for k in range(1, 9):
        signed = conv.q[k] * th - conv.p[k]
        assert (signed > 0) == (k % 2 == 0)
        assert angles[k - 1] == pytest.approx((conv.q[k] * th) % 1.0, abs=1e-9)


@pytest.mark.parametrize("cf", [GOLDEN, SILVER], ids=["golden", "silver"])
def test_tiling_partition_and_refinement(cf):
    for n in range(2, 17):
        assert tiling_is_partition(cf, n)
        assert tiling_refines(cf, n)


def test_tiling_interval_count():
    _, intervals = tiling_indices(GOLDEN, 5)
    conv = convergents(GOLDEN, 6)
    assert len(intervals) == conv.q[5] + conv.q[6]


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=12))
@settings(max_examples=100, deadline=None)
def test_convergent_recurrence_vs_fractions(quots):
    cf = ContinuedFraction.from_quotients(quots)
    conv = convergents(cf, len(quots))
    oracle = exact_convergents(quots)
    for n in range(1, len(quots) + 1):
        assert Fraction(conv.p[n], conv.q[n]) == oracle[n - 1]
        # determinant identity p_n q_{n-1} - p_{n-1} q_n = (-1)^{n-1}
        det = conv.p[n] * conv.q[n - 1] - conv.p[n - 1] * conv.q[n]
        assert det == (-1) ** (n - 1)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=10))
@settings(max_examples=60, deadline=None)
def test_shift_drops_leading_quotient(quots):
    cf = ContinuedFraction.from_quotients(quots)
    assert cf.shift().quotients(len(quots) - 1) == quots[1:]
