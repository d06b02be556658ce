"""Commuting pairs (pre-renormalizations) and scaling diagnostics."""

import cmath
import math

import pytest

import hermanlab as hl
from hermanlab.cfrac import GOLDEN
from hermanlab.curve import OrbitEscapeError
from hermanlab.renorm import (closest_return_displacements, commuting_pair,
                              scaling_ratios, self_similarity)


def test_commuting_pair_endpoints_are_closest_returns(golden32):
    _, m = golden32
    lift = hl.log_lift(m, "golden")
    for n in (3, 5, 8):
        p = commuting_pair(m, "golden", n, lift=lift)
        # f_-(0) = c_{q_n} and f_+(0) = c_{q_{n-1}}, on opposite sides of 0
        assert p.endpoint_minus == p.f_minus(0j)
        assert p.endpoint_plus == p.f_plus(0j)
        assert p.endpoint_minus.real * p.endpoint_plus.real < 0
        assert abs(p.endpoint_minus) < abs(p.endpoint_plus)


def test_log_lift_power_matches_eval_loop(golden32):
    """power's plane orbit is bit-equal to a RationalMap.eval loop: the result
    is the oracle's principal log branch plus an integer, exactly."""
    _, m = golden32
    lift = hl.log_lift(m, "golden")
    lift.ensure_table(100)
    x7 = complex(lift._table[7])
    for z in (0j, x7, x7 + 0.002 + 0.001j):
        for q, p in ((1, 1), (2, 1), (3, 2), (8, 5), (13, 8)):
            w = cmath.exp(2j * math.pi * z)
            for _ in range(q):
                w = m.eval(w)
            base = cmath.log(w) / (2j * math.pi)
            res = lift.power(z, q, p)
            assert res == base + round(res.real - base.real)


def test_log_lift_power_escape(golden32):
    """Points far inside or outside the curve fall into a trap."""
    _, m = golden32
    lift = hl.log_lift(m, "golden")
    for z in (0.3 + 5j, 0.3 - 5j):
        with pytest.raises(OrbitEscapeError):
            lift.power(z, 1, 0)


def test_commuting_pair_builds_its_own_lift(golden32):
    """Without a lift, commuting_pair builds one (README's example), the
    pair a given lift builds."""
    _, m = golden32
    pair = commuting_pair(m, "golden", 8)
    assert pair.height() == 1
    assert pair.commutation_residual() < 1e-9 * abs(pair.endpoint_minus)
    given = commuting_pair(m, "golden", 8, lift=hl.log_lift(m, "golden"))
    assert (pair.endpoint_minus, pair.endpoint_plus) == (given.endpoint_minus,
                                                         given.endpoint_plus)


def test_chi_golden_all_one(golden32):
    _, m = golden32
    lift = hl.log_lift(m, "golden")
    for n in range(2, 11):
        assert commuting_pair(m, "golden", n, lift=lift).height() == 1


def test_commutation_residual_small(golden32):
    _, m = golden32
    lift = hl.log_lift(m, "golden")
    for n in range(2, 13):
        p = commuting_pair(m, "golden", n, lift=lift)
        assert p.commutation_residual() < 1e-9 * abs(p.endpoint_minus)


def test_product_identity_and_telescoping(golden32):
    _, m = golden32
    rep = scaling_ratios(m, "golden", 18)
    for n in sorted(rep.ratios):
        if n in rep.s and n + 1 in rep.s:
            lhs = rep.ratios[n]
            rhs = rep.s[n] * rep.s[n + 1]
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_closest_returns_match_trace(golden32, trace32_deep):
    _, m = golden32
    cq = closest_return_displacements(m, "golden", 14)
    tcq = trace32_deep.closest_returns(upto=14)
    for n in range(1, 15):
        assert cq[n] == pytest.approx(tcq[n], rel=1e-9)


def test_self_similarity_factor(golden32):
    _, m = golden32
    rep = self_similarity(m, "golden", N=18)
    assert abs(rep.mu) == pytest.approx(0.662, abs=0.01)
    assert abs(rep.mu.imag) < 0.01


def test_self_similarity_steps_by_thetas_period():
    """theta = [1, 1, 2]^inf repeats every 3 levels, so its ratios step by
    s = 6 levels.  Stepped by 2 they cycle through three values and their
    acceleration reads |mu| 0.570 and 0.461 at N = 12 and 14, mu_err 0.143
    and 0.113; stepped by 6 they converge."""
    theta = hl.ContinuedFraction.from_periodic([], [1, 1, 2])
    m = hl.herman_family(2, 2, hl.tune_blaschke(2, theta, tol=1e-15, qcap=200000).parameter)
    assert scaling_ratios(m, theta, 12).period == 6
    a, b = (self_similarity(m, theta, N=N) for N in (12, 14))
    assert a.mu_err < 0.02 and b.mu_err < 0.02
    assert abs(abs(a.mu) - abs(b.mu)) < a.mu_err + b.mu_err


@pytest.mark.parametrize("theta", ["golden", "silver", "bronze-alt", "1,2,3,4,5,6,7,8",
                                   "0.41421356237309515"])
def test_scaling_ratio_step_is_two(theta):
    """A period of length 1 or 2 steps by 2, and so does a theta without one
    (a quotient list, a decimal)."""
    assert scaling_ratios(hl.arnold_lift(0.6), theta, 3).period == 2


def test_convergence_report_degenerate_on_identical_maps(golden32):
    _, m = golden32
    slope, r2, pairs = hl.convergence_report(m, m, "golden", 12)
    assert slope == float("-inf")
    assert pairs == []


def test_scaling_ratios_chart_invariance(blaschke22_golden, arnold_golden):
    """s_n limits are chart-independent: the circle map and its lift agree."""
    _, m = blaschke22_golden
    lift = hl.circle_lift(m)
    rp = scaling_ratios(m, "golden", 12)          # plane chart at z=1
    rl = scaling_ratios(lift, "golden", 12, )     # real lift chart
    # |s_n| sequences converge to the same scaling constants
    for n in (9, 10, 11):
        assert abs(rp.s[n]) == pytest.approx(abs(complex(rl.s[n])), rel=0.2)


def test_symmetric_constants_match_the_literature():
    """The (2,2) golden map is a cubic critical circle map, whose universal
    constants are delta = -2.8336106559 and alpha = -1.2885745539 (Shenker,
    Physica D 5 (1982) 405; Feigenbaum, Kadanoff & Shenker, Physica D 5
    (1982) 370).  A preset ladder to m = 25 reads |delta| at levels 19..25 as
    2.8336089..2.8336116, within 5e-6, and |s_n| at n = 13..16 as 0.775808,
    0.775842, 0.776032 and 0.775772, within 5e-4 of 1/|alpha| = 0.7760513."""
    res = hl.tune_asymmetric(2, 2, "golden", "preset", m=25)
    for k in range(19, 26):
        assert abs(res.report["delta"][k] - 2.8336106559) < 5e-6, k
    s = scaling_ratios(hl.herman_family(2, 2, res.parameter), "golden", 16).s
    for n in range(13, 17):
        assert abs(abs(s[n]) - 0.7760513) < 5e-4, n


def test_asymmetric_delta_published():
    """The (3,2) golden parameter scaling |delta| that README publishes,
    2.912583 +- 7e-6: the preset ladder to m = 26 reads 2.9125813..2.9125895
    at levels 19..26 (no literature value exists for (3,2))."""
    res = hl.tune_asymmetric(3, 2, "golden", "preset", m=26)
    for k in range(19, 27):
        assert abs(res.report["delta"][k] - 2.912583) < 7e-6, k


def test_closest_returns_check_precision():
    """On a rational map the closest returns are read off its complex128
    critical orbit, and an orbit that escapes raises OrbitEscapeError; on a
    circle-map lift they are real."""
    m = hl.herman_family(3, 2, -1.144208 - 0.964454j)
    cq = closest_return_displacements(m, "golden", 5)
    q = GOLDEN.q
    orbit = [m.eval(1.0)]
    while len(orbit) < q[5]:
        orbit.append(m.eval(orbit[-1]))
    assert cq == {n: complex(orbit[q[n] - 1]) - 1.0 for n in range(1, 6)}
    with pytest.raises(OrbitEscapeError):
        closest_return_displacements(hl.herman_family(3, 2, -0.5 + 0.5j), "golden", 14)
    assert all(c.imag == 0.0 for c in
               closest_return_displacements(hl.arnold_lift(0.6), "golden", 5).values())
