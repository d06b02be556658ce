"""Curve tracing and sample-based geometry estimators."""

import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermanlab as hl
from hermanlab.cfrac import GOLDEN
from hermanlab import curve as curve_mod
from hermanlab._reference import _arc_diameter
from hermanlab.curve import OrbitEscapeError, _aitken, _median


def test_trace_vertex_dynamics_check(golden32):
    _, m = golden32
    c = hl.trace(m, "golden", 14)   # the spot check exercises f(v_k) = v_{k+1}
    assert len(c) == GOLDEN.q[14]
    assert c.winding_number(0.0) == 1


def test_trace_rejects_untuned_map():
    m = hl.herman_family(3, 2, -0.5 + 0.5j)
    with pytest.raises(OrbitEscapeError):
        hl.trace(m, "golden", 14)


def test_trace_refuses_depths_past_the_vertex_cap(monkeypatch):
    """trace refuses a depth whose q_n exceeds MAX_VERTICES before it
    iterates or allocates the orbit."""
    def never(*args):
        raise AssertionError("iterated")

    monkeypatch.setattr(curve_mod, "_critical_orbit", never)
    m = hl.herman_family(3, 2, -0.5 + 0.5j)
    with pytest.raises(ValueError, match="q_33 = 5702887 vertices, more than the 4194304"):
        hl.trace(m, "golden", 33)


def test_trace_vertex_check_evaluates_as_eval(golden32):
    """The spot check's array quotient agrees with RationalMap.eval, the
    scalar reference it replaced, to 1e-13 relative on every vertex of a
    trace (a few ulps per Horner step of the degree-5 quotient)."""
    _, m = golden32
    z = hl.trace(m, "golden", 14).points
    want = np.array([m.eval(v) for v in z])
    assert np.all(np.abs(curve_mod._images(m, z) - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("moved", [100, 101])
def test_trace_vertex_check_names_the_first_failing_vertex(golden32, monkeypatch, moved):
    """An orbit whose vertex 100 or 101 is moved by 1e-6 fails the spot check
    at k = 100, the sampled vertex (every second one of q_14 = 610) whose
    image or successor moved; without the move the same trace passes."""
    _, m = golden32
    orbit = curve_mod._critical_orbit

    def moved_orbit(map_, ks, z0):
        pts = orbit(map_, ks, z0)
        pts[moved - 1] += 1e-6          # pts[i] is f^(i+1)(z0)
        return pts

    hl.trace(m, "golden", 14)
    monkeypatch.setattr(curve_mod, "_critical_orbit", moved_orbit)
    with pytest.raises(OrbitEscapeError, match=r"check failed at k=100$"):
        hl.trace(m, "golden", 14)


def test_orbit_index_lookup():
    """closest_returns reads the vertex of each orbit index, wherever the
    angle order puts it: the last of a repeated index, and no return for a
    convergent q_k missing from the trace."""
    q = GOLDEN.q  # 1, 1, 2, 3, 5, 8, 13
    ks = np.array([5, 0, 3, 1, 8, 2, 3, 11], dtype=np.int64)
    pts = np.arange(len(ks)) * (1 + 1j) + 0.5
    c = hl.HermanCurve(ks=ks, angles=np.linspace(0, 1, len(ks), endpoint=False),
                       points=pts, theta=GOLDEN, critical_point=0.5 + 0j, depth=6)
    last = {int(k): i for i, k in enumerate(ks)}
    want = {k: complex(pts[last[q[k]]]) - 0.5 for k in range(1, 6)}
    assert c.closest_returns() == want and sorted(want) == [1, 2, 3, 4, 5]
    assert c.closest_returns(upto=2) == {1: want[1], 2: want[2]}
    assert c.closest_returns(upto=0) == {1: want[1]}
    c.ks = np.array([5, 0, 3, 1, 7, 2, 3, 11], dtype=np.int64)
    assert sorted(c.closest_returns()) == [1, 2, 3, 4]


def test_closest_returns_shrink_and_alternate(golden32):
    _, m = golden32
    c = hl.trace(m, "golden", 16)
    cq = c.closest_returns()
    ks = sorted(cq)
    mags = [abs(cq[k]) for k in ks]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    # alternating sides: consecutive returns approach from two sectors
    # separated by the critical angle (~2.4 rad on the narrow side)
    for a, b in zip(ks, ks[1:]):
        if a < 6:
            continue   # shallow returns have not settled into the sectors
        d = abs((np.angle(cq[a]) - np.angle(cq[b]) + math.pi) % (2 * math.pi) - math.pi)
        assert d > 1.0


def test_aitken_accelerates_geometric_series():
    # s_n = 1 + r^n -> limit 1; one Aitken pass is exact for pure geometric
    seq = [1 + 0.7 ** n for n in range(8)]
    acc = _aitken(seq)
    assert acc[-1] == pytest.approx(1.0, abs=1e-12)


def test_critical_angle_symmetric(trace22_deep):
    angle, disp = hl.critical_angle(trace22_deep)
    assert angle == pytest.approx(math.pi, abs=0.0175)


def test_critical_angle_23_golden():
    """(2,3) is (3,2) seen from infinity: its angle is pi(2*2-1)/(2+3-1) = 3pi/4,
    within criterion 4's tolerance for (3,2)."""
    res = hl.tune_asymmetric(2, 3, "golden", "preset", m=31)
    c = hl.trace(hl.herman_family(2, 3, res.parameter), "golden", 24)
    angle, _ = hl.critical_angle(c)
    assert abs(angle - 3 * math.pi / 4) < 0.0524


def test_critical_angle_needs_depth(golden32):
    _, m = golden32
    c = hl.trace(m, "golden", 8)
    with pytest.raises(ValueError):
        hl.critical_angle(c)


def test_bounded_turning_on_circle(blaschke22_golden):
    _, m = blaschke22_golden
    c = hl.trace(m, "golden", 16)
    const, pair = hl.bounded_turning(c)
    # arc diameter over chord for a round circle is at most pi/2 / sqrt(2)...
    # exact bound: diam(arc)/chord <= pi/2 for a half circle; sampled value
    # stays near 1 for short arcs and below 1.6 overall
    assert 0.9 <= const < 1.7


def splitmix64(state, n):
    """n outputs of splitmix64 from state, in python integers."""
    mask, out = 2 ** 64 - 1, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_bounded_turning_pairs_are_pinned(monkeypatch):
    """bounded_turning's 4000 pairs are splitmix64 from state 7 mapped to
    [0, m), ii then jj, whatever numpy's random streams do; the first
    indices are pinned for the chain's m = 10946.  The map needs
    1 <= m <= 2^32."""
    seen = []

    def record(pts, ii, jj):
        seen.append((ii, jj))
        return np.where(np.arange(len(ii)) == 5, 2.0, 1.0)

    monkeypatch.setattr(hl.curve._kernels, "arc_ratios", record)
    m = 10946
    const, pair = hl.bounded_turning(types.SimpleNamespace(points=np.zeros(m, complex)))
    (ii, jj), = seen
    assert ii.dtype == jj.dtype == np.int64 and ii.shape == jj.shape == (4000,)
    assert ii[:8].tolist() == [4267, 183, 9859, 6380, 4952, 2730, 5122, 3591]
    assert jj[:4].tolist() == [4118, 744, 9461, 3208]
    assert ii.tolist() + jj.tolist() == [(z >> 32) * m >> 32 for z in splitmix64(7, 8000)]
    assert (const, pair) == (2.0, (2730, int(jj[5])))
    for points in (np.zeros(0, complex), range(2 ** 32 + 1)):
        with pytest.raises(ValueError, match="2.32 vertices"):
            hl.bounded_turning(types.SimpleNamespace(points=points))


def test_geometry_leaves_numpy_random_unimported(tmp_path):
    """A trace and a geometry run import no numpy.random: the pairs need
    none, and its import cost about 10 ms of the chain."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    csv, out = str(tmp_path / "c.csv"), str(tmp_path / "g.json")
    script = (
        "import sys\n"
        "from hermanlab.cli import main\n"
        "assert main(['trace', '--d0', '3', '--dinf', '2', '--param=-1.144208,-0.964454', "
        "'--depth', '12', '--out', %r]) == 0\n"
        "assert main(['geometry', '--curve', %r, '--out', %r]) == 0\n"
        "print('numpy.random' in sys.modules)\n" % (csv, csv, out))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"]

def test_beta_number_flat_for_smooth_arc(blaschke22_golden):
    _, m = blaschke22_golden
    c = hl.trace(m, "golden", 18)
    # unit-circle arc spanning a disk of radius r: sagitta (2r)^2/8, so
    # beta ~ r/4 at most; well below 1 and strictly positive (curvature)
    b = hl.beta_number(c, 1.0 + 0.0j, 0.4)
    assert 1e-3 < b < 0.15


@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                min_size=2, max_size=80))
@settings(max_examples=200, deadline=None)
def test_diameter_between_axis_range_and_pairwise_max(xy):
    pts = np.array([complex(x, y) for x, y in xy])
    d = _arc_diameter(pts)
    spread = max(np.ptp(pts.real), np.ptp(pts.imag))
    # the largest distance over all pairs, in the estimate's arithmetic:
    # squares summed in the frame scaled by 2^k with 2^k spread in [0.5, 1)
    scale = math.ldexp(1.0, min(max(-math.frexp(spread)[1], -1022), 1023))
    sx = (pts.real[:, None] - pts.real[None, :]) * scale
    sy = (pts.imag[:, None] - pts.imag[None, :]) * scale
    brute = float(np.sqrt(np.max(sx * sx + sy * sy))) / scale
    assert spread <= d <= brute


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_median_matches_numpy(xs):
    """_median is np.median bit for bit (zeros of either sign compare
    equal), at odd and even lengths and with nan and infinities."""
    a = np.array(xs)
    with np.errstate(all="ignore"):
        want = float(np.median(a))
    got = _median(a)
    assert got == want or (math.isnan(got) and math.isnan(want))
