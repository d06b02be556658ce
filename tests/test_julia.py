"""Box dimension, pixel classification, porosity, and grid/image IO."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermanlab as hl
from hermanlab import _kernels
from hermanlab.julia import (BASIN0, BASIN_INF, UNDECIDED, GridClassification,
                             InsufficientScalesError, _colours, _quantile, _unique,
                             box_dimension, classify, load_grid, porosity_profile,
                             render, save_grid)

B_FIG = complex(-1.144208, -0.964454)


def koch_curve(iterations):
    """Vertices of the Koch curve on [0, 1]: 4^k segments, dim log4/log3."""
    pts = np.array([0.0 + 0.0j, 1.0 + 0.0j])
    rot = cmath.exp(1j * math.pi / 3)
    for _ in range(iterations):
        a = pts[:-1]
        d = (pts[1:] - a) / 3.0
        pts = np.column_stack([a, a + d, a + d + d * rot, a + 2 * d]).ravel()
        pts = np.append(pts, 1.0 + 0.0j)
    return pts


# --- box dimension on known sets ------------------------------------------

def test_dimension_of_circle():
    t = np.linspace(0.0, 1.0, 20001, endpoint=False)
    pts = np.exp(2j * np.pi * t)
    rep = box_dimension(pts)
    assert rep.slope == pytest.approx(1.0, abs=0.02)


def test_dimension_of_segment():
    pts = np.linspace(0.0, 1.0, 30000) + 0.3j
    rep = box_dimension(pts)
    # +1 boundary box at every scale biases the slope slightly low
    assert rep.slope == pytest.approx(1.0, abs=0.02)


def test_dimension_of_koch_curve():
    pts = koch_curve(9)           # 262145 vertices
    # skip the two coarsest dyadic levels: the triadic lacunarity of the
    # curve leaves a visible additive oscillation there
    rep = box_dimension(pts, connect=True,
                        eps_range=(2.0 ** -12 * 0.999, 2.0 ** -6 * 1.001))
    assert rep.slope == pytest.approx(math.log(4) / math.log(3), abs=0.03)


def test_dimension_connect_supercover_fills_gaps():
    # sparse circle samples: pointwise counting is starved at fine scales,
    # connected counting follows the polyline and still reads dim 1
    t = np.sort(np.random.default_rng(7).random(12000))
    pts = np.exp(2j * np.pi * t)
    rep = box_dimension(pts, connect=True)
    assert rep.slope == pytest.approx(1.0, abs=0.03)


def test_dimension_requires_points_and_scales():
    with pytest.raises(ValueError):
        box_dimension(np.exp(2j * np.pi * np.linspace(0, 1, 500)))
    pts = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 20001)[:-1])
    with pytest.raises(InsufficientScalesError):
        box_dimension(pts, eps_range=(0.1, 0.11))


# --- classification --------------------------------------------------------

@pytest.fixture(scope="module")
def grid32(golden32):
    _, m = golden32
    return classify(m, (-2.0, -2.0, 2.0, 2.0), 256, maxiter=300)


def test_classify_labels_and_traps(grid32, golden32):
    _, m = golden32
    assert set(np.unique(grid32.labels)) <= {BASIN0, BASIN_INF, UNDECIDED}
    # all three classes occur in the standard window
    for lab in (BASIN0, BASIN_INF, UNDECIDED):
        assert (grid32.labels == lab).any()
    # a pixel labelled BASIN0 really converges to 0 under the map
    iy, ix = np.argwhere(grid32.labels == BASIN0)[0]
    x0, y0, x1, y1 = grid32.window
    h, w = grid32.labels.shape
    z = complex(x0 + (ix + 0.5) / w * (x1 - x0), y0 + (iy + 0.5) / h * (y1 - y0))
    for _ in range(grid32.maxiter):
        z = m.eval(z)
        if abs(z) < grid32.r0:
            break
    assert abs(z) < grid32.r0


def test_curve_pixels_are_undecided(grid32, golden32):
    _, m = golden32
    c = hl.trace(m, "golden", 14)
    hits = 0
    for z in c.points[:500]:
        ix, iy = grid32.pixel_of(complex(z))
        hits += grid32.labels[iy, ix] == UNDECIDED
    # the Herman curve lies in the Julia set, so its pixels should stay
    # undecided -- up to pixels whose *center* falls off the thin curve
    # into a basin at this resolution
    assert hits >= 440


def test_pixel_of_outside_window_raises(grid32):
    with pytest.raises(ValueError):
        grid32.pixel_of(5.0 + 0.0j)


def edge_grid(n=40):
    """An n x n all-BASIN0 grid on [-2, 2]^2."""
    return GridClassification((-2.0, -2.0, 2.0, 2.0), np.full((n, n), BASIN0, np.uint8),
                              np.zeros((n, n), np.uint32), 1, 1e-6, 1e6)


def test_pixel_of_refuses_points_past_every_edge():
    """A point half a pixel past any edge of the window is outside it, the
    left and lower edges too (truncation toward zero used to put a point up
    to one pixel left of or below the window in pixel 0); the window's own
    corner points are in its corner pixels."""
    grid = edge_grid()
    assert grid.pixel_of(-2.0 - 2.0j) == (0, 0)
    assert grid.pixel_of(-1.95 + 1.95j) == (0, 39)
    assert grid.pixel_of(1.95 - 1.95j) == (39, 0)
    for z in (-2.05 + 0.0j, 2.05 + 0.0j, 0.0 - 2.05j, 0.0 + 2.05j, complex(-2.0, 2.0),
              complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0)):
        with pytest.raises(ValueError, match="outside window"):
            grid.pixel_of(z)


def test_render_overlay_skips_points_past_every_edge(tmp_path):
    """Overlay points half a pixel past an edge colour no pixel; points
    half a pixel inside colour the edge pixels."""
    grid = edge_grid(8)
    blank = tmp_path / "blank.ppm"
    render(grid, blank)
    outside = tmp_path / "out.ppm"
    render(grid, outside, curve_overlay=np.array([-2.25 + 0.0j, 2.25 + 0.0j, 0.0 - 2.25j,
                                                  0.0 + 2.25j]))
    assert outside.read_bytes() == blank.read_bytes()
    inside = tmp_path / "in.ppm"
    render(grid, inside, curve_overlay=np.array([-1.75 - 1.75j, 1.75 + 1.75j]))
    head = len(b"P6\n8 8\n255\n")
    img = np.frombuffer(inside.read_bytes()[head:], np.uint8).reshape(8, 8, 3)[::-1]
    base = np.frombuffer(blank.read_bytes()[head:], np.uint8).reshape(8, 8, 3)[::-1]
    changed = (img != base).any(axis=2)
    assert changed[0, 0] and changed[7, 7] and changed.sum() == 2


# --- porosity on a synthetic grid ------------------------------------------

def synthetic_grid():
    """512^2 on [-1, 1]^2, everything UNDECIDED except a round Fatou disk of
    radius 20 pixels whose centre is 60 pixels right of the grid's centre."""
    h = w = 512
    labels = np.full((h, w), UNDECIDED, np.uint8)
    yy, xx = np.mgrid[0:h, 0:w]
    labels[np.hypot(xx - (256 + 60.0), yy - 256) <= 20.0] = BASIN0
    return GridClassification(window=(-1.0, -1.0, 1.0, 1.0), labels=labels,
                              escape_iters=np.zeros((h, w), np.uint32),
                              maxiter=1, r0=1e-6, rinf=1e6)


def test_porosity_synthetic_oracle():
    # probed at the grid's centre: ratio(r) = a / r exactly
    grid = synthetic_grid()
    a, d = 20.0, 60.0
    px = grid.pixel_size()
    prof = porosity_profile(grid, 0j, [200 * px, 120 * px, 100 * px, 2 * px])
    assert prof.skipped == [2 * px]
    for r, q in zip(prof.radii, prof.ratios):
        rpix = r / px
        assert q == pytest.approx(min(a, rpix - d) / rpix, abs=2.0 / rpix)


def full_grid_ratios(grid, center, radii):
    """porosity_profile's ratios from a distance transform of the whole grid."""
    px = grid.pixel_size()
    cx, cy = grid.pixel_of(complex(center))
    h, w = grid.labels.shape
    dist = _kernels.distance_transform(grid.labels != UNDECIDED)
    yy, xx = np.mgrid[0:h, 0:w]
    rad = np.hypot(xx - cx, yy - cy)
    ratios = []
    for r in sorted(radii, reverse=True):
        rpix = r / px
        if rpix >= 8:
            inside = rad <= rpix
            hole = np.minimum(dist[inside], rpix - rad[inside])
            ratios.append(max(0.0, float(hole.max())) / rpix)
    return ratios


def test_porosity_crop_equals_full_grid_synthetic():
    """At the centre, near the Fatou disk and near a corner, where the box
    is cut by the grid's edge."""
    grid = synthetic_grid()
    px = grid.pixel_size()
    radii = [300 * px, 200 * px, 120 * px, 100 * px, 30 * px, 9 * px, 2 * px]
    for center in (0j, 0.23 + 0.01j, -0.97 + 0.95j):
        prof = porosity_profile(grid, center, radii)
        assert prof.ratios == full_grid_ratios(grid, center, radii)


def test_porosity_crop_equals_full_grid_criterion10(grid32_criterion10):
    radii = [0.8, 0.4, 0.2, 0.1]
    prof = porosity_profile(grid32_criterion10, 1.0 + 0.0j, radii)
    assert prof.ratios == full_grid_ratios(grid32_criterion10, 1.0 + 0.0j, radii)
    assert [round(q, 4) for q in prof.ratios] == [0.1057, 0.0313, 0.0195, 0.0]


def test_porosity_without_undecided_pixels_is_one():
    """No UNDECIDED pixel: every disk is a hole and every ratio is 1."""
    grid = synthetic_grid()
    grid.labels[:] = BASIN_INF
    px = grid.pixel_size()
    prof = porosity_profile(grid, 0j, [200 * px, 50 * px])
    assert prof.ratios == [1.0, 1.0]


# --- IO ---------------------------------------------------------------------

def test_grid_roundtrip(tmp_path, grid32):
    p = tmp_path / "g.bin"
    save_grid(grid32, p)
    g2 = load_grid(p)
    assert g2.window == grid32.window
    assert np.array_equal(g2.labels, grid32.labels)
    assert np.array_equal(g2.escape_iters, grid32.escape_iters)
    assert (g2.maxiter, g2.r0, g2.rinf) == (grid32.maxiter, grid32.r0, grid32.rinf)


def test_load_grid_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOTAGRID" + b"\0" * 64)
    with pytest.raises(ValueError):
        load_grid(p)


def test_render_is_deterministic(tmp_path, grid32, golden32):
    _, m = golden32
    c = hl.trace(m, "golden", 12)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    render(grid32, p1, curve_overlay=c.points)
    render(grid32, p2, curve_overlay=c.points)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    hgt, w = grid32.labels.shape
    assert b1.startswith(b"P6\n%d %d\n255\n" % (w, hgt))
    assert len(b1) == len(b"P6\n%d %d\n255\n" % (w, hgt)) + 3 * w * hgt


def test_render_table_equals_per_pixel_shading(tmp_path):
    """The image render writes from its (label, count) colour table equals
    the colours computed pixel by pixel, for labels outside the palette
    (black) too, and so does a grid whose counts are too many for the
    table."""
    rng = np.random.default_rng(9)
    for shape, top in (((40, 30), 60), ((3, 2), 10 ** 6)):
        labels = rng.integers(0, 6, shape).astype(np.uint8)
        iters = rng.integers(0, top + 1, shape).astype(np.uint32)
        grid = GridClassification((-1.0, -1.0, 1.0, 1.0), labels, iters, top, 1e-6, 1e6)
        path = tmp_path / "g.ppm"
        render(grid, str(path))
        h, w = shape
        want = b"P6\n%d %d\n255\n" % (w, h) + _colours(labels, iters)[::-1].tobytes()
        assert path.read_bytes() == want
        assert (_colours(labels, iters)[labels > UNDECIDED] == 0).all()


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30),
       st.one_of(st.just(0.95), st.floats(min_value=0.0, max_value=1.0)))
@settings(max_examples=300, deadline=None)
def test_quantile_matches_numpy(xs, q):
    """_quantile is np.quantile's "linear" method, bit for bit (zeros of
    either sign compare equal), through both ends of its interpolation and
    with nan and infinities."""
    a = np.array(xs)
    with np.errstate(all="ignore"):
        want = float(np.quantile(a, q))
    got = _quantile(a, q)
    assert got == want or (math.isnan(got) and math.isnan(want))


@given(st.lists(st.integers(min_value=-2**62, max_value=2**62), max_size=40))
@settings(max_examples=200, deadline=None)
def test_unique_matches_numpy(ks):
    k = np.array(ks, dtype=np.int64)
    got = _unique(k)
    assert got.dtype == np.int64 and np.array_equal(got, np.unique(k))


def test_geometry_leaves_numpy_ma_out():
    """critical_angle and box_dimension sort and index instead of calling
    np.median, np.quantile and np.unique, each of which imports numpy.ma."""
    code = ("import sys, numpy as np, hermanlab as hl\n"
            "c = hl.tune_asymmetric(3, 2, 'golden', 'preset', m=20).parameter\n"
            "curve = hl.trace(hl.herman_family(3, 2, c), 'golden', 20)\n"
            "hl.critical_angle(curve)\n"
            "hl.box_dimension(np.exp(2j * np.pi * np.arange(20000) / 20000))\n"
            "hl.box_dimension(curve.points, connect=True)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
