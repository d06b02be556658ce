"""Basin classification grids, box-counting dimension, porosity, rendering.

The sphere splits into the basin of 0, the basin of infinity, and the
rest; for the tuned families the Julia set (which contains the Herman
curve) is approximated from outside by the UNDECIDED label.  The module
also houses the generic box-counting dimension estimator used on traced
curves and the porosity/deep-point profile built on an exact Euclidean
distance transform.
"""

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

BASIN0, BASIN_INF, UNDECIDED = 0, 1, 2

GRID_MAGIC = b"HLGRID1"
_R0, _RINF = 1e-6, 1e6  # classify's escape radii at 0 and infinity
BOX_MIN_POINTS = 10 ** 4  # the fewest points box_dimension accepts
MAXITER_MAX = 2 ** 32 - 1  # the largest maxiter: escape counts are uint32


@dataclass
class GridClassification:
    window: tuple               # (x0, y0, x1, y1)
    labels: np.ndarray          # uint8 (h, w)
    escape_iters: np.ndarray    # uint32 (h, w)
    maxiter: int
    r0: float
    rinf: float

    def pixel_of(self, z):
        x0, y0, x1, y1 = self.window
        h, w = self.labels.shape
        fx = (z.real - x0) / (x1 - x0) * w
        fy = (z.imag - y0) / (y1 - y0) * h
        # tested before flooring, so a non-finite point is outside too
        if not (0 <= fx < w and 0 <= fy < h):
            raise ValueError("point outside window")
        return math.floor(fx), math.floor(fy)

    def pixel_size(self):
        """The side of a pixel; ValueError unless the grid has pixels,
        x0 < x1, y0 < y1 and the pixels are square to rounding."""
        x0, y0, x1, y1 = self.window
        h, w = self.labels.shape
        if not (w and h):
            raise ValueError("grid of %d x %d pixels has none" % (w, h))
        if not (x0 < x1 and y0 < y1):
            raise ValueError("window %r is empty or reversed" % (self.window,))
        dx, dy = (x1 - x0) / w, (y1 - y0) / h
        if not math.isclose(dx, dy, rel_tol=1e-9):
            raise ValueError("pixels are not square: dx = %r, dy = %r" % (dx, dy))
        return dx


def classify(map_, window, resolution, maxiter=1000):
    """Classify the centers of resolution x resolution pixels by escape to
    the traps at 0 / infinity.

    Labels: BASIN0 (|orbit| < 1e-6), BASIN_INF (|orbit| > 1e6), UNDECIDED
    (still wandering at maxiter) -- an outer approximation of J(f).  A
    maxiter outside 0..MAXITER_MAX is refused with ValueError.
    """
    if not 0 <= maxiter <= MAXITER_MAX:
        raise ValueError("maxiter must be in 0..%d, not %r" % (MAXITER_MAX, maxiter))
    x0, y0, x1, y1 = window
    dx, dy = (x1 - x0) / resolution, (y1 - y0) / resolution
    labels, iters = _kernels.classify_kernel(
        map_.num, map_.den, float(x0), float(y0), dx, dy, resolution, resolution,
        int(maxiter), _R0, _RINF)
    return GridClassification(window=(x0, y0, x1, y1), labels=labels,
                              escape_iters=iters, maxiter=maxiter, r0=_R0, rinf=_RINF)


# ---------------------------------------------------------------------------
# box-counting dimension
# ---------------------------------------------------------------------------

@dataclass
class DimensionReport:
    scales: list                # dyadic epsilon values
    counts: list                # N(epsilon)
    slope: float
    slope_err: float
    point_spacing: float
    diameter: float


class InsufficientScalesError(ValueError):
    pass


def _quantile(a, q):
    """np.quantile(a, q) of a non-empty 1-D float array by numpy's "linear"
    arithmetic: at v = (n - 1) q, the sorted values s[i], s[i + 1] with
    i = floor(v) (both s[-1] at the top) are interpolated from the nearer
    one; nan if a value is nan.  np.quantile itself imports numpy.ma."""
    s = np.sort(a)
    if s[-1] != s[-1]:  # nan sorts last
        return float(s[-1])
    v = (len(s) - 1) * q
    i = j = -1
    if v < len(s) - 1:
        i = math.floor(v)
        j = i + 1
    t = v - i
    lo, hi = float(s[i]), float(s[j])
    diff = hi - lo
    return hi - diff * (1 - t) if t >= 0.5 else lo + diff * t


def _adjacent_spacing(points):
    """Resolution floor of an ordered sample: a high quantile of adjacent gaps.

    The invariant measure on a Herman curve is singular, so the max gap
    is dominated by a few starved arcs; the 95th-percentile gap is the
    scale below which box counts are systematically starved.
    """
    gaps = np.abs(np.diff(points))
    wrap = abs(points[0] - points[-1])
    gaps = np.append(gaps, wrap)
    return _quantile(gaps, 0.95)


def _unique(k):
    """np.unique(k) of a 1-D integer array: the first value of each run of
    the sorted array.  np.unique itself imports numpy.ma."""
    s = np.sort(k)
    first = np.empty(len(s), dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


def _dyadic_counts(points, levels, origin, diam, connect):
    """Occupied-box counts at dyadic scales eps = diam / 2^level.

    With connect=True, consecutive points are joined and every box the
    polyline passes through is counted (supercover), which removes the
    sampling-measure bias; points must then be in curve order.
    """
    x = points.real
    y = points.imag
    x0, y0 = origin
    out = []
    x2 = np.roll(x, -1)
    y2 = np.roll(y, -1)
    for lev in levels:
        eps = diam / 2 ** lev
        if connect:
            step = 0.25 * eps
            L = np.hypot(x2 - x, y2 - y)
            m = np.maximum(1, np.ceil(L / step)).astype(np.int64)
            keys = []
            seg_chunk = 400000
            n = len(x)
            for s0 in range(0, n, seg_chunk):
                s1 = min(n, s0 + seg_chunk)
                mm = m[s0:s1]
                reps = np.repeat(np.arange(s0, s1), mm)
                cc = np.cumsum(mm)
                offs = (np.arange(cc[-1]) - np.repeat(cc - mm, mm)).astype(np.float64)
                u = offs / mm[reps - s0]
                xs = x[reps] + u * (x2 - x)[reps]
                ys = y[reps] + u * (y2 - y)[reps]
                k = (np.floor((xs - x0) / eps).astype(np.int64) * (2 ** lev + 7)
                     + np.floor((ys - y0) / eps).astype(np.int64))
                keys.append(_unique(k))
            count = len(_unique(np.concatenate(keys)))
        else:
            k = (np.floor((x - x0) / eps).astype(np.int64) * (2 ** lev + 7)
                 + np.floor((y - y0) / eps).astype(np.int64))
            count = len(_unique(k))
        out.append((eps, count))
    return out


def box_dimension(points, eps_range=None, connect=False):
    """Box-counting dimension of a point set by least squares over dyadic scales.

    The scale range spans the dyadic levels, at least 4 of them, inside
    [8 * point-spacing, diameter / 8] (point-spacing: 95th-percentile
    adjacent gap of the ordered samples), with a fixed grid origin at the
    lower-left corner of the bounding box.  connect=True counts boxes
    crossed by the closed polyline through the ordered samples instead of
    sample points only.
    """
    points = np.asarray(points, dtype=np.complex128)
    if len(points) < BOX_MIN_POINTS:
        raise ValueError("need at least %d points (have %d)" % (BOX_MIN_POINTS, len(points)))
    x = points.real
    y = points.imag
    origin = (float(x.min()) - 1e-12, float(y.min()) - 1e-12)
    diam = max(float(x.max()) - origin[0], float(y.max()) - origin[1])
    spacing = _adjacent_spacing(points)
    if eps_range is None:
        # with connected counting the polyline interpolates through the
        # sampling gaps, so the floor can sit below the spacing scale
        lo_eps = (4.0 if connect else 8.0) * spacing
        hi_eps = diam / 16.0
    else:
        lo_eps, hi_eps = min(eps_range), max(eps_range)
    levels = [lev for lev in range(1, 40)
              if lo_eps <= diam / 2 ** lev <= hi_eps]
    if len(levels) < 4:
        raise InsufficientScalesError(
            "only %d usable dyadic scales in [%.3g, %.3g]" % (len(levels), lo_eps, hi_eps))
    counts = _dyadic_counts(points, levels, origin, diam, connect)
    le = np.log([c[0] for c in counts])
    lN = np.log([c[1] for c in counts])
    A = np.vstack([-le, np.ones(len(le))]).T
    sol, _, _, _ = np.linalg.lstsq(A, lN, rcond=None)
    resid = lN - A @ sol
    dof = len(le) - 2
    s2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov = s2 * np.linalg.pinv(A.T @ A)
    return DimensionReport(
        scales=[c[0] for c in counts], counts=[c[1] for c in counts],
        slope=float(sol[0]), slope_err=float(math.sqrt(abs(cov[0, 0]))),
        point_spacing=spacing, diameter=diam)


# ---------------------------------------------------------------------------
# porosity / deep points
# ---------------------------------------------------------------------------

@dataclass
class PorosityProfile:
    center: complex
    radii: list
    ratios: list                # largest hole radius / r
    delta: float | None         # fitted exponent of log(ratio) vs log(r)
    skipped: list = field(default_factory=list)


def porosity_profile(grid, center, radii):
    """Largest Fatou-disk-to-radius ratios around a point of the Julia set.

    For each radius r, finds the largest disk inside D(center, r)
    containing no UNDECIDED pixel, via an exact Euclidean distance
    transform; at a deep point the ratios decay as r -> 0.  Without an
    UNDECIDED pixel the whole disk is a hole and the ratio is 1.  Distances
    are measured in pixels, so a grid whose window is empty or reversed, or
    whose pixels are not square, raises ValueError (see pixel_size).
    """
    center = complex(center)
    px = grid.pixel_size()
    cx, cy = grid.pixel_of(center)
    h, w = grid.labels.shape
    # The transform runs on the box of half-width half around the centre
    # pixel.  It holds every pixel p within the largest radius R, and an
    # UNDECIDED pixel outside it lies more than R + 1 from the centre, so
    # more than r + 1 - |p - c| from p: min(dist, r - |p - c|) below is the
    # same as on the whole grid.
    rmax = max((r / px for r in radii if r / px >= 8), default=0.0)
    half = int(min(rmax, h + w)) + 1
    y0, y1 = max(cy - half, 0), min(cy + half + 1, h)
    x0, x1 = max(cx - half, 0), min(cx + half + 1, w)
    # distance (in pixels) from each pixel to the nearest UNDECIDED pixel
    dist = _kernels.distance_transform(grid.labels[y0:y1, x0:x1] != UNDECIDED)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    rad_to_center = np.hypot(xx - cx, yy - cy)
    ratios = []
    used = []
    skipped = []
    for r in sorted(radii, reverse=True):
        rpix = r / px
        if rpix < 8:
            skipped.append(r)
            continue
        inside = rad_to_center <= rpix
        if not inside.any():
            skipped.append(r)
            continue
        hole = np.minimum(dist[inside], rpix - rad_to_center[inside])
        best = float(hole.max())
        ratios.append(max(0.0, best) / rpix)
        used.append(r)
    delta = None
    pos = [(r, q) for r, q in zip(used, ratios) if q > 0]
    if len(pos) >= 3:
        lr = np.log([p[0] for p in pos])
        lq = np.log([p[1] for p in pos])
        delta = float(np.polyfit(lr, lq, 1)[0])
    prof = PorosityProfile(center=center, radii=used, ratios=ratios,
                           delta=delta, skipped=skipped)
    return prof


# ---------------------------------------------------------------------------
# I/O: grid binary format and PPM rendering
# ---------------------------------------------------------------------------

def save_grid(grid, path):
    """Binary format: magic, window doubles, u32 w/h, u8 labels, u32 iters."""
    h, w = grid.labels.shape
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<4d", *grid.window))
        fh.write(struct.pack("<2I", w, h))
        fh.write(struct.pack("<Idd", grid.maxiter, grid.r0, grid.rinf))
        fh.write(grid.labels.astype("<u1").tobytes())
        fh.write(grid.escape_iters.astype("<u4").tobytes())


def load_grid(path):
    """A grid written by save_grid; ValueError if the file is not one."""
    with open(path, "rb") as fh:
        def read(n):
            data = fh.read(n)
            if len(data) != n:
                raise ValueError("truncated grid file")
            return data

        if fh.read(len(GRID_MAGIC)) != GRID_MAGIC:
            raise ValueError("not a grid file (bad magic)")
        window = struct.unpack("<4d", read(32))
        w, h = struct.unpack("<2I", read(8))
        maxiter, r0, rinf = struct.unpack("<Idd", read(20))
        # 5 bytes a pixel (a u8 label, a u32 count), checked before a read allocates them
        if 5 * w * h > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError("truncated grid file")
        labels = np.frombuffer(read(w * h), dtype="<u1").reshape(h, w).copy()
        iters = np.frombuffer(read(4 * w * h), dtype="<u4").reshape(h, w).copy()
    return GridClassification(window=window, labels=labels, escape_iters=iters,
                              maxiter=maxiter, r0=r0, rinf=rinf)


# palette per the figure convention: basin of 0 shaded, basin of infinity
# light, Julia approximation dark; the curve overlay red
_PALETTE = {
    BASIN0: (64, 78, 130),
    BASIN_INF: (235, 235, 225),
    UNDECIDED: (20, 20, 20),
}
_CURVE_RGB = (220, 30, 30)


def _colours(labels, counts):
    """The uint8 RGB colour of each pixel of the labels and escape counts
    (arrays of one shape): the palette colour, shaded by the count in the
    two basins, and black for a label without one."""
    img = np.zeros(labels.shape + (3,), dtype=np.uint8)
    for lab, rgb in _PALETTE.items():
        img[labels == lab] = rgb
    shade = 0.55 + 0.45 * np.cos(0.35 * counts.astype(np.float64))
    for lab in (BASIN0, BASIN_INF):
        m = labels == lab
        img[m] = np.clip(img[m] * shade[m][:, None], 0, 255).astype(np.uint8)
    return img


def render(grid, path, curve_overlay=None):
    """Write a deterministic 8-bit P6 PPM image of the classification.

    Basins are shaded by escape iteration count; the traced curve is
    overlaid in red.
    """
    h, w = grid.labels.shape
    n = int(grid.escape_iters.max(initial=0)) + 1
    if 4 * n <= grid.labels.size:
        # a table of each (label, count) pair's colour, no larger than the
        # image; labels 3 and up share row 3, which no palette colour has
        table = _colours(*np.broadcast_arrays(*np.ogrid[:4, :n]))
        img = table[np.minimum(grid.labels, 3), grid.escape_iters]
    else:
        img = _colours(grid.labels, grid.escape_iters)

    if curve_overlay is not None:
        pts = np.asarray(curve_overlay)
        x0, y0, x1, y1 = grid.window
        xs = np.floor((pts.real - x0) / (x1 - x0) * w).astype(np.int64)
        ys = np.floor((pts.imag - y0) / (y1 - y0) * h).astype(np.int64)
        ok = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
        img[ys[ok], xs[ok]] = _CURVE_RGB

    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        # PPM rows run top to bottom; our rows run bottom (y0) to top
        fh.write(img[::-1].tobytes())
    return path
