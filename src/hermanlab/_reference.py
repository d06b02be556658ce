"""The pure python/numpy references of the kernels in ``_kernels``: each
public kernel there runs its reference here when the C library is absent,
and the curve CSV codec also on what its C code refuses.  The tests hold
the C translations to them bit for bit.  ``_kernels`` imports this module
only then, so a chain run on the library never loads it.
"""

import math
import re

import numpy as np

from ._kernels import _horner, _starts_at_top


def _orbit_samples(num, den, z0, ks, r0, rinf):
    """Reference of orbit_samples."""
    out = np.empty(len(ks), dtype=np.complex128)
    z = z0
    j = 0
    kmax = ks[-1]
    for k in range(1, kmax + 1):
        z = _horner(num, z) / _horner(den, z)
        a = abs(z)
        if a < r0 or a > rinf:
            for i in range(j, len(ks)):
                out[i] = complex(np.nan, np.nan)
            return out, j
        while j < len(ks) and k == ks[j]:
            out[j] = z
            j += 1
    return out, j


def _tune_residual(num0, den, c, qm, r0, rinf):
    """Reference of tune_residual."""
    dnum, dden = ([j * a[j] for j in range(1, len(a))] for a in (num0, den))
    z = 1.0 + 0.0j
    w = 0.0 + 0.0j
    for _ in range(qm):
        nv = _horner(num0, z)
        dv = _horner(den, z)
        ndv = _horner(dnum, z)
        ddv = _horner(dden, z)
        dfdz = c * (ndv * dv - nv * ddv) / (dv * dv)
        w = dfdz * w + nv / dv
        z = c * nv / dv
        a = abs(z)
        if a < r0 or a > rinf:
            return complex(np.nan, np.nan), w
    return z - 1.0, w


def _blaschke_advance(den, alpha, slope, x, n):
    """Reference of blaschke_advance.  The ``+ 0.0`` on each imaginary part
    is the one a real coefficient adds as (c, 0.0) in complex arithmetic:
    it turns the -0.0 of top * sin(0) for top < 0 into 0.0, without which
    atan2 would give -pi for pi at u = 0."""
    top, c0, *more = memoryview(den).cast("d")
    cos, sin, atan2, pi, twopi = math.cos, math.sin, math.atan2, math.pi, 2 * math.pi
    for _ in range(n):
        u = x % 1.0
        y = twopi * u
        zr, zi = cos(y), sin(y)
        re, im = top * zr + c0, top * zi + 0.0
        for c in more:
            re, im = re * zr - im * zi + c, re * zi + im * zr + 0.0
        x = x + (alpha + slope * u - atan2(im, re) / pi) % 1.0
    return x


def _horner_arrays(coeffs, re, im):
    """Horner on float64 real and imaginary arrays, one ufunc per real
    operation in the order of ``horner`` in _kernels.c, from the top where
    _starts_at_top says."""
    if _starts_at_top(coeffs):
        ar, ai = np.full_like(re, coeffs[-1].real), np.full_like(re, coeffs[-1].imag)
        coeffs = coeffs[:-1]
    else:
        ar, ai = np.zeros_like(re), np.zeros_like(re)
    for c in reversed(coeffs):
        ar, ai = ar * re - ai * im + c.real, ar * im + ai * re + c.imag
    return ar, ai


def _cdiv_arrays(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) elementwise in the operations of ``cdiv``
    in _kernels.c (Smith's formula), its branch taken by a select, as the C
    classifier's vector loop takes it.  A zero divisor gives NaN where cdiv
    gives inf or NaN."""
    small = ~(np.abs(br) >= np.abs(bi))   # |br| < |bi| or NaN, as cdiv branches
    p, q = np.where(small, bi, br), np.where(small, br, bi)
    rat = q / p
    scl = 1.0 / (p + q * rat)
    ar_rat, ai_rat = ar * rat, ai * rat
    return (np.where(small, ar_rat + ai, ar + ai_rat) * scl,
            np.where(small, ai_rat - ar, ai - ar_rat) * scl)


# pixels per block of _classify's arithmetic, which bounds each of the
# temporary arrays of a block's Horner loops and quotient to _BLOCK values
_BLOCK = 8192


def _classify(num, den, x0, y0, dx, dy, w, h, maxiter, r0, rinf):
    """Reference of classify_kernel: every undecided pixel at once, on float64
    real and imaginary arrays, in blocks of _BLOCK pixels.  Separate
    multiply and add ufuncs cannot fuse, unlike numpy's complex array
    arithmetic, so this rounds as _kernels.c does on every host."""
    re = np.tile(x0 + (np.arange(w) + 0.5) * dx, h)
    im = np.repeat(y0 + (np.arange(h) + 0.5) * dy, w)
    labels = np.full(w * h, 2, dtype=np.uint8)
    iters = np.full(w * h, maxiter, dtype=np.uint32)
    active = np.arange(w * h)
    r02, rinf2 = r0 * r0, rinf * rinf
    # overflow and 0/0 are expected: a non-finite iterate becomes 2 rinf
    with np.errstate(all="ignore"):
        for k in range(maxiter):
            m2 = re * re + im * im
            inner = m2 < r02
            outer = m2 > rinf2
            done = inner | outer
            if done.any():
                labels[active[inner]] = 0
                labels[active[outer]] = 1
                iters[active[done]] = k
                keep = ~done
                active, re, im = active[keep], re[keep], im[keep]
            if active.size == 0:
                break
            del m2, inner, outer, done   # freed before the blocks' temporaries
            # each block's quotient reads and then overwrites only its own pixels
            for a in range(0, active.size, _BLOCK):
                b = slice(a, a + _BLOCK)
                nr, ni = _horner_arrays(num, re[b], im[b])
                dr, di = _horner_arrays(den, re[b], im[b])
                re[b], im[b] = _cdiv_arrays(nr, ni, dr, di)
            bad = ~(np.isfinite(re) & np.isfinite(im))
            re[bad] = 2.0 * rinf
            im[bad] = 0.0
    return labels.reshape(h, w), iters.reshape(h, w)


def _arc_ratios(pts, ii, jj):
    """Reference of arc_ratios."""
    m = len(pts)
    out = np.zeros(len(ii))
    for p, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
        chord = np.hypot(pts[i].real - pts[j].real, pts[i].imag - pts[j].imag)
        if chord == 0:
            continue
        lo, hi = min(i, j), max(i, j)
        if hi - lo <= m - (hi - lo):
            arc = pts[lo:hi + 1]
        else:
            arc = np.concatenate([pts[hi:], pts[:lo + 1]])
        if len(arc) > 512:
            arc = arc[:: len(arc) // 512]
        out[p] = _arc_diameter(arc) / chord
    return out


def _arc_diameter(arc):
    """Largest distance from a point of arc to its 8 lowest and 8 highest
    points on each axis (ties by position, as a stable sort orders them):
    between max(x-range, y-range) and the true diameter.

    Squared distances are summed in a frame scaled by the power of two
    2^k that brings the larger axis range into [0.5, 1), k clamped to
    [-1022, 1023], so that no squared distance of a narrow or wide arc
    underflows or overflows; one square root of the largest is scaled
    back, as ``arc_diameter`` in _kernels.c does.
    """
    x, y = arc.real, arc.imag
    ox, oy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    cand = arc[np.concatenate([ox[:8], ox[-8:], oy[:8], oy[-8:]])]
    _, e = math.frexp(max(x[ox[-1]] - x[ox[0]], y[oy[-1]] - y[oy[0]]))
    scale = math.ldexp(1.0, min(max(-e, -1022), 1023))
    sx = (x[:, None] - cand.real[None, :]) * scale
    sy = (y[:, None] - cand.imag[None, :]) * scale
    return float(np.sqrt(np.max(sx * sx + sy * sy))) / scale


# "no false pixel" in _distance_transform's integer squared distances
_FAR = 1 << 62


def _distance_transform(mask):
    """Reference of distance_transform: the squared distance to the nearest
    false pixel of each column, then of each row (_parabola_min)."""
    d2 = _parabola_min(_parabola_min(np.where(mask, _FAR, 0), 0), 1)
    out = np.sqrt(d2.astype(np.float64))
    out[d2 >= _FAR] = np.inf
    return out


def _parabola_min(f, axis):
    """min over integer offsets d of d*d + f[i + d] along axis, for int64 f
    >= 0; offsets stop once d*d reaches the largest minimum so far, which
    no larger offset can lower."""
    f = np.moveaxis(np.asarray(f, dtype=np.int64), axis, 0)
    out = f.copy()
    d = 1
    while d < len(f) and d * d < out.max(initial=0):
        np.minimum(out[d:], f[:-d] + d * d, out=out[d:])
        np.minimum(out[:-d], f[d:] + d * d, out=out[:-d])
        d += 1
    return np.moveaxis(out, 0, axis)


def _curve_csv_rows(cols, lo, hi):
    """Reference of curve_csv_rows: rows lo..hi-1 of the columns (ks,
    angles, re, im) as bytes, each as "%d,%r,%r,%r\\n" prints it."""
    rows = zip(*(a[lo:hi].tolist() for a in cols))
    return "".join("%d,%r,%r,%r\n" % row for row in rows).encode()


# a curve CSV row: k's sign and significant digits, three floats or repr's inf and nan
_FLOAT = rb"(-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|-?inf|nan)"
_CSV_ROW = re.compile(rb"(-?)0*([0-9]{1,19})," + b",".join([_FLOAT] * 3) + rb"\n")


def _curve_csv_parse(data, start):
    """Reference of curve_csv_parse: each row by python's int and float,
    which round correctly, as the C reader does."""
    ks, xs, pos = [], [], start
    while pos < len(data):
        m = _CSV_ROW.match(data, pos)
        k, *x = (int(m[1] + m[2]), *map(float, m.group(3, 4, 5))) if m else (None,)
        formed = m is not None and -2 ** 63 <= k < 2 ** 63
        if not (formed and all(map(math.isfinite, x))):
            line = data[pos:].split(b"\n", 1)[0].decode(errors="backslashreplace")
            raise ValueError(data.count(b"\n", 0, pos) + 1, line, formed)
        ks.append(k)
        xs.append(x)
        pos = m.end()
    cols = np.array(xs, dtype=np.float64).reshape(-1, 3).T.copy()
    return np.array(ks, dtype=np.int64), *cols
