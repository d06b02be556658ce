"""Hot numerical kernels: the orbit loops behind tuning, tracing and
rendering, and the geometry loops behind the curve and porosity measures.

The orbit kernels operate on rational maps given as ascending complex
coefficient vectors (numerator, denominator).  ``orbit`` is
``orbit_samples`` at every iterate.  Each kernel has one pure
python/numpy reference, its name with a leading underscore, in
``_reference``, which is imported only when a kernel runs without the
library, or the curve CSV codec meets what its C code refuses.

``orbit_samples``, ``tune_residual`` and ``classify_kernel`` take any
coefficient array or list as contiguous complex128 (``_complex``) and run
a C translation of their reference (``_kernels.c``) whenever the library
is loaded.  The C code spells out numpy's complex128 scalar arithmetic in
real operations, in the reference's order, so its results are
bit-identical.  Every Horner loop, C and reference, starts from the top
coefficient, which the first step from 0 gives back exactly on a
finite z, unless a part of it is -0.0 (``_starts_at_top``).  The orbit
loops trap an iterate whose modulus |z| (hypot, as the references'
``abs``) leaves (r0, rinf); the C loops call hypot only for the iterates
whose re*re + im*im lies within a relative 2^-20 of r0^2 or rinf^2, and
for every iterate when r0^2 or rinf^2 is not a normal number, so they
trap exactly where the references do.  ``_classify`` works on float64
real and imaginary arrays, one ufunc per real operation, because numpy's
complex *array* multiply and modulus may round differently from the
scalar formulas (fused multiply-adds, SIMD ``abs``); its labels compare
|z|^2 = re*re + im*im with r0^2 and rinf^2, so they are the same on every
host.

``blaschke_advance`` (the closed-form steps of a Blaschke member's circle
lift) runs its C translation whenever the library is loaded: the same
IEEE operations in the same order, cos, sin and atan2 from the libm that
python's math module calls, and python's float modulo spelled out (its
fmod remainder taken exactly as x - trunc(x)), so it returns the
reference's float bit for bit.

``arc_ratios`` (the bounded-turning constant's arc diameters over
chords) and ``distance_transform`` (the exact Euclidean distance
transform behind porosity) run C translations too.  An arc diameter is
the square root of the largest squared distance, the squares summed in a
frame scaled by a power of two, which no narrow arc underflows and no
SIMD code rounds differently.  The distance transform works in integer
squared distances and takes one correctly rounded square root of each.
An arc of more than 32 points first drops each point that lies, by the
triangle inequality and a margin far above rounding, nearer than the
candidates' own largest distance to every candidate; the maximum keeps
its value.

``curve_csv_rows`` and ``curve_csv_parse`` are the curve CSV row codec.
Their references in ``_reference`` are the python writer ("%d,%r,%r,%r"
per row) and a strict python reader of the writer's grammar, by ``int``
and ``float``.  The C writer prints each float as ``repr`` does: Ryu's
rounding interval, scaled to a power of ten in exact 128-bit integers,
its shortest decimals and of those the nearest, ties to even.  It takes
+-0 and |x| in [2^-16, 2^61), where that arithmetic fits; a row with any
other float, and every row without ``__int128``, goes to the python
writer, in runs.  The C reader checks the grammar and reads each value in
one pass per line: a k within int64, and each float as its significand w
of up to 19 significant digits times 10^q, converted by the Eisel-Lemire
algorithm (w times a 128-bit truncated power of five from a table for q
in [-64, 64]).  w = 0 gives +-0.0.  strtod parses a token alone where the
algorithm cannot settle it exactly: more than 19 significant digits, q
outside the table, a product whose low word is all ones outside q in
[-27, 55], a result below the normal range or past DBL_MAX, and every
token without ``__int128``.  Both round correctly, as ``float`` does.  A
text outside the grammar, or with a non-finite value, goes to the python
reader, which names the first bad line.  Without the library both
references run alone.

The C classifier iterates one pixel per lane of a vector of doubles,
each lane taking the next pixel of its thread's rows when its own is
labelled.  Each thread keeps 4 vectors of L lanes in flight, interleaved
in one loop body: an iterate is one dependent chain of Horner steps and
two divisions, and the other vectors' independent chains fill its
latency.  ``lanes`` and ``_WIDTHS`` count lanes per vector.
``arc_ratios`` takes each arc's largest squared distance over one arc
point per lane.  Each loop body is built at every width of the C
source's ``WIDTHS`` list: 2 lanes for any target and, on x86, 4 lanes with
AVX2 and 8 with AVX-512F through per-function target attributes;
``simd_lanes()`` asks the CPU at run time, and both kernels run the widest
width it has (``_WIDTHS``).  The library is built without ``-march``, so
one cached build serves every CPU of the machine type.  Lanes round each operation as scalar code
does, with no fused multiply-add in any target.  Classifier lanes perform
Smith's quotient in the reference's order (a per-lane select on
|br| >= |bi| picks the branch), and a maximum of exactly rounded squares
does not depend on the order it is taken in, so every width gives the
reference's arrays bit for bit.

The C classifier splits the pixel rows, and ``arc_ratios`` the vertex
pairs, over one thread per CPU in the calling thread's affinity mask, each
pinned to its CPU and claiming items from one counter per call (``_split``),
so a faster CPU takes more; ctypes releases the GIL during each call, and
the results do not depend on the split.

The library is compiled with the system C compiler ``cc`` on first
import and cached in ``$XDG_CACHE_HOME/hermanlab/`` (default
``~/.cache/hermanlab/``) under a hash of the source, the flags, the
machine type and the compiler: the resolved path of ``cc`` with its size
and modification time, so that switching ``cc`` (say, from gcc to clang)
builds anew.  Without a compiler, or if the build fails, the
``hermanlab`` logger records one warning and every kernel runs its
reference; a cached library that cannot be loaded is rebuilt once.
Otherwise it records one debug line: the classifier's vectors and lanes
("4 vectors of L lanes") and whether the library was built or found in
the cache.  ``BACKEND`` names
the outcome: ``"c"`` or ``"numpy"``.
"""

import ctypes
import hashlib
import logging
import math
import os
import platform
import shutil
import threading

import numpy as np

_log = logging.getLogger("hermanlab")

# the traps (r0, rinf) of tuning, tracing and log-lift orbits: an orbit that
# reaches |z| < 1e-8 or |z| > 1e8 has left every annulus around the curve
TRAPS = (1e-8, 1e8)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# no -ffast-math and no -march: the C code must round exactly like numpy
_CFLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]


def _cache_dir():
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "hermanlab")


def _build(path):
    """Compile _kernels.c into path, via a temporary name in the same directory
    so that a concurrent build never exposes a half-written library."""
    # imported here: a cache hit needs neither
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler 'cc' on PATH")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=os.path.dirname(path))
    os.close(fd)
    try:
        res = subprocess.run([cc, *_CFLAGS, "-o", tmp, _SOURCE, "-lm"],
                             capture_output=True, text=True)
        if res.returncode != 0:
            raise OSError("%s exited %d: %s" % (cc, res.returncode, res.stderr.strip()))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    """The compiled kernels, built if not cached; None after one warning if
    they cannot be built or loaded."""
    try:
        with open(_SOURCE, "rb") as fh:
            key = hashlib.sha256(fh.read())
        key.update(" ".join(_CFLAGS + [platform.machine()]).encode())
        cc = shutil.which("cc")
        if cc is not None:
            # the compiler, named without running it
            cc = os.path.realpath(cc)
            st = os.stat(cc)
            key.update(("%s %d %d" % (cc, st.st_size, st.st_mtime_ns)).encode())
        path = os.path.join(_cache_dir(), "_kernels-%s.so" % key.hexdigest()[:16])
        lib, how = None, "cache hit"
        if os.path.exists(path):
            try:
                lib = ctypes.CDLL(path)
            except OSError as e:
                _log.warning("rebuilding the cached C kernels, which fail to load: %s", e)
        if lib is None:
            _build(path)
            lib, how = ctypes.CDLL(path), "built"
    except OSError as e:
        _log.warning("C kernels unavailable, using the python reference kernels: %s", e)
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.orbit_samples.argtypes = [ptr, i64, ptr, i64, f64, f64, ptr, i64, f64, f64, ptr]
    lib.orbit_samples.restype = i64
    lib.tune_residual.argtypes = [ptr, i64, ptr, i64, f64, f64, i64, f64, f64, ptr]
    lib.tune_residual.restype = ctypes.c_int
    lib.blaschke_advance.argtypes = [ptr, i64, f64, f64, f64, i64]
    lib.blaschke_advance.restype = f64
    lib.classify_rows.argtypes = [ptr, i64, ptr, i64, f64, f64, f64, f64, i64, i64, i64,
                                  f64, f64, i64, ptr, ptr, ptr]
    lib.classify_rows.restype = None
    lib.simd_lanes.argtypes = []
    lib.simd_lanes.restype = i64
    lib.arc_ratios.argtypes = [ptr, i64, ptr, ptr, i64, i64, ptr, ptr]
    lib.arc_ratios.restype = None
    lib.distance_transform.argtypes = [ptr, i64, i64, ptr, ptr, ptr]
    lib.distance_transform.restype = None
    lib.curve_csv_rows.argtypes = [ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr]
    lib.curve_csv_rows.restype = i64
    lib.curve_csv_parse.argtypes = [ctypes.c_char_p, i64, i64, i64, ptr, ptr]
    lib.curve_csv_parse.restype = i64
    _log.debug("kernel backend c (classifier 4 vectors of %d lanes): %s %s", lib.simd_lanes(),
               how, path)
    return lib


_lib = _load()
BACKEND = "numpy" if _lib is None else "c"
# the lane counts of the vector kernels that this CPU runs, widest last
_WIDTHS = () if _lib is None else tuple(n for n in (2, 4, 8) if n <= _lib.simd_lanes())


def _complex(*coeffs):
    """Each coefficient array or list as a contiguous complex128 array."""
    return [np.ascontiguousarray(a, dtype=np.complex128) for a in coeffs]


def orbit(num, den, z0, n, r0, rinf):
    """orbit_samples at ks = 1..n (n >= 1): (orbit, n_ok), where n_ok counts
    the iterates before the orbit fell into one of the traps |z| < r0 or
    |z| > rinf, and the entries from the trapped one on are NaN."""
    return orbit_samples(num, den, z0, np.arange(1, n + 1, dtype=np.int64), r0, rinf)


def orbit_samples(num, den, z0, ks, r0, rinf):
    """Iterate z -> N(z)/D(z), sampling the iterates listed in ks (sorted,
    each >= 1).

    Samples after a trap are NaN.  Returns (samples, number of samples
    taken).
    """
    num, den = _complex(num, den)
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    if not len(ks):
        raise IndexError("no sample indices")
    if _lib is None:
        from . import _reference
        return _reference._orbit_samples(num, den, z0, ks, r0, rinf)
    out = np.empty(len(ks), dtype=np.complex128)
    z0 = complex(z0)
    n_ok = _lib.orbit_samples(num.ctypes.data, len(num), den.ctypes.data, len(den),
                              z0.real, z0.imag, ks.ctypes.data, len(ks), r0, rinf,
                              out.ctypes.data)
    return out, n_ok


def tune_residual(num0, den, c, qm, r0, rinf):
    """Residual G_m(c) = f_c^{q_m}(1) - 1 and dG/dc for the family f_c = c*N0/D.

    The parameter multiplies the map, so df/dc = f/c and the derivative
    propagates along the orbit as w_{k+1} = f'(z_k) w_k + (N0/D)(z_k).
    The residual is NaN if the orbit falls into a trap.  The C kernel
    forms the derivative coefficients itself and takes the coefficients as
    bytes and its output as a ctypes buffer, which pass as pointers for a
    fraction of the cost of ``.ctypes``: the ladder makes many short calls.
    """
    num0, den = _complex(num0, den)
    if _lib is None:
        from . import _reference
        return _reference._tune_residual(num0, den, c, qm, r0, rinf)
    num0, den = num0.tobytes(), den.tobytes()
    buf = (ctypes.c_double * (4 + (len(num0) + len(den)) // 8))()
    c = complex(c)
    trapped = _lib.tune_residual(num0, len(num0) // 16, den, len(den) // 16, c.real, c.imag,
                                 int(qm), r0, rinf, buf)
    out = np.frombuffer(buf, np.complex128, 2)
    if trapped:
        return complex(np.nan, np.nan), out[1]
    return out[0], out[1]


def blaschke_advance(den, alpha, slope, x, n):
    """F^n(x) for the closed-form lift of a Blaschke member
    (``rotation._BlaschkeLift``): n steps

        x -> x + (alpha + slope u - atan2(im, re) / pi) % 1.0,

    with u = x % 1.0 and re + i im = D(e^{2 pi i u}) by Horner on D's real
    coefficients, where den holds them as the bytes of float64 values,
    highest degree first, at least two.  The C kernel makes the
    reference's IEEE operations in its order, python's float modulo
    included, so it returns the same float bit for bit.
    """
    if len(den) < 16 or len(den) % 8:
        raise ValueError("den must hold two or more float64 coefficients, not %d bytes"
                         % len(den))
    if _lib is None:
        from . import _reference
        return _reference._blaschke_advance(den, alpha, slope, x, n)
    return _lib.blaschke_advance(den, len(den) // 8, alpha, slope, x, n)


def _starts_at_top(coeffs):
    """Whether Horner's loop over the ascending coeffs starts from the top
    coefficient, as ``horner_start`` in _kernels.c says: on a finite z the
    first step from 0, (0*re - 0*im) + top.real and (0*im + 0*re) +
    top.imag, gives exactly the top unless a part of it is -0.0."""
    if not len(coeffs):
        return False
    re, im = coeffs[-1].real, coeffs[-1].imag
    # x or copysign(1, x) > 0: x is not -0.0 (NaN is true)
    return bool((re or math.copysign(1.0, re) > 0) and (im or math.copysign(1.0, im) > 0))


def _horner(coeffs, z):
    acc = 0.0 + 0.0j
    rest = reversed(coeffs)
    if _starts_at_top(coeffs):
        acc = next(rest)
    for c in rest:
        acc = acc * z + c
    return acc


def classify_kernel(num, den, x0, y0, dx, dy, w, h, maxiter, r0, rinf):
    """Escape-time labels (0 inner, 1 outer, 2 undecided) and iteration counts.

    Pixel (ix, iy) of the w x h grid starts at its centre
    (x0 + (ix + 0.5) dx, y0 + (iy + 0.5) dy).  It is labelled at the first
    iterate k with |z|^2 < r0^2 or |z|^2 > rinf^2, which it counts, else it
    stays undecided with count maxiter; a non-finite iterate (at a pole)
    becomes 2 rinf.  The C loop splits the rows over one pinned thread
    per CPU the calling thread may run on (``_split``), at the widest lane
    count the CPU has; the arrays depend on neither.
    """
    num, den = _complex(num, den)
    if _lib is None:
        from . import _reference
        return _reference._classify(num, den, x0, y0, dx, dy, w, h, maxiter, r0, rinf)
    return _classify_c(num, den, x0, y0, dx, dy, w, h, maxiter, r0, rinf, _cpus())


def _cpus():
    """The number of CPUs in the calling thread's own affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(fn, head, tail, n, workers):
    """Run k = min(workers, n), at least 1, shards fn(*head, next, *tail)
    that claim the n items from one counter next: one shard on the calling
    thread, else each on a thread of its own (ctypes releases the GIL), shard
    i pinned where the platform can to CPU i mod len(cpus) of the caller's
    sorted mask cpus, which stays as it is; a shard's exception is raised."""
    args = (*head, ctypes.byref(ctypes.c_int64(0)), *tail)
    k = max(1, min(workers, n))
    if k == 1:
        return fn(*args)
    pin, errors = getattr(os, "sched_setaffinity", None), []
    cpus = sorted(os.sched_getaffinity(0)) if pin else []

    def shard(i):
        try:
            if pin:
                pin(0, {cpus[i % len(cpus)]})
            fn(*args)
        except Exception as e:
            errors.append(e)

    threads = [threading.Thread(target=shard, args=(i,)) for i in range(k)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _lanes(lanes):
    """lanes, one of _WIDTHS, or the widest of them for None."""
    if lanes is None:
        return _WIDTHS[-1]
    if lanes not in _WIDTHS:
        raise ValueError("this CPU runs the vector kernels at %s lanes, not %r"
                         % (_WIDTHS, lanes))
    return lanes


def _classify_c(num, den, x0, y0, dx, dy, w, h, maxiter, r0, rinf, workers, lanes=None):
    """classify_kernel in C, its rows split over workers shards (_split),
    with lanes pixels per vector (one of _WIDTHS, default the widest)."""
    lanes = _lanes(lanes)
    labels = np.empty((h, w), dtype=np.uint8)
    iters = np.empty((h, w), dtype=np.uint32)
    grid = (num.ctypes.data, len(num), den.ctypes.data, len(den), float(x0), float(y0),
            float(dx), float(dy), int(w), int(h), int(maxiter), float(r0), float(rinf), lanes)
    _split(_lib.classify_rows, grid, (labels.ctypes.data, iters.ctypes.data), h, workers)
    return labels, iters


def arc_ratios(pts, ii, jj):
    """diam(arc) / chord for each vertex pair (ii[p], jj[p]) of the closed
    polygon pts, or 0 where the chord |pts[i] - pts[j]| (hypot) is 0.

    The arc is the shorter of the two between the vertices, the inner
    pts[lo..hi] on a tie, and an arc of more than 512 points keeps every
    (len // 512)-th one.  Its diameter is estimated by _reference._arc_diameter.
    The C loop splits the pairs over one pinned thread per CPU the calling
    thread may run on (``_split``), at the widest lane count the CPU has;
    the ratios depend on neither.  A non-finite vertex is refused with
    ValueError, as no diameter of it is defined.
    """
    pts = np.ascontiguousarray(pts, dtype=np.complex128)
    ii = np.ascontiguousarray(ii, dtype=np.int64)
    jj = np.ascontiguousarray(jj, dtype=np.int64)
    if ii.shape != jj.shape or ii.ndim != 1:
        raise ValueError("ii and jj must be index vectors of one length")
    if not np.isfinite(pts).all():
        raise ValueError("arc_ratios needs finite vertices")
    if ii.size and not (min(ii.min(), jj.min()) >= 0 and max(ii.max(), jj.max()) < len(pts)):
        raise IndexError("vertex index out of range")
    if _lib is None:
        from . import _reference
        return _reference._arc_ratios(pts, ii, jj)
    return _arc_ratios_c(pts, ii, jj, _cpus())


def _arc_ratios_c(pts, ii, jj, workers, lanes=None):
    """arc_ratios in C, its pairs split over workers shards (_split), with
    lanes arc points per vector (one of _WIDTHS, default the widest)."""
    lanes = _lanes(lanes)
    out = np.empty(len(ii))
    _split(_lib.arc_ratios,
           (pts.ctypes.data, len(pts), ii.ctypes.data, jj.ctypes.data, len(ii), lanes),
           (out.ctypes.data,), len(ii), workers)
    return out


def distance_transform(mask):
    """Exact Euclidean distance from each pixel of the 2-D mask to the
    nearest pixel where the mask is false (0 there), or inf if it is true
    everywhere.

    Each distance is the correctly rounded square root of an integer
    squared distance, so it equals scipy.ndimage.distance_transform_edt's
    wherever the mask has a false pixel.
    """
    mask = np.ascontiguousarray(mask, dtype=bool)
    if _lib is None:
        from . import _reference
        return _reference._distance_transform(mask)
    h, w = mask.shape
    out = np.empty((h, w))
    scratch = np.empty((h, w), dtype=np.int64), np.empty(2 * w, dtype=np.int64)
    _lib.distance_transform(mask.ctypes.data, w, h, *(a.ctypes.data for a in scratch),
                            out.ctypes.data)
    return out


# bytes per row of curve_csv_rows' buffer, as curve_csv_rows in _kernels.c needs
_CSV_ROW_MAX = 100


def curve_csv_rows(ks, angles, re, im):
    """The curve CSV rows "k,angle,re,im\\n" of ks (int64) and three float64
    columns as bytes, each k as %d prints it and each float as repr does;
    the reference writes each run of rows with a float that C does not take
    (non-finite, or |x| outside [2^-16, 2^61) but +-0), and every row
    without the library."""
    n = len(ks)
    if not len(angles) == len(re) == len(im) == n:
        raise ValueError("ks, angles, re and im must be columns of one length")
    # TypeError for ks that int64 cannot hold, such as uint64
    ks = np.ascontiguousarray(np.asarray(ks).astype(np.int64, casting="safe"))
    cols = (ks, *(np.ascontiguousarray(a, dtype=np.float64) for a in (angles, re, im)))
    if _lib is None:
        from . import _reference
        return _reference._curve_csv_rows(cols, 0, n)
    buf = np.empty(n * _CSV_ROW_MAX, dtype=np.uint8)
    runs = np.empty((n, 3), dtype=np.int64)
    used = ctypes.c_int64()
    nruns = _lib.curve_csv_rows(*(a.ctypes.data for a in cols), n, buf.ctypes.data,
                                runs.ctypes.data, ctypes.byref(used))
    text = memoryview(buf)[:used.value]
    parts, pos = [], 0
    for lo, hi, at in runs[:nruns].tolist():
        from . import _reference
        parts += [text[pos:at], _reference._curve_csv_rows(cols, lo, hi)]
        pos = at
    parts.append(text[pos:])
    return b"".join(parts)


def curve_csv_parse(data, start):
    """(ks, angles, re, im) of the curve CSV rows in data[start:] (bytes),
    each "k,angle,re,im\\n" with k -?[0-9]+ within int64 and each float
    -?[0-9]+(\\.[0-9]+)?(e[+-][0-9]+)?, finite, as python's float reads it.
    Where C refuses the text, and without the library, the reference reads
    it and raises ValueError(n, line, non_finite) at the first bad line:
    its number (data's first line is 1), its text, and whether its fields
    have the grammar's form, or repr's inf and nan, but a non-finite value."""
    if not 0 <= start <= len(data):
        raise ValueError("start %d lies outside the %d bytes of data" % (start, len(data)))
    if _lib is not None:
        n = data.count(b"\n", start)
        ks, cols = np.empty(n, dtype=np.int64), np.empty((3, n))
        if _lib.curve_csv_parse(data, start, len(data), n, ks.ctypes.data,
                                cols.ctypes.data) == n:
            return ks, cols[0], cols[1], cols[2]
    from . import _reference
    return _reference._curve_csv_parse(data, start)
