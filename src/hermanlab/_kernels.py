"""Hot numerical kernels: the orbit loops behind tuning, tracing and rendering.

All kernels operate on rational maps given as ascending complex
coefficient vectors (numerator, denominator).  Each kernel has one pure
python/numpy reference: the private ``_orbit_samples``,
``_tune_residual`` and ``_classify``.  ``orbit`` is ``orbit_samples`` at
every iterate.

``orbit_samples``, ``tune_residual`` and ``classify_kernel`` run a C
translation of their reference (``_kernels.c``) when their coefficients
are complex128.  The C code spells out numpy's complex128 scalar
arithmetic in real operations, in the reference's order, so its results
are bit-identical.  ``_classify`` works on float64 real and imaginary
arrays, one ufunc per real operation, because numpy's complex *array*
multiply and modulus may round differently from the scalar formulas
(fused multiply-adds, SIMD ``abs``); its labels compare
|z|^2 = re*re + im*im with r0^2 and rinf^2, so they are the same on every
host.  The C classifier splits the pixel rows over one thread per CPU in
the process's affinity mask (row i to thread i mod n); ctypes releases
the GIL during each call, and the arrays do not depend on n.

The library is compiled with the system C compiler ``cc`` on first
import and cached in ``$XDG_CACHE_HOME/hermanlab/`` (default
``~/.cache/hermanlab/``) under a hash of the source, the flags and the
machine type.  Without a compiler, or if the build fails, the
``hermanlab`` logger records one warning and every kernel runs its
reference; a cached library that cannot be loaded is rebuilt once.
``BACKEND`` names the outcome: ``"c"`` or ``"numpy"``.
"""

import ctypes
import hashlib
import logging
import os
import platform
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
    # imported here: a cache hit needs none of them
    import shutil
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
        path = os.path.join(_cache_dir(), "_kernels-%s.so" % key.hexdigest()[:16])
        lib = None
        if os.path.exists(path):
            try:
                lib = ctypes.CDLL(path)
                _log.debug("kernel backend c: cache hit %s", path)
            except OSError as e:
                _log.warning("rebuilding the cached C kernels, which fail to load: %s", e)
        if lib is None:
            _build(path)
            _log.debug("kernel backend c: built %s", path)
            lib = ctypes.CDLL(path)
    except OSError as e:
        _log.warning("C kernels unavailable, using the python reference kernels: %s", e)
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.orbit_samples.argtypes = [ptr, i64, ptr, i64, f64, f64, ptr, i64, f64, f64, ptr]
    lib.orbit_samples.restype = i64
    lib.tune_residual.argtypes = [ptr, i64, ptr, i64, ptr, ptr, f64, f64, i64, f64, f64, ptr]
    lib.tune_residual.restype = ctypes.c_int
    lib.classify_rows.argtypes = [ptr, i64, ptr, i64, f64, f64, f64, f64, i64, i64, i64,
                                  f64, f64, i64, i64, ptr, ptr]
    lib.classify_rows.restype = None
    return lib


_lib = _load()
BACKEND = "numpy" if _lib is None else "c"


def _c_arrays(*arrays):
    """Contiguous copies-if-needed of complex128 arrays for the C kernels, or
    None when the library is missing or any array is not complex128."""
    if _lib is None or any(getattr(a, "dtype", None) != np.complex128 for a in arrays):
        return None
    return [np.ascontiguousarray(a) for a in arrays]


def orbit(num, den, z0, n, r0, rinf):
    """orbit_samples at ks = 1..n (n >= 1): (orbit, n_ok), where n_ok counts
    the iterates before the orbit fell into one of the traps |z| < r0 or
    |z| > rinf, and the entries from the trapped one on are NaN."""
    return orbit_samples(num, den, z0, np.arange(1, n + 1, dtype=np.int64), r0, rinf)


def orbit_samples(num, den, z0, ks, r0, rinf):
    """Iterate z -> N(z)/D(z), sampling the iterates listed in ks (sorted,
    each >= 1).

    Iterates in the precision of the coefficient arrays (complex128 or
    clongdouble) and stores complex128 samples; samples after a trap are
    NaN.  Returns (samples, number of samples taken).
    """
    arrays = _c_arrays(num, den)
    if arrays is None:
        return _orbit_samples(num, den, z0, ks, r0, rinf)
    num, den = arrays
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    if not len(ks):
        raise IndexError("no sample indices")
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
    The residual is NaN if the orbit falls into a trap.
    """
    arrays = _c_arrays(num0, den)
    if arrays is None:
        return _tune_residual(num0, den, c, qm, r0, rinf)
    num0, den = arrays
    # the derivative coefficients j*a_j, j >= 1, formed as the reference forms them
    dnum, dden = (np.array([j * a[j] for j in range(1, len(a))], dtype=np.complex128)
                  for a in (num0, den))
    out = np.empty(2, dtype=np.complex128)
    c = complex(c)
    trapped = _lib.tune_residual(num0.ctypes.data, len(num0), den.ctypes.data, len(den),
                                 dnum.ctypes.data, dden.ctypes.data, c.real, c.imag,
                                 int(qm), r0, rinf, out.ctypes.data)
    if trapped:
        return complex(np.nan, np.nan), out[1]
    return out[0], out[1]


def _horner(coeffs, z):
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _cdiv(a, b):
    """a / b for python complex a and b != 0, rounded as numpy's complex128
    scalar division rounds it (Smith's formula, ``cdiv`` in _kernels.c).
    CPython's own complex division rounds differently."""
    br, bi = b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _orbit_samples(num, den, z0, ks, r0, rinf):
    """Reference of orbit_samples, and its only implementation for
    clongdouble coefficients."""
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
    z = 1.0 + 0.0j
    w = 0.0 + 0.0j
    for _ in range(qm):
        nv = _horner(num0, z)
        dv = _horner(den, z)
        ndv = 0.0 + 0.0j
        for j in range(len(num0) - 1, 0, -1):
            ndv = ndv * z + j * num0[j]
        ddv = 0.0 + 0.0j
        for j in range(len(den) - 1, 0, -1):
            ddv = ddv * z + j * den[j]
        dfdz = c * (ndv * dv - nv * ddv) / (dv * dv)
        w = dfdz * w + nv / dv
        z = c * nv / dv
        a = abs(z)
        if a < r0 or a > rinf:
            return complex(np.nan, np.nan), w
    return z - 1.0, w


def classify_kernel(num, den, x0, y0, dx, dy, w, h, maxiter, r0, rinf):
    """Escape-time labels (0 inner, 1 outer, 2 undecided) and iteration counts.

    Pixel (ix, iy) of the w x h grid starts at its centre
    (x0 + (ix + 0.5) dx, y0 + (iy + 0.5) dy).  It is labelled at the first
    iterate k with |z|^2 < r0^2 or |z|^2 > rinf^2, which it counts, else it
    stays undecided with count maxiter; a non-finite iterate (at a pole)
    becomes 2 rinf.  The C loop splits the rows over one thread per CPU
    this process may run on; the arrays do not depend on the split.
    """
    arrays = _c_arrays(num, den)
    if arrays is None:
        return _classify(num, den, x0, y0, dx, dy, w, h, maxiter, r0, rinf)
    return _classify_c(*arrays, x0, y0, dx, dy, w, h, maxiter, r0, rinf, _cpus())


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _classify_c(num, den, x0, y0, dx, dy, w, h, maxiter, r0, rinf, workers):
    """classify_kernel in C, row i computed by worker i mod workers: the
    calling thread and workers - 1 others (ctypes releases the GIL)."""
    labels = np.empty((h, w), dtype=np.uint8)
    iters = np.empty((h, w), dtype=np.uint32)
    stride = max(1, min(workers, h))
    grid = (num.ctypes.data, len(num), den.ctypes.data, len(den), float(x0), float(y0),
            float(dx), float(dy), int(w), int(h), int(maxiter), float(r0), float(rinf))
    out = (labels.ctypes.data, iters.ctypes.data)
    threads = [threading.Thread(target=_lib.classify_rows, args=(*grid, i, stride, *out))
               for i in range(1, stride)]
    for t in threads:
        t.start()
    _lib.classify_rows(*grid, 0, stride, *out)
    for t in threads:
        t.join()
    return labels, iters


def _horner_arrays(coeffs, re, im):
    """Horner on float64 real and imaginary arrays, one ufunc per real
    operation in the order of ``horner`` in _kernels.c."""
    ar = np.zeros_like(re)
    ai = np.zeros_like(re)
    for c in reversed(coeffs):
        ar, ai = ar * re - ai * im + c.real, ar * im + ai * re + c.imag
    return ar, ai


def _cdiv_arrays(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) elementwise by Smith's formula, as ``cdiv``
    in _kernels.c; a zero divisor gives NaN where cdiv gives inf or NaN."""
    big_re = np.abs(br) >= np.abs(bi)
    rat = np.where(big_re, bi / br, br / bi)
    scl = 1.0 / np.where(big_re, br + bi * rat, bi + br * rat)
    re = np.where(big_re, ar + ai * rat, ar * rat + ai) * scl
    im = np.where(big_re, ai - ar * rat, ai * rat - ar) * scl
    return re, im


def _classify(num, den, x0, y0, dx, dy, w, h, maxiter, r0, rinf):
    """Reference of classify_kernel: every undecided pixel at once, on float64
    real and imaginary arrays.  Separate multiply and add ufuncs cannot fuse,
    unlike numpy's complex array arithmetic, so this rounds as _kernels.c
    does on every host."""
    num = [complex(c) for c in num]
    den = [complex(c) for c in den]
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
            nr, ni = _horner_arrays(num, re, im)
            dr, di = _horner_arrays(den, re, im)
            re, im = _cdiv_arrays(nr, ni, dr, di)
            bad = ~(np.isfinite(re) & np.isfinite(im))
            re[bad] = 2.0 * rinf
            im[bad] = 0.0
    return labels.reshape(h, w), iters.reshape(h, w)
