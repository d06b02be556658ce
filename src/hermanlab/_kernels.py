"""Hot numerical kernels: the orbit loops behind tuning, tracing and rendering.

All kernels operate on rational maps given as ascending complex
coefficient vectors (numerator, denominator).  Each kernel has one pure
python/numpy reference: the private ``_orbit_samples`` and
``_tune_residual``, and ``classify_kernel``.  ``orbit`` is
``orbit_samples`` at every iterate.

``orbit_samples`` and ``tune_residual`` run a C translation of their
reference (``_kernels.c``) when their coefficients are complex128.
The C code spells out numpy's complex128 scalar arithmetic in real
operations, in the reference's order, so its results are bit-identical.
It is compiled with the system C compiler ``cc`` on first import and
cached in ``$XDG_CACHE_HOME/hermanlab/`` (default ``~/.cache/hermanlab/``)
under a hash of the source, the flags and the machine type.  Without a
compiler, or if the build fails, the ``hermanlab`` logger records one
warning and every kernel runs its reference; a cached library that
cannot be loaded is rebuilt once.  ``BACKEND`` names the
outcome: ``"c"`` or ``"numpy"``.  ``classify_kernel`` is numpy only.
"""

import ctypes
import hashlib
import logging
import os
import platform

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
    for j in range(len(coeffs) - 1, -1, -1):
        acc = acc * z + coeffs[j]
    return acc


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

    Iterates all pixel centres of the w x h grid at once with an active
    mask; a pixel is labelled at the first iterate inside a trap.
    """
    xs = x0 + (np.arange(w) + 0.5) * dx
    ys = y0 + (np.arange(h) + 0.5) * dy
    z = (xs[None, :] + 1j * ys[:, None]).astype(np.complex128).ravel()
    labels = np.full(z.shape, 2, dtype=np.uint8)
    iters = np.full(z.shape, maxiter, dtype=np.uint32)
    active = np.arange(z.size)
    zz = z.copy()
    for k in range(maxiter):
        a = np.abs(zz)
        inner = a < r0
        outer = a > rinf
        done = inner | outer
        if done.any():
            idx = active[done]
            labels[idx[inner[done]]] = 0
            labels[idx[outer[done]]] = 1
            iters[idx] = k
            keep = ~done
            active = active[keep]
            zz = zz[keep]
            if active.size == 0:
                break
        nv = np.zeros_like(zz)
        for j in range(len(num) - 1, -1, -1):
            nv = nv * zz + num[j]
        dv = np.zeros_like(zz)
        for j in range(len(den) - 1, -1, -1):
            dv = dv * zz + den[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            zz = nv / dv
        zz[~np.isfinite(zz)] = 2.0 * rinf
    return labels.reshape(h, w), iters.reshape(h, w)

