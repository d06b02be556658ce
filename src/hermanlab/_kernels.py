"""Hot numerical kernels: the orbit loops behind tuning, tracing and rendering.

Each kernel has one pure python/numpy implementation, which is the
reference any faster backend is compared against.  All kernels operate
on rational maps given as ascending complex coefficient vectors
(numerator, denominator).
"""

import numpy as np

BACKEND = "numpy"


def _horner(coeffs, z):
    acc = 0.0 + 0.0j
    for j in range(len(coeffs) - 1, -1, -1):
        acc = acc * z + coeffs[j]
    return acc


def orbit(num, den, z0, n, r0, rinf):
    """Iterate z -> N(z)/D(z) for n steps, storing every iterate.

    Returns (orbit, n_ok) where n_ok is the number of valid entries before
    the orbit fell into one of the traps |z| < r0 or |z| > rinf.
    """
    out = np.empty(n, dtype=np.complex128)
    z = z0
    for k in range(n):
        z = _horner(num, z) / _horner(den, z)
        out[k] = z
        a = abs(z)
        if a < r0 or a > rinf:
            return out, k + 1
    return out, n


def orbit_samples(num, den, z0, ks, r0, rinf):
    """Iterate z -> N(z)/D(z), sampling the iterates listed in ks (sorted).

    Iterates in the precision of the coefficient arrays (complex128 or
    clongdouble) and stores complex128 samples.
    """
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


def tune_residual(num0, den, c, qm, r0, rinf):
    """Residual G_m(c) = f_c^{q_m}(1) - 1 and dG/dc for the family f_c = c*N0/D.

    The parameter multiplies the map, so df/dc = f/c and the derivative
    propagates along the orbit as w_{k+1} = f'(z_k) w_k + (N0/D)(z_k).
    """
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

