/* C translations of the orbit loops in _kernels.py (orbit_samples,
 * tune_residual) and of the escape-time classifier (classify_rows).
 *
 * Every complex operation is spelled out in real arithmetic exactly as
 * numpy evaluates it on complex128 scalars, in the reference's order, so
 * the results are bit-identical to the python references:
 *   product   (ar*br - ai*bi, ar*bi + ai*br)
 *   quotient  Smith's formula on the larger of |br|, |bi| (cdiv below)
 *   modulus   hypot (the orbit loops); the classifier compares
 *             re*re + im*im with r*r instead, as its float-array
 *             reference does
 * Build without -ffast-math and with -ffp-contract=off, so that no
 * product is fused into an add.
 *
 * Complex arrays are interleaved (re, im) doubles; complex scalars are
 * passed and returned as separate doubles.
 */

#include <math.h>
#include <stdint.h>

typedef struct {
    double re, im;
} cplx;

static inline cplx cmul(cplx a, cplx b)
{
    cplx r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return r;
}

static inline cplx cadd(cplx a, cplx b)
{
    cplx r = {a.re + b.re, a.im + b.im};
    return r;
}

static inline cplx csub(cplx a, cplx b)
{
    cplx r = {a.re - b.re, a.im - b.im};
    return r;
}

static inline cplx cdiv(cplx a, cplx b)
{
    double abr = fabs(b.re), abi = fabs(b.im);
    cplx r;
    if (abr >= abi) {
        if (abr == 0 && abi == 0) {
            r.re = a.re / abr;
            r.im = a.im / abr;
        } else {
            double rat = b.im / b.re;
            double scl = 1.0 / (b.re + b.im * rat);
            r.re = (a.re + a.im * rat) * scl;
            r.im = (a.im - a.re * rat) * scl;
        }
    } else {
        double rat = b.re / b.im;
        double scl = 1.0 / (b.im + b.re * rat);
        r.re = (a.re * rat + a.im) * scl;
        r.im = (a.im * rat - a.re) * scl;
    }
    return r;
}

static inline cplx horner(const double *c, int64_t n, cplx z)
{
    cplx acc = {0.0, 0.0};
    for (int64_t j = n - 1; j >= 0; j--) {
        cplx cj = {c[2 * j], c[2 * j + 1]};
        acc = cadd(cmul(acc, z), cj);
    }
    return acc;
}

/* Iterate z -> N(z)/D(z), storing the iterates numbered ks[0..nks) (sorted,
 * >= 1) into out; returns the number stored.  After a trap the remaining
 * samples are NaN. */
int64_t orbit_samples(const double *num, int64_t nnum, const double *den, int64_t nden,
                      double z0re, double z0im, const int64_t *ks, int64_t nks,
                      double r0, double rinf, double *out)
{
    cplx z = {z0re, z0im};
    int64_t j = 0;
    int64_t kmax = ks[nks - 1];
    for (int64_t k = 1; k <= kmax; k++) {
        z = cdiv(horner(num, nnum, z), horner(den, nden, z));
        double a = hypot(z.re, z.im);
        if (a < r0 || a > rinf) {
            for (int64_t i = j; i < nks; i++) {
                out[2 * i] = NAN;
                out[2 * i + 1] = NAN;
            }
            return j;
        }
        while (j < nks && k == ks[j]) {
            out[2 * j] = z.re;
            out[2 * j + 1] = z.im;
            j++;
        }
    }
    return j;
}

/* G_m(c) = f_c^{qm}(1) - 1 and dG/dc for f_c = c*N0/D, into
 * out = (G.re, G.im, dG.re, dG.im).  Returns 1 if the orbit fell into a
 * trap (out then holds the derivative so far, and no residual), else 0.
 * dcoef holds the derivative coefficients j*num0[j] then j*den[j],
 * j >= 1, as numpy forms them. */
int tune_residual(const double *num0, int64_t nnum, const double *den, int64_t nden,
                  const double *dnum, const double *dden,
                  double cre, double cim, int64_t qm, double r0, double rinf,
                  double *out)
{
    cplx c = {cre, cim};
    cplx z = {1.0, 0.0};
    cplx w = {0.0, 0.0};
    for (int64_t k = 0; k < qm; k++) {
        cplx nv = horner(num0, nnum, z);
        cplx dv = horner(den, nden, z);
        /* derivatives: horner over coefficients 1..n-1 of j*c[j] */
        cplx ndv = horner(dnum, nnum - 1, z);
        cplx ddv = horner(dden, nden - 1, z);
        cplx dfdz = cdiv(cmul(c, csub(cmul(ndv, dv), cmul(nv, ddv))), cmul(dv, dv));
        w = cadd(cmul(dfdz, w), cdiv(nv, dv));
        z = cdiv(cmul(c, nv), dv);
        double a = hypot(z.re, z.im);
        if (a < r0 || a > rinf) {
            out[2] = w.re;
            out[3] = w.im;
            return 1;
        }
    }
    out[0] = z.re - 1.0;
    out[1] = z.im - 0.0;
    out[2] = w.re;
    out[3] = w.im;
    return 0;
}

/* Escape-time labels (0 inner, 1 outer, 2 undecided) and iteration counts
 * of the pixel rows row0, row0 + stride, ... of the w x h grid whose pixel
 * (ix, iy) is centred at (x0 + (ix + 0.5) dx, y0 + (iy + 0.5) dy), into the
 * row-major labels and iters.  A pixel is labelled at the first iterate k
 * with |z|^2 < r0^2 or |z|^2 > rinf^2, and a non-finite iterate is
 * replaced by 2 rinf.  Rows are independent, so any split of the rows
 * gives the same arrays. */
void classify_rows(const double *num, int64_t nnum, const double *den, int64_t nden,
                   double x0, double y0, double dx, double dy, int64_t w, int64_t h,
                   int64_t maxiter, double r0, double rinf, int64_t row0, int64_t stride,
                   uint8_t *labels, uint32_t *iters)
{
    double r02 = r0 * r0, rinf2 = rinf * rinf;
    for (int64_t iy = row0; iy < h; iy += stride) {
        double y = y0 + ((double)iy + 0.5) * dy;
        for (int64_t ix = 0; ix < w; ix++) {
            cplx z = {x0 + ((double)ix + 0.5) * dx, y};
            uint8_t label = 2;
            int64_t k;
            for (k = 0; k < maxiter; k++) {
                double m2 = z.re * z.re + z.im * z.im;
                if (m2 < r02 || m2 > rinf2) {
                    label = m2 < r02 ? 0 : 1;
                    break;
                }
                z = cdiv(horner(num, nnum, z), horner(den, nden, z));
                if (!isfinite(z.re) || !isfinite(z.im)) {
                    z.re = 2.0 * rinf;
                    z.im = 0.0;
                }
            }
            labels[iy * w + ix] = label;
            iters[iy * w + ix] = (uint32_t)k;
        }
    }
}
