/* C translations of the orbit loops in _kernels.py (orbit_samples,
 * tune_residual), of the closed-form Blaschke lift steps
 * (blaschke_advance), of the escape-time classifier (classify_rows), of
 * the arc diameters behind the bounded-turning constant (arc_ratios), of
 * the exact Euclidean distance transform (distance_transform) and of the
 * curve CSV row codec (curve_csv_rows, curve_csv_parse), whose references
 * are cli's python writer and numpy loadtxt reader.
 *
 * Every complex operation is spelled out in real arithmetic exactly as
 * numpy evaluates it on complex128 scalars, in the reference's order, so
 * the results are bit-identical to the python references:
 *   product   (ar*br - ai*bi, ar*bi + ai*br)
 *   quotient  Smith's formula on the larger of |br|, |bi| (cdiv below)
 *   Horner    from the top coefficient, as the references start
 *             (horner_start)
 *   modulus   hypot in the orbit loops, but only for the iterates whose
 *             re*re + im*im lies within a safe margin of r0^2 or rinf^2
 *             (trapped), so every trap decision is hypot's; the
 *             classifier compares re*re + im*im with r*r instead, as its
 *             float-array reference does
 * Build without -ffast-math and with -ffp-contract=off, so that no
 * product is fused into an add.
 *
 * The classifier iterates several pixels at once, one per lane of a
 * GCC/clang vector of doubles, and keeps two such vectors in flight per
 * thread, interleaved in one loop body, so that one vector's divisions run
 * while the other's wait (classify_rows_L); the arc diameters take their
 * largest squared distance over several arc points at once
 * (arc_max_sq_L).  Each body is written once and built at 2 lanes for the
 * default target and, on x86, at 4 lanes for AVX2 and 8 for AVX-512F
 * through target attributes; simd_lanes() asks the CPU at run time which
 * of them it runs, and the caller passes the width in.  No -march flag is
 * used: it would tie the cached library to the build machine's CPU, and
 * the target attributes already give each width its instructions.  Vector
 * lanes round each IEEE operation exactly as a scalar does, and
 * -ffp-contract=off holds in every target.  Each classifier lane performs
 * cdiv's operations in cdiv's order, so every width gives the labels and
 * counts of the reference on every host; each squared distance is rounded
 * as the scalar one, and a maximum of exactly rounded values does not
 * depend on the order it is taken in, so every width gives the same arc
 * ratios.
 *
 * Complex arrays are interleaved (re, im) doubles; complex scalars are
 * passed and returned as separate doubles.
 */

#include <errno.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* Where Horner's loop over the ascending coefficients c[0..n) starts: at
 * j = n - 2 from the top coefficient, whose step (0 re - 0 im) + c[n-1]
 * gives c[n-1] exactly on a finite z, unless a part of it is -0.0; then
 * at j = n - 1 from 0.  The references start the same way on every z
 * (_starts_at_top). */
static int64_t horner_start(const double *c, int64_t n, double *re, double *im)
{
    *re = *im = 0.0;
    if (n == 0 || (c[2 * n - 2] == 0 && signbit(c[2 * n - 2])) ||
        (c[2 * n - 1] == 0 && signbit(c[2 * n - 1])))
        return n - 1;
    *re = c[2 * n - 2];
    *im = c[2 * n - 1];
    return n - 2;
}

/* A polynomial prepared for horner(): its ascending coefficients c[0..n),
 * the index at which Horner's loop starts and the value it starts from,
 * both as horner_start says. */
typedef struct {
    const double *c;
    int64_t j0;
    cplx top;
} poly;

static poly poly_init(const double *c, int64_t n)
{
    poly p = {c, 0, {0.0, 0.0}};
    p.j0 = horner_start(c, n, &p.top.re, &p.top.im);
    return p;
}

/* Horner's rule from the top coefficient where horner_start says so, as
 * _horner and the classifier start, which saves the first step of the
 * dependent chain; each step is a product and a sum in numpy's order. */
static inline cplx horner(const poly *p, cplx z)
{
    cplx acc = p->top;
    for (int64_t j = p->j0; j >= 0; j--) {
        cplx cj = {p->c[2 * j], p->c[2 * j + 1]};
        acc = cadd(cmul(acc, z), cj);
    }
    return acc;
}

/* The traps |z| < r0 and |z| > rinf of the orbit loops, decided as the
 * references decide them, by hypot, but computed only where the cheap
 * m2 = re*re + im*im cannot rule both out: m2 > lo and m2 < hi put |z|
 * inside (r0, rinf) by a relative margin of about 2^-21, far above the
 * rounding of m2 (a few ulps, or 2^-1074 absolute where a square
 * underflows, which is 2^-52 of a normal r0^2 or rinf^2) and of hypot.
 * Where r0^2 or rinf^2 is zero, subnormal, infinite or NaN, or rinf is
 * not positive, lo = inf and every iterate takes hypot; a NaN m2 does
 * too.  So every decision is the reference's. */
typedef struct {
    double r0, rinf, lo, hi;
} traps;

#define TRAP_MARGIN 0x1p-20

static traps traps_init(double r0, double rinf)
{
    traps t = {r0, rinf, INFINITY, -INFINITY};
    if (isnormal(r0 * r0) && isnormal(rinf * rinf) && rinf > 0) {
        t.lo = r0 * r0 * (1.0 + TRAP_MARGIN);
        t.hi = rinf * rinf * (1.0 - TRAP_MARGIN);
    }
    return t;
}

static inline int trapped(const traps *t, cplx z)
{
    double m2 = z.re * z.re + z.im * z.im;
    if (m2 > t->lo && m2 < t->hi)
        return 0;
    double a = hypot(z.re, z.im);
    return a < t->r0 || a > t->rinf;
}

/* Iterate z -> N(z)/D(z), storing the iterates numbered ks[0..nks) (sorted,
 * >= 1) into out; returns the number stored.  After a trap the remaining
 * samples are NaN. */
int64_t orbit_samples(const double *num, int64_t nnum, const double *den, int64_t nden,
                      double z0re, double z0im, const int64_t *ks, int64_t nks,
                      double r0, double rinf, double *out)
{
    poly pn = poly_init(num, nnum), pd = poly_init(den, nden);
    traps t = traps_init(r0, rinf);
    cplx z = {z0re, z0im};
    int64_t j = 0;
    int64_t kmax = ks[nks - 1];
    for (int64_t k = 1; k <= kmax; k++) {
        z = cdiv(horner(&pn, z), horner(&pd, z));
        if (trapped(&t, z)) {
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

/* The derivative coefficients j*c[j], j = 1..n-1, of the ascending c[0..n)
 * into d[0..n-1), formed as numpy multiplies a python int by a complex128:
 * (j + 0i) * c[j]. */
static void derivative_coefficients(const double *c, int64_t n, double *d)
{
    for (int64_t j = 1; j < n; j++) {
        double ar = c[2 * j], ai = c[2 * j + 1];
        d[2 * j - 2] = (double)j * ar - 0.0 * ai;
        d[2 * j - 1] = (double)j * ai + 0.0 * ar;
    }
}

/* G_m(c) = f_c^{qm}(1) - 1 and dG/dc for f_c = c*N0/D, into
 * out[0..4) = (G.re, G.im, dG.re, dG.im).  Returns 1 if the orbit fell into
 * a trap (out then holds the derivative so far, and no residual), else 0.
 * out[4..) is scratch of 2 (nnum + nden) doubles for the derivative
 * coefficients j*num0[j] and j*den[j], formed once as the reference forms
 * them.  Each of the four polynomials starts Horner's loop at its top
 * coefficient (horner), and hypot decides only the iterates near a trap
 * (trapped). */
int tune_residual(const double *num0, int64_t nnum, const double *den, int64_t nden,
                  double cre, double cim, int64_t qm, double r0, double rinf, double *out)
{
    double *dnum = out + 4, *dden = out + 4 + 2 * nnum;
    derivative_coefficients(num0, nnum, dnum);
    derivative_coefficients(den, nden, dden);
    poly pn = poly_init(num0, nnum), pd = poly_init(den, nden);
    poly pdn = poly_init(dnum, nnum > 0 ? nnum - 1 : 0);
    poly pdd = poly_init(dden, nden > 0 ? nden - 1 : 0);
    traps t = traps_init(r0, rinf);
    cplx c = {cre, cim};
    cplx z = {1.0, 0.0};
    cplx w = {0.0, 0.0};
    for (int64_t k = 0; k < qm; k++) {
        cplx nv = horner(&pn, z);
        cplx dv = horner(&pd, z);
        cplx ndv = horner(&pdn, z);
        cplx ddv = horner(&pdd, z);
        cplx dfdz = cdiv(cmul(c, csub(cmul(ndv, dv), cmul(nv, ddv))), cmul(dv, dv));
        w = cadd(cmul(dfdz, w), cdiv(nv, dv));
        z = cdiv(cmul(c, nv), dv);
        if (trapped(&t, z)) {
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

/* x % 1.0 as python's float modulo computes it: the remainder fmod(x, 1.0),
 * plus 1 where it is negative, and +0.0 where it is zero.  The remainder
 * is taken as x - trunc(x), which is exact (Sterbenz's lemma for
 * |x| >= 1, x itself below), so it is fmod's, without fmod's libm call,
 * which took about a third of a Blaschke step's time. */
static inline double py_mod1(double x)
{
    double r = x - trunc(x);
    if (r == 0)
        return 0.0;
    return r < 0 ? r + 1.0 : r;
}

/* F^n(x) for the closed-form lift of a Blaschke member, as
 * _blaschke_advance steps it: with u = x % 1.0 and y = 2 pi u, Horner on
 * the real coefficients den[0..nden) of D, highest degree first
 * (nden >= 2), at (cos y, sin y), each imaginary part taking the + 0.0 of
 * a real coefficient, then x + (alpha + slope u - atan2(im, re) / pi) % 1.0.
 * pi is python's math.pi. */
double blaschke_advance(const double *den, int64_t nden, double alpha, double slope, double x,
                        int64_t n)
{
    const double pi = 3.141592653589793, twopi = 2 * pi;
    for (int64_t k = 0; k < n; k++) {
        double u = py_mod1(x);
        double y = twopi * u;
        double zr = cos(y), zi = sin(y);
        double re = den[0] * zr + den[1], im = den[0] * zi + 0.0;
        for (int64_t j = 2; j < nden; j++) {
            double t = re * zr - im * zi + den[j];
            im = re * zi + im * zr + 0.0;
            re = t;
        }
        x = x + py_mod1(alpha + slope * u - atan2(im, re) / pi);
    }
    return x;
}

/* Vector helpers for the classifier, written as macros because static
 * functions that take or return vectors draw -Wpsabi.  VI is the signed
 * 64-bit integer vector a comparison of VD vectors returns, all ones in a
 * lane where it holds. */
#define VABS(VD, VI, x) ((VD)((VI)(x) & INT64_MAX))
#define VSEL(VD, VI, m, a, b) ((VD)(((m) & (VI)(a)) | (~(m) & (VI)(b))))

/* for v = 0, 1 over the classifier's two vectors, unrolled, so that each
 * vector's state is a register of its own */
#define EACH_VECTOR(v) _Pragma("GCC unroll 2") for (int v = 0; v < 2; v++)

/* Escape-time labels (0 inner, 1 outer, 2 undecided) and iteration counts
 * of the pixel rows row0, row0 + stride, ... of the w x h grid whose pixel
 * (ix, iy) is centred at (x0 + (ix + 0.5) dx, y0 + (iy + 0.5) dy), into the
 * row-major labels and iters.  A pixel is labelled at the first iterate k
 * with |z|^2 < r0^2 or |z|^2 > rinf^2, and a non-finite iterate is
 * replaced by 2 rinf.  Rows are independent, so any split of the rows
 * gives the same arrays.
 *
 * classify_rows_L keeps 2 vectors of L lanes in flight, one pixel per
 * lane, and advances both in one loop body.  Each iterate of a vector is
 * one dependent chain (Horner, two divisions, the trap test); the two
 * chains are independent, so the core overlaps one vector's divisions with
 * the other's work instead of waiting on their latency.  When a lane's
 * pixel is labelled or reaches maxiter, the lane writes it out and takes
 * the next pixel of the rows; one horizontal test of the two vectors' done
 * masks, ORed, finds such lanes.  Lanes left without a pixel at the end
 * idle until the others finish.  Each lane performs cdiv's IEEE operations
 * in cdiv's order: Smith's two branches differ only in which of (br, bi)
 * and (ar, ai) play which part, so a per-lane select on |br| >= |bi|
 * (false for NaN, as in cdiv) swaps them and both branches share the two
 * divisions.  A zero divisor gives NaN here and inf or NaN in cdiv; either
 * is replaced by 2 rinf, so the labels and counts are those of a scalar
 * cdiv loop, bit for bit.  Both Horner loops start where horner_start
 * says, as the reference's do. */
#define CLASSIFY_ROWS(L, ATTR)                                                             \
    ATTR static void classify_rows_##L(const double *num, int64_t nnum, const double *den, \
                                       int64_t nden, double x0, double y0, double dx,      \
                                       double dy, int64_t w, int64_t h, int64_t maxiter,    \
                                       double r0, double rinf, int64_t row0, int64_t stride, \
                                       uint8_t *labels, uint32_t *iters)                   \
    {                                                                                      \
        typedef double vd __attribute__((vector_size(8 * L)));                            \
        typedef int64_t vi __attribute__((vector_size(8 * L)));                           \
        double r02 = r0 * r0, rinf2 = rinf * rinf, fmaxk = (double)maxiter;                \
        const vd zero = {0}, esc = zero + 2.0 * rinf;                                      \
        const vi none = {0};                                                               \
        double top[4];                                                                     \
        int64_t jnum = horner_start(num, nnum, &top[0], &top[1]);                          \
        int64_t jden = horner_start(den, nden, &top[2], &top[3]);                          \
        const vd nr0 = zero + top[0], ni0 = zero + top[1];                                 \
        const vd br0 = zero + top[2], bi0 = zero + top[3];                                 \
        vd zr[2], zi[2], k[2];                                                             \
        vi live[2], done[2];                                                               \
        int64_t pix[2][L];                                                                 \
        int64_t ix = 0, iy = row0, nlive = 2 * L;                                          \
        if (w <= 0)                                                                        \
            return;                                                                        \
        /* every lane starts as a finished pixel that needs no writing */                  \
        EACH_VECTOR(v) {                                                                   \
            zr[v] = zi[v] = k[v] = zero;                                                   \
            live[v] = none;                                                                \
            done[v] = ~none;                                                               \
            for (int l = 0; l < L; l++)                                                    \
                pix[v][l] = -1;                                                            \
        }                                                                                  \
        for (;;) {                                                                         \
            vi either = done[0] | done[1];                                                 \
            int64_t any = 0;                                                               \
            for (int l = 0; l < L; l++)                                                    \
                any |= either[l];                                                          \
            if (any) {                                                                     \
                EACH_VECTOR(v) {                                                           \
                    for (int l = 0; l < L; l++) {                                          \
                        if (!done[v][l])                                                   \
                            continue;                                                      \
                        double re = zr[v][l], im = zi[v][l], kl = k[v][l];                 \
                        for (;;) {                                                         \
                            if (pix[v][l] >= 0) {                                          \
                                double m2 = re * re + im * im;                             \
                                labels[pix[v][l]] = kl >= fmaxk ? 2 : (m2 < r02 ? 0 : 1);  \
                                iters[pix[v][l]] = (uint32_t)kl;                           \
                            }                                                              \
                            if (iy >= h) {                                                 \
                                live[v][l] = 0;                                            \
                                nlive--;                                                   \
                                break;                                                     \
                            }                                                              \
                            pix[v][l] = iy * w + ix;                                       \
                            re = x0 + ((double)ix + 0.5) * dx;                             \
                            im = y0 + ((double)iy + 0.5) * dy;                             \
                            kl = 0.0;                                                      \
                            if (++ix == w) {                                               \
                                ix = 0;                                                    \
                                iy += stride;                                              \
                            }                                                              \
                            double m2 = re * re + im * im;                                 \
                            if (!(m2 < r02 || m2 > rinf2 || kl >= fmaxk)) {                \
                                live[v][l] = -1;                                           \
                                break;                                                     \
                            }                                                              \
                        }                                                                  \
                        zr[v][l] = re;                                                     \
                        zi[v][l] = im;                                                     \
                        k[v][l] = kl;                                                      \
                    }                                                                      \
                }                                                                          \
                if (nlive == 0)                                                            \
                    return;                                                                \
            }                                                                              \
            /* z -> N(z) / D(z) in both vectors: horner, then cdiv */                      \
            vd nr[2], ni[2], br[2], bi[2];                                                 \
            EACH_VECTOR(v) {                                                               \
                nr[v] = nr0;                                                               \
                ni[v] = ni0;                                                               \
                br[v] = br0;                                                               \
                bi[v] = bi0;                                                               \
            }                                                                              \
            for (int64_t j = jnum; j >= 0; j--) {                                          \
                EACH_VECTOR(v) {                                                           \
                    vd t = nr[v] * zr[v] - ni[v] * zi[v] + num[2 * j];                     \
                    ni[v] = nr[v] * zi[v] + ni[v] * zr[v] + num[2 * j + 1];                \
                    nr[v] = t;                                                             \
                }                                                                          \
            }                                                                              \
            for (int64_t j = jden; j >= 0; j--) {                                          \
                EACH_VECTOR(v) {                                                           \
                    vd t = br[v] * zr[v] - bi[v] * zi[v] + den[2 * j];                     \
                    bi[v] = br[v] * zi[v] + bi[v] * zr[v] + den[2 * j + 1];                \
                    br[v] = t;                                                             \
                }                                                                          \
            }                                                                              \
            EACH_VECTOR(v) {                                                               \
                vi big = VABS(vd, vi, br[v]) >= VABS(vd, vi, bi[v]);                       \
                vd p = VSEL(vd, vi, big, br[v], bi[v]);                                    \
                vd q = VSEL(vd, vi, big, bi[v], br[v]);                                    \
                vd rat = q / p;                                                            \
                vd scl = 1.0 / (p + q * rat);                                              \
                vd ar_rat = nr[v] * rat, ai_rat = ni[v] * rat;                             \
                vd re = VSEL(vd, vi, big, nr[v] + ai_rat, ar_rat + ni[v]) * scl;           \
                vd im = VSEL(vd, vi, big, ni[v] - ar_rat, ai_rat - nr[v]) * scl;           \
                vi fin = (VABS(vd, vi, re) <= DBL_MAX) & (VABS(vd, vi, im) <= DBL_MAX);    \
                zr[v] = VSEL(vd, vi, fin, re, esc);                                        \
                zi[v] = VSEL(vd, vi, fin, im, zero);                                       \
                k[v] += 1.0;                                                               \
                vd m2 = zr[v] * zr[v] + zi[v] * zi[v];                                     \
                done[v] = ((m2 < r02) | (m2 > rinf2) | (k[v] >= fmaxk)) & live[v];         \
            }                                                                              \
        }                                                                                  \
    }

CLASSIFY_ROWS(2, )
#if defined(__x86_64__) || defined(__i386__)
CLASSIFY_ROWS(4, __attribute__((target("avx2"))))
CLASSIFY_ROWS(8, __attribute__((target("avx512f"))))
#endif

/* The widest lane count classify_rows and arc_ratios can run on this CPU:
 * 8 with AVX-512F (whose target also enables AVX2), 4 with AVX2, else 2.
 * The library is built without -march, so one build serves every x86
 * CPU. */
int64_t simd_lanes(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return __builtin_cpu_supports("avx512f") ? 8 : 4;
#endif
    return 2;
}

/* classify_rows_L for lanes = L, one of 2 and the wider counts up to
 * simd_lanes(). */
void classify_rows(const double *num, int64_t nnum, const double *den, int64_t nden,
                   double x0, double y0, double dx, double dy, int64_t w, int64_t h,
                   int64_t maxiter, double r0, double rinf, int64_t lanes, int64_t row0,
                   int64_t stride, uint8_t *labels, uint32_t *iters)
{
#if defined(__x86_64__) || defined(__i386__)
    if (lanes == 8) {
        classify_rows_8(num, nnum, den, nden, x0, y0, dx, dy, w, h, maxiter, r0, rinf, row0,
                        stride, labels, iters);
        return;
    }
    if (lanes == 4) {
        classify_rows_4(num, nnum, den, nden, x0, y0, dx, dy, w, h, maxiter, r0, rinf, row0,
                        stride, labels, iters);
        return;
    }
#endif
    (void)lanes;
    classify_rows_2(num, nnum, den, nden, x0, y0, dx, dy, w, h, maxiter, r0, rinf, row0,
                    stride, labels, iters);
}

/* The lowest (keep_lowest) or highest (keep_highest) n <= 8 arc points
 * seen so far, the most extreme first, in a ring: the point of rank r is
 * slot (head + r) & 7.  Points arrive in increasing t and the keys are
 * (x, t), so ties go by position as a stable sort orders them: among equal
 * x the lowest 8 keep the earliest points and the highest 8 the latest.
 * A point beyond the most extreme takes the slot before the head, which is
 * free or holds the point it evicts, so a monotone run of an arc costs one
 * comparison per point instead of a shift of the whole list. */
typedef struct {
    double key[8];
    int64_t idx[8];
    int head, n;
} extremes;

#define RANK(e, r) (((e)->head + (r)) & 7)

static inline void keep_lowest(extremes *e, double x, int64_t t)
{
    int k = e->n;
    if (k == 8) {
        if (!(x < e->key[RANK(e, 7)]))
            return;
        k = 7;
    } else {
        e->n++;
    }
    if (k == 0 || x < e->key[e->head]) {
        e->head = (e->head + 7) & 7;
        k = 0;
    } else {
        while (k > 0 && x < e->key[RANK(e, k - 1)]) {
            e->key[RANK(e, k)] = e->key[RANK(e, k - 1)];
            e->idx[RANK(e, k)] = e->idx[RANK(e, k - 1)];
            k--;
        }
    }
    e->key[RANK(e, k)] = x;
    e->idx[RANK(e, k)] = t;
}

static inline void keep_highest(extremes *e, double x, int64_t t)
{
    int k = e->n;
    if (k == 8) {
        if (x < e->key[RANK(e, 7)])
            return;
        k = 7;
    } else {
        e->n++;
    }
    if (k == 0 || !(x < e->key[e->head])) {
        e->head = (e->head + 7) & 7;
        k = 0;
    } else {
        while (k > 0 && !(x < e->key[RANK(e, k - 1)])) {
            e->key[RANK(e, k)] = e->key[RANK(e, k - 1)];
            e->idx[RANK(e, k)] = e->idx[RANK(e, k - 1)];
            k--;
        }
    }
    e->key[RANK(e, k)] = x;
    e->idx[RANK(e, k)] = t;
}

/* Points of an arc after coarsening: an arc of up to 1023 points keeps them
 * all, and a longer one every (len / 512)-th, fewer than 1024 either way. */
#define ARC_MAX 1024

/* The largest squared distance ((xs[t] - cx[c]) s)^2 + ((ys[t] - cy[c]) s)^2
 * over t < n and c < nc, or 0 if there is none (a NaN never wins), for n a
 * multiple of L and nc of 4.  arc_max_sq_L computes L points at once, one
 * per lane, each by the scalar operations in the scalar order, and keeps
 * four running maxima, one per candidate of a block of four.  A maximum of
 * exactly rounded squares does not depend on the order it is taken in, so
 * every L gives the same value. */
#define ARC_MAX_SQ(L, ATTR)                                                               \
    ATTR static double arc_max_sq_##L(const double *xs, const double *ys, int64_t n,       \
                                      const double *cx, const double *cy, int64_t nc,      \
                                      double s)                                            \
    {                                                                                      \
        typedef double vd __attribute__((vector_size(8 * L)));                            \
        typedef int64_t vi __attribute__((vector_size(8 * L)));                           \
        vd best[4] = {{0}, {0}, {0}, {0}};                                                 \
        for (int64_t c = 0; c < nc; c += 4) {                                              \
            for (int64_t t = 0; t < n; t += L) {                                           \
                vd x, y;                                                                   \
                memcpy(&x, xs + t, sizeof x);                                              \
                memcpy(&y, ys + t, sizeof y);                                              \
                for (int b = 0; b < 4; b++) {                                              \
                    vd sx = (x - cx[c + b]) * s, sy = (y - cy[c + b]) * s;                 \
                    vd sq = sx * sx + sy * sy;                                             \
                    best[b] = VSEL(vd, vi, sq > best[b], sq, best[b]);                     \
                }                                                                          \
            }                                                                              \
        }                                                                                  \
        double top = 0.0;                                                                  \
        for (int b = 0; b < 4; b++)                                                        \
            for (int l = 0; l < L; l++)                                                    \
                if (best[b][l] > top)                                                      \
                    top = best[b][l];                                                      \
        return top;                                                                        \
    }

ARC_MAX_SQ(2, )
#if defined(__x86_64__) || defined(__i386__)
ARC_MAX_SQ(4, __attribute__((target("avx2"))))
ARC_MAX_SQ(8, __attribute__((target("avx512f"))))
#endif

typedef double (*arc_max_sq_fn)(const double *, const double *, int64_t, const double *,
                                const double *, int64_t, double);

/* Diameter estimate of the arc whose point t is pts[(start + t*step) % m],
 * t = 0..len-1 (len < ARC_MAX): the largest distance from any arc point to
 * the 8 lowest and 8 highest points of each axis.  The arc is gathered
 * once into xs, ys and padded to a multiple of 8, which every lane count
 * divides, with copies of its first point, which leave the maximum as it
 * is.  Squared distances are summed in a frame scaled by the power of two
 * 2^k that brings the larger axis range into [0.5, 1) (k clamped to
 * [-1022, 1023]), so that neither narrow nor wide arcs underflow or
 * overflow; the root of the largest one is scaled back. */
static double arc_diameter(const double *pts, int64_t m, int64_t start, int64_t step,
                           int64_t len, arc_max_sq_fn max_sq)
{
    double xs[ARC_MAX + 8] __attribute__((aligned(64)));
    double ys[ARC_MAX + 8] __attribute__((aligned(64)));
    extremes ex[4] = {{{0}, {0}, 0, 0}, {{0}, {0}, 0, 0}, {{0}, {0}, 0, 0}, {{0}, {0}, 0, 0}};
    for (int64_t t = 0, q = start; t < len; t++) {
        xs[t] = pts[2 * q];
        ys[t] = pts[2 * q + 1];
        keep_lowest(&ex[0], xs[t], t);
        keep_highest(&ex[1], xs[t], t);
        keep_lowest(&ex[2], ys[t], t);
        keep_highest(&ex[3], ys[t], t);
        /* step < m (the uncoarsened arc has at most m / 2 + 1 points), so
         * one subtraction wraps q */
        q += step;
        if (q >= m)
            q -= m;
    }
    int64_t padded = len;
    for (; padded % 8; padded++) {
        xs[padded] = xs[0];
        ys[padded] = ys[0];
    }
    double spread = fmax(ex[1].key[ex[1].head] - ex[0].key[ex[0].head],
                         ex[3].key[ex[3].head] - ex[2].key[ex[2].head]);
    int e;
    frexp(spread, &e);
    int k = -e < -1022 ? -1022 : (-e > 1023 ? 1023 : -e);
    double scale = ldexp(1.0, k);
    /* each axis keeps min(8, len) points, so nc is a multiple of 4 */
    double cx[32], cy[32];
    int64_t nc = 0;
    for (int a = 0; a < 4; a++) {
        for (int c = 0; c < ex[a].n; c++) {
            int64_t t = ex[a].idx[RANK(&ex[a], c)];
            cx[nc] = xs[t];
            cy[nc] = ys[t];
            nc++;
        }
    }
    /* An arc of more than nc = 32 points drops the points that cannot
     * raise the maximum.  With best0 the candidates' own largest squared
     * distance, o the centre of the axis ranges and R the candidates'
     * largest distance from o, a point p with |p - o| < lim = sqrt(best0)
     * - R (less margins of 1e-9, relative, far above the few ulps by which
     * these roundings and max_sq's squares can err) lies nearer than
     * sqrt(best0) to every candidate, by the triangle inequality, so its
     * rounded squares stay below best0.  The candidates are arc points,
     * and the two that give best0 lie at least lim from o by the same
     * inequality, so they stay and the maximum is unchanged.  An inf in
     * best0 or R leaves lim not finite or not positive, and then every
     * point stays; an overflowed |p - o| keeps its point. */
    if (len > nc) {
        double best0 = max_sq(cx, cy, nc, cx, cy, nc, scale);
        double ox = 0.5 * ex[0].key[ex[0].head] + 0.5 * ex[1].key[ex[1].head];
        double oy = 0.5 * ex[2].key[ex[2].head] + 0.5 * ex[3].key[ex[3].head];
        double r2 = 0.0;
        for (int64_t c = 0; c < nc; c++) {
            double dx = (cx[c] - ox) * scale, dy = (cy[c] - oy) * scale;
            r2 = fmax(r2, dx * dx + dy * dy);
        }
        double lim = sqrt(best0) * (1 - 1e-9) - sqrt(r2) * (1 + 1e-9);
        if (lim > 0 && lim < INFINITY) {
            double lim2 = lim * lim;
            int64_t kept = 0;
            for (int64_t t = 0; t < len; t++) {
                double dx = (xs[t] - ox) * scale, dy = (ys[t] - oy) * scale;
                xs[kept] = xs[t];
                ys[kept] = ys[t];
                kept += !(dx * dx + dy * dy < lim2);
            }
            for (padded = kept; padded % 8; padded++) {
                xs[padded] = xs[0];
                ys[padded] = ys[0];
            }
        }
    }
    return sqrt(max_sq(xs, ys, padded, cx, cy, nc, scale)) / scale;
}

/* For the vertex pairs p = p0, p0 + stride, ... below npairs, the ratio of
 * the diameter of the shorter arc of the closed polygon pts[0..m) between
 * ii[p] and jj[p] to their chord |pts[ii[p]] - pts[jj[p]]| (hypot), or 0
 * for a zero chord.  The inner arc lo..hi is taken when hi - lo <= m -
 * (hi - lo), else the outer one hi..m-1, 0..lo; an arc of more than 512
 * points keeps every (len / 512)-th.  The diameters are taken at lanes =
 * 2 or a wider count up to simd_lanes(), all with the same result.  Pairs
 * are independent, so any split gives the same ratios. */
void arc_ratios(const double *pts, int64_t m, const int64_t *ii, const int64_t *jj,
                int64_t npairs, int64_t lanes, int64_t p0, int64_t stride, double *out)
{
    arc_max_sq_fn max_sq = arc_max_sq_2;
#if defined(__x86_64__) || defined(__i386__)
    if (lanes == 8)
        max_sq = arc_max_sq_8;
    else if (lanes == 4)
        max_sq = arc_max_sq_4;
#endif
    (void)lanes;
    for (int64_t p = p0; p < npairs; p += stride) {
        int64_t i = ii[p], j = jj[p];
        double chord = hypot(pts[2 * i] - pts[2 * j], pts[2 * i + 1] - pts[2 * j + 1]);
        if (chord == 0) {
            out[p] = 0.0;
            continue;
        }
        int64_t lo = i < j ? i : j, hi = i < j ? j : i;
        int64_t inner = hi - lo, start, len;
        if (inner <= m - inner) {
            start = lo;
            len = inner + 1;
        } else {
            start = hi;
            len = m - inner + 1;
        }
        int64_t step = len > 512 ? len / 512 : 1;
        out[p] = arc_diameter(pts, m, start, step, (len + step - 1) / step, max_sq) /
                 chord;
    }
}

/* Exact Euclidean distance transform of the h x w row-major mask: out[y, x]
 * is the distance from pixel (x, y) to the nearest pixel whose mask is 0,
 * or +inf if there is none.  Meijster, Roerdink and Hesselink's two
 * passes in integer arithmetic: g holds each pixel's distance to the
 * nearest 0 in its column (w + h or more if the column has none), then a
 * lower envelope of parabolas per row gives the squared distance, whose
 * root is correctly rounded.  g is h*w scratch, s and t 2*w scratch. */
void distance_transform(const uint8_t *mask, int64_t w, int64_t h, int64_t *g, int64_t *st,
                        double *out)
{
    const int64_t inf = w + h;
    if (w == 0 || h == 0)
        return;
    for (int64_t x = 0; x < w; x++)
        g[x] = mask[x] ? inf : 0;
    for (int64_t y = 1; y < h; y++)
        for (int64_t x = 0; x < w; x++)
            g[y * w + x] = mask[y * w + x] ? g[(y - 1) * w + x] + 1 : 0;
    for (int64_t y = h - 2; y >= 0; y--)
        for (int64_t x = 0; x < w; x++)
            if (g[(y + 1) * w + x] < g[y * w + x])
                g[y * w + x] = g[(y + 1) * w + x] + 1;
    int64_t *s = st, *t = st + w;
    for (int64_t y = 0; y < h; y++) {
        const int64_t *gr = g + y * w;
        int64_t q = 0;
        s[0] = 0;
        t[0] = 0;
        for (int64_t u = 1; u < w; u++) {
            /* pop the parabolas that u undercuts at the start of their segment */
            while (q >= 0) {
                int64_t a = t[q] - s[q], b = t[q] - u;
                if (a * a + gr[s[q]] * gr[s[q]] <= b * b + gr[u] * gr[u])
                    break;
                q--;
            }
            if (q < 0) {
                q = 0;
                s[0] = u;
            } else {
                /* the first x at which u is strictly below s[q]: 1 + floor(sep),
                 * where sep >= t[q] >= 0 since s[q] is no higher at t[q] */
                int64_t v = s[q];
                int64_t sep = (u * u - v * v + gr[u] * gr[u] - gr[v] * gr[v]) / (2 * (u - v));
                if (sep + 1 < w) {
                    q++;
                    s[q] = u;
                    t[q] = sep + 1;
                }
            }
        }
        for (int64_t u = w - 1; u >= 0; u--) {
            int64_t a = u - s[q];
            int64_t d2 = a * a + gr[s[q]] * gr[s[q]];
            out[y * w + u] = d2 < inf * inf ? sqrt((double)d2) : INFINITY;
            if (u == t[q])
                q--;
        }
    }
}

/* The curve CSV row codec: rows "k,angle,re,im\n" with each k as %d
 * prints it and each float as python's repr prints it (curve_csv_rows),
 * and a strict reader of that grammar (curve_csv_parse).  The python
 * writer and numpy's loadtxt reader in cli are the references: they take
 * every row the writer refuses and every file the reader refuses. */

static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL};

/* The digits python's repr prints for the double x of positive bits, as
 * integers with x ~ *digits 10^*exp10; 0 if x lies outside [2^-16, 2^61),
 * or without 128-bit integers.
 *
 * As in Ryu (Adams, PLDI 2018), x = m4 2^-q with m4 = 4m, and the doubles
 * next to x round to it from the interval (m4 - 2, m4 + 2) 2^-q, whose
 * lower end is m4 - 1 where x is a power of two (m = 2^52), ends included
 * when m is even.  Times 10^p, with p the least such that 10^p >= 2^(q-1),
 * the interval is at least 1.5 wide in units of 10^-p, so it holds a
 * multiple of 10^-p; m4 < 2^55 and 10^p < 2^(q+2.33) with q <= 70 keep
 * the products below 2^128, and the integers [a, b] of the interval below
 * 2^62.  The shortest decimals in the interval are its multiples of the
 * largest 10^k that has one; of those, repr prints the one nearest to x,
 * ties going to the even one. */
static int shortest(uint64_t bits, uint64_t *digits, int *exp10)
{
#if defined(__SIZEOF_INT128__)
    typedef unsigned __int128 u128;
    int be = (int)(bits >> 52);
    if (be < 1023 - 16 || be >= 1023 + 61)
        return 0;
    uint64_t frac = bits & ((1ULL << 52) - 1), m4 = ((1ULL << 52) | frac) << 2;
    int q = 1077 - be, p = 0, incl = !(m4 & 4);
    if (q > 1)
        p = (((q - 1) * 78913) >> 18) + 1; /* floor((q - 1) log10 2) + 1 */
    u128 t = p <= 19 ? (u128)POW10[p] : (u128)POW10[19] * POW10[p - 19];
    u128 v = (u128)m4 * t, lo = v - (frac ? 2 : 1) * t, hi = v + 2 * t;
    /* x 10^p = vi + vr 2^-q, and half = 2^(q-1) */
    uint64_t a, b, vi;
    u128 vr = 0, half = 0;
    if (q > 0) {
        u128 mask = ((u128)1 << q) - 1;
        a = (uint64_t)(lo >> q) + ((lo & mask) != 0 || !incl);
        b = (uint64_t)(hi >> q) - ((hi & mask) == 0 && !incl);
        vi = (uint64_t)(v >> q);
        vr = v & mask;
        half = (u128)1 << (q - 1);
    } else {
        a = ((uint64_t)lo << -q) + !incl;
        b = ((uint64_t)hi << -q) - !incl;
        vi = (uint64_t)v << -q;
    }
    int k = 0;
    for (;;) {
        uint64_t a1 = a / 10 + (a % 10 != 0), b1 = b / 10;
        if (a1 > b1)
            break;
        a = a1;
        b = b1;
        k++;
    }
    /* x 10^p = (j + r 10^-k) 10^k + vr 2^-q: round j to the nearer of j and
     * j + 1 within [a, b], which holds one of them at least */
    uint64_t pk = POW10[k], j = vi / pk, r = vi % pk;
    if (r == 0 && vr == 0)
        ; /* x is j 10^(k-p) */
    else if (j < a)
        j++;
    else if (j < b) {
        if (k == 0)
            j += vr > half || (vr == half && (j & 1));
        else
            j += r > pk / 2 || (r == pk / 2 && (vr != 0 || (j & 1)));
    }
    *digits = j;
    *exp10 = k - p;
    return 1;
#else
    (void)bits;
    (void)digits;
    (void)exp10;
    return 0;
#endif
}

/* The decimal digits of u at the end of s[20]; returns their number. */
static int put_digits(char *s, uint64_t u)
{
    int i = 20;
    do {
        s[--i] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    return 20 - i;
}

/* x as python's repr prints it, from out on; the end, or NULL if
 * shortest() does not take x (a non-finite x included).  With the n
 * digits d1..dn and x = 0.d1..dn 10^e: positional for -4 < e <= 16, with
 * ".0" after an integral value, else d1.d2..dne+XX with two exponent
 * digits (|XX| < 19 here); +-0 as 0.0 and -0.0. */
static char *put_repr(char *out, double x)
{
    uint64_t bits, d;
    int e;
    char s[20];
    memcpy(&bits, &x, sizeof bits);
    if (bits >> 63)
        *out++ = '-';
    bits &= ~(1ULL << 63);
    if (bits == 0) {
        memcpy(out, "0.0", 3);
        return out + 3;
    }
    if (!shortest(bits, &d, &e))
        return NULL;
    int n = put_digits(s, d);
    const char *ds = s + 20 - n;
    e += n;
    if (-4 < e && e <= 16) {
        if (e <= 0) {
            memcpy(out, "0.000", 2 - e);
            out += 2 - e;
            memcpy(out, ds, n);
            out += n;
        } else if (e < n) {
            memcpy(out, ds, e);
            out += e;
            *out++ = '.';
            memcpy(out, ds + e, n - e);
            out += n - e;
        } else {
            memcpy(out, ds, n);
            out += n;
            memset(out, '0', e - n);
            out += e - n;
            memcpy(out, ".0", 2);
            out += 2;
        }
        return out;
    }
    *out++ = ds[0];
    if (n > 1) {
        *out++ = '.';
        memcpy(out, ds + 1, n - 1);
        out += n - 1;
    }
    int x10 = e - 1;
    *out++ = 'e';
    *out++ = x10 < 0 ? '-' : '+';
    x10 = x10 < 0 ? -x10 : x10;
    *out++ = (char)('0' + x10 / 10);
    *out++ = (char)('0' + x10 % 10);
    return out;
}

/* k as %d prints it, from out on; the end. */
static char *put_int(char *out, int64_t k)
{
    char s[20];
    if (k < 0)
        *out++ = '-';
    int n = put_digits(s, k < 0 ? 0 - (uint64_t)k : (uint64_t)k);
    memcpy(out, s + 20 - n, n);
    return out + n;
}

/* The rows "k,angle,re,im\n" of ks[i], angle[i], re[i], im[i], i < n, into
 * out, which holds 100 bytes per row (a taken row has at most 20 + 3 x 23
 * + 4 = 93); *used is set to the bytes written.  A row with a float
 * that put_repr refuses is left out, and each run of such rows is recorded
 * as runs[3r..3r+3) = (first row, row after the last, byte offset where
 * the run belongs).  Returns the number of runs. */
int64_t curve_csv_rows(const int64_t *ks, const double *angle, const double *re,
                       const double *im, int64_t n, char *out, int64_t *runs, int64_t *used)
{
    char *o = out;
    int64_t nruns = 0;
    for (int64_t i = 0; i < n; i++) {
        const double v[3] = {angle[i], re[i], im[i]};
        char *p = put_int(o, ks[i]);
        for (int c = 0; c < 3 && p; c++) {
            *p++ = ',';
            p = put_repr(p, v[c]);
        }
        if (p) {
            *p++ = '\n';
            o = p;
        } else if (nruns && runs[3 * nruns - 2] == i) {
            runs[3 * nruns - 2] = i + 1;
        } else {
            runs[3 * nruns] = i;
            runs[3 * nruns + 1] = i + 1;
            runs[3 * nruns + 2] = o - out;
            nruns++;
        }
    }
    *used = o - out;
    return nruns;
}

/* The end of the run of decimal digits at s, before end. */
static const char *digits_end(const char *s, const char *end)
{
    while (s < end && (unsigned)(*s - '0') < 10)
        s++;
    return s;
}

/* The end of -?[0-9]+ at s (floats: -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?),
 * if sep follows it; else NULL. */
static const char *token_end(const char *s, const char *end, int is_float, char sep)
{
    const char *t;
    s += s < end && *s == '-';
    if ((t = digits_end(s, end)) == s)
        return NULL;
    if (is_float && t < end && *t == '.') {
        s = t + 1;
        if ((t = digits_end(s, end)) == s)
            return NULL;
    }
    if (is_float && t < end && *t == 'e') {
        s = t + 1;
        if (!(s < end && (*s == '+' || *s == '-')))
            return NULL;
        s++;
        if ((t = digits_end(s, end)) == s)
            return NULL;
    }
    return t < end && *t == sep ? t : NULL;
}

/* The n rows of text[start..len), each "k,angle,re,im\n" with k a
 * -?[0-9]+ that strtoll reads within int64 and each float of token_end's
 * grammar, which strtod reads to its end as a finite double, into ks and
 * the columns cols[0..n), cols[n..2n), cols[2n..3n).  Returns n, or -1 at
 * the first line outside that grammar, or if text holds more than n
 * lines.  text is NUL-terminated after len (a python bytes object). */
int64_t curve_csv_parse(const char *text, int64_t start, int64_t len, int64_t n, int64_t *ks,
                        double *cols)
{
    const char *s = text + start, *end = text + len, *t;
    char *e;
    for (int64_t i = 0; i < n; i++) {
        if (!(t = token_end(s, end, 0, ',')))
            return -1;
        errno = 0;
        ks[i] = strtoll(s, &e, 10);
        if (errno == ERANGE || e != t)
            return -1;
        s = t + 1;
        for (int c = 0; c < 3; c++) {
            if (!(t = token_end(s, end, 1, c < 2 ? ',' : '\n')))
                return -1;
            double x = strtod(s, &e);
            if (e != t || !isfinite(x))
                return -1;
            cols[c * n + i] = x;
            s = t + 1;
        }
    }
    return s == end ? n : -1;
}
