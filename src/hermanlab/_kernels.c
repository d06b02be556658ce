/* C translations of the orbit loops in _kernels.py (orbit_samples,
 * tune_residual), of the closed-form Blaschke lift steps
 * (blaschke_advance), of the escape-time classifier (classify_rows), of
 * the arc diameters behind the bounded-turning constant (arc_ratios), of
 * the exact Euclidean distance transform (distance_transform) and of the
 * curve CSV row codec (curve_csv_rows, curve_csv_parse), whose references
 * are the python writer and reader in _reference.  The reader converts
 * each float by the Eisel-Lemire algorithm, from a table of 128-bit
 * truncated powers of five for decimal exponents in [-64, 64], and hands
 * strtod the tokens it cannot settle exactly: more than 19 significant
 * digits, an exponent outside the table, a product whose low word is all
 * ones outside exponents [-27, 55], a result below the normal range or
 * past DBL_MAX, and every token without 128-bit integers.
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
 * GCC/clang vector of doubles, and keeps four such vectors in flight per
 * thread, interleaved in one loop body, so that some vectors' divisions run
 * while the others' wait (classify_rows_L); the arc diameters take their
 * largest squared distance over several arc points at once
 * (arc_max_sq_L).  Each body is written once and built at every width of
 * WIDTHS: 2 lanes for any target and, on x86, 4 lanes for AVX2 and 8 for
 * AVX-512F through target attributes; simd_lanes() asks the CPU at run
 * time which of them it runs, and the caller passes the width in.  No
 * -march flag is used: it would tie the cached library to the build
 * machine's CPU, and the target attributes already give each width its
 * instructions.  Vector lanes round each IEEE operation exactly as a
 * scalar does, and -ffp-contract=off holds in every target.  Each
 * classifier lane performs cdiv's operations in cdiv's order, so every
 * width gives the labels and counts of the reference on every host; each
 * squared distance is rounded as the scalar one, and a maximum of exactly
 * rounded values does not depend on the order it is taken in, so every
 * width gives the same arc ratios.  Threads claim rows and pairs from one
 * counter per call, so a faster CPU takes more.
 *
 * Complex arrays are interleaved (re, im) doubles; complex scalars are
 * passed and returned as separate doubles.
 */

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

/* for v = 0..3 over the classifier's four vectors, unrolled, so that each
 * vector's state is a register of its own */
#define EACH_VECTOR(v) _Pragma("GCC unroll 4") for (int v = 0; v < 4; v++)

/* The vector widths, as M(lanes, target attribute) for each, and
 * BY_LANES(lanes, f), f's instance for that many lanes. */
#if defined(__x86_64__) || defined(__i386__)
#define WIDTHS(M)                                                                          \
    M(2, ) M(4, __attribute__((target("avx2")))) M(8, __attribute__((target("avx512f"))))
#define BY_LANES(lanes, f) ((lanes) == 8 ? f##_8 : (lanes) == 4 ? f##_4 : f##_2)
#else
#define WIDTHS(M) M(2, )
#define BY_LANES(lanes, f) ((void)(lanes), f##_2)
#endif

/* Escape-time labels (0 inner, 1 outer, 2 undecided) and iteration counts
 * of the rows that the thread claims one by one from *next_row, below h,
 * of the w x h grid whose pixel (ix, iy) is centred at (x0 + (ix + 0.5) dx,
 * y0 + (iy + 0.5) dy), into the row-major labels and iters.  A pixel is
 * labelled at the first iterate k with |z|^2 < r0^2 or |z|^2 > rinf^2, and
 * a non-finite iterate is replaced by 2 rinf.  Rows are independent, so
 * any split of the rows gives the same arrays.
 *
 * classify_rows_L keeps 4 vectors of L lanes in flight, one pixel per
 * lane, and advances all four in one loop body.  Each iterate of a vector
 * is one dependent chain (Horner, two divisions, the trap test); the four
 * chains are independent, so the core overlaps one vector's divisions with
 * the others' work instead of waiting on their latency.  When a lane's
 * pixel is labelled or reaches maxiter, the lane writes it out and takes
 * the next pixel of the rows; one horizontal test of the four vectors'
 * done masks, ORed, finds such lanes.  Lanes left without a pixel at the
 * end idle until the others finish.  Each lane performs cdiv's IEEE
 * operations in cdiv's order: Smith's two branches differ only in which of (br, bi)
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
                                       double r0, double rinf, int64_t *next_row,           \
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
        vd zr[4], zi[4], k[4];                                                             \
        vi live[4], done[4];                                                               \
        int64_t pix[4][L];                                                                 \
        int64_t ix = 0, iy, nlive = 4 * L;                                                 \
        if (w <= 0)                                                                        \
            return;                                                                        \
        iy = __atomic_fetch_add(next_row, 1, __ATOMIC_RELAXED);                            \
        /* every lane starts as a finished pixel that needs no writing */                  \
        EACH_VECTOR(v) {                                                                   \
            zr[v] = zi[v] = k[v] = zero;                                                   \
            live[v] = none;                                                                \
            done[v] = ~none;                                                               \
            for (int l = 0; l < L; l++)                                                    \
                pix[v][l] = -1;                                                            \
        }                                                                                  \
        for (;;) {                                                                         \
            vi either = none;                                                              \
            EACH_VECTOR(v) either |= done[v];                                              \
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
                                iy = __atomic_fetch_add(next_row, 1, __ATOMIC_RELAXED);    \
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
            /* z -> N(z) / D(z) in all four vectors: horner, then cdiv */                  \
            vd nr[4], ni[4], br[4], bi[4];                                                 \
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

WIDTHS(CLASSIFY_ROWS)

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
                   int64_t maxiter, double r0, double rinf, int64_t lanes, int64_t *next_row,
                   uint8_t *labels, uint32_t *iters)
{
    BY_LANES(lanes, classify_rows)(num, nnum, den, nden, x0, y0, dx, dy, w, h, maxiter, r0,
                                   rinf, next_row, labels, iters);
}

/* The lowest (highest = 0) or highest (highest = 1) n <= 8 arc points seen
 * so far, the most extreme first, in a ring: the point of rank r is slot
 * (head + r) & 7.  Points arrive in increasing t and the keys are (x, t), so
 * ties go by position as a stable sort orders them: x ranks before a kept y
 * when x < y at the lowest end and when !(x < y) at the highest, so among
 * equal x the lowest 8 keep the earliest points and the highest 8 the
 * latest.  A point beyond the most extreme takes the slot before the head,
 * which is free or holds the point it evicts, so a monotone run of an arc
 * costs one comparison per point instead of a shift of the whole list.
 * highest is a constant at each call, which inlining folds away. */
typedef struct {
    double key[8];
    int64_t idx[8];
    int head, n;
} extremes;

#define RANK(e, r) (((e)->head + (r)) & 7)
#define BEFORE(x, y, highest) ((highest) ? !((x) < (y)) : (x) < (y))

static inline void keep_extreme(extremes *e, double x, int64_t t, int highest)
{
    int k = e->n;
    if (k == 8) {
        if (!BEFORE(x, e->key[RANK(e, 7)], highest))
            return;
        k = 7;
    } else {
        e->n++;
    }
    if (k == 0 || BEFORE(x, e->key[e->head], highest)) {
        e->head = (e->head + 7) & 7;
        k = 0;
    } else {
        while (k > 0 && BEFORE(x, e->key[RANK(e, k - 1)], highest)) {
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

WIDTHS(ARC_MAX_SQ)

typedef double (*arc_max_sq_fn)(const double *, const double *, int64_t, const double *,
                                const double *, int64_t, double);

/* Diameter estimate of the arc whose point t is pts[(start + t*step) % m],
 * t = 0..len-1 (len < ARC_MAX): the largest distance from any arc point to
 * the 8 lowest and 8 highest points of each axis.  The arc is gathered
 * once into xs, ys and, after the prune below, padded to a multiple of 8,
 * which every lane count divides, with copies of its first kept point,
 * which leave the maximum as it is.  Squared distances are summed in a
 * frame scaled by the power of two 2^k that brings the larger axis range
 * into [0.5, 1) (k clamped to [-1022, 1023]), so that neither narrow nor
 * wide arcs underflow or overflow; the root of the largest is scaled back. */
static double arc_diameter(const double *pts, int64_t m, int64_t start, int64_t step,
                           int64_t len, arc_max_sq_fn max_sq)
{
    double xs[ARC_MAX + 8] __attribute__((aligned(64)));
    double ys[ARC_MAX + 8] __attribute__((aligned(64)));
    extremes ex[4] = {{{0}, {0}, 0, 0}, {{0}, {0}, 0, 0}, {{0}, {0}, 0, 0}, {{0}, {0}, 0, 0}};
    for (int64_t t = 0, q = start; t < len; t++) {
        xs[t] = pts[2 * q];
        ys[t] = pts[2 * q + 1];
        keep_extreme(&ex[0], xs[t], t, 0);
        keep_extreme(&ex[1], xs[t], t, 1);
        keep_extreme(&ex[2], ys[t], t, 0);
        keep_extreme(&ex[3], ys[t], t, 1);
        /* step < m (the uncoarsened arc has at most m / 2 + 1 points), so
         * one subtraction wraps q */
        q += step;
        if (q >= m)
            q -= m;
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
    int64_t n = len;
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
            n = 0;
            for (int64_t t = 0; t < len; t++) {
                double dx = (xs[t] - ox) * scale, dy = (ys[t] - oy) * scale;
                xs[n] = xs[t];
                ys[n] = ys[t];
                n += !(dx * dx + dy * dy < lim2);
            }
        }
    }
    for (; n % 8; n++) {
        xs[n] = xs[0];
        ys[n] = ys[0];
    }
    return sqrt(max_sq(xs, ys, n, cx, cy, nc, scale)) / scale;
}

/* For each vertex pair p < npairs that the thread claims from *next, one at
 * a time, the ratio of the diameter of the shorter arc of the closed
 * polygon pts[0..m) between ii[p] and jj[p] to their chord
 * |pts[ii[p]] - pts[jj[p]]| (hypot), or 0 for a zero chord.  The inner
 * arc lo..hi is taken when hi - lo <= m - (hi - lo), else the outer one
 * hi..m-1, 0..lo; an arc of more than 512 points keeps every
 * (len / 512)-th.  The diameters are taken at lanes = 2 or a wider count
 * up to simd_lanes(), all with the same result.  Pairs are independent,
 * so any split gives the same ratios. */
void arc_ratios(const double *pts, int64_t m, const int64_t *ii, const int64_t *jj,
                int64_t npairs, int64_t lanes, int64_t *next, double *out)
{
    arc_max_sq_fn max_sq = BY_LANES(lanes, arc_max_sq);
    for (int64_t p; (p = __atomic_fetch_add(next, 1, __ATOMIC_RELAXED)) < npairs;) {
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
 * and a strict one-pass reader of that grammar (curve_csv_parse).  The
 * python writer and reader in _reference are the references: they take
 * every row the writer refuses and every text the reader refuses. */

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

/* The reader converts each float token w 10^q, its significand w holding at
 * most 19 significant digits, by the Eisel-Lemire algorithm (Lemire,
 * "Number parsing at a gigabyte per second", Softw. Pract. Exp. 51, 2021):
 * w, shifted to set its top bit, times a 128-bit truncation of 5^q gives
 * the double's 54 leading bits, or says that it cannot settle them, in
 * which case strtod parses that token alone.  Both round correctly, as
 * python's float does, so every accepted value has float's bits. */

#if defined(__SIZEOF_INT128__)
/* 5^q for q in [-64, 64] as the words (hi, lo) of a 128-bit integer with
 * its top bit set, by Lemire's rules:
 *
 *   for q in range(-64, 65):
 *       if q >= 0:
 *           c = 5 ** q
 *           while c < 1 << 127: c *= 2
 *           while c >= 1 << 128: c //= 2
 *       else:
 *           z = (5 ** -q - 1).bit_length()  # the least z with 2^z >= 5^-q
 *           b = z + 127 if q >= -27 else 2 * z + 128
 *           c = 2 ** b // 5 ** -q + 1
 *           while c >= 1 << 128: c //= 2
 *       print("{%#018x, %#018x}," % (c >> 64, c % 2 ** 64))
 */
static const uint64_t POW5[129][2] = {
    {0xa87fea27a539e9a5, 0x3f2398d747b36224}, {0xd29fe4b18e88640e, 0x8eec7f0d19a03aad},
    {0x83a3eeeef9153e89, 0x1953cf68300424ac}, {0xa48ceaaab75a8e2b, 0x5fa8c3423c052dd7},
    {0xcdb02555653131b6, 0x3792f412cb06794d}, {0x808e17555f3ebf11, 0xe2bbd88bbee40bd0},
    {0xa0b19d2ab70e6ed6, 0x5b6aceaeae9d0ec4}, {0xc8de047564d20a8b, 0xf245825a5a445275},
    {0xfb158592be068d2e, 0xeed6e2f0f0d56712}, {0x9ced737bb6c4183d, 0x55464dd69685606b},
    {0xc428d05aa4751e4c, 0xaa97e14c3c26b886}, {0xf53304714d9265df, 0xd53dd99f4b3066a8},
    {0x993fe2c6d07b7fab, 0xe546a8038efe4029}, {0xbf8fdb78849a5f96, 0xde98520472bdd033},
    {0xef73d256a5c0f77c, 0x963e66858f6d4440}, {0x95a8637627989aad, 0xdde7001379a44aa8},
    {0xbb127c53b17ec159, 0x5560c018580d5d52}, {0xe9d71b689dde71af, 0xaab8f01e6e10b4a6},
    {0x9226712162ab070d, 0xcab3961304ca70e8}, {0xb6b00d69bb55c8d1, 0x3d607b97c5fd0d22},
    {0xe45c10c42a2b3b05, 0x8cb89a7db77c506a}, {0x8eb98a7a9a5b04e3, 0x77f3608e92adb242},
    {0xb267ed1940f1c61c, 0x55f038b237591ed3}, {0xdf01e85f912e37a3, 0x6b6c46dec52f6688},
    {0x8b61313bbabce2c6, 0x2323ac4b3b3da015}, {0xae397d8aa96c1b77, 0xabec975e0a0d081a},
    {0xd9c7dced53c72255, 0x96e7bd358c904a21}, {0x881cea14545c7575, 0x7e50d64177da2e54},
    {0xaa242499697392d2, 0xdde50bd1d5d0b9e9}, {0xd4ad2dbfc3d07787, 0x955e4ec64b44e864},
    {0x84ec3c97da624ab4, 0xbd5af13bef0b113e}, {0xa6274bbdd0fadd61, 0xecb1ad8aeacdd58e},
    {0xcfb11ead453994ba, 0x67de18eda5814af2}, {0x81ceb32c4b43fcf4, 0x80eacf948770ced7},
    {0xa2425ff75e14fc31, 0xa1258379a94d028d}, {0xcad2f7f5359a3b3e, 0x096ee45813a04330},
    {0xfd87b5f28300ca0d, 0x8bca9d6e188853fc}, {0x9e74d1b791e07e48, 0x775ea264cf55347e},
    {0xc612062576589dda, 0x95364afe032a819e}, {0xf79687aed3eec551, 0x3a83ddbd83f52205},
    {0x9abe14cd44753b52, 0xc4926a9672793543}, {0xc16d9a0095928a27, 0x75b7053c0f178294},
    {0xf1c90080baf72cb1, 0x5324c68b12dd6339}, {0x971da05074da7bee, 0xd3f6fc16ebca5e04},
    {0xbce5086492111aea, 0x88f4bb1ca6bcf585}, {0xec1e4a7db69561a5, 0x2b31e9e3d06c32e6},
    {0x9392ee8e921d5d07, 0x3aff322e62439fd0}, {0xb877aa3236a4b449, 0x09befeb9fad487c3},
    {0xe69594bec44de15b, 0x4c2ebe687989a9b4}, {0x901d7cf73ab0acd9, 0x0f9d37014bf60a11},
    {0xb424dc35095cd80f, 0x538484c19ef38c95}, {0xe12e13424bb40e13, 0x2865a5f206b06fba},
    {0x8cbccc096f5088cb, 0xf93f87b7442e45d4}, {0xafebff0bcb24aafe, 0xf78f69a51539d749},
    {0xdbe6fecebdedd5be, 0xb573440e5a884d1c}, {0x89705f4136b4a597, 0x31680a88f8953031},
    {0xabcc77118461cefc, 0xfdc20d2b36ba7c3e}, {0xd6bf94d5e57a42bc, 0x3d32907604691b4d},
    {0x8637bd05af6c69b5, 0xa63f9a49c2c1b110}, {0xa7c5ac471b478423, 0x0fcf80dc33721d54},
    {0xd1b71758e219652b, 0xd3c36113404ea4a9}, {0x83126e978d4fdf3b, 0x645a1cac083126ea},
    {0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a4}, {0xcccccccccccccccc, 0xcccccccccccccccd},
    {0x8000000000000000, 0x0000000000000000}, {0xa000000000000000, 0x0000000000000000},
    {0xc800000000000000, 0x0000000000000000}, {0xfa00000000000000, 0x0000000000000000},
    {0x9c40000000000000, 0x0000000000000000}, {0xc350000000000000, 0x0000000000000000},
    {0xf424000000000000, 0x0000000000000000}, {0x9896800000000000, 0x0000000000000000},
    {0xbebc200000000000, 0x0000000000000000}, {0xee6b280000000000, 0x0000000000000000},
    {0x9502f90000000000, 0x0000000000000000}, {0xba43b74000000000, 0x0000000000000000},
    {0xe8d4a51000000000, 0x0000000000000000}, {0x9184e72a00000000, 0x0000000000000000},
    {0xb5e620f480000000, 0x0000000000000000}, {0xe35fa931a0000000, 0x0000000000000000},
    {0x8e1bc9bf04000000, 0x0000000000000000}, {0xb1a2bc2ec5000000, 0x0000000000000000},
    {0xde0b6b3a76400000, 0x0000000000000000}, {0x8ac7230489e80000, 0x0000000000000000},
    {0xad78ebc5ac620000, 0x0000000000000000}, {0xd8d726b7177a8000, 0x0000000000000000},
    {0x878678326eac9000, 0x0000000000000000}, {0xa968163f0a57b400, 0x0000000000000000},
    {0xd3c21bcecceda100, 0x0000000000000000}, {0x84595161401484a0, 0x0000000000000000},
    {0xa56fa5b99019a5c8, 0x0000000000000000}, {0xcecb8f27f4200f3a, 0x0000000000000000},
    {0x813f3978f8940984, 0x4000000000000000}, {0xa18f07d736b90be5, 0x5000000000000000},
    {0xc9f2c9cd04674ede, 0xa400000000000000}, {0xfc6f7c4045812296, 0x4d00000000000000},
    {0x9dc5ada82b70b59d, 0xf020000000000000}, {0xc5371912364ce305, 0x6c28000000000000},
    {0xf684df56c3e01bc6, 0xc732000000000000}, {0x9a130b963a6c115c, 0x3c7f400000000000},
    {0xc097ce7bc90715b3, 0x4b9f100000000000}, {0xf0bdc21abb48db20, 0x1e86d40000000000},
    {0x96769950b50d88f4, 0x1314448000000000}, {0xbc143fa4e250eb31, 0x17d955a000000000},
    {0xeb194f8e1ae525fd, 0x5dcfab0800000000}, {0x92efd1b8d0cf37be, 0x5aa1cae500000000},
    {0xb7abc627050305ad, 0xf14a3d9e40000000}, {0xe596b7b0c643c719, 0x6d9ccd05d0000000},
    {0x8f7e32ce7bea5c6f, 0xe4820023a2000000}, {0xb35dbf821ae4f38b, 0xdda2802c8a800000},
    {0xe0352f62a19e306e, 0xd50b2037ad200000}, {0x8c213d9da502de45, 0x4526f422cc340000},
    {0xaf298d050e4395d6, 0x9670b12b7f410000}, {0xdaf3f04651d47b4c, 0x3c0cdd765f114000},
    {0x88d8762bf324cd0f, 0xa5880a69fb6ac800}, {0xab0e93b6efee0053, 0x8eea0d047a457a00},
    {0xd5d238a4abe98068, 0x72a4904598d6d880}, {0x85a36366eb71f041, 0x47a6da2b7f864750},
    {0xa70c3c40a64e6c51, 0x999090b65f67d924}, {0xd0cf4b50cfe20765, 0xfff4b4e3f741cf6d},
    {0x82818f1281ed449f, 0xbff8f10e7a8921a4}, {0xa321f2d7226895c7, 0xaff72d52192b6a0d},
    {0xcbea6f8ceb02bb39, 0x9bf4f8a69f764490}, {0xfee50b7025c36a08, 0x02f236d04753d5b4},
    {0x9f4f2726179a2245, 0x01d762422c946590}, {0xc722f0ef9d80aad6, 0x424d3ad2b7b97ef5},
    {0xf8ebad2b84e0d58b, 0xd2e0898765a7deb2}, {0x9b934c3b330c8577, 0x63cc55f49f88eb2f},
    {0xc2781f49ffcfa6d5, 0x3cbf6b71c76b25fb}
};
#endif

/* +-w 10^q, w > 0, as the nearest double into *x, ties to even; 0 where
 * the algorithm cannot settle it: q outside the table, a product whose low
 * word is all ones outside q in [-27, 55] (where the truncated power may
 * have moved it across a rounding boundary), a result below the normal
 * range or past DBL_MAX, and every w without 128-bit integers. */
static int eisel_lemire(uint64_t w, int64_t q, int neg, double *x)
{
#if defined(__SIZEOF_INT128__)
    typedef unsigned __int128 u128;
    if (q < -64 || q > 64)
        return 0;
    int lz = __builtin_clzll(w);
    w <<= lz;
    const uint64_t *t = POW5[q + 64];
    u128 p = (u128)w * t[0];
    uint64_t hi = (uint64_t)(p >> 64), lo = (uint64_t)p;
    /* the 9 bits below the 55 that rounding reads are all ones: the low
     * word's product may carry into them */
    if ((hi & 0x1FF) == 0x1FF) {
        uint64_t c = (uint64_t)(((u128)w * t[1]) >> 64);
        lo += c;
        hi += lo < c;
    }
    if (lo == UINT64_MAX && (q < -27 || q > 55))
        return 0;
    int top = (int)(hi >> 63), shift = top + 9;
    uint64_t m = hi >> shift;
    /* the biased exponent: floor(q log2 10) + 63 from the table's
     * normalisation, less w's shift */
    int64_t e2 = ((217706 * q) >> 16) + 63 + top - lz + 1023;
    if (e2 <= 0)
        return 0;
    /* exactly halfway, which only q in [-4, 23] can be: round to even */
    if (lo <= 1 && q >= -4 && q <= 23 && (m & 3) == 1 && (m << shift) == hi)
        m &= ~(uint64_t)1;
    m = (m + (m & 1)) >> 1;
    if (m >> 53) {
        m >>= 1;
        e2++;
    }
    if (e2 >= 2047)
        return 0;
    uint64_t bits = (uint64_t)neg << 63 | (uint64_t)e2 << 52 | (m & ((1ULL << 52) - 1));
    memcpy(x, &bits, sizeof bits);
    return 1;
#else
    (void)w;
    (void)q;
    (void)neg;
    (void)x;
    return 0;
#endif
}

#define IS_DIGIT(c) ((unsigned)((c) - '0') < 10)

/* The k of a token -?[0-9]+ at s within int64 into *k, if ',' follows it;
 * the ',', else NULL. */
static const char *read_k(const char *s, const char *end, int64_t *k)
{
    int neg = s < end && *s == '-';
    const char *p = s + neg, *d = p;
    uint64_t v = 0, most = (uint64_t)INT64_MAX + neg;
    for (; p < end && IS_DIGIT(*p); p++) {
        unsigned dig = (unsigned)(*p - '0');
        if (v > (most - dig) / 10)
            return NULL;
        v = 10 * v + dig;
    }
    if (p == d || !(p < end && *p == ','))
        return NULL;
    *k = neg ? (int64_t)(0 - v) : (int64_t)v;
    return p;
}

/* The finite double of a token -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)? at s into
 * *x, if sep follows it; sep, else NULL.  One pass checks the grammar and
 * reads w 10^q: w of the significant digits, with nd their count, and q
 * less one per fraction digit plus the exponent.  w = 0 gives +-0.0;
 * nd > 19, or w 10^q that eisel_lemire does not settle, goes to strtod. */
static const char *read_float(const char *s, const char *end, char sep, double *x)
{
    int neg = s < end && *s == '-';
    const char *p = s + neg, *d = p;
    uint64_t w = 0;
    int64_t q = 0;
    int nd = 0;
    for (; p < end && IS_DIGIT(*p); p++)
        if (nd || *p != '0')
            w = nd++ < 19 ? 10 * w + (uint64_t)(*p - '0') : w;
    if (p == d)
        return NULL;
    if (p < end && *p == '.') {
        for (d = ++p; p < end && IS_DIGIT(*p); p++, q--)
            if (nd || *p != '0')
                w = nd++ < 19 ? 10 * w + (uint64_t)(*p - '0') : w;
        if (p == d)
            return NULL;
    }
    if (p < end && *p == 'e') {
        p++;
        if (!(p < end && (*p == '+' || *p == '-')))
            return NULL;
        int eneg = *p++ == '-';
        int64_t e = 0;
        for (d = p; p < end && IS_DIGIT(*p); p++)
            e = e < 100000 ? 10 * e + (*p - '0') : e;
        if (p == d)
            return NULL;
        /* an exponent of 100000 or more counts as 2^62, which keeps q
         * outside the table whatever the fraction's length */
        e = e < 100000 ? e : INT64_C(1) << 62;
        q += eneg ? -e : e;
    }
    if (!(p < end && *p == sep))
        return NULL;
    if (nd == 0) {
        *x = neg ? -0.0 : 0.0;
    } else if (nd > 19 || !eisel_lemire(w, q, neg, x)) {
        char *e;
        *x = strtod(s, &e);
        if (e != p || !isfinite(*x))
            return NULL;
    }
    return p;
}

/* The n rows of text[start..len), each "k,angle,re,im\n" with k a
 * -?[0-9]+ within int64 (read_k) and three finite floats of read_float's
 * grammar, into ks and the columns cols[0..n), cols[n..2n), cols[2n..3n).
 * Returns n, or -1 at the first line outside that grammar, or if text
 * holds more than n lines.  text is NUL-terminated after len (a python
 * bytes object), which strtod needs. */
int64_t curve_csv_parse(const char *text, int64_t start, int64_t len, int64_t n, int64_t *ks,
                        double *cols)
{
    const char *s = text + start, *end = text + len;
    for (int64_t i = 0; i < n; i++) {
        if (!(s = read_k(s, end, ks + i)))
            return -1;
        for (int c = 0; c < 3; c++)
            if (!(s = read_float(s + 1, end, c < 2 ? ',' : '\n', cols + c * n + i)))
                return -1;
        s++;
    }
    return s == end ? n : -1;
}
