/* The full-grid passes of the box layer.
 *
 *   cw_box_mode_sums  the block sums of critwave.modulation.box_mode_integrals
 *   cw_box_h1_sq      the sum of |grad f|^2 of critwave.grids.Box3DGrid.h1_sq
 *   cw_box_cross      the sum of grad f . grad W_sigma(. - c) of
 *                     critwave.modulation._box_cross
 *
 * Each is bitwise the numpy code it replaced, which tests/test_box.py keeps
 * as the oracle: every term is formed in numpy's operation order, and every
 * sum is numpy's pairwise summation of the terms in the order numpy read
 * them (``pairwise``).  The terms of each leaf of that summation are formed
 * on the fly, so no pass allocates a cube or a block of temporaries.  The
 * library is built with -ffp-contract=off and without -ffast-math, so no
 * multiply and add are fused and no sum is reassociated.
 *
 * The gradient is Box3DGrid.gradient's: along each axis the five-point
 * stencil ((((f[a+1] - f[a-1]) 8) + f[a-2]) - f[a+2]) / (12 dx) on the
 * interior nodes and the one-sided 6-node rows lo (nodes 0 and 1) and hi
 * (nodes m-2 and m-1) on the edge nodes.  np.einsum contracts an x or a y
 * edge row in order from the first node, but a z row, whose six samples
 * are contiguous, as ((p0 + p2) + p4) + ((p1 + p3) + p5) with p_j the j-th
 * product.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

void cw_spline(ptrdiff_t n, const double *r, ptrdiff_t n_x, const double *x,
               ptrdiff_t k, const double *coef, double inv_h, double *out);

/* numpy's PW_BLOCKSIZE: the longest run that one leaf sums */
enum { LEAF = 128 };

/* Writes the terms lo, ..., lo + n - 1 (n <= LEAF) of up to four sums into
 * t[j LEAF + q], the term lo + q of sum j. */
typedef void terms_fn(const void *ctx, ptrdiff_t lo, ptrdiff_t n, double *t);

/* numpy's sum of a leaf: fewer than 8 values in order, otherwise 8
 * accumulators over the multiples of 8, combined as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in order */
static double leaf_sum(const double *t, ptrdiff_t n)
{
    double r[8], res = -0.0;
    ptrdiff_t i, j;
    if (n < 8) {
        for (i = 0; i < n; i++)
            res += t[i];
        return res;
    }
    for (j = 0; j < 8; j++)
        r[j] = t[j];
    for (i = 8; i < n - n % 8; i += 8)
        for (j = 0; j < 8; j++)
            r[j] += t[i + j];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += t[i];
    return res;
}

/* out[j] for j < k: numpy's pairwise sum of the terms lo, ..., lo + n - 1
 * of sum j; a run longer than a leaf splits at n/2 - (n/2 mod 8).  np.sum
 * adds this to its identity, so each caller returns 0.0 + out[j]. */
static void pairwise(terms_fn *terms, const void *ctx, int k, ptrdiff_t lo,
                     ptrdiff_t n, double *out)
{
    int j;
    if (n <= LEAF) {
        double t[4 * LEAF];
        terms(ctx, lo, n, t);
        for (j = 0; j < k; j++)
            out[j] = leaf_sum(t + j * LEAF, n);
    } else {
        double a[4], b[4];
        ptrdiff_t n2 = n / 2;
        n2 -= n2 % 8;
        pairwise(terms, ctx, k, lo, n2, a);
        pairwise(terms, ctx, k, lo + n2, n - n2, b);
        for (j = 0; j < k; j++)
            out[j] = a[j] + b[j];
    }
}

/* np.maximum(rr, 1e-300), NaN kept */
static double floor_radius(double rr)
{
    return rr < 1e-300 ? 1e-300 : rr;
}

/* ---- the mode integrals ------------------------------------------------ */

struct modes {
    const int16_t *i, *j, *k;   /* axis indices of the nodes */
    const double *u, *axis;     /* values at the nodes; the grid's axis */
    double c[3], es, amp, amp_es;
    ptrdiff_t n_x, k_cols;      /* the mode-pair spline (cw_spline's) */
    const double *x, *coef;
    double inv_h;
};

/* u Lambda_0 and u (slope d_j) at nodes lo.. of the set: box_mode_parts at
 * the displacements d_j = axis[idx_j] - c_j */
static void mode_terms(const void *ctx, ptrdiff_t lo, ptrdiff_t n, double *t)
{
    const struct modes *b = ctx;
    double d[3][LEAF], rr[LEAF], r[LEAF], pair[2 * LEAF];
    ptrdiff_t q;
    int j;
    for (q = 0; q < n; q++) {
        d[0][q] = b->axis[b->i[lo + q]] - b->c[0];
        d[1][q] = b->axis[b->j[lo + q]] - b->c[1];
        d[2][q] = b->axis[b->k[lo + q]] - b->c[2];
        rr[q] = sqrt((d[0][q] * d[0][q] + d[1][q] * d[1][q])
                     + d[2][q] * d[2][q]);
        r[q] = b->es * rr[q];
    }
    cw_spline(n, r, b->n_x, b->x, b->k_cols, b->coef, b->inv_h, pair);
    for (q = 0; q < n; q++) {
        double u = b->u[lo + q];
        double slope = (b->amp_es * pair[n + q]) / floor_radius(rr[q]);
        t[q] = u * (b->amp * pair[q]);
        for (j = 0; j < 3; j++)
            t[(j + 1) * LEAF + q] = u * (slope * d[j][q]);
    }
}

/* out[4 b + j], for each block b of `block` nodes: the sums over the block
 * of u Lambda_0 rho (j = 0) and u d_j rho (j = 1..3), the modes transported
 * to (sigma, c) with es = e^sigma, amp = e^(5 sigma / 2), amp_es = amp es;
 * the spline pieces are those of the two-column mode pair (k_cols = 2) */
void cw_box_mode_sums(ptrdiff_t n, const int16_t *i, const int16_t *j,
                      const int16_t *k, const double *u, const double *axis,
                      double c0, double c1, double c2, double es, double amp,
                      double amp_es, ptrdiff_t n_x, const double *x,
                      ptrdiff_t k_cols, const double *coef, double inv_h,
                      ptrdiff_t block, double *out)
{
    struct modes b = {i, j, k, u, axis, {c0, c1, c2}, es, amp, amp_es, n_x,
                      k_cols, x, coef, inv_h};
    ptrdiff_t lo, q;
    int s;
    for (lo = 0, q = 0; lo < n; lo += block, q++) {
        pairwise(mode_terms, &b, 4, lo, n - lo < block ? n - lo : block,
                 out + 4 * q);
        for (s = 0; s < 4; s++)
            out[4 * q + s] = 0.0 + out[4 * q + s];
    }
}

/* ---- the gradient passes ----------------------------------------------- */

struct cube {
    ptrdiff_t m;
    const double *f;            /* the samples, C order */
    const double *lo, *hi;      /* the edge rows, 2 x 6 each */
    double inv;                 /* 1 / (12 dx) */
    const double *axis;         /* the cross term: W_sigma(. - c) */
    double c[3], es, amp;
};

/* the derivative along an x or y axis (stride s) at the len consecutive
 * nodes from p, whose index along that axis is a */
static void deriv_xy(const struct cube *b, const double *p, ptrdiff_t len,
                     ptrdiff_t a, ptrdiff_t s, double *g)
{
    const ptrdiff_t m = b->m;
    ptrdiff_t q;
    if (a >= 2 && a < m - 2) {
        for (q = 0; q < len; q++)
            g[q] = ((((p[q + s] - p[q - s]) * 8.0) + p[q - 2 * s])
                    - p[q + 2 * s]) * b->inv;
    } else {
        const double *w = a < 2 ? b->lo + 6 * a : b->hi + 6 * (a - (m - 2));
        const double *f = p - (a < 2 ? a : a - (m - 6)) * s;
        for (q = 0; q < len; q++)
            g[q] = ((((w[0] * f[q] + w[1] * f[q + s]) + w[2] * f[q + 2 * s])
                     + w[3] * f[q + 3 * s]) + w[4] * f[q + 4 * s])
                   + w[5] * f[q + 5 * s];
    }
}

/* the z-derivative at the z-indices k0, ..., k0 + len - 1 of the row that
 * starts at row */
static void deriv_z(const struct cube *b, const double *row, ptrdiff_t k0,
                    ptrdiff_t len, double *g)
{
    const ptrdiff_t m = b->m, k1 = k0 + len;
    const ptrdiff_t top = k1 < m - 2 ? k1 : m - 2;
    const double *w, *f;
    ptrdiff_t k;
    for (k = k0; k < k1 && k < 2; k++) {
        w = b->lo + 6 * k;
        g[k - k0] = ((w[0] * row[0] + w[2] * row[2]) + w[4] * row[4])
                    + ((w[1] * row[1] + w[3] * row[3]) + w[5] * row[5]);
    }
    for (; k < top; k++)
        g[k - k0] = ((((row[k + 1] - row[k - 1]) * 8.0) + row[k - 2])
                     - row[k + 2]) * b->inv;
    for (; k < k1; k++) {
        w = b->hi + 6 * (k - (m - 2));
        f = row + m - 6;
        g[k - k0] = ((w[0] * f[0] + w[2] * f[2]) + w[4] * f[4])
                    + ((w[1] * f[1] + w[3] * f[3]) + w[5] * f[5]);
    }
}

/* the gradient at the len nodes of one z-row from the node (i, j, k) */
static void run_gradient(const struct cube *b, ptrdiff_t i, ptrdiff_t j,
                         ptrdiff_t k, ptrdiff_t len, double *gx, double *gy,
                         double *gz)
{
    const ptrdiff_t m = b->m;
    const double *row = b->f + (i * m + j) * m;
    deriv_xy(b, row + k, len, i, m * m, gx);
    deriv_xy(b, row + k, len, j, m, gy);
    deriv_z(b, row, k, len, gz);
}

/* the length of the z-run of the flat nodes p, ..., p + n - 1 from p, and
 * the node (i, j, k) of p */
static ptrdiff_t z_run(ptrdiff_t m, ptrdiff_t p, ptrdiff_t n, ptrdiff_t *i,
                       ptrdiff_t *j, ptrdiff_t *k)
{
    *k = p % m;
    *j = (p / m) % m;
    *i = p / (m * m);
    return m - *k < n ? m - *k : n;
}

static void h1_terms(const void *ctx, ptrdiff_t lo, ptrdiff_t n, double *t)
{
    const struct cube *b = ctx;
    double gx[LEAF], gy[LEAF], gz[LEAF];
    ptrdiff_t q, len, i, j, k;
    for (q = 0; q < n; q += len) {
        len = z_run(b->m, lo + q, n - q, &i, &j, &k);
        run_gradient(b, i, j, k, len, gx + q, gy + q, gz + q);
    }
    for (q = 0; q < n; q++)
        t[q] = (gx[q] * gx[q] + gy[q] * gy[q]) + gz[q] * gz[q];
}

/* grad f . grad W_sigma(. - c) = slope (grad f . (x - c)), with
 * slope = amp W'(es rr) / rr and W' as critwave.fields.eval_W_dr(3, .) */
static void cross_terms(const void *ctx, ptrdiff_t lo, ptrdiff_t n,
                        double *t)
{
    const struct cube *b = ctx;
    double gx[LEAF], gy[LEAF], gz[LEAF];
    ptrdiff_t q, e, len, i, j, k;
    for (q = 0; q < n; q += len) {
        double dx, dy;
        len = z_run(b->m, lo + q, n - q, &i, &j, &k);
        run_gradient(b, i, j, k, len, gx + q, gy + q, gz + q);
        dx = b->axis[i] - b->c[0];
        dy = b->axis[j] - b->c[1];
        for (e = 0; e < len; e++) {
            double dz = b->axis[k + e] - b->c[2];
            double rr = sqrt((dx * dx + dy * dy) + dz * dz);
            double s = b->es * rr, h = s * s, hp, w, slope;
            h /= 3.0;
            h += 1.0;
            hp = sqrt(h);
            hp *= h;
            w = s * (-1.0 / 3.0);
            w /= hp;
            slope = (b->amp * w) / floor_radius(rr);
            t[q + e] = ((gx[q + e] * slope) * dx + (gy[q + e] * slope) * dy)
                       + (gz[q + e] * slope) * dz;
        }
    }
}

/* the sum, over the m^3 nodes of f in C order, of |grad f|^2 */
double cw_box_h1_sq(ptrdiff_t m, const double *f, const double *lo,
                    const double *hi, double inv)
{
    struct cube b = {m, f, lo, hi, inv, NULL, {0.0, 0.0, 0.0}, 0.0, 0.0};
    double s;
    pairwise(h1_terms, &b, 1, 0, m * m * m, &s);
    return 0.0 + s;
}

/* the sum, over the m^3 nodes of f in C order, of grad f . grad W_sigma at
 * x - c, with es = e^sigma and amp = e^(3 sigma / 2) */
double cw_box_cross(ptrdiff_t m, const double *f, const double *lo,
                    const double *hi, double inv, const double *axis,
                    double c0, double c1, double c2, double es, double amp)
{
    struct cube b = {m, f, lo, hi, inv, axis, {c0, c1, c2}, es, amp};
    double s;
    pairwise(cross_terms, &b, 1, 0, m * m * m, &s);
    return 0.0 + s;
}
