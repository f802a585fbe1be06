/* Velocity-Verlet stepper of critwave.evolve.RadialWaveEvolver.
 *
 * w_tt = w_rr + w^5 / r^4 on a uniform cell-centred grid of n >= 5 nodes:
 * the five-point Laplacian inside, the odd-parity fold across r = 0 in the
 * first two rows, a second-order row at n - 2 and the first-order outgoing
 * closure at n - 1, the only row that reads the velocity.
 *
 * Every expression keeps the evaluation order of the numpy reference stepper
 * (tests/test_evolve.py), and the library is built with -ffp-contract=off,
 * so no multiply and add are fused and every result is bitwise the
 * reference's.  A step is one sweep over the nodes in chunks that stay in
 * the L1 data cache (step() below), which does at each node what the
 * reference's kick, drift, force and kick passes do, in their order.  Each
 * entry point starts from the force at its entry state and carries it from
 * step to step; the caller owns the two work arrays of n doubles, a (the
 * force) and q (u^2), and the step account of a run, which every advance()
 * stride adds to.
 */

#include <math.h>
#include <stddef.h>
#include <string.h>

enum { STOP_TARGET = 0, STOP_FLOOR = 1, STOP_OVERFLOW = 2 };

/* What the advance() strides of a run did, summed over them: the steps
 * taken, the steps whose nonlinear dt cap was below dt0, and the smallest
 * dt taken (the caller starts it at inf). */
typedef struct {
    double min_dt;
    long long steps;
    long long capped;
} cw_stride;

static double nonlinear(double w, double u_sq)
{
    return w * u_sq * u_sq;
}

/* eight doubles, for the loop that gcc and clang do not vectorize on their
 * own; memcpy loads and stores them at any alignment, and a target without
 * vectors of that width takes each operation in narrower parts, lane by
 * lane, to the same bits */
typedef double f64x8 __attribute__((vector_size(64)));
typedef long long i64x8 __attribute__((vector_size(64)));

/* The maximum of u^2 over the nodes added so far, in eight lanes (the
 * maximum is exact in any order), and a NaN flag per lane. */
typedef struct {
    f64x8 m;
    i64x8 nan;
} peak;

static peak peak_start(void)
{
    peak p = {.nan = {0}};
    int k;
    for (k = 0; k < 8; k++)
        p.m[k] = -INFINITY;
    return p;
}

/* max u^2 of the nodes added, NaN when any u^2 is NaN (as numpy's max) */
static double peak_value(const peak *p)
{
    double m = -INFINITY;
    long long nan = 0;
    int k;
    for (k = 0; k < 8; k++) {
        m = p->m[k] > m ? p->m[k] : m;
        nan |= p->nan[k];
    }
    return nan ? NAN : m;
}

/* Over the nodes lo <= i < hi: when kick is set, v += a dt / 2 and
 * w += v dt; then u^2 = w^2 / r^2 into q, added to p (m = u^2 > m ? u^2 : m
 * in each lane). */
static void kick_drift_square(ptrdiff_t lo, ptrdiff_t hi, int kick,
                              double *restrict w, double *restrict v,
                              const double *restrict a,
                              const double *restrict r_sq, double *restrict q,
                              double half, double dt, peak *p)
{
    f64x8 x, y, r, u;
    i64x8 up;
    ptrdiff_t i;
    for (i = lo; i + 7 < hi; i += 8) {
        memcpy(&x, w + i, sizeof x);
        if (kick) {
            memcpy(&y, v + i, sizeof y);
            memcpy(&u, a + i, sizeof u);
            y += u * half;
            x += y * dt;
            memcpy(v + i, &y, sizeof y);
            memcpy(w + i, &x, sizeof x);
        }
        memcpy(&r, r_sq + i, sizeof r);
        u = (x * x) / r;
        memcpy(q + i, &u, sizeof u);
        up = u > p->m;
        p->m = (f64x8)(((i64x8)u & up) | ((i64x8)p->m & ~up));
        p->nan |= u != u;
    }
    for (; i < hi; i++) {
        if (kick) {
            v[i] += a[i] * half;
            w[i] += v[i] * dt;
        }
        q[i] = (w[i] * w[i]) / r_sq[i];
        p->m[0] = q[i] > p->m[0] ? q[i] : p->m[0];
        p->nan[0] |= q[i] != q[i];
    }
}

/* a[i] for lo <= i < hi <= n - 1: the fold rows 0 and 1, the five-point
 * rows and the second-order row n - 2, each plus w^5 / r^4; q holds u^2
 * of w on the rows and w on their stencils */
static void inner_rows(ptrdiff_t n, ptrdiff_t lo, ptrdiff_t hi,
                       const double *restrict w, const double *restrict q,
                       double *restrict a, double h, double c)
{
    ptrdiff_t i = lo, top = hi < n - 2 ? hi : n - 2;
    if (i == 0 && i < hi) {
        a[0] = (-46.0 * w[0] + 17.0 * w[1] - w[2]) * c
            + nonlinear(w[0], q[0]);
        i++;
    }
    if (i == 1 && i < hi) {
        a[1] = (17.0 * w[0] - 30.0 * w[1] + 16.0 * w[2] - w[3]) * c
            + nonlinear(w[1], q[1]);
        i++;
    }
    for (; i < top; i++)
        a[i] = (-w[i - 2] + 16.0 * w[i - 1] - 30.0 * w[i] + 16.0 * w[i + 1]
                - w[i + 2]) * c + nonlinear(w[i], q[i]);
    if (i == n - 2 && i < hi)
        a[n - 2] = (w[n - 3] - 2.0 * w[n - 2] + w[n - 1]) / (h * h)
            + nonlinear(w[n - 2], q[n - 2]);
}

/* a[n - 1]: the outgoing closure, whose ghost follows from
 * (d_t + d_r) w = 0 at the last node, plus w^5 / r^4; q holds u^2 of w */
static double outgoing_row(ptrdiff_t n, const double *w, const double *v,
                           const double *q, double h)
{
    double wl = w[n - 1];
    double lin = (2.0 * w[n - 2] - 2.0 * wl - 2.0 * h * v[n - 1]) / (h * h);
    return lin + nonlinear(wl, q[n - 1]);
}

/* The acceleration at (w, v) into a, with u^2 into q; returns max u^2. */
static double force(ptrdiff_t n, double *w, const double *v, double *a,
                    double *q, const double *r_sq, double h, double c)
{
    peak p = peak_start();
    kick_drift_square(0, n, 0, w, NULL, NULL, r_sq, q, 0.0, 0.0, &p);
    inner_rows(n, 0, n - 1, w, q, a, h, c);
    a[n - 1] = outgoing_row(n, w, v, q, h);
    return peak_value(&p);
}

/* nodes per chunk of a step's sweep: the chunk's five arrays, 40 bytes a
 * node, stay in a 48 KiB L1 data cache */
enum { CHUNK = 512 };

/* One step in place, in one sweep over chunks of CHUNK nodes.  a holds the
 * force at w of the entry or of the previous step (there at v_half) and q
 * the u^2 of w; the outgoing row of a is refreshed with the current v
 * first, which makes a exactly force(w, v).  Each chunk kicks and drifts
 * its nodes and takes their u^2, its NaN flag and its maximum; then, two
 * nodes behind, where the new w of every stencil node is known, it takes
 * the stencil, the nonlinearity and the second kick, and after the last
 * chunk the rows up to n - 1.  Every node sees the operations of separate
 * kick, drift, force and kick passes in their order, so the step is
 * bitwise theirs.  Returns max u^2 of the new w. */
static double step(ptrdiff_t n, double *restrict w, double *restrict v,
                   double *restrict a, double *restrict q,
                   const double *restrict r_sq, double h, double c,
                   double dt)
{
    double half = 0.5 * dt;
    ptrdiff_t lo, hi, i, done = 0;
    peak p = peak_start();
    a[n - 1] = outgoing_row(n, w, v, q, h);
    for (lo = 0; lo < n; lo = hi) {
        hi = n - lo > CHUNK ? lo + CHUNK : n;
        kick_drift_square(lo, hi, 1, w, v, a, r_sq, q, half, dt, &p);
        /* the force is known up to two nodes before the chunk's end, and
         * at every node after the last chunk */
        i = hi == n ? n : hi - 2;
        inner_rows(n, done, i < n - 1 ? i : n - 1, w, q, a, h, c);
        if (i == n)
            a[n - 1] = outgoing_row(n, w, v, q, h);
        for (; done < i; done++)
            v[done] += a[done] * half;
    }
    return peak_value(&p);
}

/* Python's min(dt0, 0.35 / max(sqrt(5) amp^2, 1e-300)) */
static double nl_dt_cap(double amp, double dt0)
{
    double omega = sqrt(5.0) * amp * amp;
    double cap = 0.35 / (1e-300 > omega ? 1e-300 : omega);
    return cap < dt0 ? cap : dt0;
}

void cw_steps(ptrdiff_t n, double *w, double *v, double *a, double *q,
              const double *r_sq, double h, double c, long long count,
              double dt)
{
    long long k;
    force(n, w, v, a, q, r_sq, h, c);
    for (k = 0; k < count; k++)
        step(n, w, v, a, q, r_sq, h, c, dt);
}

/* Steps from *t to t_target under the nonlinear dt cap, as
 * RadialWaveEvolver.advance describes, leaving the time reached in *t and
 * adding the stride's steps to the account acc; returns the stop code. */
int cw_advance(ptrdiff_t n, double *w, double *v, double *a, double *q,
               const double *r_sq, double h, double c, double dt0,
               double dt_floor, double max_amp, double *t, double t_target,
               cw_stride *acc)
{
    double amp = sqrt(force(n, w, v, a, q, r_sq, h, c));
    double cap, dt, rest;
    int stop;
    for (;;) {
        if (!(amp <= max_amp)) {
            stop = STOP_OVERFLOW;
            break;
        }
        if (*t >= t_target - 1e-12) {
            stop = STOP_TARGET;
            break;
        }
        cap = nl_dt_cap(amp, dt0);
        if (cap < dt_floor) {
            stop = STOP_FLOOR;
            break;
        }
        rest = t_target - *t;
        dt = rest < cap ? rest : cap;
        amp = sqrt(step(n, w, v, a, q, r_sq, h, c, dt));
        *t += dt;
        acc->steps++;
        acc->capped += cap < dt0;
        if (dt < acc->min_dt)
            acc->min_dt = dt;
    }
    return stop;
}
