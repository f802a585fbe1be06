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
 * reference's.  Each entry point starts from the force at its entry state
 * and carries it from step to step; the caller owns the two work arrays of
 * n doubles, a (the force) and q (u^2), and the step account of a run,
 * which every advance() stride adds to.
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

/* pairs of doubles, for the loops that gcc and clang do not vectorize on
 * their own; memcpy loads and stores them at any alignment */
typedef double f64x2 __attribute__((vector_size(16)));
typedef long long i64x2 __attribute__((vector_size(16)));

/* u^2 = w^2 / r^2 into q; returns its maximum, NaN when any u^2 is NaN (as
 * numpy's max).  The NaN test runs on pairs beside the division; the
 * maximum, exact in any order, in four running maxima after it. */
static double square_u(ptrdiff_t n, const double *w, const double *r_sq,
                       double *q)
{
    double m0 = -INFINITY, m1 = -INFINITY, m2 = -INFINITY, m3 = -INFINITY;
    i64x2 nan = {0, 0};
    f64x2 x, r, u;
    ptrdiff_t i;
    for (i = 0; i + 1 < n; i += 2) {
        memcpy(&x, w + i, sizeof x);
        memcpy(&r, r_sq + i, sizeof r);
        u = (x * x) / r;
        memcpy(q + i, &u, sizeof u);
        nan |= u != u;
    }
    for (; i < n; i++) {
        q[i] = (w[i] * w[i]) / r_sq[i];
        nan[0] |= q[i] != q[i];
    }
    for (i = 0; i + 3 < n; i += 4) {
        m0 = q[i] > m0 ? q[i] : m0;
        m1 = q[i + 1] > m1 ? q[i + 1] : m1;
        m2 = q[i + 2] > m2 ? q[i + 2] : m2;
        m3 = q[i + 3] > m3 ? q[i + 3] : m3;
    }
    for (; i < n; i++)
        m0 = q[i] > m0 ? q[i] : m0;
    m0 = m1 > m0 ? m1 : m0;
    m2 = m3 > m2 ? m3 : m2;
    m0 = m2 > m0 ? m2 : m0;
    return (nan[0] | nan[1]) ? NAN : m0;
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
static double force(ptrdiff_t n, const double *w, const double *v, double *a,
                    double *q, const double *r_sq, double h, double c)
{
    double m = square_u(n, w, r_sq, q);
    ptrdiff_t i;
    a[0] = (-46.0 * w[0] + 17.0 * w[1] - w[2]) * c + nonlinear(w[0], q[0]);
    a[1] = (17.0 * w[0] - 30.0 * w[1] + 16.0 * w[2] - w[3]) * c
        + nonlinear(w[1], q[1]);
    for (i = 2; i < n - 2; i++)
        a[i] = (-w[i - 2] + 16.0 * w[i - 1] - 30.0 * w[i] + 16.0 * w[i + 1]
                - w[i + 2]) * c + nonlinear(w[i], q[i]);
    a[n - 2] = (w[n - 3] - 2.0 * w[n - 2] + w[n - 1]) / (h * h)
        + nonlinear(w[n - 2], q[n - 2]);
    a[n - 1] = outgoing_row(n, w, v, q, h);
    return m;
}

/* One step in place.  a holds the force at w of the entry or of the
 * previous step (there at v_half) and q the u^2 of w; the outgoing row of a
 * is refreshed with the current v first, which makes a exactly force(w, v).
 * Returns max u^2 of the new w. */
static double step(ptrdiff_t n, double *w, double *v, double *a, double *q,
                   const double *r_sq, double h, double c, double dt)
{
    double half = 0.5 * dt;
    double m;
    ptrdiff_t i;
    a[n - 1] = outgoing_row(n, w, v, q, h);
    for (i = 0; i < n; i++) {
        v[i] += a[i] * half;
        w[i] += v[i] * dt;
    }
    m = force(n, w, v, a, q, r_sq, h, c);
    for (i = 0; i < n; i++)
        v[i] += a[i] * half;
    return m;
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
