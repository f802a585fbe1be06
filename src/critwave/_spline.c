/* Pointwise evaluation of critwave.fields.UniformSpline.
 *
 * k cubic splines share the uniform nodes x[0] < ... < x[n_x - 1]; the
 * coefficients of interval i, column j are coef[(i k + j) 4 + m], highest
 * power first (m = 0 multiplies s^3, m = 3 is the constant), as scipy's
 * CubicSpline stores them.  Each point r is evaluated at |r| (the profiles
 * are mirrored through the origin), in the order of the numpy lookup it
 * replaced (tests/test_fields_io.py keeps it as the reference): the interval
 * i = floor((|r| - x[0]) / h), computed as (|r| - x[0]) * inv_h, clamped to
 * the last interval, one correction step to scipy's rule
 * x[i] <= |r| < x[i + 1] (the node rounding moves the floor by at most one
 * interval), the clamp again, and each column as
 * ((c2 s + c3) + c1 s^2) + c0 s^3 with s = |r| - x[i].  The library is built
 * with -ffp-contract=off, so no multiply and add are fused and every value
 * is bitwise the reference's.  A point beyond x[n_x - 1] (so also +-inf)
 * gives 0, a NaN gives NaN.
 *
 * out holds k rows of n values: out[j n + p] is column j at r[p].  The box
 * fit's mode integrals (cw_box_mode_sums, _box.c) call it on each leaf of
 * their sums.
 */

#include <math.h>
#include <stddef.h>

void cw_spline(ptrdiff_t n, const double *r, ptrdiff_t n_x, const double *x,
               ptrdiff_t k, const double *coef, double inv_h, double *out)
{
    const ptrdiff_t top = n_x - 2;
    const double r_max = x[n_x - 1];
    ptrdiff_t p, i, j;
    for (p = 0; p < n; p++) {
        double rr = fabs(r[p]);
        double s, s2, s3;
        const double *c;
        if (!(rr <= r_max)) {
            for (j = 0; j < k; j++)
                out[j * n + p] = isnan(rr) ? NAN : 0.0;
            continue;
        }
        i = (ptrdiff_t)((rr - x[0]) * inv_h);
        i = i < top ? i : top;
        if (rr < x[i])
            i--;
        else if (rr >= x[i + 1])
            i++;
        i = i < top ? i : top;
        s = rr - x[i];
        s2 = s * s;
        s3 = s2 * s;
        c = coef + i * k * 4;
        for (j = 0; j < k; j++, c += 4)
            out[j * n + p] = ((c[2] * s + c[3]) + c[1] * s2) + c[0] * s3;
    }
}
