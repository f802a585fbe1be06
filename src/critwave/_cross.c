/* critwave.fields.RadialField.cross and its sigma-derivatives on the grid.
 *
 * With m_i = f'(r_i) times the measure at the node r_i, the grid part of
 * cross(sigma) = <grad f | grad W_sigma> is sum_i m_i W_sigma'(r_i), and
 * W_sigma'(r) = (2 - d) / (d (d - 2)) e^((d/2 + 1) sigma) r P^d with
 * P = (1 + s r^2)^(-1/2), s = e^(2 sigma) / (d (d - 2)).  Since
 * dP / dsigma = -P (1 - P^2), each sigma-derivative of r P^d brings a
 * polynomial in P^2, so the cross term and its first two derivatives are
 * combinations of the three sums S_j = sum_i m_i r_i P_i^(d + 2 j),
 * j = 0, 1, 2, which cw_cross_sums takes in one pass.
 *
 * The factors of a block of nodes are formed first, in loops that
 * vectorize (sqrt and division are exact in any width), and then summed
 * node by node in the order of the nodes.  The library is built without
 * -ffast-math, so no compiler reassociates the sums, and every build gives
 * the same bits.
 */

#include <math.h>
#include <stddef.h>

/* nodes per block, whose factors stay in the L1 data cache */
enum { BLOCK = 256 };

/* out[j] = S_j over the n nodes, for odd d */
void cw_cross_sums(ptrdiff_t n, const double *m, const double *r, double s,
                   int d, double *out)
{
    double t[BLOCK], p_sq[BLOCK], s0 = 0.0, s1 = 0.0, s2 = 0.0, x;
    ptrdiff_t lo, len, i;
    int k;
    for (lo = 0; lo < n; lo += len) {
        len = n - lo < BLOCK ? n - lo : BLOCK;
        for (i = 0; i < len; i++) {
            p_sq[i] = 1.0 / (1.0 + s * r[lo + i] * r[lo + i]);
            t[i] = m[lo + i] * r[lo + i] * sqrt(p_sq[i]);
        }
        for (k = 1; k < d; k += 2)
            for (i = 0; i < len; i++)
                t[i] *= p_sq[i];
        for (i = 0; i < len; i++) {
            x = t[i];
            s0 += x;
            x *= p_sq[i];
            s1 += x;
            x *= p_sq[i];
            s2 += x;
        }
    }
    out[0] = s0;
    out[1] = s1;
    out[2] = s2;
}
