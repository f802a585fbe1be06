"""Static functionals: norms, energies, virial, symplectic form.

The radial functionals read the pieces that a radial field owns
(:class:`critwave.fields.RadialField`), so a state's norms are computed
once however many functionals and monitors ask for them.  Those norms
integrate to r_max with the end-corrected midpoint rule and then add the
analytic integral of the fitted far field f ~ c r^(2-d) + b r^(-d) over
(r_max, infinity) (:meth:`critwave.grids.RadialGrid.h1_tail` and
``crit_tail``).  This matters because in d = 3 the ground state carries
O(1/r_max) of its gradient norm outside any desk-size domain; with the
two-term tail model the truncation error drops to O(r_max^-5).  L^2
quantities get no tail term (fields with a c/r^(d-2) far field are not in
L^2 for d = 3; everything we pair in L^2 decays fast).

The functionals take radial states and fields only: box (3-D) states stop
at the modulation fit, which takes its own box quadratures.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (BoostParams, RadialField, State, eval_W, eval_W_dr,
                     sobolev_exponent)
from .grids import RadialGrid


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

def smooth_cutoff(xi, lo: float = 1.5, hi: float = 2.0) -> np.ndarray:
    """C^2 cutoff: 1 for xi <= lo, 0 for xi >= hi, quintic ramp between."""
    xi = np.asarray(xi, dtype=float)
    t = np.clip((xi - lo) / (hi - lo), 0.0, 1.0)
    return 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


# ---------------------------------------------------------------------------
# radial norms with far-field tails
# ---------------------------------------------------------------------------

def h1_seminorm_sq(fld: RadialField) -> float:
    """||grad f||^2 with far-field tail."""
    return fld.h1_sq


def l2_norm_sq(fld: RadialField) -> float:
    return fld.l2_sq


def l2_inner(f: RadialField, g_fld: RadialField) -> float:
    return f.grid.quad_meas(f.values * g_fld.values)


def crit_norm(fld: RadialField) -> float:
    """||f||_(2*)^(2*) with far-field tail."""
    return fld.crit


# ---------------------------------------------------------------------------
# the static functionals J, K and the conserved quantities
# ---------------------------------------------------------------------------

def functional_J(fld: RadialField) -> float:
    """Static energy J = int [ |grad f|^2 / 2 - |f|^(2*) / 2* ]."""
    return 0.5 * fld.h1_sq - fld.crit / sobolev_exponent(fld.grid.d)


def functional_K(fld: RadialField) -> float:
    """Virial functional K = int [ |grad f|^2 - |f|^(2*) ]; K(W) = 0."""
    return fld.h1_sq - fld.crit


def norm_H(s: State) -> float:
    """Energy-space norm ||(u1, u2)|| = (||grad u1||^2 + ||u2||^2)^(1/2)
    of a radial state."""
    s.require_radial("norm_H")
    return math.sqrt(max(s.u1.h1_sq + s.u2.l2_sq, 0.0))


def energy_E(s: State) -> float:
    """Conserved energy E = ||u_vec||_H^2 / 2 - ||u1||_(2*)^(2*) / 2* of a
    radial state."""
    s.require_radial("energy_E")
    return (0.5 * (s.u1.h1_sq + s.u2.l2_sq)
            - s.u1.crit / sobolev_exponent(s.grid.d))


def symplectic_omega(a: State, b: State) -> float:
    """omega(a, b) = <a2 | b1> - <a1 | b2> on radial states; antisymmetric."""
    a.require_radial("symplectic_omega")
    b.require_radial("symplectic_omega")
    return l2_inner(a.u2, b.u1) - l2_inner(a.u1, b.u2)


# ---------------------------------------------------------------------------
# boosted-soliton quadrature (axisymmetric spherical product rule)
# ---------------------------------------------------------------------------

def boost_energy_momentum(params: BoostParams) -> tuple[float, np.ndarray]:
    """(E, P) of the boosted soliton by direct quadrature of the profile.

    Uses a sinh-stretched radial rule (3072 nodes, beta = 16) times 48-point
    Gauss-Legendre in cos(theta) around the boost axis, with closed-form
    samples of u1, u2 and grad u1 at every node.  The huge r_max = 1e6
    keeps the O(1/r) truncation of the gradient norm below 1e-6 relative
    without a tail model, so the energy-momentum relation
    E^2 - |P|^2 = J(W)^2 is probed by quadrature alone.
    """
    d = 3
    p = np.asarray(params.p, dtype=float)
    pn = params.p_norm
    gamma = params.lorentz_factor
    rad = RadialGrid(d, 1.0e6, 3072, "sinh", 16.0)
    mu, glw = np.polynomial.legendre.leggauss(48)
    r = rad.r[:, None]
    # z along the boost axis; x in a transverse direction; azimuthal factor 2 pi
    z = r * mu[None, :]
    x = r * np.sqrt(np.maximum(1.0 - mu * mu, 0.0))[None, :]
    # y = A x with A = diag(1, 1, gamma) in these coordinates
    yx, yz = x, gamma * z
    rho = np.sqrt(yx * yx + yz * yz)
    es = math.exp(params.sigma)
    amp = es ** (d / 2.0 - 1.0)
    u1 = amp * eval_W(d, (es * rho) ** 2)
    slope = amp * es * eval_W_dr(d, es * rho) / np.maximum(rho, 1e-300)
    # grad u1 = slope * A y ; u2 = -grad u1 . p_hat * |p| / gamma
    gx_, gz_ = slope * yx, slope * gamma * yz
    u2 = -(gz_ * pn) / gamma
    edens = 0.5 * (u2 * u2 + gx_ * gx_ + gz_ * gz_) - u1 ** 6 / 6.0
    pdens = u2 * gz_
    wgt = rad.w_r[:, None] * (r * r) * glw[None, :] * (2.0 * math.pi)
    e_tot = float(np.sum(wgt * edens))
    p_axis = float(np.sum(wgt * pdens))
    if pn == 0.0:
        return e_tot, np.zeros(3)
    return e_tot, p_axis * (p / pn)
