"""Static functionals: norms, energies, virial, symplectic form.

Radial norms integrate to r_max with the end-corrected midpoint rule and
then add the analytic integral of the fitted far field
f ~ c r^(2-d) + b r^(-d) over (r_max, infinity).  This matters because in
d = 3 the ground state carries O(1/r_max) of its gradient norm outside any
desk-size domain; with the two-term tail model the truncation error drops
to O(r_max^-5).  L^2 quantities get no tail term (fields with a c/r^(d-2)
far field are not in L^2 for d = 3; everything we pair in L^2 decays fast).

The functionals take radial states and fields only: box (3-D) states stop
at the modulation fit, which takes its own box quadratures.
"""

from __future__ import annotations

import math
from functools import cached_property

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

def _h1_tail(grid: RadialGrid, cf, bf, cg=None, bg=None) -> float:
    """int_R^inf grad(f).grad(g) over the fitted far fields."""
    if cg is None:
        cg, bg = cf, bf
    d, R = grid.d, grid.r_max
    val = ((d - 2.0) * cf * cg * R ** (2 - d)
           + (d - 2.0) * (cf * bg + cg * bf) * R ** (-d)
           + d * d * bf * bg * R ** (-d - 2) / (d + 2.0))
    return grid.angular_factor * val


def _crit_tail(grid: RadialGrid, c, b) -> float:
    """int_R^inf |f|^(2*) over the fitted far field."""
    d, R = grid.d, grid.r_max
    ts = sobolev_exponent(d)
    val = (abs(c) ** ts * R ** (-d) / d
           + ts * abs(c) ** (ts - 2.0) * c * b * R ** (-d - 2) / (d + 2.0))
    return grid.angular_factor * val


def _h1_sq(grid: RadialGrid, df: np.ndarray, c: float, b: float) -> float:
    return grid.quad_meas(df * df) + _h1_tail(grid, c, b)


def _crit(grid: RadialGrid, f: np.ndarray, c: float, b: float) -> float:
    ts = sobolev_exponent(grid.d)
    return grid.quad_meas(np.abs(f) ** ts) + _crit_tail(grid, c, b)


def h1_seminorm_sq(fld: RadialField) -> float:
    g = fld.grid
    return _h1_sq(g, fld.deriv(), *g.tail_fit(fld.values))


def l2_norm_sq(fld: RadialField) -> float:
    g = fld.grid
    return g.quad_meas(fld.values * fld.values)


def l2_inner(f: RadialField, g_fld: RadialField) -> float:
    return f.grid.quad_meas(f.values * g_fld.values)


def crit_norm(fld: RadialField) -> float:
    """||f||_(2*)^(2*) with far-field tail."""
    g = fld.grid
    return _crit(g, fld.values, *g.tail_fit(fld.values))


class RadialPieces:
    """u1', the far-field fit of u1 and the H^1, critical and L^2 pieces of
    one radial state, each computed once on first use.

    ``energy``, ``K`` and ``norm_H`` use the same formulas as
    :func:`energy_E`, :func:`functional_K` and :func:`norm_H`, so they are
    bitwise equal to them; ``crit`` equals :func:`crit_norm` of u1.
    """

    def __init__(self, s: State):
        self.state = s
        self.grid = s.grid

    @cached_property
    def du(self) -> np.ndarray:
        return self.state.u1.deriv()

    @cached_property
    def tail(self) -> tuple[float, float]:
        return self.grid.tail_fit(self.state.u1.values)

    @cached_property
    def h1(self) -> float:
        return _h1_sq(self.grid, self.du, *self.tail)

    @cached_property
    def crit(self) -> float:
        return _crit(self.grid, self.state.u1.values, *self.tail)

    @cached_property
    def l2(self) -> float:
        return l2_norm_sq(self.state.u2)

    @property
    def norm_H_sq(self) -> float:
        return self.h1 + self.l2

    @property
    def norm_H(self) -> float:
        return math.sqrt(max(self.norm_H_sq, 0.0))

    @property
    def energy(self) -> float:
        return (0.5 * (self.h1 + self.l2)
                - self.crit / sobolev_exponent(self.grid.d))

    @property
    def K(self) -> float:
        return self.h1 - self.crit


# ---------------------------------------------------------------------------
# the static functionals J, K and the conserved quantities
# ---------------------------------------------------------------------------

def _grad_and_crit(fld: RadialField) -> tuple[float, float]:
    g = fld.grid
    c, b = g.tail_fit(fld.values)
    return _h1_sq(g, fld.deriv(), c, b), _crit(g, fld.values, c, b)


def functional_J(fld: RadialField) -> float:
    """Static energy J = int [ |grad f|^2 / 2 - |f|^(2*) / 2* ]."""
    a, b = _grad_and_crit(fld)
    return 0.5 * a - b / sobolev_exponent(fld.grid.d)


def functional_K(fld: RadialField) -> float:
    """Virial functional K = int [ |grad f|^2 - |f|^(2*) ]; K(W) = 0."""
    a, b = _grad_and_crit(fld)
    return a - b


def norm_H(s: State) -> float:
    """Energy-space norm ||(u1, u2)|| = (||grad u1||^2 + ||u2||^2)^(1/2)
    of a radial state."""
    s.require_radial("norm_H")
    return math.sqrt(max(h1_seminorm_sq(s.u1) + l2_norm_sq(s.u2), 0.0))


def energy_E(s: State) -> float:
    """Conserved energy E = ||u_vec||_H^2 / 2 - ||u1||_(2*)^(2*) / 2* of a
    radial state."""
    s.require_radial("energy_E")
    return RadialPieces(s).energy


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
