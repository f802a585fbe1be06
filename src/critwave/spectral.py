"""Spectrum of the linearized operator around the ground state.

L+ = -Laplace - p W^(p-1) acting on radial functions has exactly one
negative eigenvalue -k^2 with positive ground state rho, a threshold zero
mode W' = (r d/dr + d/2 - 1) W (a resonance in d = 3, an eigenfunction in
d = 5), and continuous spectrum [0, inf).

The eigenpair is computed two independent ways:

* a symmetric matrix eigenproblem: substituting v = r^((d-1)/2) u folds
  the radial measure in symmetrically and the operator becomes
  -v'' + [(d-1)(d-3)/(4 r^2) - p W^(p-1)] v on a uniform cell-centered
  grid (4th-order five-point stencil, parity fold at the origin), solved
  by shifted inverse iteration with Rayleigh-quotient refinement;
* an ODE shooting method integrating from both ends (DOP853) and matching
  the normalized Wronskian at a middle radius, bracketed in k and refined
  by Brent's method.

The two k values must agree to 1e-4 relative; the matrix residual and all
derived constants are recorded in a constants file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import (LinAlgError, cho_solve_banded, cholesky_banded,
                          solve_banded)
from scipy.optimize import brentq

from .fields import (RadialField, State, UniformSpline, eval_W,
                     eval_W_prime_mode, nonlinearity_power, save_json)
from .functionals import functional_J, h1_seminorm_sq, l2_inner, l2_norm_sq
from .grids import RadialGrid

DEFAULT_EIGEN_N = 16384
SHOOT_MATCH_RADIUS = 2.0
SHOOT_OUTER_RADIUS = 60.0
# agreement required of the independent routes: matrix vs shooting k, and
# the two b_W formulas (relative)
SHOOT_TOL = 1e-4
BW_TOL = 1e-3
# largest drift of a rebuilt k, a_W or b_W from the stored reference
CONSTANTS_TOL = 1e-10


class SpectralConsistencyError(RuntimeError):
    """Independent routes to a spectral constant disagree beyond tolerance."""


# ---------------------------------------------------------------------------
# symmetric matrix discretization
# ---------------------------------------------------------------------------

class LinearizedOperator:
    """Symmetric discretization of radial L+ on a uniform cell-centered grid,
    held as one LAPACK band: row 2 - i of ``band`` holds diagonal i."""

    def __init__(self, grid: RadialGrid):
        if grid.spacing != "uniform":
            raise ValueError("the symmetric matrix form requires a uniform grid")
        self.grid = grid
        d, n, h = grid.d, grid.n, grid.r[1] - grid.r[0]
        r = grid.r
        p = nonlinearity_power(d)
        potential = ((d - 1.0) * (d - 3.0) / 4.0 / (r * r)
                     - p * np.asarray(eval_W(d, r * r)) ** (p - 1.0))
        c = 1.0 / (12.0 * h * h)
        band = np.zeros((5, n))
        band[0, 2:] = band[4, :-2] = 1.0 * c
        band[1, 1:] = band[3, :-1] = -16.0 * c
        band[2] = 30.0 * c + potential
        # parity fold at the origin: ghost -1 mirrors node 0 (entry (0, 0)),
        # ghost -2 mirrors node 1 (entries (0, 1) and (1, 0), the first
        # entries of both first off-diagonals)
        par = -1.0 if d == 3 else 1.0  # v = r^((d-1)/2) u is odd in d=3, even in d=5
        band[2, 0] += par * (-16.0 * c)
        band[1, 1] += par * (1.0 * c)
        band[3, 0] += par * (1.0 * c)
        # outer edge: Dirichlet zero ghosts (eigenfunctions decay like e^(-k r))
        self.band = band
        self._weight = r ** ((d - 1.0) / 2.0)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """L+ v, each row summed from zero in column order, as CSC sums it."""
        n = len(v)
        out = np.zeros(n)
        for i in range(-2, 3):  # diagonal i: out[j - i] += a[j - i, j] v[j]
            lo, hi = max(i, 0), n + min(i, 0)
            out[lo - i:hi - i] += self.band[2 - i, lo:hi] * v[lo:hi]
        return out


def _inverse_iteration(op: LinearizedOperator) -> tuple[np.ndarray, float]:
    """Smallest eigenpair of the symmetric matrix, v normalized in l2.

    Each factorization of the operator's band costs O(n): the fixed shift
    -(p + 1) makes the matrix positive definite, so its 8 solves share one
    banded Cholesky of the upper rows, and each Rayleigh-quotient shift
    takes one banded LU.  The refinement stops at the 1e-11 relative
    residual or, on grids whose rounding floor lies above that, once a step
    fails to halve it.
    """
    p = nonlinearity_power(op.grid.d)
    shift = -(p + 1.0)  # spectrum is bounded below by -p
    v = np.exp(-op.grid.r) * op._weight
    v /= np.linalg.norm(v)
    upper = op.band[:3].copy()
    upper[2] -= shift
    try:
        chol = cholesky_banded(upper)
    except LinAlgError as exc:
        raise SpectralConsistencyError(
            f"L+ at the fixed shift {shift:g} is not positive definite "
            f"({exc}); its spectrum should lie above {-p:g}") from exc
    for _ in range(8):
        v = cho_solve_banded((chol, False), v)
        v /= np.linalg.norm(v)
    # Rayleigh-quotient refinement, one product per step
    last = math.inf
    for _ in range(10):
        av = op @ v
        lam = float(v @ av)
        resid = np.linalg.norm(av - lam * v)
        if resid < 1e-11 * max(1.0, abs(lam)) or resid > 0.5 * last:
            break
        last = resid
        shifted = op.band.copy()
        shifted[2] -= lam
        try:
            v_new = solve_banded((2, 2), shifted, v, overwrite_ab=True)
        except LinAlgError:  # shift collided with the eigenvalue
            break
        v = v_new / np.linalg.norm(v_new)
    else:
        lam = float(v @ (op @ v))
    if v.sum() < 0:
        v = -v
    return v, lam


# ---------------------------------------------------------------------------
# shooting cross-check
# ---------------------------------------------------------------------------

def _shoot_mismatch(k, d: int, rtol: float = 1e-12):
    """Normalized Wronskian of the inward/outward solutions at the match radius.

    Vanishes exactly at eigenvalues and, unlike a log-derivative difference,
    has no poles when one solution happens to have a node at the matching
    point.  Integrated by DOP853, with W in scalar arithmetic.  ``k`` is a
    rate or a 1-D array of K rates: the K systems are stacked into one state
    [u_1..u_K, u'_1..u'_K] and integrated by one solve per side, so W is
    evaluated once per right-hand side for all of them.  Returns a float
    for a float and an array for an array.
    """
    scalar = np.ndim(k) == 0
    k = np.atleast_1d(np.asarray(k, dtype=float))
    nk = len(k)
    p = nonlinearity_power(d)
    cd = (d - 1.0) * (d - 3.0) / 4.0
    dd = d * (d - 2.0)
    kk = k * k

    def rhs(r, y):
        w = (1.0 + r * r / dd) ** (1.0 - d / 2.0)
        coeff = kk + cd / (r * r) - p * w ** (p - 1.0)
        return np.concatenate([y[nk:], coeff * y[:nk]])

    r0 = 1e-3
    half = (d - 1.0) / 2.0
    # regular branch: u = 1 + a r^2 with a = (V(0) + k^2) / (2 d)
    a0 = (kk - p) / (2.0 * d)
    v0 = r0 ** half * (1.0 + a0 * r0 * r0)
    dv0 = half * r0 ** (half - 1.0) * (1.0 + a0 * r0 * r0) + r0 ** half * 2.0 * a0 * r0
    out = solve_ivp(rhs, (r0, SHOOT_MATCH_RADIUS), np.concatenate([v0, dv0]),
                    rtol=rtol, atol=1e-300, method="DOP853")
    r1 = SHOOT_OUTER_RADIUS
    decay = np.sqrt(kk + cd / (r1 * r1))
    inn = solve_ivp(rhs, (r1, SHOOT_MATCH_RADIUS),
                    np.concatenate([np.ones(nk), -decay]),
                    rtol=rtol, atol=1e-300, method="DOP853")
    uo, duo = out.y[:nk, -1], out.y[nk:, -1]
    ui, dui = inn.y[:nk, -1], inn.y[nk:, -1]
    wron = duo * ui - dui * uo
    mismatch = wron / (np.hypot(uo, duo) * np.hypot(ui, dui))
    return float(mismatch[0]) if scalar else mismatch


def shooting_rate(d: int) -> float:
    """The unstable-mode rate k by two-sided shooting and bracketing: one
    stacked scan over 48 rates, then Brent's method on the first sign
    change."""
    p = nonlinearity_power(d)
    ks = np.linspace(0.2, math.sqrt(p) * 0.999, 48)
    vals = _shoot_mismatch(ks, d)
    for i in range(len(ks) - 1):
        if vals[i] == 0.0:
            return float(ks[i])
        if vals[i] * vals[i + 1] < 0:
            return float(brentq(_shoot_mismatch, ks[i], ks[i + 1], args=(d,),
                                xtol=1e-12, rtol=1e-12))
    raise SpectralConsistencyError("shooting found no bound state bracket")


# ---------------------------------------------------------------------------
# spectral data bundle
# ---------------------------------------------------------------------------

@dataclass
class SpectralData:
    """Computed eigenpair, constants, and evaluate-anywhere mode profiles."""

    d: int
    k: float
    a_W: float
    b_W: float
    eigen_grid: RadialGrid
    rho_eigen: RadialField          # unit L^2 norm on the eigen grid
    # rho and Lambda_0 rho at any radii (zero beyond the eigen grid)
    rho_profile: UniformSpline
    lambda0_rho_profile: UniformSpline
    residuals: dict

    def __post_init__(self):
        self._per_grid: dict = {}

    # -- caches --------------------------------------------------------------

    def cached(self, key, build):
        """Value derived from this spectrum under ``key`` (for example
        (kind, grid)), built on first use; freed with the spectrum."""
        hit = self._per_grid.get(key)
        if hit is None:
            hit = self._per_grid[key] = build()
        return hit

    def mode_pair(self, r) -> np.ndarray:
        """[Lambda_0 rho, d_r rho] at radii r (shape r.shape + (2,)) from one
        spline over both samples on the uniform eigen grid, built on first
        use; its first column is bitwise ``lambda0_rho_profile``, its second
        is the only profile of rho', and its interval lookup is direct."""
        def build():
            rho_dr, lam0 = _mode_samples(self.rho_eigen)
            return UniformSpline(self.eigen_grid,
                                 np.stack([lam0, rho_dr], axis=1),
                                 parity=np.array([1.0, -1.0]))
        return self.cached("mode_pair", build)(r)

    def grid_refs(self, grid: RadialGrid) -> dict:
        """The spectrum and the ground state on a radial grid, cached under
        ("grid", grid): the samples rho, Lambda_0 rho and W, and
        <W | Lambda_0 rho>, J(W), ||grad W||^2, ||rho||^2 and <W | rho>
        under the grid's quadrature.  (rho' is ``mode_pair``'s second
        column; a radial run never reads it, so its grids do not build
        the pair spline.)"""
        def build():
            r = grid.r
            rho = np.asarray(self.rho_profile(r))
            lam0 = np.asarray(self.lambda0_rho_profile(r))
            w = np.asarray(eval_W(grid.d, r * r))
            w_fld, rho_fld = RadialField(grid, w), RadialField(grid, rho)
            return {
                "rho": rho,
                "lambda0_rho": lam0,
                "W": w,
                "W_ip_lambda0_rho": grid.quad_meas(w * lam0),
                "J_W": functional_J(w_fld),
                "grad_W_sq": h1_seminorm_sq(w_fld),
                "rho_norm_sq": l2_norm_sq(rho_fld),
                "W_ip_rho": l2_inner(w_fld, rho_fld),
            }
        return self.cached(("grid", grid), build)

    def rho_on(self, grid: RadialGrid) -> np.ndarray:
        return self.grid_refs(grid)["rho"]

    def lambda0_rho_on(self, grid: RadialGrid) -> np.ndarray:
        return self.grid_refs(grid)["lambda0_rho"]

    def W_on(self, grid: RadialGrid) -> np.ndarray:
        return self.grid_refs(grid)["W"]

    # -- modes -------------------------------------------------------------

    def rho_field(self, grid: RadialGrid) -> RadialField:
        return RadialField(grid, self.rho_on(grid))

    def mode_states(self, grid: RadialGrid) -> tuple[State, State]:
        """(g_plus, g_minus) = (1, +-k) rho / sqrt(2k) on the given grid."""
        rho = self.rho_on(grid)
        norm = 1.0 / math.sqrt(2.0 * self.k)
        gp = State(RadialField(grid, rho * norm),
                   RadialField(grid, rho * (self.k * norm)))
        gm = State(RadialField(grid, rho * norm),
                   RadialField(grid, rho * (-self.k * norm)))
        return gp, gm

    def wprime_field(self, grid: RadialGrid) -> RadialField:
        return RadialField(grid, np.asarray(eval_W_prime_mode(grid.d, grid.r)))

    # -- constants file ------------------------------------------------------

    def save_constants(self, path) -> None:
        save_json(path, {
            "d": self.d,
            "k": self.k,
            "a_W": self.a_W,
            "b_W": self.b_W,
            "grid": self.eigen_grid.describe(),
            "residuals": self.residuals,
        })

    def constants_drift(self, reference: dict) -> float:
        """max |x - reference[x]| over x = k, a_W, b_W (see CONSTANTS_TOL)."""
        return max(abs(getattr(self, x) - reference[x])
                   for x in ("k", "a_W", "b_W"))


def _mode_samples(rho: RadialField) -> tuple[np.ndarray, np.ndarray]:
    """(d_r rho, Lambda_0 rho) = (rho', r rho' + (d/2) rho) on rho's grid."""
    g = rho.grid
    rho_dr = rho.du
    return rho_dr, g.r * rho_dr + (g.d / 2.0) * rho.values


def _w_constants(rho: RadialField, lam0: np.ndarray,
                 k: float) -> tuple[float, float, float]:
    """(a_W, b_W, b_W_alt) from rho and Lambda_0 rho on rho's grid:
    a_W = (1/d) <W^p | rho>, b_W = <W' | Lambda_0 rho> and the commutator
    route b_W_alt = k^-2 p (p-1) <W^(p-2) (W')^2 | rho>."""
    g = rho.grid
    d = g.d
    p = nonlinearity_power(d)
    w_vals = np.asarray(eval_W(d, g.r ** 2))
    wprime = np.asarray(eval_W_prime_mode(d, g.r))
    a_w = g.quad_meas(w_vals ** p * rho.values) / d
    b_w = g.quad_meas(wprime * lam0)
    b_w_alt = (p * (p - 1.0) / (k * k)
               * g.quad_meas(w_vals ** (p - 2.0) * wprime ** 2 * rho.values))
    return a_w, b_w, b_w_alt


def static_grid(n: int = 4096, spacing: str = "sinh") -> RadialGrid:
    """The radial grid of the spectral build and the static suite: d = 3,
    r_max = 200 and, stretched, beta = 6; n and the spacing rule may be
    overridden for resolution studies."""
    return RadialGrid(3, 200.0, n, spacing, 6.0)


def build_spectral_data(grid: RadialGrid | None = None,
                        eigen_n: int = DEFAULT_EIGEN_N,
                        cross_check: bool = True) -> SpectralData:
    """Solve the eigenproblem and assemble all spectral constants.

    cross_check=True also runs the shooting solver and the second b_W
    formula and enforces their agreement.
    """
    grid = grid or static_grid()
    d = grid.d
    egrid = RadialGrid(d, grid.r_max, eigen_n, "uniform")
    op = LinearizedOperator(egrid)
    v, lam = _inverse_iteration(op)
    if lam >= 0:
        raise SpectralConsistencyError(
            f"smallest eigenvalue {lam:.3e} is not negative; grid too coarse")
    k = math.sqrt(-lam)
    u = v / op._weight
    rho = RadialField(egrid, u)
    nrm = math.sqrt(l2_norm_sq(rho))
    rho = RadialField(egrid, u / nrm)
    if float(np.min(rho.values)) <= 0.0:
        raise SpectralConsistencyError("computed ground state is not positive")

    # Lambda_0 rho on the (uniform) eigen grid, then splines (rho' is
    # splined with it by SpectralData.mode_pair)
    _, lam0 = _mode_samples(rho)
    rho_prof = UniformSpline(egrid, rho.values, parity=1)
    lam0_prof = UniformSpline(egrid, lam0, parity=1)

    a_w, b_w, b_w_alt = _w_constants(rho, lam0, k)

    vres = op @ (v / np.linalg.norm(v)) - lam * (v / np.linalg.norm(v))
    h = egrid.r[1] - egrid.r[0]
    residuals = {
        "eig_residual_l2": float(np.linalg.norm(vres) * math.sqrt(h)
                                 * math.sqrt(egrid.angular_factor) / nrm * np.linalg.norm(v)),
        "rho_min": float(np.min(rho.values)),
        "rho_norm_err": abs(math.sqrt(l2_norm_sq(rho)) - 1.0),
        "wprime_orth": egrid.quad_meas(
            np.asarray(eval_W_prime_mode(d, egrid.r)) * rho.values),
    }

    if cross_check:
        k_shoot = shooting_rate(d)
        rel = abs(k - k_shoot) / k
        residuals["k_shooting"] = k_shoot
        residuals["k_rel_diff"] = rel
        if rel > SHOOT_TOL:
            raise SpectralConsistencyError(
                f"matrix k = {k:.8f} vs shooting k = {k_shoot:.8f} "
                f"differ by {rel:.2e} > {SHOOT_TOL:.0e}")
        rel_b = abs(b_w - b_w_alt) / abs(b_w)
        residuals["b_W_alt"] = b_w_alt
        residuals["b_W_rel_diff"] = rel_b
        if rel_b > BW_TOL:
            raise SpectralConsistencyError(
                f"b_W routes disagree: {b_w:.8f} vs {b_w_alt:.8f} ({rel_b:.2e})")

    return SpectralData(d=d, k=k, a_W=a_w, b_W=b_w, eigen_grid=egrid,
                        rho_eigen=rho, rho_profile=rho_prof,
                        lambda0_rho_profile=lam0_prof, residuals=residuals)


# ---------------------------------------------------------------------------
# coercivity sampling
# ---------------------------------------------------------------------------

def _random_probe(grid: RadialGrid, rng: np.random.Generator) -> np.ndarray:
    """Gaussian bumps with random center/width plus decaying polynomials."""
    r = grid.r
    f = np.zeros(grid.n)
    for _ in range(rng.integers(1, 4)):
        center = rng.uniform(0.0, 8.0)
        width = rng.uniform(0.5, 4.0)
        f += rng.normal() * np.exp(-((r - center) / width) ** 2)
    deg = rng.integers(0, 3)
    scale = rng.uniform(1.0, 5.0)
    f += 0.3 * rng.normal() * (r / scale) ** deg * np.exp(-(r / scale) ** 2)
    return f


def quadratic_form_L(spec: SpectralData,
                     fld: RadialField) -> tuple[float, float]:
    """(<L+ f | f>, ||grad f||^2), where
    <L+ f | f> = ||grad f||^2 - p int W^(p-1) f^2."""
    g = fld.grid
    p = nonlinearity_power(g.d)
    w_pm1 = spec.W_on(g) ** (p - 1.0)
    grad_sq = h1_seminorm_sq(fld)
    return grad_sq - p * g.quad_meas(w_pm1 * fld.values ** 2), grad_sq


def coercivity_probe(spec: SpectralData, grid: RadialGrid,
                     n_samples: int = 100, seed: int = 7) -> dict:
    """Sample the quadratic-form lower bound over probes orthogonal to rho.

    For each probe f with <f | rho> = 0 the ratio
    [<L+ f | f> + <f | Lambda_0 rho>^2 + <f | grad rho>^2] / ||grad f||^2
    is recorded, for n_samples random probes and then the near-null
    threshold mode W' itself; the report carries (c_low, c_high) and any
    failure sample.  In radial symmetry the <f | grad rho> term vanishes
    identically.
    """
    rng = np.random.default_rng(seed)
    rho = spec.rho_field(grid)
    lam0 = RadialField(grid, spec.lambda0_rho_on(grid))
    ratios = []
    failures = []

    def ratio_of(f_vals: np.ndarray) -> float:
        f = RadialField(grid, f_vals)
        f = RadialField(grid, f.values - l2_inner(f, rho) * rho.values)
        form, grad_sq = quadratic_form_L(spec, f)
        return (form + l2_inner(f, lam0) ** 2) / grad_sq

    for i in range(n_samples):
        rat = ratio_of(_random_probe(grid, rng))
        ratios.append(rat)
        if rat <= 0:
            failures.append(i)
    ratios.append(ratio_of(np.asarray(eval_W_prime_mode(grid.d, grid.r))))
    if ratios[-1] <= 0:
        failures.append("wprime")
    return {"c_low": float(min(ratios)), "c_high": float(max(ratios)),
            "n_samples": len(ratios), "failures": failures}
