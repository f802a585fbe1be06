"""Modulation decomposition near the soliton family and derived functionals.

A state close to the family {+-(W_sigma(. - c), 0)} is written as
u = T^c S^sigma (s W_vec + v) with the residual v constrained by the
orthogonality conditions <v1 | Lambda_0 rho> = 0 and <v1 | grad rho> = 0,
which pin (sigma, c) through a damped Newton solve.  Mode amplitudes are
taken of the sign-adjusted residual w = s * v, so every derived quantity
is invariant under u -> -u:

    lambda_j = <w_j | rho>,   lambda_+- = sqrt(k/2) (lambda_1 +- lambda_2 / k),
    alpha = <w_1 | Lambda_0 rho>,   gamma = w - lambda_+ g+ - lambda_- g-.

Like the fit, the mode split is taken in adjoint form: the modes are
transported to the fit's scale and paired with the state on its own grid,
so a monitor row never resamples the state into v.

The distance d_W to the family blends the raw manifold distance d_0 with
the energy-based d_1^2 = E - J(W) + k^2 lambda_1^2; the fate sign is
-sign(lambda_1) in the inner region and sign(K) outside, and where both
rules apply their disagreement is reported.

Box (3-D) states stop at the fit: ``fit_modulation`` recovers their
(sign, sigma, c), but a box fit has no residual state, and everything
after the fit (assembly, mode split, distance, sign, regions) takes
radial states only, where c = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _native
from .config import Thresholds
from .fields import RadialField, State, _w_sigma_field, eval_W
from .functionals import energy_E, functional_J, norm_H, smooth_cutoff
from .grids import BLOCK_POINTS, Box3DGrid
from .spectral import SpectralData


class FitError(RuntimeError):
    """The modulation solve failed (outside the capture region)."""


class SignAmbiguityError(FitError):
    """Both manifold signs are comparably distant; the fit is rejected."""


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

class ModulationFit:
    """Result of the modulation solve.

    ``orth_residual`` is the signed orthogonality residual at the final
    (sigma, c).  A converged radial fit keeps the ``state`` it fit; its
    residual state v is resampled from it on first use (a box fit has
    neither).  A box fit counts its full-grid evaluations in ``evals``:
    the coarse-lattice and ball residuals and the ||v||_H cross terms.
    """

    def __init__(self, sign_s: int, sigma: float, c: np.ndarray,
                 converged: bool, newton_iters: int,
                 orth_residual: np.ndarray, state: State | None,
                 spec: SpectralData, evals: dict | None = None):
        self.sign_s = sign_s
        self.sigma = sigma
        self.c = c
        self.converged = converged
        self.newton_iters = newton_iters
        self.orth_residual = orth_residual
        self.state = state
        self._spec = spec
        self.evals = evals

    @cached_property
    def v(self) -> State | None:
        if self.state is None:
            return None
        return _residual_state(self.state, self._spec, self.sign_s, self.sigma)

    def __repr__(self):
        return (f"ModulationFit(sign_s={self.sign_s}, sigma={self.sigma:.6g}, "
                f"converged={self.converged}, iters={self.newton_iters})")


@dataclass
class ModeSplit:
    lambda1: float
    lambda2: float
    gamma_norm: float           # ||gamma||_H


@dataclass
class DistanceReport:
    d0: float
    dW: float
    d0_sigma: float                    # the minimizer sigma* of d_0
    modes: ModeSplit | None = None     # split_modes of a converged fit


# ---------------------------------------------------------------------------
# box reference quantities (a radial grid's are ``spec.grid_refs``)
# ---------------------------------------------------------------------------

def _box_fit_refs(spec: SpectralData, grid: Box3DGrid) -> dict:
    """The box fit's references, cached on ``spec``: ||grad W||^2 under
    the box quadrature, the node sets of the fit residuals as int16 axis
    indices (i, j, k) in C order, W and its integral of W^2 on the coarse
    lattice, and the sigma = 0 mode integrals of W over each node set.

    The mode integrands decay like e^(-k r): the cube corners beyond the
    inscribed ball contribute below 1e-8 and are dropped, which halves the
    cost of every residual evaluation.  The stride-2 coarse lattice (8x
    cheaper residuals) gets (sigma, c) near the root before ball polishing,
    and its W chooses the fit's sign.  W and both node sets are formed slab
    by slab; the W cube is dropped once the references are built.
    """
    def build():
        w = np.empty((grid.m,) * 3)
        even = np.arange(grid.m) % 2 == 0
        ball, coarse = [], []
        for sl in grid.slabs:
            x, y, z = grid.slab_mesh(sl)
            radius = np.sqrt(x * x + y * y + z * z)
            w[sl] = eval_W(3, radius ** 2)
            ball.append(_node_indices(radius <= grid.half_width, sl.start))
            coarse.append(_node_indices(
                even[sl, None, None] & even[:, None] & even, sl.start))
        ball, coarse = (tuple(np.concatenate(a) for a in zip(*parts))
                        for parts in (ball, coarse))
        vol = grid.cell_volume
        w_c = _coarse(w)
        zero = np.zeros(3)
        return {"grad_W_sq": grid.h1_sq(w), "ball": ball, "coarse": coarse,
                "W_coarse": w_c,
                "W_sq_coarse": float(np.sum(w_c * w_c) * (vol * 8)),
                "ball_consts": box_mode_integrals(
                    spec, grid, 0.0, zero, ball, _gather(w, ball), vol),
                "coarse_consts": box_mode_integrals(
                    spec, grid, 0.0, zero, coarse, w_c, vol * 8)}
    return spec.cached(("box_fit_refs", grid), build)


def _node_indices(keep: np.ndarray, start: int) -> tuple[np.ndarray, ...]:
    """The int16 indices (i, j, k), in C order, of the nodes where keep,
    a boolean array on the x-planes from ``start`` on, holds (int16 holds
    every axis index of a cube with m <= 2^15 nodes per axis, 280 TB)."""
    i, j, k = np.nonzero(keep)
    return ((i + start).astype(np.int16), j.astype(np.int16),
            k.astype(np.int16))


def _gather(f: np.ndarray, nodes) -> np.ndarray:
    """The values of a box array f at the nodes (i, j, k), gathered in
    blocks of BLOCK_POINTS."""
    i, j, k = nodes
    out = np.empty(len(i))
    for a in range(0, len(i), BLOCK_POINTS):
        b = a + BLOCK_POINTS
        out[a:b] = f[i[a:b], j[a:b], k[a:b]]
    return out


def _coarse(f: np.ndarray) -> np.ndarray:
    """Values of a box array on the stride-2 coarse lattice, flattened;
    each lattice point stands for 2^3 = 8 cells."""
    return f[::2, ::2, ::2].ravel()


# ---------------------------------------------------------------------------
# transported-mode inner products
# ---------------------------------------------------------------------------

def _radial_mode_ip(fld: RadialField, profile, sigma: float) -> float:
    """<f | S_1^sigma phi> for a radial mode profile phi (adjoint transport)."""
    g = fld.grid
    amp = math.exp((g.d / 2.0 + 1.0) * sigma)
    vals = amp * np.asarray(profile(math.exp(sigma) * g.r))
    return g.quad_meas(fld.values * vals)


def box_mode_parts(spec: SpectralData, sigma: float, disp):
    """(T^c S_1^sigma Lambda_0 rho, slope) at the displacements
    disp = (x - c_x, y - c_y, z - c_z) of the nodes from the centre c.

    The gradient modes T^c S_1^sigma d_j rho are slope * disp_j.  Both
    radial profiles come from one evaluation of ``spec.mode_pair``.
    """
    es = math.exp(sigma)
    amp = math.exp((3 / 2.0 + 1.0) * sigma)
    dx_, dy_, dz_ = disp
    rr = np.sqrt(dx_ ** 2 + dy_ ** 2 + dz_ ** 2)
    pair = spec.mode_pair(es * rr)
    lam0 = amp * pair[..., 0]
    slope = amp * es * pair[..., 1] / np.maximum(rr, 1e-300)
    return lam0, slope


def box_mode_integrals(spec: SpectralData, grid: Box3DGrid, sigma: float, c,
                       nodes, u: np.ndarray, weight: float) -> np.ndarray:
    """weight * [sum u T^c S_1^sigma Lambda_0 rho, sum u T^c S_1^sigma d_j rho]
    over the grid nodes = (i, j, k), int16 axis indices, with values u: the
    four box mode integrals under a uniform quadrature weight.

    One compiled pass (``cw_box_mode_sums``, ``_box.c``) takes the nodes in
    blocks of BLOCK_POINTS and returns each block's four sums: a node's
    terms are ``box_mode_parts``' at its displacement grid.axis[i] - c_x,
    ..., from the ``cw_spline`` lookup of ``spec.mode_pair``, and a block
    is summed as np.sum sums it, so the mode fields are never built and
    every value is bitwise the numpy blocks'.  The sums are numpy's
    pairwise ones, not a BLAS dot, so they do not depend on the BLAS
    thread count.
    """
    es = math.exp(sigma)
    amp = math.exp((3 / 2.0 + 1.0) * sigma)
    n = len(u)
    i, j, k = (_native.address(a, n, np.int16) for a in nodes)
    if n and not all(0 <= a.min() and a.max() < grid.m for a in nodes):
        raise IndexError(f"box node indices must lie in [0, {grid.m})")
    spec.mode_pair(0.0)         # caches the pair's spline on first use
    spline = spec.cached("mode_pair", None)
    sums = np.empty((-(-n // BLOCK_POINTS), 4))
    _native.LIB.cw_box_mode_sums(
        n, i, j, k, _native.address(u, n), _native.address(grid.axis, grid.m),
        c[0], c[1], c[2], es, amp, amp * es, *spline.pieces, BLOCK_POINTS,
        _native.address(sums, sums.shape))
    return np.sum(sums, axis=0) * weight


class BoxModes:
    """The sigma = 0, c = 0 box modes [Lambda_0 rho, d_j rho] of one grid
    and their 4x4 Gram matrix under the box quadrature.

    Only Lambda_0 rho and the slope are kept as cubes; the gradient mode
    d_j rho = slope * x_j is formed on the planes asked for, bitwise the
    product on the whole grid.
    """

    def __init__(self, spec: SpectralData, grid: Box3DGrid):
        self.grid = grid
        shape = (grid.m,) * 3
        self.lam0, self.slope = np.empty(shape), np.empty(shape)
        for sl in grid.slabs:
            self.lam0[sl], self.slope[sl] = box_mode_parts(
                spec, 0.0, grid.slab_mesh(sl))
        # symmetric: the 10 distinct products (m1 * m2 is bitwise m2 * m1)
        self.gram = np.empty((4, 4))
        for i in range(4):
            for j in range(i, 4):
                self.gram[i, j] = self.gram[j, i] = grid.quad(grid.by_slabs(
                    lambda sl: self.mode(i, sl) * self.mode(j, sl)))

    def mode(self, j: int, sl: slice) -> np.ndarray:
        """Mode j (0: Lambda_0 rho, 1-3: d_x rho, d_y rho, d_z rho) on the
        x-planes sl."""
        if j == 0:
            return self.lam0[sl]
        return self.slope[sl] * self.grid.slab_mesh(sl)[j - 1]


def box_modes(spec: SpectralData, grid: Box3DGrid) -> BoxModes:
    """The sigma = 0, c = 0 box modes of grid; one entry cached on spec."""
    return spec.cached(("box_modes", grid), lambda: BoxModes(spec, grid))


# ---------------------------------------------------------------------------
# the modulation solve
# ---------------------------------------------------------------------------

def _choose_sign(coarse_dist_sq, margin: float, sign_hint: int | None) -> int:
    """Manifold sign by the smaller coarse distance coarse_dist_sq(sign),
    unless a hint is given; error when ambiguous."""
    if sign_hint is not None:
        return sign_hint
    best = {sgn: coarse_dist_sq(sgn) for sgn in (+1, -1)}
    lo, hi = min(best.values()), max(best.values())
    if hi > 0 and (hi - lo) < margin * hi:
        raise SignAmbiguityError(
            f"both manifold signs comparably distant ({lo:.3e} vs {hi:.3e})")
    return +1 if best[+1] <= best[-1] else -1


def scale_profile(profile, d: int, a: float, sigma: float):
    """Callable for S_a^sigma f = e^((d/2 + a) sigma) f(e^sigma .) applied to
    a radial profile f; a = -1 preserves the H^1_dot seminorm, a = 0 the
    L^2 norm."""
    amp = math.exp((d / 2.0 + a) * sigma)
    es = math.exp(sigma)

    def fn(r):
        return amp * profile(es * np.asarray(r, dtype=float))

    return fn


def _newton_loop(residual, h0: np.ndarray, x: np.ndarray, tol: float,
                 max_iters: int, f0=None):
    """Damped quasi-Newton with Broyden updates of the inverse Jacobian.

    h0 is the initial inverse Jacobian (the constant-Jacobian seed
    diag(-b_W, a_W, ..., a_W) inverted and signed).
    """
    h = h0.copy()
    f = residual(x) if f0 is None else f0
    res = float(np.linalg.norm(f))
    iters = 0
    while res > tol and iters < max_iters:
        dx_full = -h @ f
        lam = 1.0
        while lam > 1.0 / 64.0:
            x_new = x + lam * dx_full
            f_new = residual(x_new)
            res_new = float(np.linalg.norm(f_new))
            if res_new < res or res_new <= tol:
                break
            lam *= 0.5
        else:
            break
        dx = x_new - x
        df = f_new - f
        denom = float(dx @ (h @ df))
        if abs(denom) > 1e-14 * max(float(dx @ dx), 1e-300):
            h = h + np.outer(dx - h @ df, dx @ h) / denom
        x, f, res = x_new, f_new, res_new
        iters += 1
    return x, f, res, iters


def fit_modulation(s: State, spec: SpectralData,
                   thresholds: Thresholds | None = None,
                   sign_hint: int | None = None,
                   sigma0: float = 0.0) -> ModulationFit:
    """Solve the orthogonality conditions for (sign, sigma[, c]).

    Radial states pin c = 0 and solve for sigma only; a box fit recovers
    (sign, sigma, c) and has no residual state v.  The quasi-Newton
    iteration starts from the constant Jacobian diag(-b_W, a_W, ..., a_W)
    (times the manifold sign) with step halving on residual increase;
    failure to converge signals a state outside the capture region.  The
    orthogonality target is relative to the residual size ||v||_H, so
    states close to the family are resolved proportionally better.
    """
    th = thresholds or Thresholds()
    if s.representation == "radial":
        return _fit_radial(s, spec, th, sign_hint, sigma0)
    return _fit_box(s, spec, th, sign_hint, sigma0)


def _fit_radial(s: State, spec: SpectralData, th: Thresholds,
                sign_hint: int | None, sigma0: float) -> ModulationFit:
    """The radial solve for sigma at c = 0; a converged fit keeps s."""
    sgn = _choose_sign(lambda sg: min(_manifold_distance_sq(spec, s, sg, sig)
                                      for sig in np.linspace(-1.5, 1.5, 13)),
                       th.sign_ambiguity_margin, sign_hint)
    w_ip_lam0 = spec.grid_refs(s.grid)["W_ip_lambda0_rho"]

    def residual(x):
        return np.array([_radial_mode_ip(s.u1, spec.lambda0_rho_profile, x[0])
                         - sgn * w_ip_lam0])

    def v_norm(x):
        return math.sqrt(max(_manifold_distance_sq(spec, s, sgn,
                                                   float(x[0])), 0.0))

    h0 = np.array([[-float(sgn) / spec.b_W]])
    x, f, converged, iters = _accept_and_refine(
        residual, h0, np.array([sigma0]), norm_H(s), v_norm, th)
    return ModulationFit(sign_s=sgn, sigma=float(x[0]), c=np.zeros(3),
                         converged=converged, newton_iters=iters,
                         orth_residual=f, state=s if converged else None,
                         spec=spec)


def _fit_box(s: State, spec: SpectralData, th: Thresholds,
             sign_hint: int | None, sigma0: float) -> ModulationFit:
    """The box solve for (sigma, c): Newton on the stride-2 coarse lattice,
    then on the inscribed ball.  The sign is the one whose W is nearer in
    L^2 on the coarse lattice.  ||s||_H^2 is taken once, for ||s||_H and
    ||v||_H; each ||v||_H takes the state's gradient again, node by node in
    the compiled cross term, rather than holding it for the fit.  The fit
    counts its residuals and ||v||_H evaluations in ``evals``."""
    g = s.grid
    refs = _box_fit_refs(spec, g)
    u1, u2 = s.u1.values, s.u2.values
    u1_c = _coarse(u1)
    vol = g.cell_volume
    uu_c = float(np.sum(u1_c * u1_c) * (vol * 8))
    cross_c = float(np.sum(u1_c * refs["W_coarse"]) * (vol * 8))
    sgn = _choose_sign(lambda sg: uu_c - 2 * sg * cross_c + refs["W_sq_coarse"],
                       th.sign_ambiguity_margin, sign_hint)
    h_sq = g.h1_sq(u1) + g.quad(g.by_slabs(lambda sl: u2[sl] * u2[sl]))
    u1_b = _gather(u1, refs["ball"])
    evals = {"coarse": 0, "ball": 0, "v_norm": 0}

    def residual_coarse(x):
        evals["coarse"] += 1
        return (box_mode_integrals(spec, g, x[0], x[1:], refs["coarse"],
                                   u1_c, vol * 8)
                - sgn * refs["coarse_consts"])

    def residual(x):
        evals["ball"] += 1
        return (box_mode_integrals(spec, g, x[0], x[1:], refs["ball"], u1_b,
                                   vol)
                - sgn * refs["ball_consts"])

    def v_norm(x):
        # ||s - sgn W_vec_sigma(. - c)||_H without materializing v
        evals["v_norm"] += 1
        cross = _box_cross(g, u1, float(x[0]), np.asarray(x[1:], dtype=float))
        return math.sqrt(max(h_sq - 2.0 * sgn * cross + refs["grad_W_sq"],
                             0.0))

    h0 = np.diag([-float(sgn) / spec.b_W, float(sgn) / spec.a_W,
                  float(sgn) / spec.a_W, float(sgn) / spec.a_W])
    x = np.concatenate([[sigma0], np.zeros(3)])
    x, _, _, _ = _newton_loop(residual_coarse, h0, x, 1e-4, 12)
    x, f, converged, iters = _accept_and_refine(
        residual, h0, x, math.sqrt(max(h_sq, 0.0)), v_norm, th)
    return ModulationFit(sign_s=sgn, sigma=float(x[0]),
                         c=np.asarray(x[1:], dtype=float),
                         converged=converged, newton_iters=iters,
                         orth_residual=f, state=None, spec=spec, evals=evals)


def _accept_and_refine(residual, h0: np.ndarray, x: np.ndarray, scale: float,
                       v_norm, th: Thresholds):
    """Solve to th.tol_orth * ||s||_H (``scale``), reject a root whose
    residual state is larger than delta_A, then refine to the ||v||-relative
    target; v_norm(x) is ||v||_H at the root x.  Returns (x, f, converged,
    Newton iterations)."""
    tol_coarse = th.tol_orth * max(scale, 1e-12)
    x, f, res, iters = _newton_loop(residual, h0, x, tol_coarse,
                                    th.newton_max_iters)
    if not res <= tol_coarse:
        return x, f, False, iters
    # the orthogonality equations have spurious roots far from the
    # family; a root with a large residual state is not a capture
    vn = v_norm(x)
    if vn > th.delta_A:
        return x, f, False, iters
    # refine to the ||v||-relative orthogonality target; ||v|| equals
    # the distance to the fitted family member by unitarity of T^c S^sigma
    tol_fine = max(th.tol_orth * vn, 1e-13 * max(scale, 1.0))
    if res > tol_fine:
        x, f, res, it2 = _newton_loop(residual, h0, x, tol_fine,
                                      th.newton_max_iters, f0=f)
        return x, f, res <= tol_fine, iters + it2
    return x, f, True, iters


def _box_cross(g: Box3DGrid, u: np.ndarray, sigma: float, c) -> float:
    """<grad u | grad W_sigma(. - c)> under the box quadrature for
    C-contiguous samples u; W_sigma = e^(sigma/2) W(e^sigma .).  One
    compiled pass (``cw_box_cross``, ``_box.c``) forms the gradient of u
    and the slope e^(3 sigma / 2) W'(e^sigma r) / r node by node and sums
    the integrand as np.sum sums the cube, bitwise the numpy slabs."""
    es = math.exp(sigma)
    amp = math.exp(sigma / 2.0) * es
    return float(_native.LIB.cw_box_cross(
        *g.stencil_args(u), _native.address(g.axis, g.m), c[0], c[1], c[2],
        es, amp) * g.cell_volume)


def _residual_state(s: State, spec: SpectralData, sgn: int,
                    sigma: float) -> State:
    """v = S^(-sigma) u - sgn W_vec for a radial state."""
    g = s.grid
    w = spec.W_on(g)
    if abs(sigma) < 1e-14:
        v1 = s.u1.values - sgn * w
        v2 = s.u2.values.copy()
    else:
        p1 = s.u1.profile()
        p2 = s.u2.profile()
        v1 = scale_profile(p1, g.d, -1.0, -sigma)(g.r) - sgn * w
        v2 = scale_profile(p2, g.d, 0.0, -sigma)(g.r)
    return State(RadialField(g, v1), RadialField(g, v2))


def assemble_state(sgn: int, sigma: float, c, v: State) -> State:
    """u = T^c S^sigma (sgn W_vec + v): the inverse of a converged radial
    fit (c = 0)."""
    v.require_radial("assemble_state")
    if np.any(np.asarray(c, dtype=float) != 0.0):
        raise ValueError("radial assembly requires c = 0")
    g = v.grid
    p1 = v.u1.profile()
    p2 = v.u2.profile()
    u1 = (sgn * _w_sigma_field(g, sigma)
          + scale_profile(p1, g.d, -1.0, sigma)(g.r))
    u2 = scale_profile(p2, g.d, 0.0, sigma)(g.r)
    return State(RadialField(g, u1), RadialField(g, u2))


# ---------------------------------------------------------------------------
# mode split
# ---------------------------------------------------------------------------

def split_modes(fit: ModulationFit, spec: SpectralData) -> ModeSplit:
    """Mode amplitudes of the sign-adjusted residual w = sign_s * v of a
    converged radial fit, in adjoint form (v is not built).

    With u the fitted state and rho_s = rho(e^sigma r):

        lambda_1 = (sgn e^((d/2+1) sigma) <u_1 | rho_s> - <W | rho>) / |rho|^2,
        lambda_2 = sgn e^((d/2) sigma) <u_2 | rho_s> / |rho|^2,

    and ||gamma||_H = ||S^sigma gamma||_H (S^sigma is unitary in H) from
    S^sigma gamma = (sgn u_1 - W_sigma - lambda_1 S_-1^sigma rho,
    sgn u_2 - lambda_2 S_0^sigma rho) on the state's grid.  The remainder
    is formed pointwise, not as ||v||^2 minus the mode parts, which
    cancels catastrophically when ||gamma|| << ||v||.  (alpha needs no
    pairing: it is sgn times the fit's final orthogonality residual.)
    """
    s = fit.state
    if not fit.converged or s is None:
        raise FitError("cannot split a fit without a residual state "
                       "(unconverged, or a box fit)")
    sgn, sigma = fit.sign_s, fit.sigma
    g = s.grid
    refs = spec.grid_refs(g)
    amp1 = math.exp((g.d / 2.0 - 1.0) * sigma)     # S_-1^sigma
    amp0 = math.exp((g.d / 2.0) * sigma)           # S_0^sigma
    rho_s = spec.rho_profile(math.exp(sigma) * g.r)
    u1 = sgn * s.u1.values
    u2 = sgn * s.u2.values
    rho_sq = refs["rho_norm_sq"]
    lam1 = ((math.exp((g.d / 2.0 + 1.0) * sigma) * g.quad_meas(u1 * rho_s)
             - refs["W_ip_rho"]) / rho_sq)
    lam2 = amp0 * g.quad_meas(u2 * rho_s) / rho_sq
    gamma = State(
        RadialField(g, u1 - _w_sigma_field(g, sigma) - (lam1 * amp1) * rho_s),
        RadialField(g, u2 - (lam2 * amp0) * rho_s))
    return ModeSplit(lambda1=lam1, lambda2=lam2, gamma_norm=norm_H(gamma))


# ---------------------------------------------------------------------------
# distance to the soliton family
# ---------------------------------------------------------------------------

def _manifold_distance_sq(spec: SpectralData, s: State, sgn: int,
                          sigma: float) -> float:
    """||s - sgn W_vec_sigma||_H^2 = ||s||_H^2 - 2 sgn cross(sigma)
    + ||grad W||^2 for a radial state, with cross(sigma) =
    <grad u1 | grad W_sigma> kept on u1 (see ``RadialField.cross``)."""
    u1 = s.u1
    return ((u1.h1_sq + s.u2.l2_sq) - 2.0 * sgn * u1.cross(sigma)[0]
            + spec.grid_refs(s.grid)["grad_W_sq"])


# the hard range of d_0's sigma search, its largest step and its tolerance
SIGMA_RANGE = (-9.0, 4.0)
SIGMA_STEP = 1.0
SIGMA_TOL = 1e-7


def _sigma_step(x: float, g: float, h: float, lo: float, hi: float) -> float:
    """The next iterate of the sigma search from x, where F = -|cross| has
    the slope g != 0 and the curvature h, inside the bracket [lo, hi] of
    SIGMA_RANGE that holds a minimizer: the Newton step -g/h when h > 0,
    of at most SIGMA_STEP, else a step of SIGMA_STEP downhill; cut at the
    range's ends.  A point outside the open bracket is replaced by its midpoint (the
    safeguard), unless it is an end of the range that is also an end of the
    bracket, where the minimizer may lie."""
    step = -g / h if h > 0.0 else -math.copysign(SIGMA_STEP, g)
    new = x + max(-SIGMA_STEP, min(step, SIGMA_STEP))
    new = max(SIGMA_RANGE[0], min(new, SIGMA_RANGE[1]))
    if lo < new < hi or new == lo == SIGMA_RANGE[0] \
            or new == hi == SIGMA_RANGE[1]:
        return new
    return 0.5 * (lo + hi)


def _argmin_sigma(cross, x: float) -> float:
    """A minimizer of F(sigma) = -|cross(sigma)| over SIGMA_RANGE by a
    safeguarded Newton iteration on F' = 0 from x, with cross(sigma) =
    (cross, cross', cross''), as ``RadialField.cross`` gives them.  The
    bracket starts as the range; each iterate's slope moves one of its
    ends there (the minimizer lies below a rising point and above a
    falling one), and :func:`_sigma_step` keeps every iterate inside it.
    It stops once a step is below SIGMA_TOL, at the point that step
    reaches, or at an end of the range where F rises into the range.
    Each iterate is one full-grid pass."""
    lo, hi = SIGMA_RANGE
    while True:
        c, c1, c2 = cross(x)
        sgn = math.copysign(1.0, c)
        g, h = -sgn * c1, -sgn * c2
        if g == 0.0 or (g > 0.0 and x == SIGMA_RANGE[0]) \
                or (g < 0.0 and x == SIGMA_RANGE[1]):
            return x
        if g > 0.0:
            hi = x
        else:
            lo = x
        new = _sigma_step(x, g, h, lo, hi)
        if abs(new - x) < SIGMA_TOL:
            return new
        x = new


def manifold_distance(spec: SpectralData, s: State,
                      sigma_seed: float | None = None) -> tuple[float, float]:
    """(d, sigma*): d = inf over (+-, sigma) of ||s -+ W_vec_sigma||_H for
    a radial state, ||s||_H^2 + ||grad W||^2 - 2 max |cross(sigma)|, and
    sigma* its minimizer over SIGMA_RANGE = [-9, 4].  The search
    (``_argmin_sigma``, Newton on the closed-form sigma-derivatives of the
    cross term, ``RadialField.cross``) starts from sigma_seed (a
    modulation fit's sigma, or the sigma* of the run's last row) or,
    unseeded, from the lowest of 14 points spaced 1 apart over the range;
    d is then taken from cross(sigma*).
    """
    s.require_radial("manifold_distance")
    lo_end, hi_end = SIGMA_RANGE
    if sigma_seed is None:
        scan = np.linspace(lo_end, hi_end, 14).tolist()
        x = max(scan, key=lambda x: abs(s.u1.cross(x)[0]))
    else:
        x = min(max(sigma_seed, lo_end), hi_end)
    sigma = _argmin_sigma(s.u1.cross, x)
    dist_sq = min(_manifold_distance_sq(spec, s, +1, sigma),
                  _manifold_distance_sq(spec, s, -1, sigma))
    return math.sqrt(max(dist_sq, 0.0)), sigma


def distance_dW(s: State, spec: SpectralData,
                thresholds: Thresholds | None = None,
                fit: ModulationFit | None = None) -> DistanceReport:
    """The blended distance d_W = chi d_1 + (1 - chi) d_0 to the family.

    The fit, d_0 and the energy in d_1 share the pieces of the state's
    fields.
    """
    s.require_radial("distance_dW")
    th = thresholds or Thresholds()
    if fit is None:
        try:
            fit = fit_modulation(s, spec, th)
        except FitError:
            fit = None
    fitted = fit is not None and fit.converged
    d0, d0_sigma = manifold_distance(spec, s, fit.sigma if fitted else None)
    d0 *= th.C_d0
    dw, ms = d0, None
    if fitted:
        ms = split_modes(fit, spec)
        d1_sq = (energy_E(s) - spec.grid_refs(s.grid)["J_W"]
                 + spec.k ** 2 * ms.lambda1 ** 2)
        d1 = math.sqrt(max(d1_sq, 0.0))
        if not math.isnan(d1):
            chi = float(smooth_cutoff(2.0 * d0 / th.delta_A, 1.0, 2.0))
            dw = chi * d1 + (1.0 - chi) * d0
    return DistanceReport(d0=d0, dW=dw, d0_sigma=d0_sigma, modes=ms)


# ---------------------------------------------------------------------------
# sign functional and region predicates
# ---------------------------------------------------------------------------

def _sign_of(x: float) -> int:
    """sign with the convention sign 0 = +1."""
    return -1 if x < 0.0 else +1


def sign_functional(dW: float, lambda1: float, K: float,
                    th: Thresholds) -> tuple[int, bool]:
    """The fate sign and whether its two rules disagree.

    The inner rule -sign(lambda1) applies near the family, where a fit
    converged (lambda1 is not NaN) and d_W <= delta_E; the outer rule
    sign(K) applies away from it, where d_W >= delta_S.  Where both apply
    the inner sign is returned and ``disagree`` tells whether the outer
    one differs; where neither applies the sign is 0.
    """
    outer = _sign_of(K) if dW >= th.delta_S else 0
    if math.isnan(lambda1) or not dW <= th.delta_E:
        return outer, False
    inner = -_sign_of(lambda1)
    return inner, outer != 0 and outer != inner


def region_predicates(s: State, spec: SpectralData,
                      thresholds: Thresholds | None = None,
                      report: DistanceReport | None = None) -> dict:
    """Membership in the energy band, the X-region, and the variational zone."""
    s.require_radial("region_predicates")
    th = thresholds or Thresholds()
    if report is None:
        report = distance_dW(s, spec, th)
    jref = spec.grid_refs(s.grid)["J_W"]
    e = energy_E(s)
    in_star = e <= jref + th.eps_star ** 2
    in_x = in_star and (e < jref + 0.5 * report.dW ** 2)
    j1 = functional_J(s.u1)
    in_var = (j1 < jref + th.eps_star ** 2) and (report.dW > th.delta_S)
    return {"in_H_star": bool(in_star), "in_H_X": bool(in_x),
            "in_variational_zone": bool(in_var),
            "E": e, "J_u1": j1, "dW": report.dW}
