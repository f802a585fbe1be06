import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from critwave import evolve, modulation
from critwave.config import SWEEP_EVOLUTION
from critwave.experiments import (BoxResidualClosure, assemble_box_exact,
                                  random_box_closure,
                                  random_orthogonal_residual)
from critwave.fields import (Field3D, RadialField, State, UniformSpline,
                             eval_W, eval_W_dr, nonlinearity_power,
                             sobolev_exponent)
from critwave.functionals import (crit_norm, energy_E, functional_K,
                                  h1_seminorm_sq, l2_inner, l2_norm_sq,
                                  norm_H, symplectic_omega)
from critwave.grids import BLOCK_POINTS, Box3DGrid, RadialGrid
from critwave.modulation import (SIGMA_RANGE, FitError, ModeSplit,
                                 SignAmbiguityError,
                                 _argmin_sigma, _box_cross, _box_fit_refs,
                                 _manifold_distance_sq, _radial_mode_ip,
                                 _sigma_step,
                                 box_mode_integrals,
                                 box_mode_parts, box_modes, assemble_state,
                                 distance_dW, fit_modulation,
                                 manifold_distance, region_predicates,
                                 sign_functional, split_modes)
from critwave.spectral import (_mode_samples, build_spectral_data,
                               quadratic_form_L)

# sampled bounds: the Lipschitz constant of d_W (max seen 1.04) and the
# constant of |K(W+v) + (2*-2)<W^(2*-1)|v>| <= C ||v||^2 (max seen 7.2)
L_DW = 2.0
K_EXPANSION_CONST = 15.0


def resampled_split(fit, spec) -> tuple[ModeSplit, State]:
    """Oracle: the mode split of the residual w = sign_s * v resampled onto
    the state's grid, with its remainder gamma as a state."""
    w = fit.v * float(fit.sign_s)
    g = w.grid
    rho = RadialField(g, spec.rho_on(g))
    rho_sq = l2_norm_sq(rho)
    lam1 = l2_inner(w.u1, rho) / rho_sq
    lam2 = l2_inner(w.u2, rho) / rho_sq
    gamma = State(RadialField(g, w.u1.values - lam1 * rho.values),
                  RadialField(g, w.u2.values - lam2 * rho.values))
    return ModeSplit(lambda1=lam1, lambda2=lam2,
                     gamma_norm=norm_H(gamma)), gamma


def unstable_pair(ms: ModeSplit, k: float) -> tuple[float, float]:
    """(lambda_+, lambda_-) = sqrt(k/2) (lambda_1 +- lambda_2 / k), the
    amplitudes of the modes g+ and g-."""
    sk = math.sqrt(k / 2.0)
    return sk * (ms.lambda1 + ms.lambda2 / k), sk * (ms.lambda1 - ms.lambda2 / k)


def fit_alpha(fit) -> float:
    """alpha = <w_1 | Lambda_0 rho>: the signed final orthogonality residual
    of a radial fit."""
    return fit.sign_s * float(fit.orth_residual[0])


def linearized_norm_sq(ms: ModeSplit, gamma: State, spec,
                       alpha: float) -> float:
    """||v||_E^2 = (k^2 l1^2 + l2^2)/2 + <L gamma | gamma>/2 + alpha^2."""
    k = spec.k
    quad_g = quadratic_form_L(spec, gamma.u1)[0] + l2_norm_sq(gamma.u2)
    return (0.5 * (k * k * ms.lambda1 ** 2 + ms.lambda2 ** 2)
            + 0.5 * quad_g + alpha ** 2)


def superquadratic_C(v1: RadialField) -> float:
    """Oracle: the beyond-quadratic part of the static energy around W,

    C(v) = int [ (|W+v1|^(2*) - W^(2*)) / 2* - W^p v1 - (p/2) W^(p-1) v1^2 ],

    cubic at the origin: C(eps rho)/eps^3 has a finite limit.
    """
    g = v1.grid
    d = g.d
    w = np.asarray(eval_W(d, g.r ** 2))
    ts = sobolev_exponent(d)
    p = nonlinearity_power(d)
    f = v1.values
    integrand = ((np.abs(w + f) ** ts - w ** ts) / ts
                 - w ** p * f - (p / 2.0) * w ** (p - 1.0) * f * f)
    return float(g.quad_meas(integrand))


def fate_sign(s: State, spec, th) -> tuple[int, bool]:
    """sign_functional on the inputs a monitor row gives it: d_W, lambda_1
    of a converged fit (NaN without one) and K."""
    rep = distance_dW(s, spec, th)
    lam1 = rep.modes.lambda1 if rep.modes is not None else math.nan
    return sign_functional(rep.dW, lam1, functional_K(s.u1), th)


@pytest.fixture(scope="module")
def ctx(spectral, static_grid, thresholds):
    g = static_grid
    return {
        "g": g,
        "W": spectral.W_on(g),
        "rho": spectral.rho_on(g),
        "zeros": RadialField(g, np.zeros(g.n)),
        "spec": spectral,
        "th": thresholds,
    }


class TestFit:
    def test_exact_ground_state(self, ctx):
        s = State(RadialField(ctx["g"], ctx["W"]), ctx["zeros"])
        fit = fit_modulation(s, ctx["spec"], ctx["th"])
        assert fit.converged
        assert fit.sign_s == 1
        assert fit.sigma == 0.0
        assert norm_H(fit.v) < 1e-10

    def test_scaled_member(self, ctx, sample_W_family):
        s = sample_W_family(ctx["g"], 0.1)
        fit = fit_modulation(s, ctx["spec"], ctx["th"])
        assert fit.converged
        assert fit.sigma == pytest.approx(0.1, abs=1e-6)
        assert norm_H(fit.v) < 1e-6

    def test_rho_direction_needs_no_modulation(self, ctx):
        # <rho|Lambda_0 rho> = 0 makes W + eps rho already orthogonal at sigma=0
        s = State(RadialField(ctx["g"], ctx["W"] + 0.01 * ctx["rho"]),
                  ctx["zeros"])
        fit = fit_modulation(s, ctx["spec"], ctx["th"])
        assert fit.converged
        assert abs(fit.sigma) < 1e-7
        assert np.max(np.abs(fit.v.u1.values - 0.01 * ctx["rho"])) < 1e-6

    def test_orthogonality_invariant(self, ctx, rng):
        g, spec, th = ctx["g"], ctx["spec"], ctx["th"]
        lam0 = RadialField(g, spec.lambda0_rho_on(g))
        for _ in range(5):
            v = random_orthogonal_residual(spec, g, rng,
                                           amplitude=float(rng.uniform(0.01, 0.1)))
            u = assemble_state(1, float(rng.uniform(-0.4, 0.4)),
                               np.zeros(3), v)
            fit = fit_modulation(u, spec, th)
            assert fit.converged
            nv = norm_H(fit.v)
            assert abs(l2_inner(fit.v.u1, lam0)) <= th.tol_orth * nv * 1.5

    def test_sign_ambiguity_far_state(self, ctx):
        # a state orthogonal-ish to both signs triggers the ambiguity error
        g = ctx["g"]
        bump = RadialField(g, 0.3 * np.exp(-((g.r - 30.0) / 2.0) ** 2))
        with pytest.raises(SignAmbiguityError):
            fit_modulation(State(bump, ctx["zeros"]), ctx["spec"], ctx["th"])

    def test_no_convergence_outside_capture(self, ctx):
        g = ctx["g"]
        s = State(RadialField(g, 3.0 * ctx["W"]), ctx["zeros"])
        fit = fit_modulation(s, ctx["spec"], ctx["th"], sign_hint=1)
        assert not fit.converged
        assert fit.v is None


class TestRoundTrip:
    def test_radial_invariant(self, ctx, rng):
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        for _ in range(10):
            v = random_orthogonal_residual(spec, g, rng,
                                           amplitude=float(rng.uniform(0.002, 0.08)))
            sgn = int(rng.choice([-1, 1]))
            sigma = float(rng.uniform(-0.5, 0.5))
            u = assemble_state(sgn, sigma, np.zeros(3), v)
            fit = fit_modulation(u, spec, th)
            assert fit.converged
            assert fit.sign_s == sgn
            assert abs(fit.sigma - sigma) <= 1e-6
            assert norm_H(fit.v - v) <= 1e-6

    def test_box_recovery(self, ctx, rng):
        spec, th = ctx["spec"], ctx["th"]
        box = Box3DGrid(20.0, 128)
        for _ in range(2):
            closure = random_box_closure(spec, box, rng, amplitude=0.02)
            sigma = float(rng.uniform(0.0, 0.3))
            c = rng.uniform(-0.4, 0.4, size=3)
            u = assemble_box_exact(box, +1, sigma, c, closure)
            fit = fit_modulation(u, spec, th)
            assert fit.converged
            assert abs(fit.sigma - sigma) <= 1e-6
            assert np.max(np.abs(fit.c - c)) <= 1e-6

    def test_box_soliton_member(self, ctx, sample_W_family):
        spec, th = ctx["spec"], ctx["th"]
        box = Box3DGrid(20.0, 128)
        s = sample_W_family(box, 0.1, (0.2, 0.0, 0.0))
        fit = fit_modulation(s, spec, th)
        assert fit.converged
        assert abs(fit.sigma - 0.1) <= 1e-6
        assert np.max(np.abs(fit.c - np.array([0.2, 0.0, 0.0]))) <= 1e-6


class TestBoxSign:
    """The box fit's sign: the nearer of +-W in L^2 on the stride-2 coarse
    lattice."""

    @staticmethod
    def full_box_sign(g, u1, margin):
        """Oracle: the sign by the L^2 distances to +-W over the whole box;
        0 where the two are comparably distant."""
        x, y, z = g.open_mesh
        w = np.asarray(eval_W(3, x * x + y * y + z * z))
        uu, cross, w_sq = g.quad(u1 ** 2), g.quad(u1 * w), g.quad(w ** 2)
        dist = {sgn: uu - 2 * sgn * cross + w_sq for sgn in (+1, -1)}
        lo, hi = min(dist.values()), max(dist.values())
        if hi > 0 and (hi - lo) < margin * hi:
            return 0
        return +1 if dist[+1] <= dist[-1] else -1

    def test_negative_member(self, ctx, rng):
        g = Box3DGrid(6.0, 25)
        closure = random_box_closure(ctx["spec"], g, rng, amplitude=0.02)
        u = assemble_box_exact(g, -1, 0.1, (0.2, -0.1, 0.3), closure)
        assert fit_modulation(u, ctx["spec"], ctx["th"]).sign_s == -1

    @pytest.mark.parametrize("half_width, m", [(6.0, 25), (20.0, 64)])
    def test_odd_state_is_ambiguous(self, ctx, half_width, m):
        g = Box3DGrid(half_width, m)
        x, y, z = g.open_mesh
        u1 = x * np.exp(-(x * x + y * y + z * z) / 4.0)
        s = State(Field3D(g, u1), Field3D(g, np.zeros((m, m, m))))
        with pytest.raises(SignAmbiguityError):
            fit_modulation(s, ctx["spec"], ctx["th"])

    def test_coarse_choice_equals_full_box_choice(self, ctx):
        # closures of H amplitude 1 to 1000: near the family the sign is
        # the assembled one; far from it the sign rests on the closure's
        # overlap with W, and some states are ambiguous.  The sign is
        # chosen before the Newton solve, so one ball step suffices.
        spec = ctx["spec"]
        th = dataclasses.replace(ctx["th"], newton_max_iters=1)
        g = Box3DGrid(20.0, 64)
        rng = np.random.default_rng(12345)
        seen = []
        for i in range(8):
            closure = random_box_closure(spec, g, rng,
                                         amplitude=10 ** rng.uniform(0, 3))
            u = assemble_box_exact(g, (-1) ** i, float(rng.uniform(-0.3, 0.3)),
                                   rng.uniform(-0.4, 0.4, size=3), closure)
            want = self.full_box_sign(g, u.u1.values, th.sign_ambiguity_margin)
            try:
                got = fit_modulation(u, spec, th).sign_s
            except SignAmbiguityError:
                got = 0
            assert got == want, i
            seen.append(got)
        assert set(seen) == {1, -1, 0}


class TestModeSplit:
    def test_pure_unstable_mode(self, ctx):
        spec, g = ctx["spec"], ctx["g"]
        eps = 1e-3
        gp, _ = spec.mode_states(g)
        s = State(RadialField(g, ctx["W"] + eps * gp.u1.values),
                  RadialField(g, eps * gp.u2.values))
        fit = fit_modulation(s, spec, ctx["th"])
        ms = split_modes(fit, spec)
        lam_plus, lam_minus = unstable_pair(ms, spec.k)
        assert lam_plus == pytest.approx(eps, rel=1e-6)
        assert abs(lam_minus) <= 1e-9
        assert ms.gamma_norm <= 1e-6

    def test_rho_pair_amplitudes(self, ctx):
        spec, g = ctx["spec"], ctx["g"]
        s = State(RadialField(g, ctx["W"] + 0.01 * ctx["rho"]), ctx["zeros"])
        ms = split_modes(fit_modulation(s, spec, ctx["th"]), spec)
        assert ms.lambda1 == pytest.approx(0.01, rel=1e-10)
        assert abs(ms.lambda2) <= 1e-12
        # change of variables consistency
        k = spec.k
        lam_plus, lam_minus = unstable_pair(ms, k)
        assert ms.lambda1 == pytest.approx(
            (lam_plus + lam_minus) / math.sqrt(2 * k), rel=1e-12)
        assert ms.lambda2 == pytest.approx(
            math.sqrt(k / 2) * (lam_plus - lam_minus), abs=1e-12)

    def test_reconstruction(self, ctx, rng):
        spec, g, th = ctx["spec"], ctx["g"], ctx["th"]
        v = random_orthogonal_residual(spec, g, rng, amplitude=0.03)
        u = assemble_state(1, 0.1, np.zeros(3), v)
        fit = fit_modulation(u, spec, th)
        ms = split_modes(fit, spec)
        _, gamma = resampled_split(fit, spec)
        gp, gm = spec.mode_states(g)
        lam_plus, lam_minus = unstable_pair(ms, spec.k)
        recon = (lam_plus * gp + lam_minus * gm + gamma)
        assert norm_H(recon - fit.v * float(fit.sign_s)) <= 1e-8
        # omega-orthogonality of the remainder
        assert abs(symplectic_omega(gamma, gp)) <= 1e-9
        assert abs(symplectic_omega(gamma, gm)) <= 1e-9

    def test_sign_adjusted_frame(self, ctx):
        # amplitudes of -(W + eps rho) match those of +(W + eps rho)
        spec, g = ctx["spec"], ctx["g"]
        up = State(RadialField(g, ctx["W"] + 0.01 * ctx["rho"]), ctx["zeros"])
        um = up * -1.0
        msp = split_modes(fit_modulation(up, spec, ctx["th"]), spec)
        msm = split_modes(fit_modulation(um, spec, ctx["th"]), spec)
        assert msm.lambda1 == pytest.approx(msp.lambda1, rel=1e-10)


class TestAdjointSplit:
    """split_modes (modes transported to the fit's scale) against the
    resampled oracle on near-family states with sigma != 0."""

    @pytest.mark.parametrize("sgn", [1, -1])
    @pytest.mark.parametrize("sigma", [-0.3, 0.1, 0.4])
    def test_matches_resampled_oracle(self, ctx, rng, sgn, sigma):
        spec, g, th = ctx["spec"], ctx["g"], ctx["th"]
        v = random_orthogonal_residual(spec, g, rng, amplitude=0.02)
        fit = fit_modulation(assemble_state(sgn, sigma, np.zeros(3), v),
                             spec, th)
        assert fit.converged and fit.sign_s == sgn
        ms = split_modes(fit, spec)
        want, _ = resampled_split(fit, spec)
        assert abs(ms.lambda1 - want.lambda1) <= 1e-9 * abs(want.lambda1)
        assert abs(ms.lambda2 - want.lambda2) <= 1e-9 * abs(want.lambda2)
        assert abs(ms.gamma_norm - want.gamma_norm) <= 1e-3 * want.gamma_norm

    def test_alpha_is_the_signed_fit_residual(self, ctx, rng):
        spec, g, th = ctx["spec"], ctx["g"], ctx["th"]
        v = random_orthogonal_residual(spec, g, rng, amplitude=0.03)
        for sgn in (1, -1):
            u = assemble_state(sgn, 0.2, np.zeros(3), v)
            fit = fit_modulation(u, spec, th)
            # fit_alpha's residual is that of the final sigma:
            # <S^sigma u1 | Lambda_0 rho> minus sgn <W | Lambda_0 rho>
            resid = (_radial_mode_ip(u.u1, spec.lambda0_rho_profile,
                                     fit.sigma)
                     - sgn * spec.grid_refs(g)["W_ip_lambda0_rho"])
            assert fit_alpha(fit) == sgn * resid


class TestLinearizedNorm:
    """||v||_E^2 from the amplitudes of ``split_modes`` and the remainder
    gamma of the resampled oracle."""

    @staticmethod
    def norm_sq(fit, spec):
        return linearized_norm_sq(split_modes(fit, spec),
                                  resampled_split(fit, spec)[1], spec,
                                  fit_alpha(fit))

    def test_zero(self, ctx):
        s = State(RadialField(ctx["g"], ctx["W"]), ctx["zeros"])
        fit = fit_modulation(s, ctx["spec"], ctx["th"])
        assert self.norm_sq(fit, ctx["spec"]) <= 1e-20

    def test_pure_lambda1_mode(self, ctx):
        spec = ctx["spec"]
        eps = 1e-3
        s = State(RadialField(ctx["g"], ctx["W"] + eps * ctx["rho"]),
                  ctx["zeros"])
        fit = fit_modulation(s, spec, ctx["th"])
        assert self.norm_sq(fit, spec) == pytest.approx(
            0.5 * spec.k ** 2 * eps ** 2, rel=1e-6)

    def test_equivalence_with_H_norm(self, ctx, rng):
        # ||v||_E^2 / ||v||_H^2 stays in a fixed positive window (sampled)
        spec, g, th = ctx["spec"], ctx["g"], ctx["th"]
        ratios = []
        for _ in range(20):
            v = random_orthogonal_residual(spec, g, rng,
                                           amplitude=float(rng.uniform(0.005, 0.05)))
            u = assemble_state(1, 0.0, np.zeros(3), v)
            fit = fit_modulation(u, spec, th)
            ratios.append(self.norm_sq(fit, spec) / norm_H(fit.v) ** 2)
        assert min(ratios) > 0.05
        assert max(ratios) < 20.0


class TestSuperquadratic:
    def test_zero_input(self, ctx):
        assert superquadratic_C(ctx["zeros"]) == 0.0

    def test_cubic_scaling(self, ctx):
        g = ctx["g"]
        vals = []
        for eps in (1e-2, 1e-3):
            c = superquadratic_C(RadialField(g, eps * ctx["rho"]))
            vals.append(c / eps ** 3)
        # Richardson in eps: the ratio approaches a finite nonzero limit
        assert vals[0] == pytest.approx(vals[1], rel=5e-3)
        assert abs(vals[1]) > 0.1

    def test_cubic_bound_on_samples(self, ctx, rng):
        # |C(v)| <~ ||W^(2*-3) v^3||_1 + ||v||_(2*)^(2*)
        g = ctx["g"]
        w = ctx["W"]
        for _ in range(5):
            amp = float(rng.uniform(0.01, 0.3))
            f = amp * np.exp(-((g.r - rng.uniform(0, 4)) / rng.uniform(1, 3)) ** 2)
            c_val = abs(superquadratic_C(RadialField(g, f)))
            bound = (g.quad_meas(w ** 3 * np.abs(f) ** 3)
                     + g.quad_meas(np.abs(f) ** 6))
            assert c_val <= 10.0 * bound

    def test_energy_expansion(self, ctx):
        # E(W_vec + v) - J(W) = -k l+ l- + <L gamma|gamma>/2 - C(v)
        spec, g, th = ctx["spec"], ctx["g"], ctx["th"]
        amp = 1e-3
        b1 = amp * np.exp(-((g.r - 2.0) / 1.5) ** 2)
        b2 = 0.5 * amp * np.exp(-((g.r - 3.0) / 2.0) ** 2)
        s = State(RadialField(g, ctx["W"] + b1), RadialField(g, b2))
        fit = fit_modulation(s, spec, th)
        ms = split_modes(fit, spec)
        _, gamma = resampled_split(fit, spec)
        lhs = energy_E(s) - spec.grid_refs(g)["J_W"]
        quad_g = (quadratic_form_L(spec, gamma.u1)[0]
                  + l2_norm_sq(gamma.u2))
        w_adj = fit.v * float(fit.sign_s)
        lam_plus, lam_minus = unstable_pair(ms, spec.k)
        rhs = (-spec.k * lam_plus * lam_minus + 0.5 * quad_g
               - superquadratic_C(w_adj.u1))
        assert abs(lhs - rhs) <= 1e-8


def is_inner(rep, th) -> bool:
    """d_W = d_1 exactly: a converged fit with d_0 inside the blend's start
    at delta_A / 2."""
    return rep.modes is not None and rep.d0 <= 0.5 * th.delta_A


class TestDistance:
    def test_zero_on_manifold(self, ctx, sample_W_family):
        # d_W = sqrt(E - J(W) + ...) amplifies the O(1e-12) sigma-drift of
        # the energy quadrature; the 1e-6 statement holds for moderate
        # scales, with a ~1e-6-scale floor growing past |sigma| ~ 0.4
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        for sigma in (-0.4, 0.0, 0.2):
            s = sample_W_family(g, sigma)
            rep = distance_dW(s, spec, th)
            assert rep.dW <= 1e-6
            assert is_inner(rep, th)
        s = sample_W_family(g) * -1.0
        assert distance_dW(s, spec, th).dW <= 1e-6
        wide = sample_W_family(g, 0.7)
        assert distance_dW(wide, spec, th).dW <= 5e-6

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_unstable_pair_value(self, ctx, eps):
        # d_W^2 = E - J(W) + k^2 lambda_1^2 = k^2 eps^2 / 2 + O(eps^3)
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        s = State(RadialField(g, ctx["W"] + eps * ctx["rho"]), ctx["zeros"])
        rep = distance_dW(s, spec, th)
        expect_sq = 0.5 * spec.k ** 2 * eps ** 2
        assert rep.dW ** 2 == pytest.approx(expect_sq, rel=0.02)
        assert is_inner(rep, th)

    def test_outer_equivalence_with_lambda1(self, ctx):
        # in the outer part of the inner region, d_W ~ k |lambda_1|
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        ratios = []
        for eps in (5e-3, 2e-2, 5e-2):
            s = State(RadialField(g, ctx["W"] + eps * ctx["rho"]), ctx["zeros"])
            fit = fit_modulation(s, spec, th)
            ms = split_modes(fit, spec)
            rep = distance_dW(s, spec, th, fit=fit)
            ratios.append(rep.dW / abs(ms.lambda1))
        assert max(ratios) / min(ratios) < 1.5
        assert min(ratios) > 0.3

    def test_blend_consistency(self, ctx):
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        s = State(RadialField(g, 0.5 * ctx["W"]), ctx["zeros"])
        rep = distance_dW(s, spec, th)
        # outer: no converged fit, or d_0 past the blend's end at delta_A
        assert rep.modes is None or rep.d0 >= th.delta_A
        assert rep.dW == rep.d0

    def test_lipschitz_shadow(self, ctx, rng):
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        base = State(RadialField(g, ctx["W"] + 0.05 * ctx["rho"]), ctx["zeros"])
        d_base = distance_dW(base, spec, th).dW
        for _ in range(5):
            step_norm = float(rng.uniform(0.003, 0.03))
            bump = np.exp(-((g.r - rng.uniform(0, 6)) / rng.uniform(1, 3)) ** 2)
            bump_fld = RadialField(g, bump)
            scale = step_norm / math.sqrt(h1_seminorm_sq(bump_fld))
            other = State(RadialField(g, base.u1.values + scale * bump),
                          base.u2)
            d_other = distance_dW(other, spec, th).dW
            assert abs(d_other - d_base) <= L_DW * step_norm


def _golden_min(fun, lo: float, hi: float, tol: float = 1e-6) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = fun(c1), fun(c2)
    while (b - a) > tol:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = fun(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = fun(c2)
    x = 0.5 * (a + b)
    return x, fun(x)


def golden_manifold_distance_sq(spec, s, sigma_seed):
    """The previous radial search: golden-section to 1e-6 in sigma per sign."""
    best = math.inf
    for sgn in (+1, -1):
        def dist_sq(x):
            return _manifold_distance_sq(spec, s, sgn, x)
        if sigma_seed is None:
            sigmas = np.linspace(-2.0, 4.0, 25)
            i = int(np.argmin([dist_sq(x) for x in sigmas]))
            lo, hi = sigmas[max(i - 1, 0)], sigmas[min(i + 1, len(sigmas) - 1)]
        else:
            lo, hi = sigma_seed - 0.4, sigma_seed + 0.4
        best = min(best, _golden_min(dist_sq, lo, hi)[1])
    return best


def dense_scan_distance_sq(spec, s, step=1e-3):
    """min over both signs and over sigma in [-9, 4] of the squared
    distance: a scan at ``step``, then golden section to 1e-9 between the
    neighbours of the lowest point; and that minimizer."""
    sigmas = np.arange(-9.0, 4.0 + 0.5 * step, step)
    best = (math.inf, math.nan)
    for sgn in (+1, -1):
        def dist_sq(x):
            return _manifold_distance_sq(spec, s, sgn, float(x))
        i = int(np.argmin([dist_sq(x) for x in sigmas]))
        x, d_sq = _golden_min(dist_sq, sigmas[max(i - 1, 0)],
                              sigmas[min(i + 1, len(sigmas) - 1)], tol=1e-9)
        best = min(best, (d_sq, x))
    return best


class TestManifoldDistanceSearch:
    # eps: W + eps rho against the golden section over [-2, 4] or the seed's
    # bracket, all of which holds the minimizer
    @pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.3, 1.0])
    def test_brent_matches_golden_section(self, ctx, eps):
        spec, g = ctx["spec"], ctx["g"]
        for sgn in (+1, -1):
            s = State(RadialField(g, sgn * (ctx["W"] + eps * ctx["rho"])),
                      RadialField(g, 0.5 * eps * ctx["rho"]))
            for seed in (None, 0.0, 0.13):
                want_sq = golden_manifold_distance_sq(spec, s, seed)
                # u1 again, with none of the cross terms the oracle kept
                fresh = State(RadialField(s.grid, s.u1.values), s.u2)
                got, sigma = manifold_distance(spec, fresh, seed)
                assert got ** 2 <= want_sq + 1e-12
                assert got == pytest.approx(math.sqrt(want_sq), rel=1e-6)
                # the distance is the one at the minimizer it returns
                assert got == math.sqrt(min(_manifold_distance_sq(
                    spec, fresh, sg, sigma) for sg in (+1, -1)))
                # full-grid cross-term evaluations, scan included
                assert len(fresh.u1._cross) <= (14 if seed is None else 0) + 20

    # the minimizer below -2 on the sweep grid: W_sigma at sigma = -2.8
    # (edge), whose far field the cross term's tail once cut short, and a
    # shell of radius 30 (dispersed), a scattering tail's shape; each
    # unseeded, seeded at its minimizer, and seeded at 0, whose bracket
    # [-0.4, 0.4] the search leaves through its lower edge
    @pytest.mark.parametrize("kind", ["edge", "dispersed"])
    def test_minimizer_below_minus_two_matches_dense_scan(
            self, ctx, sample_W_family, kind):
        spec = ctx["spec"]
        g = RadialGrid(3, SWEEP_EVOLUTION.r_max, SWEEP_EVOLUTION.n, "uniform")
        if kind == "edge":
            base = sample_W_family(g, -2.8)
        else:
            bump = 0.02 * np.exp(-((g.r - 30.0) / 8.0) ** 2)
            base = State(RadialField(g, bump),
                         RadialField(g, -0.5 * g.deriv(bump)))
        for sgn in (+1, -1):
            s = State(RadialField(g, sgn * base.u1.values), base.u2)
            want_sq, want_sigma = dense_scan_distance_sq(spec, s)
            assert want_sigma < -2.0
            for seed in (None, want_sigma, 0.0):
                fresh = State(RadialField(g, s.u1.values), s.u2)
                got, sigma = manifold_distance(spec, fresh, seed)
                assert got ** 2 <= want_sq + 1e-12
                assert got == pytest.approx(math.sqrt(want_sq), rel=1e-6)
                assert sigma == pytest.approx(want_sigma, abs=1e-3)
                if seed is not None and seed != 0.0:
                    assert len(fresh.u1._cross) <= 20
                elif seed is None:
                    assert len(fresh.u1._cross) <= 14 + 20

    def test_shared_pieces_equal_functionals(self, ctx):
        spec, g = ctx["spec"], ctx["g"]
        s = State(RadialField(g, ctx["W"] + 0.05 * ctx["rho"]),
                  RadialField(g, 0.02 * ctx["rho"]))
        # the pieces that a distance leaves on the fields, against the
        # functionals of fresh fields with the same values
        distance_dW(s, spec)
        fresh = State(RadialField(g, s.u1.values.copy()),
                      RadialField(g, s.u2.values.copy()))
        assert energy_E(s) == energy_E(fresh)
        assert functional_K(s.u1) == functional_K(fresh.u1)
        assert norm_H(s) == norm_H(fresh)
        assert s.u1.crit == crit_norm(fresh.u1)
        assert s.u2.l2_sq == l2_norm_sq(fresh.u2)


class TestSigmaNewton:
    """The safeguarded Newton iteration of d_0's sigma search."""

    @staticmethod
    def recorded(derivs):
        """derivs, recording each sigma it is called at."""
        calls = []

        def wrapped(x):
            calls.append(x)
            return derivs(x)
        return wrapped, calls

    def test_step_leaving_its_bracket_bisects(self):
        # -|cross| = -1 / (1 + sigma^2): from 0.5 the Newton step -2.5,
        # cut to SIGMA_STEP = 1, reaches -0.5, which brackets the minimizer
        # in [-0.5, 0.5]; the step +2.5 from -0.5, cut alike, ends on the
        # bracket's end 0.5, so the safeguard takes the midpoint, the
        # minimizer 0
        def derivs(x):
            q = 1.0 + x * x
            return 1.0 / q, -2.0 * x / q ** 2, (6.0 * x * x - 2.0) / q ** 3
        wrapped, calls = self.recorded(derivs)
        assert _argmin_sigma(wrapped, 0.5) == 0.0
        assert calls == [0.5, -0.5, 0.0]

    @pytest.mark.parametrize("x, g, h, lo, hi, want", [
        (0.5, 1.0, 4.0, -9.0, 0.5, 0.25),      # Newton, inside
        (0.5, 1.0, 0.1, 0.0, 0.5, 0.25),       # Newton leaves: midpoint
        (0.5, 1.0, -1.0, -9.0, 0.5, -0.5),     # curvature < 0: downhill
        (0.5, 1.0, -1.0, 0.0, 0.5, 0.25),      # ... leaving: midpoint
        (3.5, -1.0, 1.0, 3.5, 4.0, 4.0),       # cut at the range's end
        (-8.5, 1.0, 1.0, -9.0, -8.5, -9.0)])
    def test_step(self, x, g, h, lo, hi, want):
        assert _sigma_step(x, g, h, lo, hi) == want

    def test_minimizer_on_an_end_of_the_range(self):
        # |cross| = e^sigma rises through the range: downhill steps of
        # SIGMA_STEP = 1 to the upper end, where the search stops; and
        # -|cross| = -e^(-sigma) rises from the lower end
        wrapped, calls = self.recorded(
            lambda x: (math.exp(x), math.exp(x), math.exp(x)))
        assert _argmin_sigma(wrapped, 0.2) == SIGMA_RANGE[1]
        assert calls == [0.2, 1.2, 2.2, 3.2, 4.0]
        wrapped, calls = self.recorded(
            lambda x: (-math.exp(-x), math.exp(-x), -math.exp(-x)))
        assert _argmin_sigma(wrapped, -8.5) == SIGMA_RANGE[0]
        assert calls == [-8.5, -9.0]

    def test_family_member_beyond_the_upper_end(self, spectral):
        # W_sigma at sigma = 4.5: |cross| rises up to sigma = 4, where d_0
        # takes its infimum over the range, seeded or not
        g = RadialGrid(3, 16.0, 16384, "uniform")
        es = math.exp(4.5)
        u1 = es ** 0.5 * np.asarray(eval_W(3, (es * g.r) ** 2))
        zero = RadialField(g, np.zeros(g.n))
        want_sq, want_sigma = dense_scan_distance_sq(
            spectral, State(RadialField(g, u1), zero))
        assert want_sigma == pytest.approx(SIGMA_RANGE[1], abs=1e-6)
        for seed in (None, 0.0, 3.9, 4.0):
            s = State(RadialField(g, u1), zero)
            got, sigma = manifold_distance(spectral, s, seed)
            assert sigma == SIGMA_RANGE[1]
            assert got ** 2 <= want_sq + 1e-12
            assert got == pytest.approx(math.sqrt(want_sq), rel=1e-9)
            assert len(s.u1._cross) <= (14 if seed is None else 0) + 20


def test_caches_released_with_spectral_data():
    spec = build_spectral_data(cross_check=False)
    g = RadialGrid(3, 32.0, 512, "uniform")
    refs = weakref.ref(spec.rho_on(g))
    modes = box_modes(spec, Box3DGrid(4.0, 16))
    modes, gram = weakref.ref(modes.lam0), weakref.ref(modes.gram)
    fit_refs = _box_fit_refs(spec, Box3DGrid(4.0, 16))
    coarse = weakref.ref(fit_refs["coarse"][0])
    consts = [weakref.ref(fit_refs[key])
              for key in ("ball_consts", "coarse_consts")]
    del fit_refs
    assert refs() is not None and modes() is not None
    assert coarse() is not None and all(c() is not None for c in consts)
    assert gram() is not None
    del spec
    gc.collect()
    assert refs() is None
    assert modes() is None
    assert coarse() is None
    assert all(c() is None for c in consts)
    assert gram() is None


def test_one_cache_entry_per_grid(spectral, thresholds, sample_W_family):
    # a fresh cache: the monitors of a radial state leave one entry on its
    # grid; a box fit and a box closure add two on the box grid and the
    # mode-pair spline
    spec = dataclasses.replace(spectral)
    g = RadialGrid(3, 32.0, 512, "uniform")
    s = State(RadialField(g, spec.W_on(g) + 1e-3 * spec.rho_on(g)),
              RadialField(g, np.zeros(g.n)))
    region_predicates(s, spec, thresholds)
    assert distance_dW(s, spec, thresholds).modes is not None
    assert set(spec._per_grid) == {("grid", g)}
    box = Box3DGrid(4.0, 16)
    fit_modulation(sample_W_family(box), spec, thresholds)
    random_box_closure(spec, box, np.random.default_rng(1))
    assert set(spec._per_grid) == {"mode_pair", ("grid", g),
                                   ("box_fit_refs", box), ("box_modes", box)}


def test_mode_pair_spline_released_with_spectral_data():
    spec = build_spectral_data(cross_check=False)
    spec.mode_pair(np.zeros(1))
    pair = weakref.ref(spec.cached("mode_pair", None))
    assert pair() is not None
    del spec
    gc.collect()
    assert pair() is None


def rho_dr_spline(spec):
    """Oracle: the one-column spline of rho' on the eigen grid, which the
    spectrum no longer keeps (its rho' is the second column of mode_pair)."""
    return UniformSpline(spec.eigen_grid, _mode_samples(spec.rho_eigen)[0],
                         parity=-1)


class TestBoxModeSampler:
    def test_mode_pair_columns_bitwise(self, spectral):
        rng = np.random.default_rng(3)
        # both signs, the eigen-grid nodes, radii past the last node, +-0,
        # inf and NaN
        r = np.concatenate([rng.uniform(-5.0, 250.0, 4000),
                            spectral.eigen_grid.r[:50],
                            [0.0, -0.0, np.inf, -np.inf, np.nan]])
        rho_dr_profile = rho_dr_spline(spectral)
        pair = spectral.mode_pair(r)
        assert pair.shape == r.shape + (2,)
        for got, want in ((pair[:, 0], spectral.lambda0_rho_profile(r)),
                          (pair[:, 1], rho_dr_profile(r))):
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        r3 = r[:4000].reshape(10, 20, 20)
        pair3 = spectral.mode_pair(r3)
        assert np.array_equal(pair3[..., 0], spectral.lambda0_rho_profile(r3))
        assert np.array_equal(pair3[..., 1], rho_dr_profile(r3))

    def test_sampler_reproduces_two_profile_formulas(self, spectral):
        g = Box3DGrid(6.0, 24)
        sigma, c = 0.2, np.array([0.3, -0.1, 0.2])
        es, amp = math.exp(sigma), math.exp((3 / 2.0 + 1.0) * sigma)
        rho_dr_profile = rho_dr_spline(spectral)
        x, y, z = np.meshgrid(g.axis, g.axis, g.axis, indexing="ij")
        dx_, dy_, dz_ = x - c[0], y - c[1], z - c[2]
        rr = np.sqrt(dx_ ** 2 + dy_ ** 2 + dz_ ** 2)
        lam0 = amp * np.asarray(spectral.lambda0_rho_profile(es * rr))
        slope = (amp * es * np.asarray(rho_dr_profile(es * rr))
                 / np.maximum(rr, 1e-300))
        got = box_mode_parts(spectral, sigma, (dx_, dy_, dz_))
        assert len(got) == 2
        assert np.array_equal(got[0], lam0)
        assert np.array_equal(got[1], slope)


class TestOpenMeshReferences:
    """The box fit references and sigma = 0 modes, built from the open mesh,
    against the formulas on the dense coordinate cubes, kept here."""

    @pytest.mark.parametrize("half_width, m", [(4.0, 16), (6.0, 25)])
    def test_bitwise_equal_to_dense_mesh(self, spectral, half_width, m):
        spec = dataclasses.replace(spectral)      # an empty cache
        g = Box3DGrid(half_width, m)
        mesh = np.meshgrid(g.axis, g.axis, g.axis, indexing="ij")
        x, y, z = mesh
        radius = np.sqrt(x * x + y * y + z * z)
        w = np.asarray(eval_W(3, radius ** 2))
        ball = radius <= g.half_width
        stride2 = np.zeros((m, m, m), dtype=bool)
        stride2[::2, ::2, ::2] = True
        w_c = w[::2, ::2, ::2].ravel()
        zero = np.zeros(3)
        refs = _box_fit_refs(spec, g)
        # no cube is kept: the node sets are int16 axis indices
        assert set(refs) == {"grad_W_sq", "ball", "coarse", "W_coarse",
                             "W_sq_coarse", "ball_consts", "coarse_consts"}
        for key, where in (("ball", ball), ("coarse", stride2)):
            nodes = refs[key]
            assert all(a.dtype == np.int16 for a in nodes)
            # exactly the dense mesh's points, in C order
            assert all(np.array_equal(a, b)
                       for a, b in zip(nodes, np.nonzero(where)))
            assert all(np.array_equal(g.axis[a], b[where])
                       for a, b in zip(nodes, mesh))
        assert np.array_equal(refs["W_coarse"], w_c)
        assert refs["W_sq_coarse"] == float(np.sum(w_c ** 2)
                                            * (g.cell_volume * 8))
        gx, gy, gz = g.gradient(w)
        assert refs["grad_W_sq"] == g.quad(gx * gx + gy * gy + gz * gz)
        def indices(where):
            return tuple(a.astype(np.int16) for a in np.nonzero(where))
        assert np.array_equal(refs["ball_consts"], box_mode_integrals(
            spec, g, 0.0, zero, indices(ball), w[ball], g.cell_volume))
        assert np.array_equal(refs["coarse_consts"], box_mode_integrals(
            spec, g, 0.0, zero, indices(stride2), w_c, 8 * g.cell_volume))
        lam0, slope = box_mode_parts(spec, 0.0, mesh)
        modes = box_modes(spec, g)
        for j, want in enumerate([lam0] + [slope * d for d in mesh]):
            got = modes.mode(j, slice(None))
            assert got.shape == (m, m, m)
            assert np.array_equal(got, want)


def decay_profile(grid, values, parity):
    """Oracle: the cubic spline through (grid.r, values), mirrored through
    the origin by six nodes of the given parity, zero beyond the last node."""
    r_ext = np.concatenate([-grid.r[:6][::-1], grid.r])
    v_ext = np.concatenate([parity * values[:6][::-1], values])
    spline = CubicSpline(r_ext, v_ext, extrapolate=False)
    r_last = grid.r[-1]

    def profile(r):
        rr = np.abs(np.asarray(r, dtype=float))
        return np.where(rr > r_last, 0.0, spline(rr))
    return profile


class TestModeProfiles:
    """The SpectralData profiles of rho and Lambda_0 rho (one-column
    UniformSplines) against decay-tail splines of the same samples, built
    here as the oracle (rho' is checked with ``mode_pair``)."""

    @pytest.mark.parametrize("name", ["rho_profile", "lambda0_rho_profile"])
    def test_bitwise_equal_to_radial_profile(self, spectral, name):
        _, lam0 = _mode_samples(spectral.rho_eigen)
        samples, parity = {"rho_profile": (spectral.rho_eigen.values, 1),
                           "lambda0_rho_profile": (lam0, 1)}[name]
        oracle = decay_profile(spectral.eigen_grid, samples, parity)
        profile = getattr(spectral, name)
        grids = [RadialGrid(3, 200.0, 4096, "sinh", 6.0),
                 RadialGrid(3, 64.0, 8192, "uniform"),
                 RadialGrid(3, 200.0, 16384, "uniform")]
        for g in grids:
            for sigma in (-0.7, -0.2, 0.0, 0.3, 1.2, 2.0):
                r = math.exp(sigma) * g.r
                got = profile(r)
                assert got.shape == r.shape
                assert np.array_equal(got, oracle(r))
        r_max = spectral.eigen_grid.r_max
        r = np.array([0.0, r_max, np.nextafter(r_max, np.inf), 1.5 * r_max,
                      -1.0, np.nan])
        got = profile(r)
        assert np.array_equal(got, oracle(r), equal_nan=True)
        assert np.isnan(got[-1]) and np.all(got[2:4] == 0.0)


class TestDirectIndexSampler:
    """spec.mode_pair against a scipy spline built here as the oracle."""

    @staticmethod
    def oracle(spec, r):
        g = spec.eigen_grid
        rho_dr, lam0 = _mode_samples(spec.rho_eigen)
        vals = np.stack([lam0, rho_dr], axis=1)
        r_ext = np.concatenate([-g.r[:6][::-1], g.r])
        v_ext = np.concatenate([np.array([1.0, -1.0]) * vals[:6][::-1], vals])
        spline = CubicSpline(r_ext, v_ext, extrapolate=False)
        rr = np.abs(r)
        out = spline(rr)
        out[rr > g.r[-1]] = 0.0
        return out, r_ext

    def test_bitwise_equal_to_scipy_spline(self, spectral):
        rng = np.random.default_rng(5)
        _, knots = self.oracle(spectral, np.zeros(1))
        r_last = spectral.eigen_grid.r[-1]
        r = np.concatenate([
            rng.uniform(0.0, 1.1 * r_last, 200_000),
            knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
            [0.0, -0.0, r_last, np.nextafter(r_last, np.inf), 2 * r_last,
             -r_last, np.inf, np.nan]])
        want, _ = self.oracle(spectral, r)
        got = spectral.mode_pair(r)
        assert got.shape == want.shape
        for col in (0, 1):
            assert np.array_equal(got[:, col], want[:, col], equal_nan=True)
        assert np.isnan(got[-1]).all()
        assert np.all(got[-8:-1][r[-8:-1] > r_last] == 0.0)


class TestBlockedModeIntegrals:
    @staticmethod
    def mode_field_sums(spec, sigma, c, pts, u):
        """The residual's formula before blocking: sum(u * m) over the
        four mode fields at the points pts."""
        disp = [p - cj for p, cj in zip(pts, c)]
        lam0, slope = box_mode_parts(spec, sigma, disp)
        return np.array([float(np.sum(u * m))
                         for m in [lam0] + [slope * d for d in disp]])

    @pytest.mark.parametrize("sigma, c", [(0.0, (0.0, 0.0, 0.0)),
                                          (0.2, (0.3, -0.1, 0.2))])
    @pytest.mark.parametrize("n", [0, 1000, 2 * BLOCK_POINTS,
                                   2 * BLOCK_POINTS + 1])
    def test_match_mode_field_sums(self, spectral, sigma, c, n):
        rng = np.random.default_rng(n)
        g = Box3DGrid(6.0, 64)
        nodes = tuple(rng.integers(0, g.m, n).astype(np.int16)
                      for _ in range(3))
        pts = tuple(g.axis[a] for a in nodes)
        rsq = pts[0] ** 2 + pts[1] ** 2 + pts[2] ** 2
        u = (1.0 + rsq / 3.0) ** -0.5 * (1.0 + 0.1 * rng.normal(size=n))
        c = np.array(c)
        got = box_mode_integrals(spectral, g, sigma, c, nodes, u, 0.25)
        want = 0.25 * self.mode_field_sums(spectral, sigma, c, pts, u)
        assert got.shape == (4,)
        if n == 0:
            assert np.array_equal(got, np.zeros(4))
        else:
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_box_cross_term_bitwise():
    # m = 100 gives 33 slabs of 3 x-planes and one of 1
    g = Box3DGrid(8.0, 100)
    x, y, z = np.meshgrid(g.axis, g.axis, g.axis, indexing="ij")
    f = np.exp(-((x - 0.2) ** 2 + y ** 2 + (z + 0.1) ** 2) / 4.0)
    sigma, c = 0.2, np.array([0.3, -0.1, 0.2])
    # the formula of the box fit's ||v||_H estimate and of the box
    # manifold_distance before they shared one helper
    gx, gy, gz = g.gradient(f)
    es = math.exp(sigma)
    dx_, dy_, dz_ = x - c[0], y - c[1], z - c[2]
    rr = np.sqrt(dx_ ** 2 + dy_ ** 2 + dz_ ** 2)
    slope = (math.exp((3 / 2.0 - 1.0) * sigma) * es
             * np.asarray(eval_W_dr(3, es * rr)) / np.maximum(rr, 1e-300))
    want = g.quad(gx * slope * dx_ + gy * slope * dy_ + gz * slope * dz_)
    assert _box_cross(g, f, sigma, c) == want


class TestSlabOracles:
    """The slab passes of the box layer against the whole-cube formulas
    they replaced, kept here: bitwise at m = 16 (one slab), 25 (an axis
    that is not bitwise symmetric) and 100 (slabs of 3 planes and a last
    slab of 1)."""

    GRIDS = [(4.0, 16), (6.0, 25), (8.0, 100)]

    @staticmethod
    def whole_cube_modes(spec, g):
        lam0, slope = box_mode_parts(spec, 0.0, g.open_mesh)
        modes = [lam0] + [slope * d for d in g.open_mesh]
        gram = np.empty((4, 4))
        for i in range(4):
            for j in range(i, 4):
                gram[i, j] = gram[j, i] = g.quad(modes[i] * modes[j])
        return modes, gram

    @staticmethod
    def whole_cube_closure(spec, g, rng, amplitude, modes, gram):
        """(mode coefficients, scale, Gaussians) of random_box_closure on
        whole cubes."""
        def draw(n):
            return [(rng.normal(), rng.uniform(-3.0, 3.0, size=3),
                     rng.uniform(1.2, 3.0)) for _ in range(n)]
        g1, g2 = draw(3), draw(3)
        x, y, z = g.open_mesh
        f1 = BoxResidualClosure._gauss_sum(g1, x, y, z)
        f2 = BoxResidualClosure._gauss_sum(g2, x, y, z)
        rhs = np.array([g.quad(f1 * m) for m in modes])
        coef = np.linalg.solve(gram, rhs)
        v1 = f1 - sum(cf * m for cf, m in zip(coef, modes))
        gx, gy, gz = g.gradient(v1)
        nrm = math.sqrt(g.quad(gx * gx + gy * gy + gz * gz) + g.quad(f2 * f2))
        return coef, amplitude / max(nrm, 1e-300), g1 + g2

    @staticmethod
    def whole_cube_assembly(g, sgn, sigma, c, closure):
        es = math.exp(sigma)
        x, y, z = g.open_mesh
        xs, ys, zs = es * (x - c[0]), es * (y - c[1]), es * (z - c[2])
        rr2 = xs * xs + ys * ys + zs * zs
        amp1 = math.exp(sigma / 2.0)
        u1 = sgn * amp1 * np.asarray(eval_W(3, rr2)) + amp1 * closure.v1(xs, ys, zs)
        u2 = math.exp(1.5 * sigma) * closure.v2(xs, ys, zs)
        return u1, u2

    @pytest.mark.parametrize("half_width, m", GRIDS)
    def test_round_trip_inputs(self, spectral, half_width, m):
        spec = dataclasses.replace(spectral)      # an empty cache
        g = Box3DGrid(half_width, m)
        modes, gram = self.whole_cube_modes(spec, g)
        box = box_modes(spec, g)
        assert np.array_equal(box.gram, gram)
        for j in range(4):
            for sl in g.slabs:
                assert np.array_equal(box.mode(j, sl), modes[j][sl])
        closure = random_box_closure(spec, g, np.random.default_rng(3), 0.02)
        coef, scale, terms = self.whole_cube_closure(
            spec, g, np.random.default_rng(3), 0.02, modes, gram)
        assert np.array_equal(closure.mode_coefs, coef * scale)
        for (a, c, w), (a0, c0, w0) in zip(closure.g1 + closure.g2, terms):
            assert a == a0 * scale and np.array_equal(c, c0) and w == w0
        sigma, c = 0.2, np.array([0.3, -0.1, 0.2])
        for sgn in (1, -1):
            u = assemble_box_exact(g, sgn, sigma, c, closure)
            u1, u2 = self.whole_cube_assembly(g, sgn, sigma, c, closure)
            assert np.array_equal(u.u1.values, u1)
            assert np.array_equal(u.u2.values, u2)

    @pytest.mark.parametrize("half_width, m", GRIDS)
    def test_box_cross(self, spectral, half_width, m):
        g = Box3DGrid(half_width, m)
        closure = random_box_closure(spectral, g, np.random.default_rng(4))
        f = assemble_box_exact(g, 1, 0.1, (0.2, 0.0, -0.1), closure).u1.values
        gx, gy, gz = g.gradient(f)
        x, y, z = g.open_mesh
        for sigma, c in [(0.25, np.array([0.3, -0.1, 0.2])),
                         (-0.15, np.array([-0.2, 0.4, 0.0]))]:
            es = math.exp(sigma)
            dx_, dy_, dz_ = x - c[0], y - c[1], z - c[2]
            rr = np.sqrt(dx_ ** 2 + dy_ ** 2 + dz_ ** 2)
            slope = (math.exp(sigma / 2.0) * es
                     * np.asarray(eval_W_dr(3, es * rr)) / np.maximum(rr, 1e-300))
            want = g.quad(gx * slope * dx_ + gy * slope * dy_ + gz * slope * dz_)
            assert _box_cross(g, f, sigma, c) == want


class TestSeparableGaussians:
    @staticmethod
    def dense_gauss_sum(terms, x, y, z):
        """The closure's Gaussian sum before it was taken axis by axis."""
        out = 0.0
        for amp, c, wd in terms:
            out = out + amp * np.exp(-(((x - c[0]) ** 2 + (y - c[1]) ** 2
                                        + (z - c[2]) ** 2) / wd ** 2))
        return out

    @pytest.mark.parametrize("sigma, c", [(0.0, (0.0, 0.0, 0.0)),
                                          (0.2, (0.3, -0.1, 0.2))])
    def test_matches_dense_formula(self, sigma, c):
        # sigma = 0, c = 0 is the open mesh itself; the other case is the
        # transported open mesh of assemble_box_exact
        rng = np.random.default_rng(11)
        terms = [(rng.normal(), rng.uniform(-3.0, 3.0, size=3),
                  rng.uniform(1.2, 3.0)) for _ in range(3)]
        x, y, z = Box3DGrid(20.0, 128).open_mesh
        es = math.exp(sigma)
        mesh = (es * (x - c[0]), es * (y - c[1]), es * (z - c[2]))
        got = BoxResidualClosure._gauss_sum(terms, *mesh)
        want = self.dense_gauss_sum(terms, *mesh)
        assert got.shape == (128, 128, 128)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_gram_cached_and_equal_to_mode_products(self, spectral):
        g = Box3DGrid(4.0, 16)
        box = box_modes(spectral, g)
        modes = [box.mode(j, slice(None)) for j in range(4)]
        want = np.array([[g.quad(a * b) for b in modes] for a in modes])
        assert np.array_equal(box.gram, want)
        assert box_modes(spectral, g).gram is box.gram


class TestKExpansion:
    def test_linearization_constant(self, ctx, rng):
        # |K(W + v) + (2*-2) <W^(2*-1)|v>| <= C ||v||_H1^2 (frozen C)
        g, th = ctx["g"], ctx["th"]
        w = ctx["W"]
        w5 = w ** 5
        for _ in range(10):
            amp = float(rng.uniform(0.001, 0.3))
            f = amp * np.exp(-((g.r - rng.uniform(0, 6)) / rng.uniform(0.5, 3)) ** 2)
            k_val = functional_K(RadialField(g, w + f))
            lin = -4.0 * g.quad_meas(w5 * f)
            h1 = h1_seminorm_sq(RadialField(g, f))
            assert abs(k_val - lin) <= K_EXPANSION_CONST * h1


class TestSign:
    def test_scaling_rules(self, ctx):
        # the outer rule on scaled ground states: sign K(cW) = sign(1 - c)
        th, g, zeros = ctx["th"], ctx["g"], ctx["zeros"]
        for c, want in ((0.5, +1), (1.5, -1)):
            s = State(RadialField(g, c * ctx["W"]), zeros)
            assert distance_dW(s, ctx["spec"], th).dW >= th.delta_S
            assert fate_sign(s, ctx["spec"], th) == (want, False)
        assert sign_functional(th.delta_S, math.nan, 1.0, th) == (+1, False)
        assert sign_functional(1.0, math.nan, -1.0, th) == (-1, False)

    def test_inner_rule(self, ctx):
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        zeros = ctx["zeros"]
        up = State(RadialField(g, ctx["W"] + 1e-3 * ctx["rho"]), zeros)
        um = State(RadialField(g, ctx["W"] - 1e-3 * ctx["rho"]), zeros)
        assert fate_sign(up, spec, th) == (-1, False)
        assert fate_sign(um, spec, th) == (+1, False)
        # below delta_S only the inner rule applies, whatever K is
        for k_val in (-1.0, 1.0):
            assert sign_functional(1e-3, 1e-4, k_val, th) == (-1, False)
            assert sign_functional(1e-3, -1e-4, k_val, th) == (+1, False)
        assert sign_functional(th.delta_E, -1e-4, 1.0, th) == (+1, False)

    def test_sign_zero_in_the_gap(self, ctx):
        # neither rule: no converged fit and d_W below delta_S
        th = ctx["th"]
        assert sign_functional(0.5 * th.delta_S, math.nan, -1.0, th) == (0, False)
        assert sign_functional(math.nan, math.nan, 1.0, th) == (0, False)
        # past delta_E a converged fit does not count
        assert sign_functional(2 * th.delta_E, 1e-2, -1.0, th) == (-1, False)

    def test_u_to_minus_u_symmetry(self, ctx):
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        zeros = ctx["zeros"]
        for eps in (1e-3, -1e-3):
            s = State(RadialField(g, ctx["W"] + eps * ctx["rho"]), zeros)
            assert fate_sign(s, spec, th) == fate_sign(s * -1.0, spec, th)

    def test_overlap_consistency(self, ctx):
        # where both rules apply on W + eta rho they agree
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        zeros = ctx["zeros"]
        overlap = 0
        for eta in (0.02, 0.05, 0.1, -0.05):
            s = State(RadialField(g, ctx["W"] + eta * ctx["rho"]), zeros)
            if th.delta_S <= distance_dW(s, spec, th).dW <= th.delta_E:
                overlap += 1
                assert fate_sign(s, spec, th) == (-1 if eta > 0 else +1, False)
        assert overlap > 0
        # disagreeing inputs: the inner sign wins and the disagreement shows
        d_w = 0.5 * (th.delta_S + th.delta_E)
        assert sign_functional(d_w, 1e-2, 1.0, th) == (-1, True)
        assert sign_functional(d_w, -1e-2, -1.0, th) == (+1, True)
        assert sign_functional(d_w, -1e-2, 1.0, th) == (+1, False)

    def test_report_split_is_reused(self, ctx, monkeypatch):
        # a monitor row's sign takes lambda_1 from the split its distance_dW
        # report made: one split per converged fit
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        splits = []
        original = modulation.split_modes

        def counting(fit, spec):
            splits.append(original(fit, spec))
            return splits[-1]

        monkeypatch.setattr(modulation, "split_modes", counting)
        for eps, want in ((1e-3, -1), (-1e-3, +1)):
            s = State(RadialField(g, ctx["W"] + eps * ctx["rho"]), ctx["zeros"])
            row, _ = evolve._monitor_row(s, 0.0, spec, th, None, None)
            assert len(splits) == 1
            assert row["lambda1"] == splits[0].lambda1
            assert row["sign"] == want
            splits.clear()

    def test_zero_state_positive(self, ctx):
        # K(0) = 0 and the convention sign 0 = +1
        spec, th = ctx["spec"], ctx["th"]
        zeros = ctx["zeros"]
        assert fate_sign(State(zeros, zeros), spec, th) == (+1, False)


class TestRegions:
    def test_ground_state_membership(self, ctx):
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        preds = region_predicates(
            State(RadialField(g, ctx["W"]), ctx["zeros"]), spec, th)
        assert preds["in_H_star"] is True
        assert preds["in_H_X"] is False

    def test_zero_state_membership(self, ctx):
        spec, th = ctx["spec"], ctx["th"]
        preds = region_predicates(State(ctx["zeros"], ctx["zeros"]), spec, th)
        assert preds["in_H_star"] and preds["in_H_X"]
        assert preds["in_variational_zone"]

    def test_doubled_ground_state(self, ctx):
        spec, th, g = ctx["spec"], ctx["th"], ctx["g"]
        s = State(RadialField(g, 2.0 * ctx["W"]), ctx["zeros"])
        preds = region_predicates(s, spec, th)
        assert preds["E"] < 0.0
        assert preds["in_H_star"] is True


@pytest.fixture(scope="module")
def box_case(spectral, thresholds, sample_W_family):
    """A box family member and its converged fit, which has no residual."""
    s = sample_W_family(Box3DGrid(10.0, 32), 0.1)
    fit = fit_modulation(s, spectral, thresholds)
    assert fit.converged and fit.v is None
    return s, fit


# box states stop at the fit: what follows it takes radial states only
BOX_REJECTIONS = {
    "assemble_state": (ValueError, lambda spec, s, fit: assemble_state(
        1, fit.sigma, fit.c, s)),
    "manifold_distance": (ValueError, lambda spec, s, fit: manifold_distance(
        spec, s)),
    "distance_dW": (ValueError, lambda spec, s, fit: distance_dW(
        s, spec, fit=fit)),
    "energy_E": (ValueError, lambda spec, s, fit: energy_E(s)),
    "norm_H": (ValueError, lambda spec, s, fit: norm_H(s)),
    "region_predicates": (ValueError, lambda spec, s, fit: region_predicates(
        s, spec)),
    "symplectic_omega": (ValueError, lambda spec, s, fit: symplectic_omega(
        s, s)),
    "split_modes": (FitError, lambda spec, s, fit: split_modes(fit, spec)),
}


@pytest.mark.parametrize("name", sorted(BOX_REJECTIONS))
def test_box_states_stop_at_the_fit(spectral, box_case, name):
    error, call = BOX_REJECTIONS[name]
    match = f"{name} takes radial states only" if error is ValueError else \
        "without a residual state"
    with pytest.raises(error, match=match):
        call(spectral, *box_case)
