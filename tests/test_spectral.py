import math

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import LinAlgError
from scipy.optimize import brentq

from critwave import spectral as spectral_mod
from critwave.cli import load_reference_constants
from critwave.fields import (RadialField, eval_W, eval_W_dr,
                             eval_W_prime_mode, nonlinearity_power)
from critwave.functionals import (h1_seminorm_sq, l2_inner, l2_norm_sq,
                                  symplectic_omega)
from critwave.grids import RadialGrid
from critwave.spectral import (BW_TOL, LinearizedOperator,
                               SpectralConsistencyError, _inverse_iteration,
                               _mode_samples, _random_probe, _shoot_mismatch,
                               _w_constants, build_spectral_data,
                               coercivity_probe, shooting_rate)

K_REFERENCE_D3 = 1.1001672181511408  # frozen from the constants file


def apply_lplus_fd(fld: RadialField) -> RadialField:
    """Oracle: L+ by direct finite differences on any radial grid."""
    g = fld.grid
    p = nonlinearity_power(g.d)
    du = fld.du
    d2u = g.deriv(du, parity=-1)
    w_pow = np.asarray(eval_W(g.d, g.r ** 2)) ** (p - 1.0)
    vals = -(d2u + (g.d - 1.0) / g.r * du) - p * w_pow * fld.values
    return RadialField(g, vals)


def apply_lplus_matrix(op: LinearizedOperator, u: np.ndarray) -> np.ndarray:
    """L+ u through the symmetric matrix, for samples u on op's grid."""
    return (op @ (op._weight * u)) / op._weight


class TestEigenpair:
    def test_reference_rate(self, spectral):
        assert spectral.k == pytest.approx(K_REFERENCE_D3, rel=1e-12)
        assert spectral.k > 0

    def test_reference_constants(self, spectral):
        ref = load_reference_constants()
        assert spectral.a_W == pytest.approx(ref["a_W"], rel=1e-12)
        assert spectral.b_W == pytest.approx(ref["b_W"], rel=1e-12)

    def test_matrix_vs_shooting(self, spectral):
        assert spectral.residuals["k_rel_diff"] <= 1e-4

    def test_shooting_rate_against_tight_reference(self, spectral):
        # the cross-checked build's k_shooting is shooting_rate(3); the
        # reference root integrates with DOP853 at rtol 1e-13
        k = spectral.residuals["k_shooting"]
        ref = brentq(_shoot_mismatch, k - 1e-6, k + 1e-6, args=(3, 1e-13),
                     xtol=1e-16, rtol=1e-15)
        assert abs(k - ref) <= 5e-14

    def test_matrix_residual(self, spectral):
        assert spectral.residuals["eig_residual_l2"] <= 1e-6

    def test_rho_positive_and_normalized(self, spectral, static_grid):
        rho = spectral.rho_field(static_grid)
        assert np.min(rho.values) > 0.0
        assert math.sqrt(l2_norm_sq(rho)) == pytest.approx(1.0, abs=1e-8)

    def test_grid_refinement_stability(self, static_grid):
        coarse = build_spectral_data(static_grid, eigen_n=8192,
                                     cross_check=False)
        fine = build_spectral_data(static_grid, eigen_n=16384,
                                   cross_check=False)
        assert abs(fine.k - coarse.k) / fine.k < 1e-4

    def test_d5_eigenpair(self):
        g5 = RadialGrid(5, 200.0, 2048, "sinh", 6.0)
        spec5 = build_spectral_data(g5, eigen_n=8192, cross_check=True)
        assert spec5.k > 0
        assert spec5.residuals["k_rel_diff"] <= 1e-4
        assert spec5.a_W > 0 and spec5.b_W > 0


def _fail(*args, **kwargs):
    raise LinAlgError("forced failure")


class TestBandedSolve:
    @pytest.mark.parametrize("d", [3, 5])
    def test_matches_dense_eigh(self, d):
        op = LinearizedOperator(RadialGrid(d, 60.0, 512, "uniform"))
        v, lam = _inverse_iteration(op)
        evals, evecs = np.linalg.eigh(lil_operator_matrix(op.grid).toarray())
        v_ref = evecs[:, 0] * np.sign(evecs[:, 0].sum())
        assert lam == pytest.approx(evals[0], rel=1e-12)
        assert np.max(np.abs(v - v_ref)) <= 1e-10

    @pytest.mark.parametrize("d", [3, 5])
    def test_refinement_stops_at_the_rounding_floor(self, d, lapack_calls):
        # the residual stalls near 2e-11 here, above the 1e-11 stop, so the
        # refinement ends when a step fails to halve it, not at 10 shifts
        op = LinearizedOperator(RadialGrid(d, 60.0, 16384, "uniform"))
        v, lam = _inverse_iteration(op)
        assert lapack_calls["cholesky_banded"] == 1
        assert lapack_calls["cho_solve_banded"] == 8
        assert lapack_calls["solve_banded"] <= 3
        resid = np.linalg.norm(op @ v - lam * v)
        assert resid <= 1e-9 * max(1.0, abs(lam))

    def test_cholesky_failure_names_the_shift(self, monkeypatch):
        monkeypatch.setattr(spectral_mod, "cholesky_banded", _fail)
        op = LinearizedOperator(RadialGrid(3, 60.0, 512, "uniform"))
        with pytest.raises(SpectralConsistencyError, match="fixed shift -6"):
            _inverse_iteration(op)

    def test_shift_collision_keeps_the_iterate(self, monkeypatch):
        # every Rayleigh-quotient solve fails: the pair returned is the one
        # the eight fixed-shift solves reach (oracle: dense solves)
        monkeypatch.setattr(spectral_mod, "solve_banded", _fail)
        op = LinearizedOperator(RadialGrid(3, 60.0, 512, "uniform"))
        v, lam = _inverse_iteration(op)
        a = lil_operator_matrix(op.grid).toarray()
        v_ref = np.exp(-op.grid.r) * op._weight
        v_ref /= np.linalg.norm(v_ref)
        for _ in range(8):
            v_ref = np.linalg.solve(a + 6.0 * np.eye(len(v_ref)), v_ref)
            v_ref /= np.linalg.norm(v_ref)
        assert np.max(np.abs(v - v_ref)) <= 1e-12
        assert lam == float(v @ (op @ v))


def _oracle_mismatch(k: float, d: int, rtol: float = 1e-12) -> float:
    """One rate's normalized Wronskian, integrated on its own (the per-k
    form the stacked scan replaces)."""
    p = nonlinearity_power(d)
    cd = (d - 1.0) * (d - 3.0) / 4.0
    dd = d * (d - 2.0)

    def rhs(r, y):
        w = (1.0 + r * r / dd) ** (1.0 - d / 2.0)
        return [y[1], (k * k + cd / (r * r) - p * w ** (p - 1.0)) * y[0]]

    r0, half = 1e-3, (d - 1.0) / 2.0
    a0 = (k * k - p) / (2.0 * d)
    v0 = r0 ** half * (1.0 + a0 * r0 * r0)
    dv0 = (half * r0 ** (half - 1.0) * (1.0 + a0 * r0 * r0)
           + r0 ** half * 2.0 * a0 * r0)
    out = solve_ivp(rhs, (r0, spectral_mod.SHOOT_MATCH_RADIUS), [v0, dv0],
                    rtol=rtol, atol=1e-300, method="DOP853")
    r1 = spectral_mod.SHOOT_OUTER_RADIUS
    inn = solve_ivp(rhs, (r1, spectral_mod.SHOOT_MATCH_RADIUS),
                    [1.0, -math.sqrt(k * k + cd / (r1 * r1))],
                    rtol=rtol, atol=1e-300, method="DOP853")
    yo, yi = out.y[:, -1], inn.y[:, -1]
    return ((yo[1] * yi[0] - yi[1] * yo[0])
            / (math.hypot(*yo) * math.hypot(*yi)))


@pytest.fixture(scope="module", params=[3, 5])
def oracle_scan(request):
    """The 48-point scan grid of ``shooting_rate`` and the per-k values."""
    d = request.param
    ks = np.linspace(0.2, math.sqrt(nonlinearity_power(d)) * 0.999, 48)
    return d, ks, np.array([_oracle_mismatch(k, d) for k in ks])


class TestShootingScan:
    def test_stacked_matches_per_k(self, oracle_scan):
        d, ks, ref = oracle_scan
        vals = _shoot_mismatch(ks, d)
        assert isinstance(vals, np.ndarray) and vals.shape == ks.shape
        assert np.array_equal(np.sign(vals), np.sign(ref))
        assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-9

    def test_scalar_in_scalar_out(self):
        val = _shoot_mismatch(1.0, 3)
        assert isinstance(val, float)
        assert val == pytest.approx(_oracle_mismatch(1.0, 3), rel=1e-14)

    def test_rate_is_brent_on_oracle_bracket(self, oracle_scan):
        d, ks, ref = oracle_scan
        i = next(i for i in range(len(ks) - 1) if ref[i] * ref[i + 1] < 0)
        expect = brentq(_oracle_mismatch, ks[i], ks[i + 1], args=(d,),
                        xtol=1e-12, rtol=1e-12)
        assert shooting_rate(d) == expect

    def test_no_sign_change_raises(self, monkeypatch):
        monkeypatch.setattr(spectral_mod, "_shoot_mismatch",
                            lambda k, d, rtol=1e-12: np.ones_like(k))
        with pytest.raises(SpectralConsistencyError):
            shooting_rate(3)


def lil_operator_matrix(grid: RadialGrid) -> sparse.csc_matrix:
    """Oracle: the operator's matrix assembled element-wise in LIL format,
    the origin fold added to the assembled stencil, then converted."""
    d, n, r = grid.d, grid.n, grid.r
    h = r[1] - r[0]
    p = nonlinearity_power(d)
    potential = ((d - 1.0) * (d - 3.0) / 4.0 / (r * r)
                 - p * np.asarray(eval_W(d, r * r)) ** (p - 1.0))
    c = 1.0 / (12.0 * h * h)
    main = 30.0 * c + potential
    off1 = np.full(n - 1, -16.0 * c)
    off2 = np.full(n - 2, 1.0 * c)
    mat = sparse.diags([off2, off1, main, off1, off2], [-2, -1, 0, 1, 2],
                       format="lil")
    par = -1.0 if d == 3 else 1.0
    mat[0, 0] += par * (-16.0 * c)
    mat[0, 1] += par * (1.0 * c)
    mat[1, 0] += par * (1.0 * c)
    return mat.tocsc()


class LilOracleOperator(LinearizedOperator):
    """The operator as the LIL oracle's CSC matrix: its band copied out of
    the matrix's diagonals, its product the CSC product."""

    def __init__(self, grid: RadialGrid):
        super().__init__(grid)
        self.matrix = lil_operator_matrix(grid)
        n = grid.n
        self.band = np.zeros((5, n))
        for i in range(-2, 3):
            self.band[2 - i, max(i, 0):n + min(i, 0)] = self.matrix.diagonal(i)

    def __matmul__(self, v):
        return self.matrix @ v


class TestOperatorHandle:
    @pytest.mark.parametrize("d, r_max, n", [(3, 60.0, 512),
                                             (3, 200.0, 16384),
                                             (5, 200.0, 8192)])
    def test_assembly_matches_lil_oracle_bitwise(self, d, r_max, n):
        op = LinearizedOperator(RadialGrid(d, r_max, n, "uniform"))
        oracle = LilOracleOperator(op.grid)
        assert op.band.shape == (5, n) and op.band.dtype == np.float64
        for i in range(-2, 3):
            row = op.band[2 - i, max(i, 0):n + min(i, 0)]
            assert row.tobytes() == oracle.matrix.diagonal(i).tobytes()
        assert op.band.tobytes() == oracle.band.tobytes()  # zero corners too
        rng = np.random.default_rng(n + d)
        for _ in range(10):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-100.0, 100.0, n)
            assert (op @ x).tobytes() == (oracle.matrix @ x).tobytes()
        v, lam = _inverse_iteration(op)
        v_ref, lam_ref = _inverse_iteration(oracle)
        assert np.float64(lam).tobytes() == np.float64(lam_ref).tobytes()
        assert v.tobytes() == v_ref.tobytes()

    def test_requires_uniform_grid(self, static_grid):
        with pytest.raises(ValueError):
            LinearizedOperator(static_grid)

    def test_matrix_is_symmetric(self):
        band = LinearizedOperator(RadialGrid(3, 60.0, 512, "uniform")).band
        assert band[0, 2:].tobytes() == band[4, :-2].tobytes()
        assert band[1, 1:].tobytes() == band[3, :-1].tobytes()

    def test_zero_mode(self, spectral):
        # L+ W' ~ 0 (threshold resonance), measured against the H1 size of W'
        g = RadialGrid(3, 200.0, 4096, "sinh", 6.0)
        wp = spectral.wprime_field(g)
        ratio = (math.sqrt(l2_norm_sq(apply_lplus_fd(wp)))
                 / math.sqrt(h1_seminorm_sq(wp)))
        assert ratio <= 1e-4

    def test_eigen_relation_on_operator_grid(self, spectral):
        op = LinearizedOperator(spectral.eigen_grid)
        rho = spectral.rho_eigen
        res = apply_lplus_matrix(op, rho.values) + spectral.k ** 2 * rho.values
        assert math.sqrt(l2_norm_sq(RadialField(spectral.eigen_grid, res))) <= 1e-6

    def test_far_bump_sees_free_laplacian(self):
        g = RadialGrid(3, 200.0, 8192, "uniform")
        op = LinearizedOperator(g)
        bump = np.exp(-((g.r - 120.0) / 5.0) ** 2)
        lap = -(g.deriv(g.deriv(bump), parity=-1)
                + 2.0 / g.r * g.deriv(bump))
        out = apply_lplus_matrix(op, bump)
        scale = math.sqrt(l2_norm_sq(RadialField(g, lap)))
        assert math.sqrt(l2_norm_sq(RadialField(g, out - lap))) <= 1e-5 * scale

    def test_negative_eigenvalue_required(self):
        # a grid too short to hold the bound state has no negative eigenvalue
        with pytest.raises(SpectralConsistencyError):
            build_spectral_data(RadialGrid(3, 0.5, 4096, "uniform"),
                                eigen_n=256, cross_check=False)


class TestConstants:
    def test_positivity(self, spectral):
        assert spectral.a_W > 0
        assert spectral.b_W > 0

    def test_b_W_two_routes(self, spectral):
        assert spectral.residuals["b_W_rel_diff"] <= 1e-3

    def test_constants_match_the_eigenpair(self, spectral):
        # the stored a_W, b_W follow from the stored eigenpair, and the two
        # b_W routes agree on it
        _, lam0 = _mode_samples(spectral.rho_eigen)
        a_w, b_w, b_w_alt = _w_constants(spectral.rho_eigen, lam0, spectral.k)
        assert (a_w, b_w) == (spectral.a_W, spectral.b_W)
        assert abs(b_w - b_w_alt) / abs(b_w) <= BW_TOL

    def test_wprime_orthogonal_to_rho(self, spectral, static_grid):
        wp = spectral.wprime_field(static_grid)
        rho = spectral.rho_field(static_grid)
        assert abs(l2_inner(wp, rho)) <= 1e-6

    def test_rho_orthogonal_lambda0_rho(self, spectral, static_grid):
        rho = spectral.rho_field(static_grid)
        lam0 = RadialField(static_grid, spectral.lambda0_rho_on(static_grid))
        assert abs(l2_inner(rho, lam0)) <= 1e-8

    def test_gradient_pair_identity(self, spectral, static_grid):
        # <d_j W | d_k rho> = + delta_jk a_W (radial reduction (1/d)<W_r|rho_r>)
        wdr = np.asarray(eval_W_dr(3, static_grid.r))
        rdr = spectral.mode_pair(static_grid.r)[:, 1]
        val = static_grid.quad_meas(wdr * rdr) / 3.0
        assert abs(val - spectral.a_W) / spectral.a_W <= 1e-4

    def test_constants_dict_round_trip(self, spectral, tmp_path):
        path = tmp_path / "constants.json"
        spectral.save_constants(path)
        import json
        back = json.loads(path.read_text())
        assert back["k"] == spectral.k
        assert back["grid"]["n"] == spectral.eigen_grid.n


class TestModes:
    def test_normalization(self, spectral, static_grid):
        gp, gm = spectral.mode_states(static_grid)
        assert symplectic_omega(gp, gm) == pytest.approx(1.0, abs=1e-8)
        assert symplectic_omega(gp, gp) == 0.0
        assert symplectic_omega(gm, gm) == 0.0

    def test_hamiltonian_eigenrelation(self, spectral):
        # J L g+- = +-k g+- as a residual of the discretized operator:
        # J L (g1, g2) = (g2, -L+ g1)
        g = spectral.eigen_grid
        gp, gm = spectral.mode_states(g)
        k = spectral.k
        op = LinearizedOperator(g)
        for mode, sign in ((gp, +1), (gm, -1)):
            top = mode.u2.values - sign * k * mode.u1.values
            bot = -apply_lplus_matrix(op, mode.u1.values) - sign * k * mode.u2.values
            resid = math.sqrt(l2_norm_sq(RadialField(g, top))
                              + l2_norm_sq(RadialField(g, bot)))
            assert resid <= 1e-5


class TestCoercivity:
    def test_probe_positive(self, spectral, static_grid):
        report = coercivity_probe(spectral, n_samples=100, grid=static_grid)
        assert report["failures"] == []
        assert report["c_low"] > 0.0
        assert report["c_high"] >= report["c_low"]

    def test_near_null_direction_small_but_positive(self, spectral,
                                                    static_grid):
        report = coercivity_probe(spectral, n_samples=1, grid=static_grid)
        # the W'-like probe sits near the null direction: the Lambda_0 rho
        # pairing keeps its ratio strictly positive
        assert report["c_low"] > 0.0

    def test_one_seminorm_per_probe(self, spectral, static_grid,
                                    monkeypatch):
        # ||grad f||^2 is taken once per probe, for the form and the ratio
        calls = []
        seminorm = spectral_mod.h1_seminorm_sq

        def counting(fld):
            calls.append(fld)
            return seminorm(fld)

        monkeypatch.setattr(spectral_mod, "h1_seminorm_sq", counting)
        report = coercivity_probe(spectral, n_samples=10, grid=static_grid)
        assert len(calls) == report["n_samples"] == 11

    def test_ratios_bitwise_as_inline_form(self, spectral, static_grid):
        # the probe takes <L+ f | f> from quadratic_form_L; oracle: the
        # ratio with the form written out, over the same probes
        report = coercivity_probe(spectral, n_samples=100, grid=static_grid)
        g = static_grid
        rng = np.random.default_rng(7)
        rho = spectral.rho_field(g)
        lam0 = RadialField(g, spectral.lambda0_rho_on(g))
        p = nonlinearity_power(3)
        w_pm1 = np.asarray(eval_W(3, g.r ** 2)) ** (p - 1.0)

        def ratio_of(f_vals):
            f = RadialField(g, f_vals)
            f = RadialField(g, f.values - l2_inner(f, rho) * rho.values)
            grad_sq = h1_seminorm_sq(f)
            quad_form = grad_sq - p * g.quad_meas(w_pm1 * f.values ** 2)
            return (quad_form + l2_inner(f, lam0) ** 2) / grad_sq

        ratios = [ratio_of(_random_probe(g, rng)) for _ in range(100)]
        ratios.append(ratio_of(np.asarray(eval_W_prime_mode(3, g.r))))
        assert report["c_low"] == min(ratios)
        assert report["c_high"] == max(ratios)
        assert report["n_samples"] == 101
