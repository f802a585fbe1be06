import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from critwave.fields import BoostParams, RadialField, State, eval_W, eval_W_dr
from critwave.functionals import (boost_energy_momentum, energy_E,
                                  functional_J, functional_K, h1_seminorm_sq,
                                  l2_norm_sq, smooth_cutoff, symplectic_omega)
from critwave.grids import RadialGrid
from critwave.modulation import scale_profile

# independent oracle: adaptive quadrature of the closed-form gradient
# integrand (machine-checked against the frozen value below)
GRAD_W_SQ_D3 = 12.820992204969127  # = (3 sqrt 3 / 4) pi^2


def grad_w_sq_oracle() -> float:
    val, err = quad(lambda r: eval_W_dr(3, r) ** 2 * r * r, 0.0, np.inf,
                    limit=200)
    assert err < 1e-7  # scipy's conservative estimate; the value is ~1e-15 off
    return 4.0 * math.pi * val


def w_field(grid):
    return RadialField(grid, np.asarray(eval_W(grid.d, grid.r ** 2)))


class TestGroundStateFunctionals:
    def test_oracle_matches_frozen(self):
        assert grad_w_sq_oracle() == pytest.approx(GRAD_W_SQ_D3, rel=1e-11)
        assert GRAD_W_SQ_D3 == pytest.approx(0.75 * math.sqrt(3) * math.pi ** 2,
                                             rel=1e-12)

    def test_grad_norm_against_oracle(self, static_grid):
        assert h1_seminorm_sq(w_field(static_grid)) == pytest.approx(
            GRAD_W_SQ_D3, rel=1e-10)

    def test_virial_vanishes_on_W(self, static_grid):
        w = w_field(static_grid)
        assert abs(functional_K(w)) / h1_seminorm_sq(w) < 1e-6

    def test_static_energy_value(self, static_grid):
        w = w_field(static_grid)
        assert functional_J(w) == pytest.approx(GRAD_W_SQ_D3 / 3.0, rel=1e-8)

    @pytest.mark.parametrize("c,sign", [(0.5, +1), (1.1, -1), (1.5, -1)])
    def test_scaled_W_virial_sign(self, static_grid, c, sign):
        k_val = functional_K(RadialField(static_grid,
                                         c * w_field(static_grid).values))
        assert math.copysign(1, k_val) == sign

    def test_K_of_2W(self, static_grid):
        # K(cW) = (c^2 - c^6) ||grad W||^2 in d = 3 given K(W) = 0
        w = w_field(static_grid)
        g = h1_seminorm_sq(w)
        assert functional_K(RadialField(static_grid, 2.0 * w.values)) == \
            pytest.approx(-60.0 * g, rel=1e-6)

    def test_J_identity_random_fields(self, static_grid, rng):
        for _ in range(5):
            c, wd = rng.uniform(0, 6), rng.uniform(0.5, 3)
            f = RadialField(static_grid,
                            rng.normal() * np.exp(-((static_grid.r - c) / wd) ** 2))
            lhs = h1_seminorm_sq(f) / 3.0
            rhs = functional_J(f) - functional_K(f) / 6.0
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_scaling_invariance_of_J_and_K(self, static_grid):
        f = RadialField(static_grid,
                        0.8 * np.exp(-((static_grid.r - 2.0) / 1.5) ** 2))
        g = h1_seminorm_sq(f)
        for sigma in (-1.0, 0.5, 1.0):
            fs = RadialField(static_grid, scale_profile(
                f.profile(), 3, -1.0, sigma)(static_grid.r))
            assert abs(functional_K(fs) - functional_K(f)) <= 1e-6 * g
            assert abs(functional_J(fs) - functional_J(f)) <= 1e-6 * g


class TestEnergyMomentum:
    def test_static_state_energy(self, static_grid):
        w = w_field(static_grid)
        s = State(w, RadialField(static_grid, np.zeros(static_grid.n)))
        assert energy_E(s) == functional_J(w)

    def test_zero_state(self, static_grid):
        z = RadialField(static_grid, np.zeros(static_grid.n))
        s = State(z, z)
        assert energy_E(s) == 0.0

    def test_boosted_momentum_axis(self):
        # with P := <u_t | grad u> and the family traveling toward +p, P is
        # anti-parallel to p with |P| = J(W) |p|, pinned by the
        # truncation-free spherical quadrature
        _, p_exact = boost_energy_momentum(BoostParams(0.0, (0.2, 0.0, 0.0)))
        assert p_exact[0] < 0.0
        assert p_exact[1] == 0.0 and p_exact[2] == 0.0
        assert np.linalg.norm(p_exact) == pytest.approx(
            0.2 * GRAD_W_SQ_D3 / 3.0, rel=1e-4)

    @pytest.mark.parametrize("pmag", [0.1, 0.2, 0.4])
    def test_boost_identity(self, pmag, static_grid):
        jref = functional_J(w_field(static_grid))
        e_val, p_vec = boost_energy_momentum(BoostParams(0.0, (pmag, 0.0, 0.0)))
        gamma = math.sqrt(1.0 + pmag * pmag)
        assert e_val == pytest.approx(jref * gamma, rel=1e-4)
        assert np.linalg.norm(p_vec) == pytest.approx(jref * pmag, rel=1e-4)
        lhs = e_val ** 2 - float(p_vec @ p_vec)
        assert abs(lhs - jref ** 2) / jref ** 2 <= 1e-3


class TestSymplectic:
    def test_antisymmetry_and_pairing(self, static_grid, rng):
        f1 = RadialField(static_grid, np.exp(-((static_grid.r - 1) / 2) ** 2))
        f2 = RadialField(static_grid, np.exp(-static_grid.r ** 2))
        a = State(f1, f2)
        b = State(f2, f1)
        assert symplectic_omega(a, a) == 0.0
        assert symplectic_omega(a, b) == pytest.approx(-symplectic_omega(b, a),
                                                       rel=1e-13)

    def test_canonical_pairing(self, static_grid):
        f = RadialField(static_grid, np.exp(-((static_grid.r - 2) / 1.5) ** 2))
        z = RadialField(static_grid, np.zeros(static_grid.n))
        # omega((f,0), (0,f)) = -||f||_2^2
        assert symplectic_omega(State(f, z), State(z, f)) == pytest.approx(
            -l2_norm_sq(f), rel=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(a1=st.floats(-2, 2), a2=st.floats(-2, 2))
    def test_bilinearity(self, a1, a2):
        g = RadialGrid(3, 60.0, 256, "sinh", 6.0)
        f = RadialField(g, np.exp(-g.r ** 2))
        h = RadialField(g, g.r * np.exp(-g.r ** 2))
        za = State(f, h)
        zb = State(h, f)
        lhs = symplectic_omega(State(a1 * f + a2 * h, a1 * h + a2 * f), zb)
        rhs = a1 * symplectic_omega(za, zb) + a2 * symplectic_omega(State(h, f), zb)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_smooth_cutoff_shape():
    assert smooth_cutoff(1.0) == 1.0
    assert smooth_cutoff(1.5) == 1.0
    assert smooth_cutoff(2.0) == 0.0
    xs = np.linspace(1.5, 2.0, 50)
    vals = smooth_cutoff(xs)
    assert np.all(np.diff(vals) <= 0)
