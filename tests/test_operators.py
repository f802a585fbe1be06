import math

import numpy as np
import pytest

from critwave.fields import RadialField, State, eval_W
from critwave.functionals import (h1_seminorm_sq, l2_inner, l2_norm_sq,
                                  norm_H)
from critwave.grids import RadialGrid
from critwave.modulation import assemble_state, scale_profile
from critwave.spectral import _mode_samples


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(3, 200.0, 4096, "sinh", 6.0)


def scaled(f: RadialField, sigma: float, a: float) -> RadialField:
    """S_a^sigma f resampled on f's own grid."""
    g = f.grid
    return RadialField(g, scale_profile(f.profile(), g.d, a, sigma)(g.r))


def test_lambda_antisymmetry_l2(grid):
    # <f | Lambda_0 f> = 0 for decaying f (Lambda_0 is L^2-antisymmetric)
    for width, center in ((1.0, 0.0), (2.0, 5.0), (0.7, 2.0)):
        f = RadialField(grid, np.exp(-((grid.r - center) / width) ** 2))
        f = RadialField(grid, f.values / math.sqrt(l2_norm_sq(f)))
        lam0 = RadialField(grid, _mode_samples(f)[1])
        assert abs(l2_inner(f, lam0)) < 1e-8


def test_lambda_generator_values(grid):
    # Lambda_0 f = r f' + (d/2) f
    f = RadialField(grid, np.exp(-grid.r ** 2))
    lam = _mode_samples(f)[1]
    expect = grid.r * (-2.0 * grid.r) * f.values + 1.5 * f.values
    assert np.max(np.abs(lam - expect)) < 1e-8


def test_scaling_identity_at_zero(grid):
    f = RadialField(grid, np.exp(-((grid.r - 3.0) / 2.0) ** 2))
    out = scaled(f, 0.0, -1.0)
    assert np.allclose(out.values, f.values, atol=1e-12)


def test_scaling_unitarity(grid):
    rho_like = RadialField(grid, np.exp(-grid.r) * (1.0 + grid.r))
    nrm = math.sqrt(l2_norm_sq(rho_like))
    rho_like = RadialField(grid, rho_like.values / nrm)
    out = scaled(rho_like, 0.5, 0.0)
    assert math.sqrt(l2_norm_sq(out)) == pytest.approx(1.0, abs=1e-6)
    # H1-preserving index on the first component
    w = RadialField(grid, np.asarray(eval_W(3, grid.r ** 2)))
    for sigma in (-1.0, 0.4, 1.0):
        out = scaled(w, sigma, -1.0)
        assert h1_seminorm_sq(out) == pytest.approx(h1_seminorm_sq(w), rel=1e-6)


def test_scaling_composition(grid):
    f = RadialField(grid, np.exp(-((grid.r - 2.0) / 1.5) ** 2)
                    + np.exp(-((grid.r + 2.0) / 1.5) ** 2))
    once = scaled(scaled(f, 0.2, 0.0), 0.3, 0.0)
    direct = scaled(f, 0.5, 0.0)
    assert np.max(np.abs(once.values - direct.values)) < 1e-8


def test_state_scaling_norm(grid):
    # S_-1^sigma x S_0^sigma is unitary in H
    s = State(RadialField(grid, np.exp(-((grid.r - 2.0) / 2.0) ** 2)),
              RadialField(grid, 0.3 * np.exp(-grid.r ** 2)))
    out = State(scaled(s.u1, 0.4, -1.0), scaled(s.u2, 0.4, 0.0))
    assert norm_H(out) == pytest.approx(norm_H(s), rel=1e-6)


def test_radial_translation_rejects_offsets(grid):
    # u = T^c S^sigma (W_vec + v) on radial states takes c = 0 only
    v = State(RadialField(grid, np.exp(-grid.r)),
              RadialField(grid, np.zeros(grid.n)))
    u = assemble_state(1, 0.0, (0, 0, 0), v)
    assert np.allclose(u.u1.values,
                       np.asarray(eval_W(3, grid.r ** 2)) + v.u1.values,
                       rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError, match="requires c = 0"):
        assemble_state(1, 0.0, (1.0, 0, 0), v)
