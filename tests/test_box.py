"""The compiled box passes (``_box.c``) against the numpy code they
replaced, which is kept here as the oracle: bitwise, on smooth data and on
data that spans twelve orders of magnitude (where any change in the order
of a sum shows in the last bits), at grid sizes whose z rows, slabs and
summation leaves fall differently, and at node counts around the lengths
where numpy's pairwise summation and the blocks change shape."""

from __future__ import annotations

import math

import numpy as np
import pytest

from critwave import _native
from critwave.fields import Field3D, eval_W_dr
from critwave.grids import BLOCK_POINTS, Box3DGrid
from critwave.modulation import _box_cross, box_mode_integrals, box_mode_parts


def oracle_h1_sq(g: Box3DGrid, f: np.ndarray) -> float:
    """Box3DGrid.h1_sq in numpy: |grad f|^2 slab by slab into one cube,
    summed at once."""
    def planes(sl):
        gx, gy, gz = g.gradient(f, sl)
        return gx * gx + gy * gy + gz * gz
    return g.quad(g.by_slabs(planes))


def oracle_box_cross(g: Box3DGrid, u: np.ndarray, sigma: float, c) -> float:
    """modulation._box_cross in numpy: the integrand slab by slab."""
    es = math.exp(sigma)
    amp = math.exp(sigma / 2.0) * es

    def planes(sl):
        x, y, z = g.slab_mesh(sl)
        dx_, dy_, dz_ = x - c[0], y - c[1], z - c[2]
        rr = np.sqrt(dx_ ** 2 + dy_ ** 2 + dz_ ** 2)
        slope = amp * np.asarray(eval_W_dr(3, es * rr)) / np.maximum(rr, 1e-300)
        gx, gy, gz = g.gradient(u, sl)
        return gx * slope * dx_ + gy * slope * dy_ + gz * slope * dz_
    return g.quad(g.by_slabs(planes))


def oracle_mode_integrals(spec, grid: Box3DGrid, sigma: float, c, nodes,
                          u: np.ndarray, weight: float) -> np.ndarray:
    """modulation.box_mode_integrals in numpy: blocks of BLOCK_POINTS
    nodes, each block's displacements gathered from the shifted axes."""
    shifted = [grid.axis - c[j] for j in range(3)]
    n = len(u)
    sums = np.empty((-(-n // BLOCK_POINTS), 4))
    for k, a in enumerate(range(0, n, BLOCK_POINTS)):
        b = a + BLOCK_POINTS
        disp = [np.take(ax, idx[a:b]) for ax, idx in zip(shifted, nodes)]
        lam0, slope = box_mode_parts(spec, sigma, disp)
        ub = u[a:b]
        sums[k] = [np.sum(ub * lam0)] + [np.sum(ub * (slope * d)) for d in disp]
    return np.sum(sums, axis=0) * weight


def cube(g: Box3DGrid, spread: bool, seed: int = 0) -> np.ndarray:
    """Samples large at the faces (the edge rows matter), smooth or with
    each node scaled by 10^U(-6, 6)."""
    x, y, z = g.open_mesh
    f = (np.exp(-((x - 1.0) ** 2 + 0.5 * y ** 2) / 8.0) * np.cos(0.7 * z)
         + 0.1 * x * y)
    if spread:
        f = f * 10.0 ** np.random.default_rng(seed).uniform(-6.0, 6.0, f.shape)
    return f


SIGMA_C = [(-0.3, (0.13, -0.27, 0.05)), (0.0, (0.0, 0.0, 0.0)),
           (0.3, (-0.41, 0.08, 0.33))]


@pytest.mark.parametrize("spread", [False, True], ids=["smooth", "spread"])
@pytest.mark.parametrize("m", [16, 17, 25, 100, 128])
class TestGradientPasses:
    def test_h1_sq(self, m, spread):
        g = Box3DGrid(6.0, m)
        f = cube(g, spread)
        assert g.h1_sq(f).hex() == oracle_h1_sq(g, f).hex()

    def test_box_cross(self, m, spread):
        g = Box3DGrid(6.0, m)
        f = cube(g, spread, seed=1)
        # c off the nodes, and c on a node (rr = 0 there)
        cases = SIGMA_C + [(0.3, tuple(g.axis[[m // 2, 3, m - 2]]))]
        for sigma, c in cases:
            c = np.array(c)
            assert (_box_cross(g, f, sigma, c).hex()
                    == oracle_box_cross(g, f, sigma, c).hex()), (sigma, c)


class TestModeIntegrals:
    @pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, BLOCK_POINTS - 1,
                                   BLOCK_POINTS, BLOCK_POINTS + 1,
                                   2 * BLOCK_POINTS + 9])
    def test_node_runs(self, spectral, n):
        g = Box3DGrid(6.0, 64)
        rng = np.random.default_rng(n)
        nodes = tuple(rng.integers(0, g.m, n).astype(np.int16)
                      for _ in range(3))
        u = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
        for sigma, c in SIGMA_C:
            c = np.array(c)
            got = box_mode_integrals(spectral, g, sigma, c, nodes, u, 0.25)
            want = oracle_mode_integrals(spectral, g, sigma, c, nodes, u, 0.25)
            assert got.tobytes() == want.tobytes(), sigma

    def test_node_at_the_centre(self, spectral):
        # c on the first node: rr = 0 there, where the slope is rho'(0) / 1e-300
        g = Box3DGrid(6.0, 25)
        rng = np.random.default_rng(4)
        nodes = tuple(np.concatenate([[i], rng.integers(0, g.m, 300)])
                      .astype(np.int16) for i in (12, 3, 20))
        c = g.axis[[12, 3, 20]]
        u = rng.normal(size=301)
        for sigma in (-0.3, 0.0, 0.3):
            got = box_mode_integrals(spectral, g, sigma, c, nodes, u, 1.0)
            want = oracle_mode_integrals(spectral, g, sigma, c, nodes, u, 1.0)
            assert np.all(np.isfinite(got))
            assert got.tobytes() == want.tobytes(), sigma

    def test_nodes_off_the_grid_raise(self, spectral):
        g = Box3DGrid(6.0, 16)
        for bad in (-1, 16):
            nodes = tuple(np.array([3, bad if axis == 1 else 5], dtype=np.int16)
                          for axis in range(3))
            with pytest.raises(IndexError, match=r"\[0, 16\)"):
                box_mode_integrals(spectral, g, 0.0, np.zeros(3), nodes,
                                   np.ones(2), 1.0)

    def test_empty_node_set(self, spectral):
        g = Box3DGrid(6.0, 16)
        nodes = tuple(np.zeros(0, dtype=np.int16) for _ in range(3))
        got = box_mode_integrals(spectral, g, 0.1, np.zeros(3), nodes,
                                 np.zeros(0), 1.0)
        assert np.array_equal(got, np.zeros(4))


class TestKernelInputs:
    def test_int16_nodes(self):
        nodes = np.arange(9, dtype=np.int16)
        assert _native.address(nodes, 9, np.int16) == nodes.ctypes.data
        with pytest.raises(TypeError, match="int16"):
            _native.address(nodes.astype(np.int64), 9, np.int16)
        with pytest.raises(TypeError, match="int16"):
            _native.address(np.arange(18, dtype=np.int16)[::2], 9, np.int16)
        with pytest.raises(TypeError, match="float64"):
            _native.address(nodes, 9)

    def test_cube_shape_and_order(self):
        g = Box3DGrid(6.0, 16)
        f = cube(g, False)
        with pytest.raises(TypeError, match="C-contiguous"):
            g.h1_sq(f.transpose(2, 1, 0))
        with pytest.raises(TypeError, match="3-D"):
            g.h1_sq(f.ravel())
        with pytest.raises(ValueError, match="shape"):
            g.h1_sq(f[:8].copy())
        with pytest.raises(TypeError, match="float64"):
            g.h1_sq(f.astype(np.float32))

    def test_field_holds_c_order(self):
        g = Box3DGrid(6.0, 17)
        f = cube(g, True).transpose(1, 2, 0)
        fld = Field3D(g, f)
        assert fld.values.flags.c_contiguous
        assert np.array_equal(fld.values, f)
        assert g.h1_sq(fld.values) == g.h1_sq(np.ascontiguousarray(f))
        # C-contiguous float64 samples are held as they are
        assert Field3D(g, fld.values).values is fld.values
