import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critwave.grids import (_END_STENCIL, Box3DGrid, RadialGrid,
                            _derivative_weights, sphere_area)


def test_sphere_area():
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_area(5) == pytest.approx(8.0 * math.pi ** 2 / 3.0, rel=1e-14)


def test_grid_invariants():
    g = RadialGrid(3, 200.0, 256, "sinh", 6.0)
    assert g.r[0] > 0.0
    assert np.all(np.diff(g.r) > 0)
    assert g.r[-1] < g.r_max
    with pytest.raises(ValueError):
        RadialGrid(4, 200.0, 256)
    with pytest.raises(ValueError):
        RadialGrid(3, 200.0, 8)
    with pytest.raises(ValueError):
        RadialGrid(3, -1.0, 256)


@pytest.mark.parametrize("make, name", [
    (lambda: Box3DGrid(math.nan, 32), "half_width"),
    (lambda: Box3DGrid(math.inf, 32), "half_width"),
    (lambda: Box3DGrid(-1.0, 32), "half_width"),
    (lambda: Box3DGrid(20.0, 40.7), "m"),
    (lambda: Box3DGrid(20.0, math.nan), "m"),
    (lambda: Box3DGrid(20.0, math.inf), "m"),
    (lambda: Box3DGrid(20.0, 8), "m"),
    (lambda: RadialGrid(3, 64.0, 64.5), "n"),
    (lambda: RadialGrid(3, 64.0, math.inf), "n"),
    (lambda: RadialGrid(3, 64.0, 8), "n"),
    (lambda: RadialGrid(3, math.nan, 64), "r_max"),
    (lambda: RadialGrid(3, math.inf, 64, "uniform"), "r_max"),
    (lambda: RadialGrid(3, 0.0, 64), "r_max"),
    (lambda: RadialGrid(3, 64.0, 64, "sinh", 0.0), "beta"),
    (lambda: RadialGrid(3, 64.0, 64, "sinh", math.nan), "beta"),
    (lambda: RadialGrid(3, 64.0, 64, "sinh", -math.inf), "beta"),
    (lambda: RadialGrid(3, 64.0, 64, "uniform", math.nan), "beta"),
])
def test_bad_grid_sizes_rejected(make, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            make()


def test_integral_float_sizes_accepted():
    assert Box3DGrid(20.0, 40.0).m == 40
    assert RadialGrid(3, 64.0, 64.0).n == 64


def test_quadrature_smooth_gaussian():
    # int_0^inf e^(-(r/w)^2) dr = w sqrt(pi)/2
    exact = 0.5 * math.sqrt(math.pi) * 0.5
    for n, tol in ((256, 1e-8), (1024, 1e-12)):
        g = RadialGrid(3, 200.0, n, "sinh", 6.0)
        val = g.w_r @ np.exp(-((g.r / 0.5) ** 2))
        assert val == pytest.approx(exact, abs=tol)


def test_quadrature_order_uniform():
    # deliberately unstretched grids: the error of int r^2 e^-r dr should
    # drop at least 4x per doubling (scheme order >= 2)
    exact = 2.0
    errs = []
    for n in (128, 256, 512):
        g = RadialGrid(3, 40.0, n, "uniform")
        errs.append(abs(g.w_r @ (g.r ** 2 * np.exp(-g.r)) - exact))
    assert errs[1] <= errs[0] / 4.0
    assert errs[2] <= errs[1] / 4.0


def test_derivative_accuracy_and_parity():
    g = RadialGrid(3, 200.0, 2048, "sinh", 6.0)
    # smooth even function (radial slices are even in r; a symmetrized pair
    # of off-center gaussians keeps the origin smooth)
    f = (np.exp(-((g.r - 2.0) / 1.5) ** 2) + np.exp(-((g.r + 2.0) / 1.5) ** 2))
    df = (-2.0 * (g.r - 2.0) / 1.5 ** 2 * np.exp(-((g.r - 2.0) / 1.5) ** 2)
          - 2.0 * (g.r + 2.0) / 1.5 ** 2 * np.exp(-((g.r + 2.0) / 1.5) ** 2))
    assert np.max(np.abs(g.deriv(f) - df)) < 5e-9
    # odd function: r * gaussian
    h = g.r * np.exp(-g.r ** 2)
    dh = (1.0 - 2.0 * g.r ** 2) * np.exp(-g.r ** 2)
    assert np.max(np.abs(g.deriv(h, parity=-1) - dh)) < 1e-9


def test_tail_fit_power_law():
    g = RadialGrid(3, 200.0, 1024, "sinh", 6.0)
    c_true, b_true = 2.5, -4.0
    f = c_true / g.r + b_true / g.r ** 3
    c, b = g.tail_fit(f)
    assert c == pytest.approx(c_true, rel=1e-10)
    assert b == pytest.approx(b_true, rel=1e-6)
    # exponentially decaying fields fit to ~zero
    c, b = g.tail_fit(np.exp(-g.r))
    assert abs(c) < 1e-60


@pytest.mark.parametrize("grid", [RadialGrid(3, 200.0, 4096, "sinh", 6.0),
                                  RadialGrid(3, 64.0, 2048, "uniform")])
def test_tail_fit_design_well_conditioned(grid):
    # the plain [1, r^-2] design over the same nodes is near 4e6
    proj, _, _, _ = grid._tail_projector
    assert proj.shape == (2, 12)
    assert np.linalg.cond(proj) < 4.0


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.2, 3.0), width=st.floats(0.5, 4.0))
def test_quadrature_linearity(scale, width):
    g = RadialGrid(3, 100.0, 512, "sinh", 6.0)
    f = np.exp(-((g.r / width) ** 2))
    assert g.w_r @ (scale * f) == pytest.approx(scale * (g.w_r @ f), rel=1e-13)


def test_box_grid_and_gradient():
    g = Box3DGrid(10.0, 48)
    assert g.axis[0] == pytest.approx(-10.0 + 0.5 * g.dx)
    with pytest.raises(ValueError):
        Box3DGrid(10.0, 8)
    x, y, z = g.open_mesh
    f = np.exp(-(x ** 2 + 0.5 * y ** 2 + 0.25 * z ** 2) / 4.0)
    gx, gy, gz = g.gradient(f)
    assert np.max(np.abs(gx - (-2.0 * x / 4.0) * f)) < 2e-3
    assert np.max(np.abs(gz - (-0.5 * z / 4.0) * f)) < 2e-3
    # quadrature of a separable gaussian
    val = g.quad(np.exp(-(x ** 2 + y ** 2 + z ** 2)))
    assert val == pytest.approx(math.pi ** 1.5, rel=1e-10)


def _dense_deriv_matrix(g: Box3DGrid) -> np.ndarray:
    """Dense 1-D derivative matrix: 4th-order interior, one-sided edges."""
    m, dx = g.m, g.dx
    d = np.zeros((m, m))
    for i in range(2, m - 2):
        d[i, i - 2:i + 3] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dx)
    x = g.axis
    for i in (0, 1):
        d[i, :_END_STENCIL] = _derivative_weights(x[:_END_STENCIL], x[i], 1)
    for i in (m - 2, m - 1):
        d[i, -_END_STENCIL:] = _derivative_weights(x[-_END_STENCIL:], x[i], 1)
    return d


@pytest.mark.parametrize("m", [16, 48])
def test_box_gradient_equals_dense_matrix(m):
    g = Box3DGrid(6.0, m)
    x, y, z = g.open_mesh
    # large at the faces, so the one-sided edge rows are exercised
    f = np.exp(-((x - 1.0) ** 2 + 0.5 * y ** 2) / 8.0) * np.cos(0.7 * z) + 0.1 * x * y
    d = _dense_deriv_matrix(g)
    want = [np.einsum("ij,jkl->ikl", d, f), np.einsum("ij,kjl->kil", d, f),
            np.einsum("ij,klj->kli", d, f)]
    for axis, (got, ref) in enumerate(zip(g.gradient(f), want)):
        assert got.shape == f.shape
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err <= 1e-13, (axis, err)
        edges = np.take(got - ref, [0, 1, m - 2, m - 1], axis=axis)
        assert np.max(np.abs(edges)) <= 1e-13 * np.max(np.abs(ref))


def test_box_gradient_fourth_order():
    errs = []
    for m in (32, 64):
        g = Box3DGrid(8.0, m)
        x, y, z = g.open_mesh
        f = np.exp(-((x - 0.3) ** 2 + (y + 0.2) ** 2 + z ** 2) / 4.0)
        exact = [-0.5 * (x - 0.3) * f, -0.5 * (y + 0.2) * f, -0.5 * z * f]
        errs.append(max(np.max(np.abs(a - b))
                        for a, b in zip(g.gradient(f), exact)))
    assert errs[0] / errs[1] >= 12.0



def test_box_h1_sq():
    # bitwise the squared-gradient quadrature it replaced, and converging at
    # the stencil's fourth order to the closed form of a Gaussian:
    # int |grad e^(-r^2/a)|^2 = (3/2) pi^(3/2) (a/2)^(1/2)
    a = 3.0
    want = 1.5 * math.pi ** 1.5 * math.sqrt(a / 2.0)
    errs = []
    for m in (32, 64):
        g = Box3DGrid(12.0, m)
        x, y, z = g.open_mesh
        f = np.exp(-(x * x + y * y + z * z) / a)
        gx, gy, gz = g.gradient(f)
        assert g.h1_sq(f) == g.quad(gx ** 2 + gy ** 2 + gz ** 2)
        errs.append(abs(g.h1_sq(f) / want - 1.0))
    assert errs[1] < 3e-3 and errs[0] / errs[1] > 10.0


def whole_cube_gradient(g: Box3DGrid, f: np.ndarray) -> list[np.ndarray]:
    """Oracle: the box gradient on the whole cube, one axis at a time."""
    lo, hi = g._edge_rows
    inv = 1.0 / (12.0 * g.dx)
    grads = []
    for axis in range(3):
        out = np.empty(f.shape)
        fa, oa = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
        mid = oa[2:-2]
        np.subtract(fa[3:-1], fa[1:-3], out=mid)
        mid *= 8.0
        mid += fa[:-4]
        mid -= fa[4:]
        mid *= inv
        np.einsum("ij,j...->i...", lo, fa[:_END_STENCIL], out=oa[:2])
        np.einsum("ij,j...->i...", hi, fa[-_END_STENCIL:], out=oa[-2:])
        grads.append(out)
    return grads


class TestSlabs:
    """The slab kernels against their whole-cube formulas, bitwise.  m = 25
    has an axis that is not bitwise symmetric; m = 100 has slabs of 3
    planes and a last slab of 1."""

    @staticmethod
    def samples(g):
        x, y, z = g.open_mesh
        # large at the faces, so the one-sided edge rows are exercised
        return (np.exp(-((x - 1.0) ** 2 + 0.5 * y ** 2) / 8.0) * np.cos(0.7 * z)
                + 0.1 * x * y)

    @pytest.mark.parametrize("m, step", [(16, 16), (25, 25), (100, 3)])
    def test_slab_rule(self, m, step):
        g = Box3DGrid(6.0, m)
        assert all(sl.stop - sl.start == step for sl in g.slabs[:-1])
        assert g.slabs[0].start == 0 and g.slabs[-1].stop == m
        assert all(p.stop == q.start for p, q in zip(g.slabs, g.slabs[1:]))
        if m == 100:
            assert len(g.slabs) == 34 and g.slabs[-1] == slice(99, 100)

    @pytest.mark.parametrize("m", [16, 25, 100])
    def test_gradient_on_every_slab(self, m):
        g = Box3DGrid(6.0, m)
        f = self.samples(g)
        want = whole_cube_gradient(g, f)
        assert all(np.array_equal(a, b) for a, b in zip(g.gradient(f), want))
        planes = [slice(i, i + 1) for i in range(m)]
        for sl in planes + list(g.slabs) + [slice(1, m - 1), slice(m - 3, m)]:
            got = g.gradient(f, sl)
            assert all(np.array_equal(a, b[sl]) for a, b in zip(got, want)), sl

    @pytest.mark.parametrize("m", [16, 25, 100])
    def test_h1_sq(self, m):
        g = Box3DGrid(6.0, m)
        f = self.samples(g)
        gx, gy, gz = whole_cube_gradient(g, f)
        assert g.h1_sq(f) == g.quad(gx * gx + gy * gy + gz * gz)


def test_grid_descriptor_round_trip():
    g = RadialGrid(5, 150.0, 1024, "uniform")
    g2 = RadialGrid(**g.describe())
    assert g == g2
    b = Box3DGrid(20.0, 64)
    assert Box3DGrid(**b.describe()) == b
