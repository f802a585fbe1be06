import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import quad

from critwave.fields import (BoostParams, Field3D, RadialField, State,
                             UniformSpline, _mirrored_spline,
                             _w_sigma_cross_tail,
                             _w_sigma_cross_tail_derivs, eval_W, eval_W_dr,
                             load_radial_field, load_state,
                             save_radial_field, save_state)
from critwave.functionals import h1_seminorm_sq
from critwave.grids import BLOCK_POINTS, Box3DGrid, RadialGrid


class TestGroundStateClosedForm:
    def test_origin_value(self):
        assert eval_W(3, 0.0) == 1.0
        assert eval_W(5, 0.0) == 1.0

    def test_characteristic_radius(self):
        # |x|^2 = d(d-2) gives 2^(1-d/2)
        assert eval_W(3, 3.0) == pytest.approx(2.0 ** -0.5, rel=1e-15)
        assert eval_W(5, 15.0) == pytest.approx(2.0 ** -1.5, rel=1e-15)

    def test_positive_decreasing(self):
        r = np.linspace(0.0, 50.0, 400)
        for d in (3, 5):
            w = np.asarray(eval_W(d, r * r))
            assert np.all(w > 0)
            assert np.all(np.diff(w) < 0)
            dw = np.asarray(eval_W_dr(d, r[1:]))
            assert np.all(dw < 0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            eval_W(4, 1.0)

    def test_derivative_consistent(self):
        r = np.linspace(0.1, 30.0, 200)
        h = 1e-6
        fd = (np.asarray(eval_W(3, (r + h) ** 2))
              - np.asarray(eval_W(3, (r - h) ** 2))) / (2 * h)
        assert np.max(np.abs(fd - eval_W_dr(3, r))) < 1e-8


class TestContainers:
    def test_radial_field_validation(self, static_grid):
        with pytest.raises(ValueError):
            RadialField(static_grid, np.zeros(7))
        bad = np.zeros(static_grid.n)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            RadialField(static_grid, bad)

    def test_state_checks_grids(self, static_grid):
        other = RadialGrid(3, 100.0, 4096, "sinh", 6.0)
        a = RadialField(static_grid, np.zeros(static_grid.n))
        b = RadialField(other, np.zeros(other.n))
        with pytest.raises(ValueError):
            State(a, b)

    def test_state_representation_and_reversal(self, static_grid):
        a = RadialField(static_grid, np.exp(-static_grid.r))
        b = RadialField(static_grid, 0.5 * np.exp(-static_grid.r))
        s = State(a, b)
        assert s.representation == "radial"
        rev = s.time_reversed()
        assert np.array_equal(rev.u2.values, -b.values)

    def test_boost_params(self):
        p = BoostParams(0.1, (0.3, 0.0, 0.4))
        assert p.p_norm == pytest.approx(0.5)
        assert p.lorentz_factor == pytest.approx(math.sqrt(1.25))
        with pytest.raises(ValueError):
            BoostParams(math.nan)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestRadialFieldPieces:
    SIGMAS = (-0.3, 0.0, 0.4)

    @pytest.fixture(params=["sinh", "uniform"])
    def grid(self, request, static_grid):
        if request.param == "sinh":
            return static_grid
        return RadialGrid(3, 64.0, 2048, "uniform")

    @staticmethod
    def values(grid):
        return (np.asarray(eval_W(3, grid.r ** 2))
                + 0.05 * np.exp(-((grid.r - 3.0) / 2.0) ** 2))

    def test_values_cannot_change(self, grid):
        own = self.values(grid)
        fld = RadialField(grid, own)
        assert fld.values is own          # no copy
        for target in (fld.values, own, fld.du):
            with pytest.raises(ValueError, match="read-only"):
                target[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                np.multiply(target, 2.0, out=target)
        assert np.array_equal(fld.values, self.values(grid))

    def test_each_piece_equals_a_fresh_fields(self, grid):
        fld = RadialField(grid, self.values(grid))
        # the cross terms first: they fill u1' and the far-field fit
        crosses = [fld.cross(sigma) for sigma in self.SIGMAS]
        for name in ("du", "tail", "h1_sq", "crit", "l2_sq"):
            fresh = RadialField(grid, self.values(grid))
            assert _bits(getattr(fresh, name)) == _bits(getattr(fld, name))
        for sigma, kept in zip(self.SIGMAS, crosses):
            fresh = RadialField(grid, self.values(grid))
            assert _bits(fresh.cross(sigma)) == _bits(kept)
            assert fld.cross(sigma) is kept
        assert len(fld._cross) == len(self.SIGMAS)
        assert _bits(fld.du) == _bits(grid.deriv(fld.values))
        assert fld.tail == grid.tail_fit(fld.values)

    def test_time_reversal_shares_u1_pieces(self, grid):
        s = State(RadialField(grid, self.values(grid)),
                  RadialField(grid, np.exp(-grid.r)))
        h1 = h1_seminorm_sq(s.u1)
        rev = s.time_reversed()
        assert rev.u1 is s.u1 and vars(rev.u1)["h1_sq"] == h1


def cross_tail_by_quadrature(grid, c, b, sigma):
    """|S^(d-1)| int_R^inf f' W_sigma' r^(d-1) dr, R = r_max, for
    f = c r^(2-d) + b r^(-d) and W_sigma' = e^(d sigma/2) W'(e^sigma r),
    by adaptive quadrature in log r."""
    d, a = grid.d, math.exp(sigma)

    def integrand(t):
        r = grid.r_max * math.exp(t)
        df = (2 - d) * c * r ** (1 - d) - d * b * r ** (-d - 1)
        return df * a ** (d / 2.0) * float(eval_W_dr(d, a * r)) * r ** d

    return grid.angular_factor * quad(integrand, 0.0, 60.0, epsabs=0.0,
                                      epsrel=1e-13, limit=500)[0]


class TestCrossTail:
    """The tail of <grad f | grad W_sigma> beyond r_max, in closed form,
    against quadrature over the whole hard range of the d_0 search, from
    e^sigma r_max far below 1 (the far field of W_sigma not yet reached)
    to far above it."""

    @pytest.mark.parametrize("d, r_max", [(3, 64.0), (3, 12.0), (5, 30.0)])
    @pytest.mark.parametrize("c, b", [(1.3, -2.7), (-0.4, 5.0), (1.0, 0.0)])
    def test_equals_quadrature(self, d, r_max, c, b):
        grid = RadialGrid(d, r_max, 64, "uniform")
        for sigma in np.linspace(-9.0, 4.0, 27):
            want = cross_tail_by_quadrature(grid, c, b, sigma)
            got = _w_sigma_cross_tail(grid, c, b, sigma)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), sigma


def central_differences(f, sigma, h=1e-3):
    """(f', f'') at sigma by central differences at steps h and h/2,
    Richardson-extrapolated (truncation error O(h^4))."""
    def diffs(k):
        up, mid, down = f(sigma + k), f(sigma), f(sigma - k)
        return (up - down) / (2.0 * k), (up - 2.0 * mid + down) / (k * k)
    (d1, d2), (e1, e2) = diffs(h), diffs(0.5 * h)
    return (4.0 * e1 - d1) / 3.0, (4.0 * e2 - d2) / 3.0


class TestCrossDerivs:
    """The sigma-derivatives of the cross term from one compiled pass
    (``RadialField.cross_derivs``), its closed-form tail included, against
    central differences of ``RadialField.cross``."""

    SIGMAS = (-8.0, -2.8, 0.0, 3.5)

    @pytest.fixture(params=[(3, 64.0, 4096), (5, 30.0, 2048)],
                    ids=["d=3", "d=5"])
    def field(self, request):
        # W on a scale of its own plus a bump: the far-field fit has both
        # a c and a b term, and the tail counts at every sigma
        d, r_max, n = request.param
        grid = RadialGrid(d, r_max, n, "uniform")
        return RadialField(grid, np.asarray(eval_W(d, (0.7 * grid.r) ** 2))
                           + 0.3 * np.exp(-((grid.r - 5.0) / 2.0) ** 2))

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_match_central_differences(self, field, sigma):
        c, c1, c2 = field.cross_derivs(sigma)
        d1, d2 = central_differences(field.cross, sigma)
        assert c == pytest.approx(field.cross(sigma), rel=1e-12)
        assert c1 == pytest.approx(d1, rel=1e-9)
        assert c2 == pytest.approx(d2, rel=1e-6)

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_tail_matches_central_differences(self, field, sigma):
        grid, (c, b) = field.grid, field.tail
        assert c != 0.0 and b != 0.0
        t1, t2 = _w_sigma_cross_tail_derivs(grid, c, b, sigma)
        d1, d2 = central_differences(
            lambda x: _w_sigma_cross_tail(grid, c, b, x), sigma)
        assert t1 == pytest.approx(d1, rel=1e-9)
        assert t2 == pytest.approx(d2, rel=1e-6)

    def test_each_pass_is_kept_once(self, field):
        # one entry per full-grid pass: values under sigma, derivative
        # passes under ("derivs", sigma)
        kept = field.cross_derivs(0.25)
        assert field.cross_derivs(0.25) is kept
        field.cross(0.25)
        assert set(field._cross) == {0.25, ("derivs", 0.25)}


class TestSampleFamily:
    """The test-input sampler of the soliton family (tests/conftest.py)."""

    def test_identity_parameters(self, static_grid, sample_W_family):
        s = sample_W_family(static_grid)
        w = np.asarray(eval_W(3, static_grid.r ** 2))
        assert np.array_equal(s.u1.values, w)
        assert np.all(s.u2.values == 0.0)

    def test_scaling_preserves_h1(self, static_grid, sample_W_family):
        base = sample_W_family(static_grid)
        scaled = sample_W_family(static_grid, 0.3)
        a = h1_seminorm_sq(base.u1)
        b = h1_seminorm_sq(scaled.u1)
        assert b == pytest.approx(a, rel=1e-8)

    def test_radial_requires_centered(self, static_grid, sample_W_family):
        with pytest.raises(ValueError, match="requires q = 0"):
            sample_W_family(static_grid, 0.0, (0.1, 0, 0))

    def test_resolution_guard(self, sample_W_family):
        g = RadialGrid(3, 200.0, 64, "uniform")  # cells of ~3
        with pytest.raises(ValueError, match="below 4 cells"):
            sample_W_family(g, 3.0)

    def test_translated_on_box(self, sample_W_family):
        box = Box3DGrid(20.0, 64)
        q = (4.5 * box.dx, 0.5 * box.dx, -1.5 * box.dx)   # a lattice node
        s = sample_W_family(box, 0.0, q)
        assert s.representation == "box3d"
        assert np.all(s.u2.values == 0.0)
        # the peak W(0) = 1 sits on the node at q
        i = np.unravel_index(np.argmax(s.u1.values), s.u1.values.shape)
        assert [float(box.axis[j]) for j in i] == list(q)
        assert s.u1.values[i] == 1.0


class TestSerialization:
    def test_radial_round_trip(self, tmp_path):
        g = RadialGrid(3, 50.0, 128, "sinh", 4.0)
        fld = RadialField(g, np.exp(-g.r) * np.cos(g.r))
        path = tmp_path / "field.dat"
        save_radial_field(path, fld)
        header = path.read_text().splitlines()[0]
        assert header.startswith("# d=3 n=128 r_max=")
        back = load_radial_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, fld.values)

    @pytest.mark.parametrize("spacing, beta", [
        ("sinh", "0.0"), ("sinh", "nan"), ("sinh", "inf"), ("uniform", "nan")])
    def test_bad_beta_header_rejected(self, tmp_path, spacing, beta):
        g = RadialGrid(3, 50.0, 32, spacing, 4.0)
        path = tmp_path / "field.dat"
        save_radial_field(path, RadialField(g, np.exp(-g.r)))
        text = path.read_text().replace("beta=4.0", f"beta={beta}")
        path.write_text(text)
        with pytest.raises(ValueError, match="^beta"):
            load_radial_field(path)

    def test_state_round_trip_radial(self, tmp_path):
        g = RadialGrid(3, 50.0, 128, "uniform")
        s = State(RadialField(g, np.exp(-g.r)),
                  RadialField(g, np.sin(g.r) * np.exp(-g.r)))
        save_state(tmp_path / "st", s)
        back = load_state(tmp_path / "st")
        assert np.array_equal(back.u1.values, s.u1.values)
        assert np.array_equal(back.u2.values, s.u2.values)

    def test_save_state_takes_radial_states_only(self, tmp_path):
        g = Box3DGrid(5.0, 16)
        zeros = Field3D(g, np.zeros((16, 16, 16)))
        with pytest.raises(ValueError, match="radial states only"):
            save_state(tmp_path / "st3", State(zeros, zeros))
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_round_trip_random_values(self, tmp_path_factory, seed):
        g = RadialGrid(3, 30.0, 64, "uniform")
        vals = np.random.default_rng(seed).normal(size=g.n)
        path = tmp_path_factory.mktemp("hyp") / "f.dat"
        save_radial_field(path, RadialField(g, vals))
        assert np.array_equal(load_radial_field(path).values, vals)


def numpy_uniform_spline(grid, values, parity):
    """Oracle: the numpy evaluation of ``UniformSpline`` that the compiled
    ``cw_spline`` replaced, in blocks of BLOCK_POINTS, each with eight
    ``take`` gathers per point."""
    one = np.ndim(values) == 1
    if one:
        values = np.asarray(values)[:, None]
    spline = _mirrored_spline(grid, values, parity)
    x = spline.x
    x_next = x[1:]
    inv_h = (len(x) - 1) / (x[-1] - x[0])
    coef = np.ascontiguousarray(np.moveaxis(spline.c, 2, 0))
    r_max = grid.r[-1]

    def evaluate(r, out):
        rr = np.abs(r)
        inside = rr <= r_max      # false beyond the last node, and for NaN
        outside = not inside.all()
        if outside:
            rr = np.where(inside, rr, r_max)
        top = len(x) - 2
        i = ((rr - x[0]) * inv_h).astype(np.intp)
        np.minimum(i, top, out=i)
        xi = x[i]
        below, above = rr < xi, rr >= x_next[i]
        if below.any() or above.any():
            i -= below
            i += above
            np.minimum(i, top, out=i)
            xi = x[i]
        s = rr - xi
        s2 = s * s
        s3 = s2 * s
        for o, c in zip(out, coef):
            # ((c3 + c2 s) + c1 s^2) + c0 s^3, scipy's evaluation order
            np.multiply(c[2].take(i), s, out=o)
            o += c[3].take(i)
            o += c[1].take(i) * s2
            o += c[0].take(i) * s3
        if outside:
            out[:, ~inside] = np.where(np.isnan(r[~inside]), np.nan, 0.0)

    def profile(r):
        r = np.asarray(r, dtype=float)
        flat = r.reshape(-1)
        k = len(coef)
        out = np.empty((k, flat.size))
        for a in range(0, flat.size, BLOCK_POINTS):
            b = a + BLOCK_POINTS
            evaluate(flat[a:b], out[:, a:b])
        if one:
            return out[0].reshape(r.shape)
        return np.moveaxis(out.reshape((k,) + r.shape), 0, -1)
    return profile


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype == np.float64
            and got.tobytes() == want.tobytes())


class TestCompiledSpline:
    """``UniformSpline`` (the compiled ``cw_spline``) against the numpy
    evaluation it replaced, bit for bit."""

    GRID = RadialGrid(3, 40.0, 2000, "uniform")

    @classmethod
    def samples(cls, columns):
        r = cls.GRID.r
        vals = np.stack([np.exp(-r * r / 9.0) * (1.0 + 0.3 * np.sin(r)),
                         -2.0 * r * np.exp(-r * r / 9.0) / 9.0], axis=1)
        return vals[:, 0] if columns == 1 else vals

    @classmethod
    def splines(cls, columns):
        parity = 1 if columns == 1 else np.array([1.0, -1.0])
        vals = cls.samples(columns)
        return (UniformSpline(cls.GRID, vals, parity),
                numpy_uniform_spline(cls.GRID, vals, parity))

    @classmethod
    def special_points(cls):
        r_max = cls.GRID.r[-1]
        nodes = _mirrored_spline(cls.GRID, cls.samples(1), 1).x
        past = [np.nextafter(r_max, np.inf), r_max * (1 + 1e-12), 2 * r_max,
                1e9, 1e300]
        return np.concatenate([
            [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, r_max, -r_max],
            past, np.negative(past), nodes, np.nextafter(nodes, -np.inf),
            np.nextafter(nodes, np.inf), -nodes])

    @pytest.mark.parametrize("columns", [1, 2])
    def test_special_points(self, columns):
        got, want = (f(self.special_points()) for f in self.splines(columns))
        assert _same_bits(got, want)
        out = got if columns == 1 else got[:, 0]
        assert np.isnan(out[:2]).all() and np.all(out[2:4] == 0.0)
        assert np.all(out[8:18] == 0.0)              # past +-r_max

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("n", [BLOCK_POINTS - 1, BLOCK_POINTS,
                                   BLOCK_POINTS + 1])
    def test_sizes_around_a_block(self, columns, n):
        rng = np.random.default_rng(n + columns)
        r = rng.uniform(-45.0, 45.0, n)
        got, want = (f(r) for f in self.splines(columns))
        assert _same_bits(got, want)

    @pytest.mark.parametrize("columns", [1, 2])
    def test_input_shapes_and_layouts(self, columns):
        spline, oracle = self.splines(columns)
        rng = np.random.default_rng(11)
        cube = rng.uniform(-45.0, 45.0, (6, 7, 8))
        cases = [np.float64(3.3), 3.3, 1e9, np.nan, np.empty(0),
                 np.empty((0, 3)), cube, cube[:, ::2, 1:],
                 np.asfortranarray(cube), cube.T, cube[::-1, 0, ::3],
                 cube.astype(np.float32), [1.0, -2.5, np.inf]]
        for r in cases:
            got, want = spline(r), oracle(r)
            assert _same_bits(got, want), np.shape(r)
            suffix = () if columns == 1 else (2,)
            assert got.shape == np.shape(r) + suffix

    def test_input_is_not_written(self):
        spline, _ = self.splines(2)
        r = np.array([-1.0, np.nan, 50.0])
        keep = r.copy()
        spline(r)
        assert _same_bits(r, keep)
