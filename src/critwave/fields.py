"""Field containers, the static ground state, and radial serialization.

The phase space is H = H^1_dot x L^2, represented either by a pair of
radial fields (spherically symmetric states) or by a pair of 3-D box
fields (translated / boosted states).  All values are dimensionless.

A radial field owns its derived pieces (its derivative, far-field fit,
norms and cross terms with the family W_sigma), each computed once on
first use; its samples are read-only, so no piece goes stale.  The
functionals and the distance to the family read these pieces, so every
consumer of one field shares them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from . import _native
from .grids import Box3DGrid, RadialGrid, sobolev_exponent


# ---------------------------------------------------------------------------
# ground state closed forms
# ---------------------------------------------------------------------------

def nonlinearity_power(d: int) -> float:
    """p = 2* - 1, the power in the focusing nonlinearity |u|^(p-1) u."""
    return sobolev_exponent(d) - 1.0


def eval_W(d: int, rsq) -> np.ndarray | float:
    """Ground state W at squared radius rsq: (1 + |x|^2/(d(d-2)))^(1-d/2).

    Positive, radially decreasing, W(0) = 1.
    """
    if d not in (3, 5):
        raise ValueError("dimension must be 3 or 5")
    return (1.0 + np.asarray(rsq) / (d * (d - 2.0))) ** (1.0 - d / 2.0)


def eval_W_dr(d: int, r) -> np.ndarray | float:
    """Radial derivative dW/dr in closed form.

    In d = 3 the power q^(-3/2) is taken as 1 / (q sqrt(q)).  That order
    of operations stays because the box cross term (``cw_box_cross`` in
    ``_box.c``) and its numpy oracles copy it bit for bit, and
    ``perfbench/tracing.py`` counts this function's calls by name.
    """
    r = np.asarray(r, dtype=float)
    if d != 3:
        return _W_dr_power(d, r)
    q = r * r
    q /= 3.0
    q += 1.0
    q_pow = np.sqrt(q)
    q_pow *= q
    out = r * (-1.0 / 3.0)
    out /= q_pow
    return out


def _W_dr_power(d: int, r: np.ndarray) -> np.ndarray:
    dd = d * (d - 2.0)
    return (1.0 - d / 2.0) * (2.0 * r / dd) * (1.0 + r * r / dd) ** (-d / 2.0)


def eval_W_prime_mode(d: int, r) -> np.ndarray | float:
    """The scaling mode W' = (r d/dr + d/2 - 1) W (threshold mode of the
    linearized operator; a resonance for d = 3, an eigenfunction for d = 5).

    It uses the fractional-power derivative in every dimension: b_W is
    built from this mode, and the packaged reference constants were
    generated with that form, so they regenerate bit for bit.
    """
    r = np.asarray(r, dtype=float)
    return r * _W_dr_power(d, r) + (d / 2.0 - 1.0) * eval_W(d, r * r)


def _w_sigma_field(grid: RadialGrid, sigma: float) -> np.ndarray:
    """W_sigma = e^((d/2 - 1) sigma) W(e^sigma r) on the grid's nodes."""
    es = math.exp(sigma)
    amp = es ** (grid.d / 2.0 - 1.0)
    return amp * np.asarray(eval_W(grid.d, (es * grid.r) ** 2))


def _w_sigma_cross_tail(grid: RadialGrid, c: float, b: float,
                        sigma: float) -> tuple[float, float, float]:
    """int_R^inf grad(f).grad(W_sigma), R = r_max, over the far field
    f ~ c r^(2-d) + b r^(-d), with W_sigma exact, and its first two
    sigma-derivatives: in closed form, for every e^sigma R.

    With a = e^sigma, z = a^2 R^2 / (d(d-2)), x = (1 + z)^(-1/2) and
    I(x) = int_0^x y^(d-1) / (1 - y^2) dy = atanh x - x (- x^3/3 in d = 5)
    it is |S^(d-1)| ((d-2) c a^((d-2)/2) x^(d-2) + b a^((d+2)/2) I(x));
    below x = 1/2 I is summed as its series x^d/d + x^(d+2)/(d+2) + ...,
    which keeps the leading terms that the difference would cancel.

    With dx/dsigma = -x (1 - x^2) and 1 - x^2 = z x^2 (no cancellation
    where x nears 1), the term a^p x^(d-2), p = (d-2)/2, has the
    logarithmic derivative g = p - (d-2)(1 - x^2) and the second
    derivative a^p x^(d-2) (g^2 - 2 (d-2) x^2 (1 - x^2)); the term
    F = a^q I(x), q = (d+2)/2, has F' = a^q (q I - x^d) and
    F'' = q F' + a^q x^d (d (1 - x^2) - q).
    """
    d = grid.d
    a = math.exp(sigma)
    z = (a * grid.r_max) ** 2 / (d * (d - 2.0))
    x = 1.0 / math.sqrt(1.0 + z)
    if x < 0.5:
        integral, k, term = 0.0, d, x ** d
        while term > 1e-17 * integral:
            integral += term / k
            k, term = k + 2, term * x * x
    else:
        integral = math.atanh(x) - sum(x ** k / k for k in range(1, d, 2))
    value = grid.angular_factor * (
        (d - 2.0) * c * a ** ((d - 2.0) / 2.0) * x ** (d - 2)
        + b * a ** ((d + 2.0) / 2.0) * integral)
    one_x2 = z * x * x
    p, q = (d - 2.0) / 2.0, (d + 2.0) / 2.0
    near = a ** p * x ** (d - 2)
    g = p - (d - 2.0) * one_x2
    near1, near2 = near * g, near * (g * g - 2.0 * (d - 2.0) * x * x * one_x2)
    aq, xd = a ** q, x ** d
    far1 = aq * (q * integral - xd)
    far2 = q * far1 + aq * xd * (d * one_x2 - q)
    af, cc = grid.angular_factor, (d - 2.0) * c
    return value, af * (cc * near1 + b * far1), af * (cc * near2 + b * far2)


# ---------------------------------------------------------------------------
# radial profiles: evaluate-anywhere wrappers
# ---------------------------------------------------------------------------

class RadialProfile:
    """A cubic spline through the samples of a radial field, evaluable at
    arbitrary radii, with an even extension through the origin and the
    field's fitted far field c r^(2-d) + b r^-d beyond the last sample."""

    def __init__(self, fld: RadialField):
        grid = fld.grid
        self._spline = _mirrored_spline(grid, fld.values, 1)
        self._r_last = grid.r[-1]
        self._d = grid.d
        self._cb = fld.tail

    def __call__(self, r) -> np.ndarray:
        rr = np.abs(np.asarray(r, dtype=float))
        out = np.asarray(self._spline(rr))
        far = rr > self._r_last
        if np.any(far):
            (c, b), d = self._cb, self._d
            rf = np.where(far, rr, self._r_last)
            out = np.where(far, c * rf ** (2.0 - d) + b * rf ** (-float(d)), out)
        return out


def _mirrored_spline(grid: RadialGrid, values: np.ndarray,
                     parity) -> CubicSpline:
    """Cubic spline through (grid.r, values), extended through the origin by
    six mirrored nodes with the given parity; NaN beyond its end nodes."""
    n_mirror = 6
    r_ext = np.concatenate([-grid.r[:n_mirror][::-1], grid.r])
    v_ext = np.concatenate([parity * values[:n_mirror][::-1], values])
    return CubicSpline(r_ext, v_ext, extrapolate=False)


class UniformSpline:
    """k radial profiles from one mirrored cubic spline through samples of
    shape (n, k) on a uniform grid, with a parity per column and zero beyond
    the last sample; evaluating it at r gives shape r.shape + (k,).  Samples
    of shape (n,) make one profile, evaluated to shape r.shape.

    The compiled ``cw_spline`` (``_spline.c``) evaluates all points in one
    call.  It finds each interval directly, i = floor((r - x_0) / h), with
    one correction step to scipy's rule x[i] <= r < x[i+1] instead of a
    binary search per point, and evaluates the coefficients in scipy's
    order, so its values are bitwise scipy's spline of each column.
    """

    def __init__(self, grid: RadialGrid, values: np.ndarray, parity):
        if grid.spacing != "uniform":
            raise ValueError("direct interval lookup needs a uniform grid")
        self._one = np.ndim(values) == 1
        values = np.reshape(values, (len(values), -1))
        spline = _mirrored_spline(grid, values, parity)
        x = self._x = spline.x
        self._inv_h = (len(x) - 1) / (x[-1] - x[0])
        # coefficients as (interval, column, power), highest power first
        self._coef = np.ascontiguousarray(
            spline.c.transpose(1, 2, 0)).ravel()
        self._k = values.shape[1]

    @property
    def pieces(self) -> tuple:
        """The spline's arguments of ``cw_spline`` (and of
        ``cw_box_mode_sums``): its node count, nodes, column count,
        coefficients and 1 / h, arrays by address."""
        x = self._x
        return (len(x), _native.address(x, len(x)), self._k,
                _native.address(self._coef, self._coef.size), self._inv_h)

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        k, n = self._k, r.size
        out = np.empty(k * n)
        _native.LIB.cw_spline(n, _native.address(flat, n), *self.pieces,
                              _native.address(out, k * n))
        out = out.reshape((k,) + r.shape)
        return out[0, ...] if self._one else np.moveaxis(out, 0, -1)


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialField:
    """Samples of a radially symmetric function f on a radial grid, and its
    pieces, each computed once on first use: f' (``du``), the far-field fit
    (c, b) of f ~ c r^(2-d) + b r^(-d) (``tail``), ||grad f||^2 and
    ||f||_(2*)^(2*), each with its tail beyond r_max (``h1_sq``, ``crit``),
    ||f||^2 (``l2_sq``, no tail) and cross(sigma) = <grad f | grad W_sigma>
    with its first two sigma-derivatives (``cross``).

    The samples are taken without a copy when they are float64 already
    and marked read-only, the caller's array with them, as is f': a write
    through either raises, so no piece goes stale (a view of another
    array stays writable through its base).
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_cross", {})

    @cached_property
    def du(self) -> np.ndarray:
        du = self.grid.deriv(self.values)
        du.flags.writeable = False
        return du

    @cached_property
    def tail(self) -> tuple[float, float]:
        return self.grid.tail_fit(self.values)

    @cached_property
    def h1_sq(self) -> float:
        g = self.grid
        return g.quad_meas(self.du * self.du) + g.h1_tail(*self.tail)

    @cached_property
    def crit(self) -> float:
        g = self.grid
        return (g.quad_meas(np.abs(self.values) ** sobolev_exponent(g.d))
                + g.crit_tail(*self.tail))

    @cached_property
    def l2_sq(self) -> float:
        return self.grid.quad_meas(self.values * self.values)

    @cached_property
    def _du_meas(self) -> np.ndarray:
        return self.du * self.grid.w_meas

    def cross(self, sigma: float) -> tuple[float, float, float]:
        """(cross, d cross / d sigma, d^2 cross / d sigma^2) at sigma for
        cross(sigma) = <grad f | grad W_sigma>, tails included: one compiled
        pass over the grid (``cw_cross_sums``) per sigma, whose values are
        kept, so ``_cross`` holds one entry per full-grid pass in sigma.
        The tail beyond r_max pairs f's far field with W_sigma' itself, in
        closed form, so it holds for every sigma.

        With S_j = sum m r P^(d+2j) over the nodes (m = f' times the
        measure, P = (1 + e^(2 sigma) r^2 / (d(d-2)))^(-1/2)),
        K = (2-d)/(d(d-2)) e^((d/2+1) sigma) and alpha = 1 - d/2, the grid
        part is K S_0, its derivative K (alpha S_0 + d S_1) and its second
        derivative K (alpha^2 S_0 + 2 d (alpha - 1) S_1 + d (d+2) S_2).
        """
        val = self._cross.get(sigma)
        if val is None:
            g, d = self.grid, self.grid.d
            dd = d * (d - 2.0)
            sums = np.empty(3)
            _native.LIB.cw_cross_sums(
                g.n, _native.address(self._du_meas, g.n),
                _native.address(g.r, g.n), math.exp(2.0 * sigma) / dd, d,
                _native.address(sums, 3))
            s0, s1, s2 = sums.tolist()
            k, alpha = (2.0 - d) / dd * math.exp((d / 2.0 + 1.0) * sigma), \
                1.0 - d / 2.0
            t0, t1, t2 = _w_sigma_cross_tail(g, *self.tail, sigma)
            val = (k * s0 + t0,
                   k * (alpha * s0 + d * s1) + t1,
                   k * (alpha * alpha * s0 + 2.0 * d * (alpha - 1.0) * s1
                        + d * (d + 2.0) * s2) + t2)
            self._cross[sigma] = val
        return val

    def profile(self) -> RadialProfile:
        """The even spline profile with the power-law far field."""
        return RadialProfile(self)

    def __add__(self, other: "RadialField") -> "RadialField":
        _check_same_grid(self, other)
        return RadialField(self.grid, self.values + other.values)

    def __sub__(self, other: "RadialField") -> "RadialField":
        _check_same_grid(self, other)
        return RadialField(self.grid, self.values - other.values)

    def __mul__(self, a: float) -> "RadialField":
        return RadialField(self.grid, self.values * a)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Field3D:
    """Samples of a general function on a uniform cube grid, held as a
    C-contiguous float64 cube (copied only when the values given are not
    one), which the compiled box passes take as it is."""

    grid: Box3DGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        m = self.grid.m
        if v.shape != (m, m, m):
            raise ValueError(f"expected shape {(m, m, m)}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


@dataclass(frozen=True)
class State:
    """A point (u1, u2) = (u, du/dt) in the energy space."""

    u1: RadialField | Field3D
    u2: RadialField | Field3D

    def __post_init__(self):
        if type(self.u1) is not type(self.u2):
            raise ValueError("u1 and u2 must share a representation")
        _check_same_grid(self.u1, self.u2)

    @property
    def representation(self) -> str:
        return "radial" if isinstance(self.u1, RadialField) else "box3d"

    @property
    def grid(self):
        return self.u1.grid

    def require_radial(self, what: str) -> None:
        if self.representation != "radial":
            raise ValueError(f"{what} takes radial states only")

    def __add__(self, other: "State") -> "State":
        return State(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "State") -> "State":
        return State(self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, a: float) -> "State":
        return State(self.u1 * a, self.u2 * a)

    __rmul__ = __mul__

    def time_reversed(self) -> "State":
        return State(self.u1, self.u2 * -1.0)


@dataclass(frozen=True)
class BoostParams:
    """Scale sigma and boost vector p of the soliton family."""

    sigma: float = 0.0
    p: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        vals = (self.sigma, *self.p)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("boost parameters must be finite")

    @property
    def p_norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.p))

    @property
    def lorentz_factor(self) -> float:
        """<p> = sqrt(1 + |p|^2)."""
        return math.sqrt(1.0 + self.p_norm ** 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_json(path, obj) -> None:
    """The JSON artifact format: strict JSON, with every float that is not
    finite written as null, at any depth of dicts, lists and tuples; one-space
    indent, sorted keys, a final newline.  ``obj`` itself is not changed."""
    def strict(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {k: strict(y) for k, y in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(y) for y in x]
        return x

    with open(path, "w") as fh:
        json.dump(strict(obj), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def save_radial_field(path, fld: RadialField) -> None:
    """Columnar text format: header lines, then `r value` pairs."""
    g = fld.grid
    with open(path, "w") as fh:
        fh.write(f"# d={g.d} n={g.n} r_max={g.r_max!r}\n")
        fh.write(f"# spacing={g.spacing} beta={g.beta!r}\n")
        for r, v in zip(g.r, fld.values):
            fh.write(f"{float(r)!r} {float(v)!r}\n")


def load_radial_field(path) -> RadialField:
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        meta[k] = v
                continue
            a, b = line.split()
            rows.append((float(a), float(b)))
    for key in ("d", "n", "r_max"):
        if key not in meta:
            raise ValueError(f"{path} has no {key}= in its header "
                             "'# d=... n=... r_max=...'")
    grid = RadialGrid(int(meta["d"]), float(meta["r_max"]), int(meta["n"]),
                      meta.get("spacing", "sinh"), float(meta.get("beta", 6.0)))
    r_file = np.array([ab[0] for ab in rows])
    if len(rows) != grid.n or not np.allclose(r_file, grid.r, rtol=1e-12, atol=0):
        raise ValueError(f"node mismatch loading {path}")
    return RadialField(grid, np.array([ab[1] for ab in rows]))


def save_state(path_prefix, s: State) -> None:
    """A radial state as two columnar files, <prefix>_u1.dat and
    <prefix>_u2.dat: the format of the ``file`` recipe."""
    s.require_radial("save_state")
    save_radial_field(str(path_prefix) + "_u1.dat", s.u1)
    save_radial_field(str(path_prefix) + "_u2.dat", s.u2)


def load_state(path_prefix) -> State:
    return State(load_radial_field(str(path_prefix) + "_u1.dat"),
                 load_radial_field(str(path_prefix) + "_u2.dat"))
