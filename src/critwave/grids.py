"""Radial and Cartesian grids with high-order difference and quadrature rules.

Radial grids are cell-centered in an auxiliary coordinate s: nodes sit at
s_i = (i + 1/2)/n with r = map(s), so r = 0 is never a sample point and
even/odd reflections across the origin map nodes onto nodes exactly.  Two
maps are supported:

* ``uniform``:  r = r_max * s
* ``sinh``:     r = r_max * sinh(beta*s)/sinh(beta)   (fine near the origin)

Differentiation is 4th-order centered in s (one-sided at the outer edge,
parity reflection at the origin) combined with the analytic ds/dr of the
map.  Quadrature is the composite midpoint rule with Euler-Maclaurin end
corrections, 4th order or better for smooth integrands.

Fields with an inverse-power far field (the ground state W and anything
built from it decays like r^(2-d)) carry most of their gradient norm in
the tail, so a radial field's norms (:class:`critwave.fields.RadialField`)
add analytic tail integrals of the fitted far field c r^(2-d) + b r^(-d)
beyond r_max.  The grid owns that far-field model: the fit of (c, b) and
the H^1 and critical tail integrals.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import _native

_SUPPORTED_D = (3, 5)

# nodes used for one-sided endpoint estimates (degree-5 exactness)
_END_STENCIL = 6
# nodes entering the far-field least-squares fit
_TAIL_FIT_NODES = 12
# points per block of the blocked passes over large point sets: the
# temporaries of one block stay in the core's cache
BLOCK_POINTS = 1 << 15


def _positive_length(name: str, value) -> float:
    """value as a float, or a ValueError naming ``name`` unless it is a
    positive finite number."""
    try:
        length = float(value)
    except (TypeError, ValueError):
        length = math.nan
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return length


def _node_count(name: str, value) -> int:
    """value as an int, or a ValueError naming ``name`` unless it is an
    integer of at least 16."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < 16:
        raise ValueError(f"{name}: need at least 16 nodes, got {value!r}")
    return count


def sobolev_exponent(d: int) -> float:
    """The critical exponent 2* = 2d/(d-2)."""
    return 2.0 * d / (d - 2.0)


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _derivative_weights(x: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Weights w with sum_j w_j f(x_j) ~ f^(order)(x0), exact for deg < len(x)."""
    m = len(x)
    v = np.vander(x - x0, m, increasing=True).T  # v[k, j] = (x_j - x0)^k
    rhs = np.zeros(m)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(v, rhs)


class RadialGrid:
    """Cell-centered radial grid for spherically symmetric fields in R^d.

    Parameters
    ----------
    d : spatial dimension, 3 or 5
    r_max : outer radius of the computational domain
    n : number of nodes (>= 16)
    spacing : "sinh" or "uniform"
    beta : stretch parameter of the sinh map, finite and nonzero (finite
           and otherwise ignored for uniform spacing)
    """

    def __init__(self, d: int, r_max: float, n: int, spacing: str = "sinh",
                 beta: float = 6.0):
        if d not in _SUPPORTED_D:
            raise ValueError(f"dimension must be one of {_SUPPORTED_D}, got {d}")
        self.n = _node_count("n", n)
        self.r_max = _positive_length("r_max", r_max)
        if spacing not in ("sinh", "uniform"):
            raise ValueError(f"unknown spacing rule {spacing!r}")
        self.d = int(d)
        self.spacing = spacing
        self.beta = float(beta)
        # beta is part of the grid's identity (describe, ==) for either
        # spacing
        if not math.isfinite(self.beta) or (spacing == "sinh"
                                            and self.beta == 0.0):
            raise ValueError(f"beta must be finite, and nonzero for sinh "
                             f"spacing, got {beta!r}")

        self.h = 1.0 / self.n
        self.s = (np.arange(self.n) + 0.5) * self.h
        if spacing == "uniform":
            self.r = self.r_max * self.s
            self.dr_ds = np.full(self.n, self.r_max)
        else:
            sb = math.sinh(self.beta)
            self.r = self.r_max * np.sinh(self.beta * self.s) / sb
            self.dr_ds = self.r_max * self.beta * np.cosh(self.beta * self.s) / sb
        if not np.all(np.diff(self.r) > 0):
            raise ValueError("grid nodes are not strictly increasing")

    # -- descriptors ---------------------------------------------------

    def describe(self) -> dict:
        return {"d": self.d, "r_max": self.r_max, "n": self.n,
                "spacing": self.spacing, "beta": self.beta}

    def __eq__(self, other):
        return (isinstance(other, RadialGrid)
                and self.describe() == other.describe())

    def __hash__(self):
        return hash((self.d, self.r_max, self.n, self.spacing, self.beta))

    def __repr__(self):
        return (f"RadialGrid(d={self.d}, r_max={self.r_max}, n={self.n}, "
                f"spacing={self.spacing!r}, beta={self.beta})")

    def head(self, m: int) -> "RadialGrid":
        """The uniform grid of this uniform grid's first m nodes, with
        r_max = m cells; its nodes are bitwise this grid's first m."""
        if self.spacing != "uniform":
            raise ValueError("only a uniform grid has a head grid")
        if not 16 <= m <= self.n:
            raise ValueError(f"head needs 16 <= m <= {self.n}, got {m}")
        sub = RadialGrid(self.d, self.r_max * m / self.n, m, "uniform")
        sub.r = self.r[:m].copy()
        return sub

    @property
    def min_spacing(self) -> float:
        return float(self.r[1] - self.r[0])

    @property
    def angular_factor(self) -> float:
        return sphere_area(self.d)

    # -- quadrature ----------------------------------------------------

    @cached_property
    def _quad_weights_s(self) -> np.ndarray:
        """Midpoint weights in s with Euler-Maclaurin end corrections."""
        h = self.h
        w = np.full(self.n, h)
        # int_0^1 G ds = h*sum G_i + (h^2/24)[G'(1)-G'(0)] - (7h^4/5760)[G'''(1)-G'''(0)]
        left = self.s[:_END_STENCIL]
        right = self.s[-_END_STENCIL:]
        d1_l = _derivative_weights(left, 0.0, 1)
        d1_r = _derivative_weights(right, 1.0, 1)
        d3_l = _derivative_weights(left, 0.0, 3)
        d3_r = _derivative_weights(right, 1.0, 3)
        w[:_END_STENCIL] += -(h * h / 24.0) * d1_l + (7.0 * h ** 4 / 5760.0) * d3_l
        w[-_END_STENCIL:] += (h * h / 24.0) * d1_r - (7.0 * h ** 4 / 5760.0) * d3_r
        return w

    @cached_property
    def w_r(self) -> np.ndarray:
        """Weights for int_0^r_max g(r) dr."""
        return self._quad_weights_s * self.dr_ds

    @cached_property
    def w_meas(self) -> np.ndarray:
        """Weights for the full radial measure int g(r) r^(d-1) dr * |S^(d-1)|."""
        return self.w_r * self.r ** (self.d - 1) * self.angular_factor

    def quad_meas(self, g: np.ndarray) -> float:
        return float(self.w_meas @ g)

    # -- differentiation -----------------------------------------------

    @cached_property
    def _interior_edge_rows(self):
        """One-sided d/ds weights for the last two nodes."""
        pts = self.s[-_END_STENCIL:]
        return (_derivative_weights(pts, self.s[-2], 1),
                _derivative_weights(pts, self.s[-1], 1))

    def deriv_s(self, f: np.ndarray, parity: int = 1) -> np.ndarray:
        """4th-order d/ds with parity reflection across s = 0.

        parity=+1 for fields even in r (scalars), -1 for odd ones.
        """
        n, h = self.n, self.h
        g = np.empty(n)
        # centered stencil (f[i-2] - 8 f[i-1] + 8 f[i+1] - f[i+2]) / (12 h)
        g[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
        p = float(parity)
        # ghost nodes: index -1 mirrors 0, index -2 mirrors 1
        g[0] = (p * f[1] - 8.0 * p * f[0] + 8.0 * f[1] - f[2]) / (12.0 * h)
        g[1] = (p * f[0] - 8.0 * f[0] + 8.0 * f[2] - f[3]) / (12.0 * h)
        row_m2, row_m1 = self._interior_edge_rows
        g[-2] = row_m2 @ f[-_END_STENCIL:]
        g[-1] = row_m1 @ f[-_END_STENCIL:]
        return g

    def deriv(self, f: np.ndarray, parity: int = 1) -> np.ndarray:
        """df/dr for samples f on the grid."""
        return self.deriv_s(f, parity) / self.dr_ds

    # -- far-field fit ---------------------------------------------------

    @cached_property
    def _tail_projector(self) -> tuple[np.ndarray, float, float, np.ndarray]:
        """(P, m, s, weight r^(d-2)) of the far-field fit: P is the 2 x 12
        pseudo-inverse of the centred and scaled design [1, (r^-2 - m) / s]
        over the outer nodes, m the mean and s the range of r^-2 there
        (condition number about 3, against about 4e6 for [1, r^-2])."""
        rr = self.r[-_TAIL_FIT_NODES:]
        x = rr ** -2.0
        m, s = float(x.mean()), float(np.ptp(x))
        design = np.stack([np.ones(_TAIL_FIT_NODES), (x - m) / s], axis=1)
        return np.linalg.pinv(design), m, s, rr ** (self.d - 2)

    def tail_fit(self, f: np.ndarray) -> tuple[float, float]:
        """Fit (c, b) in f ~ c * r^(2-d) + b * r^(-d) from the outer nodes.

        Exponentially decaying fields give c, b ~ 0 so the associated
        tail corrections vanish automatically.  The least-squares fit runs
        in the centred and scaled basis through the cached projector, one
        2 x 12 product per call, and maps back: c = alpha - beta m / s and
        b = beta / s.
        """
        proj, m, s, weight = self._tail_projector
        alpha, beta = proj @ (f[-_TAIL_FIT_NODES:] * weight)
        return float(alpha - beta * m / s), float(beta / s)

    def h1_tail(self, c, b) -> float:
        """int_R^inf |grad f|^2 over the far field (c, b) of f, R = r_max."""
        d, R = self.d, self.r_max
        val = ((d - 2.0) * c * c * R ** (2 - d)
               + (d - 2.0) * (2.0 * c * b) * R ** (-d)
               + d * d * b * b * R ** (-d - 2) / (d + 2.0))
        return self.angular_factor * val

    def crit_tail(self, c, b) -> float:
        """int_R^inf |f|^(2*) over the far field (c, b) of f, R = r_max."""
        d, R = self.d, self.r_max
        ts = sobolev_exponent(d)
        val = (abs(c) ** ts * R ** (-d) / d
               + ts * abs(c) ** (ts - 2.0) * c * b * R ** (-d - 2) / (d + 2.0))
        return self.angular_factor * val


class Box3DGrid:
    """Uniform cell-centered cube grid on [-L, L]^3 (m nodes per axis).

    The gradient passes (``h1_sq`` and the fit's cross term) are compiled
    (``_box.c``): each forms ``gradient``'s values node by node and sums
    its integrand as np.sum sums the cube, allocating nothing, and takes
    C-contiguous float64 samples as they are.  Every other full-grid pass
    of the box layer runs over the x-slabs of ``slabs``,
    max(BLOCK_POINTS // m^2, 1) planes each, so its temporaries stay in
    cache; a slab pass writes into one preallocated cube (``by_slabs``),
    and a quadrature stays one sum over that cube, so its value is bitwise
    that of the whole-cube expression.
    """

    def __init__(self, half_width: float, m: int):
        self.m = _node_count("m", m)
        self.half_width = _positive_length("half_width", half_width)
        self.dx = 2.0 * self.half_width / self.m
        self.axis = -self.half_width + (np.arange(self.m) + 0.5) * self.dx

    def describe(self) -> dict:
        return {"half_width": self.half_width, "m": self.m}

    def __eq__(self, other):
        return (isinstance(other, Box3DGrid)
                and self.describe() == other.describe())

    def __hash__(self):
        return hash((self.half_width, self.m))

    def __repr__(self):
        return f"Box3DGrid(half_width={self.half_width}, m={self.m})"

    @cached_property
    def open_mesh(self):
        """The axes shaped (m, 1, 1), (1, m, 1), (1, 1, m): broadcasting them
        gives the node coordinates without storing three full cubes."""
        return np.meshgrid(self.axis, self.axis, self.axis, indexing="ij",
                           sparse=True)

    @cached_property
    def slabs(self) -> tuple[slice, ...]:
        """The x-slabs of max(BLOCK_POINTS // m^2, 1) planes, in order."""
        step = max(BLOCK_POINTS // (self.m * self.m), 1)
        return tuple(slice(a, min(a + step, self.m))
                     for a in range(0, self.m, step))

    def slab_mesh(self, sl: slice):
        """The open mesh on the x-planes sl."""
        x, y, z = self.open_mesh
        return x[sl], y, z

    def by_slabs(self, planes) -> np.ndarray:
        """The (m, m, m) cube whose x-planes sl are planes(sl), filled slab
        by slab."""
        out = np.empty((self.m,) * 3)
        for sl in self.slabs:
            out[sl] = planes(sl)
        return out

    @property
    def cell_volume(self) -> float:
        return self.dx ** 3

    def quad(self, g: np.ndarray) -> float:
        return float(np.sum(g) * self.cell_volume)

    def h1_sq(self, f: np.ndarray) -> float:
        """||grad f||^2 under the box quadrature for C-contiguous float64
        samples f: one compiled pass (``cw_box_h1_sq``) that forms the
        gradient node by node, bitwise ``gradient``, and sums |grad f|^2
        as np.sum sums the cube."""
        return float(_native.LIB.cw_box_h1_sq(*self.stencil_args(f))
                     * self.cell_volume)

    def stencil_args(self, f: np.ndarray) -> tuple:
        """The first arguments of a compiled gradient pass over samples f:
        m, the address of f, the two edge rows and 1 / (12 dx)."""
        lo, hi = self._edge_rows
        return (self.m, _native.address(f, (self.m,) * 3),
                _native.address(lo, (2, _END_STENCIL)),
                _native.address(hi, (2, _END_STENCIL)),
                1.0 / (12.0 * self.dx))

    @cached_property
    def _edge_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """One-sided 6-node d/dx weights for the two edge nodes at each end."""
        x = self.axis
        lo, hi = x[:_END_STENCIL], x[-_END_STENCIL:]
        return (np.array([_derivative_weights(lo, x[i], 1) for i in (0, 1)]),
                np.array([_derivative_weights(hi, x[i], 1) for i in (-2, -1)]))

    def gradient(self, f: np.ndarray, sl: slice = slice(None)) -> list[np.ndarray]:
        """[df/dx, df/dy, df/dz] on the x-planes sl (all by default) of
        samples f of shape (m, m, m): the five-point stencil by slicing along
        each axis and one-sided 6-node rows on the two edge nodes at each
        end, written in place.  The compiled passes form these values node
        by node; no pass of src/ calls this one."""
        a, b, _ = sl.indices(self.m)
        fs = f[a:b]
        grads = [np.empty(fs.shape) for _ in range(3)]
        self._deriv_planes(f, grads[0], a, b)
        for axis in (1, 2):
            self._deriv_planes(np.moveaxis(fs, axis, 0),
                               np.moveaxis(grads[axis], axis, 0), 0, self.m)
        return grads

    def _deriv_planes(self, fa: np.ndarray, out: np.ndarray, a: int,
                      b: int) -> None:
        """d/dx along axis 0 of fa (all m planes) on the planes a..b-1,
        written into out."""
        m = self.m
        lo, hi = self._edge_rows
        i, j = max(a, 2), min(b, m - 2)
        if i < j:
            mid = out[i - a:j - a]
            np.subtract(fa[i + 1:j + 1], fa[i - 1:j - 1], out=mid)
            mid *= 8.0
            mid += fa[i - 2:j - 2]
            mid -= fa[i + 2:j + 2]
            mid *= 1.0 / (12.0 * self.dx)
        if a < 2:
            np.einsum("ij,j...->i...", lo[a:b], fa[:_END_STENCIL],
                      out=out[:min(b, 2) - a])
        if b > m - 2:
            k = max(a, m - 2)
            np.einsum("ij,j...->i...", hi[k - (m - 2):b - (m - 2)],
                      fa[-_END_STENCIL:], out=out[k - a:])
