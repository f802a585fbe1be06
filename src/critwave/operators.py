"""Symmetry operators: dilations, translations, and their generators.

The scaling group S_a^sigma acts by (S_a^sigma f)(x) = e^((d/2+a) sigma) f(e^sigma x);
a = -1 preserves the H^1_dot seminorm, a = 0 preserves L^2.  Its generator
is Lambda_a = r d/dr + d/2 + a.  States scale by S_(-1) on the first and
S_0 on the second component.  Translations T^c act by (T^c f)(x) = f(x - c).

Scaling is radial and resamples through the spline-plus-far-field profiles
of :mod:`critwave.fields`; box states are only translated (quintic splines).
Closed-form fields should be resampled analytically when exactness matters.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import map_coordinates

from .fields import Field3D, RadialField, ResolutionError, State

_SPLINE_ORDER = 5


def generator_Lambda(fld: RadialField, a: float) -> RadialField:
    """Lambda_a f = r f' + (d/2 + a) f, by centered finite differences."""
    g = fld.grid
    return RadialField(g, g.r * fld.deriv() + (g.d / 2.0 + a) * fld.values)


def scale_profile(profile, d: int, a: float, sigma: float):
    """Callable for S_a^sigma applied to a radial profile."""
    amp = math.exp((d / 2.0 + a) * sigma)
    es = math.exp(sigma)

    def fn(r):
        return amp * profile(es * np.asarray(r, dtype=float))

    return fn


def apply_scaling_field(fld: RadialField, sigma: float, a: float) -> RadialField:
    """Resample S_a^sigma f on the field's own grid."""
    g = fld.grid
    if sigma > 0 and not g.resolves_scale(math.exp(-sigma)):
        raise ResolutionError(
            f"scale e^-sigma = {math.exp(-sigma):.3g} below 4 cells of "
            f"size {g.min_spacing:.3g}")
    prof = fld.profile()
    return RadialField(g, scale_profile(prof, g.d, a, sigma)(g.r))


def apply_scaling(s: State, sigma: float) -> State:
    """The H-unitary vector scaling S_(-1)^sigma x S_0^sigma on a radial state."""
    s.require_radial("apply_scaling")
    return State(apply_scaling_field(s.u1, sigma, -1.0),
                 apply_scaling_field(s.u2, sigma, 0.0))


def apply_translation(s: State, c) -> State:
    """T^c on a state; radial states accept only c = 0."""
    c = np.asarray(c, dtype=float)
    if s.representation == "radial":
        if np.any(c != 0.0):
            raise ValueError("radial states only support c = 0")
        return s
    return State(_translate_box(s.u1, c), _translate_box(s.u2, c))


def _translate_box(fld: Field3D, c: np.ndarray) -> Field3D:
    g = fld.grid
    x, y, z = g.meshgrid
    coords = np.stack([g.index_coords(x - c[0]), g.index_coords(y - c[1]),
                       g.index_coords(z - c[2])])
    vals = map_coordinates(fld.values, coords, order=_SPLINE_ORDER,
                           mode="constant", cval=0.0)
    return Field3D(g, vals)
