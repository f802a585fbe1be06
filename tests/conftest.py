import json
import math
import re

import numpy as np
import pytest
from hypothesis import settings

from critwave import evolve, spectral as spectral_mod
from critwave.config import Thresholds
from critwave.evolve import TrajectoryRecord, evolve_direction
from critwave.fields import Field3D, RadialField, State, eval_W
from critwave.grids import RadialGrid
from critwave.spectral import build_spectral_data

settings.register_profile("repo", derandomize=True, deadline=None)
settings.load_profile("repo")


@pytest.fixture(scope="session")
def spectral():
    """Spectral data with the shooting cross-check (built once, ~10 s)."""
    return build_spectral_data(cross_check=True)


@pytest.fixture(scope="session")
def static_grid():
    return RadialGrid(3, 200.0, 4096, "sinh", 6.0)


@pytest.fixture(scope="session")
def thresholds():
    return Thresholds()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240801)


def _two_call_record(state0, cfg, spec, th):
    """evolve_with_monitors without shared runs: one evolve_direction call
    per time direction, combined into the two-sided record here."""
    fwd = evolve_direction(state0, cfg, spec, th)
    bwd = evolve_direction(state0.time_reversed(), cfg, spec, th)
    series = {}
    for key in fwd.series:
        fb = np.asarray(bwd.series[key], dtype=float)[::-1]
        ff = np.asarray(fwd.series[key], dtype=float)
        if key in ("t", "tau", "lambda2", "Vw", "equip"):
            fb = -fb
        series[key] = np.concatenate([fb[:-1], ff]) if len(fb) else ff
    return TrajectoryRecord(
        series=series,
        verdict_forward=fwd.verdict, verdict_backward=bwd.verdict,
        detail_forward=fwd.detail, detail_backward=bwd.detail,
        ejection_rate_forward=fwd.ejection_rate,
        ejection_rate_backward=bwd.ejection_rate)


# the wall-time split that evolve_direction adds to a run's detail: the one
# part of a run that two runs of the same data do not share
TIMINGS = ("rows_s", "strides_s", "wait_s", "confirm_s")


def untimed(detail: dict) -> dict:
    """A run's detail without its wall-time split."""
    return {k: v for k, v in detail.items() if k not in TIMINGS}


def _untimed_json(text: str) -> str:
    """The text of a verdict sidecar with each value of the wall-time split
    replaced by null; every other byte as it is."""
    return re.sub(r'("(?:%s)": )[^,\n]*' % "|".join(TIMINGS), r"\1null",
                  text)


@pytest.fixture(scope="session")
def untimed_json():
    """The reader of a verdict sidecar's text without its timings."""
    return _untimed_json


def _strict_json(path):
    """The JSON file at ``path``, refusing NaN and the infinities."""
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.fixture(scope="session")
def strict_json():
    """A reader of a JSON file that a strict parser accepts."""
    return _strict_json


@pytest.fixture(scope="session")
def two_call_record():
    """Oracle of evolve_with_monitors(state0, cfg, spec, th)."""
    return _two_call_record


@pytest.fixture()
def direction_calls(monkeypatch):
    """The initial state of every ``evolve.evolve_direction`` call the test
    makes through the module (the oracle above calls it directly)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return evolve_direction(*args, **kwargs)

    monkeypatch.setattr(evolve, "evolve_direction", counting)
    return calls


@pytest.fixture()
def lapack_calls(monkeypatch):
    """Call counts of the banded LAPACK routines ``spectral`` uses."""
    calls = dict.fromkeys(("cholesky_banded", "cho_solve_banded",
                           "solve_banded"), 0)

    def counting(name):
        routine = getattr(spectral_mod, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(spectral_mod, name, counting(name))
    return calls


def _sample_W_family(grid, sigma: float = 0.0, q=(0.0, 0.0, 0.0)) -> State:
    """(W_sigma(. - q), 0) from the closed form, W_sigma = e^((d/2-1) sigma)
    W(e^sigma .): the radial W_sigma (q = 0 only) or the box W_(sigma,q).
    The core scale must span 4 cells of a radial grid, or its radius
    e^-sigma sqrt(3) 2 cells of a box."""
    es = math.exp(sigma)
    if isinstance(grid, RadialGrid):
        if any(c != 0.0 for c in q):
            raise ValueError("radial sampling requires q = 0")
        if math.exp(-sigma) < 4.0 * grid.min_spacing:
            raise ValueError(f"scale e^-sigma = {math.exp(-sigma):.3g} below "
                             f"4 cells of size {grid.min_spacing:.3g}")
        u1 = es ** (grid.d / 2.0 - 1.0) * eval_W(grid.d, (es * grid.r) ** 2)
        return State(RadialField(grid, u1), RadialField(grid, np.zeros(grid.n)))
    core = math.exp(-sigma) * math.sqrt(3.0)
    if core < 2.0 * grid.dx:
        raise ValueError(f"core radius {core:.3g} below 2 cells of size "
                         f"{grid.dx:.3g}")
    x, y, z = grid.open_mesh
    rsq = (x - q[0]) ** 2 + (y - q[1]) ** 2 + (z - q[2]) ** 2
    u1 = es ** 0.5 * eval_W(3, es * es * rsq)
    return State(Field3D(grid, u1), Field3D(grid, np.zeros_like(u1)))


@pytest.fixture(scope="session")
def sample_W_family():
    """Test input: the soliton family member (W_sigma(. - q), 0) on a grid,
    called as sample_W_family(grid, sigma=0.0, q=(0, 0, 0))."""
    return _sample_W_family
