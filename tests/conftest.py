import numpy as np
import pytest
from hypothesis import settings

from critwave import evolve
from critwave.config import Thresholds
from critwave.evolve import TrajectoryRecord, evolve_direction
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
