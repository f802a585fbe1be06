"""Configuration dataclasses and the flat key=value config format.

Threshold values are empirical calibrations, not ground truth: the capture
radius delta_A is set where the modulation solve converges reliably, and
the remaining radii keep the ordering
eps_* << delta_* << delta_S < delta_H < delta_E < delta_A.
The experiment amplitude cap eps_star is configured independently of the
delta chain so that the four-quadrant sweep can run amplitudes up to 1e-2.
"""

from __future__ import annotations

import configparser
import math
import numbers
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Thresholds:
    """Neighborhood radii and calibration constants for the distance/sign
    machinery (all dimensionless, calibrated at the default resolution).
    ValueError unless each is positive and finite and the radii increase,
    delta_star < delta_S < delta_H < delta_E < delta_A."""

    delta_A: float = 0.8          # capture radius of the modulation solve
    delta_E: float = 0.2          # inner region: d_W <= delta_E uses d_1
    delta_H: float = 0.05         # ejection scale
    delta_S: float = 0.0125       # outer sign rule applies for d_W >= delta_S
    delta_star: float = 0.003125  # one-pass exit radius
    eps_star: float = 0.0125      # energy band / experiment amplitude cap
    C_d0: float = 1.2444          # calibrated so d_0 = d_1 at d_1 = delta_E/2
    C_sigma: float = 1.5          # |sigma(t)-sigma(t0)| <= C_sigma d_W bound
    tol_orth: float = 1e-8        # relative orthogonality tolerance of a fit
    newton_max_iters: int = 30
    sign_ambiguity_margin: float = 0.10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "newton_max_iters":
                if not (isinstance(value, numbers.Integral) and value >= 1):
                    raise ValueError(f"thresholds {f.name} must be an integer "
                                     f">= 1, got {value!r}")
            elif not 0 < value < math.inf:
                raise ValueError(f"thresholds {f.name} must be positive and "
                                 f"finite, got {value!r}")
        chain = ("delta_star", "delta_S", "delta_H", "delta_E", "delta_A")
        for lo, hi in zip(chain, chain[1:]):
            if not getattr(self, lo) < getattr(self, hi):
                raise ValueError(f"thresholds {lo} must be below {hi}, got "
                                 f"{lo} = {getattr(self, lo)!r} and {hi} = "
                                 f"{getattr(self, hi)!r}")


@dataclass(frozen=True)
class EvolutionConfig:
    """Radial evolution engine configuration (d = 3)."""

    n: int = 12288
    r_max: float = 96.0
    cfl: float = 0.45
    t_max: float = 50.0
    monitor_stride: float = 0.25

    def __post_init__(self):
        for name in ("n", "r_max", "cfl", "t_max", "monitor_stride"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"evolution {name} must be positive and "
                                 f"finite, got {getattr(self, name)!r}")


# the four-quadrant sweep's resolution (also the ejection study's grid)
SWEEP_EVOLUTION = EvolutionConfig(n=8192, r_max=64.0, t_max=45.0,
                                  monitor_stride=0.25)

_SECTION_MAP = {"thresholds": Thresholds, "evolution": EvolutionConfig}


def _coerce(example, text: str):
    return int(text) if isinstance(example, int) else float(text)


def load_config(path, given: dict | None = None) -> dict:
    """Read a flat key = value config with [thresholds] / [evolution] sections.

    Unknown sections are returned verbatim as string dicts (experiment
    recipes consume them).  A file that cannot be read, a malformed file, an
    unknown key or an invalid value raises ValueError.  ``given``, when
    passed, receives the set of field names that each [thresholds] /
    [evolution] section sets.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ValueError(f"cannot read the config file {path}: "
                         f"{exc.strerror or exc}") from exc
    except configparser.Error as exc:
        raise ValueError(str(exc).replace("\n", " ")) from exc
    out: dict = {}
    for section in parser.sections():
        items = dict(parser.items(section))
        cls = _SECTION_MAP.get(section)
        if cls is None:
            out[section] = items
            continue
        base = cls()
        kwargs = {}
        # configparser lowercases option names; match fields case-blind
        by_lower = {f.name.lower(): f.name for f in fields(cls)}
        for key in list(items):
            name = by_lower.get(key)
            if name is not None:
                kwargs[name] = _coerce(getattr(base, name), items.pop(key))
        if items:
            raise ValueError(f"unknown keys in [{section}]: {sorted(items)}")
        out[section] = replace(base, **kwargs)
        if given is not None:
            given[section] = set(kwargs)
    return out

