"""The benchmark's three workloads, run through critwave's public API.

Each workload has a set-up (timed on its own, repeated) and a unit of timed
work.  A unit returns every operation it timed, one check per attempted
operation, and a fingerprint of the values behind each verdict, so that a
speed-up that changes a result shows in the same output.  A failed check is
counted, never raised.

Library functions are looked up on their module at call time
(``evolve.evolve_direction``), never bound at import, so that the traced
pass reaches the wrapped versions.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from critwave import cli, evolve, experiments, fields, grids, spectral
from critwave.config import EvolutionConfig, Thresholds

THRESHOLDS = Thresholds()

# full size is the benchmark; toy size keeps the harness self-test short
SIZES = {
    "quadrant": {
        "full": dict(n=8192, r_max=64.0, t_max=45.0, stride=0.25,
                     eps=(1e-3,), n_perturbed=2),
        "toy": dict(n=1024, r_max=32.0, t_max=3.0, stride=0.5,
                    eps=(1e-3,), n_perturbed=2),
    },
    "ejection": {
        "full": dict(n=8192, r_max=64.0, t_max=14.0, stride=0.125,
                     eps=(1e-3, 1e-4)),
        "toy": dict(n=1024, r_max=32.0, t_max=2.0, stride=0.5,
                    eps=(1e-3, 1e-4)),
    },
    "static": {
        "full": dict(n=4096, n_coercivity=100, n_radial=60, n_box=8,
                     cross_check=True),
        "toy": dict(n=512, n_coercivity=4, n_radial=2, n_box=1,
                    cross_check=False),
    },
}


@dataclass
class UnitResult:
    """What one unit of timed work produced."""

    ops: list = field(default_factory=list)      # (kind, seconds)
    checks: list = field(default_factory=list)   # {"name", "passed", ...}
    fingerprint: dict = field(default_factory=dict)
    artifact_bytes: int = 0


def _error_check(name: str, exc: BaseException) -> dict:
    return {"name": name, "passed": False,
            "reasons": ["".join(traceback.format_exception_only(exc)).strip()]}


@contextmanager
def timed_calls(owner, attr: str, record: list):
    """Time every call of ``owner.attr`` into ``record`` as
    (seconds, first argument, result); restore the attribute afterwards."""
    original = getattr(owner, attr)

    def timer(*args, **kwargs):
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        record.append((time.perf_counter() - t0, args[0], result))
        return result

    setattr(owner, attr, timer)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _verdict_kind(verdict: str) -> str:
    return {evolve.BLOWUP: "blowup", evolve.SCATTER: "scatter"}.get(
        verdict, "undetermined")


# ---------------------------------------------------------------------------
# quadrant: the four-quadrant sweep
# ---------------------------------------------------------------------------

@dataclass
class RadialContext:
    spec: spectral.SpectralData
    cfg: EvolutionConfig
    grid: grids.RadialGrid
    states: list = field(default_factory=list)   # (label, State)


def quadrant_setup(size: dict) -> RadialContext:
    spec = spectral.build_spectral_data(cross_check=False)
    cfg = EvolutionConfig(n=size["n"], r_max=size["r_max"],
                          t_max=size["t_max"], monitor_stride=size["stride"])
    grid = grids.RadialGrid(3, cfg.r_max, cfg.n, "uniform")
    spec.rho_on(grid)     # the unstable mode on the run grid, for the initial data
    return RadialContext(spec, cfg, grid)


def quadrant_unit(ctx: RadialContext, size: dict, seed: int,
                  out_root: str) -> UnitResult:
    """The sweep over all four directions, with seeded perturbed variants;
    one check per direction run."""
    res = UnitResult()
    n_runs = 2 * (4 * len(size["eps"]) + size["n_perturbed"])
    out_dir = tempfile.mkdtemp(prefix="quadrant-", dir=out_root)
    calls: list = []
    try:
        with timed_calls(evolve, "evolve_direction", calls):
            table = experiments.run_quadrant_sweep(
                eps_list=size["eps"], spectral=ctx.spec, thresholds=THRESHOLDS,
                evolution=ctx.cfg, n_perturbed=size["n_perturbed"], seed=seed,
                threads=1, out_dir=out_dir)
        res.artifact_bytes = sum(os.path.getsize(os.path.join(out_dir, f))
                                 for f in os.listdir(out_dir))
    except Exception as exc:   # counted as failed runs, reported with the error
        res.checks = [_error_check(f"direction run {i}", exc) for i in range(n_runs)]
        return res
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    res.ops = [(_verdict_kind(run.verdict), dt) for dt, _, run in calls]
    lam_dev_max = 0.0
    for row in table.rows:
        case = f"a=({row.a}) eps={row.eps:g} {row.variant}"
        for direction, got, want in (("forward", row.verdict_forward, row.expected[1]),
                                     ("backward", row.verdict_backward, row.expected[0])):
            reasons = []
            if got != want:
                reasons.append(f"verdict {got}, expected {want}")
            if not row.one_pass_ok:
                reasons.append("one-pass check failed")
            if row.variant == "base" and not row.lambda_form_dev <= 0.10:
                reasons.append(f"lambda deviation {row.lambda_form_dev:.3g} > 0.10")
            res.checks.append({"name": f"{case} {direction}", "passed": not reasons,
                               "verdict": got, "reasons": reasons})
        if row.variant == "base":
            lam_dev_max = max(lam_dev_max, row.lambda_form_dev)
    res.fingerprint = {
        "k": ctx.spec.k,
        "rate_over_k": {f"a=({r.a}) eps={r.eps:g} {r.variant}":
                        r.ejection_rate / ctx.spec.k
                        for r in table.rows if math.isfinite(r.ejection_rate)},
        "lambda_dev_max": lam_dev_max,
        "verdicts": [[r.verdict_backward, r.verdict_forward] for r in table.rows],
    }
    return res


# ---------------------------------------------------------------------------
# ejection: the ejection-rate study (acceptance criterion 6)
# ---------------------------------------------------------------------------

def ejection_setup(size: dict) -> RadialContext:
    spec = spectral.build_spectral_data(cross_check=False)
    cfg = EvolutionConfig(n=size["n"], r_max=size["r_max"],
                          t_max=size["t_max"], monitor_stride=size["stride"])
    grid = grids.RadialGrid(3, cfg.r_max, cfg.n, "uniform")
    w_vals = np.asarray(fields.eval_W(3, grid.r ** 2))
    rho = spec.rho_on(grid)
    zero = fields.RadialField(grid, np.zeros(grid.n))
    states = [(f"eps={sign * eps:+.0e}",
               fields.State(fields.RadialField(grid, w_vals + sign * eps * rho), zero))
              for eps in size["eps"] for sign in (+1, -1)]
    return RadialContext(spec, cfg, grid, states)


def ejection_unit(ctx: RadialContext, size: dict, seed: int,
                  out_root: str) -> UnitResult:
    """One forward run of W +- eps rho per amplitude and sign, and the
    ejection-rate fit of each; one check per run."""
    res = UnitResult()
    k = ctx.spec.k
    res.fingerprint = {"k": k, "rate_over_k": {}, "verdicts": {}}
    for label, state in ctx.states:
        reasons = []
        try:
            t0 = time.perf_counter()
            run = evolve.evolve_direction(state, ctx.cfg, ctx.spec, THRESHOLDS)
            dt = time.perf_counter() - t0
        except Exception as exc:   # counted as a failed run
            res.checks.append(_error_check(label, exc))
            continue
        # a run that reaches t_max undecided is the designed outcome here
        kind = _verdict_kind(run.verdict)
        res.ops.append(("horizon" if kind == "undetermined" else kind, dt))
        res.fingerprint["verdicts"][label] = run.verdict
        try:
            fit = evolve.fit_ejection_rate(run.series, ctx.spec, THRESHOLDS)
        except (ValueError, RuntimeError) as exc:
            reasons.append(f"fit_ejection_rate raised: {exc}")
        else:
            ratio = fit["rate"] / k
            res.fingerprint["rate_over_k"][label] = ratio
            if not 0.95 <= ratio <= 1.05:
                reasons.append(f"rate/k = {ratio:.4f} outside [0.95, 1.05]")
            if not fit["dW_monotone"]:
                reasons.append("d_W not monotone on the ejection window")
            if not fit["sigma_drift_ok"]:
                reasons.append("sigma drift exceeds C_sigma d_W")
        res.checks.append({"name": label, "passed": not reasons,
                           "verdict": run.verdict, "reasons": reasons})
    return res


# ---------------------------------------------------------------------------
# static: the static verification suite
# ---------------------------------------------------------------------------

@dataclass
class StaticContext:
    grid: grids.RadialGrid
    reference: dict | None
    matrix_spec: spectral.SpectralData


def static_setup(size: dict) -> StaticContext:
    grid = grids.RadialGrid(3, 200.0, size["n"], "sinh", 6.0)
    reference = cli.load_reference_constants()
    return StaticContext(grid, reference,
                         spectral.build_spectral_data(grid, cross_check=False))


def static_unit(ctx: StaticContext, size: dict, seed: int,
                out_root: str) -> UnitResult:
    """The spectral build with its shooting cross-check, then the suite
    (what ``critwave static`` does); one check per suite check."""
    res = UnitResult()
    fits: list = []
    try:
        t0 = time.perf_counter()
        spec = spectral.build_spectral_data(ctx.grid, cross_check=size["cross_check"])
        res.ops.append(("spectral_build", time.perf_counter() - t0))
        with timed_calls(experiments, "fit_modulation", fits):
            report = experiments.run_static_suite(
                spectral=spec, thresholds=THRESHOLDS, grid=ctx.grid,
                n_coercivity=size["n_coercivity"],
                n_roundtrip_radial=size["n_radial"],
                n_roundtrip_box=size["n_box"], seed=seed,
                reference_constants=ctx.reference)
    except Exception as exc:   # counted as a failed check
        res.checks.append(_error_check("static suite", exc))
        return res
    res.ops += [("box_fit" if state.representation != "radial" else "radial_fit", dt)
                for dt, state, _ in fits]
    for c in report["checks"]:
        reasons = [] if c["passed"] else [
            f"value {c['value']:.6e} vs tolerance {c['tolerance']:g} ({c['kind']})"]
        res.checks.append({"name": c["name"], "passed": c["passed"],
                           "value": c["value"], "reasons": reasons})
    res.fingerprint = {"k": spec.k, "checks": {c["name"]: c["value"]
                                               for c in report["checks"]}}
    return res


@dataclass(frozen=True)
class Workload:
    setup: object
    unit: object


WORKLOADS = {
    "quadrant": Workload(quadrant_setup, quadrant_unit),
    "ejection": Workload(ejection_setup, ejection_unit),
    "static": Workload(static_setup, static_unit),
}
