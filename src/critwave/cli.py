"""Command-line interface.

Subcommands mirror the module structure:

* ``constants`` - build (or verify) the spectral constants file
* ``static``    - run the static verification suite
* ``evolve``    - run a single evolution experiment from a config file
* ``quadrant``  - run the four-quadrant amplitude sweep
* ``ejection``  - fit the ejection rate of W_vec +- eps rho against k and
  check the modulation equation on the same run

Exit codes: 0 all pass, 2 an Undetermined verdict is present, 3 a check
failed, or the configuration or the command line is invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources

from .config import SWEEP_EVOLUTION, EvolutionConfig, Thresholds, load_config
from .evolve import (RadialWaveEvolver, evolve_direction, fit_ejection_rate,
                     modulation_ode_residual)
from .experiments import (ExperimentSpec, build_initial_state, check_seed,
                          exit_code_for, run_experiment, run_quadrant_sweep,
                          run_static_suite)
from .fields import save_json
from .grids import RadialGrid
from .spectral import CONSTANTS_TOL, build_spectral_data, static_grid

REFERENCE_RESOURCE = "spectral_reference_d3.json"


def load_reference_constants() -> dict | None:
    ref = resources.files("critwave").joinpath("data", REFERENCE_RESOURCE)
    if not ref.is_file():
        return None
    return json.loads(ref.read_text())


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 3, as an invalid
    configuration does, not argparse's 2, which here means an Undetermined
    verdict.  Subparsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value config file with sections")
    p.add_argument("--out", help="output file or directory")
    p.add_argument("--seed", type=int, default=20240801)


def _load_sections(path, given: dict | None = None):
    return load_config(path, given) if path else {}


def _invalid_config(exc: ValueError) -> int:
    print(f"invalid configuration: {exc}", file=sys.stderr)
    return 3


def cmd_constants(args) -> int:
    spectral = build_spectral_data(cross_check=True)
    if args.verify:
        ref = load_reference_constants()
        if ref is None:
            print("no packaged reference constants found", file=sys.stderr)
            return 3
        drift = spectral.constants_drift(ref)
        print(f"k = {spectral.k:.12f}  drift vs reference = {drift:.3e}")
        if drift > CONSTANTS_TOL:
            print("FAIL constants differ from the stored reference", file=sys.stderr)
            return 3
        print(f"PASS constants regeneration is idempotent "
              f"(<= {CONSTANTS_TOL:g})")
    out = args.out or "spectral_constants.json"
    spectral.save_constants(out)
    print(f"wrote {out}")
    return 0


def cmd_static(args) -> int:
    overrides = {"n": args.grid_n, "spacing": args.spacing}
    try:
        sections = _load_sections(args.config)
        if args.seed < 0:
            raise ValueError(f"--seed must be an integer >= 0, got "
                             f"{args.seed}")
        grid = static_grid(**{k: v for k, v in overrides.items()
                              if v is not None})
    except ValueError as exc:
        return _invalid_config(exc)
    thresholds = sections.get("thresholds", Thresholds())
    report = run_static_suite(thresholds=thresholds, grid=grid, seed=args.seed,
                              reference_constants=load_reference_constants())
    out = args.out or "static_report.json"
    save_json(out, report)
    for c in report["checks"]:
        tag = "PASS" if c["passed"] else "FAIL"
        print(f"{tag} {c['name']}: value = {c['value']:.6e} "
              f"(tolerance {c['tolerance']:g})")
        if not c["passed"] and c.get("detail"):
            print(f"     {c['detail']}")
    print(f"wrote {out}: {report['n_checks'] - report['n_failed']}"
          f"/{report['n_checks']} passed")
    return 0 if report["all_passed"] else 3


def cmd_evolve(args) -> int:
    if not args.config:
        print("evolve requires --config", file=sys.stderr)
        return 3
    try:
        given: dict = {}
        sections = _load_sections(args.config, given)
        exp_sec = sections.get("experiment")
        if exp_sec is None:
            raise ValueError("config must contain an [experiment] section")
        thresholds = sections.get("thresholds", Thresholds())
        params = dict(exp_sec)
        name = params.pop("name", "experiment")
        recipe = params.pop("recipe", None)
        parsed: dict = {}
        for key, raw in params.items():
            if key == "a":
                parsed["a"] = tuple(int(x) for x in raw.split(","))
            elif key == "path":
                parsed[key] = raw
            else:
                parsed[key] = float(raw)
        spec_exp = ExperimentSpec(
            name=name, recipe=recipe, params=parsed,
            evolution=sections.get("evolution", EvolutionConfig()),
            out_dir=args.out or ".", seed=args.seed)
        state0 = spec_exp.validate(thresholds)
        if state0 is not None:
            spec_exp = replace(spec_exp, evolution=_on_file_grid(
                spec_exp.evolution, given.get("evolution", set()),
                state0.grid))
        _check_run(spec_exp.evolution)
    except ValueError as exc:
        return _invalid_config(exc)
    spectral = build_spectral_data(cross_check=False)
    record = run_experiment(spec_exp, spectral, thresholds, state0)
    print(f"{name}: backward = {record.verdict_backward}, "
          f"forward = {record.verdict_forward}")
    return exit_code_for([record])


def _check_run(cfg: EvolutionConfig) -> None:
    """Build the run grid of ``cfg`` and its stepper: ValueError when the
    config makes no valid run."""
    RadialWaveEvolver(RadialGrid(3, cfg.r_max, cfg.n, "uniform"), cfg.cfl)


def _on_file_grid(cfg: EvolutionConfig, given: set, grid: RadialGrid
                  ) -> EvolutionConfig:
    """The evolution config of a ``file`` run, whose grid is the file
    state's: ValueError when [evolution] sets n or r_max to another grid."""
    for key in ("n", "r_max"):
        if key in given and getattr(cfg, key) != getattr(grid, key):
            raise ValueError(f"[evolution] {key} = {getattr(cfg, key)!r} "
                             f"differs from the file state's grid "
                             f"({key} = {getattr(grid, key)!r})")
    return replace(cfg, n=grid.n, r_max=grid.r_max)


def _eps_list(text: str, thresholds: Thresholds) -> tuple[float, ...]:
    """The amplitudes of a comma-separated --eps, each checked as a
    quadrant amplitude; ValueError on an invalid one."""
    eps_list = tuple(float(x) for x in text.split(","))
    for eps in eps_list:
        ExperimentSpec("quadrant", "quadrant", {"a": (1, 0), "eps": eps}
                       ).validate(thresholds)
    return eps_list


def cmd_quadrant(args) -> int:
    try:
        sections = _load_sections(args.config)
        thresholds = sections.get("thresholds", Thresholds())
        eps_list = _eps_list(args.eps, thresholds)
        if args.perturbed < 0:
            raise ValueError(f"--perturbed must be a count >= 0, "
                             f"got {args.perturbed}")
        evolution = sections.get("evolution")
        _check_run(evolution or SWEEP_EVOLUTION)
        check_seed(args.seed)
    except ValueError as exc:
        return _invalid_config(exc)
    table = run_quadrant_sweep(eps_list=eps_list, thresholds=thresholds,
                               evolution=evolution,
                               n_perturbed=args.perturbed,
                               seed=args.seed,
                               out_dir=args.out or "quadrant_out")
    for row in table.rows:
        mark = "ok" if row.matches_expected else "MISMATCH"
        print(f"a = ({row.a})  eps = {row.eps:g}  [{row.variant}]  "
              f"backward = {row.verdict_backward}  forward = {row.verdict_forward}  {mark}")
    if table.any_undetermined():
        return 2
    return 0 if all(r.matches_expected for r in table.rows) else 3


def cmd_ejection(args) -> int:
    """Evolve W_vec +- eps rho, fit the exponential rate of the unstable
    mode in the rescaled time tau against the spectral rate k, and print the
    residual of the modulation equation d lambda_1 / d tau = lambda_2 +
    sigma_tau lambda_1 on the run's monitor series."""
    th = Thresholds()
    try:
        eps_list = _eps_list(args.eps, th)
        cfg = replace(SWEEP_EVOLUTION, t_max=args.t_max, monitor_stride=0.125)
    except ValueError as exc:
        return _invalid_config(exc)
    spectral = build_spectral_data(cross_check=False)
    print(f"spectral rate k = {spectral.k:.8f}")
    for eps in eps_list:
        for sign in (+1, -1):
            state = build_initial_state(
                ExperimentSpec("ejection", "quadrant",
                               {"a": (sign, 0), "eps": eps}, evolution=cfg),
                spectral)
            run = evolve_direction(state, cfg, spectral, th)
            try:
                ode = modulation_ode_residual(run.series)
                fit = fit_ejection_rate(run.series, spectral, th)
            except ValueError as exc:
                print(f"eps = {sign * eps:+.1e}: {exc}", file=sys.stderr)
                return 3
            print(f"eps = {sign * eps:+.1e}: rate = {fit['rate']:.6f} "
                  f"(rate/k = {fit['rate_over_k']:.4f}, "
                  f"{fit['n_points']} points, dW monotone = {fit['dW_monotone']}, "
                  f"sigma drift ok = {fit['sigma_drift_ok']}, "
                  f"max_rel_residual = {ode['max_rel_residual']:.3g}, "
                  f"sigma_tau_over_gamma = {ode['sigma_tau_over_gamma']:.3g}) "
                  f"verdict = {run.verdict}")
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="critwave",
        description="numerical laboratory for the energy-critical wave equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="build / verify spectral constants")
    p.add_argument("--out", help="output file")
    p.add_argument("--verify", action="store_true",
                   help="compare against the packaged reference to 1e-10")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("static", help="run the static verification suite")
    _add_common(p)
    p.add_argument("--grid-n", type=int, help="override radial node count")
    p.add_argument("--spacing", choices=("sinh", "uniform"),
                   help="override the radial spacing rule")
    p.set_defaults(func=cmd_static)

    p = sub.add_parser("evolve", help="run one evolution experiment")
    _add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("quadrant", help="run the four-quadrant sweep")
    _add_common(p)
    p.add_argument("--eps", default="1e-3,3e-3,1e-2",
                   help="comma-separated amplitude list")
    p.add_argument("--perturbed", type=int, default=0,
                   help="number of randomized perturbed variants")
    p.set_defaults(func=cmd_quadrant)

    p = sub.add_parser("ejection", help="run the ejection-rate study")
    p.add_argument("--eps", default="1e-3,1e-4",
                   help="comma-separated amplitude list")
    p.add_argument("--t-max", type=float, default=30.0,
                   help="evolution horizon of each run")
    p.set_defaults(func=cmd_ejection)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
