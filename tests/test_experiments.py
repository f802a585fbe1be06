import dataclasses
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from critwave.cli import load_reference_constants, main as cli_main
from critwave import cli, experiments
from critwave.config import (SWEEP_EVOLUTION, EvolutionConfig, Thresholds,
                             load_config)
from critwave.evolve import SCATTER, evolve_with_monitors
from critwave.experiments import (ExperimentSpec, build_initial_state,
                                  derive_seed, exit_code_for, perturb_state,
                                  run_experiment, run_quadrant_sweep,
                                  run_static_suite)
from critwave.fields import RadialField, State, load_state, save_state
from critwave.functionals import norm_H
from critwave.grids import RadialGrid

FAST_EVOLUTION = dict(n=4096, r_max=48.0, t_max=30.0, monitor_stride=0.25)


def _forbidden(*args, **kwargs):
    raise AssertionError("the configuration should have been rejected")


class TestConfigFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[thresholds]\ndelta_A = 0.7\n\n"
                        "[evolution]\nn = 2048\nt_max = 12.5\n\n"
                        "[experiment]\nname = demo\nrecipe = bump\n")
        back = load_config(path)
        assert back["thresholds"].delta_A == 0.7
        assert back["evolution"].n == 2048
        assert back["evolution"].t_max == 12.5
        assert back["experiment"]["recipe"] == "bump"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[evolution]\nnot_a_key = 3\n")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("name", ["n", "r_max", "cfl", "t_max",
                                      "monitor_stride"])
    @pytest.mark.parametrize("value", [0, -1, math.nan, math.inf])
    def test_nonpositive_evolution_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"evolution {name} must be"):
            EvolutionConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        *[(f.name, v) for f in dataclasses.fields(Thresholds)
          if f.name != "newton_max_iters"
          for v in (0.0, -1.0, math.nan, math.inf)],
        *[("newton_max_iters", v) for v in (0, -3, 2.5)]])
    def test_invalid_thresholds_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^thresholds {name} must be"):
            Thresholds(**{name: value})

    @pytest.mark.parametrize("value, message", [
        (dict(delta_E=0.01), "delta_H must be below delta_E, got delta_H = "
                             "0.05 and delta_E = 0.01"),
        (dict(delta_A=0.1), "delta_E must be below delta_A, got delta_E = "
                            "0.2 and delta_A = 0.1"),
        (dict(delta_star=0.0125), "delta_star must be below delta_S")])
    def test_delta_chain_out_of_order_rejected(self, value, message):
        with pytest.raises(ValueError, match=f"^thresholds {message}"):
            Thresholds(**value)

    def test_sweep_resolution(self):
        assert (SWEEP_EVOLUTION.n, SWEEP_EVOLUTION.r_max, SWEEP_EVOLUTION.t_max,
                SWEEP_EVOLUTION.monitor_stride) == (8192, 64.0, 45.0, 0.25)


class TestRecipes:
    def test_quadrant_state(self, spectral):
        cfg = EvolutionConfig(**FAST_EVOLUTION)
        exp = ExperimentSpec("q", "quadrant", {"a": (1, 0), "eps": 1e-3},
                             evolution=cfg)
        s = build_initial_state(exp, spectral)
        grid = s.grid
        w = np.asarray(np.asarray(spectral.W_on(grid)))
        assert np.max(np.abs(s.u1.values - w - 1e-3 * spectral.rho_on(grid))) < 1e-14
        assert np.all(s.u2.values == 0.0)

    def test_eps_cap_enforced(self, spectral, thresholds):
        exp = ExperimentSpec("q", "quadrant", {"a": (1, 0), "eps": 0.5})
        with pytest.raises(ValueError):
            exp.validate(thresholds)

    def test_bad_direction_rejected(self, thresholds):
        exp = ExperimentSpec("q", "quadrant", {"a": (1, 1), "eps": 1e-3})
        with pytest.raises(ValueError):
            exp.validate(thresholds)

    @pytest.mark.parametrize("recipe, params, key", [
        pytest.param("bump", {"amplitud": 0.05}, "amplitud", id="misspelt"),
        pytest.param("quadrant", {"a": (1, 0), "eps": 1e-3, "amplitude": 0.1},
                     "amplitude", id="another-recipes-key"),
        pytest.param("file", {"path": "init", "perturb_norm": 1e-4},
                     "perturb_norm", id="file-perturb-norm"),
    ])
    def test_unread_keys_rejected(self, thresholds, recipe, params, key):
        keys = ", ".join(experiments.RECIPES[recipe])
        with pytest.raises(ValueError, match=re.escape(
                f"unknown keys for the {recipe} recipe: ['{key}']; "
                f"it reads {keys}")):
            ExperimentSpec("x", recipe, params).validate(thresholds)

    def test_perturbation_norm(self, spectral, rng):
        cfg = EvolutionConfig(**FAST_EVOLUTION)
        exp = ExperimentSpec("b", "bump", {"amplitude": 0.05}, evolution=cfg)
        base = build_initial_state(exp, spectral)
        pert = perturb_state(base, 0.01, rng)
        assert norm_H(pert - base) == pytest.approx(0.01, rel=1e-10)

    def test_file_recipe_round_trip(self, spectral, tmp_path):
        cfg = EvolutionConfig(**FAST_EVOLUTION)
        exp = ExperimentSpec("b", "bump", {"amplitude": 0.03}, evolution=cfg)
        s = build_initial_state(exp, spectral)
        save_state(tmp_path / "init", s)
        exp2 = ExperimentSpec("f", "file", {"path": str(tmp_path / "init")},
                              evolution=cfg)
        back = build_initial_state(exp2, spectral)
        assert np.array_equal(back.u1.values, s.u1.values)

    def test_seed_derivation_stable(self):
        assert derive_seed(7, "abc") == derive_seed(7, "abc")
        assert derive_seed(7, "abc") != derive_seed(7, "abd")

    @pytest.mark.parametrize("seed", [-1, 2 ** 31])
    def test_out_of_range_seed_rejected(self, monkeypatch, seed):
        # derive_seed keeps 31 bits, so -1 and 2^31 would repeat the
        # variants of 2^31 - 1 and 0
        assert derive_seed(seed, "x") == derive_seed(seed % 2 ** 31, "x")
        with pytest.raises(ValueError, match=r"seed must be an integer in "
                           rf"\[0, 2\^31 - 1\], got {seed}"):
            ExperimentSpec("q", "quadrant", {"a": (1, 0), "eps": 1e-3},
                           seed=seed)
        monkeypatch.setattr(experiments, "build_spectral_data", _forbidden)
        with pytest.raises(ValueError, match=f"got {seed}"):
            experiments.run_quadrant_sweep(eps_list=(1e-3,), seed=seed)

    def test_largest_seed_accepted(self, monkeypatch):
        seed = 2 ** 31 - 1
        exp = ExperimentSpec("q", "quadrant", {"a": (1, 0), "eps": 1e-3},
                             seed=seed)
        assert exp.seed == seed
        assert derive_seed(seed, "x") != derive_seed(0, "x")

        def reached(*args, **kwargs):
            raise StopIteration
        # the sweep passes the seed check and goes on to the spectral build
        monkeypatch.setattr(experiments, "build_spectral_data", reached)
        with pytest.raises(StopIteration):
            experiments.run_quadrant_sweep(eps_list=(1e-3,), seed=seed)

    def test_perturbed_variants_draw_distinct_bumps(self, spectral):
        # pert0 and pert12 of a three-amplitude sweep share a and eps; the
        # seed is derived once from the variant's name, so their bumps differ
        cases = {variant: exp for _, variant, exp in experiments._sweep_cases(
            (1e-3, 3e-3, 1e-2), SWEEP_EVOLUTION, 20, 20240801, None)}
        a, b = cases["pert0"], cases["pert12"]
        assert (a.params["a"], a.params["eps"]) == (b.params["a"],
                                                    b.params["eps"])
        sa = build_initial_state(a, spectral)
        sb = build_initial_state(b, spectral)
        assert not np.array_equal(sa.u1.values, sb.u1.values)
        assert not np.array_equal(sa.u2.values, sb.u2.values)


class TestRunExperiment:
    def test_artifacts_and_determinism(self, spectral, thresholds, tmp_path):
        cfg = EvolutionConfig(n=4096, r_max=48.0, t_max=8.0, monitor_stride=0.5)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            exp = ExperimentSpec("demo", "bump", {"amplitude": 0.05},
                                 evolution=cfg, out_dir=str(out))
            run_experiment(exp, spectral, thresholds)
        csv1 = (out1 / "demo.csv").read_bytes()
        csv2 = (out2 / "demo.csv").read_bytes()
        assert csv1 == csv2  # bit-identical outputs
        side = json.loads((out1 / "demo_verdict.json").read_text())
        assert {"verdict_forward", "verdict_backward"} <= set(side)
        header = csv1.decode().splitlines()[0]
        assert header == "t,tau,E,K,dW,lambda1,sigma,Eext,Vw,equip"

    def test_exit_code_logic(self, spectral, thresholds):
        cfg = EvolutionConfig(n=4096, r_max=48.0, t_max=25.0,
                              monitor_stride=0.5)
        exp = ExperimentSpec("s", "bump", {"amplitude": 0.04}, evolution=cfg)
        rec = run_experiment(exp, spectral, thresholds)
        assert rec.verdict_forward == SCATTER
        assert exit_code_for([rec]) == 0


@pytest.fixture(scope="module")
def mini_table(spectral, thresholds):
    return run_quadrant_sweep(eps_list=(1e-3,), spectral=spectral,
                              thresholds=thresholds, evolution=SWEEP_EVOLUTION,
                              n_perturbed=1, seed=11)


class TestQuadrantSweep:
    def test_pattern(self, mini_table):
        assert all(r.matches_expected for r in mini_table.rows
                   if r.variant == "base")
        assert not mini_table.any_undetermined()

    def test_perturbed_variant_agrees(self, mini_table):
        pert = [r for r in mini_table.rows if r.variant != "base"]
        assert pert and all(r.matches_expected for r in pert)

    def test_lambda_form_within_tolerance(self, mini_table):
        for row in mini_table.rows:
            assert row.lambda_form_dev <= 0.10

    def test_one_pass(self, mini_table):
        assert all(r.one_pass_ok for r in mini_table.rows)

    def test_csv_format(self, mini_table, tmp_path):
        mini_table.to_csv(tmp_path / "table.csv")
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert lines[0] == ("a,eps,verdict_backward,verdict_forward,"
                            "ejection_rate,runtime")
        assert len(lines) == 1 + 4  # base rows only


class TestSweepReuse:
    # a cheap resolution and a short horizon
    CFG = EvolutionConfig(n=1024, r_max=32.0, t_max=3.0, monitor_stride=0.5)

    def test_distinct_runs_and_unchanged_artifacts(
            self, spectral, thresholds, tmp_path, direction_calls,
            two_call_record, untimed_json):
        table = run_quadrant_sweep(eps_list=(1e-3,), spectral=spectral,
                                   thresholds=thresholds, evolution=self.CFG,
                                   n_perturbed=1, seed=11,
                                   out_dir=str(tmp_path / "sweep"))
        # 4 base cases share 4 runs (+-1,0 are their own reversals, and the
        # backward run of (0,+-1) is the forward run of (0,-+1)); the
        # perturbed case needs 2
        assert len(direction_calls) == 6
        runtime = {r.a: r.runtime for r in table.rows if r.variant == "base"}
        assert runtime["0,+1"] == runtime["0,-1"] > 0.0
        # the per-case files equal those of two runs per case
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        for _, _, exp in experiments._sweep_cases((1e-3,), self.CFG, 1, 11,
                                                  None):
            rec = two_call_record(build_initial_state(exp, spectral),
                                  self.CFG, spectral, thresholds)
            rec.to_csv(oracle / f"{exp.name}.csv")
            rec.to_extended_csv(oracle / f"{exp.name}_ext.csv")
            rec.save_verdict(oracle / f"{exp.name}_verdict.json")
        names = sorted(p.name for p in oracle.iterdir())
        assert len(names) == 15
        for name in names:
            assert (untimed_json((tmp_path / "sweep" / name).read_text())
                    == untimed_json((oracle / name).read_text())), name

    @pytest.mark.parametrize("threads", [2, 0])
    def test_threads_other_than_one_raise_before_any_work(self, monkeypatch,
                                                          threads):
        # a sweep runs in one process: no case or spectrum is built first
        monkeypatch.setattr(experiments, "_sweep_cases", _forbidden)
        monkeypatch.setattr(experiments, "build_spectral_data", _forbidden)
        with pytest.raises(ValueError, match="process pool was removed"):
            run_quadrant_sweep(eps_list=(1e-3,), threads=threads)


@pytest.fixture(scope="module")
def report(spectral, thresholds):
    return run_static_suite(spectral=spectral, thresholds=thresholds,
                            n_coercivity=40, n_roundtrip_radial=12,
                            n_roundtrip_box=2,
                            reference_constants=load_reference_constants())


class TestStaticSuite:
    def test_all_pass_at_default_resolution(self, report):
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed == []

    def test_report_is_machine_readable(self, report, tmp_path):
        from critwave.fields import save_json
        save_json(tmp_path / "report.json", report)
        back = json.loads((tmp_path / "report.json").read_text())
        assert back["n_checks"] == len(back["checks"])
        for c in back["checks"]:
            assert {"name", "value", "tolerance", "passed"} <= set(c)

    @pytest.mark.parametrize("fit_fails, box_errors, detail", [
        (True, [], "1 of 3 radial + 0 of 8 box assemblies"),
        (False, [1e-9, math.inf], "2 radial + 2 of 8 box assemblies"),
        (False, [1e-9] * 8, "2 radial + 8 box assemblies")])
    def test_round_trips_stop_at_the_first_failure(
            self, spectral, thresholds, monkeypatch, fit_fails, box_errors,
            detail):
        box_calls = []

        def box_error(*args):
            box_calls.append(args)
            return box_errors[len(box_calls) - 1]

        monkeypatch.setattr(experiments, "_box_round_trip_error", box_error)
        if fit_fails:
            monkeypatch.setattr(experiments, "fit_modulation",
                                lambda *args: SimpleNamespace(converged=False))
        report = run_static_suite(spectral=spectral, thresholds=thresholds,
                                  n_coercivity=1,
                                  n_roundtrip_radial=3 if fit_fails else 2,
                                  n_roundtrip_box=8)
        check, = [c for c in report["checks"]
                  if c["name"] == "modulation_round_trip"]
        assert len(box_calls) == len(box_errors)
        assert check["detail"] == detail
        assert check["passed"] == (box_errors == [1e-9] * 8)

    def test_under_resolved_grid_fails_clearly(self, thresholds):
        # deliberate under-resolution: an unstretched coarse grid misses the
        # ground-state cancellation and must report a convergence failure
        grid = RadialGrid(3, 200.0, 256, "uniform")
        report = run_static_suite(thresholds=thresholds, grid=grid,
                                  n_coercivity=5, n_roundtrip_radial=2,
                                  n_roundtrip_box=0)
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["K(W)_over_gradW_sq"]["passed"]
        assert "under-resolve" in by_name["K(W)_over_gradW_sq"]["detail"]
        assert not report["all_passed"]


class TestCLI:
    def test_static_command(self, tmp_path, capsys, strict_json):
        out = tmp_path / "report.json"
        code = cli_main(["static", "--out", str(out), "--seed", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        assert strict_json(out)["all_passed"]

    def test_static_failed_round_trip_writes_strict_json(self, tmp_path,
                                                          capsys,
                                                          strict_json):
        # the unstretched 16-node grid fails the first radial round trip,
        # and the box round trips do not run
        out = tmp_path / "report.json"
        code = cli_main(["static", "--grid-n", "16", "--spacing", "uniform",
                         "--out", str(out)])
        assert code == 3
        assert "FAIL modulation_round_trip: value = inf" in \
            capsys.readouterr().out
        check, = [c for c in strict_json(out)["checks"]
                  if c["name"] == "modulation_round_trip"]
        assert check["value"] is None and not check["passed"]
        assert check["detail"] == "1 of 60 radial + 0 of 8 box assemblies"

    def test_constants_verify(self, tmp_path, strict_json):
        out = tmp_path / "c.json"
        code = cli_main(["constants", "--verify", "--out", str(out)])
        assert code == 0
        written = strict_json(out)
        ref = load_reference_constants()
        assert abs(written["k"] - ref["k"]) <= 1e-10

    def test_constants_takes_no_config(self, tmp_path, capsys):
        # the constants build reads no configuration: --config is a usage
        # error, not a config load that can fail
        conf = tmp_path / "bad.ini"
        conf.write_text("[evolution]\nbogus = 1\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["constants", "--config", str(conf)])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "unrecognized arguments: --config" in err
        assert "Traceback" not in err

    def test_quadrant_eps_above_cap_exits_3(self, tmp_path, capsys):
        code = cli_main(["quadrant", "--eps", "0.5", "--out", str(tmp_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "eps = 0.5 outside" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", [0, 8, -5])
    def test_static_grid_n_invalid_exits_3(self, tmp_path, capsys, n):
        # 0 is an invalid node count too, not "no override"
        out = tmp_path / "report.json"
        code = cli_main(["static", "--grid-n", str(n), "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert f"need at least 16 nodes, got {n}" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_quadrant_negative_perturbed_exits_3(self, tmp_path, capsys):
        code = cli_main(["quadrant", "--perturbed", "-1", "--out",
                         str(tmp_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "--perturbed must be a count >= 0, got -1" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, section, message", [
        pytest.param("evolve", "n = 8", "need at least 16 nodes, got 8",
                     id="evolve-n"),
        pytest.param("evolve", "cfl = 0.9", "cfl = 0.9 outside (0, sqrt(3)/2",
                     id="evolve-cfl"),
        pytest.param("quadrant", "n = 8", "need at least 16 nodes, got 8",
                     id="quadrant-n"),
    ])
    def test_evolution_without_valid_run_exits_3(self, tmp_path, capsys,
                                                 monkeypatch, command,
                                                 section, message):
        # checked before the spectral build, with nothing written
        monkeypatch.setattr(cli, "build_spectral_data", _forbidden)
        monkeypatch.setattr(cli, "run_quadrant_sweep", _forbidden)
        conf = tmp_path / "bad.ini"
        conf.write_text("[experiment]\nname = bad\nrecipe = bump\n\n"
                        f"[evolution]\n{section}\n")
        out = tmp_path / "out"
        code = cli_main([command, "--config", str(conf), "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "quadrant"])
    @pytest.mark.parametrize("line, name", [
        ("delta_A = nan", "delta_A"), ("tol_orth = -1", "tol_orth"),
        ("newton_max_iters = 0", "newton_max_iters"),
        ("delta_E = 0.01", "delta_H")])
    def test_invalid_thresholds_exit_3(self, tmp_path, capsys, monkeypatch,
                                       command, line, name):
        # rejected while the config loads, before the spectral build
        monkeypatch.setattr(cli, "build_spectral_data", _forbidden)
        monkeypatch.setattr(cli, "run_quadrant_sweep", _forbidden)
        conf = tmp_path / "bad.ini"
        conf.write_text("[experiment]\nname = bad\nrecipe = bump\n\n"
                        f"[thresholds]\n{line}\n")
        out = tmp_path / "out"
        code = cli_main([command, "--config", str(conf), "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert f"thresholds {name} must be" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param([command, "--config", "{missing}"],
                     "cannot read the config file {missing}: No such file",
                     id=f"{command}-missing-config")
        for command in ("evolve", "static", "quadrant")] + [
        pytest.param(["static", "--seed", "-1"],
                     "--seed must be an integer >= 0, got -1",
                     id="static-negative-seed"),
    ])
    def test_unreadable_input_exits_3(self, tmp_path, capsys, monkeypatch,
                                      argv, message):
        # rejected before the spectral build, with nothing written
        monkeypatch.setattr(cli, "build_spectral_data", _forbidden)
        monkeypatch.setattr(cli, "run_quadrant_sweep", _forbidden)
        monkeypatch.setattr(cli, "run_static_suite", _forbidden)
        missing = tmp_path / "missing.ini"
        out = tmp_path / "out"
        code = cli_main([a.format(missing=missing) for a in argv]
                        + ["--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message.format(missing=missing) in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "quadrant"])
    @pytest.mark.parametrize("seed", ["-1", "2147483648"])
    def test_out_of_range_seed_exits_3(self, tmp_path, capsys, monkeypatch,
                                       command, seed):
        monkeypatch.setattr(cli, "build_spectral_data", _forbidden)
        monkeypatch.setattr(cli, "run_quadrant_sweep", _forbidden)
        conf = tmp_path / "bump.ini"
        conf.write_text("[experiment]\nname = b\nrecipe = bump\n")
        out = tmp_path / "out"
        code = cli_main([command, "--config", str(conf), "--seed", seed,
                         "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"invalid configuration: seed must be an integer in "
            f"[0, 2^31 - 1], got {seed}"]
        assert not out.exists()

    def test_largest_seed_reaches_the_sweep(self, tmp_path, monkeypatch):
        seeds = []

        def sweep(**kwargs):
            seeds.append(kwargs["seed"])
            raise StopIteration
        monkeypatch.setattr(cli, "run_quadrant_sweep", sweep)
        with pytest.raises(StopIteration):
            cli_main(["quadrant", "--seed", "2147483647", "--out",
                      str(tmp_path)])
        assert seeds == [2 ** 31 - 1]

    @pytest.mark.parametrize("line, key", [
        pytest.param("amplitud = 0.05", "amplitud", id="misspelt"),
        pytest.param("eps = 1e-3", "eps", id="another-recipes-key"),
    ])
    def test_evolve_unread_experiment_key_exits_3(self, tmp_path, capsys,
                                                  monkeypatch, line, key):
        monkeypatch.setattr(cli, "build_spectral_data", _forbidden)
        conf = tmp_path / "bad.ini"
        conf.write_text(f"[experiment]\nname = bad\nrecipe = bump\n{line}\n")
        code = cli_main(["evolve", "--config", str(conf), "--out",
                         str(tmp_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert (f"unknown keys for the bump recipe: ['{key}']; it reads "
                "amplitude, width, center, velocity, perturb_norm"
                in captured.err)
        assert not (tmp_path / "bad.csv").exists()

    def test_quadrant_undetermined_exits_2(self, tmp_path, capsys,
                                          strict_json):
        # t_max = 2 ends every direction before blow-up or scattering
        conf = tmp_path / "short.ini"
        conf.write_text("[evolution]\nn = 1024\nr_max = 32.0\nt_max = 2.0\n")
        out = tmp_path / "sweep"
        code = cli_main(["quadrant", "--config", str(conf), "--eps", "1e-3",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().out.count("Undetermined") == 8
        table = strict_json(out / "quadrant_table.json")
        assert len(table["rows"]) == 4
        # null where a case has no ejection rate
        assert all(r["ejection_rate"] is None for r in table["rows"])
        assert len([strict_json(p) for p in out.glob("*_verdict.json")]) == 4
        assert all(r["verdict_backward"] == r["verdict_forward"] == "Undetermined"
                   and r["matches_expected"] is False for r in table["rows"])
        lines = (out / "quadrant_table.csv").read_text().splitlines()
        assert lines[0] == ("a,eps,verdict_backward,verdict_forward,"
                            "ejection_rate,runtime")
        assert len(lines) == 1 + 4

    def test_evolve_command(self, tmp_path):
        conf = tmp_path / "exp.ini"
        conf.write_text(
            "[experiment]\nname = cli_demo\nrecipe = bump\namplitude = 0.04\n"
            "\n[evolution]\nn = 4096\nr_max = 48.0\nt_max = 25.0\n"
            "monitor_stride = 0.5\n")
        code = cli_main(["evolve", "--config", str(conf), "--out",
                         str(tmp_path)])
        assert code == 0
        assert (tmp_path / "cli_demo.csv").exists()
        assert (tmp_path / "cli_demo_verdict.json").exists()

    def test_evolve_undetermined_exits_2(self, tmp_path, capsys, strict_json):
        # t_max = 2 ends both directions before blow-up or scattering
        conf = tmp_path / "short.ini"
        conf.write_text(
            "[experiment]\nname = short\nrecipe = quadrant\na = 1,0\n"
            "eps = 1e-3\n\n[evolution]\nn = 1024\nr_max = 32.0\n"
            "t_max = 2.0\n")
        code = cli_main(["evolve", "--config", str(conf), "--out",
                         str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().out == (
            "short: backward = Undetermined, forward = Undetermined\n")
        assert (tmp_path / "short.csv").exists()
        side = strict_json(tmp_path / "short_verdict.json")
        assert side["ejection_rate_forward"] is None

    def test_evolve_reads_the_file_state_once(self, spectral, tmp_path,
                                              monkeypatch):
        cfg = EvolutionConfig(**FAST_EVOLUTION)
        s = build_initial_state(
            ExperimentSpec("b", "bump", {"amplitude": 0.03}, evolution=cfg),
            spectral)
        save_state(tmp_path / "init", s)
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_state(path)

        monkeypatch.setattr(experiments, "load_state", counting_load)
        conf = tmp_path / "file.ini"
        conf.write_text(
            "[experiment]\nname = from_file\nrecipe = file\n"
            f"path = {tmp_path / 'init'}\n\n[evolution]\n"
            + "".join(f"{k} = {v}\n" for k, v in FAST_EVOLUTION.items()))
        code = cli_main(["evolve", "--config", str(conf), "--out",
                         str(tmp_path)])
        assert code == 0
        assert len(calls) == 1
        assert (tmp_path / "from_file_verdict.json").exists()

    @pytest.mark.parametrize("body, message", [
        ("[evolution]\nbogus = 1\n", "bogus"),
        ("[evolution]\nn = 0\n", "n must be positive"),
        ("[evolution]\nmonitor_stride = 0\n", "monitor_stride must be positive"),
        ("", "eps = 0.02 outside"),
    ])
    def test_evolve_invalid_config_exits_3(self, tmp_path, capsys, body,
                                          message):
        conf = tmp_path / "bad.ini"
        eps = 1e-3 if body else 0.02     # 0.02 > eps_star = 0.0125
        conf.write_text("[experiment]\nname = bad\nrecipe = quadrant\n"
                        f"a = +1,0\neps = {eps}\n\n" + body)
        code = cli_main(["evolve", "--config", str(conf), "--out",
                         str(tmp_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert not (tmp_path / "bad.csv").exists()

    def test_evolve_unknown_recipe_exits_3(self, tmp_path, capsys):
        conf = tmp_path / "bad.ini"
        conf.write_text("[experiment]\nname = bad\nrecipe = gmode\n"
                        "eps = 1e-3\n")
        code = cli_main(["evolve", "--config", str(conf), "--out",
                         str(tmp_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert ("unknown recipe 'gmode', expected one of quadrant, bump, file"
                in captured.err)

    @pytest.mark.parametrize("case, message", [
        ("missing", "cannot read the file state"),
        ("sinh", "needs a uniform d = 3 grid"),
        ("representation", "could not convert string to float: 'box3d'"),
    ])
    def test_evolve_bad_file_state_exits_3(self, tmp_path, capsys, case,
                                           message):
        # the file state is loaded and checked before any evolution
        spacing = "sinh" if case == "sinh" else "uniform"
        g = RadialGrid(3, 48.0, 256, spacing)
        zeros = RadialField(g, np.zeros(g.n))
        if case != "missing":
            save_state(tmp_path / "init", State(zeros, zeros))
        extra = "representation = box3d\n" if case == "representation" else ""
        conf = tmp_path / "bad.ini"
        conf.write_text("[experiment]\nname = bad\nrecipe = file\n"
                        f"path = {tmp_path / 'init'}\n" + extra)
        code = cli_main(["evolve", "--config", str(conf), "--out",
                         str(tmp_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("case", ["headerless", "empty"])
    def test_evolve_file_state_without_header_exits_3(self, tmp_path, capsys,
                                                       case):
        g = RadialGrid(3, 48.0, 256, "uniform")
        zeros = RadialField(g, np.zeros(g.n))
        save_state(tmp_path / "init", State(zeros, zeros))
        u1 = tmp_path / "init_u1.dat"
        rows = [line for line in u1.read_text().splitlines(keepends=True)
                if not line.startswith("#")]
        u1.write_text("".join(rows) if case == "headerless" else "")
        conf = tmp_path / "bad.ini"
        conf.write_text("[experiment]\nname = bad\nrecipe = file\n"
                        f"path = {tmp_path / 'init'}\n")
        code = cli_main(["evolve", "--config", str(conf), "--out",
                         str(tmp_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert f"{u1} has no d= in its header" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("n", "2048", "[evolution] n = 2048 differs from the file state's "
                      "grid (n = 1024)"),
        ("r_max", "48.0", "[evolution] r_max = 48.0 differs from the file "
                          "state's grid (r_max = 32.0)"),
    ])
    def test_evolve_file_state_on_another_grid_exits_3(self, tmp_path, capsys,
                                                       key, value, message):
        g = RadialGrid(3, 32.0, 1024, "uniform")
        zeros = RadialField(g, np.zeros(g.n))
        save_state(tmp_path / "init", State(zeros, zeros))
        conf = tmp_path / "bad.ini"
        conf.write_text("[experiment]\nname = bad\nrecipe = file\n"
                        f"path = {tmp_path / 'init'}\n\n"
                        f"[evolution]\n{key} = {value}\nt_max = 2.0\n")
        code = cli_main(["evolve", "--config", str(conf), "--out",
                         str(tmp_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert not (tmp_path / "bad.csv").exists()

    def test_evolve_file_state_runs_on_its_grid(self, tmp_path, monkeypatch):
        # [evolution] leaves n and r_max out: the run takes the file's grid
        g = RadialGrid(3, 32.0, 1024, "uniform")
        s = State(RadialField(g, 0.03 * np.exp(-((g.r - 8.0) / 4.0) ** 2)),
                  RadialField(g, np.zeros(g.n)))
        save_state(tmp_path / "init", s)
        runs = []

        def recording(state0, cfg, *args):
            runs.append((state0.grid, cfg))
            return evolve_with_monitors(state0, cfg, *args)

        monkeypatch.setattr(experiments, "evolve_with_monitors", recording)
        conf = tmp_path / "file.ini"
        conf.write_text("[experiment]\nname = from_file\nrecipe = file\n"
                        f"path = {tmp_path / 'init'}\n\n"
                        "[evolution]\nt_max = 2.0\nmonitor_stride = 0.5\n")
        code = cli_main(["evolve", "--config", str(conf), "--out",
                         str(tmp_path)])
        assert code == 0
        (grid, cfg), = runs
        assert grid == g
        assert (cfg.n, cfg.r_max, cfg.t_max) == (1024, 32.0, 2.0)
        assert (tmp_path / "from_file.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--t-max", "0"], "evolution t_max must be positive"),
        (["--eps", "abc"], "could not convert string to float: 'abc'"),
    ])
    def test_ejection_invalid_input_exits_3(self, capsys, argv, message):
        code = cli_main(["ejection"] + argv)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["--threads", "2"], "unrecognized arguments: --threads 2"),
        (["--perturbed", "x"], "argument --perturbed: invalid int value: 'x'"),
    ])
    def test_quadrant_usage_error_exits_3(self, tmp_path, capsys,
                                          monkeypatch, argv, message):
        # a usage error is an invalid command line, not an Undetermined
        # verdict (exit 2)
        monkeypatch.setattr(cli, "run_quadrant_sweep", _forbidden)
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            cli_main(["quadrant", *argv, "--out", str(out)])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_quadrant_help_lists_no_threads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["quadrant", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--perturbed" in text and "--threads" not in text

    def test_ejection_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["ejection", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--eps" in text and "--t-max" in text

    def test_ejection_prints_rate_and_ode_residual(self, capsys):
        code = cli_main(["ejection", "--eps", "1e-3", "--t-max", "14"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0].startswith("spectral rate k = ")
        assert [line.split(":")[0] for line in lines[1:]] == [
            "eps = +1.0e-03", "eps = -1.0e-03"]
        for line in lines[1:]:
            values = {key.strip(): val for key, val in
                      re.findall(r"([\w/ ]+) = ([-+.\w]+)", line)}
            assert 0.95 <= float(values["rate/k"]) <= 1.05
            assert float(values["max_rel_residual"]) <= 0.10
            assert float(values["sigma_tau_over_gamma"]) <= 5.0

    def test_ejection_no_residual_segment_exits_3(self, capsys):
        # two monitor rows leave no centred difference for the residual
        code = cli_main(["ejection", "--eps", "1e-3", "--t-max", "0.125"])
        assert code == 3
        captured = capsys.readouterr()
        assert "spectral rate k" in captured.out
        assert captured.err.splitlines() == [
            "eps = +1.0e-03: no converged segment for the residual check"]

    def test_ejection_window_too_short_exits_3(self, capsys):
        # a horizon of t = 1 ends before |lambda_1| leaves its transient
        # floor, so fit_ejection_rate has no window to fit
        code = cli_main(["ejection", "--eps", "1e-3", "--t-max", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert "spectral rate k" in captured.out
        assert "ejection window too short" in captured.err
