"""Experiment runner determinism and the command-line surface."""

import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from geogress import (
    EndpointsInit, EstimatorConfig, ExperimentSpec, InvalidSpec, RandomInit, load_dataset, load_model, planted_instance,
    run_experiment, save_dataset,
)
from geogress.cli import build_parser, main
from geogress.experiments import (
    _ESTIMATOR_OPTIONS, _INIT_SALT, LANDSCAPE_HEADER, PIECEWISE_HEADER, STANDARD_HEADER, _trial_config,
    estimator_config, format_csv,
)
from geogress.synth import planted_piecewise_instance


def tiny_spec(**overrides):
    base = dict(
        experiment="ErrorVsSamples",
        d=(10,),
        k=(2,),
        ell=(1,),
        T=(8, 12),
        sigma=(1e-3,),
        theta_max=(1.2,),
        trials=2,
        base_seed=7,
        estimator={"outer_iters": 40},
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_scalar_grids_are_promoted(self):
        spec = ExperimentSpec(experiment="Convergence", d=12, k=2, T=5)
        assert spec.d == (12,) and spec.T == (5,)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidSpec):
            ExperimentSpec(experiment="Nope")

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidSpec):
            ExperimentSpec(experiment="Convergence", T=())

    def test_trials_must_be_positive(self):
        with pytest.raises(InvalidSpec):
            ExperimentSpec(experiment="Convergence", trials=0)

    def test_landscape_requires_plane(self):
        with pytest.raises(InvalidSpec):
            ExperimentSpec(experiment="Landscape2D", d=(40,), k=(1,))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidSpec):
            ExperimentSpec.from_dict({"experiment": "Convergence", "bogus": 1})


class TestEstimatorConfig:
    def test_absent_or_none_options_take_dataclass_defaults(self):
        expected = EstimatorConfig(init=RandomInit(3, seed=7))
        assert estimator_config({}, 3, 7) == expected
        none = {key: None for key in ("init", "init_theta_max", "pool_fraction", "outer_iters",
                                      "inner_basis_iters", "rel_loss_tol", "time_center")}
        assert estimator_config(none, 3, 7) == expected

    def test_options_reach_their_fields(self):
        config = estimator_config(
            {"init": "endpoints", "pool_fraction": 0.5, "outer_iters": 9, "inner_basis_iters": 3,
             "rel_loss_tol": 0.0, "time_center": 0.5, "unrelated": 1}, 2, 0)
        assert (config.init.k, config.init.pool_fraction) == (2, 0.5)
        assert (config.outer_iters, config.inner_basis_iters) == (9, 3)
        assert (config.rel_loss_tol, config.time_center) == (0.0, 0.5)
        assert estimator_config({"init_theta_max": 0.3}, 1, 4).init == RandomInit(1, theta_max=0.3, seed=4)

    def test_trial_config_widens_pools_then_falls_back_to_random(self):
        spec = ExperimentSpec(experiment="Convergence", estimator={"init": "endpoints", "outer_iters": 7})
        # cells (d, k, ell, T, sigma, theta_max); pools of ceil(f * T) samples of ell columns must hold k
        assert _trial_config(spec, (10, 2, 1, 8, 0.0, 1.0), 3).init == EndpointsInit(2)
        assert _trial_config(spec, (10, 2, 1, 4, 0.0, 1.0), 3).init == EndpointsInit(2, 0.5)
        fallback = _trial_config(spec, (10, 2, 1, 2, 0.0, 1.0), 3)
        assert fallback == EstimatorConfig(init=RandomInit(2, seed=3 ^ _INIT_SALT), outer_iters=7)

    def test_config_surface_is_pinned(self):
        # A new estimator setting must show up here, in review.
        assert {f.name for f in fields(EstimatorConfig)} == {
            "init", "outer_iters", "inner_basis_iters", "rel_loss_tol", "time_center"}
        assert set(_ESTIMATOR_OPTIONS) == {
            "init", "init_theta_max", "pool_fraction", "outer_iters", "inner_basis_iters", "rel_loss_tol",
            "time_center"}

    def test_unknown_init_rejected(self):
        with pytest.raises(InvalidSpec):
            estimator_config({"init": "truth"}, 2, 0)

    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "x", "--k", "2"],
        ["piecewise", "--data", "x", "--k", "2", "--knots", "0,1", "--out", "y"],
        ["landscape", "--data", "x", "--out", "y"],
    ], ids=["fit", "piecewise", "landscape"])
    def test_cli_flag_defaults_are_the_dataclass_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert estimator_config(vars(args), 2, args.seed) == EstimatorConfig(init=RandomInit(2, seed=0))


class TestRunExperiment:
    def test_standard_schema_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        header, rows = run_experiment(tiny_spec(out=str(out1)))
        assert header == STANDARD_HEADER
        assert len(rows) == 2 * 2  # cells x trials
        run_experiment(tiny_spec(out=str(out2)))
        a = out1.read_text().splitlines()
        b = out2.read_text().splitlines()
        assert a[0] == b[0]
        # every column except the wall-clock one is byte-identical
        drop = STANDARD_HEADER.index("wall_ms")
        for la, lb in zip(a[1:], b[1:]):
            ca = la.split(",")
            cb = lb.split(",")
            del ca[drop], cb[drop]
            assert ca == cb

    @pytest.mark.parametrize("name", ["PhaseTransition", "ErrorVsSamples", "ErrorVsEll", "Convergence"])
    def test_every_planted_experiment_runs(self, name):
        spec = ExperimentSpec(
            experiment=name,
            d=(10,),
            k=(2,),
            ell=(1, 2) if name == "ErrorVsEll" else (1,),
            T=(8,),
            sigma=(1e-2,),
            theta_max=(1.0,),
            trials=1,
            base_seed=1,
            estimator={"outer_iters": 20},
        )
        header, rows = run_experiment(spec)
        assert header == STANDARD_HEADER
        assert all(r[0] == name for r in rows)

    def test_rows_reproducible_in_isolation(self):
        spec = tiny_spec()
        header, rows = run_experiment(spec)
        i_seed = header.index("seed")
        i_loss = header.index("final_loss")
        i_T = header.index("T")
        target = rows[3]
        redo_spec = tiny_spec(T=(int(target[i_T]),), trials=2)
        _, redo_rows = run_experiment(redo_spec)
        match = [r for r in redo_rows if r[i_seed] == target[i_seed]]
        assert match and match[0][i_loss] == target[i_loss]

    def test_loss_vs_rank_emits_ordered_and_permuted_rows(self):
        spec = ExperimentSpec(
            experiment="LossVsRank",
            d=(12,),
            k=(1, 2, 3),
            ell=(2,),
            T=(12,),
            sigma=(1e-2,),
            theta_max=(1.3,),
            trials=2,
            base_seed=3,
            true_k=2,
            estimator={"outer_iters": 60},
        )
        header, rows = run_experiment(spec)
        names = {r[0] for r in rows}
        assert names == {"LossVsRank", "LossVsRank:permuted"}
        i_err = header.index("geodesic_error")
        i_k = header.index("k")
        for r in rows:
            if r[i_k] != 2:
                assert np.isnan(r[i_err])

    def test_loss_vs_rank_reproduces_rank_signature(self):
        # ordered fits sit inside the SVD sandwich at every assumed rank and
        # permuting the data moves the loss from near the rank-2k bound to
        # near the rank-k bound at the true rank
        spec = ExperimentSpec(
            experiment="LossVsRank",
            d=(16,),
            k=(1, 2, 3, 4),
            ell=(1,),
            T=(40,),
            sigma=(1e-2,),
            theta_max=(1.4,),
            trials=3,
            base_seed=99,
            true_k=2,
            estimator={"init": "endpoints", "outer_iters": 300},
        )
        header, rows = run_experiment(spec)
        i_k = header.index("k")
        i_fit = header.index("final_loss")
        i_svdk = header.index("svd_k_loss")
        i_svd2k = header.index("svd_2k_loss")
        for r in rows:
            assert r[i_svd2k] - 1e-9 <= r[i_fit] <= r[i_svdk] + 1e-9
        ordered = np.mean([r[i_fit] for r in rows if r[0] == "LossVsRank" and r[i_k] == 2])
        permuted = np.mean([r[i_fit] for r in rows if r[0] == "LossVsRank:permuted" and r[i_k] == 2])
        assert permuted >= 1.5 * ordered

    def test_landscape_rows(self):
        spec = ExperimentSpec(
            experiment="Landscape2D",
            d=(2,),
            k=(1,),
            ell=(1,),
            T=(7,),
            sigma=(1e-2,),
            theta_max=(1.0,),
            trials=1,
            base_seed=5,
            omega_steps=5,
            theta_steps=7,
            estimator={"outer_iters": 30},
        )
        header, rows = run_experiment(spec)
        assert header == LANDSCAPE_HEADER
        kinds = [r[header.index("kind")] for r in rows]
        assert kinds.count("surface") == 35
        assert kinds.count("iterate") >= 1

    def test_piecewise_demo_rows(self):
        spec = ExperimentSpec(
            experiment="PiecewiseDemo",
            d=(10,),
            k=(2,),
            ell=(1,),
            T=(9,),
            sigma=(0.0,),
            theta_max=(1.2,),
            trials=1,
            base_seed=11,
            lambdas=(0.0, 10.0),
            estimator={"outer_iters": 60},
        )
        header, rows = run_experiment(spec)
        assert header == PIECEWISE_HEADER
        assert [r[header.index("lambda")] for r in rows] == [0.0, 10.0]
        gaps = [r[header.index("max_gap")] for r in rows]
        assert gaps[1] <= gaps[0] + 1e-12


class TestFormatCsv:
    def test_value_formatting(self):
        text = format_csv(["a", "b", "c"], [["x", 3, 0.25], ["y", np.int64(4), float("nan")]])
        assert text == "a,b,c\nx,3,0.25\ny,4,nan\n"


class TestCli:
    def test_synth_fit_round_trip(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        model = tmp_path / "model.geo"
        truth = tmp_path / "truth.geo"
        assert main([
            "synth", "--d", "12", "--k", "2", "--ell", "1", "--T", "16",
            "--sigma", "0.001", "--theta-max", "1.2", "--seed", "5",
            "--out", str(data), "--truth-out", str(truth),
        ]) == 0
        ds = load_dataset(data)
        assert ds.d == 12 and ds.n_samples == 16
        assert main([
            "fit", "--data", str(data), "--k", "2", "--init", "endpoints",
            "--outer-iters", "120", "--out", str(model),
        ]) == 0
        fitted = load_model(model)
        assert fitted.d == 12 and fitted.k == 2
        out = capsys.readouterr().out
        assert "final_loss=" in out and "stop_reason=" in out

    def test_experiment_with_json_config(self, tmp_path):
        out = tmp_path / "result.csv"
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "experiment": "Convergence",
            "d": [10], "k": [2], "ell": [1], "T": [10],
            "sigma": [1e-3], "theta_max": [1.2],
            "trials": 1, "base_seed": 2,
            "estimator": {"outer_iters": 30},
            "out": str(out),
        }))
        assert main(["experiment", "--config", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == STANDARD_HEADER
        assert len(lines) == 2

    def test_experiment_flags_match_spec(self, tmp_path):
        # The README's flag form on a tiny grid writes the rows of the
        # equivalent ExperimentSpec, apart from the wall-clock column.
        out = tmp_path / "flags.csv"
        assert main([
            "experiment", "--experiment", "PhaseTransition", "--d", "12", "--k", "2", "--T", "2,4",
            "--sigma", "1e-3", "--trials", "2", "--seed", "7", "--init", "endpoints", "--out", str(out),
        ]) == 0
        spec = ExperimentSpec(experiment="PhaseTransition", d=(12,), k=(2,), T=(2, 4), sigma=(1e-3,), trials=2,
                              base_seed=7, estimator={"init": "endpoints"}, out=str(tmp_path / "spec.csv"))
        header, rows = run_experiment(spec)
        drop = header.index("wall_ms")

        def without_wall(text):
            return [line.split(",")[:drop] + line.split(",")[drop + 1:] for line in text.splitlines()]

        written = without_wall(out.read_text())
        assert len(written) == 1 + 2 * 2
        assert written == without_wall((tmp_path / "spec.csv").read_text())
        assert written == without_wall(format_csv(header, rows))

    @pytest.mark.parametrize("config_text, use_config, code", [
        (None, False, 1),
        (None, True, 2),
        ("{not json", True, 1),
        ("[1, 2]", True, 1),
    ], ids=["missing-out", "unreadable-config", "invalid-json", "not-an-object"])
    def test_experiment_input_failure_exit_codes(self, tmp_path, config_text, use_config, code):
        config = tmp_path / "exp.json"
        if config_text is not None:
            config.write_text(config_text)
        argv = ["experiment", "--experiment", "Convergence", "--d", "10", "--T", "10"]
        if use_config:
            argv += ["--config", str(config), "--out", str(tmp_path / "result.csv")]
        assert main(argv) == code
        assert not (tmp_path / "result.csv").exists()

    def test_landscape_command(self, tmp_path):
        data = tmp_path / "plane.txt"
        surface = tmp_path / "surface.csv"
        iterates = tmp_path / "iterates.csv"
        assert main([
            "synth", "--d", "2", "--k", "1", "--T", "9", "--sigma", "0.05",
            "--theta-max", "1.0", "--seed", "3", "--out", str(data),
        ]) == 0
        assert main([
            "landscape", "--data", str(data), "--omega-steps", "5", "--theta-steps", "5",
            "--out", str(surface), "--iterates-out", str(iterates), "--outer-iters", "50",
        ]) == 0
        assert surface.read_text().splitlines()[0] == "omega,theta,loss"
        assert len(surface.read_text().splitlines()) == 26
        assert iterates.read_text().splitlines()[0] == "step,omega,theta,loss"

    def test_piecewise_command(self, tmp_path):
        data = tmp_path / "data.txt"
        out = tmp_path / "stages.csv"
        assert main([
            "synth", "--d", "10", "--k", "2", "--T", "12", "--sigma", "0.01",
            "--theta-max", "1.2", "--seed", "4", "--out", str(data),
        ]) == 0
        assert main([
            "piecewise", "--data", str(data), "--knots", "0,0.5,1", "--k", "2",
            "--lambdas", "0,10", "--outer-iters", "50", "--out", str(out),
            "--models-out", str(tmp_path / "final"),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "stage,lambda,penalized_loss,max_gap,sweeps"
        assert len(lines) == 3
        assert load_model(tmp_path / "final.seg0").k == 2

    @pytest.mark.parametrize("override", [
        {"estimator": {"outer_iter": 3}},
        {"estimator": [1]},
        {"trials": "2"},
        {"base_seed": 1.5},
        {"d": [10.0]},
        {"k": ["2"]},
        {"ell": [True]},
        {"T": [10, 12.5]},
        {"omega_steps": 5.0},
        {"theta_steps": None},
        {"true_k": 1.5},
        {"true_k": True},
        {"sigma": ["x"]},
        {"sigma": [False]},
        {"theta_max": [None]},
        {"experiment": "PiecewiseDemo", "lambdas": ["x"]},
        {"experiment": "PiecewiseDemo", "lambdas": [0, float("nan")]},
        {"experiment": "PiecewiseDemo", "lambdas": [-1]},
        {"estimator": {"outer_iters": "3"}},
        {"estimator": {"inner_mm_iters": 2.0}},
        {"estimator": {"inner_basis_iters": True}},
        {"estimator": {"rel_loss_tol": "0"}},
        {"estimator": {"pool_fraction": [0.25]}},
        {"estimator": {"init_theta_max": "1"}},
        {"estimator": {"time_center": "0.5"}},
        {"estimator": {"init": 1}},
    ], ids=["unknown-estimator-key", "estimator-not-object", "trials-string", "base-seed-float", "d-float",
            "k-string", "ell-bool", "T-float", "omega-steps-float", "theta-steps-none", "true-k-float",
            "true-k-bool", "sigma-string", "sigma-bool", "theta-max-null", "lambdas-string", "lambdas-nan", "lambdas-negative",
            "outer-iters-string", "inner-mm-iters-removed", "inner-basis-iters-bool", "rel-loss-tol-string",
            "pool-fraction-list", "init-theta-max-string", "time-center-string", "init-number"])
    def test_bad_experiment_config_exit_code(self, tmp_path, override):
        cfg = tmp_path / "exp.json"
        payload = {"experiment": "Convergence", "d": [10], "k": [2], "T": [10], "trials": 1,
                   "estimator": {"outer_iters": 5}, "out": str(tmp_path / "result.csv")}
        cfg.write_text(json.dumps({**payload, **override}))
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert main(["experiment", "--config", str(cfg), "--init", "endpoints"]) == 1
        assert not (tmp_path / "result.csv").exists()

    def test_landscape_command_matches_experiment_rows(self, tmp_path):
        # one trial of cell 0 has instance seed base_seed and a random init seeded base_seed ^ _INIT_SALT
        spec = ExperimentSpec(
            experiment="Landscape2D", d=(2,), k=(1,), ell=(2,), T=(7,), sigma=(0.05,), theta_max=(1.0,),
            trials=1, base_seed=5, omega_steps=4, theta_steps=6,
            estimator={"outer_iters": 30, "time_center": 0.5, "init_theta_max": 0.5},
        )
        header, rows = run_experiment(spec)
        data = tmp_path / "plane.txt"
        save_dataset(planted_instance(2, 1, 2, 7, 0.05, 1.0, 5).dataset, data)
        surface, iterates = tmp_path / "surface.csv", tmp_path / "iterates.csv"
        assert main([
            "landscape", "--data", str(data), "--omega-steps", "4", "--theta-steps", "6",
            "--outer-iters", "30", "--time-center", "0.5", "--init-theta-max", "0.5",
            "--seed", str(5 ^ _INIT_SALT), "--out", str(surface), "--iterates-out", str(iterates),
        ]) == 0
        kind = header.index("kind")
        expected_surface = [r[kind + 2:] for r in rows if r[kind] == "surface"]
        expected_iterates = [r[kind + 1:] for r in rows if r[kind] == "iterate"]
        assert len(expected_surface) == 24 and len(expected_iterates) >= 1
        assert surface.read_text() == format_csv(["omega", "theta", "loss"], expected_surface)
        assert iterates.read_text() == format_csv(["step", "omega", "theta", "loss"], expected_iterates)

    def test_piecewise_command_matches_experiment_rows(self, tmp_path):
        spec = ExperimentSpec(
            experiment="PiecewiseDemo", d=(10,), k=(2,), ell=(2,), T=(12,), sigma=(1e-2,), theta_max=(1.2,),
            trials=1, base_seed=11, lambdas=(0.0, 1.0, 10.0), estimator={"init": "endpoints", "outer_iters": 30},
        )
        header, rows = run_experiment(spec)
        data = tmp_path / "data.txt"
        save_dataset(planted_piecewise_instance(10, 2, 2, 12, 1e-2, 1.2, 11)[0], data)
        out = tmp_path / "stages.csv"
        assert main([
            "piecewise", "--data", str(data), "--knots", "0,0.5,1", "--k", "2", "--lambdas", "0,1,10",
            "--init", "endpoints", "--outer-iters", "30", "--out", str(out),
        ]) == 0
        stage = header.index("stage")
        assert out.read_text() == format_csv(header[stage:], [r[stage:] for r in rows])

    def test_piecewise_single_segment_has_zero_gap(self, tmp_path):
        data = tmp_path / "data.txt"
        out = tmp_path / "stages.csv"
        save_dataset(planted_instance(10, 2, 1, 12, 0.01, 1.2, 4).dataset, data)
        assert main([
            "piecewise", "--data", str(data), "--knots", "0,1", "--k", "2",
            "--lambdas", "0,10", "--outer-iters", "20", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        gap = lines[0].split(",").index("max_gap")
        assert [line.split(",")[gap] for line in lines[1:]] == ["0.0", "0.0"]

    def test_fit_reports_stop_reason(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        save_dataset(planted_instance(10, 2, 1, 12, 0.01, 1.2, 4).dataset, data)
        assert main(["fit", "--data", str(data), "--k", "2", "--outer-iters", "3", "--rel-loss-tol", "0"]) == 0
        assert "outer_iters=3 converged=False stop_reason=budget" in capsys.readouterr().out

    def test_option_strings_are_pinned(self):
        # A new knob must show up here, in review.
        common = {"-h", "--help"}
        estimator = {"--outer-iters", "--inner-basis-iters", "--rel-loss-tol", "--time-center"}
        init = {"--init", "--init-theta-max", "--pool-fraction", "--seed"}
        expected = {
            "fit": common | estimator | init | {"--data", "--k", "--out"},
            "synth": common | {"--d", "--k", "--ell", "--T", "--sigma", "--theta-max", "--seed", "--out",
                               "--truth-out", "--clean-out"},
            "experiment": common | {"--config", "--experiment", "--d", "--k", "--ell", "--T", "--sigma",
                                    "--theta-max", "--trials", "--seed", "--true-k", "--lambdas", "--init",
                                    "--out"},
            "landscape": common | estimator | {"--data", "--omega-steps", "--theta-steps", "--seed",
                                               "--init-theta-max", "--out", "--iterates-out"},
            "piecewise": common | estimator | init | {"--data", "--knots", "--k", "--lambdas", "--out",
                                                      "--models-out"},
        }
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        found = {
            name: {opt for action in sub._actions for opt in action.option_strings}
            for name, sub in commands.choices.items()
        }
        assert found == expected

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("geogress-dataset v1 d=2 T=1\nt=2.0\n1.0 2.0\n")
        assert main(["fit", "--data", str(bad), "--k", "1"]) == 1

    def test_io_error_exit_code(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "missing.txt"), "--k", "1"]) == 2

    def test_bad_flags_exit_code(self):
        assert main(["fit", "--no-such-flag"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
