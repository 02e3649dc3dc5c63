"""Command-line interface: fit, synth, experiment, landscape, piecewise.

Exit codes: 0 on success, 1 on validation errors (bad flags, malformed
inputs, spec violations), 2 on I/O failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .dataset import Dataset
from .errors import GeogressError, InvalidSpec, IoFailure
from .estimator import EstimatorConfig, fit
from .experiments import (
    LANDSCAPE_COLUMNS, PIECEWISE_COLUMNS, ExperimentSpec, estimator_config, format_csv, landscape_rows,
    piecewise_rows, run_experiment,
)
from .serialization import load_dataset, save_dataset, save_model, write_text
from .synth import planted_instance


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _add_estimator_flags(parser: argparse.ArgumentParser) -> None:
    # Unset flags stay None and take the EstimatorConfig defaults.
    parser.add_argument("--outer-iters", type=int, help="outer iteration budget")
    parser.add_argument("--inner-basis-iters", type=int, help="basis updates per outer iteration")
    parser.add_argument("--rel-loss-tol", type=float, help="relative stopping tolerance")
    parser.add_argument("--time-center", type=float, help="recenter times about this point while fitting")


def _add_init_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--init", choices=["random", "endpoints"], help="initialization (default random)")
    parser.add_argument("--init-theta-max", type=float, help="largest angle of a random init")
    parser.add_argument("--pool-fraction", type=float, help="share of samples in each endpoint pool")
    parser.add_argument("--seed", type=int, default=0, help="random init seed")


def _estimator_config(args, k: int) -> EstimatorConfig:
    return estimator_config(vars(args), k, args.seed)


def _cmd_fit(args) -> int:
    report = fit(load_dataset(args.data), _estimator_config(args, args.k))
    if args.out:
        save_model(report.model, args.out)
    print(f"final_loss={float(report.loss_per_outer_iter[-1])!r}")
    print(f"outer_iters={report.outer_iters_run} converged={report.converged} "
          f"stop_reason={report.stop_reason}")
    return 0


def _cmd_synth(args) -> int:
    inst = planted_instance(args.d, args.k, args.ell, args.T, args.sigma, args.theta_max, args.seed)
    save_dataset(inst.dataset, args.out)
    if args.truth_out:
        save_model(inst.truth, args.truth_out)
    if args.clean_out:
        save_dataset(Dataset(inst.dataset.times, inst.clean), args.clean_out)
    print(f"wrote {args.out} (d={args.d} k={args.k} ell={args.ell} T={args.T})")
    return 0


def _cmd_experiment(args) -> int:
    payload = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise IoFailure(f"cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"{args.config} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidSpec("experiment config must be a JSON object")
    for name, value in (
        ("experiment", args.experiment), ("d", args.d), ("k", args.k), ("ell", args.ell),
        ("T", args.T), ("sigma", args.sigma), ("theta_max", args.theta_max),
        ("trials", args.trials), ("base_seed", args.seed), ("out", args.out),
        ("true_k", args.true_k), ("lambdas", args.lambdas),
    ):
        if value is not None:
            payload[name] = value
    if "out" not in payload or payload["out"] is None:
        raise InvalidSpec("an output path is required (--out or config key 'out')")
    spec = ExperimentSpec.from_dict(payload)
    if args.init is not None:
        spec = replace(spec, estimator={**spec.estimator, "init": args.init})
    header, rows = run_experiment(spec)
    print(f"wrote {spec.out} ({len(rows)} rows, {len(header)} columns)")
    return 0


def _cmd_landscape(args) -> int:
    dataset = load_dataset(args.data)
    config = _estimator_config(args, 1) if args.iterates_out else None
    surface, iterates = landscape_rows(dataset, args.omega_steps, args.theta_steps, args.time_center, config)
    write_text(args.out, format_csv(LANDSCAPE_COLUMNS[1:], (row[1:] for row in surface)))
    if args.iterates_out:
        write_text(args.iterates_out, format_csv(LANDSCAPE_COLUMNS, iterates))
    print(f"wrote {args.out} ({len(surface)} grid points)")
    return 0


def _cmd_piecewise(args) -> int:
    dataset = load_dataset(args.data)
    knots = np.asarray(_float_list(args.knots))
    rows, reports = piecewise_rows(dataset, knots, args.lambdas, _estimator_config(args, args.k))
    write_text(args.out, format_csv(PIECEWISE_COLUMNS, rows))
    if args.models_out:
        for j, seg in enumerate(reports[-1].model.segments):
            save_model(seg, f"{args.models_out}.seg{j}")
    print(f"wrote {args.out} ({len(rows)} stages)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geogress", description="Geodesic subspace estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a geodesic to a dataset file")
    p_fit.add_argument("--data", required=True, help="dataset file")
    p_fit.add_argument("--k", type=int, required=True, help="model rank")
    _add_init_flags(p_fit)
    p_fit.add_argument("--out", default=None, help="write the fitted model here")
    _add_estimator_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_synth = sub.add_parser("synth", help="generate a planted dataset file")
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.add_argument("--k", type=int, required=True)
    p_synth.add_argument("--ell", type=int, default=1)
    p_synth.add_argument("--T", type=int, required=True)
    p_synth.add_argument("--sigma", type=float, default=0.0)
    p_synth.add_argument("--theta-max", type=float, default=1.4)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--truth-out", default=None, help="also save the generating model")
    p_synth.add_argument("--clean-out", default=None, help="also save the noiseless dataset")
    p_synth.set_defaults(func=_cmd_synth)

    p_exp = sub.add_parser("experiment", help="run an experiment grid and write a CSV table")
    p_exp.add_argument("--config", default=None, help="JSON file with ExperimentSpec fields")
    p_exp.add_argument("--experiment", default=None)
    p_exp.add_argument("--d", type=_int_list, default=None)
    p_exp.add_argument("--k", type=_int_list, default=None)
    p_exp.add_argument("--ell", type=_int_list, default=None)
    p_exp.add_argument("--T", type=_int_list, default=None)
    p_exp.add_argument("--sigma", type=_float_list, default=None)
    p_exp.add_argument("--theta-max", type=_float_list, default=None)
    p_exp.add_argument("--trials", type=int, default=None)
    p_exp.add_argument("--seed", type=int, default=None, help="base seed")
    p_exp.add_argument("--true-k", type=int, default=None)
    p_exp.add_argument("--lambdas", type=_float_list, default=None)
    p_exp.add_argument("--init", choices=["random", "endpoints"], default=None)
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    p_land = sub.add_parser("landscape", help="emit the 2-D loss surface of a d=2 dataset")
    p_land.add_argument("--data", required=True)
    p_land.add_argument("--omega-steps", type=int, default=101)
    p_land.add_argument("--theta-steps", type=int, default=101)
    p_land.add_argument("--seed", type=int, default=0)
    p_land.add_argument("--init-theta-max", type=float, help="largest angle of the random init")
    p_land.add_argument("--out", required=True)
    p_land.add_argument("--iterates-out", default=None, help="also record fit iterates here")
    _add_estimator_flags(p_land)
    p_land.set_defaults(func=_cmd_landscape)

    p_pw = sub.add_parser("piecewise", help="penalized piecewise fit over a lambda schedule")
    p_pw.add_argument("--data", required=True)
    p_pw.add_argument("--knots", required=True, help="comma-separated knot times, e.g. 0,0.5,1")
    p_pw.add_argument("--k", type=int, required=True)
    p_pw.add_argument("--lambdas", type=_float_list, default=[0.0, 1.0, 10.0, 100.0, 1000.0])
    _add_init_flags(p_pw)
    p_pw.add_argument("--out", required=True)
    p_pw.add_argument("--models-out", default=None, help="prefix for saving final segment models")
    _add_estimator_flags(p_pw)
    p_pw.set_defaults(func=_cmd_piecewise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help (0) and bad flags (2)
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeogressError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
