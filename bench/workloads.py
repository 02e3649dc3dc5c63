"""The three benchmark workloads.

Each workload generates its inputs from the seed in `setup` (which also
runs one warm-up fit), then `run_pass` performs one unit of fixed work as a
closed loop: one caller, the next call only after the previous returns.
`check` verifies a finished pass outside the timed region.  `run_pass`
takes a block number: a workload whose work depends on its inputs runs
the n-th block of inputs derived from the seed, so that a run averages
over several blocks; block 0 is the same in every run of a seed.

Every fit the program runs, wherever it is called from, is captured by the
`FitRecorder` (a thin wrapper that keeps the dataset and the FitReport), so
checks and fit timings cover fits made inside `run_experiment` and the CLI.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from geogress import baselines, cli, estimator, experiments, serialization, synth
from geogress.dataset import Dataset
from geogress.errors import RankTooLarge

# Criterion 1's slack: a trail entry may exceed its predecessor by this share.
TRAIL_SLACK = 1e-10
# Recomputed final loss must equal the trail's last entry to this share.
LOSS_RECOMPUTE_TOL = 1e-9
# Criterion 2's recovery target for cells with T >= 2k.
RECOVERY_TARGET = 1e-3


class FitRecorder:
    """Keeps (dataset, FitReport) for every `fit` call made while installed."""

    def __init__(self):
        self.fits: list[tuple[Dataset, estimator.FitReport]] = []

    def wrap(self, fit):
        def recorded_fit(dataset, config, *args, **kwargs):
            report = fit(dataset, config, *args, **kwargs)
            self.fits.append((dataset, report))
            return report

        return recorded_fit


@dataclass
class Op:
    """One operation of a pass: what it returned or raised, and the fits it made."""

    label: str
    payload: object = None
    error: str | None = None
    fits: list = field(default_factory=list)


@dataclass
class Checked:
    """Outcome of checking one pass."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def trail_problem(report) -> str | None:
    trail = np.asarray(report.loss_per_outer_iter)
    if trail.size == 0 or not np.all(np.isfinite(trail)):
        return "loss trail is empty or non-finite"
    if np.any(trail[1:] > trail[:-1] * (1 + TRAIL_SLACK)):
        return "loss trail increases beyond criterion 1's slack"
    return None


class Workload:
    name = ""

    def __init__(self, recorder: FitRecorder):
        self.recorder = recorder

    def call(self, label: str, fn, *args) -> Op:
        start = len(self.recorder.fits)
        op = Op(label)
        try:
            op.payload = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        op.fits = self.recorder.fits[start:]
        return op

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run_pass(self, block: int = 0) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> Checked:
        raise NotImplementedError

    def input_bytes(self) -> int:
        raise NotImplementedError

    def extra(self, ops: list[Op]) -> dict:
        """Figures of the outputs, from the first pass; only phase-grid has recovery targets."""
        return {"experiments.run_experiment.recovered_frac": 0.0}


class FitWide(Workload):
    """Sequential fits on wide planted instances at a fixed outer budget."""

    name = "fit-wide"
    shape = dict(d=200, k=8, ell=4, T=200, sigma=1e-3, theta_max=1.4)
    n_instances = 10
    outer_iters = 30
    warmup_iters = 5

    def setup(self, seed, workdir):
        s = self.shape
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=self.n_instances)
        self.instances = [
            synth.planted_instance(s["d"], s["k"], s["ell"], s["T"], s["sigma"], s["theta_max"], int(i))
            for i in seeds
        ]
        init = estimator.EndpointsInit(s["k"])
        self.config = estimator.EstimatorConfig(init=init, outer_iters=self.outer_iters, rel_loss_tol=0.0)
        warm = estimator.EstimatorConfig(init=init, outer_iters=self.warmup_iters, rel_loss_tol=0.0)
        estimator.fit(self.instances[0].dataset, warm)

    def run_pass(self, block=0):
        return [self.call(f"fit[{i}]", estimator.fit, inst.dataset, self.config)
                for i, inst in enumerate(self.instances)]

    def check(self, ops):
        out = Checked()
        for op in ops:
            out.attempted += 1
            if op.error:
                out.fail(f"{op.label}: {op.error}")
                continue
            report = op.payload
            problem = trail_problem(report)
            if problem is None:
                dataset = op.fits[-1][0]
                again = estimator.loss(dataset, report.model)
                last = float(report.loss_per_outer_iter[-1])
                if abs(again - last) > LOSS_RECOMPUTE_TOL * max(abs(last), np.finfo(float).tiny):
                    problem = f"recomputed loss {again!r} differs from trail end {last!r}"
            if problem:
                out.fail(f"{op.label}: {problem}")
        return out

    def input_bytes(self):
        return sum(m.nbytes for inst in self.instances for m in inst.dataset.matrices)


class PhaseGrid(Workload):
    """The criterion-2 PhaseTransition grid with fewer trials and a smaller budget."""

    name = "phase-grid"
    trials = 5
    outer_iters = 100
    inner_basis_iters = 10

    def setup(self, seed, workdir):
        self.seed = seed
        self.spec = self.block_spec(0)
        self.expected_rows = len(self.spec.k) * len(self.spec.T) * self.trials
        inst = synth.planted_instance(40, 8, 1, 32, 1e-5, 1.4, seed)
        warm = estimator.EstimatorConfig(init=estimator.EndpointsInit(8), outer_iters=5,
                                         inner_basis_iters=self.inner_basis_iters)
        estimator.fit(inst.dataset, warm)

    def block_spec(self, block: int) -> experiments.ExperimentSpec:
        """The grid of block `block`: block 0 has base seed `seed`, later blocks seeds drawn from it.

        Which fits stop early differs between instances, and the median fit
        lies where that moves it most, so a run averages several grids.
        """
        base_seed = self.seed if block == 0 else int(np.random.default_rng([self.seed, block]).integers(2**31 - 1))
        overrides = {"init": "endpoints", "outer_iters": self.outer_iters,
                     "inner_basis_iters": self.inner_basis_iters}
        return experiments.ExperimentSpec(
            experiment="PhaseTransition", d=(40,), k=(2, 4, 8), ell=(1,),
            T=(1, 2, 4, 8, 16, 24, 32), sigma=(1e-5,), theta_max=(1.4,),
            trials=self.trials, base_seed=base_seed, estimator=overrides,
        )

    def run_pass(self, block=0):
        spec = self.block_spec(block)
        return [self.call("run_experiment", experiments.run_experiment, spec)]

    def check(self, ops):
        out = Checked()
        (op,) = ops
        if op.error:
            out.attempted = self.expected_rows
            out.failed = self.expected_rows
            out.problems.append(f"{op.label}: {op.error}")
            return out
        header, rows = op.payload
        col = {name: i for i, name in enumerate(header)}
        out.attempted = max(len(rows), self.expected_rows)
        if len(rows) != self.expected_rows or len(op.fits) != len(rows):
            out.failed = out.attempted
            out.problems.append(f"{len(rows)} rows and {len(op.fits)} fits, expected {self.expected_rows}")
            return out
        for n, (row, (_, report)) in enumerate(zip(rows, op.fits)):
            problem = trail_problem(report)
            final, svd_2k, err = row[col["final_loss"]], row[col["svd_2k_loss"]], row[col["geodesic_error"]]
            if problem is None and not math.isnan(svd_2k) and final < svd_2k - 1e-9:
                problem = f"final loss {final!r} below the rank-2k SVD loss {svd_2k!r}"
            if problem is None and not 0.0 <= err <= 1.0:
                problem = f"geodesic error {err!r} outside [0, 1]"
            if problem:
                out.fail(f"row {n} (k={row[col['k']]}, T={row[col['T']]}): {problem}")
        return out

    def input_bytes(self):
        # Every grid instance is d x T float64 at ell = 1.
        return sum(8 * 40 * T * self.trials * len(self.spec.k) for T in self.spec.T)

    def extra(self, ops):
        (op,) = ops
        if op.error:
            return super().extra(ops)
        header, rows = op.payload
        col = {name: i for i, name in enumerate(header)}
        eligible = [r for r in rows if r[col["T"]] >= 2 * r[col["k"]]]
        recovered = sum(r[col["geodesic_error"]] <= RECOVERY_TARGET for r in eligible)
        return {"experiments.run_experiment.recovered_frac": recovered / len(eligible),
                "recovered_fits": recovered, "eligible_fits": len(eligible)}


def ragged_instance(seed: int, d: int, k: int, ell_max: int, T: int, sigma: float) -> Dataset:
    """Planted two-segment instance whose samples have 1..ell_max columns.

    Each half of the samples (one segment at knot 0.5) holds the widths
    1, 2, ..., ell_max equally often, in an order shuffled by the seed, so
    the work of every fit is the same whatever the seed and both segments
    cost the same.  T must be a multiple of 2 * ell_max.
    """
    data, _, _, _ = synth.planted_piecewise_instance(d, k, ell_max, T, sigma, 1.0, seed)
    half = np.tile(np.arange(1, ell_max + 1), T // (2 * ell_max))
    rng = np.random.default_rng(seed)
    ells = np.concatenate([rng.permutation(half), rng.permutation(half)])
    return Dataset(data.times, tuple(m[:, :e] for m, e in zip(data.matrices, ells)))


class CliSession(Workload):
    """In-process CLI calls on files written during set-up."""

    name = "cli-session"
    ragged = dict(d=12, k=2, ell_max=3, T=24, sigma=1e-3)
    plane = dict(d=2, k=1, ell=1, T=9, sigma=0.05, theta_max=1.0)
    fit_iters = 100
    piecewise_iters = 10
    lambdas = (0.0, 1.0, 10.0, 100.0)
    grid_steps = 101

    def setup(self, seed, workdir):
        self.dir = workdir
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        r, p = self.ragged, self.plane
        self.data_path = self.dir / "ragged.txt"
        self.plane_path = self.dir / "plane.txt"
        ragged = ragged_instance(seed, r["d"], r["k"], r["ell_max"], r["T"], r["sigma"])
        plane = synth.planted_instance(p["d"], p["k"], p["ell"], p["T"], p["sigma"], p["theta_max"], seed)
        serialization.save_dataset(ragged, self.data_path)
        serialization.save_dataset(plane.dataset, self.plane_path)
        self.seed = seed
        warm = estimator.EstimatorConfig(init=estimator.EndpointsInit(r["k"]), outer_iters=5)
        estimator.fit(ragged, warm)

    def _main(self, argv: list[str]):
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = cli.main(argv)
        return code, captured.getvalue()

    def run_pass(self, block=0):
        k, d = str(self.ragged["k"]), str(self.dir)
        # rel-loss-tol 0 fixes the work: every fit runs its whole budget and
        # every lambda > 0 stage runs the full 50 sweeps, whatever the seed.
        common = ["--data", str(self.data_path), "--k", k, "--init", "endpoints", "--rel-loss-tol", "0"]
        return [
            self.call("fit", self._main, ["fit", *common, "--outer-iters", str(self.fit_iters),
                                          "--out", f"{d}/model.geo"]),
            self.call("piecewise", self._main, ["piecewise", *common, "--knots", "0,0.5,1",
                                                "--lambdas", ",".join(map(str, self.lambdas)),
                                                "--outer-iters", str(self.piecewise_iters),
                                                "--out", f"{d}/stages.csv"]),
            self.call("landscape", self._main, ["landscape", "--data", str(self.plane_path),
                                                "--seed", str(self.seed), "--out", f"{d}/surface.csv",
                                                "--iterates-out", f"{d}/iterates.csv"]),
        ]

    def _csv_rows(self, name: str) -> int:
        return len((self.dir / name).read_text(encoding="utf-8").splitlines()) - 1

    def check(self, ops):
        out = Checked()
        for op in ops:
            out.attempted += 1
            problem = op.error
            if problem is None and op.payload[0] != 0:
                problem = f"exit code {op.payload[0]}"
            for _, report in op.fits:
                problem = problem or trail_problem(report)
            if problem is None:
                try:
                    if op.label == "fit":
                        model = serialization.load_model(self.dir / "model.geo")
                        if model.k != self.ragged["k"]:
                            problem = f"reloaded model has k={model.k}"
                    elif op.label == "piecewise" and self._csv_rows("stages.csv") != len(self.lambdas):
                        problem = "stages CSV does not have one row per lambda"
                    elif op.label == "landscape":
                        if self._csv_rows("surface.csv") != self.grid_steps ** 2:
                            problem = "surface CSV does not cover the grid"
                        elif self._csv_rows("iterates.csv") < 1:
                            problem = "iterates CSV is empty"
                except Exception as exc:  # an unreadable output fails the operation
                    problem = f"{type(exc).__name__}: {exc}"
            if problem:
                out.fail(f"{op.label}: {problem}")
        return out

    def input_bytes(self):
        return self.data_path.stat().st_size + self.plane_path.stat().st_size


WORKLOADS = {w.name: w for w in (FitWide, PhaseGrid, CliSession)}


def svd_loss_ratio(dataset: Dataset, report) -> float:
    """Final fit loss over the best static rank-k loss of the same data (NaN when undefined)."""
    try:
        base = baselines.batch_svd_subspace(dataset, report.model.k)[1]
    except RankTooLarge:
        return math.nan
    return float(report.loss_per_outer_iter[-1]) / base if base > 0 else math.nan
