"""Experiment grids over planted instances, with CSV emission.

Each (cell, trial) pair maps to one planted instance whose seed is
base_seed XOR cell_index XOR trial; cells enumerate the cartesian product
of the parameter grids in the fixed order (d, k, ell, T, sigma, theta_max).
Derived seeds (initialization, permutation) are salted so they never
coincide with an instance seed, which would silently start the fit at the
planted truth.

The five planted-trial experiments share one fixed result schema; the
landscape and piecewise demos emit their own table layouts, after the same
nine meta columns.  The `geogress` CLI builds its estimator config and its
landscape and piecewise tables with the functions here, too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import batch_svd_subspace
from .dataset import Dataset
from .errors import InvalidSpec, RankTooLarge
from .estimator import EndpointsInit, EstimatorConfig, RandomInit, fit
from .landscape import loss_surface_2d, record_iterates, recenter_times
from .metrics import geodesic_error
from .piecewise import check_lambda, continuity_gap, fit_piecewise_schedule
from .synth import permute_times, planted_instance, planted_piecewise_instance

EXPERIMENTS = (
    "PhaseTransition",
    "ErrorVsSamples",
    "ErrorVsEll",
    "LossVsRank",
    "Convergence",
    "Landscape2D",
    "PiecewiseDemo",
)

_META = ["experiment", "d", "k", "ell", "T", "sigma", "theta_max", "trial", "seed"]
STANDARD_HEADER = _META + [
    "final_loss", "svd_k_loss", "svd_2k_loss", "geodesic_error", "iters", "wall_ms",
]
LANDSCAPE_COLUMNS = ["step", "omega", "theta", "loss"]
PIECEWISE_COLUMNS = ["stage", "lambda", "penalized_loss", "max_gap", "sweeps"]
LANDSCAPE_HEADER = _META + ["kind"] + LANDSCAPE_COLUMNS
PIECEWISE_HEADER = _META + PIECEWISE_COLUMNS

_CONFIG_FIELDS = tuple(f.name for f in fields(EstimatorConfig) if f.name != "init")
_ESTIMATOR_OPTIONS = ("init", "init_theta_max", "pool_fraction") + _CONFIG_FIELDS

_INIT_SALT = 0x9E3779B9
_PERM_SALT = 0x5D2E1F45


def _grid(value) -> tuple:
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(value)
    return (value,)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment run: parameter grids, trial count, seeding, output path.

    `estimator` carries overrides keyed by EstimatorConfig field names plus
    `init` ("random" or "endpoints"), `init_theta_max` and `pool_fraction`;
    any other key is rejected.
    """

    experiment: str
    d: tuple = (40,)
    k: tuple = (2,)
    ell: tuple = (1,)
    T: tuple = (20,)
    sigma: tuple = (1e-3,)
    theta_max: tuple = (1.4,)
    trials: int = 1
    base_seed: int = 0
    estimator: dict = field(default_factory=dict)
    out: str | None = None
    true_k: int | None = None
    lambdas: tuple = (0.0, 1.0, 10.0, 100.0, 1000.0)
    omega_steps: int = 101
    theta_steps: int = 101

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise InvalidSpec(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        for name in ("d", "k", "ell", "T", "sigma", "theta_max", "lambdas"):
            object.__setattr__(self, name, _grid(getattr(self, name)))
            if len(getattr(self, name)) == 0:
                raise InvalidSpec(f"grid {name} must be non-empty")
        for name in ("d", "k", "ell", "T"):
            if not all(_is_int(v) for v in getattr(self, name)):
                raise InvalidSpec(f"grid {name} must hold integers, got {getattr(self, name)!r}")
        for name in ("sigma", "theta_max", "lambdas"):
            if not all(_is_real(v) for v in getattr(self, name)):
                raise InvalidSpec(f"grid {name} must hold real numbers, got {getattr(self, name)!r}")
        try:
            for lam in self.lambdas:
                check_lambda(lam)
        except ValueError as exc:
            raise InvalidSpec(f"grid lambdas: {exc}") from None
        for name in ("trials", "base_seed", "omega_steps", "theta_steps"):
            if not _is_int(getattr(self, name)):
                raise InvalidSpec(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.true_k is not None and not _is_int(self.true_k):
            raise InvalidSpec(f"true_k must be an integer or null, got {self.true_k!r}")
        if not isinstance(self.estimator, dict) or not set(self.estimator) <= set(_ESTIMATOR_OPTIONS):
            raise InvalidSpec(f"estimator must be an object with keys from {_ESTIMATOR_OPTIONS}")
        for name, value in self.estimator.items():
            if name == "init":
                kind, ok = "a string", isinstance(value, str)
            elif name.endswith("_iters"):
                kind, ok = "an integer", _is_int(value)
            else:
                kind, ok = "a real number", _is_real(value)
            if value is not None and not ok:
                raise InvalidSpec(f"estimator option {name} must be {kind} or null, got {value!r}")
        if self.trials < 1:
            raise InvalidSpec("trials must be >= 1")
        if self.experiment == "Landscape2D" and (self.d != (2,) or self.k != (1,)):
            raise InvalidSpec("Landscape2D requires d=(2,) and k=(1,)")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise InvalidSpec(f"unknown experiment config keys: {sorted(unknown)}")
        if "experiment" not in payload:
            raise InvalidSpec("experiment config must name an experiment")
        return cls(**payload)


def _given(options, **names) -> dict:
    """{field: options[key]} for each field/key pair whose option is set and not None."""
    return {name: options[key] for name, key in names.items() if options.get(key) is not None}


def estimator_config(options, k: int, seed: int | None) -> EstimatorConfig:
    """The EstimatorConfig of rank k that `options` describe.

    `options` is any mapping; only the EstimatorConfig field names, `init`,
    `init_theta_max` and `pool_fraction` are read.  `init` is "random" (the
    default; seeded by `seed`, with `init_theta_max`) or "endpoints" (with
    `pool_fraction`).  A key that is absent or None takes the default of the
    dataclass it configures.
    """
    init = options.get("init") or "random"
    if init == "endpoints":
        start = EndpointsInit(k, **_given(options, pool_fraction="pool_fraction"))
    elif init == "random":
        start = RandomInit(k, seed=seed, **_given(options, theta_max="init_theta_max"))
    else:
        raise InvalidSpec(f"unknown init override {init!r}")
    return EstimatorConfig(init=start, **_given(options, **{name: name for name in _CONFIG_FIELDS}))


def _trial_config(spec: ExperimentSpec, cell: tuple, seed: int) -> EstimatorConfig:
    """Estimator config for one trial of a cell (d, k, ell, T, sigma, theta_max).

    An endpoints init widens its pools (up to the 0.5 cap) until they can
    hold k columns, and falls back to a random init when no legal pool
    fraction can.
    """
    _, k, ell, T, _, _ = cell
    options, init_seed = spec.estimator, seed ^ _INIT_SALT
    config = estimator_config(options, k, init_seed)
    if isinstance(config.init, EndpointsInit) and math.ceil(config.init.pool_fraction * T) * ell < k:
        init = "endpoints" if math.ceil(0.5 * T) * ell >= k else "random"
        config = estimator_config({**options, "init": init, "pool_fraction": 0.5}, k, init_seed)
    return config


def _trials(spec: ExperimentSpec):
    """Yield (9-column row prefix, cell, seed) for every (cell, trial) pair."""
    cells = itertools.product(spec.d, spec.k, spec.ell, spec.T, spec.sigma, spec.theta_max)
    for cell_index, cell in enumerate(cells):
        for trial in range(spec.trials):
            seed = spec.base_seed ^ cell_index ^ trial
            yield [spec.experiment, *cell, trial, seed], cell, seed


def _svd_loss(dataset: Dataset, rank: int) -> float:
    try:
        return batch_svd_subspace(dataset, rank)[1]
    except RankTooLarge:
        return math.nan


def _standard_row(prefix: list, data: Dataset, config: EstimatorConfig, truth) -> list:
    """Fit `data` and fill the STANDARD_HEADER columns; no truth gives a NaN error."""
    report, k = fit(data, config), config.init.k
    err = geodesic_error(report.model, truth) if truth is not None else math.nan
    return prefix + [
        report.loss_per_outer_iter[-1], _svd_loss(data, k), _svd_loss(data, 2 * k), err,
        report.outer_iters_run, report.wall_time * 1e3,
    ]


def landscape_rows(data: Dataset, omega_steps: int, theta_steps: int, time_center, config):
    """Surface and iterate rows, each LANDSCAPE_COLUMNS, of a d=2, k=1 dataset.

    The surface spans omega in [-pi/2, pi/2] by theta in [-pi, pi] (step =
    omega index * theta_steps + theta index).  A nonzero `time_center`
    recentres the data first.  Only with a config is a fit run, on the
    recentred data (so without the config's own time_center), giving one
    iterate row per accepted outer iteration.
    """
    if time_center:
        data = recenter_times(data, time_center)
    omega_grid = np.linspace(-np.pi / 2, np.pi / 2, omega_steps)
    theta_grid = np.linspace(-np.pi, np.pi, theta_steps)
    surface = loss_surface_2d(data, omega_grid, theta_grid)
    surface_rows = [
        [i * theta_grid.size + j, omega, theta, surface[i, j]]
        for i, omega in enumerate(omega_grid)
        for j, theta in enumerate(theta_grid)
    ]
    iterate_rows = []
    if config is not None:
        pairs, report = record_iterates(data, replace(config, time_center=None))
        iterate_rows = [
            [step, omega, theta, report.loss_per_outer_iter[step]]
            for step, (omega, theta) in enumerate(pairs, start=1)
        ]
    return surface_rows, iterate_rows


def piecewise_rows(data: Dataset, knots, lambdas, config: EstimatorConfig):
    """One PIECEWISE_COLUMNS row per lambda stage (max_gap 0.0 for one segment), and the reports."""
    reports = fit_piecewise_schedule(data, knots, lambdas, config)
    rows = []
    for stage, (lam, report) in enumerate(zip(lambdas, reports)):
        gaps = continuity_gap(report.model)
        max_gap = float(np.max(gaps)) if gaps.size else 0.0
        rows.append([stage, lam, report.objective_per_sweep[-1], max_gap, report.sweeps_run])
    return rows, reports


def _planted_trial(spec: ExperimentSpec, prefix: list, cell: tuple, seed: int) -> list[list]:
    inst = planted_instance(*cell, seed)
    return [_standard_row(prefix, inst.dataset, _trial_config(spec, cell, seed), inst.truth)]


def _loss_vs_rank_trial(spec: ExperimentSpec, prefix: list, cell: tuple, seed: int) -> list[list]:
    d, k, ell, T, sigma, theta_max = cell
    true_k = spec.true_k if spec.true_k is not None else min(spec.k)
    inst = planted_instance(d, true_k, ell, T, sigma, theta_max, seed)
    permuted = permute_times(inst.dataset, seed ^ _PERM_SALT)
    config = _trial_config(spec, cell, seed)
    truth = inst.truth if k == true_k else None
    return [
        _standard_row(prefix, inst.dataset, config, truth),
        _standard_row([prefix[0] + ":permuted", *prefix[1:]], permuted, config, truth),
    ]


def _landscape_trial(spec: ExperimentSpec, prefix: list, cell: tuple, seed: int) -> list[list]:
    inst = planted_instance(*cell, seed)
    surface, iterates = landscape_rows(
        inst.dataset, spec.omega_steps, spec.theta_steps, spec.estimator.get("time_center"),
        _trial_config(spec, cell, seed),
    )
    return [prefix + ["surface"] + row for row in surface] + [prefix + ["iterate"] + row for row in iterates]


def _piecewise_trial(spec: ExperimentSpec, prefix: list, cell: tuple, seed: int) -> list[list]:
    data, _, knots, _ = planted_piecewise_instance(*cell, seed)
    stages, _ = piecewise_rows(data, knots, spec.lambdas, _trial_config(spec, cell, seed))
    return [prefix + row for row in stages]


# Header and rows-of-one-trial function of each experiment; the rest use the planted rows.
_TABLES = {
    "LossVsRank": (STANDARD_HEADER, _loss_vs_rank_trial),
    "Landscape2D": (LANDSCAPE_HEADER, _landscape_trial),
    "PiecewiseDemo": (PIECEWISE_HEADER, _piecewise_trial),
}


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def format_csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def run_experiment(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    """Execute the trial grid and return (header, rows); writes CSV when
    spec.out is set.  Identical specs produce identical tables apart from
    the wall-clock column."""
    header, trial_rows = _TABLES.get(spec.experiment, (STANDARD_HEADER, _planted_trial))
    rows = [row for prefix, cell, seed in _trials(spec) for row in trial_rows(spec, prefix, cell, seed)]
    if spec.out is not None:
        from .serialization import write_text

        write_text(spec.out, format_csv(header, rows))
    return header, rows
