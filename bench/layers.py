"""Per-layer metrics: which geogress names get spans, what their hooks count,
and the probes of the public block functions.

Span names are `<module>.<function>` after the module under src/geogress that
defines the function (the layer); a layer metric is `<span>.<stat>`.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np

from geogress import (
    baselines, cli, dataset, estimator, experiments, geodesic, landscape, metrics,
    piecewise, serialization, synth,
)
from geogress.errors import RankCollapseWarning
from tracing import Patch, Tracer

ROOT_SPAN = "bench.pass"


def _count_fit(counters, args, report):
    counters["estimator.fit.outer_iters"] += report.outer_iters_run
    counters["estimator.fit.accepted"] += len(report.loss_per_outer_iter) - 1
    counters["estimator.fit.converged"] += bool(report.converged)


def _count_sweeps(counters, args, report):
    counters["piecewise.fit_piecewise.sweeps"] += report.sweeps_run


def _file_bytes(span: str, path_arg: int):
    def hook(counters, args, result):
        counters[f"{span}.bytes"] += os.path.getsize(args[path_arg])

    return hook


def _text_bytes(counters, args, result):
    counters["serialization.write_text.bytes"] += len(args[1].encode("utf-8"))


# (module, function name, hook counting what the call did)
SPAN_TARGETS = [
    (estimator, "fit", _count_fit),
    (estimator, "loss", None),
    (estimator, "basis_update", None),
    (estimator, "angle_constants", None),
    (estimator, "angle_mm_step", None),
    (estimator, "init_endpoints", None),
    (geodesic, "connect", None),
    (synth, "planted_instance", None),
    (baselines, "batch_svd_subspace", None),
    (metrics, "geodesic_error", None),
    (experiments, "run_experiment", None),
    (piecewise, "fit_piecewise", _count_sweeps),
    (piecewise, "penalized_objective", None),
    (serialization, "load_dataset", _file_bytes("serialization.load_dataset", 0)),
    (serialization, "save_dataset", _file_bytes("serialization.save_dataset", 1)),
    (serialization, "save_model", _file_bytes("serialization.save_model", 1)),
    (serialization, "write_text", _text_bytes),
    (landscape, "loss_surface_2d", None),
    (landscape, "record_iterates", None),
    (cli, "main", None),
]


def span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def install(tracer: Tracer) -> Patch:
    """Put a span around every target, wherever a geogress module binds it."""
    patch = Patch()
    for module, attr, hook in SPAN_TARGETS:
        current = getattr(module, attr)
        patch.replace(current, tracer.wrap(span_name(module, attr), current, hook))
    # Dataset is a class that modules also use for isinstance checks, so the
    # constructor's validation step is wrapped instead of the name.
    post_init = vars(dataset.Dataset)["__post_init__"]
    patch.replace_method(dataset.Dataset, "__post_init__", tracer.wrap("dataset.Dataset", post_init))
    return patch


def traced_pass(tracer: Tracer, run_pass):
    """Run one pass under spans, counting RankCollapseWarning emissions (recorded, not filtered)."""
    patch = install(tracer)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RankCollapseWarning)
            with tracer.root(ROOT_SPAN):
                ops = run_pass()
    finally:
        patch.uninstall()
    tracer.counters["estimator.rank_collapse_warnings"] += sum(
        issubclass(w.category, RankCollapseWarning) for w in caught
    )
    return ops


# Count-type metrics repeat exactly for the same seed; they are compared across passes.
COUNT_SUFFIXES = (".calls", ".outer_iters", ".sweeps", ".bytes", ".rank_collapse_warnings",
                  ".accepted_ratio", ".converged_ratio")


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer metrics of one traced pass."""
    summary = tracer.summary()
    counters = tracer.counters
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    names = [span_name(m, a) for m, a, _ in SPAN_TARGETS] + ["dataset.Dataset"]
    out: dict[str, float] = {}
    for name in names:
        row = summary.get(name, empty)
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_ms"] = row["self_s"] * 1e3
    for key in ("piecewise.fit_piecewise.sweeps", "serialization.load_dataset.bytes",
                "serialization.save_model.bytes", "serialization.write_text.bytes",
                "estimator.rank_collapse_warnings", "estimator.fit.outer_iters"):
        out[key] = counters.get(key, 0)
    fit = summary.get("estimator.fit", empty)
    iters = out["estimator.fit.outer_iters"]
    out["estimator.fit.outer_iters_per_s"] = iters / fit["total_s"] if fit["total_s"] else 0.0
    out["estimator.fit.accepted_ratio"] = counters["estimator.fit.accepted"] / iters if iters else 0.0
    out["estimator.fit.converged_ratio"] = counters["estimator.fit.converged"] / fit["calls"] if fit["calls"] else 0.0
    pass_s = summary[ROOT_SPAN]["total_s"]
    out["trace.run_s"] = pass_s
    out["trace.accounted_frac"] = sum(r["self_s"] for n, r in summary.items() if n != ROOT_SPAN) / pass_s
    return out


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer metrics of a traced set-up: the dataset files it writes."""
    row = tracer.summary().get("serialization.save_dataset", {"calls": 0, "self_s": 0.0})
    return {
        "serialization.save_dataset.calls": row["calls"],
        "serialization.save_dataset.self_ms": row["self_s"] * 1e3,
        "serialization.save_dataset.bytes": tracer.counters.get("serialization.save_dataset.bytes", 0),
    }


def probes(seed: int, min_reps: int = 5, min_seconds: float = 0.2) -> dict[str, float]:
    """Median wall time of each public block function called alone at the fit-wide shape.

    These are probes of the public functions (`loss`, `basis_update`, ...),
    not of the fit: on uniform-ell data `fit` runs its own fused loop and
    calls none of them, so a probe and a fit's outer iteration time
    different code.
    """
    inst = synth.planted_instance(200, 8, 4, 200, 1e-3, 1.4, seed)
    data = inst.dataset
    model = estimator.init_endpoints(data, 8)
    consts = estimator.angle_constants(data, model.H, model.Y)
    target = np.random.default_rng(seed).standard_normal((200, 16))
    cases = {
        "estimator.loss": lambda: estimator.loss(data, model),
        "estimator.basis_update": lambda: estimator.basis_update(data, model),
        "estimator.angle_constants": lambda: estimator.angle_constants(data, model.H, model.Y),
        "estimator.angle_mm_step": lambda: estimator.angle_mm_step(consts, model.theta, data.times),
        "numpy.svd_d2k": lambda: np.linalg.svd(target, full_matrices=False),
    }
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankCollapseWarning)
        for name, call in cases.items():
            call()
            times = []
            while len(times) < min_reps or sum(times) < min_seconds:
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            out[f"{name}.probe_ms"] = float(np.median(times)) * 1e3
    return out
