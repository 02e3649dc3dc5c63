#!/usr/bin/env python3
"""geogress benchmark: one closed-loop workload per process.

    python3 bench/run.py --workload fit-wide --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, and without `src/geogress` the benchmark exits with code 2 and
prints no result.  Inputs are generated from `--seed`.  Set-up (a fresh
interpreter importing the package, input generation, input files, one
warm-up fit) runs three times and its median is reported; the workload's
fixed work (one pass) then repeats at least three times and then while
another pass is expected to end within `--seconds`; every pass is checked
outside the timed region.  `--trace 0` prints the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer ones.  The last stdout line is the result; the
line before it is the full report, also saved under bench/out/.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 7
# At least three passes: a traced run then has two traced passes to compare
# counts between, and an untraced phase-grid run averages three grids.
MIN_PASSES = 3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fit-wide", "phase-grid", "cli-session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def llc_bytes() -> int | None:
    """Size of the largest cache level reported for cpu0, in bytes."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def machine_facts(np, input_bytes: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = llc_bytes()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "llc_bytes": llc,
        "input_bytes": input_bytes,
        # The inputs are far smaller than the last-level cache, so the
        # benchmark measures compute and interpreter overhead, not DRAM bandwidth.
        "inputs_fit_in_llc": llc is not None and input_bytes < llc,
    }


class Passes:
    """What the passes of one run measured and found."""

    def __init__(self):
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []
        self.tracers = []
        self.layer_metrics: list[dict] = []
        self.fit_ms: list[list[float]] = []  # per untraced pass
        self.loss_ratios: list[float] = []
        self.extra: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def enough(self) -> bool:
        return len(self.traced_s) + len(self.untraced_s) >= MIN_PASSES


def run_passes(workload, recorder, seconds: float, trace: bool) -> Passes:
    """Repeat the workload's pass while another one is expected to end within
    `seconds`, and at least until enough passes ran.

    In a traced run, passes alternate traced / untraced, starting traced.
    Checks and ratios are computed after each pass's clock has stopped.
    """
    import layers
    from tracing import Tracer
    from workloads import svd_loss_ratio

    out = Passes()
    began_run = time.perf_counter()
    n = 0

    def another_pass_fits() -> bool:
        now = time.perf_counter()
        return now + (now - began_run) / n <= began_run + seconds

    while not out.enough() or another_pass_fits():
        recorder.fits.clear()
        if trace and n % 2 == 0:
            tracer = Tracer()
            began = time.perf_counter()
            ops = layers.traced_pass(tracer, workload.run_pass)
            out.traced_s.append(time.perf_counter() - began)
            out.tracers.append(tracer)
            out.layer_metrics.append(layers.pass_metrics(tracer))
        else:
            began = time.perf_counter()
            # A traced run repeats block 0, so traced and untraced passes do the same work.
            ops = workload.run_pass(0 if trace else n)
            out.untraced_s.append(time.perf_counter() - began)
            out.fit_ms.append([report.wall_time * 1e3 for _, report in recorder.fits])
        checked = workload.check(ops)
        out.attempted += checked.attempted
        out.failed += checked.failed
        out.problems.extend(checked.problems)
        if n == 0:
            out.loss_ratios = [r for r in (svd_loss_ratio(d, rep) for d, rep in recorder.fits) if math.isfinite(r)]
            out.extra = workload.extra(ops)
        n += 1
    return out


def pass_quantile(fit_ms: list[float], q: float) -> float:
    """The q-quantile of one pass's fit times (0 for a pass without fits: every operation failed)."""
    if len(fit_ms) < 2:
        return fit_ms[0] if fit_ms else 0.0
    return statistics.quantiles(fit_ms, n=100, method="inclusive")[round(q * 100) - 1]


def layer_figures(passes: Passes, setup_tracer, seed: int) -> dict:
    """Per-layer figures: counts from the first traced pass (they must repeat
    exactly in every traced pass), times as medians over traced passes."""
    import layers

    first, rest = passes.layer_metrics[0], passes.layer_metrics[1:]
    figures = {}
    for name in first:
        if name.endswith(layers.COUNT_SUFFIXES):
            if any(m[name] != first[name] for m in rest):
                passes.problems.append(f"count metric {name} differs between passes of one seed")
                passes.failed += 1
            figures[name] = first[name]
        else:
            figures[name] = statistics.median(m[name] for m in passes.layer_metrics)
    figures.update(layers.setup_metrics(setup_tracer))
    figures["trace.overhead_frac"] = statistics.fmean(passes.traced_s) / statistics.fmean(passes.untraced_s) - 1
    figures.update(layers.probes(seed))
    return figures


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "geogress" / "__init__.py").is_file():
        print(f"error: no geogress sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One BLAS thread unless the caller chose otherwise: at these sizes a
    # second thread gave no speed-up on 2 cores, only large outliers.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    import numpy as np

    import geogress
    from geogress import estimator
    from geogress.errors import RankCollapseWarning

    if Path(geogress.__file__).resolve().parent != (src / "geogress").resolve():
        print(f"error: imported geogress from {geogress.__file__}, not {src}", file=sys.stderr)
        return 2
    import layers
    from tracing import Patch, Tracer
    from workloads import WORKLOADS, FitRecorder

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    warnings.simplefilter("ignore", RankCollapseWarning)
    recorder = FitRecorder()
    recording = Patch()
    recording.replace(estimator.fit, recorder.wrap(estimator.fit))
    workload = WORKLOADS[args.workload](recorder)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"

    # Each set-up starts with a fresh interpreter importing the package, so
    # every repeat pays the import cost a user pays.
    import_probe = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); import geogress"]
    setups = []
    setup_tracer = Tracer()
    for repeat in range(SETUP_REPEATS):
        # The last set-up of a traced run is traced: only set-up writes datasets.
        patch = layers.install(setup_tracer) if args.trace and repeat == SETUP_REPEATS - 1 else Patch()
        began = time.perf_counter()
        try:
            subprocess.run(import_probe, check=True)
            workload.setup(args.seed, workdir)
        finally:
            patch.uninstall()
        setups.append(time.perf_counter() - began)

    passes = run_passes(workload, recorder, args.seconds, bool(args.trace))
    recording.uninstall()
    input_bytes = workload.input_bytes()
    shutil.rmtree(workdir, ignore_errors=True)

    figures = {
        "setup_s": statistics.median(setups),
        # Means over the run's passes: the host's load comes and goes over
        # seconds to minutes, and a mean over the whole run follows it less
        # than a median over passes or fits does.
        "run_s": statistics.fmean(passes.untraced_s),
        "fit_ms_p50": statistics.fmean(pass_quantile(fits, 0.5) for fits in passes.fit_ms),
        "fit_ms_p90": statistics.fmean(pass_quantile(fits, 0.9) for fits in passes.fit_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": passes.failed / passes.attempted,
        "estimator.fit.final_loss_ratio": statistics.median(passes.loss_ratios) if passes.loss_ratios else 0.0,
        **passes.extra,
    }
    if args.trace:
        figures.update(layer_figures(passes, setup_tracer, args.seed))
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for i, tracer in enumerate(passes.tracers):
                for span in tracer.records(start):
                    fh.write(json.dumps({"pass": i, **span}) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[section] if m["name"] not in figures]
    if missing:
        print(f"error: benchmark computed no value for {missing}", file=sys.stderr)
        return 3
    for problem in passes.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "passes_untraced": len(passes.untraced_s), "passes_traced": len(passes.traced_s),
        "fit_samples": sum(map(len, passes.fit_ms)), "loss_ratio_samples": len(passes.loss_ratios),
        "attempted": passes.attempted, "failed": passes.failed,
        "setup_repeats_s": setups,
        "machine": machine_facts(np, input_bytes), "figures": figures, "problems": passes.problems[:20],
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in spec[section]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
