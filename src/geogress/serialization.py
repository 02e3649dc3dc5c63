"""Plain-text file formats for models and datasets.

Both formats are UTF-8 text with numbers written as 17-significant-digit
scientific notation, which round-trips IEEE doubles exactly.

Model file:
    geogress-model v1 d=<d> k=<k>
    <d rows of k values>        (H)
    <blank line>
    <d rows of k values>        (Y)
    <blank line>
    <k values>                  (theta)

Dataset file:
    geogress-dataset v1 d=<d> T=<T>
    t=<value>
    <ell_t lines of d values, one column vector per line>
    ... repeated per sample
"""

from __future__ import annotations

import re

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatch, GeogressError, IoFailure, MalformedFile
from .geodesic import GeodesicModel

_MODEL_HEADER = re.compile(r"^geogress-model v1 d=(\d+) k=(\d+)$")
_DATASET_HEADER = re.compile(r"^geogress-dataset v1 d=(\d+) T=(\d+)$")


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def _fmt_row(row) -> str:
    return " ".join(_fmt(v) for v in row)


def _parse_row(line: str, what: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in line.split()])
    except ValueError as exc:
        raise MalformedFile(f"unparseable {what} line: {line!r}") from exc


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write UTF-8 text with LF newlines; OS errors surface as IoFailure."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def save_model(model: GeodesicModel, path) -> None:
    lines = [f"geogress-model v1 d={model.d} k={model.k}"]
    lines.extend(_fmt_row(row) for row in model.H)
    lines.append("")
    lines.extend(_fmt_row(row) for row in model.Y)
    lines.append("")
    lines.append(_fmt_row(model.theta))
    write_text(path, "\n".join(lines) + "\n")


def load_model(path) -> GeodesicModel:
    """Parse a model file; validation of the loaded triple is reused from
    GeodesicModel, so orthonormality/tangency violations raise as usual and
    a non-finite theta raises MalformedFile."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise MalformedFile(f"{path}: empty file")
    header = _MODEL_HEADER.match(lines[0].strip())
    if header is None:
        raise MalformedFile(f"{path}: bad model header: {lines[0]!r}")
    d, k = int(header.group(1)), int(header.group(2))
    expected = 1 + d + 1 + d + 1 + 1
    if len(lines) < expected:
        raise MalformedFile(f"{path}: truncated model file ({len(lines)} lines, expected {expected})")
    if lines[1 + d].strip() != "" or lines[2 + 2 * d].strip() != "":
        raise MalformedFile(f"{path}: missing blank separators between blocks")

    def block(start: int) -> np.ndarray:
        rows = [_parse_row(lines[start + i], "matrix") for i in range(d)]
        if any(r.size != k for r in rows):
            raise MalformedFile(f"{path}: matrix row width differs from k={k}")
        return np.vstack(rows)

    H = block(1)
    Y = block(2 + d)
    theta = _parse_row(lines[3 + 2 * d], "theta")
    if theta.size != k:
        raise MalformedFile(f"{path}: theta has {theta.size} entries, expected {k}")
    try:
        return GeodesicModel(H, Y, theta)
    except ValueError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc


def save_dataset(dataset: Dataset, path) -> None:
    lines = [f"geogress-dataset v1 d={dataset.d} T={dataset.n_samples}"]
    for t, x in zip(dataset.times, dataset.matrices):
        lines.append(f"t={_fmt(t)}")
        lines.extend(_fmt_row(x[:, j]) for j in range(x.shape[1]))
    write_text(path, "\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip() != ""]
    if not lines:
        raise MalformedFile(f"{path}: empty file")
    header = _DATASET_HEADER.match(lines[0].strip())
    if header is None:
        raise MalformedFile(f"{path}: bad dataset header: {lines[0]!r}")
    d, T = int(header.group(1)), int(header.group(2))
    times: list[float] = []
    matrices: list[np.ndarray] = []
    columns: list[np.ndarray] = []

    def close_sample() -> None:
        if not times:
            return
        if not columns:
            raise MalformedFile(f"{path}: sample at t={times[-1]} has no vectors")
        matrices.append(np.column_stack(columns))
        columns.clear()

    for line in lines[1:]:
        stripped = line.strip()
        if stripped.startswith("t="):
            close_sample()
            try:
                t = float(stripped[2:])
            except ValueError as exc:
                raise MalformedFile(f"{path}: unparseable time line: {line!r}") from exc
            if not 0.0 <= t <= 1.0:
                raise MalformedFile(f"{path}: time {t} outside [0, 1]")
            times.append(t)
        else:
            if not times:
                raise MalformedFile(f"{path}: data line before any t= line")
            vec = _parse_row(stripped, "vector")
            if vec.size != d:
                raise DimensionMismatch(f"{path}: vector has {vec.size} entries, expected d={d}")
            columns.append(vec)
    close_sample()
    if len(times) != T:
        raise MalformedFile(f"{path}: header says T={T} but found {len(times)} samples")
    try:
        return Dataset(np.asarray(times), tuple(matrices))
    except GeogressError:
        raise
    except ValueError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
