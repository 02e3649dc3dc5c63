"""Observed data: time-stamped batches of vectors sharing one ambient dimension."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class Dataset:
    """Ordered samples (t_i, X_i) with X_i of shape d x ell_i.

    Times are nominally in [0, 1] (enforced where data enters from files or
    generators); operations that recenter the time axis may shift them.
    Instances are immutable after construction: the samples are copied once
    into one read-only d x N column stack, and `matrices` are read-only
    column views of it.
    """

    times: np.ndarray
    matrices: tuple[np.ndarray, ...]
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = np.atleast_1d(np.asarray(self.times))
        if times.dtype.kind == "c":
            raise ValueError("times must be real, got complex values")
        times = times.astype(float)
        if times.ndim != 1 or times.size < 1:
            raise DimensionMismatch("times must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        mats = []
        for i, m in enumerate(self.matrices):
            m = np.asarray(m)
            if m.dtype.kind == "c":
                raise ValueError(f"sample {i} is complex; samples must be real")
            mats.append(m.astype(float, copy=False))
        if len(mats) != times.size:
            raise DimensionMismatch(f"{times.size} times but {len(mats)} sample matrices")
        for m in mats:
            if m.ndim != 2 or m.shape[1] < 1:
                raise DimensionMismatch("each sample must be a d x ell matrix with ell >= 1")
        d = mats[0].shape[0]
        # Samples are checked in order, each for its dimension and then its
        # entries, so only the samples before the first of a wrong
        # dimension can be stacked.
        first_bad = next((i for i, m in enumerate(mats) if m.shape[0] != d), len(mats))
        stack = np.concatenate(mats[:first_bad], axis=1)
        if not np.all(np.isfinite(stack)):
            i = next(i for i, m in enumerate(mats) if not np.all(np.isfinite(m)))
            raise ValueError(f"sample {i} has non-finite entries")
        if first_bad < len(mats):
            raise DimensionMismatch(
                f"sample {first_bad} has ambient dimension {mats[first_bad].shape[0]}, expected {d}"
            )
        times.flags.writeable = False
        stack.flags.writeable = False
        views, start = [], 0
        for m in mats:
            views.append(stack[:, start : start + m.shape[1]])
            start += m.shape[1]
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", tuple(views))
        object.__setattr__(self, "_stack", stack)

    @property
    def d(self) -> int:
        return self._stack.shape[0]

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def total_columns(self) -> int:
        return self._stack.shape[1]

    def with_times(self, times: np.ndarray) -> Dataset:
        """Same sample matrices under a new time axis."""
        return Dataset(times, self.matrices)

    def column_stack(self) -> np.ndarray:
        """All samples side by side, d x total_columns: the dataset's own read-only stack, not a copy."""
        return self._stack
