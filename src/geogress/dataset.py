"""Observed data: time-stamped batches of vectors sharing one ambient dimension."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class Dataset:
    """Ordered samples (t_i, X_i) with X_i of shape d x ell_i.

    Times are nominally in [0, 1] (enforced where data enters from files or
    generators); operations that recenter the time axis may shift them.
    Instances are immutable after construction.
    """

    times: np.ndarray
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        if times.ndim != 1 or times.size < 1:
            raise DimensionMismatch("times must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        mats = tuple(np.asarray(m, dtype=float) for m in self.matrices)
        if len(mats) != times.size:
            raise DimensionMismatch(f"{times.size} times but {len(mats)} sample matrices")
        for m in mats:
            if m.ndim != 2 or m.shape[1] < 1:
                raise DimensionMismatch("each sample must be a d x ell matrix with ell >= 1")
        d = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape[0] != d:
                raise DimensionMismatch(f"sample {i} has ambient dimension {m.shape[0]}, expected {d}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"sample {i} has non-finite entries")
        times = times.copy()
        times.flags.writeable = False
        frozen = []
        for m in mats:
            m = m.copy()
            m.flags.writeable = False
            frozen.append(m)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", tuple(frozen))

    @property
    def d(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def total_columns(self) -> int:
        return sum(m.shape[1] for m in self.matrices)

    def with_times(self, times: np.ndarray) -> Dataset:
        """Same sample matrices under a new time axis."""
        return Dataset(times, self.matrices)

    def column_stack(self) -> np.ndarray:
        """All samples concatenated column-wise, shape d x total_columns."""
        return np.concatenate(self.matrices, axis=1)
