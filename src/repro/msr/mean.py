"""Combiner (``mean``) stage of MSR algorithms.

The MSR template always *averages* the selected subsequence; this module
keeps the stage explicit and swappable so ablations can compare the
arithmetic mean against alternatives (e.g. the exact median), and so the
algorithm description strings stay faithful to the construction.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

from .multiset import ValueMultiset

try:  # numpy is optional: only the batch hooks, handed arrays, use it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = ["Combiner", "ArithmeticMean", "MedianCombiner"]


class Combiner(ABC):
    """Base class for the final stage mapping a multiset to one value."""

    @abstractmethod
    def __call__(self, multiset: ValueMultiset) -> float:
        """Combine the selected values into the next voted value."""

    @abstractmethod
    def describe(self) -> str:
        """A short human-readable description used in tables and repr."""

    def flat_combine(self, selected: Sequence[float]) -> float:
        """Combine a sorted, non-empty flat sequence of selected values.

        The flat counterpart of :meth:`__call__` for the round kernel's
        hot path; must be bit-identical to wrapping ``selected`` in a
        :class:`ValueMultiset` and calling the combiner.  Combiners
        without a flat form do not override this; the kernel detects
        the absence and falls back wholesale.
        """
        raise NotImplementedError

    def flat_combine_batch(self, selected):
        """Combine a batch of selected rows into one value per row.

        The batched counterpart of :meth:`flat_combine`: ``selected``
        is a 2D array of equal-width sorted selections (one row per
        distinct inbox), and the result is a new 1D float64 array, each
        entry bit-identical to :meth:`flat_combine` on that row.
        Callers read the result through ``numpy.asarray``, so an
        override may return a list of floats instead.  One- and
        two-column batches combine with exactly-rounded array
        arithmetic; wider batches fall back to ``math.fsum`` per row,
        which is still one call per *distinct inbox*, not per process.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class ArithmeticMean(Combiner):
    """The standard MSR combiner: the arithmetic mean."""

    def __call__(self, multiset: ValueMultiset) -> float:
        return multiset.mean()

    def flat_combine(self, selected: Sequence[float]) -> float:
        # math.fsum is exactly rounded, so this matches
        # ValueMultiset.mean() bit for bit regardless of container.
        return math.fsum(selected) / len(selected)

    def flat_combine_batch(self, selected):
        width = selected.shape[1]
        if width > 2:
            return _np.array(
                [math.fsum(row) / width for row in selected.tolist()],
                dtype=_np.float64,
            )
        # A single value and (a + b) / 2 are correctly rounded, hence
        # equal to fsum(row) / width -- up to the sign of a zero: fsum
        # sums onto +0.0, so a row of -0.0 values means +0.0 there.
        # Zero results take fsum.
        if width == 1:
            means = selected[:, 0].copy()
        else:
            means = (selected[:, 0] + selected[:, 1]) / 2.0
        if not means.all():
            for i in _np.flatnonzero(means == 0.0).tolist():
                means[i] = math.fsum(selected[i].tolist()) / width
        return means

    def describe(self) -> str:
        return "arithmetic mean"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArithmeticMean)

    def __hash__(self) -> int:
        return hash("ArithmeticMean")


class MedianCombiner(Combiner):
    """Median combiner, used by ablation baselines outside the MSR class.

    Note the median of the selected subsequence equals the arithmetic
    mean when the selection returns one or two values, so MSR instances
    built on :class:`~repro.msr.select.SelectMedian` or
    :class:`~repro.msr.select.SelectExtremes` are unaffected by this
    choice; it only matters for larger selections.
    """

    def __call__(self, multiset: ValueMultiset) -> float:
        return multiset.median()

    def flat_combine(self, selected: Sequence[float]) -> float:
        mid = len(selected) // 2
        if len(selected) % 2 == 1:
            return selected[mid]
        return (selected[mid - 1] + selected[mid]) / 2.0

    def flat_combine_batch(self, selected):
        mid = selected.shape[1] // 2
        if selected.shape[1] % 2 == 1:
            return selected[:, mid].copy()
        return (selected[:, mid - 1] + selected[:, mid]) / 2.0

    def describe(self) -> str:
        return "median"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MedianCombiner)

    def __hash__(self) -> int:
        return hash("MedianCombiner")
