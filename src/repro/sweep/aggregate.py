"""Sweep aggregation into the harness's tables and series types.

A :class:`SweepResult` is the ordered collection of per-cell outcomes;
its methods reduce the grid back into the shapes the rest of the
harness speaks: :func:`repro.analysis.render_table` tables (per-cell
and grouped summaries) and :class:`repro.analysis.Series` diameter
trajectories (the "figures" of the terminal harness).

:class:`SweepAccumulator` is the *incremental* builder behind streaming
execution: cells are added one by one as batches, cache hits or journal
replays complete, and :meth:`SweepAccumulator.snapshot` yields at any
moment the exact :class:`SweepResult` a batch merge of the same cells
would have produced -- bit-identical, because the cell tuple is
maintained in key order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..analysis import Series, render_table, summarize
from ..runtime.families import DEFAULT_FAMILY

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from .cache import CacheStats
    from .engine import CellResult

__all__ = ["SweepAccumulator", "SweepResult"]


@dataclass(frozen=True)
class SweepResult:
    """Every cell outcome of one sweep, sorted by cell key.

    ``dispatch`` records how the cells were actually executed --
    ``"serial"`` for per-cell in-process runs, or a ``"cross-run..."``
    batch label whose form shows whether the groups ran in-process or
    on which pool rung (a pooled backend that decided a pool could not
    win, e.g. on one usable CPU, runs its groups in-process).  It is
    excluded from equality: the decision is a property of the
    executing machine, not of the result, and warm-cache reruns must
    compare equal to the cold runs that produced them.  ``workers`` and
    ``cache_stats`` are excluded for the same reason: the parallelism
    that ran the sweep, and the executing invocation's
    :class:`~repro.sweep.cache.CacheStats` traffic counters (``None``
    when no cell cache was attached).
    """

    cells: tuple["CellResult", ...]
    trace_detail: str = "lite"
    workers: int = field(default=1, compare=False)
    dispatch: str = field(default="serial", compare=False)
    cache_stats: "CacheStats | None" = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator["CellResult"]:
        return iter(self.cells)

    # -- lookups ----------------------------------------------------------------

    def by_key(self) -> dict[tuple, "CellResult"]:
        """Index the results by cell key (the join key across sweeps)."""
        return {cell.key: cell for cell in self.cells}

    def errors(self) -> tuple["CellResult", ...]:
        """Cells that could not run (e.g. below the resilience bound)."""
        return tuple(cell for cell in self.cells if cell.error is not None)

    def satisfied_count(self) -> int:
        """Number of cells whose run met the headline specification."""
        return sum(1 for cell in self.cells if cell.satisfied)

    @property
    def all_satisfied(self) -> bool:
        """Whether every cell ran and met the headline specification."""
        return bool(self.cells) and self.satisfied_count() == len(self.cells)

    # -- tables -----------------------------------------------------------------

    def cell_table(self, title: str | None = None) -> str:
        """Per-cell table: one row per grid point."""
        rows = []
        for cell in self.cells:
            if cell.error is not None:
                rows.append(
                    [cell.spec.describe(), "-", "-", "-", f"error: {cell.error[:60]}"]
                )
                continue
            rows.append(
                [
                    cell.spec.describe(),
                    cell.rounds,
                    cell.decision_diameter,
                    cell.terminated,
                    "ok" if cell.satisfied else "VIOLATED",
                ]
            )
        return render_table(
            ["cell", "rounds", "decision diam", "terminated", "spec"],
            rows,
            title=title or f"Sweep cells ({self.trace_detail} traces)",
        )

    @staticmethod
    def _algorithm_label(spec) -> str:
        """The summary grouping label: MSR function, tagged by family.

        The default family stays untagged so single-family sweeps (and
        the golden reports built from them) render exactly as before;
        multi-family sweeps get one row/series per family instead of
        silently averaging the comparison away.
        """
        if spec.family == DEFAULT_FAMILY:
            return spec.algorithm
        return f"{spec.family}:{spec.algorithm}"

    def summary_rows(self) -> list[list[object]]:
        """One row per (model, family-tagged algorithm) group.

        Error cells count toward their group's ``cells`` and
        ``spec ok`` columns -- a failing cell must not vanish from the
        summary -- but are excluded from the round and diameter
        statistics: their zeroed payload fields are placeholders, not
        observations, and folding them in would silently skew group
        means.  A group whose every cell errored renders ``-`` for
        both statistics.
        """
        groups: dict[tuple[str, str], list["CellResult"]] = {}
        for cell in self.cells:
            groups.setdefault(
                (cell.spec.model, self._algorithm_label(cell.spec)), []
            ).append(cell)
        rows: list[list[object]] = []
        for (model, algorithm), members in sorted(groups.items()):
            ran = [cell for cell in members if cell.error is None]
            ok = sum(1 for cell in ran if cell.satisfied)
            if ran:
                rounds = summarize(float(cell.rounds) for cell in ran)
                diameters = summarize(cell.decision_diameter for cell in ran)
                rendered_rounds: object = rounds.render()
                mean_diameter: object = diameters.mean
            else:
                rendered_rounds = "-"
                mean_diameter = "-"
            rows.append(
                [
                    model,
                    algorithm,
                    len(members),
                    f"{ok}/{len(members)}",
                    rendered_rounds,
                    mean_diameter,
                ]
            )
        return rows

    def summary_table(self, title: str | None = None) -> str:
        """Grouped summary table; the headline output of a sweep."""
        suffix = ""
        if self.errors():
            suffix = f" ({len(self.errors())} cells failed to run)"
        return render_table(
            [
                "model",
                "alg",
                "cells",
                "spec ok",
                "rounds min/med/p95/max",
                "mean decision diam",
            ],
            self.summary_rows(),
            title=(title or f"Sweep summary over {len(self.cells)} cells") + suffix,
        )

    # -- series -----------------------------------------------------------------

    def diameter_series(self) -> list[Series]:
        """Mean non-faulty diameter trajectory per (model, family-tagged
        algorithm) group.

        Trajectories of different lengths are averaged over the cells
        still running at each round, mirroring how the convergence
        experiments aggregate over seeds.
        """
        groups: dict[tuple[str, str], list[tuple[float, ...]]] = {}
        for cell in self.cells:
            if cell.error is None and cell.diameters:
                groups.setdefault(
                    (cell.spec.model, self._algorithm_label(cell.spec)), []
                ).append(cell.diameters)
        series = []
        for (model, algorithm), trajectories in sorted(groups.items()):
            length = max(len(t) for t in trajectories)
            means = []
            for index in range(length):
                points = [t[index] for t in trajectories if index < len(t)]
                means.append(math.fsum(points) / len(points))
            series.append(Series.of(f"{model}/{algorithm}", means))
        return series


class SweepAccumulator:
    """Incremental :class:`SweepResult` builder for streaming execution.

    Feed it cells in *any* order -- as pool batches land, cache hits
    arrive or a resume journal replays -- and read aggregates at any
    moment: :meth:`snapshot` materializes the exact result a batch run
    over the same cells would return, and :meth:`live_summary_rows` is
    its summary.  Bit-identity with the batch path holds because the
    cell tuple is maintained in key order (the order
    :func:`~repro.sweep.engine.run_sweep` sorts into); the streaming
    equivalence suite gates this.

    ``expected`` (when known) sizes progress reporting; duplicate cell
    keys are rejected, mirroring :func:`~repro.sweep.engine.run_sweep`'s
    duplicate-grid-cell validation.
    """

    def __init__(
        self,
        trace_detail: str = "lite",
        workers: int = 1,
        dispatch: str = "serial",
        expected: int | None = None,
    ) -> None:
        self.trace_detail = trace_detail
        self.workers = workers
        self.dispatch = dispatch
        self.expected = expected
        self._cells: list["CellResult"] = []
        self._keys: list[tuple] = []
        self._errors = 0
        self._satisfied = 0

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def errors(self) -> int:
        """Cells added so far that could not run."""
        return self._errors

    @property
    def satisfied(self) -> int:
        """Cells added so far that met the headline specification."""
        return self._satisfied

    def add(self, cell: "CellResult") -> int:
        """Fold one finished cell in; returns the running cell count."""
        index = bisect_left(self._keys, cell.key)
        if index < len(self._keys) and self._keys[index] == cell.key:
            raise ValueError(
                f"duplicate cell added to accumulator: {cell.spec.describe()}"
            )
        self._keys.insert(index, cell.key)
        self._cells.insert(index, cell)
        if cell.error is not None:
            self._errors += 1
        elif cell.satisfied:
            self._satisfied += 1
        return len(self._cells)

    def add_many(self, cells) -> int:
        """Fold a batch of finished cells in; returns the cell count."""
        for cell in cells:
            self.add(cell)
        return len(self._cells)

    def live_summary_rows(self) -> list[list[object]]:
        """Current grouped summary: the snapshot's
        :meth:`SweepResult.summary_rows`."""
        return self.snapshot().summary_rows()

    def snapshot(self) -> SweepResult:
        """The :class:`SweepResult` of everything folded in so far."""
        return SweepResult(
            cells=tuple(self._cells),
            trace_detail=self.trace_detail,
            workers=self.workers,
            dispatch=self.dispatch,
        )

    def result(self) -> SweepResult:
        """Finish the stream; raises if expected cells are missing."""
        if self.expected is not None and len(self._cells) != self.expected:
            raise ValueError(
                f"accumulator holds {len(self._cells)} cells but expected "
                f"{self.expected}"
            )
        return self.snapshot()
