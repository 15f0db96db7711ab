"""Pluggable sweep execution backends.

Execution strategies sit behind one small interface so the engine does
not care *how* cells run.  A backend has one execution method,
:meth:`SweepBackend.execute_many`: it packages the uncached cells into
groups and runs each group through one call of
:func:`~repro.sweep.engine.run_cell_many`.  The engine itself sorts the
results into a :class:`~repro.sweep.aggregate.SweepResult`.

Determinism contract: backends never change *what* a cell computes --
each cell runs through the same runner callable -- only where and when.
The engine sorts results by cell key, so any backend yields the same
:class:`SweepResult` for the same grid.

Distribution across hosts needs no backend of its own: a shard is the
cell filter :func:`~repro.sweep.grid.shard_cells` in front of any
backend, and shards meet in a shared
:class:`~repro.sweep.cache.CellStore`, whose content addressing keeps
cells of different grids, trace details and probes apart.

In process, a sweep runs either cell by cell (each cell its own group,
labelled ``serial``) or as cross-run groups: cells are partitioned by
:attr:`~repro.sweep.grid.CellSpec.stack_key` -- the engine's own
stacking rule (:func:`~repro.runtime.families.stacking_key`), so a
group holds every cell the engine can fold together: one width, MSR
reduction, model and folded family, with attacks, movements, epsilons,
round budgets and declared stateful families mixed inside -- and each
group's runs advance as a single ``(R, n)`` state array, one vectorized
pass per round.  The partition is a true partition (every cell lands
in exactly one group; scenarios, widths and folded families never
mix), results are bit-identical to per-cell execution, and the
dispatch label records the batch structure, e.g. ``cross-run(4
batches, max R=16)``.

:class:`MultiprocessingBackend` (also bound as
:data:`ShmCrossRunBackend`) is the one pooled backend: whole
``stack_key`` groups run in pool workers which write their stacked
results into ``multiprocessing.shared_memory`` blocks (planned by
:class:`~repro.runtime.simulator.ShmBatchLayout`) and ship back only a
compact header plus per-run scalars -- result payloads are never
pickled.  A :class:`SharedResultArena` owns block lifecycle
(create-in-worker, attach/unlink-in-parent, crash-safe sweep of
orphaned blocks), and dispatch is *work-stealing*: each worker slot
owns a deque of batches, and an idle slot steals the largest half of
the heaviest victim's biggest pending batch (splittable by run index,
since runs within a group are independent), with batches priced by
the static cost rule :func:`estimate_cell_cost`.  Results stream back
batch by batch through :attr:`SweepBackend.on_result`, which is what
powers streaming aggregation, progress lines and resume journals.  The
fallback ladder -- shm pool, pickle pool, in-process cross-run --
keeps results bit-identical at every rung; only the dispatch label
(e.g. ``cross-run-shm(4 batches, max R=16, steals=1)``) records which
rung ran.  The workers themselves persist: forked once, one pipe each,
and reused by later pooled sweeps for as long as the code and state
they forked with still match the parent's (:class:`_ForkSnapshot`).
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
import warnings
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

try:  # shared_memory is stdlib but absent on exotic builds.
    from multiprocessing import shared_memory as _shared_memory
except Exception:  # pragma: no cover - exercised only without the module
    _shared_memory = None

from ..runtime import simulator as _simulator
from ..runtime.families import family_names, get_family
from ..runtime.simulator import ShmBatchLayout
from ..telemetry import activate, count, current_config, deactivate
from ..topology import topology_from_spec
from .cache import spec_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from .engine import CellResult
    from .grid import CellSpec

__all__ = [
    "SweepBackend",
    "SerialBackend",
    "MultiprocessingBackend",
    "ShmCrossRunBackend",
    "SharedResultArena",
    "ArenaStats",
    "DISPATCH_MODES",
    "estimate_cell_cost",
    "grid_fingerprint",
    "plan_shm_layout",
]

#: Valid ``dispatch`` values of :meth:`SweepBackend.execute_many`:
#: ``auto`` consults :meth:`MultiprocessingBackend._pool_decision`;
#: ``serial`` forces in-process execution; ``pool`` forces worker
#: processes even where a pool cannot win (1 usable CPU), with a
#: warning -- the knob that makes pool code paths testable on
#: single-CPU CI boxes.
DISPATCH_MODES = ("auto", "serial", "pool")

#: Group runner: a cell group in, results (in group order) out --
#: :func:`~repro.sweep.engine.run_cell_many`.
ManyRunner = Callable[[list["CellSpec"]], list["CellResult"]]

def _batch_groups(cells: Sequence["CellSpec"]) -> list[list["CellSpec"]]:
    """Partition cells into cross-run groups by ``stack_key``.

    Order-preserving on both levels: groups appear in first-cell order
    and cells keep their relative order within a group, so execution
    order (and therefore progress reporting) stays deterministic.
    """
    groups: dict[tuple, list["CellSpec"]] = {}
    for cell in cells:
        groups.setdefault(cell.stack_key, []).append(cell)
    return list(groups.values())


def _cross_run_label(groups: Sequence[Sequence["CellSpec"]], suffix: str = "") -> str:
    """Dispatch label recording the cross-run batch structure."""
    max_r = max((len(group) for group in groups), default=0)
    return f"cross-run({len(groups)} batches, max R={max_r}{suffix})"


def grid_fingerprint(cells: Sequence["CellSpec"]) -> str:
    """A stable content hash of a whole grid (order-independent).

    Pinned in a :class:`~repro.sweep.service.SweepJournal` manifest so
    a journal is never replayed into a sweep of a different grid.
    """
    import hashlib

    canonical = json.dumps(
        sorted(
            json.dumps(spec_to_dict(cell), sort_keys=True, separators=(",", ":"))
            for cell in cells
        ),
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    The ``REPRO_CPUS`` environment variable pins the count for
    reproducible benchmarks and CI jobs; it is clamped to the actual
    affinity (claiming CPUs the scheduler will not grant would only
    distort pool decisions), and nonsensical values -- non-integers,
    anything below 1 -- warn and are ignored.
    """
    affinity = None
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            affinity = len(getter(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            affinity = None
    if affinity is None:
        affinity = os.cpu_count() or 1
    override = os.environ.get("REPRO_CPUS")
    if override:
        try:
            pinned = int(override)
        except ValueError:
            warnings.warn(
                f"ignoring REPRO_CPUS={override!r}: not an integer",
                RuntimeWarning,
                stacklevel=2,
            )
            return affinity
        if pinned < 1:
            warnings.warn(
                f"ignoring REPRO_CPUS={override!r}: must be at least 1",
                RuntimeWarning,
                stacklevel=2,
            )
            return affinity
        if pinned > affinity:
            warnings.warn(
                f"REPRO_CPUS={pinned} exceeds the {affinity} usable "
                f"cpu(s) of this process; clamping to {affinity}",
                RuntimeWarning,
                stacklevel=2,
            )
            return affinity
        return pinned
    return affinity


class SweepBackend:
    """Base execution strategy: in-process execution of a sweep's cells.

    ``workers`` is the parallelism the backend reports into
    ``SweepResult.workers`` (1 for in-process execution).
    :meth:`execute_many` is the one execution method: its unit of work
    is a group of cells run by one call of the group runner
    (:func:`~repro.sweep.engine.run_cell_many`).
    """

    workers: int = 1
    #: How the last :meth:`execute_many` actually dispatched its cells;
    #: copied into ``SweepResult.dispatch``.
    dispatch: str = "serial"
    #: Optional ``callable(CellResult)`` invoked in the parent process
    #: as results become available: after each group (one cell, a
    #: cross-run group or a stolen batch).  The engine reports any
    #: unreported results after execution, so callers always observe
    #: every result exactly once.
    on_result: Callable[["CellResult"], None] | None = None

    def _emit(self, results: Sequence["CellResult"]) -> None:
        """Report freshly finished results to :attr:`on_result`."""
        if self.on_result is not None:
            for result in results:
                self.on_result(result)

    def execute_many(
        self,
        cells: Sequence["CellSpec"],
        many_runner: ManyRunner,
        dispatch: str = "auto",
        cross_run: bool = True,
    ) -> list["CellResult"]:
        """Run the cells in-process, one group per ``many_runner`` call.

        With ``cross_run`` each ``stack_key`` group advances through
        the stacked ``(R, n)`` engine and the label records the batch
        structure; without it each cell is its own group, run and
        reported one by one, and the label is ``serial``.  Results are
        bit-identical either way.  ``dispatch`` (one of
        :data:`DISPATCH_MODES`) steers pooled backends; in-process
        execution has no pool to decide on.
        """
        if cross_run:
            groups = _batch_groups(cells)
            self.dispatch = _cross_run_label(groups)
        else:
            groups = [[cell] for cell in cells]
            self.dispatch = "serial"
        results: list["CellResult"] = []
        for group in groups:
            group_results = many_runner(group)
            results.extend(group_results)
            self._emit(group_results)
        return results


class SerialBackend(SweepBackend):
    """In-process execution (:meth:`SweepBackend.execute_many`)."""


#: Cost-rule round count for oracle-terminated cells (``rounds=None``):
#: convergence typically lands within a few tens of rounds, so a fixed
#: nominal keeps the *relative* ordering of cells meaningful without
#: simulating anything.
_NOMINAL_ROUNDS = 40

#: Per-family multipliers over the baseline ``n^2 * rounds`` proxy.
#: The bonomi family rides the vectorized fast path; tseng's stateful
#: two-phase protocol runs every round through the scalar engine; the
#: witness family adds relay collection and per-pid witness folds on
#: top of that.  The ratios are hand-set orderings, not measurements --
#: only the ordering matters.
_FAMILY_COST_FACTORS: dict[str, float] = {
    "bonomi": 1.0,
    "tseng": 2.5,
    "witness": 6.0,
}

#: Partial-topology multiplier: non-complete graphs leave the
#: vectorized broadcast path, routing every round through per-edge
#: scalar delivery (and witness relays where applicable).
_PARTIAL_TOPOLOGY_FACTOR = 1.5


def _complete_at(spec: str, n: int | None) -> bool:
    """Whether topology ``spec`` resolves to the complete graph at ``n``.

    A partial spec can (``ring:3`` at ``n=5``): such cells stack and
    run as complete-graph cells, so they price as ones.  An unknown
    size or a malformed spec is taken at its word.
    """
    if spec == "complete":
        return True
    if n is None:
        return False
    try:
        return topology_from_spec(spec, n).is_complete
    except ValueError:
        return False


def _cell_cost(cell: "CellSpec", rounds: int) -> float:
    """The cost rule: ``n^2 * rounds``, times the partial-topology and
    folded-family factors.

    A cell is priced at its :attr:`~repro.sweep.grid.CellSpec.folded_family`:
    a tseng or witness cell the engine stacks as a bonomi row runs --
    and costs -- what a bonomi cell does.  An unresolvable ``n``
    (unknown model) prices as a small cell.
    """
    n = cell.resolved_n
    n = 16 if n is None else max(n, 1)
    cost = float(n) ** 2 * float(max(rounds, 1))
    if not _complete_at(cell.topology, cell.resolved_n):
        cost *= _PARTIAL_TOPOLOGY_FACTOR
    return cost * _FAMILY_COST_FACTORS.get(cell.folded_family, 1.0)


def estimate_cell_cost(cell: "CellSpec") -> float:
    """Relative execution-cost proxy of one cell.

    Messaging and MSR fold work scale roughly with ``n^2 * rounds``,
    weighted by per-(folded-)family and per-topology factors (a
    witness-family cell on a ring costs several of its bonomi
    full-mesh neighbours, a witness M1 cell stacked as a bonomi row
    costs what they do); the absolute scale is irrelevant, only the
    ordering between cheap and expensive cells matters (the stealing
    dispatcher's LPT seeding and victim choice).  ``n=None`` resolves
    to the model's Table 2 minimum; unknown models fall back to a
    small constant so malformed cells (which error out instantly) are
    treated as cheap, and unknown families take no multiplier.  An
    oracle-terminated cell is priced at a nominal round count, capped
    by its budget.
    """
    if cell.rounds is not None:
        return _cell_cost(cell, cell.rounds)
    return _cell_cost(cell, min(cell.max_rounds, _NOMINAL_ROUNDS))


def _cost_bound(cell: "CellSpec") -> float:
    """:func:`estimate_cell_cost` at the cell's full round budget: an
    oracle-terminated cell may run to ``max_rounds``."""
    return _cell_cost(
        cell, cell.rounds if cell.rounds is not None else cell.max_rounds
    )


#: Shared-memory blocks above this size ride the pickle fallback: one
#: arena block holds one group's stacked payload, and a cap keeps a
#: pathological grid (huge ``n`` times huge ``max_rounds`` times many
#: seeds) from exhausting ``/dev/shm``.
_DEFAULT_MAX_BLOCK_BYTES = 64 * 1024 * 1024


def plan_shm_layout(
    cells: Sequence["CellSpec"],
) -> ShmBatchLayout | None:
    """The stacked shared-memory layout of one cross-run batch.

    ``None`` when no layout can be planned, so the batch rides the
    pickle fallback: an unknown model leaves ``n`` unresolvable (its
    config-build error surfaces per cell as usual), and scenarios other
    than ``mobile`` derive ``n`` from their own parameters (a ``stall``
    cell runs at ``n_Mi - 1 + extra``).  Batches are normally one
    ``stack_key`` group (one width, round budgets free to differ: the
    diameter rows are sized to the longest); mixed batches are sized
    to their widest member, which only wastes bytes.
    """
    if not cells:
        return None
    n = 0
    diameter_cap = 0
    for cell in cells:
        cell_n = cell.resolved_n
        if cell.scenario != "mobile" or cell_n is None:
            return None
        n = max(n, cell_n)
        rounds = cell.rounds if cell.rounds is not None else cell.max_rounds
        # The diameter trajectory is the initial value plus one entry
        # per executed round.
        diameter_cap = max(diameter_cap, rounds + 1)
    if n < 1 or diameter_cap < 1:
        return None
    return ShmBatchLayout(runs=len(cells), n=n, diameter_cap=diameter_cap)


@dataclass(frozen=True)
class _ShmRequest:
    """Parent-issued instruction: create block ``name`` with ``layout``.

    Naming in the parent (not the worker) is what makes cleanup
    crash-safe: the arena knows every block that may exist before the
    worker that creates it has even started.
    """

    name: str
    layout: ShmBatchLayout


@dataclass(frozen=True)
class _ShmRow:
    """Per-run scalars of one shared-memory result row.

    The O(header) part of a cell result: everything bulky (decisions,
    diameter series) lives in the shm block; only checker verdicts and
    a few floats ride the pickle channel.  ``inline`` carries a full
    :class:`~repro.sweep.engine.CellResult` for the rows the stacked
    engine did not write -- error cells, store hits inside the worker,
    and per-cell fallback reruns -- which stay correct at pickle cost.
    """

    decision_diameter: float = 0.0
    termination_ok: bool = False
    agreement_ok: bool = False
    validity_ok: bool = False
    p1_ok: bool | None = None
    p2_ok: bool | None = None
    extras: tuple = ()
    elapsed: float | None = None
    #: Cell-scoped telemetry counters (see ``CellResult.metrics``);
    #: rides the pickle channel like the other header scalars.
    metrics: tuple = ()
    inline: "CellResult | None" = None


@dataclass(frozen=True)
class ShmBatch:
    """A finished batch whose payload lives in a shared-memory block."""

    name: str
    layout: ShmBatchLayout
    rows: tuple[_ShmRow, ...]


@dataclass(frozen=True)
class _PickleBatch:
    """A finished batch on the pickle rung of the fallback ladder."""

    results: tuple


def _untrack_shm(shm) -> None:
    """Drop a block from this process's resource tracker.

    ``SharedMemory.__init__`` registers every block with the resource
    tracker, which would unlink it when the *worker* exits -- but
    ownership belongs to the parent arena (workers create, the parent
    attaches, restores and unlinks).  Best-effort: a build without the
    tracker just leaks a warning at exit, never data.
    """
    try:  # pragma: no cover - tracker layout is interpreter-specific
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _unlink_block(name: str) -> bool:
    """Unlink the named block if it still exists; ``True`` if it did."""
    if _shared_memory is None:
        return False
    try:
        shm = _shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    except ValueError:
        # A worker terminated between creating the block and sizing it
        # leaves an empty block that cannot be mapped; unlink it by path.
        try:
            (Path("/dev/shm") / name.lstrip("/")).unlink()
        except OSError:
            return False
        return True
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - unlink race
        return False
    return True


def _sweep_orphans(outstanding: set[str], prefix: str) -> int:
    """Unlink every known or prefix-matching leftover block.

    Module level (not a method) so :func:`weakref.finalize` can run it
    after the arena is garbage collected: the set and prefix are the
    only state it needs.  The prefix scan of ``/dev/shm`` catches
    blocks a killed worker created after the parent recorded the name
    but died before returning -- and costs one readdir.
    """
    swept = 0
    for name in sorted(outstanding):
        if _unlink_block(name):
            swept += 1
    outstanding.clear()
    root = Path("/dev/shm")
    if root.is_dir():
        try:
            leftovers = [p.name for p in root.iterdir()]
        except OSError:  # pragma: no cover - racing teardown
            leftovers = []
        for name in leftovers:
            if name.startswith(prefix) and _unlink_block(name):
                swept += 1
    return swept


@dataclass(frozen=True)
class ArenaStats:
    """Counters of one :class:`SharedResultArena` lifetime.

    ``shm_results`` / ``pickle_results`` split delivered cells by
    channel; ``shm_bytes`` is the stacked payload volume that never
    touched a pickle (the zero-copy win); ``blocks`` counts blocks the
    parent commissioned and ``unlinked`` how many it destroyed --
    equal on every clean or cleanly-recovered run.
    """

    shm_results: int = 0
    pickle_results: int = 0
    shm_bytes: int = 0
    blocks: int = 0
    unlinked: int = 0


class SharedResultArena:
    """Parent-side owner of the shared-memory result blocks.

    Lifecycle: :meth:`plan` names a block and remembers it as
    outstanding, the worker creates and fills it
    (:func:`_shm_group_task`), :meth:`restore` attaches, rebuilds the
    :class:`~repro.sweep.engine.CellResult` rows and unlinks, and
    :meth:`close` destroys whatever never came back (worker crash,
    interrupt) plus any ``/dev/shm`` leftovers matching this arena's
    unique prefix.  A :func:`weakref.finalize` guard runs the same
    sweep if the arena is dropped without ``close`` -- blocks must
    never outlive the sweep that commissioned them.

    :meth:`plan` returns ``None`` -- routing the batch to the pickle
    rung -- when ``shared_memory`` or numpy is unavailable, the layout
    is unplannable, or the block would exceed ``max_block_bytes``.
    """

    def __init__(self, max_block_bytes: int = _DEFAULT_MAX_BLOCK_BYTES) -> None:
        if max_block_bytes < 1:
            raise ValueError(
                f"max_block_bytes must be positive, got {max_block_bytes}"
            )
        self.max_block_bytes = max_block_bytes
        # psx_* names are capped (POSIX: NAME_MAX minus the leading
        # slash); 8 random hex chars keep concurrent sweeps apart.
        self.prefix = f"rpa{os.urandom(4).hex()}"
        self._seq = 0
        self._outstanding: set[str] = set()
        self._shm_results = 0
        self._pickle_results = 0
        self._shm_bytes = 0
        self._blocks = 0
        self._unlinked = 0
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _sweep_orphans, self._outstanding, self.prefix
        )

    @property
    def enabled(self) -> bool:
        """Whether this build can take the shared-memory rung at all.

        Result rows are numpy views over the block
        (:meth:`ShmBatchLayout.attach`), so without numpy every batch
        rides the pickle rung.
        """
        return _shared_memory is not None and _simulator._np is not None

    def plan(self, cells: Sequence["CellSpec"]) -> _ShmRequest | None:
        """A block request for one batch, or ``None`` for pickle."""
        if self._closed:
            raise RuntimeError("arena is closed")
        if not self.enabled:
            return None
        layout = plan_shm_layout(cells)
        if layout is None or layout.total_bytes > self.max_block_bytes:
            return None
        name = f"{self.prefix}n{self._seq}"
        self._seq += 1
        self._outstanding.add(name)
        self._blocks += 1
        return _ShmRequest(name=name, layout=layout)

    def restore(
        self, batch: "ShmBatch | _PickleBatch", cells: Sequence["CellSpec"]
    ) -> list["CellResult"]:
        """Rebuild a finished batch's results and release its block."""
        if isinstance(batch, _PickleBatch):
            self._pickle_results += len(batch.results)
            return list(batch.results)
        results = self._rebuild(batch, cells)
        if _unlink_block(batch.name):
            self._unlinked += 1
        self._outstanding.discard(batch.name)
        self._shm_bytes += batch.layout.total_bytes
        return results

    def _rebuild(
        self, batch: "ShmBatch", cells: Sequence["CellSpec"]
    ) -> list["CellResult"]:
        from .engine import CellResult

        if len(batch.rows) != len(cells):
            raise ValueError(
                f"shm batch carries {len(batch.rows)} rows for "
                f"{len(cells)} cells"
            )
        def rebuild_rows(out) -> list["CellResult"]:
            # A nested scope so every numpy view (and slice thereof)
            # dies on return: a live view of shm.buf makes the close()
            # below raise BufferError.
            rows: list["CellResult"] = []
            for slot, (cell, row) in enumerate(zip(cells, batch.rows)):
                if row.inline is not None:
                    self._pickle_results += 1
                    rows.append(row.inline)
                    continue
                mask = out.decision_mask[slot]
                values = out.final_values[slot]
                decisions = tuple(
                    (pid, float(values[pid]))
                    for pid in range(batch.layout.n)
                    if mask[pid]
                )
                length = int(out.diameter_len[slot])
                diameters = tuple(
                    float(value) for value in out.diameters[slot, :length]
                )
                self._shm_results += 1
                rows.append(
                    CellResult(
                        spec=cell,
                        decisions=decisions,
                        rounds=int(out.rounds[slot]),
                        terminated=bool(out.terminated[slot]),
                        decision_diameter=row.decision_diameter,
                        diameters=diameters,
                        termination_ok=row.termination_ok,
                        agreement_ok=row.agreement_ok,
                        validity_ok=row.validity_ok,
                        p1_ok=row.p1_ok,
                        p2_ok=row.p2_ok,
                        extras=row.extras,
                        elapsed=row.elapsed,
                        metrics=row.metrics,
                    )
                )
            return rows

        shm = _shared_memory.SharedMemory(name=batch.name)
        try:
            results = rebuild_rows(batch.layout.attach(shm.buf))
        finally:
            try:
                shm.close()
            except BufferError:
                # Only reachable when rebuild_rows raised: its
                # traceback pins the frame (and thus the views) alive.
                # The arena still unlinks the block by name on close().
                pass
        return results

    @property
    def stats(self) -> ArenaStats:
        return ArenaStats(
            shm_results=self._shm_results,
            pickle_results=self._pickle_results,
            shm_bytes=self._shm_bytes,
            blocks=self._blocks,
            unlinked=self._unlinked,
        )

    def leaked(self) -> list[str]:
        """Blocks of this arena still present in ``/dev/shm`` (tests)."""
        root = Path("/dev/shm")
        if not root.is_dir():
            return []
        return sorted(
            p.name for p in root.iterdir() if p.name.startswith(self.prefix)
        )

    def close(self) -> ArenaStats:
        """Destroy every block that never came back; idempotent."""
        if not self._closed:
            self._closed = True
            self._finalizer.detach()
            self._unlinked += _sweep_orphans(self._outstanding, self.prefix)
        return self.stats


def _shm_group_task(
    many_runner: ManyRunner,
    request: _ShmRequest | None,
    cells: list["CellSpec"],
) -> "ShmBatch | _PickleBatch":
    """Run one batch in a worker, results into shm (module level: pickles).

    With a request, the worker creates the named block, hands the
    stacked output buffer to the cross-run engine, and ships back the
    block name plus per-run scalar rows -- the payload never touches a
    pickle.  Without one (or if creation fails -- ``/dev/shm`` full,
    size cap raced), the full results ride the pickle rung instead;
    both envelopes restore to bit-identical cell results.  On any
    worker-side error the block is destroyed here (and the parent
    arena sweeps it again by name, so even a SIGKILL between the two
    cannot leak it past the sweep).
    """
    shm = None
    if request is not None and _shared_memory is not None:
        try:
            shm = _shared_memory.SharedMemory(
                name=request.name, create=True, size=request.layout.total_bytes
            )
        except OSError:
            shm = None
    if shm is None:
        return _PickleBatch(results=tuple(many_runner(cells)))
    try:
        _untrack_shm(shm)
        out = request.layout.attach(shm.buf)
        try:
            results = many_runner(cells, out=out)
            written = set(out.written)
        finally:
            del out
        rows = []
        for slot, result in enumerate(results):
            if slot in written:
                rows.append(
                    _ShmRow(
                        decision_diameter=result.decision_diameter,
                        termination_ok=result.termination_ok,
                        agreement_ok=result.agreement_ok,
                        validity_ok=result.validity_ok,
                        p1_ok=result.p1_ok,
                        p2_ok=result.p2_ok,
                        extras=result.extras,
                        elapsed=result.elapsed,
                        metrics=result.metrics,
                    )
                )
            else:
                rows.append(_ShmRow(inline=result))
        shm.close()
        return ShmBatch(name=request.name, layout=request.layout, rows=tuple(rows))
    except BaseException:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views still alive
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass
        raise


# -- persistent sweep workers --------------------------------------------------
#
# Pooled sweeps run on one module-private set of forked worker
# processes, each owning one duplex pipe (one dispatch slot), kept
# alive across sweeps: forking a pool per sweep cost as much as a
# quarter of a small sweep.  A worker runs the code and module state
# the parent had when it forked, so the set is reused only while that
# snapshot still holds (see _ForkSnapshot) and is re-forked otherwise.

#: Seconds a closing worker gets to exit before it is killed.
_WORKER_EXIT_TIMEOUT = 5.0

#: A batch's deadline, per :func:`_cost_bound` unit of its cells.
#: On a 2-vCPU host (Python 3.11, numpy 2.4) a stacked n=97 cell takes
#: 6e-9 s per unit and a tseng M2 cell run on its own, the slowest
#: measured, 2e-7 s: this leaves a factor of 50 for a loaded host.
_DEADLINE_SECONDS_PER_COST = 1e-5
#: The shortest batch deadline: room for a fork, imports and a slow
#: host before the first cell of a cheap batch has even started.
_DEADLINE_FLOOR_S = 60.0


def _batch_deadline(batch: Sequence["CellSpec"]) -> float:
    """Seconds a worker may take over ``batch`` before it is killed."""
    cost = math.fsum(_cost_bound(cell) for cell in batch)
    return max(_DEADLINE_FLOOR_S, cost * _DEADLINE_SECONDS_PER_COST)


#: Serializes worker start-up, so no worker inherits the child end of
#: another's pipe: a dead worker's pipe must read as closed.
_SPAWN_LOCK = threading.Lock()
#: Held by the sweep that has the persistent workers checked out.
_CHECKOUT = threading.Lock()
#: The persistent worker set, or ``None`` before the first pooled sweep.
_WORKERS: "_WorkerSet | None" = None


def _forget_workers_after_fork() -> None:
    """Start a forked child with no workers and free locks (a thread
    that held one at the fork does not exist in the child)."""
    global _WORKERS, _CHECKOUT, _SPAWN_LOCK
    _WORKERS = None
    _CHECKOUT = threading.Lock()
    _SPAWN_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers_after_fork)


def _drop_inherited_tracker() -> None:
    """Detach a worker from its parent's resource tracker.

    The tracker process exits once every write end of its pipe is
    closed, and the parent's ``resource_tracker._stop()`` waits for
    that exit -- a long-lived worker holding an inherited write end
    would block it for the worker's whole life.  The worker closes its
    copy and starts a tracker of its own on first use, under a fresh
    lock: another parent thread may have held the old one at the fork.
    """
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        fd, tracker._fd, tracker._pid = tracker._fd, None, None
        tracker._lock = threading.RLock()
    except (ImportError, AttributeError):  # pragma: no cover - other layouts
        return
    if fd is not None:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass


def _worker_main(conn, parent_ends) -> None:
    """Serve batches from one pipe until told to stop.

    A task is ``(many_runner, request, batch, session)``: the batch runs
    through :func:`_shm_group_task` and the reply is ``(True, batch
    envelope)`` or ``(False, exception)``.  ``session`` is the parent's
    tracing config at dispatch -- what a worker forked at that moment
    would inherit -- and the worker's session follows it task by task.
    ``None`` stops the worker, and so does end-of-file: closing its
    copies of the parent's ends (``parent_ends``, its own and its
    siblings') lets the parent's death reach it.  SIGINT is the
    parent's to handle: it discards its workers on any exception.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:
        end.close()
    _drop_inherited_tracker()
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        many_runner, request, batch, session = task
        if session is None:
            deactivate()
        else:
            activate(session)
        try:
            reply = (True, _shm_group_task(many_runner, request, batch))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # an unpicklable result or exception
            conn.send(
                (False, RuntimeError(f"sweep worker cannot return its batch: {exc!r}"))
            )


@dataclass(frozen=True, eq=False)
class _ForkSnapshot:
    """What a worker set inherited at fork that a later sweep relies on.

    The task callable is the runner's ``func`` for a ``functools.partial``
    (whose options vary per sweep and travel with every task) and is
    held strongly, so identity comparison stays sound: a profiler that
    swaps ``engine.run_cell_many`` for a wrapper gets workers that run
    the wrapper.  The parent's pid needs no field -- a forked child
    forgets its parent's workers (:func:`_forget_workers_after_fork`).
    """

    workers: int
    task: object
    numpy_absent: bool
    families: tuple

    @classmethod
    def take(cls, workers: int, many_runner: ManyRunner) -> "_ForkSnapshot":
        return cls(
            workers=workers,
            task=getattr(many_runner, "func", many_runner),
            numpy_absent=_simulator._np is None,
            families=tuple((name, get_family(name)) for name in family_names()),
        )

    def matches(self, other: "_ForkSnapshot") -> bool:
        return (
            self.workers == other.workers
            and self.task is other.task
            and self.numpy_absent == other.numpy_absent
            and len(self.families) == len(other.families)
            and all(
                name == other_name and family is other_family
                for (name, family), (other_name, other_family) in zip(
                    self.families, other.families
                )
            )
        )


class _WorkerSet:
    """Forked daemon worker processes, one duplex pipe (slot) each."""

    def __init__(self, snapshot: _ForkSnapshot) -> None:
        self.snapshot = snapshot
        self._processes: list = []
        self._conns: list = []
        context = multiprocessing.get_context()
        try:
            for slot in range(snapshot.workers):
                with _SPAWN_LOCK:
                    parent_end, child_end = context.Pipe()
                    self._conns.append(parent_end)
                    process = context.Process(
                        target=_worker_main,
                        args=(child_end, tuple(self._conns)),
                        name=f"repro-sweep-worker-{slot}",
                        daemon=True,
                    )
                    try:
                        process.start()
                    finally:
                        child_end.close()
                    self._processes.append(process)
        except BaseException:
            self.close(discard=True)
            raise

    def _dead(self) -> set:
        """Sentinels of the workers that have exited."""
        return set(
            multiprocessing.connection.wait(
                [process.sentinel for process in self._processes], 0
            )
        )

    def alive(self) -> bool:
        return not self._dead()

    def _died(self, slot: int, cause: str = "") -> RuntimeError:
        process = self._processes[slot]
        process.join(1.0)
        return RuntimeError(
            f"sweep worker pid {process.pid} died mid-batch "
            f"(exit code {process.exitcode}){cause}"
        )

    def kill(self, slot: int, deadline: float) -> RuntimeError:
        """SIGKILL a worker past its batch ``deadline`` (seconds); the
        error to abort the sweep with."""
        self._processes[slot].kill()
        return self._died(slot, f": killed past its {deadline:.3g} s batch deadline")

    def send(self, slot: int, task: tuple) -> None:
        try:
            self._conns[slot].send(task)
        except OSError:
            raise self._died(slot) from None

    def ready(self, slots, timeout: float | None = None) -> list[int]:
        """The busy ``slots`` with a reply waiting or a dead worker,
        waiting at most ``timeout`` seconds (``[]`` when none is)."""
        owners = {}
        for slot in slots:
            owners[self._conns[slot]] = slot
            owners[self._processes[slot].sentinel] = slot
        return sorted(
            {
                owners[obj]
                for obj in multiprocessing.connection.wait(list(owners), timeout)
            }
        )

    def receive(self, slot: int):
        """The reply of a :meth:`ready` slot; raises the worker's error."""
        conn = self._conns[slot]
        try:
            if not conn.poll():  # the sentinel fired with nothing sent
                raise EOFError
            ok, payload = conn.recv()
        except (EOFError, OSError):
            raise self._died(slot) from None
        if not ok:
            raise payload
        return payload

    def close(self, discard: bool = False) -> None:
        """Stop every worker: politely (a stop message), or at once.

        ``discard`` terminates workers that may be mid-batch, as a
        failed sweep must.  Either way every worker is joined before
        this returns, so no block can be created after it.
        """
        for conn in self._conns:
            if not discard:
                with contextlib.suppress(OSError):  # already dead
                    conn.send(None)
            conn.close()
        if discard:
            dead = self._dead()
            for process in self._processes:
                if process.sentinel not in dead:
                    process.terminate()
        for process in self._processes:
            process.join(_WORKER_EXIT_TIMEOUT)
            stuck = not multiprocessing.connection.wait([process.sentinel], 0)
            if process.exitcode is None and stuck:
                process.kill()
                process.join()
            with contextlib.suppress(ValueError):  # reaped elsewhere
                process.close()
        self._processes = []
        self._conns = []


@contextlib.contextmanager
def _sweep_workers(count: int, many_runner: ManyRunner):
    """Check out ``count`` workers able to run ``many_runner``.

    The persistent set is reused while its fork snapshot matches and
    every worker lives, else re-forked.  A sweep that finds it checked
    out by another thread forks a transient set for itself.  Any
    exception discards the workers in use.
    """
    global _WORKERS
    snapshot = _ForkSnapshot.take(count, many_runner)
    owned = _CHECKOUT.acquire(blocking=False)
    try:
        if not owned:
            workers = _WorkerSet(snapshot)
        else:
            workers = _WORKERS
            if workers is None or not (
                workers.snapshot.matches(snapshot) and workers.alive()
            ):
                _WORKERS = None
                if workers is not None:
                    workers.close()
                workers = _WORKERS = _WorkerSet(snapshot)
        try:
            yield workers
        except BaseException:
            if owned:
                _WORKERS = None
            workers.close(discard=True)
            raise
        if not owned:
            workers.close()
    finally:
        if owned:
            _CHECKOUT.release()


def _run_on_workers(
    count: int,
    many_runner: ManyRunner,
    next_batch: Callable[[int], list["CellSpec"] | None],
    plan: Callable[[list["CellSpec"]], _ShmRequest | None],
    finish: Callable[[list["CellSpec"], object], None],
) -> None:
    """Keep ``count`` worker slots busy until ``next_batch`` runs dry.

    ``next_batch(slot)`` hands out the slot's next batch (``None``: the
    slot idles), ``plan(batch)`` its shm block request, and
    ``finish(batch, envelope)`` takes each finished batch in the parent.
    A worker's exception is re-raised here; a worker that dies
    mid-batch raises :class:`RuntimeError` naming its pid, and so does
    one still silent past its batch's deadline (`_batch_deadline`),
    after a SIGKILL.
    """
    session = current_config()
    with _sweep_workers(count, many_runner) as workers:
        busy: dict[int, list["CellSpec"]] = {}
        # Per busy slot: its monotonic expiry and deadline in seconds.
        due: dict[int, tuple[float, float]] = {}

        def submit(slot: int) -> None:
            batch = next_batch(slot)
            if batch is not None:
                busy[slot] = batch
                deadline = _batch_deadline(batch)
                due[slot] = (time.monotonic() + deadline, deadline)
                workers.send(slot, (many_runner, plan(batch), batch, session))

        for slot in range(count):
            submit(slot)
        while busy:
            late = min(busy, key=lambda slot: due[slot][0])
            expiry, deadline = due[late]
            ready = workers.ready(busy, max(0.0, expiry - time.monotonic()))
            if not ready and time.monotonic() >= expiry:
                raise workers.kill(late, deadline)
            for slot in ready:
                outcome = workers.receive(slot)
                batch = busy.pop(slot)
                # Refill the slot before parent-side restore work so
                # the workers never idle behind the coordinator.
                submit(slot)
                finish(batch, outcome)


class _StealingQueues:
    """Per-slot batch queues with largest-half work stealing.

    The coordinator state of :class:`MultiprocessingBackend`: every worker
    slot owns a queue of batches (each batch a run-index slice of one
    ``stack_key`` group).  Seeding is LPT -- heaviest group onto the
    lightest slot -- followed by an eager pre-split that cuts the
    biggest batches until every slot can start busy and no splittable
    batch holds more than its ``1/slots`` share of the estimated cost
    (:func:`estimate_cell_cost`)
    (a single huge group still spreads across the whole pool, and one
    heavy group cannot become the critical path while a slot idles:
    a batch in flight can no longer be stolen from).  :meth:`next_batch`
    serves a slot from its own queue first; a dry slot *steals*: pick
    the victim holding the most pending estimated cost, take its
    biggest pending batch, keep the larger half (ceil) and return the
    rest to the victim in place.  Only pending batches are touched --
    in-flight work is never split -- so every run is dispatched
    exactly once, whatever the interleaving.
    """

    def __init__(
        self, groups: Sequence[Sequence["CellSpec"]], slots: int
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be at least 1, got {slots}")
        self.slots = slots
        self.steals = 0
        self._queues: list[list[list["CellSpec"]]] = [[] for _ in range(slots)]
        loads = [0.0] * slots
        for group in sorted(groups, key=self._cost, reverse=True):
            if not group:
                continue
            slot = min(range(slots), key=loads.__getitem__)
            self._queues[slot].append(list(group))
            loads[slot] += self._cost(group)
        self._presplit()

    def _cost(self, batch: Sequence["CellSpec"]) -> float:
        return math.fsum(estimate_cell_cost(cell) for cell in batch)

    def _presplit(self) -> None:
        """Cut the biggest batches until every slot can start busy and
        no splittable batch exceeds a ``1/slots`` share of the cost."""
        share = math.fsum(
            self._cost(batch) for queue in self._queues for batch in queue
        ) / self.slots
        while True:
            best: tuple[float, int, int] | None = None
            for slot, queue in enumerate(self._queues):
                for index, batch in enumerate(queue):
                    if len(batch) < 2:
                        continue
                    cost = self._cost(batch)
                    if best is None or cost > best[0]:
                        best = (cost, slot, index)
            if best is None:
                return
            cost, slot, index = best
            if self.pending() >= self.slots and cost <= share:
                return
            batch = self._queues[slot].pop(index)
            half = (len(batch) + 1) // 2
            self._queues[slot].insert(index, batch[:half])
            idle = min(range(self.slots), key=lambda s: len(self._queues[s]))
            self._queues[idle].append(batch[half:])

    def pending(self) -> int:
        """Batches not yet handed out."""
        return sum(len(queue) for queue in self._queues)

    def next_batch(self, slot: int) -> list["CellSpec"] | None:
        """The next batch for ``slot``, stealing if its queue is dry."""
        own = self._queues[slot]
        if own:
            return own.pop(0)
        victim: tuple[float, int] | None = None
        for candidate, queue in enumerate(self._queues):
            if candidate == slot or not queue:
                continue
            load = math.fsum(self._cost(batch) for batch in queue)
            if victim is None or load > victim[0]:
                victim = (load, candidate)
        if victim is None:
            return None
        queue = self._queues[victim[1]]
        index = max(range(len(queue)), key=lambda k: self._cost(queue[k]))
        batch = queue.pop(index)
        self.steals += 1
        if len(batch) < 2:
            return batch
        half = (len(batch) + 1) // 2
        # The victim keeps the smaller tail, in place.
        queue.insert(index, batch[half:])
        return batch[:half]


class MultiprocessingBackend(SweepBackend):
    """Zero-copy parallel cross-run execution with work stealing.

    The one pooled backend: whole ``stack_key`` groups (or stolen
    run-index slices of them) run in the persistent sweep worker
    processes, which write their stacked payloads into shared-memory
    blocks owned by a :class:`SharedResultArena`, and the dispatcher is
    a :class:`_StealingQueues` coordinator -- one in-flight batch per
    worker slot, a finishing slot is refilled from its own queue or by
    stealing the largest half of the heaviest victim's biggest pending
    batch.  Pooled sweeps always run cross-run groups.  The fallback
    ladder keeps every rung bit-identical: where a pool cannot win the
    groups run in-process (label ``cross-run(...)``); a batch without
    usable ``shared_memory`` (or over the block cap) rides the pickle
    rung.  The dispatch label records the rung that ran and the steal
    count, e.g. ``cross-run-shm(4 batches, max R=16, steals=1)``; it
    reads ``cross-run-pickle(...)`` when no batch rode a block.
    """

    def __init__(
        self, workers: int, max_block_bytes: int = _DEFAULT_MAX_BLOCK_BYTES
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.workers = workers
        self.max_block_bytes = max_block_bytes
        #: Counters of the last pooled dispatch's arena (``None`` until
        #: a pooled dispatch has happened).
        self.last_arena_stats: ArenaStats | None = None

    def _pool_decision(self, tasks: int, dispatch: str) -> bool:
        """Whether a pool can win for ``tasks`` dispatch units.

        A single usable CPU is the canonical lost cause: worker
        processes merely time-slice the same core, so every fork,
        pickle and IPC round-trip is pure overhead.  Those invocations
        fall back to in-process dispatch, which the ``cross-run(...)``
        label (no rung) records.

        ``dispatch`` overrides the heuristic: ``serial`` always runs
        in-process, ``pool`` always dispatches to workers -- warning
        (instead of silently falling back) when only one usable CPU
        exists, so pool code paths stay testable on 1-CPU CI boxes at
        an explicitly acknowledged cost.
        """
        if dispatch == "serial" or tasks < 1:
            return False
        if dispatch == "pool":
            cpus = _usable_cpus()
            if cpus < 2:
                # Counted so the CLI can surface a one-line warning
                # summary after the sweep -- RuntimeWarnings otherwise
                # vanish under pytest/capture harnesses.
                count("sweep.pool.forced_one_cpu")
                warnings.warn(
                    f"dispatch mode {dispatch!r} forced with "
                    f"{self.workers} workers on {cpus} usable cpu: the "
                    "pool cannot win here (fork/pickle/IPC overhead with "
                    "nothing to overlap); results are identical but slower",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return True
        return self.workers > 1 and tasks > 1 and _usable_cpus() >= 2

    def execute_many(
        self,
        cells: Sequence["CellSpec"],
        many_runner: ManyRunner,
        dispatch: str = "auto",
        cross_run: bool = True,
    ) -> list["CellResult"]:
        # Batches split by run index, so the parallelism bound is the
        # cell count, not the group count -- one big group still fans
        # out across the pool.  Whichever way it dispatches, a pooled
        # backend runs cross-run groups.
        if not self._pool_decision(len(cells), dispatch):
            return SweepBackend.execute_many(self, cells, many_runner)

        groups = _batch_groups(cells)
        arena = SharedResultArena(max_block_bytes=self.max_block_bytes)
        queues = _StealingQueues(groups, self.workers)
        results = []

        def finish(batch: list["CellSpec"], outcome) -> None:
            batch_results = arena.restore(outcome, batch)
            results.extend(batch_results)
            self._emit(batch_results)

        try:
            # The workers are gone (or idle) before arena.close() runs,
            # so its sweep cannot race a block still being created.
            _run_on_workers(
                self.workers,
                many_runner,
                next_batch=queues.next_batch,
                plan=arena.plan,
                finish=finish,
            )
        finally:
            self.last_arena_stats = arena.close()
        # The rung that ran: a batch rode a block, or none did.
        rung = "shm" if self.last_arena_stats.shm_bytes else "pickle"
        max_r = max((len(group) for group in groups), default=0)
        self.dispatch = (
            f"cross-run-{rung}({len(groups)} batches, "
            f"max R={max_r}, steals={queues.steals})"
        )
        return results


#: The pooled backend under its shared-memory name.
ShmCrossRunBackend = MultiprocessingBackend
