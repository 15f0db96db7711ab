"""Sweep orchestration: cells in, cached/backed execution, result out.

Each grid cell is executed by the module-level :func:`run_cell` (module
level so it pickles), which materializes the cell's config through its
scenario, runs the simulator -- by default on the trace-lite fast path
-- and condenses the outcome into a :class:`CellResult` of plain
primitives, optionally augmented by a named probe.

:func:`run_sweep` itself no longer knows how cells run: execution is
delegated to a pluggable :class:`~repro.sweep.backends.SweepBackend`
(serial, a work-stealing pool of cross-run groups, or deterministic
shards for fanning a grid across hosts), and every backend consults an
optional content-addressed :class:`~repro.sweep.cache.CellStore` before
executing a cell and writes through after.

Determinism contract: a cell's result is a pure function of the cell.
Every stochastic component draws from ``derive_rng(seed, ...)`` streams
seeded by stable strings, so worker processes reproduce bit-identical
results regardless of start method, worker count, grouping, scheduling
order, shard assignment or cache state.  :func:`run_sweep` additionally
sorts results by cell key, making the aggregate independent of the
execution strategy.  The determinism, backend and cache test suites
assert these properties.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from ..core.specification import check_trace
from ..runtime.kernel import RoundKernel
from ..telemetry import (
    DEFAULT_SIZE_EDGES,
    KernelSampler,
    TelemetryConfig,
    activate,
    count,
    current_config,
    deactivate,
    dump_flight,
    get_registry,
    metrics_enabled,
    observe,
    parse_dispatch_label,
    record_event,
    snapshot_delta,
    trace_span,
    tracing_active,
)
from ..runtime.simulator import (
    RunBatchOut,
    TraceDetail,
    run_simulation,
    simulate_many,
)
from .aggregate import SweepResult
from .backends import (
    DISPATCH_MODES,
    SerialBackend,
    ShardedBackend,
    ShmCrossRunBackend,
    SweepBackend,
)
from .cache import CellStore
from .grid import CellSpec, GridSpec
from .probes import get_probe

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from .service import SweepJournal

__all__ = [
    "CellResult",
    "run_cell",
    "run_cell_many",
    "run_sweep",
]

#: ``progress`` callback signature: ``(result, done, total)`` with
#: ``done`` counting every result observed so far (journal replays and
#: cache hits included) out of ``total`` cells this invocation owns.
ProgressCallback = Callable[["CellResult", int, int], None]


@dataclass(frozen=True)
class CellResult:
    """The condensed, picklable outcome of one grid cell.

    ``error`` is set (and every other payload field zeroed) when the
    cell could not run -- e.g. an explicit ``n`` below the model's
    resilience bound, or a run aborted by a family's own runtime
    requirement (the witness family refuses mid-run when an adversary
    starves its phase-boundary fold on a minimum-degree graph).
    """

    spec: CellSpec
    decisions: tuple[tuple[int, float], ...]
    rounds: int
    terminated: bool
    decision_diameter: float
    #: Non-faulty diameter trajectory: initial, then after each round.
    diameters: tuple[float, ...]
    termination_ok: bool
    agreement_ok: bool
    validity_ok: bool
    #: Per-round invariant verdicts; ``None`` when not evaluated
    #: (lite traces carry no message records to check them against).
    p1_ok: bool | None = None
    p2_ok: bool | None = None
    #: Probe output: ``(name, value)`` pairs of primitives (see
    #: :mod:`repro.sweep.probes`); empty when no probe ran.
    extras: tuple[tuple[str, object], ...] = ()
    error: str | None = None
    #: Observed compute seconds of this cell (a per-run share of its
    #: group for cross-run execution); ``None`` for cache/journal
    #: replays.  A machine property: excluded from equality and from
    #: the cache serialization, consumed by
    #: :meth:`~repro.sweep.backends.CostModel.fit` via the journal.
    elapsed: float | None = field(default=None, compare=False, repr=False)
    #: Cell-scoped telemetry counters (``(name, value)`` pairs, e.g.
    #: sampled kernel phase timings) recorded where the cell actually
    #: ran and merged into the parent's metrics registry by
    #: :func:`run_sweep`.  A machine property like ``elapsed``:
    #: compare-excluded, absent from the cache serialization, empty
    #: unless a telemetry session is active.
    metrics: tuple[tuple[str, float], ...] = field(
        default=(), compare=False, repr=False
    )

    @property
    def key(self) -> tuple:
        return self.spec.key

    @property
    def satisfied(self) -> bool:
        """The headline specification verdict of the cell's run."""
        return (
            self.error is None
            and self.termination_ok
            and self.agreement_ok
            and self.validity_ok
        )

    def extras_dict(self) -> dict[str, object]:
        """The probe output as a plain dictionary."""
        return dict(self.extras)


def _error_cell(cell: CellSpec, exc: Exception) -> CellResult:
    """The canonical error verdict of a cell that could not run.

    Under an active tracing session the conversion also lands in the
    trace and triggers a flight-recorder dump, so the events leading up
    to the failure survive next to the error string.
    """
    if tracing_active():
        record_event("cell.error", cell=cell.describe(), error=str(exc))
        dump_flight("error-cell")
    return CellResult(
        spec=cell,
        decisions=(),
        rounds=0,
        terminated=False,
        decision_diameter=0.0,
        diameters=(),
        termination_ok=False,
        agreement_ok=False,
        validity_ok=False,
        error=str(exc),
    )


def _condense_trace(cell: CellSpec, trace, probe_spec) -> CellResult:
    """Condense one finished trace into its :class:`CellResult`.

    Shared by the per-cell and cross-run runners so both condense
    identically (checker verdicts, probe extras, sorted decisions).
    """
    verdict = check_trace(trace)
    extras = tuple(probe_spec.extract(trace)) if probe_spec is not None else ()
    return CellResult(
        spec=cell,
        decisions=tuple(sorted(trace.decisions.items())),
        rounds=trace.rounds_executed(),
        terminated=trace.terminated,
        decision_diameter=trace.decision_diameter(),
        diameters=tuple(trace.diameters()),
        termination_ok=verdict.termination.holds,
        agreement_ok=verdict.epsilon_agreement.holds,
        validity_ok=verdict.validity.holds,
        p1_ok=None if verdict.p1.skipped else verdict.p1.holds,
        p2_ok=None if verdict.p2.skipped else verdict.p2.holds,
        extras=extras,
    )


def _ensure_sampler(kernel: RoundKernel) -> KernelSampler:
    """Attach (or reuse) a kernel phase sampler for the active session."""
    sampler = kernel.telemetry
    if sampler is None:
        config = current_config()
        every = config.sample_every if config is not None else 32
        sampler = kernel.telemetry = KernelSampler(every)
    return sampler


def run_cell(
    cell: CellSpec,
    trace_detail: TraceDetail = "lite",
    probe: str | None = None,
    kernel: RoundKernel | None = None,
    telemetry: TelemetryConfig | None = None,
) -> CellResult:
    """Execute one cell and condense its outcome.

    Runs in worker processes during parallel sweeps; everything it
    touches must be importable and picklable.  ``probe`` names a
    registered :class:`~repro.sweep.probes.Probe` whose output lands in
    ``CellResult.extras``.  ``kernel`` optionally shares one
    :class:`~repro.runtime.kernel.RoundKernel` across the cells of a
    cross-run group (results are identical with or without it).
    ``telemetry`` activates the run's tracing session in whichever
    process this lands; the drained kernel sample counters travel back
    on ``CellResult.metrics``.
    """
    if telemetry is not None:
        activate(telemetry)
    probe_spec = get_probe(probe) if probe is not None else None
    sampler = None
    if tracing_active():
        if kernel is None:
            kernel = RoundKernel()
        sampler = _ensure_sampler(kernel)
    started = time.perf_counter()
    with trace_span("sweep.cell", cell=cell.describe()) as span:
        result: CellResult | None = None
        try:
            config = cell.to_config()
        except (ValueError, KeyError) as exc:
            result = _error_cell(cell, exc)
        if result is None:
            try:
                trace = run_simulation(
                    config, trace_detail=trace_detail, kernel=kernel
                )
            except ValueError as exc:
                # A family's runtime requirement rejecting the run
                # mid-flight is a per-cell verdict, not grounds to kill
                # a whole sweep.
                result = _error_cell(cell, exc)
            else:
                result = replace(
                    _condense_trace(cell, trace, probe_spec),
                    elapsed=time.perf_counter() - started,
                )
                span.set("rounds", result.rounds)
    if sampler is not None:
        drained = sampler.drain()
        if drained:
            result = replace(result, metrics=drained)
    return result


def _run_cell_cached(
    cell: CellSpec,
    trace_detail: TraceDetail = "lite",
    probe: str | None = None,
    store: CellStore | None = None,
    telemetry: TelemetryConfig | None = None,
) -> CellResult:
    """Cache-through cell runner (module level so it pickles).

    The double-check against the store matters: workers of concurrent
    shard invocations may have produced the cell since the parent
    filtered its misses, and writing through here (not in the parent)
    is what makes interrupted sweeps resumable.
    """
    cached = store.load(cell, trace_detail, probe)
    if cached is not None:
        return cached
    result = run_cell(
        cell, trace_detail=trace_detail, probe=probe, telemetry=telemetry
    )
    store.save(result, trace_detail, probe)
    return result


def run_cell_many(
    cells: list[CellSpec],
    trace_detail: TraceDetail = "lite",
    probe: str | None = None,
    store: CellStore | None = None,
    out: RunBatchOut | None = None,
    telemetry: TelemetryConfig | None = None,
) -> list[CellResult]:
    """Execute a group of cells through the cross-run vectorized engine.

    The unit of work of cross-run sweeps (module level so it pickles):
    the cells are partitioned by :attr:`CellSpec.stack_key` -- the
    engine's own stacking rule, so attacks, movements, epsilons, round
    budgets and declared stateful families share a group -- and each
    group is handed to :func:`repro.runtime.simulator.simulate_many`,
    which stacks the group's runs into one ``(R, n)`` state array and
    advances them in lockstep -- one sort/fold pass per round for the
    whole group.  Results are bit-identical to :func:`run_cell`
    execution and come back in input order; groups the stacked engine
    cannot take (full traces, stateful families without a declared
    :meth:`~repro.runtime.families.ProtocolFamily.lite_equivalent`,
    partial topologies) fall back to the per-run paths inside
    ``simulate_many`` itself.

    ``out`` -- a :class:`~repro.runtime.simulator.RunBatchOut`, slot
    ``i`` for ``cells[i]`` -- additionally lands each successful run's
    payload in the caller's stacked buffer (the shared-memory path of
    :class:`~repro.sweep.backends.ShmCrossRunBackend`); cells that
    never produce a trace here (config errors, store hits, per-cell
    fallback reruns) leave their slot unwritten, which ``out.written``
    records.
    """
    if telemetry is not None:
        activate(telemetry)
    kernel = RoundKernel()
    sampler = _ensure_sampler(kernel) if tracing_active() else None
    probe_spec = get_probe(probe) if probe is not None else None
    results: list[CellResult | None] = [None] * len(cells)
    pending: list[int] = []
    for idx, cell in enumerate(cells):
        if store is not None:
            # Same double-check as _run_cell_cached: concurrent shard
            # invocations may have produced the cell since the parent
            # filtered its misses.
            cached = store.load(cell, trace_detail, probe)
            if cached is not None:
                results[idx] = cached
                continue
        pending.append(idx)
    rescued: set[int] = set()
    groups: dict[tuple, list[int]] = {}
    for idx in pending:
        groups.setdefault(cells[idx].stack_key, []).append(idx)
    for indices in groups.values():
        configs = []
        runnable: list[int] = []
        for idx in indices:
            try:
                configs.append(cells[idx].to_config())
            except (ValueError, KeyError) as exc:
                results[idx] = _error_cell(cells[idx], exc)
            else:
                runnable.append(idx)
        if not runnable:
            continue
        started = time.perf_counter()
        group_span = trace_span("sweep.cell.group", runs=len(runnable))
        with group_span:
            try:
                traces = simulate_many(
                    configs,
                    trace_detail=trace_detail,
                    kernel=kernel,
                    out=out,
                    out_slots=runnable,
                )
            except ValueError:
                traces = None
        if traces is None:
            # A family's runtime requirement rejected some run of the
            # group mid-flight.  Rerun the group per-cell so the error
            # lands on exactly the cell that earned it -- but serve any
            # member a concurrent invocation has cached since the
            # stacked attempt started instead of recomputing it.
            for idx in runnable:
                if store is not None:
                    cached = store.load(cells[idx], trace_detail, probe)
                    store.record(cached is not None)
                    if cached is not None:
                        results[idx] = cached
                        rescued.add(idx)
                        continue
                results[idx] = run_cell(
                    cells[idx],
                    trace_detail=trace_detail,
                    probe=probe,
                    kernel=kernel,
                )
            continue
        # Each run's share of the group's one stacked pass: the
        # per-cell number CostModel.fit consumes from the journal.
        share = (time.perf_counter() - started) / len(runnable)
        for idx, trace in zip(runnable, traces):
            condensed = _condense_trace(cells[idx], trace, probe_spec)
            results[idx] = replace(condensed, elapsed=share)
        if sampler is not None:
            # Kernel counters of one stacked pass are group-scoped;
            # ship them on the group's first result (the parent merge
            # is additive, so attribution within the group is moot).
            drained = sampler.drain()
            if drained:
                first = runnable[0]
                results[first] = replace(results[first], metrics=drained)
    if store is not None:
        for idx in pending:
            if idx not in rescued:
                store.save(results[idx], trace_detail, probe)
    return results


def _resolve_backend(
    backend: SweepBackend | str | None, workers: int, dispatch: str
) -> SweepBackend:
    """The sweep's backend: the shm pool if it may use workers, else serial."""
    if backend is None:
        pooled = dispatch == "pool" or (workers > 1 and dispatch != "serial")
        backend = "multiprocessing" if pooled else "serial"
    if isinstance(backend, str):
        if backend == "serial":
            return SerialBackend()
        if backend == "multiprocessing":
            return ShmCrossRunBackend(max(workers, 1), dispatch_mode=dispatch)
        if backend == "sharded":
            raise ValueError(
                "the sharded backend needs shard parameters; pass a "
                "repro.sweep.ShardedBackend(shard_index, shard_count, "
                "spill_dir) instance (CLI: --backend sharded --shard I/N)"
            )
        raise ValueError(
            f"unknown backend {backend!r}; known: serial, multiprocessing, "
            "sharded"
        )
    return backend


def run_sweep(
    grid: GridSpec | Iterable[CellSpec],
    workers: int = 1,
    trace_detail: TraceDetail = "lite",
    backend: SweepBackend | str | None = None,
    cache: CellStore | str | Path | None = None,
    probe: str | None = None,
    dispatch: str = "auto",
    progress: ProgressCallback | None = None,
    journal: "SweepJournal | None" = None,
    cross_run: bool = False,
    telemetry: TelemetryConfig | str | Path | None = None,
) -> SweepResult:
    """Run every cell of ``grid`` through a backend, via the cell cache.

    ``workers <= 1`` runs in-process; more workers ship cross-run
    groups (see :func:`run_cell_many`) to the work-stealing
    shared-memory pool of
    :class:`~repro.sweep.backends.ShmCrossRunBackend`, which degrades
    rung by rung (shm, pickle pool, in-process) without changing
    results.  ``backend`` overrides that default resolution with any
    :class:`~repro.sweep.backends.SweepBackend` (including
    :class:`~repro.sweep.backends.ShardedBackend` for multi-invocation
    sweeps) or one of the names ``"serial"`` / ``"multiprocessing"``
    (the pool).  ``cache`` -- a
    :class:`~repro.sweep.cache.CellStore` or a directory path -- is
    consulted before executing each cell and written through after.

    ``dispatch`` (one of :data:`~repro.sweep.backends.DISPATCH_MODES`)
    overrides the pool heuristic of pooled backends for this call only:
    ``serial`` forces in-process execution, ``pool`` forces the worker
    pool even on one usable CPU (with a warning).  ``progress``
    is called as
    ``progress(result, done, total)`` for every result exactly once,
    as early as the backend's reporting granularity allows.
    ``journal`` -- a :class:`~repro.sweep.service.SweepJournal` --
    replays cells completed by an interrupted earlier invocation and
    records each fresh result as it lands, making the sweep resumable.
    ``cross_run`` chooses the cross-run engine for in-process sweeps
    too: each compatible group advances as one stacked ``(R, n)``
    state array instead of cell by cell, as the result's ``dispatch``
    label records.  Pooled sweeps always run cross-run groups.

    Results are identical for every backend, worker count, dispatch
    mode, journal and cache state, and sorted by cell key, so the
    returned :class:`SweepResult` depends only on the grid
    (``workers``, ``dispatch`` and ``cache_stats`` are
    equality-excluded machine properties).

    ``telemetry`` -- a directory path or a
    :class:`~repro.telemetry.TelemetryConfig` -- activates a tracing
    session for the sweep: JSON-lines span traces (one
    ``trace-<pid>.jsonl`` per participating process), sampled kernel
    phase timings shipped back on ``CellResult.metrics``, a
    flight-recorder dump on every error cell or sweep crash, and a
    ``metrics.json`` snapshot of the sweep's counters on completion.
    Telemetry never changes results: every field it adds is
    compare-excluded like ``dispatch``/``elapsed``.
    """
    tconfig: TelemetryConfig | None
    own_session = False
    if telemetry is None:
        # Inherit an already-active session (a serve daemon configures
        # one for all the sweeps it hosts).
        tconfig = current_config()
    elif isinstance(telemetry, TelemetryConfig):
        tconfig = telemetry
        own_session = activate(tconfig)
    else:
        tconfig = TelemetryConfig(directory=str(telemetry))
        own_session = activate(tconfig)
    metrics_before = get_registry().snapshot() if own_session else None
    try:
        with trace_span("sweep.run", workers=workers) as span:
            final = _run_sweep(
                grid, workers, trace_detail, backend, cache, probe,
                dispatch, progress, journal, cross_run, tconfig,
            )
            span.set("cells", len(final.cells))
            span.set("dispatch", final.dispatch)
        return final
    except BaseException:
        # A propagated exception (worker crash, pool failure) is what
        # the flight recorder exists for: dump the tail of the story
        # before unwinding.  Per-cell errors never reach here -- they
        # were converted (and dumped) by _error_cell.
        if tconfig is not None:
            dump_flight("sweep.crash")
        raise
    finally:
        if own_session:
            _write_session_metrics(tconfig.directory, metrics_before)
            deactivate()


def _write_session_metrics(directory: str, before: dict) -> None:
    """Write the sweep-scoped ``metrics.json`` delta of a session."""
    payload = snapshot_delta(before, get_registry().snapshot())
    path = Path(directory) / "metrics.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _record_cell_metrics(result: CellResult) -> None:
    """Fold one observed result into the process metrics registry."""
    if not metrics_enabled():
        return
    count("sweep.cells.done")
    if result.error is not None:
        count("sweep.cells.error")
    if result.elapsed is not None:
        observe("sweep.cell.seconds", result.elapsed)
        observe(f"sweep.cell.seconds.{result.spec.family}", result.elapsed)
    observe("sweep.cell.rounds", float(result.rounds), DEFAULT_SIZE_EDGES)
    if result.metrics:
        registry = get_registry()
        for name, value in result.metrics:
            registry.inc(name, value)


def _record_sweep_metrics(
    resolved: SweepBackend, final: SweepResult, cache_before
) -> None:
    """Fold a finished sweep's dispatch decision into the registry."""
    if not metrics_enabled():
        return
    count("sweep.runs")
    try:
        record = parse_dispatch_label(final.dispatch)
    except ValueError:
        # Third-party backends may label dispatches however they like.
        count("sweep.dispatch.unparsed")
        return
    count(f"sweep.dispatch.mode.{record.mode}")
    if record.pooled:
        count("sweep.dispatch.pooled")
    if record.cross_run:
        count("sweep.dispatch.cross_run")
    if record.sharded:
        count("sweep.dispatch.sharded")
    if record.rung is not None:
        count(f"sweep.shm.rung.{record.rung}")
    if record.steals is not None:
        count("sweep.shm.steals", record.steals)
    stats = getattr(resolved, "last_arena_stats", None)
    if stats is not None:
        count("sweep.shm.results", stats.shm_results)
        count("sweep.shm.pickle_results", stats.pickle_results)
        count("sweep.shm.bytes", stats.shm_bytes)
        count("sweep.shm.blocks", stats.blocks)
        count("sweep.shm.unlinked", stats.unlinked)
    if final.cache_stats is not None and cache_before is not None:
        # The store may be shared across sweeps (serve daemon): count
        # only this sweep's traffic.
        count("sweep.cache.hits", final.cache_stats.hits - cache_before.hits)
        count(
            "sweep.cache.misses",
            final.cache_stats.misses - cache_before.misses,
        )
        count(
            "sweep.cache.bytes_read",
            final.cache_stats.bytes_read - cache_before.bytes_read,
        )
        count(
            "sweep.cache.bytes_written",
            final.cache_stats.bytes_written - cache_before.bytes_written,
        )


def _run_sweep(
    grid: GridSpec | Iterable[CellSpec],
    workers: int,
    trace_detail: TraceDetail,
    backend: SweepBackend | str | None,
    cache: CellStore | str | Path | None,
    probe: str | None,
    dispatch: str,
    progress: ProgressCallback | None,
    journal: "SweepJournal | None",
    cross_run: bool,
    tconfig: TelemetryConfig | None,
) -> SweepResult:
    """The body of :func:`run_sweep`, inside its telemetry envelope."""
    if trace_detail not in ("full", "lite"):
        raise ValueError(
            f"trace_detail must be 'full' or 'lite', got {trace_detail!r}"
        )
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if dispatch not in DISPATCH_MODES:
        raise ValueError(
            f"dispatch must be one of {DISPATCH_MODES}, got {dispatch!r}"
        )
    if probe is not None:
        probe_spec = get_probe(probe)
        if probe_spec.requires_full and trace_detail != "full":
            raise ValueError(
                f"probe {probe!r} reads per-round message records and "
                f"needs trace_detail='full', got {trace_detail!r}"
            )
    cells = list(grid.cells()) if isinstance(grid, GridSpec) else list(grid)
    seen: set[tuple] = set()
    for cell in cells:
        if cell.key in seen:
            raise ValueError(f"duplicate grid cell: {cell.describe()}")
        seen.add(cell.key)

    resolved = _resolve_backend(backend, workers, dispatch)
    if journal is not None and isinstance(resolved, ShardedBackend):
        raise ValueError(
            "resume journals cover whole grids; sharded sweeps already "
            "resume through their spill directory"
        )
    store = CellStore(cache) if isinstance(cache, (str, Path)) else cache
    # Stores outlive sweeps (the serve daemon shares one across
    # requests), so registry counting below works on the delta.
    cache_before = store.snapshot() if store is not None else None
    selected = resolved.select(cells)

    # Every result flows through the reporter exactly once: journal
    # replays and cache hits immediately, executed cells as early as
    # the backend's granularity allows (per cell serially, per group or
    # stolen batch cross-run), anything a backend did not emit early
    # after execution returns.
    total = len(selected)
    done = 0
    reported: set[tuple] = set()

    def report(result: CellResult) -> None:
        nonlocal done
        if result.key in reported:
            return
        reported.add(result.key)
        done += 1
        _record_cell_metrics(result)
        if journal is not None:
            journal.record(result)
        if progress is not None:
            progress(result, done, total)

    journaled: list[CellResult] = []
    if journal is not None:
        journaled = list(journal.open(selected, trace_detail, probe).values())
        for result in journaled:
            report(result)
    remaining = (
        selected
        if journal is None
        else [cell for cell in selected if cell.key not in reported]
    )

    resolved.on_result = report
    # Manual span management spares the whole dispatch block a
    # re-indent; the label lands as an attribute once execution is
    # done.  A propagated exception leaves through run_sweep's
    # flight-recorder dump.
    dispatch_span = trace_span(
        "sweep.dispatch", backend=type(resolved).__name__
    )
    dispatch_span.__enter__()
    # A dispatch override applies to this call only: a caller's backend
    # instance keeps its own mode for later sweeps.
    own_mode = resolved.dispatch_mode
    if dispatch != "auto":
        resolved.dispatch_mode = dispatch
    try:
        options = dict(trace_detail=trace_detail, probe=probe, telemetry=tconfig)
        hits: list[CellResult] = []
        missing = remaining
        if store is None:
            runner = partial(run_cell, **options)
        else:
            options["store"] = store
            runner = partial(_run_cell_cached, **options)
            missing = []
            for cell in remaining:
                cached = store.load(cell, trace_detail, probe)
                store.record(cached is not None)
                if cached is not None:
                    hits.append(cached)
                else:
                    missing.append(cell)
            for result in hits:
                report(result)
        executed = hits + (
            resolved.execute_many(missing, partial(run_cell_many, **options))
            if cross_run or resolved.pooled
            else resolved.execute(missing, runner)
        )
        for result in executed:
            report(result)
    finally:
        resolved.dispatch_mode = own_mode
        resolved.on_result = None
        dispatch_span.set("label", resolved.dispatch)
        dispatch_span.__exit__(None, None, None)
    final = resolved.finalize(journaled + executed, trace_detail, probe)
    if store is not None:
        final = replace(final, cache_stats=store.snapshot())
    _record_sweep_metrics(resolved, final, cache_before)
    return final
