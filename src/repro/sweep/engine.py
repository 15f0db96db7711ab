"""Sweep orchestration: cells in, cached/backed execution, result out.

Cells run in groups through the module-level :func:`run_cell_many`
(module level so it pickles): a group of several cells advances on the
stacked cross-run engine, a group of one runs through :func:`run_cell`,
which materializes the cell's config through its scenario, runs the
simulator -- by default on the trace-lite fast path -- and condenses
the outcome into a :class:`CellResult` of plain primitives, optionally
augmented by a named probe.

:func:`run_sweep` itself does not know how cells run: it hands the
uncached cells and :func:`run_cell_many` to the one execution method
of a pluggable :class:`~repro.sweep.backends.SweepBackend` (in
process, cell by cell or as cross-run groups, or the work-stealing
pool of cross-run groups), and the optional content-addressed
:class:`~repro.sweep.cache.CellStore` is consulted before executing a
cell and written through after.  Fanning a grid across hosts is a
sweep of each shard's cells (:func:`~repro.sweep.grid.shard_cells`)
into one shared store, which then serves the whole grid warm.

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
import math
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from ..core.specification import FLOAT_TOLERANCE, check_trace
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
    StackOutcome,
    TraceDetail,
    run_simulation,
    simulate_many,
)
from ..runtime.trace import LiteTrace
from .aggregate import SweepResult
from .backends import (
    DISPATCH_MODES,
    MultiprocessingBackend,
    SerialBackend,
    SweepBackend,
)
from .cache import CellStore
from .grid import CellSpec, GridSpec
from .scenarios import build_cell_configs
from .probes import get_probe

try:  # numpy is optional: lite traces defer to the reference without it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

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
    #: the cache serialization; it feeds the ``sweep.cell.seconds``
    #: histogram.
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


def _condense_trace(
    cell: CellSpec, trace, probe_spec, elapsed: float | None = None
) -> CellResult:
    """Condense one finished trace into its :class:`CellResult`
    (:func:`_condense_many` of one)."""
    return _condense_many([cell], [trace], probe_spec, elapsed)[0]


def _condense_many(
    cells: list[CellSpec], traces: list, probe_spec, elapsed: float | None = None
) -> list[CellResult]:
    """Condense finished traces into their :class:`CellResult` objects.

    Shared by the per-cell and cross-run runners so both condense
    identically (checker verdicts, probe extras, sorted decisions).
    Lite traces without a probe take the array verdict
    (`_array_verdicts`): a stacked run's on its stack's
    :class:`~repro.runtime.simulator.StackOutcome`, once for every row
    of the stack among ``traces``, and the other lite traces of one
    ``n`` as the rows of one stack (:meth:`StackOutcome.of_traces`; a
    single per-cell trace is a one-row stack).  A full trace, a probed
    run, the traces of a stack ``of_traces`` refuses (decisions not in
    ascending pid order) and a row the array verdict defers go through
    :func:`~repro.core.specification.check_trace`, its reference, in
    input order, so the first run the reference rejects raises.
    """
    results: list[CellResult | None] = [None] * len(traces)
    stacks: dict[int, tuple] = {}
    loose: dict[int, list[int]] = {}
    if probe_spec is None:
        for index, trace in enumerate(traces):
            if not isinstance(trace, LiteTrace):
                continue
            if trace.stack is None:
                loose.setdefault(trace.n, []).append(index)
                continue
            outcome, row = trace.stack
            _, indices, rows = stacks.setdefault(id(outcome), (outcome, [], []))
            indices.append(index)
            rows.append(row)
    for indices in loose.values():
        outcome = StackOutcome.of_traces([traces[index] for index in indices])
        if outcome is not None:
            stacks[id(outcome)] = (outcome, indices, range(len(indices)))
    for outcome, indices, rows in stacks.values():
        verdicts = _array_verdicts(
            outcome, rows, [cells[index] for index in indices], elapsed
        )
        for index, result in zip(indices, verdicts):
            results[index] = result
    for index, result in enumerate(results):
        if result is None:
            results[index] = _reference_result(
                cells[index], traces[index], probe_spec, elapsed
            )
    return results


def _reference_result(
    cell: CellSpec, trace, probe_spec, elapsed: float | None
) -> CellResult:
    """``trace`` condensed through ``check_trace`` and the trace's own
    spreads: the reference every other condensation must equal."""
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
        elapsed=elapsed,
    )


def _spread(values: list[float]) -> float:
    """``max(reversed(values)) - min(values)``: the last of the equal
    maxima less the first of the equal minima, the endpoints
    :meth:`~repro.msr.multiset.ValueMultiset.diameter`'s stable sort
    picks (``[0.0, -0.0]`` spreads ``-0.0``)."""
    return max(reversed(values)) - min(values)


def _array_verdicts(
    outcome: StackOutcome,
    rows: list[int],
    cells: list[CellSpec],
    elapsed: float | None,
) -> list[CellResult | None]:
    """The lite verdict of stack rows ``rows``: each one's
    :class:`CellResult` (for ``cells``), or ``None`` to defer it to the
    reference.

    Termination, epsilon-Agreement and Validity follow from what the
    stack kept, so no trace is read and no multiset is built.  Each
    row's input range (over its initially non-faulty processes) and
    decision range are masked reductions over the whole stack, laid
    out as extents before the first round and after the last; one
    subtraction then yields every row's diameters and decision
    spread, and one comparison checks the decisions and every round
    extent against the input range widened by ``FLOAT_TOLERANCE``, as
    :func:`~repro.core.specification.check_validity` does.  Spreads
    follow the `_spread` rule; numpy's min and max select the same
    endpoints except between equal signed zeros, which shows in a
    spread only when both endpoints are zero, so such a spread is
    taken by the rule from the row's values in pid order.  A NaN
    input or decision and an empty Validity reference set are where
    the reference raises, so those rows defer to it.
    """
    np = _np
    count = outcome.final.shape[0]
    hidden = np.concatenate((outcome.occupied, outcome.hosts))
    values = np.concatenate((outcome.initial, outcome.final))
    mins = np.where(hidden, np.inf, values).min(axis=1)[:, None]
    maxs = np.where(hidden, -np.inf, values).max(axis=1)[:, None]
    # (T + 2, R) extents: the inputs, each round, the decisions.  An
    # extent of nobody -- no decision, a round with every process
    # occupied, a round past the run's last -- reads (+inf, -inf), the
    # one kind whose low exceeds its high.
    lows = np.concatenate((mins[:count].T, outcome.lows, mins[count:].T))
    highs = np.concatenate((maxs[:count].T, outcome.highs, maxs[count:].T))
    absent = lows > highs
    with np.errstate(invalid="ignore"):
        spans = np.where(absent, 0.0, highs - lows)
    # An extent with low <= high lies inside [floor, ceiling] iff its
    # low is not below the floor and its high not above the ceiling.
    inside = (lows[0] - FLOAT_TOLERANCE <= lows) & (
        highs <= highs[0] + FLOAT_TOLERANCE
    )
    valid = (absent | inside).all(axis=0).tolist()
    agreed = (spans[-1] <= outcome.epsilon + FLOAT_TOLERANCE).tolist()
    spans = spans.T.tolist()
    input_lows, input_highs = lows[0].tolist(), highs[0].tolist()
    decided_lows, decided_highs = lows[-1].tolist(), highs[-1].tolist()
    executed = outcome.executed.tolist()
    terminated = outcome.terminated.tolist()
    results: list[CellResult | None] = []
    for cell, r in zip(cells, rows):
        decisions = outcome.decisions[r]
        series = spans[r]
        diameters = series[: executed[r] + 1]
        spread = series[-1]
        low, high = input_lows[r], input_highs[r]
        least, most = decided_lows[r], decided_highs[r]
        if not (low <= high) or least != least or (
            low == high == 0.0 or least == most == 0.0
        ):
            # No input (the Validity set is empty), a NaN, or a range
            # with two zero endpoints: the rule, or the reference.
            inputs = outcome.initial[r][~outcome.occupied[r]].tolist()
            decided = list(decisions.values())
            if not inputs or any(math.isnan(v) for v in inputs + decided):
                results.append(None)
                continue
            diameters[0] = _spread(inputs)
            if decided:
                spread = _spread(decided)
        results.append(
            CellResult(
                spec=cell,
                decisions=tuple(decisions.items()),
                rounds=executed[r],
                terminated=terminated[r],
                decision_diameter=spread,
                diameters=tuple(diameters),
                termination_ok=terminated[r],
                agreement_ok=agreed[r],
                validity_ok=valid[r],
                elapsed=elapsed,
            )
        )
    return results


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
                result = _condense_trace(
                    cell, trace, probe_spec, time.perf_counter() - started
                )
                span.set("rounds", result.rounds)
    if sampler is not None:
        drained = sampler.drain()
        if drained:
            result = replace(result, metrics=drained)
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

    The unit of work of every sweep (module level so it pickles): the
    cells are partitioned by :attr:`CellSpec.stack_key` -- the
    engine's own stacking rule, so attacks, movements, epsilons, round
    budgets and declared stateful families share a group -- and each
    group is handed to :func:`repro.runtime.simulator.simulate_many`,
    which stacks the group's runs into one ``(R, n)`` state array and
    advances them in lockstep -- one sort/fold pass per round for the
    whole group.  A group of one cell runs through :func:`run_cell`.
    Results are bit-identical to :func:`run_cell` execution and come
    back in input order; groups the stacked engine cannot take (full
    traces, stateful families without a declared
    :meth:`~repro.runtime.families.ProtocolFamily.lite_equivalent`,
    partial topologies) fall back to the per-run paths inside
    ``simulate_many`` itself.

    ``out`` -- a :class:`~repro.runtime.simulator.RunBatchOut`, slot
    ``i`` for ``cells[i]`` -- additionally lands each stacked group's
    results in the caller's buffer (the shared-memory path of
    :class:`~repro.sweep.backends.MultiprocessingBackend`), written
    from the condensed results once the whole group has succeeded;
    cells that never ran cleanly here (config and run errors, store
    hits, per-cell fallback reruns) leave their slot unwritten, which
    ``out.written`` records.
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
            # The double-check against the store matters: concurrent
            # shard invocations may have produced the cell since the
            # parent filtered its misses, and writing through here (not
            # in the parent) is what makes interrupted sweeps resumable.
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
        if len(indices) == 1:
            # A group of one gains nothing from stacking; run_cell
            # computes an error cell once, not once stacked and again
            # per cell.
            idx = indices[0]
            results[idx] = run_cell(
                cells[idx], trace_detail=trace_detail, probe=probe, kernel=kernel
            )
            if out is not None and results[idx].error is None:
                out.write(idx, results[idx])
            continue
        configs = []
        runnable: list[int] = []
        built = build_cell_configs([cells[idx] for idx in indices])
        for idx, config in zip(indices, built):
            if isinstance(config, Exception):
                results[idx] = _error_cell(cells[idx], config)
            else:
                configs.append(config)
                runnable.append(idx)
        if not runnable:
            continue
        started = time.perf_counter()
        group_span = trace_span("sweep.cell.group", runs=len(runnable))
        with group_span:
            try:
                traces = simulate_many(
                    configs, trace_detail=trace_detail, kernel=kernel
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
        # Each run's share of the group's one stacked pass.
        share = (time.perf_counter() - started) / len(runnable)
        for idx, result in zip(
            runnable,
            _condense_many(
                [cells[idx] for idx in runnable], traces, probe_spec, share
            ),
        ):
            results[idx] = result
        if out is not None:
            for idx in runnable:
                out.write(idx, results[idx])
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
            return MultiprocessingBackend(max(workers, 1))
        raise ValueError(
            f"unknown backend {backend!r}; known: serial, multiprocessing"
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
    :class:`~repro.sweep.backends.MultiprocessingBackend`, which
    degrades rung by rung (shm, pickle pool, in-process) without
    changing results.  ``backend`` overrides that default resolution
    with any :class:`~repro.sweep.backends.SweepBackend` or one of the
    names ``"serial"`` / ``"multiprocessing"`` (the pool).  ``cache`` -- a
    :class:`~repro.sweep.cache.CellStore` or a directory path -- is
    consulted before executing each cell and written through after.

    ``dispatch`` (one of :data:`~repro.sweep.backends.DISPATCH_MODES`)
    reaches the backend's pool decision with this call: ``serial``
    forces in-process execution, ``pool`` forces the worker pool even
    on one usable CPU (with a warning).  ``progress`` is called as
    ``progress(result, done, total)`` for every result exactly once,
    as each group of cells finishes.
    ``journal`` -- a :class:`~repro.sweep.service.SweepJournal` --
    replays cells completed by an interrupted earlier invocation and
    records each fresh result as it lands, making the sweep resumable.
    ``cross_run`` chooses the cross-run engine for in-process sweeps
    too: each compatible group advances as one stacked ``(R, n)``
    state array instead of cell by cell (label ``serial``), as the
    result's ``dispatch`` label records.  Pooled sweeps always run
    cross-run groups.

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
    store = CellStore(cache) if isinstance(cache, (str, Path)) else cache
    # Stores outlive sweeps (the serve daemon shares one across
    # requests), so registry counting below works on the delta.
    cache_before = store.snapshot() if store is not None else None

    # Every result flows through the reporter exactly once: journal
    # replays and cache hits immediately, executed cells as each group
    # finishes (one cell, a cross-run group or a stolen batch), anything
    # a backend did not emit early after execution returns.
    total = len(cells)
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
        journaled = list(journal.open(cells, trace_detail, probe).values())
        for result in journaled:
            report(result)
    remaining = (
        cells
        if journal is None
        else [cell for cell in cells if cell.key not in reported]
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
    try:
        hits: list[CellResult] = []
        missing = remaining
        if store is not None:
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
        runner = partial(
            run_cell_many,
            trace_detail=trace_detail,
            probe=probe,
            store=store,
            telemetry=tconfig,
        )
        executed = hits + resolved.execute_many(
            missing, runner, dispatch=dispatch, cross_run=cross_run
        )
        for result in executed:
            report(result)
    finally:
        resolved.on_result = None
        dispatch_span.set("label", resolved.dispatch)
        dispatch_span.__exit__(None, None, None)
    final = SweepResult(
        cells=tuple(sorted(journaled + executed, key=lambda result: result.key)),
        trace_detail=trace_detail,
        workers=resolved.workers,
        dispatch=resolved.dispatch,
        cache_stats=store.snapshot() if store is not None else None,
    )
    _record_sweep_metrics(resolved, final, cache_before)
    return final
