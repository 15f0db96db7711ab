"""The round kernel: the trace-lite receive+compute hot path.

Profiling the sweep engine showed the lite path
spending nearly all of its time in the per-round inner loop: ``n`` MSR
evaluations, each allocating a :class:`~repro.msr.multiset.ValueMultiset`
chain (received, reduced, selected) over a copy-sorted inbox list.  That
cost is quadratic in ``n`` and collapses throughput at paper-scale
system sizes.  This module rebuilds that loop around two observations:

**Distinct inboxes.**  In the paper's model every correct process
*broadcasts* one value per round, so all recipients share one broadcast
multiset; only the per-recipient send overrides of faulty processes
differentiate inboxes.  And the MSR function ``F(N) = mean(Sel(Red(N)))``
is pid-independent (paper Section 4), so two recipients with the same
effective inbox compute the same value.  The kernel therefore groups
recipients by their override delta and evaluates once per *distinct
inbox* -- ``O(1 + #distinct override deltas)`` MSR evaluations per round
instead of ``O(n)``.  A symmetric attack yields one group; the classic
split attack yields three (broadcast-only, low camp, high camp) no
matter how large ``n`` grows.

**Flat-array multiset math.**  Every reduction in :mod:`repro.msr`
keeps a contiguous run of the sorted inbox, so ``Red`` is an index
range, ``Sel`` picks straight from that range, and ``mean`` folds the
picks -- no intermediate multiset objects.  The stage classes expose
this as ``flat_bounds`` / ``flat_select`` / ``flat_combine`` hooks, and
:func:`compile_msr` fuses them into one flat evaluator per algorithm.
Override inboxes are assembled by ``bisect.insort`` into one reused
buffer instead of copy-sorting the whole broadcast list per recipient.

Both layers are bit-identical to the object path: ``math.fsum`` is
exactly rounded (container-independent), selections pick by increasing
index from a sorted array, and degenerate inputs (empty inbox, size
below the resilience bound) fall back to the object path so canonical
errors are raised verbatim.  With numpy present the fast mode goes one
step further and folds every distinct inbox of a round in one array
pass (:meth:`RoundKernel.compute_phase_batch`).  The kernel therefore
has exactly two modes: *fast* (all of the above, each layer engaging
where its preconditions hold) and *reference* (the per-recipient
object path).  The equivalence suite runs every scenario family in
both modes, and in the fast mode with numpy hidden, to prove it.

A :class:`RoundKernel` owns only reusable scratch state, so one
instance can serve many simulations: ``simulate_many`` runs a whole
cross-run group of sweep cells on shared buffers.
"""

from __future__ import annotations

import time
from bisect import insort
from collections.abc import Callable, Mapping, Sequence

from ..msr.base import MSRFunction
from ..msr.mean import Combiner
from ..msr.multiset import ValueMultiset
from ..msr.reduce import Reduction
from ..msr.select import Selection
from ..faults.value_strategies import CampOutbox
from .protocol import VotingProtocol

__all__ = [
    "BatchMSREvaluator",
    "RoundKernel",
    "compile_msr",
    "compile_msr_batch",
    "distinct_inbox_groups",
    "inbox_key",
]

#: A compiled, pid-independent computation-phase evaluator: maps a
#: sorted inbox (list or tuple of floats) to the next voted value.
FlatEvaluator = Callable[[Sequence[float]], float]

#: Sentinel marking "this override outbox does not target this pid" in
#: grouping keys; distinct from every float.
_MISSING = object()


def _overrides_flat_hook(instance: object, base: type, name: str) -> bool:
    """Whether ``instance``'s class provides its own flat hook."""
    return getattr(type(instance), name) is not getattr(base, name)


def compile_msr(function: MSRFunction) -> FlatEvaluator | None:
    """Fuse an MSR function's stages into one flat evaluator.

    Returns ``None`` when any stage lacks a flat hook (a custom
    reduction/selection/combiner outside :mod:`repro.msr`); callers
    then stay on the :meth:`~repro.msr.base.MSRFunction.apply_value`
    object path.  The returned evaluator is bit-identical to
    ``function.apply_value(ValueMultiset.from_trusted_floats(inbox))``
    for every sorted inbox, including raised errors: degenerate inputs
    are delegated to the object path verbatim.
    """
    reduction = function.reduction
    selection = function.selection
    combiner = function.combiner
    if not (
        _overrides_flat_hook(reduction, Reduction, "flat_bounds")
        and _overrides_flat_hook(selection, Selection, "flat_select")
        and _overrides_flat_hook(combiner, Combiner, "flat_combine")
    ):
        return None
    flat_bounds = reduction.flat_bounds
    flat_select = selection.flat_select
    flat_combine = combiner.flat_combine
    apply_value = function.apply_value
    wrap = ValueMultiset.from_trusted_floats

    def evaluate(inbox: Sequence[float]) -> float:
        if inbox:
            bounds = flat_bounds(inbox)
            if bounds is not None:
                lo, hi = bounds
                if hi > lo:
                    return flat_combine(flat_select(inbox, lo, hi))
        # Empty inbox, below the resilience bound, or a reduction that
        # emptied the multiset: take the object path so its canonical
        # errors surface unchanged.
        return apply_value(wrap(inbox))

    return evaluate


class BatchMSREvaluator:
    """The batched fold of one MSR function over equal-width inboxes.

    Wraps the three ``*_batch`` stage hooks (see
    :meth:`~repro.msr.reduce.Reduction.flat_bounds_width`,
    :meth:`~repro.msr.select.Selection.flat_select_batch`,
    :meth:`~repro.msr.mean.Combiner.flat_combine_batch`): ``bounds``
    answers the shared reduction range for a whole batch of sorted rows
    of one width, ``select`` slices the picked columns, ``combine``
    folds each row to one float64 value (an array; callers read it
    through ``numpy.asarray``, so a list of floats serves too).  Built
    by :func:`compile_msr_batch`.
    """

    __slots__ = ("bounds", "select", "combine")

    def __init__(self, bounds, select, combine) -> None:
        self.bounds = bounds
        self.select = select
        self.combine = combine


def compile_msr_batch(function: MSRFunction) -> BatchMSREvaluator | None:
    """Fuse an MSR function's batch stage hooks into one evaluator.

    The batched counterpart of :func:`compile_msr` for the vectorized
    round engine: one call evaluates every distinct inbox of a round at
    once on a 2D array of sorted rows.  Returns ``None`` when any stage
    lacks a batch hook (value-dependent reductions, custom stages);
    callers then stay on the scalar paths.  Results are bit-identical
    to the scalar flat evaluator row by row -- the equivalence suite
    compares the fast mode with and without numpy to prove it.
    """
    reduction = function.reduction
    selection = function.selection
    combiner = function.combiner
    if not (
        _overrides_flat_hook(reduction, Reduction, "flat_bounds_width")
        and _overrides_flat_hook(selection, Selection, "flat_select_batch")
        and _overrides_flat_hook(combiner, Combiner, "flat_combine_batch")
    ):
        return None
    return BatchMSREvaluator(
        reduction.flat_bounds_width,
        selection.flat_select_batch,
        combiner.flat_combine_batch,
    )


def inbox_key(
    pid: int, override_outboxes: Sequence[Mapping[int, float]]
) -> tuple:
    """The override delta recipient ``pid`` sees, as a grouping key.

    Two recipients receive the same effective inbox if and only if they
    see the same shared broadcast list (always true on the complete
    graph) and the same sequence of override values -- this tuple.
    Outbox order is the plan's iteration order, identical for every
    recipient of a round.
    """
    return tuple(
        float(outbox[pid]) for outbox in override_outboxes if pid in outbox
    )


def distinct_inbox_groups(
    n: int,
    override_outboxes: Sequence[Mapping[int, float]] | None,
    excluded: frozenset[int] | set[int] = frozenset(),
) -> dict[tuple, list[int]]:
    """Group recipients ``0..n-1`` by their effective-inbox key.

    ``excluded`` names recipients that skip the computation phase
    (occupied processes).  Every pid in a group sees exactly the same
    multiset during the receive phase; the kernel's grouped loop is the
    single-pass equivalent of evaluating one representative per group.
    Exposed for the property tests that pin down the grouping
    invariant.
    """
    groups: dict[tuple, list[int]] = {}
    for pid in range(n):
        if pid in excluded:
            continue
        key = inbox_key(pid, override_outboxes) if override_outboxes else ()
        group = groups.get(key)
        if group is None:
            groups[key] = [pid]
        else:
            group.append(pid)
    return groups


class RoundKernel:
    """Reusable engine for the lite computation phase of one round.

    Holds only scratch state (the insort buffer), so a single instance
    can be shared across rounds, simulations and whole sweep batches.

    Parameters
    ----------
    reference:
        ``False`` (the default) is the fast mode.  The simulator's
        scalar round-kernel body groups recipients by distinct
        effective inbox where the protocol declares
        ``pid_independent_compute`` and folds MSR functions through
        :func:`compile_msr`'s flat evaluator where every stage has a
        flat hook.  When numpy imports and the simulator's array
        preconditions hold (complete graph, broadcast sends, batch
        stage hooks), whole rounds fold as arrays instead: a single
        run's array body through :meth:`prepare_batch` /
        :meth:`compute_phase_batch`, a cross-run stack through
        :meth:`batch_rows` / :meth:`fold_rows_many`.  ``True`` is the
        in-tree reference implementation the equivalence suites compare
        against: the per-recipient ``ValueMultiset`` object path in the
        scalar round-kernel body, ``step()`` for full traces, and the
        stateful families' per-recipient (tseng) and unmemoized dict
        (witness) bodies.
    """

    __slots__ = ("reference", "telemetry", "_buffer")

    def __init__(self, *, reference: bool = False) -> None:
        self.reference = reference
        # A repro.telemetry KernelSampler when a tracing session wants
        # sampled phase timings; None keeps the phase entry points on
        # the single-slot-read fast path.
        self.telemetry = None
        self._buffer: list[float] = []

    def prepare(self, protocol: VotingProtocol) -> FlatEvaluator | None:
        """Resolve the flat evaluator for a run's protocol (or ``None``).

        Called once per simulation, not per round: compilation is cheap
        but not free, and the evaluator is immutable.
        """
        if self.reference or not protocol.pid_independent_compute:
            return None
        function = getattr(protocol, "function", None)
        if not isinstance(function, MSRFunction):
            return None
        return compile_msr(function)

    def prepare_batch(self, protocol: VotingProtocol) -> BatchMSREvaluator | None:
        """Resolve the batched evaluator for a run's protocol (or ``None``)."""
        if not protocol.pid_independent_compute:
            return None
        return self.batch_for(getattr(protocol, "function", None))

    def batch_for(self, function) -> BatchMSREvaluator | None:
        """The batched evaluator for ``function`` in the fast mode.

        ``None`` in the reference mode or unless ``function`` is an
        :class:`~repro.msr.base.MSRFunction` with batch stage hooks.
        Stateful families whose folds are pid-independent by
        construction (the witness relay) resolve their array rounds
        through this directly.
        """
        if self.reference or not isinstance(function, MSRFunction):
            return None
        return compile_msr_batch(function)

    def sampled(self, path: str, call, *args):
        """``call(*args)``, timed into the attached sampler on sampled ticks.

        The phase entry points and the stacked engine's planning and
        fold go through this; with no sampler attached it is one slot
        read and a call.
        """
        sampler = self.telemetry
        if sampler is None or not sampler.tick(path):
            return call(*args)
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            sampler.record(path, time.perf_counter() - start)

    def compute_phase_batch(
        self,
        batch: BatchMSREvaluator,
        np,
        broadcasts_arr,
        override_outboxes: Sequence[Mapping[int, float]] | None,
        n: int,
    ):
        """Sampling shim over :meth:`_compute_phase_batch` (the real
        vectorized phase)."""
        return self.sampled(
            "batch", self._compute_phase_batch,
            batch, np, broadcasts_arr, override_outboxes, n,
        )

    def _compute_phase_batch(
        self,
        batch: BatchMSREvaluator,
        np,
        broadcasts_arr,
        override_outboxes: Sequence[Mapping[int, float]] | None,
        n: int,
    ):
        """Vectorized receive+compute over every distinct inbox at once.

        ``broadcasts_arr`` is the round's sorted shared broadcast values
        as a float64 array.  Returns the new length-``n`` float64 value
        array (corrupted pids included -- they carry a harmless
        placeholder the caller overwrites), or ``None`` when this round
        is not batchable (non-camp overrides, an empty fold, or bounds
        below the resilience limit); the caller then takes the scalar
        path, which raises the canonical errors.

        Bit-identity with the scalar kernel rests on three facts:
        stable-sorting ``[broadcasts..., extras...]`` reproduces
        ``insort``'s after-equals placement (including ``-0.0``/``0.0``
        ties), the batch stage hooks are row-wise identical to the flat
        hooks, and results leave as Python floats via ``.tolist()``.
        """
        prepared = self.batch_rows(np, broadcasts_arr, override_outboxes)
        if prepared is None:
            return None
        rows, codes = prepared
        width = int(rows.shape[1])
        bounds = batch.bounds(width)
        if bounds is None:
            return None
        lo, hi = bounds
        if hi <= lo:
            return None
        if codes is None:
            results = batch.combine(batch.select(rows, lo, hi))
            return np.full(n, results[0], dtype=np.float64)
        rows = np.sort(rows, axis=1, kind="stable")
        results = np.asarray(
            batch.combine(batch.select(rows, lo, hi)), dtype=np.float64
        )
        return results[codes]

    def batch_rows(
        self,
        np,
        broadcasts_arr,
        override_outboxes: Sequence[Mapping[int, float]] | None,
    ):
        """Assemble one round's distinct-inbox row matrix, or ``None``.

        Returns ``(rows, codes)``: ``rows`` is a 2D float64 matrix with
        one row per distinct inbox (*not yet sorted*, except in the
        no-override case where the single row is the already-sorted
        broadcast array itself); ``codes`` maps each pid to its row
        index, or is ``None`` in the no-override case (every recipient
        folds row 0).  ``None`` overall means the round is not
        batchable (non-camp overrides, mixed assignments, an empty
        fold) and the caller must take the scalar path.

        Shared with the cross-run fold (:meth:`fold_rows_many`), which
        assembles the camp rows of its rows off the class route here.
        """
        m = int(broadcasts_arr.shape[0])
        if not override_outboxes:
            # Every recipient folds the same broadcast multiset.
            if m == 0:
                return None
            return broadcasts_arr.reshape(1, m), None

        # Identity-dedup mirrors the scalar grouped path: controllers
        # share one outbox object across sender-agnostic agents -- the
        # overwhelmingly common case, so probe for it before paying the
        # per-sender bookkeeping loop.
        first = override_outboxes[0]
        if all(outbox is first for outbox in override_outboxes):
            unique: list[Mapping[int, float]] = [first]
            slots: list[int] | None = None
        else:
            unique = []
            slots = []
            index_of: dict[int, int] = {}
            for outbox in override_outboxes:
                index = index_of.get(id(outbox))
                if index is None:
                    index = len(unique)
                    index_of[id(outbox)] = index
                    unique.append(outbox)
                slots.append(index)
        if not all(type(u) is CampOutbox for u in unique):
            return None
        assignment = unique[0].assignment
        if not all(u.assignment is assignment for u in unique[1:]):
            return None

        # Camp strategies stash the integer codes on the assignment
        # (see CampAssignment); fall back to encoding the plain tuple.
        codes = getattr(assignment, "array", None)
        if codes is None:
            codes = np.asarray(assignment, dtype=np.intp)
        ncamps = int(codes.max()) + 1
        k = len(override_outboxes)
        if m + k == 0:
            return None
        # One row per camp: the shared broadcasts plus this camp's
        # override values in slot order.  The scalar path materializes
        # only the camps that have recipients; evaluating all of them
        # is harmless because bounds depend only on the width.
        if slots is None:
            column = np.asarray(first.camp_values[:ncamps], dtype=np.float64)
            extras = np.broadcast_to(column.reshape(ncamps, 1), (ncamps, k))
        else:
            per_unique = np.asarray(
                [u.camp_values[:ncamps] for u in unique], dtype=np.float64
            )
            extras = per_unique[np.asarray(slots, dtype=np.intp)].T
        rows = np.concatenate(
            [np.broadcast_to(broadcasts_arr, (ncamps, m)), extras], axis=1
        )
        return rows, codes

    def fold_rows_many(
        self, batch: BatchMSREvaluator, np, inboxes, counts, plan, first_round
    ):
        """Fold a stacked round's inboxes in width blocks.

        ``inboxes`` is the stack's ``(R, n)`` sorted broadcasts, each row
        padded with ``+inf`` past its ``counts[i]`` broadcasts; ``plan``
        the round's :class:`~repro.runtime.controllers.StackPlan`.  A
        class-planned row's camp ``c`` folds its broadcasts plus, for
        each sender class ``s``, ``plan.class_counts[i, s]`` copies of
        ``plan.class_values[i, s, c]``, and recipient ``p`` takes camp
        ``plan.camp_codes[i, p]`` (camps 0 and 1).  Rows off the class
        route -- the per-row route's camp outboxes
        (``plan.row_outboxes``) and rows carrying their own
        :class:`~repro.runtime.controllers.RoundPlan` with override
        traffic -- fold the camp rows :meth:`batch_rows` assembles.

        The class rows form one ``(rows, camps, width)`` block: the
        class values are laid out after the broadcasts, padded with
        ``+inf``, and one stable sort orders every row, so each row's
        first ``width`` entries are its sorted inbox.  Each width then
        gets one ``select``/``combine`` and one pick over the camp codes,
        however many rows it holds.  The reduction bounds are a function
        of the width alone, the batch stage hooks are row-wise
        independent, and the class values are non-zero (so their order
        among equal values cannot show), which makes this bit-identical
        to folding each run separately; a camp slot a row does not use
        folds harmlessly and is never read.

        Returns ``(values, scalar, received)``: the ``(R, n)`` folded
        values (garbage recipients included -- the caller overwrites
        them), the rows the fold cannot express (non-camp overrides, an
        empty fold, a width below the resilience bound), in row order,
        whose values
        the caller computes with the scalar kernel and its canonical
        errors, and with ``first_round`` each row's largest received
        diameter over the camps of its computing recipients (``None``
        for the scalar rows).
        """
        count, n = inboxes.shape
        values = np.empty((count, n))
        received = [None] * count if first_round else None
        garbage = plan.garbage if first_round else None
        scalar: list[int] = []

        # -- rows off the class route: their own camp rows, row by row --
        own = dict(plan.row_outboxes)
        plans = plan.plans
        if plans.count(None) < count:
            for i, row in enumerate(plans):
                if row is not None and row.send_overrides:
                    own[i] = list(row.send_overrides.values())
        for i, outboxes in own.items():
            prepared = self.batch_rows(np, inboxes[i, : counts[i]], outboxes)
            if prepared is not None:
                rows, codes = prepared
                ncamps, width = rows.shape
                if self._fold_block(
                    batch, np, values, received, [i],
                    np.sort(rows, axis=1, kind="stable"), 1, ncamps,
                    None if ncamps == 1 else codes.reshape(1, n),
                    None if garbage is None else garbage[i : i + 1],
                ):
                    continue
            scalar.append(i)

        # -- the class rows: one block, one sort ---------------------------
        # Broadcast columns past the largest count are +inf in every row.
        class_counts = plan.class_counts
        ncamps = 1
        widths = counts
        block = inboxes[:, None, :]
        if class_counts is not None:
            peaks = class_counts.max(axis=0).tolist()
            if any(peaks):
                class_values = plan.class_values
                ncamps = class_values.shape[2]
                start = int(counts.max())
                block = np.empty((count, ncamps, start + sum(peaks)))
                block[:, :, :start] = inboxes[:, None, :start]
                for slot, peak in enumerate(peaks):
                    if peak:
                        block[:, :, start : start + peak] = np.where(
                            np.arange(peak) < class_counts[:, slot, None, None],
                            class_values[:, slot, :, None],
                            np.inf,
                        )
                        start += peak
                widths = counts + class_counts.sum(axis=1)
        members = np.arange(count)
        if own:
            members = np.delete(members, list(own))
            widths = widths[members]
        distinct = set(widths.tolist())
        if len(distinct) == 1 and not own:
            groups = [(distinct.pop(), slice(None))]
        else:
            groups = [(width, members[widths == width]) for width in distinct]
        size = block.shape[2]
        block = np.sort(
            block.reshape(count * ncamps, size), axis=1, kind="stable"
        )
        codes = plan.camp_codes
        for width, rows in groups:
            if type(rows) is slice:
                part = count
                sorted_rows = block[:, :width]
            else:
                part = rows.shape[0]
                sorted_rows = block.reshape(count, ncamps, size)[
                    rows, :, :width
                ].reshape(-1, width)
            if not self._fold_block(
                batch, np, values, received, rows, sorted_rows, part, ncamps,
                None if ncamps == 1 else codes[rows],
                None if garbage is None else garbage[rows],
            ):
                scalar.extend(
                    range(count) if type(rows) is slice else rows.tolist()
                )
        # In row order, so the first canonical error the caller's scalar
        # kernel raises is the first row's, as in a per-row loop.
        scalar.sort()
        return values, scalar, received

    @staticmethod
    def _fold_block(
        batch, np, values, received, rows, inboxes, size, ncamps, codes, garbage
    ) -> bool:
        """Fold one part of a stacked round into ``values[rows]``.

        ``inboxes`` holds ``size * ncamps`` sorted camp rows of one
        width, row by row; ``codes`` maps each recipient of each row to
        its camp (``None`` for one camp, a bool array for the class
        rows' two camps).  With ``garbage`` (round 0's) each row's
        largest received diameter lands in ``received``: only camps with
        a computing recipient count, as in the scalar kernel, and a
        sorted row's ``last - first`` is its spread up to the sign of a
        zero span, which the ``0.0`` floor absorbs as the scalar
        kernel's strict ``>`` against its ``0.0`` start does.  Returns
        ``False``, folding nothing, when the width is below the
        resilience bound.
        """
        width = inboxes.shape[1]
        bounds = batch.bounds(width) if width else None
        if bounds is None or bounds[1] <= bounds[0]:
            return False
        lo, hi = bounds
        folded = np.asarray(
            batch.combine(batch.select(inboxes, lo, hi)), dtype=np.float64
        )
        table = folded.reshape(size, ncamps)
        if codes is None:
            values[rows] = table
        elif codes.dtype == bool:
            values[rows] = np.where(codes, table[:, 1:2], table[:, :1])
        else:
            values[rows] = folded.take(codes + (np.arange(size) * ncamps)[:, None])
        if garbage is not None:
            spans = (inboxes[:, -1] - inboxes[:, 0]).reshape(size, ncamps)
            computing = ~garbage
            if codes is None:
                present = computing.any(axis=1)[:, None]
            else:
                present = np.zeros((size, ncamps), dtype=bool)
                hit, pid = np.nonzero(computing)
                present[hit, codes[hit, pid].astype(np.intp)] = True
            largest = np.where(present & (spans > 0.0), spans, 0.0).max(axis=1)
            for i, diameter in zip(
                range(size) if type(rows) is slice else rows, largest.tolist()
            ):
                received[int(i)] = diameter
        return True

    def compute_phase(
        self,
        protocol: VotingProtocol,
        evaluate: FlatEvaluator | None,
        n: int,
        broadcasts: list[float],
        override_outboxes: Sequence[Mapping[int, float]] | None,
        compute_corruptions: Mapping[int, float],
        values: dict[int, float],
        need_diameter: bool,
    ) -> float:
        """Sampling shim over :meth:`_compute_phase` (the real scalar
        phase)."""
        return self.sampled(
            "scalar",
            self._compute_phase,
            protocol, evaluate, n, broadcasts, override_outboxes,
            compute_corruptions, values, need_diameter,
        )

    def _compute_phase(
        self,
        protocol: VotingProtocol,
        evaluate: FlatEvaluator | None,
        n: int,
        broadcasts: list[float],
        override_outboxes: Sequence[Mapping[int, float]] | None,
        compute_corruptions: Mapping[int, float],
        values: dict[int, float],
        need_diameter: bool,
    ) -> float:
        """Run the receive+compute phase for every non-occupied process.

        ``broadcasts`` is the round's sorted shared broadcast list;
        ``override_outboxes`` the per-recipient override maps (or
        ``None``); ``evaluate`` the evaluator from :meth:`prepare`.
        Writes each computed value into ``values`` and returns the
        maximum received-multiset diameter (0.0 unless
        ``need_diameter``, which only the first round asks for).
        """
        grouped = not self.reference and protocol.pid_independent_compute
        compute_value = protocol.compute_value
        wrap = ValueMultiset.from_trusted_floats
        buffer = self._buffer
        max_diameter = 0.0

        if grouped:
            # One evaluation per distinct inbox, fanned out to every
            # recipient of the group in ascending pid order (so any
            # evaluation error surfaces at the same pid as the
            # per-recipient path).  Override maps are deduplicated by
            # identity first: controllers share one outbox across all
            # sender-agnostic agents, collapsing the per-recipient
            # grouping key from ``f`` lookups to one.
            unique: list[Mapping[int, float]] = []
            slots: list[int] = []
            if override_outboxes:
                index_of: dict[int, int] = {}
                for outbox in override_outboxes:
                    index = index_of.get(id(outbox))
                    if index is None:
                        index = len(unique)
                        index_of[id(outbox)] = index
                        unique.append(outbox)
                    slots.append(index)
            # Camp-declared outboxes sharing one recipient partition
            # (see repro.faults.value_strategies.CampOutbox) collapse
            # the grouping key to the camp index itself: no per-unique
            # probing, and #distinct inboxes == #camps by construction.
            camp_assignment = None
            camp_values: list[Sequence[float]] = []
            if unique and all(type(u) is CampOutbox for u in unique):
                assignment = unique[0].assignment
                if all(u.assignment is assignment for u in unique[1:]):
                    camp_assignment = assignment
                    camp_values = [u.camp_values for u in unique]
            if camp_assignment is not None:
                camp_cache: dict[int, tuple[float, float]] = {}
                for pid in range(n):
                    if pid in compute_corruptions:
                        continue
                    camp = camp_assignment[pid]
                    hit = camp_cache.get(camp)
                    if hit is None:
                        buffer[:] = broadcasts
                        for index in slots:
                            insort(buffer, camp_values[index][camp])
                        result = (
                            evaluate(buffer)
                            if evaluate is not None
                            else compute_value(
                                pid, ValueMultiset.from_trusted_floats(buffer)
                            )
                        )
                        diameter = buffer[-1] - buffer[0] if buffer else 0.0
                        hit = (result, diameter)
                        camp_cache[camp] = hit
                    values[pid] = hit[0]
                    if need_diameter and hit[1] > max_diameter:
                        max_diameter = hit[1]
                return max_diameter

            single = unique[0] if len(unique) == 1 else None
            cache: dict[tuple, tuple[float, float]] = {}
            for pid in range(n):
                if pid in compute_corruptions:
                    continue
                # The grouping key holds one entry per *unique* outbox;
                # the slot list restores per-sender multiplicity when
                # the inbox is materialized, so the key is exactly as
                # discriminating as the full per-sender override tuple.
                if single is not None:
                    value = single.get(pid, _MISSING)
                    key = (value if value is _MISSING else float(value),)
                elif unique:
                    key = tuple(
                        value if value is _MISSING else float(value)
                        for value in (
                            outbox.get(pid, _MISSING) for outbox in unique
                        )
                    )
                else:
                    key = ()
                hit = cache.get(key)
                if hit is None:
                    extras = [
                        key[slot] for slot in slots
                        if key[slot] is not _MISSING
                    ]
                    if extras:
                        buffer[:] = broadcasts
                        for value in extras:
                            insort(buffer, value)
                        inbox: Sequence[float] = buffer
                    else:
                        inbox = broadcasts
                    result = (
                        evaluate(inbox)
                        if evaluate is not None
                        else compute_value(pid, wrap(inbox))
                    )
                    diameter = inbox[-1] - inbox[0] if inbox else 0.0
                    hit = (result, diameter)
                    cache[key] = hit
                values[pid] = hit[0]
                if need_diameter and hit[1] > max_diameter:
                    max_diameter = hit[1]
            return max_diameter

        # Per-recipient path: pid-dependent protocols and the
        # reference mode.
        for pid in range(n):
            if pid in compute_corruptions:
                continue
            if override_outboxes is not None:
                buffer[:] = broadcasts
                for outbox in override_outboxes:
                    if pid in outbox:
                        insort(buffer, float(outbox[pid]))
                inbox = buffer
            else:
                inbox = broadcasts
            values[pid] = (
                evaluate(inbox)
                if evaluate is not None
                else compute_value(pid, wrap(inbox))
            )
            if need_diameter:
                diameter = inbox[-1] - inbox[0] if inbox else 0.0
                if diameter > max_diameter:
                    max_diameter = diameter
        return max_diameter
