"""The round-based synchronous simulator (paper Section 3).

Executes the paper's computational model: a sequence of synchronous
rounds, each divided into *send*, *receive* and *computation* phases,
with mobile Byzantine agents (or static mixed-mode faults) driven by a
:class:`~repro.runtime.controllers.FaultController`.

One round proceeds as:

1. **fault planning** -- the controller moves agents per the model's
   timing and fixes every corrupted send/compute of the round;
2. **send** -- correct processes broadcast their value via the
   protocol's send rule (which silences aware-cured processes, M1);
   faulty processes submit the adversary's per-recipient messages;
3. **receive** -- the network delivers all messages; omissions are
   detected (benign);
4. **computation** -- every non-occupied process applies the MSR
   function to its received multiset; occupied processes end the round
   with adversary-chosen garbage.  Cured processes thereby return to
   the correct state (Lemma 5).

The simulator is deterministic: a config (including its seed) fully
determines the produced trace.

A run is one round loop (:meth:`SynchronousSimulator._run_rounds`)
that owns the run policy: the round-0 received diameter the
:class:`~repro.runtime.termination.EstimatedRounds` rule budgets from,
the Validity reference set (the processes outside round 0's agent
placement), each round's non-faulty extent, the termination test and
the trace.  The round itself is one of four *bodies*, chosen once per
run: the array engine (numpy, a scalar protocol with the MSR broadcast
send rule and batchable MSR stages), the scalar round kernel (any
other scalar protocol), a stateful family's ``run_round``, or
:meth:`~SynchronousSimulator.step` for reference full traces.  The
cross-run engine (:func:`simulate_many`) advances many compatible runs
on one ``(R, n)`` stack with the same termination test.

Two levels of trace detail are supported.  ``trace_detail="full"`` (the
default) records everything the checkers and mapping experiments need:
message matrices, per-process multisets, MSR applications.  For large
scenario sweeps that only consume decisions and diameters,
``trace_detail="lite"`` executes the *same* value dynamics -- the
adversary RNG stream, fault plans, multisets and MSR arithmetic are
identical operation-for-operation -- but skips every per-round snapshot
(``sent``/``received``/``heard``/``applications``), bypasses the
network's bookkeeping, and returns a compact
:class:`~repro.runtime.trace.LiteTrace`.  Decisions, round counts and
diameter trajectories are bit-identical between the two modes.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Literal

from ..msr.base import MSRApplication
from ..msr.multiset import ValueMultiset
from .config import MobileFaultSetup, SimulationConfig, StaticMixedSetup
from .controllers import (
    CrossRunPlanner,
    FaultController,
    MobileFaultController,
    RoundPlan,
    StaticMixedController,
)
from ..telemetry import trace_span
from .families import get_family, stacking_key
from .kernel import RoundKernel
from .network import SynchronousNetwork
from .protocol import MSRVotingProtocol, StatefulRoundProtocol, VotingProtocol
from .rng import derive_rng
from .termination import FixedRounds
from .trace import (
    BroadcastOutbox,
    LiteTrace,
    RoundRecord,
    Trace,
    _LazyApplications,
    _LazyHeard,
    _LazyReceived,
)

try:  # numpy is optional: every scalar path below runs without it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = [
    "ArrayValues",
    "RunBatchOut",
    "ShmBatchLayout",
    "StackOutcome",
    "SynchronousSimulator",
    "run_simulation",
    "send_and_fold",
    "simulate_many",
    "TraceDetail",
]

TraceDetail = Literal["full", "lite"]


class RunBatchOut:
    """A caller-provided output buffer for a batch of condensed runs.

    Holds the stacked per-run result arrays -- final values, decision
    membership, executed round counts, termination flags and the
    diameter trajectory -- as writable views over a single flat buffer
    (typically a ``multiprocessing.shared_memory`` block mapped by
    :meth:`ShmBatchLayout.attach`).
    :func:`~repro.sweep.engine.run_cell_many` fills one row per run of
    a stacked group; the parent process reconstructs bit-identical
    results from the rows without any of the payload ever being
    pickled.

    ``written`` records which slots were actually filled, so callers
    can tell a written row from a slot whose run was skipped (cache
    hit) or errored before producing a result.
    """

    __slots__ = (
        "final_values",
        "decision_mask",
        "rounds",
        "terminated",
        "diameters",
        "diameter_len",
        "written",
    )

    def __init__(
        self,
        final_values,
        decision_mask,
        rounds,
        terminated,
        diameters,
        diameter_len,
    ) -> None:
        self.final_values = final_values
        self.decision_mask = decision_mask
        self.rounds = rounds
        self.terminated = terminated
        self.diameters = diameters
        self.diameter_len = diameter_len
        self.written: set[int] = set()

    def write(self, slot: int, result) -> None:
        """Record one condensed run into row ``slot``.

        ``result`` is a :class:`~repro.sweep.engine.CellResult` (any
        object with its ``decisions``, ``rounds``, ``terminated`` and
        ``diameters`` fields).  float64 round-trips are exact, so
        reconstruction is bit-identical to the result itself.
        """
        row = self.final_values[slot]
        mask = self.decision_mask[slot]
        mask[:] = 0
        for pid, value in result.decisions:
            row[pid] = value
            mask[pid] = 1
        self.rounds[slot] = result.rounds
        self.terminated[slot] = 1 if result.terminated else 0
        series = result.diameters
        if len(series) > self.diameters.shape[1]:
            raise ValueError(
                f"diameter series of {len(series)} entries exceeds the "
                f"planned capacity of {self.diameters.shape[1]} (layout "
                "planned from a different round budget?)"
            )
        self.diameters[slot, : len(series)] = series
        self.diameter_len[slot] = len(series)
        self.written.add(slot)


class ShmBatchLayout:
    """Array offsets of one :class:`RunBatchOut` inside a flat buffer.

    A compact, picklable header describing where the stacked result
    arrays of ``runs`` runs of ``n`` processes live inside one
    contiguous byte buffer (a shared-memory block): float64 final
    values and diameter series, int64 round counts and series lengths,
    uint8 decision masks and termination flags, each section aligned to
    its item size.  Workers plan the layout, create a block of
    :attr:`total_bytes`, and ship only this header plus per-run scalars
    back to the parent, which re-attaches the same views.
    """

    __slots__ = ("runs", "n", "diameter_cap")

    def __init__(self, runs: int, n: int, diameter_cap: int) -> None:
        if runs < 1 or n < 1 or diameter_cap < 1:
            raise ValueError(
                f"layout dimensions must be positive, got runs={runs}, "
                f"n={n}, diameter_cap={diameter_cap}"
            )
        self.runs = runs
        self.n = n
        self.diameter_cap = diameter_cap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShmBatchLayout(runs={self.runs}, n={self.n}, "
            f"diameter_cap={self.diameter_cap})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ShmBatchLayout)
            and self.runs == other.runs
            and self.n == other.n
            and self.diameter_cap == other.diameter_cap
        )

    def __reduce__(self):
        return (ShmBatchLayout, (self.runs, self.n, self.diameter_cap))

    def _sections(self) -> tuple[list[tuple[str, str, tuple[int, ...], int]], int]:
        """(name, dtype, shape, offset) for every array, plus the total."""
        specs = (
            ("final_values", "float64", (self.runs, self.n)),
            ("diameters", "float64", (self.runs, self.diameter_cap)),
            ("rounds", "int64", (self.runs,)),
            ("diameter_len", "int64", (self.runs,)),
            ("decision_mask", "uint8", (self.runs, self.n)),
            ("terminated", "uint8", (self.runs,)),
        )
        itemsizes = {"float64": 8, "int64": 8, "uint8": 1}
        sections = []
        offset = 0
        for name, dtype, shape in specs:
            item = itemsizes[dtype]
            offset = -(-offset // item) * item
            sections.append((name, dtype, shape, offset))
            offset += item * math.prod(shape)
        return sections, offset

    @property
    def total_bytes(self) -> int:
        """Bytes one buffer needs to hold every section."""
        return self._sections()[1]

    def attach(self, buffer) -> RunBatchOut:
        """Map the layout's arrays over ``buffer`` (zero-copy views)."""
        if _np is None:  # pragma: no cover - numpy is a test dependency
            raise RuntimeError("ShmBatchLayout.attach requires numpy")
        sections, total = self._sections()
        if len(buffer) < total:
            raise ValueError(
                f"buffer of {len(buffer)} bytes is too small for a "
                f"layout needing {total}"
            )
        arrays = {
            name: _np.frombuffer(
                buffer, dtype=dtype, count=math.prod(shape), offset=offset
            ).reshape(shape)
            for name, dtype, shape, offset in sections
        }
        return RunBatchOut(**arrays)


@dataclass(eq=False)
class StackOutcome:
    """A finished stack's verdict data: one row per run, as arrays.

    What :func:`simulate_many` keeps of a stack when its last run
    stops, for the sweep engine's array verdict
    (:func:`repro.sweep.engine._array_verdicts`) to condense every run
    of the stack at once:

    ``initial``, ``occupied``
        ``(R, n)`` float64 inputs and bool round-0 agent hosts; each
        run's Validity reference set is the complement of its hosts.
    ``final``, ``hosts``
        ``(R, n)`` end-of-run values and final agent hosts; the
        complement of the hosts decides.
    ``lows``, ``highs``
        ``(T, R)`` per-round non-faulty extents with the first-wins
        rescues patched in.  A round in which every process was
        occupied, and every round past a run's last, reads ``(+inf,
        -inf)``.
    ``executed``, ``terminated``, ``epsilon``
        ``(R,)`` rounds run, termination flags and each run's epsilon.
    ``decisions``
        Each run's ``{pid: value}`` decisions in pid order, gathered
        once from ``final`` and ``hosts``: the dict its trace holds.
    ``received``
        Each run's round-0 largest received diameter (a list of
        floats), which the EstimatedRounds rule budgets from.

    :meth:`of_traces` stacks lite traces produced any other way, such
    as a per-cell run's.
    """

    initial: object
    occupied: object
    final: object
    hosts: object
    lows: object
    highs: object
    executed: object
    terminated: object
    epsilon: object
    decisions: list
    received: list

    @classmethod
    def of_traces(cls, traces) -> "StackOutcome | None":
        """Lite traces of one ``n`` as the rows of a stack.

        ``None`` without numpy, and where a trace's decisions are not
        keyed by ascending pids ``0 <= pid < n``: the verdict reads
        decisions in pid order, which must then be the order the
        trace's own ``decision_diameter`` reads them in.  ``received``
        is left unknown (``None`` per row).
        """
        np = _np
        if np is None:
            return None
        n = traces[0].n
        count = len(traces)
        span = max(len(trace.round_extents) for trace in traces)
        pids_in_order = list(range(n))
        initial = np.empty((count, n))
        occupied = np.ones((count, n), dtype=bool)
        final = np.zeros((count, n))
        hosts = np.ones((count, n), dtype=bool)
        # Every extent as (low, high), (+inf, -inf) where nobody's.
        absent = (np.inf, -np.inf)
        extents = np.empty((span, count, 2))
        extents[:] = absent
        for r, trace in enumerate(traces):
            decisions = trace.decisions
            pids = list(decisions)
            if trace.n != n or pids != sorted(pids) or (
                pids and not (0 <= pids[0] and pids[-1] < n)
            ):
                return None
            inputs = trace.initial_values
            initial[r] = np.fromiter(
                inputs.values()
                if list(inputs) == pids_in_order
                else map(inputs.__getitem__, pids_in_order),
                np.float64,
                n,
            )
            nonfaulty = trace.initially_nonfaulty
            occupied[r, np.fromiter(nonfaulty, np.intp, len(nonfaulty))] = False
            decided = np.fromiter(pids, np.intp, len(pids))
            final[r, decided] = np.fromiter(
                decisions.values(), np.float64, len(pids)
            )
            hosts[r, decided] = False
            rounds = trace.round_extents
            if rounds:
                extents[: len(rounds), r] = np.fromiter(
                    chain.from_iterable(
                        absent if extent is None else extent for extent in rounds
                    ),
                    np.float64,
                    2 * len(rounds),
                ).reshape(-1, 2)
        return cls(
            initial=initial,
            occupied=occupied,
            final=final,
            hosts=hosts,
            lows=extents[:, :, 0],
            highs=extents[:, :, 1],
            executed=np.array([len(trace.round_extents) for trace in traces]),
            terminated=np.array([trace.terminated for trace in traces]),
            epsilon=np.array([trace.epsilon for trace in traces], dtype=np.float64),
            decisions=[trace.decisions for trace in traces],
            received=[None] * count,
        )


class ArrayValues(Mapping):
    """A per-round value snapshot backed by a float64 array.

    The vectorized round engine keeps agent state in one numpy array;
    fault controllers and value strategies, however, consume plain
    ``{pid: value}`` mappings.  This Mapping serves both: ``array``
    keeps the float64 mirror that array-aware consumers
    (``correct_range``, the split-camp assignment) duck-type via
    ``getattr(values, "array", None)``, while any mapping access
    materializes a dict of Python floats keyed ``0..n-1`` on first use
    (bit-identical iteration order and ``repr`` to the scalar path's
    snapshots).  The camp-declaring fast path never touches the dict,
    so deferring it saves an O(n) build per planned view.  The array is
    treated as immutable for the snapshot's lifetime -- mutation always
    goes through a copy.
    """

    __slots__ = ("array", "_dict")

    def __init__(self, array) -> None:
        self.array = array
        self._dict = None

    def _materialized(self) -> dict[int, float]:
        mapping = self._dict
        if mapping is None:
            mapping = self._dict = dict(enumerate(self.array.tolist()))
        return mapping

    def __getitem__(self, pid: int) -> float:
        return self._materialized()[pid]

    def __iter__(self):
        return iter(self._materialized())

    def __len__(self) -> int:
        return self.array.shape[0]

    def __contains__(self, pid: object) -> bool:
        return pid in self._materialized()

    def get(self, pid, default=None):
        return self._materialized().get(pid, default)

    def keys(self):
        return self._materialized().keys()

    def values(self):
        return self._materialized().values()

    def items(self):
        return self._materialized().items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArrayValues):
            other = other._materialized()
        if isinstance(other, Mapping):
            return self._materialized() == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # mutable-adjacent snapshot: unhashable, like dict


def _initial_values(config: SimulationConfig) -> dict[int, float]:
    """A fresh ``{pid: float}`` dict of ``config``'s inputs."""
    return dict(enumerate(map(float, config.initial_values)))


def _initial_view(initial_values) -> MappingProxyType:
    """The read-only ``{pid: float}`` view of a config's inputs."""
    return MappingProxyType(dict(enumerate(map(float, initial_values))))


def _extent(values, excluded) -> tuple[float, float] | None:
    """First-wins ``(min, max)`` of the values outside ``excluded``, or
    ``None`` when every pid is excluded.

    ``values`` is a ``{pid: value}`` dict or a float64 array indexed by
    pid.  Of equal values the lowest pid's wins, which fixes the sign
    of a ``0.0``/``-0.0`` endpoint; numpy's min/max may return either
    signed zero, so an array with a zero endpoint is rescanned in pid
    order.
    """
    if isinstance(values, dict):
        items = values.items()
    else:
        sub = values
        if excluded:
            mask = _np.ones(values.shape[0], dtype=bool)
            mask[list(excluded)] = False
            sub = values[mask]
        if sub.shape[0] == 0:
            return None
        low = sub.min()
        high = sub.max()
        if low != 0.0 and high != 0.0:
            return (float(low), float(high))
        items = enumerate(values.tolist())
    low = high = None
    for pid, value in items:
        if pid in excluded:
            continue
        if low is None or value < low:
            low = value
        if high is None or value > high:
            high = value
    return None if low is None else (low, high)


def send_and_fold(
    kernel: RoundKernel,
    protocol: VotingProtocol,
    evaluate,
    plan: RoundPlan,
    values: dict[int, float],
    cured_aware: bool,
    first_round: bool,
) -> float:
    """Send, receive and compute ``plan``'s round on ``values`` in place.

    Every process outside the plan's overrides and forced silence sends
    by ``protocol.send_value`` (``cured_aware`` silences M1's cured
    processes) into one shared sorted broadcast list; the receive and
    compute phases are :meth:`RoundKernel.compute_phase`, which
    evaluates the MSR function once per *distinct inbox* on flat sorted
    arrays (see :mod:`repro.runtime.kernel`).  ``evaluate`` is the
    kernel's :meth:`~RoundKernel.prepare` of ``protocol``.  Occupied
    processes keep their values (the caller applies the plan's
    garbage).  Returns the largest received diameter when
    ``first_round``.
    """
    n = len(values)
    overrides = plan.send_overrides
    # Override/forced-silent processes are excluded from the shared
    # broadcast list: their traffic is read straight from the plan's
    # per-recipient maps during the receive phase.
    broadcasts: list[float] = []
    for pid in range(n):
        if pid in overrides or pid in plan.forced_silent:
            continue
        aware_cured = cured_aware and pid in plan.cured_at_send
        value = protocol.send_value(pid, values[pid], aware_cured)
        if value is not None:
            broadcasts.append(value)
    broadcasts.sort()
    return kernel.compute_phase(
        protocol,
        evaluate,
        n,
        broadcasts,
        list(overrides.values()) if overrides else None,
        plan.compute_corruptions,
        values,
        first_round,
    )


def run_simulation(
    config: SimulationConfig,
    trace_detail: TraceDetail = "full",
    kernel: RoundKernel | None = None,
) -> Trace | LiteTrace:
    """Build a simulator from ``config``, run it to completion.

    ``kernel`` optionally supplies a shared :class:`RoundKernel` so
    callers running many lite simulations (sweep batches) reuse its
    scratch buffers; omitted, each run gets a fresh one.
    """
    return SynchronousSimulator(
        config, trace_detail=trace_detail, kernel=kernel
    ).run()


def _cross_run_key(config, trace_detail, kernel, folds):
    """Cross-run stacking class of ``config``'s run, or ``None``.

    The run's :func:`~repro.runtime.families.stacking_key` -- the one
    compatibility rule the sweep layer groups cells by too -- gated on
    the engine's own preconditions: lite detail, a mobile setup, and a
    batch evaluator for the folded family's protocol (numpy present,
    the fast kernel, batchable MSR stages).  Two runs sharing a key
    fold interchangeable multisets, so their rounds can share one
    width-grouped fold (:meth:`RoundKernel.fold_rows_many`); movement,
    attack, seeds and termination stay per run.  A stateful family's
    run keys as the scalar family it declares equivalent
    (:meth:`~repro.runtime.families.ProtocolFamily.lite_equivalent`),
    whose protocol the stack then runs in its place.

    The algorithm's name does not pin its stages (any
    :class:`~repro.msr.base.MSRFunction` may be called ``"MSR"``), so
    the returned key also holds the algorithm's type and its three
    stages, which compare by value for the built-in stages and by
    identity for others.  ``folds`` maps each returned key to its
    ``(protocol, batch evaluator)``, resolved once per key; a config
    whose own stages cannot batch keys ``None``.  ``None`` means the
    run stays on its per-cell path.
    """
    if trace_detail != "lite" or not isinstance(config.setup, MobileFaultSetup):
        return None
    algorithm = config.algorithm
    shape = stacking_key(
        config.n,
        config.f,
        algorithm.name,
        config.family,
        config.setup.model,
        config.topology,
    )
    if shape is None:
        return None
    key = (
        shape,
        type(algorithm),
        algorithm.reduction,
        algorithm.selection,
        algorithm.combiner,
    )
    try:
        fold = folds.get(key)
    except TypeError:  # a stage that compares by value but cannot hash
        return None
    if fold is None:
        protocol = get_family(shape[3]).build_protocol(config)
        fold = folds[key] = (protocol, _batch_evaluator(kernel, protocol))
    return None if fold[1] is None else key


def _batch_evaluator(kernel: RoundKernel, protocol):
    """The batched MSR evaluator when the array engine applies.

    Returns ``None`` (staying on the scalar paths) unless every
    precondition holds: numpy importable, a scalar protocol (which
    :class:`SynchronousSimulator` admits on the complete graph only, so
    there is one shared broadcast list per round), exactly the MSR
    broadcast-send rule (so the silence mask is ``overrides |
    forced_silent | aware-cured``), and batchable MSR stages per
    :meth:`RoundKernel.prepare_batch` -- which also encodes the
    kernel's mode (``None`` in the reference mode).
    """
    if _np is None or isinstance(protocol, StatefulRoundProtocol):
        return None
    if type(protocol).send_value is not MSRVotingProtocol.send_value:
        return None
    return kernel.prepare_batch(protocol)


def simulate_many(
    configs: Iterable[SimulationConfig],
    trace_detail: TraceDetail = "lite",
    kernel: RoundKernel | None = None,
) -> list[Trace | LiteTrace]:
    """Run many configs with cross-run vectorization where possible.

    The cross-run engine stacks compatible lite runs -- one
    :func:`~repro.runtime.families.stacking_key` (same ``n``, MSR
    function, folded family and mobile model), each passing the
    per-cell array body's preconditions (numpy, complete topology,
    broadcast sends, batchable MSR stages) -- into one ``(R, n)``
    float64 state matrix and advances all of them in lockstep: a fixed
    number of whole-stack array operations per round, whatever R is,
    round 0 included, for agent placement and movement, exclusion
    masks, correct ranges, corruption patches, the broadcast sort and
    the block fold of every row's camp inboxes, one sort for the stack
    and one select/combine per width (see
    :meth:`RoundKernel.fold_rows_many`), which in round 0 also yields
    each run's largest received diameter.  Runs that terminate early
    drop out of the active set, so converged rows stop costing work.

    Stacked runs are keyed from their configs: each key's protocol and
    batch evaluator are resolved once, and a stacked run builds only
    what planning and termination need -- its controller, its
    ``derive_rng(seed, "adversary")`` stream and its own copy of a
    stateful termination rule -- never a :class:`SynchronousSimulator`.
    Every run is set up, in input order, before the first round is
    played, so a construction error is raised before any run starts.

    Results are **bit-identical** to :func:`run_simulation` over each
    config: fault planning (:class:`CrossRunPlanner`, one per stack and
    so one mobile model) keeps agent hosts as ``(R, n)`` masks and
    calls the batched movement and class-value hooks once per group of
    runs, movement that draws randomness
    consumes each run's RNG stream in per-cell order, and batched
    quantities are used only where provably equal to the per-run
    derivation -- other rows take the per-run hooks (the equivalence
    suite pins this).  Each stacked run's :class:`LiteTrace` equals
    its :func:`run_simulation` trace and links its row of the stack's
    :class:`StackOutcome` as ``trace.stack``, which the sweep engine's
    array verdict reads.  The ``sim.many`` span records the run-rounds
    each planner route planned as ``planned``.

    A stateful family's lite run stacks too where its family declares
    it equivalent to a scalar family
    (:meth:`~repro.runtime.families.ProtocolFamily.lite_equivalent`:
    tseng under M1/M3/M4, witness under M1/M2, complete graph): it
    keys and folds as that family's row, and its trace keeps its own
    family.  A run left alone in its group runs its own
    :meth:`SynchronousSimulator.run` (a declared stateful run keeps its
    own rounds, which beats the per-cell array body on single small
    runs).  Configs that don't qualify -- full traces, undeclared
    stateful families, partial graphs, static-mixed setups, the
    reference kernel, no numpy -- silently fall back to that path too.
    """
    shared = kernel if kernel is not None else RoundKernel()
    configs = list(configs)
    with trace_span("sim.many", runs=len(configs)) as span:
        folds: dict[tuple, tuple] = {}
        keys = [
            _cross_run_key(config, trace_detail, shared, folds)
            for config in configs
        ]
        sizes: dict[tuple, int] = {}
        for key in keys:
            if key is not None:
                sizes[key] = sizes.get(key, 0) + 1
        # Set every run up in input order: a simulator for each run on
        # its per-cell path, the planning state for each stacked run.
        sims: dict[int, SynchronousSimulator] = {}
        groups: dict[tuple, list[int]] = {}
        setups: dict[int, tuple] = {}
        for index, (config, key) in enumerate(zip(configs, keys)):
            if key is None or sizes[key] == 1:
                # A batch of one gains nothing from stacking; the
                # per-cell array body is the same computation (and a
                # declared stateful run keeps its own rounds).
                sims[index] = SynchronousSimulator(
                    config, trace_detail=trace_detail, kernel=shared
                )
                if key is None:
                    continue
            else:
                setups[index] = _stack_row(config)
            groups.setdefault(key, []).append(index)
        traces: list = [None] * len(configs)
        for index, key in enumerate(keys):
            if key is None:
                traces[index] = sims[index].run()
        stacked = 0
        routes = {"batched": 0, "per_row": 0, "plan_round": 0}
        for key, indices in groups.items():
            if len(indices) == 1:
                traces[indices[0]] = sims[indices[0]].run()
                continue
            stacked += 1
            protocol, batch = folds[key]
            for index, trace in zip(
                indices,
                _run_lite_many(
                    [configs[i] for i in indices],
                    [setups[i] for i in indices],
                    protocol,
                    batch,
                    shared,
                    routes,
                ),
            ):
                traces[index] = trace
        span.set("stacked_groups", stacked)
        # Run-rounds planned per CrossRunPlanner route.
        span.set("planned", routes)
        return traces


def _stack_row(config: SimulationConfig) -> tuple:
    """What a stacked run keeps of its own: ``(controller, adversary
    RNG, termination rule)``.

    The controller is built as :class:`SynchronousSimulator` builds it
    (same canonical errors).  The rule is the run's own copy: rules
    may hold per-run state (EstimatedRounds keeps its budget), and one
    rule object may be shared by many configs.  A
    :class:`~repro.runtime.termination.FixedRounds` budget holds none,
    and the stack reads only its ``rounds``, so it is shared.
    """
    rule = config.termination
    if type(rule) is not FixedRounds:
        rule = copy.copy(rule)
    return (
        SynchronousSimulator._build_controller(config, config.resolve_topology()),
        derive_rng(config.seed, "adversary"),
        rule,
    )


def _run_lite_many(
    configs: list[SimulationConfig],
    setups: list[tuple],
    protocol: VotingProtocol,
    batch,
    kernel: RoundKernel,
    routes: dict,
) -> list[LiteTrace]:
    """The cross-run lite loop: R compatible runs on one (R, n) stack.

    ``setups`` holds each run's `_stack_row`; ``protocol`` and ``batch``
    are the stack key's folded protocol and batch evaluator.
    Bit-identity with each run's own :meth:`SynchronousSimulator.run`
    rests on the same three seams as the per-cell array body -- stable
    sorts over +inf-padded rows equal sorts of the masked subarrays
    (any sort does when no row holds a zero or a NaN, the only equal
    values whose bits differ),
    masked min/max reductions *select* elements (no arithmetic), and
    every signed-zero/degenerate endpoint falls back to the first-wins
    rescan (`_extent`) -- plus the :class:`CrossRunPlanner`'s per-run
    RNG ordering contract.  A round is a fixed number of whole-stack
    array operations whatever R is: one :meth:`CrossRunPlanner.plan_many`
    call, one masked sort of the broadcasts, one
    :meth:`RoundKernel.fold_rows_many` call (the block fold, round 0's
    received diameters included) and one masked reduction for the
    extents.  Per-run Python is left to the rows that need it: rows
    the fold cannot express take :func:`send_and_fold` with the key's
    protocol, flagged extents the first-wins rescan, and runs whose
    termination rule reads the extents that rule.  The termination
    test is :meth:`SynchronousSimulator._decides`'s: each family's
    schedule is asked once per round for the whole stack and each
    run's own rule decides (a stacked row's protocol is scalar, so no
    per-run schedule applies); a
    :class:`~repro.runtime.termination.FixedRounds` budget reads
    nothing of the round, so its run is simply due at its last round.
    Agent hosts stay ``(R, n)`` masks; position sets are built only
    for the rows the extent rescue flags.  ``routes`` accumulates the
    planner's run-rounds per route.

    When the stack ends its verdict data stays as arrays, a
    :class:`StackOutcome`: the round log becomes the ``(T, R)`` lows
    and highs with the rescued extents patched in, next to the final
    stack and hosts, the round-0 hosts and the round counts.  Each
    run's :class:`LiteTrace` links its row as ``trace.stack``.
    """
    np = _np
    first = configs[0]
    n = first.n
    run_count = len(configs)
    controllers = [setup[0] for setup in setups]
    rules = [setup[2] for setup in setups]
    cured_aware = SynchronousSimulator._model_cured_aware(first)
    # Scalar-kernel rows fold through the key's protocol; its flat
    # evaluator is resolved if a round needs it.
    evaluate = None
    initial = np.array(
        [config.initial_values for config in configs], dtype=np.float64
    )
    stack = initial.copy()
    occupied = None
    hosts_after = np.zeros((run_count, n), dtype=bool)
    terminated = [False] * run_count
    received: list[float | None] = [None] * run_count
    max_rounds = [config.max_rounds for config in configs]
    families = [get_family(config.family) for config in configs]
    stack_families = set(families)
    # Runs under a fixed budget, by the round they are due to stop.
    due: dict[int, list[int]] = {}
    for r, rule in enumerate(rules):
        if type(rule) is FixedRounds:
            due.setdefault(rule.rounds - 1, []).append(r)
    planner = CrossRunPlanner(
        controllers, [setup[1] for setup in setups], wrap=ArrayValues
    )

    # Per round: the active rows (a slice when all runs are) with their
    # batched lows and highs; the rescued extents as (round, run, extent).
    log: list[tuple] = []
    rescues: list[tuple] = []
    executed = [0] * run_count
    active = list(range(run_count))
    rows = slice(None)
    checked: list[tuple[int, int]] = [
        (r, r) for r in active if type(rules[r]) is not FixedRounds
    ]
    cap = min(max_rounds)
    refresh = False
    round_index = 0
    while True:
        if refresh or round_index >= cap:
            kept = []
            for r in active:
                if terminated[r] or round_index >= max_rounds[r]:
                    executed[r] = round_index
                else:
                    kept.append(r)
            active = kept
            if not active:
                break
            rows = slice(None) if len(active) == run_count else np.array(active)
            checked = [
                (i, r) for i, r in enumerate(active)
                if type(rules[r]) is not FixedRounds
            ]
            cap = min(max_rounds[r] for r in active)
            refresh = False
        first_round = round_index == 0
        whole = type(rows) is slice
        sub = stack if whole else stack[rows]
        plan = kernel.sampled("plan", planner.plan_many, round_index, sub, active)
        patched = plan.patched

        # -- send phase: one masked sort over the whole stack ----------
        counts = n - plan.silent.sum(axis=1)
        masked = np.where(plan.silent, np.inf, patched)
        # Only equal values with different bits -- signed zeros, NaNs --
        # tell the stable sort from numpy's much faster default one.
        inboxes = np.sort(
            masked,
            axis=1,
            kind=None if np.abs(masked).min() > 0.0 else "stable",
        )

        # -- receive+compute: the block fold across the runs ----------
        new_stack, scalar, folded_received = kernel.sampled(
            "fold", kernel.fold_rows_many, batch, np, inboxes, counts, plan,
            first_round,
        )
        for i in scalar:
            # This run's round isn't batchable (non-camp overrides,
            # below-bound fold): the scalar round kernel, as in the
            # per-cell array body, canonical errors included.
            if evaluate is None:
                evaluate = kernel.prepare(protocol)
            values = dict(enumerate(patched[i].tolist()))
            diameter = send_and_fold(
                kernel, protocol, evaluate, plan.plan(i), values, cured_aware,
                first_round,
            )
            new_stack[i] = list(values.values())
            if first_round:
                folded_received[i] = diameter
        if first_round:
            # Round 0 runs every row, cures nobody and mobile runs force
            # no silence, so its silent processes are exactly the
            # initial hosts.
            received = folded_received
            occupied = plan.silent.copy()
        np.copyto(new_stack, plan.garbage_values, where=plan.garbage)
        if whole:
            stack = new_stack
        else:
            stack[rows] = new_stack
        hosts_after[rows] = plan.after

        # -- extents: one masked reduction, per-run rescue ------------
        lows = np.where(plan.after, np.inf, new_stack).min(axis=1)
        highs = np.where(plan.after, -np.inf, new_stack).max(axis=1)
        log.append((rows, lows, highs))
        # Signed-zero endpoints and fully-excluded rows (a +inf low):
        # the per-cell first-wins scan decides.
        flagged = (lows == 0.0) | (highs == 0.0) | (lows == np.inf)
        rescued = {}
        if flagged.any():
            for i in np.flatnonzero(flagged).tolist():
                rescued[i] = extent = _extent(
                    new_stack[i],
                    frozenset(np.flatnonzero(plan.after[i]).tolist()),
                )
                rescues.append((round_index, active[i], extent))

        # -- termination: each run's own rule --------------------------
        ready = {
            family: family.decision_ready(round_index)
            for family in stack_families
        }
        for r in due.pop(round_index, ()):
            if round_index >= max_rounds[r]:
                continue
            if ready[families[r]]:
                terminated[r] = refresh = True
            elif round_index + 1 < max_rounds[r]:
                due.setdefault(round_index + 1, []).append(r)
        if checked:
            diameters = (highs - lows).tolist()
            for i, r in checked:
                if not ready[families[r]]:
                    continue
                if i in rescued:
                    extent = rescued[i]
                    diameter = 0.0 if extent is None else extent[1] - extent[0]
                else:
                    diameter = diameters[i]
                if rules[r].should_stop(round_index, diameter, received[r]):
                    terminated[r] = refresh = True
        round_index += 1

    planner.sync_positions()
    for route, planned in planner.routes.items():
        routes[route] += planned
    # The round log as (T, R) extents; a round past a run's last, like
    # one with every process occupied, reads (+inf, -inf).
    lows = np.full((len(log), run_count), np.inf)
    highs = np.full((len(log), run_count), -np.inf)
    for t, (rows, round_lows, round_highs) in enumerate(log):
        lows[t, rows] = round_lows
        highs[t, rows] = round_highs
    for t, r, extent in rescues:
        if extent is not None:
            lows[t, r], highs[t, r] = extent
    # Decisions: each run's final values outside its final hosts, in
    # pid order, gathered for the whole stack at once.
    deciding = ~hosts_after
    decided_pids = np.nonzero(deciding)[1].tolist()
    decided_values = stack[deciding].tolist()
    ends = np.cumsum(deciding.sum(axis=1)).tolist()
    outcome = StackOutcome(
        initial=initial,
        occupied=occupied,
        final=stack,
        hosts=hosts_after,
        lows=lows,
        highs=highs,
        executed=np.array(executed),
        terminated=np.array(terminated),
        epsilon=np.array([config.epsilon for config in configs]),
        decisions=[
            dict(zip(decided_pids[start:end], decided_values[start:end]))
            for start, end in zip([0] + ends, ends)
        ],
        received=received,
    )
    return _stack_traces(configs, controllers, outcome, rescues)


def _stack_traces(
    configs: list[SimulationConfig],
    controllers: list[MobileFaultController],
    outcome: "StackOutcome",
    rescues: list[tuple],
) -> list[LiteTrace]:
    """Each stacked run's :class:`LiteTrace`, linked to its row of
    ``outcome`` as ``trace.stack``.

    ``rescues`` holds the first-wins rescued extents as ``(round, run,
    extent)``; those the arrays read as ``(+inf, -inf)`` are ``None``.
    """
    np = _np
    n = configs[0].n
    executed = outcome.executed.tolist()
    extents = [
        list(zip(low[:count], high[:count]))
        for low, high, count in zip(
            outcome.lows.T.tolist(), outcome.highs.T.tolist(), executed
        )
    ]
    for t, r, extent in rescues:
        if extent is None:
            extents[r][t] = None
    hosts = np.nonzero(outcome.occupied)[1].tolist()
    host_ends = np.cumsum(outcome.occupied.sum(axis=1)).tolist()
    all_pids = frozenset(range(n))
    terminated = outcome.terminated.tolist()
    # Runs built from one initial-values tuple share its read-only
    # view, and runs placing their agents alike their Validity set.
    shared_initial: dict[int, MappingProxyType] = {}
    shared_nonfaulty: dict[tuple, frozenset] = {}
    traces = []
    start = 0
    for r, config in enumerate(configs):
        initial = config.initial_values
        view = shared_initial.get(id(initial))
        if view is None:
            view = shared_initial[id(initial)] = _initial_view(initial)
        placed = tuple(hosts[start : host_ends[r]])
        start = host_ends[r]
        nonfaulty = shared_nonfaulty.get(placed)
        if nonfaulty is None:
            nonfaulty = shared_nonfaulty[placed] = all_pids - frozenset(placed)
        trace = _lite_trace(
            config,
            controllers[r],
            outcome.decisions[r],
            nonfaulty,
            extents[r],
            terminated[r],
            view,
        )
        trace.stack = (outcome, r)
        traces.append(trace)
    return traces


def _lite_trace(
    config: SimulationConfig,
    controller: FaultController,
    decisions: dict[int, float],
    initially_nonfaulty: frozenset[int],
    extents: list[tuple[float, float] | None],
    terminated: bool,
    initial_values: Mapping[int, float] | None = None,
) -> LiteTrace:
    """A run's :class:`LiteTrace`.

    Every lite run ends here.  ``decisions`` holds the final values
    outside the final agent hosts, in pid order; ``initial_values`` is
    the `_initial_view` of the config's inputs, built here when not
    given.
    """
    return LiteTrace(
        n=config.n,
        f=config.f,
        model=SynchronousSimulator._setup_model(config),
        algorithm_name=config.algorithm.name,
        epsilon=config.epsilon,
        initial_values=(
            _initial_view(config.initial_values)
            if initial_values is None
            else initial_values
        ),
        initially_nonfaulty=initially_nonfaulty,
        round_extents=tuple(extents),
        decisions=decisions,
        terminated=terminated,
        controller_description=(
            f"{controller.describe()} | {config.describe()} "
            "| trace_detail=lite"
        ),
    )


class SynchronousSimulator:
    """Drives one configured computation to its decision."""

    def __init__(
        self,
        config: SimulationConfig,
        trace_detail: TraceDetail = "full",
        kernel: RoundKernel | None = None,
    ) -> None:
        # The config validated itself at construction (it is frozen).
        if trace_detail not in ("full", "lite"):
            raise ValueError(
                f"trace_detail must be 'full' or 'lite', got {trace_detail!r}"
            )
        self.config = config
        self.trace_detail: TraceDetail = trace_detail
        self.kernel = kernel if kernel is not None else RoundKernel()
        # The configured algorithm family decides the protocol shape:
        # scalar VotingProtocols run the kernel/array/step() bodies,
        # StatefulRoundProtocols run their own run_round.
        self.family = get_family(config.family)
        self.protocol: VotingProtocol | StatefulRoundProtocol = (
            self.family.build_protocol(config)
        )
        # The communication graph of the run; the complete default
        # leaves every path below byte-identical to pre-topology code.
        self.topology = config.resolve_topology()
        if not (
            self.topology.is_complete
            or isinstance(self.protocol, StatefulRoundProtocol)
        ):
            # Scalar protocols fold every process's broadcast: there is
            # no neighbor-aware round for them, at either trace detail.
            raise ValueError(
                f"the {self.family.name!r} family builds a scalar "
                f"VotingProtocol, which runs on the complete communication "
                f"graph only; topology {self.topology.spec!r} is not "
                "complete -- partially-connected runs need a "
                "StatefulRoundProtocol family with its own relay rounds, "
                "e.g. family='witness' (arXiv:1206.0089)"
            )
        # Only step() delivers through the network object.
        self.network = (
            SynchronousNetwork(config.n, topology=self.topology)
            if trace_detail == "full"
            else None
        )
        self.controller = self._build_controller(config, self.topology)
        self._adversary_rng = derive_rng(config.seed, "adversary")
        # A run's own copy of the rule: rules may hold per-run state
        # (EstimatedRounds keeps its budget), and one rule object may
        # be shared by many configs.
        self._termination = copy.copy(config.termination)
        # The scalar bodies' {pid: value} state: step() reads it from the
        # start, lite runs build it in _round_body (a stacked run never
        # reads it unless a round takes the scalar kernel).
        self._values = _initial_values(config) if trace_detail == "full" else None
        self._round_index = 0
        self._first_round_received_diameter: float | None = None
        self._cured_aware = self._model_cured_aware(config)
        self._trace = self._new_trace(config) if trace_detail == "full" else None

    # -- public API -----------------------------------------------------------

    def run(self) -> Trace | LiteTrace:
        """Execute rounds until the termination rule fires (or the cap)."""
        with trace_span(
            "sim.run", n=self.config.n, family=self.config.family
        ) as span:
            trace = self._run_rounds()
            span.set("rounds", trace.rounds_executed())
            return trace

    def step(self) -> RoundRecord:
        """Execute a single synchronous round and record it (full mode)."""
        if self.trace_detail != "full":
            raise RuntimeError(
                "step() requires trace_detail='full'; the lite fast path "
                "does not materialize RoundRecords"
            )
        plan = self.controller.plan_round(
            self._round_index, dict(self._values), self._adversary_rng
        )

        # Departing agents corrupt the memories they leave behind
        # (movement happens before the send phase in M1-M3).
        for pid, corrupted in plan.memory_corruptions.items():
            self._values[pid] = corrupted
        values_before = dict(self._values)

        sent = self._send_phase(plan)
        delivery = self.network.deliver()

        received: dict[int, ValueMultiset] = {}
        heard: dict[int, frozenset[int]] = {}
        applications: dict[int, MSRApplication] = {}
        computing = [
            pid for pid in range(self.config.n) if pid not in plan.compute_corruptions
        ]
        for pid in computing:
            inbox = delivery.by_recipient.get(pid, {})
            multiset = ValueMultiset(inbox.values())
            received[pid] = multiset
            heard[pid] = frozenset(inbox)
            application = self.protocol.compute(pid, multiset)
            applications[pid] = application
            self._values[pid] = application.result
        for pid, garbage in plan.compute_corruptions.items():
            self._values[pid] = garbage

        if self._round_index == 0:
            diameters = [m.diameter() for m in received.values()]
            self._first_round_received_diameter = max(diameters, default=0.0)

        record = self._record_round(
            plan,
            values_before,
            dict(self._values),
            sent,
            MappingProxyType(received),
            MappingProxyType(heard),
            MappingProxyType(applications),
        )
        if self._round_index == 0:
            # Round 0 is where initial agent placement becomes known; the
            # processes outside it are the Validity reference set.
            self._trace.initially_nonfaulty = (
                frozenset(range(self.config.n)) - plan.faulty_at_send
            )
        self._round_index += 1
        return record

    # -- the run loop ------------------------------------------------------------

    def _run_rounds(self) -> Trace | LiteTrace:
        """Run rounds until the termination test fires (or the cap).

        The run policy lives here once for every per-run engine: the
        round-0 received diameter and Validity reference set, each
        round's non-faulty extent, the termination test and the trace.
        The round itself is the body `_round_body` selects, which maps
        ``(round_index, values)`` to ``(plan, received, values)``:
        the round's :class:`RoundPlan` (or the :class:`RoundRecord`
        ``step()`` returns -- the loop reads only ``faulty_at_send`` and
        ``positions_after``), its largest received diameter (read in
        round 0) and the end-of-round values, a ``{pid: value}`` dict or
        a float64 array.  Full traces record inside the body.
        """
        n = self.config.n
        body, values = self._round_body()
        extents: list[tuple[float, float] | None] = []
        initially_nonfaulty = frozenset(range(n))
        positions_after: frozenset[int] = frozenset()
        terminated = False
        for _ in range(self.config.max_rounds):
            round_index = self._round_index
            plan, received, values = body(round_index, values)
            if round_index == 0:
                self._first_round_received_diameter = received
                initially_nonfaulty = frozenset(range(n)) - plan.faulty_at_send
            positions_after = plan.positions_after
            extent = _extent(values, positions_after)
            extents.append(extent)
            self._round_index = round_index + 1
            if self._decides(round_index, extent):
                terminated = True
                break

        if not isinstance(values, dict):
            values = values.tolist()
            self._values = dict(enumerate(values))
        trace = self._trace
        if trace is None:
            return _lite_trace(
                self.config,
                self.controller,
                {pid: values[pid] for pid in range(n) if pid not in positions_after},
                initially_nonfaulty,
                extents,
                terminated,
            )
        trace.initially_nonfaulty = initially_nonfaulty
        trace.terminated = terminated
        trace.decisions = dict(trace.final_round.nonfaulty_values_after())
        return trace

    def _decides(self, round_index: int, extent) -> bool:
        """The termination test after round ``round_index``.

        ``extent`` is the round's non-faulty ``(min, max)`` (``None``
        when every process is occupied: diameter 0).  Both round
        schedules must agree the round is a decision point -- the
        family's (stateless) and a stateful protocol's (per-run, e.g.
        witness phases spanning diameter-many rounds) -- before the
        run's termination rule decides.
        """
        protocol = self.protocol
        return (
            self.family.decision_ready(round_index)
            and (
                not isinstance(protocol, StatefulRoundProtocol)
                or protocol.decision_ready(round_index)
            )
            and self._termination.should_stop(
                round_index,
                0.0 if extent is None else extent[1] - extent[0],
                self._first_round_received_diameter,
            )
        )

    def _round_body(self):
        """This run's round body and its initial values (see `_run_rounds`).

        A stateful protocol runs its own ``run_round``.  A scalar one
        runs the array body where `_batch_evaluator` resolves a batch
        evaluator, else the scalar round kernel for lite traces and
        ``step()`` for full ones.
        """
        protocol = self.protocol
        if isinstance(protocol, StatefulRoundProtocol):
            protocol.recording = self._trace is not None
            protocol.reset(self.kernel)
            protocol.start(self.config.initial_values)
            return self._stateful_round, protocol.values
        batch = _batch_evaluator(self.kernel, protocol)
        if self._values is None:
            self._values = _initial_values(self.config)
        if batch is None and self._trace is not None:
            return self._step_round, self._values
        self._lite_evaluate = self.kernel.prepare(protocol)
        if batch is None:
            return self._kernel_round, self._values
        self._batch = batch
        n = self.config.n
        return self._array_round, _np.array(
            [self._values[pid] for pid in range(n)], dtype=_np.float64
        )

    # -- round bodies ------------------------------------------------------------

    def _step_round(self, round_index: int, values):
        """The reference full-trace body: :meth:`step`."""
        record = self.step()
        return record, self._first_round_received_diameter, self._values

    def _kernel_round(self, round_index: int, values):
        """The scalar round kernel on ``{pid: value}`` state.

        The value dynamics are identical to ``step()``: the fault plan
        (and its RNG consumption), the per-recipient multisets and the
        MSR arithmetic match operation-for-operation.  Only the
        recording differs -- none -- and the message exchange skips the
        network object's n^2 dictionary bookkeeping in favour of one
        shared broadcast list per round.
        """
        plan = self.controller.plan_round(
            round_index, dict(values), self._adversary_rng
        )
        for pid, corrupted in plan.memory_corruptions.items():
            values[pid] = corrupted
        received = self._kernel_compute(plan, round_index == 0)
        for pid, garbage in plan.compute_corruptions.items():
            values[pid] = garbage
        return plan, received, values

    def _kernel_compute(self, plan: RoundPlan, first_round: bool):
        """:func:`send_and_fold` of ``plan``'s round on ``self._values``."""
        return send_and_fold(
            self.kernel, self.protocol, self._lite_evaluate, plan,
            self._values, self._cured_aware, first_round,
        )

    def _array_round(self, round_index: int, arr):
        """The array body: one round on float64 state.

        Rounds the batch engine cannot express -- round 0, the only
        round needing the per-inbox received diameter, non-camp
        overrides and below-bound folds -- run through the scalar round
        kernel instead: same values, canonical errors.  Full traces
        record the round from its send-phase primitives
        (`_record_array_round`).
        """
        np = _np
        n = self.config.n
        plan = self.controller.plan_round(
            round_index, ArrayValues(arr), self._adversary_rng
        )
        if plan.memory_corruptions:
            arr = arr.copy()
            corruptions = plan.memory_corruptions
            arr[list(corruptions)] = list(corruptions.values())

        overrides = plan.send_overrides
        first_round = round_index == 0
        received = after = None
        if not first_round:
            mask = np.ones(n, dtype=bool)
            silent = set(overrides)
            silent.update(plan.forced_silent)
            if self._cured_aware and plan.cured_at_send:
                silent.update(plan.cured_at_send)
            if silent:
                mask[list(silent)] = False
            # Boolean masking preserves pid order, which is exactly the
            # scalar kernel's append order; the stable sort then matches
            # list.sort() bit for bit (signed-zero ties included).
            broadcasts = np.sort(arr[mask], kind="stable")
            after = self.kernel.compute_phase_batch(
                self._batch,
                np,
                broadcasts,
                list(overrides.values()) if overrides else None,
                n,
            )
        if after is None:
            self._values = dict(enumerate(arr.tolist()))
            received = self._kernel_compute(plan, first_round)
            after = np.array(list(self._values.values()), dtype=np.float64)
        garbage = plan.compute_corruptions
        if garbage:
            after[list(garbage)] = list(garbage.values())
        if self._trace is not None:
            self._record_array_round(plan, arr, after)
        return plan, received, after

    def _stateful_round(self, round_index: int, values):
        """A :class:`StatefulRoundProtocol` round.

        Everything family-specific -- message structure, carried state,
        the receive/compute fold -- lives in the protocol's
        ``run_round``.  Fault controllers observe the protocol's
        representative values, so every adversary and movement
        strategy applies unchanged.  Full traces flip the protocol's
        ``recording`` flag (`_round_body`) and fold its wire record
        (`_record_wire_round`); the value dynamics are untouched.
        """
        recording = self._trace is not None
        plan = self.controller.plan_round(
            round_index, dict(values), self._adversary_rng
        )
        if recording:
            # run_round applies memory corruptions first thing, so the
            # pre-send snapshot is the current values plus the plan's
            # corruptions.
            values_before = dict(values)
            values_before.update(plan.memory_corruptions)
        received = self.kernel.sampled(
            "round", self.protocol.run_round, plan, self._cured_aware,
            round_index == 0,
        )
        if recording:
            self._record_wire_round(plan, values_before, dict(values))
        return plan, received, values

    # -- full-trace recorders ----------------------------------------------------

    def _record_round(
        self,
        plan: RoundPlan,
        values_before: dict,
        values_after: dict,
        sent: dict,
        received,
        heard,
        applications,
        payloads=None,
    ) -> RoundRecord:
        """Append ``plan``'s round to the full trace and return it."""
        record = RoundRecord(
            round_index=plan.round_index,
            faulty_at_send=plan.faulty_at_send,
            cured_at_send=plan.cured_at_send,
            positions_after=plan.positions_after,
            values_before=MappingProxyType(values_before),
            sent=MappingProxyType(sent),
            received=received,
            heard=heard,
            applications=applications,
            values_after=MappingProxyType(values_after),
            static_classes=plan.static_classes,
            payloads=MappingProxyType(payloads) if payloads else None,
        )
        self._trace.rounds.append(record)
        return record

    def _computing(self, plan: RoundPlan) -> tuple[int, ...]:
        """The processes computing in ``plan``'s round, in pid order."""
        garbage = plan.compute_corruptions
        return tuple(pid for pid in range(self.config.n) if pid not in garbage)

    def _record_array_round(self, plan: RoundPlan, before, after) -> None:
        """Record an array round from its send-phase primitives.

        ``sent`` holds one O(1)
        :class:`~repro.runtime.trace.BroadcastOutbox` per broadcaster
        (instead of an ``n``-entry dict), and
        ``received``/``heard``/``applications`` are lazy per-recipient
        views derived from ``sent`` on demand -- the P1/P2 checkers read
        only ``applications[*].result``, which is O(1), so full traces
        stop paying the ``n^2`` bookkeeping of ``step()``.
        """
        n = self.config.n
        protocol = self.protocol
        values_before = dict(enumerate(before.tolist()))
        values_after = dict(enumerate(after.tolist()))
        overrides = plan.send_overrides
        sent: dict = {}
        for pid in range(n):
            outbox = overrides.get(pid)
            if outbox is not None:
                # The plan's outboxes are immutable round snapshots
                # (frozen dicts / CampOutbox); storing them directly
                # keeps the recorder O(#camps) per override sender
                # instead of materializing n-entry dicts.
                sent[pid] = outbox
                continue
            if pid in plan.forced_silent:
                sent[pid] = None
                continue
            aware_cured = self._cured_aware and pid in plan.cured_at_send
            value = protocol.send_value(pid, values_before[pid], aware_cured)
            sent[pid] = None if value is None else BroadcastOutbox(n, value)
        computing = self._computing(plan)
        received = _LazyReceived(sent, computing)
        self._record_round(
            plan,
            values_before,
            values_after,
            sent,
            received,
            _LazyHeard(sent, computing),
            _LazyApplications(received, values_after, protocol.compute),
        )

    def _record_wire_round(self, plan: RoundPlan, values_before, values_after):
        """Record a stateful round from the protocol's wire record.

        The wire record holds the sent matrix of representative
        scalars, structured message payloads and -- where the family
        defines them -- aggregation snapshots.
        """
        protocol = self.protocol
        wire = protocol.wire_record or {}
        protocol.wire_record = None
        sent = wire.get("sent") or {}
        received = wire.get("received")
        if received is None:
            # Scalar-matrix families (tseng): derive the per-recipient
            # views lazily from the sent matrix.
            computing = self._computing(plan)
            received = _LazyReceived(sent, computing)
            heard = _LazyHeard(sent, computing)
        else:
            heard = wire.get("heard") or {}
        self._record_round(
            plan,
            values_before,
            values_after,
            sent,
            received,
            heard,
            wire.get("applications") or {},
            wire.get("payloads"),
        )

    # -- phases ----------------------------------------------------------------

    def _send_phase(self, plan: RoundPlan) -> dict[int, dict[int, float] | None]:
        """Run the send phase; returns the recorded message matrix."""
        self.network.begin_round(plan.round_index)
        sent: dict[int, dict[int, float] | None] = {}
        for pid in range(self.config.n):
            if pid in plan.send_overrides:
                outbox = dict(plan.send_overrides[pid])
                self.network.submit(pid, outbox)
                sent[pid] = outbox
                continue
            if pid in plan.forced_silent:
                self.network.silent(pid)
                sent[pid] = None
                continue
            aware_cured = self._cured_aware and pid in plan.cured_at_send
            value = self.protocol.send_value(pid, self._values[pid], aware_cured)
            if value is None:
                self.network.silent(pid)
                sent[pid] = None
            else:
                self.network.broadcast(pid, value)
                sent[pid] = {q: value for q in range(self.config.n)}
        return sent

    # -- construction helpers ----------------------------------------------------

    @staticmethod
    def _build_controller(
        config: SimulationConfig, topology=None
    ) -> FaultController:
        if isinstance(config.setup, MobileFaultSetup):
            return MobileFaultController(
                n=config.n,
                f=config.f,
                model=config.setup.model,
                adversary=config.setup.adversary,
                topology=topology,
            )
        if isinstance(config.setup, StaticMixedSetup):
            return StaticMixedController(
                n=config.n,
                assignment=config.setup.assignment,
                adversary=config.setup.adversary,
                topology=topology,
            )
        raise TypeError(f"unsupported fault setup {config.setup!r}")

    @staticmethod
    def _model_cured_aware(config: SimulationConfig) -> bool:
        if isinstance(config.setup, MobileFaultSetup):
            from ..faults.models import get_semantics

            return get_semantics(config.setup.model).cured_aware
        return False

    @staticmethod
    def _setup_model(config: SimulationConfig):
        return (
            config.setup.model
            if isinstance(config.setup, MobileFaultSetup)
            else None
        )

    def _new_trace(self, config: SimulationConfig) -> Trace:
        model = self._setup_model(config)
        # initially_nonfaulty is provisional until round 0 runs and the
        # initial agent placement becomes known; step() then fixes it.
        return Trace(
            n=config.n,
            f=config.f,
            model=model,
            algorithm_name=config.algorithm.name,
            epsilon=config.epsilon,
            initial_values=_initial_view(config.initial_values),
            initially_nonfaulty=frozenset(range(config.n)),
            controller_description=(
                f"{self.controller.describe()} | {config.describe()}"
            ),
        )
