"""Execution traces: the full record of a simulated computation.

Every experiment and checker in this reproduction consumes a
:class:`Trace` rather than poking at live simulator state.  A trace
holds one :class:`RoundRecord` per executed round with the complete
fault pattern, message matrix, per-process multiset and MSR application
-- enough to re-derive any quantity the paper's proofs mention
(configurations, the non-faulty value set ``U``, diameters, the
equivalent static computation of Theorem 1).

Large scenario sweeps do not need that level of detail: they only ask
for decisions, round counts and diameter trajectories.  For them the
simulator offers ``trace_detail="lite"`` and returns a :class:`LiteTrace`
-- the same value dynamics, but recording only per-round non-faulty
extents (min/max) instead of full message matrices.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from ..faults.mixed_mode import FaultClass
from ..faults.models import MobileModel
from ..msr.base import MSRApplication
from ..msr.multiset import Interval, ValueMultiset

__all__ = ["BroadcastOutbox", "RoundRecord", "Trace", "LiteTrace"]


class BroadcastOutbox(Mapping):
    """O(1) stand-in for a broadcast's ``{recipient: value}`` outbox.

    The full-trace recorder used to materialize an ``n``-entry dict per
    broadcasting sender -- ``n^2`` dict entries per round, which is what
    made full traces an order of magnitude slower than lite.  A
    broadcast sends one value to everyone, so this mapping answers every
    recipient in constant space and compares equal to the dict it
    replaces.
    """

    __slots__ = ("n", "value")

    def __init__(self, n: int, value: float) -> None:
        self.n = n
        self.value = value

    def __getitem__(self, recipient: int) -> float:
        if isinstance(recipient, int) and 0 <= recipient < self.n:
            return self.value
        raise KeyError(recipient)

    def __contains__(self, recipient: object) -> bool:
        return isinstance(recipient, int) and 0 <= recipient < self.n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BroadcastOutbox):
            return other.n == self.n and (self.n == 0 or other.value == self.value)
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"BroadcastOutbox(n={self.n}, value={self.value!r})"


class _LazyWireMapping(Mapping):
    """Base for per-recipient views derived on demand from ``sent``.

    The send phase fully determines what every recipient received
    (synchronous reliable delivery on the complete graph), so the
    recorder stores the ``sent`` matrix once and these views rebuild
    per-recipient data only when a checker actually asks.  Entries are
    assembled in ascending sender order, matching the network's
    submission order, so derived multisets are bit-identical to the
    step()-recorded ones.
    """

    __slots__ = ("_sent", "_computing", "_keys", "_cache")

    def __init__(
        self,
        sent: Mapping[int, Mapping[int, float] | None],
        computing: tuple[int, ...],
    ) -> None:
        self._sent = sent
        self._computing = frozenset(computing)
        self._keys = computing
        self._cache: dict[int, object] = {}

    def __getitem__(self, pid: int):
        if pid not in self._computing:
            raise KeyError(pid)
        entry = self._cache.get(pid)
        if entry is None:
            entry = self._build(pid)
            self._cache[pid] = entry
        return entry

    def _build(self, pid: int):
        raise NotImplementedError

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, pid: object) -> bool:
        return pid in self._computing

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented


class _LazyReceived(_LazyWireMapping):
    """``received[q]``: the multiset ``q`` aggregated, built on demand."""

    __slots__ = ()

    def _build(self, pid: int) -> ValueMultiset:
        values = []
        for sender in sorted(self._sent):
            outbox = self._sent[sender]
            if outbox is not None and pid in outbox:
                values.append(outbox[pid])
        return ValueMultiset(values)


class _LazyHeard(_LazyWireMapping):
    """``heard[q]``: senders whose message reached ``q``, on demand."""

    __slots__ = ()

    def _build(self, pid: int) -> frozenset[int]:
        return frozenset(
            sender
            for sender, outbox in self._sent.items()
            if outbox is not None and pid in outbox
        )


class _LazyApplications(Mapping):
    """``applications[q]`` with O(1) results and on-demand stages.

    The computed result per pid is already known (it is the end-of-round
    value), so the P1/P2 checkers run in O(n) per round; the full
    reduced/selected stage breakdown is recomputed from the received
    multiset only if some consumer actually reads it.
    """

    __slots__ = ("_received", "_results", "_compute", "_cache")

    def __init__(
        self,
        received: Mapping[int, ValueMultiset],
        results: Mapping[int, float],
        compute,
    ) -> None:
        self._received = received
        self._results = results
        self._compute = compute
        self._cache: dict[int, _LazyApplication] = {}

    def __getitem__(self, pid: int) -> "_LazyApplication":
        app = self._cache.get(pid)
        if app is None:
            if pid not in self._received:
                raise KeyError(pid)
            app = _LazyApplication(self, pid, self._results[pid])
            self._cache[pid] = app
        return app

    def __iter__(self) -> Iterator[int]:
        return iter(self._received)

    def __len__(self) -> int:
        return len(self._received)

    def __contains__(self, pid: object) -> bool:
        return pid in self._received

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented


class _LazyApplication:
    """Duck-typed :class:`~repro.msr.base.MSRApplication` stand-in."""

    __slots__ = ("result", "_owner", "_pid", "_full")

    def __init__(self, owner: _LazyApplications, pid: int, result: float) -> None:
        self.result = result
        self._owner = owner
        self._pid = pid
        self._full: MSRApplication | None = None

    def _materialize(self) -> MSRApplication:
        if self._full is None:
            self._full = self._owner._compute(
                self._pid, self._owner._received[self._pid]
            )
        return self._full

    @property
    def received(self) -> ValueMultiset:
        return self._materialize().received

    @property
    def reduced(self) -> ValueMultiset:
        return self._materialize().reduced

    @property
    def selected(self) -> ValueMultiset:
        return self._materialize().selected

    def in_range(self, interval: Interval, tolerance: float = 1e-12) -> bool:
        return interval.contains(self.result, tolerance)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LazyApplication):
            return self._materialize() == other._materialize()
        if isinstance(other, MSRApplication):
            return self._materialize() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"_LazyApplication(pid={self._pid}, result={self.result!r})"


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one synchronous round."""

    round_index: int
    #: Agent hosts during the send phase (Byzantine senders).
    faulty_at_send: frozenset[int]
    #: Cured processes during the send phase.
    cured_at_send: frozenset[int]
    #: Occupied processes at the end of the round (differs from
    #: ``faulty_at_send`` only in M4).
    positions_after: frozenset[int]
    #: Memory of every process after movement/departure-corruption but
    #: before the send phase.
    values_before: Mapping[int, float]
    #: ``sent[p]`` is the recipient->value map process ``p`` submitted;
    #: ``None`` records a detected omission (silent process).
    sent: Mapping[int, Mapping[int, float] | None]
    #: ``received[q]`` is the multiset process ``q`` aggregated.  Only
    #: processes that executed the computation phase appear.
    received: Mapping[int, ValueMultiset]
    #: Senders heard by each computing process (omission bookkeeping).
    heard: Mapping[int, frozenset[int]]
    #: Full MSR application (reduced/selected stages) per computing process.
    applications: Mapping[int, MSRApplication]
    #: Memory of every process at the end of the round.
    values_after: Mapping[int, float]
    #: Static fault classes when driven by the mixed-mode controller.
    static_classes: Mapping[int, FaultClass] | None = None
    #: Multi-value message payloads for stateful families (tseng value/
    #: claim pairs, witness claim tables): ``payloads[p]`` is the
    #: structured message ``p`` put on the wire, keyed only for senders
    #: whose message carried more than the representative scalar in
    #: ``sent``.  ``None`` for scalar-message families.  Payloads are
    #: informational -- they are not archived by the serializer.
    payloads: Mapping[int, object] | None = None

    @property
    def correct_at_send(self) -> frozenset[int]:
        """Processes neither faulty nor cured during the send phase."""
        everyone = frozenset(self.values_before)
        return everyone - self.faulty_at_send - self.cured_at_send

    @property
    def nonfaulty_after(self) -> frozenset[int]:
        """Processes not occupied at the end of the round.

        By Lemma 5 these all hold correctly computed values once the
        computation phase ends -- cured processes recompute from the
        received multiset.
        """
        everyone = frozenset(self.values_after)
        return everyone - self.positions_after

    def sent_value_multiset(self, senders: frozenset[int]) -> ValueMultiset:
        """Multiset of the values broadcast by the given (honest) senders."""
        values = []
        for pid in senders:
            outbox = self.sent.get(pid)
            if outbox:
                # Honest senders broadcast one value; take any entry.
                values.append(next(iter(outbox.values())))
        return ValueMultiset(values)

    def honest_sent_values(self) -> ValueMultiset:
        """The paper's ``U``: values generated by correct processes.

        Cured processes are excluded -- the mapping of Section 4 counts
        their round behaviour as a (benign/symmetric/asymmetric) fault.
        """
        return self.sent_value_multiset(self.correct_at_send)

    def nonfaulty_values_after(self) -> dict[int, float]:
        """End-of-round values of processes not occupied afterwards."""
        return {pid: self.values_after[pid] for pid in sorted(self.nonfaulty_after)}

    def nonfaulty_diameter_after(self) -> float:
        """Diameter of the non-faulty values at the end of the round."""
        return ValueMultiset(self.nonfaulty_values_after().values()).diameter()


class _TraceStats:
    """Derived quantities shared by :class:`Trace` and :class:`LiteTrace`.

    Subclasses provide ``n``, ``f``, ``model``, ``algorithm_name``,
    ``initial_values``, ``initially_nonfaulty``, ``decisions``,
    ``terminated`` plus ``diameters()`` / ``rounds_executed()``.
    """

    def initial_nonfaulty_values(self) -> dict[int, float]:
        """Round-0 inputs of the initially non-faulty processes."""
        return {
            pid: self.initial_values[pid]
            for pid in sorted(self.initially_nonfaulty)
        }

    def validity_interval(self) -> Interval:
        """Range of the initially non-faulty inputs (Validity reference)."""
        values = list(self.initial_nonfaulty_values().values())
        if not values:
            raise ValueError("no initially non-faulty process")
        return Interval(min(values), max(values))

    def decision_diameter(self) -> float:
        """Spread of the decided values."""
        return ValueMultiset(self.decisions.values()).diameter()

    def contraction_factors(self) -> list[float]:
        """Per-round diameter ratios ``d_{k+1} / d_k`` (skipping zeros)."""
        series = self.diameters()
        factors = []
        for before, after in zip(series, series[1:]):
            if before > 0:
                factors.append(after / before)
        return factors

    def summary(self) -> str:
        """One-line human-readable outcome."""
        model = self.model.value if self.model else "static"
        return (
            f"{model} n={self.n} f={self.f} alg={self.algorithm_name}: "
            f"{self.rounds_executed()} rounds, "
            f"decision diameter {self.decision_diameter():.3g}, "
            f"terminated={self.terminated}"
        )


@dataclass
class Trace(_TraceStats):
    """A complete simulated computation plus its decision outcome."""

    n: int
    f: int
    model: MobileModel | None
    algorithm_name: str
    epsilon: float
    initial_values: Mapping[int, float]
    #: Processes not occupied at round 0: the Validity reference set.
    initially_nonfaulty: frozenset[int]
    rounds: list[RoundRecord] = field(default_factory=list)
    #: Final values of the processes non-faulty at the decision round.
    decisions: dict[int, float] = field(default_factory=dict)
    #: Whether the termination rule fired (False = max_rounds exhausted).
    terminated: bool = False
    controller_description: str = ""

    # -- structure --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self) -> Iterator[RoundRecord]:
        return iter(self.rounds)

    @property
    def final_round(self) -> RoundRecord:
        """The last executed round; raises if the trace is empty."""
        if not self.rounds:
            raise ValueError("trace contains no rounds")
        return self.rounds[-1]

    # -- paper quantities ---------------------------------------------------------

    def diameters(self) -> list[float]:
        """Non-faulty diameter trajectory: initial, then after each round."""
        initial = ValueMultiset(self.initial_nonfaulty_values().values())
        series = [initial.diameter()]
        series.extend(
            record.nonfaulty_diameter_after() for record in self.rounds
        )
        return series

    def rounds_executed(self) -> int:
        """Number of voting rounds that ran."""
        return len(self.rounds)


@dataclass
class LiteTrace(_TraceStats):
    """The fast-path record of a simulated computation.

    Produced by ``run_simulation(config, trace_detail="lite")``.  The
    simulated dynamics are bit-identical to the full-trace path; what
    differs is the record: instead of per-round message matrices and MSR
    applications, only the per-round extent (min, max) of the non-faulty
    values survives -- exactly enough to reproduce decisions, diameter
    trajectories, termination and the headline specification verdict
    (Termination / eps-Agreement / Validity), which sweeps read straight
    from the extents (:func:`repro.sweep.engine._array_verdicts`).  The
    per-round P1/P2 invariants need full message data and are not
    checkable on a lite trace.
    """

    n: int
    f: int
    model: MobileModel | None
    algorithm_name: str
    epsilon: float
    initial_values: Mapping[int, float]
    #: Processes not occupied at round 0: the Validity reference set.
    initially_nonfaulty: frozenset[int]
    #: Per-round (min, max) over the non-faulty values at round end;
    #: ``None`` marks a round in which every process was occupied.
    round_extents: tuple[tuple[float, float] | None, ...] = ()
    decisions: dict[int, float] = field(default_factory=dict)
    terminated: bool = False
    controller_description: str = ""

    #: ``(StackOutcome, row)`` of a run that
    #: :func:`~repro.runtime.simulator.simulate_many` stacked, ``None``
    #: otherwise: where the sweep engine's array verdict reads the run.
    #: Not a field, so it takes no part in equality, ``repr`` or
    #: :func:`dataclasses.fields`.
    stack = None

    def __len__(self) -> int:
        return len(self.round_extents)

    def rounds_executed(self) -> int:
        """Number of voting rounds that ran."""
        return len(self.round_extents)

    def diameters(self) -> list[float]:
        """Non-faulty diameter trajectory: initial, then after each round."""
        initial = ValueMultiset(self.initial_nonfaulty_values().values())
        series = [initial.diameter()]
        series.extend(
            0.0 if extent is None else extent[1] - extent[0]
            for extent in self.round_extents
        )
        return series
