"""Fault controllers: who misbehaves, when, and how, each round.

A :class:`FaultController` turns a fault model plus an adversary into a
per-round :class:`RoundPlan` the simulator executes mechanically.  Two
controllers cover the paper:

* :class:`MobileFaultController` -- the four mobile Byzantine models
  M1-M4 (paper Section 3), enforcing each model's movement timing and
  cured-state semantics;
* :class:`StaticMixedController` -- the static mixed-mode model of
  Kieckhafer-Azadmanesh [11] (benign / symmetric / asymmetric), which
  doubles as the classical static Byzantine model when only asymmetric
  faults are assigned.

Keeping the plan explicit (rather than interleaving adversary calls
with simulation steps) makes each round's fault pattern a first-class
value: traces record it, checkers inspect it, tests assert on it.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Mapping

try:  # numpy is optional: scalar planning never needs it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

from ..faults.adversary import Adversary
from ..faults.mixed_mode import FaultClass, StaticFaultAssignment
from ..faults.models import CuredSendBehavior, MobileModel, ModelSemantics, get_semantics
from ..faults.value_strategies import (
    CampAssignment,
    CampOutbox,
    CrossfireAttack,
    SplitAttack,
    ValueStrategy,
)
from ..faults.view import AdversaryView, batch_correct_ranges
from ..msr.multiset import Interval

__all__ = [
    "RoundPlan",
    "FaultController",
    "MobileFaultController",
    "StaticMixedController",
    "CrossRunPlanner",
    "StackPlan",
]


def _frozen_mapping(mapping: Mapping) -> Mapping:
    return MappingProxyType(dict(mapping))


def _checked_value(value: float, context: str) -> float:
    """Reject non-finite adversary outputs at the model boundary.

    The failure model ranges over *real* values; NaN or infinities are
    artifacts of a buggy strategy, and letting them into multisets
    would surface as confusing arithmetic failures rounds later.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(
            f"adversary produced non-finite value {value!r} ({context}); "
            "value strategies must return finite reals"
        )
    return value


def _with_corruptions(
    values: Mapping[int, float], corruptions: Mapping[int, float]
) -> Mapping[int, float]:
    """The round's value snapshot with memory corruptions applied.

    Without corruptions the snapshot itself is the answer (views never
    mutate it).  With corruptions, an array-backed snapshot (see
    :class:`~repro.runtime.simulator.ArrayValues`) is patched in array
    form so the attack view keeps its fast ``correct_range`` path;
    plain dicts take the classic copy-and-update.
    """
    if not corruptions:
        return values
    array = getattr(values, "array", None)
    if array is not None:
        patched = array.copy()
        patched[list(corruptions)] = list(corruptions.values())
        return type(values)(patched)
    attack_values = dict(values)
    attack_values.update(corruptions)
    return attack_values


def _float_outbox(outbox: dict[int, float]) -> dict[int, float]:
    """Coerce every outbox entry to ``float``, preserving order.

    Matches the per-message ``float(attack(...))`` coercion of the
    pre-batch controllers, so strategies returning ints keep working.
    """
    return {recipient: float(value) for recipient, value in outbox.items()}


def _checked_outbox(outbox: dict[int, float], context: str) -> dict[int, float]:
    """Validate a whole per-recipient map in one C-level pass.

    Equivalent to `_checked_value` on every entry, but the happy path
    (always, unless a strategy is buggy) costs one ``all(map(...))``
    instead of a Python call per message -- outbox construction is the
    hottest part of fault planning.
    """
    if not all(map(math.isfinite, outbox.values())):
        for recipient, value in outbox.items():
            _checked_value(value, f"{context}->p{recipient}")
    return outbox


def _camp_outbox(
    camps, view: AdversaryView, sender: int, n: int, context: str
) -> Mapping[int, float]:
    """Validate declared camps (O(#camps) per sender) into a CampOutbox.

    The assignment tuple is shared across the senders of a round
    (strategies memoize it on the view), so its O(n) shape scan runs
    once per round, not once per sender.  The id is stable for the
    round: the tuple stays alive in the plan's outboxes.
    """
    camps.validate_values(context)
    view.memo(
        ("camps-assignment-ok", id(camps.assignment), len(camps.values)),
        lambda: camps.validate_assignment(n, context),
    )
    return CampOutbox(camps)


def _attack_override(
    adversary: Adversary, view: AdversaryView, sender: int, n: int
) -> Mapping[int, float]:
    """One faulty sender's override map, via camps when declared.

    Camp-declaring strategies (see
    :meth:`~repro.faults.value_strategies.ValueStrategy.attack_camps`)
    skip the ``n``-entry dict entirely: validation is O(#camps), the
    shared assignment is built once per round, and the round kernel
    groups recipients by camp index.  The mapping is value-identical to
    the materialized outbox either way -- the strategy suite asserts it.
    """
    camps = adversary.attack_camps(view, sender)
    if camps is not None:
        return _camp_outbox(camps, view, sender, n, f"attack camps p{sender}")
    return MappingProxyType(
        _checked_outbox(
            _float_outbox(adversary.attack_outbox(view, sender, range(n))),
            f"attack message p{sender}",
        )
    )


def _planted_override(
    adversary: Adversary, view: AdversaryView, sender: int, n: int
) -> Mapping[int, float]:
    """One cured sender's M3 planted queue, via camps when declared.

    The planted-queue counterpart of :func:`_attack_override`: since
    most strategies plant exactly what they would attack with, their
    attack camps carry over and the per-recipient dict materialization
    (the ROADMAP's remaining O(n*f) planning floor) disappears for
    them too.  Value-identical to the materialized queue either way.
    """
    camps = adversary.planted_camps(view, sender)
    if camps is not None:
        return _camp_outbox(camps, view, sender, n, f"planted camps p{sender}")
    return MappingProxyType(
        _checked_outbox(
            _float_outbox(adversary.planted_outbox(view, sender, range(n))),
            f"planted message p{sender}",
        )
    )


def _sender_classes(key, n: int) -> tuple:
    """Every pid's sender class under ``key`` (all ``None`` without one)."""
    if key is None:
        return (None,) * n
    strategy = getattr(key, "__self__", None)
    if isinstance(strategy, ValueStrategy) and key == strategy.sender_class:
        return strategy.sender_classes(n)
    return tuple(map(key, range(n)))


def _class_keys(adversary: Adversary, n: int) -> tuple[tuple, tuple]:
    """Each pid's outbox and scalar sender class, resolved once per run.

    The two keys are the same strategy key wherever neither hook family
    is re-routed (every built-in strategy), and then share one tuple.
    """
    outbox_key = adversary.outbox_class
    scalar_key = adversary.scalar_class
    outbox = _sender_classes(outbox_key, n)
    if scalar_key == outbox_key:
        return outbox, outbox
    return outbox, _sender_classes(scalar_key, n)


def _per_class(cache: dict, key, build, pid: int):
    """``build(pid)``, shared by every pid of sender class ``key``.

    The first pid of a class builds (and so names any validation error);
    later pids of the class reuse its result.  A ``None`` key opts out
    of sharing: the pid builds its own.
    """
    if key is None:
        return build(pid)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = build(pid)
    return hit


def _fan_out(pids, classes, build) -> dict:
    """``{pid: build(pid)}`` in ``pids`` order, one build per class.

    ``classes[pid]`` is the pid's sender class (see
    :attr:`~repro.faults.adversary.Adversary.outbox_class`); under the
    sender-class contract every pid of a class would build an equal
    value from the same view, so sharing is bit-identical to the per-pid
    loop and consumes the same (no) randomness.
    """
    cache: dict = {}
    return {pid: _per_class(cache, classes[pid], build, pid) for pid in pids}


@dataclass(frozen=True)
class RoundPlan:
    """Everything fault-related that happens in one round.

    Attributes
    ----------
    faulty_at_send:
        Processes whose send phase the adversary controls this round.
    cured_at_send:
        Processes in the cured state during this round's send phase.
    positions_after:
        Agent hosts at the end of the round (equals ``faulty_at_send``
        except in M4, where agents move with the messages).
    memory_corruptions:
        Values the departing agents left in cured processes' memories;
        applied before the send phase.
    send_overrides:
        Per-recipient message maps for processes whose outgoing traffic
        the adversary dictates (faulty processes; M3 planted queues;
        static symmetric/asymmetric faults).
    forced_silent:
        Processes that omit regardless of protocol logic (static benign
        faults).  M1 cured silence is *not* forced here -- it is the
        protocol's own ``if cured: nop`` guard, driven by awareness.
    compute_corruptions:
        Garbage each occupied process's computation phase ends with.
    static_classes:
        For static runs, the fixed class of each non-correct process.
    """

    round_index: int
    faulty_at_send: frozenset[int]
    cured_at_send: frozenset[int]
    positions_after: frozenset[int]
    memory_corruptions: Mapping[int, float] = field(default_factory=dict)
    send_overrides: Mapping[int, Mapping[int, float]] = field(default_factory=dict)
    forced_silent: frozenset[int] = frozenset()
    compute_corruptions: Mapping[int, float] = field(default_factory=dict)
    static_classes: Mapping[int, FaultClass] | None = None


class FaultController(ABC):
    """Produces the per-round fault plan the simulator executes."""

    @abstractmethod
    def plan_round(
        self, round_index: int, values: Mapping[int, float], rng: random.Random
    ) -> RoundPlan:
        """Plan faults for ``round_index`` given the true current values."""

    @abstractmethod
    def describe(self) -> str:
        """Short description used in tables and traces."""


class MobileFaultController(FaultController):
    """Mobile Byzantine agents under one of the models M1-M4.

    The controller owns the agent positions between rounds.  Timing
    (paper Section 3):

    * M1-M3: agents move at the *beginning* of each round ``r >= 1``
      (before the send phase); the vacated processes are cured for
      round ``r``.
    * M4: agents move *with the messages*: the round-``r`` Byzantine
      senders are the current hosts, the agents then ride to their next
      hosts, whose computation phase is corrupted in round ``r`` --
      hence no process is ever cured at send time (Lemma 4).
    """

    def __init__(
        self,
        n: int,
        f: int,
        model: MobileModel,
        adversary: Adversary,
        topology=None,
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if f < 0:
            raise ValueError(f"f must be non-negative, got {f}")
        if f > n:
            raise ValueError(f"cannot place f={f} agents on n={n} processes")
        self.n = n
        self.f = f
        self.semantics: ModelSemantics = get_semantics(model)
        self.adversary = adversary
        #: The run's communication graph, exposed to strategies through
        #: the adversary view (the omniscient adversary reads wiring).
        self.topology = topology
        self._positions: frozenset[int] | None = None
        # Resolved once per run: each pid's sender class for outboxes
        # and for the scalar corruption hooks, so planning calls each
        # hook once per class present in a round instead of once per
        # agent.
        self._outbox_classes, self._scalar_classes = _class_keys(adversary, n)

    @property
    def positions(self) -> frozenset[int]:
        """Current agent hosts (after the last planned round)."""
        if self._positions is None:
            raise RuntimeError("no round planned yet")
        return self._positions

    def plan_round(
        self, round_index: int, values: Mapping[int, float], rng: random.Random
    ) -> RoundPlan:
        if self.f == 0:
            self._positions = frozenset()
            return RoundPlan(
                round_index=round_index,
                faulty_at_send=frozenset(),
                cured_at_send=frozenset(),
                positions_after=frozenset(),
            )
        if self.semantics.moves_with_message:
            plan = self._plan_buhrman(round_index, values, rng)
        else:
            plan = self._plan_round_start_movement(round_index, values, rng)
        self._positions = plan.positions_after
        return plan

    def describe(self) -> str:
        return (
            f"{self.semantics.model.value}"
            f"[{self.adversary.describe()}]"
        )

    # -- M1 / M2 / M3 -----------------------------------------------------------

    def _plan_round_start_movement(
        self, round_index: int, values: Mapping[int, float], rng: random.Random
    ) -> RoundPlan:
        if round_index == 0 or self._positions is None:
            # "During the first round r0 no Byzantine agent moved yet."
            positions = self.adversary.initial_positions(self.n, self.f, rng)
            cured: frozenset[int] = frozenset()
        else:
            movement_view = self._view(round_index, values, self._positions, frozenset(), rng)
            positions = self.adversary.next_positions(movement_view)
            self._check_positions(positions)
            cured = self._positions - positions

        # Departing agents corrupt the memories they leave behind.
        departure_view = self._view(round_index, values, positions, cured, rng)

        # Both value views this round share one exclusion mask over the
        # array snapshot (identical positions/cured); precomputing it
        # here spares each ``correct_range`` the set-union and the
        # boolean-buffer build.
        range_mask = None
        if _np is not None and getattr(values, "array", None) is not None:
            range_mask = _np.ones(self.n, dtype=bool)
            excluded = positions | cured
            if excluded:
                range_mask[list(excluded)] = False
            object.__setattr__(departure_view, "_range_mask", range_mask)

        adversary = self.adversary
        n = self.n
        memory_corruptions = _fan_out(
            cured,
            self._scalar_classes,
            lambda pid: _checked_value(
                adversary.departure_value(departure_view, pid),
                f"departure value for p{pid}",
            ),
        )

        attack_values = _with_corruptions(values, memory_corruptions)
        attack_view = self._view(round_index, attack_values, positions, cured, rng)
        if range_mask is not None:
            # attack_values is either the same snapshot or its patched
            # ArrayValues copy -- array-backed either way.
            object.__setattr__(attack_view, "_range_mask", range_mask)

        send_overrides = _fan_out(
            positions,
            self._outbox_classes,
            lambda pid: _attack_override(adversary, attack_view, pid, n),
        )
        if self.semantics.cured_send is CuredSendBehavior.PLANTED_QUEUE:
            send_overrides.update(
                _fan_out(
                    cured,
                    self._outbox_classes,
                    lambda pid: _planted_override(adversary, attack_view, pid, n),
                )
            )

        compute_corruptions = self._corrupted_computes(attack_view, positions)
        # The three mappings are freshly built above (never aliased),
        # so the read-only proxy can wrap them without a defensive copy.
        return RoundPlan(
            round_index=round_index,
            faulty_at_send=positions,
            cured_at_send=cured,
            positions_after=positions,
            memory_corruptions=MappingProxyType(memory_corruptions),
            send_overrides=MappingProxyType(send_overrides),
            compute_corruptions=MappingProxyType(compute_corruptions),
        )

    def _corrupted_computes(self, view, pids) -> dict[int, float]:
        """Checked corrupted-compute value per pid, one per class."""
        adversary = self.adversary
        return _fan_out(
            pids,
            self._scalar_classes,
            lambda pid: _checked_value(
                adversary.corrupted_compute(view, pid),
                f"corrupted compute for p{pid}",
            ),
        )

    # -- M4 ----------------------------------------------------------------------

    def _plan_buhrman(
        self, round_index: int, values: Mapping[int, float], rng: random.Random
    ) -> RoundPlan:
        if round_index == 0 or self._positions is None:
            hosts = self.adversary.initial_positions(self.n, self.f, rng)
        else:
            hosts = self._positions

        attack_view = self._view(round_index, values, hosts, frozenset(), rng)
        adversary = self.adversary
        n = self.n
        send_overrides = _fan_out(
            hosts,
            self._outbox_classes,
            lambda pid: _attack_override(adversary, attack_view, pid, n),
        )

        # Agents ride the messages to their next hosts, whose computation
        # phase this round is under agent control.  Vacated hosts are
        # cured *during the computation phase*, aware, and recompute
        # correctly -- so they need no plan entry beyond not being in
        # ``compute_corruptions``.
        movement_view = self._view(round_index, values, hosts, frozenset(), rng)
        next_hosts = self.adversary.next_positions(movement_view)
        self._check_positions(next_hosts)
        compute_corruptions = self._corrupted_computes(attack_view, next_hosts)
        return RoundPlan(
            round_index=round_index,
            faulty_at_send=hosts,
            cured_at_send=frozenset(),
            positions_after=next_hosts,
            send_overrides=MappingProxyType(send_overrides),
            compute_corruptions=MappingProxyType(compute_corruptions),
        )

    # -- helpers -----------------------------------------------------------------

    def _view(
        self,
        round_index: int,
        values: Mapping[int, float],
        positions: frozenset[int],
        cured: frozenset[int],
        rng: random.Random,
    ) -> AdversaryView:
        # The simulator hands a fresh per-round snapshot, so the view
        # can hold it directly -- no defensive copy -- and leave
        # ``correct_values`` to the view's lazy derivation (strategies
        # that only need correct_range() never pay for the dict).
        return AdversaryView.snapshot(
            round_index, self.n, self.f, values, positions, cured, rng, self.topology
        )

    def _check_positions(self, positions: frozenset[int]) -> None:
        if len(positions) > self.f:
            raise ValueError(
                f"adversary placed {len(positions)} agents, only f={self.f} exist"
            )
        if positions and (min(positions) < 0 or max(positions) >= self.n):
            bad = [pid for pid in positions if pid < 0 or pid >= self.n]
            raise ValueError(f"adversary placed agents on invalid ids {bad}")


class StaticMixedController(FaultController):
    """Static mixed-mode faults: the same processes misbehave forever.

    Realises Definitions 1-3 of the paper (quoting [11]):

    * benign processes omit every round (forced silence -- the
      self-incriminating fault every receiver detects);
    * symmetric processes broadcast one adversarial value, identical
      towards every receiver;
    * asymmetric processes send adversarially chosen per-recipient
      values -- classical Byzantine behaviour.
    """

    def __init__(
        self,
        n: int,
        assignment: StaticFaultAssignment,
        adversary: Adversary,
        topology=None,
    ) -> None:
        assignment.validate_for(n)
        self.n = n
        self.assignment = assignment
        self.adversary = adversary
        self.topology = topology
        self._classes = dict(assignment.items())
        self._outbox_classes, self._scalar_classes = _class_keys(adversary, n)

    def plan_round(
        self, round_index: int, values: Mapping[int, float], rng: random.Random
    ) -> RoundPlan:
        faulty = self.assignment.faulty_ids
        view = AdversaryView(
            round_index=round_index,
            n=self.n,
            f=len(faulty),
            values=values,
            positions=faulty,
            cured=frozenset(),
            rng=rng,
            topology=self.topology,
        )

        adversary = self.adversary
        n = self.n
        classes = self._outbox_classes

        def symmetric(pid: int) -> Mapping[int, float]:
            value = _checked_value(
                adversary.attack_message(view, pid, None),
                f"symmetric message from p{pid}",
            )
            return _frozen_mapping({q: value for q in range(n)})

        def asymmetric(pid: int) -> Mapping[int, float]:
            return _attack_override(adversary, view, pid, n)

        # One loop in class order keeps the overrides' iteration order;
        # each fault class shares its outboxes per sender class.
        send_overrides: dict[int, Mapping[int, float]] = {}
        forced_silent: set[int] = set()
        shared_symmetric: dict = {}
        shared_asymmetric: dict = {}
        for pid, fault_class in self._classes.items():
            if fault_class is FaultClass.BENIGN:
                forced_silent.add(pid)
            elif fault_class is FaultClass.SYMMETRIC:
                send_overrides[pid] = _per_class(
                    shared_symmetric, classes[pid], symmetric, pid
                )
            else:
                send_overrides[pid] = _per_class(
                    shared_asymmetric, classes[pid], asymmetric, pid
                )

        compute_corruptions = _fan_out(
            faulty,
            self._scalar_classes,
            lambda pid: _checked_value(
                adversary.corrupted_compute(view, pid),
                f"corrupted compute for p{pid}",
            ),
        )
        return RoundPlan(
            round_index=round_index,
            faulty_at_send=faulty,
            cured_at_send=frozenset(),
            positions_after=faulty,
            send_overrides=_frozen_mapping(send_overrides),
            forced_silent=frozenset(forced_silent),
            compute_corruptions=_frozen_mapping(compute_corruptions),
            static_classes=_frozen_mapping(self._classes),
        )

    def describe(self) -> str:
        counts = self.assignment.counts
        return f"static-mixed{counts}[{self.adversary.describe()}]"


def _flatten(np, collections):
    """Owner index, pid and length arrays of pid collections.

    ``collections[k]`` is any sized iterable of pids; ``pids`` lists
    them in iteration order, collection by collection, and ``owner[j]``
    is the ``k`` that ``pids[j]`` came from -- built without a Python
    loop over pids.
    """
    lengths = np.fromiter(map(len, collections), np.intp, len(collections))
    pids = np.fromiter(
        chain.from_iterable(collections), np.intp, int(lengths.sum())
    )
    return np.repeat(np.arange(len(collections)), lengths), pids, lengths


def _scatter_rows(np, target, rows, mappings) -> None:
    """Write each ``{pid: value}`` mapping into its row of ``target``."""
    if not any(mappings):
        return
    owner, pids, _ = _flatten(np, mappings)
    target[np.asarray(rows, dtype=np.intp)[owner], pids] = np.fromiter(
        chain.from_iterable(m.values() for m in mappings),
        np.float64,
        pids.shape[0],
    )


def _seeded_view(
    controller, round_index, values, positions, cured, rng, correct, interval
) -> AdversaryView:
    """A class-planned row's value view with the batched range seeded."""
    view = controller._view(round_index, values, positions, cured, rng)
    object.__setattr__(view, "_range_mask", correct)
    if interval is not None:
        object.__setattr__(view, "_correct_range", interval)
    return view


def _gather(table, offsets):
    """``table[i, codes[i, j]]`` for every row ``i`` and pid ``j``.

    ``offsets`` is the codes plus each row's start in the flattened
    table (:attr:`_Layout.offsets`).  A one-class table is returned as
    is: it broadcasts over the pids.
    """
    if table.shape[1] == 1:
        return table
    return table.take(offsets)


def _span(rows, count: int):
    """Sorted unique ``rows`` as the cheapest index selecting them.

    A full slice when they name all ``count`` rows, a slice when they
    are one contiguous run (sweeps order a stack's cells attack by
    attack, so a value group's rows usually are), else ``rows``.
    """
    size = rows.shape[0]
    if size == count:
        return slice(None)
    if size and int(rows[-1]) - int(rows[0]) == size - 1:
        return slice(int(rows[0]), int(rows[0]) + size)
    return rows


def _groups(gids, hooks):
    """``(hook, members)`` for each group id in ``gids``.

    ``members`` selects the group's entries of ``gids``: a full slice
    when one group covers them all (the common case), else an index
    array.
    """
    if not gids.shape[0]:
        return []
    first = int(gids[0])
    if (gids == first).all():
        return [(hooks[first], slice(None))]
    return [
        (hooks[gid], _np.flatnonzero(gids == gid))
        for gid in dict.fromkeys(gids.tolist())
    ]


def _interned(keys: list) -> tuple[list, list]:
    """Per-entry group ids of ``keys`` and the distinct keys by id."""
    ids: dict = {}
    gids = [ids.setdefault(key, len(ids)) for key in keys]
    return gids, list(ids)


class _RowRecord:
    """One class-planned row's round as the per-cell planner sees it.

    Built by the per-row route: the position sets in per-run iteration
    order and one hook result per class slot.
    """

    __slots__ = (
        "classes",
        "positions",
        "cured",
        "after",
        "planted",
        "outboxes",
        "departures",
        "computes",
    )

    def __init__(self, classes, positions, cured, after, planted) -> None:
        #: Each pid's sender-class index.
        self.classes = classes
        self.positions = positions
        self.cured = cured
        self.after = after
        self.planted = planted
        #: Outbox per class slot (attack classes, then planted classes).
        self.outboxes: dict[int, Mapping[int, float]] = {}
        self.departures: dict[int, float] = {}
        self.computes: dict[int, float] = {}

    def plan(self, round_index: int, slots: int) -> RoundPlan:
        """The per-cell :class:`RoundPlan` of this row's round.

        The mappings equal the per-cell planner's, in the same order.
        """
        classes = self.classes
        outboxes = self.outboxes
        overrides = {pid: outboxes[classes[pid]] for pid in self.positions}
        if self.planted:
            overrides.update(
                {pid: outboxes[slots + classes[pid]] for pid in self.cured}
            )
        departures = self.departures
        computes = self.computes
        return RoundPlan(
            round_index=round_index,
            faulty_at_send=self.positions,
            cured_at_send=self.cured,
            positions_after=self.after,
            memory_corruptions=MappingProxyType(
                {pid: departures[classes[pid]] for pid in self.cured}
            ),
            send_overrides=MappingProxyType(overrides),
            compute_corruptions=MappingProxyType(
                {pid: computes[classes[pid]] for pid in self.after}
            ),
        )


class _Round:
    """One :meth:`CrossRunPlanner.plan_many` call's shared state."""

    __slots__ = (
        "index",
        "stack",
        "runs",
        "wrap",
        "correct",
        "low",
        "high",
        "exact",
        "departures",
        "computes",
        "class_values",
        "class_counts",
        "camp_codes",
        "plans",
        "records",
        "row_outboxes",
        "sets",
        "_values",
    )

    def __init__(self, index, stack, layout: "_Layout", wrap) -> None:
        count = stack.shape[0]
        self.index = index
        self.stack = stack
        self.runs = layout.runs
        self.wrap = wrap
        #: Departure and compute values per class slot, ``(count,
        #: width)``: the layout's tables, whose cells are written in the
        #: round that reads them (see `_gather`'s callers).
        self.departures = layout.departures
        self.computes = layout.computes
        #: Batched rows' attack camp values per class, ``(count, width,
        #: C)``, and their override senders per class, ``(count, width)``.
        self.class_values = None
        self.class_counts = None
        #: Each batched row's recipient camps: True for camp 1 (the
        #: kinds ClassValues names have at most two), else camp 0.
        self.camp_codes = _np.zeros(stack.shape, dtype=bool)
        self.plans: list = [None] * count
        #: Per-row route results: a row's record, and its camp outboxes
        #: in per-cell ``send_overrides`` order.
        self.records: dict[int, _RowRecord] = {}
        self.row_outboxes: dict[int, list] = {}
        #: Run -> (positions before, positions after) this round's move,
        #: as per-run frozensets, once a consumer asked for them.
        self.sets: dict[int, tuple] = {}
        self._values: dict[int, object] = {}

    def values(self, i: int):
        """Row ``i``'s pre-corruption values as an array-backed Mapping."""
        values = self._values.get(i)
        if values is None:
            values = self._values[i] = self.wrap(self.stack[i])
        return values

    def interval(self, i: int) -> Interval | None:
        """Row ``i``'s batched correct range, ``None`` where the view
        must rescan (a signed-zero endpoint or no correct process)."""
        if not self.exact[i]:
            return None
        return Interval(float(self.low[i]), float(self.high[i]))


class _Layout:
    """Per-run constants of one active-run set (see
    :meth:`CrossRunPlanner._layout`), aligned with the stack rows."""

    __slots__ = (
        "key",
        "runs",
        "planned",
        "fallback",
        "fallback_rows",
        "rows",
        "span",
        "class_runs",
        "whole",
        "move_groups",
        "value_groups",
        "f",
        "offsets",
        "departures",
        "computes",
    )


class _MoveGroup:
    """The rows one :meth:`MovementStrategy.next_hosts` call steps.

    Built once per active-run set; :meth:`start` points it at a round.
    """

    __slots__ = (
        "strategies", "hosts", "n", "f", "stepped", "runs", "_planner",
        "_round", "_rows",
    )

    def __init__(self, planner, rows, runs, strategies, f, n) -> None:
        self.strategies = strategies
        self.f = f
        self.n = n
        self.hosts = None
        #: Whether the rows stepped through :meth:`masks_of`, which keeps
        #: their position sets current.
        self.stepped = False
        #: The rows' runs, whose position sets lag a batched step.
        self.runs = runs
        self._planner = planner
        self._round = None
        self._rows = rows

    def start(self, rnd, hosts) -> "_MoveGroup":
        """This group in round ``rnd``, its rows' current ``hosts``."""
        self._round = rnd
        self.hosts = hosts
        self.stepped = False
        return self

    def view(self, k: int) -> AdversaryView:
        """Row ``k``'s movement view, as its controller builds it."""
        planner = self._planner
        rnd = self._round
        i = int(self._rows[k])
        r = int(rnd.runs[i])
        return planner.controllers[r]._view(
            rnd.index,
            rnd.values(i),
            planner._settled(rnd, i),
            frozenset(),
            planner.rngs[r],
        )

    def masks_of(self, positions_list):
        """The rows' next ``positions`` as masks, each checked and kept
        as the run's per-run position set."""
        planner = self._planner
        rnd = self._round
        masks = _np.zeros_like(self.hosts)
        for k, positions in enumerate(positions_list):
            i = int(self._rows[k])
            r = int(rnd.runs[i])
            planner.controllers[r]._check_positions(positions)
            masks[k, list(positions)] = True
            rnd.sets[r] = (planner._settled(rnd, i), positions)
            planner._sets[r] = positions
        self.stepped = True
        return masks


class _ValueGroup:
    """The rows one :meth:`ValueStrategy.class_values` call plans.

    Built once per active-run set; :meth:`start` points it at a round.
    """

    __slots__ = (
        "strategies",
        "low",
        "high",
        "round_index",
        "senders",
        "hook",
        "rows",
        "span",
        "_planner",
        "_round",
        "_memo",
    )

    def __init__(self, planner, hook, senders, rows, strategies, count) -> None:
        self.hook = hook
        self.senders = senders
        self.strategies = strategies
        #: The group's stack rows, and the cheapest index selecting them.
        self.rows = rows
        self.span = _span(rows, count)
        self.low = self.high = self.round_index = None
        self._planner = planner
        self._round = None
        self._memo: dict = {}

    def memo(self, key, factory):
        """``factory()``, computed once for the group's life under
        ``key``: what a hook derives from the rows' strategies alone
        (their parameters) stays valid while the active set does."""
        memo = self._memo
        if key not in memo:
            memo[key] = factory()
        return memo[key]

    def start(self, rnd: _Round) -> "_ValueGroup":
        """This group in round ``rnd``: its rows' correct ranges."""
        self._round = rnd
        self.round_index = rnd.index
        # Copies: a hook may write into what it is handed.
        self.low = rnd.low[self.rows]
        self.high = rnd.high[self.rows]
        return self

    def plan_row(self, k: int) -> None:
        """Plan row ``k`` through its own views (the per-row route)."""
        self._planner._plan_row(self._round, int(self.rows[k]))


@dataclass
class StackPlan:
    """One round's faults for a stack of runs, as ``(R, n)`` arrays.

    Produced by :meth:`CrossRunPlanner.plan_many`; row ``i`` is the
    ``i``-th planned run.  The masks and value arrays cover every row.
    Batched rows carry their override traffic as camp values per sender
    class: ``class_values[i, s]`` holds the camp values of class slot
    ``s`` and ``class_counts[i, s]`` how many of the row's override
    senders send them (both ``None`` when no row is batched), and
    ``camp_codes[i]`` is True where a recipient takes camp 1 (camp 0
    elsewhere, and on every other row).
    Rows planned through the per-row route keep their camp outboxes, in
    the per-cell ``send_overrides`` order, in ``row_outboxes[i]``.
    ``plans[i]`` is ``None`` for those array rows; rows planned
    through their controller's
    :meth:`~MobileFaultController.plan_round` (and rows whose outboxes
    the stacked fold cannot express) carry their :class:`RoundPlan`
    there instead.  :meth:`plan` builds one on demand for any row.

    Attributes
    ----------
    patched:
        The send-phase snapshot: the stack with memory corruptions
        applied (aliases the input when none landed).
    silent:
        Processes that do not broadcast: override senders, forced
        silence and, where the model is cured-aware, cured processes.
    garbage, garbage_values:
        Processes whose computation the agents corrupt, and the values
        their round ends with (broadcastable to ``(R, n)``; read only
        where ``garbage`` holds).
    after:
        Agent hosts at the end of the round (``positions_after``).
    """

    round_index: int
    patched: object
    silent: object
    garbage: object
    garbage_values: object
    after: object
    plans: list
    camp_codes: object
    class_values: object
    class_counts: object
    row_outboxes: dict
    _plan_row: object

    def plan(self, i: int) -> RoundPlan:
        """Row ``i``'s :class:`RoundPlan` (built on demand)."""
        plan = self.plans[i]
        if plan is None:
            plan = self._plan_row(i)
        return plan


class CrossRunPlanner:
    """Batched per-round fault planning for R lockstep mobile runs.

    The cross-run engine (:func:`repro.runtime.simulator.simulate_many`)
    advances a whole batch of compatible runs on one ``(R, n)`` state
    matrix; this planner produces the round's faults for all of them as
    a :class:`StackPlan` of ``(R, n)`` arrays.  The runs share ``n`` and
    one mobile model, as the stacking key guarantees, so the model's
    timing -- M4 agents riding the messages, cured-aware silence, M3's
    planted queues -- is a constant of the stack: each round builds
    only the masks its model needs.  Per-run constants (class codes and
    their flat offsets, the movement and value groups, the class
    tables) are built once per set of active runs, not per round.

    Runs whose adversary declares sender classes and recipient camps
    (every built-in strategy except ``inertia`` and ``noise``, unless a
    subclass re-routes a hook) are *class-planned*.  The planner keeps
    their agent hosts as an ``(R, n)`` bool mask and builds each round
    from whole-stack array operations plus one call per group of rows:

    * movement is one :meth:`~repro.faults.movement.MovementStrategy.next_hosts`
      call per movement type (round-robin is a column roll, static the
      identity; other strategies step each run through its own
      ``next_positions``, consuming its RNG stream exactly as the
      per-cell planner does -- the value hooks of a class-declaring
      strategy consume none);
    * cured, silence, exclusion and garbage masks are mask algebra,
      correct ranges one masked reduction and split-camp codes one
      comparison over the whole stack;
    * class values come from one
      :meth:`~repro.faults.value_strategies.ValueStrategy.class_values`
      call per strategy type and sender-class layout, and departures,
      compute corruptions and the override senders per class are
      gathers and counts over those per-row class tables.

    A row takes the *per-row route* -- its own views and per-run hooks
    in per-cell order, what the base ``class_values`` runs -- when its
    strategy declares no batched hook (or a subclass re-routes one of
    its per-run hooks), when its batched correct range is unknown (a
    signed-zero endpoint or no correct process: the view rescans), or
    when its batched tables hold a non-finite value (the per-run hooks
    then raise the canonical error) or a signed zero camp value (whose
    fold order follows ``send_overrides``).  Per-run position sets are
    built only where a consumer reads them: the per-row route and
    :meth:`StackPlan.plan` replay the movement's ``next_positions`` to
    get them in per-run iteration order, and :meth:`sync_positions`
    hands each controller its final hosts.

    Every other run is planned by its own controller's
    :meth:`MobileFaultController.plan_round` -- the per-cell planner
    exactly.  Bit-identity with per-run planning follows from the
    sender-class contract plus the per-cell seams the views are seeded
    through (``_range_mask`` / ``_correct_range`` and the
    ``camps-split`` memo), which are only seeded with values the view
    would derive itself.

    Round 0 is planned here like any later round.  Each class-planned
    run places its agents through ``adversary.initial_positions`` (in
    run order, on its own RNG); M1-M3 agents stay put, so nobody is
    cured, and M4 agents ride the round-0 messages as in later rounds.
    Fallback runs' ``plan_round(0, ...)`` places their own agents.

    Controllers of two models raise :class:`ValueError`.  ``routes``
    counts the run-rounds each route planned.
    """

    def __init__(self, controllers, rngs, wrap) -> None:
        for controller in controllers:
            if not isinstance(controller, MobileFaultController):
                raise TypeError(
                    "CrossRunPlanner requires MobileFaultControllers, got "
                    f"{type(controller).__name__}"
                )
        np = _np
        self.controllers = list(controllers)
        self.rngs = list(rngs)
        models = list(dict.fromkeys(c.semantics.model for c in self.controllers))
        if len(models) > 1:
            raise ValueError(
                "CrossRunPlanner stacks runs of one mobile model, got "
                f"{models[0].value} and {models[1].value}"
            )
        #: Array-backed Mapping constructor (ArrayValues, injected to
        #: avoid a circular import with the simulator module).
        self._wrap = wrap
        #: Run-rounds planned per route.
        self.routes = {"batched": 0, "per_row": 0, "plan_round": 0}
        # The stack's model timing, as constants: M4 agents ride the
        # messages (nobody is cured at send time); cured processes stay
        # silent under cured-aware models and send M3's planted queues.
        semantics = self.controllers[0].semantics if self.controllers else None
        self._m4 = bool(semantics and semantics.moves_with_message)
        self._planted = bool(
            semantics and semantics.cured_send is CuredSendBehavior.PLANTED_QUEUE
        )
        self._quiet = bool(semantics and semantics.cured_aware) or self._planted
        self._split_strategy = [
            isinstance(c.adversary.values, (SplitAttack, CrossfireAttack))
            for c in self.controllers
        ]
        # Per run: each pid's sender-class index, or None for runs the
        # controller plans itself.  Outbox and scalar classes are the
        # same strategy key wherever neither hook family is re-routed.
        self._classes: list[tuple[int, ...] | None] = []
        move_keys: list = []
        value_keys: list = []
        # The batched hooks depend only on the adversary's classes, the
        # class codes only on the sender classes: runs sharing either
        # resolve them once.
        hooks: dict = {}
        # Sender-class tuple -> (codes, first senders, layout id), keyed
        # by identity: runs of one strategy type share the tuple object
        # (ValueStrategy.sender_classes), so no n-long tuple is hashed.
        layouts: dict = {}
        layout_ids: list[int] = []
        for controller in self.controllers:
            adversary = controller.adversary
            keys = controller._outbox_classes
            kinds = (type(adversary), type(adversary.movement), type(adversary.values))
            if kinds not in hooks:
                hooks[kinds] = [adversary.movement_hook, None]
            kind_hooks = hooks[kinds]
            movement = kind_hooks[0]
            if (
                controller.f == 0
                or movement is None
                or None in keys
                or keys != controller._scalar_classes
                or type(adversary.values).attack_camps is ValueStrategy.attack_camps
            ):
                self._classes.append(None)
                move_keys.append(None)
                value_keys.append(None)
                layout_ids.append(-1)
                continue
            if kind_hooks[1] is None:
                kind_hooks[1] = adversary.class_values_hook
            layout = layouts.get(id(keys))
            if layout is None:
                distinct = list(dict.fromkeys(keys))
                index = {key: code for code, key in enumerate(distinct)}
                # Each class by its first sender, as the batched hooks
                # see it.
                layout = layouts[id(keys)] = (
                    tuple(map(index.__getitem__, keys)),
                    tuple(map(keys.index, distinct)),
                    len(layouts),
                )
            codes, senders, layout_id = layout
            self._classes.append(codes)
            move_keys.append(movement)
            value_keys.append((kind_hooks[1], senders))
            layout_ids.append(layout_id)
        move_gids, self._move_hooks = _interned(move_keys)
        value_gids, self._value_hooks = _interned(value_keys)
        self._move_gid = np.array(move_gids, dtype=np.intp)
        self._value_gid = np.array(value_gids, dtype=np.intp)
        #: Class-code width: the most classes any run declares.
        self._slots = max(
            (len(senders) for _, senders, _ in layouts.values()), default=1
        )
        n = self.controllers[0].n if self.controllers else 0
        self._n = n
        # Each run's class codes: its layout's row (controller-planned
        # runs take the trailing zero row).
        self._codes = np.array(
            [codes for codes, _, _ in layouts.values()] + [(0,) * n],
            dtype=np.intp,
        ).reshape(len(layouts) + 1, n)[np.array(layout_ids, dtype=np.intp)]
        count = len(self.controllers)
        #: The parity camp codes, shared by every row of that kind.
        self._parity = np.arange(n) % 2 == 1
        self._planned = np.array([c is not None for c in self._classes], dtype=bool)
        self._f = np.array([c.f for c in self.controllers], dtype=np.intp)
        #: Class-planned runs' agent hosts after the last planned round.
        self._hosts = np.zeros((count, n), dtype=bool)
        #: Per-run position sets in per-run iteration order, each
        #: ``_lag`` batched movement steps behind ``_hosts``.
        self._sets: list[frozenset[int] | None] = [None] * count
        self._lag = np.zeros(count, dtype=np.intp)
        self._last_layout: _Layout | None = None

    def plan_many(self, round_index: int, stack, indices) -> StackPlan:
        """Plan ``round_index`` for the runs in ``indices``.

        ``stack`` holds one row per entry of ``indices`` (the active
        runs' current values, pre-corruption); the returned
        :class:`StackPlan` aligns with it.  Each run's first call must
        be its round 0, which places its agents.
        """
        np = _np
        count, n = stack.shape
        layout = self._layout(indices)
        rnd = _Round(round_index, stack, layout, self._wrap)
        plans = rnd.plans
        fallback = layout.fallback
        for i in fallback:
            r = indices[i]
            plans[i] = self.controllers[r].plan_round(
                round_index, rnd.values(i), self.rngs[r]
            )
        self.routes["plan_round"] += len(fallback)
        rows = layout.span

        # -- movement: one next_hosts call per movement type -------------
        # Round 0 places the agents; only M4's move (with the messages),
        # the others keep their initial hosts.
        move_groups = layout.move_groups
        if round_index == 0:
            move_groups = self._place(rnd, layout)
        prev = self._hosts if layout.whole else self._hosts[layout.class_runs]
        moved = np.empty_like(prev) if move_groups else prev
        for hook, members, group in move_groups:
            moved[members] = hook(group.start(rnd, prev[members]))
            if not group.stepped:
                self._lag[group.runs] += 1
        placed = moved.sum(axis=1)
        over = placed > layout.f
        if over.any():
            k = int(np.flatnonzero(over)[0])
            raise ValueError(
                f"adversary placed {int(placed[k])} agents, "
                f"only f={int(layout.f[k])} exist"
            )
        if layout.whole:
            self._hosts = moved
        else:
            self._hosts[layout.class_runs] = moved

        # -- masks: agents send, vacated hosts are cured (M1-M3) ---------
        # M4 agents ride the messages: the senders are the previous
        # hosts and nobody is cured at send time; nor in round 0.
        cured = None
        if self._m4:
            senders = prev
        else:
            senders = moved
            if round_index:
                cured = prev > moved
        after = garbage = moved
        if fallback:
            # Fallback rows' masks come from their own plans, which cure
            # nobody where the model does not (M4, round 0).
            families = [
                [
                    plans[i].send_overrides.keys() | plans[i].forced_silent
                    for i in fallback
                ],
                [plans[i].positions_after for i in fallback],
            ]
            masks = np.zeros((3 if cured is None else 4, count, n), dtype=bool)
            masks[0, rows] = senders
            masks[1, rows] = moved
            if cured is not None:
                families.append([plans[i].cured_at_send for i in fallback])
                masks[2, rows] = cured
            owner, pids, _ = _flatten(np, list(chain.from_iterable(families)))
            family, slot = np.divmod(owner, len(fallback))
            masks[family, layout.fallback_rows[slot], pids] = True
            senders, after = masks[0], masks[1]
            if cured is not None:
                cured = masks[2]
            # The compute corruptions cover the hosts after the round.
            garbage = after
        if cured is None:
            silent = occupied = outgoing = senders
        else:
            occupied = senders | cured
            silent = occupied if self._quiet else senders
            outgoing = occupied if self._planted else senders
        rnd.correct = correct = ~occupied
        rnd.low, rnd.high, rnd.exact = batch_correct_ranges(stack, correct)

        # -- class values: one class_values call per group ---------------
        exact = rnd.exact
        if (exact if not fallback else exact[layout.rows]).all():
            value_groups = layout.value_groups
        else:
            inexact = layout.planned & ~exact
            for i in np.flatnonzero(inexact).tolist():
                self._plan_row(rnd, i)
            value_groups = self._value_groups(
                layout.runs, np.flatnonzero(layout.planned & exact)
            )
        batched = []
        for group in value_groups:
            tables = group.hook(group.start(rnd))
            if tables is not None:
                batched.append((group, tables))
        kinds = self._fill_tables(rnd, batched)
        self.routes["per_row"] += len(rnd.records)

        # -- departures and compute corruptions: gathers by class --------
        # Fallback rows' class-table cells are stale; their own corruption
        # maps, which cover their cured and garbage pids, overwrite them.
        offsets = layout.offsets
        patched = stack
        if cured is not None and cured.any():
            patched = np.where(cured, _gather(rnd.departures, offsets), stack)
        garbage_values = _gather(rnd.computes, offsets)
        if fallback:
            memory = [plans[i].memory_corruptions for i in fallback]
            if any(memory):
                if patched is stack:
                    patched = stack.copy()
                _scatter_rows(np, patched, fallback, memory)
            computes = [plans[i].compute_corruptions for i in fallback]
            if any(computes):
                garbage_values = np.array(
                    np.broadcast_to(garbage_values, (count, n))
                )
                _scatter_rows(np, garbage_values, fallback, computes)

        # -- override senders per class ----------------------------------
        self._extras(rnd, layout, kinds, patched, outgoing)
        return StackPlan(
            round_index=round_index,
            patched=patched,
            silent=silent,
            garbage=garbage,
            garbage_values=garbage_values,
            after=after,
            plans=plans,
            camp_codes=rnd.camp_codes,
            class_values=rnd.class_values,
            class_counts=rnd.class_counts,
            row_outboxes=rnd.row_outboxes,
            _plan_row=lambda i: self._row_plan(rnd, i),
        )

    def sync_positions(self) -> None:
        """Hand each class-planned run's agent hosts to its controller.

        The planner keeps them as masks while it plans; this builds
        :attr:`MobileFaultController.positions` once, when the runs end.
        """
        np = _np
        for r in np.flatnonzero(self._planned).tolist():
            positions = self._sets[r]
            if self._lag[r]:
                positions = frozenset(np.flatnonzero(self._hosts[r]).tolist())
            self.controllers[r]._positions = positions

    # -- helpers -----------------------------------------------------------------

    def _layout(self, indices) -> "_Layout":
        """The per-run constants of the active runs ``indices``.

        Built once per active set (it changes only when runs terminate)
        and reused by every round over it: the row index arrays, the
        movement and value groups, the class codes with their flat
        offsets into a ``(count, width)`` class table, and the class
        tables themselves.
        """
        np = _np
        key = tuple(indices)
        layout = self._last_layout
        if layout is not None and layout.key == key:
            return layout
        layout = self._last_layout = _Layout()
        layout.key = key
        runs = layout.runs = np.asarray(indices, dtype=np.intp)
        count = runs.shape[0]
        width = self._slots
        planned = layout.planned = self._planned[runs]
        layout.fallback = np.flatnonzero(~planned).tolist()
        layout.fallback_rows = np.asarray(layout.fallback, dtype=np.intp)
        rows = layout.rows = np.flatnonzero(planned)
        layout.span = _span(rows, count)
        class_runs = layout.class_runs = runs[rows]
        layout.whole = class_runs.shape[0] == self._hosts.shape[0]
        layout.move_groups = self._move_groups(rows, class_runs)
        layout.f = self._f[class_runs]
        layout.offsets = self._codes[runs] + (np.arange(count) * width)[:, None]
        layout.departures = np.zeros((count, width))
        layout.computes = np.zeros((count, width))
        layout.value_groups = self._value_groups(runs, rows)
        return layout

    def _value_groups(self, runs, rows) -> list:
        """The :class:`_ValueGroup` of each value hook key in ``rows``."""
        groups = []
        count = runs.shape[0]
        for (hook, senders), members in _groups(
            self._value_gid[runs[rows]], self._value_hooks
        ):
            group_rows = rows[members]
            strategies = [
                self.controllers[r].adversary.values
                for r in runs[group_rows].tolist()
            ]
            groups.append(
                _ValueGroup(self, hook, senders, group_rows, strategies, count)
            )
        return groups

    def _move_groups(self, rows, class_runs) -> list:
        """``(hook, members, group)`` of each movement type.

        ``members`` indexes ``class_runs``; ``group`` is the
        :class:`_MoveGroup` of those rows.
        """
        groups = []
        for hook, members in _groups(self._move_gid[class_runs], self._move_hooks):
            group_runs = class_runs[members]
            movements = [
                self.controllers[r].adversary.movement for r in group_runs.tolist()
            ]
            group = _MoveGroup(
                self, rows[members], group_runs, movements, self._f[group_runs],
                self._n,
            )
            groups.append((hook, members, group))
        return groups

    def _place(self, rnd: _Round, layout: "_Layout") -> list:
        """Place the class-planned runs' round-0 agents, in run order.

        Returns the movement groups of round 0: M4's, whose agents ride
        the round-0 messages; none otherwise.  The other models' round-0
        position sets are ``(initial, initial)``, so the per-row route
        sees no movement step to replay.
        """
        m4 = self._m4
        for r in layout.class_runs.tolist():
            controller = self.controllers[r]
            positions = controller.adversary.initial_positions(
                controller.n, controller.f, self.rngs[r]
            )
            self._sets[r] = positions
            self._hosts[r, list(positions)] = True
            if not m4:
                rnd.sets[r] = (positions, positions)
        return layout.move_groups if m4 else []

    def _replay(self, rnd: _Round, i: int, positions, steps: int):
        """``positions`` after ``steps`` of row ``i``'s ``next_positions``."""
        r = int(rnd.runs[i])
        controller = self.controllers[r]
        movement = controller.adversary.movement
        for _ in range(steps):
            positions = movement.next_positions(
                controller._view(
                    rnd.index, rnd.values(i), positions, frozenset(), self.rngs[r]
                )
            )
        return positions

    def _settled(self, rnd: _Round, i: int):
        """Row ``i``'s agent hosts before this round's move, as a set."""
        r = int(rnd.runs[i])
        lag = int(self._lag[r])
        if lag:
            self._sets[r] = self._replay(rnd, i, self._sets[r], lag)
            self._lag[r] = 0
        return self._sets[r]

    def _row_sets(self, rnd: _Round, i: int):
        """Row ``i``'s ``(positions, cured, after)`` in per-run order."""
        r = int(rnd.runs[i])
        hit = rnd.sets.get(r)
        if hit is None:
            # Moved by a batched step this round: replay up to it.
            lag = int(self._lag[r])
            before = self._replay(rnd, i, self._sets[r], lag - 1)
            now = self._replay(rnd, i, before, 1)
            self._sets[r] = now
            self._lag[r] = 0
            hit = rnd.sets[r] = (before, now)
        before, now = hit
        if self._m4:
            return before, frozenset(), now
        return now, before - now, now

    def _fill_tables(self, rnd: _Round, batched: list) -> list:
        """Write the groups' class tables into the round.

        Rows whose tables hold a non-finite value or a signed-zero camp
        value take the per-row route instead.  Returns the rows that
        stay batched, as ``(assignment kind, index, row count)`` per
        group.
        """
        np = _np
        kinds: list[tuple] = []
        if not batched:
            return kinds
        count = rnd.stack.shape[0]
        ncamps = max(np.shape(tables.camps)[2] for _, tables in batched)
        class_values = rnd.class_values = np.zeros((count, self._slots, ncamps))
        planned = 0
        for group, tables in batched:
            rows, span = group.rows, group.span
            departures = np.asarray(tables.departures, dtype=np.float64)
            computes = np.asarray(tables.computes, dtype=np.float64)
            camps = np.asarray(tables.camps, dtype=np.float64)
            # One check for the common case: a non-finite entry makes
            # the sum non-finite and a zero camp value fails all(); an
            # overflowing sum only costs the exact per-row check below.
            total = departures.sum() + camps.sum()
            if computes is not departures:
                total += computes.sum()
            if not (math.isfinite(total) and camps.all()):
                ok = (np.isfinite(camps) & (camps != 0.0)).all(axis=(1, 2))
                ok &= np.isfinite(departures).all(axis=1)
                if computes is not departures:
                    ok &= np.isfinite(computes).all(axis=1)
                for i in rows[~ok].tolist():
                    self._plan_row(rnd, i)
                rows = rows[ok]
                span = _span(rows, count)
                departures, computes, camps = departures[ok], computes[ok], camps[ok]
            _, classes, camp_count = camps.shape
            kinds.append((tables.assignment, span, rows.shape[0]))
            rnd.departures[span, :classes] = departures
            rnd.computes[span, :classes] = computes
            class_values[span, :classes, :camp_count] = camps
            planned += rows.shape[0]
        self.routes["batched"] += planned
        return kinds

    def _extras(self, rnd: _Round, layout: "_Layout", kinds: list, patched, outgoing):
        """Batched rows' camp codes, and their override senders per class.

        Batched rows fold their override senders by class, not in pid
        order: their camp values are non-zero, so equal values are
        bit-identical and the order cannot change the stable fold.
        """
        np = _np
        if not kinds:
            return
        count = patched.shape[0]
        camp_codes = rnd.camp_codes
        lanes = outgoing
        if sum(size for _, _, size in kinds) < count:
            batched = np.zeros(count, dtype=bool)
            for _, rows, _ in kinds:
                batched[rows] = True
            lanes = outgoing & batched[:, None]
        by_kind: dict[str, list] = {}
        for kind, rows, size in kinds:
            by_kind.setdefault(kind, []).append((rows, size))
        for kind, parts in by_kind.items():
            # One pass where a kind's groups cover the whole stack.
            if sum(size for _, size in parts) == count:
                parts = [(slice(None), count)]
            for rows, _ in parts:
                if kind == "split":
                    # Interval.midpoint's arithmetic, element-wise.
                    midpoints = (rnd.low[rows] + rnd.high[rows]) / 2.0
                    camp_codes[rows] = patched[rows] > midpoints[:, None]
                elif kind == "parity":
                    camp_codes[rows] = self._parity
        width = self._slots
        if width == 1:
            rnd.class_counts = lanes.sum(axis=1)[:, None]
        else:
            rnd.class_counts = np.bincount(
                layout.offsets[lanes], minlength=count * width
            ).reshape(count, width)

    def _plan_row(self, rnd: _Round, i: int) -> None:
        """Plan class-planned row ``i`` through its own views.

        The per-cell planner's order exactly: departures (one hook call
        per class present among the cured, first pid first), then attack
        outboxes, planted queues and compute corruptions, each checked
        like the per-cell planner's -- canonical errors included.
        """
        np = _np
        r = int(rnd.runs[i])
        controller = self.controllers[r]
        adversary = controller.adversary
        rng = self.rngs[r]
        n = controller.n
        width = self._slots
        classes = self._classes[r]
        positions, cured, after = self._row_sets(rnd, i)
        record = rnd.records[i] = _RowRecord(
            classes, positions, cured, after, bool(cured) and self._planted
        )
        correct = rnd.correct[i]
        interval = rnd.interval(i)
        values = rnd.values(i)
        departures = record.departures
        if cured:
            view = _seeded_view(
                controller, rnd.index, values, positions, cured, rng, correct, interval
            )
            for pid in cured:
                c = classes[pid]
                if c not in departures:
                    departures[c] = _checked_value(
                        adversary.departure_value(view, pid),
                        f"departure value for p{pid}",
                    )
            patched = rnd.stack[i].copy()
            patched[list(cured)] = [departures[classes[pid]] for pid in cured]
            values = rnd.wrap(patched)
        view = _seeded_view(
            controller, rnd.index, values, positions, cured, rng, correct, interval
        )
        if interval is not None and self._split_strategy[r]:
            # Corruptions only land on cured (masked-out) pids, so the
            # departure view's range is the attack view's bit for bit.
            split = (values.array > interval.midpoint()).astype("i8")
            assignment = CampAssignment(split.tolist())
            assignment.array = split
            # The codes are 0/1 over all n recipients by construction --
            # valid for the split strategies' two camps -- so the
            # per-round shape scan is pre-answered.
            object.__setattr__(
                view,
                "_memo",
                {
                    "camps-split": assignment,
                    ("camps-assignment-ok", id(assignment), 2): True,
                },
            )
        outboxes = record.outboxes
        for pid in positions:
            c = classes[pid]
            if c not in outboxes:
                outboxes[c] = _attack_override(adversary, view, pid, n)
        if record.planted:
            for pid in cured:
                slot = width + classes[pid]
                if slot not in outboxes:
                    outboxes[slot] = _planted_override(adversary, view, pid, n)
        computes = record.computes
        for pid in after:
            c = classes[pid]
            if c not in computes:
                computes[c] = _checked_value(
                    adversary.corrupted_compute(view, pid),
                    f"corrupted compute for p{pid}",
                )
        if departures:
            rnd.departures[i, list(departures)] = list(departures.values())
        if computes:
            rnd.computes[i, list(computes)] = list(computes.values())

        # A row stays on the array path when all its outboxes are camps
        # over one shared assignment (what the stacked fold expresses);
        # otherwise it carries its RoundPlan like a fallback row.
        boxes = list(outboxes.values())
        if not boxes:
            return
        assignment = getattr(boxes[0], "assignment", None)
        if not all(
            type(box) is CampOutbox and box.assignment is assignment for box in boxes
        ):
            rnd.plans[i] = record.plan(rnd.index, width)
            return
        overrides = [outboxes[classes[pid]] for pid in positions]
        if record.planted:
            overrides += [outboxes[width + classes[pid]] for pid in cured]
        rnd.row_outboxes[i] = overrides

    def _row_plan(self, rnd: _Round, i: int) -> RoundPlan:
        """Row ``i``'s per-cell :class:`RoundPlan`.

        A batched row is planned again through the per-row route, which
        builds the same values through the per-run hooks.
        """
        if i not in rnd.records:
            self._plan_row(rnd, i)
        return rnd.records[i].plan(rnd.index, self._slots)
