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
from itertools import accumulate, chain
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
    return (None,) * n if key is None else tuple(map(key, range(n)))


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
        self._outbox_classes = _sender_classes(adversary.outbox_class, n)
        self._scalar_classes = _sender_classes(adversary.scalar_class, n)

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
        self._outbox_classes = _sender_classes(adversary.outbox_class, n)
        self._scalar_classes = _sender_classes(adversary.scalar_class, n)

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


def _first_of_class(np, rows, classes, pids, width):
    """``(row, class, pid)`` for the first pid of each class in a row.

    The inputs are flattened pid collections (see :func:`_flatten`) in
    iteration order, with each pid's row and class code below
    ``width``, so "first" is the pid the per-cell fan-out would build
    from.  The triples come out in the order of those first pids.
    """
    if not pids.shape[0]:
        return ()
    keys = rows * width + classes
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.ones(ordered.shape[0], dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    first = np.sort(order[starts])
    return zip(rows[first].tolist(), classes[first].tolist(), pids[first].tolist())


def _scatter_values(np, target, mappings) -> None:
    """Write each row's ``{pid: value}`` mapping into ``target`` at once."""
    if not any(mappings):
        return
    rows, pids, _ = _flatten(np, mappings)
    target[rows, pids] = np.fromiter(
        chain.from_iterable(m.values() for m in mappings),
        np.float64,
        pids.shape[0],
    )


def _seeded_view(row, round_index, values, correct, interval) -> AdversaryView:
    """A class-planned row's value view with the batched range seeded."""
    view = row.controller._view(
        round_index, values, row.positions, row.cured, row.rng
    )
    object.__setattr__(view, "_range_mask", correct)
    if interval is not None:
        object.__setattr__(view, "_correct_range", interval)
    return view


class _ArrayRow:
    """One class-planned run's state while :meth:`CrossRunPlanner.plan_many`
    plans a round: its movement, views and per-class hook results."""

    __slots__ = (
        "controller",
        "classes",
        "rng",
        "values",
        "positions",
        "cured",
        "after",
        "planted",
        "attack_view",
        "outboxes",
        "departures",
        "computes",
    )

    def __init__(
        self, controller, classes, rng, values, positions, cured, after
    ) -> None:
        self.controller = controller
        #: Each pid's sender-class index.
        self.classes = classes
        self.rng = rng
        self.values = values
        self.positions = positions
        self.cured = cured
        self.after = after
        self.planted = bool(cured) and (
            controller.semantics.cured_send is CuredSendBehavior.PLANTED_QUEUE
        )
        self.attack_view = None
        #: Outbox per class slot (attack classes, then planted classes).
        self.outboxes: dict[int, Mapping[int, float]] = {}
        self.departures: dict[int, float] = {}
        self.computes: dict[int, float] = {}

    def plan(self, round_index: int, slots: int) -> RoundPlan:
        """The per-cell :class:`RoundPlan` of this row's round.

        Built only for rows that leave the array path (a scalar-fold
        fallback, or outboxes the stacked fold cannot express); the
        mappings equal the per-cell planner's, in the same order.
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


@dataclass
class StackPlan:
    """One round's faults for a stack of runs, as ``(R, n)`` arrays.

    Produced by :meth:`CrossRunPlanner.plan_many`; row ``i`` is the
    ``i``-th planned run.  The masks and value arrays cover every row.
    Class-planned rows additionally carry their override traffic as
    flattened camp values (``extra_*``, in the per-cell
    ``send_overrides`` order) plus ``camps[i] = (codes, ncamps)`` -- the
    recipients' camp indices and the camp count -- or ``None`` when no
    process overrides its sends.  Rows planned through their
    controller's :meth:`~MobileFaultController.plan_round` (and rows
    whose outboxes the stacked fold cannot express) carry their
    :class:`RoundPlan` in ``plans[i]`` instead; :meth:`plan` builds one
    on demand for any row.

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
        their round ends with.
    after:
        Agent hosts at the end of the round (``positions_after``), also
        as ``positions_after[i]`` frozensets.
    """

    round_index: int
    patched: object
    silent: object
    garbage: object
    garbage_values: object
    after: object
    positions_after: list
    plans: list
    camps: list
    extra_rows: object
    extra_cols: object
    extra_values: object
    _rows: dict
    _slots: int

    def plan(self, i: int) -> RoundPlan:
        """Row ``i``'s :class:`RoundPlan` (built on demand)."""
        plan = self.plans[i]
        if plan is None:
            plan = self._rows[i].plan(self.round_index, self._slots)
        return plan


class CrossRunPlanner:
    """Batched per-round fault planning for R lockstep mobile runs.

    The cross-run engine (:func:`repro.runtime.simulator.simulate_many`)
    advances a whole batch of compatible runs on one ``(R, n)`` state
    matrix; this planner produces the round's faults for all of them as
    a :class:`StackPlan` of ``(R, n)`` arrays.

    Runs whose adversary declares sender classes and recipient camps
    (every built-in strategy except ``inertia`` and ``noise``, unless a
    subclass re-routes a hook) are *class-planned*:

    * movement runs per run through its controller, consuming each
      run's RNG stream exactly as the per-cell planner does (the value
      hooks of a class-declaring strategy consume none);
    * the occupancy, cured, silence, exclusion and garbage masks come
      from one scatter, correct ranges from one masked reduction and
      split-camp codes from one comparison over the whole stack;
    * the value hooks run once per sender class present in a run-round
      (see :meth:`~repro.faults.value_strategies.ValueStrategy.sender_class`),
      and departures, compute corruptions and override camp values are
      masked writes from those per-row class tables.

    Every other run is planned by its own controller's
    :meth:`MobileFaultController.plan_round` -- the per-cell planner
    exactly.  Bit-identity with per-run planning follows from the
    sender-class contract plus the per-cell seams the views are seeded
    through (``_range_mask`` / ``_correct_range`` and the
    ``camps-split`` memo), which are only seeded with values the view
    would derive itself -- signed-zero endpoints and empty masks fall
    back to the view's own lazy recomputation.

    Runs may mix models, movements and attacks; they must share ``n``.
    Round 0 never reaches the planner -- the engine plans it per run,
    which also initializes agent positions.
    """

    def __init__(self, controllers, rngs, wrap) -> None:
        for controller in controllers:
            if not isinstance(controller, MobileFaultController):
                raise TypeError(
                    "CrossRunPlanner requires MobileFaultControllers, got "
                    f"{type(controller).__name__}"
                )
        self.controllers = list(controllers)
        self.rngs = list(rngs)
        #: Array-backed Mapping constructor (ArrayValues, injected to
        #: avoid a circular import with the simulator module).
        self._wrap = wrap
        self._split_strategy = [
            isinstance(c.adversary.values, (SplitAttack, CrossfireAttack))
            for c in self.controllers
        ]
        # Per run: each pid's sender-class index, or None for runs the
        # controller plans itself.  Outbox and scalar classes are the
        # same strategy key wherever neither hook family is re-routed.
        self._classes: list[tuple[int, ...] | None] = []
        for controller in self.controllers:
            keys = controller._outbox_classes
            if (
                controller.f == 0
                or None in keys
                or keys != controller._scalar_classes
                or type(controller.adversary.values).attack_camps
                is ValueStrategy.attack_camps
            ):
                self._classes.append(None)
                continue
            index = {key: code for code, key in enumerate(dict.fromkeys(keys))}
            self._classes.append(tuple(map(index.__getitem__, keys)))
        #: Class-code width: the most classes any run declares.
        self._slots = max(
            (max(codes) + 1 for codes in self._classes if codes), default=1
        )
        n = self.controllers[0].n if self.controllers else 0
        self._codes = _np.array(
            [codes if codes else (0,) * n for codes in self._classes],
            dtype=_np.intp,
        ).reshape(len(self.controllers), n)

    def plan_many(self, round_index: int, stack, indices) -> StackPlan:
        """Plan ``round_index`` for the runs in ``indices``.

        ``stack`` holds one row per entry of ``indices`` (the active
        runs' current values, pre-corruption); the returned
        :class:`StackPlan` aligns with it.  Requires ``round_index >= 1``.
        """
        np = _np
        wrap = self._wrap
        count, n = stack.shape
        shape = (count, n)
        width = self._slots
        plans: list = [None] * count
        rows: dict[int, _ArrayRow] = {}
        for i, r in enumerate(indices):
            values = wrap(stack[i])
            if self._classes[r] is None:
                plans[i] = self.controllers[r].plan_round(
                    round_index, values, self.rngs[r]
                )
            else:
                rows[i] = self._move(r, round_index, values)
        codes = self._codes[indices]

        # -- per-row pid collections, flattened in one pass -------------
        # Five families, each one collection per row, in iteration
        # order: processes that do not broadcast (override senders,
        # forced silence), cured processes, end-of-round hosts,
        # corrupted computations, and -- class-planned rows only -- the
        # override senders in per-cell send_overrides order (agents,
        # then planted-queue senders), which fixes how +-0.0 ties sort
        # in the fold.  ``quiet`` rows keep their cured processes
        # silent (cured-aware M1, planted-queue M3).
        families: list[list] = [[], [], [], [], []]
        silencers, cured_sets, positions_after, garbage_sets, outgoing = families
        is_array = np.zeros(count, dtype=bool)
        quiet = np.zeros(count, dtype=bool)
        for i, plan in enumerate(plans):
            if plan is None:
                row = rows[i]
                silencers.append(row.positions)
                cured_sets.append(row.cured)
                positions_after.append(row.after)
                garbage_sets.append(row.after)
                outgoing.append(
                    tuple(row.positions) + tuple(row.cured)
                    if row.planted
                    else row.positions
                )
                is_array[i] = True
                quiet[i] = row.planted or row.controller.semantics.cured_aware
            else:
                silencers.append(plan.send_overrides.keys() | plan.forced_silent)
                cured_sets.append(plan.cured_at_send)
                positions_after.append(plan.positions_after)
                garbage_sets.append(plan.compute_corruptions)
                outgoing.append(())
                quiet[i] = self.controllers[indices[i]].semantics.cured_aware
        owner, pids, lengths = _flatten(np, list(chain.from_iterable(families)))
        family, row_of = np.divmod(owner, count)
        masks = np.zeros((len(families), count, n), dtype=bool)
        masks[family, row_of, pids] = True
        senders, cured, after, garbage, _ = masks
        silent = senders | (cured & quiet[:, None])
        correct = ~(senders | cured)
        intervals = batch_correct_ranges(stack, correct)

        # Class-planned rows' departing (cured), outgoing and garbage
        # pids with their class slots: departures ``c``, attack outboxes
        # ``width + c``, planted queues ``2 * width + c``, computes
        # ``3 * width + c``.
        sizes = lengths.tolist()
        ends = list(
            accumulate(sum(sizes[k : k + count]) for k in range(0, len(sizes), count))
        )
        dep = slice(ends[0], ends[1])
        com = slice(ends[1], ends[2])
        out = slice(ends[3], ends[4])
        mine = is_array[row_of[dep]]
        dep_rows, dep_pids = row_of[dep][mine], pids[dep][mine]
        mine = is_array[row_of[com]]
        com_rows, com_pids = row_of[com][mine], pids[com][mine]
        out_rows, out_pids = row_of[out], pids[out]
        dep_classes = codes[dep_rows, dep_pids]
        com_classes = codes[com_rows, com_pids]
        out_slots = codes[out_rows, out_pids] + width * cured[out_rows, out_pids]
        firsts = list(
            _first_of_class(
                np,
                np.concatenate([dep_rows, out_rows, com_rows]),
                np.concatenate(
                    [dep_classes, out_slots + width, com_classes + 3 * width]
                ),
                np.concatenate([dep_pids, out_pids, com_pids]),
                4 * width,
            )
        )

        # -- departures: one hook call per class, one masked write ------
        patched = stack
        if dep_pids.shape[0]:
            departures = np.zeros((count, width))
            views: dict[int, AdversaryView] = {}
            for i, c, pid in firsts:
                if c >= width:
                    break
                row = rows[i]
                view = views.get(i)
                if view is None:
                    view = views[i] = _seeded_view(
                        row, round_index, row.values, correct[i], intervals[i]
                    )
                value = _checked_value(
                    row.controller.adversary.departure_value(view, pid),
                    f"departure value for p{pid}",
                )
                row.departures[c] = value
                departures[i, c] = value
            patched = stack.copy()
            patched[dep_rows, dep_pids] = departures[dep_rows, dep_classes]
        memory = [{} if plan is None else plan.memory_corruptions for plan in plans]
        if any(memory):
            if patched is stack:
                patched = stack.copy()
            _scatter_values(np, patched, memory)

        # -- split-camp codes: one comparison over the clean rows -------
        # Corruptions only land on cured (masked-out) pids, so the
        # attack view's range equals the departure view's bit for bit
        # and the bisection of _split_assignment runs as one pass.
        # Rows without a seeded interval let the strategy recompute.
        split_rows = [
            i
            for i, r in enumerate(indices)
            if i in rows and intervals[i] is not None and self._split_strategy[r]
        ]
        split: dict[int, CampAssignment] = {}
        if split_rows:
            mids = np.array(
                [intervals[i].midpoint() for i in split_rows], dtype=np.float64
            )
            split_codes = (patched[split_rows] > mids[:, None]).astype("i8")
            for slot, i in enumerate(split_rows):
                assignment = split[i] = CampAssignment(split_codes[slot].tolist())
                assignment.array = split_codes[slot]
        for i, row in rows.items():
            row.attack_view = _seeded_view(
                row,
                round_index,
                wrap(patched[i]) if row.cured else row.values,
                correct[i],
                intervals[i],
            )
            assignment = split.get(i)
            if assignment is not None:
                # The batched codes are 0/1 over all n recipients by
                # construction -- valid for the split strategies' two
                # camps -- so the per-round shape scan is pre-answered.
                object.__setattr__(
                    row.attack_view,
                    "_memo",
                    {
                        "camps-split": assignment,
                        ("camps-assignment-ok", id(assignment), 2): True,
                    },
                )

        # -- outboxes and compute corruptions: one per class ------------
        computes = np.zeros((count, width))
        for i, slot, pid in firsts:
            if slot < width:
                continue
            row = rows[i]
            if slot < 3 * width:
                slot -= width
                override = _planted_override if slot >= width else _attack_override
                row.outboxes[slot] = override(
                    row.controller.adversary, row.attack_view, pid, n
                )
            else:
                c = slot - 3 * width
                value = _checked_value(
                    row.controller.adversary.corrupted_compute(row.attack_view, pid),
                    f"corrupted compute for p{pid}",
                )
                row.computes[c] = value
                computes[i, c] = value
        garbage_values = np.zeros(shape)
        garbage_values[com_rows, com_pids] = computes[com_rows, com_classes]
        _scatter_values(
            np,
            garbage_values,
            [{} if plan is None else plan.compute_corruptions for plan in plans],
        )

        # -- override camp tables ---------------------------------------
        # A row stays on the array path when all its outboxes are camps
        # over one shared assignment (what RoundKernel.batch_rows can
        # fold); otherwise it carries its RoundPlan like a fallback row.
        camps: list = [None] * count
        has_camps = np.zeros(count, dtype=bool)
        for i, row in rows.items():
            outboxes = list(row.outboxes.values())
            if not outboxes:
                continue
            assignment = getattr(outboxes[0], "assignment", None)
            if not all(
                type(o) is CampOutbox and o.assignment is assignment
                for o in outboxes
            ):
                plans[i] = row.plan(round_index, width)
                continue
            array = getattr(assignment, "array", None)
            if array is None:
                array = np.asarray(assignment, dtype=np.intp)
            camps[i] = (array, min(len(o.camp_values) for o in outboxes))
            has_camps[i] = True
        ncamps = max((entry[1] for entry in camps if entry is not None), default=1)
        cells = [
            (i, slot, (outbox.camp_values + (0.0,) * ncamps)[:ncamps])
            for i, row in rows.items()
            if camps[i] is not None
            for slot, outbox in row.outboxes.items()
        ]
        table = np.zeros((count, 2 * width, ncamps))
        if cells:
            cell_rows, cell_slots, cell_values = zip(*cells)
            table[list(cell_rows), list(cell_slots)] = cell_values
        out_sizes = sizes[-count:]
        out_starts = [end - size for end, size in zip(accumulate(out_sizes), out_sizes)]
        out_cols = np.arange(out_pids.shape[0]) - np.repeat(out_starts, out_sizes)
        keep = has_camps[out_rows]
        extra_rows = out_rows[keep]

        return StackPlan(
            round_index=round_index,
            patched=patched,
            silent=silent,
            garbage=garbage,
            garbage_values=garbage_values,
            after=after,
            positions_after=positions_after,
            plans=plans,
            camps=camps,
            extra_rows=extra_rows,
            extra_cols=out_cols[keep],
            extra_values=table[extra_rows, out_slots[keep]],
            _rows=rows,
            _slots=width,
        )

    def _move(self, r: int, round_index: int, values) -> _ArrayRow:
        """Run ``r``'s movement step, exactly as its controller would.

        M4 agents ride the messages, so the controller draws the next
        hosts after the attack outboxes; no value hook of a
        class-planned run draws randomness, so drawing them here first
        consumes the run's stream identically.
        """
        controller = self.controllers[r]
        classes = self._classes[r]
        rng = self.rngs[r]
        adversary = controller.adversary
        empty: frozenset[int] = frozenset()
        previous = controller._positions
        if controller.semantics.moves_with_message:
            hosts = previous
            if hosts is None:
                hosts = adversary.initial_positions(controller.n, controller.f, rng)
            moved = adversary.next_positions(
                controller._view(round_index, values, hosts, empty, rng)
            )
            controller._check_positions(moved)
            row = _ArrayRow(controller, classes, rng, values, hosts, empty, moved)
        elif previous is None:
            positions = adversary.initial_positions(controller.n, controller.f, rng)
            row = _ArrayRow(
                controller, classes, rng, values, positions, empty, positions
            )
        else:
            positions = adversary.next_positions(
                controller._view(round_index, values, previous, empty, rng)
            )
            controller._check_positions(positions)
            cured = previous - positions
            row = _ArrayRow(
                controller, classes, rng, values, positions, cured, positions
            )
        controller._positions = row.after
        return row
