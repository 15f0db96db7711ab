"""Byzantine value strategies: what corrupted processes say and leave behind.

A :class:`ValueStrategy` answers the four questions the fault controller
asks during a round (see DESIGN.md Section 4):

* ``attack_message`` -- what a *faulty* process sends to one recipient
  (per-recipient: the asymmetric behaviour of Definition 3);
* ``departure_value`` -- what the agent leaves in a process's memory
  when it moves away (the corrupted state a cured process holds);
* ``planted_message`` -- the outgoing queue the agent prepares in
  Sasaki's model M3 (per-recipient, sent by the cured process);
* ``corrupted_compute`` -- the garbage an occupied process's
  computation phase produces.

Recipient ``None`` in ``attack_message`` requests a *symmetric* value
(one value perceived identically by everybody), used for symmetric
mixed-mode faults and for M2 departure values.

All strategies are deterministic functions of the view (including the
view's seeded ``rng``), so simulations replay exactly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

try:  # numpy is optional: only the batched class hooks need it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

from .view import AdversaryView

__all__ = [
    "ValueStrategy",
    "ClassValues",
    "RecipientCamps",
    "CampOutbox",
    "FixedValue",
    "SplitAttack",
    "OutlierAttack",
    "RandomNoise",
    "EchoCorrect",
    "OscillatingAttack",
    "InertiaAttack",
    "CrossfireAttack",
]


@dataclass(frozen=True)
class RecipientCamps:
    """A per-recipient outbox compressed to value camps.

    Many attacks partition the recipients into a handful of *camps*
    that each receive one value (the split attack's low/high halves,
    the outlier attack's parity sides).  Materializing such an outbox
    as an ``n``-entry dict per sender makes fault planning ``O(n * f)``
    for sender-dependent strategies; declaring the camps instead costs
    one shared ``assignment`` per round plus ``O(#camps)`` values per
    sender, and lets the round kernel group recipients by camp index
    directly (see :class:`CampOutbox`).

    Attributes
    ----------
    values:
        One float per camp (finite; validated at the controller
        boundary like every adversary output).
    assignment:
        Camp index per recipient, length ``n``.  Strategies share one
        assignment tuple across all senders of a round via
        :meth:`~repro.faults.view.AdversaryView.memo`; the kernel
        detects the sharing by identity.
    """

    values: tuple[float, ...]
    assignment: tuple[int, ...]

    def validate(self, n: int, context: str) -> "RecipientCamps":
        """Full structural checks at the controller boundary."""
        self.validate_values(context)
        self.validate_assignment(n, context)
        return self

    def validate_values(self, context: str) -> None:
        """O(#camps) per-sender check: every camp value is a finite real."""
        for value in self.values:
            if not math.isfinite(value):
                raise ValueError(
                    f"adversary produced non-finite value {value!r} "
                    f"({context}); value strategies must return finite reals"
                )

    def validate_assignment(self, n: int, context: str) -> bool:
        """O(n) shape check: length ``n``, indices within ``values``.

        A malformed camp index would otherwise surface rounds later as
        a bare ``IndexError`` inside the kernel's fold.  Senders share
        one assignment tuple per round, so controllers memoize this
        scan per round on the adversary view instead of paying it per
        sender.
        """
        if len(self.assignment) != n:
            raise ValueError(
                f"recipient camps ({context}): assignment covers "
                f"{len(self.assignment)} recipients, expected {n}"
            )
        codes = getattr(self.assignment, "array", None)
        if codes is not None and codes.shape[0]:
            # CampAssignment mirror: bounds-check without re-scanning
            # the tuple (the mirror holds the same integers).
            lowest, highest = int(codes.min()), int(codes.max())
        elif self.assignment:
            lowest, highest = min(self.assignment), max(self.assignment)
        else:
            return True
        if not (0 <= lowest and highest < len(self.values)):
            raise ValueError(
                f"recipient camps ({context}): assignment references camp "
                f"indices outside the {len(self.values)} declared values"
            )
        return True


class CampAssignment(tuple):
    """A camp-assignment tuple carrying its integer-array mirror.

    Equal to -- and interchangeable with -- the plain tuple the scalar
    strategies build; camp strategies with an array-backed view attach
    the numpy codes they already computed as ``array`` so the
    vectorized kernel indexes camps without re-encoding the tuple
    every round.  Consumers must treat the mirror as immutable.
    """

    array = None


class CampOutbox(Mapping):
    """A read-only ``recipient -> value`` Mapping backed by camps.

    Drop-in replacement for the per-recipient outbox dicts carried in
    :class:`~repro.runtime.controllers.RoundPlan.send_overrides`: same
    keys (every recipient), same values, same iteration order -- but
    O(#camps) storage per sender and O(1) construction once the shared
    assignment exists.  The round kernel special-cases it to use the
    camp index itself as the distinct-inbox grouping key.
    """

    __slots__ = ("camp_values", "assignment")

    def __init__(self, camps: RecipientCamps) -> None:
        # Named camp_values (not values): a Mapping's .values() method
        # must stay callable.
        self.camp_values: Sequence[float] = tuple(map(float, camps.values))
        self.assignment: Sequence[int] = camps.assignment

    def __getitem__(self, pid: int) -> float:
        if isinstance(pid, int) and 0 <= pid < len(self.assignment):
            try:
                return self.camp_values[self.assignment[pid]]
            except IndexError:
                # Unvalidated camps with an out-of-range index: keep
                # the Mapping contract (KeyError, never IndexError).
                raise KeyError(pid) from None
        raise KeyError(pid)

    def get(self, pid: int, default=None):
        if isinstance(pid, int) and 0 <= pid < len(self.assignment):
            try:
                return self.camp_values[self.assignment[pid]]
            except IndexError:
                # Unvalidated camps with an out-of-range index: .get
                # never raises (Mapping contract); validate() is the
                # integrity boundary.
                return default
        return default

    def __contains__(self, pid: object) -> bool:
        return isinstance(pid, int) and 0 <= pid < len(self.assignment)

    def __iter__(self):
        return iter(range(len(self.assignment)))

    def __len__(self) -> int:
        return len(self.assignment)

    def __eq__(self, other: object) -> bool:
        # Mapping-value equality: full-trace records carry camp
        # outboxes verbatim, and those records must compare equal to
        # dict-recorded ones.  (The kernel's dedup uses id(), never
        # equality or hashing, so this stays off the hot path.)
        if isinstance(other, CampOutbox):
            if (
                self.camp_values == other.camp_values
                and self.assignment == other.assignment
            ):
                return True
        elif not isinstance(other, Mapping):
            return NotImplemented
        return dict(self) == dict(other)

    def __repr__(self) -> str:
        return (
            f"CampOutbox({len(self.camp_values)} camps, "
            f"{len(self.assignment)} recipients)"
        )


@dataclass(frozen=True)
class ClassValues:
    """A group's class values from :meth:`ValueStrategy.class_values`.

    Row ``k`` of each table is the group's row ``k``; column ``c`` is
    the sender class of pid ``group.senders[c]``.

    Attributes
    ----------
    departures, computes:
        ``(rows, classes)`` departure values and corrupted computes.
    camps:
        ``(rows, classes, camps)`` camp values of the attack outboxes,
        which are also the M3 planted queues.
    assignment:
        How recipients map to camps, shared by every row and class:
        ``"zero"`` (one camp), ``"parity"`` (recipient id parity) or
        ``"split"`` (camp 1 above the correct-range midpoint of the
        send-phase values).
    """

    departures: object
    computes: object
    camps: object
    assignment: str


def _class_tables(departures, camps, assignment: str) -> ClassValues:
    """Broadcast per-row values of a one-class strategy to its tables.

    ``departures`` is one value per row (also the corrupted compute);
    ``camps`` lists one per-row array per camp.
    """
    table = departures[:, None]
    return ClassValues(
        table, table, _np.stack(camps, axis=1)[:, None, :], assignment
    )


def _row_params(group, name: str, fallback=None):
    """Each row's strategy parameter ``name`` as float64, ``fallback``
    where ``None``.

    The rows' parameters are gathered once per group (``group.memo``);
    each round then only fills the unset rows from ``fallback``.
    """

    def gather():
        params = [getattr(strategy, name) for strategy in group.strategies]
        unset = [param is None for param in params]
        if all(unset):
            return None, None
        given = _np.array(
            [0.0 if param is None else param for param in params],
            dtype=_np.float64,
        )
        return given, _np.array(unset) if any(unset) else None

    given, unset = group.memo(("params", name), gather)
    if given is None:
        return fallback
    if unset is None:
        return given
    return _np.where(unset, fallback, given)


class ValueStrategy(ABC):
    """Base class for Byzantine value choices."""

    #: Whether this strategy's outputs depend only on the view and the
    #: recipient -- never on the *sender* -- and consume no per-call
    #: randomness.  The default :meth:`sender_class` puts every sender
    #: of such a strategy in one class.  Strategies that read
    #: ``sender`` or draw from ``view.rng`` must leave this False.
    sender_agnostic: bool = False

    def sender_class(self, sender: int):
        """The hashable class through which outputs depend on ``sender``.

        Two senders of one class get equal attack and planted outboxes
        (and camps), departure values and corrupted computes from one
        view, so fault planning calls each hook once per class present
        in a round and shares the result across the class.  ``None``
        opts out: every sender is planned on its own.  The key is a
        function of ``sender`` alone and consumes no randomness;
        declaring one promises that no hook draws from ``view.rng``.
        """
        return 0 if self.sender_agnostic else None

    def sender_classes(self, n: int) -> tuple:
        """Every pid's :meth:`sender_class`, for pids ``0..n-1``.

        Fault controllers resolve this once per run.  An override must
        equal the per-pid map, and must defer to this default when a
        subclass re-routes :meth:`sender_class`.
        """
        if type(self).sender_class is ValueStrategy.sender_class:
            # The default key reads no sender: every pid shares one class.
            return _uniform_classes(self.sender_class(0), n)
        return tuple(map(self.sender_class, range(n)))

    @abstractmethod
    def attack_message(
        self, view: AdversaryView, sender: int, recipient: int | None
    ) -> float:
        """Value a faulty ``sender`` sends to ``recipient`` (None = to all)."""

    def attack_outbox(
        self, view: AdversaryView, sender: int, recipients: Iterable[int]
    ) -> dict[int, float]:
        """The whole per-recipient outbox of a faulty ``sender``.

        Semantically exactly ``{q: attack_message(view, sender, q) for q
        in recipients}`` -- same values, same recipient order, same rng
        consumption -- but overridable as one batch so the fault
        controller's hot path (every agent emits ``n`` messages per
        round) skips the per-message call chain.  Fault planning reaches
        it only for senders without :meth:`attack_camps`; a strategy
        that declares no camps may override it with a fused loop
        (:class:`InertiaAttack` does), which MUST stay bit-identical to
        the per-message form -- the strategy test suite asserts it.
        """
        attack = self.attack_message
        return {
            recipient: attack(view, sender, recipient)
            for recipient in recipients
        }

    def attack_camps(
        self, view: AdversaryView, sender: int
    ) -> RecipientCamps | None:
        """Declare this sender's outbox as recipient camps, if possible.

        Must describe exactly the mapping :meth:`attack_outbox` would
        produce over ``range(view.n)`` -- same values for every
        recipient (the strategy test-suite asserts the equivalence).
        Returning ``None`` (the default) keeps the materialized-outbox
        contract.  Strategies whose camps share one recipient
        partition across senders should memoize the assignment on the
        view (``view.memo``) so fault planning costs ``O(n + f *
        #camps)`` per round instead of ``O(n * f)``.

        Strategies that consume per-message randomness or send
        recipient-unique values cannot declare camps.
        """
        return None

    def planted_outbox(
        self, view: AdversaryView, sender: int, recipients: Iterable[int]
    ) -> dict[int, float]:
        """The whole M3 planted queue of a cured ``sender``.

        Batch counterpart of :meth:`planted_message` with the same
        bit-identity contract as :meth:`attack_outbox`.  When
        :meth:`planted_message` is not overridden it delegates
        per-message to :meth:`attack_message`, so the batch form can
        reuse :meth:`attack_outbox` wholesale; strategies that *do*
        customize the planted queue fall back to the per-message loop.
        """
        if type(self).planted_message is ValueStrategy.planted_message:
            return self.attack_outbox(view, sender, recipients)
        planted = self.planted_message
        return {
            recipient: planted(view, sender, recipient)
            for recipient in recipients
        }

    def planted_camps(
        self, view: AdversaryView, sender: int
    ) -> RecipientCamps | None:
        """Declare a cured sender's M3 planted queue as camps, if possible.

        Planted queues default to the live attack values
        (:meth:`planted_message` delegates to :meth:`attack_message`),
        so a strategy's attack camps describe its planted queues too --
        unless the strategy customizes :meth:`planted_message` *or*
        the batch :meth:`planted_outbox`, in which case the camps could
        silently disagree and ``None`` keeps the materialized-queue
        contract.  The same bit-identity rule as :meth:`attack_camps`
        applies: the camps must describe exactly what
        :meth:`planted_outbox` would produce over ``range(view.n)``.
        """
        if (
            type(self).planted_message is ValueStrategy.planted_message
            and type(self).planted_outbox is ValueStrategy.planted_outbox
        ):
            return self.attack_camps(view, sender)
        return None

    def departure_value(self, view: AdversaryView, pid: int) -> float:
        """Memory value the agent leaves behind on departure from ``pid``.

        Defaults to the symmetric attack value, which is the natural
        "most disruptive single value" of each strategy.
        """
        return self.attack_message(view, pid, None)

    def planted_message(
        self, view: AdversaryView, sender: int, recipient: int
    ) -> float:
        """M3 planted-queue value from cured ``sender`` to ``recipient``.

        Defaults to the same choice as a live attack, which is the
        strongest option available to the agent.
        """
        return self.attack_message(view, sender, recipient)

    def corrupted_compute(self, view: AdversaryView, pid: int) -> float:
        """State an occupied process ends the round with."""
        return self.departure_value(view, pid)

    @classmethod
    def class_values(cls, group) -> ClassValues | None:
        """Every class value of a group of stacked runs, in one call.

        The cross-run planner calls this once per round for each group
        of class-planned runs whose strategies share this hook and
        sender classes.  ``group`` carries ``strategies`` (one per row),
        the rows' correct-range endpoints ``low`` and ``high`` (float64
        arrays; every endpoint finite and non-zero -- rows without such
        a range take the per-row route instead), ``round_index``,
        ``senders`` (the first pid of each sender class),
        ``plan_row(k)``, which plans row ``k`` through its own views,
        and ``memo(key, factory)``, which keeps ``factory()`` for the
        group's life (a group lives as long as its set of active runs,
        so what depends only on the rows' strategies is built once).

        An override returns :class:`ClassValues` equal, entry for entry,
        to what the per-run hooks would build from a view with that
        correct range: values that depend on a row only through its
        range, the round and the strategy's own parameters, and camps
        assigned in one of the kinds :class:`ClassValues` names.  A
        subclass that re-routes any per-run value hook gets this default
        instead of its parent's override (see
        :attr:`~repro.faults.adversary.Adversary.class_values_hook`).

        The default plans each row through its own views -- every hook
        in per-cell order, canonical errors included -- and returns
        ``None``.
        """
        for k in range(len(group.strategies)):
            group.plan_row(k)
        return None

    def describe(self) -> str:
        """Short name used in experiment tables."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _zero_assignment(view: AdversaryView) -> tuple[int, ...]:
    """The single-camp assignment (everybody camp 0), shared per round."""
    return view.memo("camps-zero", lambda: (0,) * view.n)


@lru_cache(maxsize=16)
def _uniform_classes(key, n: int) -> tuple:
    """``(key,) * n``, one shared tuple per ``key`` and ``n``."""
    return (key,) * n


@lru_cache(maxsize=16)
def _parity_classes(n: int) -> tuple[int, ...]:
    """``pid % 2`` for pids ``0..n-1``, one shared tuple per ``n``."""
    return tuple(pid % 2 for pid in range(n))


def _parity_assignment(view: AdversaryView) -> tuple[int, ...]:
    """Camp by recipient-id parity (even -> 0, odd -> 1), shared per round."""
    return view.memo(
        "camps-parity", lambda: tuple(pid % 2 for pid in range(view.n))
    )


def _split_assignment(view: AdversaryView) -> tuple[int, ...]:
    """The bisection partition: camp 0 at/below the correct midpoint.

    Recipients with unknown state (not in ``view.values``) fall back to
    id parity, mirroring :meth:`SplitAttack.attack_message` exactly.
    Shared across every sender of the round via the view memo.
    """

    def build() -> tuple[int, ...]:
        midpoint = view.correct_range().midpoint()
        values = view.values
        array = getattr(values, "array", None)
        if array is not None:
            # Array-backed snapshots cover every pid, so the parity
            # fallback can't trigger; the comparison is the camp index.
            codes = (array > midpoint).astype("i8")
            assignment = CampAssignment(codes.tolist())
            assignment.array = codes
            return assignment
        assignment = []
        for pid in range(view.n):
            value = values.get(pid)
            if value is None:
                assignment.append(pid % 2)
            else:
                assignment.append(0 if value <= midpoint else 1)
        return tuple(assignment)

    return view.memo("camps-split", build)


class FixedValue(ValueStrategy):
    """Always say the same constant -- the simplest symmetric lie."""

    sender_agnostic = True

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def attack_message(
        self, view: AdversaryView, sender: int, recipient: int | None
    ) -> float:
        return self.value

    def attack_camps(
        self, view: AdversaryView, sender: int
    ) -> RecipientCamps | None:
        return RecipientCamps(
            values=(self.value,), assignment=_zero_assignment(view)
        )

    @classmethod
    def class_values(cls, group) -> ClassValues:
        value = _row_params(group, "value")
        return _class_tables(value, [value], "zero")

    def describe(self) -> str:
        return f"fixed({self.value:g})"

    def __repr__(self) -> str:
        return f"FixedValue({self.value!r})"


class SplitAttack(ValueStrategy):
    """The classic bisection attack: keep the correct processes apart.

    Recipients whose current value lies at or below the midpoint of the
    correct range receive the range *minimum*; the others receive the
    range *maximum*.  This reinforces each side's extreme and is the
    worst case for trim-based algorithms (it realises the adversary of
    the paper's lower-bound executions E3).

    ``low``/``high`` override the sent values (used by scripted
    scenarios with a fixed [0, 1] input range).
    """

    sender_agnostic = True

    def __init__(self, low: float | None = None, high: float | None = None) -> None:
        self.low = low
        self.high = high

    def attack_message(
        self, view: AdversaryView, sender: int, recipient: int | None
    ) -> float:
        interval = view.correct_range()
        low = interval.low if self.low is None else self.low
        high = interval.high if self.high is None else self.high
        if recipient is None:
            # Symmetric variant: a single maximally-eccentric value.
            return high
        recipient_value = view.values.get(recipient)
        if recipient_value is None:
            # Unknown recipient state (e.g. another faulty process):
            # split deterministically by identifier parity.
            return low if recipient % 2 == 0 else high
        return low if recipient_value <= interval.midpoint() else high

    def attack_camps(
        self, view: AdversaryView, sender: int
    ) -> RecipientCamps | None:
        interval = view.correct_range()
        low = interval.low if self.low is None else self.low
        high = interval.high if self.high is None else self.high
        return RecipientCamps(
            values=(low, high), assignment=_split_assignment(view)
        )

    @classmethod
    def class_values(cls, group) -> ClassValues:
        low = _row_params(group, "low", group.low)
        high = _row_params(group, "high", group.high)
        return _class_tables(high, [low, high], "split")

    def describe(self) -> str:
        if self.low is None and self.high is None:
            return "split(range)"
        low = "range" if self.low is None else f"{self.low:g}"
        high = "range" if self.high is None else f"{self.high:g}"
        return f"split({low},{high})"


class OutlierAttack(ValueStrategy):
    """Send values far outside the correct range.

    Exercises the reduction stage (P1): every sent value must be trimmed
    or Validity breaks.  ``magnitude`` controls how far outside; the
    sign alternates with the recipient id so both ends are attacked.
    """

    sender_agnostic = True

    def __init__(self, magnitude: float = 1e6) -> None:
        if magnitude <= 0:
            raise ValueError("magnitude must be positive")
        self.magnitude = float(magnitude)

    def attack_message(
        self, view: AdversaryView, sender: int, recipient: int | None
    ) -> float:
        interval = view.correct_range()
        if recipient is None or recipient % 2 == 0:
            return interval.high + self.magnitude
        return interval.low - self.magnitude

    def attack_camps(
        self, view: AdversaryView, sender: int
    ) -> RecipientCamps | None:
        interval = view.correct_range()
        return RecipientCamps(
            values=(interval.high + self.magnitude, interval.low - self.magnitude),
            assignment=_parity_assignment(view),
        )

    @classmethod
    def class_values(cls, group) -> ClassValues:
        magnitude = _row_params(group, "magnitude")
        above = group.high + magnitude
        return _class_tables(above, [above, group.low - magnitude], "parity")

    def describe(self) -> str:
        return f"outlier({self.magnitude:g})"


class RandomNoise(ValueStrategy):
    """Uniform random values within an envelope around the correct range.

    ``spread`` scales the envelope: 1.0 keeps lies inside the correct
    range, larger values allow out-of-range lies.  Uses the view's
    seeded adversary rng, so runs stay reproducible.
    """

    def __init__(self, spread: float = 2.0) -> None:
        if spread <= 0:
            raise ValueError("spread must be positive")
        self.spread = float(spread)

    def attack_message(
        self, view: AdversaryView, sender: int, recipient: int | None
    ) -> float:
        interval = view.correct_range()
        center = interval.midpoint()
        half_width = max(interval.width, 1e-9) * self.spread / 2.0
        return view.rng.uniform(center - half_width, center + half_width)

    def describe(self) -> str:
        return f"noise(spread={self.spread:g})"


class EchoCorrect(ValueStrategy):
    """A *weak* adversary that mimics a correct process.

    Sends the midpoint of the correct range everywhere.  Used as a
    control in experiments: with this adversary even under-provisioned
    systems converge, which shows the bounds of Table 2 are about
    worst-case adversaries, not averages.
    """

    sender_agnostic = True

    def attack_message(
        self, view: AdversaryView, sender: int, recipient: int | None
    ) -> float:
        return view.correct_midpoint()

    def attack_camps(
        self, view: AdversaryView, sender: int
    ) -> RecipientCamps | None:
        return RecipientCamps(
            values=(view.correct_midpoint(),), assignment=_zero_assignment(view)
        )

    @classmethod
    def class_values(cls, group) -> ClassValues:
        # Interval.midpoint's arithmetic, element-wise.
        midpoint = (group.low + group.high) / 2.0
        return _class_tables(midpoint, [midpoint], "zero")

    def describe(self) -> str:
        return "echo-correct"


class OscillatingAttack(ValueStrategy):
    """Time-varying symmetric lies: all-low rounds alternate with
    all-high rounds.

    Each round the faulty processes jointly push one end of the correct
    range (the low end on even rounds, the high end on odd rounds).
    Within a round the behaviour is symmetric, but across rounds it
    exercises the *temporal* robustness of the protocol: reductions
    must keep filtering even though the lie direction flips under the
    moving agents.
    """

    sender_agnostic = True

    def attack_message(
        self, view: AdversaryView, sender: int, recipient: int | None
    ) -> float:
        interval = view.correct_range()
        return interval.low if view.round_index % 2 == 0 else interval.high

    def attack_camps(
        self, view: AdversaryView, sender: int
    ) -> RecipientCamps | None:
        interval = view.correct_range()
        value = interval.low if view.round_index % 2 == 0 else interval.high
        return RecipientCamps(
            values=(value,), assignment=_zero_assignment(view)
        )

    @classmethod
    def class_values(cls, group) -> ClassValues:
        value = group.low if group.round_index % 2 == 0 else group.high
        return _class_tables(value, [value], "zero")

    def describe(self) -> str:
        return "oscillating"


class InertiaAttack(ValueStrategy):
    """Echo each recipient its *own* current value.

    A subtle anti-convergence attack: instead of pushing extremes, the
    adversary reinforces every process's current position, maximising
    the weight of the status quo inside each multiset.  Trimming caps
    its effect -- experiments show it slows convergence by at most the
    predicted contraction factor -- but it is the natural "keep them
    apart without being an outlier" strategy and exercises recipient-
    dependent lies that stay *inside* the correct range (so P1 can
    never flag them).
    """

    sender_agnostic = True

    def attack_message(
        self, view: AdversaryView, sender: int, recipient: int | None
    ) -> float:
        if recipient is None:
            return view.correct_midpoint()
        value = view.values.get(recipient)
        if value is None:
            return view.correct_midpoint()
        # Clamp to the correct range: corrupted memories of other
        # faulty processes must not leak outliers through this path.
        interval = view.correct_range()
        return min(max(value, interval.low), interval.high)

    def attack_outbox(
        self, view: AdversaryView, sender: int, recipients: Iterable[int]
    ) -> dict[int, float]:
        interval = view.correct_range()
        low, high = interval.low, interval.high
        midpoint = interval.midpoint()
        values = view.values
        outbox = {}
        for recipient in recipients:
            value = values.get(recipient)
            outbox[recipient] = (
                midpoint if value is None else min(max(value, low), high)
            )
        return outbox

    def describe(self) -> str:
        return "inertia"


class CrossfireAttack(ValueStrategy):
    """A *sender-dependent* split: agents push the camps in opposite
    directions.

    Even-indexed agents behave like the classic split attack (low camp
    hears the minimum, high camp the maximum); odd-indexed agents
    invert it, feeding each camp the opposite extreme.  Each recipient
    thus hears *both* extremes from the attacking coalition, which
    stresses the reduction from both sides simultaneously.  The camp
    *partition* is shared by all senders and the outputs depend on the
    sender only through its parity, so there are exactly two sender
    classes: fault planning builds two outboxes, two departure values
    and two corrupted computes per round however many agents attack.
    """

    def sender_class(self, sender: int) -> int:
        return sender % 2

    def sender_classes(self, n: int) -> tuple:
        if type(self).sender_class is not CrossfireAttack.sender_class:
            return super().sender_classes(n)
        return _parity_classes(n)

    def attack_message(
        self, view: AdversaryView, sender: int, recipient: int | None
    ) -> float:
        interval = view.correct_range()
        low, high = interval.low, interval.high
        if recipient is None:
            # Symmetric variant (departures, static symmetric faults):
            # each agent commits to its own extreme.
            return high if sender % 2 == 0 else low
        recipient_value = view.values.get(recipient)
        if recipient_value is None:
            low_camp = recipient % 2 == 0
        else:
            low_camp = recipient_value <= interval.midpoint()
        if sender % 2 == 0:
            return low if low_camp else high
        return high if low_camp else low

    def attack_camps(
        self, view: AdversaryView, sender: int
    ) -> RecipientCamps | None:
        interval = view.correct_range()
        low, high = interval.low, interval.high
        values = (low, high) if sender % 2 == 0 else (high, low)
        return RecipientCamps(
            values=values, assignment=_split_assignment(view)
        )

    @classmethod
    def class_values(cls, group) -> ClassValues:
        # Column c is the class of sender group.senders[c]: even senders
        # depart high and feed (low, high); odd ones the reverse.
        even = _np.array([sender % 2 == 0 for sender in group.senders])
        low = group.low[:, None]
        high = group.high[:, None]
        departures = _np.where(even, high, low)
        camps = _np.stack(
            [_np.where(even, low, high), departures], axis=2
        )
        return ClassValues(departures, departures, camps, "split")

    def describe(self) -> str:
        return "crossfire"
