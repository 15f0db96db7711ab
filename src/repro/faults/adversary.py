"""The adversary: a movement strategy paired with a value strategy.

The paper's adversary "controls Byzantine agents and moves them from one
process to another" (Section 1) and, while an agent sits on a process,
chooses every message it sends and every value it leaves in memory.
:class:`Adversary` bundles the two orthogonal policies; the fault
controller in :mod:`repro.runtime` consults it at the model-appropriate
moments.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Hashable, Iterable

from .movement import MovementStrategy, StaticAgents
from .value_strategies import SplitAttack, ValueStrategy
from .view import AdversaryView

__all__ = ["Adversary"]

#: The per-run value hooks a batched ``class_values`` override stands in
#: for: re-routing any of them below the override opts out of it.
_VALUE_HOOKS = (
    "sender_class",
    "attack_message",
    "attack_outbox",
    "attack_camps",
    "planted_message",
    "planted_outbox",
    "planted_camps",
    "departure_value",
    "corrupted_compute",
)


def _batched_hook(cls: type, name: str, base: type, hooks: tuple):
    """``cls``'s batched hook ``name``, or ``base``'s default.

    The override stands in for the per-run ``hooks`` as the class that
    defines it wrote them; a subclass that re-routes any of them gets
    the default, which calls the per-run hooks.
    """
    owner = next(klass for klass in cls.__mro__ if name in vars(klass))
    if all(getattr(cls, hook) is getattr(owner, hook) for hook in hooks):
        return getattr(owner, name)
    return getattr(base, name)


class Adversary:
    """A complete adversary: where agents go and what they make hosts say."""

    def __init__(
        self,
        movement: MovementStrategy | None = None,
        values: ValueStrategy | None = None,
    ) -> None:
        self.movement = movement if movement is not None else StaticAgents()
        self.values = values if values is not None else SplitAttack()

    # -- movement -------------------------------------------------------------

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        """Agent placement for round 0."""
        return self.movement.initial_positions(n, f, rng)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        """Agent placement after the next movement step."""
        return self.movement.next_positions(view)

    # -- values ---------------------------------------------------------------

    def attack_message(
        self, view: AdversaryView, sender: int, recipient: int | None
    ) -> float:
        """Message a faulty ``sender`` sends to ``recipient`` (None = symmetric)."""
        return self.values.attack_message(view, sender, recipient)

    def attack_outbox(
        self, view: AdversaryView, sender: int, recipients: Iterable[int]
    ) -> dict[int, float]:
        """A faulty ``sender``'s whole per-recipient outbox in one call.

        Bit-identical to calling :meth:`attack_message` per recipient in
        order (see :meth:`ValueStrategy.attack_outbox`); the fault
        controllers use this batch form on their hot path.  A subclass
        that overrides the per-message :meth:`attack_message` is still
        honoured: the batch form detects the override and loops through
        it.
        """
        if type(self).attack_message is not Adversary.attack_message:
            attack = self.attack_message
            return {
                recipient: attack(view, sender, recipient)
                for recipient in recipients
            }
        return self.values.attack_outbox(view, sender, recipients)

    def attack_camps(self, view: AdversaryView, sender: int):
        """The sender's outbox as recipient camps, or ``None``.

        A subclass that re-routes either the per-message or the batch
        hook opts out of camp planning -- the underlying strategy's
        camps could silently disagree with the override.
        """
        if (
            type(self).attack_message is not Adversary.attack_message
            or type(self).attack_outbox is not Adversary.attack_outbox
        ):
            return None
        return self.values.attack_camps(view, sender)

    def departure_value(self, view: AdversaryView, pid: int) -> float:
        """Memory contents the agent leaves behind when departing ``pid``."""
        return self.values.departure_value(view, pid)

    def planted_message(
        self, view: AdversaryView, sender: int, recipient: int
    ) -> float:
        """M3 planted-queue message from cured ``sender`` to ``recipient``."""
        return self.values.planted_message(view, sender, recipient)

    def planted_outbox(
        self, view: AdversaryView, sender: int, recipients: Iterable[int]
    ) -> dict[int, float]:
        """A cured ``sender``'s whole M3 planted queue in one call."""
        if type(self).planted_message is not Adversary.planted_message:
            planted = self.planted_message
            return {
                recipient: planted(view, sender, recipient)
                for recipient in recipients
            }
        return self.values.planted_outbox(view, sender, recipients)

    def planted_camps(self, view: AdversaryView, sender: int):
        """A cured sender's M3 planted queue as recipient camps, or ``None``.

        Mirrors :meth:`attack_camps`: a subclass that re-routes either
        planted hook opts out, because the strategy's camps could
        silently disagree with the override.
        """
        if (
            type(self).planted_message is not Adversary.planted_message
            or type(self).planted_outbox is not Adversary.planted_outbox
        ):
            return None
        return self.values.planted_camps(view, sender)

    @property
    def outbox_class(self) -> Callable[[int], Hashable] | None:
        """The sender-class key of attack and planted outboxes, or ``None``.

        The strategy's :meth:`ValueStrategy.sender_class`, unless a
        subclass re-routes any outbox hook (the override may read
        ``sender``).  Fault controllers build one outbox per class
        present in a round and share it across the class's senders --
        the values are equal by the sender-class contract.
        """
        cls = type(self)
        if (
            cls.attack_message is not Adversary.attack_message
            or cls.attack_outbox is not Adversary.attack_outbox
            or cls.attack_camps is not Adversary.attack_camps
            or cls.planted_message is not Adversary.planted_message
            or cls.planted_outbox is not Adversary.planted_outbox
            or cls.planted_camps is not Adversary.planted_camps
        ):
            return None
        return self.values.sender_class

    @property
    def scalar_class(self) -> Callable[[int], Hashable] | None:
        """The sender-class key of departure and compute values, or ``None``.

        Both scalar corruption hooks default to the symmetric attack
        value ``attack_message(view, pid, None)``, which depends on
        ``pid`` only through the strategy's sender class.  Any override
        of either scalar hook -- on the strategy or on an Adversary
        subclass -- opts out, because the override may read ``pid``.
        """
        if (
            type(self).departure_value is not Adversary.departure_value
            or type(self).corrupted_compute is not Adversary.corrupted_compute
            or type(self.values).departure_value
            is not ValueStrategy.departure_value
            or type(self.values).corrupted_compute
            is not ValueStrategy.corrupted_compute
        ):
            return None
        return self.values.sender_class

    @property
    def class_values_hook(self):
        """The batched hook that plans this adversary's class values.

        The strategy's :meth:`ValueStrategy.class_values`, unless a
        subclass re-routes any per-run value hook below the class that
        overrides it; then the per-row default.  Meaningful only where
        :attr:`outbox_class` and :attr:`scalar_class` are not ``None``.
        """
        return _batched_hook(
            type(self.values), "class_values", ValueStrategy, _VALUE_HOOKS
        )

    @property
    def movement_hook(self):
        """The batched movement step of this adversary's runs, or ``None``.

        The movement's :meth:`MovementStrategy.next_hosts`, unless its
        class re-routes :meth:`MovementStrategy.next_positions` below
        the override (then the per-row default); ``None`` when an
        Adversary subclass re-routes :meth:`next_positions`.
        """
        if type(self).next_positions is not Adversary.next_positions:
            return None
        return _batched_hook(
            type(self.movement), "next_hosts", MovementStrategy, ("next_positions",)
        )

    def corrupted_compute(self, view: AdversaryView, pid: int) -> float:
        """State an occupied process's computation phase ends with."""
        return self.values.corrupted_compute(view, pid)

    def describe(self) -> str:
        """Short description used in experiment tables."""
        return f"{self.movement.describe()}+{self.values.describe()}"

    def __repr__(self) -> str:
        return (
            f"Adversary(movement={self.movement!r}, values={self.values!r})"
        )
