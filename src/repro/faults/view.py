"""The omniscient adversary's view of a round.

Mobile Byzantine agents are computationally unbounded and, in the worst
case, fully informed: strategies receive a snapshot of the entire system
state at the moment they act.  Keeping the view explicit (rather than
letting strategies poke at the simulator) makes strategies pure
functions of ``view -> choice``, which keeps runs reproducible and lets
tests construct views directly.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..msr.multiset import Interval

try:  # numpy is optional: the scalar paths never need it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = ["AdversaryView", "batch_correct_ranges"]


def batch_correct_ranges(stack, mask):
    """Correct-range endpoints for a whole stack of runs at once.

    The cross-run planner's batched companion to
    :meth:`AdversaryView._correct_range_from_array`: one masked min/max
    reduction over the ``(R, n)`` value ``stack`` (``mask`` True where a
    process is currently correct) yields every run's endpoints in a
    single numpy pass.  Masked min/max merely *select* elements, so the
    floats are bit-identical to the view's own per-run reduction.

    Returns ``(low, high, exact)`` float64 and bool arrays.  ``exact``
    is False -- deferring to the view's lazy first-wins scalar rescan,
    exactly the per-cell behaviour -- where an endpoint is ``0.0``
    (either signed zero under numpy's reductions) or the row is fully
    masked (``inf`` endpoints).  Callers seed exact intervals onto
    views as ``_correct_range`` and leave the rest for
    :meth:`AdversaryView.correct_range` to recompute.
    """
    inf = _np.inf
    low = _np.where(mask, stack, inf).min(axis=1)
    high = _np.where(mask, stack, -inf).max(axis=1)
    # A fully masked row is the one whose low is +inf (its high is -inf).
    exact = (low != 0.0) & (high != 0.0) & (low != inf)
    return low, high, exact


class _LazyCorrectValues:
    """Descriptor deriving ``correct_values`` from the view on demand.

    Building the correct-value dict eagerly was one of the hottest
    allocations of a whole simulation (every round, every controller),
    yet most strategies only ever ask for :meth:`AdversaryView.correct_range`,
    which the array fast path answers without the dict.  Constructors
    may still pass an explicit mapping (tests do); passing nothing
    defers the dict comprehension until some strategy actually reads
    the attribute.
    """

    def __get__(self, view, owner=None):
        if view is None:
            return self
        cached = view.__dict__.get("correct_values")
        if cached is None:
            cached = {
                pid: value
                for pid, value in view.values.items()
                if pid not in view.positions and pid not in view.cured
            }
            view.__dict__["correct_values"] = cached
        return cached

    def __set__(self, view, value):
        view.__dict__["correct_values"] = value


@dataclass(frozen=True)
class AdversaryView:
    """Everything the adversary knows when choosing an action.

    Attributes
    ----------
    round_index:
        The current round ``r_k``.
    n, f:
        System size and number of mobile agents.
    values:
        True current memory value of every process (the adversary reads
        all memories, including corrupted ones).
    positions:
        Processes currently hosting an agent.
    cured:
        Processes in the cured state this round.
    correct_values:
        Memory values of the processes that are neither faulty nor
        cured -- the ``U``-generators whose range Validity protects.
        Derived lazily from ``values``/``positions``/``cured`` when the
        constructor leaves it unset (the controllers' fast path).
    rng:
        Deterministic randomness stream reserved for the adversary.
    topology:
        The run's communication graph (:class:`~repro.topology.Topology`),
        when one is configured: the omniscient adversary knows which
        channels exist, so strategies can target cut vertices or avoid
        wasting lies on unreachable recipients.  ``None`` (the default
        for directly-constructed views) reads as the full mesh.
    """

    round_index: int
    n: int
    f: int
    values: Mapping[int, float]
    positions: frozenset[int]
    cured: frozenset[int]
    correct_values: Mapping[int, float] | None = None
    rng: random.Random = field(default_factory=random.Random, compare=False)
    topology: object | None = field(default=None, compare=False)

    @property
    def correct_ids(self) -> frozenset[int]:
        """Identifiers of currently-correct processes."""
        return frozenset(self.correct_values)

    @classmethod
    def snapshot(
        cls,
        round_index: int,
        n: int,
        f: int,
        values: Mapping[int, float],
        positions: frozenset[int],
        cured: frozenset[int],
        rng: random.Random,
        topology: object | None,
    ) -> "AdversaryView":
        """The view ``cls(...)`` would build, with ``correct_values`` lazy.

        Fault controllers build several views per run and round; filling
        the instance dict directly skips the frozen dataclass's
        per-field ``object.__setattr__`` calls.
        """
        view = object.__new__(cls)
        view.__dict__.update(
            round_index=round_index,
            n=n,
            f=f,
            values=values,
            positions=positions,
            cured=cured,
            correct_values=None,
            rng=rng,
            topology=topology,
        )
        return view

    def correct_range(self) -> Interval:
        """The interval spanned by currently-correct values.

        Falls back to the range over *all* values when no process is
        correct (only possible in deliberately degenerate tests).

        The view is an immutable snapshot, so the interval is computed
        once and cached: strategies query it per message, which made it
        the hottest call of a whole simulation before caching.
        """
        cached = self.__dict__.get("_correct_range")
        if cached is not None:
            return cached
        interval = self._correct_range_from_array()
        if interval is None:
            source = self.correct_values or self.values
            if not source:
                raise ValueError("adversary view contains no process values")
            interval = Interval(min(source.values()), max(source.values()))
        object.__setattr__(self, "_correct_range", interval)
        return interval

    def _correct_range_from_array(self) -> Interval | None:
        """Masked min/max over an array-backed value snapshot.

        Applies only when ``correct_values`` was left to its lazy
        default -- an explicit mapping is authoritative and may differ
        from the derived one.  Returns ``None`` to defer to the scalar
        fallback only when no array mirror exists.  A ``0.0`` endpoint
        could be either signed zero under numpy's min/max (``-0.0 ==
        0.0``), so those rounds recompute with the first-wins scalar
        scan over the same snapshot -- without materializing the
        ``correct_values`` dict the generic fallback would build.
        """
        if _np is None or self.__dict__.get("correct_values") is not None:
            return None
        array = getattr(self.values, "array", None)
        if array is None:
            return None
        # Controllers stash one shared exclusion mask per round (both
        # value views exclude the same positions/cured sets).
        mask = self.__dict__.get("_range_mask")
        if mask is not None:
            sub = array[mask]
        else:
            excluded = self.positions | self.cured
            if excluded:
                mask = _np.ones(array.shape[0], dtype=bool)
                mask[list(excluded)] = False
                sub = array[mask]
            else:
                sub = array
        if not sub.shape[0]:
            # No correct process at all (degenerate, test-only
            # configurations): the fallback ranges over every value.
            sub = array
            if not sub.shape[0]:
                return None
        low = sub.min()
        high = sub.max()
        # A 0.0 endpoint could be either signed zero; the scalar scan
        # keeps the *first* minimal/maximal occurrence in pid order.
        # Masking preserved pid order, so the first element comparing
        # equal to zero is exactly the scan's pick (for any other
        # endpoint, equal floats share one bit pattern).
        if low == 0.0:
            low = sub[int(_np.argmax(sub == 0.0))]
        if high == 0.0:
            high = sub[int(_np.argmax(sub == 0.0))]
        return Interval(float(low), float(high))

    def correct_midpoint(self) -> float:
        """Midpoint of the correct range; the split point of attacks."""
        return self.correct_range().midpoint()

    def neighbors(self, pid: int) -> frozenset[int]:
        """Processes whose channel to ``pid`` exists (excluding ``pid``).

        Falls back to "everyone else" when no topology is attached, so
        strategies can consult reachability unconditionally.
        """
        if self.topology is None:
            return frozenset(range(self.n)) - {pid}
        return self.topology.neighbor_sets[pid]

    def memo(self, key: str, compute):
        """Cache a per-round derived quantity on this (immutable) view.

        Value strategies use this to share work across the senders of a
        round -- e.g. the recipient-class assignment of a camp-declaring
        strategy is computed once per view however many agents attack
        (see :meth:`~repro.faults.value_strategies.ValueStrategy.attack_camps`).
        The view is a frozen snapshot, so memoized values can never go
        stale within it.
        """
        cache = self.__dict__.get("_memo")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_memo", cache)
        if key not in cache:
            cache[key] = compute()
        return cache[key]


# Installed after the dataclass machinery has captured the field's None
# default: object.__setattr__ in the generated __init__ routes through
# this data descriptor, so an explicit mapping is stored verbatim and
# the None default triggers the lazy derivation on first access.
AdversaryView.correct_values = _LazyCorrectValues()
