"""Agent movement strategies: where the mobile Byzantine agents go.

Section 3 of the paper: between rounds, the adversary may move each of
its ``f`` agents arbitrarily (for M4, the move happens with the
message).  A :class:`MovementStrategy` chooses the set of occupied
processes each round; the fault controller enforces the model's timing.

Strategies must return at most ``f`` positions.  Staying put is always
allowed ("agents *can* move" -- they do not have to), which is what
:class:`StaticAgents` exploits to degenerate the mobile model into the
classical static Byzantine model for comparison experiments.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence

try:  # numpy is optional: every strategy has a scalar path.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

from .view import AdversaryView

__all__ = [
    "MovementStrategy",
    "StaticAgents",
    "RoundRobinWalk",
    "RandomJump",
    "AlternatingPools",
    "TargetExtremes",
    "ScriptedMovement",
]


class MovementStrategy(ABC):
    """Base class for agent movement policies."""

    @abstractmethod
    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        """Agent positions at round 0 (no process is cured yet)."""

    @abstractmethod
    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        """Agent positions for the next movement step."""

    @classmethod
    def next_hosts(cls, group):
        """The next movement step of a group of stacked runs, as masks.

        The cross-run planner calls this once per round for each group
        of runs whose movements share this hook.  ``group`` carries
        ``strategies`` (one per row), ``hosts`` (the rows' current
        agent hosts as an ``(rows, n)`` bool array), ``n``, ``f`` (an
        int array, one per row), ``view(k)`` (row ``k``'s movement view,
        exactly as its controller would build it) and ``masks_of``
        (rows' next positions as masks, each checked like the
        controller's).  Returns the next hosts as an ``(rows, n)`` bool
        array.

        The default steps each row through its own
        :meth:`next_positions`, so strategies that draw randomness
        consume each run's stream in per-run order.  An override must
        equal that step on every row, and :meth:`next_positions` must
        depend on the view only through ``positions``, ``n`` and ``f``:
        the planner rebuilds a row's position set, when a consumer
        needs one in per-run iteration order, by replaying
        :meth:`next_positions`.  A subclass that re-routes
        :meth:`next_positions` gets this default instead of its
        parent's override.
        """
        return group.masks_of(
            [
                strategy.next_positions(group.view(k))
                for k, strategy in enumerate(group.strategies)
            ]
        )

    def describe(self) -> str:
        """Short name used in experiment tables."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    @staticmethod
    def _validate(positions: frozenset[int], n: int, f: int) -> frozenset[int]:
        if len(positions) > f:
            raise ValueError(
                f"movement placed {len(positions)} agents but only f={f} exist"
            )
        if positions and (min(positions) < 0 or max(positions) >= n):
            bad = [pid for pid in positions if pid < 0 or pid >= n]
            raise ValueError(f"movement placed agents on invalid ids {bad}")
        return positions


class StaticAgents(MovementStrategy):
    """Agents never move: the classical static Byzantine special case."""

    def __init__(self, positions: Sequence[int] | None = None) -> None:
        self._fixed = None if positions is None else frozenset(positions)

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        positions = self._fixed if self._fixed is not None else frozenset(range(f))
        return self._validate(positions, n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        return view.positions

    @classmethod
    def next_hosts(cls, group):
        return group.hosts

    def describe(self) -> str:
        return "static"


class RoundRobinWalk(MovementStrategy):
    """Agents sweep the ring: positions shift by ``stride`` each round.

    With the default ``stride = f`` every process is eventually visited,
    maximising the number of distinct processes that experience the
    cured state -- the canonical "perturbation sweeping across the
    network" scenario from the paper's introduction.
    """

    def __init__(self, stride: int | None = None) -> None:
        if stride is not None and stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        return self._validate(frozenset(range(min(f, n))), n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        stride = self.stride if self.stride is not None else max(view.f, 1)
        positions = view.positions
        if _np is not None and len(positions) >= 32:
            # Same set, computed in one vector op.  A frozenset's
            # iteration order does depend on insertion order when ints
            # collide in its table (list(frozenset([1, 9])) is [1, 9],
            # list(frozenset([9, 1])) is [9, 1]); both branches agree
            # because both insert in ``positions`` order.
            stepped = _np.fromiter(positions, dtype=_np.int64, count=len(positions))
            moved = frozenset(((stepped + stride) % view.n).tolist())
        else:
            moved = frozenset((pid + stride) % view.n for pid in positions)
        return self._validate(moved, view.n, view.f)

    @classmethod
    def next_hosts(cls, group):
        # One column roll per row: j hosts an agent after the step iff
        # (j - stride) % n hosted one before.
        given = [strategy.stride for strategy in group.strategies]
        if given.count(None) == len(given):
            strides = _np.maximum(group.f, 1)
        else:
            strides = _np.array(
                [
                    max(f, 1) if stride is None else stride
                    for stride, f in zip(given, group.f.tolist())
                ]
            )
        hosts = group.hosts
        n = group.n
        if (strides == strides[0]).all():
            split = n - int(strides[0]) % n
            return _np.concatenate((hosts[:, split:], hosts[:, :split]), axis=1)
        sources = (_np.arange(n) - strides[:, None]) % n
        return hosts[_np.arange(strides.shape[0])[:, None], sources]

    def describe(self) -> str:
        return f"round-robin(stride={self.stride or 'f'})"


class RandomJump(MovementStrategy):
    """Each round the agents jump to a fresh uniformly random subset.

    ``move_probability`` below 1.0 makes each round's jump conditional,
    producing bursty occupations (agents linger, then scatter).
    """

    def __init__(self, move_probability: float = 1.0) -> None:
        if not 0.0 <= move_probability <= 1.0:
            raise ValueError("move_probability must be within [0, 1]")
        self.move_probability = move_probability

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        count = min(f, n)
        return self._validate(frozenset(rng.sample(range(n), count)), n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        if view.rng.random() > self.move_probability:
            return view.positions
        count = min(view.f, view.n)
        return self._validate(
            frozenset(view.rng.sample(range(view.n), count)), view.n, view.f
        )

    def describe(self) -> str:
        if self.move_probability >= 1.0:
            return "random-jump"
        return f"random-jump(p={self.move_probability:g})"


class AlternatingPools(MovementStrategy):
    """Agents alternate between two disjoint pools of processes.

    The workhorse of the lower-bound stall scenarios: the pool vacated
    this round is exactly the cured set of the next round, so the
    adversary sustains ``|cured| = f`` forever (the per-round worst case
    of Corollary 1).
    """

    def __init__(self, pool_a: Sequence[int], pool_b: Sequence[int]) -> None:
        self.pool_a = frozenset(pool_a)
        self.pool_b = frozenset(pool_b)
        if self.pool_a & self.pool_b:
            raise ValueError("pools must be disjoint")
        if not self.pool_a or not self.pool_b:
            raise ValueError("pools must be non-empty")

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        return self._validate(self.pool_a, n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        target = self.pool_b if view.positions == self.pool_a else self.pool_a
        return self._validate(target, view.n, view.f)

    def describe(self) -> str:
        return "alternating-pools"


class TargetExtremes(MovementStrategy):
    """Occupy the processes holding the most extreme values.

    A greedy adversary that corrupts whichever processes currently
    anchor the ends of the correct range, maximising the information
    destroyed per move.
    """

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        return self._validate(frozenset(range(min(f, n))), n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        candidates = sorted(
            view.values, key=lambda pid: (view.values[pid], pid)
        )
        picked: set[int] = set()
        low, high = 0, len(candidates) - 1
        # Alternate ends so both extremes lose their anchors.
        while len(picked) < min(view.f, view.n) and low <= high:
            picked.add(candidates[low])
            low += 1
            if len(picked) < min(view.f, view.n) and low <= high:
                picked.add(candidates[high])
                high -= 1
        return self._validate(frozenset(picked), view.n, view.f)

    def describe(self) -> str:
        return "target-extremes"


class ScriptedMovement(MovementStrategy):
    """Positions read from an explicit per-movement script.

    ``script[0]`` is the initial placement; each subsequent call to
    :meth:`next_positions` consumes the next entry (one call happens per
    movement step).  Steps beyond the script's end repeat the last
    entry.  Used by regression tests to pin exact executions (e.g. the
    E1/E2/E3 constructions).
    """

    def __init__(self, script: Sequence[Sequence[int]]) -> None:
        if not script:
            raise ValueError("script must contain at least one entry")
        self.script = [frozenset(entry) for entry in script]
        self._step = 0

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        self._step = 1
        return self._validate(self.script[0], n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        index = min(self._step, len(self.script) - 1)
        self._step += 1
        return self._validate(self.script[index], view.n, view.f)

    def describe(self) -> str:
        return f"scripted({len(self.script)} steps)"
