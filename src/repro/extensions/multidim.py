"""Multidimensional approximate agreement: the robot-gathering use case.

The paper's introduction motivates approximate agreement with mobile
robots converging to nearby positions.  Positions are vectors, so this
extension lifts the scalar machinery coordinate-wise, in the spirit of
Mendes-Herlihy multidimensional agreement restricted to box validity:

* each coordinate runs an independent scalar MSR agreement;
* the *fault pattern* (agent positions per round) is shared across
  coordinates -- an agent occupying a robot corrupts all coordinates of
  what it says;
* Validity becomes *box validity*: every decided point lies in the
  bounding box of the initially non-faulty inputs;
* epsilon-Agreement is measured in the infinity norm (each coordinate
  within epsilon), the natural notion for coordinate-wise protocols.

The shared fault pattern relies on movement strategies that do not read
process values (static, round-robin, random, alternating, scripted):
identically-seeded runs then move agents identically in every
coordinate.  Value-dependent strategies (``TargetExtremes``) are
rejected because coordinates would diverge.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..api import mobile_config
from ..core.specification import check_trace
from ..faults.movement import (
    AlternatingPools,
    MovementStrategy,
    RandomJump,
    RoundRobinWalk,
    ScriptedMovement,
    StaticAgents,
)
from ..faults.models import MobileModel
from ..msr.base import MSRFunction
from ..runtime.simulator import simulate_many
from ..runtime.trace import Trace

__all__ = [
    "MultidimResult",
    "multidim_simulate",
    "gathering_diameter",
    "ensure_value_blind_movement",
]

_VALUE_BLIND_MOVEMENTS = (
    StaticAgents,
    RoundRobinWalk,
    RandomJump,
    AlternatingPools,
    ScriptedMovement,
)


@dataclass(frozen=True)
class MultidimResult:
    """Outcome of a multidimensional agreement run."""

    dimension: int
    traces: tuple[Trace, ...]
    #: Decided point of every process non-faulty in all coordinates.
    decisions: dict[int, tuple[float, ...]]

    def decision_diameter_inf(self) -> float:
        """Largest pairwise infinity-norm distance between decisions."""
        points = list(self.decisions.values())
        worst = 0.0
        for i, p in enumerate(points):
            for q in points[i + 1 :]:
                worst = max(
                    worst, max(abs(a - b) for a, b in zip(p, q))
                )
        return worst

    def validity_box(self) -> list[tuple[float, float]]:
        """Per-coordinate range of the initially non-faulty inputs."""
        box = []
        for trace in self.traces:
            interval = trace.validity_interval()
            box.append((interval.low, interval.high))
        return box

    def box_validity_holds(self, tolerance: float = 1e-9) -> bool:
        """Every decision inside the initial non-faulty bounding box."""
        box = self.validity_box()
        for point in self.decisions.values():
            for coordinate, (low, high) in zip(point, box):
                if not low - tolerance <= coordinate <= high + tolerance:
                    return False
        return True

    def scalar_verdicts(self):
        """Per-coordinate specification verdicts."""
        return [check_trace(trace) for trace in self.traces]


def multidim_simulate(
    points: Sequence[Sequence[float]],
    model: MobileModel | str = "M1",
    f: int = 1,
    algorithm: str | MSRFunction = "ftm",
    movement: str | MovementStrategy = "round-robin",
    attack: str = "split",
    rounds: int = 30,
    epsilon: float = 1e-3,
    seed: int = 0,
) -> MultidimResult:
    """Run coordinate-wise approximate agreement on vector inputs.

    ``points[i]`` is process ``i``'s initial vector (e.g. a robot's
    position).  All vectors must share one dimension.
    """
    if not points:
        raise ValueError("need at least one input point")
    dimension = len(points[0])
    if dimension < 1:
        raise ValueError("points must have at least one coordinate")
    if any(len(point) != dimension for point in points):
        raise ValueError("all points must share the same dimension")

    traces, decisions = run_coordinates(
        [[point[axis] for point in points] for axis in range(dimension)],
        model=model,
        f=f,
        n=len(points),
        algorithm=algorithm,
        movement=ensure_value_blind_movement(movement),
        attack=attack,
        rounds=rounds,
        epsilon=epsilon,
        seed=seed,
    )
    return MultidimResult(dimension=dimension, traces=traces, decisions=decisions)


def run_coordinates(
    columns: Sequence[Sequence[float]], **options
) -> tuple[tuple[Trace, ...], dict[int, tuple[float, ...]]]:
    """One scalar agreement per coordinate, on one shared fault pattern.

    ``columns[k]`` holds coordinate ``k``'s initial values and
    ``options`` the :func:`~repro.api.mobile_config` arguments every
    coordinate shares (a value-blind movement and one seed, so each
    coordinate's agents move identically).  All coordinates run in one
    :func:`~repro.runtime.simulator.simulate_many` call.  Returns the
    per-coordinate full traces and the decided vector of every process
    non-faulty in all coordinates.  Shared by every coordinate-wise
    construction (multidim, interactive consistency).
    """
    traces = tuple(
        simulate_many(
            [mobile_config(initial_values=column, **options) for column in columns],
            trace_detail="full",
        )
    )
    patterns = {
        tuple((r.faulty_at_send, r.cured_at_send) for r in trace.rounds)
        for trace in traces
    }
    if len(patterns) > 1:
        raise RuntimeError(
            "fault patterns diverged between coordinates; use a "
            "value-blind movement strategy"
        )
    shared = set(traces[0].decisions).intersection(
        *(trace.decisions for trace in traces[1:])
    )
    decisions = {
        pid: tuple(trace.decisions[pid] for trace in traces)
        for pid in sorted(shared)
    }
    return traces, decisions


def gathering_diameter(points: Sequence[Sequence[float]]) -> float:
    """Infinity-norm diameter of a point set (gathering quality metric)."""
    worst = 0.0
    points = [tuple(point) for point in points]
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            worst = max(worst, max(abs(a - b) for a, b in zip(p, q)))
    return worst


def ensure_value_blind_movement(
    movement: str | MovementStrategy,
) -> str | MovementStrategy:
    """Validate that the movement strategy is value-blind.

    Named strategies are re-resolved per coordinate (fresh instances);
    instances are checked by type.  Value-dependent strategies would
    give each coordinate a different fault pattern.  Shared by every
    coordinate-wise construction (multidim, interactive consistency).
    """
    if isinstance(movement, str):
        if movement == "target-extremes":
            raise ValueError(
                "target-extremes reads process values and cannot be "
                "shared across coordinates"
            )
        return movement
    if not isinstance(movement, _VALUE_BLIND_MOVEMENTS):
        raise ValueError(
            f"{type(movement).__name__} is not value-blind; "
            "multidimensional runs need identical fault patterns per "
            "coordinate"
        )
    return movement
