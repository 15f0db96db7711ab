"""Approximate interactive consistency under mobile Byzantine faults.

The paper's conclusion proposes reusing its technique for "agreement,
clock synchronization, interactive consistency etc.".  This extension
covers interactive consistency (IC): every process must output a
*vector* with one entry per process, approximating each process's
input.

Construction
------------
IC decomposes into ``n`` parallel approximate agreements, one per
source:

1. **Dissemination** -- every source broadcasts its input once.
   Authenticated reliable channels deliver a correct source's input
   exactly; a source occupied by an agent sends arbitrary per-recipient
   values.
2. **Voting** -- for each source ``k``, the processes run the MSR
   agreement of the main library, seeded with what they received from
   ``k``.  All ``n`` instances share one fault pattern: an agent on a
   process corrupts *all* coordinates of what it says (the coordinates
   run with identical seeds and a value-blind movement strategy,
   through :func:`repro.extensions.multidim.run_coordinates`).

Guarantees (with ``n > n_Mi``, paper Table 2):

* **eps-Agreement** per coordinate: non-faulty vectors agree within
  ``epsilon`` entry-wise;
* **Exact validity for correct sources**: a source that was non-faulty
  at dissemination time gave every non-faulty process the *same* value,
  so the coordinate starts unanimous and -- by P1 -- remains exactly the
  input forever (unanimity is an MSR fixpoint).  Cured processes
  re-acquire the exact value from the others' copies.
* **Range validity for faulty sources**: outputs stay inside the range
  of the values the source disseminated.

The dissemination is round 0 of the simulator's own
:class:`~repro.runtime.controllers.MobileFaultController`, drawn from
the same derived randomness as every coordinate's round 0: the faulty
sources are each coordinate's initial agent placement, which models an
adversary that keeps its agents in place between dissemination and the
first voting round -- a legal choice the adversary is free to make.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..api import movement_strategy, value_strategy
from ..core.specification import check_trace
from ..faults.adversary import Adversary
from ..faults.models import MobileModel, get_semantics
from ..msr.base import MSRFunction
from ..runtime.controllers import MobileFaultController
from ..runtime.rng import derive_rng
from ..runtime.trace import Trace
from .multidim import ensure_value_blind_movement, run_coordinates

__all__ = ["ICResult", "interactive_consistency"]


@dataclass(frozen=True)
class ICResult:
    """Outcome of an interactive-consistency run."""

    n: int
    f: int
    inputs: tuple[float, ...]
    #: Sources occupied by an agent during dissemination.
    faulty_sources: frozenset[int]
    #: ``vectors[i][k]``: process i's output for source k (processes
    #: non-faulty at the decision round only).
    vectors: dict[int, tuple[float, ...]]
    #: The per-source agreement traces.
    traces: tuple[Trace, ...]

    def agreement_spread(self) -> float:
        """Largest entry-wise disagreement between two output vectors."""
        worst = 0.0
        vectors = list(self.vectors.values())
        for i, left in enumerate(vectors):
            for right in vectors[i + 1 :]:
                worst = max(
                    worst, max(abs(a - b) for a, b in zip(left, right))
                )
        return worst

    def exact_validity_error(self) -> float:
        """Largest deviation from a correct source's actual input."""
        worst = 0.0
        for vector in self.vectors.values():
            for source, estimate in enumerate(vector):
                if source not in self.faulty_sources:
                    worst = max(worst, abs(estimate - self.inputs[source]))
        return worst

    def coordinate_verdicts(self):
        """Full specification verdict of every coordinate's agreement."""
        return [check_trace(trace) for trace in self.traces]


def interactive_consistency(
    inputs: Sequence[float],
    model: MobileModel | str = "M1",
    f: int = 1,
    algorithm: str | MSRFunction = "ftm",
    movement="round-robin",
    attack="split",
    rounds: int = 30,
    epsilon: float = 1e-3,
    seed: int = 0,
) -> ICResult:
    """Run approximate interactive consistency on scalar inputs.

    ``inputs[k]`` is process ``k``'s private input; every process
    outputs an ``n``-vector of estimates.  ``n = len(inputs)`` must
    satisfy the model's Table 2 bound for ``f``.
    """
    n = len(inputs)
    semantics = get_semantics(model)
    if n < semantics.required_n(f):
        raise ValueError(
            f"interactive consistency needs n >= {semantics.required_n(f)} "
            f"for {semantics.model.value} with f={f}, got n={n}"
        )
    movement = ensure_value_blind_movement(movement)

    # Dissemination: round 0 of the agreement's own fault controller.
    # Receiver i stores a faulty source k's override for i, and a
    # correct source's input itself.
    adversary = Adversary(movement_strategy(movement), value_strategy(attack))
    plan = MobileFaultController(n, f, semantics.model, adversary).plan_round(
        0, {pid: float(value) for pid, value in enumerate(inputs)},
        derive_rng(seed, "adversary"),
    )
    faulty_sources = plan.faulty_at_send
    columns = [
        [
            plan.send_overrides[source][receiver]
            if source in faulty_sources
            else float(inputs[source])
            for receiver in range(n)
        ]
        for source in range(n)
    ]
    traces, vectors = run_coordinates(
        columns,
        model=model,
        f=f,
        n=n,
        algorithm=algorithm,
        movement=movement,
        attack=attack,
        rounds=rounds,
        epsilon=epsilon,
        seed=seed,
    )
    return ICResult(
        n=n,
        f=f,
        inputs=tuple(float(v) for v in inputs),
        faulty_sources=faulty_sources,
        vectors=vectors,
        traces=traces,
    )
