"""EXP-FAM: algorithm families head-to-head (Bonomi vs Tseng).

The protocol-family abstraction (:mod:`repro.runtime.families`) turns
the reproduction into a comparison harness; this experiment is the
first comparison it enables.  Both in-tree families run the *same*
cells -- model, fault count, system size, adversary, MSR fold, seeds --
through :func:`repro.sweep.run_sweep`, differing only in the protocol:

* ``bonomi`` -- the source paper's memoryless MSR voting protocol;
* ``tseng``  -- the consistency-filtered variant after Tseng
  (arXiv:1707.07659): pair messages, carried per-node state, scrambled
  cured claims rejected and the trim budget relaxed accordingly.

The families are value-identical under M1/M3/M4 (no cured node ever
broadcasts a checkable-but-scrambled claim there), so the comparison
centres on **M2**, where unaware cured nodes broadcast corrupted state
every round: the filter masks that garbage and converges in fewer
rounds.  M1 rows are included as the control -- any divergence there
would indicate a family implementation bug, and the experiment fails
on it.

Defaults run at paper scale (``n = 97``, the largest size the PR 3
kernel made routine); CI re-parameterizes via ``--f`` to a small
instance.  Per-cell results land in the sweep cache if given; the
rendered table is written to ``results/`` by the benchmark wrapper.
"""

from __future__ import annotations

from statistics import mean

from ..sweep import GridSpec, run_sweep
from .base import ExperimentResult

__all__ = ["run_family_comparison"]

#: The control model (families provably identical) and the model under
#: test (unaware cured broadcasts -- the filter's target).
_MODELS = ("M1", "M2")


def _required_n(model: str, f: int) -> int:
    from ..faults.models import get_semantics

    return get_semantics(model).required_n(f)


def run_family_comparison(
    f: int = 24,
    n: int | None = None,
    families: tuple[str, ...] = ("bonomi", "tseng"),
    algorithms: tuple[str, ...] = ("ftm",),
    attacks: tuple[str, ...] = ("split", "outlier"),
    seeds: tuple[int, ...] = (0, 1, 2, 3),
    epsilon: float = 1e-3,
    max_rounds: int = 400,
    workers: int = 1,
    cache=None,
) -> ExperimentResult:
    """Run every family over identical cells; compare rounds to converge.

    ``n`` defaults to the largest Table 2 requirement over the swept
    models at ``f`` (every model then runs the *same* system size, so
    per-family round counts are directly comparable).  The default
    ``f=24`` lands on ``n = 121`` (M2's ``5f + 1``) -- paper scale.
    """
    if n is None:
        n = max(_required_n(model, f) for model in _MODELS)
    result = ExperimentResult(
        exp_id="EXP-FAM",
        title=(
            f"Algorithm families head-to-head at n={n}, f={f} "
            f"(oracle eps={epsilon:g})"
        ),
        headers=[
            "model",
            "attack",
            "algorithm",
            "family",
            "mean rounds",
            "max rounds",
            "mean decision diam",
            "all ok",
        ],
    )
    grid = GridSpec(
        models=_MODELS,
        fs=f,
        ns=n,
        algorithms=tuple(algorithms),
        movements="round-robin",
        attacks=tuple(attacks),
        epsilons=epsilon,
        seeds=tuple(seeds),
        max_rounds=max_rounds,
        families=tuple(families),
    )
    sweep = run_sweep(grid, workers=workers, cache=cache)

    by_group: dict[tuple, list] = {}
    for cell in sweep.cells:
        spec = cell.spec
        by_group.setdefault(
            (spec.model, spec.attack, spec.algorithm, spec.family), []
        ).append(cell)

    mean_rounds: dict[tuple, float] = {}
    for model in _MODELS:
        for attack in attacks:
            for algorithm in algorithms:
                for family in families:
                    cells = by_group[(model, attack, algorithm, family)]
                    ok = all(cell.satisfied for cell in cells)
                    rounds = [cell.rounds for cell in cells]
                    mean_rounds[(model, attack, algorithm, family)] = mean(rounds)
                    if not ok:
                        bad = next(c for c in cells if not c.satisfied)
                        result.fail(
                            f"{family}/{model}/{attack}/{algorithm}: "
                            f"{bad.spec.describe()} violated the spec "
                            f"({bad.error or 'unsatisfied property'})"
                        )
                    result.add_row(
                        model,
                        attack,
                        algorithm,
                        family,
                        round(mean(rounds), 2),
                        max(rounds),
                        f"{mean(c.decision_diameter for c in cells):.2e}",
                        ok,
                    )

    # M1 is the control: no unaware cured broadcasts, so every family
    # must take exactly the same number of rounds cell for cell.
    if "bonomi" in families:
        for family in families:
            if family == "bonomi":
                continue
            for attack in attacks:
                for algorithm in algorithms:
                    base = mean_rounds[("M1", attack, algorithm, "bonomi")]
                    other = mean_rounds[("M1", attack, algorithm, family)]
                    if base != other:
                        result.fail(
                            f"M1 control diverged for {family}/{attack}/"
                            f"{algorithm}: {other} rounds vs bonomi's {base}"
                        )
            for attack in attacks:
                for algorithm in algorithms:
                    base = mean_rounds[("M2", attack, algorithm, "bonomi")]
                    other = mean_rounds[("M2", attack, algorithm, family)]
                    verdict = (
                        "faster" if other < base
                        else "identical" if other == base
                        else "slower"
                    )
                    result.add_note(
                        f"M2/{attack}/{algorithm}: {family} mean "
                        f"{other:.2f} rounds vs bonomi {base:.2f} "
                        f"({verdict}; the consistency filter masks unaware "
                        "cured broadcasts)"
                    )
    result.add_note(
        f"{len(sweep)} cells via run_sweep (workers={workers}); families "
        "differ only in the protocol layer -- same seeds, same adversary "
        "RNG streams, same MSR fold"
    )
    return result
