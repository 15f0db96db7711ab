"""Configuration equivalence and Theorem 1, made executable.

* **Definition 9** -- a mobile configuration is *equivalent* to a static
  one when they produce the same ``U`` (correct values) and the mobile
  one has at least as many ``<correct, correct value>`` tuples.
* **Definition 10** -- a mobile computation is *correct* when a static
  computation exists with round-wise equivalent configurations.
* **Theorem 1** -- if ``n > n_Mi`` at every round, every mobile
  computation of an MSR algorithm is correct.

:func:`build_equivalent_static_computation` performs exactly the
construction of Theorem 1's proof: each round's cured processes are
re-labelled with their Table 1 mixed-mode class and the faulty ones
become asymmetric, producing a static configuration; the function then
checks Definition 9 for every round and reports per-round verdicts.
Experiment EXP-TH1 runs this over real traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.mixed_mode import FaultClass
from ..faults.models import MobileModel, get_semantics
from ..runtime.trace import Trace
from .configuration import (
    MobileComputation,
    MobileConfiguration,
    StaticConfiguration,
    computation_from_trace,
)

__all__ = [
    "EquivalenceCheck",
    "Theorem1Report",
    "cured_fault_class",
    "static_image_of",
    "configurations_equivalent",
    "build_equivalent_static_computation",
]


def cured_fault_class(model: MobileModel | str) -> FaultClass | None:
    """The mixed-mode class cured processes assume (Table 1 column)."""
    return get_semantics(model).cured_class


def static_image_of(
    config: MobileConfiguration, model: MobileModel | str
) -> StaticConfiguration:
    """Theorem 1's construction: the static configuration equivalent
    to a mobile one under the model's Table 1 mapping."""
    cured_class = cured_fault_class(model)
    classes: dict[int, FaultClass] = {}
    for pid in config.faulty:
        classes[pid] = FaultClass.ASYMMETRIC
    for pid in config.cured:
        if cured_class is None:
            raise ValueError(
                f"model {model} admits no cured process at send time, "
                f"but configuration at round {config.round_index} has "
                f"cured={sorted(config.cured)}"
            )
        classes[pid] = cured_class
    return StaticConfiguration(
        round_index=config.round_index,
        classes=classes,
        values=dict(config.values),
    )


@dataclass(frozen=True)
class EquivalenceCheck:
    """Definition 9 evaluated for one round."""

    round_index: int
    same_u: bool
    correct_count_mobile: int
    correct_count_static: int
    meets_bound: bool

    @property
    def equivalent(self) -> bool:
        return (
            self.same_u
            and self.correct_count_mobile >= self.correct_count_static
        )

    def __str__(self) -> str:
        status = "equivalent" if self.equivalent else "NOT equivalent"
        bound = "bound ok" if self.meets_bound else "bound VIOLATED"
        return (
            f"round {self.round_index}: {status} "
            f"(|C|={self.correct_count_mobile} vs "
            f"|C'|={self.correct_count_static}, {bound})"
        )


@dataclass(frozen=True)
class Theorem1Report:
    """Outcome of running Theorem 1's construction over a computation."""

    model: MobileModel
    f: int
    checks: tuple[EquivalenceCheck, ...]
    static_computation: tuple[StaticConfiguration, ...]
    is_mobile_computation: bool

    @property
    def is_correct_computation(self) -> bool:
        """Definition 10: every round produced an equivalent static config."""
        return self.is_mobile_computation and all(
            check.equivalent for check in self.checks
        )

    def summary(self) -> str:
        verdict = "correct" if self.is_correct_computation else "NOT correct"
        return (
            f"{self.model.value} f={self.f}: {len(self.checks)} rounds, "
            f"computation is {verdict} (Definition 10)"
        )


def configurations_equivalent(
    mobile: MobileConfiguration, static: StaticConfiguration
) -> EquivalenceCheck:
    """Definition 9 check between a mobile and a static configuration."""
    same_u = (
        mobile.correct_value_multiset() == static.correct_value_multiset()
    )
    return EquivalenceCheck(
        round_index=mobile.round_index,
        same_u=same_u,
        correct_count_mobile=len(mobile.correct),
        correct_count_static=len(static.correct),
        meets_bound=static.meets_bound(),
    )


def build_equivalent_static_computation(
    source: Trace | MobileComputation,
) -> Theorem1Report:
    """Run Theorem 1's proof construction over a trace or computation.

    Returns per-round Definition 9 checks plus the Definition 8
    condition; ``report.is_correct_computation`` is the executable
    statement of Theorem 1's conclusion.
    """
    computation = (
        computation_from_trace(source) if isinstance(source, Trace) else source
    )
    checks: list[EquivalenceCheck] = []
    statics: list[StaticConfiguration] = []
    for config in computation.configurations:
        static = static_image_of(config, computation.model)
        statics.append(static)
        checks.append(configurations_equivalent(config, static))
    return Theorem1Report(
        model=computation.model,
        f=computation.f,
        checks=tuple(checks),
        static_computation=tuple(statics),
        is_mobile_computation=computation.is_mobile_computation(),
    )
