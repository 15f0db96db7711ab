"""Validated simulation configuration.

A :class:`SimulationConfig` pins every input of a run -- system size,
fault setup, algorithm, termination, seed -- so a run is a pure function
of its config.  Validation happens eagerly at construction time via
:meth:`SimulationConfig.validate`, with a configurable posture towards
the resilience bound: experiments that *deliberately* run below the
paper's bounds (the lower-bound demonstrations) opt out explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from ..faults.adversary import Adversary
from ..faults.mixed_mode import StaticFaultAssignment
from ..faults.models import MobileModel, get_semantics
from ..msr.base import MSRFunction
from ..topology import DEFAULT_TOPOLOGY, Topology, topology_from_spec
from .families import DEFAULT_FAMILY
from .termination import FixedRounds, TerminationRule

__all__ = ["MobileFaultSetup", "StaticMixedSetup", "SimulationConfig"]

BoundCheck = Literal["error", "warn", "ignore"]


@dataclass(frozen=True)
class MobileFaultSetup:
    """Fault side of a run under a mobile Byzantine model."""

    model: MobileModel
    adversary: Adversary

    def min_processes(self, f: int) -> int:
        """Table 2 requirement for this model."""
        return get_semantics(self.model).required_n(f)

    def describe(self) -> str:
        return f"{self.model.value}/{self.adversary.describe()}"


@dataclass(frozen=True)
class StaticMixedSetup:
    """Fault side of a run under the static mixed-mode model."""

    assignment: StaticFaultAssignment
    adversary: Adversary

    def min_processes(self, f: int) -> int:
        """Kieckhafer-Azadmanesh requirement ``n > 3a + 2s + b``."""
        return self.assignment.counts.min_processes()

    def describe(self) -> str:
        return f"mixed{self.assignment.counts}/{self.adversary.describe()}"


@dataclass(frozen=True)
class SimulationConfig:
    """Complete, validated description of one simulation run."""

    n: int
    f: int
    initial_values: tuple[float, ...]
    algorithm: MSRFunction
    setup: MobileFaultSetup | StaticMixedSetup
    termination: TerminationRule = field(default_factory=lambda: FixedRounds(30))
    epsilon: float = 1e-3
    seed: int = 0
    max_rounds: int = 10_000
    #: "error" rejects configurations below the resilience bound,
    #: "warn" records the violation in the trace description,
    #: "ignore" is for deliberate below-bound experiments.
    bound_check: BoundCheck = "error"
    #: Protocol family executing the run (see
    #: :mod:`repro.runtime.families`): ``"bonomi"`` is the source
    #: paper's MSR voting protocol, ``"tseng"`` the improved
    #: mobile-fault algorithm of arXiv:1707.07659, ``"witness"`` the
    #: partial-connectivity relay protocol of arXiv:1206.0089.  The
    #: resilience bound is the *family's* requirement for the
    #: configured setup.
    family: str = DEFAULT_FAMILY
    #: Communication-graph spec (see :mod:`repro.topology`): the
    #: default ``"complete"`` is the paper's full mesh.  Validation
    #: resolves the spec at ``n`` and asks the configured family to
    #: accept the graph -- ``bonomi``/``tseng`` require completeness,
    #: ``witness`` runs on connected partially-connected graphs.
    topology: str = DEFAULT_TOPOLOGY

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ValueError` on any inconsistent field."""
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.f < 0:
            raise ValueError(f"f must be non-negative, got {self.f}")
        if len(self.initial_values) != self.n:
            raise ValueError(
                f"got {len(self.initial_values)} initial values for n={self.n}"
            )
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.bound_check not in ("error", "warn", "ignore"):
            raise ValueError(f"invalid bound_check {self.bound_check!r}")
        try:
            family = self.protocol_family()
        except KeyError as exc:
            # args[0], not str(exc): str() of a KeyError re-quotes it.
            raise ValueError(exc.args[0]) from None
        # The family owns the topology admission rule: scalar MSR
        # voting needs the full mesh, relay-based families accept
        # connected partial graphs (and say which ones).
        family.check_topology(self.resolve_topology(), self)
        if isinstance(self.setup, StaticMixedSetup):
            self.setup.assignment.validate_for(self.n)
        # Every input of the bound is a frozen field: decided once per
        # config, read by meets_bound() (and every trace description).
        object.__setattr__(self, "_meets_bound", self.n >= self.required_n())
        if self.bound_check == "error" and not self.meets_bound():
            raise ValueError(
                f"n={self.n} is below the resilience bound "
                f"{self.required_n()} for {self.setup.describe()} with "
                f"f={self.f}; pass bound_check='ignore' to run anyway "
                "(lower-bound experiments do this deliberately)"
            )

    def protocol_family(self):
        """Resolve the configured :class:`~repro.runtime.families.ProtocolFamily`."""
        # Imported lazily: families may import runtime modules that in
        # turn import this one.
        from .families import get_family

        return get_family(self.family)

    def resolve_topology(self) -> Topology:
        """Resolve the configured topology spec at this ``n``.

        Memoized inside :func:`~repro.topology.topology_from_spec`, so
        repeated resolution (validation, network construction, family
        protocol builds) shares one graph object.
        """
        return topology_from_spec(self.topology, self.n)

    def required_n(self) -> int:
        """Minimum ``n`` the theory requires for this setup and family."""
        return self.protocol_family().min_processes(self.setup, self.f)

    def meets_bound(self) -> bool:
        """Whether this configuration satisfies the resilience bound."""
        return self._meets_bound

    def describe(self) -> str:
        """One-line config summary recorded in traces.

        The family tag is emitted only off the default so descriptions
        (and the golden reports embedding them) of pre-family configs
        are byte-identical.
        """
        bound_note = "" if self.meets_bound() else " [BELOW BOUND]"
        family_note = (
            "" if self.family == DEFAULT_FAMILY else f" family={self.family}"
        )
        # Like the family tag, the topology is emitted only off the
        # default so pre-topology descriptions stay byte-identical.
        topology_note = (
            "" if self.topology == DEFAULT_TOPOLOGY else f" topo={self.topology}"
        )
        return (
            f"n={self.n} f={self.f} {self.setup.describe()} "
            f"alg={self.algorithm.name} term={self.termination.describe()} "
            f"seed={self.seed}{family_note}{topology_note}{bound_note}"
        )
