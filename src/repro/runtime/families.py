"""Algorithm families: the registry of protocol-level algorithms.

The reproduction started as a single-paper harness: one protocol shape
(the MSR voting protocol of Bonomi et al., arXiv:1604.03871) hard-wired
into the simulator, the kernel and the sweep layers.  A *protocol
family* abstracts that shape away: each family owns

* how a run's per-node state is structured and carried across rounds,
* the message structure exchanged each round (scalar or multi-value),
* its round schedule (when termination may be evaluated),
* its resilience requirement (which may differ from the fault model's
  Table 2 bound), and
* its convergence prediction for the comparison experiments.

Families are registered by short name and referenced from
:class:`~repro.runtime.config.SimulationConfig` (``family=``), the
sweep grid (``families=`` axis on :class:`~repro.sweep.grid.GridSpec`)
and the CLI, which makes "run the same scenario under two algorithms
and compare" a first-class sweep axis.

Three families ship in-tree:

``bonomi``
    The source paper's MSR voting protocol.  Builds the exact
    :class:`~repro.runtime.protocol.MSRVotingProtocol` the simulator
    always used, so runs are bit-identical to the pre-family code.
``tseng``
    Tseng's improved mobile-fault approximate consensus algorithm
    (arXiv:1707.07659); see :mod:`repro.runtime.tseng`.
``witness``
    The witness-based partial-connectivity protocol after Li, Hurfin &
    Wang (arXiv:1206.0089); see :mod:`repro.runtime.witness`.  The
    first family whose :meth:`ProtocolFamily.check_topology` accepts
    non-complete communication graphs (:mod:`repro.topology`).

Where a stateful family provably folds the bonomi multiset -- the
paper's own reduction, every process ending up with an MSR fold --
it says so through :meth:`ProtocolFamily.lite_equivalent`: tseng under
M1/M3/M4 and witness under M1/M2, both on the complete graph.  The
cross-run engine stacks those lite runs as bonomi rows; every other
path runs the family's own protocol.  :func:`stacking_key` is the one
definition of which runs stack together, read by the engine and by
the sweep layer alike.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from functools import lru_cache
from typing import TYPE_CHECKING

from ..faults.models import get_semantics
from ..topology import topology_from_spec
from .protocol import MSRVotingProtocol, StatefulRoundProtocol, VotingProtocol

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids module cycles
    from ..faults.models import MobileModel
    from ..topology import Topology
    from .config import MobileFaultSetup, SimulationConfig, StaticMixedSetup

__all__ = [
    "ProtocolFamily",
    "BonomiFamily",
    "register_family",
    "get_family",
    "family_names",
    "stacking_key",
    "DEFAULT_FAMILY",
]

#: The family every config runs unless told otherwise: the source paper.
DEFAULT_FAMILY = "bonomi"


class ProtocolFamily(ABC):
    """One protocol-level algorithm family.

    A family is a stateless singleton: per-run state lives in the
    protocol object :meth:`build_protocol` returns, never in the family
    itself (families are shared across worker processes and runs).
    """

    #: Registry name; also the value of ``SimulationConfig.family``.
    name: str = "?"

    #: Whether the family's protocol is defined over the complete
    #: communication graph only.  The scalar MSR voting shape folds
    #: "everyone's broadcast" and has no relay mechanism, so it keeps
    #: the default; families built for partial connectivity (message
    #: relay through witnesses) override to ``False`` and refine
    #: :meth:`check_topology` with their own admission rule.
    requires_complete: bool = True

    #: Whether :meth:`build_protocol` returns a
    #: :class:`StatefulRoundProtocol` (the family runs its own rounds)
    #: rather than a scalar :class:`VotingProtocol`.  Read where no
    #: protocol is built yet: :func:`stacking_key` on a sweep cell.
    stateful: bool = False

    @abstractmethod
    def build_protocol(
        self, config: "SimulationConfig"
    ) -> VotingProtocol | StatefulRoundProtocol:
        """Build the per-run protocol instance for ``config``.

        Returning a :class:`VotingProtocol` selects the simulator's
        scalar round bodies (array engine, round kernel, ``step()``);
        returning a :class:`StatefulRoundProtocol` selects the
        protocol's own multi-round ``run_round`` body.
        """

    def min_processes(
        self, setup: "MobileFaultSetup | StaticMixedSetup", f: int
    ) -> int:
        """Resilience requirement of this family under ``setup``.

        Defaults to the fault model's own bound (Table 2 for mobile
        setups); families with tighter or looser requirements override.
        """
        return setup.min_processes(f)

    def check_topology(self, topology, config: "SimulationConfig") -> None:
        """Reject communication graphs this family is not defined over.

        Called from :meth:`SimulationConfig.validate` with the resolved
        :class:`~repro.topology.Topology`.  The default enforces
        :attr:`requires_complete`; partial-connectivity families
        override with their own admission rule (connectivity, degree
        bounds) and must raise :class:`ValueError` with actionable
        guidance.
        """
        if self.requires_complete and not topology.is_complete:
            raise ValueError(
                f"the {self.name!r} family is defined over the complete "
                f"communication graph only (every process must hear every "
                f"other's broadcast); topology {topology.spec!r} has "
                f"minimum degree {topology.min_degree()} of {topology.n - 1} "
                "-- partially-connected runs need a relay-based family, "
                "e.g. family='witness' (arXiv:1206.0089)"
            )

    def decision_ready(self, round_index: int) -> bool:
        """Round-schedule hook: may termination fire after this round?

        Families whose protocol phases span several communication
        rounds return ``False`` mid-phase so the termination rule is
        only consulted at phase boundaries.  Every simulator driver
        (full, lite, stateful) checks it.  No in-tree family overrides
        it: bonomi and tseng run one phase per round, and the witness
        family's phase length depends on the run's graph, so it gates
        phases per run in
        :meth:`~repro.runtime.witness.WitnessProtocol.decision_ready`
        instead.  ``max_rounds`` still caps the run regardless, so a
        buggy always-``False`` schedule cannot loop forever.
        """
        return True

    def predicted_contraction(self, config: "SimulationConfig") -> float | None:
        """Worst-case per-round diameter contraction factor, if known."""
        return None

    def lite_equivalent(
        self, model: "MobileModel | None", topology: "Topology"
    ) -> str | None:
        """The scalar family whose lite run this family's provably equals.

        ``model`` is the run's mobile model (``None`` for a static
        setup) and ``topology`` its resolved communication graph -- all
        the declaration may read, so a sweep cell can be keyed without
        building its config.  A stateful family returns a family name
        where its rounds reduce, value for value, to that family's
        fold; :func:`stacking_key` then stacks the run as that
        family's row (:func:`~repro.runtime.simulator.simulate_many`).
        Results still carry this family's name, and single runs, full
        traces and the reference kernel keep the family's own rounds.
        The default, ``None``, declares nothing.
        """
        return None

    def describe(self) -> str:
        """Short description for tables and CLI banners."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class BonomiFamily(ProtocolFamily):
    """The source paper's family: the scalar MSR voting protocol.

    ``build_protocol`` constructs exactly the object the pre-family
    simulator constructed, so the re-based path is bit-identical to the
    original -- the golden-report and equivalence suites assert it.
    """

    name = "bonomi"

    def build_protocol(self, config: "SimulationConfig") -> VotingProtocol:
        return MSRVotingProtocol(config.algorithm)

    def predicted_contraction(self, config: "SimulationConfig") -> float | None:
        from ..core.convergence import mobile_contraction
        from .config import MobileFaultSetup

        if not isinstance(config.setup, MobileFaultSetup):
            return None
        return mobile_contraction(
            config.algorithm, config.setup.model, config.n, config.f
        ).factor

    def describe(self) -> str:
        return "bonomi (MSR voting, arXiv:1604.03871)"


def bonomi_on_complete(
    model: "MobileModel | None", topology: "Topology", models
) -> str | None:
    """``"bonomi"`` for a mobile ``model`` among ``models`` on the
    complete graph, else ``None``: the shared shape of the stateful
    families' :meth:`ProtocolFamily.lite_equivalent`."""
    if model in models and topology.is_complete:
        return "bonomi"
    return None


@lru_cache(maxsize=4096)
def stacking_key(
    n: int,
    f: int,
    algorithm: str,
    family: str,
    model: "MobileModel | str | None",
    topology: str,
) -> tuple | None:
    """Cross-run stacking class of a run, or ``None`` when it runs alone.

    The one definition of stacking compatibility: the engine
    (:func:`~repro.runtime.simulator._cross_run_key`, which adds the
    algorithm's stages) and the sweep layer
    (:attr:`~repro.sweep.grid.CellSpec.stack_key`) both call it.  Two
    runs sharing a key fold interchangeable multisets -- same width
    ``n``, same MSR reduction (``algorithm`` and ``f``), same mobile
    ``model`` (a :class:`MobileModel` or its ``"M1"``-style name) and
    the same scalar family -- so
    their rounds can share one width-grouped fold.  The key is ``(n,
    f, algorithm, folded family, model)``: a stateful family counts as
    the scalar family its :meth:`ProtocolFamily.lite_equivalent`
    declares for ``model`` on ``topology`` (a spec string resolved at
    ``n``), so e.g. tseng and witness runs under M1 on the complete
    graph key as bonomi.  Movement, attack, seed, epsilon and
    termination stay per run.  ``None`` for a static setup
    (``model=None``), an undeclared stateful family, a partial graph,
    or an unknown model, family or topology spec.
    """
    if model is None:
        return None
    try:
        model = get_semantics(model).model
        declared = get_family(family)
        graph = topology_from_spec(topology, n)
    except (KeyError, ValueError):
        return None
    if declared.stateful:
        name = declared.lite_equivalent(model, graph)
        if name is None:
            return None
        declared = get_family(name)
    if declared.stateful or not graph.is_complete:
        return None
    return (n, f, algorithm, declared.name, model)


_REGISTRY: dict[str, ProtocolFamily] = {}


def register_family(family: ProtocolFamily) -> None:
    """Register a family under its ``name`` (case-insensitive).

    Raises :class:`ValueError` on collisions to catch accidental
    shadowing.  Local sweep workers are forked processes that outlive
    a sweep; they are reused while the registry is the one they forked
    with, and the next pooled sweep after a registration (or a
    removal) re-forks them, so the family reaches them.  Shards run on
    other hosts resolve families by import: register there at import
    time of a module those processes also import.
    """
    key = family.name.strip().lower()
    if not key or key == "?":
        raise ValueError(f"family {family!r} must declare a non-empty name")
    if key in _REGISTRY:
        raise ValueError(f"algorithm family {family.name!r} is already registered")
    _REGISTRY[key] = family
    stacking_key.cache_clear()


def get_family(name: str) -> ProtocolFamily:
    """Resolve a family by name with a helpful error."""
    key = name.strip().lower() if isinstance(name, str) else name
    try:
        return _REGISTRY[key]
    except (KeyError, TypeError):
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown algorithm family {name!r}; known: {known}"
        ) from None


def family_names() -> Iterator[str]:
    """Iterate over registered family names, sorted."""
    return iter(sorted(_REGISTRY))


register_family(BonomiFamily())

# The Tseng and witness families register themselves on import;
# importing them here makes the registry complete for every process
# that imports the runtime.
from . import tseng as _tseng  # noqa: E402,F401  (registration side effect)
from . import witness as _witness  # noqa: E402,F401  (registration side effect)
