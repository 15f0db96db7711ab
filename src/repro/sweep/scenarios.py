"""Cell scenarios: the config families a sweep cell can describe.

PR 1's sweep engine only knew the :func:`repro.api.mobile_config`
family, so the experiments that also run static mixed-mode substrates
and lower-bound stall adversaries could not ride the engine.  This
module is the dispatch point that closes the gap: every
:class:`~repro.sweep.grid.CellSpec` names a *scenario*, and each
scenario is a builder from the cell's primitive fields to a validated
:class:`~repro.runtime.config.SimulationConfig`.

Builders must be deterministic pure functions of the cell (the cache,
and shards meeting in a shared cache, rely on it) and raise :class:`ValueError`
on bad parameters so :func:`repro.sweep.engine.run_cell` can condense
the failure into the cell's ``error`` field.

Scenarios:

``mobile``
    The paper's mobile-Byzantine runs via :func:`repro.api.mobile_config`.
``static-mixed``
    A static mixed-mode substrate run: ``params`` carry the ``(a, s, b)``
    fault counts, ``n`` is explicit, the attack is the cell's value
    strategy applied by statically assigned faults.
``stall``
    The Table 2 lower-bound adversary at ``n = n_Mi - 1 + extra``
    (:func:`repro.core.lower_bounds.stall_configuration`); ``params``
    may carry ``extra`` (default 0).
``mixed-stall``
    The camp-split adversary at exactly ``n = 3a + 2s + b`` for a
    mixed-mode count triple (:func:`mixed_stall_config`).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Callable

from ..core.lower_bounds import stall_configuration
from ..core.mapping import msr_trim_parameter
from ..faults.adversary import Adversary
from ..faults.mixed_mode import MixedModeCounts, StaticFaultAssignment
from ..faults.models import get_semantics
from ..msr.registry import make_algorithm
from ..runtime.config import SimulationConfig, StaticMixedSetup
from ..runtime.termination import FixedRounds
from ..topology import DEFAULT_TOPOLOGY

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from .grid import CellSpec

__all__ = [
    "SCENARIOS",
    "build_cell_config",
    "build_cell_configs",
    "mixed_stall_config",
    "register_scenario",
]


def mixed_stall_config(counts: MixedModeCounts, rounds: int = 20) -> SimulationConfig:
    """The camp-split adversary at exactly ``n = 3a + 2s + b``.

    Layout (requires ``a >= 1``): the low camp holds ``a + s`` correct
    processes at 0, the high camp ``a`` correct processes at 1; the
    symmetric faults broadcast 1, the asymmetric ones send 0 to the low
    camp and 1 to the high camp.  Each camp's reduced multiset is then
    unanimous at its own value, freezing the diameter.
    """
    from ..faults.value_strategies import SplitAttack

    if counts.asymmetric < 1:
        raise ValueError("the camp-split stall needs at least one asymmetric fault")
    a, s, b = counts.asymmetric, counts.symmetric, counts.benign
    n = 3 * a + 2 * s + b
    assignment = StaticFaultAssignment.first_processes(
        asymmetric=a, symmetric=s, benign=b
    )
    initial = [0.0] * n
    high_camp_start = (a + s + b) + (a + s)
    for pid in range(high_camp_start, n):
        initial[pid] = 1.0
    return SimulationConfig(
        n=n,
        f=counts.total,
        initial_values=tuple(initial),
        algorithm=make_algorithm("ftm", counts.trim_parameter),
        setup=StaticMixedSetup(
            assignment=assignment, adversary=Adversary(values=SplitAttack())
        ),
        termination=FixedRounds(rounds),
        bound_check="ignore",
    )


def _require_rounds(spec: "CellSpec") -> int:
    if spec.rounds is None:
        raise ValueError(
            f"scenario {spec.scenario!r} needs an explicit round budget "
            "(CellSpec.rounds is None)"
        )
    return spec.rounds


def _counts_from(spec: "CellSpec") -> MixedModeCounts:
    params = spec.params_dict()
    counts = MixedModeCounts(
        asymmetric=int(params.get("a", 0)),
        symmetric=int(params.get("s", 0)),
        benign=int(params.get("b", 0)),
    )
    if counts.total != spec.f:
        raise ValueError(
            f"cell f={spec.f} disagrees with its (a, s, b) total {counts.total}"
        )
    return counts


def _require_bonomi(spec: "CellSpec") -> None:
    """Reject family axes on scenarios whose configs pin the protocol.

    The lower-bound scenarios construct their adversary and population
    to defeat the *Bonomi* voting protocol specifically; running them
    under another family would demonstrate nothing about that family's
    bound.
    """
    if spec.family != "bonomi":
        raise ValueError(
            f"scenario {spec.scenario!r} is defined for the 'bonomi' "
            f"family only (its lower-bound construction targets the MSR "
            f"voting protocol); got family={spec.family!r}"
        )


def _require_default_topology(spec: "CellSpec") -> None:
    """Reject topology axes on scenarios pinned to the complete graph.

    The static-substrate and lower-bound scenarios model the paper's
    full-mesh constructions; a communication-graph axis only applies to
    the ``mobile`` scenario (whose family decides admissibility).
    """
    if spec.topology != DEFAULT_TOPOLOGY:
        raise ValueError(
            f"scenario {spec.scenario!r} models the paper's complete-graph "
            f"substrate and takes no topology axis; got "
            f"topology={spec.topology!r} (topologies apply to 'mobile' cells)"
        )


def _build_mobile(spec: "CellSpec", shared: dict | None = None) -> SimulationConfig:
    """A ``mobile`` cell's config via :func:`repro.api.mobile_config`.

    ``shared`` memoizes the immutable pieces cells of one stack have in
    common -- the model, the resolved ``n`` and the MSR function --
    keyed by the cell fields they derive from.  The config itself
    (strategies, termination rule, validation) is built per cell.
    """
    from ..api import mobile_config

    shared = {} if shared is None else shared
    key = (spec.model, spec.f, spec.n, spec.algorithm)
    pieces = shared.get(key)
    if pieces is None:
        semantics = get_semantics(spec.model)
        pieces = shared[key] = (
            semantics.model,
            semantics.required_n(spec.f) if spec.n is None else spec.n,
            make_algorithm(
                spec.algorithm, msr_trim_parameter(semantics.model, spec.f)
            ),
        )
    model, n, algorithm = pieces
    return mobile_config(
        model=model,
        f=spec.f,
        n=n,
        algorithm=algorithm,
        movement=spec.movement,
        attack=spec.attack,
        epsilon=spec.epsilon,
        seed=spec.seed,
        rounds=spec.rounds,
        max_rounds=spec.max_rounds,
        family=spec.family,
        topology=spec.topology,
    )


def _build_static_mixed(spec: "CellSpec") -> SimulationConfig:
    from ..api import evenly_spread_values, value_strategy

    _require_default_topology(spec)
    counts = _counts_from(spec)
    if spec.n is None:
        raise ValueError("scenario 'static-mixed' needs an explicit n")
    assignment = StaticFaultAssignment.first_processes(
        asymmetric=counts.asymmetric,
        symmetric=counts.symmetric,
        benign=counts.benign,
    )
    return SimulationConfig(
        n=spec.n,
        f=counts.total,
        initial_values=evenly_spread_values(spec.n),
        algorithm=make_algorithm(spec.algorithm, counts.trim_parameter),
        setup=StaticMixedSetup(
            assignment=assignment,
            adversary=Adversary(values=value_strategy(spec.attack)),
        ),
        termination=FixedRounds(_require_rounds(spec)),
        family=spec.family,
    )


def _build_stall(spec: "CellSpec") -> SimulationConfig:
    _require_bonomi(spec)
    _require_default_topology(spec)
    semantics = get_semantics(spec.model)
    function = make_algorithm(
        spec.algorithm, msr_trim_parameter(semantics.model, spec.f)
    )
    extra = int(spec.params_dict().get("extra", 0))
    return stall_configuration(
        spec.model,
        spec.f,
        function,
        rounds=_require_rounds(spec),
        extra_processes=extra,
    )


def _build_mixed_stall(spec: "CellSpec") -> SimulationConfig:
    _require_bonomi(spec)
    _require_default_topology(spec)
    return mixed_stall_config(_counts_from(spec), rounds=_require_rounds(spec))


#: Scenario name -> config builder.  Builders used in parallel sweeps
#: must be importable from this module (workers rebuild cells by name).
SCENARIOS: dict[str, Callable[["CellSpec"], SimulationConfig]] = {
    "mobile": _build_mobile,
    "static-mixed": _build_static_mixed,
    "stall": _build_stall,
    "mixed-stall": _build_mixed_stall,
}


def register_scenario(
    name: str, builder: Callable[["CellSpec"], SimulationConfig]
) -> None:
    """Register a custom scenario builder under ``name``.

    Parallel execution and shards on other hosts require the registration to happen
    at import time of a module the workers also import.
    """
    if name in SCENARIOS:
        raise ValueError(f"scenario {name!r} is already registered")
    SCENARIOS[name] = builder


def build_cell_configs(
    specs: "Sequence[CellSpec]",
) -> "list[SimulationConfig | Exception]":
    """Materialize many cells, sharing what their configs have in common.

    ``mobile`` cells share their model, resolved ``n`` and MSR function
    object with every earlier cell of the same model, ``f``, ``n`` and
    algorithm (and, through :func:`repro.api.evenly_spread_values`,
    their initial-values tuple); other scenarios build as
    :func:`build_cell_config` does.  A cell whose build raises
    :class:`ValueError` or :class:`KeyError` gets that exception in
    place of its config, so the error lands on exactly that cell.
    """
    shared: dict = {}
    built: list = []
    for spec in specs:
        try:
            if spec.scenario == "mobile":
                built.append(_build_mobile(spec, shared))
            else:
                built.append(build_cell_config(spec))
        except (ValueError, KeyError) as exc:
            # Without its traceback, whose frames would keep the
            # caller's frame (and any buffer views it holds) alive.
            built.append(exc.with_traceback(None))
    return built


def build_cell_config(spec: "CellSpec") -> SimulationConfig:
    """Materialize a cell through its scenario's builder."""
    try:
        builder = SCENARIOS[spec.scenario]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown cell scenario {spec.scenario!r}; known: {known}"
        ) from None
    return builder(spec)
