"""High-level convenience API.

Most users want: "run approximate agreement under model M2 with f=2 and
a nasty adversary, then check the spec".  This module assembles a
validated :class:`~repro.runtime.config.SimulationConfig` from short
names and sensible defaults:

>>> import repro
>>> trace = repro.simulate(model="M1", f=1, seed=7)
>>> verdict = repro.check(trace)
>>> verdict.satisfied
True

Everything remains overridable; power users can always construct the
config objects directly.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .core.mapping import msr_trim_parameter
from .core.specification import SpecVerdict, check_trace
from .faults.adversary import Adversary
from .faults.models import MobileModel, get_semantics
from .faults.movement import (
    MovementStrategy,
    RandomJump,
    RoundRobinWalk,
    StaticAgents,
    TargetExtremes,
)
from .faults.value_strategies import (
    CrossfireAttack,
    EchoCorrect,
    InertiaAttack,
    OscillatingAttack,
    OutlierAttack,
    RandomNoise,
    SplitAttack,
    ValueStrategy,
)
from .msr.base import MSRFunction
from .msr.registry import make_algorithm
from .runtime.config import MobileFaultSetup, SimulationConfig
from .runtime.simulator import run_simulation
from .runtime.termination import FixedRounds, OracleDiameter, TerminationRule
from .topology import DEFAULT_TOPOLOGY

__all__ = [
    "movement_strategy",
    "value_strategy",
    "mobile_config",
    "simulate",
    "sweep_grid",
    "check",
    "evenly_spread_values",
]

_MOVEMENTS = {
    "static": StaticAgents,
    "round-robin": RoundRobinWalk,
    "random": RandomJump,
    "target-extremes": TargetExtremes,
}

_ATTACKS = {
    "split": SplitAttack,
    "outlier": OutlierAttack,
    "noise": RandomNoise,
    "echo": EchoCorrect,
    "oscillating": OscillatingAttack,
    "inertia": InertiaAttack,
    "crossfire": CrossfireAttack,
}


def movement_strategy(name: str | MovementStrategy) -> MovementStrategy:
    """Resolve a movement strategy by short name (or pass one through)."""
    if isinstance(name, MovementStrategy):
        return name
    try:
        return _MOVEMENTS[name]()
    except KeyError:
        known = ", ".join(sorted(_MOVEMENTS))
        raise KeyError(f"unknown movement {name!r}; known: {known}") from None


def value_strategy(name: str | ValueStrategy) -> ValueStrategy:
    """Resolve a value strategy by short name (or pass one through)."""
    if isinstance(name, ValueStrategy):
        return name
    try:
        return _ATTACKS[name]()
    except KeyError:
        known = ", ".join(sorted(_ATTACKS))
        raise KeyError(f"unknown attack {name!r}; known: {known}") from None


@functools.lru_cache(maxsize=64, typed=True)
def evenly_spread_values(n: int, low: float = 0.0, high: float = 1.0) -> tuple[float, ...]:
    """Deterministic initial values spread across ``[low, high]``.

    Memoized: every config of a size shares one immutable tuple.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return ((low + high) / 2.0,)
    step = (high - low) / (n - 1)
    return tuple(low + i * step for i in range(n))


def mobile_config(
    model: MobileModel | str = "M1",
    f: int = 1,
    n: int | None = None,
    algorithm: str | MSRFunction = "ftm",
    movement: str | MovementStrategy = "round-robin",
    attack: str | ValueStrategy = "split",
    initial_values: Sequence[float] | None = None,
    epsilon: float = 1e-3,
    seed: int = 0,
    rounds: int | None = None,
    max_rounds: int = 1_000,
    termination: TerminationRule | None = None,
    bound_check: str = "error",
    family: str = "bonomi",
    topology: str = DEFAULT_TOPOLOGY,
) -> SimulationConfig:
    """Assemble a mobile-Byzantine simulation configuration.

    Defaults: ``n`` is the model's minimum (Table 2), the MSR trim
    parameter is derived from the model and ``f`` (Table 1), initial
    values are spread over ``[0, 1]``, and the run stops when the true
    non-faulty diameter reaches ``epsilon`` (oracle termination) unless
    ``rounds`` or ``termination`` overrides it.  ``family`` selects the
    protocol-level algorithm family (see
    :mod:`repro.runtime.families`): ``"bonomi"`` is the source paper's
    MSR voting protocol, ``"tseng"`` the improved algorithm of
    arXiv:1707.07659, ``"witness"`` the partial-connectivity relay
    protocol of arXiv:1206.0089.  ``topology`` names the communication
    graph (see :mod:`repro.topology`): the default ``"complete"`` is
    the paper's full mesh; partially-connected specs like ``"ring:2"``
    or ``"random-regular:4:7"`` need a relay-capable family.
    """
    semantics = get_semantics(model)
    if n is None:
        n = semantics.required_n(f)
    if isinstance(algorithm, str):
        algorithm = make_algorithm(algorithm, msr_trim_parameter(semantics.model, f))
    if initial_values is None:
        # Already a tuple of floats, shared by every config of size n.
        initial_values = evenly_spread_values(n)
    else:
        initial_values = tuple(float(v) for v in initial_values)
    if termination is None:
        termination = (
            FixedRounds(rounds) if rounds is not None else OracleDiameter(epsilon)
        )
    adversary = Adversary(
        movement=movement_strategy(movement), values=value_strategy(attack)
    )
    return SimulationConfig(
        n=n,
        f=f,
        initial_values=initial_values,
        algorithm=algorithm,
        setup=MobileFaultSetup(model=semantics.model, adversary=adversary),
        termination=termination,
        epsilon=epsilon,
        seed=seed,
        max_rounds=max_rounds,
        bound_check=bound_check,  # type: ignore[arg-type]
        family=family,
        topology=topology,
    )


def simulate(
    config: SimulationConfig | None = None,
    trace_detail: str = "full",
    **kwargs,
):
    """Run a simulation; keyword arguments build a config via
    :func:`mobile_config` when none is given.

    ``trace_detail="lite"`` takes the simulator's fast path and returns
    a :class:`~repro.runtime.trace.LiteTrace` (identical decisions and
    diameters, no per-round message matrices).
    """
    if config is None:
        config = mobile_config(**kwargs)
    elif kwargs:
        offending = ", ".join(sorted(kwargs))
        raise TypeError(
            "simulate() takes either a config or keyword arguments, not "
            f"both (got a config plus: {offending})"
        )
    return run_simulation(config, trace_detail=trace_detail)


def sweep_grid(
    models="M1",
    fs=1,
    ns=None,
    algorithms="ftm",
    movements="round-robin",
    attacks="split",
    epsilons=1e-3,
    seeds=4,
    rounds: int | None = None,
    max_rounds: int = 1_000,
    families="bonomi",
    topologies=DEFAULT_TOPOLOGY,
    workers: int = 1,
    trace_detail: str = "lite",
    backend=None,
    cache=None,
    probe: str | None = None,
    dispatch: str = "auto",
    progress=None,
    journal=None,
    cross_run: bool = False,
):
    """Run a scenario sweep over the cartesian product of the axes.

    Every axis accepts a scalar or a sequence; ``seeds`` additionally
    accepts an integer ``K`` meaning seeds ``0..K-1``.  ``families``
    sweeps protocol-level algorithm families (``"bonomi"``,
    ``"tseng"``, ``"witness"``; see :mod:`repro.runtime.families`) and
    ``topologies`` sweeps communication graphs (``"complete"``,
    ``"ring:2"``, ``"torus"``, ``"random-regular:4"``; see
    :mod:`repro.topology`) against otherwise identical cells --
    combinations a family rejects structurally (complete-graph
    families on partial graphs) are pruned from the grid, so
    head-to-head comparisons like witness-on-ring vs bonomi-on-complete
    ride one grid.  ``workers > 1``
    ships cross-run groups (compatible cells, same shape differing only
    in seed) to the zero-copy shared-memory stealing pool
    (:class:`~repro.sweep.MultiprocessingBackend`); ``trace_detail`` selects the
    simulator path (the default trace-lite fast path is bit-identical
    on decisions and diameters).  ``backend`` overrides the execution
    strategy (a :class:`~repro.sweep.SweepBackend` instance or one of
    ``"serial"`` / ``"multiprocessing"``), ``cache`` -- a
    directory path or :class:`~repro.sweep.CellStore` -- memoizes
    per-cell results on disk, and ``probe`` names a registered trace
    probe (or a ``"module:attr"`` entry point) whose output lands in
    each cell's ``extras``.  ``dispatch``, ``progress`` and ``journal``
    forward to :func:`repro.sweep.run_sweep`: the pool-heuristic
    override, a streaming ``(result, done, total)`` callback, and a
    :class:`~repro.sweep.SweepJournal` for resumable sweeps;
    ``dispatch="pool"`` forces the pool outright.  ``cross_run=True``
    runs in-process sweeps through the cross-run vectorized engine
    too: each group advances as one stacked ``(R, n)`` state array,
    bit-identical to per-cell execution (see
    :func:`repro.sweep.run_cell_many`).  Returns a
    :class:`~repro.sweep.SweepResult`.

    >>> import repro
    >>> result = repro.sweep_grid(models=("M1", "M2"), seeds=2)
    >>> len(result)
    4
    """
    from .sweep import GridSpec, run_sweep

    if isinstance(seeds, int):
        seeds = tuple(range(seeds))
    grid = GridSpec(
        models=models,
        fs=fs,
        ns=ns,
        algorithms=algorithms,
        movements=movements,
        attacks=attacks,
        epsilons=epsilons,
        seeds=seeds,
        rounds=rounds,
        max_rounds=max_rounds,
        families=families,
        topologies=topologies,
    )
    return run_sweep(
        grid,
        workers=workers,
        trace_detail=trace_detail,
        backend=backend,
        cache=cache,
        probe=probe,
        dispatch=dispatch,
        progress=progress,
        journal=journal,
        cross_run=cross_run,
    )


def check(trace, epsilon: float | None = None) -> SpecVerdict:
    """Check a trace against the Approximate Agreement specification."""
    return check_trace(trace, epsilon)
