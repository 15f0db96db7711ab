"""Shared builders for the test suite."""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

from repro.core.mapping import msr_trim_parameter
from repro.core.specification import check_trace
from repro.faults import Adversary, get_semantics
from repro.faults.movement import RoundRobinWalk
from repro.faults.value_strategies import SplitAttack
from repro.msr import ValueMultiset, make_algorithm
from repro.runtime import (
    FixedRounds,
    MobileFaultSetup,
    RoundKernel,
    SimulationConfig,
    run_simulation,
)
from repro.runtime.controllers import CrossRunPlanner
from repro.runtime.families import stacking_key
from repro.runtime.simulator import (
    StackOutcome,
    SynchronousSimulator,
    simulate_many,
)
from repro.sweep import CellSpec, CellResult, GridSpec
from repro.sweep.engine import _array_verdicts


def make_mobile_config(
    model,
    f=1,
    n=None,
    algorithm="ftm",
    movement=None,
    values=None,
    initial_values=None,
    rounds=15,
    seed=0,
    bound_check="error",
    epsilon=1e-3,
    max_rounds=1_000,
    termination=None,
):
    """Compact config builder for runtime-level tests."""
    semantics = get_semantics(model)
    if n is None:
        n = semantics.required_n(f)
    if initial_values is None:
        initial_values = tuple(i / max(1, n - 1) for i in range(n))
    function = (
        make_algorithm(algorithm, msr_trim_parameter(model, f))
        if isinstance(algorithm, str)
        else algorithm
    )
    adversary = Adversary(
        movement=movement if movement is not None else RoundRobinWalk(),
        values=values if values is not None else SplitAttack(),
    )
    return SimulationConfig(
        n=n,
        f=f,
        initial_values=tuple(initial_values),
        algorithm=function,
        setup=MobileFaultSetup(model=semantics.model, adversary=adversary),
        termination=termination if termination is not None else FixedRounds(rounds),
        epsilon=epsilon,
        seed=seed,
        max_rounds=max_rounds,
        bound_check=bound_check,
    )


def run_mobile(model, **kwargs):
    """Build and run a mobile simulation in one call."""
    return run_simulation(make_mobile_config(model, **kwargs))


def multiset(*values):
    """Shorthand multiset constructor for test bodies."""
    return ValueMultiset(values)


def stackable(spec) -> bool:
    """Whether the engine can stack the sweep cell ``spec`` with others
    (its :func:`~repro.runtime.families.stacking_key` is not ``None``)."""
    return spec.scenario == "mobile" and stacking_key(
        spec.resolved_n, spec.f, spec.algorithm, spec.family, spec.model,
        spec.topology,
    ) is not None


def small_grid(seeds=2, rounds=6):
    """The canonical tiny sweep grid shared by tests and benchmarks.

    3 models x 2 algorithms x 2 attacks x ``seeds`` seeds (24 cells at
    the default), each cell at its model's minimum ``n`` with a fixed
    round budget, so the whole grid runs in well under a second.
    """
    return GridSpec(
        models=("M1", "M2", "M3"),
        fs=(1,),
        algorithms=("ftm", "fta"),
        movements=("round-robin",),
        attacks=("split", "outlier"),
        epsilons=(1e-3,),
        seeds=tuple(range(seeds)),
        rounds=rounds,
    )


@contextlib.contextmanager
def without_numpy():
    """Run the block as if numpy were not installed.

    Every ``repro`` module probes for numpy once, at import, into a
    module-level ``_np``; this sets each of them to ``None`` and
    restores them on exit.  Inside the block the scalar fast paths run
    for real: the grouped + flat round kernel, the witness dict body
    with its fold memo, and the pickle rung of pooled sweeps (forked
    workers inherit the hidden state).  A context manager rather than
    a fixture, so a Hypothesis test can enter it per example.
    """
    import repro.sweep.backends  # noqa: F401  (imports every probing module)

    saved = [
        (module, module._np)
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and getattr(module, "_np", None) is not None
    ]
    for module, _ in saved:
        module._np = None
    try:
        yield
    finally:
        for module, np in saved:
            module._np = np


#: The round-kernel modes the equivalence suites compare:
#: ``reference`` is the per-recipient object path, ``fast`` the default
#: kernel (the array engine wherever it engages), ``no-numpy`` the fast
#: mode with numpy hidden -- the only place the scalar grouped + flat
#: engine runs for real.
KERNEL_MODES = ("reference", "fast", "no-numpy")

#: The modes compared against the reference.
FAST_MODES = KERNEL_MODES[1:]


def run_in_mode(config, mode="fast", trace_detail="lite"):
    """Run ``config`` in one of :data:`KERNEL_MODES`."""
    if mode not in KERNEL_MODES:
        raise ValueError(f"unknown kernel mode {mode!r}")
    hidden = without_numpy() if mode == "no-numpy" else contextlib.nullcontext()
    with hidden:
        simulator = SynchronousSimulator(
            config,
            trace_detail=trace_detail,
            kernel=RoundKernel(reference=mode == "reference"),
        )
        return simulator.run()


#: The cell a verdict comparison files its results under (the spec is
#: carried through untouched, so any cell does).
VERDICT_CELL = CellSpec(
    model="M1",
    f=1,
    n=None,
    algorithm="ftm",
    movement="round-robin",
    attack="split",
    epsilon=1e-3,
    seed=0,
)


def reference_cell_result(trace, cell=VERDICT_CELL) -> CellResult:
    """``trace`` condensed through ``check_trace`` and the trace's own
    multiset-based ``decision_diameter``/``diameters``: the reference
    the engine's lite verdict must reproduce."""
    verdict = check_trace(trace)
    return CellResult(
        spec=cell,
        decisions=tuple(sorted(trace.decisions.items())),
        rounds=trace.rounds_executed(),
        terminated=trace.terminated,
        decision_diameter=trace.decision_diameter(),
        diameters=tuple(trace.diameters()),
        termination_ok=verdict.termination.holds,
        agreement_ok=verdict.epsilon_agreement.holds,
        validity_ok=verdict.validity.holds,
        p1_ok=None if verdict.p1.skipped else verdict.p1.holds,
        p2_ok=None if verdict.p2.skipped else verdict.p2.holds,
    )


def lite_verdict(trace, cell=VERDICT_CELL) -> CellResult | None:
    """The engine's array verdict of ``trace``: on its stack row where
    ``simulate_many`` stacked it, else as a one-row stack; ``None``
    where the verdict defers to the reference."""
    link = trace.stack
    if link is None:
        outcome = StackOutcome.of_traces([trace])
        if outcome is None:
            return None
        link = (outcome, 0)
    outcome, row = link
    return _array_verdicts(outcome, [row], [cell], None)[0]


def assert_lite_verdict_matches(trace, cell=VERDICT_CELL) -> None:
    """The lite verdict of ``trace`` is ``repr``-identical to the
    reference (signed zeros and NaN spreads included)."""
    fast = lite_verdict(trace, cell)
    assert fast is not None, "the lite verdict deferred a plain run"
    assert repr(fast) == repr(reference_cell_result(trace, cell))


def stacked_runs(configs, kernel=None):
    """``simulate_many`` over ``configs``: the traces, each run's
    ``(round-0 received diameter, controller)``, and the stacks'
    planners.

    A stacked run builds no simulator: its received diameter is its
    row of the stack's outcome (``trace.stack``) and its controller the
    one its stack's planner planned with.  A run left on its per-cell
    path reads both from the simulator that ran it.
    """
    sims: list = []
    planners: list = []
    sim_init = SynchronousSimulator.__init__
    planner_init = CrossRunPlanner.__init__

    def track_sim(self, *args, **kwargs):
        sim_init(self, *args, **kwargs)
        sims.append(self)

    def track_planner(self, *args, **kwargs):
        planner_init(self, *args, **kwargs)
        planners.append(self)

    with mock.patch.object(SynchronousSimulator, "__init__", track_sim), \
            mock.patch.object(CrossRunPlanner, "__init__", track_planner):
        traces = simulate_many(configs, kernel=kernel)
    solo = iter(sims)
    stacks: dict[int, int] = {}
    runs = []
    for trace in traces:
        link = getattr(trace, "stack", None)
        if link is None:
            sim = next(solo)
            runs.append((sim._first_round_received_diameter, sim.controller))
            continue
        outcome, row = link
        planner = planners[stacks.setdefault(id(outcome), len(stacks))]
        runs.append((outcome.received[row], planner.controllers[row]))
    assert next(solo, None) is None
    return traces, runs, planners
