"""Every run driver agrees under every termination rule.

A run is one round loop over one of several round bodies: the scalar
round kernel, the per-cell array engine, a stateful family's
``run_round``, ``step()`` for reference full traces, and the cross-run
stack.  Which body runs depends on the kernel mode, numpy, the trace
detail and the batch size; what a run decides must not.  The matrix
drives each config through every body under each termination rule --
:class:`EstimatedRounds` included, the one rule that reads the round-0
received diameter -- and compares the outputs bit for bit, and every
lite trace's sweep verdict with its ``check_trace`` reference.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import mobile_config
from repro.faults import Adversary, StaticFaultAssignment
from repro.faults.value_strategies import SplitAttack
from repro.msr import make_algorithm
from repro.runtime import (
    EstimatedRounds,
    FixedRounds,
    OracleDiameter,
    RoundKernel,
    SimulationConfig,
    StaticMixedSetup,
)
from repro.runtime.simulator import SynchronousSimulator
from repro.runtime.trace import LiteTrace
from tests.helpers import (
    KERNEL_MODES,
    assert_lite_verdict_matches,
    stacked_runs,
    without_numpy,
)

RULES = {
    "fixed": lambda: FixedRounds(12),
    "oracle": lambda: OracleDiameter(1e-3),
    "estimated": lambda: EstimatedRounds(1e-3, 0.5),
}

#: (family, topology) shapes of the mobile runs.
SHAPES = [
    ("bonomi", "complete"),
    ("tseng", "complete"),
    ("witness", "complete"),
    ("witness", "ring:6"),
]

#: (detail, kernel mode) of every per-run driver.
DRIVERS = [("lite", mode) for mode in KERNEL_MODES] + [
    ("full", "fast"),
    ("full", "reference"),
]


def _mobile(model, family, topology, rule, seed=3):
    def build(seed=seed):
        return mobile_config(
            model=model,
            f=2,
            n=25,
            attack="split" if model in ("M1", "M3") else "outlier",
            family=family,
            topology=topology,
            seed=seed,
            max_rounds=60,
            termination=RULES[rule](),
        )

    return build


def _static(rule):
    def build(seed=3):
        n = 12
        return SimulationConfig(
            n=n,
            f=3,
            initial_values=tuple(pid / (n - 1) for pid in range(n)),
            algorithm=make_algorithm("ftm", 3),
            setup=StaticMixedSetup(
                assignment=StaticFaultAssignment.first_processes(
                    asymmetric=1, symmetric=1, benign=1
                ),
                adversary=Adversary(values=SplitAttack()),
            ),
            termination=RULES[rule](),
            seed=seed,
            max_rounds=60,
        )

    return build


def _cases():
    for rule in RULES:
        for model in ("M1", "M2", "M3", "M4"):
            for family, topology in SHAPES:
                yield pytest.param(
                    _mobile(model, family, topology, rule),
                    id=f"{rule}-{model}-{family}-{topology}",
                )
        yield pytest.param(_static(rule), id=f"{rule}-static-bonomi")


def _outputs(trace, received):
    """What a run decides, every float by its exact repr.

    A lite trace's sweep verdict is checked against the reference
    condensation on the way.
    """
    if isinstance(trace, LiteTrace):
        assert_lite_verdict_matches(trace)
    return (
        {pid: repr(value) for pid, value in trace.decisions.items()},
        trace.diameters(),
        trace.rounds_executed(),
        trace.terminated,
        trace.initially_nonfaulty,
        received.hex(),
    )


def _driven(config, detail, mode):
    """``config`` run per cell at ``detail`` in kernel ``mode``."""
    hidden = without_numpy() if mode == "no-numpy" else contextlib.nullcontext()
    with hidden:
        sim = SynchronousSimulator(
            config,
            trace_detail=detail,
            kernel=RoundKernel(reference=mode == "reference"),
        )
        trace = sim.run()
    # The sweep verdict is checked with numpy back: without it sweeps
    # condense through the reference.
    return _outputs(trace, sim._first_round_received_diameter)


def _stacked(configs):
    """``simulate_many`` over ``configs``: outputs of every row."""
    traces, runs, _ = stacked_runs(configs)
    return [
        _outputs(trace, received) for trace, (received, _) in zip(traces, runs)
    ]


@pytest.mark.parametrize("build", _cases())
def test_every_driver_decides_alike(build):
    expected = _driven(build(), "lite", "fast")
    for detail, mode in DRIVERS[1:]:
        assert _driven(build(), detail, mode) == expected, (detail, mode)
    rows = _stacked([build(), build(seed=4), build()])
    assert rows[0] == rows[2] == expected
    assert rows[1] == _driven(build(seed=4), "lite", "fast")
