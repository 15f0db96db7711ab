"""The lite verdict: a sweep cell's result straight from a lite trace.

:func:`repro.sweep.engine._condense_trace` condenses a lite run without
``check_trace`` or a single ``ValueMultiset``: spreads, Validity and
epsilon-Agreement come from the decisions and the per-round extents the
trace holds.  Every field must stay ``repr``-identical to the
reference condensation (:func:`tests.helpers.reference_cell_result`),
signed zeros included, and the runs the reference rejects -- NaN
values, no initially non-faulty process -- must raise what it raises.
Each edge is checked as a lone trace (a one-row stack) and again as
one row of a stack next to ordinary rows (``TestInsideAStack``), which
is how a stacked sweep condenses its runs.  The engine's matrices
check the same on every run they drive (``tests/test_run_rounds.py``,
``TestStackedDifferential``); the cases here are the edges no
simulated run reaches.
"""

from __future__ import annotations

import dataclasses
import math
from types import MappingProxyType

import pytest

from repro.core.specification import FLOAT_TOLERANCE
from repro.faults.models import MobileModel
from repro.runtime.simulator import StackOutcome, run_simulation
from repro.runtime.trace import LiteTrace
from repro.sweep import GridSpec, run_sweep
from repro.sweep.engine import _condense_many, _condense_trace
from tests.helpers import (
    VERDICT_CELL,
    assert_lite_verdict_matches,
    lite_verdict,
    reference_cell_result,
)

INF = math.inf
NAN = math.nan


def lite(decisions, extents=(), initial=(0.0, 0.5, 1.0), nonfaulty=None, epsilon=1e-3):
    """A hand-built lite trace over ``initial`` inputs."""
    n = len(initial)
    return LiteTrace(
        n=n,
        f=1,
        model=MobileModel.GARAY,
        algorithm_name="ftm",
        epsilon=epsilon,
        initial_values=MappingProxyType(dict(enumerate(initial))),
        initially_nonfaulty=frozenset(range(n) if nonfaulty is None else nonfaulty),
        round_extents=tuple(extents),
        decisions=dict(decisions),
        terminated=True,
    )


def condensed(trace):
    return _condense_trace(VERDICT_CELL, trace, None)


class TestSignedZeros:
    def test_decisions_zero_then_negative_zero_spread_negative_zero(self):
        trace = lite({0: 0.0, 1: -0.0}, extents=[(-0.0, 0.0)])
        assert_lite_verdict_matches(trace)
        spread = condensed(trace).decision_diameter
        assert spread == 0.0 and math.copysign(1.0, spread) == -1.0

    def test_negative_zero_first_spreads_positive_zero(self):
        trace = lite({0: -0.0, 1: 0.0})
        assert_lite_verdict_matches(trace)
        assert math.copysign(1.0, condensed(trace).decision_diameter) == 1.0

    def test_initial_diameter_follows_pid_order(self):
        trace = lite({1: 0.0}, initial=(0.0, -0.0), extents=[(0.0, 0.0)])
        assert_lite_verdict_matches(trace)
        assert repr(condensed(trace).diameters[0]) == "-0.0"


class TestInfiniteDecisions:
    @pytest.mark.parametrize(
        "decisions",
        [{0: INF, 1: 0.5}, {0: 0.5, 1: -INF}, {0: INF, 1: INF}],
        ids=["inf", "-inf", "inf-inf"],
    )
    def test_match_the_reference(self, decisions):
        assert_lite_verdict_matches(lite(decisions))

    def test_opposite_infinities_match_the_reference(self):
        trace = lite({0: INF, 1: -INF})
        assert_lite_verdict_matches(trace)
        assert repr(condensed(trace)) == repr(reference_cell_result(trace))


class TestDeferredRuns:
    def test_nan_decision_raises_as_the_reference(self):
        trace = lite({0: 0.5, 1: NAN})
        assert lite_verdict(trace) is None
        with pytest.raises(ValueError) as reference:
            reference_cell_result(trace)
        with pytest.raises(ValueError) as fast:
            condensed(trace)
        assert str(fast.value) == str(reference.value)

    def test_no_initially_nonfaulty_process_raises_as_the_reference(self):
        trace = lite({0: 0.5}, nonfaulty=())
        assert lite_verdict(trace) is None
        with pytest.raises(ValueError) as reference:
            reference_cell_result(trace)
        with pytest.raises(ValueError) as fast:
            condensed(trace)
        assert str(fast.value) == str(reference.value)
        assert "no initially non-faulty process" in str(fast.value)


class TestVerdicts:
    def test_every_process_occupied(self):
        trace = lite({}, extents=[(0.25, 0.75), None, None])
        assert_lite_verdict_matches(trace)
        result = condensed(trace)
        assert result.decisions == () and result.decision_diameter == 0.0
        assert result.diameters[-2:] == (0.0, 0.0)

    def test_validity_broken_only_by_an_intermediate_extent(self):
        trace = lite(
            {0: 0.5, 1: 0.5},
            extents=[(0.25, 0.75), (-0.5, 0.75), (0.5, 0.5)],
        )
        assert_lite_verdict_matches(trace)
        result = condensed(trace)
        assert result.agreement_ok and not result.validity_ok

    def test_decision_outside_the_inputs_breaks_validity(self):
        trace = lite({0: 0.5, 1: 1.0 + 2 * FLOAT_TOLERANCE}, initial=(0.0, 1.0))
        assert_lite_verdict_matches(trace)
        assert not condensed(trace).validity_ok

    def test_spread_exactly_at_epsilon_plus_tolerance(self):
        epsilon = 1e-3
        edge = epsilon + FLOAT_TOLERANCE
        held = lite({0: 0.0, 1: edge}, epsilon=epsilon, extents=[(0.0, edge)])
        assert_lite_verdict_matches(held)
        assert condensed(held).agreement_ok
        beyond = math.nextafter(edge, INF)
        broken = lite({0: 0.0, 1: beyond}, epsilon=epsilon)
        assert_lite_verdict_matches(broken)
        assert not condensed(broken).agreement_ok


#: Every edge above, as ``(id, trace)``; the last two raise.
EDGES = [
    ("zero-then-negative-zero", lite({0: 0.0, 1: -0.0}, extents=[(-0.0, 0.0)])),
    ("negative-zero-first", lite({0: -0.0, 1: 0.0})),
    (
        "zero-inputs",
        lite({1: 0.0}, initial=(0.0, -0.0), extents=[(0.0, 0.0)]),
    ),
    ("inf", lite({0: INF, 1: 0.5})),
    ("-inf", lite({0: 0.5, 1: -INF})),
    ("inf-inf", lite({0: INF, 1: INF})),
    ("opposite-infinities", lite({0: INF, 1: -INF})),
    ("fully-occupied-rounds", lite({}, extents=[(0.25, 0.75), None, None])),
    (
        "intermediate-extent-breaks-validity",
        lite({0: 0.5, 1: 0.5}, extents=[(0.25, 0.75), (-0.5, 0.75), (0.5, 0.5)]),
    ),
    (
        "decision-outside-inputs",
        lite({0: 0.5, 1: 1.0 + 2 * FLOAT_TOLERANCE}, initial=(0.0, 1.0)),
    ),
    (
        "spread-at-epsilon-plus-tolerance",
        lite(
            {0: 0.0, 1: 1e-3 + FLOAT_TOLERANCE},
            extents=[(0.0, 1e-3 + FLOAT_TOLERANCE)],
        ),
    ),
    (
        "spread-just-beyond",
        lite({0: 0.0, 1: math.nextafter(1e-3 + FLOAT_TOLERANCE, INF)}),
    ),
    ("nan-decision", lite({0: 0.5, 1: NAN})),
    ("no-initially-nonfaulty", lite({0: 0.5}, nonfaulty=())),
]


def ordinary(n, rounds):
    """A plain run over ``n`` inputs that ran ``rounds`` rounds."""
    initial = tuple(pid / n for pid in range(n))
    return lite(
        {pid: 0.25 for pid in range(1, n)},
        extents=[(0.25 - 0.5 ** k, 0.25 + 0.5 ** k) for k in range(2, rounds + 2)],
        initial=initial,
        nonfaulty=range(1, n),
    )


class TestInsideAStack:
    """Each edge as the middle row of a three-row stack whose other rows
    ran other numbers of rounds: every row condenses ``repr``-identical
    to its reference, and a row the reference rejects raises what the
    reference raises."""

    @staticmethod
    def stack(edge):
        # A copy: the stack link is set on the traces themselves.
        edge = dataclasses.replace(edge)
        n = edge.n
        traces = [ordinary(n, 1), edge, ordinary(n, 5)]
        outcome = StackOutcome.of_traces(traces)
        assert outcome is not None
        for row, trace in enumerate(traces):
            trace.stack = (outcome, row)
        assert outcome.executed.tolist() == [1, len(edge.round_extents), 5]
        return traces

    @pytest.mark.parametrize(
        "edge", [edge for _, edge in EDGES[:-2]], ids=[name for name, _ in EDGES[:-2]]
    )
    def test_rows_match_the_reference(self, edge):
        traces = self.stack(edge)
        results = _condense_many([VERDICT_CELL] * 3, traces, None)
        for trace, result in zip(traces, results):
            assert repr(result) == repr(reference_cell_result(trace))
            assert lite_verdict(trace) is not None

    @pytest.mark.parametrize(
        "edge", [edge for _, edge in EDGES[-2:]], ids=[name for name, _ in EDGES[-2:]]
    )
    def test_rejected_rows_raise_as_the_reference(self, edge):
        traces = self.stack(edge)
        edge = traces[1]
        assert lite_verdict(edge) is None
        assert lite_verdict(traces[0]) is not None
        with pytest.raises(ValueError) as reference:
            reference_cell_result(edge)
        with pytest.raises(ValueError) as fast:
            _condense_many([VERDICT_CELL] * 3, traces, None)
        assert str(fast.value) == str(reference.value)


def test_loose_traces_condense_as_one_stack_per_width(monkeypatch):
    """Lite traces no stack produced -- a group's per-cell runs --
    condense as one stack per width, every row ``repr``-identical to
    its reference; a width whose stack ``of_traces`` refuses (decisions
    out of pid order) condenses through the reference."""
    traces = [dataclasses.replace(edge) for _, edge in EDGES[:-2]]
    traces += [ordinary(5, 1), ordinary(3, 4), ordinary(5, 3)]
    unordered = lite({1: 0.5, 0: 0.5}, initial=(0.0, 0.5, 1.0, 0.75))
    traces.append(unordered)
    stacked = []
    of_traces = StackOutcome.of_traces.__func__

    def spy(cls, rows):
        outcome = of_traces(cls, rows)
        stacked.append((len(rows), outcome is not None))
        return outcome

    monkeypatch.setattr(StackOutcome, "of_traces", classmethod(spy))
    results = _condense_many([VERDICT_CELL] * len(traces), traces, None)
    for trace, result in zip(traces, results):
        assert repr(result) == repr(reference_cell_result(trace))
    widths = sorted({trace.n for trace in traces})
    assert len(stacked) == len(widths)
    assert (1, False) in stacked
    assert sum(rows for rows, _ in stacked) == len(traces)


def test_sweeps_condense_as_the_reference():
    """Per-cell and stacked sweeps over runs that break each property
    equal the reference condensation of each cell's own lite run."""
    grid = GridSpec(
        models=("M1", "M3"),
        fs=(2,),
        attacks=("outlier", "split"),
        movements=("round-robin", "target-extremes"),
        seeds=(0, 1),
        rounds=2,
    )
    # Oracle termination at a tiny epsilon runs out of rounds under
    # noise; n=5 is below M2's bound and errors.
    grid_short = GridSpec(
        models=("M2", "M4"),
        fs=(1,),
        ns=(5, 9),
        attacks=("noise",),
        epsilons=(1e-12,),
        seeds=(0, 1),
        max_rounds=3,
    )
    cells = list(grid.cells()) + list(grid_short.cells())
    expected = {}
    for cell in cells:
        try:
            config = cell.to_config()
        except ValueError:
            continue
        expected[cell.key] = repr(
            reference_cell_result(run_simulation(config, "lite"), cell)
        )
    assert expected
    for cross_run in (False, True):
        result = run_sweep(cells, cross_run=cross_run)
        fields = {cell.key: repr(cell) for cell in result.cells if cell.error is None}
        assert fields == expected
        ran = [cell for cell in result.cells if cell.error is None]
        assert len(ran) < len(result.cells)
        assert not all(cell.agreement_ok for cell in ran)
        assert not all(cell.termination_ok for cell in ran)
