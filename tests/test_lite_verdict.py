"""The lite verdict: a sweep cell's result straight from a lite trace.

:func:`repro.sweep.engine._condense_trace` condenses a lite run without
``check_trace`` or a single ``ValueMultiset``: spreads, Validity and
epsilon-Agreement come from the decisions and the per-round extents the
trace holds.  Every field must stay ``repr``-identical to the
reference condensation (:func:`tests.helpers.reference_cell_result`),
signed zeros included, and the runs the reference rejects -- NaN
values, no initially non-faulty process -- must raise what it raises.
The engine's matrices check the same on every run they drive
(``tests/test_run_rounds.py``, ``TestStackedDifferential``); the cases
here are the edges no simulated run reaches.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import pytest

from repro.core.specification import FLOAT_TOLERANCE
from repro.faults.models import MobileModel
from repro.runtime.simulator import run_simulation
from repro.runtime.trace import LiteTrace
from repro.sweep import GridSpec, run_sweep
from repro.sweep.engine import _condense_trace, _lite_verdict
from tests.helpers import (
    VERDICT_CELL,
    assert_lite_verdict_matches,
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

    def test_opposite_infinities_defer_to_the_reference(self):
        trace = lite({0: INF, 1: -INF})
        assert _lite_verdict(VERDICT_CELL, trace, None) is None
        assert repr(condensed(trace)) == repr(reference_cell_result(trace))


class TestDeferredRuns:
    def test_nan_decision_raises_as_the_reference(self):
        trace = lite({0: 0.5, 1: NAN})
        assert _lite_verdict(VERDICT_CELL, trace, None) is None
        with pytest.raises(ValueError) as reference:
            reference_cell_result(trace)
        with pytest.raises(ValueError) as fast:
            condensed(trace)
        assert str(fast.value) == str(reference.value)

    def test_no_initially_nonfaulty_process_raises_as_the_reference(self):
        trace = lite({0: 0.5}, nonfaulty=())
        assert _lite_verdict(VERDICT_CELL, trace, None) is None
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
