"""Equivalence guarantees of the sweep engine and the trace-lite path.

Two independent axes must never change results:

* **trace detail** -- ``trace_detail="lite"`` skips all per-round
  snapshots but must produce bit-identical decisions, termination
  rounds, diameter trajectories and headline spec verdicts;
* **execution strategy** -- a parallel sweep must be bit-identical to a
  serial sweep of the same grid, independent of worker count, chunking
  and completion order (results are keyed by cell).
"""

from __future__ import annotations

import pytest

from tests.helpers import make_mobile_config, small_grid

from repro.core.specification import check_trace
from repro.runtime import LiteTrace, SynchronousSimulator, Trace, run_simulation
from repro.sweep import run_sweep


@pytest.fixture(scope="module")
def grid():
    return small_grid()


@pytest.fixture(scope="module")
def serial_full(grid):
    return run_sweep(grid, workers=1, trace_detail="full")


@pytest.fixture(scope="module")
def serial_lite(grid):
    return run_sweep(grid, workers=1, trace_detail="lite")


class TestLiteVsFullSweep:
    """(a) lite-mode sweeps are bit-identical to full-mode sweeps."""

    def test_grid_is_large_and_diverse(self, grid):
        cells = list(grid.cells())
        assert len(cells) >= 24
        assert {cell.model for cell in cells} == {"M1", "M2", "M3"}

    def test_no_cell_errored(self, serial_full, serial_lite):
        assert serial_full.errors() == ()
        assert serial_lite.errors() == ()

    def test_same_cell_keys(self, serial_full, serial_lite):
        assert [c.key for c in serial_full] == [c.key for c in serial_lite]

    def test_decisions_bit_identical(self, serial_full, serial_lite):
        lite_by_key = serial_lite.by_key()
        for cell in serial_full:
            assert cell.decisions == lite_by_key[cell.key].decisions

    def test_termination_round_identical(self, serial_full, serial_lite):
        lite_by_key = serial_lite.by_key()
        for cell in serial_full:
            other = lite_by_key[cell.key]
            assert cell.rounds == other.rounds
            assert cell.terminated == other.terminated

    def test_diameter_trajectories_bit_identical(self, serial_full, serial_lite):
        lite_by_key = serial_lite.by_key()
        for cell in serial_full:
            assert cell.diameters == lite_by_key[cell.key].diameters

    def test_spec_verdicts_identical(self, serial_full, serial_lite):
        lite_by_key = serial_lite.by_key()
        for cell in serial_full:
            other = lite_by_key[cell.key]
            assert cell.satisfied == other.satisfied
            assert cell.termination_ok == other.termination_ok
            assert cell.agreement_ok == other.agreement_ok
            assert cell.validity_ok == other.validity_ok


class TestParallelVsSerial:
    """(b) parallel execution is bit-identical to serial execution."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_cells_bit_identical(self, grid, serial_lite, workers):
        parallel = run_sweep(grid, workers=workers, trace_detail="lite")
        assert parallel.cells == serial_lite.cells

    def test_full_traces_parallel(self, grid, serial_full):
        parallel = run_sweep(grid, workers=2, trace_detail="full")
        assert parallel.cells == serial_full.cells


class TestSimulatorLevelEquivalence:
    """The fast path agrees with the full path on raw simulator runs."""

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_decisions_and_diameters(self, model):
        config = make_mobile_config(model, f=2, rounds=10, seed=3)
        full = run_simulation(config, trace_detail="full")
        lite = run_simulation(config, trace_detail="lite")
        assert isinstance(full, Trace)
        assert isinstance(lite, LiteTrace)
        assert full.decisions == lite.decisions
        assert full.diameters() == lite.diameters()
        assert full.initially_nonfaulty == lite.initially_nonfaulty
        assert full.rounds_executed() == lite.rounds_executed()

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_headline_verdicts_agree(self, model):
        config = make_mobile_config(model, f=1, rounds=12, seed=5)
        full_verdict = check_trace(run_simulation(config, "full"))
        lite_verdict = check_trace(run_simulation(config, "lite"))
        assert full_verdict.satisfied == lite_verdict.satisfied
        assert full_verdict.termination.holds == lite_verdict.termination.holds
        assert (
            full_verdict.epsilon_agreement.holds
            == lite_verdict.epsilon_agreement.holds
        )
        assert full_verdict.validity.holds == lite_verdict.validity.holds

    def test_lite_verdict_reports_p1_p2_as_skipped(self):
        config = make_mobile_config("M1", rounds=5)
        verdict = check_trace(run_simulation(config, "lite"))
        assert verdict.p1.holds and verdict.p1.skipped
        assert verdict.p2.holds and "not recorded" in verdict.p2.details
        assert "SKIPPED" in str(verdict.p1)
        # Skipped invariants are not violations, but never count as proven.
        assert verdict.failures() == []
        assert verdict.satisfied
        assert not verdict.all_satisfied

    def test_full_sweep_records_p1_p2_lite_leaves_them_unevaluated(
        self, serial_full, serial_lite
    ):
        assert all(cell.p1_ok and cell.p2_ok for cell in serial_full)
        assert all(
            cell.p1_ok is None and cell.p2_ok is None for cell in serial_lite
        )

    def test_lite_trace_rejected_by_serializer(self):
        from repro.runtime import trace_to_dict

        config = make_mobile_config("M1", rounds=3)
        with pytest.raises(TypeError, match="trace_detail='full'"):
            trace_to_dict(run_simulation(config, "lite"))

    def test_oracle_termination_stops_same_round(self):
        from repro.runtime import OracleDiameter

        config = make_mobile_config(
            "M2", f=1, termination=OracleDiameter(1e-4), max_rounds=200
        )
        full = run_simulation(config, "full")
        lite = run_simulation(config, "lite")
        assert full.terminated and lite.terminated
        assert full.rounds_executed() == lite.rounds_executed()
        assert full.decisions == lite.decisions

    def test_step_requires_full_detail(self):
        config = make_mobile_config("M1", rounds=3)
        simulator = SynchronousSimulator(config, trace_detail="lite")
        with pytest.raises(RuntimeError, match="full"):
            simulator.step()

    def test_invalid_trace_detail_rejected(self):
        config = make_mobile_config("M1", rounds=3)
        with pytest.raises(ValueError, match="trace_detail"):
            SynchronousSimulator(config, trace_detail="compact")
