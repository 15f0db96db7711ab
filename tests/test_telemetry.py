"""Telemetry-layer tests: metrics registry, tracing, flight recorder.

Two invariants anchor this suite.  First, telemetry must be *inert with
respect to results*: a sweep run with tracing enabled is bit-identical
to the same sweep without it.  Second, the metrics ledger must be
*deterministic under merge*: histograms use fixed edges so folding
worker snapshots into the parent is an order-independent element-wise
sum.  Around those, the suite pins the registry API, the sampled kernel
timers, the span tree a traced sweep emits, the flight-recorder dump on
error cells, and the ``sweep stats`` renderer.
"""

from __future__ import annotations

import json

import pytest

from tests.helpers import small_grid

from repro.sweep import CellSpec, GridSpec, run_cell, run_sweep
from repro.telemetry import (
    DEFAULT_SIZE_EDGES,
    Histogram,
    KernelSampler,
    MetricsRegistry,
    TelemetryConfig,
    deactivate,
    get_registry,
    load_metrics,
    load_trace_events,
    metrics_enabled,
    render_stats,
    set_metrics_enabled,
    snapshot_delta,
    span_children,
    span_rollup,
    trace_span,
    tracing_active,
)


def _cell(**overrides) -> CellSpec:
    base = dict(
        model="M1",
        f=1,
        n=None,
        algorithm="ftm",
        movement="round-robin",
        attack="split",
        epsilon=1e-3,
        seed=0,
        rounds=6,
    )
    base.update(overrides)
    return CellSpec(**base)


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test must leave the process without an active trace session."""
    yield
    deactivate()
    assert not tracing_active()


class TestHistogram:
    def test_bucket_placement(self):
        hist = Histogram(edges=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        # bucket i counts values <= edges[i]; the last bucket overflows
        assert hist.counts == [2, 0, 1, 1]
        assert hist.samples == 4
        assert hist.total == pytest.approx(104.5)

    def test_round_trip_and_merge(self):
        a = Histogram(edges=(1.0, 2.0))
        b = Histogram(edges=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge_dict(b.to_dict())
        assert a.counts == [1, 1, 1]
        assert a.samples == 3

    def test_edge_mismatch_rejected(self):
        a = Histogram(edges=(1.0, 2.0))
        b = Histogram(edges=(1.0, 3.0))
        with pytest.raises(ValueError, match="edge mismatch"):
            a.merge_dict(b.to_dict())


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 2.0)
        reg.gauge("g", 7.0)
        assert reg.counter_value("x") == 3.0
        snap = reg.snapshot()
        assert snap["counters"] == {"x": 3.0}
        assert snap["gauges"] == {"g": 7.0}

    def test_snapshot_is_key_sorted(self):
        reg = MetricsRegistry()
        reg.inc("zeta")
        reg.inc("alpha")
        assert list(reg.snapshot()["counters"]) == ["alpha", "zeta"]

    def test_merge_is_order_independent(self):
        worker_a = MetricsRegistry()
        worker_b = MetricsRegistry()
        for reg, values in ((worker_a, (0.5, 3.0)), (worker_b, (1.5,))):
            reg.inc("cells", len(values))
            for value in values:
                reg.observe("lat", value, edges=(1.0, 2.0))
        ab = MetricsRegistry()
        ab.merge(worker_a.snapshot())
        ab.merge(worker_b.snapshot())
        ba = MetricsRegistry()
        ba.merge(worker_b.snapshot())
        ba.merge(worker_a.snapshot())
        assert ab.snapshot() == ba.snapshot()
        assert ab.snapshot()["histograms"]["lat"]["counts"] == [1, 1, 1]

    def test_clear(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.clear()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestSnapshotDelta:
    def test_drops_zero_deltas_and_subtracts(self):
        reg = MetricsRegistry()
        reg.inc("stable")
        reg.inc("moving")
        before = reg.snapshot()
        reg.inc("moving", 4.0)
        reg.observe("lat", 0.25, edges=(1.0,))
        delta = snapshot_delta(before, reg.snapshot())
        assert delta["counters"] == {"moving": 4.0}
        assert delta["histograms"]["lat"]["count"] == 1


class TestEnabledToggle:
    def test_disabled_module_helpers_are_noops(self):
        from repro.telemetry import count, observe, set_gauge

        name = "test.toggle.counter"
        baseline = get_registry().counter_value(name)
        previous = set_metrics_enabled(False)
        try:
            assert not metrics_enabled()
            count(name)
            set_gauge("test.toggle.gauge", 1.0)
            observe("test.toggle.hist", 0.5)
            assert get_registry().counter_value(name) == baseline
        finally:
            set_metrics_enabled(previous)
        count(name)
        assert get_registry().counter_value(name) == baseline + 1.0


class TestKernelSampler:
    def test_tick_samples_first_of_every_n(self):
        sampler = KernelSampler(every=4)
        ticks = [sampler.tick("batch") for _ in range(8)]
        assert ticks == [True, False, False, False, True, False, False, False]

    def test_drain_reports_and_resets(self):
        sampler = KernelSampler(every=1)
        assert sampler.tick("scalar")
        sampler.record("scalar", 0.5)
        drained = dict(sampler.drain())
        assert drained["kernel.scalar.calls"] == 1.0
        assert drained["kernel.scalar.sampled"] == 1.0
        assert drained["kernel.scalar.seconds"] == pytest.approx(0.5)
        assert sampler.drain() == ()


class TestTracedSweep:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("telemetry")
        grid = small_grid()
        baseline = run_sweep(grid)
        result = run_sweep(grid, telemetry=str(directory))
        return directory, baseline, result

    def test_results_bit_identical(self, traced):
        _, baseline, result = traced
        assert result == baseline

    def test_session_closed_after_sweep(self, traced):
        assert not tracing_active()

    def test_span_tree_covers_engine_to_rounds(self, traced):
        directory, _, _ = traced
        events = load_trace_events(directory)
        edges = span_children(events)
        assert (None, "sweep.run") in edges
        assert ("sweep.run", "sweep.dispatch") in edges
        assert ("sweep.dispatch", "sweep.cell") in edges
        assert ("sweep.cell", "sim.run") in edges

    def test_span_rollup_counts_cells(self, traced):
        directory, baseline, _ = traced
        rollup = span_rollup(load_trace_events(directory))
        assert rollup["sweep.run"]["count"] == 1
        assert rollup["sweep.cell"]["count"] == len(baseline.cells)

    def test_metrics_json_written(self, traced):
        directory, baseline, _ = traced
        metrics = load_metrics(directory)
        counters = metrics["counters"]
        assert counters["sweep.cells.done"] == len(baseline.cells)
        assert counters["sweep.runs"] == 1.0
        assert counters["kernel.scalar.calls"] > 0
        assert "sweep.cell.seconds" in metrics["histograms"]
        assert "sweep.cell.rounds" in metrics["histograms"]

    def test_cell_metrics_travel_on_results(self, traced):
        _, _, result = traced
        keys = {name for cell in result.cells for name, _ in cell.metrics}
        assert "kernel.scalar.calls" in keys

    def test_stats_renderer(self, traced):
        directory, _, _ = traced
        text = render_stats(directory)
        assert "sweep.cells.done" in text
        assert "sweep.run" in text
        assert "sweep.cell.seconds" in text


class TestTracedStatefulSweep:
    def test_witness_cells_carry_round_samples(self, tmp_path):
        """Stateful families' rounds go through the kernel sampler, so a
        traced witness sweep reports their sampled round timings."""
        grid = GridSpec(
            models=("M1",),
            fs=(1,),
            ns=(9,),
            families=("witness",),
            topologies=("complete", "ring:2"),
            seeds=(0,),
            rounds=4,
        )
        result = run_sweep(grid, telemetry=str(tmp_path))
        assert len(result.cells) == 2
        for cell in result.cells:
            metrics = dict(cell.metrics)
            assert metrics["kernel.round.calls"] == 4.0
            assert metrics["kernel.round.seconds"] > 0.0


class TestTraceSpanInert:
    def test_null_span_when_inactive(self):
        assert not tracing_active()
        with trace_span("nothing", attr=1) as span:
            span.set("k", "v")  # must be a no-op, not an error

    def test_metrics_field_excluded_from_compare(self):
        cell = _cell()
        a = run_cell(cell)
        b = run_cell(cell, telemetry=None)
        assert a == b


class TestFlightRecorder:
    def test_error_cell_dumps_flight(self, tmp_path):
        config = TelemetryConfig(directory=str(tmp_path))
        bad = _cell(scenario="stall", rounds=None)
        try:
            result = run_cell(bad, telemetry=config)
        finally:
            deactivate()
        assert result.error is not None
        flights = sorted(tmp_path.glob("flight-*.jsonl"))
        assert flights, "error cell should dump the flight recorder"
        lines = [json.loads(line) for line in
                 flights[0].read_text().splitlines()]
        assert lines[0]["event"] == "flight_dump"
        assert lines[0]["reason"] == "error-cell"
        assert any(e.get("event") == "cell.error" for e in lines[1:])

    def test_error_counter_recorded_by_sweep(self, tmp_path):
        # Error cells are counted once, in the parent's report() path.
        grid = small_grid(seeds=1, rounds=4)
        before = get_registry().snapshot()
        run_sweep(grid, telemetry=str(tmp_path))
        delta = snapshot_delta(before, get_registry().snapshot())
        assert delta["counters"].get("sweep.cells.error", 0.0) == 0.0
        assert delta["counters"]["sweep.cells.done"] == 12.0


class TestCellRoundsHistogram:
    def test_cross_run_sweep_observes_rounds_per_cell(self, tmp_path):
        grid = small_grid(seeds=1, rounds=4)
        before = get_registry().snapshot()
        result = run_sweep(grid, cross_run=True, telemetry=str(tmp_path))
        delta = snapshot_delta(before, get_registry().snapshot())
        hist = delta["histograms"].get("sweep.cell.rounds")
        assert hist is not None
        assert hist["edges"] == list(DEFAULT_SIZE_EDGES)
        assert hist["count"] == len(result.cells)
        assert delta["counters"]["sweep.dispatch.cross_run"] == 1.0


class TestStackedPlanningTimings:
    def test_cross_run_sweep_reports_plan_and_fold(self, tmp_path):
        # The stacked engine's fault planning and multi-run fold are
        # sampled on the kernel's sampler, next to the phase timings.
        grid = small_grid(seeds=2, rounds=4)
        result = run_sweep(grid, cross_run=True, telemetry=str(tmp_path))
        counters = load_metrics(str(tmp_path))["counters"]
        for path in ("plan", "fold"):
            assert counters[f"kernel.{path}.calls"] > 0
            assert counters[f"kernel.{path}.sampled"] >= 1
            assert counters[f"kernel.{path}.seconds"] > 0
        keys = {name for cell in result.cells for name, _ in cell.metrics}
        assert {"kernel.plan.calls", "kernel.fold.calls"} <= keys


class TestCLI:
    def test_sweep_telemetry_flag_and_stats(self, capsys, tmp_path):
        from repro.experiments.cli import main

        tdir = tmp_path / "t"
        code = main(
            ["sweep", "--models", "M1", "--seeds", "2", "--rounds", "5",
             "--telemetry", str(tdir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"telemetry: {tdir}" in out
        assert (tdir / "metrics.json").is_file()

        assert main(["sweep", "stats", str(tdir)]) == 0
        stats_out = capsys.readouterr().out
        assert "sweep.cells.done" in stats_out

    def test_stats_missing_directory_exits_2(self, capsys, tmp_path):
        from repro.experiments.cli import main

        assert main(["sweep", "stats", str(tmp_path / "absent")]) == 2
        assert "is not a directory" in capsys.readouterr().err

    def _traced_dir(self, tmp_path):
        tdir = tmp_path / "t"
        run_sweep(small_grid(seeds=1, rounds=5), telemetry=str(tdir))
        return tdir

    def test_stats_skips_a_torn_trace_line(self, capsys, tmp_path):
        from repro.experiments.cli import main

        tdir = self._traced_dir(tmp_path)
        trace = sorted(tdir.glob("trace-*.jsonl"))[0]
        events = len(load_trace_events(tdir))
        # A worker killed mid-write leaves a partial last line.
        last = trace.read_text().splitlines()[-1]
        with open(trace, "a") as fh:
            fh.write(last[: len(last) // 2])
        assert len(load_trace_events(tdir)) == events
        assert main(["sweep", "stats", str(tdir)]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 undecodable line" in out
        assert "sweep.run" in out

    def test_stats_names_a_torn_flight_dump(self, capsys, tmp_path):
        from repro.experiments.cli import main

        tdir = self._traced_dir(tmp_path)
        (tdir / "flight-1-0.jsonl").write_text('{"reason": "err')
        assert main(["sweep", "stats", str(tdir)]) == 0
        assert "flight-1-0.jsonl: undecodable header" in capsys.readouterr().out

    def test_stats_corrupt_metrics_exits_2(self, capsys, tmp_path):
        from repro.experiments.cli import main

        tdir = self._traced_dir(tmp_path)
        metrics = tdir / "metrics.json"
        metrics.write_text(metrics.read_text()[:20])
        assert main(["sweep", "stats", str(tdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stats error:")
        assert str(metrics) in err
