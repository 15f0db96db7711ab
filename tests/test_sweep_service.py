"""Service-layer tests: streaming, resume journals and the sweep daemon.

The elastic sweep service rests on three claims this module pins down:

* **Streaming equals batch** -- folding results into a
  :class:`SweepAccumulator` as the progress callback delivers them
  rebuilds the exact :class:`SweepResult` a batch run returns, for any
  arrival order and any backend.
* **Interrupted equals uninterrupted** -- a sweep killed mid-flight and
  resumed through its :class:`SweepJournal` produces a bit-identical
  aggregate, re-executing only the cells the journal never recorded,
  and a journal can never silently feed results from a *different*
  sweep.
* **Warm equals served** -- a :class:`SweepServer` whose cache holds
  every requested cell answers from the store alone: ``tier`` is
  ``"cache"`` and no worker pool is touched.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from tests.helpers import small_grid

from repro.sweep import (
    DISPATCH_MODES,
    CellStore,
    GridSpec,
    ShmCrossRunBackend,
    SweepAccumulator,
    SweepJournal,
    SweepServer,
    estimate_cell_cost,
    grid_from_payload,
    request_json,
    run_sweep,
    shard_cells,
    submit_sweep,
)
from repro.telemetry import parse_dispatch_label


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="module")
def grid():
    return small_grid(seeds=1, rounds=5)


@pytest.fixture(scope="module")
def reference(grid):
    return run_sweep(grid, workers=1)


class TestStreamingAggregation:
    def test_progress_stream_rebuilds_the_batch_result(self, grid, reference):
        acc = SweepAccumulator(expected=len(reference))
        result = run_sweep(grid, progress=lambda cell, done, total: acc.add(cell))
        assert acc.result() == result == reference

    def test_progress_counters_cover_every_cell_exactly_once(
        self, grid, reference
    ):
        events = []
        run_sweep(grid, progress=lambda c, done, total: events.append((c, done, total)))
        assert [done for _, done, _ in events] == list(range(1, len(reference) + 1))
        assert {total for _, _, total in events} == {len(reference)}
        keys = [cell.key for cell, _, _ in events]
        assert sorted(keys) == sorted(c.key for c in reference.cells)

    def test_shm_stream_matches_batch(self, grid, reference):
        acc = SweepAccumulator(expected=len(reference))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_sweep(
                grid,
                workers=2,
                dispatch="pool",
                progress=lambda cell, done, total: acc.add(cell),
            )
        assert acc.result().cells == reference.cells

    def test_live_summary_is_arrival_order_independent(self, reference):
        acc = SweepAccumulator()
        acc.add_many(reversed(reference.cells))
        assert acc.live_summary_rows() == reference.summary_rows()
        assert acc.snapshot().cells == reference.cells

    def test_duplicate_cell_rejected(self, reference):
        acc = SweepAccumulator()
        acc.add(reference.cells[0])
        with pytest.raises(ValueError, match="duplicate cell"):
            acc.add(reference.cells[0])

    def test_incomplete_stream_cannot_finish(self, reference):
        acc = SweepAccumulator(expected=len(reference))
        acc.add(reference.cells[0])
        with pytest.raises(ValueError, match="expected"):
            acc.result()


class TestDispatchModes:
    def test_forced_serial_dispatch(self, grid, reference):
        result = run_sweep(grid, workers=4, dispatch="serial")
        assert result.cells == reference.cells
        assert result.dispatch == "serial"

    def test_shm_instance_matches_serial(self, grid, reference):
        backend = ShmCrossRunBackend(workers=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_sweep(
                grid, backend=backend, cross_run=True, dispatch="pool"
            )
        assert result.cells == reference.cells
        assert result.dispatch.startswith(("cross-run-shm(", "cross-run-pickle("))

    def test_forced_pool_is_bit_identical(self, grid, reference):
        # On one usable CPU the forced pool warns (separately tested);
        # either way the results must not depend on where cells ran.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_sweep(grid, workers=2, dispatch="pool")
        assert result.cells == reference.cells
        assert result.dispatch.startswith(("cross-run-shm(", "cross-run-pickle("))

    def test_forced_pool_on_one_cpu_warns(self, grid):
        if _usable_cpus() >= 2:
            pytest.skip("warning only fires with a single usable CPU")
        with pytest.warns(RuntimeWarning, match="pool cannot win"):
            run_sweep(grid, workers=2, dispatch="pool")

    def test_unknown_dispatch_mode_rejected(self, grid):
        assert DISPATCH_MODES == ("auto", "serial", "pool")
        with pytest.raises(ValueError, match="dispatch"):
            run_sweep(grid, dispatch="bogus")

    def test_cost_model_orders_by_problem_size(self, grid):
        cells = list(grid.cells())
        costs = [estimate_cell_cost(cell) for cell in cells]
        assert all(cost > 0 for cost in costs)
        # M3 needs the largest quorum (4f+1), so its cells must price
        # above the M1 cells of the same grid.
        by_model = {}
        for cell, cost in zip(cells, costs):
            by_model.setdefault(cell.model, set()).add(cost)
        assert min(by_model["M3"]) > max(by_model["M1"])


class TestCacheStats:
    def test_cold_and_warm_counters(self, grid, reference, tmp_path):
        cold = run_sweep(grid, cache=tmp_path / "cache")
        assert cold.cache_stats.misses == len(reference)
        assert cold.cache_stats.hits == 0
        assert cold.cache_stats.bytes_written > 0
        warm = run_sweep(grid, cache=tmp_path / "cache")
        assert warm.cache_stats.hits == len(reference)
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.bytes_read > 0
        # The stats are machine state, not sweep content: both runs are
        # equal to each other and to the uncached reference.
        assert cold == warm == reference
        assert "hits" in warm.cache_stats.describe()

    def test_uncached_sweep_has_no_stats(self, reference):
        assert reference.cache_stats is None


class TestSweepJournal:
    def test_fresh_run_records_every_cell(self, grid, reference, tmp_path):
        journal = SweepJournal(tmp_path / "journal")
        with journal:
            result = run_sweep(grid, journal=journal)
        assert result == reference
        lines = journal.results_path.read_text().splitlines()
        assert len(lines) == len(reference)
        manifest = json.loads(journal.manifest_path.read_text())
        assert manifest["grid_size"] == len(reference)
        assert manifest["trace_detail"] == "lite"

    def test_lines_carry_results_only(self, grid, tmp_path):
        root = tmp_path / "journal"
        with SweepJournal(root) as journal:
            run_sweep(grid, journal=journal)
        text = journal.results_path.read_text()
        lines = [json.loads(line) for line in text.splitlines()]
        assert not any("elapsed" in line for line in lines)
        # A line written with an ``elapsed`` key still replays.
        lines[0]["elapsed"] = 0.5
        journal.results_path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        with SweepJournal(root) as replayed:
            assert len(replayed.open(list(grid.cells()), "lite", None)) == len(grid)

    def test_full_replay_executes_nothing(
        self, grid, reference, tmp_path, monkeypatch
    ):
        root = tmp_path / "journal"
        with SweepJournal(root) as journal:
            run_sweep(grid, journal=journal)
        # Resuming a complete journal must answer from the record alone.
        import repro.sweep.engine as engine

        def explode(*args, **kwargs):
            raise AssertionError("resume re-executed a journaled cell")

        monkeypatch.setattr(engine, "run_cell", explode)
        with SweepJournal(root) as journal:
            resumed = run_sweep(grid, journal=journal)
        assert resumed == reference

    def test_interrupt_and_resume_is_bit_identical(
        self, grid, reference, tmp_path
    ):
        root = tmp_path / "journal"

        def cancel_after(limit):
            def progress(cell, done, total):
                if done >= limit:
                    raise KeyboardInterrupt

            return progress

        journal = SweepJournal(root)
        with pytest.raises(KeyboardInterrupt):
            try:
                run_sweep(grid, progress=cancel_after(5), journal=journal)
            finally:
                journal.close()
        recorded = journal.results_path.read_text().splitlines()
        assert 5 <= len(recorded) < len(reference)

        with SweepJournal(root) as journal:
            resumed = run_sweep(grid, journal=journal)
        assert resumed == reference
        assert journal.completed_count == len(reference)

    def test_shm_batch_failure_resumes_from_recorded_batches(
        self, grid, reference, tmp_path
    ):
        # A worker failure surfaces as an exception mid-dispatch; the
        # batches that already streamed back stay journaled.
        root = tmp_path / "journal"

        def fail_after(limit):
            def progress(cell, done, total):
                if done >= limit:
                    raise RuntimeError("injected worker failure")

            return progress

        journal = SweepJournal(root)
        with pytest.raises(RuntimeError, match="injected"):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    run_sweep(
                        grid,
                        workers=2,
                        dispatch="pool",
                        progress=fail_after(3),
                        journal=journal,
                    )
            finally:
                journal.close()
        assert len(journal.results_path.read_text().splitlines()) >= 3

        with SweepJournal(root) as journal:
            resumed = run_sweep(grid, journal=journal)
        assert resumed == reference

    def test_corrupt_tail_line_reruns_that_cell(self, grid, reference, tmp_path):
        root = tmp_path / "journal"
        with SweepJournal(root) as journal:
            run_sweep(grid, journal=journal)
        results = root / "results.jsonl"
        lines = results.read_text().splitlines()
        # Simulate the crash truncating the final line mid-write.
        results.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        with SweepJournal(root) as journal:
            resumed = run_sweep(grid, journal=journal)
        assert resumed == reference
        assert len(results.read_text().splitlines()) == len(lines)

    def test_record_after_torn_tail_replays(self, grid, reference, tmp_path):
        # A kill mid-append tears the last line; a result recorded after
        # the resume must not be glued onto the fragment.
        cells = list(grid.cells())
        first, second = reference.cells[0], reference.cells[1]
        root = tmp_path / "journal"
        with SweepJournal(root) as journal:
            journal.open(cells, "lite", None)
            journal.record(first)
        results = root / "results.jsonl"
        line = results.read_text()
        results.write_text(line + line[: len(line) // 2])
        with SweepJournal(root) as journal:
            assert len(journal.open(cells, "lite", None)) == 1
            journal.record(second)
        with SweepJournal(root) as journal:
            replayed = journal.open(cells, "lite", None)
        assert set(replayed) == {first.key, second.key}

    def test_foreign_grid_journal_rejected(self, grid, tmp_path):
        with SweepJournal(tmp_path / "journal") as journal:
            run_sweep(grid, journal=journal)
        other = small_grid(seeds=2, rounds=5)
        with pytest.raises(ValueError, match="journal at"):
            run_sweep(other, journal=SweepJournal(tmp_path / "journal"))

    def test_foreign_well_formed_result_rejected(self, grid, tmp_path):
        # A readable result for a cell outside the grid is not crash
        # damage -- it is the wrong journal, and must not be skipped.
        other = small_grid(seeds=2, rounds=5)
        with SweepJournal(tmp_path / "other") as journal:
            run_sweep(other, journal=journal)
        foreign = [
            line
            for line in (tmp_path / "other" / "results.jsonl")
            .read_text()
            .splitlines()
            if '"seed": 1' in line
        ][0]
        root = tmp_path / "journal"
        with SweepJournal(root) as journal:
            run_sweep(grid, journal=journal)
        with open(root / "results.jsonl", "a", encoding="utf-8") as handle:
            handle.write(foreign + "\n")
        with pytest.raises(ValueError, match="not a cell"):
            run_sweep(grid, journal=SweepJournal(root))

    def test_record_requires_open(self, reference, tmp_path):
        with pytest.raises(ValueError, match="not open"):
            SweepJournal(tmp_path).record(reference.cells[0])



class TestShardResume:
    """A shard resumes through the shared store, journal or not."""

    def test_interrupted_shard_resumes_from_the_store(self, tmp_path):
        from repro.experiments.cli import _run_shard

        cells = list(small_grid().cells())
        own = shard_cells(cells, 0, 2)
        reference = run_sweep(own)
        k = 4

        def interrupt(result, done, total):
            if done >= k:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _run_shard(cells, 0, 2, CellStore(tmp_path), progress=interrupt)
        resumed = _run_shard(cells, 0, 2, CellStore(tmp_path))
        assert resumed.cache_stats.hits >= k
        assert resumed.cache_stats.hits < len(own)
        assert resumed == reference
        assert [repr(cell) for cell in resumed.cells] == [
            repr(cell) for cell in reference.cells
        ]

    def test_shard_takes_a_journal(self, tmp_path):
        from repro.experiments.cli import _run_shard

        cells = list(small_grid().cells())
        own = shard_cells(cells, 1, 2)
        store = CellStore(tmp_path / "cache")
        with SweepJournal(tmp_path / "journal") as journal:
            first = _run_shard(cells, 1, 2, store, journal=journal)
        assert journal.completed_count == len(own)
        with SweepJournal(tmp_path / "journal") as journal:
            replayed = _run_shard(cells, 1, 2, store, journal=journal)
        assert first == replayed == run_sweep(own)


class TestGridPayload:
    def test_payload_round_trips_to_gridspec(self):
        grid = grid_from_payload(
            {"models": ["M1", "M2"], "attacks": "outlier", "seeds": [3]}
        )
        assert grid == GridSpec(
            models=("M1", "M2"), attacks=("outlier",), seeds=(3,)
        )

    def test_integer_seeds_means_seed_count(self):
        assert grid_from_payload({"seeds": 3}).seeds == (0, 1, 2)

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ValueError, match="modelz"):
            grid_from_payload({"modelz": ["M1"]})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            grid_from_payload(["M1"])


class TestSweepServer:
    #: Two-cell grid: small enough that cold requests stay fast even on
    #: the serial fallback path.
    PAYLOAD_GRID = {
        "models": ["M1"],
        "algorithms": ["ftm"],
        "attacks": ["split"],
        "seeds": 2,
        "rounds": 4,
    }

    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        server = SweepServer(tmp_path_factory.mktemp("served-cache"))
        thread = server.start_background()
        yield server
        request_json(f"{server.address}/shutdown", {})
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()

    def test_cold_request_computes_then_warm_request_serves(self, server):
        cold = submit_sweep(server.address, self.PAYLOAD_GRID)
        assert cold["tier"] == "compute"
        assert cold["computed"] == cold["cells"] == 2
        assert cold["cached"] == 0
        assert cold["all_satisfied"] is True

        warm = submit_sweep(server.address, self.PAYLOAD_GRID)
        assert warm["tier"] == "cache"
        assert warm["cached"] == warm["cells"] == 2
        assert warm["computed"] == 0
        # Every cell came from the store, so the engine had nothing to
        # dispatch: the warm answer never touches a worker pool.
        assert not parse_dispatch_label(warm["dispatch"]).pooled
        assert warm["summary"] == cold["summary"]

    def test_healthz_reports_liveness(self, server):
        health = request_json(f"{server.address}/healthz")
        assert health["ok"] is True
        assert health["cache"] == str(server.cache_root)

    def test_invalid_grid_rejected_with_the_real_error(self, server):
        with pytest.raises(RuntimeError, match="unknown grid field"):
            submit_sweep(server.address, {"modelz": ["M1"]})

    def test_unknown_endpoint_is_404(self, server):
        with pytest.raises(RuntimeError, match="unknown endpoint"):
            request_json(f"{server.address}/nope", {})


class TestServerObservability:
    """The daemon's health/metrics surface: what CI asserts on."""

    PAYLOAD_GRID = {
        "models": ["M1"],
        "algorithms": ["ftm"],
        "attacks": ["split"],
        "seeds": 2,
        "rounds": 4,
    }

    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        server = SweepServer(tmp_path_factory.mktemp("observed-cache"))
        thread = server.start_background()
        # One cold and one warm request give every tier counter a floor.
        cold = submit_sweep(server.address, self.PAYLOAD_GRID)
        warm = submit_sweep(server.address, self.PAYLOAD_GRID)
        assert (cold["tier"], warm["tier"]) == ("compute", "cache")
        yield server
        request_json(f"{server.address}/shutdown", {})
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()

    def test_healthz_reports_uptime_and_tiers(self, server):
        health = request_json(f"{server.address}/healthz")
        assert health["ok"] is True
        assert health["uptime_seconds"] > 0
        assert health["requests"] == 2
        assert health["tiers"]["compute"] == 1
        assert health["tiers"]["cache"] == 1
        assert health["tiers"]["mixed"] == 0
        assert health["workers"] == server.workers

    def test_healthz_reports_arena_totals(self, server):
        health = request_json(f"{server.address}/healthz")
        arena = health["arena"]
        assert set(arena) == {
            "shm_results", "pickle_results", "shm_bytes", "blocks", "unlinked"
        }
        # On a single usable CPU the shm pool falls back to in-process
        # serial cross-run, so totals may legitimately be zero -- the
        # contract is that they are present and non-negative.
        assert all(value >= 0 for value in arena.values())

    def test_metrics_endpoint_returns_registry_snapshot(self, server):
        metrics = request_json(f"{server.address}/metrics")
        assert set(metrics) == {"counters", "gauges", "histograms"}
        counters = metrics["counters"]
        assert counters.get("sweep.runs", 0) >= 2
        assert counters.get("sweep.cells.done", 0) >= 2
        assert "sweep.cell.seconds" in metrics["histograms"]

    def test_stats_endpoint_combines_health_and_metrics(self, server):
        stats = request_json(f"{server.address}/stats")
        assert stats["ok"] is True
        assert stats["requests"] == 2
        assert stats["metrics"]["counters"].get("sweep.runs", 0) >= 2
