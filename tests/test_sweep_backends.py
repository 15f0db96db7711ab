"""Backend-layer tests: every execution strategy yields the same sweep.

The backend contract is that a backend chooses *where and when* cells
run, never *what* they compute: serial, multiprocessing and sharded
execution of the same grid must produce bit-identical
:class:`~repro.sweep.SweepResult` aggregates.  The sharded backend
additionally owns a deterministic grid partition and a spill-file merge
whose validation (missing shards, mixed trace details, foreign counts)
these tests pin down.
"""

from __future__ import annotations

import json
import warnings

import pytest

from tests.helpers import small_grid

from repro.sweep import (
    CellStore,
    MultiprocessingBackend,
    SerialBackend,
    ShardedBackend,
    ShmCrossRunBackend,
    merge_shards,
    run_cell_many,
    run_sweep,
)
from repro.sweep.backends import _batch_groups
from repro.telemetry import parse_dispatch_label


@pytest.fixture(scope="module")
def grid():
    return small_grid()


@pytest.fixture(scope="module")
def reference(grid):
    return run_sweep(grid, workers=1)


class TestBackendEquivalence:
    def test_serial_backend_matches_default(self, grid, reference):
        result = run_sweep(grid, backend=SerialBackend())
        assert result == reference

    def test_serial_backend_by_name(self, grid, reference):
        assert run_sweep(grid, backend="serial") == reference

    def test_multiprocessing_backend_matches_serial(self, grid, reference):
        result = run_sweep(grid, backend=MultiprocessingBackend(workers=2))
        assert result.cells == reference.cells
        assert result.summary_table() == reference.summary_table()

    def test_multiprocessing_backend_by_name(self, grid, reference):
        result = run_sweep(grid, workers=2, backend="multiprocessing")
        assert result.cells == reference.cells

    def test_unknown_backend_name_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown backend"):
            run_sweep(grid, backend="quantum")

    def test_result_depends_only_on_the_grid(self, grid, reference):
        # workers is a machine property like dispatch: serial, pooled
        # and pooled cross-run sweeps of one grid compare equal.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pooled = run_sweep(grid, workers=2)
            stacked = run_sweep(grid, workers=2, cross_run=True)
        assert pooled.workers == stacked.workers == 2
        assert reference == pooled == stacked

    def test_sharded_by_name_needs_parameters(self, grid):
        with pytest.raises(ValueError, match="shard parameters"):
            run_sweep(grid, backend="sharded")

    def test_retired_async_backend_name_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown backend 'async'"):
            run_sweep(grid, workers=2, backend="async")


class TestBackendValidation:
    def test_backend_constructor_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            MultiprocessingBackend(workers=0)


class TestShardPartition:
    def test_shards_partition_the_grid(self, grid, tmp_path):
        cells = list(grid.cells())
        seen = []
        for index in range(3):
            backend = ShardedBackend(index, 3, tmp_path)
            seen.extend(cell.key for cell in backend.select(cells))
        assert sorted(seen) == sorted(cell.key for cell in cells)
        assert len(seen) == len(set(seen))

    def test_partition_is_independent_of_cell_order(self, grid, tmp_path):
        cells = list(grid.cells())
        backend = ShardedBackend(1, 3, tmp_path)
        shuffled = list(reversed(cells))
        assert backend.select(cells) == backend.select(shuffled)

    @pytest.mark.parametrize(
        "index,count", [(-1, 3), (3, 3), (7, 3), (0, 0), (0, -2)]
    )
    def test_invalid_shard_parameters_rejected(self, index, count, tmp_path):
        with pytest.raises(ValueError):
            ShardedBackend(index, count, tmp_path)


class TestShardedExecution:
    def test_any_shard_order_merges_to_the_serial_result(
        self, grid, reference, tmp_path
    ):
        spill = tmp_path / "spill"
        last = None
        for index in (2, 0, 1):
            last = run_sweep(grid, backend=ShardedBackend(index, 3, spill))
        # The last shard to finish sees every spill file and reports
        # the merged whole, bit-identical to the serial sweep.
        assert last == reference
        assert merge_shards(spill) == reference

    def test_incomplete_family_returns_partial_result(self, grid, tmp_path):
        result = run_sweep(grid, backend=ShardedBackend(0, 3, tmp_path))
        assert not result.complete
        assert 0 < len(result) < len(grid)

    def test_sharded_with_inner_workers_matches(self, grid, reference, tmp_path):
        spill = tmp_path / "spill"
        for index in range(3):
            last = run_sweep(
                grid, backend=ShardedBackend(index, 3, spill, workers=2)
            )
        assert last.cells == reference.cells


class TestMergeValidation:
    def _spill_all(self, grid, spill, trace_detail="lite"):
        for index in range(3):
            run_sweep(
                grid,
                backend=ShardedBackend(index, 3, spill),
                trace_detail=trace_detail,
            )

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no shard files"):
            merge_shards(tmp_path)

    def test_missing_shard_named(self, grid, tmp_path):
        self._spill_all(grid, tmp_path)
        (tmp_path / "shard-0001-of-0003.json").unlink()
        with pytest.raises(ValueError, match=r"missing shard\(s\) \[1\]"):
            merge_shards(tmp_path)

    def test_mixed_trace_detail_names_both(self, grid, tmp_path):
        self._spill_all(grid, tmp_path)
        path = tmp_path / "shard-0001-of-0003.json"
        payload = json.loads(path.read_text())
        payload["trace_detail"] = "full"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as excinfo:
            merge_shards(tmp_path)
        message = str(excinfo.value)
        assert "mixed trace details" in message
        assert "'full'" in message and "'lite'" in message

    def test_disagreeing_shard_count_rejected(self, grid, tmp_path):
        self._spill_all(grid, tmp_path)
        rogue = tmp_path / "shard-0003-of-0004.json"
        payload = json.loads((tmp_path / "shard-0000-of-0003.json").read_text())
        payload["shard_count"] = 4
        payload["shard_index"] = 3
        rogue.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="disagree on shard_count"):
            merge_shards(tmp_path)

    def test_duplicate_shard_index_rejected(self, grid, tmp_path):
        # A payload whose index disagrees with its filename (truncated
        # copy, hand edit) duplicates a sibling's index.
        self._spill_all(grid, tmp_path)
        path = tmp_path / "shard-0002-of-0003.json"
        payload = json.loads(path.read_text())
        payload["shard_index"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="multiple files"):
            merge_shards(tmp_path)

    def test_stale_family_of_other_count_never_merges(self, grid, tmp_path):
        # A finished 3-shard sweep leaves its spill files behind; a new
        # 2-shard sweep of a smaller grid lands in the same directory.
        # The stale family must fail the merge loudly, not win it.
        self._spill_all(grid, tmp_path)
        smaller = [cell for cell in grid.cells() if cell.seed == 0]
        run_sweep(smaller, backend=ShardedBackend(0, 2, tmp_path))
        with pytest.raises(ValueError, match="disagree on shard_count"):
            run_sweep(smaller, backend=ShardedBackend(1, 2, tmp_path))

    def test_stale_shard_of_other_grid_never_merges(self, grid, tmp_path):
        # Same shard count, different grid: one fresh shard over a
        # stale sibling must be caught by the grid fingerprint.
        cells = list(grid.cells())
        for index in range(2):
            run_sweep(cells, backend=ShardedBackend(index, 2, tmp_path))
        other = [cell for cell in cells if cell.seed == 0]
        with pytest.raises(ValueError, match="mixed grids"):
            run_sweep(other, backend=ShardedBackend(0, 2, tmp_path))

    def test_mixed_probe_shards_rejected(self, grid, tmp_path):
        cells = [next(iter(grid.cells()))]
        probed = [cells[0]]
        run_sweep(
            probed,
            backend=ShardedBackend(0, 2, tmp_path),
            trace_detail="full",
            probe="send-classification",
        )
        with pytest.raises(ValueError, match="mixed probes"):
            run_sweep(
                probed,
                backend=ShardedBackend(1, 2, tmp_path),
                trace_detail="full",
            )

    def test_foreign_schema_rejected(self, grid, tmp_path):
        self._spill_all(grid, tmp_path)
        path = tmp_path / "shard-0002-of-0003.json"
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            merge_shards(tmp_path)

    def test_duplicate_cell_across_shards_rejected(self, grid, tmp_path):
        self._spill_all(grid, tmp_path)
        source = json.loads((tmp_path / "shard-0000-of-0003.json").read_text())
        target_path = tmp_path / "shard-0001-of-0003.json"
        target = json.loads(target_path.read_text())
        target["results"].append(source["results"][0])
        target_path.write_text(json.dumps(target))
        with pytest.raises(ValueError, match="multiple shards"):
            merge_shards(tmp_path)


class TestCrossRunPackaging:
    """Cross-run grouping changes work packaging, never results."""

    @pytest.mark.parametrize("group_size", [1, 3, 7, 100])
    def test_any_grouping_is_bit_identical(self, grid, reference, group_size):
        cells = sorted(grid.cells(), key=lambda cell: cell.key)
        results = [
            result
            for start in range(0, len(cells), group_size)
            for result in run_cell_many(cells[start:start + group_size])
        ]
        assert list(results) == list(reference.cells)

    def test_backend_instance_pools_groups(self, grid, reference):
        backend = MultiprocessingBackend(2, dispatch_mode="pool")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_sweep(grid, backend=backend, cross_run=True)
        assert result.cells == reference.cells
        assert result.dispatch.endswith(", parallel)")

    def test_sharded_cross_run_merges_identically(
        self, grid, reference, tmp_path
    ):
        for index in range(3):
            merged = run_sweep(
                grid,
                backend=ShardedBackend(index, 3, tmp_path),
                cross_run=True,
            )
        assert merged == reference

    def test_partially_warm_cache_serves_hits_and_runs_misses(
        self, grid, reference, tmp_path
    ):
        store = CellStore(tmp_path / "cache")
        cells = list(grid.cells())
        warmed = cells[::2]
        run_sweep(warmed, cache=store)
        result = run_sweep(grid, cross_run=True, cache=store)
        assert result == reference
        assert result.cache_stats.hits == len(warmed)
        assert store.misses == len(cells)

    def test_invalid_backend_parameters_rejected(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            ShmCrossRunBackend(workers=0)
        with pytest.raises(ValueError, match="dispatch_mode must be one of"):
            ShmCrossRunBackend(workers=2, dispatch_mode="async")


class TestDispatchDecision:
    """Backends record how cells actually ran, pools take cross-run
    groups, and pools that cannot win (one usable CPU) fall back to
    in-process dispatch."""

    def test_serial_dispatch_recorded(self, grid):
        assert run_sweep(grid).dispatch == "serial"

    def test_cross_run_serial_dispatch_recorded(self, grid):
        result = run_sweep(grid, cross_run=True)
        rec = parse_dispatch_label(result.dispatch)
        assert rec.cross_run and not rec.pooled
        assert rec.batches == len(_batch_groups(list(grid.cells())))

    def test_cross_run_pool_falls_back_on_one_cpu(
        self, grid, reference, monkeypatch
    ):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 1)
        backend = MultiprocessingBackend(workers=4)
        result = run_sweep(grid, backend=backend, cross_run=True)
        assert result.dispatch.startswith("cross-run(")
        assert not parse_dispatch_label(result.dispatch).pooled
        assert result.cells == reference.cells

    def test_pool_falls_back_to_serial_on_one_cpu(
        self, grid, reference, monkeypatch
    ):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 1)
        result = run_sweep(grid, workers=4)
        rec = parse_dispatch_label(result.dispatch)
        assert rec.cross_run and not rec.pooled
        assert result.cells == reference.cells

    def test_pool_used_when_cpus_allow(self, grid, reference, monkeypatch):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 8)
        result = run_sweep(grid, backend=MultiprocessingBackend(workers=2))
        rec = parse_dispatch_label(result.dispatch)
        assert rec.cross_run and rec.pooled and rec.rung is None
        assert result.cells == reference.cells

    def test_single_cell_grid_is_serial_without_fallback_label(self, grid):
        cells = list(grid.cells())[:1]
        result = run_sweep(cells, backend=MultiprocessingBackend(workers=4))
        assert result.dispatch == "cross-run(1 batches, max R=1)"

    def test_sharded_pool_honours_dispatch(self, grid, reference, tmp_path):
        backend = ShardedBackend(0, 2, tmp_path, workers=2)
        result = run_sweep(grid, backend=backend, dispatch="serial")
        rec = parse_dispatch_label(result.dispatch)
        assert rec.sharded and rec.cross_run
        assert rec.pooled is False
        assert backend.dispatch_mode == "auto"
        owned = {cell.key for cell in result.cells}
        assert result.cells == tuple(
            cell for cell in reference.cells if cell.key in owned
        )

    def test_dispatch_override_lasts_one_call(self, grid, monkeypatch):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 8)
        backend = MultiprocessingBackend(workers=2)
        forced = run_sweep(grid, backend=backend, dispatch="serial")
        assert not parse_dispatch_label(forced.dispatch).pooled
        assert backend.dispatch_mode == "auto"
        later = run_sweep(grid, backend=backend)
        assert parse_dispatch_label(later.dispatch).pooled

    def test_dispatch_override_restored_on_error(self, grid):
        backend = MultiprocessingBackend(workers=2)

        def fail(result, done, total):
            raise RuntimeError("injected progress failure")

        with pytest.raises(RuntimeError, match="injected"):
            run_sweep(grid, backend=backend, dispatch="serial", progress=fail)
        assert backend.dispatch_mode == "auto"

    def test_dispatch_excluded_from_equality(self, reference):
        from dataclasses import replace

        assert replace(reference, dispatch="parallel") == reference
