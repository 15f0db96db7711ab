"""Backend-layer tests: every execution strategy yields the same sweep.

The backend contract is that a backend chooses *where and when* cells
run, never *what* they compute: serial, multiprocessing and sharded
execution of the same grid must produce bit-identical
:class:`~repro.sweep.SweepResult` aggregates.  A shard is a
deterministic cell filter (:func:`~repro.sweep.shard_cells`) in front
of any backend, and shards meet in one shared
:class:`~repro.sweep.CellStore`: these tests pin down the partition,
the completing shard's result, and that one store shared by
concurrent shards, shard counts, grids and probes never loses or mixes
a cell.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import warnings

import pytest

from tests.helpers import small_grid

from repro.experiments.cli import _run_shard
from repro.sweep import (
    CellStore,
    MultiprocessingBackend,
    SerialBackend,
    ShmCrossRunBackend,
    run_cell_many,
    run_sweep,
    shard_cells,
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

    def test_retired_async_backend_name_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown backend 'async'"):
            run_sweep(grid, workers=2, backend="async")


class TestBackendValidation:
    def test_backend_constructor_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            MultiprocessingBackend(workers=0)


def assert_repr_identical(result, reference):
    assert result == reference
    assert [repr(cell) for cell in result.cells] == [
        repr(cell) for cell in reference.cells
    ]


def _cached_cells(store):
    return sorted(store.root.glob("v*/*/*.json"))


def _shard_in_child(cells, index, count, root):
    """A forked shard invocation (module level for the fork target)."""
    _run_shard(cells, index, count, CellStore(root))


class TestShardPartition:
    def test_shards_partition_the_grid(self, grid):
        cells = list(grid.cells())
        seen = [
            cell.key for index in range(3) for cell in shard_cells(cells, index, 3)
        ]
        assert sorted(seen) == sorted(cell.key for cell in cells)
        assert len(seen) == len(set(seen))

    def test_rank_in_key_order_modulo_count(self, grid):
        ordered = sorted(grid.cells(), key=lambda cell: cell.key)
        for index in range(3):
            assert shard_cells(ordered, index, 3) == [
                cell
                for rank, cell in enumerate(ordered)
                if rank % 3 == index
            ]

    def test_partition_is_independent_of_cell_order(self, grid):
        cells = list(grid.cells())
        shuffled = list(reversed(cells))
        assert shard_cells(cells, 1, 3) == shard_cells(shuffled, 1, 3)

    @pytest.mark.parametrize(
        "index,count", [(-1, 3), (3, 3), (7, 3), (0, 0), (0, -2)]
    )
    def test_invalid_shard_parameters_rejected(self, grid, index, count):
        with pytest.raises(ValueError, match="shard_"):
            shard_cells(list(grid.cells()), index, count)


class TestShardedExecution:
    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_every_shard_order_completes_to_the_serial_result(
        self, grid, reference, order, tmp_path
    ):
        cells = list(grid.cells())
        store = CellStore(tmp_path)
        results = [_run_shard(cells, index, 3, store) for index in order]
        # The shards before the last return their own cells only; the
        # last finds every cell cached and serves the grid warm.
        for index, result in zip(order, results[:-1]):
            assert result.cells == tuple(
                run_sweep(shard_cells(cells, index, 3)).cells
            )
        assert_repr_identical(results[-1], reference)
        assert results[-1].cache_stats.hits >= len(grid)

    @pytest.mark.parametrize(
        "options",
        [
            {"workers": 2, "cross_run": True},
            {"workers": 2, "dispatch": "pool"},
            {"backend": "serial", "cross_run": True},
            {"backend": MultiprocessingBackend(2)},
        ],
        ids=["workers-cross-run", "pool", "serial-cross-run", "instance"],
    )
    def test_shards_compose_with_any_backend(
        self, grid, reference, options, tmp_path
    ):
        cells = list(grid.cells())
        store = CellStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for index in (1, 2, 0):
                last = _run_shard(cells, index, 3, store, **options)
        assert_repr_identical(last, reference)

    def test_partial_shard_computes_no_sibling_cell(self, grid, tmp_path):
        cells = list(grid.cells())
        store = CellStore(tmp_path)
        own = shard_cells(cells, 0, 3)
        result = _run_shard(cells, 0, 3, store)
        assert [cell.key for cell in result.cells] == [cell.key for cell in own]
        assert len(_cached_cells(store)) == len(own) < len(cells)

    def test_single_shard_is_the_whole_grid(self, grid, reference, tmp_path):
        result = _run_shard(list(grid.cells()), 0, 1, CellStore(tmp_path))
        assert_repr_identical(result, reference)


class TestSharedStore:
    """One store is safe to share: shards writing it at once lose no
    cell, and passes of different shard counts, grids or probes never
    serve one another's cells."""

    def _assert_whole(self, cells, store, reference):
        assert len(_cached_cells(store)) == len(cells)
        warm = run_sweep(cells, cache=CellStore(store.root))
        assert warm.cache_stats.hits == len(cells)
        assert_repr_identical(warm, reference)

    def test_concurrent_shards_as_threads(self, grid, reference, tmp_path):
        cells = list(grid.cells())
        store = CellStore(tmp_path)
        barrier = threading.Barrier(2)
        results, errors = {}, []

        def shard(index):
            barrier.wait()
            try:
                results[index] = _run_shard(cells, index, 2, store)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=shard, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Each shard saves before it checks: one of the two, at least,
        # finds the whole grid.
        complete = [r for r in results.values() if len(r) == len(cells)]
        assert complete
        for result in complete:
            assert_repr_identical(result, reference)
        self._assert_whole(cells, store, reference)

    def test_concurrent_shards_as_forked_processes(
        self, grid, reference, tmp_path
    ):
        cells = list(grid.cells())
        context = multiprocessing.get_context("fork")
        children = [
            context.Process(
                target=_shard_in_child, args=(cells, index, 2, tmp_path)
            )
            for index in range(2)
        ]
        for child in children:
            child.start()
        try:
            for child in children:
                child.join(timeout=120)
        finally:
            for child in children:
                if child.is_alive():
                    child.kill()
        assert [child.exitcode for child in children] == [0, 0]
        self._assert_whole(cells, CellStore(tmp_path), reference)

    def test_two_and_three_shard_passes_of_one_grid(
        self, grid, reference, tmp_path
    ):
        cells = list(grid.cells())
        store = CellStore(tmp_path)
        assert len(_run_shard(cells, 0, 2, store)) < len(cells)
        assert len(_run_shard(cells, 1, 3, store)) < len(cells)
        # The interleaved passes cover the grid once their union does,
        # whatever counts cut it.
        last = _run_shard(cells, 1, 2, store)
        assert_repr_identical(last, reference)
        again = _run_shard(cells, 2, 3, store)
        assert_repr_identical(again, reference)

    def test_two_grids_never_mix(self, grid, reference, tmp_path):
        cells = list(grid.cells())
        store = CellStore(tmp_path)
        other = list(small_grid(seeds=1, rounds=4).cells())
        assert not {cell.key for cell in other} & {cell.key for cell in cells}
        for index in range(2):
            last = _run_shard(cells, index, 2, store)
        assert_repr_identical(last, reference)
        # A different grid's first shard is partial: the first grid's
        # cells do not count towards it.
        assert len(_run_shard(other, 0, 2, store)) < len(other)
        assert_repr_identical(_run_shard(other, 1, 2, store), run_sweep(other))

    def test_sub_grid_is_served_from_the_overlap(self, grid, tmp_path):
        cells = list(grid.cells())
        store = CellStore(tmp_path)
        for index in range(3):
            _run_shard(cells, index, 3, store)
        smaller = [cell for cell in cells if cell.seed == 0]
        first = _run_shard(smaller, 0, 2, store)
        assert_repr_identical(first, run_sweep(smaller))

    def test_completing_shard_reads_each_entry_once(self, grid, tmp_path):
        cells = list(grid.cells())
        for index in (0, 1):
            _run_shard(cells, index, 3, CellStore(tmp_path))
        store = CellStore(tmp_path)
        last = _run_shard(cells, 2, 3, store)
        assert len(last) == len(cells)
        # The completeness check reads no payload: the warm sweep's one
        # load per entry is all the completing shard reads.
        entries = _cached_cells(store)
        assert len(entries) == len(cells)
        size = sum(len(path.read_text(encoding="utf-8")) for path in entries)
        assert last.cache_stats.bytes_read == size

    def test_completing_shard_recomputes_a_corrupt_sibling(
        self, grid, reference, tmp_path
    ):
        cells = list(grid.cells())
        store = CellStore(tmp_path)
        for index in (0, 1):
            _run_shard(cells, index, 3, store)
        sibling = shard_cells(cells, 0, 3)[0]
        store.path_for(sibling, "lite").write_text("{torn", encoding="utf-8")
        last = _run_shard(cells, 2, 3, store)
        assert_repr_identical(last, reference)
        assert store.load(sibling, "lite") == reference.by_key()[sibling.key]

    def test_probe_and_no_probe_never_mix(self, grid, tmp_path):
        cell = next(iter(grid.cells()))
        store = CellStore(tmp_path)
        probed = dict(trace_detail="full", probe="send-classification")
        # Shard 0 of 2 owns the one cell, shard 1 owns none.
        with_probe = _run_shard([cell], 0, 2, store, **probed)
        assert with_probe.cells[0].extras
        plain = _run_shard([cell], 1, 2, store, trace_detail="full")
        assert len(plain) == 0  # the probed entry does not count
        plain = _run_shard([cell], 0, 2, store, trace_detail="full")
        assert plain.cells[0].extras == ()
        assert_repr_identical(plain, run_sweep([cell], trace_detail="full"))
        again = _run_shard([cell], 1, 2, store, **probed)
        assert_repr_identical(again, with_probe)


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
        backend = MultiprocessingBackend(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_sweep(grid, backend=backend, dispatch="pool")
        assert result.cells == reference.cells
        rec = parse_dispatch_label(result.dispatch)
        assert rec.pooled and rec.rung in ("shm", "pickle"), result.dispatch

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

    def test_invalid_backend_parameters_rejected(self, grid):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            ShmCrossRunBackend(workers=0)
        with pytest.raises(ValueError, match="dispatch must be one of"):
            run_sweep(grid, backend=ShmCrossRunBackend(2), dispatch="async")

    def test_both_pool_names_are_one_backend(self):
        assert ShmCrossRunBackend is MultiprocessingBackend


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
        assert rec.cross_run and rec.pooled and rec.rung == "shm"
        assert result.cells == reference.cells

    def test_single_cell_grid_is_serial_without_fallback_label(self, grid):
        cells = list(grid.cells())[:1]
        result = run_sweep(cells, backend=MultiprocessingBackend(workers=4))
        assert result.dispatch == "cross-run(1 batches, max R=1)"

    def test_shard_honours_dispatch(self, grid, reference, tmp_path):
        cells = list(grid.cells())
        backend = ShmCrossRunBackend(2)
        result = _run_shard(
            cells, 0, 2, CellStore(tmp_path), backend=backend, dispatch="serial"
        )
        rec = parse_dispatch_label(result.dispatch)
        assert rec.cross_run and rec.pooled is False
        owned = {cell.key for cell in result.cells}
        assert owned == {cell.key for cell in shard_cells(cells, 0, 2)}
        assert result.cells == tuple(
            cell for cell in reference.cells if cell.key in owned
        )

    def test_dispatch_override_lasts_one_call(self, grid, monkeypatch):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 8)
        backend = MultiprocessingBackend(workers=2)
        forced = run_sweep(grid, backend=backend, dispatch="serial")
        assert not parse_dispatch_label(forced.dispatch).pooled
        later = run_sweep(grid, backend=backend)
        assert parse_dispatch_label(later.dispatch).pooled

    def test_dispatch_override_leaves_no_state_on_error(self, grid, monkeypatch):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 8)
        backend = MultiprocessingBackend(workers=2)

        def fail(result, done, total):
            raise RuntimeError("injected progress failure")

        with pytest.raises(RuntimeError, match="injected"):
            run_sweep(grid, backend=backend, dispatch="serial", progress=fail)
        later = run_sweep(grid, backend=backend)
        assert parse_dispatch_label(later.dispatch).pooled

    @pytest.mark.parametrize("options", [{}, {"dispatch": "serial"}])
    def test_per_cell_sweep_never_stacks(self, grid, options, monkeypatch):
        """The non-stacked reference path: one run per simulator call,
        and the ``serial`` label."""
        import repro.sweep.engine as engine

        calls = []
        for name in ("simulate_many", "run_simulation"):
            original = getattr(engine, name)

            def spy(configs, *args, _name=name, _original=original, **kwargs):
                runs = len(configs) if _name == "simulate_many" else 1
                calls.append((_name, runs))
                return _original(configs, *args, **kwargs)

            monkeypatch.setattr(engine, name, spy)
        result = run_sweep(grid, **options)
        assert result.dispatch == "serial"
        assert calls and all(runs == 1 for _, runs in calls), calls
        assert len(calls) == len(grid)

    def test_dispatch_excluded_from_equality(self, reference):
        from dataclasses import replace

        assert replace(reference, dispatch="parallel") == reference
