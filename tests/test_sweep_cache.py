"""Cell-cache tests: warm results bit-identical, bad entries distrusted.

The cache contract has three legs, all asserted here: (1) a warm-cache
sweep is bit-identical to the cold run that populated it; (2) the
content hash covers everything a result depends on -- spec fields,
trace detail, probe -- so any change misses instead of aliasing; (3) a
corrupted, truncated or foreign entry is never trusted: it reads as a
miss and the cell re-executes.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from tests.helpers import small_grid

from repro.sweep import CellStore, run_cell, run_sweep
from repro.sweep.cache import result_from_dict, result_to_dict


@pytest.fixture(scope="module")
def grid():
    return small_grid()


@pytest.fixture(scope="module")
def reference(grid):
    return run_sweep(grid, workers=1)


@pytest.fixture
def store(tmp_path):
    return CellStore(tmp_path / "cache")


def _a_cell(grid):
    return next(iter(grid.cells()))


class TestWarmEqualsCold:
    def test_warm_sweep_is_bit_identical(self, grid, reference, store):
        cold = run_sweep(grid, cache=store)
        assert store.hits == 0 and store.misses == len(grid)
        warm = run_sweep(grid, cache=store)
        assert store.hits == len(grid)
        assert warm == cold == reference
        assert warm.summary_table() == reference.summary_table()
        assert warm.cell_table() == reference.cell_table()
        assert warm.diameter_series() == reference.diameter_series()

    def test_cache_accepts_plain_directory_path(self, grid, reference, tmp_path):
        run_sweep(grid, cache=tmp_path / "c")
        assert run_sweep(grid, cache=str(tmp_path / "c")) == reference

    def test_parallel_sweep_through_cache_matches(self, grid, reference, store):
        cold = run_sweep(grid, workers=2, cache=store)
        warm = run_sweep(grid, workers=2, cache=store)
        assert cold.cells == warm.cells == reference.cells

    def test_overlapping_grid_reuses_the_overlap(self, grid, store):
        run_sweep(grid, cache=store)
        store.hits = store.misses = 0
        wider = list(grid.cells()) + [
            cell for cell in small_grid(seeds=3).cells() if cell.seed == 2
        ]
        result = run_sweep(wider, cache=store)
        assert store.hits == len(grid)
        assert store.misses == len(wider) - len(grid)
        assert len(result) == len(wider)

    def test_prepopulated_cells_are_not_reexecuted(self, grid, store):
        cells = list(grid.cells())
        for cell in cells[::2]:
            store.save(run_cell(cell), "lite")
        result = run_sweep(grid, cache=store)
        assert store.hits == len(cells[::2])
        assert store.misses == len(cells) - len(cells[::2])
        assert result == run_sweep(grid)


class TestKeyCoverage:
    def test_key_changes_with_spec(self, grid, store):
        from dataclasses import replace

        cell = _a_cell(grid)
        changed = [
            replace(cell, seed=cell.seed + 101),
            replace(cell, epsilon=5e-4),
            replace(cell, scenario="stall"),
            replace(cell, params=(("extra", 1),)),
        ]
        keys = {store.cell_key(cell, "lite")}
        keys.update(store.cell_key(other, "lite") for other in changed)
        assert len(keys) == len(changed) + 1

    def test_key_changes_with_trace_detail(self, grid, store):
        cell = _a_cell(grid)
        assert store.cell_key(cell, "lite") != store.cell_key(cell, "full")

    def test_key_changes_with_topology_but_default_is_omitted(self, grid, store):
        from dataclasses import replace

        from repro.sweep.cache import spec_to_dict

        cell = _a_cell(grid)
        ringed = replace(cell, family="witness", topology="ring:2")
        assert store.cell_key(cell, "lite") != store.cell_key(ringed, "lite")
        # The default spec is omitted from the canonical encoding, so
        # every pre-topology cache entry keeps its content hash.
        assert "topology" not in spec_to_dict(cell)
        assert spec_to_dict(ringed)["topology"] == "ring:2"

    def test_topology_cell_round_trips_through_the_store(self, store):
        from repro.sweep import CellSpec, run_cell

        cell = CellSpec(
            model="M1",
            f=1,
            n=9,
            algorithm="ftm",
            movement="round-robin",
            attack="split",
            epsilon=1e-3,
            seed=0,
            rounds=8,
            family="witness",
            topology="ring:2",
        )
        result = run_cell(cell)
        assert result.error is None
        store.save(result, "lite")
        assert store.load(cell, "lite") == result

    def test_key_changes_with_probe(self, grid, store):
        cell = _a_cell(grid)
        assert store.cell_key(cell, "full") != store.cell_key(
            cell, "full", "send-classification"
        )

    def test_detail_mismatch_is_a_miss(self, grid, store):
        cell = _a_cell(grid)
        store.save(run_cell(cell, trace_detail="lite"), "lite")
        assert store.load(cell, "full") is None
        assert store.load(cell, "lite") is not None


class TestUntrustedEntries:
    def test_corrupted_entry_is_reexecuted(self, grid, store):
        cell = _a_cell(grid)
        expected = run_cell(cell)
        path = store.save(expected, "lite")
        path.write_text("{ this is not json")
        assert store.load(cell, "lite") is None
        result = run_sweep([cell], cache=store)
        assert result.cells[0] == expected
        # The write-through repaired the entry.
        assert store.load(cell, "lite") == expected

    def test_truncated_entry_is_reexecuted(self, grid, store):
        cell = _a_cell(grid)
        path = store.save(run_cell(cell), "lite")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load(cell, "lite") is None

    def test_entry_for_another_spec_is_rejected(self, grid, store):
        cells = list(grid.cells())
        impostor = run_cell(cells[1])
        path = store.path_for(cells[0], "lite")
        path.parent.mkdir(parents=True, exist_ok=True)
        import json

        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "trace_detail": "lite",
                    "probe": None,
                    "result": result_to_dict(impostor),
                }
            )
        )
        assert store.load(cells[0], "lite") is None

    def test_missing_entry_is_a_miss(self, grid, store):
        assert store.load(_a_cell(grid), "lite") is None


class TestConcurrentWriters:
    def test_threads_saving_one_cell_lose_no_write(self, grid, store):
        # Threads of one process share a pid: each save still needs a
        # temp file of its own, or one thread's os.replace moves away
        # the file another thread is about to replace.
        result = run_cell(_a_cell(grid))
        threads, saves = 4, 200
        barrier = threading.Barrier(threads)
        errors = []

        def writer():
            barrier.wait()
            for _ in range(saves):
                try:
                    store.save(result, "lite")
                except OSError as exc:
                    errors.append(exc)

        workers = [threading.Thread(target=writer) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert store.load(_a_cell(grid), "lite") == result
        assert list(store.root.glob("v*/*/*.tmp.*")) == []

    def test_interrupted_save_leaves_a_tmp_file_gc_recognises(
        self, grid, store, monkeypatch
    ):
        result = run_cell(_a_cell(grid))

        def interrupted(src, dst):
            raise OSError("interrupted before the rename")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            store.save(result, "lite")
        monkeypatch.undo()
        (orphan,) = store.root.glob("v*/*/*.tmp.*")
        assert store.gc().removed == 0  # fresh: maybe still in flight
        ancient = time.time() - 3_600
        os.utime(orphan, (ancient, ancient))
        assert store.gc().removed == 1
        assert not orphan.exists()


class TestResultRoundTrip:
    def test_round_trip_is_exact(self, grid):
        for cell in grid.cells():
            result = run_cell(cell)
            assert result_from_dict(result_to_dict(result)) == result

    def test_round_trip_preserves_extras_and_error(self, grid):
        from repro.sweep import CellSpec

        probed = run_cell(
            _a_cell(grid), trace_detail="full", probe="send-classification"
        )
        assert probed.extras
        assert result_from_dict(result_to_dict(probed)) == probed

        bad = CellSpec(
            model="M3",
            f=2,
            n=5,
            algorithm="ftm",
            movement="round-robin",
            attack="split",
            epsilon=1e-3,
            seed=0,
        )
        errored = run_cell(bad)
        assert errored.error is not None
        assert result_from_dict(result_to_dict(errored)) == errored


class TestProbeCaching:
    def test_probed_results_cache_under_their_own_key(self, grid, store):
        cell = _a_cell(grid)
        probed = run_sweep(
            [cell],
            trace_detail="full",
            probe="send-classification",
            cache=store,
        )
        assert store.misses == 1
        plain = run_sweep([cell], trace_detail="full", cache=store)
        assert store.misses == 2  # the probe-less run did not alias
        warm = run_sweep(
            [cell],
            trace_detail="full",
            probe="send-classification",
            cache=store,
        )
        assert store.hits == 1
        assert warm.cells == probed.cells
        assert plain.cells[0].extras == ()


class TestCacheGC:
    """Eviction/compaction of long-lived stores (sweep cache-gc)."""

    def _populate(self, store, grid):
        result = run_sweep(grid, cache=store)
        assert store.misses > 0
        return result

    def test_noop_on_missing_store(self, tmp_path):
        report = CellStore(tmp_path / "nothing").gc()
        assert (report.scanned, report.removed) == (0, 0)

    def test_keeps_current_schema_by_default(self, store, grid):
        self._populate(store, grid)
        report = store.gc()
        assert report.removed == 0
        assert report.kept == report.scanned > 0
        # Everything still serves as a hit afterwards.
        warm = CellStore(store.root)
        run_sweep(grid, cache=warm)
        assert warm.misses == 0

    def test_evicts_superseded_schema_versions(self, store, grid):
        from repro.sweep.cache import SWEEP_SCHEMA_VERSION

        self._populate(store, grid)
        old = store.root / "v0" / "ab"
        old.mkdir(parents=True)
        (old / "deadbeef.json").write_text("{}")
        report = store.gc()
        assert report.removed == 1
        assert not (store.root / "v0").exists()
        assert (store.root / f"v{SWEEP_SCHEMA_VERSION}").exists()

    def test_age_cutoff(self, store, grid):
        import os
        import time

        self._populate(store, grid)
        entries = sorted(store.root.glob("v*/*/*.json"))
        stale = entries[0]
        ancient = time.time() - 10 * 86_400
        os.utime(stale, (ancient, ancient))
        report = store.gc(older_than=5 * 86_400)
        assert report.removed == 1
        assert not stale.exists()
        assert report.kept == len(entries) - 1

    def test_dry_run_deletes_nothing(self, store, grid):
        self._populate(store, grid)
        entries = sorted(store.root.glob("v*/*/*.json"))
        report = store.gc(older_than=0, dry_run=True)
        assert report.dry_run
        assert report.removed == len(entries)
        assert "would remove" in report.describe()
        assert sorted(store.root.glob("v*/*/*.json")) == entries

    def test_orphaned_tmp_files_evicted_after_grace(self, store, grid):
        import os
        import time

        self._populate(store, grid)
        shard_dir = next(iter(sorted(store.root.glob("v*/*/"))))
        orphan = shard_dir / "abc.json.tmp.12345"
        orphan.write_text("partial")
        # Fresh tmp files may be an in-flight atomic write: spared.
        report = store.gc()
        assert orphan.exists()
        assert report.removed == 0
        # Past the grace period they are wreckage: evicted.
        ancient = time.time() - 3_600
        os.utime(orphan, (ancient, ancient))
        report = store.gc()
        assert not orphan.exists()
        assert report.removed == 1

    def test_max_bytes_evicts_oldest_first(self, store, grid):
        import os
        import time

        self._populate(store, grid)
        entries = sorted(store.root.glob("v*/*/*.json"))
        sizes = {path: path.stat().st_size for path in entries}
        total = sum(sizes.values())
        # Age the first three entries so they are the eviction victims.
        base = time.time() - 1_000
        oldest = entries[:3]
        for index, path in enumerate(oldest):
            os.utime(path, (base + index, base + index))
        budget = total - sum(sizes[path] for path in oldest[:2]) - 1
        report = store.gc(max_bytes=budget)
        # Two oldest dropped would still exceed by one byte: three go.
        assert report.removed == 3
        assert all(not path.exists() for path in oldest)
        remaining = sorted(store.root.glob("v*/*/*.json"))
        assert sum(p.stat().st_size for p in remaining) <= budget
        assert report.kept == len(remaining)

    def test_max_bytes_zero_clears_current_entries(self, store, grid):
        self._populate(store, grid)
        report = store.gc(max_bytes=0)
        assert report.kept == 0
        assert not list(store.root.glob("v*/*/*.json"))

    def test_max_bytes_noop_when_under_budget(self, store, grid):
        self._populate(store, grid)
        report = store.gc(max_bytes=10**9)
        assert report.removed == 0
        warm = CellStore(store.root)
        run_sweep(grid, cache=warm)
        assert warm.misses == 0

    def test_max_bytes_honors_dry_run(self, store, grid):
        self._populate(store, grid)
        entries = sorted(store.root.glob("v*/*/*.json"))
        report = store.gc(max_bytes=0, dry_run=True)
        assert report.dry_run and report.removed == len(entries)
        assert sorted(store.root.glob("v*/*/*.json")) == entries

    def test_max_bytes_rejects_negative(self, store):
        with pytest.raises(ValueError, match="max_bytes"):
            store.gc(max_bytes=-1)

    def test_cli_max_bytes(self, store, grid, capsys):
        from repro.experiments.cli import main

        self._populate(store, grid)
        entries = len(list(store.root.glob("v*/*/*.json")))
        code = main(
            ["sweep", "cache-gc", "--cache-dir", str(store.root),
             "--max-bytes", "0", "--dry-run"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"would remove {entries}" in out
        code = main(
            ["sweep", "cache-gc", "--cache-dir", str(store.root),
             "--max-bytes", "0"]
        )
        assert code == 0
        assert not list(store.root.glob("v*/*/*.json"))

    def test_foreign_directories_untouched(self, store, grid):
        self._populate(store, grid)
        foreign = store.root / "not-a-version"
        foreign.mkdir()
        (foreign / "keep.txt").write_text("mine")
        store.gc(older_than=0)
        assert (foreign / "keep.txt").exists()

    def test_cli_subcommand(self, store, grid, capsys):
        from repro.experiments.cli import main

        self._populate(store, grid)
        entries = len(list(store.root.glob("v*/*/*.json")))
        code = main(
            ["sweep", "cache-gc", "--cache-dir", str(store.root), "--dry-run",
             "--older-than", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"would remove {entries}" in out
        code = main(
            ["sweep", "cache-gc", "--cache-dir", str(store.root),
             "--older-than", "0"]
        )
        assert code == 0
        assert not list(store.root.glob("v*/*/*.json"))


class TestCacheGCFlagComposition:
    """`--max-bytes` + `--older-than` compose age-first; dry runs
    report exactly the bytes a real run frees."""

    def _populate(self, store, grid):
        run_sweep(grid, cache=store)
        return sorted(store.root.glob("v*/*/*.json"))

    def test_age_cutoff_applies_before_size_eviction(self, store, grid):
        import os
        import time

        entries = self._populate(store, grid)
        sizes = {path: path.stat().st_size for path in entries}
        now = time.time()
        # One entry is beyond the age cutoff; make it the *newest* by
        # ... no: make it old for the cutoff but give the survivors a
        # known mtime order so the size victim is unambiguous.
        aged_out = entries[0]
        ancient = now - 10 * 86_400
        os.utime(aged_out, (ancient, ancient))
        survivors = entries[1:]
        base = now - 1_000
        for index, path in enumerate(survivors):
            os.utime(path, (base + index, base + index))
        # Budget: all age-survivors except the oldest one fit exactly.
        budget = sum(sizes[p] for p in survivors[1:])
        report = store.gc(older_than=5 * 86_400, max_bytes=budget)
        # The age cutoff removed one entry, then size eviction removed
        # only the oldest *survivor* -- never double-counting the aged
        # entry against the budget.
        assert report.removed == 2
        assert not aged_out.exists()
        assert not survivors[0].exists()
        assert all(path.exists() for path in survivors[1:])
        assert report.freed_bytes == sizes[aged_out] + sizes[survivors[0]]

    def test_size_budget_ignores_age_evicted_bytes(self, store, grid):
        import os
        import time

        entries = self._populate(store, grid)
        sizes = {path: path.stat().st_size for path in entries}
        now = time.time()
        # Age out ALL but two entries; the survivors fit any budget at
        # least their own size -- even though the store's total is far
        # larger.  If size eviction ran over the full store (bug), the
        # survivors would be evicted too.
        keep = entries[:2]
        ancient = now - 10 * 86_400
        for path in entries[2:]:
            os.utime(path, (ancient, ancient))
        budget = sum(sizes[p] for p in keep)
        report = store.gc(older_than=5 * 86_400, max_bytes=budget)
        assert report.removed == len(entries) - 2
        assert all(path.exists() for path in keep)

    def test_dry_run_reports_real_run_bytes(self, store, grid):
        import os
        import shutil
        import time

        entries = self._populate(store, grid)
        now = time.time()
        aged = entries[:2]
        ancient = now - 10 * 86_400
        for path in aged:
            os.utime(path, (ancient, ancient))
        base = now - 1_000
        for index, path in enumerate(entries[2:]):
            os.utime(path, (base + index, base + index))
        budget = max(path.stat().st_size for path in entries) * 2
        snapshot = store.root.parent / "snapshot"
        shutil.copytree(store.root, snapshot, copy_function=shutil.copy2)

        dry = store.gc(older_than=5 * 86_400, max_bytes=budget, dry_run=True)
        # Nothing was deleted by the dry run...
        assert sorted(store.root.glob("v*/*/*.json")) == entries
        real = store.gc(older_than=5 * 86_400, max_bytes=budget, dry_run=False)
        # ...and its report matches the real pass byte for byte.
        assert dry.freed_bytes == real.freed_bytes
        assert dry.removed == real.removed
        assert dry.kept == real.kept
        assert dry.scanned == real.scanned
        # Snapshot sanity: the real run freed exactly the reported bytes.
        before = sum(
            p.stat().st_size for p in snapshot.glob("v*/*/*.json")
        )
        after = sum(
            p.stat().st_size for p in store.root.glob("v*/*/*.json")
        )
        assert before - after == real.freed_bytes

    def test_dry_run_parity_with_tmp_orphans(self, store, grid):
        import os
        import time

        entries = self._populate(store, grid)
        shard_dir = entries[0].parent
        orphan = shard_dir / "dead.json.tmp.999"
        orphan.write_text("partial")
        ancient = time.time() - 3_600
        os.utime(orphan, (ancient, ancient))
        dry = store.gc(older_than=0, dry_run=True)
        real = store.gc(older_than=0, dry_run=False)
        assert dry.freed_bytes == real.freed_bytes
        assert dry.removed == real.removed == len(entries) + 1
        assert not orphan.exists()

    def test_negative_older_than_rejected(self, store):
        with pytest.raises(ValueError, match="older_than"):
            store.gc(older_than=-1)

    def test_cli_composes_all_three_flags(self, store, grid, capsys):
        import os
        import time

        from repro.experiments.cli import main

        entries = self._populate(store, grid)
        now = time.time()
        ancient = now - 10 * 86_400
        os.utime(entries[0], (ancient, ancient))
        base = now - 1_000
        for index, path in enumerate(entries[1:]):
            os.utime(path, (base + index, base + index))
        budget = sum(p.stat().st_size for p in entries[2:])
        argv = [
            "sweep", "cache-gc", "--cache-dir", str(store.root),
            "--older-than", "5", "--max-bytes", str(budget),
        ]
        code = main(argv + ["--dry-run"])
        dry_out = capsys.readouterr().out
        assert code == 0
        assert "would remove 2" in dry_out
        assert all(path.exists() for path in entries)
        code = main(argv)
        real_out = capsys.readouterr().out
        assert code == 0
        assert "removed 2" in real_out
        # Identical byte totals in both banners.
        dry_kib = dry_out.split(" KiB")[0].rsplit("(", 1)[1]
        real_kib = real_out.split(" KiB")[0].rsplit("(", 1)[1]
        assert dry_kib == real_kib
        assert not entries[0].exists()
        assert not entries[1].exists()
