"""Shared-memory cross-run backend: layout, arena, stealing, identity.

The zero-copy parallel path has three layers, each gated here:

* :class:`~repro.runtime.simulator.ShmBatchLayout` /
  :class:`~repro.runtime.simulator.RunBatchOut` -- the stacked output
  buffer the cross-run engine fills, and its byte-exact attach.
* :class:`~repro.sweep.backends.SharedResultArena` /
  :func:`~repro.sweep.backends._shm_group_task` -- block lifecycle
  (create-in-worker, restore-and-unlink-in-parent, crash sweep) and
  the O(header) pickle contract: only scalars ride the IPC channel.
* :class:`~repro.sweep.backends.ShmCrossRunBackend` /
  :class:`~repro.sweep.backends._StealingQueues` -- the work-stealing
  dispatcher: exactly-once delivery under every interleaving, slow and
  crashing workers, bit-identity with the serial cross-run and
  per-cell reference paths, and no leaked ``/dev/shm`` blocks after
  success, worker error, or a SIGINT-style parent interrupt.

Everything runs under forced ``dispatch="pool"`` so the pool paths are
exercised even on single-CPU CI boxes (the forced-pool warning is
expected and suppressed).
"""

from __future__ import annotations

import os
import pickle
import random
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from repro.sweep import (
    CellSpec,
    CellStore,
    GridSpec,
    SweepJournal,
    run_cell,
    run_cell_many,
    run_sweep,
)
from repro.sweep.backends import (
    SharedResultArena,
    ShmCrossRunBackend,
    _drop_inherited_tracker,
    _PickleBatch,
    _shm_group_task,
    _StealingQueues,
    plan_shm_layout,
    _shared_memory,
)
from repro.runtime import simulator as _simulator
from repro.runtime.families import _REGISTRY as _FAMILY_REGISTRY
from repro.runtime.families import BonomiFamily, register_family
from repro.runtime.simulator import ShmBatchLayout
from repro.telemetry import parse_dispatch_label
from tests.helpers import without_numpy

pytestmark = pytest.mark.skipif(
    _shared_memory is None, reason="multiprocessing.shared_memory unavailable"
)


def cell(seed=0, **overrides):
    base = dict(
        model="M2",
        f=2,
        n=17,
        algorithm="ftm",
        movement="round-robin",
        attack="split",
        epsilon=1e-3,
        seed=seed,
        max_rounds=30,
    )
    base.update(overrides)
    return CellSpec(**base)


def starving_witness(seed=0):
    """Admitted at the degree bound, but starved mid-run by the split
    adversary targeting extremes -- the group-level ValueError recipe."""
    return cell(
        model="M1",
        n=26,
        movement="target-extremes",
        seed=seed,
        rounds=4,
        family="witness",
        topology="random-regular:5:1",
    )


def small_grid(seeds=4):
    return GridSpec(
        models=("M2", "M3"),
        fs=(2,),
        ns=(17,),
        attacks=("split", "outlier"),
        seeds=range(seeds),
        max_rounds=30,
    )


def shm_sweep(grid, **kwargs):
    kwargs.setdefault("workers", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_sweep(grid, dispatch="pool", **kwargs)


def shm_entries() -> set[str]:
    root = Path("/dev/shm")
    if not root.is_dir():
        return set()
    return {p.name for p in root.iterdir() if p.name.startswith("rpa")}


def assert_cells_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.spec == b.spec
        assert a.decisions == b.decisions, a.spec.describe()
        assert a.diameters == b.diameters, a.spec.describe()
        assert a.rounds == b.rounds
        assert a.terminated == b.terminated
        assert a.decision_diameter == b.decision_diameter
        assert a.error == b.error


# Module level so pool workers can unpickle them by reference.
def _slow_many_runner(cells, out=None):
    if cells and cells[0].seed % 2:
        time.sleep(0.02)
    return run_cell_many(cells, out=out)


def _crashing_many_runner(cells, out=None):
    if any(spec.seed == 3 for spec in cells):
        raise RuntimeError("injected worker crash")
    return run_cell_many(cells, out=out)


def _paced_many_runner(cells, out=None):
    time.sleep(0.05)
    return run_cell_many(cells, out=out)


def _sigkilled_many_runner(cells, out=None):
    """A slow runner whose seed-3 batch is SIGKILLed after writing its
    shm rows, before returning: a worker dying mid-batch."""
    results = run_cell_many(cells, out=out)
    if any(spec.seed == 3 for spec in cells):
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.05)
    return results


def _probing_many_runner(cells, out=None):
    """Tags each result with the worker's pid and numpy presence
    (``metrics`` is compare-excluded, and rides both rungs)."""
    from repro.runtime import simulator

    probe = (
        ("probe.pid", float(os.getpid())),
        ("probe.numpy", float(simulator._np is not None)),
    )
    return [
        replace(result, metrics=result.metrics + probe)
        for result in run_cell_many(cells, out=out)
    ]


def _probe(results, name):
    return {dict(result.metrics)[name] for result in results}


class TestShmBatchLayout:
    def test_total_bytes_and_pickle_round_trip(self):
        layout = ShmBatchLayout(runs=3, n=17, diameter_cap=31)
        assert layout.total_bytes > 0
        clone = pickle.loads(pickle.dumps(layout))
        assert clone == layout
        assert clone.total_bytes == layout.total_bytes

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            ShmBatchLayout(runs=0, n=17, diameter_cap=31)
        with pytest.raises(ValueError):
            ShmBatchLayout(runs=1, n=0, diameter_cap=31)
        with pytest.raises(ValueError):
            ShmBatchLayout(runs=1, n=17, diameter_cap=0)

    def test_attach_round_trips_simulation_payloads(self):
        from repro.runtime.simulator import run_simulation, simulate_many

        specs = [cell(seed=seed) for seed in range(3)]
        configs = [spec.to_config() for spec in specs]
        layout = plan_shm_layout(specs)
        buffer = bytearray(layout.total_bytes)
        out = layout.attach(buffer)
        traces = simulate_many(configs, out=out)
        assert out.written == set(range(3))
        for slot, config in enumerate(configs):
            reference = run_simulation(config)
            decided = {
                pid: float(out.final_values[slot][pid])
                for pid in range(layout.n)
                if out.decision_mask[slot][pid]
            }
            assert decided == reference.decisions
            assert int(out.rounds[slot]) == reference.rounds_executed()
            assert bool(out.terminated[slot]) == reference.terminated
            length = int(out.diameter_len[slot])
            assert tuple(
                float(v) for v in out.diameters[slot][:length]
            ) == tuple(reference.diameters())


class TestPlanShmLayout:
    def test_plans_one_group(self):
        specs = [cell(seed=seed) for seed in range(4)]
        layout = plan_shm_layout(specs)
        assert layout == ShmBatchLayout(runs=4, n=17, diameter_cap=31)

    def test_resolves_default_n_from_model(self):
        layout = plan_shm_layout([cell(n=None, model="M3", f=2)])
        assert layout is not None
        assert layout.n >= 9  # M3 needs 4f+1

    def test_unknown_model_is_unplannable(self):
        assert plan_shm_layout([cell(n=None, model="M9")]) is None
        assert plan_shm_layout([]) is None

    def test_fixed_rounds_bound_the_diameter_cap(self):
        layout = plan_shm_layout([cell(rounds=7, max_rounds=60)])
        assert layout.diameter_cap == 8

    def test_scenario_sized_cells_ride_the_pickle_rung(self):
        # A stall cell runs at n_Mi - 1 + extra, not at its own n: a
        # layout sized from the cell would be too narrow.
        specs = [
            cell(
                n=None, scenario="stall", params={"extra": extra},
                rounds=5, seed=seed,
            )
            for extra in (2, 3)
            for seed in range(2)
        ]
        result = shm_sweep(specs)
        assert result.cells == run_sweep(specs).cells
        assert parse_dispatch_label(result.dispatch).pooled


class TestSharedResultArena:
    def test_plan_restore_unlink_counters(self):
        specs = [cell(seed=seed) for seed in range(3)]
        arena = SharedResultArena()
        request = arena.plan(specs)
        assert request is not None
        batch = _shm_group_task(run_cell_many, request, specs)
        restored = arena.restore(batch, specs)
        stats = arena.close()
        assert stats.shm_results == 3
        assert stats.pickle_results == 0
        assert stats.blocks == stats.unlinked == 1
        assert stats.shm_bytes == request.layout.total_bytes
        assert arena.leaked() == []
        assert_cells_identical(restored, [run_cell(spec) for spec in specs])

    def test_oversized_blocks_ride_the_pickle_rung(self):
        arena = SharedResultArena(max_block_bytes=64)
        specs = [cell(seed=seed) for seed in range(3)]
        assert arena.plan(specs) is None
        batch = _shm_group_task(run_cell_many, None, specs)
        assert isinstance(batch, _PickleBatch)
        restored = arena.restore(batch, specs)
        stats = arena.close()
        assert stats.pickle_results == 3
        assert stats.shm_results == stats.blocks == 0
        assert_cells_identical(restored, [run_cell(spec) for spec in specs])

    def test_close_sweeps_unreturned_blocks(self):
        specs = [cell(seed=seed) for seed in range(2)]
        arena = SharedResultArena()
        request = arena.plan(specs)
        # Simulate a worker that created the block and died before
        # returning: the parent never restores, close() must unlink.
        shm = _shared_memory.SharedMemory(
            name=request.name, create=True, size=request.layout.total_bytes
        )
        shm.close()
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        assert arena.leaked() == [request.name]
        stats = arena.close()
        assert arena.leaked() == []
        assert stats.unlinked == 1
        # Idempotent.
        assert arena.close() == stats

    def test_without_numpy_batches_ride_the_pickle_rung(self):
        """Result rows are numpy views, so a numpy-less build must skip
        the shm rung -- pooled, the sweep still equals the serial one."""
        grid = GridSpec(
            models=("M1", "M3"),
            fs=(1,),
            families=("bonomi", "tseng", "witness"),
            topologies=("complete", "ring:3"),
            attacks=("split", "outlier"),
            seeds=range(2),
            rounds=10,
        )
        with without_numpy():
            assert not SharedResultArena().enabled
            pooled = shm_sweep(grid)
            serial = run_sweep(grid, dispatch="serial")
        assert pooled.dispatch.startswith("cross-run-pickle("), pooled.dispatch
        assert_cells_identical(pooled.cells, serial.cells)
        assert pooled.cells == run_sweep(grid, dispatch="serial").cells

    def test_closed_arena_refuses_new_plans(self):
        arena = SharedResultArena()
        arena.close()
        with pytest.raises(RuntimeError, match="closed"):
            arena.plan([cell()])


class TestOHeaderPickleContract:
    def test_shm_batch_pickles_orders_smaller_than_results(self):
        # 8 runs at n=17 over 30 rounds: the full results carry 8
        # decision vectors and 8 diameter series; the shm envelope
        # carries one name, one 3-int layout, and 8 scalar rows.
        specs = [cell(seed=seed) for seed in range(8)]
        arena = SharedResultArena()
        request = arena.plan(specs)
        shm_batch = _shm_group_task(run_cell_many, request, specs)
        pickle_batch = _PickleBatch(results=tuple(run_cell_many(specs)))
        shm_bytes = len(pickle.dumps(shm_batch))
        full_bytes = len(pickle.dumps(pickle_batch))
        try:
            assert shm_bytes * 2 < full_bytes
            # Per result the envelope stays O(header): bounded by a few
            # hundred bytes of verdict scalars, not by n or rounds.
            per_result = (shm_bytes - len(pickle.dumps(request))) / len(specs)
            payload_per_result = request.layout.total_bytes / len(specs)
            assert per_result < payload_per_result
        finally:
            arena.restore(shm_batch, specs)
            arena.close()
        assert arena.leaked() == []

    def test_rows_without_traces_ride_inline(self):
        specs = [cell(seed=0), cell(n=5, seed=9)]  # second: config error
        arena = SharedResultArena()
        request = arena.plan(specs)
        batch = _shm_group_task(run_cell_many, request, specs)
        assert batch.rows[0].inline is None
        assert batch.rows[1].inline is not None
        assert batch.rows[1].inline.error is not None
        restored = arena.restore(batch, specs)
        stats = arena.close()
        assert stats.shm_results == 1 and stats.pickle_results == 1
        assert_cells_identical(restored, [run_cell(spec) for spec in specs])


class TestStealingQueues:
    def groups(self, shape=(6, 3, 1)):
        return [
            [cell(seed=seed, n=17 + 4 * index) for seed in range(size)]
            for index, size in enumerate(shape)
        ]

    def drain(self, queues, rng):
        delivered = []
        while True:
            batch = queues.next_batch(rng.randrange(queues.slots))
            if batch is None:
                return delivered
            delivered.extend(spec.key for spec in batch)

    def test_exactly_once_under_random_interleavings(self):
        expected = sorted(
            spec.key for group in self.groups() for spec in group
        )
        for seed in range(25):
            queues = _StealingQueues(self.groups(), slots=3)
            delivered = self.drain(queues, random.Random(seed))
            assert sorted(delivered) == expected, f"interleaving {seed}"

    def test_single_group_spreads_across_slots(self):
        # One 8-run group, 4 slots: the pre-split must cut it so every
        # slot can start busy -- the lone-group parallelism case.
        queues = _StealingQueues([[cell(seed=s) for s in range(8)]], slots=4)
        assert queues.pending() >= 4
        first = [queues.next_batch(slot) for slot in range(4)]
        assert all(batch for batch in first)
        assert sum(len(batch) for batch in first) == 8

    def test_thief_takes_the_larger_half(self):
        groups = [[cell(seed=s) for s in range(5)]]
        queues = _StealingQueues(groups, slots=2)
        # Pre-split gave each slot a piece and cut the 3-run half again
        # (it held more than half the cost): slot 0 owns [2, 1], slot 1
        # owns [2].  Drain slot 0's own queue, then steal from slot 1
        # and check the split arithmetic.
        own = [queues.next_batch(0), queues.next_batch(0)]
        assert [len(batch) for batch in own] == [2, 1]
        assert queues.steals == 0
        stolen = queues.next_batch(0)  # slot 0 is now dry: steals
        assert queues.steals == 1
        remainder = queues.next_batch(1)
        sizes = [len(batch) for batch in own] + [len(stolen), len(remainder or [])]
        assert sum(sizes) == 5
        # The thief kept the ceil half of the victim's batch.
        assert len(stolen) == 1 and len(remainder) == 1

    def test_no_batch_outweighs_a_slot_share(self):
        # One heavy unstackable group (witness under M3) beside light
        # bonomi groups: the pre-split cuts it below a 1/slots share
        # of the estimated cost, so it cannot become the critical path.
        heavy = [cell(seed=s, model="M3", family="witness") for s in range(6)]
        light = [[cell(seed=s, model=m)] for m in ("M1", "M2") for s in range(2)]
        queues = _StealingQueues([heavy] + light, slots=2)
        batches = [batch for queue in queues._queues for batch in queue]
        total = sum(queues._cost(batch) for batch in batches)
        assert sorted(spec.key for b in batches for spec in b) == sorted(
            spec.key for spec in heavy + [c for g in light for c in g]
        )
        for batch in batches:
            assert len(batch) < 2 or queues._cost(batch) <= total / 2

    def test_steals_from_the_heaviest_victim(self):
        light = [cell(seed=s, n=9, f=1, model="M1") for s in range(2)]
        heavy = [cell(seed=s, n=33) for s in range(2)]
        queues = _StealingQueues([heavy, light], slots=3)
        # Slot 2 owns nothing (2 groups, pre-split covers 3 slots);
        # drain until a steal happens and check it targets heavy cells.
        queues.next_batch(0)
        queues.next_batch(1)
        stolen = queues.next_batch(2)
        if queues.steals:  # pre-split may already have served slot 2
            assert all(spec.n == 33 for spec in stolen)

    def test_rejects_no_slots(self):
        with pytest.raises(ValueError, match="slots"):
            _StealingQueues([], slots=0)


class TestForcedShmBitIdentity:
    """The full equivalence matrix under forced shm dispatch."""

    @pytest.fixture(scope="class")
    def grid(self):
        return small_grid()

    @pytest.fixture(scope="class")
    def reference(self, grid):
        return run_sweep(grid)

    def test_matches_serial_reference(self, grid, reference):
        result = shm_sweep(grid)
        assert result.cells == reference.cells
        assert_cells_identical(result.cells, reference.cells)

    def test_dispatch_label_records_rung_and_steals(self, grid):
        result = shm_sweep(grid)
        assert re.fullmatch(
            r"cross-run-shm\(\d+ batches, max R=\d+, steals=\d+\)",
            result.dispatch,
        ), result.dispatch

    def test_matches_serial_cross_run(self, grid, reference):
        serial_cross = run_sweep(grid, cross_run=True)
        result = shm_sweep(grid)
        assert result.cells == serial_cross.cells == reference.cells

    def test_mixed_families_and_topologies(self):
        grid = GridSpec(
            models=("M2",),
            fs=(1,),
            families=("bonomi", "tseng", "witness"),
            topologies=("complete", "ring:3"),
            seeds=range(2),
            max_rounds=15,
        )
        assert shm_sweep(grid).cells == run_sweep(grid).cells

    def test_full_detail(self):
        cells = [cell(seed=seed, max_rounds=10) for seed in range(3)]
        base = run_sweep(cells, trace_detail="full")
        result = shm_sweep(cells, trace_detail="full")
        assert result.cells == base.cells

    def test_error_and_starved_cells(self):
        cells = [cell(seed=seed) for seed in range(2)]
        cells.append(cell(n=5, seed=9))  # config-build error
        cells.extend(starving_witness(seed) for seed in range(2))  # mid-run
        base = run_sweep(cells)
        result = shm_sweep(cells)
        assert result.cells == base.cells
        assert len(result.errors()) == 3

    def test_scenario_params_axis(self):
        cells = [
            cell(
                scenario="static-mixed",
                params={"a": 1, "s": 2, "b": 14},
                seed=seed,
            )
            for seed in range(2)
        ]
        assert shm_sweep(cells).cells == run_sweep(cells).cells

    def test_cache_write_through(self, grid, reference, tmp_path):
        cold = shm_sweep(grid, cache=tmp_path)
        warm = run_sweep(grid, cache=tmp_path)
        assert cold.cells == warm.cells == reference.cells
        assert warm.cache_stats.hits == len(grid)

    def test_auto_selection_still_identical(self, grid, reference):
        # workers > 1 + cross_run auto-selects the stealing backend;
        # whatever rung it lands on, results cannot change.
        result = run_sweep(grid, workers=2, cross_run=True)
        assert result.cells == reference.cells


class TestExactlyOnceReporting:
    def test_progress_fires_once_per_cell(self):
        grid = small_grid()
        seen = []
        counts = []

        def progress(result, done, total):
            seen.append(result.key)
            counts.append((done, total))

        result = shm_sweep(grid, progress=progress)
        assert len(seen) == len(set(seen)) == len(grid)
        assert [done for done, _ in counts] == list(range(1, len(grid) + 1))
        assert all(total == len(grid) for _, total in counts)
        assert len(result.cells) == len(grid)

    def test_slow_workers_stay_exactly_once(self):
        specs = list(small_grid().cells())
        reference = [run_cell(spec) for spec in specs]
        backend = ShmCrossRunBackend(2, dispatch_mode="pool")
        emitted = []
        backend.on_result = lambda result: emitted.append(result.key)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = backend.execute_many(specs, _slow_many_runner)
        assert len(emitted) == len(set(emitted)) == len(specs)
        assert sorted(r.key for r in results) == sorted(
            r.key for r in reference
        )
        assert_cells_identical(
            sorted(results, key=lambda r: r.key),
            sorted(reference, key=lambda r: r.key),
        )

    def test_crashing_worker_never_double_delivers(self):
        specs = list(small_grid().cells())
        backend = ShmCrossRunBackend(2, dispatch_mode="pool")
        emitted = []
        backend.on_result = lambda result: emitted.append(result.key)
        before = shm_entries()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="injected worker crash"):
                backend.execute_many(specs, _crashing_many_runner)
        # The crash surfaced loudly (no silent drop), nothing was
        # delivered twice, and every block was swept.
        assert len(emitted) == len(set(emitted))
        assert shm_entries() <= before
        assert backend.last_arena_stats is not None
        assert backend.last_arena_stats.blocks >= 1


class TestArenaLeaks:
    def test_no_blocks_leak_on_success(self):
        before = shm_entries()
        result = shm_sweep(small_grid())
        assert len(result.cells) == 16
        assert shm_entries() <= before

    def test_no_blocks_leak_on_worker_error(self):
        specs = list(small_grid().cells())
        backend = ShmCrossRunBackend(2, dispatch_mode="pool")
        before = shm_entries()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError):
                backend.execute_many(specs, _crashing_many_runner)
        assert shm_entries() <= before

    def test_no_blocks_leak_on_parent_interrupt(self):
        grid = small_grid()
        before = shm_entries()

        def interrupt(result, done, total):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            shm_sweep(grid, progress=interrupt)
        assert shm_entries() <= before


class TestInterruptResume:
    def test_journal_resume_is_bit_identical(self, tmp_path):
        grid = small_grid()
        reference = run_sweep(grid)
        fired = []

        def interrupt_after_four(result, done, total):
            fired.append(result.key)
            if done >= 4:
                raise KeyboardInterrupt

        journal = SweepJournal(tmp_path / "journal")
        with pytest.raises(KeyboardInterrupt):
            shm_sweep(grid, journal=journal, progress=interrupt_after_four)
        journal.close()
        assert journal.completed_count >= 4

        resumed_journal = SweepJournal(tmp_path / "journal")
        resumed = shm_sweep(grid, journal=resumed_journal)
        resumed_journal.close()
        assert resumed.cells == reference.cells
        assert_cells_identical(resumed.cells, reference.cells)
        assert resumed_journal.completed_count == len(grid)
        assert shm_entries() == shm_entries()  # and nothing left behind


class TestRunCellManyFallbackCache:
    """The group ValueError fallback consults the store (satellite f)."""

    class RacingStore(CellStore):
        """Misses the first load per cell, hits afterwards -- the shape
        of a concurrent shard invocation finishing mid-attempt."""

        def __init__(self, root):
            super().__init__(root)
            self.first_load_done = set()
            self.saves = []

        def load(self, spec, trace_detail, probe=None):
            if spec.key not in self.first_load_done:
                self.first_load_done.add(spec.key)
                return None
            return super().load(spec, trace_detail, probe)

        def save(self, result, trace_detail, probe=None):
            self.saves.append(result.key)
            return super().save(result, trace_detail, probe)

    def test_fallback_serves_cached_members(self, tmp_path):
        specs = [starving_witness(seed) for seed in range(3)]
        reference = [run_cell(spec) for spec in specs]
        assert all(r.error is not None for r in reference)

        store = self.RacingStore(tmp_path)
        # Pre-cache the first two members, as a sibling shard would.
        for result in reference[:2]:
            CellStore(tmp_path).save(result, "lite", None)

        results = run_cell_many(specs, store=store)
        assert_cells_identical(results, reference)
        # The rescued members were served from the store (recorded as
        # hits) and not saved a second time.
        stats = store.snapshot()
        assert stats.hits == 2
        assert store.saves == [specs[2].key]

    def test_fallback_without_store_still_identical(self):
        specs = [starving_witness(seed) for seed in range(2)]
        results = run_cell_many(specs)
        assert_cells_identical(results, [run_cell(spec) for spec in specs])


class _LateFamily(BonomiFamily):
    """A family registered only after the sweep workers have forked."""

    name = "late-registered-probe"


class TestPersistentWorkers:
    """Sweep workers outlive a sweep.  Each case breaks a naive reuse:
    workers hold the code, registry and numpy state of their fork."""

    def pooled(self, specs, runner=_probing_many_runner):
        backend = ShmCrossRunBackend(2, dispatch_mode="pool")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return backend.execute_many(specs, runner)

    def test_consecutive_sweeps_share_worker_pids(self):
        specs = list(small_grid().cells())
        first = _probe(self.pooled(specs), "probe.pid")
        second = _probe(self.pooled(specs), "probe.pid")
        assert len(first) == 2 and float(os.getpid()) not in first
        assert second == first

    def test_killed_worker_aborts_the_sweep(self):
        grid = small_grid()
        before = shm_entries()
        started = time.perf_counter()
        with pytest.raises(
            RuntimeError, match=r"pid \d+ died mid-batch \(exit code -9\)"
        ):
            self.pooled(list(grid.cells()), _sigkilled_many_runner)
        assert time.perf_counter() - started < 5
        assert shm_entries() <= before
        after = shm_sweep(grid)
        serial = run_sweep(grid, dispatch="serial")
        assert after.cells == serial.cells
        assert_cells_identical(after.cells, serial.cells)

    def test_worker_sessions_follow_each_sweep(self, tmp_path):
        grid = small_grid()
        parent_file = f"trace-{os.getpid()}.jsonl"

        def lines(directory):
            return {
                path.name: len(path.read_text().splitlines())
                for path in directory.glob("trace-*.jsonl")
            }

        first, second = tmp_path / "first", tmp_path / "second"
        shm_sweep(grid, telemetry=first)
        traced = lines(first)
        worker_files = set(traced) - {parent_file}
        assert len(worker_files) == 2
        shm_sweep(grid)
        assert lines(first) == traced
        shm_sweep(grid, telemetry=second)
        assert lines(first) == traced
        # The same workers traced the third sweep, into its directory.
        assert set(lines(second)) - {parent_file} == worker_files

    def test_family_registered_after_fork_runs_pooled(self):
        grid = GridSpec(
            models=("M1", "M3"),
            fs=(1,),
            families=(_LateFamily.name,),
            attacks=("split", "outlier"),
            seeds=range(3),
            rounds=8,
        )
        shm_sweep(small_grid())  # the workers exist before the family
        register_family(_LateFamily())
        try:
            pooled = shm_sweep(grid)
            serial = run_sweep(grid, dispatch="serial")
        finally:
            _FAMILY_REGISTRY.pop(_LateFamily.name)
        assert pooled.errors() == ()
        assert pooled.cells == serial.cells

    @pytest.mark.skipif(_simulator._np is None, reason="numpy unavailable")
    def test_workers_follow_hidden_numpy(self):
        specs = list(small_grid().cells())
        assert _probe(self.pooled(specs), "probe.numpy") == {1.0}
        with without_numpy():
            hidden = self.pooled(specs)
        assert _probe(hidden, "probe.numpy") == {0.0}
        assert _probe(self.pooled(specs), "probe.numpy") == {1.0}
        key = lambda result: result.key  # noqa: E731
        assert_cells_identical(
            sorted(hidden, key=key), sorted(map(run_cell, specs), key=key)
        )

    def test_concurrent_sweeps_from_threads(self):
        # Three sweeping threads, more than the usual two cores, with a
        # short switch interval and a paced runner, so the sweeps
        # overlap: one holds the persistent workers, the others fork
        # their own; a shared pipe would hand one thread's replies to
        # another, which each thread's own seeds would show.
        specs = [
            [
                cell(seed=100 * index + seed, n=17 + 4 * width)
                for width in range(8)  # 8 stack groups: many replies
                for seed in range(2)
            ]
            for index in range(3)
        ]
        key = lambda result: result.key  # noqa: E731
        references = [sorted(map(run_cell, own), key=key) for own in specs]
        self.pooled(specs[0], _paced_many_runner)  # matching workers exist
        barrier = threading.Barrier(3)
        results: list = [None] * 3
        errors: list = []

        def sweep(index):
            barrier.wait()
            try:
                backend = ShmCrossRunBackend(2, dispatch_mode="pool")
                results[index] = backend.execute_many(
                    specs[index], _paced_many_runner
                )
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for result, reference in zip(results, references):
            assert_cells_identical(sorted(result, key=key), reference)

    def test_forked_workers_start_with_free_locks(self, tmp_path):
        # Another thread holds every lock a worker takes (the resource
        # tracker's, the metrics registry's, the tracing session's)
        # while this one forks: the child must not inherit them held.
        from multiprocessing import resource_tracker

        from repro.telemetry import count, deactivate, trace_span
        from repro.telemetry import configure, get_registry
        from repro.telemetry import tracing

        configure(tmp_path)
        try:
            held = [
                resource_tracker._resource_tracker._lock,
                get_registry()._lock,
                tracing._SESSION._lock,
            ]
            locked, release = threading.Event(), threading.Event()

            def hold():
                for lock in held:
                    lock.acquire()
                locked.set()
                release.wait(30)
                for lock in held:
                    lock.release()

            holder = threading.Thread(target=hold)
            holder.start()
            try:
                assert locked.wait(30)
                pid = os.fork()
                if pid == 0:  # the child: a sweep worker's first steps
                    code = 1
                    try:
                        _drop_inherited_tracker()
                        block = _shared_memory.SharedMemory(create=True, size=64)
                        block.close()
                        block.unlink()
                        count("test.forked")
                        with trace_span("test.forked"):
                            pass
                        code = 0
                    finally:
                        os._exit(code)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    done, status = os.waitpid(pid, os.WNOHANG)
                    if done:
                        break
                    time.sleep(0.02)
                else:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("forked child deadlocked on an inherited lock")
                assert os.waitstatus_to_exitcode(status) == 0
            finally:
                release.set()
                holder.join(30)
            assert not holder.is_alive()
        finally:
            deactivate()

    def test_tracker_stop_and_reaping_exit_promptly(self):
        # The parent's resource tracker runs before the workers fork, as
        # in a process that used shared memory earlier; perfbench stops
        # it and then SIGKILLs and reaps every child.
        script = textwrap.dedent(
            """
            import multiprocessing, os, signal, warnings
            from multiprocessing import resource_tracker
            from repro.sweep import GridSpec, run_sweep
            resource_tracker.ensure_running()
            grid = GridSpec(
                models=("M2", "M3"), fs=(2,), ns=(17,),
                attacks=("split", "outlier"), seeds=range(4), max_rounds=30,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                pooled = run_sweep(grid, workers=2, dispatch="pool")
            assert pooled.dispatch.startswith("cross-run-shm("), pooled.dispatch
            resource_tracker._resource_tracker._stop()
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
            """
        )
        src = str(Path(_simulator.__file__).resolve().parents[2])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert done.returncode == 0, done.stderr
