"""Benchmark: simulator throughput (EXP-PERF).

Not a paper artefact -- a library health metric: rounds/second of the
full simulation stack (fault planning, n^2 messaging, MSR computation,
trace recording) as the system grows, plus the speedup axes of the
sweep subsystem: the trace-lite round kernel vs full traces, parallel
vs serial grid execution, cross-run stacking, and the cell cache.

Every datapoint is also merged into ``results/BENCH_perf.json`` (via
the ``record_bench`` fixture) so the performance trajectory is
machine-diffable across PRs; the CI perf-smoke job reads the committed
ledger as its regression baseline.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.analysis import render_table
from repro.api import mobile_config
from repro.runtime import run_simulation

from repro.sweep import CellStore, GridSpec, ShardedBackend, merge_shards, run_sweep

ROUNDS = 20


def run_sized(
    n: int,
    trace_detail: str = "full",
    model: str = "M3",
    f: int | None = None,
):
    if f is None:
        f = max(1, (n - 1) // 6)
    config = mobile_config(
        model=model,
        f=f,
        n=n,
        algorithm="ftm",
        movement="round-robin",
        attack="split",
        rounds=ROUNDS,
        seed=0,
    )
    return run_simulation(config, trace_detail=trace_detail)


@pytest.mark.parametrize("n", [7, 13, 25, 49])
def test_simulation_throughput(benchmark, n):
    trace = benchmark(run_sized, n)
    assert trace.rounds_executed() == ROUNDS


def _best_of(repeats: int, fn, *args):
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_lite_vs_full_speedup(benchmark, record_artifact, record_bench):
    """EXP-PERF-LITE: the trace-lite fast path on n >= 16 configs.

    Since the array-shaped round snapshots landed, full traces no
    longer pay the per-message dict bookkeeping, so the gap is a modest
    recording overhead (~1.3-1.7x) instead of the historical 3-8x.  The
    gate is now two-sided: lite must never lose to full, and full must
    stay within 4x of lite (a regression back to dict-of-dict network
    bookkeeping blows past that immediately).  Equivalence of
    decisions/diameters is asserted here and proven exhaustively by
    tests/test_sweep_equivalence.py.
    """

    def measure():
        rows = []
        ratios = {}
        for n in (16, 25, 33, 49):
            full_trace = run_sized(n, "full")
            lite_trace = run_sized(n, "lite")
            assert full_trace.decisions == lite_trace.decisions
            assert full_trace.diameters() == lite_trace.diameters()
            full_s = _best_of(3, run_sized, n, "full")
            lite_s = _best_of(3, run_sized, n, "lite")
            ratios[n] = full_s / lite_s
            rows.append(
                [n, f"{full_s * 1e3:.1f}", f"{lite_s * 1e3:.1f}", f"{ratios[n]:.2f}x"]
            )
        return rows, ratios

    rows, ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_artifact(
        "perf_lite",
        render_table(
            ["n", "full ms", "lite ms", "speedup"],
            rows,
            title=f"EXP-PERF-LITE: trace-lite vs full traces ({ROUNDS} rounds, M3)",
        ),
    )
    record_bench(
        "lite_vs_full",
        {str(n): round(ratio, 2) for n, ratio in ratios.items()},
    )
    assert all(ratio >= 1.0 for ratio in ratios.values()), (
        f"lite fast path lost to full traces: {ratios}"
    )
    assert all(ratio <= 4.0 for ratio in ratios.values()), (
        f"full-trace path regressed (dict bookkeeping is back?): {ratios}"
    )


def run_sized_kernel(n: int, vectorized: bool, model: str = "M3"):
    """One lite run on the array engine or, when ``vectorized`` is
    false, on the scalar grouped + flat kernel (numpy hidden)."""
    import contextlib

    from repro.runtime.simulator import SynchronousSimulator

    config = mobile_config(
        model=model,
        f=max(1, (n - 1) // 6),
        n=n,
        algorithm="ftm",
        movement="round-robin",
        attack="split",
        rounds=ROUNDS,
        seed=0,
    )
    if vectorized:
        hidden = contextlib.nullcontext()
    else:
        from tests.helpers import without_numpy

        hidden = without_numpy()
    with hidden:
        return SynchronousSimulator(config, trace_detail="lite").run()


def test_vectorized_throughput(benchmark, record_artifact, record_bench):
    """EXP-PERF-VEC: the numpy batch engine vs the scalar kernel.

    The vectorized path holds values/camps/deltas as arrays and
    evaluates every distinct inbox of a round in one sort/searchsorted/
    reduce batch.  Per-round fixed costs make it roughly break even at
    n=97; the win grows with n and must stay >= 1.2x at paper scale
    (n=385), where the batch amortizes over hundreds of agents.  The
    committed numbers back the CI perf-smoke vectorized floor.
    """

    def measure():
        rows = []
        vec_rps: dict[str, float] = {}
        scalar_rps: dict[str, float] = {}
        for n in (97, 193, 385):
            vec_s = _best_of(5, run_sized_kernel, n, True)
            scalar_s = _best_of(5, run_sized_kernel, n, False)
            vec_rps[str(n)] = ROUNDS / vec_s
            scalar_rps[str(n)] = ROUNDS / scalar_s
            rows.append(
                [
                    n,
                    f"{ROUNDS / scalar_s:.0f}",
                    f"{ROUNDS / vec_s:.0f}",
                    f"{scalar_s / vec_s:.2f}x",
                ]
            )
        return rows, vec_rps, scalar_rps

    rows, vec_rps, scalar_rps = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    record_artifact(
        "perf_vectorized",
        render_table(
            ["n", "scalar r/s", "vectorized r/s", "speedup"],
            rows,
            title=(
                f"EXP-PERF-VEC: vectorized vs scalar round kernel "
                f"(M3 lite, {ROUNDS} rounds)"
            ),
        ),
    )
    record_bench(
        "throughput_vectorized",
        {
            "rounds": ROUNDS,
            "model": "M3",
            "vectorized_lite_rounds_per_sec": {
                k: round(v, 1) for k, v in vec_rps.items()
            },
            "scalar_lite_rounds_per_sec": {
                k: round(v, 1) for k, v in scalar_rps.items()
            },
            "speedup_385": round(
                vec_rps["385"] / scalar_rps["385"], 2
            ),
        },
    )
    # Bit-identity is proven by tests/test_kernel.py; here only the
    # paper-scale win is gated (small n legitimately breaks even).
    assert vec_rps["385"] >= 1.2 * scalar_rps["385"], (vec_rps, scalar_rps)


def run_family_sized(n: int, f: int, family: str, model: str = "M1"):
    """One lite run of ``family`` at the M1-minimum sizes of the ledger."""
    config = mobile_config(
        model=model,
        f=f,
        n=n,
        algorithm="ftm",
        movement="round-robin",
        attack="split",
        rounds=ROUNDS,
        seed=0,
        family=family,
    )
    return run_simulation(config, trace_detail="lite")


def test_family_throughput(benchmark, record_artifact, record_bench):
    """EXP-PERF-FAM: lite throughput per algorithm family.

    The Tseng family's consistency filter adds carried state and a
    per-sender claim check to every round; this pins how much of the
    kernel-era throughput that costs.  The committed numbers back the
    CI perf-smoke gate for the family.
    """

    def measure():
        rows = []
        rps: dict[str, dict[str, float]] = {"bonomi": {}, "tseng": {}}
        for f, n in ((12, 49), (24, 97)):
            per_family = {}
            for family in ("bonomi", "tseng"):
                lite_s = _best_of(3, run_family_sized, n, f, family)
                per_family[family] = lite_s
                rps[family][str(n)] = ROUNDS / lite_s
            rows.append(
                [
                    n,
                    f,
                    f"{ROUNDS / per_family['bonomi']:.0f}",
                    f"{ROUNDS / per_family['tseng']:.0f}",
                    f"{per_family['tseng'] / per_family['bonomi']:.2f}x",
                ]
            )
        return rows, rps

    rows, rps = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_artifact(
        "perf_families",
        render_table(
            ["n", "f", "bonomi r/s", "tseng r/s", "tseng cost"],
            rows,
            title=(
                f"EXP-PERF-FAM: lite rounds/sec per algorithm family "
                f"(M1, {ROUNDS} rounds)"
            ),
        ),
    )
    record_bench(
        "throughput_families",
        {
            "rounds": ROUNDS,
            "model": "M1",
            "bonomi_lite_rounds_per_sec": {
                k: round(v, 1) for k, v in rps["bonomi"].items()
            },
            "tseng_lite_rounds_per_sec": {
                k: round(v, 1) for k, v in rps["tseng"].items()
            },
        },
    )
    # The stateful family must stay within one order of magnitude of
    # the scalar kernel path (it shares the flat MSR fold and the
    # distinct-inbox grouping; only the claim bookkeeping is extra).
    assert all(
        rps["tseng"][key] * 10 >= rps["bonomi"][key] for key in rps["tseng"]
    ), rps


def run_witness_sized(n: int, f: int, topology: str = "ring:3"):
    """One lite run of the witness family on a partial graph."""
    config = mobile_config(
        model="M1",
        f=f,
        n=n,
        algorithm="ftm",
        movement="round-robin",
        attack="split",
        rounds=ROUNDS,
        seed=0,
        family="witness",
        topology=topology,
    )
    return run_simulation(config, trace_detail="lite")


def test_witness_throughput(benchmark, record_artifact, record_bench):
    """EXP-PERF-WITNESS: lite throughput of the partial-connectivity family.

    The witness family gossips whole claim tables along a restricted
    graph every round -- O(edges x claims) work where the scalar
    kernel pays O(distinct inboxes).  This pins that cost at small n
    on the ring lattice; the committed numbers back the CI perf-smoke
    floor for the family.
    """

    def measure():
        rows = []
        rps: dict[str, float] = {}
        for f, n in ((2, 25), (2, 49)):
            lite_s = _best_of(3, run_witness_sized, n, f)
            rps[str(n)] = ROUNDS / lite_s
            rows.append([n, f, "ring:3", f"{ROUNDS / lite_s:.0f}", f"{lite_s * 1e3:.1f}"])
        return rows, rps

    rows, rps = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_artifact(
        "perf_witness",
        render_table(
            ["n", "f", "topology", "lite r/s", "total ms"],
            rows,
            title=(
                f"EXP-PERF-WITNESS: witness-family lite rounds/sec on the "
                f"ring lattice (M1, {ROUNDS} rounds)"
            ),
        ),
    )
    record_bench(
        "throughput_witness",
        {
            "rounds": ROUNDS,
            "model": "M1",
            "topology": "ring:3",
            "witness_lite_rounds_per_sec": {
                key: round(value, 1) for key, value in rps.items()
            },
        },
    )
    # Gossip on a sparse graph must stay usable at small n: three
    # orders of magnitude below the scalar kernel would make the
    # topology experiments impractical.
    assert all(value >= 50 for value in rps.values()), rps


def test_m3_planted_camps(benchmark, record_artifact, record_bench):
    """EXP-PERF-M3-CAMPS: planted queues through recipient camps.

    Model M3's cured processes send adversary-planted queues; before
    this datapoint's change they were the last dict-materialized
    outboxes (the ROADMAP's remaining O(n*f) planning item).  With the
    round-robin walk all f agents move every round, so f planted
    queues are built per round: camps collapse each from an n-entry
    dict to O(#camps) values on the shared per-round assignment.
    Results are bit-identical; the datapoint records the collapse.
    """
    from repro.faults.value_strategies import CrossfireAttack

    class DictPlantedCrossfire(CrossfireAttack):
        """Crossfire with planted-queue camps disabled (the 'before')."""

        def planted_camps(self, view, sender):
            return None

    def run_attack(attack):
        config = mobile_config(
            model="M3",
            f=32,
            n=193,
            algorithm="ftm",
            movement="round-robin",
            attack=attack,
            rounds=ROUNDS,
            seed=0,
        )
        return run_simulation(config, trace_detail="lite")

    def measure():
        camps_trace = run_attack(CrossfireAttack())
        dict_trace = run_attack(DictPlantedCrossfire())
        assert camps_trace.decisions == dict_trace.decisions
        assert camps_trace.diameters() == dict_trace.diameters()
        camps_s = _best_of(3, run_attack, CrossfireAttack())
        dict_s = _best_of(3, run_attack, DictPlantedCrossfire())
        return camps_s, dict_s

    camps_s, dict_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = dict_s / camps_s
    record_artifact(
        "perf_m3_camps",
        render_table(
            ["planted-queue planning", "rounds/sec", "total ms"],
            [
                ["per-recipient dicts", f"{ROUNDS / dict_s:.0f}", f"{dict_s * 1e3:.1f}"],
                ["recipient camps", f"{ROUNDS / camps_s:.0f}", f"{camps_s * 1e3:.1f}"],
            ],
            title=(
                "EXP-PERF-M3-CAMPS: M3 planted queues, crossfire at "
                f"n=193, f=32 ({ROUNDS} rounds) -- camps {speedup:.1f}x"
            ),
        ),
    )
    record_bench(
        "m3_planted_camps",
        {
            "rounds": ROUNDS,
            "model": "M3",
            "n": 193,
            "f": 32,
            "attack": "crossfire",
            "dict_outbox_rounds_per_sec": round(ROUNDS / dict_s, 1),
            "camps_rounds_per_sec": round(ROUNDS / camps_s, 1),
            "speedup": round(speedup, 2),
        },
    )
    # The point of routing planted queues through camps: the O(n*f)
    # dict materialization must measurably disappear.
    assert speedup >= 1.5, f"planted camps only {speedup:.2f}x faster"


def test_recipient_camps(benchmark, record_artifact, record_bench):
    """EXP-PERF-CAMPS: recipient-class planning vs materialized outboxes.

    The crossfire attack is sender-dependent, so without camps every
    agent materializes its own n-entry outbox per round -- the O(n*f)
    floor the ROADMAP called out.  Camp planning shares one recipient
    partition per round and O(#camps) values per sender; the kernel
    then groups recipients by camp index.  Results are bit-identical;
    the datapoint records the collapse.
    """
    from repro.faults.value_strategies import CrossfireAttack

    class DictCrossfire(CrossfireAttack):
        """The same attack with camp planning disabled (the 'before')."""

        def attack_camps(self, view, sender):
            return None

    def run_attack(attack):
        config = mobile_config(
            model="M1",
            f=96,
            n=385,
            algorithm="ftm",
            movement="round-robin",
            attack=attack,
            rounds=ROUNDS,
            seed=0,
        )
        return run_simulation(config, trace_detail="lite")

    def measure():
        camps_trace = run_attack(CrossfireAttack())
        dict_trace = run_attack(DictCrossfire())
        assert camps_trace.decisions == dict_trace.decisions
        assert camps_trace.diameters() == dict_trace.diameters()
        camps_s = _best_of(3, run_attack, CrossfireAttack())
        dict_s = _best_of(3, run_attack, DictCrossfire())
        return camps_s, dict_s

    camps_s, dict_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = dict_s / camps_s
    record_artifact(
        "perf_camps",
        render_table(
            ["outbox planning", "rounds/sec", "total ms"],
            [
                ["per-recipient dicts", f"{ROUNDS / dict_s:.0f}", f"{dict_s * 1e3:.1f}"],
                ["recipient camps", f"{ROUNDS / camps_s:.0f}", f"{camps_s * 1e3:.1f}"],
            ],
            title=(
                "EXP-PERF-CAMPS: sender-dependent crossfire attack at "
                f"n=385, f=96 (M1, {ROUNDS} rounds) -- camps {speedup:.1f}x"
            ),
        ),
    )
    record_bench(
        "recipient_camps",
        {
            "rounds": ROUNDS,
            "model": "M1",
            "n": 385,
            "f": 96,
            "attack": "crossfire",
            "dict_outbox_rounds_per_sec": round(ROUNDS / dict_s, 1),
            "camps_rounds_per_sec": round(ROUNDS / camps_s, 1),
            "speedup": round(speedup, 2),
        },
    )
    # The whole point: collapsing the O(n*f) contract must show up.
    assert speedup >= 2.0, f"camps planning only {speedup:.2f}x faster"


def _sweep_grid_64() -> GridSpec:
    """A 64-cell grid sized for the serial-vs-parallel datapoint.

    Cells are deliberately heavy (n=33, 60 rounds) so serial wall time
    is large against process-pool startup; a grid of trivial cells
    would measure fork overhead, not the executor.
    """
    return GridSpec(
        models=("M2", "M3"),
        fs=(3,),
        ns=(33,),
        algorithms=("ftm",),
        movements=("round-robin",),
        attacks=("split", "outlier"),
        seeds=tuple(range(16)),
        rounds=60,
    )


def test_sweep_serial(benchmark, record_artifact, record_bench):
    """EXP-PERF-SWEEP: per-cell serial sweep (64 cells).

    The in-process reference the cross-run and shm benchmarks below
    are measured against.  Pooled sweeps run cross-run groups, so the
    pooled datapoint of this grid is EXP-PERF-SHM.
    """
    grid = _sweep_grid_64()
    assert len(grid) == 64
    cpus = os.cpu_count() or 1

    def measure():
        return _best_of(2, run_sweep, grid, 1)

    serial_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_artifact(
        "perf_sweep",
        render_table(
            ["cells", "cpus", "serial ms"],
            [[len(grid), cpus, f"{serial_s * 1e3:.1f}"]],
            title="EXP-PERF-SWEEP: per-cell serial sweep (64 cells, lite)",
        ),
    )
    record_bench(
        "sweep_64",
        {
            "cells": len(grid),
            "cpus": cpus,
            "start_method": multiprocessing.get_start_method(),
            "serial_ms": round(serial_s * 1e3, 1),
        },
    )


def _run_cross_run(grid):
    return run_sweep(grid, cross_run=True)


def test_sweep_cross_run_vs_serial(benchmark, record_artifact, record_bench):
    """EXP-PERF-CROSS: the cross-run stacked engine on the 64-cell grid.

    ``cross_run=True`` partitions the grid by ``stack_key`` (2 groups
    here, one per model, of 32 runs: both attacks stack together) and
    advances each group as one ``(R, n)`` state
    array -- one fault-planning pass and one sort/fold pass per round
    for all R runs -- so the win needs no process pool and holds on a
    single usable CPU, exactly where pooled dispatch cannot help.
    Bit-identity with the serial sweep is asserted unconditionally; the
    acceptance bar is >= 2x over per-cell serial, and the committed
    numbers back the CI perf-smoke cross-run floor.
    """
    grid = _sweep_grid_64()

    def measure():
        serial = run_sweep(grid, workers=1)
        cross = _run_cross_run(grid)
        assert cross.cells == serial.cells
        serial_s = _best_of(3, run_sweep, grid, 1)
        cross_s = _best_of(3, _run_cross_run, grid)
        return serial_s, cross_s, cross.dispatch

    serial_s, cross_s, dispatch = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = serial_s / cross_s
    record_artifact(
        "perf_sweep_cross_run",
        render_table(
            ["cells", "serial ms", "cross-run ms", "speedup", "dispatch"],
            [
                [
                    len(grid),
                    f"{serial_s * 1e3:.1f}",
                    f"{cross_s * 1e3:.1f}",
                    f"{speedup:.2f}x",
                    dispatch,
                ]
            ],
            title=(
                "EXP-PERF-CROSS: cross-run stacked engine vs per-cell "
                "serial (64 cells, lite)"
            ),
        ),
    )
    record_bench(
        "cross_run",
        {
            "cells": len(grid),
            "serial_ms": round(serial_s * 1e3, 1),
            "cross_run_ms": round(cross_s * 1e3, 1),
            "cells_per_sec": round(len(grid) / cross_s, 1),
            "speedup": round(speedup, 3),
            "dispatch": dispatch,
        },
    )
    # The tentpole bar: stacking R compatible runs must at least halve
    # the serial wall time, with no pool and no extra CPUs.
    assert speedup >= 2.0, f"cross-run engine only {speedup:.2f}x over serial"


def _run_cross_run_shm(grid):
    return run_sweep(grid, workers=4, cross_run=True)


def test_sweep_cross_run_shm_vs_serial(
    benchmark, record_artifact, record_bench
):
    """EXP-PERF-SHM: zero-copy parallel cross-run on the 64-cell grid.

    ``cross_run=True`` with ``workers > 1`` auto-selects the
    shared-memory stealing pool: each worker fills a ``ShmBatchLayout``
    block in place and ships back a header plus per-run scalars, while
    idle workers steal the larger half of the heaviest victim's biggest
    pending batch.  Bit-identity with the serial sweep is asserted
    unconditionally.  The wall-clock bar -- >= 1.5x over per-cell
    serial -- applies when >= 2 usable CPUs and fork-started workers
    put the pool rung in play; on one usable CPU the backend degrades
    to the serial cross-run rung and only that auto-fallback datapoint
    is recorded (its ``dispatch`` label says which rung ran).  The
    committed numbers back the CI perf-smoke shm floor.
    """
    grid = _sweep_grid_64()
    cpus = os.cpu_count() or 1
    usable = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else cpus
    )
    fork_start = multiprocessing.get_start_method() == "fork"

    def measure():
        serial = run_sweep(grid, workers=1)
        shm = _run_cross_run_shm(grid)
        assert shm.cells == serial.cells
        serial_s = _best_of(2, run_sweep, grid, 1)
        shm_s = _best_of(2, _run_cross_run_shm, grid)
        return serial_s, shm_s, shm.dispatch

    serial_s, shm_s, dispatch = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = serial_s / shm_s
    pooled = dispatch.startswith("cross-run-shm")
    record_artifact(
        "perf_sweep_cross_run_shm",
        render_table(
            ["cells", "usable cpus", "serial ms", "shm ms", "speedup", "dispatch"],
            [
                [
                    len(grid),
                    usable,
                    f"{serial_s * 1e3:.1f}",
                    f"{shm_s * 1e3:.1f}",
                    f"{speedup:.2f}x",
                    dispatch,
                ]
            ],
            title=(
                "EXP-PERF-SHM: shared-memory cross-run pool vs per-cell "
                "serial (64 cells, lite)"
            ),
        ),
    )
    record_bench(
        "cross_run_shm",
        {
            "cells": len(grid),
            "cpus": cpus,
            "usable_cpus": usable,
            "start_method": multiprocessing.get_start_method(),
            "serial_ms": round(serial_s * 1e3, 1),
            "shm_ms": round(shm_s * 1e3, 1),
            "cells_per_sec": round(len(grid) / shm_s, 1),
            "speedup": round(speedup, 3),
            "dispatch": dispatch,
            "fallback": not pooled,
        },
    )
    # The acceptance bar needs the pool rung to actually run; the
    # degraded rungs are covered by the cross_run gate above.
    if usable >= 2 and fork_start and pooled:
        assert speedup >= 1.5, f"shm cross-run only {speedup:.2f}x over serial"


def test_cache_cold_vs_warm(benchmark, record_artifact, record_bench, tmp_path):
    """EXP-PERF-CACHE: the content-addressed cell cache on a 64-cell grid.

    A cold sweep populates the store; the warm re-run must be
    bit-identical and dramatically faster (it only decodes JSON).  The
    acceptance bar is deliberately conservative (>= 3x) so slow
    filesystems do not flake the benchmark.
    """
    grid = _sweep_grid_64()
    store = CellStore(tmp_path / "cache")

    def measure():
        cold_start = time.perf_counter()
        cold = run_sweep(grid, cache=store)
        cold_s = time.perf_counter() - cold_start
        assert store.misses == len(grid) and store.hits == 0
        warm_start = time.perf_counter()
        warm = run_sweep(grid, cache=store)
        warm_s = time.perf_counter() - warm_start
        assert store.hits == len(grid)
        assert warm == cold
        return cold_s, warm_s

    cold_s, warm_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = cold_s / warm_s
    record_artifact(
        "perf_cache",
        render_table(
            ["cells", "cold ms", "warm ms", "speedup"],
            [
                [
                    len(grid),
                    f"{cold_s * 1e3:.1f}",
                    f"{warm_s * 1e3:.1f}",
                    f"{speedup:.2f}x",
                ]
            ],
            title="EXP-PERF-CACHE: cold vs warm cell cache (64 cells, lite)",
        ),
    )
    record_bench(
        "cache_64",
        {
            "cells": len(grid),
            "cold_ms": round(cold_s * 1e3, 1),
            "warm_ms": round(warm_s * 1e3, 1),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= 3.0, f"warm cache too slow: {speedup:.2f}x"


def test_shard_merge_matches_serial(benchmark, record_artifact, tmp_path):
    """EXP-PERF-SHARD: 4-shard spill + merge vs one serial sweep.

    Shards are the multi-host building block; run in-process here, the
    datapoint is the spill/merge overhead on top of the pure cell work.
    Bit-identity of the merged result is asserted unconditionally.
    """
    grid = _sweep_grid_64()
    spill = tmp_path / "shards"

    def measure():
        serial_start = time.perf_counter()
        serial = run_sweep(grid, workers=1)
        serial_s = time.perf_counter() - serial_start
        shard_start = time.perf_counter()
        for index in range(4):
            run_sweep(grid, backend=ShardedBackend(index, 4, spill))
        merged = merge_shards(spill)
        shard_s = time.perf_counter() - shard_start
        assert merged == serial
        return serial_s, shard_s

    serial_s, shard_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_artifact(
        "perf_shard",
        render_table(
            ["cells", "shards", "serial ms", "shard+merge ms", "overhead"],
            [
                [
                    len(grid),
                    4,
                    f"{serial_s * 1e3:.1f}",
                    f"{shard_s * 1e3:.1f}",
                    f"{shard_s / serial_s:.2f}x",
                ]
            ],
            title="EXP-PERF-SHARD: sharded spill/merge vs serial (64 cells)",
        ),
    )
    # Spill + merge is bookkeeping; it must stay within 2x of pure work.
    assert shard_s <= serial_s * 2.0, f"shard overhead too high: {shard_s / serial_s:.2f}x"


def test_throughput_summary(benchmark, record_artifact, record_bench):
    """EXP-PERF: throughput by system size, full traces vs the round kernel.

    The lite column exercises the distinct-inbox round kernel; the
    large-n rows extend the curve into the paper-scale regime -- up to
    ``n = 385``, which is exactly ``n = 4f + 1`` at ``f = 96`` under
    model M1 (Table 2).  The committed numbers double as the CI
    perf-smoke baseline in ``BENCH_perf.json``.
    """

    def measure():
        rows = []
        full_rps: dict[str, float] = {}
        lite_rps: dict[str, float] = {}
        for n in (7, 13, 25, 49, 97):
            full_s = _best_of(2, run_sized, n, "full")
            lite_s = _best_of(2, run_sized, n, "lite")
            full_rps[str(n)] = ROUNDS / full_s
            lite_rps[str(n)] = ROUNDS / lite_s
            rows.append(
                [
                    n,
                    f"{ROUNDS / full_s:.0f}",
                    f"{ROUNDS / lite_s:.0f}",
                    f"{full_s / lite_s:.1f}x",
                ]
            )
        large_rows = []
        for model, f, n in (("M3", 32, 193), ("M4", 96, 289), ("M1", 96, 385)):
            lite_s = _best_of(2, run_sized, n, "lite", model, f)
            lite_rps[str(n)] = ROUNDS / lite_s
            large_rows.append(
                [model, f, n, f"{ROUNDS / lite_s:.0f}", f"{lite_s * 1e3:.1f}"]
            )
        return rows, large_rows, full_rps, lite_rps

    rows, large_rows, full_rps, lite_rps = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    record_artifact(
        "perf",
        render_table(
            ["n", "full r/s", "lite r/s", "kernel speedup"],
            rows,
            title=f"EXP-PERF: M3 simulation throughput ({ROUNDS} rounds)",
        )
        + "\n\n"
        + render_table(
            ["model", "f", "n", "lite r/s", "total ms"],
            large_rows,
            title=(
                "EXP-PERF-LARGE: paper-scale lite throughput "
                f"(n up to 4f+1 at f=96, {ROUNDS} rounds)"
            ),
        ),
    )
    record_bench(
        "throughput",
        {
            "rounds": ROUNDS,
            "model": "M3",
            "full_rounds_per_sec": {k: round(v, 1) for k, v in full_rps.items()},
            "lite_rounds_per_sec": {k: round(v, 1) for k, v in lite_rps.items()},
            "paper_scale": [
                {"model": model, "f": f, "n": n}
                for model, f, n in (("M3", 32, 193), ("M4", 96, 289), ("M1", 96, 385))
            ],
        },
    )
    assert rows and large_rows
    # Two-sided gate at n=97: lite must still beat full (the kernel
    # regression check), while full must stay within 3x of lite -- the
    # array-snapshot fix removed the 13x full-trace penalty, and a
    # return of the per-message dict bookkeeping would blow past 3x.
    assert lite_rps["97"] >= full_rps["97"], (full_rps, lite_rps)
    assert 3 * full_rps["97"] >= lite_rps["97"], (full_rps, lite_rps)
