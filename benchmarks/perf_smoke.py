#!/usr/bin/env python
"""Perf smoke: same-process speed bars that need no committed number.

Every bar compares two paths of the library timed in this process, on
this host, and asserts that both compute the same results:

* **lite vs full traces** -- at ``n`` in {16, 25, 33, 49, 97} the lite
  fast path never loses to full traces, and full traces stay within 4x
  of lite (3x at ``n = 97``): a return of per-message dict bookkeeping
  blows past that.
* **recipient camps** -- the sender-dependent crossfire attack planned
  through recipient camps is >= 2x faster than with every agent's
  outbox materialized (M1, ``n = 385``, ``f = 96``); M3's planted
  queues through camps are >= 1.5x faster (``n = 193``, ``f = 32``).
* **cross-run engine** -- the stacked ``(R, n)`` engine on the 64-cell
  grid is >= 2x faster than per-cell serial, on any CPU count.
* **shm cross-run pool** -- with >= 2 usable CPUs, fork workers and the
  shm rung actually selected, the pool is >= 1.5x faster than per-cell
  serial; otherwise it is timed as a datapoint only.
* **telemetry overhead** -- the always-on metrics path costs <= 5% over
  a metrics-disabled sweep, by the median of 15 paired per-repetition
  on/off ratios; a fully traced sweep is a datapoint only.

Throughput against the parent commit is ``perf_gate.py``'s job.  This
script reads and writes no file of the repository.  Run from the
repository root::

    PYTHONPATH=src python benchmarks/perf_smoke.py
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import mobile_config  # noqa: E402
from repro.faults.value_strategies import CrossfireAttack  # noqa: E402
from repro.runtime import run_simulation  # noqa: E402
from repro.sweep import GridSpec, run_sweep  # noqa: E402
from repro.telemetry import parse_dispatch_label, set_metrics_enabled  # noqa: E402

ROUNDS = 20
#: n -> the largest full-trace / lite-trace time ratio allowed.
FULL_OVER_LITE_BAR = {16: 4.0, 25: 4.0, 33: 4.0, 49: 4.0, 97: 3.0}
#: The always-on metrics path may cost at most this much over a
#: metrics-disabled sweep.
TELEMETRY_OVERHEAD_BAR_PCT = 5.0

#: The 64-cell grid: 4 scenario shapes x 16 seeds, heavy enough
#: (n=33, 60 rounds) that a sweep measures cell work, not start-up.
GRID_64 = GridSpec(
    models=("M2", "M3"),
    fs=(3,),
    ns=(33,),
    algorithms=("ftm",),
    movements=("round-robin",),
    attacks=("split", "outlier"),
    seeds=tuple(range(16)),
    rounds=60,
)


class DictCrossfire(CrossfireAttack):
    """Crossfire with recipient camps off: every outbox materialized."""

    def attack_camps(self, view, sender):
        return None


class DictPlantedCrossfire(CrossfireAttack):
    """Crossfire with M3's planted-queue camps off."""

    def planted_camps(self, view, sender):
        return None


def _best_of(repeats: int, fn, *args) -> float:
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _simulate(n, detail="lite", model="M3", f=None, attack="split"):
    config = mobile_config(
        model=model,
        f=max(1, (n - 1) // 6) if f is None else f,
        n=n,
        algorithm="ftm",
        movement="round-robin",
        attack=attack,
        rounds=ROUNDS,
        seed=0,
    )
    return run_simulation(config, trace_detail=detail)


def _same_runs(a, b) -> bool:
    return a.decisions == b.decisions and a.diameters() == b.diameters()


def lite_vs_full(failures: list[str]) -> None:
    for n, bar in FULL_OVER_LITE_BAR.items():
        if not _same_runs(_simulate(n, "full"), _simulate(n, "lite")):
            failures.append(f"lite and full traces differ at n={n}")
        # A run takes a few ms: best of 9, or one scheduler hiccup can
        # decide the 1.0x bar.
        full_s = _best_of(9, _simulate, n, "full")
        lite_s = _best_of(9, _simulate, n, "lite")
        ratio = full_s / lite_s
        print(
            f"lite vs full n={n}: full {full_s * 1e3:.1f}ms, "
            f"lite {lite_s * 1e3:.1f}ms ({ratio:.2f}x, bar 1.0-{bar:.0f}x)"
        )
        if ratio < 1.0:
            failures.append(f"lite traces lost to full traces at n={n}: {ratio:.2f}x")
        if ratio > bar:
            failures.append(
                f"full traces {ratio:.2f}x slower than lite at n={n} "
                f"(bar {bar:.0f}x; dict bookkeeping is back?)"
            )


def camps(failures: list[str]) -> None:
    for name, model, f, n, without, bar in (
        ("recipient camps", "M1", 96, 385, DictCrossfire, 2.0),
        ("M3 planted camps", "M3", 32, 193, DictPlantedCrossfire, 1.5),
    ):
        def run(attack):
            return _simulate(n, model=model, f=f, attack=attack)

        if not _same_runs(run(CrossfireAttack()), run(without())):
            failures.append(f"{name}: results differ from materialized outboxes")
        camps_s = _best_of(3, lambda: run(CrossfireAttack()))
        dict_s = _best_of(3, lambda: run(without()))
        speedup = dict_s / camps_s
        print(
            f"{name} ({model}, n={n}, f={f}): camps {camps_s * 1e3:.1f}ms, "
            f"outboxes {dict_s * 1e3:.1f}ms ({speedup:.2f}x, bar {bar}x)"
        )
        if speedup < bar:
            failures.append(f"{name} only {speedup:.2f}x faster (bar {bar}x)")


def sweeps(failures: list[str]) -> None:
    grid = GRID_64
    start_method = multiprocessing.get_start_method()
    serial = run_sweep(grid, workers=1)
    serial_s = _best_of(2, run_sweep, grid, 1)
    print(
        f"64-cell grid ({os.cpu_count()} cpus, {start_method} start): "
        f"serial {serial_s * 1e3:.0f}ms"
    )

    # Stacking is pure numpy batching with no processes to overlap, so
    # its win must hold on any CPU count.
    cross_result = run_sweep(grid, cross_run=True)
    if cross_result.cells != serial.cells:
        failures.append("cross-run sweep results differ from serial results")
    cross_s = _best_of(2, lambda: run_sweep(grid, cross_run=True))
    cross_speedup = serial_s / cross_s
    print(
        f"cross-run: {cross_s * 1e3:.0f}ms ({cross_speedup:.2f}x over serial, "
        f"bar 2x; dispatch: {cross_result.dispatch})"
    )
    if cross_speedup < 2.0:
        failures.append(
            f"cross-run sweep only {cross_speedup:.2f}x over per-cell serial "
            "(bar 2x)"
        )

    shm_result = run_sweep(grid, workers=4, cross_run=True)
    if shm_result.cells != serial.cells:
        failures.append("shm cross-run results differ from serial results")
    shm_s = _best_of(2, lambda: run_sweep(grid, workers=4, cross_run=True))
    shm_speedup = serial_s / shm_s
    usable = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    print(
        f"shm cross-run 4-worker: {shm_s * 1e3:.0f}ms ({shm_speedup:.2f}x over "
        f"serial; dispatch: {shm_result.dispatch})"
    )
    pooled = parse_dispatch_label(shm_result.dispatch).rung == "shm"
    if usable >= 2 and start_method == "fork" and pooled:
        if shm_speedup < 1.5:
            failures.append(
                f"shm cross-run pool only {shm_speedup:.2f}x over serial on "
                f"{usable} usable cpus (bar 1.5x)"
            )
    else:
        print(
            "shm bar skipped: needs >= 2 usable CPUs, fork workers and the "
            "shm rung"
        )

    # Each of 15 repetitions times one sweep per arm back to back (the
    # first arm alternating), so a slow spell of the host lands on both
    # sides of that repetition's on/off ratio; the median ratio then
    # drops the repetitions a spell hit unevenly.
    off_times: list[float] = []
    on_times: list[float] = []
    for repetition in range(15):
        for metrics_on in (False, True) if repetition % 2 == 0 else (True, False):
            previous = set_metrics_enabled(metrics_on)
            try:
                elapsed = _best_of(1, run_sweep, grid, 1)
            finally:
                set_metrics_enabled(previous)
            (on_times if metrics_on else off_times).append(elapsed)
    ratio = statistics.median(on / off for on, off in zip(on_times, off_times))
    overhead_pct = max((ratio - 1.0) * 100.0, 0.0)
    metrics_off_s = statistics.median(off_times)
    metrics_on_s = statistics.median(on_times)
    with tempfile.TemporaryDirectory() as trace_dir:
        traced_result = run_sweep(grid, telemetry=trace_dir)
        traced_s = _best_of(2, lambda: run_sweep(grid, telemetry=trace_dir))
    if traced_result.cells != serial.cells:
        failures.append("traced sweep results differ from serial results")
    print(
        f"telemetry: metrics off {metrics_off_s * 1e3:.0f}ms, on "
        f"{metrics_on_s * 1e3:.0f}ms (medians; +{overhead_pct:.1f}% by the "
        f"median paired ratio, bar {TELEMETRY_OVERHEAD_BAR_PCT:.0f}%); "
        f"traced {traced_s * 1e3:.0f}ms"
    )
    if overhead_pct > TELEMETRY_OVERHEAD_BAR_PCT:
        failures.append(
            f"always-on metrics overhead {overhead_pct:.1f}% exceeds the "
            f"{TELEMETRY_OVERHEAD_BAR_PCT:.0f}% bar"
        )


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    failures: list[str] = []
    lite_vs_full(failures)
    camps(failures)
    sweeps(failures)
    for failure in failures:
        print(f"PERF-SMOKE FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("perf-smoke: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
