#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stacked-crossfire --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics (see ``layers.py``).  Every cycle's outputs are
checked against the per-cell serial path; a failed check, a dispatch
that fell off the expected rung, or (traced) layers that do not sum to
the traced wall time within 10% fail the run.

Timings are reported at a reference host speed: after every cycle the
harness times a fixed calibration (:func:`calibrate`) and scales the
cycle's times by ``CALIBRATION_REF_S / calibration``.  On a shared host
interference slows the whole machine for seconds to minutes at a time;
the calibration slows with it, while a change to the program does not
move it.  The unscaled figures are printed on the line before the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the host fingerprint and the facts behind the numbers.
Working files go to ``.perfbench-work/`` in the checkout and are removed
on exit.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Fewest measured cycles, however long they take.
MIN_CYCLES = 6
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 9
#: :func:`calibrate` seconds on a quiet host (2 vCPUs at 2.1 GHz,
#: Python 3.11.7, numpy 2.4.6): timings are scaled to this speed.
CALIBRATION_REF_S = 0.0118
UNITS = {"cells_per_s": "1/s", "unit_ms_p50": "ms", "unit_ms_p90": "ms"}
#: Largest share of the traced wall time the layers may leave unattributed.
COVERAGE_TOLERANCE = 0.10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (``q`` a multiple of 10)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median set-up time over fresh interpreters (imports included),
    each scaled by a calibration the probe takes right after it."""
    samples = []
    for k in range(SETUP_REPEATS):
        probe = subprocess.run(
            [
                sys.executable,
                str(HERE / "setup_probe.py"),
                workload,
                str(seed),
                str(workdir / f"setup-{k}"),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, calibration = map(float, probe.stdout.split()[-2:])
        samples.append(elapsed * CALIBRATION_REF_S / calibration)
    return statistics.median(samples)


def child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.append(int(entry.name))
    return pids


def reap_children() -> None:
    """Stop every process the program started and wait for each to end.

    Pools join their own workers, but ``multiprocessing.shared_memory``
    starts a resource-tracker process that would outlive this one (as
    would a fork server); anything else still running is killed.
    """
    if "multiprocessing" in sys.modules:
        import multiprocessing
        from multiprocessing import forkserver, resource_tracker

        resource_tracker._resource_tracker._stop()
        forkserver._forkserver._stop()
        multiprocessing.active_children()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def calibrate() -> float:
    """Seconds of a fixed mix of interpreter and numpy work (host speed)."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i % 7
    counts: dict = {}
    for i in range(30_000):
        counts[i % 997] = counts.get(i % 997, 0) + 1
    rows = np.random.default_rng(0).random((16, 97))
    for _ in range(100):
        np.sort(rows, axis=1).min(axis=1)
    return time.perf_counter() - start


class Harness:
    """Runs cycles of one workload, verifying each outside its timing."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.index = 0

    def one(self, traced: bool):
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            cycle = self.workload.cycle(self.index, self.tracer if traced else None)
        finally:
            wall = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        self.index += 1
        cycle.calibration_s = calibrate()
        if traced:
            for sweep in cycle.sweeps:
                self.tracer.absorb(sweep.cells)
        cycle.verify()
        # Keep only the cycle's figures: holding every result would grow
        # the process and show up in peak_rss_mb.
        cycle.sweeps = []
        cycle.verify = None
        return cycle, wall

    def loop(self, seconds: float, traced: bool):
        """Cycles for ``seconds``; traced runs alternate U/T, T/U pairs."""
        plain, tracedcycles = [], []
        deadline = time.perf_counter() + seconds
        pair = 0
        while True:
            order = (False, True) if pair % 2 == 0 else (True, False)
            for flag in order if traced else (False,):
                cycle, wall = self.one(flag)
                (tracedcycles if flag else plain).append((cycle, wall))
            pair += 1
            enough = min(len(plain), len(tracedcycles) if traced else len(plain))
            if time.perf_counter() >= deadline and enough >= MIN_CYCLES:
                return plain, tracedcycles


def unit_figures(cycles, normalize: bool = True) -> dict:
    """Median and p90 unit latency (ms) and median cycle throughput.

    With ``normalize``, each cycle's times are scaled to the reference
    host speed by the calibration measured right after the cycle: on a
    shared host, interference slows the whole machine for seconds to
    minutes at a time, and the fixed calibration slows with it.
    """
    def scale(cycle):
        return CALIBRATION_REF_S / cycle.calibration_s if normalize else 1.0

    units_ms = [s * 1000.0 * scale(c) for c in cycles for s in c.unit_s]
    return {
        "cells_per_s": statistics.median(
            c.cells / (sum(c.unit_s) * scale(c)) for c in cycles
        ),
        "unit_ms_p50": statistics.median(units_ms),
        "unit_ms_p90": quantile(units_ms, 90),
    }


def per_layer(tracer, plain, traced, workers: int) -> tuple[dict, list[str]]:
    """Per-layer metrics, per traced cycle, plus the failed coverage checks."""
    t = tracer.get
    n = len(traced)
    wall = sum(w for _, w in traced)
    untraced_wall = sum(w for _, w in plain)
    selfs = tracer.layer_self()
    worker_self = sum(v for k, v in tracer.totals.items() if k.startswith("worker:"))
    parent_self = sum(selfs.values()) - worker_self
    sim_incl = t("incl:simulator.run_simulation") + t("incl:simulator.simulate_many")
    dispatch_wall = t("incl:backends.execute_many")
    busy = sum(cycle.busy_s for cycle, _ in traced)
    requests = [r for cycle, _ in traced for r in cycle.requests]
    # Client time outside handle_sweep: the HTTP layer, which no span covers.
    transport = (
        sum(s for s, _ in requests) - t("incl:service.handle_sweep") if requests else 0.0
    )
    loads = t("calls:cache.load")
    facts = [cycle.facts for cycle, _ in traced if cycle.facts]

    def share(part, whole):
        return part / whole if whole > 0 else 0.0

    values = {
        "controllers.plan_s": (selfs.get("controllers", 0.0) / n, "s"),
        "controllers.plan_calls": (
            (t("calls:controllers.plan_many") + t("calls:controllers.plan_round")) / n,
            "count",
        ),
        "controllers.plan_share": (share(selfs.get("controllers", 0.0), sim_incl), "share"),
        "kernel.fold_s": (selfs.get("kernel", 0.0) / n, "s"),
        "kernel.calls": (
            sum(v for k, v in tracer.totals.items() if k.startswith("calls:kernel.")) / n,
            "count",
        ),
        "kernel.share": (share(selfs.get("kernel", 0.0), sim_incl), "share"),
        "simulator.self_s": (selfs.get("simulator", 0.0) / n, "s"),
        "simulator.rounds": (sum(c.rounds for c, _ in traced) / n, "count"),
        "simulator.stacked_share": (share(t("stacked_runs"), t("runs")), "share"),
        "families.round_s": (selfs.get("families", 0.0) / n, "s"),
        "families.rounds": (t("calls:families.run_round") / n, "count"),
        "backends.self_s": (selfs.get("backends", 0.0) / n, "s"),
        "backends.worker_busy_s": (busy / n, "s"),
        "backends.idle_share": (
            1.0 - share(busy, workers * dispatch_wall) if busy else 0.0,
            "share",
        ),
        "backends.batches": (sum(f["batches"] for f in facts) / n, "count"),
        "backends.max_R": (max((f["max_R"] for f in facts), default=0), "count"),
        "backends.steals": (sum(f["steals"] for f in facts) / n, "count"),
        "cache.load_s": (t("incl:cache.load") / n, "s"),
        "cache.loads": (loads / n, "count"),
        "cache.save_s": (t("incl:cache.save") / n, "s"),
        "cache.saves": (t("calls:cache.save") / n, "count"),
        "cache.hit_ratio": (share(sum(hits for _, hits in requests), loads), "share"),
        "aggregate.s": (selfs.get("aggregate", 0.0) / n, "s"),
        "service.handle_s": (selfs.get("service", 0.0) / n, "s"),
        "service.transport_s": (transport / n, "s"),
        "engine.self_s": (selfs.get("engine", 0.0) / n, "s"),
        "engine.cells": (sum(c.cells for c, _ in traced) / n, "count"),
        "engine.errors": (sum(c.errors for c, _ in traced) / n, "count"),
        "api.self_s": (selfs.get("api", 0.0) / n, "s"),
        "telemetry.trace_overhead_share": (share(wall, untraced_wall) - 1.0, "share"),
        "telemetry.unattributed_share": (
            1.0 - share(parent_self + transport, wall),
            "share",
        ),
    }
    failures = []
    unattributed = values["telemetry.unattributed_share"][0]
    if abs(unattributed) > COVERAGE_TOLERANCE:
        failures.append(
            f"layers leave {unattributed:.1%} of the traced wall time unattributed"
        )
    if workers > 1 and worker_self < (1.0 - COVERAGE_TOLERANCE) * busy:
        failures.append(
            f"worker spans cover {worker_self:.3f} s of {busy:.3f} s worker busy time"
        )
    return (
        {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
        failures,
    )


def layer_report(metrics: dict, traced) -> str:
    """Per-layer table, plus each serving tier's layer shares if any."""
    rows = ["per-layer, per traced cycle:"] + [
        f"  {name:32s} {entry['value']:14.6f} {entry['unit']}"
        for name, entry in metrics.items()
    ]
    tiers: dict = {}
    for cycle, _ in traced:
        for tier, layers in cycle.tier_layers.items():
            total = tiers.setdefault(tier, {})
            for layer, seconds in layers.items():
                total[layer] = total.get(layer, 0.0) + seconds
    for tier, layers in tiers.items():
        whole = sum(layers.values())
        shares = ", ".join(
            f"{layer} {seconds / whole:.1%}"
            for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])
        )
        rows.append(f"  {tier} requests: {shares}")
    return "\n".join(rows)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro in the working directory; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))

    from workloads import WHY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    workdir = root / ".perfbench-work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")
    try:
        return run(args, workdir, WORKLOADS[args.workload], WHY[args.workload])
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / ".perfbench-work").rmdir()
        except OSError:
            pass


def run(args, workdir: Path, workload_cls, why: str) -> int:
    from checks import CheckFailed, host_fingerprint
    from layers import Tracer

    workload = workload_cls(args.seed, workdir)
    tracer = Tracer() if args.trace else None
    harness = Harness(workload, tracer)
    failures: list[str] = []
    plain = traced = []
    raw = None
    try:
        workload.prepare()
        workload.reference()
        harness.one(False)  # warm-up: lazy imports, numpy, page cache
        plain, traced = harness.loop(args.seconds, bool(args.trace))
    except CheckFailed as exc:
        failures.append(str(exc))
    finally:
        workload.close()
    measured = plain + traced
    attempted = sum(cycle.cells for cycle, _ in measured)
    failed = sum(cycle.errors for cycle, _ in measured)
    metrics: dict = {}
    if not failures:
        if args.trace:
            metrics, failures = per_layer(
                tracer, plain, traced, getattr(workload, "workers", 1)
            )
            print(layer_report(metrics, traced), file=sys.stderr)
        else:
            # Read before the set-up probes, which are child processes too.
            rss = peak_rss_mb()
            cycles = [cycle for cycle, _ in plain]
            raw = unit_figures(cycles, normalize=False)
            metrics = {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in unit_figures(cycles).items()
            }
            metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
            metrics["setup_s"] = {
                "value": setup_seconds(args.workload, args.seed, workdir),
                "unit": "s",
            }
    for failure in failures:
        print(f"perfbench: CHECK FAILED: {failure}", file=sys.stderr)
    correct = not failures and failed == 0
    print(
        json.dumps(
            {
                "workload": args.workload,
                "why": why,
                "seed": args.seed,
                "host": host_fingerprint(),
                "cycles": {"untraced": len(plain), "traced": len(traced)},
                "dispatch": sorted({d for cycle, _ in measured for d in cycle.dispatch}),
                "checks": failures or "passed",
                "raw_timings": raw,
                "calibration_s": statistics.median(
                    cycle.calibration_s for cycle, _ in measured
                ) if measured else None,
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
