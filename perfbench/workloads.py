"""The four workloads of the repository benchmark.

Every workload is a closed loop driven from one process: the next unit
(a sweep, a ``repro.simulate`` call, a ``POST /sweep``) starts only
after the previous one returned.  A *cycle* is the workload's smallest
repeating group of units; cycles are what the harness times, verifies
and alternates between traced and untraced.  ``cycle(index, tracer)``
receives the tracer only on traced cycles.

Inputs come only from the workload seed: the program receives the
generated cells and requests, nothing else.  Each workload also knows
its reference -- the per-cell serial path of the sweep engine -- and
checks every cycle's outputs against it.

Why each workload exists, and which layer metric it should move, is
recorded in :data:`WHY` and in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    CheckFailed,
    check_contraction,
    digest,
    dispatch_facts,
    require_satisfied,
    sweep_digest,
)

WHY = {
    "stacked-crossfire": (
        "M1-M4 x {crossfire, split}, f=16, n=97, 16 seeds per shape, stacked "
        "in-process: fault planning and the kernel fold, no dispatch or cache"
    ),
    "mixed-families": (
        "bonomi/tseng/witness on complete and ring:6 graphs, 2 workers on the "
        "shm stealing rung: dispatch and stateful families, little stacking"
    ),
    "serve-cache": (
        "one client of an in-process sweep daemon over overlapping seed "
        "windows: cache reads and writes, aggregation and HTTP on every tier"
    ),
    "paper-single": (
        "single repro.simulate lite runs at the Table 2 minimum n for f=32: "
        "the library's main API and the per-cell engine"
    ),
}


@dataclass
class Cycle:
    """What one cycle did, timed from outside the program."""

    #: Seconds of each unit (sweep, simulate call, request).
    unit_s: list[float]
    #: Cells (simulation runs) the cycle completed, cache hits included.
    cells: int
    #: Cells that errored plus requests that failed.
    errors: int = 0
    #: Simulation rounds the cycle executed.
    rounds: int = 0
    #: Sum of ``CellResult.elapsed`` over the cycle's sweeps.
    busy_s: float = 0.0
    #: Sweep results, for worker span totals (dropped once verified).
    sweeps: list = field(default_factory=list)
    #: Dispatch labels of the cycle's sweeps.
    dispatch: list[str] = field(default_factory=list)
    #: Dispatch facts summed over the cycle's sweeps.
    facts: dict = field(default_factory=dict)
    #: ``(client seconds, cache hits)`` of each request.
    requests: list[tuple[float, int]] = field(default_factory=list)
    #: Per serving tier, self seconds per layer of that request (traced).
    tier_layers: dict = field(default_factory=dict)
    #: Seconds of the harness's host-speed calibration after the cycle.
    calibration_s: float = 0.0
    #: Output check, run by the harness outside any timed region.
    verify: object = None


def _base_seed(seed: int, salt: str) -> int:
    return random.Random(f"{salt}:{seed}").randrange(1_000_000)


def _add_facts(total: dict, facts: dict) -> None:
    total["batches"] = total.get("batches", 0) + facts["batches"]
    total["steals"] = total.get("steals", 0) + facts["steals"]
    total["max_R"] = max(total.get("max_R", 0), facts["max_R"])


class _SweepWorkload:
    """A grid swept once per cycle through ``run_sweep(cross_run=True)``.

    ``split_by`` names cell fields: the grid is swept as one
    ``run_sweep`` call (one unit) per combination of their values, so a
    run times enough units for a p90.  ``()`` sweeps the grid whole.
    """

    workers = 1
    rung = "in-process"
    split_by: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        from repro.sweep import GridSpec

        parts: dict = {}
        for cell in GridSpec(**self.grid_axes()).cells():
            key = tuple(getattr(cell, name) for name in self.split_by)
            parts.setdefault(key, []).append(cell)
        self.parts = list(parts.values())

    def reference(self) -> None:
        from repro.sweep import run_sweep

        self.expected = []
        for part in self.parts:
            ref = run_sweep(part)
            require_satisfied(ref, f"{self.name} reference")
            for cell in ref.cells:
                check_contraction(cell.spec, cell.diameters)
            self.expected.append(sweep_digest(ref))

    def cycle(self, index: int, tracer=None) -> Cycle:
        from repro.sweep import run_sweep

        unit_s = []
        results = []
        for part in self.parts:
            start = time.perf_counter()
            results.append(run_sweep(part, workers=self.workers, cross_run=True))
            unit_s.append(time.perf_counter() - start)

        def verify() -> None:
            for result, expected in zip(results, self.expected):
                if sweep_digest(result) != expected:
                    raise CheckFailed(f"{self.name}: sweep digest differs from reference")
                require_satisfied(result, self.name)

        facts: dict = {}
        for result in results:
            _add_facts(facts, dispatch_facts(result.dispatch, self.rung))
        cells = [cell for result in results for cell in result.cells]
        return Cycle(
            unit_s=unit_s,
            cells=len(cells),
            errors=sum(len(result.errors()) for result in results),
            rounds=sum(cell.rounds for cell in cells),
            busy_s=sum(cell.elapsed for cell in cells if cell.elapsed is not None),
            sweeps=results,
            dispatch=[result.dispatch for result in results],
            facts=facts,
            verify=verify,
        )

    def close(self) -> None:
        pass


class StackedCrossfire(_SweepWorkload):
    name = "stacked-crossfire"
    # Four 32-cell sweeps (one per model, 2 stacks of R=16 each): one
    # 128-cell sweep a cycle gives too few units for a steady p90.
    split_by = ("model",)

    def grid_axes(self) -> dict:
        base = _base_seed(self.seed, self.name)
        return dict(
            models=("M1", "M2", "M3", "M4"),
            fs=(16,),
            ns=(97,),
            attacks=("crossfire", "split"),
            seeds=tuple(range(base, base + 16)),
            rounds=20,
        )


class MixedFamilies(_SweepWorkload):
    name = "mixed-families"
    workers = 2
    rung = "shm"
    # Four 24-cell sweeps ({M1, M3} x {split, outlier}), each of all
    # families and graphs: fewer, larger sweeps a cycle give too few
    # units for a steady p90.
    split_by = ("model", "attack")

    def grid_axes(self) -> dict:
        base = _base_seed(self.seed, self.name)
        # ring:6 (degree 12): on ring:3 witness M3/outlier cells error
        # and witness cells miss epsilon-agreement within 40 rounds.
        return dict(
            models=("M1", "M3"),
            fs=(2,),
            ns=(25,),
            attacks=("split", "outlier"),
            seeds=tuple(range(base, base + 6)),
            rounds=40,
            families=("bonomi", "tseng", "witness"),
            topologies=("complete", "ring:6"),
        )


def _run_digest(decisions, rounds, terminated, decision_diameter, diameters) -> str:
    """Digest of the fields a lite trace and a full-trace cell share."""
    return digest([decisions, rounds, terminated, decision_diameter, diameters])


class PaperSingle:
    """One cycle = one lite ``repro.simulate`` call per config."""

    name = "paper-single"
    rounds = 20

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        self.configs = [
            dict(
                model=model,
                f=32,
                n=None,
                algorithm="ftm",
                movement="round-robin",
                attack=attack,
                epsilon=1e-3,
                seed=rng.randrange(1_000_000),
                rounds=self.rounds,
            )
            for model in ("M1", "M2", "M3", "M4")
            for attack in ("crossfire", "split")
            for _ in range(2)
        ]

    def reference(self) -> None:
        from repro.sweep import CellSpec
        from repro.sweep.engine import run_cell

        self.expected = []
        for config in self.configs:
            cell = CellSpec(**config)
            ref = run_cell(cell, trace_detail="full")
            if not ref.satisfied:
                raise CheckFailed(f"{cell.describe()}: reference unsatisfied")
            check_contraction(cell, ref.diameters)
            self.expected.append(
                _run_digest(
                    ref.decisions,
                    ref.rounds,
                    ref.terminated,
                    ref.decision_diameter,
                    ref.diameters,
                )
            )

    def cycle(self, index: int, tracer=None) -> Cycle:
        import repro

        unit_s = []
        traces = []
        for config in self.configs:
            start = time.perf_counter()
            trace = repro.simulate(trace_detail="lite", **config)
            unit_s.append(time.perf_counter() - start)
            traces.append(trace)

        def verify() -> None:
            for config, trace, expected in zip(self.configs, traces, self.expected):
                got = _run_digest(
                    tuple(sorted(trace.decisions.items())),
                    trace.rounds_executed(),
                    trace.terminated,
                    trace.decision_diameter(),
                    tuple(trace.diameters()),
                )
                if got != expected:
                    raise CheckFailed(f"paper-single: {config} differs from reference")
                if not repro.check(trace).satisfied:
                    raise CheckFailed(f"paper-single: {config} violates the spec")

        return Cycle(
            unit_s=unit_s,
            cells=len(traces),
            rounds=sum(trace.rounds_executed() for trace in traces),
            verify=verify,
        )

    def close(self) -> None:
        pass


class ServeCache:
    """One client of an in-process ``SweepServer``.

    Cycle ``i`` moves to a fresh window of seeds and sends three
    requests: the window cold (tier ``compute``), the same window again
    (``cache``), and the window shifted by half (``mixed``).  The cache
    root is fresh per run, so every cycle sees the same tier mix.
    """

    name = "serve-cache"
    window = 6
    rounds = 20
    tiers = ("compute", "cache", "mixed")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.server = None
        self.thread = None

    def prepare(self) -> None:
        from repro.sweep import SweepServer
        from repro.sweep.service import request_json

        rng = random.Random(f"{self.name}:{self.seed}")
        self.base = rng.randrange(1_000_000)
        self.models = ("M1", "M2", "M3", "M4")
        self.attacks = ("split", "crossfire")
        self.root = self.workdir / f"cache-{rng.randrange(1 << 30):08x}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.server = SweepServer(self.root, workers=1)
        self.thread = self.server.start_background()
        if not request_json(self.server.address + "/healthz").get("ok"):
            raise CheckFailed("serve-cache: daemon unhealthy")

    def _grid(self, seeds) -> dict:
        return {
            "models": list(self.models),
            "fs": [2],
            "attacks": list(self.attacks),
            "seeds": list(seeds),
            "rounds": self.rounds,
        }

    def _windows(self, index: int) -> list[range]:
        start = self.base + index * 2 * self.window
        half = self.window // 2
        whole = range(start, start + self.window)
        return [whole, whole, range(start + half, start + half + self.window)]

    def reference(self) -> None:
        # Checked per cycle against the per-cell serial path (every third
        # cycle; the tier sequence and counts on every cycle).
        pass

    def cycle(self, index: int, tracer=None) -> Cycle:
        from repro.sweep.service import submit_sweep

        unit_s = []
        responses = []
        tier_layers: dict = {}
        for tier, seeds in zip(self.tiers, self._windows(index)):
            before = dict(tracer.totals) if tracer is not None else None
            start = time.perf_counter()
            response = submit_sweep(self.server.address, self._grid(seeds))
            unit_s.append(time.perf_counter() - start)
            responses.append(response)
            if before is not None:
                layers = tier_layers[tier] = {
                    key[len("self:"):]: value - before.get(key, 0.0)
                    for key, value in tracer.totals.items()
                    if key.startswith("self:")
                }
                layers["transport"] = unit_s[-1] - sum(layers.values())
        facts: dict = {}
        for response in responses:
            _add_facts(facts, dispatch_facts(response["dispatch"], "in-process"))

        def verify() -> None:
            tiers = tuple(response["tier"] for response in responses)
            if tiers != self.tiers:
                raise CheckFailed(f"serve-cache: tiers {tiers}, expected {self.tiers}")
            for response in responses:
                if not response["all_satisfied"] or response["errors"]:
                    raise CheckFailed(f"serve-cache: request failed: {response}")
            if index % 3 == 0:
                self._verify_against_reference(index, responses)

        return Cycle(
            unit_s=unit_s,
            cells=sum(response["cells"] for response in responses),
            errors=sum(response["errors"] for response in responses),
            rounds=self.rounds * sum(response["computed"] for response in responses),
            dispatch=[response["dispatch"] for response in responses],
            facts=facts,
            tier_layers=tier_layers,
            requests=[
                (seconds, response["cached"])
                for seconds, response in zip(unit_s, responses)
            ],
            verify=verify,
        )

    def _verify_against_reference(self, index: int, responses: list) -> None:
        from repro.sweep import GridSpec, SweepResult, run_sweep

        windows = self._windows(index)
        seeds = sorted(set(windows[0]) | set(windows[2]))
        ref = run_sweep(
            GridSpec(
                models=self.models,
                fs=(2,),
                attacks=self.attacks,
                seeds=tuple(seeds),
                rounds=self.rounds,
            )
        )
        require_satisfied(ref, "serve-cache reference")
        for cell in ref.cells:
            check_contraction(cell.spec, cell.diameters)
        for seeds, response in zip(windows, responses):
            subset = SweepResult(
                cells=tuple(cell for cell in ref.cells if cell.spec.seed in seeds)
            )
            expected = {
                "cells": len(subset),
                "satisfied": subset.satisfied_count(),
                "errors": 0,
                "summary": [[str(v) for v in row] for row in subset.summary_rows()],
            }
            got = {key: response[key] for key in expected}
            if got != expected:
                raise CheckFailed(
                    f"serve-cache: response for seeds {seeds} differs from "
                    f"the per-cell serial reference: {got} != {expected}"
                )

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.server = None


WORKLOADS = {
    cls.name: cls for cls in (StackedCrossfire, MixedFamilies, ServeCache, PaperSingle)
}
