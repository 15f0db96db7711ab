#!/usr/bin/env python3
"""Perf gate: perfbench on a base checkout and on this one, side by side.

Run from the root of the checkout under test::

    python benchmarks/perf_gate.py BASE_DIR WORKLOAD

``BASE_DIR`` is a second checkout of the commit to compare against (in
CI a ``git worktree`` of the pull request's base).  Each side runs its
own ``perfbench/run.py --trace 0`` from its own root, so each imports
its own ``src/``.  The runs come in ``PAIRS`` pairs: both runs of a pair
use one seed, and the side that runs first alternates between pairs so
slow drift of the host hits both sides alike.

The gate fails when any run is not ``"correct": true``, when the
change's failed share (``failed / attempted``) exceeds the base's, or
when, for any ``end_to_end`` metric of ``BENCHMARK.json``, the change's
median is worse than the base's by more than that metric's ``bound``
(``better`` gives the direction).  It prints one row per metric and
exits 0 on pass, 1 on fail.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: Alternating base/change pairs per workload.
PAIRS = 5
#: ``--seconds`` of every perfbench run.
SECONDS = 10
#: Seed of the first pair; pair ``k`` uses ``FIRST_SEED + k``.
FIRST_SEED = 1


def load_end_to_end() -> list[dict]:
    """The ``end_to_end`` metric entries of ``BENCHMARK.json``."""
    return json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]


def perfbench(root: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run in ``root``; its result object.

    A run that prints no result (a crash, an unknown workload) counts
    as one incorrect, failed attempt.
    """
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(SECONDS),
            "--trace",
            "0",
        ],
        cwd=root,
        capture_output=True,
        text=True,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / max(attempted, 1)


def _median(runs: list[dict], name: str) -> float | None:
    values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
    return statistics.median(values) if values else None


def compare(
    base: list[dict], change: list[dict], end_to_end: list[dict]
) -> tuple[list[list[str]], list[str]]:
    """Rows of the report and the gate's failures (empty on pass).

    ``base`` and ``change`` are perfbench result objects; a metric's
    relative change is signed so that positive is worse.
    """
    failures = [
        f"{side} run {index} is not correct"
        for side, runs in (("base", base), ("change", change))
        for index, run in enumerate(runs)
        if run.get("correct") is not True
    ]
    base_share, change_share = _failed_share(base), _failed_share(change)
    if change_share > base_share:
        failures.append(
            f"failed share rose: {base_share:.4f} -> {change_share:.4f}"
        )
    rows = [
        ["failed share", "", f"{base_share:.4f}", f"{change_share:.4f}", "", "0", ""]
    ]
    for entry in end_to_end:
        name, unit, bound = entry["name"], entry["unit"], float(entry["bound"])
        base_value, change_value = _median(base, name), _median(change, name)
        if base_value is None or change_value is None:
            failures.append(f"{name}: missing from a side's runs")
            rows.append([name, unit, str(base_value), str(change_value), "", "", "FAIL"])
            continue
        worse = (change_value - base_value) / base_value
        if entry["better"] == "higher":
            worse = -worse
        if worse > bound:
            failures.append(
                f"{name}: median {base_value:.4g} -> {change_value:.4g} "
                f"is {worse:.1%} worse (bound {bound:.0%})"
            )
        rows.append(
            [
                name,
                unit,
                f"{base_value:.4g}",
                f"{change_value:.4g}",
                f"{worse:+.1%}",
                f"{bound:.2f}",
                "FAIL" if worse > bound else "ok",
            ]
        )
    return rows, failures


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_root, workload = Path(args[0]).resolve(), args[1]
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    roots = {"base": base_root, "change": REPO}
    for pair in range(PAIRS):
        seed = FIRST_SEED + pair
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result = perfbench(roots[side], workload, seed)
            runs[side].append(result)
            cells = result["metrics"].get("cells_per_s", {}).get("value")
            print(
                f"pair {pair} seed {seed} {side}: correct={result['correct']} "
                f"cells_per_s={cells}",
                flush=True,
            )
    rows, failures = compare(runs["base"], runs["change"], load_end_to_end())
    header = ["metric", "unit", "base median", "change median", "worse by", "bound", ""]
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    for failure in failures:
        print(f"PERF-GATE FAIL ({workload}): {failure}", file=sys.stderr)
    if not failures:
        print(f"perf-gate {workload}: ok ({PAIRS} pairs, {SECONDS}s runs)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
