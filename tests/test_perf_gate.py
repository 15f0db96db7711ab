"""The perf gate's comparison (``benchmarks/perf_gate.py``).

Synthetic perfbench results are compared under the real
``BENCHMARK.json`` bounds: the gate must pass identical runs and fail
each kind of regression it exists to catch.
"""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", ROOT / "benchmarks" / "perf_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def end_to_end(gate):
    return gate.load_end_to_end()


def run(**overrides) -> dict:
    metrics = {
        "cells_per_s": 330.0,
        "unit_ms_p50": 3.0,
        "unit_ms_p90": 3.9,
        "peak_rss_mb": 57.0,
        "setup_s": 0.3,
    }
    result = {"correct": True, "attempted": 1000, "failed": 0}
    for name, value in overrides.items():
        if name in metrics:
            metrics[name] = value
        else:
            result[name] = value
    result["metrics"] = {
        name: {"value": value, "unit": ""} for name, value in metrics.items()
    }
    return result


def test_bounds_read_from_benchmark_json(end_to_end):
    bounds = {entry["name"]: entry["bound"] for entry in end_to_end}
    assert bounds["cells_per_s"] == 0.25
    assert bounds["peak_rss_mb"] == 0.1


def test_identical_runs_pass(gate, end_to_end):
    base = [run() for _ in range(5)]
    rows, failures = gate.compare(base, copy.deepcopy(base), end_to_end)
    assert failures == []
    assert len(rows) == 1 + len(end_to_end)


@pytest.mark.parametrize("factor, passes", [(0.9, True), (0.7, False)])
def test_cells_per_s_drop(gate, end_to_end, factor, passes):
    base = [run() for _ in range(5)]
    change = [run(cells_per_s=330.0 * factor) for _ in range(5)]
    _, failures = gate.compare(base, change, end_to_end)
    assert (failures == []) is passes
    if not passes:
        assert [f for f in failures if f.startswith("cells_per_s")]


def test_peak_rss_rise_fails(gate, end_to_end):
    base = [run() for _ in range(5)]
    change = [run(peak_rss_mb=57.0 * 1.12) for _ in range(5)]
    _, failures = gate.compare(base, change, end_to_end)
    assert len(failures) == 1 and failures[0].startswith("peak_rss_mb")


def test_incorrect_run_fails(gate, end_to_end):
    base = [run() for _ in range(5)]
    change = [run() for _ in range(4)] + [run(correct=False)]
    _, failures = gate.compare(base, change, end_to_end)
    assert failures == ["change run 4 is not correct"]


def test_higher_failed_share_fails(gate, end_to_end):
    base = [run() for _ in range(5)]
    change = [run() for _ in range(4)] + [run(failed=1)]
    _, failures = gate.compare(base, change, end_to_end)
    assert len(failures) == 1 and failures[0].startswith("failed share rose")
