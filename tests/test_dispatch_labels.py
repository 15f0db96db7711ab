"""Dispatch-label round-tripping: every backend label parses structurally.

Backends advertise how a sweep actually ran through the free-text
``SweepResult.dispatch`` label.  CI scripts and the telemetry layer key
off those strings, so the grammar is load-bearing: this suite pins down
``parse_dispatch_label`` for every label family the backends can emit
(``serial``, ``cross-run(...)``,
``cross-run-shm(..., steals=S)``) and then harvests
labels from real small sweeps to prove the parser and the backends
never drift apart.
"""

from __future__ import annotations

import warnings

import pytest

from tests.helpers import small_grid

from repro.sweep import MultiprocessingBackend, run_sweep
from repro.telemetry import parse_dispatch_label


class TestPlainLabels:
    def test_serial(self):
        rec = parse_dispatch_label("serial")
        assert rec.mode == "serial"
        assert not rec.pooled and not rec.cross_run


class TestCrossRunLabels:
    def test_in_process(self):
        rec = parse_dispatch_label("cross-run(6 batches, max R=16)")
        assert rec.cross_run
        assert rec.mode == "serial"
        assert not rec.pooled
        assert rec.batches == 6
        assert rec.max_r == 16
        assert rec.rung is None

    def test_pooled_legacy(self):
        rec = parse_dispatch_label("cross-run(6 batches, max R=16, parallel)")
        assert rec.cross_run and rec.pooled
        assert rec.mode == "parallel"

    def test_shm_rung(self):
        rec = parse_dispatch_label(
            "cross-run-shm(4 batches, max R=8, steals=2)"
        )
        assert rec.cross_run and rec.pooled
        assert rec.rung == "shm"
        assert rec.batches == 4
        assert rec.max_r == 8
        assert rec.steals == 2

    def test_pickle_rung(self):
        rec = parse_dispatch_label(
            "cross-run-pickle(4 batches, max R=8, steals=0)"
        )
        assert rec.rung == "pickle"
        assert rec.steals == 0


class TestRejections:
    @pytest.mark.parametrize(
        "label",
        [
            "",
            "quantum",
            "cross-run(batches)",
            "parallel (because reasons)",
            # Retired per-cell pool labels and their qualifiers.
            "parallel",
            "parallel (forced)",
            "parallel (forced on 1 usable cpu)",
            "serial (forced)",
            "serial (auto-fallback: 4 workers on 1 usable cpu)",
            "sharded(parallel (forced))",
            # Retired shard labels: shards now run on the plain backends.
            "sharded(serial)",
            "sharded(cross-run-shm(2 batches, max R=4, steals=1))",
            "sharded-merge",
            "cross-run-mmap(1 batches, max R=1, steals=0)",
            # Retired packagings: in-worker batches and the async queue.
            "batched-serial",
            "async-serial",
        ],
    )
    def test_unknown_labels_raise(self, label):
        with pytest.raises(ValueError):
            parse_dispatch_label(label)

    def test_non_string_rejected(self):
        with pytest.raises(ValueError):
            parse_dispatch_label(None)


class TestHarvestedLabels:
    """Labels emitted by real sweeps must parse — backends cannot drift."""

    @pytest.fixture(scope="class")
    def grid(self):
        return small_grid()

    @pytest.mark.parametrize(
        "kwargs, expectation",
        [
            ({"dispatch": "serial"}, {"mode": "serial"}),
            ({"workers": 1}, {"mode": "serial"}),
            ({"cross_run": True}, {"cross_run": True}),
            (
                {"workers": 2, "dispatch": "pool"},
                {"pooled": True, "cross_run": True},
            ),
            (
                {"backend": MultiprocessingBackend(2), "dispatch": "pool"},
                {"pooled": True, "cross_run": True},
            ),
        ],
    )
    def test_live_label_parses(self, grid, kwargs, expectation):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_sweep(grid, **kwargs)
        rec = parse_dispatch_label(result.dispatch)
        for attr, value in expectation.items():
            assert getattr(rec, attr) == value, result.dispatch

    def test_live_shm_label_parses(self, grid, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_sweep(grid, workers=2, dispatch="pool")
        rec = parse_dispatch_label(result.dispatch)
        assert rec.cross_run and rec.pooled
        assert rec.rung in {"shm", "pickle"}
        assert rec.steals is not None
