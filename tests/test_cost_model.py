"""The static cost rule and the REPRO_CPUS pool override.

Two knobs the dispatchers steer by:

* :func:`~repro.sweep.backends._usable_cpus` -- affinity-aware CPU
  count, pinnable via the ``REPRO_CPUS`` environment variable for
  reproducible benchmarks (clamped to affinity, nonsense warned away).
* :func:`~repro.sweep.backends.estimate_cell_cost` -- the relative
  cell-cost rule (``n^2 * rounds`` times per-family and
  partial-topology factors) behind the stealing dispatcher's LPT
  seeding, and its full-budget bound behind the batch deadline.  Only
  the *ordering* of estimates matters, so the regression tests here
  pin orderings, never absolute values.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import replace

import pytest

from repro.sweep import (
    CellSpec,
    MultiprocessingBackend,
    estimate_cell_cost,
    run_cell,
    run_cell_many,
)
from repro.sweep.backends import (
    _StealingQueues,
    _cell_cost,
    _cost_bound,
    _usable_cpus,
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


class TestUsableCpusOverride:
    @pytest.fixture(autouse=True)
    def four_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.delenv("REPRO_CPUS", raising=False)

    def test_no_override_reports_affinity(self):
        assert _usable_cpus() == 4

    def test_valid_pin_is_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _usable_cpus() == 2

    def test_pin_above_affinity_clamps_with_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "8")
        with pytest.warns(RuntimeWarning, match="clamping"):
            assert _usable_cpus() == 4

    def test_non_integer_pin_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "abc")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert _usable_cpus() == 4

    def test_zero_pin_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "0")
        with pytest.warns(RuntimeWarning, match="at least 1"):
            assert _usable_cpus() == 4


class TestStaticModel:
    def test_static_ordering(self):
        cheap = cell(n=9)
        big = cell(n=33)
        # Witness under M3 keeps its own rounds (no lite declaration).
        witness = cell(model="M3", family="witness")
        partial = cell(model="M3", topology="ring:3", family="witness")
        assert estimate_cell_cost(cheap) < estimate_cell_cost(big)
        assert estimate_cell_cost(cell(model="M3")) < estimate_cell_cost(witness)
        assert estimate_cell_cost(witness) < estimate_cell_cost(partial)
        # Declared witness M2 cells stack as bonomi rows: bonomi's price.
        assert estimate_cell_cost(cell(family="witness")) == estimate_cell_cost(
            cell()
        )

    def test_partial_specs_resolving_complete_price_as_complete(self):
        # ring:3 at n=5 and ring:6 at n=13 are complete graphs: their
        # cells stack with (and cost what) complete-graph cells do.
        for n, spec in ((5, "ring:3"), (13, "ring:6")):
            complete = cell(model="M1", f=1, n=n, family="witness")
            ring = replace(complete, topology=spec)
            assert ring.stack_key == complete.stack_key
            assert estimate_cell_cost(ring) == estimate_cell_cost(complete)
        # ring:6 at n=25 stays partial and keeps the topology factor.
        complete = cell(model="M1", f=1, n=25)
        ring = replace(complete, topology="ring:6")
        assert ring.folded_family == complete.folded_family == "bonomi"
        assert _cell_cost(ring, 40) == 1.5 * _cell_cost(complete, 40)

    def test_nominal_rounds_prefer_fixed_budget(self):
        fixed = cell(rounds=7, max_rounds=90)
        assert estimate_cell_cost(fixed) == _cell_cost(fixed, 7)
        # Oracle-terminated cells price at 40 nominal rounds, capped by
        # their budget.
        oracle = cell(max_rounds=90)
        assert estimate_cell_cost(oracle) == _cell_cost(oracle, 40)
        short = cell(max_rounds=10)
        assert estimate_cell_cost(short) == _cell_cost(short, 10)

    def test_bound_prices_the_full_round_budget(self):
        fixed = cell(rounds=7, max_rounds=90)
        assert _cost_bound(fixed) == estimate_cell_cost(fixed)
        oracle = cell(model="M3", family="witness", max_rounds=90)
        assert _cost_bound(oracle) == estimate_cell_cost(oracle) * 90 / 40

    def test_bound_never_undercuts_the_estimate(self):
        # The batch deadline prices the full budget: it may never grant
        # a cell less than its nominal estimate.
        for spec in (
            cell(rounds=7, max_rounds=90),
            cell(max_rounds=90),
            cell(max_rounds=10),
            cell(model="M3", family="witness", max_rounds=90),
            cell(model="M3", topology="ring:3", family="witness"),
            cell(n=33, family="tseng"),
        ):
            assert _cost_bound(spec) >= estimate_cell_cost(spec)

    def test_batch_deadline_scales_with_cost_above_a_floor(self):
        from repro.sweep.backends import (
            _DEADLINE_FLOOR_S,
            _DEADLINE_SECONDS_PER_COST,
            _batch_deadline,
        )

        small = [cell(seed=seed) for seed in range(4)]
        assert _batch_deadline(small) == _DEADLINE_FLOOR_S
        huge = [cell(n=2000, max_rounds=10_000)]
        assert _batch_deadline(huge) == pytest.approx(
            _cost_bound(huge[0]) * _DEADLINE_SECONDS_PER_COST
        )
        assert _batch_deadline(huge) > _DEADLINE_FLOOR_S

    def test_stealing_queues_seed_the_heaviest_group_first(self):
        cells = [cell(seed=0), cell(seed=1, model="M3", family="witness", n=33)]
        groups = [[spec] for spec in cells]
        assert _StealingQueues(groups, 1).next_batch(0) == [cells[1]]


class TestElapsedFlow:
    def test_run_cell_stamps_elapsed(self):
        result = run_cell(cell())
        assert result.elapsed is not None and result.elapsed > 0

    def test_elapsed_is_not_identity(self):
        a = run_cell(cell())
        b = run_cell(cell())
        assert a == b  # elapsed is compare-excluded jitter


class TestDispatcherIntegration:
    def test_pooled_backend_steals_mixed_costs_to_run_cell_results(
        self, monkeypatch
    ):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 2)
        cells = [cell(seed=seed) for seed in range(3)] + [
            cell(seed=seed, model="M3", family="witness") for seed in range(2)
        ]
        backend = MultiprocessingBackend(2)
        results = backend.execute_many(cells, run_cell_many, dispatch="pool")
        assert backend.last_arena_stats is not None  # the pool ran them
        reference = [run_cell(spec) for spec in cells]
        assert sorted(results, key=lambda r: r.key) == sorted(
            reference, key=lambda r: r.key
        )
