"""Cost-model calibration and the REPRO_CPUS pool override.

Two knobs the dispatchers steer by:

* :func:`~repro.sweep.backends._usable_cpus` -- affinity-aware CPU
  count, pinnable via the ``REPRO_CPUS`` environment variable for
  reproducible benchmarks (clamped to affinity, nonsense warned away).
* :class:`~repro.sweep.backends.CostModel` -- the relative cell-cost
  estimator.  Static weights are folklore (``n^2 * rounds`` times
  per-family factors); :meth:`CostModel.fit` replaces them with rates
  measured from a :class:`~repro.sweep.SweepJournal`'s recorded
  per-cell timings, falling back to the static model whenever the
  evidence is too thin.  Only the *ordering* of estimates matters, so
  the regression tests here pin orderings, never absolute values.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.sweep import (
    CellSpec,
    CostModel,
    GridSpec,
    ShmCrossRunBackend,
    SweepJournal,
    estimate_cell_cost,
    run_cell,
    run_cell_many,
    run_sweep,
)
from repro.sweep.backends import (
    _STATIC_COST_MODEL,
    _StealingQueues,
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


def observation(spec, seconds, rounds=20, error=None):
    """A (result, seconds) pair shaped like SweepJournal.observations()."""
    return SimpleNamespace(spec=spec, rounds=rounds, error=error), seconds


class FakeJournal:
    def __init__(self, observations):
        self.obs = list(observations)

    def observations(self):
        yield from self.obs


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
    def test_estimate_cell_cost_delegates_to_static_model(self):
        spec = cell(family="witness", topology="ring:3")
        assert estimate_cell_cost(spec) == _STATIC_COST_MODEL.estimate(spec)
        assert estimate_cell_cost(spec) == CostModel().estimate(spec)

    def test_static_ordering(self):
        model = CostModel()
        assert not model.calibrated
        cheap = cell(n=9)
        big = cell(n=33)
        # Witness under M3 keeps its own rounds (no lite declaration).
        witness = cell(model="M3", family="witness")
        partial = cell(model="M3", topology="ring:3", family="witness")
        assert model.estimate(cheap) < model.estimate(big)
        assert model.estimate(cell(model="M3")) < model.estimate(witness)
        assert model.estimate(witness) < model.estimate(partial)
        # Declared witness M2 cells stack as bonomi rows: bonomi's price.
        assert model.estimate(cell(family="witness")) == model.estimate(cell())
        assert "static" in model.describe()

    def test_partial_specs_resolving_complete_price_as_complete(self):
        model = CostModel()
        # ring:3 at n=5 and ring:6 at n=13 are complete graphs: their
        # cells stack with (and cost what) complete-graph cells do.
        for n, spec in ((5, "ring:3"), (13, "ring:6")):
            complete = cell(model="M1", f=1, n=n, family="witness")
            ring = replace(complete, topology=spec)
            assert ring.stack_key == complete.stack_key
            assert model.estimate(ring) == model.estimate(complete)
        # ring:6 at n=25 stays partial and keeps the topology factor.
        complete = cell(model="M1", f=1, n=25, family="witness")
        ring = replace(complete, topology="ring:6")
        assert model.base_cost(ring) == 1.5 * model.base_cost(complete)

    def test_nominal_rounds_prefers_fixed_budget(self):
        model = CostModel(family_rounds={"witness": 44})
        witness = dict(model="M3", family="witness")
        assert model.nominal_rounds(cell(rounds=7)) == 7
        assert model.nominal_rounds(cell(**witness, max_rounds=90)) == 44
        # The calibrated nominal is still capped by the cell's budget.
        assert model.nominal_rounds(cell(**witness, max_rounds=10)) == 10
        # A declared witness M2 cell runs bonomi's rounds: the default.
        assert model.nominal_rounds(cell(family="witness", max_rounds=90)) == 40

    def test_bound_prices_the_full_round_budget(self):
        model = CostModel(family_rounds={"witness": 44})
        fixed = cell(rounds=7, max_rounds=90)
        assert model.bound(fixed) == model.estimate(fixed)
        oracle = cell(model="M3", family="witness", max_rounds=90)
        assert model.bound(oracle) == model.estimate(oracle) * 90 / 44

    def test_batch_deadline_scales_with_cost_above_a_floor(self):
        from repro.sweep.backends import (
            _DEADLINE_FLOOR_S,
            _DEADLINE_SECONDS_PER_COST,
            _batch_deadline,
        )

        small = [cell(seed=seed) for seed in range(4)]
        assert _batch_deadline(small, _STATIC_COST_MODEL) == _DEADLINE_FLOOR_S
        huge = [cell(n=2000, max_rounds=10_000)]
        assert _batch_deadline(huge, _STATIC_COST_MODEL) == pytest.approx(
            _STATIC_COST_MODEL.bound(huge[0]) * _DEADLINE_SECONDS_PER_COST
        )
        assert _batch_deadline(huge, _STATIC_COST_MODEL) > _DEADLINE_FLOOR_S


class TestFit:
    def test_fit_measures_family_weights(self):
        obs = []
        for seed in range(4):
            base = CostModel().base_cost(cell(seed=seed), rounds=20)
            obs.append(observation(cell(seed=seed), seconds=base * 1e-6))
            slow = cell(seed=seed, model="M3", family="witness")
            obs.append(
                observation(slow, seconds=CostModel().base_cost(slow, rounds=20) * 1e-5)
            )
        fitted = CostModel.fit(FakeJournal(obs))
        assert fitted.calibrated
        assert fitted.family_weights["bonomi"] == pytest.approx(1.0)
        assert fitted.family_weights["witness"] == pytest.approx(10.0)
        assert fitted.family_rounds == {"bonomi": 20, "witness": 20}
        assert "fitted" in fitted.describe()
        # Observed ordering carries into estimates.
        assert fitted.estimate(cell(model="M3")) < fitted.estimate(
            cell(model="M3", family="witness")
        )

    def test_fit_files_stacked_shares_under_the_folded_family(self, tmp_path):
        # Witness M1 cells stack as bonomi rows, so their recorded time
        # is a share of a bonomi stack; only own-driver witness M3
        # timings may set the witness weight.
        bonomi = [cell(seed=seed, model="M3") for seed in range(4)]
        own = [cell(seed=seed, model="M3", family="witness") for seed in range(4)]
        stacked = [cell(seed=seed, model="M1", family="witness") for seed in range(4)]
        assert {spec.stack_key for spec in stacked} == {cell(model="M1").stack_key}
        results = run_cell_many(stacked) + [
            run_cell(spec) for spec in bonomi + own
        ]
        with SweepJournal(tmp_path / "journal") as journal:
            journal.open(bonomi + own + stacked, "lite", None)
            for result in results:
                assert result.error is None, result.error
                rate = 1e-5 if result.spec in own else 1e-6
                base = CostModel().base_cost(result.spec, rounds=result.rounds)
                journal.record(replace(result, elapsed=base * rate))
            fitted = CostModel.fit(journal)
        assert fitted.family_weights["bonomi"] == pytest.approx(1.0)
        assert fitted.family_weights["witness"] == pytest.approx(10.0)

    def test_families_below_min_samples_keep_static_weights(self):
        obs = [
            observation(cell(seed=seed), seconds=1e-3) for seed in range(3)
        ] + [observation(cell(seed=0, family="witness"), seconds=5.0)]
        fitted = CostModel.fit(FakeJournal(obs))
        assert fitted.calibrated
        static = CostModel()
        assert (
            fitted.family_weights["witness"] == static.family_weights["witness"]
        )

    def test_empty_or_unusable_journals_fall_back_to_static(self):
        static = CostModel()
        for journal in (
            FakeJournal([]),
            FakeJournal([observation(cell(), seconds=None)]),
            FakeJournal([observation(cell(), seconds=0.0)]),
            FakeJournal(
                [observation(cell(), seconds=1.0, error="boom")] * 5
            ),
        ):
            fitted = CostModel.fit(journal)
            assert not fitted.calibrated
            assert fitted.family_weights == static.family_weights

    def test_missing_reference_family_anchors_on_cheapest(self):
        obs = [
            observation(cell(seed=seed, family="tseng"), seconds=1e-4)
            for seed in range(3)
        ]
        fitted = CostModel.fit(FakeJournal(obs))
        assert fitted.calibrated
        assert fitted.family_weights["tseng"] == pytest.approx(1.0)

    def test_fit_from_a_real_journal(self, tmp_path):
        grid = GridSpec(models=("M2",), fs=(2,), ns=(17,), seeds=range(4))
        with SweepJournal(tmp_path / "journal") as journal:
            run_sweep(grid, journal=journal)
        assert len(journal.timings()) == len(grid)
        fitted = CostModel.fit(FakeJournal(journal.observations()))
        assert fitted.calibrated
        assert fitted.family_weights["bonomi"] == pytest.approx(1.0)
        # Replaying the journal in a fresh process keeps the timings.
        with SweepJournal(tmp_path / "journal") as replayed:
            replayed.open(list(grid.cells()), "lite", None)
            assert replayed.timings() == journal.timings()
            refitted = CostModel.fit(replayed)
        assert refitted.family_weights == fitted.family_weights


class TestElapsedFlow:
    def test_run_cell_stamps_elapsed(self):
        result = run_cell(cell())
        assert result.elapsed is not None and result.elapsed > 0

    def test_elapsed_is_not_identity(self):
        a = run_cell(cell())
        b = run_cell(cell())
        assert a == b  # elapsed is compare-excluded jitter


class TestDispatcherIntegration:
    def test_stealing_queues_order_by_fitted_weights(self):
        fitted = CostModel(family_weights={"bonomi": 50.0, "witness": 1.0})
        cells = [cell(seed=0), cell(seed=1, model="M3", family="witness", n=33)]
        groups = [[spec] for spec in cells]
        static_first = _StealingQueues(groups, 1).next_batch(0)
        fitted_first = _StealingQueues(groups, 1, fitted.estimate).next_batch(0)
        # Static folklore says the big witness cell is heaviest; the
        # (deliberately inverted) fitted weights flip the LPT order.
        assert static_first == [cells[1]]
        assert fitted_first == [cells[0]]

    def test_shm_backend_accepts_a_fitted_model(self):
        fitted = CostModel(family_weights={"bonomi": 2.0})
        backend = ShmCrossRunBackend(2, cost_model=fitted)
        assert backend.cost_model is fitted
        results = backend.execute_many(
            [cell(seed=seed) for seed in range(3)], run_cell_many
        )
        reference = [run_cell(cell(seed=seed)) for seed in range(3)]
        assert sorted(r.key for r in results) == sorted(
            r.key for r in reference
        )
