"""Tests for the clock-synchronization extension."""

from __future__ import annotations

import pytest

from repro.api import mobile_config
from repro.core.convergence import mobile_contraction
from repro.core.mapping import msr_trim_parameter
from repro.extensions import (
    ClockConfig,
    ClockSyncSimulator,
    steady_state_skew_bound,
)
from repro.faults import (
    Adversary,
    MobileModel,
    RoundRobinWalk,
    SplitAttack,
    StaticAgents,
    get_semantics,
)
from repro.msr import make_algorithm
from repro.runtime import run_simulation
from tests.helpers import without_numpy


def clock_config(
    model, f=1, n=None, sync_rounds=40, rho=1e-4, period=10.0, seed=3,
    movement=RoundRobinWalk,
):
    semantics = get_semantics(model)
    if n is None:
        n = semantics.required_n(f)
    algorithm = make_algorithm("ftm", msr_trim_parameter(model, f))
    return ClockConfig(
        n=n,
        f=f,
        model=semantics.model,
        algorithm=algorithm,
        adversary=Adversary(movement(), SplitAttack()),
        rho=rho,
        period=period,
        sync_rounds=sync_rounds,
        seed=seed,
    )


class TestConfigValidation:
    def test_valid(self):
        assert clock_config("M1").n == 5

    def test_invalid_f(self):
        with pytest.raises(ValueError):
            clock_config("M1", f=9, n=5)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            clock_config("M1", period=0.0)

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            clock_config("M1", sync_rounds=0)


class TestSkewBound:
    def test_formula(self):
        assert steady_state_skew_bound(1e-4, 10.0, 0.5) == pytest.approx(4e-3)

    def test_rejects_nonconverging_factor(self):
        with pytest.raises(ValueError):
            steady_state_skew_bound(1e-4, 10.0, 1.0)


class TestClockSync:
    def test_skew_stays_bounded(self, model):
        config = clock_config(model)
        trace = ClockSyncSimulator(config).run()
        contraction = mobile_contraction(
            config.algorithm, model, config.n, config.f
        ).factor
        bound = steady_state_skew_bound(config.rho, config.period, contraction)
        steady = trace.max_skew_after(skip_transient=config.sync_rounds // 2)
        assert steady <= bound * 1.5 + 1e-9, (
            f"{model}: steady skew {steady} above bound {bound}"
        )

    def test_initial_transient_decays(self, model):
        trace = ClockSyncSimulator(clock_config(model)).run()
        series = trace.skew_series()
        assert series[-1] < series[0]

    def test_rounds_recorded(self):
        trace = ClockSyncSimulator(clock_config("M1", sync_rounds=7)).run()
        assert len(trace.rounds) == 7
        assert [r.round_index for r in trace.rounds] == list(range(7))

    def test_m4_never_cured(self):
        trace = ClockSyncSimulator(clock_config("M4")).run()
        assert all(r.cured == frozenset() for r in trace.rounds)

    def test_m1_to_m3_produce_cured(self):
        for model in (MobileModel.GARAY, MobileModel.BONNET, MobileModel.SASAKI):
            trace = ClockSyncSimulator(clock_config(model)).run()
            assert any(r.cured for r in trace.rounds), model

    def test_deterministic(self):
        a = ClockSyncSimulator(clock_config("M2", seed=5)).run()
        b = ClockSyncSimulator(clock_config("M2", seed=5)).run()
        assert a.skew_series() == b.skew_series()

    def test_fault_free_sync_is_tight(self):
        config = ClockConfig(
            n=4,
            f=0,
            model=MobileModel.GARAY,
            algorithm=make_algorithm("fta", 0),
            adversary=Adversary(),
            rho=1e-4,
            period=10.0,
            sync_rounds=20,
            seed=0,
        )
        trace = ClockSyncSimulator(config).run()
        # Identical views: one sync collapses the skew to pure drift.
        assert trace.max_skew_after(skip_transient=2) <= 2 * 1e-4 * 10.0 + 1e-9


class TestSharedEngine:
    """Clock sync runs on the agreement simulator's controller and
    send-and-fold step."""

    @pytest.mark.parametrize("movement", [RoundRobinWalk, StaticAgents])
    def test_fault_pattern_matches_the_simulator(self, model, movement):
        config = clock_config(model, sync_rounds=12, movement=movement)
        trace = ClockSyncSimulator(config).run()
        reference = run_simulation(
            mobile_config(
                model=model,
                f=config.f,
                n=config.n,
                movement=movement(),
                attack="split",
                rounds=12,
                seed=config.seed,
            )
        )
        assert [(r.faulty, r.cured) for r in trace.rounds] == [
            (r.faulty_at_send, r.cured_at_send) for r in reference.rounds
        ]

    def test_same_skew_without_numpy(self, model):
        config = clock_config(model, sync_rounds=30)
        series = ClockSyncSimulator(config).run().skew_series()
        with without_numpy():
            assert ClockSyncSimulator(config).run().skew_series() == series


class TestClockSyncProperties:
    """Hypothesis sweep: the steady-state bound holds across physical
    parameters, seeds and models."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        rho=st.floats(min_value=1e-6, max_value=1e-3),
        period=st.floats(min_value=1.0, max_value=60.0),
        seed=st.integers(min_value=0, max_value=500),
        model_index=st.integers(min_value=0, max_value=3),
    )
    def test_steady_state_bound_over_parameters(self, rho, period, seed, model_index):
        from repro.faults import ALL_MODELS

        model = ALL_MODELS[model_index]
        config = clock_config(
            model, rho=rho, period=period, seed=seed, sync_rounds=30
        )
        trace = ClockSyncSimulator(config).run()
        contraction = mobile_contraction(
            config.algorithm, model, config.n, config.f
        ).factor
        bound = steady_state_skew_bound(rho, period, contraction)
        steady = trace.max_skew_after(skip_transient=20)
        assert steady <= bound * 1.5 + 1e-9
