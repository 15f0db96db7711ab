"""End-to-end tests of the distributed termination rule (Dolev et al.).

`EstimatedRounds` derives a round budget from the *first exchange* --
the rule a real deployment would use, since no process observes the
true diameter.  These tests confirm the budget always suffices, under
every model and adversary, including value-inflating Byzantine lies.
"""

from __future__ import annotations

import pytest

from repro import evenly_spread_values, mobile_config
from repro.core.convergence import mobile_contraction
from repro.core.mapping import msr_trim_parameter
from repro.core.specification import check_trace
from repro.faults import get_semantics
from repro.faults.movement import RandomJump, RoundRobinWalk
from repro.faults.value_strategies import OutlierAttack, SplitAttack
from repro.msr import make_algorithm
from repro.runtime import EstimatedRounds, run_simulation
from repro.runtime.simulator import simulate_many
from tests.helpers import make_mobile_config

EPSILON = 1e-3


def estimated_config(model, f=1, values=None, movement=None, seed=0, epsilon=EPSILON):
    semantics = get_semantics(model)
    n = semantics.required_n(f)
    algorithm = make_algorithm("ftm", msr_trim_parameter(model, f))
    contraction = mobile_contraction(algorithm, model, n, f).factor
    return make_mobile_config(
        model,
        f=f,
        n=n,
        algorithm=algorithm,
        movement=movement if movement is not None else RoundRobinWalk(),
        values=values if values is not None else SplitAttack(),
        termination=EstimatedRounds(epsilon=epsilon, contraction=contraction),
        epsilon=epsilon,
        seed=seed,
        max_rounds=500,
    )


class TestEstimatedRoundsEndToEnd:
    def test_budget_suffices_under_split(self, model):
        trace = run_simulation(estimated_config(model))
        verdict = check_trace(trace)
        assert verdict.satisfied, f"{model}: {verdict}"

    def test_budget_suffices_under_movement_churn(self, model):
        trace = run_simulation(
            estimated_config(model, movement=RandomJump(), seed=5)
        )
        assert check_trace(trace).satisfied

    def test_outlier_lies_delay_but_do_not_break(self, model):
        # Outlier values inflate the first-exchange spread, so the
        # budget grows -- termination still happens and agreement holds.
        honest = run_simulation(estimated_config(model, seed=1))
        inflated = run_simulation(
            estimated_config(model, values=OutlierAttack(magnitude=1e3), seed=1)
        )
        assert check_trace(inflated).satisfied
        assert inflated.rounds_executed() >= honest.rounds_executed()

    @pytest.mark.parametrize("f", [2])
    def test_budget_suffices_for_larger_f(self, model, f):
        trace = run_simulation(estimated_config(model, f=f))
        assert check_trace(trace).satisfied

    def test_tighter_epsilon_takes_more_rounds(self, model):
        loose = run_simulation(estimated_config(model, epsilon=1e-2))
        tight = run_simulation(estimated_config(model, epsilon=1e-8))
        assert tight.rounds_executed() > loose.rounds_executed()
        assert check_trace(tight).satisfied


class TestSharedRuleBudgetsPerRun:
    """One :class:`EstimatedRounds` object shared by several configs
    budgets each run from that run's own first exchange."""

    @staticmethod
    def _configs(rule):
        def config(high):
            n = get_semantics("M1").required_n(2)
            return mobile_config(
                model="M1",
                f=2,
                seed=1,
                attack="inertia",
                max_rounds=200,
                termination=rule,
                initial_values=evenly_spread_values(n, 0.0, high),
            )

        return config(1.0), config(1e6)

    def _fresh_wide(self):
        _, wide = self._configs(EstimatedRounds(1e-3, 0.5))
        return run_simulation(wide, trace_detail="lite")

    def test_single_runs(self):
        narrow, wide = self._configs(EstimatedRounds(1e-3, 0.5))
        first = run_simulation(narrow, trace_detail="lite")
        second = run_simulation(wide, trace_detail="lite")
        fresh = self._fresh_wide()
        assert first.rounds_executed() == 11
        assert fresh.rounds_executed() == 31
        assert second.rounds_executed() == fresh.rounds_executed()
        assert second.decisions == fresh.decisions
        assert check_trace(second).satisfied

    def test_one_stack(self):
        first, second = simulate_many(self._configs(EstimatedRounds(1e-3, 0.5)))
        fresh = self._fresh_wide()
        assert first.rounds_executed() == 11
        assert second.rounds_executed() == fresh.rounds_executed() == 31
        assert second.decisions == fresh.decisions
        assert check_trace(second).satisfied
