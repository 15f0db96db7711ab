"""Cross-run vectorized engine: equivalence, grouping and cost tests.

The cross-run engine stacks R compatible runs into one ``(R, n)`` state
array and advances all of them per round with one vectorized pass; its
contract is *bit-identity* with the per-cell paths (the PR 6 per-run
vectorized path, itself gated against the scalar engine) across the
full scenario matrix -- models, attacks, movements, families,
topologies, seeds, round budgets.  These tests gate that contract at
both layers: :func:`repro.runtime.simulator.simulate_many` against
:func:`repro.runtime.simulator.run_simulation`, and
``run_sweep(cross_run=True)`` against the default sweep.

They also pin the supporting machinery: ``CellSpec.stack_key``
partitioning is a true partition that groups exactly what the engine
stacks, the ``cross-run(...)`` dispatch label surfaces batch membership
without entering equality, error cells keep their exact per-cell
attribution, and ``estimate_cell_cost`` orders families (as folded)
and topologies by their real relative expense.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.helpers import (
    assert_lite_verdict_matches,
    make_mobile_config,
    small_grid,
    stackable,
    stacked_runs,
)

import repro.api
from repro.api import movement_strategy, value_strategy
from repro.core import msr_trim_parameter
from repro.faults import RoundRobinWalk, StaticAgents, get_semantics
from repro.faults.value_strategies import (
    CrossfireAttack,
    FixedValue,
    OutlierAttack,
    RecipientCamps,
    SplitAttack,
)
from repro.msr import MSRFunction, Reduction, SelectExtremes, TrimExtremes
from repro.runtime import EstimatedRounds, RoundKernel
from repro.runtime.kernel import BatchMSREvaluator
from repro.runtime.controllers import CrossRunPlanner, MobileFaultController
from repro.runtime.simulator import (
    SynchronousSimulator,
    _cross_run_key,
    run_simulation,
    simulate_many,
)
from repro.runtime.trace import LiteTrace
from repro.sweep import (
    CellSpec,
    GridSpec,
    SweepAccumulator,
    run_cell,
    run_cell_many,
    run_sweep,
)
from repro.sweep.backends import estimate_cell_cost
from repro.telemetry import (
    configure,
    deactivate,
    load_trace_events,
    parse_dispatch_label,
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


def assert_cells_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.spec == b.spec
        assert a.decisions == b.decisions, a.spec.describe()
        assert a.diameters == b.diameters, a.spec.describe()
        assert a.rounds == b.rounds
        assert a.error == b.error


class TestSimulateManyEquivalence:
    """Runtime-level bit-identity of the stacked engine."""

    @staticmethod
    def _assert_stack_matches_solo(model, attack, rounds=None):
        configs = [
            cell(
                model=model, f=2, n=None, attack=attack, seed=seed, rounds=rounds
            ).to_config()
            for seed in range(3)
        ]
        many = simulate_many(configs)
        solo = [run_simulation(config) for config in configs]
        for a, b in zip(many, solo):
            assert a.decisions == b.decisions
            assert tuple(a.diameters()) == tuple(b.diameters())
            assert a.rounds_executed() == b.rounds_executed()

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    @pytest.mark.parametrize(
        "attack", ["split", "outlier", "oscillating", "crossfire"]
    )
    def test_models_and_attacks(self, model, attack):
        self._assert_stack_matches_solo(model, attack)

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    @pytest.mark.parametrize(
        "attack", ["split", "outlier", "oscillating", "crossfire"]
    )
    def test_models_and_attacks_fixed_rounds(self, model, attack):
        # Oracle termination stops crossfire after round 0, which
        # neither moves nor cures, so a fixed budget is what takes it
        # through the later rounds: M3 plants queues, M1 keeps cured
        # processes silent.
        self._assert_stack_matches_solo(model, attack, rounds=8)

    @pytest.mark.parametrize(
        "movement", ["round-robin", "random", "static", "target-extremes"]
    )
    def test_movements(self, movement):
        configs = [
            cell(movement=movement, seed=seed).to_config() for seed in range(3)
        ]
        many = simulate_many(configs)
        solo = [run_simulation(config) for config in configs]
        for a, b in zip(many, solo):
            assert a.decisions == b.decisions
            assert tuple(a.diameters()) == tuple(b.diameters())

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_class_planned_and_fallback_rows_in_one_stack(
        self, model, monkeypatch
    ):
        # split/crossfire rows are planned as arrays from sender
        # classes; inertia (no camps) and noise (no classes) rows go
        # through their own controller -- in the same stack, under
        # random movement, each row identical to its solo run.
        attacks = ["split", "crossfire", "inertia", "noise"]
        configs = [
            cell(
                model=model, f=2, n=None, movement="random",
                attack=attack, seed=seed, rounds=8,
            ).to_config()
            for seed in range(2)
            for attack in attacks
        ]
        planned: list = []
        plan_many = CrossRunPlanner.plan_many

        def spy(planner, round_index, stack, indices):
            plan = plan_many(planner, round_index, stack, indices)
            planned.extend(
                (configs[r].setup.adversary.values.describe(), row is None)
                for r, row in zip(indices, plan.plans)
            )
            return plan

        monkeypatch.setattr(CrossRunPlanner, "plan_many", spy)
        many = simulate_many(configs)
        solo = [run_simulation(config) for config in configs]
        for a, b in zip(many, solo):
            assert a.decisions == b.decisions
            assert tuple(a.diameters()) == tuple(b.diameters())
            assert a.rounds_executed() == b.rounds_executed()
        kinds = {name.split("(")[0]: arrays for name, arrays in planned}
        assert kinds == {
            "split": True, "crossfire": True, "inertia": False, "noise": False,
        }

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_scalar_fallback_of_class_planned_rows(self, model, monkeypatch):
        # A round the batched fold rejects takes the per-cell scalar
        # kernel, which needs the row's RoundPlan: class-planned rows
        # build theirs on demand from the class tables.  Every width
        # reads as below the resilience bound here.
        fold = RoundKernel.fold_rows_many

        def below_bound(self, batch, *args):
            rejecting = BatchMSREvaluator(
                lambda width: None, batch.select, batch.combine
            )
            return fold(self, rejecting, *args)

        monkeypatch.setattr(RoundKernel, "fold_rows_many", below_bound)
        configs = [
            cell(
                model=model, f=2, n=None, movement=movement,
                attack=attack, seed=1, rounds=6,
            ).to_config()
            for attack in ("split", "crossfire", "noise")
            for movement in ("round-robin", "random")
        ]
        many = simulate_many(configs)
        for config, trace in zip(configs, many):
            solo = run_simulation(config)
            assert trace.decisions == solo.decisions
            assert tuple(trace.diameters()) == tuple(solo.diameters())

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_outboxes_the_fold_cannot_express(self, model, monkeypatch):
        # Class-planned rows whose round yields no camps, or camps over
        # different partitions, carry a RoundPlan through the generic
        # batch_rows / scalar route instead of the array path.
        class CampsOnEvenRounds(CrossfireAttack):
            def attack_camps(self, view, sender):
                if view.round_index % 2:
                    return None
                return super().attack_camps(view, sender)

        class PartitionPerClass(CrossfireAttack):
            def attack_camps(self, view, sender):
                camps = super().attack_camps(view, sender)
                return RecipientCamps(camps.values, tuple(camps.assignment))

        # Round-robin on an even ring keeps one even and one odd agent
        # (two crossfire classes, hence two partitions) in every round.
        strategies = [CampsOnEvenRounds(), SplitAttack(), PartitionPerClass()]
        configs = [
            make_mobile_config(
                model, f=2, n=16, values=values, rounds=6, seed=seed,
            )
            for seed, values in enumerate(strategies)
        ]
        routes: list = []
        plan_many = CrossRunPlanner.plan_many

        def spy(planner, round_index, stack, indices):
            plan = plan_many(planner, round_index, stack, indices)
            routes.append((round_index, [row is None for row in plan.plans]))
            return plan

        monkeypatch.setattr(CrossRunPlanner, "plan_many", spy)
        many = simulate_many(configs)
        for config, trace in zip(configs, many):
            solo = run_simulation(config)
            assert trace.decisions == solo.decisions
            assert tuple(trace.diameters()) == tuple(solo.diameters())
        assert routes
        for round_index, arrays in routes:
            assert arrays == [round_index % 2 == 0, True, False]

    def test_mixed_shapes_in_one_call(self):
        # Incompatible configs in one call regroup internally and come
        # back in input order.
        configs = [
            cell(model="M2", seed=0).to_config(),
            cell(model="M3", n=None, seed=0).to_config(),
            cell(model="M2", seed=1).to_config(),
            cell(model="M2", n=21, seed=0).to_config(),
        ]
        many = simulate_many(configs)
        solo = [run_simulation(config) for config in configs]
        for a, b in zip(many, solo):
            assert a.decisions == b.decisions
            assert tuple(a.diameters()) == tuple(b.diameters())

    @pytest.mark.parametrize("custom_first", [False, True])
    def test_same_name_different_stages_never_share_a_fold(self, custom_first):
        # Every MSRFunction defaults to the name "MSR", so the name does
        # not pin the stages: one with a reduction that cannot batch,
        # one with a batchable but different trim and the default
        # trimmed midpoint must each fold with their own stages.
        tau = msr_trim_parameter("M2", 2)
        default = MSRFunction(TrimExtremes(tau), SelectExtremes())
        deeper = MSRFunction(TrimExtremes(tau + 1), SelectExtremes())
        scalar = MSRFunction(_ScalarOnlyTrim(tau), SelectExtremes())
        functions = [scalar, deeper, default] if custom_first else [
            default, deeper, scalar
        ]
        configs = [
            make_mobile_config(
                "M2", f=2, n=17, algorithm=function, seed=seed,
                initial_values=tuple(i * i / 256 for i in range(17)),
            )
            for function in functions
            for seed in range(3)
        ]
        many = simulate_many(configs)
        solo = [run_simulation(config, trace_detail="lite") for config in configs]
        assert many == solo
        # The deeper trim changes the decisions, so a shared fold would
        # have shown.
        assert many[3].decisions != many[0].decisions


    def test_unhashable_stage_runs_per_cell(self):
        # A stage that compares by value without a hash cannot key a
        # fold; its runs stay on the per-cell path.
        tau = msr_trim_parameter("M2", 2)
        function = MSRFunction(_ValueEqualTrim(tau), SelectExtremes())
        configs = [
            make_mobile_config("M2", f=2, n=17, algorithm=function, seed=seed)
            for seed in range(3)
        ]
        assert _cross_run_key(configs[0], "lite", RoundKernel(), {}) is None
        many = simulate_many(configs)
        assert many == [
            run_simulation(config, trace_detail="lite") for config in configs
        ]
        assert all(trace.stack is None for trace in many)


class _ValueEqualTrim(TrimExtremes):
    """``TrimExtremes`` comparing by value with no hash."""

    def __eq__(self, other):
        return isinstance(other, _ValueEqualTrim) and other.tau == self.tau

    __hash__ = None


class _ScalarOnlyTrim(Reduction):
    """``TrimExtremes`` without its flat hooks: the kernel cannot batch
    it and folds it object by object."""

    def __init__(self, tau):
        self.tau = tau

    def __call__(self, multiset):
        return TrimExtremes(self.tau)(multiset)

    def describe(self):
        return f"scalar trim {self.tau}"


def group_sweep(grid, arm, **kwargs):
    """Sweep ``grid`` on the cross-run group path of one ``arm``."""
    with warnings.catch_warnings():
        # The forced pool warns on one usable CPU; results must not care.
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_sweep(grid, **arm, **kwargs)
    record = parse_dispatch_label(result.dispatch)
    assert record.cross_run
    assert record.pooled == ("workers" in arm), result.dispatch
    return result


#: The two ways a sweep reaches the group path: in-process cross-run,
#: and a default (non-cross-run) sweep on a forced worker pool.
GROUP_ARMS = pytest.mark.parametrize(
    "arm",
    [{"cross_run": True}, {"workers": 2, "dispatch": "pool"}],
    ids=["in-process", "pool"],
)


class TestCrossRunSweep:
    """Sweep-level bit-identity and routing of ``cross_run=True``."""

    @pytest.fixture(scope="class")
    def grid(self):
        return small_grid(seeds=3)

    @pytest.fixture(scope="class")
    def reference(self, grid):
        return run_sweep(grid)

    def test_cross_run_matches_default(self, grid, reference):
        result = run_sweep(grid, cross_run=True)
        assert result == reference
        assert_cells_identical(result.cells, reference.cells)

    def test_dispatch_label_surfaces_batches(self, grid, reference):
        result = run_sweep(grid, cross_run=True)
        match = re.fullmatch(
            r"cross-run\((\d+) batches, max R=(\d+)(, parallel)?\)",
            result.dispatch,
        )
        assert match is not None
        # Attacks stack together: one batch per (model, algorithm).
        assert int(match.group(1)) == 6  # 3 models x 2 algorithms
        assert int(match.group(2)) == 6  # 2 attacks x 3 seeds
        # Compare-excluded, like every dispatch label.
        assert result == reference

    @GROUP_ARMS
    def test_scenario_axes(self, arm):
        grid = GridSpec(
            models=("M2", "M3"),
            fs=(2,),
            ns=(17, 21),
            movements=("round-robin", "random"),
            attacks=("split", "outlier"),
            epsilons=(1e-3, 1e-2),
            seeds=range(2),
            max_rounds=25,
        )
        base = run_sweep(grid)
        cross = group_sweep(grid, arm)
        assert cross == base
        assert_cells_identical(cross.cells, base.cells)

    @GROUP_ARMS
    def test_mixed_families_fall_back_per_family(self, arm):
        grid = GridSpec(
            models=("M2",),
            fs=(2,),
            ns=(17,),
            families=("bonomi", "tseng"),
            seeds=range(2),
            max_rounds=20,
        )
        base = run_sweep(grid)
        cross = group_sweep(grid, arm)
        assert cross == base
        assert_cells_identical(cross.cells, base.cells)

    @GROUP_ARMS
    def test_mixed_topologies(self, arm):
        grid = GridSpec(
            models=("M2",),
            fs=(1,),
            families=("bonomi", "witness"),
            topologies=("complete", "ring:3"),
            seeds=range(2),
            max_rounds=15,
        )
        base = run_sweep(grid)
        cross = group_sweep(grid, arm)
        assert cross == base
        assert_cells_identical(cross.cells, base.cells)

    def test_parallel_cross_run_identical(self, grid, reference):
        result = run_sweep(grid, workers=4, cross_run=True)
        assert result.cells == reference.cells

    @GROUP_ARMS
    def test_error_cells_keep_per_cell_attribution(self, arm):
        cells = [cell(seed=seed) for seed in range(2)]
        cells.append(cell(n=5, seed=9))  # below the M2 resilience bound
        base = run_sweep(cells)
        cross = group_sweep(cells, arm)
        assert cross.cells == base.cells
        errors = cross.errors()
        assert len(errors) == 1 and errors[0].spec.n == 5

    def test_cache_write_through_and_warm_reuse(self, grid, reference, tmp_path):
        cold = run_sweep(grid, cross_run=True, cache=tmp_path)
        warm = run_sweep(grid, cross_run=True, cache=tmp_path)
        assert cold.cells == reference.cells
        assert warm.cells == reference.cells
        assert cold.cache_stats.misses == len(grid)
        assert warm.cache_stats.hits == len(grid)

    @GROUP_ARMS
    def test_full_detail_falls_back_per_run(self, arm):
        cells = [cell(seed=seed, max_rounds=10) for seed in range(2)]
        base = run_sweep(cells, trace_detail="full")
        cross = group_sweep(cells, arm, trace_detail="full")
        assert cross.cells == base.cells


class TestRunCellMany:
    def test_single_cell_batch_identical_to_per_cell(self):
        spec = cell(seed=7)
        [many] = run_cell_many([spec])
        solo = run_cell(spec)
        assert many == solo

    def test_input_order_preserved_across_groups(self):
        cells = [
            cell(model="M2", seed=0),
            cell(model="M3", n=None, seed=0),
            cell(model="M2", seed=1),
            cell(model="M3", n=None, seed=1),
        ]
        results = run_cell_many(cells)
        assert [result.spec for result in results] == cells
        for spec, result in zip(cells, results):
            assert result == run_cell(spec)


class TestBatchKeyPartition:
    """``stack_key`` grouping is a true partition."""

    def mixed_cells(self):
        grid = GridSpec(
            models=("M1", "M2"),
            fs=(1,),
            movements=("round-robin", "random"),
            attacks=("split",),
            families=("bonomi", "witness"),
            topologies=("complete", "ring:3"),
            seeds=range(3),
            max_rounds=10,
        )
        extra = [
            cell(scenario="static-mixed", params={"a": 1, "s": 2, "b": 14}, seed=s)
            for s in range(2)
        ]
        return list(grid.cells()) + extra

    def test_partition_is_total_and_disjoint(self):
        cells = self.mixed_cells()
        groups: dict[tuple, list[CellSpec]] = {}
        for spec in cells:
            groups.setdefault(spec.stack_key, []).append(spec)
        # Every cell lands in exactly one group; the union is the input.
        assert sum(len(group) for group in groups.values()) == len(cells)
        regrouped = [spec for group in groups.values() for spec in group]
        assert sorted(spec.key for spec in regrouped) == sorted(
            spec.key for spec in cells
        )

    def test_groups_never_mix_shapes(self):
        groups: dict[tuple, list[CellSpec]] = {}
        for spec in self.mixed_cells():
            groups.setdefault(spec.stack_key, []).append(spec)
        mixed = 0
        for members in groups.values():
            # One width, reduction, model, scenario and folded family.
            shapes = {
                (
                    m.model, m.f, m.resolved_n, m.algorithm, m.scenario,
                    m.params, m.folded_family,
                )
                for m in members
            }
            assert len(shapes) == 1
            assert len({m.key for m in members}) == len(members)
            if stackable(members[0]):
                # Stackable groups fold on the complete graph and may
                # mix movements and declared families.
                assert all(stackable(m) for m in members)
                mixed += len({(m.movement, m.family) for m in members}) > 1
            else:
                # Other groups differ only in seed.
                canonical = {replace(m, seed=0) for m in members}
                assert len(canonical) == 1
        assert mixed == 2  # M1 and M2: 2 movements x {bonomi, witness}

    def test_mixed_family_topology_grid_splits_correctly(self):
        # bonomi is pruned off the ring, so 3 (family, topology) pairs;
        # witness on the complete graph joins bonomi's stack under M1
        # (declared), not under M3.  ring:3 at n=9 is partial: its
        # witness cells never stack.
        for model, expected in (("M1", 2), ("M3", 3)):
            grid = GridSpec(
                models=(model,),
                fs=(1,),
                ns=(9,),
                families=("bonomi", "witness"),
                topologies=("complete", "ring:3"),
                seeds=range(4),
                max_rounds=10,
            )
            cells = list(grid.cells())
            groups: dict[tuple, list[CellSpec]] = {}
            for spec in cells:
                groups.setdefault(spec.stack_key, []).append(spec)
            assert len(groups) == expected, model
            assert len(cells) == 12
            ring = [g for g in groups.values() if g[0].topology == "ring:3"]
            assert [len(g) for g in ring] == [4]
            assert all(spec.topology == "ring:3" for spec in ring[0])


class TestEstimateCellCost:
    """Family and topology weightings order cells by real expense."""

    def test_family_ordering(self):
        # Undeclared cases keep their own rounds: tseng under M2,
        # witness under M3.
        bonomi = estimate_cell_cost(cell(family="bonomi"))
        tseng = estimate_cell_cost(cell(family="tseng"))
        witness = estimate_cell_cost(cell(model="M3", family="witness"))
        assert bonomi < tseng < witness
        # Declared cells run (and cost) as bonomi rows.
        assert estimate_cell_cost(cell(family="witness")) == bonomi
        assert estimate_cell_cost(
            cell(model="M3", family="tseng")
        ) == estimate_cell_cost(cell(model="M3"))

    def test_topology_weighting(self):
        complete = estimate_cell_cost(cell(family="witness"))
        ring = estimate_cell_cost(cell(family="witness", topology="ring:3"))
        assert complete < ring

    def test_unknown_family_takes_no_multiplier(self):
        assert estimate_cell_cost(cell(family="nope")) == estimate_cell_cost(
            cell(family="bonomi")
        )

    def test_size_still_dominates_within_family(self):
        small = estimate_cell_cost(cell(n=9, f=1))
        large = estimate_cell_cost(cell(n=33, f=2))
        assert small < large

    def test_relative_ordering_pinned(self):
        # The LPT schedule the stealing dispatcher derives from the model:
        # a witness ring cell outweighs every same-size bonomi cell.
        specs = [
            cell(family="bonomi"),
            cell(family="bonomi", topology="ring:3"),
            cell(family="tseng"),
            cell(model="M3", family="witness"),
            cell(model="M3", family="witness", topology="ring:3"),
        ]
        costs = [estimate_cell_cost(spec) for spec in specs]
        assert costs == sorted(costs)


class TestAccumulatorErrorCells:
    """Streaming error-cell parity with the batch path (satellite 2)."""

    def failing_mix(self):
        cells = [cell(seed=seed) for seed in range(3)]
        cells.append(cell(n=5, seed=9))  # fails the resilience bound
        cells.append(cell(model="M3", n=5, seed=0))  # all-error group
        return cells

    def test_streaming_matches_batch_with_failing_cell(self):
        batch = run_sweep(self.failing_mix())
        acc = SweepAccumulator(expected=len(batch.cells))
        for result in reversed(batch.cells):  # adversarial arrival order
            acc.add(result)
        assert acc.live_summary_rows() == batch.summary_rows()
        assert acc.result() == batch
        assert acc.errors == len(batch.errors()) == 2

    def test_error_cells_surface_in_group_rows(self):
        batch = run_sweep(self.failing_mix())
        rows = batch.summary_rows()
        by_model = {row[0]: row for row in rows}
        # The error cell counts as a member and a spec failure...
        assert by_model["M2"][2] == 4
        assert by_model["M2"][3] == "3/4"
        # ...but does not skew the statistics of the cells that ran.
        clean = run_sweep([cell(seed=seed) for seed in range(3)])
        assert by_model["M2"][4:] == clean.summary_rows()[0][4:]
        # A group of only error cells renders placeholder statistics.
        assert by_model["M3"][3:] == ["0/1", "-", "-"]


# -- the mask planner: batched, per-row and plan_round routes -------------

_MOVEMENTS = ["static", "round-robin", "random", "target-extremes"]
_ATTACKS = ["split", "outlier", "noise", "echo", "oscillating", "inertia", "crossfire"]


class _ReroutedCrossfire(CrossfireAttack):
    """Crossfire re-routing a per-run value hook: planned per row."""

    def attack_camps(self, view, sender):
        return super().attack_camps(view, sender)


class _LateNaN(SplitAttack):
    """Split whose symmetric value (departures, computes) turns NaN from
    round ``start`` on; re-routing attack_message keeps it class-planned."""

    start = 3

    def attack_message(self, view, sender, recipient):
        if view.round_index >= self.start:
            return math.nan
        return super().attack_message(view, sender, recipient)


class _LateNaNBatched(_LateNaN):
    """The same output through a batched hook: its tables turn NaN."""

    @classmethod
    def class_values(cls, group):
        tables = SplitAttack.class_values.__func__(cls, group)
        if group.round_index >= cls.start:
            tables.departures[:] = math.nan
        return tables


@st.composite
def _attacks(draw):
    kind = draw(
        st.sampled_from(_ATTACKS + ["split-bounds", "outlier-magnitude", "rerouted"])
    )
    if kind == "split-bounds":
        bound = st.one_of(
            st.none(),
            st.sampled_from([0.0, -0.0]),
            st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
        )
        return SplitAttack(draw(bound), draw(bound))
    if kind == "outlier-magnitude":
        return OutlierAttack(draw(st.floats(0.25, 8.0)))
    if kind == "rerouted":
        return _ReroutedCrossfire()
    return value_strategy(kind)


@st.composite
def _stacks(draw):
    """A random valid stack: one (model, f, n, algorithm) shape whose rows
    mix movements, attacks (parameterized and re-routed ones too), seeds,
    round budgets and initial values -- signed zeros included, to
    exercise the tie order, and a third of the stacks symmetric around
    0, so correct ranges and camp values hit +-0.0."""
    model = draw(st.sampled_from(["M1", "M2", "M3", "M4"]))
    f = draw(st.integers(1, 3))
    n = get_semantics(model).required_n(f) + draw(st.integers(0, 4))
    algorithm = draw(st.sampled_from(["ftm", "fta"]))
    symmetric = draw(st.integers(0, 2)) == 0
    value = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    )

    def initial_values():
        if not symmetric:
            return draw(st.lists(value, min_size=n, max_size=n))
        half = draw(
            st.lists(value.map(abs), min_size=n // 2, max_size=n // 2)
        )
        middle = [draw(st.sampled_from([0.0, -0.0]))] * (n % 2)
        return [-v for v in reversed(half)] + middle + half

    return [
        make_mobile_config(
            model,
            f=f,
            n=n,
            algorithm=algorithm,
            movement=movement_strategy(draw(st.sampled_from(_MOVEMENTS))),
            values=draw(_attacks()),
            initial_values=initial_values(),
            rounds=draw(st.integers(1, 8)),
            seed=draw(st.integers(0, 2**16)),
        )
        for _ in range(draw(st.integers(2, 5)))
    ]


def _bits(trace):
    """A trace's outputs with every float as its exact bit pattern."""
    return (
        {pid: value.hex() for pid, value in trace.decisions.items()},
        tuple(value.hex() for value in trace.diameters()),
        trace.rounds_executed(),
        trace.terminated,
    )


def _assert_runs_match_solo(configs, solo_configs=None):
    """Stacked runs equal their per-run ``run_simulation`` bit for bit,
    round-0 received diameters and final agent positions included, and
    each stacked run's lite verdict equals its ``check_trace``
    reference; returns what :func:`~tests.helpers.stacked_runs` does.

    ``solo_configs`` (default: ``configs``) are the configs the solo runs
    use: fresh equal copies where a config holds run state, as
    :class:`EstimatedRounds` does.
    """
    traces, stacked, planners = stacked_runs(configs)
    for config, trace, (received, controller) in zip(
        solo_configs or configs, traces, stacked
    ):
        sim = SynchronousSimulator(config, trace_detail="lite")
        solo = sim.run()
        assert _bits(trace) == _bits(solo)
        assert_lite_verdict_matches(trace)
        # The round-0 received diameter, bit for bit.
        assert received.hex() == sim._first_round_received_diameter.hex()
        assert controller.positions == sim.controller.positions
    return traces, stacked, planners


def _mixed_stack(model, rounds):
    """A stack whose rows fold different widths and camp counts in one
    round: random movement (under M1 and M3 the cured counts differ per
    row), one- and two-camp strategies, a zero camp value (the per-row
    route), and inertia and noise (planned by ``plan_round``)."""
    f = 2
    n = get_semantics(model).required_n(f) + 1
    strategies = [
        SplitAttack(),
        CrossfireAttack(),
        value_strategy("echo"),
        FixedValue(0.0),
        value_strategy("inertia"),
        value_strategy("noise"),
    ]
    return [
        make_mobile_config(
            model,
            f=f,
            n=n,
            movement=movement_strategy("random"),
            values=strategy,
            initial_values=[((3 * pid) % n) / n - 0.5 for pid in range(n)],
            rounds=rounds,
            seed=seed,
        )
        for seed, strategy in enumerate(strategies)
    ]


class TestStackedDifferential:
    """Random stacks through ``simulate_many`` vs per-run ``run_simulation``."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(configs=_stacks())
    @example(configs=_mixed_stack("M1", rounds=8))
    @example(configs=_mixed_stack("M3", rounds=8))
    @example(configs=_mixed_stack("M2", rounds=8))
    # Round 0 alone: placement, received diameters and the first fold.
    @example(configs=_mixed_stack("M4", rounds=1))
    def test_simulate_many_matches_run_simulation(self, configs):
        _assert_runs_match_solo(configs)


class TestPerRowRoute:
    """Rows the batched tables cannot plan match their solo runs too."""

    def test_symmetric_stack_takes_the_per_row_route(self):
        # Symmetric values put 0.0 at the correct midpoint (echo camps)
        # and, once converged, at the range endpoints: those rows are
        # planned per row and still match their solo runs.
        n = 17
        values = [(pid - n // 2) / 4 for pid in range(n)]
        configs = [
            make_mobile_config(
                model, f=2, n=n, values=strategy, initial_values=values,
                rounds=10, seed=seed,
            )
            for model in ("M2", "M4")
            for seed, strategy in enumerate(
                [value_strategy("echo"), SplitAttack(), CrossfireAttack()]
            )
        ]
        _, _, planners = _assert_runs_match_solo(configs)
        assert sum(planner.routes["per_row"] for planner in planners) > 0

    def test_signed_zero_camp_values_take_the_per_row_route(self):
        # A zero camp value could sort either way against a -0.0
        # broadcast: those rows keep the per-cell override order.
        configs = [
            make_mobile_config(
                "M3", f=2, n=13, values=strategy, rounds=6, seed=seed,
                initial_values=[
                    -2.0, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, -3.0, 4.0,
                    -4.0, 0.75,
                ],
            )
            for seed, strategy in enumerate(
                [FixedValue(0.0), SplitAttack(0.0, 1.0), SplitAttack()]
            )
        ]
        _, _, planners = _assert_runs_match_solo(configs)
        # Two zero-camp rows per row over all six rounds (round 0 is
        # stacked too); the plain split row stays batched.
        assert planners[0].routes == {"batched": 6, "per_row": 12, "plan_round": 0}


class TestOneModelPerStack:
    def test_two_models_raise_naming_both(self):
        # The stacking key fixes one model per stack, so the planner
        # holds the model's timing as constants and refuses a mix.
        controllers = [
            SynchronousSimulator(
                make_mobile_config(model, f=2, n=17, seed=seed), trace_detail="lite"
            ).controller
            for seed, model in enumerate(("M2", "M2", "M4"))
        ]
        with pytest.raises(ValueError, match="one mobile model, got M2 and M4"):
            CrossRunPlanner(controllers, [None] * 3, wrap=dict)


class TestBatchedMovement:
    def test_too_many_hosts_are_rejected(self):
        # The batched step's count check is the controller's, on masks.
        class Swarm(RoundRobinWalk):
            @classmethod
            def next_hosts(cls, group):
                return group.hosts | True

        configs = [
            make_mobile_config("M2", f=2, n=17, movement=Swarm(), rounds=4, seed=seed)
            for seed in range(2)
        ]
        with pytest.raises(ValueError, match="placed 17 agents, only f=2 exist"):
            simulate_many(configs)

    def test_rows_without_agents_fold_their_broadcasts(self):
        configs = [
            make_mobile_config(
                model, f=2, n=17, movement=StaticAgents([]), rounds=4, seed=seed
            )
            for model in ("M2", "M4")
            for seed in range(2)
        ]
        _assert_runs_match_solo(configs)


class TestLateNonFiniteOutput:
    """Class-planned rows raise the per-cell planner's canonical error."""

    @pytest.mark.parametrize("strategy", [_LateNaN, _LateNaNBatched])
    @pytest.mark.parametrize(
        "model, context",
        [
            ("M1", "departure value for p4"),
            ("M2", "departure value for p4"),
            ("M3", "departure value for p4"),
            ("M4", "corrupted compute for p8"),
        ],
    )
    def test_simulate_many_raises_the_per_cell_error(self, model, context, strategy):
        configs = [
            make_mobile_config(model, f=2, n=16, values=strategy(), rounds=6, seed=seed)
            for seed in range(3)
        ]
        with pytest.raises(ValueError) as solo:
            run_simulation(configs[0])
        with pytest.raises(ValueError) as many:
            simulate_many(configs)
        assert str(many.value) == str(solo.value)
        assert f"({context})" in str(solo.value)

    @pytest.mark.parametrize("strategy", [_LateNaN, _LateNaNBatched])
    @pytest.mark.parametrize(
        "model, start, context",
        [
            ("M2", 9, "departure value for p16"),
            ("M4", 7, "corrupted compute for p16"),
        ],
    )
    def test_error_names_the_per_run_first_pid(self, model, start, context, strategy):
        # Round-robin over n=17 wraps the agents onto {16, 0}, built by
        # inserting 16 first.  16 and 0 share a hash slot, so the set
        # iterates as [16, 0], not in pid order: the per-cell planner
        # names p16, and so must the replayed per-run sets.
        late = type("Late", (strategy,), {"start": start})
        configs = [
            make_mobile_config(model, f=2, n=17, values=late(), rounds=12, seed=seed)
            for seed in range(2)
        ]
        with pytest.raises(ValueError) as solo:
            run_simulation(configs[0])
        with pytest.raises(ValueError) as many:
            simulate_many(configs)
        assert str(many.value) == str(solo.value)
        assert f"({context})" in str(solo.value)

    def test_cross_run_sweep_keeps_per_cell_attribution(self, monkeypatch):
        monkeypatch.setitem(repro.api._ATTACKS, "late-nan", _LateNaN)
        cells = [
            cell(model=model, f=2, n=16, attack=attack, seed=seed, rounds=6)
            for model in ("M2", "M4")
            for attack in ("late-nan", "split")
            for seed in range(2)
        ]
        base = run_sweep(cells)
        cross = run_sweep(cells, cross_run=True)
        assert parse_dispatch_label(cross.dispatch).cross_run
        assert cross.cells == base.cells
        errors = {result.spec: result.error for result in cross.errors()}
        assert set(errors) == {spec for spec in cells if spec.attack == "late-nan"}
        for spec, error in errors.items():
            context = {
                "M2": "departure value for p4", "M4": "corrupted compute for p8"
            }[spec.model]
            assert f"({context})" in error


class TestPlannerRoutesOnSpan:
    """``sim.many`` records the run-rounds each planner route planned."""

    @staticmethod
    def planned(configs, tmp_path):
        configure(str(tmp_path))
        try:
            simulate_many(configs)
        finally:
            deactivate()
        [span] = [
            event for event in load_trace_events(tmp_path)
            if event.get("name") == "sim.many"
        ]
        return span["attrs"]["planned"]

    def test_round_robin_split_crossfire_is_all_batched(self, tmp_path):
        configs = [
            make_mobile_config(
                model, f=2, values=value_strategy(attack), rounds=6, seed=seed
            )
            for model in ("M1", "M2", "M3", "M4")
            for attack in ("split", "crossfire")
            for seed in range(2)
        ]
        planned = self.planned(configs, tmp_path)
        # Four stacks of four runs, six stacked rounds each (round 0
        # included).
        assert planned == {"batched": 4 * 4 * 6, "per_row": 0, "plan_round": 0}

    def test_noise_and_inertia_rows_count_as_plan_round(self, tmp_path):
        configs = [
            make_mobile_config(
                "M2", f=2, values=value_strategy(attack), rounds=4, seed=seed
            )
            for attack in ("noise", "inertia", "split")
            for seed in range(2)
        ]
        planned = self.planned(configs, tmp_path)
        # Two split runs batched and four noise/inertia runs through
        # their controllers, over all four rounds (round 0 included).
        assert planned == {"batched": 2 * 4, "per_row": 0, "plan_round": 4 * 4}


# -- round 0 on the stack -------------------------------------------------------


def _estimated(model, f, n, attack, movement, seed, initial_values=None):
    """A config under :class:`EstimatedRounds`, the one rule that reads
    the round-0 received diameter (fresh per call: the rule keeps its
    budget once set)."""
    return make_mobile_config(
        model,
        f=f,
        n=n,
        movement=movement_strategy(movement),
        values=value_strategy(attack),
        initial_values=initial_values,
        seed=seed,
        termination=EstimatedRounds(epsilon=1e-3, contraction=0.5),
    )


class TestRoundZeroOnTheStack:
    """``plan_many`` plans round 0 and the stacked fold yields its
    received diameter: stacked runs equal their solo runs."""

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    @pytest.mark.parametrize("f, n", [(2, None), (16, 97)], ids=["f2", "f16-n97"])
    def test_estimated_rounds_match_per_run(self, model, f, n):
        # One stack per model and size mixing class-planned (split,
        # crossfire, outlier) and controller-planned (noise, inertia)
        # rows under batched and per-run movement.
        def configs():
            return [
                _estimated(model, f, n, attack, movement, seed)
                for attack in ("split", "crossfire", "outlier", "noise", "inertia")
                for movement in ("round-robin", "random")
                for seed in range(2)
            ]

        traces, runs, planners = _assert_runs_match_solo(configs(), configs())
        assert len(planners) == 1
        assert all(received > 0.0 for received, _ in runs)
        # The budget, not a cap, ended every run.
        assert all(trace.terminated for trace in traces)

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_signed_zero_endpoint_plans_round_zero_per_row(self, model, monkeypatch):
        # Zero-valued correct processes leave the batched correct range
        # unknown, so round 0 takes the per-row route.  Under random
        # movement a replayed movement step would draw from the run's
        # RNG: those rows must see their initial hosts, unmoved.
        values = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0] + [
            (pid + 1) / 8 for pid in range(get_semantics(model).required_n(2) - 6)
        ]

        def configs():
            return [
                _estimated(model, 2, None, attack, "random", seed, values)
                for attack in ("split", "crossfire")
                for seed in range(3)
            ]

        per_row_rounds: list = []
        plan_row = CrossRunPlanner._plan_row

        def spy(planner, rnd, i):
            per_row_rounds.append(rnd.index)
            return plan_row(planner, rnd, i)

        monkeypatch.setattr(CrossRunPlanner, "_plan_row", spy)
        _assert_runs_match_solo(configs(), configs())
        assert per_row_rounds.count(0) == 6

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_class_planned_stack_never_plans_or_folds_per_cell(
        self, model, monkeypatch
    ):
        calls: list = []
        for owner, name in (
            (MobileFaultController, "plan_round"),
            (RoundKernel, "compute_phase"),
        ):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        configs = [
            _estimated(model, 2, None, attack, movement, seed)
            for attack in ("split", "crossfire")
            for movement in ("round-robin", "random")
            for seed in range(2)
        ]
        traces, _, planners = stacked_runs(configs)
        assert calls == []
        assert planners[0].routes["plan_round"] == 0
        assert sum(trace.rounds_executed() for trace in traces) == sum(
            planners[0].routes.values()
        )


class TestNoLazyImports:
    def test_stacked_sweep_imports_nothing_new(self):
        # A forked sweep worker inherits only what its parent imported:
        # a numpy function that imports a submodule on first use (as
        # np.unique does numpy.ma) would charge every fresh worker.
        script = textwrap.dedent(
            """
            import json, sys
            from repro.sweep import GridSpec, run_sweep
            grid = GridSpec(
                models=("M1", "M4"), fs=(2,), attacks=("split", "crossfire", "noise"),
                seeds=tuple(range(3)), rounds=6,
            )
            run_sweep(grid)
            before = set(sys.modules)
            result = run_sweep(grid, cross_run=True)
            assert result.dispatch.startswith("cross-run"), result.dispatch
            print(json.dumps(sorted(set(sys.modules) - before)))
            """
        )
        src = str(Path(repro.api.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []


class TestNoPerRowSimulator:
    """Stacked rows are keyed from their configs: a stacked sweep builds
    no :class:`SynchronousSimulator` for them, and ``simulate_many``
    still returns each run's own lite trace."""

    GRID = GridSpec(
        models=("M2",),
        fs=(16,),
        ns=(97,),
        attacks=("crossfire", "split"),
        seeds=tuple(range(16)),
        rounds=20,
    )

    def test_a_stacked_sweep_builds_no_simulator(self, monkeypatch):
        cells = list(self.GRID.cells())
        assert len(cells) == 32
        expected = run_sweep(cells)
        built = []
        init = SynchronousSimulator.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SynchronousSimulator, "__init__", counted)
        result = run_sweep(cells, cross_run=True)
        assert built == []
        assert parse_dispatch_label(result.dispatch).cross_run
        assert repr(result.cells) == repr(expected.cells)

    def test_simulate_many_traces_equal_each_run_simulation(self):
        configs = [cell.to_config() for cell in self.GRID.cells()]
        traces = simulate_many(configs)
        for config, trace in zip(configs, traces):
            assert trace.stack is not None
            solo = run_simulation(config, "lite")
            assert trace == solo
            for field in dataclasses.fields(LiteTrace):
                assert repr(getattr(trace, field.name)) == repr(
                    getattr(solo, field.name)
                ), field.name
            assert trace.controller_description == solo.controller_description
