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

They also pin the supporting machinery: ``CellSpec.batch_key``
partitioning is a true partition, the ``cross-run(...)`` dispatch label
surfaces batch membership without entering equality, error cells keep
their exact per-cell attribution, and ``estimate_cell_cost`` orders
families and topologies by their real relative expense.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import make_mobile_config, small_grid

from repro.api import movement_strategy, value_strategy
from repro.faults import get_semantics
from repro.faults.value_strategies import (
    CrossfireAttack,
    RecipientCamps,
    SplitAttack,
)
from repro.runtime import RoundKernel
from repro.runtime.controllers import CrossRunPlanner
from repro.runtime.simulator import run_simulation, simulate_many
from repro.sweep import (
    CellSpec,
    GridSpec,
    SweepAccumulator,
    run_cell,
    run_cell_many,
    run_sweep,
)
from repro.sweep.backends import estimate_cell_cost
from repro.telemetry import parse_dispatch_label


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
        # Oracle termination stops crossfire after round 0 (which runs
        # per cell), so a fixed budget is what takes it through the
        # stack: M3 plants queues, M1 keeps cured processes silent.
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
        # build theirs on demand from the class tables.
        monkeypatch.setattr(
            RoundKernel, "fold_rows_many",
            lambda self, batch, np, entries: [None] * len(entries),
        )
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
        assert int(match.group(1)) == 12  # 3x2x2 scenario shapes
        assert int(match.group(2)) == 3  # seeds per shape
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
    """``batch_key`` grouping is a true partition (satellite 3)."""

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
            groups.setdefault(spec.batch_key, []).append(spec)
        # Every cell lands in exactly one group; the union is the input.
        assert sum(len(group) for group in groups.values()) == len(cells)
        regrouped = [spec for group in groups.values() for spec in group]
        assert sorted(spec.key for spec in regrouped) == sorted(
            spec.key for spec in cells
        )

    def test_groups_never_mix_shapes(self):
        groups: dict[tuple, list[CellSpec]] = {}
        for spec in self.mixed_cells():
            groups.setdefault(spec.batch_key, []).append(spec)
        for members in groups.values():
            shapes = {
                (m.model, m.family, m.topology, m.scenario, m.params, m.n)
                for m in members
            }
            assert len(shapes) == 1
            # Within a group, cells differ only in seed.
            seeds = [m.seed for m in members]
            assert len(set(seeds)) == len(seeds)
            canonical = {replace(m, seed=0) for m in members}
            assert len(canonical) == 1

    def test_mixed_family_topology_grid_splits_correctly(self):
        grid = GridSpec(
            models=("M1",),
            fs=(1,),
            families=("bonomi", "witness"),
            topologies=("complete", "ring:3"),
            seeds=range(4),
            max_rounds=10,
        )
        cells = list(grid.cells())
        groups = {spec.batch_key for spec in cells}
        # bonomi is pruned off the ring, so 3 (family, topology) pairs.
        assert len(groups) == 3
        assert len(cells) == 12


class TestEstimateCellCost:
    """Family and topology weightings order cells by real expense."""

    def test_family_ordering(self):
        bonomi = estimate_cell_cost(cell(family="bonomi"))
        tseng = estimate_cell_cost(cell(family="tseng"))
        witness = estimate_cell_cost(cell(family="witness"))
        assert bonomi < tseng < witness

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
            cell(family="witness"),
            cell(family="witness", topology="ring:3"),
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


def _bits(trace):
    """A trace's outputs with every float as its exact bit pattern."""
    return (
        {pid: value.hex() for pid, value in trace.decisions.items()},
        tuple(value.hex() for value in trace.diameters()),
        trace.rounds_executed(),
        trace.terminated,
    )


@st.composite
def _stacks(draw):
    """A random valid stack: one (model, f, n, algorithm) shape whose rows
    mix built-in attacks, movements, seeds, round budgets and initial
    values (signed zeros included, to exercise the tie order)."""
    model = draw(st.sampled_from(["M1", "M2", "M3", "M4"]))
    f = draw(st.integers(1, 3))
    n = get_semantics(model).required_n(f) + draw(st.integers(0, 4))
    algorithm = draw(st.sampled_from(["ftm", "fta"]))
    value = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    return [
        make_mobile_config(
            model,
            f=f,
            n=n,
            algorithm=algorithm,
            movement=movement_strategy(
                draw(st.sampled_from(["round-robin", "random", "static",
                                      "target-extremes"]))
            ),
            values=value_strategy(
                draw(st.sampled_from(["split", "outlier", "noise", "echo",
                                      "oscillating", "inertia", "crossfire"]))
            ),
            initial_values=draw(st.lists(value, min_size=n, max_size=n)),
            rounds=draw(st.integers(1, 8)),
            seed=draw(st.integers(0, 2**16)),
        )
        for _ in range(draw(st.integers(2, 5)))
    ]


class TestStackedDifferential:
    """Random stacks through ``simulate_many`` vs per-run ``run_simulation``."""

    @settings(max_examples=40, deadline=None)
    @given(configs=_stacks())
    def test_simulate_many_matches_run_simulation(self, configs):
        many = simulate_many(configs)
        for config, trace in zip(configs, many):
            assert _bits(trace) == _bits(run_simulation(config, "lite"))
