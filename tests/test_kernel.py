"""The round kernel: equivalence, grouping and flat-math guarantees.

The trace-lite hot path now runs through
:class:`repro.runtime.kernel.RoundKernel`, whose fast mode layers
distinct-inbox memoization, flat-array MSR evaluation and (with numpy)
the array round engine over the per-recipient reference loop.  The
fast mode must be *bit-identical* to the reference mode; this suite
proves it three ways:

* **scenario equivalence** -- every scenario family (mobile M1-M4,
  static-mixed, stall, mixed-stall), every algorithm, and adversaries
  with per-recipient send overrides and forced-silent processes, run
  in the reference mode, the fast mode, and the fast mode with numpy
  hidden (the scalar grouped + flat engine), asserting identical
  ``LiteTrace`` fields (and against the full-trace path);
* **grouping property** -- randomized override patterns never let the
  distinct-inbox grouping merge two recipients whose effective inboxes
  differ;
* **flat-math units** -- :func:`repro.runtime.kernel.compile_msr`
  agrees with ``MSRFunction.apply_value`` on randomized multisets for
  every registered algorithm, including error behaviour on degenerate
  inputs.
"""

from __future__ import annotations

import random

import pytest

from tests.helpers import FAST_MODES, run_in_mode, make_mobile_config, small_grid

from repro.faults.value_strategies import (
    CampOutbox,
    CrossfireAttack,
    EchoCorrect,
    FixedValue,
    InertiaAttack,
    OscillatingAttack,
    OutlierAttack,
    RandomNoise,
    SplitAttack,
)
from repro.faults.view import AdversaryView
from repro.msr.multiset import ValueMultiset
from repro.msr.registry import make_algorithm
from repro.runtime import (
    RoundKernel,
    compile_msr,
    distinct_inbox_groups,
    run_simulation,
)
from repro.runtime.kernel import inbox_key
from repro.runtime.simulator import SynchronousSimulator, simulate_many
from repro.sweep import CellSpec, run_cell


def _assert_identical(trace, reference):
    assert trace.round_extents == reference.round_extents
    assert trace.decisions == reference.decisions
    assert trace.initially_nonfaulty == reference.initially_nonfaulty
    assert trace.terminated == reference.terminated
    # Equality on floats tolerates -0.0 vs 0.0; reprs do not.
    assert repr(trace.round_extents) == repr(reference.round_extents)
    assert repr(sorted(trace.decisions.items())) == repr(
        sorted(reference.decisions.items())
    )


def _assert_full_identical(trace, reference):
    """Full traces agree round by round: placements, memories, the
    multisets each process folded and every MSR result."""
    assert repr(sorted(trace.decisions.items())) == repr(
        sorted(reference.decisions.items())
    )
    assert repr(trace.diameters()) == repr(reference.diameters())
    assert trace.initially_nonfaulty == reference.initially_nonfaulty
    assert trace.terminated == reference.terminated
    assert len(trace.rounds) == len(reference.rounds)
    for record, expected in zip(trace.rounds, reference.rounds):
        assert record.faulty_at_send == expected.faulty_at_send
        assert record.positions_after == expected.positions_after
        for field in ("values_before", "values_after"):
            assert repr(sorted(getattr(record, field).items())) == repr(
                sorted(getattr(expected, field).items())
            )
        assert sorted(record.received) == sorted(expected.received)
        for pid in expected.received:
            assert record.received[pid] == expected.received[pid]
        assert {
            pid: repr(app.result) for pid, app in record.applications.items()
        } == {
            pid: repr(app.result) for pid, app in expected.applications.items()
        }


def _scenario_cells():
    """One cell per scenario family, with override-heavy adversaries."""
    base = dict(
        model="M1",
        f=1,
        n=None,
        algorithm="ftm",
        movement="round-robin",
        attack="split",
        epsilon=1e-3,
        seed=3,
        rounds=8,
    )
    cells = []
    for model in ("M1", "M2", "M3", "M4"):
        # crossfire exercises the camp-outbox grouping (sender-dependent
        # overrides sharing one recipient partition).
        for attack in ("split", "outlier", "crossfire"):
            cells.append(
                CellSpec(**{**base, "model": model, "attack": attack})
            )
    # Static mixed: asymmetric (per-recipient overrides), symmetric
    # (shared override) and benign (forced-silent) faults all at once.
    cells.append(
        CellSpec(
            **{
                **base,
                "model": "static",
                "f": 3,
                "n": 12,
                "scenario": "static-mixed",
                "params": {"a": 1, "s": 1, "b": 1},
            }
        )
    )
    cells.append(CellSpec(**{**base, "scenario": "stall", "rounds": 12}))
    cells.append(
        CellSpec(
            **{
                **base,
                "model": "static",
                "f": 2,
                "n": None,
                "scenario": "mixed-stall",
                "params": {"a": 1, "s": 1, "b": 0},
            }
        )
    )
    return cells


class TestScenarioEquivalence:
    """Kernel modes agree bit-for-bit across the whole scenario axis."""

    @pytest.mark.parametrize(
        "cell", _scenario_cells(), ids=lambda cell: cell.describe()
    )
    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_lite_traces_bit_identical(self, cell, mode):
        config = cell.to_config()
        reference = run_in_mode(config, "reference")
        trace = run_in_mode(config, mode)
        _assert_identical(trace, reference)

    @pytest.mark.parametrize(
        "cell", _scenario_cells(), ids=lambda cell: cell.describe()
    )
    def test_full_traces_bit_identical(self, cell):
        """The fast mode's array recorder against ``step()``, which full
        traces take in the reference mode."""
        config = cell.to_config()
        _assert_full_identical(
            run_in_mode(config, trace_detail="full"),
            run_in_mode(config, "reference", trace_detail="full"),
        )

    @pytest.mark.parametrize(
        "cell", _scenario_cells(), ids=lambda cell: cell.describe()
    )
    def test_matches_full_path(self, cell):
        config = cell.to_config()
        full = run_simulation(config, "full")
        lite = run_simulation(config, "lite")
        assert lite.decisions == full.decisions
        assert lite.diameters() == full.diameters()
        assert lite.rounds_executed() == full.rounds_executed()

    @pytest.mark.parametrize("algorithm", ["ftm", "fta", "dolev", "median-trim"])
    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_every_algorithm(self, algorithm, mode):
        config = make_mobile_config(
            "M3", f=2, algorithm=algorithm, rounds=10, seed=1
        )
        reference = run_in_mode(config, "reference")
        _assert_identical(run_in_mode(config, mode), reference)

    @pytest.mark.parametrize(
        "strategy",
        [
            SplitAttack(),
            OutlierAttack(),
            InertiaAttack(),
            RandomNoise(),
            FixedValue(0.25),
            EchoCorrect(),
            OscillatingAttack(),
            CrossfireAttack(),
        ],
        ids=lambda s: s.describe(),
    )
    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_every_strategy(self, strategy, mode):
        config = make_mobile_config("M2", f=2, values=strategy, rounds=10, seed=7)
        reference = run_in_mode(config, "reference")
        _assert_identical(run_in_mode(config, mode), reference)

    def test_forced_silent_and_overrides_mixed(self):
        """Static-mixed combines silence, shared and per-pid overrides."""
        cell = CellSpec(
            model="static",
            f=4,
            n=14,
            algorithm="fta",
            movement="static",
            attack="split",
            epsilon=1e-3,
            seed=11,
            rounds=9,
            scenario="static-mixed",
            params={"a": 2, "s": 1, "b": 1},
        )
        config = cell.to_config()
        reference = run_in_mode(config, "reference")
        _assert_identical(run_in_mode(config), reference)
        _assert_identical(run_in_mode(config, "no-numpy"), reference)
        full = run_simulation(config, "full")
        assert full.decisions == run_in_mode(config).decisions


class TestVectorizedEquivalence:
    """The numpy batch engine is bit-identical wherever it engages --
    and identical-by-fallback wherever a precondition routes the round
    back to the scalar kernel."""

    @pytest.mark.parametrize("family", ["bonomi", "tseng", "witness"])
    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_families_and_models_bit_identical(self, family, model):
        from repro.api import mobile_config

        for attack in ("split", "outlier", "crossfire"):
            config = mobile_config(
                model=model, f=2, attack=attack, seed=5,
                rounds=8, family=family,
            )
            reference = run_in_mode(config, "reference")
            _assert_identical(run_in_mode(config), reference)
            _assert_identical(run_in_mode(config, "no-numpy"), reference)

    @pytest.mark.parametrize("movement", ["round-robin", "random", "target-extremes"])
    def test_movements_bit_identical(self, movement):
        from repro.api import mobile_config

        config = mobile_config(
            model="M3", f=2, movement=movement, seed=11, rounds=10
        )
        reference = run_in_mode(config, "reference")
        _assert_identical(run_in_mode(config), reference)
        _assert_identical(run_in_mode(config, "no-numpy"), reference)

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    @pytest.mark.parametrize("spec", ["ring:2", "torus:3x3"])
    def test_partial_topology_bit_identical(self, spec, model):
        """Partial graphs run the witness relay: its array round and
        its numpy-less dict body both match the reference."""
        from repro.api import mobile_config

        config = mobile_config(
            model=model, f=1, n=9, family="witness", topology=spec,
            seed=4, rounds=6,
        )
        reference = run_in_mode(config, "reference")
        _assert_identical(run_in_mode(config), reference)
        _assert_identical(run_in_mode(config, "no-numpy"), reference)

    @pytest.mark.parametrize("mode", FAST_MODES)
    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    @pytest.mark.parametrize("family", ["tseng", "witness"])
    def test_stateful_full_traces_bit_identical(self, family, model, mode):
        """Stateful full traces record in every mode: the grouped and
        memoized folds against the per-recipient reference bodies."""
        from repro.api import mobile_config

        config = mobile_config(
            model=model, f=2, attack="crossfire", seed=3, rounds=6,
            family=family,
        )
        _assert_full_identical(
            run_in_mode(config, mode, trace_detail="full"),
            run_in_mode(config, "reference", trace_detail="full"),
        )

    def test_full_trace_matches_vectorized_lite_per_family(self):
        """Full-detail runs (scalar bookkeeping) and vectorized lite runs
        agree on every decision and diameter for all three families."""
        from repro.api import mobile_config

        for family in ("bonomi", "tseng", "witness"):
            config = mobile_config(
                model="M2", f=2, seed=9, rounds=8, family=family
            )
            lite = run_in_mode(config)
            full = run_simulation(config, "full")
            assert lite.decisions == full.decisions
            assert lite.diameters() == full.diameters()
            assert lite.rounds_executed() == full.rounds_executed()


class TestOutboxBatchEquivalence:
    """Batch outbox hooks reproduce the per-message calls exactly."""

    def _view(self, n=9, seed=4):
        rng = random.Random(seed)
        values = {pid: rng.uniform(-2.0, 3.0) for pid in range(n)}
        positions = frozenset({1, 5})
        correct = {
            pid: value
            for pid, value in values.items()
            if pid not in positions
        }
        return AdversaryView(
            round_index=3,
            n=n,
            f=2,
            values=values,
            positions=positions,
            cured=frozenset(),
            correct_values=correct,
            rng=rng,
        )

    @pytest.mark.parametrize(
        "strategy",
        [
            SplitAttack(),
            SplitAttack(low=0.0, high=1.0),
            OutlierAttack(),
            InertiaAttack(),
            FixedValue(2.5),
            EchoCorrect(),
            OscillatingAttack(),
            CrossfireAttack(),
        ],
        ids=lambda s: s.describe(),
    )
    def test_attack_outbox_matches_per_message(self, strategy):
        view = self._view()
        recipients = range(view.n)
        batch = strategy.attack_outbox(view, 1, recipients)
        per_message = {
            q: strategy.attack_message(view, 1, q) for q in recipients
        }
        assert batch == per_message
        assert list(batch) == list(per_message)
        assert all(type(v) is float for v in batch.values())

    def test_random_noise_not_sender_agnostic(self):
        # RandomNoise draws per message; sharing one outbox across
        # senders would change the rng stream.
        assert RandomNoise().sender_agnostic is False
        assert SplitAttack().sender_agnostic is True

    def test_planted_outbox_defaults_to_attack(self):
        view = self._view()
        strategy = SplitAttack()
        assert strategy.planted_outbox(view, 2, range(view.n)) == (
            strategy.attack_outbox(view, 2, range(view.n))
        )


class TestDistinctInboxGrouping:
    """The grouping never merges pids with different effective inboxes."""

    def _random_outboxes(self, rng, n):
        """A random mix of full, partial and shared override maps."""
        outboxes = []
        for _ in range(rng.randrange(0, 4)):
            choice = rng.random()
            if choice < 0.4:
                # Full outbox with few distinct values (adversary camps).
                camp = [rng.uniform(-1, 1) for _ in range(rng.randrange(1, 3))]
                outbox = {q: rng.choice(camp) for q in range(n)}
            elif choice < 0.7:
                # Partial outbox: only some recipients targeted.
                targeted = rng.sample(range(n), rng.randrange(0, n))
                outbox = {q: rng.uniform(-1, 1) for q in targeted}
            else:
                # Shared object, appended twice (aliasing like the
                # controllers' shared round outboxes).
                value = rng.uniform(-1, 1)
                outbox = {q: value for q in range(n)}
                outboxes.append(outbox)
            outboxes.append(outbox)
        return outboxes

    def test_groups_partition_by_effective_inbox(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randrange(1, 12)
            outboxes = self._random_outboxes(rng, n)
            excluded = frozenset(rng.sample(range(n), rng.randrange(0, n)))
            groups = distinct_inbox_groups(n, outboxes or None, excluded)
            seen: set[int] = set()
            for key, pids in groups.items():
                # Within a group every pid sees the same override delta.
                expected = inbox_key(pids[0], outboxes)
                for pid in pids:
                    assert inbox_key(pid, outboxes) == expected
                    assert pid not in excluded
                seen.update(pids)
            assert seen == set(range(n)) - excluded
            # Across groups the deltas differ: no merge of distinct
            # inboxes, no split of identical ones.
            keys = [inbox_key(pids[0], outboxes) for pids in groups.values()]
            assert len(set(keys)) == len(keys)

    def test_grouped_kernel_matches_reference_on_random_plans(self):
        """End to end: random adversaries through both kernel modes."""
        for seed in range(6):
            config = make_mobile_config(
                "M3", f=3, values=RandomNoise(), rounds=8, seed=seed
            )
            reference = run_in_mode(config, "reference")
            _assert_identical(run_in_mode(config), reference)
            _assert_identical(run_in_mode(config, "no-numpy"), reference)


class TestCompileMSR:
    """Flat evaluators agree with apply_value bit for bit."""

    ALGORITHMS = [
        ("ftm", 2),
        ("fta", 2),
        ("dolev", 2),
        ("median-trim", 2),
        ("ftm", 0),
        ("fta", 0),
    ]

    @pytest.mark.parametrize("name,tau", ALGORITHMS)
    def test_matches_apply_value(self, name, tau):
        function = make_algorithm(name, tau)
        evaluate = compile_msr(function)
        assert evaluate is not None
        rng = random.Random(99)
        for trial in range(300):
            size = rng.randrange(2 * tau + 1, 2 * tau + 12)
            values = sorted(rng.uniform(-5, 5) for _ in range(size))
            expected = function.apply_value(
                ValueMultiset.from_trusted_floats(values)
            )
            assert repr(evaluate(values)) == repr(expected)

    def test_empty_inbox_raises_canonical_error(self):
        function = make_algorithm("ftm", 1)
        evaluate = compile_msr(function)
        with pytest.raises(ValueError, match="empty"):
            evaluate([])

    def test_below_bound_raises_canonical_error(self):
        function = make_algorithm("ftm", 2)
        evaluate = compile_msr(function)
        with pytest.raises(ValueError, match="resilience bound"):
            evaluate([1.0, 2.0, 3.0])

    def test_unknown_stage_returns_none(self):
        from repro.msr.base import MSRFunction
        from repro.msr.reduce import TrimExtremes
        from repro.msr.select import SelectAll

        class NoFlatSelection(SelectAll.__bases__[0]):  # Selection
            def __call__(self, multiset):
                return multiset

            def describe(self):
                return "no-flat"

        function = MSRFunction(
            reduction=TrimExtremes(1),
            selection=NoFlatSelection(),
            name="NoFlat",
        )
        assert compile_msr(function) is None


class TestBatchSimulation:
    """simulate_many shares one kernel without cross-run leakage."""

    def test_matches_individual_runs(self):
        configs = [
            make_mobile_config("M2", f=1, rounds=6, seed=seed)
            for seed in range(5)
        ]
        individual = [run_simulation(c, "lite") for c in configs]
        batched = simulate_many(configs, kernel=RoundKernel())
        for one, many in zip(individual, batched):
            _assert_identical(many, one)

    def test_mixed_sizes_share_kernel(self):
        kernel = RoundKernel()
        configs = [
            make_mobile_config("M1", f=1, rounds=5, seed=0),
            make_mobile_config("M3", f=2, rounds=7, seed=1),
            make_mobile_config("M1", f=1, rounds=5, seed=0),
        ]
        first, second, repeat = simulate_many(configs, kernel=kernel)
        _assert_identical(repeat, first)
        assert second.n != first.n

    def test_run_cell_accepts_shared_kernel(self):
        cell = next(iter(small_grid().cells()))
        kernel = RoundKernel()
        assert run_cell(cell, kernel=kernel) == run_cell(cell)


class TestTopologyKernel:
    """Topology specs and the scalar kernel.

    The scalar kernel folds one shared broadcast list, so it runs on
    the complete graph only: a spec that resolves to the complete graph
    changes nothing, and a scalar family on a partial graph is refused
    up front (the witness relay family serves partial graphs).
    """

    def test_scalar_family_on_a_partial_graph_is_refused(self):
        from repro.api import mobile_config
        from repro.runtime.families import (
            _REGISTRY,
            BonomiFamily,
            register_family,
        )

        class PartialScalar(BonomiFamily):
            name = "partial-scalar-probe"
            requires_complete = False

        register_family(PartialScalar())
        try:
            config = mobile_config(
                model="M1", f=1, n=9, family="partial-scalar-probe",
                topology="ring:2", rounds=4,
            )
            for detail in ("lite", "full"):
                with pytest.raises(ValueError) as raised:
                    SynchronousSimulator(config, trace_detail=detail)
                message = str(raised.value)
                assert "'partial-scalar-probe' family" in message
                assert "topology 'ring:2'" in message
                assert "complete communication graph only" in message
        finally:
            _REGISTRY.pop("partial-scalar-probe")

    @pytest.mark.parametrize(
        "model,attack",
        [(m, a) for m in ("M1", "M2", "M3", "M4")
         for a in ("split", "outlier", "crossfire")],
    )
    def test_structurally_complete_spec_bit_identical_end_to_end(
        self, model, attack
    ):
        """A non-default spec resolving to the complete graph changes nothing.

        ``ring:6`` at ``n = 13`` *is* the complete graph, so the whole
        scalar stack -- network, controllers, kernel -- must produce
        bit-identical traces to the pre-topology default across every
        mobile scenario axis, on both trace paths.
        """
        from repro.topology import topology_from_spec

        assert topology_from_spec("ring:6", 13).is_complete
        base = dict(
            model=model,
            f=2,
            n=13,
            algorithm="ftm",
            movement="round-robin",
            attack=attack,
            epsilon=1e-3,
            seed=3,
            rounds=8,
        )
        default = CellSpec(**base).to_config()
        ringed = CellSpec(**base, topology="ring:6").to_config()
        _assert_identical(
            run_simulation(ringed, "lite"), run_simulation(default, "lite")
        )
        assert (
            run_simulation(ringed, "full").decisions
            == run_simulation(default, "full").decisions
        )


class TestRecipientCamps:
    """Camp-declared outboxes: Mapping fidelity and kernel grouping."""

    def _view(self, n=11, seed=9):
        rng = random.Random(seed)
        values = {pid: rng.uniform(-1.0, 2.0) for pid in range(n)}
        positions = frozenset({0, 4, 8})
        correct = {
            pid: value for pid, value in values.items() if pid not in positions
        }
        return AdversaryView(
            round_index=2,
            n=n,
            f=3,
            values=values,
            positions=positions,
            cured=frozenset(),
            correct_values=correct,
            rng=rng,
        )

    @pytest.mark.parametrize(
        "strategy",
        [
            SplitAttack(),
            SplitAttack(low=-1.0, high=3.0),
            OutlierAttack(),
            FixedValue(0.75),
            EchoCorrect(),
            OscillatingAttack(),
            CrossfireAttack(),
        ],
        ids=lambda s: s.describe(),
    )
    def test_camps_match_outbox_for_every_sender(self, strategy):
        view = self._view()
        for sender in sorted(view.positions):
            camps = strategy.attack_camps(view, sender)
            assert camps is not None
            outbox = CampOutbox(camps.validate(view.n, "test"))
            materialized = strategy.attack_outbox(view, sender, range(view.n))
            assert dict(outbox) == {
                q: float(v) for q, v in materialized.items()
            }
            assert list(outbox) == list(range(view.n))
            assert len(outbox) == view.n

    def test_assignment_shared_across_senders(self):
        # The whole point of camps: the recipient partition is computed
        # once per round (memoized on the view), so sender-dependent
        # strategies stop paying O(n) per sender.
        view = self._view()
        strategy = CrossfireAttack()
        first = strategy.attack_camps(view, 0)
        second = strategy.attack_camps(view, 1)
        assert first.assignment is second.assignment
        assert first.values != second.values  # direction swaps by parity

    def test_camp_outbox_mapping_protocol(self):
        view = self._view(n=5)
        outbox = CampOutbox(SplitAttack().attack_camps(view, 0))
        assert 4 in outbox and 5 not in outbox and -1 not in outbox
        assert outbox.get(5) is None and outbox.get(5, 1.5) == 1.5
        with pytest.raises(KeyError):
            outbox[5]
        assert set(outbox.keys()) == set(range(5))
        assert len(list(outbox.values())) == 5
        assert dict(outbox.items()) == dict(outbox)

    def test_camps_reject_bad_shapes(self):
        from repro.faults.value_strategies import RecipientCamps

        with pytest.raises(ValueError, match="assignment covers"):
            RecipientCamps((1.0,), (0, 0)).validate(3, "test")
        with pytest.raises(ValueError, match="non-finite"):
            RecipientCamps(
                (float("nan"),), (0, 0, 0)
            ).validate(3, "test")
        with pytest.raises(ValueError, match="camp indices outside"):
            RecipientCamps((1.0,), (0, 1, 0)).validate(3, "test")
        with pytest.raises(ValueError, match="camp indices outside"):
            RecipientCamps((1.0,), (0, -1, 0)).validate(3, "test")

    def test_kernel_groups_by_camp_index(self):
        """Camp grouping yields the same partition the generic key does."""
        view = self._view()
        strategies = [CrossfireAttack(), SplitAttack()]
        outboxes = [
            CampOutbox(s.attack_camps(view, sender).validate(view.n, "t"))
            for sender, s in enumerate(strategies)
        ]
        groups = distinct_inbox_groups(view.n, outboxes)
        # Every recipient of one group must share the exact override
        # delta -- the grouping invariant the camp fast path relies on.
        for key, pids in groups.items():
            for pid in pids:
                assert inbox_key(pid, outboxes) == key

    def test_strategies_without_camps_stay_dict(self):
        view = self._view()
        assert InertiaAttack().attack_camps(view, 0) is None
        assert RandomNoise().attack_camps(view, 0) is None

    def test_planted_camps_default_to_attack_camps(self):
        view = self._view()
        camps = SplitAttack().planted_camps(view, 0)
        attack = SplitAttack().attack_camps(view, 0)
        assert camps == attack and camps is not None

    def test_planted_camps_opt_out_when_planted_hooks_customized(self):
        """Either planted hook overridden -> camps must not shadow it."""

        class CustomQueue(SplitAttack):
            def planted_message(self, view, sender, recipient):
                return 0.0

        class CustomBatch(SplitAttack):
            def planted_outbox(self, view, sender, recipients):
                return dict.fromkeys(recipients, 0.0)

        view = self._view()
        assert CustomQueue().planted_camps(view, 0) is None
        assert CustomBatch().planted_camps(view, 0) is None
        # And the batch queue actually drives the controller path:
        # values must match the override, not the attack camps.
        outbox = CustomBatch().planted_outbox(view, 0, range(view.n))
        assert set(outbox.values()) == {0.0}
