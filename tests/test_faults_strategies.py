"""Tests for adversary views, value strategies and movement strategies."""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults import (
    Adversary,
    AdversaryView,
    AlternatingPools,
    EchoCorrect,
    FixedValue,
    MobileModel,
    OutlierAttack,
    RandomJump,
    RandomNoise,
    RoundRobinWalk,
    ScriptedMovement,
    SplitAttack,
    StaticAgents,
    TargetExtremes,
)
from repro.faults.movement import MovementStrategy
from repro.faults.view import batch_correct_ranges
from repro.faults.value_strategies import (
    CrossfireAttack,
    InertiaAttack,
    OscillatingAttack,
    ValueStrategy,
)
from repro.runtime.controllers import MobileFaultController


def make_view(
    values=None,
    positions=frozenset({0}),
    cured=frozenset(),
    n=None,
    f=1,
    round_index=1,
    seed=0,
):
    if values is None:
        values = {0: 9.9, 1: 0.0, 2: 0.4, 3: 1.0}
    if n is None:
        n = len(values)
    correct = {
        pid: value
        for pid, value in values.items()
        if pid not in positions and pid not in cured
    }
    return AdversaryView(
        round_index=round_index,
        n=n,
        f=f,
        values=values,
        positions=positions,
        cured=cured,
        correct_values=correct,
        rng=random.Random(seed),
    )


class TestAdversaryView:
    def test_correct_range_excludes_faulty(self):
        view = make_view()
        interval = view.correct_range()
        assert (interval.low, interval.high) == (0.0, 1.0)

    def test_correct_ids(self):
        assert make_view().correct_ids == frozenset({1, 2, 3})

    def test_midpoint(self):
        assert make_view().correct_midpoint() == 0.5

    def test_range_falls_back_to_all_values(self):
        view = make_view(values={0: 2.0}, positions=frozenset({0}))
        assert view.correct_range().low == 2.0

    def test_empty_view_raises(self):
        view = make_view(values={}, positions=frozenset())
        with pytest.raises(ValueError):
            view.correct_range()


class TestValueStrategies:
    def test_fixed_value(self):
        strategy = FixedValue(42.0)
        assert strategy.attack_message(make_view(), 0, 1) == 42.0
        assert strategy.departure_value(make_view(), 0) == 42.0

    def test_split_sends_low_to_low_half(self):
        strategy = SplitAttack()
        view = make_view()
        assert strategy.attack_message(view, 0, 1) == 0.0  # value 0.0 <= mid
        assert strategy.attack_message(view, 0, 3) == 1.0  # value 1.0 > mid

    def test_split_symmetric_variant_is_high(self):
        assert SplitAttack().attack_message(make_view(), 0, None) == 1.0

    def test_split_explicit_anchors(self):
        strategy = SplitAttack(low=-5.0, high=5.0)
        view = make_view()
        assert strategy.attack_message(view, 0, 1) == -5.0
        assert strategy.attack_message(view, 0, 3) == 5.0

    def test_split_unknown_recipient_uses_parity(self):
        strategy = SplitAttack()
        view = make_view(values={0: 0.0, 1: 1.0}, positions=frozenset())
        assert strategy.attack_message(view, 0, 4) == 0.0
        assert strategy.attack_message(view, 0, 5) == 1.0

    def test_outlier_leaves_correct_range(self):
        strategy = OutlierAttack(magnitude=100.0)
        view = make_view()
        high = strategy.attack_message(view, 0, 0)
        low = strategy.attack_message(view, 0, 1)
        assert high == 101.0
        assert low == -100.0

    def test_outlier_requires_positive_magnitude(self):
        with pytest.raises(ValueError):
            OutlierAttack(magnitude=0.0)

    def test_noise_is_seed_deterministic(self):
        strategy = RandomNoise()
        a = strategy.attack_message(make_view(seed=5), 0, 1)
        b = strategy.attack_message(make_view(seed=5), 0, 1)
        assert a == b

    def test_noise_spread_validation(self):
        with pytest.raises(ValueError):
            RandomNoise(spread=0.0)

    def test_echo_sends_midpoint(self):
        assert EchoCorrect().attack_message(make_view(), 0, 1) == 0.5

    def test_planted_defaults_to_attack(self):
        strategy = SplitAttack()
        view = make_view()
        assert strategy.planted_message(view, 0, 1) == strategy.attack_message(
            view, 0, 1
        )

    def test_corrupted_compute_defaults_to_departure(self):
        strategy = FixedValue(7.0)
        assert strategy.corrupted_compute(make_view(), 2) == 7.0


class TestMovementStrategies:
    def test_static_agents_stay(self):
        strategy = StaticAgents()
        rng = random.Random(0)
        initial = strategy.initial_positions(5, 2, rng)
        assert initial == frozenset({0, 1})
        view = make_view(
            values={i: float(i) for i in range(5)}, positions=initial, f=2
        )
        assert strategy.next_positions(view) == initial

    def test_static_agents_custom_positions(self):
        strategy = StaticAgents([3, 4])
        assert strategy.initial_positions(5, 2, random.Random(0)) == frozenset({3, 4})

    def test_static_agents_validates_count(self):
        with pytest.raises(ValueError, match="agents"):
            StaticAgents([0, 1, 2]).initial_positions(5, 2, random.Random(0))

    def test_round_robin_shifts_by_f(self):
        strategy = RoundRobinWalk()
        view = make_view(
            values={i: float(i) for i in range(6)},
            positions=frozenset({0, 1}),
            f=2,
            n=6,
        )
        assert strategy.next_positions(view) == frozenset({2, 3})

    def test_round_robin_wraps(self):
        strategy = RoundRobinWalk(stride=2)
        view = make_view(
            values={i: float(i) for i in range(4)},
            positions=frozenset({3}),
            f=1,
            n=4,
        )
        assert strategy.next_positions(view) == frozenset({1})

    def test_round_robin_invalid_stride(self):
        with pytest.raises(ValueError):
            RoundRobinWalk(stride=0)

    def test_random_jump_bounded_count(self):
        strategy = RandomJump()
        positions = strategy.initial_positions(10, 3, random.Random(1))
        assert len(positions) == 3
        view = make_view(
            values={i: 0.0 for i in range(10)}, positions=positions, f=3, n=10
        )
        assert len(strategy.next_positions(view)) == 3

    def test_random_jump_can_linger(self):
        strategy = RandomJump(move_probability=0.0)
        positions = frozenset({2})
        view = make_view(
            values={i: 0.0 for i in range(4)}, positions=positions, f=1, n=4
        )
        assert strategy.next_positions(view) == positions

    def test_random_jump_probability_validated(self):
        with pytest.raises(ValueError):
            RandomJump(move_probability=1.5)

    def test_alternating_pools(self):
        strategy = AlternatingPools([0], [1])
        rng = random.Random(0)
        assert strategy.initial_positions(4, 1, rng) == frozenset({0})
        view_a = make_view(
            values={i: 0.0 for i in range(4)}, positions=frozenset({0}), n=4
        )
        assert strategy.next_positions(view_a) == frozenset({1})
        view_b = make_view(
            values={i: 0.0 for i in range(4)}, positions=frozenset({1}), n=4
        )
        assert strategy.next_positions(view_b) == frozenset({0})

    def test_alternating_pools_must_be_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            AlternatingPools([0, 1], [1, 2])

    def test_alternating_pools_nonempty(self):
        with pytest.raises(ValueError):
            AlternatingPools([], [1])

    def test_target_extremes_picks_extreme_holders(self):
        strategy = TargetExtremes()
        view = make_view(
            values={0: 0.0, 1: 0.5, 2: 0.4, 3: 1.0},
            positions=frozenset(),
            f=2,
            n=4,
        )
        assert strategy.next_positions(view) == frozenset({0, 3})

    def test_scripted_movement_follows_script(self):
        strategy = ScriptedMovement([[0], [1], [2]])
        rng = random.Random(0)
        assert strategy.initial_positions(4, 1, rng) == frozenset({0})
        view = make_view(values={i: 0.0 for i in range(4)}, n=4)
        assert strategy.next_positions(view) == frozenset({1})
        assert strategy.next_positions(view) == frozenset({2})
        # Past the end: repeats the last entry.
        assert strategy.next_positions(view) == frozenset({2})

    def test_scripted_movement_reset_on_initial(self):
        strategy = ScriptedMovement([[0], [1]])
        rng = random.Random(0)
        view = make_view(values={i: 0.0 for i in range(4)}, n=4)
        strategy.initial_positions(4, 1, rng)
        strategy.next_positions(view)
        # Re-initialising replays the script from the start.
        assert strategy.initial_positions(4, 1, rng) == frozenset({0})
        assert strategy.next_positions(view) == frozenset({1})

    def test_scripted_requires_entries(self):
        with pytest.raises(ValueError):
            ScriptedMovement([])


class TestAdversary:
    def test_defaults(self):
        adversary = Adversary()
        assert isinstance(adversary.movement, StaticAgents)
        assert isinstance(adversary.values, SplitAttack)

    def test_delegation(self):
        adversary = Adversary(StaticAgents([2]), FixedValue(3.0))
        rng = random.Random(0)
        assert adversary.initial_positions(4, 1, rng) == frozenset({2})
        assert adversary.attack_message(make_view(), 0, 1) == 3.0
        assert adversary.departure_value(make_view(), 0) == 3.0
        assert adversary.planted_message(make_view(), 0, 1) == 3.0
        assert adversary.corrupted_compute(make_view(), 0) == 3.0

    def test_describe_combines_parts(self):
        adversary = Adversary(RoundRobinWalk(), SplitAttack())
        text = adversary.describe()
        assert "round-robin" in text and "split" in text


BUILT_IN_STRATEGIES = [
    FixedValue(2.5),
    SplitAttack(),
    SplitAttack(low=0.0, high=1.0),
    OutlierAttack(),
    RandomNoise(),
    EchoCorrect(),
    OscillatingAttack(),
    InertiaAttack(),
    CrossfireAttack(),
]


class TestSenderClasses:
    """The sender-class contract fault planning shares work through."""

    def _view(self, n=12):
        rng = random.Random(3)
        values = {pid: rng.uniform(-1.0, 2.0) for pid in range(n)}
        return make_view(
            values=values,
            positions=frozenset({0, 3, 5, 8}),
            cured=frozenset({1, 6}),
            f=4,
        )

    @pytest.mark.parametrize(
        "strategy", BUILT_IN_STRATEGIES, ids=lambda s: s.describe()
    )
    def test_one_class_gives_equal_outputs(self, strategy):
        view = self._view()
        recipients = range(view.n)
        by_class: dict = {}
        for sender in range(view.n):
            key = strategy.sender_class(sender)
            if key is not None:
                by_class.setdefault(key, []).append(sender)
        for senders in by_class.values():
            first, rest = senders[0], senders[1:]

            def outputs(sender):
                camps = strategy.attack_camps(view, sender)
                planted = strategy.planted_camps(view, sender)
                return (
                    None if camps is None else (camps.values, camps.assignment),
                    strategy.attack_outbox(view, sender, recipients),
                    None if planted is None else (planted.values, planted.assignment),
                    strategy.planted_outbox(view, sender, recipients),
                    strategy.departure_value(view, sender),
                    strategy.corrupted_compute(view, sender),
                )

            expected = outputs(first)
            for sender in rest:
                assert outputs(sender) == expected, (first, sender)

    def test_sender_agnostic_strategies_have_one_class(self):
        for strategy in BUILT_IN_STRATEGIES:
            if strategy.sender_agnostic:
                assert {strategy.sender_class(p) for p in range(9)} == {0}

    def test_crossfire_has_exactly_two_classes(self):
        strategy = CrossfireAttack()
        assert {strategy.sender_class(p) for p in range(11)} == {0, 1}
        view = self._view()
        even = strategy.attack_camps(view, 0)
        odd = strategy.attack_camps(view, 1)
        assert even.assignment is odd.assignment
        assert even.values == tuple(reversed(odd.values))

    def test_random_noise_declares_no_class(self):
        strategy = RandomNoise()
        assert all(strategy.sender_class(p) is None for p in range(5))
        adversary = Adversary(values=strategy)
        assert adversary.outbox_class(0) is None
        assert adversary.scalar_class(0) is None

    def test_adversary_exposes_the_strategy_key(self):
        adversary = Adversary(values=CrossfireAttack())
        assert [adversary.outbox_class(p) for p in range(4)] == [0, 1, 0, 1]
        assert [adversary.scalar_class(p) for p in range(4)] == [0, 1, 0, 1]

    def test_attack_message_override_opts_out_of_outbox_classes(self):
        class Rerouted(Adversary):
            def attack_message(self, view, sender, recipient):
                return float(sender)

        adversary = Rerouted(values=SplitAttack())
        assert adversary.outbox_class is None
        # The scalar hooks still go through the strategy untouched.
        assert adversary.scalar_class(7) == 0

    def test_departure_value_override_opts_out_of_scalar_classes(self):
        class Departing(Adversary):
            def departure_value(self, view, pid):
                return float(pid)

        adversary = Departing(values=SplitAttack())
        assert adversary.scalar_class is None
        assert adversary.outbox_class(7) == 0

    def test_strategy_scalar_override_opts_out(self):
        class Marked(SplitAttack):
            def departure_value(self, view, pid):
                return float(pid)

        adversary = Adversary(values=Marked())
        assert adversary.scalar_class is None
        assert adversary.outbox_class(2) == 0

    def test_controller_builds_one_outbox_per_class(self):
        n, f = 13, 4
        strategy = CrossfireAttack()
        controller = MobileFaultController(
            n=n,
            f=f,
            model=MobileModel.SASAKI,
            adversary=Adversary(RoundRobinWalk(), strategy),
        )
        values = {pid: pid / (n - 1) for pid in range(n)}
        rng = random.Random(0)
        controller.plan_round(0, values, rng)
        plan = controller.plan_round(1, values, rng)
        # M3 after one move: f attackers and f cured planted-queue senders.
        for group in (plan.faulty_at_send, plan.cured_at_send):
            assert len(group) == f
            assert len({id(plan.send_overrides[p]) for p in group}) == 2
        view = AdversaryView(
            round_index=1,
            n=n,
            f=f,
            values={**values, **plan.memory_corruptions},
            positions=plan.faulty_at_send,
            cured=plan.cured_at_send,
        )
        for pid, outbox in plan.send_overrides.items():
            assert dict(outbox) == strategy.attack_outbox(view, pid, range(n))
        interval = view.correct_range()
        for pid, value in plan.memory_corruptions.items():
            assert value == (interval.high if pid % 2 == 0 else interval.low)


class TestBatchCorrectRanges:
    def test_signed_zero_and_empty_rows_are_left_to_the_view(self):
        # Either signed zero could win numpy's min/max, and a fully
        # masked row has no range: the view rescans those rows.
        stack = np.array(
            [[0.5, -1.0, 2.0], [0.0, -0.0, 1.0], [3.0, 4.0, -0.0], [1.0, 2.0, 3.0]]
        )
        mask = np.ones((4, 3), dtype=bool)
        mask[3] = False
        low, high, exact = batch_correct_ranges(stack, mask)
        assert exact.tolist() == [True, False, False, False]
        assert (low[0], high[0]) == (-1.0, 2.0)


class TestSenderClassTuples:
    def test_equal_keys_share_one_tuple(self):
        controller = MobileFaultController(
            n=9, f=2, model=MobileModel.GARAY,
            adversary=Adversary(values=CrossfireAttack()),
        )
        assert controller._outbox_classes == (0, 1) * 4 + (0,)
        assert controller._scalar_classes is controller._outbox_classes

    def test_rerouted_scalar_hook_keeps_its_own_tuple(self):
        class Departing(Adversary):
            def departure_value(self, view, pid):
                return float(pid)

        controller = MobileFaultController(
            n=5, f=1, model=MobileModel.GARAY,
            adversary=Departing(values=SplitAttack()),
        )
        assert controller._outbox_classes == (0,) * 5
        assert controller._scalar_classes == (None,) * 5


class TestBatchedHooks:
    """The stacked planner's batched hooks equal the per-run hooks."""

    STRATEGIES = [
        SplitAttack(),
        SplitAttack(-3.0, None),
        OutlierAttack(2.5),
        EchoCorrect(),
        OscillatingAttack(),
        FixedValue(1.5),
        CrossfireAttack(),
    ]

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=repr)
    @pytest.mark.parametrize("round_index", [1, 2])
    def test_class_values_match_the_per_run_hooks(self, strategy, round_index):
        n = 8
        rows = [(-1.0, 0.5), (0.25, 3.0)]
        senders = (0, 1) if isinstance(strategy, CrossfireAttack) else (0,)
        group = SimpleNamespace(
            strategies=[strategy] * len(rows),
            low=np.array([low for low, _ in rows]),
            high=np.array([high for _, high in rows]),
            round_index=round_index,
            senders=senders,
            memo=lambda key, factory: factory(),
        )
        tables = type(strategy).class_values(group)
        for k, (low, high) in enumerate(rows):
            values = {pid: low + (high - low) * pid / (n - 1) for pid in range(n)}
            view = make_view(
                values=values, positions=frozenset(), round_index=round_index
            )
            assert view.correct_range().low == low
            for c, sender in enumerate(senders):
                camps = strategy.attack_camps(view, sender)
                assert tables.departures[k, c] == strategy.departure_value(view, sender)
                assert tables.computes[k, c] == strategy.corrupted_compute(view, sender)
                assert tuple(tables.camps[k, c]) == tuple(camps.values)
            midpoint = view.correct_midpoint()
            expected = {
                "zero": (0,) * n,
                "parity": tuple(pid % 2 for pid in range(n)),
                "split": tuple(int(values[pid] > midpoint) for pid in range(n)),
            }[tables.assignment]
            assert tuple(camps.assignment) == expected

    def test_rerouted_value_hook_gets_the_per_row_default(self):
        class Rerouted(CrossfireAttack):
            def attack_camps(self, view, sender):
                return super().attack_camps(view, sender)

        class Tuned(CrossfireAttack):
            pass

        assert Adversary(values=CrossfireAttack()).class_values_hook == (
            CrossfireAttack.class_values
        )
        def hook(strategy):
            return Adversary(values=strategy).class_values_hook

        assert hook(Tuned()) == CrossfireAttack.class_values
        assert hook(Rerouted()) == ValueStrategy.class_values
        assert Adversary(values=InertiaAttack()).class_values_hook == (
            ValueStrategy.class_values
        )

    def test_round_robin_next_hosts_is_a_column_roll(self):
        n = 11
        hosts = np.zeros((3, n), dtype=bool)
        hosts[0, [0, 1]] = hosts[1, [9, 10]] = hosts[2, [4]] = True
        strategies = [RoundRobinWalk(), RoundRobinWalk(), RoundRobinWalk(stride=3)]
        f = np.array([2, 2, 1])
        group = SimpleNamespace(strategies=strategies, hosts=hosts, n=n, f=f)
        moved = RoundRobinWalk.next_hosts(group)
        for k, strategy in enumerate(strategies):
            view = make_view(
                values={pid: 0.0 for pid in range(n)},
                positions=frozenset(np.flatnonzero(hosts[k]).tolist()),
                f=int(f[k]),
            )
            assert frozenset(np.flatnonzero(moved[k]).tolist()) == (
                strategy.next_positions(view)
            )

    def test_movement_hook_resolution(self):
        class Walk(RoundRobinWalk):
            def next_positions(self, view):
                return super().next_positions(view)

        class Moving(Adversary):
            def next_positions(self, view):
                return super().next_positions(view)

        assert Adversary(RoundRobinWalk()).movement_hook == RoundRobinWalk.next_hosts
        assert Adversary(StaticAgents()).movement_hook == StaticAgents.next_hosts
        assert Adversary(RandomJump()).movement_hook == MovementStrategy.next_hosts
        assert Adversary(Walk()).movement_hook == MovementStrategy.next_hosts
        assert Moving(RoundRobinWalk()).movement_hook is None
