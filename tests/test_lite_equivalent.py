"""Stateful runs that ride the cross-run engine as bonomi rows.

:meth:`ProtocolFamily.lite_equivalent` declares where a stateful family
provably folds the bonomi multiset: tseng under M1/M3/M4 and witness
under M1/M2, on the complete graph.  ``simulate_many`` stacks those
runs as bonomi rows.  These tests pin

* the routing table (who declares what, and who declares nothing);
* the equivalence itself: stacked runs equal the family's own driver
  per config (a derandomized Hypothesis differential over attacks,
  movements, ``f``/``n`` and termination rules, plus one fixed grid
  comparing every :class:`LiteTrace` field);
* engagement: declared cells in a cross-run sweep never reach the
  family's ``run_round``; undeclared cells, singleton groups, full
  traces and the reference kernel still do;
* a negative control the differential can see (tseng under M2).
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import mobile_config
from repro.faults import Adversary, SplitAttack, StaticFaultAssignment, get_semantics
from repro.msr import fault_tolerant_midpoint
from repro.runtime import (
    EstimatedRounds,
    FixedRounds,
    MobileFaultSetup,
    RoundKernel,
    SimulationConfig,
    StaticMixedSetup,
    TsengProtocol,
    get_family,
)
from repro.runtime.simulator import SynchronousSimulator, simulate_many
from tests.helpers import stacked_runs
from repro.runtime.witness import WitnessProtocol
from repro.sweep import GridSpec, run_sweep

ATTACKS = (
    "split", "outlier", "noise", "echo", "oscillating", "inertia", "crossfire",
)
MOVEMENTS = ("static", "round-robin", "random", "target-extremes")

#: The (family, model) pairs that declare ``"bonomi"`` on the complete graph.
DECLARED = {
    "M1": ("tseng", "witness"),
    "M2": ("witness",),
    "M3": ("tseng",),
    "M4": ("tseng",),
}


def _declares(family: str, config: SimulationConfig) -> str | None:
    """``family``'s lite declaration for ``config``'s model and graph."""
    setup = config.setup
    model = setup.model if isinstance(setup, MobileFaultSetup) else None
    return get_family(family).lite_equivalent(model, config.resolve_topology())


def _config(spec: dict) -> SimulationConfig:
    """A fresh config for ``spec`` (a fresh termination rule too:
    :class:`EstimatedRounds` keeps its budget once set)."""
    options = dict(spec)
    rule = options.pop("rule")
    if rule == "estimated":
        options["termination"] = EstimatedRounds(epsilon=1e-3, contraction=0.5)
    elif rule == "oracle":
        options["rounds"] = None
    else:
        options["rounds"] = rule
    return mobile_config(**options)


def _stacked(configs, kernel=None):
    """``simulate_many`` traces and each run's round-0 received
    diameter."""
    traces, runs, _ = stacked_runs(configs, kernel=kernel)
    return traces, [received for received, _ in runs]


def _outputs(trace, received):
    """A lite run's outputs, every float as its exact bit pattern."""
    return (
        {pid: value.hex() for pid, value in trace.decisions.items()},
        tuple(value.hex() for value in trace.diameters()),
        trace.rounds_executed(),
        trace.terminated,
        trace.decision_diameter().hex(),
        received.hex(),
    )


def _solo(config):
    """The family's own driver on ``config``: trace and round-0
    received diameter."""
    sim = SynchronousSimulator(config, trace_detail="lite")
    trace = sim.run()
    return trace, sim._first_round_received_diameter


@st.composite
def _groups(draw):
    """2-6 run specs sharing n/f/model: stateful rows mixed with bonomi
    rows over attacks, movements, seeds and termination.  Undeclared
    stateful rows are drawn too, so a declaration that overreaches
    stacks a run whose own driver disagrees."""
    model = draw(st.sampled_from(sorted(DECLARED)))
    f = draw(st.sampled_from([1, 2]))
    n = get_semantics(model).required_n(f) + draw(st.sampled_from([0, 4]))
    families = ("bonomi", "tseng", "witness")
    return [
        dict(
            model=model,
            f=f,
            n=n,
            family=draw(st.sampled_from(families)),
            attack=draw(st.sampled_from(ATTACKS)),
            movement=draw(st.sampled_from(MOVEMENTS)),
            seed=draw(st.integers(0, 2**16)),
            rule=draw(st.sampled_from([15, 4, "oracle", "estimated"])),
        )
        for _ in range(draw(st.integers(2, 6)))
    ]


class TestRoutingTable:
    @pytest.mark.parametrize(
        "family, model",
        [(family, model) for model, families in DECLARED.items() for family in families],
    )
    def test_declared_pairs_name_bonomi(self, family, model):
        config = mobile_config(model=model, f=2, family=family)
        assert _declares(family, config) == "bonomi"

    @pytest.mark.parametrize(
        "family, model",
        [("tseng", "M2"), ("witness", "M3"), ("witness", "M4")]
        + [("bonomi", model) for model in DECLARED],
    )
    def test_undeclared_pairs_name_nothing(self, family, model):
        config = mobile_config(model=model, f=2, family=family)
        assert _declares(family, config) is None

    @pytest.mark.parametrize("model", ["M1", "M2"])
    def test_non_complete_topology_names_nothing(self, model):
        config = mobile_config(
            model=model, f=1, n=11, family="witness", topology="ring:3"
        )
        assert _declares("witness", config) is None

    @pytest.mark.parametrize("family", ["tseng", "witness"])
    def test_static_mixed_setup_names_nothing(self, family):
        config = SimulationConfig(
            n=9,
            f=1,
            initial_values=tuple(i / 8 for i in range(9)),
            algorithm=fault_tolerant_midpoint(1),
            setup=StaticMixedSetup(
                assignment=StaticFaultAssignment.first_processes(asymmetric=1),
                adversary=Adversary(values=SplitAttack()),
            ),
            termination=FixedRounds(5),
            family=family,
        )
        assert _declares(family, config) is None


class TestStackedEquivalence:
    """Declared stateful rows stacked with bonomi rows equal their own
    driver, per config."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(specs=_groups())
    def test_simulate_many_matches_own_driver(self, specs):
        traces, received = _stacked([_config(spec) for spec in specs])
        for spec, trace, diameter in zip(specs, traces, received):
            assert _outputs(trace, diameter) == _outputs(*_solo(_config(spec))), spec

    def test_every_lite_trace_field(self):
        specs = [
            dict(
                model=model, f=2, n=get_semantics(model).required_n(2),
                family=family, attack=attack, movement=movement, seed=3,
                rule=15,
            )
            for model, declared in DECLARED.items()
            for family in ("bonomi",) + declared
            for attack in ("split", "crossfire", "outlier")
            for movement in ("round-robin", "random")
        ]
        traces, received = _stacked([_config(spec) for spec in specs])
        stacked_stateful = 0
        for spec, trace, diameter in zip(specs, traces, received):
            solo, solo_received = _solo(_config(spec))
            for field in dataclasses.fields(trace):
                assert getattr(trace, field.name) == getattr(solo, field.name), (
                    spec, field.name,
                )
            assert _outputs(trace, diameter) == _outputs(solo, solo_received), spec
            if spec["family"] != "bonomi":
                # Stacked, so folded as a bonomi row.
                assert trace.stack is not None
                stacked_stateful += 1
        assert stacked_stateful == 5 * 3 * 2

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_witness_round_zero_spread_counts_computing_nodes(self, mode):
        # The static agent sits on the host of the top initial value:
        # like bonomi's, witness's spread must not count its table (the
        # EstimatedRounds rule budgets from non-faulty processes).
        spreads = {}
        for family in ("bonomi", "witness"):
            sim = SynchronousSimulator(
                mobile_config(
                    model="M1", f=1, family=family, attack="split",
                    movement="static", rounds=3,
                ),
                trace_detail="lite",
                kernel=RoundKernel(reference=mode == "reference"),
            )
            sim.run()
            spreads[family] = sim._first_round_received_diameter
        assert spreads["witness"] == spreads["bonomi"] == 0.75


class _RoundCounter:
    """Counts ``run_round`` calls of both stateful protocols."""

    def __init__(self):
        self.calls = {"tseng": 0, "witness": 0}

    def __enter__(self):
        self._patches = []
        for name, cls in (("tseng", TsengProtocol), ("witness", WitnessProtocol)):
            original = cls.run_round

            def counted(protocol, *args, _original=original, _name=name):
                self.calls[_name] += 1
                return _original(protocol, *args)

            patch = mock.patch.object(cls, "run_round", counted)
            patch.start()
            self._patches.append(patch)
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()


def _sweep(trace_detail="lite", **axes):
    grid = GridSpec(
        fs=(1,), attacks=("split", "crossfire"), seeds=(0, 1, 2), rounds=6,
        **axes,
    )
    with _RoundCounter() as counter:
        result = run_sweep(grid, cross_run=True, trace_detail=trace_detail)
    assert all(cell.error is None for cell in result.cells)
    return result, counter.calls


class TestEngagement:
    def test_declared_cells_never_run_their_own_rounds(self):
        result, calls = _sweep(
            models=("M1", "M3", "M4"), families=("bonomi", "tseng")
        )
        assert len(result.cells) == 3 * 2 * 2 * 3
        assert calls["tseng"] == 0
        result, calls = _sweep(
            models=("M1", "M2"), families=("bonomi", "witness")
        )
        assert calls["witness"] == 0
        families = {cell.spec.family for cell in result.cells}
        assert families == {"bonomi", "witness"}

    def test_undeclared_cells_run_their_own_rounds(self):
        _, calls = _sweep(models=("M2",), families=("tseng",))
        assert calls["tseng"] == 2 * 3 * 6
        _, calls = _sweep(models=("M3", "M4"), families=("witness",))
        assert calls["witness"] == 2 * 2 * 3 * 6
        _, calls = _sweep(
            models=("M1",), ns=(11,), families=("witness",),
            topologies=("ring:3",),
        )
        assert calls["witness"] == 2 * 3 * 6

    def test_full_traces_run_their_own_rounds(self):
        _, calls = _sweep(
            models=("M1",), families=("tseng", "witness"), trace_detail="full"
        )
        assert calls == {"tseng": 2 * 3 * 6, "witness": 2 * 3 * 6}

    def test_singleton_groups_run_their_own_rounds(self):
        for family in ("tseng", "witness"):
            with _RoundCounter() as counter:
                simulate_many([mobile_config(family=family, rounds=5)])
            assert counter.calls[family] == 5

    def test_reference_kernel_runs_their_own_rounds(self):
        configs = [
            mobile_config(family=family, seed=seed, rounds=5)
            for family in ("tseng", "witness")
            for seed in (0, 1)
        ]
        with _RoundCounter() as counter:
            simulate_many(configs, kernel=RoundKernel(reference=True))
        assert counter.calls == {"tseng": 10, "witness": 10}


class TestNegativeControl:
    def test_tseng_m2_differs_from_bonomi(self):
        # Unaware cured M2 senders claim scrambled history and get
        # rejected: the differential's outputs see the divergence.
        spec = dict(
            model="M2", f=1, n=None, attack="crossfire", movement="random",
            seed=0, rule=15,
        )
        tseng = _outputs(*_solo(_config(dict(spec, family="tseng"))))
        bonomi = _outputs(*_solo(_config(dict(spec, family="bonomi"))))
        assert tseng != bonomi
        assert _declares("tseng", _config(dict(spec, family="tseng"))) is None
