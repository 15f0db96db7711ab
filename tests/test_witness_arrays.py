"""The witness family's array round against its dict body.

With the round kernel in its fast mode and numpy present, lite witness
runs advance on claim matrices: adjacency products count witnesses and
the phase fold runs width-grouped through the batch MSR hooks.  The
dict body stays the reference (and the full-trace path, and the only
path without numpy); these tests pin the array round to the numpy-less
dict body bit for bit -- trajectories, decisions (``repr`` included, so
signed zeros count), termination and error text -- and check the seams
where the array round hands a round back to the dict body.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import mobile_config
from repro.faults import get_semantics
from repro.runtime import RoundKernel
from repro.runtime.simulator import SynchronousSimulator
from repro.runtime.witness import WitnessProtocol
from tests.helpers import run_in_mode, without_numpy

ATTACKS = (
    "split", "outlier", "noise", "echo", "oscillating", "inertia", "crossfire",
)
MOVEMENTS = ("round-robin", "random", "target-extremes")


def _outcome(config, mode="fast"):
    """Everything a lite run reports, or its error text."""
    try:
        trace = run_in_mode(config, mode)
    except ValueError as exc:
        return ("error", str(exc))
    return (
        trace.round_extents,
        repr(sorted(trace.decisions.items())),
        trace.diameters(),
        trace.rounds_executed(),
        trace.terminated,
    )


def _assert_paths_agree(config):
    arrays = _outcome(config)
    assert arrays == _outcome(config, "no-numpy")
    return arrays


def _admitted_graphs(model, f, n):
    """Every graph spec the witness family admits at this size: the
    complete graph, each admitted ring lattice, a few random-regular
    graphs and (where n factors) the torus."""
    candidates = ["complete", "torus"]
    candidates += [f"ring:{k}" for k in range(1, (n - 1) // 2 + 1)]
    for degree in range(2 * f + 1, min(n - 1, 2 * f + 4) + 1):
        if n * degree % 2 == 0:
            candidates += [f"random-regular:{degree}:{seed}" for seed in (0, 1)]
    admitted = []
    for spec in candidates:
        try:
            mobile_config(
                model=model, f=f, n=n, family="witness", topology=spec
            )
        except ValueError:
            continue
        admitted.append(spec)
    return admitted


@st.composite
def _witness_configs(draw):
    model = draw(st.sampled_from(["M1", "M2", "M3", "M4"]))
    f = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(max(7, get_semantics(model).required_n(f)), 31))
    topology = draw(st.sampled_from(_admitted_graphs(model, f, n)))
    # A small pool makes ties (and 0.0 next to -0.0) common.
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]),
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    budget = draw(st.integers(1, 12))
    oracle = draw(st.booleans())
    return mobile_config(
        model=model,
        f=f,
        n=n,
        attack=draw(st.sampled_from(ATTACKS)),
        movement=draw(st.sampled_from(MOVEMENTS)),
        initial_values=draw(st.lists(value, min_size=n, max_size=n)),
        seed=draw(st.integers(0, 2**16)),
        rounds=None if oracle else budget,
        max_rounds=budget,
        family="witness",
        topology=topology,
    )


class TestArrayRoundDifferential:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(config=_witness_configs())
    def test_array_round_matches_dict_body(self, config):
        _assert_paths_agree(config)

    @pytest.mark.parametrize(
        "model, topology",
        [("M2", "ring:3"), ("M2", "ring:4"), ("M3", "ring:3"), ("M3", "ring:4")],
    )
    def test_validity_breaking_witness_configs_agree(self, model, topology):
        """The open validity failures stay visible on both paths: the
        same divergent diameters, or the same error text."""
        config = mobile_config(
            model=model, f=2, n=25, attack="outlier", family="witness",
            topology=topology, rounds=40,
        )
        outcome = _assert_paths_agree(config)
        if outcome[0] == "error":
            assert "verified only" in outcome[1]
        else:
            assert outcome[2][-1] > 1.0


class TestArrayRoundSeams:
    def _protocol(self, config, reference=False):
        simulator = SynchronousSimulator(
            config, trace_detail="lite", kernel=RoundKernel(reference=reference)
        )
        simulator.run()
        return simulator.protocol

    def test_fast_mode_engages_the_array_round(self):
        config = mobile_config(
            model="M1", f=2, n=25, family="witness", topology="ring:6",
            rounds=6,
        )
        assert self._protocol(config)._batch is not None
        assert self._protocol(config, reference=True)._batch is None
        with without_numpy():
            protocol = self._protocol(config)
        assert protocol._batch is None and protocol._grouped

    def test_full_traces_take_the_dict_body(self):
        config = mobile_config(
            model="M1", f=1, n=9, family="witness", topology="ring:2",
            rounds=4,
        )
        simulator = SynchronousSimulator(config, trace_detail="full")
        full = simulator.run()
        assert simulator.protocol._batch is None
        lite = SynchronousSimulator(config, trace_detail="lite").run()
        assert full.decisions == lite.decisions

    def test_signed_zero_claims_route_to_the_dict_body(self, monkeypatch):
        routed = []
        route = WitnessProtocol._route_scalar

        def counting(self, *args):
            routed.append(args[0].round_index)
            return route(self, *args)

        monkeypatch.setattr(WitnessProtocol, "_route_scalar", counting)
        values = [0.0, -0.0] * 12 + [0.0]
        config = mobile_config(
            model="M2", f=2, n=25, family="witness", topology="ring:6",
            initial_values=values, rounds=6,
        )
        _assert_paths_agree(config)
        assert 0 in routed

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    @pytest.mark.parametrize("topology", ["ring:4", "torus:5x5"])
    def test_array_state_rebuilds_the_dict_tables(
        self, monkeypatch, model, topology
    ):
        """Round by round, the array state converts back to exactly the
        dict body's tables -- insertion order included, which is what a
        routed mid-phase round relies on."""
        run_round = WitnessProtocol.run_round
        shadows = {}

        def lockstep(self, plan, cured_aware, need_diameter):
            shadow = shadows.get(id(self))
            if shadow is None:
                assert self._batch is not None
                shadow = shadows[id(self)] = copy.deepcopy(self)
                shadow._batch = None
            result = run_round(self, plan, cured_aware, need_diameter)
            expected = run_round(shadow, plan, cured_aware, need_diameter)
            assert result == expected
            assert repr(self.values) == repr(shadow.values)
            self._tables_from_arrays()
            assert [list(table.items()) for table in self._verified] == [
                list(table.items()) for table in shadow._verified
            ]
            return result

        monkeypatch.setattr(WitnessProtocol, "run_round", lockstep)
        config = mobile_config(
            model=model, f=1, n=25, attack="crossfire", family="witness",
            topology=topology, rounds=12,
        )
        SynchronousSimulator(config, trace_detail="lite").run()
        (shadow,) = shadows.values()
        assert shadow.phase_length > 1
