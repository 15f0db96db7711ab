"""The communication-topology subsystem and the witness family.

Four layers are pinned here:

* **graphs** -- generator shapes (ring lattice, torus, random-regular),
  spec parsing, the edge-list loader, and the :class:`Topology`
  invariants (symmetry, no self-loops, connectivity/diameter);
* **delivery** -- :class:`SynchronousNetwork` drops messages across
  missing links and broadcasts reach exactly the neighborhood;
* **admission** -- complete-graph families reject partial graphs at
  config validation with actionable errors, the witness family
  enforces its connectivity/degree rule;
* **the witness family** -- convergence on partially-connected graphs
  (the subsystem's acceptance bar), bit-identity across the kernel
  toggles, spec verdicts, and determinism.
"""

from __future__ import annotations

import math

import pytest

from tests.helpers import FAST_MODES, make_mobile_config, run_in_mode

from repro.api import mobile_config
from repro.faults.view import AdversaryView
from repro.runtime import run_simulation
from repro.runtime.network import SynchronousNetwork
from repro.runtime.simulator import SynchronousSimulator
from repro.topology import (
    DEFAULT_TOPOLOGY,
    Topology,
    complete,
    random_regular,
    ring_lattice,
    topology_from_spec,
    torus,
)


class TestGenerators:
    def test_complete(self):
        graph = complete(7)
        assert graph.is_complete and graph.is_connected()
        assert graph.diameter() == 1.0
        assert graph.edge_count() == 21
        assert all(graph.degree(pid) == 6 for pid in range(7))
        assert 0 not in graph.neighbors(0)

    def test_ring_lattice_shape(self):
        graph = ring_lattice(10, 2)
        assert graph.spec == "ring:2"
        assert all(graph.degree(pid) == 4 for pid in range(10))
        assert graph.neighbors(0) == frozenset({1, 2, 8, 9})
        assert graph.is_connected() and not graph.is_complete

    def test_wide_ring_is_structurally_complete(self):
        assert ring_lattice(5, 2).is_complete

    def test_torus_shape(self):
        graph = torus(12, 3, 4)
        assert graph.spec == "torus:3x4"
        assert all(graph.degree(pid) == 4 for pid in range(12))
        assert graph.is_connected()
        # (0,0) wraps to (2,0)/(1,0) vertically, (0,3)/(0,1) horizontally.
        assert graph.neighbors(0) == frozenset({4, 8, 1, 3})

    def test_torus_auto_factorization(self):
        assert topology_from_spec("torus", 12).spec == "torus:3x4"
        with pytest.raises(ValueError, match="no such factorization"):
            topology_from_spec("torus", 13)

    def test_random_regular_is_seeded_and_deterministic(self):
        first = random_regular(25, 6, seed=1)
        second = random_regular(25, 6, seed=1)
        other = random_regular(25, 6, seed=2)
        assert first.neighbor_sets == second.neighbor_sets
        assert first.neighbor_sets != other.neighbor_sets
        assert all(first.degree(pid) == 6 for pid in range(25))

    def test_random_regular_rejects_impossible_degrees(self):
        with pytest.raises(ValueError, match="must be even"):
            random_regular(5, 3)
        with pytest.raises(ValueError, match="d < n"):
            random_regular(4, 4)

    def test_spec_parsing_and_errors(self):
        assert topology_from_spec("ring", 6).spec == "ring:1"
        assert topology_from_spec("random-regular:4:7", 10).spec == (
            "random-regular:4:7"
        )
        for bad in ("bogus", "ring:x", "torus:4", "random-regular", ""):
            with pytest.raises(ValueError, match="topology spec"):
                topology_from_spec(bad, 9)

    def test_resolution_is_memoized(self):
        assert topology_from_spec("ring:2", 9) is topology_from_spec("ring:2", 9)


class TestTopologyInvariants:
    def test_rejects_asymmetric_edges(self):
        with pytest.raises(ValueError, match="not symmetric"):
            Topology(
                n=2, spec="bad", neighbor_sets=(frozenset({1}), frozenset())
            )

    def test_rejects_self_loops_and_bad_ids(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology(n=1, spec="bad", neighbor_sets=(frozenset({0}),))
        with pytest.raises(ValueError, match="invalid neighbor"):
            Topology(n=1, spec="bad", neighbor_sets=(frozenset({5}),))

    def test_disconnected_diameter_is_infinite(self):
        two_islands = Topology.from_edges(4, [(0, 1), (2, 3)])
        assert not two_islands.is_connected()
        assert math.isinf(two_islands.diameter())

    def test_from_edges_normalizes(self):
        graph = Topology.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        assert graph.edge_count() == 2
        with pytest.raises(ValueError, match="self-loop"):
            Topology.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match="outside"):
            Topology.from_edges(3, [(0, 3)])

    def test_edge_list_loader(self, tmp_path):
        path = tmp_path / "graph.edges"
        path.write_text("# triangle plus a tail\n0 1\n1 2\n2 0\n\n2 3\n")
        graph = Topology.load_edge_list(path)
        assert graph.n == 4 and graph.edge_count() == 4
        assert graph.spec == "edgelist:graph.edges"
        padded = Topology.load_edge_list(path, n=6)
        assert padded.n == 6 and not padded.is_connected()
        with pytest.raises(ValueError, match="expected 'u v'"):
            bad = tmp_path / "bad.edges"
            bad.write_text("0 1 2\n")
            Topology.load_edge_list(bad)

    def test_stats_and_describe(self):
        graph = ring_lattice(9, 2)
        stats = graph.stats()
        assert stats["edges"] == 18 and stats["connected"] is True
        assert "ring:2" in graph.describe()


class TestRestrictedDelivery:
    def test_broadcast_reaches_exactly_the_neighborhood(self):
        graph = ring_lattice(6, 1)
        network = SynchronousNetwork(6, topology=graph)
        network.begin_round(0)
        network.broadcast(0, 0.5)
        for pid in range(1, 6):
            network.silent(pid)
        delivery = network.deliver()
        heard = {q for q in range(6) if 0 in delivery.by_recipient[q]}
        assert heard == {0, 1, 5}

    def test_submissions_across_missing_links_are_dropped(self):
        graph = ring_lattice(6, 1)
        network = SynchronousNetwork(6, topology=graph)
        network.begin_round(0)
        network.submit(0, {q: 1.0 for q in range(6)})
        for pid in range(1, 6):
            network.silent(pid)
        delivery = network.deliver()
        assert 0 in delivery.by_recipient[1]
        assert 0 not in delivery.by_recipient[3]

    def test_complete_topology_is_byte_identical(self):
        plain = SynchronousNetwork(4)
        topo = SynchronousNetwork(4, topology=complete(4))
        for network in (plain, topo):
            network.begin_round(0)
            network.broadcast(2, 0.25)
            network.submit(1, {0: 1.0})
            network.silent(0)
            network.silent(3)
        assert plain.deliver() == topo.deliver()

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="covers 5 processes"):
            SynchronousNetwork(6, topology=complete(5))


class TestFamilyAdmission:
    def test_complete_families_reject_partial_graphs(self):
        for family in ("bonomi", "tseng"):
            with pytest.raises(ValueError, match="complete communication"):
                mobile_config(
                    model="M1", f=1, n=9, family=family, topology="ring:2"
                )

    def test_unknown_spec_is_a_config_error(self):
        with pytest.raises(ValueError, match="topology spec"):
            mobile_config(model="M1", f=1, n=9, topology="moebius")

    def test_witness_needs_connectivity(self):
        with pytest.raises(ValueError, match="minimum degree >= 2f\\+1"):
            mobile_config(
                model="M1", f=2, n=25, family="witness", topology="torus:5x5"
            )
        # f=1 is fine on the same torus (degree 4 >= 3).
        config = mobile_config(
            model="M1", f=1, n=25, family="witness", topology="torus:5x5"
        )
        assert config.resolve_topology().spec == "torus:5x5"

    def test_describe_tags_only_off_default(self):
        default = mobile_config(model="M1", f=1)
        assert "topo=" not in default.describe()
        ringed = mobile_config(
            model="M1", f=1, n=9, family="witness", topology="ring:2"
        )
        assert "topo=ring:2" in ringed.describe()

    def test_witness_degree_admission_flips_exactly_at_bound(self):
        """Degree sweep across the ``min-degree >= 2f+1`` bound.

        One grid whose only moving axis is the random-regular degree:
        every cell strictly below the bound must be rejected *by the
        degree rule* (not some other admission error), and every cell
        at or above it must be admitted -- the empirical probe of the
        admission bound the ROADMAP carried since the witness family
        landed.  n=26 keeps ``n * d`` even for every swept degree, so
        each graph exists and the flip can only come from the rule.

        Admission and convergence are distinct verdicts: a run sitting
        *exactly* at the bound is admitted, but the split adversary can
        still starve its phase-boundary fold (a runtime error naming
        the phase boundary, never the degree rule); every degree above
        the bound runs to completion.
        """
        from repro.sweep import GridSpec, run_sweep

        f = 2
        bound = 2 * f + 1
        degrees = range(3, 9)
        grid = GridSpec(
            models=("M1",),
            fs=(f,),
            ns=(26,),
            families=("witness",),
            topologies=tuple(f"random-regular:{d}:1" for d in degrees),
            seeds=(0,),
            rounds=4,
        )
        result = run_sweep(grid)
        by_degree = {
            int(cell.spec.topology.split(":")[1]): cell
            for cell in result.cells
        }
        assert sorted(by_degree) == list(degrees)
        for degree, cell in sorted(by_degree.items()):
            if degree < bound:
                assert cell.error is not None, (
                    f"degree {degree} < {bound} must be rejected"
                )
                assert "minimum degree" in cell.error
            else:
                assert "minimum degree" not in (cell.error or ""), (
                    f"degree {degree} >= {bound} must be admitted: "
                    f"{cell.error}"
                )
                if degree > bound:
                    assert cell.error is None, (degree, cell.error)


class TestAdversaryViewNeighborhoods:
    def test_defaults_to_full_mesh(self):
        view = AdversaryView(
            round_index=0,
            n=4,
            f=1,
            values={pid: float(pid) for pid in range(4)},
            positions=frozenset({0}),
            cured=frozenset(),
        )
        assert view.neighbors(1) == frozenset({0, 2, 3})

    def test_simulator_attaches_the_topology(self):
        config = mobile_config(
            model="M1", f=1, n=9, family="witness", topology="ring:2", rounds=2
        )
        simulator = SynchronousSimulator(config, trace_detail="lite")
        controller = simulator.controller
        assert controller.topology is config.resolve_topology()


class TestWitnessFamily:
    @pytest.mark.parametrize("topology", ["ring:3", "random-regular:6:1", "complete"])
    def test_converges_on_connected_graphs(self, topology):
        config = mobile_config(
            model="M1",
            f=2,
            n=25,
            family="witness",
            topology=topology,
            seed=3,
            max_rounds=600,
        )
        trace = run_simulation(config, trace_detail="lite")
        assert trace.terminated
        assert trace.decision_diameter() <= config.epsilon
        from repro.core.specification import check_trace

        assert check_trace(trace).satisfied

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_every_mobile_model_on_the_ring(self, model):
        config = mobile_config(
            model=model,
            f=1,
            n=13,
            family="witness",
            topology="ring:2",
            seed=5,
            max_rounds=800,
            epsilon=1e-2,
        )
        trace = run_simulation(config, trace_detail="lite")
        assert trace.terminated
        assert trace.decision_diameter() <= 1e-2

    def test_decisions_at_phase_boundaries_only(self):
        config = mobile_config(
            model="M1", f=1, n=13, family="witness", topology="ring:2", rounds=5
        )
        trace = run_simulation(config, trace_detail="lite")
        phase = max(1, int(config.resolve_topology().diameter()))
        # FixedRounds(5) can only fire at a phase boundary >= 5.
        assert trace.rounds_executed() % phase == 0
        assert trace.rounds_executed() >= 5

    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_kernel_modes_bit_identical(self, mode, model):
        """The array round (fast) and the memoized flat dict body
        (no-numpy) match the unmemoized object-path dict body."""
        config = mobile_config(
            model=model,
            f=1,
            n=13,
            family="witness",
            topology="ring:2",
            seed=7,
            rounds=12,
        )
        reference = run_in_mode(config, "reference")
        trace = run_in_mode(config, mode)
        assert trace.round_extents == reference.round_extents
        assert trace.decisions == reference.decisions
        assert repr(sorted(trace.decisions.items())) == repr(
            sorted(reference.decisions.items())
        )

    def test_deterministic_across_runs(self):
        config = mobile_config(
            model="M3",
            f=1,
            n=13,
            family="witness",
            topology="ring:2",
            seed=11,
            rounds=8,
        )
        first = run_simulation(config, trace_detail="lite")
        second = run_simulation(config, trace_detail="lite")
        assert first.decisions == second.decisions
        assert first.round_extents == second.round_extents

    def test_full_trace_detail_matches_lite(self):
        config = mobile_config(
            model="M1", f=1, n=9, family="witness", topology="ring:2"
        )
        lite = run_simulation(config, trace_detail="lite")
        full = run_simulation(config, trace_detail="full")
        assert full.decisions == lite.decisions
        assert len(full.rounds) == len(lite.round_extents)
        for extent, record in zip(lite.round_extents, full.rounds):
            diameter = 0.0 if extent is None else extent[1] - extent[0]
            assert record.nonfaulty_diameter_after() == diameter

    def test_full_trace_records_fold_rounds_only(self):
        config = mobile_config(
            model="M1", f=1, n=9, family="witness", topology="ring:2"
        )
        full = run_simulation(config, trace_detail="full")
        phase_length = config.resolve_topology().diameter()  # 2 for ring:2, n=9
        for record in full.rounds:
            strict = (record.round_index + 1) % phase_length == 0
            # Claim tables ride as payloads every round; aggregation
            # snapshots exist only at the strict phase-boundary fold.
            assert record.payloads
            if strict:
                assert record.received and record.applications
                for pid, application in record.applications.items():
                    assert application.result == record.values_after[pid]
            else:
                assert not record.received and not record.applications

    @pytest.mark.parametrize(
        "attack", ["split", "outlier", "oscillating", "crossfire", "noise"]
    )
    def test_adversary_strategies_apply_unchanged(self, attack):
        config = mobile_config(
            model="M1",
            f=2,
            n=25,
            family="witness",
            topology="ring:3",
            attack=attack,
            seed=2,
            rounds=16,
        )
        trace = run_simulation(config, trace_detail="lite")
        from repro.core.specification import check_trace

        verdict = check_trace(trace)
        assert verdict.validity.holds, (attack, verdict)

    def test_complete_graph_collapses_to_single_round_phases(self):
        config = make_mobile_config("M1", f=1, n=9, rounds=6)
        witness = mobile_config(
            model="M1", f=1, n=9, family="witness", rounds=6
        )
        bonomi_trace = run_simulation(config, trace_detail="lite")
        witness_trace = run_simulation(witness, trace_detail="lite")
        # Same round count (phases of length 1); decisions generally
        # differ -- witness folds silence-adjusted tables -- but both
        # land inside the initial correct range.
        assert witness_trace.rounds_executed() == bonomi_trace.rounds_executed()
        values = witness_trace.decisions.values()
        assert all(0.0 <= value <= 1.0 for value in values)


class TestGridTopologyAxis:
    def test_incompatible_combinations_are_pruned(self):
        from repro.sweep import GridSpec

        grid = GridSpec(
            models="M1",
            fs=1,
            ns=(9,),
            families=("bonomi", "witness"),
            topologies=("complete", "ring:2"),
            seeds=(0,),
        )
        pairs = grid.family_topology_pairs()
        assert pairs == [
            ("bonomi", "complete"),
            ("witness", "complete"),
            ("witness", "ring:2"),
        ]
        cells = list(grid.cells())
        assert len(cells) == len(grid) == 3
        assert [(c.family, c.topology) for c in cells] == pairs

    def test_all_incompatible_grid_rejected(self):
        from repro.sweep import GridSpec

        with pytest.raises(ValueError, match="structurally incompatible"):
            GridSpec(families=("bonomi", "tseng"), topologies=("ring:2",))

    def test_unknown_family_cells_survive_to_report_their_error(self):
        from repro.sweep import GridSpec, run_sweep

        grid = GridSpec(
            models="M1", families=("paxos",), topologies=("ring:2",), seeds=(0,)
        )
        result = run_sweep(grid)
        assert len(result) == 1
        assert "unknown algorithm family" in result.cells[0].error

    def test_sweep_grid_topologies_end_to_end(self):
        import repro

        result = repro.sweep_grid(
            models="M1",
            fs=1,
            ns=9,
            families=("bonomi", "witness"),
            topologies=("complete", "ring:2"),
            seeds=2,
            rounds=8,
        )
        assert len(result) == 6
        ringed = [
            cell for cell in result.cells if cell.spec.topology == "ring:2"
        ]
        assert len(ringed) == 2
        assert all(cell.spec.family == "witness" for cell in ringed)
        assert all(cell.error is None for cell in result.cells)

    def test_default_topology_cells_unchanged(self):
        from tests.helpers import small_grid

        for cell in small_grid().cells():
            assert cell.topology == DEFAULT_TOPOLOGY
            assert "topo=" not in cell.describe()
