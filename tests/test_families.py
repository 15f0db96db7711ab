"""Algorithm families: registry, Tseng correctness, sweep integration.

Covers the protocol-family abstraction end to end:

* the family registry (resolution, collisions, config validation);
* the re-based Bonomi family (identical objects, identical traces);
* the Tseng family's convergence + validity properties at small ``n``
  across every model, adversary and movement, including the
  equivalence of its distinct-inbox fast path with the per-recipient
  reference (kernel toggles off);
* the M1/M3/M4 identity property (the consistency filter only ever
  fires against unaware cured broadcasts, i.e. under M2);
* the ``family`` axis through ``GridSpec`` / ``CellSpec`` / scenarios /
  the cell cache / the head-to-head experiment.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.api import mobile_config
from repro.msr.reduce import IdentityReduction, TrimExtremes
from repro.runtime import (
    BonomiFamily,
    MSRVotingProtocol,
    ProtocolFamily,
    RoundKernel,
    TsengProtocol,
    family_names,
    get_family,
    register_family,
    run_simulation,
)
from repro.sweep import CellSpec, CellStore, GridSpec, run_cell, run_sweep
from tests.helpers import FAST_MODES, run_in_mode

ALL_MODELS = ("M1", "M2", "M3", "M4")


class TestRegistry:
    def test_builtin_families_registered(self):
        assert list(family_names()) == ["bonomi", "tseng", "witness"]
        assert isinstance(get_family("bonomi"), BonomiFamily)
        assert get_family("TSENG").name == "tseng"
        assert get_family("witness").requires_complete is False

    def test_unknown_family_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown algorithm family 'paxos'"):
            get_family("paxos")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_family(BonomiFamily())

    def test_anonymous_family_rejected(self):
        class Nameless(ProtocolFamily):
            def build_protocol(self, config):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="non-empty name"):
            register_family(Nameless())

    def test_config_validates_family(self):
        with pytest.raises(ValueError, match="unknown algorithm family"):
            mobile_config(model="M1", f=1, family="nope")

    def test_family_tag_in_describe_only_off_default(self):
        bonomi = mobile_config(model="M1", f=1)
        tseng = mobile_config(model="M1", f=1, family="tseng")
        assert "family=" not in bonomi.describe()
        assert "family=tseng" in tseng.describe()


class TestBonomiRebase:
    """The default family builds exactly the pre-family protocol."""

    def test_builds_msr_voting_protocol(self):
        config = mobile_config(model="M2", f=1)
        protocol = get_family("bonomi").build_protocol(config)
        assert isinstance(protocol, MSRVotingProtocol)
        assert protocol.function is config.algorithm

    def test_default_family_everywhere(self):
        assert mobile_config(model="M1", f=1).family == "bonomi"
        assert CellSpec(
            model="M1", f=1, n=None, algorithm="ftm", movement="round-robin",
            attack="split", epsilon=1e-3, seed=0,
        ).family == "bonomi"

    def test_predicted_contraction_matches_convergence_module(self):
        from repro.core.convergence import mobile_contraction

        config = mobile_config(model="M1", f=2)
        predicted = get_family("bonomi").predicted_contraction(config)
        assert predicted == mobile_contraction(
            config.algorithm, "M1", config.n, config.f
        ).factor


class TestTsengProperties:
    """Convergence + validity of the Tseng family at small n."""

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize(
        "attack", ["split", "outlier", "inertia", "noise", "crossfire"]
    )
    def test_satisfies_spec_under_every_model_and_attack(self, model, attack):
        for seed in range(3):
            config = mobile_config(
                model=model, f=2, attack=attack, seed=seed,
                family="tseng", max_rounds=300,
            )
            trace = run_simulation(config, trace_detail="lite")
            verdict = repro.check(trace)
            assert verdict.satisfied, (model, attack, seed, verdict)
            assert trace.terminated, (model, attack, seed)

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("movement", ["round-robin", "random", "static"])
    def test_validity_interval_always_holds(self, model, movement):
        config = mobile_config(
            model=model, f=1, movement=movement, seed=11,
            family="tseng", rounds=12,
        )
        trace = run_simulation(config, trace_detail="lite")
        interval = trace.validity_interval()
        for pid, decision in trace.decisions.items():
            assert interval.low - 1e-12 <= decision <= interval.high + 1e-12

    @pytest.mark.parametrize("algorithm", ["ftm", "fta", "dolev"])
    def test_every_msr_algorithm(self, algorithm):
        config = mobile_config(
            model="M2", f=2, algorithm=algorithm, seed=5,
            family="tseng", max_rounds=300,
        )
        trace = run_simulation(config, trace_detail="lite")
        assert repro.check(trace).satisfied

    @pytest.mark.parametrize("model", ["M1", "M3", "M4"])
    def test_identical_to_bonomi_without_unaware_broadcasts(self, model):
        """Only M2's cured nodes broadcast scrambled claims; everywhere
        else the filter is provably inert and the families coincide."""
        for seed in range(4):
            tseng = run_simulation(
                mobile_config(model=model, f=2, seed=seed,
                              family="tseng", rounds=10),
                trace_detail="lite",
            )
            bonomi = run_simulation(
                mobile_config(model=model, f=2, seed=seed, rounds=10),
                trace_detail="lite",
            )
            assert tseng.decisions == bonomi.decisions
            assert tseng.round_extents == bonomi.round_extents

    def test_masks_cured_garbage_under_m2(self):
        """The filter's raison d'etre: M2 outlier runs converge faster."""
        tseng_rounds = []
        bonomi_rounds = []
        for seed in range(4):
            kwargs = dict(
                model="M2", f=3, n=16, attack="outlier",
                seed=seed, max_rounds=300,
            )
            tseng_rounds.append(
                run_simulation(
                    mobile_config(family="tseng", **kwargs), trace_detail="lite"
                ).rounds_executed()
            )
            bonomi_rounds.append(
                run_simulation(
                    mobile_config(**kwargs), trace_detail="lite"
                ).rounds_executed()
            )
        assert sum(tseng_rounds) < sum(bonomi_rounds), (
            tseng_rounds, bonomi_rounds,
        )

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_kernel_modes_bit_identical(self, model, mode):
        """The distinct-inbox fast path of the stateful driver agrees
        with its per-recipient object-path reference."""
        for attack in ("split", "outlier", "crossfire"):
            config = mobile_config(
                model=model, f=2, attack=attack, seed=7,
                family="tseng", rounds=10,
            )
            reference = run_in_mode(config, "reference")
            trace = run_in_mode(config, mode)
            assert trace.round_extents == reference.round_extents
            assert repr(trace.round_extents) == repr(reference.round_extents)
            assert trace.decisions == reference.decisions

    def test_full_detail_matches_lite_trajectory(self):
        config = mobile_config(model="M2", f=1, family="tseng")
        lite = run_simulation(config, trace_detail="lite")
        full = run_simulation(config, trace_detail="full")
        assert full.decisions == lite.decisions
        assert len(full.rounds) == len(lite.round_extents)
        for extent, record in zip(lite.round_extents, full.rounds):
            diameter = 0.0 if extent is None else extent[1] - extent[0]
            assert record.nonfaulty_diameter_after() == diameter

    def test_full_detail_records_pair_payloads(self):
        config = mobile_config(model="M2", f=1, family="tseng")
        full = run_simulation(config, trace_detail="full")
        record = full.rounds[1]
        assert record.payloads
        for pid, payload in record.payloads.items():
            value, claimed = payload
            outbox = record.sent[pid]
            assert outbox is not None and outbox[0] == value
            # Round 1 broadcasters vouch for round 0 unless an agent
            # scrambled their send-memory in between.
            assert claimed is None or isinstance(claimed, float)

    def test_send_classification_probe_runs_on_stateful_full_traces(self):
        """The Table 1 probe consumes the representative-scalar ``sent``
        matrix, which stateful full traces now populate -- so the probe
        (and the P1/P2 checkers) run for every family, not just bonomi."""
        for family in ("tseng", "witness"):
            cell = CellSpec(
                model="M1", f=2, n=25, algorithm="ftm",
                movement="round-robin", attack="split", epsilon=1e-3,
                seed=3, rounds=8, family=family,
            )
            result = run_cell(
                cell, trace_detail="full", probe="send-classification"
            )
            assert result.error is None
            assert result.p1_ok is True and result.p2_ok is True
            extras = dict(result.extras)
            assert extras["max_cured"] >= 1
            assert "asymmetric" in extras["faulty_classes"]

    def test_adaptive_trim_variants(self):
        protocol = TsengProtocol(9, repro.msr.make_algorithm("ftm", 2))
        protocol.reset(RoundKernel())
        function, evaluate = protocol._variant(1)
        assert isinstance(function.reduction, TrimExtremes)
        assert function.reduction.tau == 1
        assert evaluate is not None
        # The variant table caches by masked count.
        assert protocol._variant(1)[0] is function

    def test_budgetless_reduction_falls_back_to_substitution(self):
        assert IdentityReduction().reduced_by(1) is None
        assert TrimExtremes(3).reduced_by(2) == TrimExtremes(1)
        assert TrimExtremes(1).reduced_by(5) == TrimExtremes(0)
        with pytest.raises(ValueError):
            TrimExtremes(1).reduced_by(-1)

    def test_static_mixed_substrate(self):
        cell = CellSpec(
            model="static", f=3, n=12, algorithm="ftm",
            movement="static", attack="split", epsilon=1e-3, seed=2,
            rounds=12, scenario="static-mixed",
            params={"a": 1, "s": 1, "b": 1}, family="tseng",
        )
        config = cell.to_config()
        assert config.family == "tseng"
        trace = run_simulation(config, trace_detail="lite")
        assert repro.check(trace).satisfied


class TestCompleteGraphEquivalences:
    """Where a family's lite outputs equal bonomi's on the complete graph.

    Measured over 7 attacks x 4 movements x f in {1, 2} x 2 seeds x
    {15 rounds, oracle} (224 runs per model): tseng equals bonomi under
    M1, M3 and M4, witness under M1 and M2.  This trimmed grid (one
    seed) asserts those cases; the divergent ones -- tseng under M2,
    witness under M3 and M4 -- are recorded in the ROADMAP, not pinned.
    """

    ATTACKS = (
        "split", "outlier", "noise", "echo", "oscillating", "inertia",
        "crossfire",
    )
    MOVEMENTS = ("static", "round-robin", "random", "target-extremes")

    @staticmethod
    def _lite_outputs(config):
        trace = run_simulation(config, trace_detail="lite")
        return (
            repr(sorted(trace.decisions.items())),
            trace.diameters(),
            trace.rounds_executed(),
            trace.terminated,
            trace.decision_diameter(),
        )

    @pytest.mark.parametrize(
        "family, model",
        [
            ("tseng", "M1"), ("tseng", "M3"), ("tseng", "M4"),
            ("witness", "M1"), ("witness", "M2"),
        ],
    )
    def test_family_equals_bonomi(self, family, model):
        for attack in self.ATTACKS:
            for movement in self.MOVEMENTS:
                for f in (1, 2):
                    for rounds in (15, None):
                        options = dict(
                            model=model, f=f, attack=attack,
                            movement=movement, rounds=rounds,
                        )
                        assert self._lite_outputs(
                            mobile_config(family=family, **options)
                        ) == self._lite_outputs(mobile_config(**options)), (
                            options
                        )


class TestFamilySweepAxis:
    def test_gridspec_products_families(self):
        grid = GridSpec(models="M1", families=("bonomi", "tseng"), seeds=(0, 1))
        cells = list(grid.cells())
        assert len(grid) == len(cells) == 4
        assert [c.family for c in cells] == [
            "bonomi", "bonomi", "tseng", "tseng",
        ]

    def test_cell_key_and_describe_distinguish_families(self):
        base = dict(
            model="M1", f=1, n=None, algorithm="ftm",
            movement="round-robin", attack="split", epsilon=1e-3, seed=0,
        )
        bonomi = CellSpec(**base)
        tseng = CellSpec(**base, family="tseng")
        assert bonomi.key != tseng.key
        assert "fam=" not in bonomi.describe()
        assert "fam=tseng" in tseng.describe()

    def test_sweep_runs_both_families(self):
        result = repro.sweep_grid(
            models="M2", fs=1, seeds=2, families=("bonomi", "tseng"),
        )
        assert len(result) == 4
        assert result.all_satisfied
        families = {cell.spec.family for cell in result.cells}
        assert families == {"bonomi", "tseng"}

    def test_cache_keys_include_family(self, tmp_path):
        store = CellStore(tmp_path)
        base = dict(
            model="M2", f=1, n=None, algorithm="ftm",
            movement="round-robin", attack="split", epsilon=1e-3, seed=0,
            rounds=5,
        )
        bonomi = CellSpec(**base)
        tseng = CellSpec(**base, family="tseng")
        assert store.cell_key(bonomi, "lite") != store.cell_key(tseng, "lite")
        # Round-trip through the store preserves the family.
        result = run_sweep([tseng], cache=store)
        cached = store.load(tseng, "lite", None)
        assert cached is not None
        assert cached.spec.family == "tseng"
        assert cached == result.cells[0]

    def test_bonomi_cache_payload_unchanged(self):
        """Pre-family cache entries must stay addressable: the default
        family is omitted from the canonical encoding."""
        from repro.sweep.cache import spec_from_dict, spec_to_dict

        cell = CellSpec(
            model="M1", f=1, n=None, algorithm="ftm",
            movement="round-robin", attack="split", epsilon=1e-3, seed=0,
        )
        payload = spec_to_dict(cell)
        assert "family" not in payload
        assert spec_from_dict(payload) == cell
        tseng_payload = spec_to_dict(dataclasses.replace(cell, family="tseng"))
        assert tseng_payload["family"] == "tseng"
        assert spec_from_dict(tseng_payload).family == "tseng"

    def test_lower_bound_scenarios_pin_bonomi(self):
        stall = CellSpec(
            model="M1", f=1, n=None, algorithm="ftm",
            movement="round-robin", attack="split", epsilon=1e-3, seed=0,
            rounds=8, scenario="stall", family="tseng",
        )
        with pytest.raises(ValueError, match="'bonomi' family only"):
            stall.to_config()
        result = run_sweep([stall])
        assert result.cells[0].error is not None

    def test_duplicate_detection_sees_family(self):
        base = dict(
            model="M1", f=1, n=None, algorithm="ftm",
            movement="round-robin", attack="split", epsilon=1e-3, seed=0,
        )
        cells = [CellSpec(**base), CellSpec(**base, family="tseng")]
        assert len(run_sweep(cells)) == 2  # not flagged as duplicates


class TestFamilyComparisonExperiment:
    def test_small_instance_reproduces(self):
        from repro.experiments.family_comparison import run_family_comparison

        result = run_family_comparison(f=2, seeds=(0, 1), max_rounds=200)
        assert result.ok, result.notes
        families = {row[3] for row in result.rows}
        assert families == {"bonomi", "tseng"}
        # M1 control rows are identical between families.
        m1 = {
            (row[1], row[3]): row[4]
            for row in result.rows
            if row[0] == "M1"
        }
        for (attack, family), rounds in m1.items():
            assert rounds == m1[(attack, "bonomi")]
