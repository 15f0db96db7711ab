"""Tests for approximate interactive consistency under MBF."""

from __future__ import annotations

import pytest

from repro.extensions import interactive_consistency
from repro.faults import get_semantics

INPUTS_M1 = (0.9, 0.1, 0.5, 0.7, 0.3)  # n = 5 = 4f + 1 for f = 1


class TestInteractiveConsistency:
    def test_vectors_agree_entrywise(self, model):
        semantics = get_semantics(model)
        n = semantics.required_n(1)
        inputs = tuple((i * 7 % n) / n for i in range(n))
        result = interactive_consistency(
            inputs, model=model, f=1, rounds=40, seed=3
        )
        assert result.agreement_spread() <= 1e-6

    def test_exact_validity_for_correct_sources(self, model):
        semantics = get_semantics(model)
        n = semantics.required_n(1)
        inputs = tuple((i * 7 % n) / n for i in range(n))
        result = interactive_consistency(
            inputs, model=model, f=1, rounds=40, seed=3
        )
        # Correct sources disseminated one exact value: unanimity is an
        # MSR fixpoint, so their coordinates never move at all.
        assert result.exact_validity_error() <= 1e-12

    def test_faulty_sources_detected(self):
        result = interactive_consistency(INPUTS_M1, model="M1", f=1, seed=0)
        assert len(result.faulty_sources) == 1
        assert all(0 <= pid < 5 for pid in result.faulty_sources)

    def test_faulty_source_coordinates_still_agree(self):
        result = interactive_consistency(
            INPUTS_M1, model="M1", f=1, rounds=40, seed=0
        )
        source = next(iter(result.faulty_sources))
        estimates = {vector[source] for vector in result.vectors.values()}
        assert max(estimates) - min(estimates) <= 1e-6

    def test_every_coordinate_satisfies_the_spec(self):
        result = interactive_consistency(
            INPUTS_M1, model="M1", f=1, rounds=40, seed=1
        )
        for verdict in result.coordinate_verdicts():
            assert verdict.satisfied

    def test_vector_shape(self):
        result = interactive_consistency(INPUTS_M1, model="M1", f=1, seed=2)
        assert result.n == 5
        for vector in result.vectors.values():
            assert len(vector) == 5

    def test_undersized_n_rejected(self):
        with pytest.raises(ValueError, match="n >="):
            interactive_consistency((0.0, 1.0, 0.5), model="M1", f=1)

    def test_value_dependent_movement_rejected(self):
        with pytest.raises(ValueError):
            interactive_consistency(INPUTS_M1, movement="target-extremes")

    def test_deterministic(self):
        inputs = INPUTS_M1 + (0.6,)  # n = 6 = 5f + 1 for M2
        a = interactive_consistency(inputs, model="M2", f=1, seed=9,
                                    movement="random")
        b = interactive_consistency(inputs, model="M2", f=1, seed=9,
                                    movement="random")
        assert a.vectors == b.vectors

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("movement", ["round-robin", "random", "static"])
    def test_dissemination_is_every_coordinates_round_0(
        self, model, movement, seed
    ):
        n = get_semantics(model).required_n(2)
        inputs = tuple(i / (n - 1) for i in range(n))
        result = interactive_consistency(
            inputs, model=model, f=2, movement=movement, rounds=3, seed=seed
        )
        assert len(result.faulty_sources) == 2
        for trace in result.traces:
            assert trace.rounds[0].faulty_at_send == result.faulty_sources

    def test_f2_at_table2_minimum(self):
        n = get_semantics("M2").required_n(2)
        inputs = tuple(i / (n - 1) for i in range(n))
        result = interactive_consistency(
            inputs, model="M2", f=2, rounds=50, seed=4
        )
        assert result.agreement_spread() <= 1e-6
        assert result.exact_validity_error() <= 1e-12
