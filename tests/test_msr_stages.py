"""Unit tests for the Red / Sel / mean stages of the MSR template."""

from __future__ import annotations

import pytest

from repro.msr import (
    ArithmeticMean,
    IdentityReduction,
    Interval,
    MedianCombiner,
    SelectAll,
    SelectEvery,
    SelectExtremes,
    SelectMedian,
    TrimExtremes,
    TrimOutsideInterval,
    ValueMultiset,
)


def ms(*values):
    return ValueMultiset(values)


class TestTrimExtremes:
    def test_trims_tau_each_side(self):
        red = TrimExtremes(1)
        assert red(ms(0, 1, 2, 3, 4)).values == (1.0, 2.0, 3.0)

    def test_tau_zero_is_identity(self):
        assert TrimExtremes(0)(ms(1, 2)) == ms(1, 2)

    def test_minimum_input_size(self):
        assert TrimExtremes(2).minimum_input_size() == 5

    def test_undersized_input_raises(self):
        with pytest.raises(ValueError, match="resilience bound"):
            TrimExtremes(2)(ms(0, 1, 2, 3))

    def test_exactly_minimum_leaves_one(self):
        result = TrimExtremes(2)(ms(0, 1, 2, 3, 4))
        assert result.values == (2.0,)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            TrimExtremes(-1)

    def test_equality(self):
        assert TrimExtremes(2) == TrimExtremes(2)
        assert TrimExtremes(2) != TrimExtremes(3)

    def test_describe(self):
        assert "2" in TrimExtremes(2).describe()


class TestOtherReductions:
    def test_identity(self):
        assert IdentityReduction()(ms(3, 1)) == ms(1, 3)

    def test_trim_outside_interval(self):
        red = TrimOutsideInterval(Interval(0.0, 1.0))
        assert red(ms(-1, 0, 0.5, 1, 2)).values == (0.0, 0.5, 1.0)

    def test_trim_outside_keeps_boundaries(self):
        red = TrimOutsideInterval(Interval(0.0, 1.0))
        assert red(ms(0.0, 1.0)) == ms(0.0, 1.0)

    def test_trim_outside_can_empty(self):
        red = TrimOutsideInterval(Interval(0.0, 1.0))
        assert len(red(ms(5.0))) == 0


class TestSelections:
    def test_select_all(self):
        assert SelectAll()(ms(1, 2)) == ms(1, 2)

    def test_select_all_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            SelectAll()(ValueMultiset())

    def test_select_extremes(self):
        assert SelectExtremes()(ms(0, 1, 2, 5)).values == (0.0, 5.0)

    def test_select_extremes_singleton(self):
        assert SelectExtremes()(ms(3)).values == (3.0,)

    def test_select_extremes_keeps_duplicate_extremes(self):
        assert SelectExtremes()(ms(1, 1)).values == (1.0, 1.0)

    def test_select_every_includes_first_and_last(self):
        sel = SelectEvery(step=2)
        assert sel(ms(0, 1, 2, 3, 4, 5)).values == (0.0, 2.0, 4.0, 5.0)

    def test_select_every_exact_stride(self):
        sel = SelectEvery(step=2)
        assert sel(ms(0, 1, 2, 3, 4)).values == (0.0, 2.0, 4.0)

    def test_select_every_without_last(self):
        sel = SelectEvery(step=2, include_last=False)
        assert sel(ms(0, 1, 2, 3, 4, 5)).values == (0.0, 2.0, 4.0)

    def test_select_every_step_one_is_all(self):
        assert SelectEvery(step=1)(ms(1, 2, 3)) == ms(1, 2, 3)

    def test_select_every_step_below_one_rejected(self):
        with pytest.raises(ValueError):
            SelectEvery(step=0)

    def test_select_median_odd(self):
        assert SelectMedian()(ms(1, 2, 9)).values == (2.0,)

    def test_select_median_even(self):
        assert SelectMedian()(ms(1, 2, 3, 9)).values == (2.0, 3.0)

    def test_selection_equality(self):
        assert SelectEvery(2) == SelectEvery(2)
        assert SelectEvery(2) != SelectEvery(3)
        assert SelectAll() == SelectAll()


class TestCombiners:
    def test_arithmetic_mean(self):
        assert ArithmeticMean()(ms(1, 2, 3)) == 2.0

    def test_median_combiner(self):
        assert MedianCombiner()(ms(1, 2, 100)) == 2.0

    def test_combiners_agree_on_pairs(self):
        pair = ms(1.0, 3.0)
        assert ArithmeticMean()(pair) == MedianCombiner()(pair)

    @pytest.mark.parametrize(
        "row",
        [
            [-0.0], [0.0], [-0.0, -0.0], [-0.0, 0.0], [0.5, -0.5], [-1.5, 0.5],
            [-5e-324, 0.0],  # the pair mean underflows to -0.0 either way
        ],
    )
    def test_batch_mean_keeps_the_flat_sign_of_zero(self, row):
        # fsum sums onto +0.0: the array arithmetic of one- and
        # two-value batches must not keep a -0.0 the flat form drops.
        np = pytest.importorskip("numpy")
        mean = ArithmeticMean()
        combined = mean.flat_combine_batch(np.array([row]))
        assert isinstance(combined, np.ndarray) and combined.dtype == np.float64
        [batched] = combined.tolist()
        assert batched.hex() == mean.flat_combine(row).hex()
        assert batched.hex() == mean(ValueMultiset(row)).hex()

    @pytest.mark.parametrize(
        "combiner", [ArithmeticMean(), MedianCombiner()], ids=repr
    )
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_batch_combine_returns_a_fresh_float64_array(self, combiner, width):
        np = pytest.importorskip("numpy")
        rows = [
            [-0.0] * width,
            [0.0] * width,
            sorted([-1.5, 0.5, 2.0, 3.25][:width]),
            sorted([-0.0, 0.0, 0.1, 0.2][:width]),
        ]
        selected = np.array(rows)
        before = selected.copy()
        combined = combiner.flat_combine_batch(selected)
        assert isinstance(combined, np.ndarray) and combined.dtype == np.float64
        assert combined.shape == (len(rows),)
        assert not np.shares_memory(combined, selected)
        assert [value.hex() for value in combined.tolist()] == [
            combiner.flat_combine(row).hex() for row in rows
        ]
        assert np.array_equal(selected, before)
