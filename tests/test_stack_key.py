"""One stacking key for the engine and the sweep layer.

:func:`repro.runtime.families.stacking_key` is the single definition of
which runs stack into one ``(R, n)`` state array.  The engine keys
configs by it (``repro.runtime.simulator._cross_run_key``) and the sweep
layer groups cells by it (``CellSpec.stack_key``).  These tests pin

* agreement: two stackable cells share a ``stack_key`` exactly when
  their configs share a ``_cross_run_key`` (a derandomized Hypothesis
  property over random cells), and the unstackable rest still forms a
  true partition;
* ``n=None`` keying: it resolves to the Table 2 minimum, so it stacks
  with the explicit ``n`` of the same width;
* bit-identity on a grid mixing attacks, movements, families, epsilons
  and round budgets: serial cross-run, the pickle rung and the shm rung
  each equal per-cell serial execution.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import get_semantics
from repro.runtime import RoundKernel
from repro.runtime.simulator import SynchronousSimulator, _cross_run_key
from repro.sweep import CellSpec, GridSpec, ShmCrossRunBackend, run_sweep

from tests.helpers import stackable

MODELS = ("M1", "M2", "M3", "M4")
FAMILIES = ("bonomi", "tseng", "witness")
ALGORITHMS = ("ftm", "fta", "dolev", "median-trim")
TOPOLOGIES = ("complete", "ring:3", "ring:6")


def _engine_key(spec: CellSpec):
    """The simulator's stacking key of ``spec``; ``False`` if it has no
    valid config (such cells error out per cell in any group)."""
    kernel = RoundKernel()
    try:
        config = spec.to_config()
        SynchronousSimulator(config, trace_detail="lite", kernel=kernel)
    except (ValueError, KeyError):
        return False
    return _cross_run_key(config, "lite", kernel, {})


@st.composite
def cells(draw):
    model = draw(st.sampled_from(MODELS))
    f = draw(st.integers(1, 2))
    scenario = draw(st.sampled_from(("mobile",) * 5 + ("static-mixed",)))
    if scenario == "static-mixed":
        return CellSpec(
            model=model, f=f, n=draw(st.sampled_from((9, 13))),
            algorithm="ftm", movement="static",
            attack=draw(st.sampled_from(("split", "outlier"))),
            epsilon=1e-3, seed=draw(st.integers(0, 3)), rounds=5,
            scenario=scenario, params={"a": 0, "s": f, "b": 0},
        )
    minimum = get_semantics(model).required_n(f)
    n = draw(st.sampled_from((None, minimum, minimum + 1, 13)))
    return CellSpec(
        model=model,
        f=f,
        n=n,
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        movement=draw(st.sampled_from(("round-robin", "random", "static"))),
        attack=draw(st.sampled_from(("split", "outlier", "crossfire"))),
        epsilon=draw(st.sampled_from((1e-3, 1e-2))),
        seed=draw(st.integers(0, 3)),
        rounds=draw(st.sampled_from((None, 6))),
        family=draw(st.sampled_from(FAMILIES)),
        topology=draw(st.sampled_from(TOPOLOGIES)),
    )


class TestOneKey:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(cells(), min_size=2, max_size=8))
    def test_spec_key_agrees_with_engine_key(self, specs):
        stacked = []
        for spec in specs:
            engine = _engine_key(spec)
            if stackable(spec):
                if engine is False:
                    continue
                # Every stackable cell with a valid config stacks.
                assert engine is not None, spec.describe()
                stacked.append((spec, engine))
            else:
                # A cell the sweep keys alone is one the engine runs alone.
                assert engine in (False, None), spec.describe()
        for left, left_engine in stacked:
            for right, right_engine in stacked:
                assert (left.stack_key == right.stack_key) == (
                    left_engine == right_engine
                ), (left.describe(), right.describe())
        # The unstackable rest groups by identity minus the seed.
        rest = [spec for spec in specs if not stackable(spec)]
        groups: dict[tuple, list[CellSpec]] = {}
        for spec in rest:
            groups.setdefault(spec.stack_key, []).append(spec)
        assert sorted(spec.key for group in groups.values() for spec in group) == (
            sorted(spec.key for spec in rest)
        )
        for group in groups.values():
            shapes = {replace(spec, seed=0, n=spec.resolved_n) for spec in group}
            assert len(shapes) == 1
        stack_keys = {spec.stack_key for spec, _ in stacked}
        assert not stack_keys & set(groups)

    def test_unset_n_stacks_with_its_table_2_width(self):
        for model, width in (("M1", 9), ("M2", 11), ("M3", 13), ("M4", 7)):
            unset = CellSpec(
                model=model, f=2, n=None, algorithm="ftm",
                movement="round-robin", attack="split", epsilon=1e-3, seed=0,
            )
            explicit = CellSpec(
                model=model, f=2, n=width, algorithm="ftm",
                movement="random", attack="outlier", epsilon=1e-3, seed=1,
            )
            assert unset.resolved_n == width
            assert unset.stack_key == explicit.stack_key
            assert _engine_key(unset) == _engine_key(explicit)
            # Unstackable cells resolve n in their key too.
            static = dict(movement="static", family="witness")
            if model == "M3":  # witness declares nothing under M3
                assert replace(unset, **static).stack_key == replace(
                    unset, **static, n=width, seed=5
                ).stack_key

    def test_unknown_model_keys_alone(self):
        spec = CellSpec(
            model="M9", f=1, n=None, algorithm="ftm", movement="static",
            attack="split", epsilon=1e-3, seed=0,
        )
        assert spec.resolved_n is None
        assert not stackable(spec)
        assert spec.stack_key[2] == 0


def _mixed_cells() -> list[CellSpec]:
    axes = dict(
        models=("M1", "M2", "M3"),
        fs=(1,),
        movements=("round-robin", "random"),
        attacks=("split", "crossfire"),
        epsilons=(1e-3, 1e-2),
        families=FAMILIES,
        seeds=range(2),
        max_rounds=40,
    )
    return list(GridSpec(**axes).cells()) + list(
        GridSpec(**axes, rounds=12).cells()
    )


class TestMixedGridBitIdentity:
    def test_every_rung_equals_per_cell_serial(self):
        specs = _mixed_cells()
        reference = run_sweep(specs, dispatch="serial")
        assert not reference.errors()
        serial = run_sweep(specs, cross_run=True)
        # One stack per model: every family, attack, movement, epsilon
        # and round budget shares it, except the undeclared tseng M2
        # and witness M3 cells, which key by identity minus the seed.
        assert serial.dispatch == "cross-run(35 batches, max R=96)"
        assert serial.cells == reference.cells
        rungs = {
            "pickle": ShmCrossRunBackend(2, max_block_bytes=1),
            "shm": ShmCrossRunBackend(2),
        }
        for rung, backend in rungs.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                pooled = run_sweep(specs, backend=backend, dispatch="pool")
            stats = backend.last_arena_stats
            # The label names the rung that ran.
            assert pooled.dispatch.startswith(f"cross-run-{rung}("), (
                pooled.dispatch
            )
            if rung == "pickle":
                assert stats.shm_results == 0, stats
                assert stats.pickle_results == len(specs), stats
            else:
                assert stats.shm_results > 0, stats
            assert pooled.cells == reference.cells, rung
            for left, right in zip(pooled.cells, reference.cells):
                assert left.decisions == right.decisions, left.spec.describe()
                assert left.diameters == right.diameters, left.spec.describe()
