"""perfbench's layer tracer still finds every boundary it wraps.

``perfbench/layers.py`` times each layer from outside the program: it
swaps the public functions at the layer boundaries (``_targets()``)
for timing wrappers, reading each class attribute from the owner's own
``__dict__``.  A refactor that moves a wrapped method to a base class,
renames it, or routes stacked sweeps around ``simulate_many`` breaks
the traced benchmark run.  This test fails first, in tier-1: it traces
one small stacked sweep and checks that every target resolved, that
the simulator counted stacked runs, that planning and the fold book
their time to the ``controllers`` and ``kernel`` layers once per
stacked round, and that uninstalling restores every original.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.runtime.controllers import CrossRunPlanner
from repro.sweep import GridSpec, run_sweep

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(owner, attr):
    """What the tracer reads: a class's own attribute, a module's global."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return vars(owner)[attr]


def test_tracer_wraps_every_seam_of_a_stacked_sweep():
    layers = _load_layers()
    targets = layers._targets()
    unresolved = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in targets
        if attr not in (owner.__dict__ if isinstance(owner, type) else vars(owner))
    ]
    assert not unresolved, f"perfbench targets not found: {unresolved}"
    originals = [(owner, attr, _bound(owner, attr)) for owner, attr, _ in targets]
    planner_init = CrossRunPlanner.__dict__["__init__"]

    grid = GridSpec(
        models=("M1", "M4"),
        fs=(2,),
        attacks=("crossfire", "split"),
        seeds=(0, 1, 2),
        rounds=4,
    )
    tracer = layers.Tracer()
    tracer.install()
    try:
        result = run_sweep(grid, cross_run=True)
    finally:
        tracer.uninstall()

    assert result.all_satisfied
    for owner, attr, original in originals:
        assert _bound(owner, attr) is original, f"{owner}.{attr} not restored"
    assert CrossRunPlanner.__dict__["__init__"] is planner_init
    stacked = tracer.get("stacked_runs")
    assert stacked > 0
    assert tracer.get("runs") >= stacked
    layer_self = tracer.layer_self()
    assert layer_self.get("simulator", 0.0) > 0.0
    assert layer_self.get("engine", 0.0) > 0.0
    # Planning and the fold stay inside the wrapped stacked seams: the
    # controllers and kernel layers book self time, and a class-planned
    # stack enters each once per round -- plan_many and fold_rows_many,
    # nothing per row.
    assert layer_self.get("controllers", 0.0) > 0.0
    assert layer_self.get("kernel", 0.0) > 0.0
    stacked_rounds = tracer.get("calls:controllers.plan_many")
    assert stacked_rounds > 0
    assert tracer.get("calls:kernel.fold_rows_many") == stacked_rounds
    kernel_calls = sum(
        value for key, value in tracer.totals.items()
        if key.startswith("calls:kernel.")
    )
    assert kernel_calls == stacked_rounds
    assert tracer.get("calls:controllers.plan_round") == 0
