"""Per-layer timing taken from outside the program.

The tracer wraps the public functions at each layer boundary of
``repro`` (module name = layer) for the duration of a traced cycle and
restores the originals afterwards, so untraced cycles run the program
exactly as shipped.  Nothing under ``src/`` is modified.

Each wrapped call is a span.  A span's *self time* is its duration
minus the time covered by spans it caused, so the self times of all
layers partition the traced interval; the benchmark checks that they
sum to the traced wall time within 10%.

Sweeps on a process pool run their cells in forked workers, which
inherit the installed wrappers.  There the wrapper of
``repro.sweep.engine.run_cell_many`` (the worker's task entry point)
ships the worker's span totals back on the first result's
``CellResult.metrics`` -- a compare-excluded field -- and the parent
folds them in with :meth:`Tracer.absorb`.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

#: Prefix of the metric names a worker ships back on CellResult.metrics.
SHIP_PREFIX = "perfbench:"


def _targets():
    """``(owner, attribute, layer)`` for every wrapped boundary.

    The layer is the ``repro`` module that owns the function.  Module
    functions are wrapped wherever a caller looks them up by name
    (``repro.sweep.engine`` imports ``simulate_many`` into its own
    namespace, for example).
    """
    import repro
    import repro.api as api
    import repro.sweep as sweep
    import repro.sweep.engine as engine
    import repro.runtime.simulator as simulator
    from repro.runtime.controllers import CrossRunPlanner, MobileFaultController
    from repro.runtime.kernel import RoundKernel
    from repro.runtime.tseng import TsengProtocol
    from repro.runtime.witness import WitnessProtocol
    from repro.sweep.aggregate import SweepResult
    from repro.sweep.backends import (
        MultiprocessingBackend,
        ShmCrossRunBackend,
        SweepBackend,
    )
    from repro.sweep.cache import CellStore
    from repro.sweep.service import SweepServer

    return [
        (repro, "simulate", "api"),
        (sweep, "run_sweep", "engine"),
        (engine, "run_sweep", "engine"),
        (engine, "run_cell", "engine"),
        (engine, "run_cell_many", "engine"),
        (SweepBackend, "execute_many", "backends"),
        (MultiprocessingBackend, "execute_many", "backends"),
        (ShmCrossRunBackend, "execute_many", "backends"),
        (CellStore, "load", "cache"),
        (CellStore, "save", "cache"),
        (SweepResult, "summary_rows", "aggregate"),
        (SweepServer, "handle_sweep", "service"),
        (simulator, "run_simulation", "simulator"),
        (simulator, "simulate_many", "simulator"),
        (engine, "run_simulation", "simulator"),
        (engine, "simulate_many", "simulator"),
        (api, "run_simulation", "simulator"),
        (CrossRunPlanner, "plan_many", "controllers"),
        (MobileFaultController, "plan_round", "controllers"),
        (RoundKernel, "batch_rows", "kernel"),
        (RoundKernel, "fold_rows_many", "kernel"),
        (RoundKernel, "compute_phase", "kernel"),
        (RoundKernel, "compute_phase_batch", "kernel"),
        (TsengProtocol, "run_round", "families"),
        (WitnessProtocol, "run_round", "families"),
    ]


class Tracer:
    """Span accounting for the wrapped layer boundaries.

    ``totals`` maps ``self:<layer>`` to self seconds, ``incl:<name>``
    to inclusive seconds of calls that entered ``name`` from another
    layer, ``calls:<name>`` to the number of such calls, and
    ``stacked_runs`` / ``runs`` to the runs the simulator advanced on a
    stacked ``(R, n)`` array / in total.  Nested calls within one layer
    (``plan_many`` calling ``plan_round``) count once, at the outer
    call.
    """

    def __init__(self) -> None:
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.pid = os.getpid()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, name: str):
        totals = self.totals
        stack_of = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = stack_of()
            outer = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                totals["self:" + layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if outer:
                    totals["incl:" + name] += duration
                    totals["calls:" + name] += 1

        return span

    def _ship_worker_totals(self, fn):
        """Wrap the worker task entry so a forked worker ships its spans."""
        tracer = self

        @functools.wraps(fn)
        def task(cells, *args, **kwargs):
            if os.getpid() == tracer.pid:
                return fn(cells, *args, **kwargs)
            # The fork copied the parent's open spans; a worker task is a
            # root of its own.
            tracer._local.stack = []
            before = dict(tracer.totals)
            results = fn(cells, *args, **kwargs)
            shipped = tuple(
                (SHIP_PREFIX + key, value - before.get(key, 0.0))
                for key, value in tracer.totals.items()
                if value != before.get(key, 0.0)
            )
            if results and shipped:
                from dataclasses import replace

                results[0] = replace(
                    results[0], metrics=results[0].metrics + shipped
                )
            return results

        return task

    def _count_stacked(self, init):
        totals = self.totals

        @functools.wraps(init)
        def counted(planner, controllers, *args, **kwargs):
            controllers = list(controllers)
            totals["stacked_runs"] += len(controllers)
            return init(planner, controllers, *args, **kwargs)

        return counted

    def _count_runs(self, fn, many: bool):
        totals = self.totals

        @functools.wraps(fn)
        def counted(configs, *args, **kwargs):
            if many:
                configs = list(configs)
                totals["runs"] += len(configs)
            else:
                totals["runs"] += 1
            return fn(configs, *args, **kwargs)

        return counted

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; idempotent until :meth:`uninstall`."""
        if self._saved:
            return
        from repro.runtime.controllers import CrossRunPlanner

        self.pid = os.getpid()
        wrapped: dict[int, object] = {}
        for owner, attr, layer in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            # One wrapper per function object, so a function bound under
            # two names (repro.sweep.run_sweep, engine.run_sweep) stays
            # one object and still pickles by reference.
            replacement = wrapped.get(id(original))
            if replacement is None:
                fn = original
                if attr in ("run_simulation", "simulate_many"):
                    fn = self._count_runs(fn, many=attr == "simulate_many")
                replacement = self._wrap(fn, layer, f"{layer}.{attr}")
                if attr == "run_cell_many":
                    replacement = self._ship_worker_totals(replacement)
                wrapped[id(original)] = replacement
            setattr(owner, attr, replacement)
        init = CrossRunPlanner.__dict__["__init__"]
        self._saved.append((CrossRunPlanner, "__init__", init))
        CrossRunPlanner.__init__ = self._count_stacked(init)

    def uninstall(self) -> None:
        """Restore every original, in reverse order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def absorb(self, cells) -> None:
        """Fold span totals shipped back by pool workers into this tracer.

        Worker totals are kept under a ``worker:`` prefix as well, so
        worker-side time can be checked against the workers' busy time.
        """
        for cell in cells:
            for name, value in cell.metrics:
                if name.startswith(SHIP_PREFIX):
                    key = name[len(SHIP_PREFIX):]
                    self.totals[key] += value
                    if key.startswith("self:"):
                        self.totals["worker:" + key] += value

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer."""
        return {
            key[len("self:"):]: value
            for key, value in self.totals.items()
            if key.startswith("self:")
        }

    def get(self, key: str) -> float:
        return self.totals.get(key, 0.0)
