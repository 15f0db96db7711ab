"""Scenario sweeps: grids, pluggable backends, cell cache, aggregation.

The paper's tables quantify over families of runs; this subsystem
executes such families.  Declare a family as a :class:`GridSpec`
(cartesian product over model, f, n, algorithm, movement, attack,
epsilon and seed axes) or as an explicit list of :class:`CellSpec`
cells (including static-mixed and lower-bound *scenarios*), run it
with :func:`run_sweep` -- through a pluggable
:class:`~repro.sweep.backends.SweepBackend` (in-process, or the
work-stealing shared-memory :class:`MultiprocessingBackend` pool of
cross-run groups), against an optional content-addressed
:class:`CellStore` cell cache -- and aggregate the :class:`SweepResult`
into the harness's tables and series, batched or streaming
(:class:`SweepAccumulator`).  A grid fans out across hosts as
deterministic shards (:func:`shard_cells`) sweeping into one shared
:class:`CellStore`, which then serves the whole grid warm.
The service layer adds resumable sweeps (:class:`SweepJournal`) and the
``sweep serve`` daemon (:class:`SweepServer`), which answers warm-cache
grid queries without touching a worker pool.

>>> from repro.sweep import GridSpec, run_sweep
>>> result = run_sweep(GridSpec(models=("M1", "M2"), seeds=range(4)))
>>> print(result.summary_table())  # doctest: +SKIP
"""

from .aggregate import SweepAccumulator, SweepResult
from .backends import (
    DISPATCH_MODES,
    ArenaStats,
    MultiprocessingBackend,
    SerialBackend,
    SharedResultArena,
    ShmCrossRunBackend,
    SweepBackend,
    estimate_cell_cost,
    plan_shm_layout,
)
from .cache import SWEEP_SCHEMA_VERSION, CacheGCReport, CacheStats, CellStore
from .engine import (
    CellResult,
    run_cell,
    run_cell_many,
    run_sweep,
)
from .grid import CellSpec, GridSpec, shard_cells
from .probes import Probe, get_probe, register_probe
from .scenarios import build_cell_config, mixed_stall_config, register_scenario
from .service import (
    SweepJournal,
    SweepServer,
    grid_from_payload,
    request_json,
    submit_sweep,
)

__all__ = [
    "CellSpec",
    "GridSpec",
    "shard_cells",
    "CellResult",
    "SweepResult",
    "SweepAccumulator",
    "run_cell",
    "run_cell_many",
    "run_sweep",
    "SweepBackend",
    "SerialBackend",
    "MultiprocessingBackend",
    "ShmCrossRunBackend",
    "SharedResultArena",
    "ArenaStats",
    "DISPATCH_MODES",
    "estimate_cell_cost",
    "plan_shm_layout",
    "CellStore",
    "CacheStats",
    "CacheGCReport",
    "SWEEP_SCHEMA_VERSION",
    "SweepJournal",
    "SweepServer",
    "grid_from_payload",
    "request_json",
    "submit_sweep",
    "Probe",
    "get_probe",
    "register_probe",
    "build_cell_config",
    "mixed_stall_config",
    "register_scenario",
]
