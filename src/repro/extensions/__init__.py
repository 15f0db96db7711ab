"""Extensions beyond the paper's core results.

Each one is built on the agreement engine itself: fault planning is the
simulator's :class:`~repro.runtime.controllers.MobileFaultController`,
and every round folds through the simulator's send-and-fold step or
runs as a whole simulation.

* :mod:`repro.extensions.clock_sync` -- approximate clock
  synchronization under mobile Byzantine faults (the conclusion's
  proposed reuse of the mapping technique): one controller-planned,
  send-and-fold round per synchronisation on the drifting clocks'
  logical readings;
* :mod:`repro.extensions.multidim` -- coordinate-wise multidimensional
  agreement for the robot-gathering motivation: one
  :func:`~repro.runtime.simulator.simulate_many` call over the
  coordinates, on one shared fault pattern;
* :mod:`repro.extensions.interactive_consistency` -- approximate
  interactive consistency: a dissemination that is the controller's
  round 0, then one agreement per source through the same
  coordinate-wise driver as multidim;
* :mod:`repro.extensions.median_validity` -- the median-validity
  property of the Stolz-Wattenhofer-inspired baseline.
"""

from .clock_sync import (
    ClockConfig,
    ClockSyncRound,
    ClockSyncSimulator,
    ClockSyncTrace,
    steady_state_skew_bound,
)
from .interactive_consistency import ICResult, interactive_consistency
from .median_validity import median_validity_holds, median_validity_interval
from .multidim import (
    MultidimResult,
    ensure_value_blind_movement,
    gathering_diameter,
    multidim_simulate,
)

__all__ = [
    "ClockConfig",
    "ClockSyncRound",
    "ClockSyncTrace",
    "ClockSyncSimulator",
    "steady_state_skew_bound",
    "MultidimResult",
    "multidim_simulate",
    "gathering_diameter",
    "ensure_value_blind_movement",
    "ICResult",
    "interactive_consistency",
    "median_validity_interval",
    "median_validity_holds",
]
