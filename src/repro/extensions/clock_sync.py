"""Approximate clock synchronization under mobile Byzantine faults.

The paper's conclusion proposes reusing the mapping technique for
"other classical problems ... e.g. clock synchronization".  This
extension makes that concrete: processes own drifting hardware clocks
and periodically run one MSR voting round on their logical clock
readings, under any of the four mobile Byzantine models.

Model
-----
Hardware clock of process ``i`` at real time ``t``:
``H_i(t) = (1 + drift_i) * t + phase_i`` with ``|drift_i| <= rho``.
The logical clock is ``L_i(t) = H_i(t) + adj_i``.  Every ``period``
time units the processes exchange logical readings and each non-faulty
process sets ``adj_i`` so that ``L_i`` jumps to ``F_MSR(received)``.

Between two synchronisations the non-faulty skew grows by at most
``2 * rho * period``; each synchronisation contracts it by the MSR
contraction factor ``K``, so the steady-state skew is bounded by

    skew_bound = 2 * rho * period / (1 - K)      (+ initial transient)

which :func:`steady_state_skew_bound` computes and the experiment
checks against measured trajectories.

Each synchronisation is one round of the agreement simulator's own
machinery on the logical readings.  A
:class:`~repro.runtime.controllers.MobileFaultController` plans it under
the model's timing: in M1-M3 the agents move first and the processes
they vacate are cured, their clocks left reading the adversary's
departure value; in M4 the round's senders are the current hosts and
the agents ride the messages to the next hosts.  Faulty processes send
the adversary's per-recipient readings, and cured ones are silent (M1),
broadcast their corrupted reading (M2) or send a planted queue (M3).
The send-and-fold step (:func:`~repro.runtime.simulator.send_and_fold`)
then re-targets every process the agents do not occupy at the end of
the round -- cured ones included -- to ``F_MSR(received)``, and each
occupied process's clock ends the round on the adversary's
``corrupted_compute`` garbage.  Validity here means a non-faulty
logical clock never leaves the envelope of non-faulty readings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.adversary import Adversary
from ..faults.models import MobileModel, get_semantics
from ..msr.base import MSRFunction
from ..runtime.controllers import MobileFaultController
from ..runtime.kernel import RoundKernel
from ..runtime.protocol import MSRVotingProtocol
from ..runtime.rng import derive_rng
from ..runtime.simulator import send_and_fold

__all__ = [
    "ClockConfig",
    "ClockSyncRound",
    "ClockSyncTrace",
    "ClockSyncSimulator",
    "steady_state_skew_bound",
]


def steady_state_skew_bound(rho: float, period: float, contraction: float) -> float:
    """Steady-state non-faulty skew bound for drifting re-synced clocks."""
    if not 0.0 <= contraction < 1.0:
        raise ValueError("contraction must lie in [0, 1) for a bounded skew")
    return 2.0 * rho * period / (1.0 - contraction)


@dataclass(frozen=True)
class ClockConfig:
    """Configuration of a clock-synchronisation run."""

    n: int
    f: int
    model: MobileModel
    algorithm: MSRFunction
    adversary: Adversary
    #: Maximum absolute drift rate of any hardware clock.
    rho: float = 1e-4
    #: Real-time interval between synchronisation rounds.
    period: float = 10.0
    #: Number of synchronisation rounds to simulate.
    sync_rounds: int = 50
    #: Spread of the initial clock phases.
    initial_phase_spread: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.f <= self.n:
            raise ValueError("f must lie in [0, n]")
        if self.rho < 0 or self.period <= 0:
            raise ValueError("rho must be >= 0 and period > 0")
        if self.sync_rounds < 1:
            raise ValueError("sync_rounds must be positive")


@dataclass(frozen=True)
class ClockSyncRound:
    """Measurements of one synchronisation round."""

    round_index: int
    time: float
    faulty: frozenset[int]
    cured: frozenset[int]
    #: Skew of non-faulty logical clocks just before re-syncing.
    skew_before: float
    #: Skew just after applying the MSR adjustment.
    skew_after: float


@dataclass
class ClockSyncTrace:
    """Complete clock-synchronisation execution record."""

    config: ClockConfig
    rounds: list[ClockSyncRound] = field(default_factory=list)

    def max_skew_after(self, skip_transient: int = 2) -> float:
        """Largest post-sync skew after the initial transient rounds."""
        relevant = self.rounds[skip_transient:] or self.rounds
        return max(r.skew_after for r in relevant)

    def max_skew_before(self, skip_transient: int = 2) -> float:
        """Largest pre-sync skew after the initial transient rounds."""
        relevant = self.rounds[skip_transient:] or self.rounds
        return max(r.skew_before for r in relevant)

    def skew_series(self) -> list[float]:
        """Post-sync skew per round (the figure series)."""
        return [r.skew_after for r in self.rounds]


class ClockSyncSimulator:
    """Drives drifting clocks through periodic MSR synchronisations."""

    def __init__(self, config: ClockConfig) -> None:
        self.config = config
        rng = derive_rng(config.seed, "clock-sync", "init")
        self._drift = [
            rng.uniform(-config.rho, config.rho) for _ in range(config.n)
        ]
        self._phase = [
            rng.uniform(0.0, config.initial_phase_spread) for _ in range(config.n)
        ]
        self._adjustment = [0.0] * config.n
        self._adversary_rng = derive_rng(config.seed, "clock-sync", "adversary")
        self._controller = MobileFaultController(
            config.n, config.f, config.model, config.adversary
        )
        self._cured_aware = get_semantics(config.model).cured_aware
        self._protocol = MSRVotingProtocol(config.algorithm)
        self._kernel = RoundKernel()
        self._evaluate = self._kernel.prepare(self._protocol)

    # -- clock readings ---------------------------------------------------------

    def hardware(self, pid: int, time: float) -> float:
        """Hardware clock of ``pid`` at real time ``time``."""
        return (1.0 + self._drift[pid]) * time + self._phase[pid]

    def logical(self, pid: int, time: float) -> float:
        """Logical clock of ``pid`` at real time ``time``."""
        return self.hardware(pid, time) + self._adjustment[pid]

    # -- simulation ----------------------------------------------------------------

    def run(self) -> ClockSyncTrace:
        """Execute all synchronisation rounds."""
        trace = ClockSyncTrace(config=self.config)
        for round_index in range(self.config.sync_rounds):
            trace.rounds.append(self._sync_round(round_index))
        return trace

    def _sync_round(self, round_index: int) -> ClockSyncRound:
        n = self.config.n
        time = (round_index + 1) * self.config.period
        readings = {pid: self.logical(pid, time) for pid in range(n)}
        plan = self._controller.plan_round(
            round_index, dict(readings), self._adversary_rng
        )
        faulty, cured = plan.faulty_at_send, plan.cured_at_send
        readings.update(plan.memory_corruptions)
        # Pre-sync skew over *correct* clocks: cured ones hold what the
        # departing agent left, which this round's computation repairs
        # (Lemma 5's analogue).
        skew_before = _spread(
            readings[pid]
            for pid in range(n)
            if pid not in faulty and pid not in cured
        )
        send_and_fold(
            self._kernel, self._protocol, self._evaluate, plan, readings,
            self._cured_aware, False,
        )
        readings.update(plan.compute_corruptions)
        for pid, reading in readings.items():
            self._adjustment[pid] = reading - self.hardware(pid, time)
        skew_after = _spread(
            readings[pid] for pid in range(n) if pid not in plan.positions_after
        )
        return ClockSyncRound(
            round_index=round_index,
            time=time,
            faulty=faulty,
            cured=cured,
            skew_before=skew_before,
            skew_after=skew_after,
        )


def _spread(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return max(values) - min(values)
