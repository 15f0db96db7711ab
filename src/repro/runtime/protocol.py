"""The voting protocol executed by non-faulty processes.

Paper Section 4: each round of an MSR convergent voting algorithm is

1. *send-phase*: send the current voted value to everybody -- except
   that, per the paper's modification for model M1, a process that
   **knows** it is cured performs ``nop`` instead (Lemma 1);
2. *receive-phase*: aggregate received values into a multiset ``N``;
3. *computation-phase*: adopt ``F_MSR(N)`` as the next voted value.

The protocol object is the *tamper-proof code* of the failure model: it
is immutable and shared by all processes; a mobile agent can corrupt a
process's value (its state) but never this logic.

Two protocol shapes exist:

* :class:`VotingProtocol` -- the *scalar* shape of the source paper:
  one float per node, one broadcast per round, no state beyond the
  voted value.  The simulator's full-trace recorder, the specification
  checker's per-round P1/P2 invariants and the round kernel's
  distinct-inbox fast path are all built for this shape.
* :class:`StatefulRoundProtocol` -- the *multi-round* shape introduced
  by the algorithm-family abstraction (see
  :mod:`repro.runtime.families`): a per-run object that owns per-node
  state carried across rounds and exchanges multi-value messages.
  Tseng's improved mobile-fault algorithm (arXiv:1707.07659) is the
  first such family; its messages are ``(value, previous broadcast)``
  pairs and its receive phase filters on cross-round consistency.

Which shape a run uses is decided by the configured *protocol family*
(:class:`~repro.runtime.families.ProtocolFamily`), never hard-coded in
the simulator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from ..msr.base import MSRApplication, MSRFunction
from ..msr.multiset import ValueMultiset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .controllers import RoundPlan
    from .kernel import RoundKernel

__all__ = ["VotingProtocol", "MSRVotingProtocol", "StatefulRoundProtocol"]


class VotingProtocol(ABC):
    """Abstract round behaviour of a non-faulty process."""

    #: Whether :meth:`compute_value` depends only on the received
    #: multiset, never on ``pid``.  The round kernel exploits this to
    #: evaluate the computation phase once per *distinct inbox* instead
    #: of once per process; protocols whose computation reads the
    #: process identity must leave this ``False``.
    pid_independent_compute: bool = False

    @abstractmethod
    def send_value(self, pid: int, value: float, aware_cured: bool) -> float | None:
        """Value to broadcast this round, or ``None`` to stay silent."""

    @abstractmethod
    def compute(self, pid: int, received: ValueMultiset) -> MSRApplication:
        """Computation phase: derive the next voted value from ``received``."""

    def compute_value(self, pid: int, received: ValueMultiset) -> float:
        """Result-only computation phase for trace-lite hot loops.

        Must be numerically identical to ``compute(pid, received).result``;
        the default delegates, subclasses may skip the snapshot.
        """
        return self.compute(pid, received).result


class MSRVotingProtocol(VotingProtocol):
    """The MSR voting protocol with the M1 cured-silence guard."""

    # F_MSR(N) = mean(Sel(Red(N))) reads only the multiset (paper
    # Section 4), which is what lets the kernel share one evaluation
    # across every recipient of the same inbox.
    pid_independent_compute = True

    def __init__(self, function: MSRFunction) -> None:
        self.function = function

    def send_value(self, pid: int, value: float, aware_cured: bool) -> float | None:
        # Paper, Lemma 1: "if (cured) nop; else send(vote)".  Processes
        # that cannot diagnose their cured state (M2/M3) always have
        # aware_cured=False and fall through to the normal send.
        if aware_cured:
            return None
        return value

    def compute(self, pid: int, received: ValueMultiset) -> MSRApplication:
        return self.function.apply(received)

    def compute_value(self, pid: int, received: ValueMultiset) -> float:
        return self.function.apply_value(received)

    def __repr__(self) -> str:
        return f"MSRVotingProtocol({self.function.name})"


class StatefulRoundProtocol(ABC):
    """A per-run protocol instance that owns per-node multi-round state.

    Families whose messages are not a single float (or whose
    computation reads state carried across rounds) implement this
    interface instead of :class:`VotingProtocol`.  The simulator drives
    the run through :meth:`reset` / :meth:`run_round` on both trace
    levels: ``trace_detail="full"`` flips :attr:`recording` on, and the
    protocol then deposits the round's wire activity into
    :attr:`wire_record` (see below) for the simulator to fold into
    :class:`~repro.runtime.trace.RoundRecord` objects -- multi-value
    message payloads ride in ``RoundRecord.payloads``.

    The adversary layer stays *scalar*: fault controllers plan rounds
    in terms of per-recipient float lies (see
    :class:`~repro.runtime.controllers.RoundPlan`), and the family's
    message codec expands each scalar into its message structure inside
    :meth:`run_round`.  This keeps every existing
    :class:`~repro.faults.value_strategies.ValueStrategy` applicable to
    every family.
    """

    #: Family registry name this protocol instance belongs to.
    family_name: str = "?"
    #: Number of float components per message (1 = scalar).
    message_arity: int = 1
    #: Set by the full-trace driver: when True, :meth:`run_round` must
    #: leave a wire record (below) describing the round it just ran.
    recording: bool = False
    #: The last recorded round, written by :meth:`run_round` when
    #: :attr:`recording`.  Keys: ``sent`` (pid -> Mapping|None message
    #: matrix of representative scalars), ``payloads`` (pid -> the
    #: structured message actually on the wire, or None/absent for
    #: scalar-message senders), ``received`` (pid -> ValueMultiset of
    #: representative scalars; may be empty for rounds whose fold
    #: happens elsewhere, e.g. mid-phase witness gossip), ``heard``
    #: (pid -> frozenset of senders) and ``applications`` (pid ->
    #: MSRApplication-compatible objects) with the same key policy.
    wire_record: dict | None = None

    @abstractmethod
    def reset(self, kernel: "RoundKernel") -> None:
        """(Re)initialize per-node state for a fresh run.

        ``kernel`` supplies shared scratch buffers and the evaluation
        mode: in the fast mode stateful families group recipients and
        fold through flat or array evaluators like the scalar kernel
        path; ``kernel.reference`` asks for the per-recipient object
        path the equivalence suites compare against.
        """

    @abstractmethod
    def start(self, initial_values) -> None:
        """Load the run's round-0 estimates (called after :meth:`reset`)."""

    @property
    @abstractmethod
    def values(self) -> dict[int, float]:
        """Live representative vote per node (read-only by convention).

        This is what fault controllers see as process "memory", what
        diameters and decisions are computed from, and what termination
        rules observe.
        """

    @abstractmethod
    def run_round(
        self, plan: "RoundPlan", cured_aware: bool, need_diameter: bool
    ) -> float:
        """Execute one synchronous round under ``plan``.

        Applies the plan's memory corruptions, runs the family's
        send/receive/compute phases (expanding scalar overrides through
        the message codec), applies compute corruptions, and returns
        the maximum received-inbox diameter (0.0 unless
        ``need_diameter``, which only round 0 asks for).
        """

    def decision_ready(self, round_index: int) -> bool:
        """Per-run round schedule: may termination fire after this round?

        The per-run counterpart of
        :meth:`~repro.runtime.families.ProtocolFamily.decision_ready`
        for protocols whose phase length depends on run parameters the
        stateless family singleton cannot know (the witness family's
        gossip phases span ``diameter(topology)`` communication
        rounds).  The simulator's termination test consults both;
        ``max_rounds`` still caps the run regardless.
        """
        return True
