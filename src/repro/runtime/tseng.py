"""Tseng's improved mobile-fault approximate consensus family.

Implements the algorithm family of *An Improved Approximate Consensus
Algorithm in the Presence of Mobile Faults* (Lewis Tseng,
arXiv:1707.07659) on top of the repo's mobile-Byzantine substrate.
Where Bonomi et al.'s MSR voting protocol is memoryless -- each round a
node broadcasts one float and folds the received multiset -- Tseng's
algorithm carries state across rounds and exchanges *pair* messages:

    message from node ``s`` in round ``r``  =  (v_s, p_s)

where ``v_s`` is the current estimate and ``p_s`` is the value ``s``
broadcast in round ``r - 1`` (a ``bottom`` marker when it sent nothing
it can vouch for: silence, round 0, or an adversary-controlled send).
A receiver ``i`` rejects ``v_s`` exactly when the claim is *provably
inconsistent with its own history*::

    reject(s)  iff  p_s is a float and
                    p_s != (what i actually received from s in r - 1)

A ``bottom`` claim asserts nothing and always passes.  The point of
the filter is the defining difficulty of mobile faults: a *cured* node
(an agent just left it) holds garbage state but -- in the movement-
unaware models M2/M3 -- does not know it and keeps broadcasting.
Bonomi et al. absorb that garbage by trimming more (Table 1 maps cured
nodes to extra static faults).  Tseng's consistency check instead
*masks* most cured garbage at the receivers: the agent scrambled the
node's memory of what it sent, so the node's claimed ``p_s`` no longer
matches what anybody actually received, and its value is discarded
before the MSR fold.

Discarding alone would starve the reduction (the model's trim budget
``tau`` counts cured nodes, so removing their values *and* trimming
the full ``tau`` eats honest mass instead).  The filter therefore
feeds back into the reduction: every sender a receiver rejects is one
provably-untrustworthy extreme its trim no longer has to cover, so the
receiver folds with the budget-``tau - rejected`` variant of the
configured MSR function (:meth:`repro.msr.reduce.Reduction.reduced_by`).
Per-receiver Validity is preserved -- at most ``f`` forged lies plus
the unrejected cured garbage can sit in the multiset, which is exactly
``tau - rejected`` values -- while each rejection converts one trimmed
slot back into surviving honest mass.  Reductions without a fault
budget (no ``reduced_by``) fall back to the classical omission rule of
iterative approximate agreement instead: the receiver substitutes its
own estimate for each rejected entry, keeping multiset sizes uniform.

Honest nodes are never filtered (their claims are faithful or
``bottom``), and currently-occupied nodes gain nothing: the omniscient
adversary always forges a passing claim or abstains, which this
implementation models by construction.  Every recipient therefore
folds the Bonomi multiset minus provably-adversarial values with a
correspondingly relaxed trim -- never slower to converge, and in
cured-heavy executions measurably faster; the family-comparison
experiment quantifies the gap.

**Where the filter never fires.**  A broadcaster's float claim always
equals what it put on the wire last round, unless a departing agent
scrambled its send-memory this round *and* it broadcasts anyway --
an unaware cured node broadcasting its state, which only M2 has.
Under M1 cured nodes are silent, so next round they claim ``bottom``;
under M3 they send the agent's planted queue, an adversary-controlled
send that also leaves ``bottom``; under M4 nobody is cured at send
time.  On the complete graph every receiver then rejects nobody,
``tau - rejected = tau``, and each fold is exactly the Bonomi fold of
the same multiset: :meth:`TsengFamily.lite_equivalent` declares those
runs ``"bonomi"`` so the cross-run engine stacks them as bonomi rows.

Per-node state (all corrupted together by a departing agent, which is
what arms the filter):

* ``value``      -- the current estimate (the scalar the fault
  controllers see as process memory);
* ``sent_memory`` -- what the node believes it broadcast last round
  (``bottom`` after silence or an adversary-controlled send).

Cross-round bookkeeping kept by the *protocol instance* (it reflects
what was actually on the wire, not any node's corruptible memory):
last round's shared broadcast values, last round's per-recipient
override outboxes, so the consistency check costs O(1) per sender with
per-recipient work only for the O(f) senders whose history differs
between recipients.

The receive+compute loop follows the round kernel's distinct-inbox
design (:mod:`repro.runtime.kernel`): the uniformly-accepted broadcast
values form one shared sorted list per round; recipients are grouped by
the O(f) per-recipient deltas (override values, per-recipient
acceptance bits) and the MSR function is evaluated once per distinct
effective inbox through :func:`~repro.runtime.kernel.compile_msr`'s
flat evaluator.  A kernel in its reference mode
(``RoundKernel(reference=True)``) evaluates every recipient on the
``ValueMultiset`` object path instead, which is the per-recipient
reference implementation the equivalence suite compares against.

``trace_detail="full"`` runs through the same round driver with the
protocol's ``recording`` flag on: each round deposits a wire record --
the ``sent`` matrix of representative scalars (what the P1/P2 checkers
and the send-behavior classifier consume), the ``(value, claim)`` pair
payloads actually on the wire (``RoundRecord.payloads``), and the full
MSR application per computing node, whose ``received``/``reduced``
stages document the post-filter multiset the node actually folded.
Value trajectories are bit-identical between the two detail levels.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Mapping, Sequence

from ..faults.models import MobileModel
from ..msr.base import MSRFunction
from ..msr.multiset import ValueMultiset
from .families import ProtocolFamily, bonomi_on_complete, register_family
from .kernel import RoundKernel, compile_msr
from .protocol import StatefulRoundProtocol
from .trace import BroadcastOutbox

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import SimulationConfig
    from .controllers import RoundPlan

__all__ = ["TsengFamily", "TsengProtocol", "BOTTOM"]


class _Bottom:
    """The ``bottom`` marker: "I broadcast nothing I can vouch for"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BOTTOM"


#: Claimed-previous marker for silent or adversary-controlled sends.
#: Compares unequal to every float, so a claim of ``BOTTOM`` never
#: passes the consistency check.
BOTTOM = _Bottom()

#: Models without an unaware cured node broadcasting its state: no
#: claim ever fails the consistency check.
_NO_REJECTION_MODELS = frozenset(
    {MobileModel.GARAY, MobileModel.SASAKI, MobileModel.BUHRMAN}
)


class TsengProtocol(StatefulRoundProtocol):
    """Per-run instance of Tseng's algorithm (state + message codec)."""

    family_name = "tseng"
    message_arity = 2

    def __init__(self, n: int, function: MSRFunction) -> None:
        self.n = n
        self.function = function
        self._values: dict[int, float] = {}
        self._sent_memory: list[object] = []
        # What was actually on the wire last round: shared broadcast
        # values, per-recipient override outboxes, round counter.
        self._prev_broadcast: dict[int, float] = {}
        self._prev_overrides: dict[int, Mapping[int, float]] = {}
        # Evaluation machinery (resolved per run in reset()).
        self._kernel: RoundKernel | None = None
        self._evaluate = None
        self._buffer: list[float] = []

    # -- StatefulRoundProtocol interface ---------------------------------------

    def reset(self, kernel: RoundKernel) -> None:
        self._kernel = kernel
        self._evaluate = None if kernel.reference else compile_msr(self.function)
        # Budget-relaxed variants of the MSR function, one per possible
        # per-receiver rejection count, built lazily (most rounds reject
        # nobody).  ``None`` support means the reduction carries no
        # fault budget and rejections use own-value substitution.
        self._adaptive = self.function.reduction.reduced_by(0) is not None
        self._variants: dict[int, tuple[MSRFunction, object]] = {
            0: (self.function, self._evaluate)
        }
        self._buffer = []
        self._prev_broadcast = {}
        self._prev_overrides = {}
        self._sent_memory = [BOTTOM] * self.n

    def _variant(self, masked: int) -> tuple[MSRFunction, object]:
        """The MSR function (and flat evaluator) trimming ``tau - masked``."""
        hit = self._variants.get(masked)
        if hit is None:
            base = self.function
            function = MSRFunction(
                base.reduction.reduced_by(masked),
                base.selection,
                base.combiner,
                name=f"{base.name}[-{masked}]",
            )
            evaluate = None if self._kernel.reference else compile_msr(function)
            hit = (function, evaluate)
            self._variants[masked] = hit
        return hit

    def start(self, initial_values: Sequence[float]) -> None:
        """Load round-0 estimates (called by the simulator after reset)."""
        self._values = {
            pid: float(value) for pid, value in enumerate(initial_values)
        }

    @property
    def values(self) -> dict[int, float]:
        return self._values

    def run_round(
        self, plan: "RoundPlan", cured_aware: bool, need_diameter: bool
    ) -> float:
        n = self.n
        values = self._values
        sent_memory = self._sent_memory

        # Departing agents scramble the *whole* node state: estimate
        # and send-memory alike.  Corrupting the send-memory is what
        # makes the node's next claim inconsistent (the filter's whole
        # point); a single scalar models the agent's choice, exactly as
        # in the Bonomi family.
        for pid, corrupted in plan.memory_corruptions.items():
            values[pid] = corrupted
            sent_memory[pid] = corrupted

        # -- send phase: classify every sender ------------------------------
        # Broadcast senders whose acceptance is uniform across
        # recipients land in `base_*`; senders needing per-recipient
        # treatment land in `varying` / `overrides`.
        overrides = plan.send_overrides
        forced_silent = plan.forced_silent
        cured = plan.cured_at_send if cured_aware else frozenset()
        prev_broadcast = self._prev_broadcast
        prev_overrides = self._prev_overrides

        base_values: list[float] = []
        #: Broadcast senders every recipient rejects (scrambled claim
        #: against shared history); each costs one own-value
        #: substitution at every recipient.
        base_rejected = 0
        #: Broadcast senders with a float claim against per-recipient
        #: r-1 traffic: (value sent now, claimed, actual r-1 outbox).
        varying: list[tuple[float, object, Mapping[int, float]]] = []
        #: Override outboxes.  The omniscient adversary read every
        #: channel, so it either forges a matching claim or abstains
        #: with ``bottom`` -- its messages always pass the filter.
        override_list: list[Mapping[int, float]] = []

        next_broadcast: dict[int, float] = {}
        next_overrides: dict[int, Mapping[int, float]] = {}
        recording = self.recording
        sent: dict[int, Mapping[int, float] | None] | None = (
            {} if recording else None
        )
        payloads: dict[int, object] | None = {} if recording else None

        for pid in range(n):
            outbox = overrides.get(pid)
            if outbox is not None:
                override_list.append(outbox)
                sent_memory[pid] = BOTTOM
                next_overrides[pid] = outbox
                if recording:
                    # The omniscient adversary forges a passing claim
                    # (or abstains) per recipient; only the scalar lies
                    # are observable wire content worth recording.  The
                    # plan's outbox is an immutable round snapshot, so
                    # it is stored verbatim (O(#camps), not O(n)).
                    sent[pid] = outbox
                continue
            if pid in forced_silent or pid in cured:
                # Omission (static benign fault) or aware-cured silence
                # (M1): nothing on the wire, nothing to vouch for next
                # round.
                sent_memory[pid] = BOTTOM
                if recording:
                    sent[pid] = None
                continue
            value = values[pid]
            claimed = sent_memory[pid]
            if recording:
                # Every broadcaster is on the wire -- rejection happens
                # at the receivers -- so the sent matrix records them
                # all; the pair payload keeps the claim component.
                sent[pid] = BroadcastOutbox(n, value)
                payloads[pid] = (value, None if claimed is BOTTOM else claimed)
            if claimed is BOTTOM:
                # An abstaining claim asserts nothing checkable (fresh
                # start, silence last round, adversary-run send phase).
                base_values.append(value)
            elif pid in prev_broadcast:
                if claimed == prev_broadcast[pid]:
                    base_values.append(value)
                else:
                    # Provably inconsistent -- the scrambled-memory
                    # signature of an unaware cured node; every
                    # recipient substitutes its own estimate.
                    base_rejected += 1
            elif pid in prev_overrides:
                varying.append((value, claimed, prev_overrides[pid]))
            else:
                # A float claim about a round nobody heard it in --
                # provably inconsistent for every recipient.
                base_rejected += 1
            sent_memory[pid] = value
            next_broadcast[pid] = value

        base_values.sort()

        # -- receive + compute phase ---------------------------------------
        applications: dict[int, object] | None = {} if recording else None
        max_diameter = self._compute_phase(
            base_values,
            base_rejected,
            varying,
            override_list,
            plan.compute_corruptions,
            need_diameter,
            applications,
        )

        for pid, garbage in plan.compute_corruptions.items():
            values[pid] = garbage

        if recording:
            self.wire_record = {
                "sent": sent,
                "payloads": payloads,
                "applications": applications,
            }
        self._prev_broadcast = next_broadcast
        self._prev_overrides = next_overrides
        return max_diameter

    # -- the distinct-inbox receive loop ---------------------------------------

    def _compute_phase(
        self,
        base_values: list[float],
        base_rejected: int,
        varying: list[tuple[float, object, Mapping[int, float]]],
        override_list: list[Mapping[int, float]],
        compute_corruptions: Mapping[int, float],
        need_diameter: bool,
        applications: dict[int, object] | None = None,
    ) -> float:
        """Evaluate the MSR fold once per distinct effective inbox.

        A recipient's inbox is ``base_values`` plus (a) the values of
        ``varying`` senders whose claim matches what *this* recipient
        received from them last round and (b) this recipient's entries
        of the override outboxes; its fold uses the trim variant for
        its rejection count (or own-value substitutions for budget-less
        reductions).  The deltas are O(f) per recipient, so the
        grouping key is small and the number of distinct inboxes is
        bounded by the attack's value structure, not by ``n``.

        When ``applications`` is a dict (the full-trace recorder), one
        object-path :class:`~repro.msr.base.MSRApplication` is built
        per distinct inbox and shared by every recipient in the group;
        its stages document the post-filter multiset actually folded.
        """
        grouped = not self._kernel.reference
        adaptive = self._adaptive
        values = self._values
        buffer = self._buffer
        max_diameter = 0.0
        cache: dict[tuple, tuple] | None = {} if grouped else None

        for pid in range(self.n):
            if pid in compute_corruptions:
                continue
            rejected = base_rejected
            key_parts: list[object] = []
            extras: list[float] = []
            for value, claimed, outbox in varying:
                accepted = claimed == outbox.get(pid)
                key_parts.append(accepted)
                if accepted:
                    extras.append(value)
                else:
                    rejected += 1
            for outbox in override_list:
                entry = outbox.get(pid)
                key_parts.append(entry)
                if entry is not None:
                    extras.append(float(entry))
            if rejected and not adaptive:
                # Omission rule for budget-less reductions: one
                # own-estimate entry per rejected sender keeps multiset
                # sizes identical to the unfiltered fold.  The key
                # gains the own value, degrading towards per-recipient
                # evaluation exactly when the filter is active.
                own = values[pid]
                key_parts.append(own)
                extras.extend([own] * rejected)
            if cache is not None:
                # The per-recipient rejection count is a function of
                # the acceptance bits already in the key, so variants
                # never collide under one key.
                key = tuple(key_parts)
                hit = cache.get(key)
                if hit is not None:
                    values[pid] = hit[0]
                    if need_diameter and hit[1] > max_diameter:
                        max_diameter = hit[1]
                    if applications is not None:
                        applications[pid] = hit[2]
                    continue
            if extras:
                buffer[:] = base_values
                for value in extras:
                    insort(buffer, value)
                inbox: Sequence[float] = buffer
            else:
                inbox = base_values
            if not inbox:
                raise ValueError(
                    "tseng: process "
                    f"p{pid} accepted an empty multiset -- the run is below "
                    "the family's resilience requirement (every correct "
                    "process must keep hearing a consistent quorum)"
                )
            function, evaluate = (
                self._variant(rejected) if adaptive and rejected else
                self._variants[0]
            )
            if evaluate is not None:
                result = evaluate(inbox)
            else:
                result = function.apply_value(
                    ValueMultiset.from_trusted_floats(inbox)
                )
            diameter = inbox[-1] - inbox[0]
            application = None
            if applications is not None:
                # One full application per distinct inbox, shared by
                # the whole group (the stages are immutable snapshots).
                application = function.apply(
                    ValueMultiset.from_trusted_floats(list(inbox))
                )
                applications[pid] = application
            if cache is not None:
                cache[key] = (result, diameter, application)
            values[pid] = result
            if need_diameter and diameter > max_diameter:
                max_diameter = diameter
        return max_diameter

    def __repr__(self) -> str:
        return f"TsengProtocol(n={self.n}, {self.function.name})"


class TsengFamily(ProtocolFamily):
    """Registry entry for Tseng's improved algorithm.

    Reuses the run's configured MSR function (same trim parameter as
    the Bonomi family under the same model, Table 1) and inherits the
    model's Table 2 resilience bound: the consistency filter only ever
    *removes* adversarial values from the fold (relaxing the trim in
    step), so the Bonomi validity argument carries over verbatim while
    the multisets the reduction sees are strictly cleaner.  The family
    tests pin non-empty post-reduction multisets at every model's
    minimum ``n``.

    Under M1, M3 and M4 on the complete graph no receiver ever rejects
    (see the module docstring), so the family declares those runs
    equivalent to bonomi's.  M2 is excluded: its unaware cured nodes
    claim scrambled history and do get rejected.
    """

    name = "tseng"
    stateful = True

    def build_protocol(self, config: "SimulationConfig") -> TsengProtocol:
        return TsengProtocol(config.n, config.algorithm)

    def lite_equivalent(self, model, topology) -> str | None:
        return bonomi_on_complete(model, topology, _NO_REJECTION_MODELS)

    def predicted_contraction(self, config: "SimulationConfig") -> float | None:
        # Filtering shrinks the adversarial mass inside each multiset
        # but the worst case (no cured garbage to mask) degenerates to
        # the Bonomi bound, so the same prediction applies.
        from ..core.convergence import mobile_contraction
        from .config import MobileFaultSetup

        if not isinstance(config.setup, MobileFaultSetup):
            return None
        return mobile_contraction(
            config.algorithm, config.setup.model, config.n, config.f
        ).factor

    def describe(self) -> str:
        return "tseng (consistency-filtered MSR, arXiv:1707.07659)"


register_family(TsengFamily())
