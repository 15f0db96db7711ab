"""The witness-based partial-connectivity family (arXiv:1206.0089).

Implements an approximate-agreement family after Li, Hurfin & Wang,
*Reaching Approximate Byzantine Consensus in Partially-Connected Mobile
Networks*: the first in-tree protocol defined over non-complete
communication graphs (:mod:`repro.topology`).  Where the Bonomi and
Tseng families fold "everybody's broadcast" each round -- which only
exists on the full mesh -- the witness family *relays* values hop by
hop and accepts a relayed value only when enough distinct neighbors
vouch for it.

**Phase structure.**  Rounds are grouped into gossip *phases* of
``L = diameter(topology)`` communication rounds (``L = 1`` on the
complete graph, where the family degenerates to a direct-broadcast MSR
fold).  Within phase ``p``:

* **every round** -- every correct node broadcasts its whole table of
  *verified* claims ``(origin, value)`` to its neighbors (at phase
  start that table is just its own estimate) and re-folds the table
  with the configured MSR function, healing corrupted estimates as the
  scalar families' per-round compute does;
* **phase end** -- the fold is strict (every node must have gathered
  enough verified mass) and its result is the value decisions and
  termination are read from.

Tables are re-sent whole each round rather than as one-shot deltas:
verified claims keep flowing, so a node whose gossip memory a
departing agent scrambled mid-phase re-verifies its neighborhood from
the repeats instead of starving at the fold, and a temporarily
fault-heavy neighborhood only *delays* verification by a round.

**Cost.**  Two bit-identical round bodies exist.  The dict body keeps
each node's table as an ``origin -> value`` dict and tallies relays per
``(origin, value)`` key: O(edges x verified claims) Python work per
round.  It runs for full traces, without numpy, and in the round
kernel's reference mode (``RoundKernel(reference=True)``), where it
also drops its fold memo and folds on the ``ValueMultiset`` object
path -- the reference the equivalence suites compare against.  Lite
runs in the fast mode take the array round instead: tables are an
``(n, n)`` claim matrix with held/excluded masks, first-hand receipts
are one masked copy, the witness count for each distinct relayed value
of an origin is one adjacency-matrix product, and the fold sorts every
row once and combines rows through the batch MSR hooks.  A round goes
back to the dict body when it holds a non-finite or ``-0.0`` claim, or
when a phase-end fold is too thin for the batch hooks (so the canonical
error is raised).

On the complete graph neither body is needed under M1 or M2.  With
``L = 1`` every round starts a phase, so each table holds only its
owner's estimate and no correct node relays anything; a relayed claim
could gather at most the ``f`` faulty relayers, one short of the
``f + 1`` threshold.  The verified set is exactly the first-hand inbox
and no origin is ever excluded, so every fold is the Bonomi fold of
the same multiset: M1 cured nodes withhold (Bonomi's silence) and M2
cured nodes claim their garbage estimate (Bonomi's corrupted
broadcast).  :meth:`WitnessFamily.lite_equivalent` declares those runs
``"bonomi"``, and the cross-run engine stacks them as bonomi rows.
M3 is excluded: an M3 cured node keeps claiming its own scrambled
estimate to itself, where bonomi's cured node folds the agent's planted
queue.  M4 is excluded because its measured outputs diverge from
bonomi's.

**Witness verification.**  A node ``i`` verifies a claim ``(o, x)``
when

* ``o`` is ``i`` itself or a direct neighbor that sent ``x``
  first-hand (the channel is authenticated), or
* at least ``f + 1`` *distinct neighbors relayed the identical claim
  in the same round* -- the witness set.  At most ``f`` processes are
  faulty in any round, so one of the witnesses was correct when it
  relayed, and correct nodes only relay claims they verified: by
  induction every verified claim traces back through correct
  relayers to a first-hand receipt from ``o``.

Synchrony makes the per-round threshold natural: all correct nodes at
hop distance ``d`` from an origin verify its claim by round ``d - 1``
of the phase and relay it from the next round on, so honest witness
sets arrive together (and keep arriving -- tables are re-sent whole).
The rule also neutralizes *forged* relays structurally: a fabricated
claim for a correct-at-phase-start origin can only ever gather the
``<= f`` faulty relayers of a round -- short of the threshold by
construction -- so the adversary's only levers are first-hand lies and
withholding.  Both are exactly what the repo's scalar fault plans
express (per-recipient send overrides and silence), which is why every
existing :class:`~repro.faults.value_strategies.ValueStrategy` applies
to this family unchanged: a faulty sender's message carries its
per-recipient scalar lie as its own claim and relays nothing.

If two different values for one origin reach the threshold at a node
(a first-hand equivocation relayed through disjoint witness sets), the
origin is provably faulty and the node excludes it from the fold
altogether.  Origins that never verify are omissions; the MSR
reduction tolerates the varying multiset sizes exactly as it tolerates
silence on the full mesh.

**Mobile faults.**  A departing agent's corruption travels through the
scalar seam (one value per cured node, exactly as in the Tseng
family): it scrambles the node's *estimate* and therefore its own
claim.  Cured-aware nodes (M1) generalize the paper's Lemma 1 guard to
phases -- knowing the estimate is garbage, they withhold their own
claim until the phase-end fold restores them -- while unaware cured
nodes (M2/M3) believe the garbage and claim it, paying into the same
trim budget as on the full mesh.  Verified *relay* entries survive a
departure: they are authenticated message-log state the neighborhood
re-confirms every round, so corrupting them is dominated by the
withholding the model already covers.  Occupied nodes end every round
with adversary-chosen garbage via the plan's compute corruptions,
exactly like the scalar families.  One caveat is inherited from the
phase structure: under the *unaware* models, each round of a phase can
mint fresh cured-garbage claims, so on graphs whose diameter exceeds
the Table 1 cured allowance the trim may no longer cover out-of-range
garbage -- the split-style in-range adversaries converge regardless,
and M1/M4 are unaffected.

**Resilience.**  The family keeps the model's Table 2 requirement on
``n`` and adds a graph admission rule checked at config validation:
the topology must be connected and every node needs degree at least
``2f + 1`` (``f`` neighbors may be faulty and withhold, and ``f + 1``
distinct honest-capable witnesses must remain reachable).  Heavier
partitioning degrades to omissions and, in the extreme, to the MSR
fold's canonical below-bound error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from ..faults.models import MobileModel
from ..faults.value_strategies import CampOutbox
from ..msr.base import MSRFunction
from ..msr.multiset import ValueMultiset
from .families import ProtocolFamily, bonomi_on_complete, register_family
from .kernel import RoundKernel, compile_msr
from .protocol import StatefulRoundProtocol
from .trace import BroadcastOutbox

try:  # numpy is optional: without it every round takes the dict body.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology import Topology
    from .config import SimulationConfig
    from .controllers import RoundPlan

__all__ = ["WitnessFamily", "WitnessProtocol"]

#: Models whose cured nodes send what bonomi's do (M1 silence, M2 their
#: state): on the complete graph the witness fold is bonomi's.
_FIRST_HAND_MODELS = frozenset({MobileModel.GARAY, MobileModel.BONNET})


def _diagonal(matrix):
    """A writable view of a contiguous square matrix's diagonal."""
    return matrix.ravel()[:: matrix.shape[0] + 1]


def _rows_of(row, n: int):
    """An ``(n, len(row))`` matrix whose every row is ``row``."""
    matrix = _np.empty((n, len(row)), dtype=row.dtype)
    matrix[:] = row
    return matrix


class WitnessProtocol(StatefulRoundProtocol):
    """Per-run instance of the witness relay protocol."""

    family_name = "witness"
    #: Messages are variable-length claim tables, not scalars.
    message_arity = 2

    def __init__(
        self, n: int, f: int, function: MSRFunction, topology: "Topology"
    ) -> None:
        self.n = n
        self.f = f
        self.function = function
        self.topology = topology
        diameter = topology.diameter()
        if diameter != diameter or diameter == float("inf"):  # NaN/inf guard
            raise ValueError(
                f"witness: topology {topology.spec!r} is disconnected; "
                "relays cannot reach every node"
            )
        #: Communication rounds per gossip phase: far enough for every
        #: claim to cross the graph (1 on the complete graph).
        self.phase_length = max(1, int(diameter))
        # The topology is immutable for the protocol's lifetime: sort
        # each neighborhood once instead of per node per round (the
        # receive loop iterates senders in deterministic order).
        self._sorted_neighbors: list[list[int]] = [
            sorted(hood) for hood in topology.neighbor_sets
        ]
        self._values: dict[int, float] = {}
        # Per-node phase state: verified claims (origin -> value, None
        # marking a provably-faulty origin excluded from the fold).
        self._verified: list[dict[int, float | None]] = []
        self._kernel: RoundKernel | None = None
        self._evaluate = None
        self._grouped = True
        # Array-round state (fast kernel mode, lite runs): claims[q, o]
        # is q's verified value for origin o where held[q, o];
        # excluded[q, o] marks the dict body's ``None`` entries (None
        # while nothing is excluded), and stamps[q, o] orders a row's
        # entries as the dict body inserts them -- needed only to
        # rebuild the dicts for a routed mid-phase round, so None on
        # one-round phases.
        self._batch = None
        self._adjacency = None
        self._claims = None
        self._held = None
        self._excluded = None
        self._stamps = None
        self._serial = 0
        self._pick_counts = None
        self._pick_table = None

    # -- StatefulRoundProtocol interface ---------------------------------------

    def reset(self, kernel: RoundKernel) -> None:
        self._kernel = kernel
        self._evaluate = None if kernel.reference else compile_msr(self.function)
        # The fold memo (identical accepted multisets share one MSR
        # evaluation) is off in the reference mode, like the scalar
        # kernel's distinct-inbox grouping.
        self._grouped = not kernel.reference
        self._verified = [{} for _ in range(self.n)]
        # Full traces record the dict body's wire activity, so only
        # lite runs take the array round.
        self._batch = (
            kernel.batch_for(self.function)
            if _np is not None and not self.recording
            else None
        )
        if self._batch is not None:
            np = _np
            n = self.n
            self._adjacency = self.topology.adjacency_matrix()
            self._adjacency_f = self._adjacency.astype(np.float64)
            self._columns = np.arange(n, dtype=np.int64)
            self._rows = np.arange(n, dtype=np.intp)
            self._everyone = np.ones(n, dtype=bool)
            # -2: not resolved yet (see _resolve_picks).
            self._pick_counts = np.full(n + 1, -2, dtype=np.intp)
            self._pick_table = np.zeros((n + 1, n), dtype=np.intp)
            self._arrays_from_tables()

    def start(self, initial_values: Sequence[float]) -> None:
        self._values = {
            pid: float(value) for pid, value in enumerate(initial_values)
        }

    @property
    def values(self) -> dict[int, float]:
        return self._values

    def decision_ready(self, round_index: int) -> bool:
        """Decisions exist only at phase boundaries (fold rounds)."""
        return (round_index + 1) % self.phase_length == 0

    # -- one synchronous round -------------------------------------------------

    def run_round(
        self, plan: "RoundPlan", cured_aware: bool, need_diameter: bool
    ) -> float:
        if self._batch is None or self.recording:
            return self._run_round_scalar(plan, cured_aware, need_diameter)
        return self._run_round_arrays(plan, cured_aware, need_diameter)

    def _run_round_scalar(
        self, plan: "RoundPlan", cured_aware: bool, need_diameter: bool
    ) -> float:
        """The reference round on per-node claim dicts (also the
        full-trace recording path)."""
        n, f = self.n, self.f
        values = self._values
        verified = self._verified
        offset = plan.round_index % self.phase_length

        if offset == 0:
            # Phase start: wipe the gossip tables; every node's own
            # estimate seeds its table.
            for pid in range(n):
                verified[pid] = {pid: values[pid]}

        # Departing agents corrupt the node's estimate -- and with it
        # the node's own claim (the scalar corruption seam, exactly as
        # in the Tseng family).  Cured-*aware* nodes (M1) apply the
        # paper's Lemma 1 guard in phase form: knowing the estimate is
        # garbage, they withhold their own claim until the phase-end
        # fold restores them (neighbors keep the pre-corruption claim,
        # first verification wins).  Unaware cured nodes (M2/M3)
        # believe the garbage and claim it, which the MSR trim must
        # absorb exactly as on the full mesh.  Verified *relay* entries
        # survive the departure: they are re-verified against the
        # neighborhood's repeats every round, so corrupting them is
        # dominated by the withholding already in the model.
        for pid, corrupted in plan.memory_corruptions.items():
            values[pid] = corrupted
            if cured_aware:
                verified[pid].pop(pid, None)
            else:
                verified[pid][pid] = corrupted

        # -- send phase ------------------------------------------------------
        # outgoing[pid] is what pid puts on the wire this round:
        #   ("lie", outbox)   -- adversary-run send: per-recipient own-
        #                        claim lies, no relays (forged relays
        #                        can never reach the witness threshold,
        #                        so abstaining loses the adversary
        #                        nothing -- see the module docstring);
        #   ("claims", dict)  -- a correct node's whole verified table,
        #                        snapshotted at round start (synchrony:
        #                        receivers must see pre-round state);
        #   None              -- silence (benign faults, aware-cured
        #                        nodes under M1).
        overrides = plan.send_overrides
        forced_silent = plan.forced_silent
        cured = plan.cured_at_send if cured_aware else frozenset()
        recording = self.recording
        # Full-trace wire record: the representative scalar per sender
        # is its *own* claim (what the P1/P2 checkers and the
        # send-behavior classifier consume); relayed-claim tables ride
        # as payloads.  A correct node gossiping relays while
        # withholding its own claim (aware-cured mid-phase) records as
        # ``None`` -- excluded from the honest reference set, which
        # only ever weakens the checked property, never fakes it.
        sent_rec: dict[int, Mapping[int, float] | None] | None = (
            {} if recording else None
        )
        payloads: dict[int, object] | None = {} if recording else None
        complete = self.topology.is_complete
        outgoing: list[tuple[str, Mapping] | None] = []
        for pid in range(n):
            outbox = overrides.get(pid)
            if outbox is not None:
                outgoing.append(("lie", outbox))
                if recording:
                    sent_rec[pid] = outbox
                continue
            if pid in forced_silent or pid in cured:
                outgoing.append(None)
                if recording:
                    sent_rec[pid] = None
                continue
            table = verified[pid]
            snap = {
                origin: value
                for origin, value in table.items()
                if value is not None
            }
            outgoing.append(("claims", snap))
            if recording:
                payloads[pid] = snap
                own = snap.get(pid)
                if own is None:
                    sent_rec[pid] = None
                elif complete:
                    sent_rec[pid] = BroadcastOutbox(n, own)
                else:
                    sent_rec[pid] = {
                        q: own for q in self._sorted_neighbors[pid]
                    }

        # -- receive phase ---------------------------------------------------
        sorted_neighbors = self._sorted_neighbors
        threshold = f + 1
        for q in range(n):
            table = verified[q]
            tally: dict[tuple[int, float], int] = {}
            for s in sorted_neighbors[q]:
                message = outgoing[s]
                if message is None:
                    continue
                kind, payload = message
                if kind == "lie":
                    # A faulty sender's first-hand claim towards q: the
                    # channel is authenticated, so it verifies like any
                    # direct value (the lie lands in the fold and the
                    # MSR trim must absorb it, as on the full mesh).
                    value = payload.get(q)
                    if value is not None and s not in table:
                        table[s] = float(value)
                    continue
                for origin, value in payload.items():
                    if origin == s:
                        # First-hand: direct claims verify immediately.
                        if s not in table:
                            table[s] = value
                    elif origin != q and origin not in table:
                        tally[(origin, value)] = tally.get((origin, value), 0) + 1
            if tally:
                qualified: dict[int, list[float]] = {}
                for (origin, value), count in tally.items():
                    if count >= threshold:
                        qualified.setdefault(origin, []).append(value)
                for origin in sorted(qualified):
                    if origin in table:
                        continue
                    witnessed = qualified[origin]
                    if len(witnessed) == 1:
                        table[origin] = witnessed[0]
                    else:
                        # Two verified values for one origin: a proven
                        # first-hand equivocation.  Exclude the origin
                        # from the fold, permanently for this phase.
                        table[origin] = None

        # -- compute phase (phase boundary only) -----------------------------
        compute_corruptions = plan.compute_corruptions
        max_diameter = 0.0
        if need_diameter:
            # Round 0's received-value spread over the computing nodes,
            # mirroring the scalar drivers' first-round diameter
            # bookkeeping (occupied nodes' tables do not count).
            for q in range(n):
                if q in compute_corruptions:
                    continue
                heard = [v for v in verified[q].values() if v is not None]
                if heard:
                    spread = max(heard) - min(heard)
                    if spread > max_diameter:
                        max_diameter = spread

        # Every round, every node re-folds its verified table: exactly
        # the scalar families' compute-every-round structure, so a
        # cured node's garbage estimate heals within its cure round
        # (Lemma 5 in phase form) instead of lingering until the phase
        # boundary.  Mid-phase tables can be too thin for the trim
        # (claims still in flight); those folds are skipped and the
        # estimate carries over -- but the *phase-end* fold, where
        # decisions are read, is strict.  Claims are unaffected either
        # way: a node gossips its phase-start value, not its estimate.
        strict = offset == self.phase_length - 1
        evaluate = self._evaluate
        cache: dict[tuple, float] | None = {} if self._grouped else None
        # The P1/P2 checkers read per-round aggregation snapshots; for
        # this family those exist only where decisions do -- at the
        # strict phase-boundary fold.  Mid-phase rounds record empty
        # mappings (claims still in flight, nothing is decided), which
        # the checkers treat as trivially satisfied.
        record_fold = recording and strict
        received_rec: dict[int, ValueMultiset] | None = {} if recording else None
        heard_rec: dict[int, frozenset[int]] | None = {} if recording else None
        applications_rec: dict[int, object] | None = {} if recording else None
        app_cache: dict[tuple, object] = {}
        for q in range(n):
            if q in compute_corruptions:
                continue
            accepted = sorted(
                value for value in verified[q].values() if value is not None
            )
            if not accepted:
                if strict:
                    raise ValueError(
                        f"witness: process p{q} verified no values this "
                        "phase -- the run is below the family's "
                        "connectivity/resilience requirement"
                    )
                continue
            key = tuple(accepted)
            result = cache.get(key) if cache is not None else None
            if result is None:
                try:
                    if evaluate is not None:
                        result = evaluate(accepted)
                    else:
                        result = self.function.apply_value(
                            ValueMultiset.from_trusted_floats(accepted)
                        )
                except ValueError:
                    if strict:
                        raise ValueError(
                            f"witness: process p{q} verified only "
                            f"{len(accepted)} values at the phase boundary "
                            "-- the run is below the family's connectivity/"
                            "resilience requirement (the MSR fold needs "
                            "more mass than the neighborhood delivered)"
                        ) from None
                    result = float("nan")  # marks a skipped thin fold
                if cache is not None:
                    cache[key] = result
            if result != result:
                continue
            if record_fold:
                multiset = ValueMultiset.from_trusted_floats(accepted)
                received_rec[q] = multiset
                heard_rec[q] = frozenset(
                    origin
                    for origin, value in verified[q].items()
                    if value is not None
                )
                application = app_cache.get(key)
                if application is None:
                    # One full application per distinct fold, shared by
                    # every node that verified the same multiset.
                    application = self.function.apply(multiset)
                    app_cache[key] = application
                applications_rec[q] = application
            values[q] = result
            if q not in verified[q]:
                # An aware-cured node whose fold just restored it
                # re-claims its own entry: the recovered value is a
                # trim-fold of verified mass (in range by Validity), so
                # rejoining the gossip repairs the neighborhoods its
                # withheld claim was thinning out.
                verified[q][q] = result
        for pid, garbage in compute_corruptions.items():
            values[pid] = garbage
        if recording:
            self.wire_record = {
                "sent": sent_rec,
                "payloads": payloads,
                "received": received_rec,
                "heard": heard_rec,
                "applications": applications_rec,
            }
        return max_diameter

    # -- the array round (fast kernel mode, lite runs) ---------------------------

    def _run_round_arrays(
        self, plan: "RoundPlan", cured_aware: bool, need_diameter: bool
    ) -> float:
        """One round of the dict body as whole-matrix operations.

        Bit-identical to :meth:`_run_round_scalar`; rounds whose result
        would hinge on what the arrays do not model rebuild the dicts
        and run the dict body instead: non-finite claims, ``-0.0``
        claims (the dict body's float-keyed tallies and stable sorts
        keep whichever signed zero they met first, and its ``fsum``
        folds turn ``-0.0`` means into ``0.0``), or a strict fold the
        batch hooks cannot evaluate.  No state is committed until the
        round is known to stay on the arrays.
        """
        np = _np
        n = self.n
        values = self._values
        offset = plan.round_index % self.phase_length
        # Insertion stamps only matter for rebuilding a mid-phase
        # round's dicts, so one-round phases (the complete graph) skip
        # them.
        track = self.phase_length > 1
        base = self._serial * (2 * n + 2)
        memory = plan.memory_corruptions
        overrides = plan.send_overrides

        # Senders that gossip their tables: not adversary-run, not
        # silent, not aware-cured.
        relay = self._everyone.copy()
        muted = list(plan.forced_silent)
        if cured_aware:
            muted.extend(plan.cured_at_send)
        if muted:
            relay[muted] = False
        if overrides:
            relay[list(overrides)] = False

        if offset == 0:
            claims, held, stamps = self._phase_start(
                memory, cured_aware, relay, overrides, base, track
            )
            excluded = None
        else:
            claims, held, excluded, stamps = self._receive(
                memory, cured_aware, relay, overrides, base, track
            )
        if np.count_nonzero(np.isfinite(claims)) != n * n:
            return self._route_scalar(plan, cured_aware, need_diameter)
        zeros = (claims == 0.0) & held
        if np.count_nonzero(zeros) and np.signbit(claims[zeros]).any():
            return self._route_scalar(plan, cured_aware, need_diameter)

        compute_corruptions = plan.compute_corruptions
        if compute_corruptions:
            rows = np.array(
                [q for q in range(n) if q not in compute_corruptions],
                dtype=np.intp,
            )
        else:
            rows = self._rows

        max_diameter = 0.0
        if need_diameter and rows.shape[0]:
            # Computing nodes only, as in the dict body.
            low = np.where(held[rows], claims[rows], np.inf).min(axis=1)
            high = np.where(held[rows], claims[rows], -np.inf).max(axis=1)
            spread = float((high - low).max())
            if spread > 0.0:
                max_diameter = spread

        # The fold: rows sort once, padded with +inf past their width.
        # The reduction bounds and the picked positions depend on the
        # width alone (see _resolve_picks), so rows picking the same
        # number of values are gathered and combined in one pass.
        strict = offset == self.phase_length - 1
        widths = held.sum(axis=1)[rows]
        counts = self._pick_counts[widths]
        kinds = set(counts.tolist())
        if -2 in kinds:
            self._resolve_picks(widths[counts == -2].tolist())
            counts = self._pick_counts[widths]
            kinds = set(counts.tolist())
        if strict and -1 in kinds:
            return self._route_scalar(plan, cured_aware, need_diameter)
        padded = np.where(held, claims, np.inf)
        padded.sort(axis=1, kind="stable")
        folded_pids: list[int] = []
        folded: list[float] = []
        for count in kinds:
            if len(kinds) == 1:
                group, group_widths = rows, widths
            else:
                chosen = counts == count
                group, group_widths = rows[chosen], widths[chosen]
            if count < 0:
                self._fold_thin(padded, group, group_widths, folded_pids, folded)
                continue
            selected = padded[
                group[:, None], self._pick_table[group_widths, :count]
            ]
            folded_pids.extend(group.tolist())
            combined = self._batch.combine(selected)
            folded.extend(np.asarray(combined, dtype=np.float64).tolist())

        # Commit.
        for pid, corrupted in memory.items():
            values[pid] = corrupted
        for q, result in zip(folded_pids, folded):
            if result == result:
                values[q] = result
        # An aware-cured node restored by its fold re-claims its own
        # entry (see the dict body).
        unclaimed = ~held.diagonal()
        if excluded is not None:
            unclaimed &= ~excluded.diagonal()
        if np.count_nonzero(unclaimed):
            restored = [
                (q, result)
                for q, result in zip(folded_pids, folded)
                if unclaimed[q] and result == result
            ]
            for q, result in restored:
                claims[q, q] = result
                held[q, q] = True
                if track:
                    stamps[q, q] = base + 2 * n + 1
        for pid, garbage in compute_corruptions.items():
            values[pid] = garbage
        self._claims = claims
        self._held = held
        self._excluded = excluded
        self._stamps = stamps
        self._serial += 1
        return max_diameter

    def _phase_start(self, memory, cured_aware, relay, overrides, base, track):
        """Phase-start tables plus this round's first-hand receipts.

        Every table restarts from its node's own claim, so row ``q`` is
        the vector of own claims, masked to what ``q`` hears first-hand
        (adversary-run senders' columns carry their lies instead).
        Nothing is relayed yet: relays carry only verified claims of
        origins other than the sender.
        """
        np = _np
        n = self.n
        own = np.fromiter(self._values.values(), float, n)
        claiming = self._everyone.copy()
        for pid, corrupted in memory.items():
            if cured_aware:
                claiming[pid] = False
            else:
                own[pid] = corrupted
        claims = _rows_of(own, n)
        offered = relay & claiming
        if overrides:
            offered = _rows_of(offered, n)
            self._write_lies(overrides, claims, offered)
            _diagonal(claims)[:] = own
        held = self._adjacency & offered
        _diagonal(held)[:] = claiming
        stamps = None
        if track:
            stamps = np.where(held, self._columns + (base + 1), 0)
            _diagonal(stamps)[:] = 0
        return claims, held, stamps

    def _receive(self, memory, cured_aware, relay, overrides, base, track):
        """Mid-phase first-hand receipts and witness counts."""
        np = _np
        n = self.n
        claims = self._claims.copy()
        held = self._held.copy()
        excluded = self._excluded
        stamps = self._stamps.copy() if track else None
        for pid, corrupted in memory.items():
            if cured_aware:
                held[pid, pid] = False
            else:
                known = held[pid, pid] or (
                    excluded is not None and excluded[pid, pid]
                )
                if track and not known:
                    stamps[pid, pid] = base
                claims[pid, pid] = corrupted
                held[pid, pid] = True

        # First-hand receipts fill only unverified slots: slot (q, s)
        # takes s's own claim, or s's lie towards q.
        open_slots = ~held if excluded is None else ~(held | excluded)
        offers = claims.diagonal()
        offered = relay & held.diagonal()
        if overrides:
            offers = _rows_of(offers, n)
            offered = _rows_of(offered, n)
            self._write_lies(overrides, offers, offered)
        first = self._adjacency & offered & open_slots
        relayed = held & relay[:, None]
        _diagonal(relayed)[:] = False
        claims = np.where(first, offers, claims)
        held = held | first
        if track:
            stamps = np.where(first, self._columns + (base + 1), stamps)

        if np.count_nonzero(relayed):
            open_slots &= ~first
            _diagonal(open_slots)[:] = False
            claims, held, excluded, stamps = self._witness(
                claims, held, excluded, stamps, relayed, open_slots, base
            )
        return claims, held, excluded, stamps

    def _witness(self, claims, held, excluded, stamps, relayed, open_slots, base):
        """Verify ``open_slots`` from ``relayed`` (sender, origin) claims.

        Each origin column's distinct relayed values are coded one at a
        time (the lowest relaying sender's value first); one adjacency
        product per code counts, per recipient, the neighbors that
        relayed it.  A slot verifies when exactly one code reaches
        ``f + 1`` witnesses and is excluded when two do.  ``claims`` is
        this round's own array: witnessed values land in open slots,
        which no relayed claim occupies.
        """
        np = _np
        columns = self._columns
        threshold = self.f + 1
        qualified = np.zeros(claims.shape, dtype=np.int64)
        pending = relayed
        while np.count_nonzero(pending):
            reference = claims[pending.argmax(axis=0), columns]
            code = pending & (claims == reference)
            pending ^= code
            hit = (self._adjacency_f @ code >= threshold) & open_slots
            np.copyto(claims, reference, where=hit)
            qualified += hit
        won = qualified == 1
        lost = qualified > 1
        settled = won | lost
        if np.count_nonzero(settled):
            held = held | won
            if np.count_nonzero(lost):
                excluded = lost if excluded is None else excluded | lost
            if stamps is not None:
                stamps = np.where(
                    settled, columns + (base + 1 + self.n), stamps
                )
        return claims, held, excluded, stamps

    def _write_lies(self, overrides, offers, offered) -> None:
        """Write each adversary-run sender's outbox into its column of
        ``offers``/``offered``.

        Camp outboxes sharing one assignment (every sender of a round,
        under the camp strategies) are read together: one table of
        camp values, indexed by the assignment's codes.  Any other
        outbox is read recipient by recipient.
        """
        np = _np
        n = self.n
        camp_groups: dict[int, tuple] = {}
        singles = []
        for sender, outbox in overrides.items():
            if type(outbox) is CampOutbox and len(outbox.assignment) == n:
                group = camp_groups.get(id(outbox.assignment))
                if group is None:
                    group = camp_groups[id(outbox.assignment)] = (
                        outbox.assignment, [], []
                    )
                group[1].append(sender)
                group[2].append(outbox)
            else:
                singles.append((sender, outbox))
        for assignment, senders, outboxes in camp_groups.values():
            codes = getattr(assignment, "array", None)
            if codes is None:
                codes = np.asarray(assignment, dtype=np.intp)
            try:
                # Ragged camp lists, or codes outside them, take the
                # per-recipient read (which mirrors CampOutbox.get).
                table = np.array(
                    [outbox.camp_values for outbox in outboxes],
                    dtype=np.float64,
                )
                lies = table.take(codes, axis=1)
            except (ValueError, IndexError):
                singles.extend(zip(senders, outboxes))
                continue
            columns = np.array(senders, dtype=np.intp)
            offers[:, columns] = lies.T
            offered[:, columns] = True
        for sender, outbox in singles:
            for q in range(n):
                value = outbox.get(q)
                offered[q, sender] = value is not None
                if value is not None:
                    offers[q, sender] = float(value)

    def _resolve_picks(self, widths) -> None:
        """Tabulate the sorted-row positions the batch fold picks at
        each of ``widths``: ``_pick_counts[w]`` positions, listed in
        ``_pick_table[w]``, or a count of -1 where the batch bounds
        have no answer (too thin).  Selections pick by position alone
        (the batch hook contract), so selecting from a row of positions
        names them.
        """
        for width in set(widths):
            bounds = self._batch.bounds(width) if width else None
            if bounds is None or bounds[1] <= bounds[0]:
                self._pick_counts[width] = -1
                continue
            positions = _np.arange(width, dtype=_np.intp).reshape(1, width)
            picked = self._batch.select(positions, *bounds)[0]
            self._pick_counts[width] = len(picked)
            self._pick_table[width, : len(picked)] = picked

    def _fold_thin(self, padded, rows, widths, pids, results) -> None:
        """Mid-phase folds of rows too thin for the batch bounds: the
        flat evaluator per row; rows it rejects, and empty rows, keep
        their estimate."""
        evaluate = self._evaluate
        for q, width in zip(rows.tolist(), widths.tolist()):
            if not width:
                continue
            accepted = padded[q, :width].tolist()
            try:
                if evaluate is not None:
                    result = evaluate(accepted)
                else:
                    result = self.function.apply_value(
                        ValueMultiset.from_trusted_floats(accepted)
                    )
            except ValueError:
                continue
            pids.append(q)
            results.append(result)

    def _route_scalar(
        self, plan: "RoundPlan", cured_aware: bool, need_diameter: bool
    ) -> float:
        """Run this round on the dict body from the committed arrays."""
        self._tables_from_arrays()
        result = self._run_round_scalar(plan, cured_aware, need_diameter)
        self._arrays_from_tables()
        return result

    def _tables_from_arrays(self) -> None:
        """Rebuild the per-node claim dicts, in insertion order."""
        np = _np
        claims = self._claims.tolist()
        stamps = self._stamps
        tables = []
        known = self._held
        if self._excluded is not None:
            known = known | self._excluded
        for q in range(self.n):
            order = np.flatnonzero(known[q])
            if stamps is not None:
                order = order[np.argsort(stamps[q, order], kind="stable")]
            held = self._held[q]
            tables.append(
                {
                    origin: claims[q][origin] if held[origin] else None
                    for origin in order.tolist()
                }
            )
        self._verified = tables

    def _arrays_from_tables(self) -> None:
        """Load the array state from the per-node claim dicts."""
        np = _np
        n = self.n
        claims = np.zeros((n, n))
        held = np.zeros((n, n), dtype=bool)
        excluded = np.zeros((n, n), dtype=bool)
        stamps = np.zeros((n, n), dtype=np.int64)
        base = self._serial * (2 * n + 2)
        for q, table in enumerate(self._verified):
            for position, (origin, value) in enumerate(table.items()):
                stamps[q, origin] = base + position
                if value is None:
                    excluded[q, origin] = True
                else:
                    claims[q, origin] = value
                    held[q, origin] = True
        self._claims = claims
        self._held = held
        self._excluded = excluded if excluded.any() else None
        self._stamps = stamps
        self._serial += 1

    def __repr__(self) -> str:
        return (
            f"WitnessProtocol(n={self.n}, f={self.f}, "
            f"{self.function.name}, {self.topology.spec})"
        )


class WitnessFamily(ProtocolFamily):
    """Registry entry for the partial-connectivity relay protocol.

    Reuses the run's configured MSR function (the model's Table 1 trim
    parameter) and the model's Table 2 requirement on ``n``; its
    topology admission rule is what sets it apart from the
    complete-graph families.

    On the complete graph under M1 or M2 every phase is one round and
    the verified set is the first-hand inbox (see the module's "Cost"
    paragraph), so the family declares those runs equivalent to
    bonomi's.  M3 and M4 are excluded: an M3 cured node folds its own
    scrambled estimate rather than the planted queue, and M4 was
    measured divergent.
    """

    name = "witness"
    requires_complete = False
    stateful = True

    def build_protocol(self, config: "SimulationConfig") -> WitnessProtocol:
        return WitnessProtocol(
            config.n, config.f, config.algorithm, config.resolve_topology()
        )

    def lite_equivalent(self, model, topology) -> str | None:
        return bonomi_on_complete(model, topology, _FIRST_HAND_MODELS)

    def check_topology(self, topology, config: "SimulationConfig") -> None:
        if not topology.is_connected():
            raise ValueError(
                f"the witness family needs a connected communication "
                f"graph; topology {topology.spec!r} at n={topology.n} is "
                "disconnected (values cannot relay across components)"
            )
        required = 2 * config.f + 1
        if config.f > 0 and topology.min_degree() < required:
            raise ValueError(
                f"the witness family needs minimum degree >= 2f+1 = "
                f"{required} at f={config.f} (f neighbors may withhold "
                f"and f+1 distinct witnesses must remain); topology "
                f"{topology.spec!r} has minimum degree "
                f"{topology.min_degree()} -- use a denser graph "
                "(e.g. a wider ring lattice or higher-degree "
                "random-regular graph)"
            )

    def describe(self) -> str:
        return "witness (partial-connectivity relay, arXiv:1206.0089)"


register_family(WitnessFamily())
