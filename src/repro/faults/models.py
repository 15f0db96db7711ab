"""The four synchronous Mobile Byzantine Fault models (paper Section 3).

Each model fixes (i) *when* agents move relative to the round structure,
(ii) whether a cured process is *aware* of its state, and (iii) what a
cured process consequently does during the send phase:

* **M1 -- Garay [24]**: agents move at the beginning of each round;
  cured processes know they are cured and stay *silent* for one round
  (a detected omission -> benign fault in the mixed-mode image).
* **M2 -- Bonnet et al. [22]**: agents move at the beginning of each
  round; cured processes do not know their state and broadcast their
  (possibly corrupted) value -- the same value to everybody (symmetric).
* **M3 -- Sasaki et al. [25]**: like M2, but the departing agent also
  prepares the outgoing message queue, so a cured process sends possibly
  *different* values to different processes for one extra round
  (asymmetric).
* **M4 -- Buhrman et al. [23]**: agents move *with the messages*; cured
  processes are aware, and no cured process ever executes a send phase
  (the Byzantine send of the old host *is* the movement).

The replica requirements (paper Table 2) follow from the mixed-mode
images via ``n > 3a + 2s + b``: M1 ``n > 4f``, M2 ``n > 5f``,
M3 ``n > 6f``, M4 ``n > 3f``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .mixed_mode import FaultClass, MixedModeCounts

__all__ = [
    "MobileModel",
    "CuredSendBehavior",
    "ModelSemantics",
    "get_semantics",
    "ALL_MODELS",
]


class MobileModel(enum.Enum):
    """Identifier of a mobile Byzantine fault model variant."""

    GARAY = "M1"
    BONNET = "M2"
    SASAKI = "M3"
    BUHRMAN = "M4"

    def __str__(self) -> str:
        return self.value


class CuredSendBehavior(enum.Enum):
    """What a cured process does during the send phase."""

    #: Cured process knows its state and skips the send (M1).
    SILENT = "silent"
    #: Cured process broadcasts its corrupted state, identically to all (M2).
    BROADCAST_STATE = "broadcast-state"
    #: Cured process sends an agent-planted queue, per-recipient (M3).
    PLANTED_QUEUE = "planted-queue"
    #: No process is ever cured at send time (M4).
    NOT_APPLICABLE = "n/a"


#: The mixed-mode class each cured send behavior maps to (Table 1).
_CURED_CLASSES = {
    CuredSendBehavior.SILENT: FaultClass.BENIGN,
    CuredSendBehavior.BROADCAST_STATE: FaultClass.SYMMETRIC,
    CuredSendBehavior.PLANTED_QUEUE: FaultClass.ASYMMETRIC,
    CuredSendBehavior.NOT_APPLICABLE: None,
}


@dataclass(frozen=True)
class ModelSemantics:
    """Executable semantics of one mobile Byzantine fault model."""

    model: MobileModel
    display_name: str
    citation: str
    #: Whether a cured process can diagnose its own cured state.
    cured_aware: bool
    #: Whether agents move with messages (M4) rather than at round start.
    moves_with_message: bool
    cured_send: CuredSendBehavior
    #: Table 2 coefficient ``c`` in the requirement ``n > c * f``.
    replica_coefficient: int

    def required_n(self, f: int) -> int:
        """Minimum number of processes tolerating ``f`` agents (Table 2).

        The paper states the requirement as ``n > c*f``; the minimum
        integer satisfying it is ``c*f + 1``.
        """
        _require_nonnegative_f(f)
        if f == 0:
            return 1
        return self.replica_coefficient * f + 1

    def tolerates(self, n: int, f: int) -> bool:
        """Return whether ``n`` processes satisfy the Table 2 bound."""
        _require_nonnegative_f(f)
        return n >= self.required_n(f)

    def max_faults(self, n: int) -> int:
        """Largest ``f`` such that ``n > c*f`` (0 if none)."""
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        return max(0, (n - 1) // self.replica_coefficient)

    def mixed_mode_counts(self, f: int, cured: int | None = None) -> MixedModeCounts:
        """The mixed-mode image of a round with ``f`` agents, ``cured`` cured.

        This is the paper's Table 1 / Lemmas 1-4.  ``cured`` defaults to
        ``f``, the per-round worst case (Corollary 1).
        """
        _require_nonnegative_f(f)
        if cured is None:
            cured = f
        if cured < 0 or cured > f:
            raise ValueError(
                f"cured count must be in [0, f={f}], got {cured} (Corollary 1)"
            )
        if self.model is MobileModel.GARAY:
            return MixedModeCounts(asymmetric=f, benign=cured)
        if self.model is MobileModel.BONNET:
            return MixedModeCounts(asymmetric=f, symmetric=cured)
        if self.model is MobileModel.SASAKI:
            return MixedModeCounts(asymmetric=f + cured)
        return MixedModeCounts(asymmetric=f)

    @property
    def cured_class(self) -> FaultClass | None:
        """The mixed-mode class cured processes assume (Table 1 column);
        ``None`` when no process is cured at send time (M4)."""
        return _CURED_CLASSES[self.cured_send]

    def trim_parameter(self, f: int) -> int:
        """The MSR reduction parameter ``tau = a + s`` (worst case)."""
        return self.mixed_mode_counts(f).trim_parameter

    def __str__(self) -> str:
        return f"{self.model.value} ({self.display_name})"


_SEMANTICS: dict[MobileModel, ModelSemantics] = {
    MobileModel.GARAY: ModelSemantics(
        model=MobileModel.GARAY,
        display_name="Garay's model",
        citation="Garay, WDAG 1994 [24]",
        cured_aware=True,
        moves_with_message=False,
        cured_send=CuredSendBehavior.SILENT,
        replica_coefficient=4,
    ),
    MobileModel.BONNET: ModelSemantics(
        model=MobileModel.BONNET,
        display_name="Bonnet et al.'s model",
        citation="Bonnet, Defago, Nguyen, Potop-Butucaru, DISC 2014 [22]",
        cured_aware=False,
        moves_with_message=False,
        cured_send=CuredSendBehavior.BROADCAST_STATE,
        replica_coefficient=5,
    ),
    MobileModel.SASAKI: ModelSemantics(
        model=MobileModel.SASAKI,
        display_name="Sasaki et al.'s model",
        citation="Sasaki, Yamauchi, Kijima, Yamashita, OPODIS 2013 [25]",
        cured_aware=False,
        moves_with_message=False,
        cured_send=CuredSendBehavior.PLANTED_QUEUE,
        replica_coefficient=6,
    ),
    MobileModel.BUHRMAN: ModelSemantics(
        model=MobileModel.BUHRMAN,
        display_name="Buhrman's model",
        citation="Buhrman, Garay, Hoepman, FTCS 1995 [23]",
        cured_aware=True,
        moves_with_message=True,
        cured_send=CuredSendBehavior.NOT_APPLICABLE,
        replica_coefficient=3,
    ),
}

#: All four models, in the paper's M1..M4 order.
ALL_MODELS: tuple[MobileModel, ...] = (
    MobileModel.GARAY,
    MobileModel.BONNET,
    MobileModel.SASAKI,
    MobileModel.BUHRMAN,
)


def get_semantics(model: MobileModel | str) -> ModelSemantics:
    """Look up the semantics of a model, accepting ``"M1"``-style names."""
    if isinstance(model, str):
        normalized = model.strip().upper()
        for candidate in MobileModel:
            if candidate.value == normalized or candidate.name == normalized:
                model = candidate
                break
        else:
            known = ", ".join(m.value for m in MobileModel)
            raise KeyError(f"unknown mobile model {model!r}; known: {known}")
    return _SEMANTICS[model]


def _require_nonnegative_f(f: int) -> None:
    if f < 0:
        raise ValueError(f"f must be non-negative, got {f}")
