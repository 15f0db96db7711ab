"""Specification checkers for Byzantine Approximate Agreement.

Paper Section 3 ("Byzantine Approximate Agreement specification"):

* **Termination** -- all non-faulty processes eventually decide;
* **epsilon-Agreement** -- decisions of any two non-faulty processes
  are within ``epsilon`` of each other;
* **Validity** -- every non-faulty decision lies in the range of the
  initial values of the non-faulty processes.

plus the per-round MSR properties of Section 5.1:

* **P1** -- every computed value lies in ``rho(U)``, the range of the
  values generated by correct processes this round;
* **P2** -- any two computed values differ by strictly less than
  ``delta(U)``.

and the *Simple Approximate Agreement* of Section 6 (used by the lower
bounds): outputs must span strictly less than the inputs (or exactly 0
when the inputs already agree), and lie in the inputs' range.

All checkers consume traces / plain values and return structured
verdicts, never booleans alone -- experiment tables print the details.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..msr.multiset import ValueMultiset
from ..runtime.trace import LiteTrace, RoundRecord, Trace

__all__ = [
    "PropertyCheck",
    "SpecVerdict",
    "check_validity",
    "check_epsilon_agreement",
    "check_termination",
    "check_p1",
    "check_p2",
    "check_trace",
    "check_simple_agreement",
    "SimpleAgreementVerdict",
]

#: Absolute slack absorbing floating-point noise in long executions.
FLOAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one property check.

    ``skipped=True`` marks a property that was *not evaluated* (e.g.
    P1/P2 on a lite trace, which carries no message records).  A skipped
    check is not a violation -- it stays truthy and absent from
    :meth:`SpecVerdict.failures` -- but it never counts as *proven*:
    :attr:`SpecVerdict.all_satisfied` refuses to claim invariants that
    were never checked.
    """

    name: str
    holds: bool
    details: str = ""
    skipped: bool = False

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        status = "SKIPPED" if self.skipped else "OK" if self.holds else "VIOLATED"
        suffix = f" ({self.details})" if self.details else ""
        return f"{self.name}: {status}{suffix}"


@dataclass(frozen=True)
class SpecVerdict:
    """Full verdict of a trace against the paper's specification."""

    termination: PropertyCheck
    epsilon_agreement: PropertyCheck
    validity: PropertyCheck
    p1: PropertyCheck
    p2: PropertyCheck

    @property
    def satisfied(self) -> bool:
        """The three headline properties of the specification."""
        return bool(
            self.termination and self.epsilon_agreement and self.validity
        )

    @property
    def all_satisfied(self) -> bool:
        """Headline properties plus the per-round P1/P2 invariants.

        False when P1/P2 were skipped (lite traces): an unevaluated
        invariant is not a verified one.
        """
        return (
            self.satisfied
            and bool(self.p1)
            and not self.p1.skipped
            and bool(self.p2)
            and not self.p2.skipped
        )

    def failures(self) -> list[PropertyCheck]:
        """Every violated property, for reporting."""
        checks = [
            self.termination,
            self.epsilon_agreement,
            self.validity,
            self.p1,
            self.p2,
        ]
        return [check for check in checks if not check]

    def __str__(self) -> str:
        checks = [
            self.termination,
            self.epsilon_agreement,
            self.validity,
            self.p1,
            self.p2,
        ]
        return "; ".join(str(check) for check in checks)


def check_termination(trace: Trace | LiteTrace) -> PropertyCheck:
    """Termination: the rule fired before the round cap."""
    details = f"{trace.rounds_executed()} rounds"
    if not trace.terminated:
        details += " (round cap exhausted without deciding)"
    return PropertyCheck("Termination", trace.terminated, details)


def check_epsilon_agreement(
    trace: Trace | LiteTrace, epsilon: float | None = None
) -> PropertyCheck:
    """epsilon-Agreement over the decided values."""
    eps = trace.epsilon if epsilon is None else epsilon
    spread = trace.decision_diameter()
    holds = spread <= eps + FLOAT_TOLERANCE
    return PropertyCheck(
        "eps-Agreement",
        holds,
        f"decision spread {spread:.4g} vs eps {eps:g}",
    )


def check_validity(trace: Trace | LiteTrace) -> PropertyCheck:
    """Validity: decisions (and every intermediate non-faulty value)
    stay within the range of the initially non-faulty inputs.

    On a :class:`LiteTrace` the per-round check runs on the recorded
    non-faulty extents (min/max); the verdict is boolean-identical to
    the full-trace check, only the per-process detail strings differ.
    This is the reference of the sweep engine's lite verdict
    (:func:`repro.sweep.engine._array_verdicts`), which checks the same
    extents without building detail strings.
    """
    interval = trace.validity_interval()
    out_of_range: list[str] = []
    for pid, value in trace.decisions.items():
        if not interval.contains(value, FLOAT_TOLERANCE):
            out_of_range.append(f"decision p{pid}={value:.4g}")
    if isinstance(trace, LiteTrace):
        for round_index, extent in enumerate(trace.round_extents):
            if extent is None:
                continue
            low, high = extent
            if not (
                interval.contains(low, FLOAT_TOLERANCE)
                and interval.contains(high, FLOAT_TOLERANCE)
            ):
                out_of_range.append(
                    f"round {round_index} extent [{low:.4g}, {high:.4g}]"
                )
    else:
        for record in trace.rounds:
            for pid, value in record.nonfaulty_values_after().items():
                if not interval.contains(value, FLOAT_TOLERANCE):
                    out_of_range.append(
                        f"round {record.round_index} p{pid}={value:.4g}"
                    )
    holds = not out_of_range
    details = (
        f"range [{interval.low:.4g}, {interval.high:.4g}]"
        if holds
        else "; ".join(out_of_range[:5])
    )
    return PropertyCheck("Validity", holds, details)


def _round_p1(record: RoundRecord) -> list[str]:
    violations = []
    honest = record.honest_sent_values()
    if len(honest) == 0:
        return violations
    interval = honest.range()
    for pid, application in record.applications.items():
        if not interval.contains(application.result, FLOAT_TOLERANCE):
            violations.append(
                f"round {record.round_index} p{pid}: {application.result:.4g} "
                f"outside [{interval.low:.4g}, {interval.high:.4g}]"
            )
    return violations


def check_p1(trace: Trace) -> PropertyCheck:
    """P1 on every round: computed values in the correct senders' range."""
    violations: list[str] = []
    for record in trace.rounds:
        violations.extend(_round_p1(record))
    holds = not violations
    details = "" if holds else "; ".join(violations[:5])
    return PropertyCheck("P1", holds, details)


def _round_p2(record: RoundRecord) -> list[str]:
    violations = []
    honest = record.honest_sent_values()
    if len(honest) == 0:
        return violations
    delta = honest.diameter()
    results = [
        record.applications[pid].result for pid in sorted(record.applications)
    ]
    if not results:
        return violations
    spread = max(results) - min(results)
    if delta <= FLOAT_TOLERANCE:
        if spread > FLOAT_TOLERANCE:
            violations.append(
                f"round {record.round_index}: spread {spread:.4g} "
                "with agreeing correct senders"
            )
    elif spread >= delta - FLOAT_TOLERANCE and spread > FLOAT_TOLERANCE:
        violations.append(
            f"round {record.round_index}: spread {spread:.4g} "
            f"not strictly below delta(U)={delta:.4g}"
        )
    return violations


def check_p2(trace: Trace) -> PropertyCheck:
    """P2 on every round: result spread strictly below ``delta(U)``."""
    violations: list[str] = []
    for record in trace.rounds:
        violations.extend(_round_p2(record))
    holds = not violations
    details = "" if holds else "; ".join(violations[:5])
    return PropertyCheck("P2", holds, details)


def check_trace(
    trace: Trace | LiteTrace, epsilon: float | None = None
) -> SpecVerdict:
    """Full specification verdict for a completed trace.

    A :class:`LiteTrace` carries no message matrices, so the per-round
    P1/P2 invariants cannot be evaluated on it; they are reported as
    vacuously holding with an explanatory detail.  The headline verdict
    (:attr:`SpecVerdict.satisfied`) never depends on P1/P2 and is
    boolean-identical across trace details.

    Sweeps condense lite runs through the engine's lite verdict
    (:func:`repro.sweep.engine._array_verdicts`) instead; this function
    is its reference, and stays the checker of full traces, of
    :func:`repro.api.check` and of the tests.
    """
    if isinstance(trace, LiteTrace):
        not_recorded = "not recorded (trace_detail='lite'); rerun with 'full'"
        p1 = PropertyCheck("P1", True, not_recorded, skipped=True)
        p2 = PropertyCheck("P2", True, not_recorded, skipped=True)
    else:
        p1 = check_p1(trace)
        p2 = check_p2(trace)
    return SpecVerdict(
        termination=check_termination(trace),
        epsilon_agreement=check_epsilon_agreement(trace, epsilon),
        validity=check_validity(trace),
        p1=p1,
        p2=p2,
    )


@dataclass(frozen=True)
class SimpleAgreementVerdict:
    """Verdict of a one-shot Simple Approximate Agreement execution."""

    agreement: PropertyCheck
    validity: PropertyCheck

    @property
    def satisfied(self) -> bool:
        return bool(self.agreement and self.validity)

    def __str__(self) -> str:
        return f"{self.agreement}; {self.validity}"


def check_simple_agreement(
    inputs: Mapping[int, float], outputs: Mapping[int, float]
) -> SimpleAgreementVerdict:
    """Check Section 6's Simple Approximate Agreement properties.

    ``inputs``/``outputs`` are the correct processes' proposals and
    chosen values.  *Agreement*: the output spread must be strictly
    smaller than the input spread, or zero when the inputs already
    agree.  *Validity*: every output lies in the inputs' range.
    """
    if not inputs or not outputs:
        raise ValueError("need at least one correct input and output")
    input_set = ValueMultiset(inputs.values())
    output_set = ValueMultiset(outputs.values())
    in_spread = input_set.diameter()
    out_spread = output_set.diameter()
    if in_spread <= FLOAT_TOLERANCE:
        agreement_holds = out_spread <= FLOAT_TOLERANCE
    else:
        agreement_holds = out_spread < in_spread - FLOAT_TOLERANCE
    agreement = PropertyCheck(
        "Agreement",
        agreement_holds,
        f"output spread {out_spread:.4g} vs input spread {in_spread:.4g}",
    )
    interval = input_set.range()
    outside = [
        f"p{pid}={value:.4g}"
        for pid, value in outputs.items()
        if not interval.contains(value, FLOAT_TOLERANCE)
    ]
    validity = PropertyCheck(
        "Validity",
        not outside,
        "" if not outside else "outside inputs' range: " + ", ".join(outside[:5]),
    )
    return SimpleAgreementVerdict(agreement=agreement, validity=validity)
