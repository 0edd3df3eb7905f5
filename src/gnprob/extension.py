"""Closed-form extension of full conditional assessments to new events.

Given an uncertainty measure defined on every conditional event built
from a partition's field, the consistent values for an arbitrary new
conditional event C|D form a closed interval whose endpoints are the
measure's values at two derived measurable conditional events: the
GN-greatest measurable event below C|D (its inner event) and the
GN-least one above it (its outer event). Both are assembled from the
unconditional inner and outer approximations of the true part C and D
and the false part (not C) and D. Evaluating the measure at the inner
event gives the natural extension (the least-committal consistent one),
for convex measures the convex natural extension; evaluating at the
outer event gives the upper extension, the one no other consistent
extension dominates.

Measures enter as plain callables from conditional events to rationals,
because each extension needs the measure at just two derived points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .algebra import (
    ConditionalEvent,
    ConditionalGamble,
    Partition,
    inner_event,
    outer_event,
)
from .assessments import Assessment, LayeredProbability
from .errors import TrivialTargetError, UnsupportedOperationError, ValidationError

Evaluator = Callable[[ConditionalEvent], Fraction]

def _require_nontrivial(cd: ConditionalEvent) -> None:
    if cd.is_trivial:
        raise TrivialTargetError(
            "trivial conditional event: its value is forced by the necessary "
            "consistency conditions (0 for an empty conditioned part, 1 when "
            "the conditioned part equals the conditioning event)"
        )


@dataclass(frozen=True)
class ExtensionInterval:
    """Closed interval of consistent values for one target, with the two
    measurable conditional events that produce its endpoints."""

    target: ConditionalEvent
    low: Fraction
    high: Fraction
    low_witness: ConditionalEvent
    high_witness: ConditionalEvent

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValidationError(
                f"interval endpoints out of order: {self.low} > {self.high}; "
                "the evaluator is not monotone for the GN relation"
            )


def _approximation(cd, p, true_part, false_part) -> Optional[ConditionalEvent]:
    """``true_part`` of the true part, conditioned on that plus
    ``false_part`` of the false part; None when that conditioning is empty."""
    conditioned = true_part(cd.conditioned, p)
    conditioning = conditioned | false_part(cd.false_part, p)
    return None if conditioning.is_empty else ConditionalEvent(conditioned, conditioning)


def conditional_inner(cd: ConditionalEvent, p: Partition) -> Optional[ConditionalEvent]:
    """The GN-greatest p-measurable conditional event below cd: inner
    approximation of the true part, conditioned on that plus the outer
    approximation of the false part. None when the conditioning event
    degenerates to empty (possible only for trivial cd)."""
    return _approximation(cd, p, inner_event, outer_event)


def conditional_outer(cd: ConditionalEvent, p: Partition) -> Optional[ConditionalEvent]:
    """The GN-least p-measurable conditional event above cd; dual of
    :func:`conditional_inner`."""
    return _approximation(cd, p, outer_event, inner_event)


def _derived(cd: ConditionalEvent, p: Partition, derive) -> ConditionalEvent:
    """``derive(cd, p)`` for a nontrivial target. Its true and false parts
    are then nonempty, so both derived conditioning events are too."""
    _require_nontrivial(cd)
    return derive(cd, p)


def extension_interval(mu: Evaluator, cd: ConditionalEvent, p: Partition) -> ExtensionInterval:
    """The closed interval of values consistent with ``mu`` for cd."""
    low_witness = _derived(cd, p, conditional_inner)
    high_witness = conditional_outer(cd, p)
    return ExtensionInterval(cd, mu(low_witness), mu(high_witness), low_witness, high_witness)


def natural_extension(
    mu: Evaluator,
    targets: Sequence[ConditionalEvent],
    p: Partition,
    side: str = "lower",
) -> list[Fraction]:
    """Least-committal consistent values at the targets.

    With a lower (or precise) evaluator use side="lower": each target is
    valued at its inner conditional event. With an upper evaluator use
    side="upper": each target is valued at its outer conditional event.
    The same formulas give the convex natural extension when the
    evaluator is convex rather than coherent.
    """
    if side not in ("lower", "upper"):
        raise ValidationError("side must be 'lower' or 'upper'")
    derive = conditional_inner if side == "lower" else conditional_outer
    return [mu(_derived(cd, p, derive)) for cd in targets]


def upper_extension(mu: Evaluator, cd: ConditionalEvent, p: Partition) -> Fraction:
    """The undominated consistent value for one extra conditional event:
    the lower evaluator taken at the target's outer conditional event.
    Defined for a single target only; with several new events at once an
    undominated extension is in general not unique."""
    if isinstance(cd, (list, tuple, set, frozenset)):
        raise UnsupportedOperationError(
            "the upper extension is computed for a single additional event"
        )
    return mu(_derived(cd, p, conditional_outer))


def df_to_imprecise(
    precise: LayeredProbability,
    targets: Sequence[ConditionalEvent],
    p: Partition,
) -> tuple[Assessment, Assessment]:
    """Bound new events through a precise full conditional probability.

    Valuing each target at its inner (outer) conditional event yields a
    lower (upper) probability assessment; the pair brackets every value
    the precise measure could coherently extend to, and each side is a
    coherent imprecise assessment in its own right.
    """
    gambles = [ConditionalGamble.from_event(cd) for cd in targets]
    return tuple(
        Assessment(tuple(zip(gambles, natural_extension(precise.value, targets, p, side))), side, "W")
        for side in ("lower", "upper")
    )
