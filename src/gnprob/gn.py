"""The Goodman-Nguyen relation on conditional events and conditional gambles.

The relation generalises implication to conditional objects: A|B is below
C|D when winning a bet on A|B forces winning one on C|D, and losing the
bet on C|D forces losing the one on A|B. On conditional gambles the same
idea is captured by a pointwise inequality between called-off payoffs,
with the sup of the left payoff and the inf of the right one standing in
on the regions where only one bet is live.

Three equivalent routes are implemented for events: the direct two
implication checks, the conditional-event-algebra characterisation via
the conjunction of conditional events, and the indicator special case of
the gamble relation. Their agreement is asserted exhaustively in the
test suite.

The gamble relation is decided on integers. A profile of X|B holds the
mask of B, its worlds, X's payoffs as integer numerators over a scale
shared by all the gambles compared (the lcm of their denominators), and
the sup and inf of X on B. One kernel compares two profiles world by
world and stops at the first world that fails. :func:`gn_leq_gambles`
builds two profiles per call; the monotonicity audit builds one per entry
over one scale, and runs the kernel only on the pairs valued in the wrong
order whose sup and inf do not already rule the relation out.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm
from typing import Optional, Sequence

from .algebra import (
    ConditionalEvent,
    ConditionalGamble,
    _require_same_universe,
)
from .errors import EmptyConditioningError, ValidationError


class GnVerdict(Enum):
    """Outcome of comparing two conditional objects."""

    LEQ = "LEQ"
    GEQ = "GEQ"
    EQUIVALENT = "EQUIVALENT"
    INCOMPARABLE = "INCOMPARABLE"


def _verdict(leq: bool, geq: bool) -> GnVerdict:
    if leq and geq:
        return GnVerdict.EQUIVALENT
    if leq:
        return GnVerdict.LEQ
    if geq:
        return GnVerdict.GEQ
    return GnVerdict.INCOMPARABLE


def gn_leq_events(ab: ConditionalEvent, cd: ConditionalEvent) -> bool:
    """True when A|B is Goodman-Nguyen below C|D.

    Two subset tests: the true part of A|B implies the true part of C|D,
    and the false part of C|D implies the false part of A|B.
    """
    _require_same_universe(ab.conditioning, cd.conditioning)
    return ab.conditioned <= cd.conditioned and cd.false_part <= ab.false_part


def ce_and(ab: ConditionalEvent, cd: ConditionalEvent) -> Optional[ConditionalEvent]:
    """Conjunction of conditional events.

    Returns None (flagged undefined) when the computed conditioning event
    is empty, which happens only for degenerate operands.
    """
    _require_same_universe(ab.conditioning, cd.conditioning)
    conditioned = ab.conditioned & cd.conditioned
    conditioning = ab.false_part | cd.false_part | (ab.conditioning & cd.conditioning)
    if conditioning.is_empty:
        return None
    return ConditionalEvent(conditioned, conditioning)


def ce_or(ab: ConditionalEvent, cd: ConditionalEvent) -> Optional[ConditionalEvent]:
    """Disjunction of conditional events; None when undefined."""
    _require_same_universe(ab.conditioning, cd.conditioning)
    conditioned = ab.conditioned | cd.conditioned
    conditioning = conditioned | (ab.conditioning & cd.conditioning)
    if conditioning.is_empty:
        return None
    return ConditionalEvent(conditioned, conditioning)


def gn_leq_via_algebra(ab: ConditionalEvent, cd: ConditionalEvent) -> bool:
    """The relation expressed through the algebra: A|B is below C|D exactly
    when A|B equals the conjunction of the two. Undefined conjunctions
    compare unequal to any proper conditional event, hence False."""
    meet = ce_and(ab, cd)
    return meet is not None and meet == ab


def gn_compare(ab: ConditionalEvent, cd: ConditionalEvent) -> GnVerdict:
    """Classify an ordered pair of conditional events."""
    return _verdict(gn_leq_events(ab, cd), gn_leq_events(cd, ab))


def _profiles(gambles: Sequence[ConditionalGamble]) -> list[tuple]:
    """What the GN test needs of each X|B, with payoffs as integer
    numerators over one scale shared by all the gambles (the lcm of their
    denominators on their conditioning events): the mask of B, the worlds
    of B, the numerators (0 off B), the sup on B and the inf on B."""
    worlds = [cg.conditioning.indices() for cg in gambles]
    scale = lcm(
        *(cg.payoff.values[i].denominator for cg, on in zip(gambles, worlds) for i in on)
    )
    profiles = []
    for cg, on in zip(gambles, worlds):
        values = cg.payoff.values
        nums = [0] * len(values)
        for i in on:
            v = values[i]
            nums[i] = v.numerator * (scale // v.denominator)
        live = [nums[i] for i in on]
        profiles.append((cg.conditioning.mask, on, nums, max(live), min(live)))
    return profiles


def _gn_leq(left: tuple, right: tuple) -> bool:
    """X|B GN-below Y|D for two profiles at one scale; stops at the
    first world that fails."""
    b, b_worlds, xs, sup_x, _ = left
    d, d_worlds, ys, _, inf_y = right
    for i in b_worlds:
        if xs[i] > (ys[i] if d >> i & 1 else inf_y):
            return False
    for i in d_worlds:
        if sup_x > ys[i] and not b >> i & 1:
            return False
    return True


def gn_leq_gambles(xb: ConditionalGamble, yd: ConditionalGamble) -> bool:
    """True when X|B is Goodman-Nguyen below Y|D.

    Checked pointwise on the worlds of B or D: on B and D the payoffs
    compare directly, on D minus B the right payoff must dominate the sup
    of X over B, on B minus D the inf of Y over D must dominate the left
    payoff. Worlds outside both conditioning events impose nothing.
    """
    _require_same_universe(xb.conditioning, yd.conditioning)
    return _gn_leq(*_profiles((xb, yd)))


def gn_compare_gambles(xb: ConditionalGamble, yd: ConditionalGamble) -> GnVerdict:
    """Classify an ordered pair of conditional gambles."""
    return _verdict(gn_leq_gambles(xb, yd), gn_leq_gambles(yd, xb))


@dataclass(frozen=True)
class ConditionalImplication:
    """An implication between conditional events sharing one conditioning."""

    antecedent: ConditionalEvent
    consequent: ConditionalEvent

    @property
    def holds(self) -> bool:
        return (
            self.antecedent.conditioning == self.consequent.conditioning
            and self.antecedent.conditioned <= self.consequent.conditioned
        )


def conditional_implications(
    ab: ConditionalEvent, cd: ConditionalEvent
) -> tuple[ConditionalImplication, ConditionalImplication]:
    """The two conditional implications induced by A|B below C|D.

    Both are conditioned on B and D: A implies C there, and not-C implies
    not-A there. Requires the operands to be GN-ordered and B and D to be
    compatible; with disjoint conditionings the implications would be
    conditioned on the impossible event and are left undefined.
    """
    if not gn_leq_events(ab, cd):
        raise ValidationError("operands are not Goodman-Nguyen ordered")
    h = ab.conditioning & cd.conditioning
    if h.is_empty:
        raise EmptyConditioningError(
            "the conditioning events are disjoint; the induced conditional "
            "implications would be conditioned on the impossible event"
        )
    positive = ConditionalImplication(
        ConditionalEvent(ab.conditioned, h), ConditionalEvent(cd.conditioned, h)
    )
    contrapositive = ConditionalImplication(
        ConditionalEvent(h - cd.conditioned, h), ConditionalEvent(h - ab.conditioned, h)
    )
    if not (positive.holds and contrapositive.holds):
        raise AssertionError("GN-ordered operands must satisfy both conditional implications")
    return positive, contrapositive
