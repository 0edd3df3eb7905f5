"""Derived inequality reports for coherent and convex measures.

Each operation packages one of the library's provable inequalities as a
:class:`BoundReport`: the two sides as exact rationals, whether the
preconditions are met, and whether the inequality holds. Reports whose
right side is an unknown quantity (the two lower-bound constructions for
a gamble conditioned outside the measurable field) carry ``holds=None``
unless a ground-truth evaluator is supplied; bounds are reported, not
asserted.

Evaluators are objects exposing ``lower``/``upper`` over events,
gambles and their conditional versions; credal sets and layered
probabilities both qualify (a precise measure is its own envelope).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Union

from .algebra import (
    ConditionalEvent,
    ConditionalGamble,
    Event,
    Gamble,
    Partition,
    inf_over,
    inner_event,
    outer_event,
    sup_over,
)
from .assessments import Assessment
from .errors import EmptyConditioningError, UnsupportedOperationError, ValidationError
from .extension import conditional_inner
from .gn import GnVerdict, _gn_leq, _profiles

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: lhs <= rhs unless stated otherwise."""

    name: str
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    holds: Optional[bool]
    applicable: bool
    context: str


def _not_applicable(name: str, context: str) -> BoundReport:
    return BoundReport(name, None, None, None, False, context)


def _compared(name: str, lhs: Fraction, rhs: Optional[Fraction], context: str) -> BoundReport:
    """The applicable report of lhs <= rhs; ``holds`` is None when rhs is unknown."""
    return BoundReport(name, lhs, rhs, None if rhs is None else lhs <= rhs, True, context)


def product_rule_report(
    mu, a: Event, b: Event, x: Gamble
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """The weak product rule for a lower evaluator.

    Three reports: with a positive price of X given A and B the product
    of the prices bounds the price of AX given B from below; with a
    negative one the bound reverses; and the price of AX given B
    vanishes exactly when the product does.

    The zero clause is not applicable when the price of A given B is 0
    while the price of X given A and B is negative: there the bet on AX
    can be called off by every worst-case model charging A nothing, the
    product degenerates to 0, yet the price of AX given B may sit
    strictly below it. A two-member credal set on three worlds realises
    this, so no guard weaker than this one is sound. The direction from
    a vanishing price of AX given B to a vanishing product follows from
    the two inequality clauses and needs no guard.
    """
    ab = a & b
    if ab.is_empty:
        raise EmptyConditioningError("A and B must be compatible")
    context = f"A={a!r} B={b!r}"
    p_a_given_b = mu.lower(ConditionalEvent(a, b))
    p_x_given_ab = mu.lower(ConditionalGamble(x, ab))
    p_ax_given_b = mu.lower(ConditionalGamble(Gamble.indicator(a) * x, b))
    product = p_a_given_b * p_x_given_ab

    if p_x_given_ab > 0:
        positive = _compared("product-rule-positive", product, p_ax_given_b, context)
    else:
        positive = _not_applicable("product-rule-positive", context)
    if p_x_given_ab < 0:
        negative = _compared("product-rule-negative", p_ax_given_b, product, context)
    else:
        negative = _not_applicable("product-rule-negative", context)
    if p_a_given_b == 0 and p_x_given_ab < 0:
        zero = _not_applicable("product-rule-zero", context)
    else:
        zero = BoundReport(
            "product-rule-zero",
            p_ax_given_b,
            product,
            (p_ax_given_b == 0) == (product == 0),
            True,
            context,
        )
    return positive, negative, zero


@dataclass(frozen=True)
class MonotonicityViolation:
    """An ordered GN-related pair valued in the wrong order."""

    left_index: int
    right_index: int
    left: ConditionalGamble
    right: ConditionalGamble
    left_value: Fraction
    right_value: Fraction


def monotonicity_audit(assessment: Assessment) -> list[MonotonicityViolation]:
    """All ordered entry pairs with the left GN-below the right but valued
    strictly above it, ordered by (left index, right index). An empty audit
    is necessary for convex consistency, hence for the coherent and precise
    classes as well.

    The values are compared as integer keys: numerators over the lcm of
    their denominators. For each left entry the right entries are walked in
    increasing key order, up to the first key that is not strictly below
    the left one. The GN kernel runs only on a pair whose right sup and inf
    are both at least the left ones, which every GN-ordered pair satisfies.
    If X|B is GN-below Y|D, let d be the world of D where Y is least: X(d)
    <= Y(d) when d is in B, else sup_B X <= Y(d); so inf_B X <= inf_D Y.
    Let b be the world of B where X is greatest: X(b) <= Y(b) when b is in
    D, else X(b) <= inf_D Y; so sup_B X <= sup_D Y."""
    entries = assessment.entries
    profiles = _profiles(assessment.gambles())
    ratios = [v.as_integer_ratio() for v in assessment.values()]
    scale = lcm(*(d for _, d in ratios))
    keys = [n * (scale // d) for n, d in ratios]
    walk = sorted(range(len(keys)), key=keys.__getitem__)
    pairs = []
    for i, key in enumerate(keys):
        left = profiles[i]
        for j in walk:
            if keys[j] >= key:
                break
            right = profiles[j]
            if right[3] >= left[3] and right[4] >= left[4] and _gn_leq(left, right):
                pairs.append((i, j))
    return [
        MonotonicityViolation(i, j, entries[i][0], entries[j][0], entries[i][1], entries[j][1])
        for i, j in sorted(pairs)
    ]


def nested_conditioning_report(
    mu, a_or_x: Union[Event, Gamble], b1: Event, b0: Event, side: str = "lower"
) -> list[BoundReport]:
    """Inequalities for an object conditioned on nested events B1 inside B0.

    For an event A: refining the conditioning can only raise the value
    when A, B0 and not-B1 are incompatible, and the value of (A and
    B1)|B0 never exceeds that of A|B1. For a gamble X nonnegative on B1:
    the price of the called-off gamble B1*X given B0 is at most the price
    of X given B1, and when the product of that price with the price of
    B1 given B0 is positive the quotient bounds the price of X given B1
    from above. The gamble reports are for lower previsions only: their
    upper form is false, so ``side="upper"`` with a gamble raises
    UnsupportedOperationError.
    """
    if not b1 <= b0:
        raise ValidationError("B1 must imply B0")
    if b1.is_empty:
        raise EmptyConditioningError("B1 must be nonempty")
    if side not in ("lower", "upper"):
        raise ValidationError("side must be 'lower' or 'upper'")
    if side == "upper" and not isinstance(a_or_x, Event):
        raise UnsupportedOperationError("the gamble reports are for lower previsions only")
    evaluate = mu.lower if side == "lower" else mu.upper
    context = f"B1={b1!r} B0={b0!r}"

    if isinstance(a_or_x, Event):
        a = a_or_x
        refinement_applicable = (a & b0 & ~b1).is_empty
        given_b1 = evaluate(ConditionalEvent(a, b1))
        if refinement_applicable:
            # the worlds of A in B0 lie in B1, so A|B0 is the conditional event (A and B1)|B0
            meet = evaluate(ConditionalEvent(a, b0))
            refinement = _compared("nested-refinement", meet, given_b1, context)
        else:
            refinement = _not_applicable("nested-refinement", context)
            meet = evaluate(ConditionalEvent(a & b1, b0))
        return [refinement, _compared("nested-numerator", meet, given_b1, context)]

    x = a_or_x
    quotient = _not_applicable("restricted-gamble-upper", context)
    if inf_over(x, b1) < 0:
        return [_not_applicable("restricted-gamble-lower", context), quotient]
    lhs = mu.lower(ConditionalGamble(Gamble.indicator(b1) * x, b0))
    rhs = mu.lower(ConditionalGamble(x, b1))
    p_b1 = mu.lower(ConditionalEvent(b1, b0))
    if rhs * p_b1 > 0:
        quotient = _compared("restricted-gamble-upper", rhs, lhs / p_b1, context)
    return [_compared("restricted-gamble-lower", lhs, rhs, context), quotient]


def inner_event_lower_bound(
    mu,
    x: Gamble,
    b: Event,
    p: Partition,
    truth: Optional[Callable[[ConditionalGamble], Fraction]] = None,
) -> BoundReport:
    """Bound the price of X given an event B outside the measurable field.

    The bound combines the measurable approximations of B: the lower
    price of the inner event given the outer one, times the lower price
    of X given the inner event, plus the upper price of the inner
    event's complement given the outer event, times the worst value of X
    on B. Requires a nonempty inner event. When ``truth`` can price X
    given B, the report also says whether the bound holds.
    """
    if b.is_empty:
        raise EmptyConditioningError("B must be nonempty")
    context = f"B={b!r}"
    b_in = inner_event(b, p)
    b_out = outer_event(b, p)
    if b_in.is_empty:
        return _not_applicable("inner-approximation", context)
    bound = mu.lower(ConditionalEvent(b_in, b_out)) * mu.lower(ConditionalGamble(x, b_in))
    bound += mu.upper(ConditionalEvent(~b_in, b_out)) * inf_over(x, b)
    rhs = truth(ConditionalGamble(x, b)) if truth is not None else None
    return _compared("inner-approximation", bound, rhs, context)


def finite_values_lower_bound(
    mu,
    x: Gamble,
    b: Event,
    p: Partition,
    truth: Optional[Callable[[ConditionalGamble], Fraction]] = None,
) -> BoundReport:
    """Bound the price of X given B through X's level sets on B.

    For X nonnegative on B, each value times the lower price of the
    inner conditional event of its level set given B adds up to a lower
    bound on the price of X given B. A level set equal to B itself (X
    constant on B) contributes at value 1, the price forced for B|B.
    """
    if b.is_empty:
        raise EmptyConditioningError("B must be nonempty")
    context = f"B={b!r}"
    if inf_over(x, b) < 0:
        return _not_applicable("level-set-bound", context)
    levels: dict[Fraction, int] = {}
    for i in b.indices():
        levels[x.values[i]] = levels.get(x.values[i], 0) | 1 << i
    bound = _ZERO
    for value, mask in sorted(levels.items()):
        if value == 0:
            continue
        level = ConditionalEvent(Event(x.universe, mask), b)
        weight = _ONE if level.is_trivial else mu.lower(conditional_inner(level, p))
        bound += value * weight
    rhs = truth(ConditionalGamble(x, b)) if truth is not None else None
    return _compared("level-set-bound", bound, rhs, context)


@dataclass(frozen=True)
class SignRelationReport:
    """GN comparability of X|B1 with its called-off version on a larger B0."""

    verdict: GnVerdict
    inf_on_b1: Fraction
    sup_on_b1: Fraction
    rationale: str


def sign_relation(x: Gamble, b1: Event, b0: Event) -> SignRelationReport:
    """Classify (B1*X)|B0 against X|B1 by the sign of X on B1.

    With B0 strictly larger than B1 the called-off version is GN-below
    X|B1 exactly when X is nonnegative on B1, GN-above exactly when it
    is nonpositive, equivalent when X vanishes on B1, and incomparable
    when X takes both strict signs there. With B0 equal to B1 the two
    objects coincide. This is a specialization of the gamble relation,
    not a separate truth source.
    """
    if not b1 <= b0:
        raise ValidationError("B1 must imply B0")
    if b1.is_empty:
        raise EmptyConditioningError("B1 must be nonempty")
    low = inf_over(x, b1)
    high = sup_over(x, b1)
    if b1 == b0:
        verdict, rationale = GnVerdict.EQUIVALENT, "identical conditional gambles"
    elif low >= 0 and high <= 0:
        verdict, rationale = GnVerdict.EQUIVALENT, "X vanishes on B1"
    elif low >= 0:
        verdict, rationale = GnVerdict.LEQ, "X nonnegative on B1"
    elif high <= 0:
        verdict, rationale = GnVerdict.GEQ, "X nonpositive on B1"
    else:
        verdict, rationale = GnVerdict.INCOMPARABLE, "X takes values of both signs on B1"
    return SignRelationReport(verdict, low, high, rationale)
