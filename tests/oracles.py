"""Test-only oracles and helpers.

The library computes extensions in closed form through inner and outer
conditional events and never enumerates a partition's field. The
enumerators here do, so the tests can cross-check the closed forms
against brute force on small partitions. ``scaled`` rescales a witness
gain, for the tests of positive homogeneity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from gnprob import (
    ConditionalEvent,
    EnumerationLimitError,
    Event,
    GainSpec,
    GainTerm,
    Partition,
    ValidationError,
    gn_leq_events,
)
from gnprob.extension import _require_nontrivial

MAX_BLOCKS = 12


def iter_measurable_events(p: Partition, include_empty: bool = False) -> Iterator[Event]:
    """All unions of blocks of ``p``, the field generated by the partition."""
    masks = [b.mask for b in p.blocks]
    start = 0 if include_empty else 1
    for choice in range(start, 1 << len(masks)):
        m = 0
        for i, bm in enumerate(masks):
            if (choice >> i) & 1:
                m |= bm
        yield Event(p.universe, m)


def iter_conditional_domain(p: Partition) -> Iterator[ConditionalEvent]:
    """Every conditional event with both parts measurable for ``p``."""
    if len(p.blocks) > MAX_BLOCKS:
        raise EnumerationLimitError(
            f"{len(p.blocks)} blocks exceed the enumeration cap of {MAX_BLOCKS}"
        )
    masks = [b.mask for b in p.blocks]
    for choice in range(1, 1 << len(masks)):
        b_mask = 0
        for i, bm in enumerate(masks):
            if (choice >> i) & 1:
                b_mask |= bm
        conditioning = Event(p.universe, b_mask)
        sub = choice
        while True:
            a_mask = 0
            for i, bm in enumerate(masks):
                if (sub >> i) & 1:
                    a_mask |= bm
            yield ConditionalEvent(Event(p.universe, a_mask), conditioning)
            if sub == 0:
                break
            sub = (sub - 1) & choice


def gn_lower_set(cd: ConditionalEvent, p: Partition) -> list[ConditionalEvent]:
    """All measurable conditional events GN-below cd, by enumeration."""
    _require_nontrivial(cd)
    return [ab for ab in iter_conditional_domain(p) if gn_leq_events(ab, cd)]


def gn_upper_set(cd: ConditionalEvent, p: Partition) -> list[ConditionalEvent]:
    """All measurable conditional events GN-above cd, by enumeration."""
    _require_nontrivial(cd)
    return [ab for ab in iter_conditional_domain(p) if gn_leq_events(cd, ab)]


def scaled(spec: GainSpec, factor) -> GainSpec:
    """The gain with every stake multiplied by a positive factor."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ValidationError("scale factor must be positive")
    return GainSpec(
        tuple(GainTerm(t.stake * factor, t.gamble, t.value) for t in spec.terms),
        spec.against,
    )
