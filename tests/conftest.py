"""Shared fixtures and deterministic samplers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from gnprob import (
    ConditionalEvent,
    ConditionalGamble,
    CredalSet,
    Event,
    Gamble,
    LayeredProbability,
    Partition,
    Universe,
)


def make_universe(n: int) -> Universe:
    return Universe(tuple(f"w{i + 1}" for i in range(n)))


@pytest.fixture
def football() -> SimpleNamespace:
    """Five-world tournament model: who wins, crossed with reaching the final."""
    u = make_universe(5)
    brazil = u.event(["w1"])
    sweden = u.event(["w2", "w3"])
    third = u.event(["w4", "w5"])
    final = u.event(["w1", "w2", "w4"])
    teams = Partition(u, (brazil, sweden, third))
    uniform = LayeredProbability(
        u, [[Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)]]
    )
    m1 = LayeredProbability(
        u, [[Fraction(1, 2), Fraction(3, 20), Fraction(3, 20), Fraction(1, 10), Fraction(1, 10)]]
    )
    m2 = LayeredProbability(
        u, [[Fraction(1, 5), Fraction(1, 4), Fraction(1, 4), Fraction(3, 20), Fraction(3, 20)]]
    )
    return SimpleNamespace(
        universe=u,
        brazil=brazil,
        sweden=sweden,
        third=third,
        final=final,
        teams=teams,
        uniform=uniform,
        credal=CredalSet([m1, m2]),
        sweden_given_final=ConditionalEvent(sweden, final),
    )


# ---------------------------------------------------------------------------
# Deterministic samplers


def random_event(rng: random.Random, u: Universe, nonempty: bool = True) -> Event:
    low = 1 if nonempty else 0
    return Event(u, rng.randint(low, (1 << u.size) - 1))


def random_conditional_event(rng: random.Random, u: Universe) -> ConditionalEvent:
    conditioning = random_event(rng, u)
    conditioned = Event(u, rng.randint(0, (1 << u.size) - 1) & conditioning.mask)
    return ConditionalEvent(conditioned, conditioning)


def random_nontrivial_ce(rng: random.Random, u: Universe) -> ConditionalEvent:
    while True:
        conditioning = random_event(rng, u)
        if len(conditioning) < 2:
            continue
        conditioned = Event(u, rng.randint(0, (1 << u.size) - 1) & conditioning.mask)
        ce = ConditionalEvent(conditioned, conditioning)
        if not ce.is_trivial:
            return ce


def random_gamble(rng: random.Random, u: Universe, lo: int = -3, hi: int = 3, max_den: int = 3) -> Gamble:
    return Gamble(
        u, [Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(u.size)]
    )


def random_conditional_gamble(rng: random.Random, u: Universe) -> ConditionalGamble:
    return ConditionalGamble(random_gamble(rng, u), random_event(rng, u))


def random_gn_above(rng: random.Random, xb: ConditionalGamble) -> ConditionalGamble:
    """A random Y|D with X|B Goodman-Nguyen below it. On D, Y starts from X
    on B and from the sup of X on B off B, is raised to the largest value of
    X on B minus D, and gets a random nonnegative step; it is 0 off D."""
    u = xb.universe
    b = xb.conditioning
    x = xb.payoff.values
    d = random_event(rng, u)
    top = max(x[i] for i in b.indices())
    floor = max((x[i] for i in (b - d).indices()), default=None)
    values = [Fraction(0)] * u.size
    for i in d.indices():
        low = x[i] if b.mask >> i & 1 else top
        if floor is not None:
            low = max(low, floor)
        values[i] = low + Fraction(rng.randint(0, 4), rng.randint(1, 3))
    return ConditionalGamble(Gamble(u, values), d)


def random_partition(rng: random.Random, u: Universe) -> Partition:
    count = rng.randint(1, u.size)
    assignment = [rng.randrange(count) for _ in range(u.size)]
    blocks = {}
    for world, bucket in enumerate(assignment):
        blocks[bucket] = blocks.get(bucket, 0) | (1 << world)
    return Partition(u, tuple(Event(u, m) for m in blocks.values()))


def all_conditional_events(u: Universe, nontrivial: bool = False):
    out = []
    for bmask in range(1, 1 << u.size):
        for amask in range(1 << u.size):
            if amask & ~bmask:
                continue
            ce = ConditionalEvent(Event(u, amask), Event(u, bmask))
            if nontrivial and ce.is_trivial:
                continue
            out.append(ce)
    return out


def all_set_partitions(u: Universe):
    """Every partition of the universe, by recursive block assignment."""
    n = u.size

    def rec(i, blocks):
        if i == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    for grouping in rec(0, []):
        yield Partition(
            u, tuple(Event(u, sum(1 << i for i in block)) for block in grouping)
        )
