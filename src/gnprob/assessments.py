"""Assessments, layered (full conditional) probabilities and credal sets.

An :class:`Assessment` is a finite list of conditional gambles with
assessed values, tagged as precise, lower or upper. Values are not
clamped to any range at construction: whether they satisfy the necessary
consistency conditions (probabilities in [0, 1], 0 on the empty event, 1
on sure conditional events) is a consequence of the coherence checks,
and feeding deliberately broken assessments to those checks is part of
the test surface. Use :meth:`Assessment.necessary_condition_violations`
to inspect event entries directly.

A :class:`LayeredProbability` is a stack of probability measures with
pairwise disjoint supports covering the universe. Conditioning on B uses
the first layer giving B positive mass, so zero-probability conditioning
events are handled exactly; on a finite universe these stacks realise
exactly the coherent full conditional probabilities. Besides its layers
of ``Fraction`` masses, each measure keeps every layer as integer
numerators over the lcm of that layer's denominators. The mass of an
event is then an integer sum over the set bits of its mask, and a
conditional probability or prevision is a pair of integers, a numerator
over a positive denominator, from one private kernel per query kind;
the public evaluators build a single ``Fraction`` from it, equal to the
value summed in rationals. A :class:`CredalSet` is a finite set of such
measures; its pointwise minimum and maximum over members provide lower
and upper envelopes. An envelope compares its members' integer pairs by
cross-multiplication and builds one ``Fraction``, for the extreme only.
Both types expose ``lower``/``upper`` evaluators accepting events,
gambles, conditional events and conditional gambles, which is the
interface the extension and inequality modules consume.

All three types are frozen dataclasses: immutable values, equal and
hashed by value. A layered probability compares by its universe and its
``Fraction`` layers only; the integer numerators are derived from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .algebra import (
    ConditionalEvent,
    ConditionalGamble,
    Event,
    Gamble,
    RationalLike,
    Universe,
    as_fraction,
)
from .errors import UniverseMismatchError, ValidationError

Evaluable = Union[Event, Gamble, ConditionalEvent, ConditionalGamble]

KINDS = ("precise", "lower", "upper")
CONSISTENCY_CLASSES = ("dF", "W", "convex", "1convex")

_CLASS_ALIASES = {
    "df": "dF",
    "w": "W",
    "convex": "convex",
    "c-convex": "convex",
    "cconvex": "convex",
    "1convex": "1convex",
    "1-convex": "1convex",
}


def normalize_class(name: str) -> str:
    """Canonical spelling of a consistency class name."""
    try:
        return _CLASS_ALIASES[name.strip().lower()]
    except (KeyError, AttributeError):
        raise ValidationError(
            f"unknown consistency class {name!r}; expected one of {CONSISTENCY_CLASSES}"
        ) from None


def _as_conditional_gamble(obj: Evaluable) -> ConditionalGamble:
    if isinstance(obj, ConditionalGamble):
        return obj
    if isinstance(obj, ConditionalEvent):
        return ConditionalGamble.from_event(obj)
    if isinstance(obj, Gamble):
        return ConditionalGamble(obj, obj.universe.omega)
    if isinstance(obj, Event):
        return ConditionalGamble(Gamble.indicator(obj), obj.universe.omega)
    raise ValidationError(f"cannot evaluate object of type {type(obj).__name__}")


@dataclass(frozen=True)
class Assessment:
    """Finite list of (conditional gamble, value) pairs with a class tag."""

    entries: tuple[tuple[ConditionalGamble, Fraction], ...]
    kind: str = "precise"
    consistency: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.consistency is not None:
            object.__setattr__(self, "consistency", normalize_class(self.consistency))
        # One universe: a mask and payoff ratios key a gamble, hashed without Fraction.__hash__.
        unique: dict[tuple, tuple[ConditionalGamble, Fraction]] = {}
        universe = None
        for gamble, value in self.entries:
            if not isinstance(gamble, ConditionalGamble):
                gamble = _as_conditional_gamble(gamble)
            if type(value) is not Fraction:
                value = as_fraction(value)
            if universe is None:
                universe = gamble.universe
            elif gamble.universe != universe:
                raise UniverseMismatchError("assessment entries live on different universes")
            key = (gamble.conditioning.mask, tuple(v.as_integer_ratio() for v in gamble.payoff.values))
            kept = unique.setdefault(key, (gamble, value))[1]
            if kept != value:
                raise ValidationError(f"conflicting values {kept} and {value} for {gamble!r}")
        object.__setattr__(self, "entries", tuple(unique.values()))

    @property
    def universe(self) -> Optional[Universe]:
        return self.entries[0][0].universe if self.entries else None

    def __len__(self) -> int:
        return len(self.entries)

    def gambles(self) -> tuple[ConditionalGamble, ...]:
        return tuple(g for g, _ in self.entries)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for _, v in self.entries)

    def with_entry(self, gamble: Evaluable, value: RationalLike) -> Assessment:
        return Assessment(self.entries + ((gamble, value),), self.kind, self.consistency)

    def restricted(self, indices: Iterable[int]) -> Assessment:
        picked = tuple(self.entries[i] for i in indices)
        return Assessment(picked, self.kind, self.consistency)

    def necessary_condition_violations(self) -> list[str]:
        """Event entries breaking the necessary consistency conditions:
        a probability outside [0, 1], a nonzero value on an empty
        conditional event, or a value other than 1 on B|B."""
        problems = []
        for gamble, value in self.entries:
            on = gamble.conditioning
            payoffs = {gamble.payoff.values[i] for i in on.indices()}
            if not payoffs <= {Fraction(0), Fraction(1)}:
                continue
            if payoffs == {Fraction(0)} and value != 0:
                problems.append(f"{gamble!r}: empty conditional event valued {value}, not 0")
            elif payoffs == {Fraction(1)} and value != 1:
                problems.append(f"{gamble!r}: sure conditional event valued {value}, not 1")
            elif not 0 <= value <= 1:
                problems.append(f"{gamble!r}: event probability {value} outside [0, 1]")
        return problems


@dataclass(frozen=True, slots=True, init=False, repr=False)
class LayeredProbability:
    """Full conditional probability as a stack of layer measures."""

    universe: Universe
    layers: tuple[tuple[Fraction, ...], ...]
    _nums: tuple[tuple[int, ...], ...] = field(compare=False)
    _supports: tuple[int, ...] = field(compare=False)

    def __init__(self, universe: Universe, layers: Sequence[Sequence[RationalLike]]):
        stacked = []
        numerators = []
        supports = []
        covered = 0
        for depth, layer in enumerate(layers):
            masses = tuple(v if type(v) is Fraction else as_fraction(v) for v in layer)
            if len(masses) != universe.size:
                raise ValidationError(f"layer {depth}: expected {universe.size} masses")
            den = lcm(*(m.denominator for m in masses))
            nums = tuple(m.numerator * (den // m.denominator) for m in masses)
            if any(k < 0 for k in nums):
                raise ValidationError(f"layer {depth}: negative mass")
            if sum(nums) != den:
                raise ValidationError(f"layer {depth}: masses must sum to 1")
            support = 0
            for i, k in enumerate(nums):
                if k:
                    support |= 1 << i
            if support & covered:
                raise ValidationError(f"layer {depth}: support overlaps an earlier layer")
            covered |= support
            stacked.append(masses)
            numerators.append(nums)
            supports.append(support)
        if not stacked:
            raise ValidationError("at least one layer is required")
        if covered != (1 << universe.size) - 1:
            raise ValidationError("layer supports must cover the whole universe")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "layers", tuple(stacked))
        object.__setattr__(self, "_nums", tuple(numerators))
        object.__setattr__(self, "_supports", tuple(supports))

    def support(self, depth: int) -> Event:
        return Event(self.universe, self._supports[depth])

    def _charging(self, mask: int) -> int:
        """Depth of the first layer giving the worlds of ``mask`` positive mass."""
        for depth, support in enumerate(self._supports):
            if support & mask:
                return depth
        raise AssertionError("layer supports cover the universe; unreachable")

    def _mass(self, depth: int, mask: int) -> int:
        """Mass of ``mask`` in layer ``depth``, as a numerator over the
        layer's denominator: an integer sum over the set bits."""
        nums = self._nums[depth]
        mask &= self._supports[depth]
        total = 0
        while mask:
            low = mask & -mask
            total += nums[low.bit_length() - 1]
            mask ^= low
        return total

    def _probability(self, ce: ConditionalEvent) -> tuple[int, int]:
        """P(A|B) as a (numerator, positive denominator) pair, from the
        first layer giving B positive mass."""
        if ce.universe != self.universe:
            raise UniverseMismatchError("conditional event on a different universe")
        b = ce.conditioning.mask
        depth = self._charging(b)
        return self._mass(depth, ce.conditioned.mask), self._mass(depth, b)

    def _prevision(self, cg: ConditionalGamble) -> tuple[int, int]:
        """P(X|B) as a (numerator, positive denominator) pair: the
        expectation of X under the first layer charging B, renormalized
        on B.

        The payoffs on the charged worlds are scaled to integers by the
        lcm of their denominators (grown as the worlds are visited), so
        the expectation is one integer dot product over the mass of B
        times that positive scale."""
        if cg.universe != self.universe:
            raise UniverseMismatchError("conditional gamble on a different universe")
        b = cg.conditioning.mask
        depth = self._charging(b)
        nums = self._nums[depth]
        on = b & self._supports[depth]
        values = cg.payoff.values
        total = mass = 0
        scale = 1
        while on:
            low = on & -on
            i = low.bit_length() - 1
            on ^= low
            v = values[i]
            if scale % v.denominator:
                step = v.denominator // gcd(scale, v.denominator)
                total *= step
                scale *= step
            total += v.numerator * (scale // v.denominator) * nums[i]
            mass += nums[i]
        return total, mass * scale

    def probability(self, ce: ConditionalEvent) -> Fraction:
        """P(A|B) from the first layer giving B positive mass."""
        return Fraction(*self._probability(ce))

    def prevision(self, cg: ConditionalGamble) -> Fraction:
        """P(X|B) under the first layer charging B, renormalized on B."""
        return Fraction(*self._prevision(cg))

    def value(self, obj: Evaluable) -> Fraction:
        if isinstance(obj, ConditionalEvent):
            return self.probability(obj)
        return self.prevision(_as_conditional_gamble(obj))

    # Evaluator protocol: a precise measure is its own envelope.
    lower = value
    upper = value

    def __repr__(self) -> str:
        return f"LayeredProbability({len(self.layers)} layers on {self.universe.worlds})"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class CredalSet:
    """A nonempty finite set of layered probabilities on one universe."""

    members: tuple[LayeredProbability, ...]

    def __init__(self, members: Sequence[LayeredProbability]):
        members = tuple(members)
        if not members:
            raise ValidationError("a credal set needs at least one member")
        for m in members:
            if not isinstance(m, LayeredProbability):
                raise ValidationError(
                    f"a credal set member is a LayeredProbability, not {type(m).__name__}"
                )
            if m.universe != members[0].universe:
                raise UniverseMismatchError("credal set members on different universes")
        object.__setattr__(self, "members", members)

    @property
    def universe(self) -> Universe:
        return self.members[0].universe

    def _envelope(self, obj: Evaluable, sign: int) -> Fraction:
        """The least (``sign`` 1) or greatest (``sign`` -1) member value
        of ``obj``: members are compared as integer pairs with positive
        denominators by cross-multiplication, and one Fraction is built."""
        if isinstance(obj, ConditionalEvent):
            kernel = LayeredProbability._probability
        else:
            kernel = LayeredProbability._prevision
            obj = _as_conditional_gamble(obj)
        members = iter(self.members)
        num, den = kernel(next(members), obj)
        for m in members:
            n, d = kernel(m, obj)
            if sign * (n * den - num * d) < 0:
                num, den = n, d
        return Fraction(num, den)

    def lower(self, obj: Evaluable) -> Fraction:
        return self._envelope(obj, 1)

    def upper(self, obj: Evaluable) -> Fraction:
        return self._envelope(obj, -1)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"CredalSet({len(self.members)} members on {self.universe.worlds})"


# ---------------------------------------------------------------------------
# Seeded generators for the test harness


def random_layered(seed: int, universe: Universe, max_layers: int = 2) -> LayeredProbability:
    """Deterministic random full conditional probability.

    Layer supports are a random ordered set partition of the worlds;
    masses are random positive rationals normalized per layer.
    """
    if max_layers < 1:
        raise ValidationError("max_layers must be at least 1")
    rng = random.Random(seed)
    n = universe.size
    depth = rng.randint(1, min(max_layers, n))
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), depth - 1)) if depth > 1 else []
    bounds = [0] + cuts + [n]
    layers = []
    for k in range(depth):
        chunk = order[bounds[k] : bounds[k + 1]]
        weights = {i: rng.randint(1, 9) for i in chunk}
        total = sum(weights.values())
        layers.append(
            [Fraction(weights.get(i, 0), total) for i in range(n)]
        )
    return LayeredProbability(universe, layers)


def random_credal(seed: int, universe: Universe, size: int, max_layers: int = 2) -> CredalSet:
    """Deterministic random credal set of ``size`` layered members."""
    if size < 1:
        raise ValidationError("size must be at least 1")
    rng = random.Random(seed)
    member_seeds = [rng.randrange(2**30) for _ in range(size)]
    return CredalSet([random_layered(s, universe, max_layers) for s in member_seeds])
