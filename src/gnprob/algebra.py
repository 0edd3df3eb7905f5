"""Finite event algebra: universes, bitset events, partitions and gambles.

A :class:`Universe` fixes an ordered tuple of distinct world names. An
:class:`Event` is a subset of those worlds stored as an integer bitmask
(bit ``i`` set means world ``i`` belongs to the event), so Boolean
operations are single big-integer operations and equality is canonical.
A :class:`Partition` groups the universe into disjoint nonempty blocks
whose union is the sure event. A :class:`Gamble` assigns an exact
rational payoff to every world. :class:`ConditionalEvent` and
:class:`ConditionalGamble` pair an object with a nonempty conditioning
event and are stored in canonical form: the conditioned part of a
conditional event is intersected with the conditioning event, and the
payoff of a conditional gamble is zeroed outside it.

Every type here is a frozen dataclass: an immutable value, equal and
hashed by its fields, so values can key dicts and sets. Events and
gambles leave their universe out of the hash, which would otherwise
walk every world name; equality still compares it. Events, gambles
and conditional objects are slotted and keep their own validating
constructors. All operations are pure functions, safe to share across
threads. Only exact rationals are admitted as numbers, and
:func:`as_fraction` is the one door every number passes: floats, bools
and every other type outside int, str and Fraction (a ``Decimal`` too)
raise immediately, and so does an integer of more than
``MAX_LITERAL_DIGITS`` digits, or a string with more digits than that or
an exponent above it, so that a short literal such as "1e-3000000"
cannot expand into a huge number.

Every string that passes the caps is read by ``Fraction(value)``.
``as_fraction`` keeps each exact ``str`` of at most
``MAX_LITERAL_DIGITS`` characters that it has read in a private memo,
``_memo``, and looks every exact ``str`` up there first, so a literal
that recurs, within a problem file or across loads, is expanded once.
The memo never holds a refused string, and is emptied before a store
once it holds ``_MEMO_LIMIT`` strings. Threads share it without a lock:
a race can lose a store or add one string per thread past the bound,
but its values are those of a pure function and dict reads and writes
are atomic, so a call on any thread gets the value it would compute alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import EmptyConditioningError, UniverseMismatchError, ValidationError

RationalLike = Union[int, str, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)

MAX_LITERAL_DIGITS = 1000
_INTEGER_LIMIT = 10**MAX_LITERAL_DIGITS

# Literal strings read so far, each to its Fraction (see the module docstring).
_memo: dict[str, Fraction] = {}
_MEMO_LIMIT = 4096


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    A value whose type is exactly ``Fraction`` is returned as it is.
    Bools are refused, as are an int of more than ``MAX_LITERAL_DIGITS``
    digits and a string with more digits than that or an exponent above
    it; each is refused before it is expanded. Every type outside
    ``RationalLike`` is refused too: a float is not exact, and a
    ``Decimal`` such as ``Decimal("1e-300000")`` would expand its
    exponent with no cap.

    Everything else that passes goes through ``Fraction(value)``. An
    exact ``str`` is looked up in ``_memo`` first, and one of at most
    ``MAX_LITERAL_DIGITS`` characters that was read is stored there,
    after the memo is emptied if it is full."""
    if type(value) is Fraction:
        return value
    if type(value) is str:
        known = _memo.get(value)
        if known is not None:
            return known
    if isinstance(value, bool):
        raise ValidationError(f"{str(value).lower()} is not a rational literal")
    if isinstance(value, int):
        if abs(value) >= _INTEGER_LIMIT:
            raise ValidationError(f"integer has more than {MAX_LITERAL_DIGITS} digits")
    elif isinstance(value, str):
        if len(value) > MAX_LITERAL_DIGITS or "e" in value or "E" in value:
            exponent = value.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
            if sum(map(str.isdecimal, value)) > MAX_LITERAL_DIGITS or (
                exponent.isdecimal() and int(exponent) > MAX_LITERAL_DIGITS
            ):
                raise ValidationError(
                    f"rational literal with more than {MAX_LITERAL_DIGITS} digits "
                    f"or an exponent above {MAX_LITERAL_DIGITS}"
                )
    elif isinstance(value, float):
        raise ValidationError(
            f"floats are not exact: {value!r}; pass an int, a 'p/q' string or a Fraction"
        )
    elif not isinstance(value, Fraction):
        raise ValidationError(f"not a rational number: {value!r}")
    try:
        result = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(f"not a rational number: {value!r}") from exc
    if type(value) is str and len(value) <= MAX_LITERAL_DIGITS:
        if len(_memo) >= _MEMO_LIMIT:
            _memo.clear()
        _memo[value] = result
    return result


@dataclass(frozen=True)
class Universe:
    """An ordered tuple of distinct world names; the finest description in play."""

    worlds: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.worlds, str):
            raise ValidationError(f"worlds is a sequence of names, not a string: {self.worlds!r}")
        worlds = tuple(self.worlds)
        object.__setattr__(self, "worlds", worlds)
        if not worlds:
            raise ValidationError("a universe needs at least one world")
        if any(not isinstance(w, str) or not w for w in worlds):
            raise ValidationError("world names must be nonempty strings")
        if len(set(worlds)) != len(worlds):
            raise ValidationError(f"world names must be distinct: {worlds}")
        object.__setattr__(self, "_positions", {w: i for i, w in enumerate(worlds)})
        object.__setattr__(self, "_omega", Event(self, (1 << len(worlds)) - 1))

    @property
    def size(self) -> int:
        return len(self.worlds)

    def index(self, world: Union[str, int]) -> int:
        """Position of a world given by name or by index."""
        if isinstance(world, str):
            try:
                return self._positions[world]  # type: ignore[attr-defined]
            except KeyError:
                raise ValidationError(f"unknown world {world!r}") from None
        if type(world) is int and 0 <= world < self.size:
            return world
        raise ValidationError(f"no world {world!r} in a {self.size}-world universe")

    def event(self, worlds: Iterable[str]) -> Event:
        positions = self._positions  # type: ignore[attr-defined]
        mask = 0
        for w in worlds:
            try:
                mask |= 1 << positions[w]
            except (KeyError, TypeError):  # ``index`` takes int positions and words each refusal
                mask |= 1 << self.index(w)
        return Event(self, mask)

    @property
    def omega(self) -> Event:
        return self._omega  # type: ignore[attr-defined]

    @property
    def empty(self) -> Event:
        return Event(self, 0)


def _require_same_universe(left, right) -> None:
    if left.universe != right.universe:
        raise UniverseMismatchError(
            f"operands live on different universes: "
            f"{left.universe.worlds} vs {right.universe.worlds}"
        )


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Event:
    """A subset of a universe's worlds, stored as a bitmask that must be an ``int``."""

    universe: Universe = field(hash=False)
    mask: int

    def __init__(self, universe: Universe, mask: int):
        if type(mask) is not int:
            raise ValidationError(f"an event mask is an int, not {type(mask).__name__}: {mask!r}")
        if mask < 0 or mask >> universe.size:
            raise ValidationError(f"mask {mask:#x} does not fit a {universe.size}-world universe")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "mask", mask)

    # Boolean structure -------------------------------------------------

    def __and__(self, other: Event) -> Event:
        _require_same_universe(self, other)
        return Event(self.universe, self.mask & other.mask)

    def __or__(self, other: Event) -> Event:
        _require_same_universe(self, other)
        return Event(self.universe, self.mask | other.mask)

    def __sub__(self, other: Event) -> Event:
        _require_same_universe(self, other)
        return Event(self.universe, self.mask & ~other.mask)

    def __invert__(self) -> Event:
        return Event(self.universe, self.universe.omega.mask ^ self.mask)

    def __le__(self, other: Event) -> bool:
        _require_same_universe(self, other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: Event) -> bool:
        return self <= other and self.mask != other.mask

    def __bool__(self) -> bool:
        return self.mask != 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_omega(self) -> bool:
        return self.mask == self.universe.omega.mask

    def indices(self) -> tuple[int, ...]:
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    def worlds(self) -> tuple[str, ...]:
        return tuple(self.universe.worlds[i] for i in self.indices())

    def __repr__(self) -> str:
        return "{" + ",".join(self.worlds()) + "}"


@dataclass(frozen=True)
class Partition:
    """Pairwise disjoint nonempty events whose union is the sure event."""

    universe: Universe
    blocks: tuple[Event, ...]

    def __post_init__(self) -> None:
        blocks = tuple(sorted(self.blocks, key=lambda b: b.mask & -b.mask))
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValidationError("a partition needs at least one block")
        seen = 0
        for block in blocks:
            if block.universe != self.universe:
                raise UniverseMismatchError("partition block bound to a different universe")
            if block.is_empty:
                raise ValidationError("partition blocks must be nonempty")
            if seen & block.mask:
                raise ValidationError("partition blocks must be pairwise disjoint")
            seen |= block.mask
        if seen != self.universe.omega.mask:
            raise ValidationError("partition blocks must cover the whole universe")

    @classmethod
    def finest(cls, universe: Universe) -> Partition:
        return cls(universe, tuple(Event(universe, 1 << i) for i in range(universe.size)))

    @classmethod
    def trivial(cls, universe: Universe) -> Partition:
        return cls(universe, (universe.omega,))

    def __iter__(self) -> Iterator[Event]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return "Partition(" + ", ".join(repr(b) for b in self.blocks) + ")"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Gamble:
    """An exact rational payoff for every world of a universe.

    ``values`` may be a sequence covering all worlds in order, or a
    mapping from world names to rationals; missing names default to 0.
    """

    universe: Universe = field(hash=False)
    values: tuple[Fraction, ...]

    def __init__(self, universe: Universe, values):
        if isinstance(values, Mapping):
            positions = universe._positions  # type: ignore[attr-defined]
            table = [_ZERO] * universe.size
            for name, v in values.items():
                v = v if type(v) is Fraction else as_fraction(v)  # the value first, then the name
                try:
                    table[positions[name]] = v
                except (KeyError, TypeError):
                    table[universe.index(name)] = v
        else:
            seq = [v if type(v) is Fraction else as_fraction(v) for v in values]
            if len(seq) != universe.size:
                raise ValidationError(
                    f"expected {universe.size} payoff values, got {len(seq)}"
                )
            table = seq
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "values", tuple(table))

    @classmethod
    def indicator(cls, event: Event) -> Gamble:
        return cls(
            event.universe,
            [_ONE if (event.mask >> i) & 1 else _ZERO for i in range(event.universe.size)],
        )

    @classmethod
    def constant(cls, universe: Universe, value: RationalLike) -> Gamble:
        return cls(universe, [as_fraction(value)] * universe.size)

    @classmethod
    def zero(cls, universe: Universe) -> Gamble:
        return cls.constant(universe, 0)

    def __getitem__(self, world: Union[str, int]) -> Fraction:
        return self.values[self.universe.index(world)]

    def __add__(self, other: Gamble) -> Gamble:
        _require_same_universe(self, other)
        return Gamble(self.universe, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: Gamble) -> Gamble:
        _require_same_universe(self, other)
        return Gamble(self.universe, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> Gamble:
        return Gamble(self.universe, [-a for a in self.values])

    def __mul__(self, other) -> Gamble:
        if isinstance(other, Gamble):
            _require_same_universe(self, other)
            return Gamble(self.universe, [a * b for a, b in zip(self.values, other.values)])
        scalar = as_fraction(other)
        return Gamble(self.universe, [a * scalar for a in self.values])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        pairs = ", ".join(f"{w}:{v}" for w, v in zip(self.universe.worlds, self.values))
        return f"Gamble({pairs})"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class ConditionalEvent:
    """A pair ``A|B`` with ``B`` nonempty, stored as ``(A and B)|B``.

    Two conditional events are equal exactly when both fields agree,
    which encodes the identification of ``A|B`` with ``(A and B)|B``.
    """

    conditioned: Event
    conditioning: Event

    def __init__(self, conditioned: Event, conditioning: Event):
        _require_same_universe(conditioned, conditioning)
        if conditioning.is_empty:
            raise EmptyConditioningError("conditioning event must be nonempty")
        object.__setattr__(self, "conditioned", conditioned & conditioning)
        object.__setattr__(self, "conditioning", conditioning)

    @property
    def universe(self) -> Universe:
        return self.conditioning.universe

    @property
    def false_part(self) -> Event:
        """Worlds where the conditional event is false: (not A) and B."""
        return self.conditioning - self.conditioned

    @property
    def is_trivial(self) -> bool:
        """True when the value is forced: empty conditioned part, or A|B = B|B."""
        return self.conditioned.is_empty or self.conditioned == self.conditioning

    def __repr__(self) -> str:
        return f"{self.conditioned!r}|{self.conditioning!r}"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class ConditionalGamble:
    """A gamble restricted to a nonempty conditioning event.

    Payoffs outside the conditioning event are irrelevant and are zeroed
    at construction, so equality of the stored fields coincides with the
    intended identification (same conditioning, same payoffs on it).
    """

    payoff: Gamble
    conditioning: Event

    def __init__(self, payoff: Gamble, conditioning: Event):
        _require_same_universe(payoff, conditioning)
        if conditioning.is_empty:
            raise EmptyConditioningError("conditioning event must be nonempty")
        mask = conditioning.mask
        # on Ω there is nothing to zero, and a plain Gamble is kept as it is
        if not (type(payoff) is Gamble and conditioning.is_omega):
            zeroed = [v if (mask >> i) & 1 else _ZERO for i, v in enumerate(payoff.values)]
            payoff = Gamble(payoff.universe, zeroed)
        object.__setattr__(self, "payoff", payoff)
        object.__setattr__(self, "conditioning", conditioning)

    @classmethod
    def from_event(cls, ce: ConditionalEvent) -> ConditionalGamble:
        return cls(Gamble.indicator(ce.conditioned), ce.conditioning)

    @property
    def universe(self) -> Universe:
        return self.conditioning.universe

    def __neg__(self) -> ConditionalGamble:
        return ConditionalGamble(-self.payoff, self.conditioning)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.universe.worlds[i]}:{self.payoff.values[i]}" for i in self.conditioning.indices()
        )
        return f"({pairs})|{self.conditioning!r}"


# ---------------------------------------------------------------------------
# Partition operations


def generated_partition(universe: Universe, events: Iterable[Event]) -> Partition:
    """The partition whose blocks are the nonempty products of the events and
    their complements. With no events this is the one-block partition."""
    events = list(events)
    for e in events:
        if e.universe != universe:
            raise UniverseMismatchError("generated_partition: event on a different universe")
    cells: dict[tuple[int, ...], int] = {}
    for i in range(universe.size):
        signature = tuple((e.mask >> i) & 1 for e in events)
        cells[signature] = cells.get(signature, 0) | (1 << i)
    return Partition(universe, tuple(Event(universe, m) for m in cells.values()))


def product_partition(p: Partition, q: Partition) -> Partition:
    """The coarsest common refinement: nonempty pairwise block intersections."""
    _require_same_universe(p, q)
    blocks = []
    for a in p.blocks:
        for b in q.blocks:
            cell = a.mask & b.mask
            if cell:
                blocks.append(Event(p.universe, cell))
    return Partition(p.universe, tuple(blocks))


def inner_event(e: Event, p: Partition) -> Event:
    """Union of the blocks of ``p`` contained in ``e``: the largest
    p-measurable event inside ``e``."""
    _require_same_universe(e, p)
    mask = 0
    for block in p.blocks:
        if block.mask & ~e.mask == 0:
            mask |= block.mask
    return Event(e.universe, mask)


def outer_event(e: Event, p: Partition) -> Event:
    """Union of the blocks of ``p`` meeting ``e``: the smallest
    p-measurable event containing ``e``."""
    _require_same_universe(e, p)
    mask = 0
    for block in p.blocks:
        if block.mask & e.mask:
            mask |= block.mask
    return Event(e.universe, mask)


def is_logically_dependent(e: Event, p: Partition) -> bool:
    """True when ``e`` is a union of blocks of ``p``."""
    return inner_event(e, p) == e


# ---------------------------------------------------------------------------
# Gamble extrema


def sup_over(x: Gamble, b: Event) -> Fraction:
    """Maximum of ``x`` over the worlds of ``b`` (finite, so sup is max)."""
    _require_same_universe(x, b)
    if b.is_empty:
        raise EmptyConditioningError("sup over the empty event is undefined")
    return max(x.values[i] for i in b.indices())


def inf_over(x: Gamble, b: Event) -> Fraction:
    """Minimum of ``x`` over the worlds of ``b``."""
    _require_same_universe(x, b)
    if b.is_empty:
        raise EmptyConditioningError("inf over the empty event is undefined")
    return min(x.values[i] for i in b.indices())
