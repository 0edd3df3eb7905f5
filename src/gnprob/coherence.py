"""Gain-based consistency checks for conditional prevision assessments.

Four classes are decided exactly:

* ``dF``      free real stakes (de Finetti style precise coherence),
* ``W``       nonnegative stakes with one bet against (Williams style),
* ``convex``  as ``W`` plus the constraint that the stakes in favour sum
              to the stake against, with centering entries 0|B valued 0,
* ``1convex`` the convex condition restricted to single bet-against-bet
              gains with unit stakes.

:func:`check_avoiding_sure_loss` decides the weaker no-sure-loss
condition, whose gains have nonnegative stakes and no bet against.

An assessment is inconsistent for a class exactly when some gain built
from its entries under the class stake pattern is strictly negative
everywhere on the union of the conditioning events involved. Because
that union depends on which entries take part, the checker enumerates
every nonempty subfamily of entries (and, for the classes with a bet
against, every choice of the entry bet against) and solves one small
exact-rational LP per cell. Every cell is the same LP: maximize a margin
eps subject to sum_j x_j c_j(w) + eps <= r(w) at each world w of the
subfamily's conditioning union, with x >= 0 and sum_j x_j at most (or,
for ``convex``, exactly) 1. The classes differ only in their stake
columns c_j, their right-hand side r and that normalisation; the
``1convex`` search needs no LP. A strictly positive optimum yields a
witness gain, re-checked by direct evaluation before it is returned.
Gains are positively homogeneous in the stakes, so the normalization
loses no violations.

Entries listed more than once in a gain collapse by summing stakes,
which leaves the gain unchanged; assessments therefore store each
conditional gamble once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import ConditionalEvent, ConditionalGamble, Event, Gamble, Universe
from .assessments import Assessment, normalize_class
from .errors import EnumerationLimitError, ValidationError
from .simplex import solve_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)

MAX_ENTRIES = 16


@dataclass(frozen=True)
class GainTerm:
    """One bet inside a gain: a stake on a conditional gamble at its assessed value."""

    stake: Fraction
    gamble: ConditionalGamble
    value: Fraction


@dataclass(frozen=True)
class GainSpec:
    """A linear gain over an assessment's entries.

    ``against`` indexes the term whose bet is placed against (its
    contribution is subtracted); None means every term is in favour, or,
    for the dF class, that stakes carry their own signs.
    """

    terms: tuple[GainTerm, ...]
    against: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValidationError("a gain needs at least one term")
        if self.against is not None and not 0 <= self.against < len(self.terms):
            raise ValidationError("against index out of range")

    @property
    def universe(self):
        return self.terms[0].gamble.universe

    def conditioning(self) -> Event:
        """Union of the conditioning events of all terms, zero stakes included."""
        mask = 0
        for term in self.terms:
            mask |= term.gamble.conditioning.mask
        return Event(self.universe, mask)


def evaluate_gain(spec: GainSpec, world) -> Fraction:
    """The gain's payoff at a world (name or index); bets whose
    conditioning event excludes the world are called off."""
    universe = spec.universe
    i = universe.index(world) if isinstance(world, str) else int(world)
    total = _ZERO
    for k, term in enumerate(spec.terms):
        if (term.gamble.conditioning.mask >> i) & 1:
            contribution = term.stake * (term.gamble.payoff.values[i] - term.value)
            total += -contribution if k == spec.against else contribution
    return total


def conditioned_max(spec: GainSpec) -> Fraction:
    """Maximum of the gain over its conditioning union."""
    return max(evaluate_gain(spec, i) for i in spec.conditioning().indices())


@dataclass(frozen=True)
class Verdict:
    """Outcome of a consistency check, with an exact certificate on failure."""

    consistent: bool
    witness: Optional[GainSpec] = None
    centering: tuple[ConditionalGamble, ...] = ()

    def __post_init__(self) -> None:
        if self.consistent and self.witness is not None:
            raise ValidationError("a consistent verdict carries no witness")
        if not self.consistent and self.witness is None:
            raise ValidationError("an inconsistent verdict needs a witness")


def conjugate(assessment: Assessment) -> Assessment:
    """Mirror a lower assessment into its upper counterpart and back:
    entries (X|B, v) become (-X|B, -v) with the kind tag flipped."""
    if assessment.kind == "precise":
        raise ValidationError("conjugation applies to lower or upper assessments only")
    flipped = "upper" if assessment.kind == "lower" else "lower"
    entries = tuple((-g, -v) for g, v in assessment.entries)
    return Assessment(entries, flipped, assessment.consistency)


# ---------------------------------------------------------------------------
# The LP grid


def _entry_data(entries):
    """Per entry: conditioning mask and coefficient vector X(w) - value on it."""
    coeffs = []
    masks = []
    for gamble, value in entries:
        n = gamble.universe.size
        mask = gamble.conditioning.mask
        masks.append(mask)
        coeffs.append(
            [
                gamble.payoff.values[i] - value if (mask >> i) & 1 else _ZERO
                for i in range(n)
            ]
        )
    return masks, coeffs


def _world_indices(mask: int, n: int):
    return [i for i in range(n) if (mask >> i) & 1]


def _gain_lp(columns, rhs, rel, worlds) -> Optional[tuple]:
    """Stakes x >= 0 maximizing eps subject to sum_j x_j columns[j][w] +
    eps <= rhs[w] at the given worlds and to sum_j x_j ``rel`` 1; None
    unless the optimal eps is strictly positive."""
    constraints = [([col[w] for col in columns] + [_ONE], "<=", rhs[w]) for w in worlds]
    constraints.append(([_ONE] * len(columns) + [_ZERO], rel, _ONE))
    result = solve_lp([_ZERO] * len(columns) + [_ONE], constraints)
    if result.status != "optimal":
        raise AssertionError("a gain LP is feasible and bounded")
    return result.solution[:-1] if result.objective > 0 else None


def _cell(cls, chosen, against, coeffs, negated, zero):
    """Stake columns, right-hand side and normalisation of one cell:
    free-signed stakes split as +c and -c for dF, a stake against the
    designated entry for W, stakes in favour summing to a unit stake
    against for convex, stakes in favour only for asl."""
    favour = [coeffs[k] for k in chosen]
    if cls == "dF":
        return favour + [negated[k] for k in chosen], zero, "<="
    if cls == "W":
        return favour + [negated[against]], zero, "<="
    if cls == "convex":
        return favour, coeffs[against], "=="
    return favour, zero, "<="


def _stakes(cls, x, t):
    """The LP's stakes as (stakes in favour of the chosen entries, stake against)."""
    if cls == "dF":
        return [u - v for u, v in zip(x[:t], x[t:])], _ZERO
    if cls == "W":
        return x[:t], x[t]
    return x, (_ONE if cls == "convex" else _ZERO)


def _grid_search(entries, cls) -> Optional[GainSpec]:
    """The first violating gain over (subfamily, entry bet against) cells."""
    masks, coeffs = _entry_data(entries)
    negated = [[-v for v in c] for c in coeffs]
    n = entries[0][0].universe.size
    zero = [_ZERO] * n
    m = len(entries)
    for subset in range(1, 1 << m):
        chosen = [k for k in range(m) if (subset >> k) & 1]
        union = 0
        for k in chosen:
            union |= masks[k]
        worlds = _world_indices(union, n)
        for against in chosen if cls in ("W", "convex") else (None,):
            x = _gain_lp(*_cell(cls, chosen, against, coeffs, negated, zero), worlds)
            if x is None:
                continue
            favour, sigma = _stakes(cls, x, len(chosen))
            terms = tuple(GainTerm(s, *entries[k]) for s, k in zip(favour, chosen))
            if sigma > 0:
                return GainSpec(terms + (GainTerm(sigma, *entries[against]),), against=len(terms))
            return GainSpec(terms)
    return None


def _one_convex_search(entries) -> Optional[GainSpec]:
    """Single-pair gains with unit stakes: one bet for, one bet against."""
    masks, coeffs = _entry_data(entries)
    n = entries[0][0].universe.size
    for j in range(len(entries)):
        for i in range(len(entries)):
            if i == j:
                continue
            union = masks[i] | masks[j]
            worst = max(coeffs[i][w] - coeffs[j][w] for w in _world_indices(union, n))
            if worst < 0:
                terms = (
                    GainTerm(_ONE, entries[i][0], entries[i][1]),
                    GainTerm(_ONE, entries[j][0], entries[j][1]),
                )
                return GainSpec(terms, against=1)
    return None


def _with_centering(entries):
    """Append 0|B entries valued 0 for every conditioning event present.

    A zero gamble already assessed at 0 is the centering entry itself; one
    assessed at any other value contradicts centering, and the search
    exposes that through the added entry.
    """
    values = {g: v for g, v in entries}
    added = []
    seen = []
    for gamble, _ in entries:
        b = gamble.conditioning
        if b in seen:
            continue
        seen.append(b)
        zero = ConditionalGamble(Gamble.zero(b.universe), b)
        if values.get(zero) != _ZERO:
            added.append(zero)
    return entries + [(z, _ZERO) for z in added], tuple(added)


def _decide(assessment: Assessment, cls: str) -> Verdict:
    """Conjugate, cap, center, search and re-check the witness."""
    if assessment.kind == "upper":
        assessment = conjugate(assessment)
    entries = list(assessment.entries)
    if not entries:
        return Verdict(True)
    if len(entries) > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"{len(entries)} entries exceed the subfamily enumeration cap of {MAX_ENTRIES}"
        )
    centering: tuple[ConditionalGamble, ...] = ()
    if cls in ("convex", "1convex"):
        entries, centering = _with_centering(entries)

    if cls == "1convex":
        witness = _one_convex_search(entries)
    else:
        witness = _grid_search(entries, cls)

    if witness is None:
        return Verdict(True, None, centering)
    if conditioned_max(witness) >= 0:
        raise AssertionError("LP produced a non-violating witness")
    return Verdict(False, witness, centering)


def check(assessment: Assessment, consistency: Optional[str] = None) -> Verdict:
    """Decide consistency of an assessment for the given class.

    Upper assessments are conjugated first, so a single lower-prevision
    gain form covers everything. The witness, when present, is the first
    violating gain in a fixed enumeration order of (subfamily, entry bet
    against) cells, with its conditioned maximum strictly negative.
    """
    return _decide(assessment, normalize_class(consistency or assessment.consistency or "W"))


def check_avoiding_sure_loss(assessment: Assessment) -> Verdict:
    """The weaker no-sure-loss condition: only bets in favour, so a
    violation is a nonnegative-stake gain strictly negative on its
    conditioning union."""
    return _decide(assessment, "asl")


def asl_monotonicity_counterexample() -> tuple[Assessment, tuple[ConditionalEvent, ConditionalEvent]]:
    """A stored unconditional lower probability that avoids sure loss yet
    values an event above one it implies.

    With E valued 3/4 and the larger F valued 1/2, every gain from bets
    in favour is nonnegative at the world where both events hold, so no
    sure loss exists, while monotonicity (hence any of the consistency
    classes) fails on the pair.
    """
    universe = Universe(("u", "v", "w"))
    e = universe.event(["u"])
    f = universe.event(["u", "v"])
    omega = universe.omega
    assessment = Assessment(
        (
            (ConditionalGamble(Gamble.indicator(e), omega), Fraction(3, 4)),
            (ConditionalGamble(Gamble.indicator(f), omega), Fraction(1, 2)),
        ),
        kind="lower",
        consistency="W",
    )
    pair = (ConditionalEvent(e, omega), ConditionalEvent(f, omega))
    return assessment, pair
