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
everywhere on the union of the conditioning events involved.

Sure loss, dF, W and convex are decided by zero-layer rounds (Biazzo &
Gilio, IJAR 24, 2000; Walley, Pelessoni & Vicig, J. Statist. Plann.
Inference 126, 2004; Pelessoni & Vicig, IJAR 39, 2005). A round is one
exact LP over masses alpha(w) >= 0 on the union of the live entries'
conditioning events, with total at most 1: every live entry must have
sum_w alpha(w) c_j(w) >= 0, where c_j = X_j - v_j on B_j and 0 off it;
dF asks == 0 of every entry and W of the entry under test. Entries whose
conditioning event meets the support of alpha are settled, the rest go
on to the next round, and a round that can give mass to no world stalls.
By the alternative theorem a stall is exactly a gain over the live
entries that is strictly negative on their union, so the assessment is
inconsistent; when every entry is settled it is consistent. Sure loss
and dF take one sequence of at most m rounds. W takes, for each entry j0
in turn, a sequence that stops once j0 is settled. Each round is one LP
maximising alpha(union) + alpha(B_j0): a feasible alpha scales to total
1, so the optimum charges B_j0 whenever any feasible alpha does. No
choice of optimal alpha moves a stall set L, hence a witness: the alpha
of the first round of another sequence to settle an entry of L,
restricted to the union of L, would keep every sum of L (each c_j
vanishes off B_j) and still charge that entry.

W's fallback is the sure-loss search itself: once a W sequence stalls,
W returns the sure-loss witness if there is one, the stalled j0's
witness otherwise. That is the verdict and witness of running sure loss
first: by the same restriction argument, a sure-loss stall set L stalls
the sequence of every j0 in L, so when every j0 sequence settles, the
sure-loss sequence would have settled as well.

The first-round alpha of each sequence that settles is kept with the
least of its sums over all entries, centering ones included. One rule
serves W and convex: the sequence for a later j0 is skipped when a kept
alpha charges B_j0 and its j0 sum is that least sum. For W the least sum
is 0: a first round keeps every sum >= 0 and its tested entry's at 0.
Such an alpha is feasible for the first round of j0's sequence and
charges B_j0, so that round's optimum charges B_j0 too: the skipped
sequence would have settled j0 at once, without a stall, and skipping it
moves no verdict and no witness.

``convex`` takes one such sequence per entry j0 bet against, centering
entries included, over the rows c_j - c_j0; row j0 is then zero. This is
exact: by LP duality the gains over a subfamily S with j0 bet against
have no violation exactly when some probability alpha on the union U_S
has sum_w alpha(w) (c_j(w) - c_j0(w)) >= 0 for every j in S. A round's
alpha, restricted to U_S, keeps those sums, because each c_j vanishes
off B_j, so W's settling argument carries over word for word, and a
kept alpha whose j0 sum is its least keeps every row shifted by c_j0
nonnegative, so the skip rule holds here too.

A stall yields the witness through one gain LP, which one function,
:func:`_violating_stakes`, builds, solves and decodes: maximize a margin
eps subject to sum_j x_j c_j(w) + eps <= r(w) at each world w of the
chosen entries' conditioning union, with x >= 0 and sum_j x_j at most
(or, for ``convex``, exactly) 1. The classes differ only in their stake
columns c_j, their right-hand side r and that normalisation. A strictly
positive optimum yields a witness gain, re-checked by direct evaluation
before it is returned. Gains are positively homogeneous in the stakes,
so the normalization loses no violations. Rounds and gain LPs share one
integer form of the c_j, scaled by one lcm. A round divides each of its
constraint rows by that row's own gcd: a positive scaling of a ``<= 0``
row keeps every pivot and every alpha and keeps the tableau entries
small. The gain LPs keep the one lcm, because their stake columns sit
next to an unscaled normalisation row, where a scaling would change the
LP. The ``1convex`` search needs no LP and scans ordered pairs of
entries over the same rows.

Entries listed more than once in a gain collapse by summing stakes,
which leaves the gain unchanged; assessments therefore store each
conditional gamble once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .algebra import ConditionalEvent, ConditionalGamble, Event, Gamble, Universe
from .algebra import _require_same_universe, as_fraction
from .assessments import Assessment, normalize_class
from .errors import EnumerationLimitError, ValidationError
from .simplex import solve_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)

MAX_ENTRIES = 64


@dataclass(frozen=True)
class GainTerm:
    """One bet inside a gain: a stake on a conditional gamble at its assessed value."""

    stake: Fraction
    gamble: ConditionalGamble
    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.gamble, ConditionalGamble):
            raise ValidationError("a gain term bets on a ConditionalGamble")
        object.__setattr__(self, "stake", as_fraction(self.stake))
        object.__setattr__(self, "value", as_fraction(self.value))


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
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValidationError("a gain needs at least one term")
        against = self.against
        if against is not None and (type(against) is not int or not 0 <= against < len(self.terms)):
            raise ValidationError("against index out of range")
        for term in self.terms[1:]:
            _require_same_universe(self.terms[0].gamble, term.gamble)

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
    i = spec.universe.index(world)
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
        object.__setattr__(self, "centering", tuple(self.centering))
        if self.witness is not None and not isinstance(self.witness, GainSpec):
            raise ValidationError("a witness is a GainSpec")
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
# Integer rows, gain LPs and zero-layer rounds


def _rows(entries):
    """Per entry: the conditioning mask, and the coefficient row X(w) -
    value on it, 0 elsewhere. Every row is scaled by one positive lcm of
    the reduced denominators of all those differences to ints, so every
    sign and difference keeps its sign. A row's differences are put over
    the lcm q of its denominators; the gcd g of q and their numerators
    reduces them all, so their reduced denominators have lcm q // g."""
    masks, rows, dens = [], [], []
    for g, v in entries:
        mask = g.conditioning.mask
        p, q = v.as_integer_ratio()
        ratios = [x.as_integer_ratio() for x in g.payoff.values]
        common = lcm(q, *[b for _, b in ratios])
        top = p * (common // q)
        nums = [a * (common // b) - top if (mask >> w) & 1 else 0 for w, (a, b) in enumerate(ratios)]
        divisor = gcd(common, *nums)
        masks.append(mask)
        rows.append([c // divisor for c in nums])
        dens.append(common // divisor)
    scale = lcm(*dens)
    return masks, [[c * (scale // d) for c in row] if d != scale else row for row, d in zip(rows, dens)]


def _world_indices(mask: int, n: int):
    return [i for i in range(n) if (mask >> i) & 1]


def _violating_stakes(cls, chosen, against, masks, rows):
    """(stakes in favour of the chosen entries, stake against) of the
    gain LP on one cell, or None unless its optimal eps is strictly
    positive. Stake columns: free-signed stakes split as +c and -c for
    dF, a stake against the designated entry for W, stakes in favour only
    for asl, all with r = 0; for convex, stakes in favour summing to a
    unit stake against, with r the row of the entry bet against."""
    n = len(rows[0])
    columns = [rows[k] for k in chosen]
    rhs, rel = [0] * n, "<="
    if cls == "convex":
        rhs, rel = rows[against], "=="
    else:
        against_rows = chosen if cls == "dF" else [against] if cls == "W" else []
        columns += [[-v for v in rows[k]] for k in against_rows]
    union = 0
    for k in chosen:
        union |= masks[k]
    constraints = [
        ([col[w] for col in columns] + [1], "<=", rhs[w]) for w in _world_indices(union, n)
    ]
    constraints.append(([1] * len(columns) + [0], rel, 1))
    result = solve_lp([0] * len(columns) + [1], constraints)
    if result.status != "optimal":
        raise AssertionError("a gain LP is feasible and bounded")
    if result.objective <= 0:
        return None
    x, t = result.solution[:-1], len(chosen)
    if cls == "dF":
        return [u - v for u, v in zip(x[:t], x[t:])], _ZERO
    if cls == "W":
        return x[:t], x[t]
    return x, (_ONE if cls == "convex" else _ZERO)


def _gain(entries, chosen, against, favour, sigma) -> GainSpec:
    """The gain with these stakes; the entry bet against is a last term."""
    terms = tuple(GainTerm(s, *entries[k]) for s, k in zip(favour, chosen))
    if sigma > 0:
        return GainSpec(terms + (GainTerm(sigma, *entries[against]),), against=len(terms))
    return GainSpec(terms)


def _rounds(masks, rows, n, both_ways, j0):
    """One sequence of zero-layer rounds: (the live entries at a stall, or
    None once every entry (or, with ``j0``, that entry) is settled; the
    masses {world: alpha(w) > 0} of each round that charged a world).

    A round looks for masses alpha >= 0 on the union of the live
    conditioning events, with total at most 1, under which no live entry
    loses on average: sum over B_j of alpha(w) c_j(w) >= 0, and == 0 for
    every entry when ``both_ways``, for ``j0`` alone otherwise. One LP
    maximises alpha(union) + alpha(B_j0), so it charges B_j0 whenever
    some feasible alpha does; live entries whose B_j meets its support are
    settled, and a round that can give mass to no world stalls. Each row
    is divided by its own gcd, which keeps every pivot and every alpha.
    """
    live = list(range(len(masks)))
    weight = 0 if j0 is None else masks[j0]
    layers = []
    while live:
        union = 0
        for j in live:
            union |= masks[j]
        worlds = _world_indices(union, n)
        equal = live if both_ways else [] if j0 is None else [j0]
        signed = [[-rows[j][w] for w in worlds] for j in live]
        signed += [[rows[j][w] for w in worlds] for j in equal]
        constraints = []
        for coeffs in signed:
            # gcd 0 marks an all-zero row, which never wins Bland's ratio
            # test: dropping it keeps every pivot.
            g = gcd(*coeffs)
            if g:
                constraints.append(([c // g for c in coeffs], "<=", 0))
        constraints.append(([1] * len(worlds), "<=", 1))
        result = solve_lp([1 + ((weight >> w) & 1) for w in worlds], constraints)
        if result.objective == 0:
            return live, layers
        alpha = {w: mass for w, mass in zip(worlds, result.solution) if mass}
        layers.append(alpha)
        support = sum(1 << w for w in alpha)
        if support & weight:
            return None, layers
        live = [j for j in live if not masks[j] & support]
    return None, layers


def _charged(alpha, rows):
    """(support mask, sum_w alpha(w) row(w) for each row) of one round's
    masses, the sums as integers over the lcm of the masses' denominators."""
    scale = lcm(*(mass.denominator for mass in alpha.values()))
    weights = [(w, mass.numerator * (scale // mass.denominator)) for w, mass in alpha.items()]
    return sum(1 << w for w in alpha), [sum(a * row[w] for w, a in weights) for row in rows]


def _round_search(entries, cls, masks, rows) -> Optional[GainSpec]:
    """Sure loss and dF in one sequence of rounds; W and convex in one
    sequence per entry bet against, over the rows shifted by that entry's
    row for convex. Each settled sequence keeps its first-round masses and
    their least sum; a later j0 is skipped when kept masses charge B_j0
    and their j0 sum is that least sum (0 for W). A stall yields the
    witness: the cell LP on the stalled entries, solved again on the
    entries it stakes and the entry bet against. W's fallback is this
    search for sure loss, whose witness it returns if there is one."""
    n = len(rows[0])
    stored = []  # (support, sums, least sum) per first-round alpha
    for j0 in range(len(entries)) if cls in ("W", "convex") else [None]:
        if any(support & masks[j0] and sums[j0] == least for support, sums, least in stored):
            continue
        shifted = rows
        if cls == "convex":
            shifted = [[a - b for a, b in zip(row, rows[j0])] for row in rows]
        live, layers = _rounds(masks, shifted, n, cls == "dF", j0)
        if live is None:
            support, sums = _charged(layers[0], rows)
            stored.append((support, sums, min(sums)))
            continue
        if cls == "W":
            sure_loss = _round_search(entries, "asl", masks, rows)
            if sure_loss is not None:
                return sure_loss
        stakes = _violating_stakes(cls, live, j0, masks, rows)
        if stakes is None:
            raise AssertionError("a stalled round has a violating gain")
        chosen = [k for k, s in zip(live, stakes[0]) if s or k == j0]
        return _gain(entries, chosen, j0, *_violating_stakes(cls, chosen, j0, masks, rows))
    return None


def _one_convex_search(entries, masks, rows) -> Optional[GainSpec]:
    """Single-pair gains with unit stakes: one bet for, one bet against.

    Row i is 0 off B_i, so the pair (i, j) can lose everywhere only if
    row i < 0 on B_i - B_j and row j > 0 on B_j - B_i; two bitmasks rule
    out the other pairs, and the rows are compared on B_i & B_j alone."""
    n = len(rows[0])
    negative = [sum(1 << w for w in range(n) if row[w] < 0) for row in rows]
    positive = [sum(1 << w for w in range(n) if row[w] > 0) for row in rows]
    for j in range(len(entries)):
        for i in range(len(entries)):
            if i == j or masks[i] & ~masks[j] & ~negative[i] or masks[j] & ~masks[i] & ~positive[j]:
                continue
            left, right = rows[i], rows[j]
            if all(left[w] < right[w] for w in _world_indices(masks[i] & masks[j], n)):
                return _gain(entries, [i], j, [_ONE], _ONE)
    return None


def _with_centering(entries):
    """Append 0|B entries valued 0 for every conditioning event present.

    A zero gamble already assessed at 0 is the centering entry itself; one
    assessed at any other value contradicts centering, and the search
    exposes that through the added entry.
    """
    # Entries share one universe, so a conditioning event is known by its mask.
    centered = {g.conditioning.mask for g, v in entries if v == 0 and not any(g.payoff.values)}
    zero = Gamble.zero(entries[0][0].universe)
    added = []
    for gamble, _ in entries:
        b = gamble.conditioning
        if b.mask not in centered:
            centered.add(b.mask)
            added.append(ConditionalGamble(zero, b))
    return entries + [(z, _ZERO) for z in added], tuple(added)


def _decide(assessment: Assessment, cls: str) -> Verdict:
    """Cap, conjugate, center, search and re-check the witness."""
    if len(assessment.entries) > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"{len(assessment.entries)} entries exceed the cap of {MAX_ENTRIES}"
        )
    if assessment.kind == "upper":
        assessment = conjugate(assessment)
    entries = list(assessment.entries)
    if not entries:
        return Verdict(True)
    centering: tuple[ConditionalGamble, ...] = ()
    if cls in ("convex", "1convex"):
        entries, centering = _with_centering(entries)
    masks, rows = _rows(entries)
    if cls == "1convex":
        witness = _one_convex_search(entries, masks, rows)
    else:
        witness = _round_search(entries, cls, masks, rows)

    if witness is None:
        return Verdict(True, None, centering)
    if conditioned_max(witness) >= 0:
        raise AssertionError("LP produced a non-violating witness")
    return Verdict(False, witness, centering)


def check(assessment: Assessment, consistency: Optional[str] = None) -> Verdict:
    """Decide consistency of an assessment for the given class.

    Upper assessments are conjugated first, so a single lower-prevision
    gain form covers everything. The witness, when present, has its
    conditioned maximum strictly negative. For dF, W and convex it comes
    from the stalled round: the gain LP on the entries still live there
    (with no bet against if W already fails as sure loss, else a bet
    against the entry under test), solved again on the entries it gives a
    nonzero stake plus the entry under test. For 1convex it is the first
    violating ordered pair.
    """
    return _decide(assessment, normalize_class(consistency or assessment.consistency or "W"))


def check_avoiding_sure_loss(assessment: Assessment) -> Verdict:
    """The weaker no-sure-loss condition: only bets in favour, so a
    violation is a nonnegative-stake gain strictly negative on its
    conditioning union. The witness is the gain LP on the entries live
    at the stalled round, solved again on the entries it stakes."""
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
