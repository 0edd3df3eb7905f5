"""Test-only oracles and helpers.

The library computes extensions in closed form through inner and outer
conditional events and never enumerates a partition's field. The
enumerators here do, so the tests can cross-check the closed forms
against brute force on small partitions. ``scaled`` rescales a witness
gain, for the tests of positive homogeneity.

The library evaluates layered probabilities and decides the GN order on
gambles with integer numerators. The ``oracle_*`` functions here are the
direct ``Fraction`` versions, world by world, which the integer kernels
must agree with exactly. ``oracle_with_centering`` finds the centering
entries of a convex check by building and looking up every ``0|B``.

``as_fraction`` memoises the strings it has read; ``oracle_as_fraction``
is the same reader without the memo, which expands every string through
``Fraction(str)``, and the two must give the same value or the same
refusal.

``ConditionalGamble`` zeroes its payoff off B by the bits of B's mask;
``oracle_conditional_payoff`` multiplies by the indicator of B instead,
and the two must be equal.

The library decides consistency by zero-layer rounds. ``grid_search``
solves the gain LP of every (subfamily, entry bet against) cell instead,
2^m - 1 subfamilies, and the two must agree on every verdict.
``oracle_rounds`` runs a sequence of rounds with two LPs per round while
the entry under test is live, the first asking whether its conditioning
event can get mass at all; the library's one weighted LP per round must
stall at the same live set.

The library keeps the first-round masses of each sequence and skips a
later sequence that they already settle; its rounds divide each row by
the row's gcd, and its ``1convex`` scan rules out pairs by sign masks.
``oracle_check`` decides without any of that: ``oracle_round_search``
runs every sequence, the sure-loss one first for W, in weighted rounds
over the lcm rows, with ``oracle_violating_stakes`` solving each gain LP
on the lcm rows where the library divides every stake column by its
gcd, and ``oracle_one_convex_search`` compares every
ordered pair of rows on their whole conditioning union. Verdicts and
witnesses must be equal.

The library's level-set bound maps each value of X on B to its level
mask in one pass over B; ``oracle_finite_values_lower_bound`` rescans B
for each distinct value, and the two must give equal reports.

The library builds the integer rows of a check from integer ratios;
``oracle_rows`` subtracts each value from the payoff in ``Fraction``s
and scales by the lcm of the differences' denominators, and the two
must give the same ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Optional

from gnprob import (
    Assessment,
    BoundReport,
    ConditionalEvent,
    ConditionalGamble,
    EmptyConditioningError,
    EnumerationLimitError,
    Event,
    GainSpec,
    GainTerm,
    Gamble,
    LayeredProbability,
    MonotonicityViolation,
    Partition,
    ValidationError,
    Verdict,
    coherence,
    conditional_inner,
    conjugate,
    gn_leq_events,
    inf_over,
    solve_lp,
    sup_over,
)
from gnprob.algebra import _INTEGER_LIMIT, MAX_LITERAL_DIGITS, RationalLike
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


def oracle_as_fraction(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    A value whose type is exactly ``Fraction`` is returned as it is.
    Bools are refused, as are an int of more than ``MAX_LITERAL_DIGITS``
    digits and a string with more digits than that or an exponent above
    it; each is refused before it is expanded. Every type outside
    ``RationalLike`` is refused too: a float is not exact, and a
    ``Decimal`` such as ``Decimal("1e-300000")`` would expand its
    exponent with no cap."""
    if type(value) is Fraction:
        return value
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
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(f"not a rational number: {value!r}") from exc


def _oracle_mass(layer, mask: int) -> Fraction:
    return sum((m for i, m in enumerate(layer) if (mask >> i) & 1), Fraction(0))


def oracle_probability(lp: LayeredProbability, ce: ConditionalEvent) -> Fraction:
    """P(A|B) from the first layer giving B positive mass, in Fractions."""
    for layer in lp.layers:
        denom = _oracle_mass(layer, ce.conditioning.mask)
        if denom > 0:
            return _oracle_mass(layer, ce.conditioned.mask) / denom
    raise AssertionError("layer supports cover the universe")


def oracle_prevision(lp: LayeredProbability, cg: ConditionalGamble) -> Fraction:
    """P(X|B) under the first layer charging B, in Fractions."""
    for layer in lp.layers:
        denom = _oracle_mass(layer, cg.conditioning.mask)
        if denom > 0:
            total = sum(
                (cg.payoff.values[i] * layer[i] for i in cg.conditioning.indices()),
                Fraction(0),
            )
            return total / denom
    raise AssertionError("layer supports cover the universe")


def oracle_conditional_payoff(payoff: Gamble, b: Event) -> Gamble:
    """The payoff of X|B zeroed off B, as the product X * 1_B."""
    return payoff * Gamble.indicator(b)


def oracle_gn_leq_gambles(xb: ConditionalGamble, yd: ConditionalGamble) -> bool:
    """X|B GN-below Y|D, checked world by world in Fractions."""
    b_mask = xb.conditioning.mask
    d_mask = yd.conditioning.mask
    sup_x = sup_over(xb.payoff, xb.conditioning)
    inf_y = inf_over(yd.payoff, yd.conditioning)
    xs = xb.payoff.values
    ys = yd.payoff.values
    union = b_mask | d_mask
    for i in range(xb.universe.size):
        bit = 1 << i
        if not union & bit:
            continue
        lhs = xs[i]
        rhs = ys[i]
        if d_mask & bit and not b_mask & bit:
            lhs += sup_x
        if b_mask & bit and not d_mask & bit:
            rhs += inf_y
        if lhs > rhs:
            return False
    return True


def oracle_monotonicity_audit(assessment: Assessment) -> list[MonotonicityViolation]:
    """Every ordered entry pair, tested with ``oracle_gn_leq_gambles``."""
    entries = assessment.entries
    return [
        MonotonicityViolation(i, j, left, right, lv, rv)
        for i, (left, lv) in enumerate(entries)
        for j, (right, rv) in enumerate(entries)
        if i != j and lv > rv and oracle_gn_leq_gambles(left, right)
    ]


def oracle_with_centering(entries):
    """``coherence._with_centering`` by lookup: 0|B valued 0 for every
    conditioning event B, in first-seen order, unless already assessed at 0."""
    values = {g: v for g, v in entries}
    added = []
    seen = []
    for gamble, _ in entries:
        b = gamble.conditioning
        if b in seen:
            continue
        seen.append(b)
        zero = ConditionalGamble(Gamble.zero(b.universe), b)
        if values.get(zero) != 0:
            added.append(zero)
    return entries + [(z, Fraction(0)) for z in added], tuple(added)


def oracle_rows(entries):
    """``coherence._rows`` in Fractions: X(w) - value on B, 0 off it,
    times the lcm of all those differences' denominators."""
    masks = [g.conditioning.mask for g, _ in entries]
    n = entries[0][0].universe.size
    coeffs = [
        [g.payoff.values[i] - v if (mask >> i) & 1 else Fraction(0) for i in range(n)]
        for (g, v), mask in zip(entries, masks)
    ]
    scale = lcm(*(c.denominator for row in coeffs for c in row))
    return masks, [[c.numerator * (scale // c.denominator) for c in row] for row in coeffs]


def oracle_violating_stakes(cls, chosen, against, masks, rows):
    """``coherence._violating_stakes`` over the unreduced stake columns,
    with a unit normalisation row, solved by ``coherence.solve_lp`` as
    the library's gain LPs are."""
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
        ([col[w] for col in columns] + [1], "<=", rhs[w]) for w in coherence._world_indices(union, n)
    ]
    constraints.append(([1] * len(columns) + [0], rel, 1))
    result = coherence.solve_lp([0] * len(columns) + [1], constraints)
    if result.objective <= 0:
        return None
    x, t = result.solution[:-1], len(chosen)
    if cls == "dF":
        return [u - v for u, v in zip(x[:t], x[t:])], Fraction(0)
    if cls == "W":
        return x[:t], x[t]
    return x, (Fraction(1) if cls == "convex" else Fraction(0))


def grid_search(assessment: Assessment, cls: str) -> Optional[GainSpec]:
    """The first violating gain over (subfamily, entry bet against) cells,
    after conjugating an upper assessment and, for convex, centering it:
    2^m - 1 gain LPs, or m 2^(m-1) with a bet against."""
    if assessment.kind == "upper":
        assessment = conjugate(assessment)
    entries = list(assessment.entries)
    if cls == "convex":
        entries, _ = oracle_with_centering(entries)
    masks, rows = oracle_rows(entries)
    m = len(entries)
    for subset in range(1, 1 << m):
        chosen = [k for k in range(m) if (subset >> k) & 1]
        for against in chosen if cls in ("W", "convex") else (None,):
            stakes = oracle_violating_stakes(cls, chosen, against, masks, rows)
            if stakes is not None:
                return coherence._gain(entries, chosen, against, *stakes)
    return None


def oracle_rounds(masks, rows, n, both_ways, j0, weighted=False):
    """``coherence._rounds`` over the lcm rows, returning only the live set
    at a stall, or None. By default a round spends a separate LP on the
    entry under test: while ``j0`` is live, it first maximises alpha(B_j0)
    and ends the sequence if that is positive, then maximises
    alpha(union). With ``weighted``, each round is one LP maximising
    alpha(union) + alpha(B_j0)."""
    live = list(range(len(masks)))
    weight = 0 if j0 is None else masks[j0]
    while live:
        union = 0
        for j in live:
            union |= masks[j]
        worlds = coherence._world_indices(union, n)
        equal = live if both_ways else [] if j0 is None else [j0]
        signed = [[-rows[j][w] for w in worlds] for j in live]
        signed += [[rows[j][w] for w in worlds] for j in equal]
        constraints = [(coeffs, "<=", 0) for coeffs in signed if any(coeffs)]
        constraints.append(([1] * len(worlds), "<=", 1))
        if weighted:
            objective = [1 + ((weight >> w) & 1) for w in worlds]
        else:
            objective = [1] * len(worlds)
            target = [(weight >> w) & 1 for w in worlds]
            if j0 is not None and solve_lp(target, constraints).objective > 0:
                return None
        result = solve_lp(objective, constraints)
        if result.objective == 0:
            return live
        support = 0
        for w, mass in zip(worlds, result.solution):
            if mass:
                support |= 1 << w
        if support & weight:
            return None
        live = [j for j in live if not masks[j] & support]
    return None


def oracle_round_search(entries, cls) -> Optional[GainSpec]:
    """``coherence._round_search`` with no kept masses: every sequence runs,
    in weighted rounds over the lcm rows."""
    masks, rows = oracle_rows(entries)
    n = len(rows[0])
    sequences = [] if cls == "convex" else [("asl" if cls == "W" else cls, None)]
    if cls in ("W", "convex"):
        sequences += [(cls, j0) for j0 in range(len(entries))]
    for stage, j0 in sequences:
        shifted = rows
        if stage == "convex":
            shifted = [[a - b for a, b in zip(row, rows[j0])] for row in rows]
        live = oracle_rounds(masks, shifted, n, stage == "dF", j0, weighted=True)
        if live is None:
            continue
        stakes = oracle_violating_stakes(stage, live, j0, masks, rows)
        chosen = [k for k, s in zip(live, stakes[0]) if s or k == j0]
        stakes = oracle_violating_stakes(stage, chosen, j0, masks, rows)
        return coherence._gain(entries, chosen, j0, *stakes)
    return None


def oracle_one_convex_search(entries) -> Optional[GainSpec]:
    """``coherence._one_convex_search`` comparing every ordered pair of
    rows on the union of its two conditioning events."""
    masks, rows = oracle_rows(entries)
    n = entries[0][0].universe.size
    for j in range(len(entries)):
        for i in range(len(entries)):
            if i == j:
                continue
            left, right = rows[i], rows[j]
            if all(left[w] < right[w] for w in coherence._world_indices(masks[i] | masks[j], n)):
                return coherence._gain(entries, [i], j, [Fraction(1)], Fraction(1))
    return None


def oracle_check(assessment: Assessment, cls: str) -> Verdict:
    """``coherence.check`` (or, for "asl", ``check_avoiding_sure_loss``)
    through ``oracle_with_centering`` and the oracle searches."""
    if assessment.kind == "upper":
        assessment = conjugate(assessment)
    entries = list(assessment.entries)
    centering = ()
    if cls in ("convex", "1convex"):
        entries, centering = oracle_with_centering(entries)
    if cls == "1convex":
        witness = oracle_one_convex_search(entries)
    else:
        witness = oracle_round_search(entries, cls)
    return Verdict(witness is None, witness, centering)


def oracle_finite_values_lower_bound(mu, x: Gamble, b: Event, p: Partition, truth=None) -> BoundReport:
    """``finite_values_lower_bound`` rescanning B for the level set of
    each distinct value of X on B, in increasing order of value."""
    if b.is_empty:
        raise EmptyConditioningError("B must be nonempty")
    context = f"B={b!r}"
    if inf_over(x, b) < 0:
        return BoundReport("level-set-bound", None, None, None, False, context)
    bound = Fraction(0)
    for value in sorted(set(x.values[i] for i in b.indices())):
        if value == 0:
            continue
        level_mask = 0
        for i in b.indices():
            if x.values[i] == value:
                level_mask |= 1 << i
        level = ConditionalEvent(Event(x.universe, level_mask), b)
        weight = Fraction(1) if level.is_trivial else mu.lower(conditional_inner(level, p))
        bound += value * weight
    rhs = truth(ConditionalGamble(x, b)) if truth is not None else None
    return BoundReport("level-set-bound", bound, rhs, None if rhs is None else bound <= rhs, True, context)
