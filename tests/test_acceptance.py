"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or on failure) and asserts exactly, with zero tolerance:
every comparison is between Fractions.
"""

import random
import time
from fractions import Fraction

from gnprob import (
    Assessment,
    ConditionalEvent,
    ConditionalGamble,
    CredalSet,
    Event,
    Gamble,
    LayeredProbability,
    Partition,
    asl_monotonicity_counterexample,
    check,
    check_avoiding_sure_loss,
    conditional_inner,
    conditional_outer,
    conditioned_max,
    extension_interval,
    finite_values_lower_bound,
    gn_leq_events,
    gn_leq_gambles,
    gn_leq_via_algebra,
    inner_event_lower_bound,
    monotonicity_audit,
    natural_extension,
    nested_conditioning_report,
    product_rule_report,
    random_credal,
    random_layered,
)
from conftest import (
    all_conditional_events,
    make_universe,
    random_event,
    random_nontrivial_ce,
    random_partition,
)
from oracles import iter_conditional_domain, scaled

DELTA = Fraction(1, 1000)


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number:02d}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def football_model():
    u = make_universe(5)
    brazil, sweden = u.event(["w1"]), u.event(["w2", "w3"])
    third, final = u.event(["w4", "w5"]), u.event(["w1", "w2", "w4"])
    teams = Partition(u, (brazil, sweden, third))
    return u, brazil, sweden, third, final, teams


def test_criterion_01_football_inner_outer():
    start = time.perf_counter()
    u, brazil, sweden, third, final, teams = football_model()
    target = ConditionalEvent(sweden, final)
    outer = conditional_outer(target, teams)
    inner = conditional_inner(target, teams)
    ok = outer == ConditionalEvent(sweden, sweden | brazil)
    ok = ok and inner == ConditionalEvent(u.empty, brazil | third)
    elapsed = time.perf_counter() - start
    _criterion(1, "football inner/outer conditional events", ok and elapsed < 1.0,
               f"{elapsed:.3f}s")


def _nontrivial_sweep():
    for n in range(1, 5):
        u = make_universe(n)
        ces = all_conditional_events(u, nontrivial=True)
        gambles = [ConditionalGamble.from_event(ce) for ce in ces]
        yield u, ces, gambles


def test_criterion_02_indicator_gamble_equivalence():
    start = time.perf_counter()
    pairs = 0
    mismatches = 0
    for u, ces, gambles in _nontrivial_sweep():
        for i, ab in enumerate(ces):
            for j, cd in enumerate(ces):
                pairs += 1
                if gn_leq_gambles(gambles[i], gambles[j]) != gn_leq_events(ab, cd):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    _criterion(2, "gamble relation matches event relation on indicators",
               mismatches == 0 and elapsed < 120,
               f"{pairs} pairs, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_03_algebra_equivalence():
    start = time.perf_counter()
    pairs = 0
    mismatches = 0
    for u, ces, _ in _nontrivial_sweep():
        for ab in ces:
            for cd in ces:
                pairs += 1
                if gn_leq_via_algebra(ab, cd) != gn_leq_events(ab, cd):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    _criterion(3, "conjunction characterization matches the two implications",
               mismatches == 0, f"{pairs} pairs, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_04_partial_order():
    ok = True
    for n in range(1, 5):
        u = make_universe(n)
        ces = all_conditional_events(u)
        below = [set() for _ in ces]
        for i, ab in enumerate(ces):
            for j, cd in enumerate(ces):
                if gn_leq_events(ab, cd):
                    below[i].add(j)
        for i in range(len(ces)):
            ok = ok and i in below[i]
            for j in below[i]:
                ok = ok and below[j] <= below[i]
                if i in below[j] and i != j:
                    ok = ok and ces[i] == ces[j]
    _criterion(4, "reflexive, transitive, antisymmetric on normalized events", ok)


def test_criterion_05_monotone_agreement():
    start = time.perf_counter()
    violations = 0
    related = 0
    for seed in range(1000):
        rng = random.Random(seed)
        u = make_universe(rng.randint(2, 5))
        m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
        objects = []
        for _ in range(10):
            bmask = rng.randint(1, (1 << u.size) - 1)
            amask = rng.randint(0, (1 << u.size) - 1) & bmask
            objects.append(
                ConditionalGamble.from_event(
                    ConditionalEvent(Event(u, amask), Event(u, bmask))
                )
            )
        for _ in range(10):
            payoff = Gamble(
                u, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(u.size)]
            )
            objects.append(ConditionalGamble(payoff, Event(u, rng.randint(1, (1 << u.size) - 1))))
        for left in objects:
            for right in objects:
                if left is right or not gn_leq_gambles(left, right):
                    continue
                related += 1
                if m.lower(left) > m.lower(right) or m.upper(left) > m.upper(right):
                    violations += 1
    elapsed = time.perf_counter() - start
    _criterion(5, "envelopes order GN-related pairs",
               violations == 0 and elapsed < 300,
               f"1000 envelopes, {related} related pairs, {violations} violations, {elapsed:.1f}s")


def _endpoint_instance(rng, seed, precise):
    u = make_universe(rng.randint(2, 5))
    p = random_partition(rng, u)
    if precise:
        evaluator = random_layered(seed, u, max_layers=2).value
        kind, cls = "precise", "dF"
    else:
        evaluator = random_credal(seed, u, rng.randint(1, 3), max_layers=2).lower
        kind, cls = "lower", "W"
    for _ in range(60):
        target = random_nontrivial_ce(rng, u)
        interval = extension_interval(evaluator, target, p)
        if interval.low_witness != target and interval.high_witness != target:
            break
    else:
        return None
    measurable = list(iter_conditional_domain(p))
    base_ces = {interval.low_witness, interval.high_witness}
    extra = [ce for ce in measurable if ce not in base_ces]
    rng.shuffle(extra)
    base_ces.update(extra[:3])
    base = Assessment(
        tuple((ConditionalGamble.from_event(ce), evaluator(ce)) for ce in sorted(
            base_ces, key=lambda ce: (ce.conditioning.mask, ce.conditioned.mask)
        )),
        kind=kind,
    )
    target_cg = ConditionalGamble.from_event(target)
    return base, target_cg, interval, cls


def test_criterion_06_extension_endpoints():
    start = time.perf_counter()
    instances = 0
    failures = []
    seed = 0
    while instances < 50:
        seed += 1
        rng = random.Random(10_000 + seed)
        built = _endpoint_instance(rng, seed, precise=(instances % 2 == 0))
        if built is None:
            continue
        base, target_cg, interval, cls = built
        if len(base) > 6:
            continue
        instances += 1
        if not check(base.with_entry(target_cg, interval.low), cls).consistent:
            failures.append((seed, "low endpoint rejected"))
        if not check(base.with_entry(target_cg, interval.high), cls).consistent:
            failures.append((seed, "high endpoint rejected"))
        if check(base.with_entry(target_cg, interval.low - DELTA), cls).consistent:
            failures.append((seed, "below-low accepted"))
        if check(base.with_entry(target_cg, interval.high + DELTA), cls).consistent:
            failures.append((seed, "above-high accepted"))
        if interval.low < interval.high:
            mid = (interval.low + interval.high) / 2
            if not check(base.with_entry(target_cg, mid), cls).consistent:
                failures.append((seed, "intermediate value rejected"))
    elapsed = time.perf_counter() - start
    _criterion(6, "extension interval endpoints are exactly the coherent range",
               not failures, f"{instances} instances, failures={failures[:3]}, {elapsed:.1f}s")


def test_criterion_07_natural_extension_dominance():
    violations = 0
    for seed in range(60):
        rng = random.Random(20_000 + seed)
        u = make_universe(rng.randint(2, 5))
        m = random_credal(seed, u, 3, max_layers=2)
        p = random_partition(rng, u)
        targets = [random_nontrivial_ce(rng, u) for _ in range(4)]
        lows = natural_extension(m.lower, targets, p)
        members = m.members
        for submask in range(1, 1 << len(members)):
            sub = CredalSet([members[i] for i in range(len(members)) if (submask >> i) & 1])
            sub_lows = natural_extension(sub.lower, targets, p)
            for cd, low, sub_low in zip(targets, lows, sub_lows):
                if sub.lower(cd) < low or sub_low < low:
                    violations += 1
    _criterion(7, "extensions from sub-credal-sets dominate the natural extension",
               violations == 0, f"60 credal sets, {violations} violations")


def test_criterion_08_product_rule():
    start = time.perf_counter()
    checked = 0
    failures = 0
    for seed in range(1000):
        rng = random.Random(30_000 + seed)
        u = make_universe(rng.randint(2, 5))
        m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
        a = random_event(rng, u)
        b = random_event(rng, u)
        if (a & b).is_empty:
            continue
        x = Gamble(u, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(u.size)])
        for report in product_rule_report(m, a, b, x):
            if report.applicable:
                checked += 1
                if not report.holds:
                    failures += 1
    elapsed = time.perf_counter() - start
    _criterion(8, "weak product rule on seeded envelopes",
               failures == 0, f"{checked} applicable reports, {failures} failures, {elapsed:.1f}s")


def test_criterion_09_nesting_and_lower_bounds():
    # the two hand-computed instances, exactly
    u = make_universe(4)
    p = Partition(u, (u.event(["w1"]), u.event(["w2", "w3"]), u.event(["w4"])))
    b = u.event(["w1", "w2"])
    x = Gamble(u, {"w1": 1, "w2": 2})
    uniform = LayeredProbability(u, [[Fraction(1, 4)] * 4])
    inner_hand = inner_event_lower_bound(uniform, x, b, p, truth=uniform.value)
    levels_hand = finite_values_lower_bound(uniform, x, b, p, truth=uniform.value)
    hand_ok = (
        inner_hand.lhs == 1
        and inner_hand.rhs == Fraction(3, 2)
        and inner_hand.holds
        and levels_hand.lhs == Fraction(1, 3)
        and levels_hand.rhs == Fraction(3, 2)
        and levels_hand.holds
    )

    checked = 0
    failures = 0
    instances = 0
    seed = 0
    while instances < 500:
        seed += 1
        rng = random.Random(40_000 + seed)
        u = make_universe(rng.randint(2, 5))
        precise = instances % 2 == 0
        if precise:
            evaluator = random_layered(seed, u, max_layers=2)
        else:
            evaluator = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
        p = random_partition(rng, u)
        b0 = random_event(rng, u)
        if len(b0) < 2:
            continue
        instances += 1
        sub = [i for i in b0.indices() if rng.random() < 0.7]
        b1 = Event(u, sum(1 << i for i in sub)) if sub else Event(u, 1 << b0.indices()[0])
        nonneg = Gamble(
            u, [Fraction(abs(rng.randint(0, 4)), rng.randint(1, 3)) for _ in range(u.size)]
        )
        for report in nested_conditioning_report(evaluator, nonneg, b1, b0):
            if report.applicable:
                checked += 1
                failures += 0 if report.holds else 1
        general = Gamble(
            u, [Fraction(rng.randint(-3, 4), rng.randint(1, 3)) for _ in range(u.size)]
        )
        r22 = inner_event_lower_bound(evaluator, general, b0, p, truth=evaluator.lower)
        if r22.applicable:
            checked += 1
            failures += 0 if r22.holds else 1
            for member in getattr(evaluator, "members", [evaluator]):
                checked += 1
                if r22.lhs > member.prevision(ConditionalGamble(general, b0)):
                    failures += 1
        r23 = finite_values_lower_bound(evaluator, nonneg, b0, p, truth=evaluator.lower)
        if r23.applicable:
            checked += 1
            failures += 0 if r23.holds else 1
    _criterion(9, "nested-conditioning and lower-bound inequalities",
               hand_ok and failures == 0,
               f"hand instances exact, {checked} seeded checks, {failures} failures")


def test_criterion_10_checker_soundness():
    start = time.perf_counter()
    ok = True
    witnesses = []

    # layered measures are precise-coherent
    for seed in range(300):
        rng = random.Random(50_000 + seed)
        u = make_universe(rng.randint(1, 5))
        pr = random_layered(seed, u, max_layers=2)
        entries = []
        for _ in range(rng.randint(1, 4)):
            bmask = rng.randint(1, (1 << u.size) - 1)
            amask = rng.randint(0, (1 << u.size) - 1) & bmask
            ce = ConditionalEvent(Event(u, amask), Event(u, bmask))
            entries.append((ConditionalGamble.from_event(ce), pr.probability(ce)))
        if not check(Assessment(tuple(entries), kind="precise"), "dF").consistent:
            ok = False

    # envelopes are coherent as lower probabilities, and the weaker
    # convex classes accept whatever the coherence check accepts
    for seed in range(300):
        rng = random.Random(60_000 + seed)
        u = make_universe(rng.randint(1, 5))
        m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
        entries = []
        for _ in range(rng.randint(1, 4)):
            bmask = rng.randint(1, (1 << u.size) - 1)
            amask = rng.randint(0, (1 << u.size) - 1) & bmask
            ce = ConditionalEvent(Event(u, amask), Event(u, bmask))
            entries.append((ConditionalGamble.from_event(ce), m.lower(ce)))
        a = Assessment(tuple(entries), kind="lower")
        if not check(a, "W").consistent:
            ok = False
        if seed < 100:
            if not check(a, "convex").consistent or not check(a, "1convex").consistent:
                ok = False

    # every witness from a battery of broken assessments re-evaluates to a
    # strictly negative conditioned maximum, at any positive scale
    u2 = make_universe(2)
    omega = u2.omega
    ind = lambda e: ConditionalGamble(Gamble.indicator(e), omega)
    u3 = make_universe(3)
    ind3 = lambda e: ConditionalGamble(Gamble.indicator(e), u3.omega)
    battery = [
        (Assessment(((ind(u2.event(["w1"])), Fraction(3, 5)),
                     (ind(u2.event(["w2"])), Fraction(3, 5))), kind="precise"), "dF"),
        (Assessment(((ind3(u3.event(["w1"])), Fraction(7, 10)),
                     (ind3(u3.event(["w1", "w2"])), Fraction(6, 10))), kind="lower"), "W"),
        (Assessment(((ind3(u3.event(["w1"])), Fraction(7, 10)),
                     (ind3(u3.event(["w1", "w2"])), Fraction(6, 10))), kind="lower"), "convex"),
        (Assessment(((ind3(u3.event(["w1"])), Fraction(7, 10)),
                     (ind3(u3.event(["w1", "w2"])), Fraction(6, 10))), kind="lower"), "1convex"),
        (Assessment(((ind(u2.event(["w1"])), Fraction(2, 5)),
                     (ind(u2.event(["w2"])), Fraction(2, 5))), kind="upper"), "W"),
        (Assessment(((ind(u2.event(["w1"])), Fraction(6, 5)),), kind="precise"), "dF"),
        (Assessment(((ind(u2.empty), Fraction(1, 10)),), kind="lower"), "W"),
    ]
    for assessment, cls in battery:
        verdict = check(assessment, cls)
        if verdict.consistent:
            ok = False
            continue
        witnesses.append(verdict.witness)
    for witness in witnesses:
        if conditioned_max(witness) >= 0:
            ok = False
        for factor in (Fraction(3), Fraction(1, 3)):
            if conditioned_max(scaled(witness, factor)) >= 0:
                ok = False
    elapsed = time.perf_counter() - start
    _criterion(10, "checker soundness, envelope theorems, class hierarchy",
               ok, f"{len(witnesses)} witnesses verified, {elapsed:.1f}s")


def test_criterion_11_asl_counterexample():
    assessment, (small, large) = asl_monotonicity_counterexample()
    values = dict(assessment.entries)
    ok = small.conditioned <= large.conditioned
    ok = ok and values[ConditionalGamble.from_event(small)] > values[ConditionalGamble.from_event(large)]
    ok = ok and check_avoiding_sure_loss(assessment).consistent
    violations = monotonicity_audit(assessment)
    ok = ok and len(violations) == 1
    w_verdict = check(assessment, "W")
    ok = ok and not w_verdict.consistent and conditioned_max(w_verdict.witness) < 0
    _criterion(11, "sure-loss avoidance without monotonicity or coherence", ok)
