"""Zero-layer rounds against the subfamily grid and the two-LP rounds.

Sure loss, dF, W and convex are decided by sequences of zero-layer
rounds, each one small LP over world masses. ``oracles.grid_search``
enumerates every (subfamily, entry bet against) cell instead and serves
here as the oracle: the two must give the same verdict on every instance.
``oracles.oracle_rounds`` spends a second LP per round on the entry under
test; every sequence must stall at the same live set under both.
``oracles.oracle_check`` runs every sequence over the lcm rows, keeping
no masses, and scans every 1convex pair; every verdict and witness must
equal the library's, which must solve fewer LPs for W and convex.
"""

import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnprob import (
    Assessment,
    ConditionalGamble,
    Gamble,
    check,
    check_avoiding_sure_loss,
    coherence,
    conditioned_max,
    conjugate,
    random_credal,
    random_layered,
)
from gnprob.cli import load_problem
from conftest import (
    PROBLEMS,
    asl_not_monotone,
    make_universe,
    random_conditional_event,
    random_conditional_gamble,
)
import oracles
from oracles import grid_search, oracle_check, oracle_rounds

ROUND_CLASSES = ("asl", "dF", "W", "convex")


def decide(assessment, cls):
    if cls == "asl":
        return check_avoiding_sure_loss(assessment)
    return check(assessment, cls)


def seeded_assessment(seed):
    """2-5 worlds, 1-5 distinct entries (event indicators or gambles),
    valued at an envelope, perturbed from it, or arbitrarily."""
    rng = random.Random(seed)
    u = make_universe(rng.randint(2, 5))
    kind = rng.choice(("lower", "upper", "precise"))
    if kind == "precise":
        measure = random_layered(rng.randrange(10**6), u, max_layers=3)
        envelope = measure.value
    else:
        credal = random_credal(rng.randrange(10**6), u, rng.randint(1, 3), max_layers=3)
        envelope = credal.lower if kind == "lower" else credal.upper
    gambles = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            gamble = ConditionalGamble.from_event(random_conditional_event(rng, u))
        else:
            gamble = random_conditional_gamble(rng, u)
        if gamble not in gambles:
            gambles.append(gamble)
    mode = rng.choice(("envelope", "perturbed", "arbitrary"))
    entries = []
    for gamble in gambles:
        if mode == "arbitrary":
            value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        else:
            value = envelope(gamble)
            if mode == "perturbed" and rng.random() < 0.5:
                value += Fraction(rng.choice((-1, 1)), rng.randint(2, 12))
        entries.append((gamble, value))
    return Assessment(tuple(entries), kind=kind)


@pytest.mark.parametrize("cls", ROUND_CLASSES)
def test_rounds_agree_with_the_grid(cls):
    tally = {True: 0, False: 0}
    kinds = set()
    for seed in range(320):
        assessment = seeded_assessment(1000 * ROUND_CLASSES.index(cls) + seed)
        verdict = decide(assessment, cls)
        assert verdict.consistent == (grid_search(assessment, cls) is None), seed
        if not verdict.consistent:
            assert conditioned_max(verdict.witness) < 0
        tally[verdict.consistent] += 1
        kinds.add(assessment.kind)
    assert min(tally.values()) >= 100, tally
    assert kinds == {"lower", "upper", "precise"}


VALUES = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def small_assessments(draw):
    u = make_universe(draw(st.integers(2, 4)))
    top = (1 << u.size) - 1
    entries = {}
    for _ in range(draw(st.integers(1, 4))):
        payoff = Gamble(u, [draw(VALUES) for _ in range(u.size)])
        given_mask = draw(st.integers(1, top))
        gamble = ConditionalGamble(payoff, u.event([u.worlds[i] for i in range(u.size) if given_mask >> i & 1]))
        entries.setdefault(gamble, draw(VALUES))
    kind = draw(st.sampled_from(("lower", "upper", "precise")))
    return Assessment(tuple(entries.items()), kind=kind)


@settings(max_examples=100, deadline=None)
@given(small_assessments(), st.sampled_from(ROUND_CLASSES))
def test_rounds_agree_with_the_grid_property(assessment, cls):
    verdict = decide(assessment, cls)
    assert verdict.consistent == (grid_search(assessment, cls) is None)
    if not verdict.consistent:
        assert conditioned_max(verdict.witness) < 0


def sixteen_entries(seed, precise, m=16):
    """m (by default 16) distinct conditional events on 6 worlds, valued
    by a layered probability (precise) or a credal lower envelope."""
    rng = random.Random(seed)
    u = make_universe(6)
    if precise:
        evaluate = random_layered(seed, u, max_layers=3).value
    else:
        evaluate = random_credal(seed, u, 3, max_layers=3).lower
    gambles = []
    while len(gambles) < m:
        gamble = ConditionalGamble.from_event(random_conditional_event(rng, u))
        if gamble not in gambles:
            gambles.append(gamble)
    return Assessment(tuple((g, evaluate(g)) for g in gambles), kind="precise" if precise else "lower")


@pytest.fixture
def lp_count(monkeypatch):
    calls = []
    solve = coherence.solve_lp

    def counting(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(coherence, "solve_lp", counting)
    return calls


@pytest.mark.parametrize("seed", range(3))
def test_sixteen_entry_w_check_takes_a_linear_number_of_lps(seed, lp_count):
    assessment = sixteen_entries(seed, precise=False)
    start = time.perf_counter()
    verdict = check(assessment, "W")
    elapsed = time.perf_counter() - start
    assert verdict.consistent
    assert len(lp_count) <= 2 * 16 + 2
    assert elapsed < 1


@pytest.mark.parametrize("seed", range(3))
def test_sixty_four_entry_w_check_skips_most_sequences(seed, lp_count):
    assessment = sixteen_entries(seed, precise=False, m=64)
    start = time.perf_counter()
    verdict = check(assessment, "W")
    elapsed = time.perf_counter() - start
    assert verdict.consistent
    assert len(lp_count) <= 16
    assert elapsed < 2


@pytest.mark.parametrize("seed", range(3))
def test_sixteen_entry_convex_check_takes_at_most_two_lps_per_entry(seed, lp_count):
    assessment = sixteen_entries(seed, precise=False)
    start = time.perf_counter()
    verdict = check(assessment, "convex")
    elapsed = time.perf_counter() - start
    assert verdict.consistent
    assert len(lp_count) <= 2 * (16 + len(verdict.centering))
    assert elapsed < 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cls", ("W", "convex"))
def test_no_all_zero_row_reaches_the_solver(cls, seed, monkeypatch):
    # Convex rows are shifted by the row of the entry bet against, which
    # zeroes that row and every row equal to it; rounds leave them out.
    rows = []
    solve = coherence.solve_lp

    def recording(objective, constraints):
        rows.extend(coeffs for coeffs, _, _ in constraints)
        return solve(objective, constraints)

    monkeypatch.setattr(coherence, "solve_lp", recording)
    assert check(sixteen_entries(seed, precise=False), cls).consistent
    assert rows and all(any(coeffs) for coeffs in rows)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cls", ("asl", "dF"))
def test_sixteen_entry_single_sequence_takes_at_most_sixteen_lps(cls, seed, lp_count):
    base = sixteen_entries(seed, precise=cls == "dF")
    rng = random.Random(seed)
    bumped = tuple((g, v + Fraction(1, rng.randint(2, 30))) for g, v in base.entries)
    for assessment in (base, Assessment(bumped, kind=base.kind)):
        lp_count.clear()
        decide(assessment, cls)
        assert 1 <= len(lp_count) <= 16
    assert decide(base, cls).consistent


def test_a_stall_whose_gain_lp_finds_no_violation_fails_loudly(monkeypatch):
    # A stall is a violating gain, so both gain LPs of a stall, on the live
    # entries and again on the entries staked, have a positive optimum.
    # The second one is made to report 0: the check must name the broken
    # invariant instead of failing while it decodes the stakes.
    assessment, _ = asl_not_monotone()
    solve_lp = coherence.solve_lp
    gain_lps = []

    def second_gain_lp_at_zero(objective, constraints):
        result = solve_lp(objective, constraints)
        # a round LP weighs every world by at least 1; a gain LP maximises eps alone
        if objective[0] == 0:
            gain_lps.append(result)
            if len(gain_lps) == 2:
                return replace(result, objective=Fraction(0))
        return result

    monkeypatch.setattr(coherence, "solve_lp", second_gain_lp_at_zero)
    with pytest.raises(AssertionError, match="^a stalled round has a violating gain$"):
        check(assessment, "W")
    assert len(gain_lps) == 2


def test_stall_with_the_entry_under_test_live_bets_against_it():
    # E is valued 3/4 and the larger F 1/2: no sure loss, so the W check
    # stalls in the sequence for F, and the witness bets against F.
    assessment, _ = asl_not_monotone()
    assert check_avoiding_sure_loss(assessment).consistent
    verdict = check(assessment, "W")
    assert not verdict.consistent
    against = verdict.witness.terms[verdict.witness.against]
    assert (against.gamble, against.value) == assessment.entries[1]
    assert against.stake > 0
    assert conditioned_max(verdict.witness) < 0


def round_inputs(assessment):
    """(class, masks, rows, n, both_ways, j0) of every sequence the round
    classes can run: asl, dF, W for each j0, and convex for each j0 on the
    centered rows shifted by row j0."""
    if assessment.kind == "upper":
        assessment = conjugate(assessment)
    entries = list(assessment.entries)
    masks, rows = coherence._rows(entries)
    n = len(rows[0])
    yield "asl", masks, rows, n, False, None
    yield "dF", masks, rows, n, True, None
    for j0 in range(len(entries)):
        yield "W", masks, rows, n, False, j0
    centered, _ = coherence._with_centering(entries)
    masks, rows = coherence._rows(centered)
    for j0 in range(len(centered)):
        yield "convex", masks, [[a - b for a, b in zip(row, rows[j0])] for row in rows], n, False, j0


def test_rounds_stall_where_the_two_lp_rounds_stall():
    tally = Counter()
    for seed in range(400):
        for cls, *args in round_inputs(seeded_assessment(7000 + seed)):
            live, _ = coherence._rounds(*args)
            assert live == oracle_rounds(*args), (seed, cls)
            tally[cls, live is None] += 1
    assert sum(count for (_, settled), count in tally.items() if not settled) >= 100, tally
    assert all(tally[cls, settled] for cls in ROUND_CLASSES for settled in (True, False)), tally


def test_each_round_solves_one_lp(monkeypatch):
    # A round's constraints follow from its live set, and no two rounds of
    # a sequence share them; two LPs on one system are two LPs in one round.
    systems = []
    solve = coherence.solve_lp

    def recording(objective, constraints):
        systems.append(constraints)
        return solve(objective, constraints)

    monkeypatch.setattr(coherence, "solve_lp", recording)
    multi = 0
    for seed in range(100):
        for cls, *args in round_inputs(seeded_assessment(seed)):
            systems.clear()
            coherence._rounds(*args)
            assert systems and all(a != b for a, b in zip(systems, systems[1:])), (seed, cls)
            multi += cls == "W" and len(systems) > 1
    assert multi >= 20
    # E valued 3/4 and the larger F 1/2: W's sequence for F stalls in its
    # first round with F live, after one LP.
    assessment, _ = asl_not_monotone()
    w_for_f = [args for cls, *args in round_inputs(assessment) if cls == "W"][1]
    systems.clear()
    live, _ = coherence._rounds(*w_for_f)
    assert live == [0, 1]
    assert len(systems) == 1


def test_searches_agree_with_the_oracle_searches(monkeypatch):
    # The oracles run every sequence over lcm rows and scan every pair, so
    # equal verdicts and witnesses show that the kept masses, the gcd rows
    # and the sign masks move nothing; W and convex must solve fewer LPs.
    lps = []
    solve = coherence.solve_lp

    def counting(*args, **kwargs):
        lps.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(coherence, "solve_lp", counting)
    monkeypatch.setattr(oracles, "solve_lp", counting)
    totals = Counter()
    for seed in range(1000):
        assessment = seeded_assessment(seed)
        for cls in ROUND_CLASSES + ("1convex",):
            lps.clear()
            verdict = decide(assessment, cls)
            totals[cls, "library"] += len(lps)
            lps.clear()
            expected = oracle_check(assessment, cls)
            totals[cls, "oracle"] += len(lps)
            assert repr(verdict) == repr(expected), (seed, cls)
            totals[cls, verdict.consistent] += 1
    assert all(totals[cls, False] >= 100 for cls in ROUND_CLASSES + ("1convex",)), totals
    for cls in ("W", "convex"):
        assert totals[cls, "library"] < totals[cls, "oracle"], totals
    for cls in ("asl", "dF"):
        assert totals[cls, "library"] == totals[cls, "oracle"], totals


@pytest.mark.parametrize("cls", ("asl", "dF", "W", "convex", "1convex"))
def test_entry_cap_holds_for_every_class(cls):
    u = make_universe(3)
    entries = tuple(
        (ConditionalGamble(Gamble.constant(u, i), u.omega), Fraction(i))
        for i in range(coherence.MAX_ENTRIES + 1)
    )
    with pytest.raises(coherence.EnumerationLimitError):
        decide(Assessment(entries), cls)


def test_w_reports_a_sure_loss_without_a_bet_against():
    # W runs the sure-loss sequence once a sequence stalls and reports its
    # witness if it stalls too, so an assessment that incurs sure loss
    # gets the sure-loss witness, which has no bet against.
    found = 0
    for seed in range(5000, 5100):
        assessment = seeded_assessment(seed)
        asl = check_avoiding_sure_loss(assessment)
        if not asl.consistent:
            found += 1
            witness = check(assessment, "W").witness
            assert (witness, witness.against) == (asl.witness, None)
    assert found >= 20


def envelope_assessment(seed, bump=False):
    """2-6 worlds, 2-6 distinct entries (event indicators or gambles)
    valued at a credal lower envelope, which is W-consistent; with
    ``bump``, every value is raised by 1/4 to 1, which mostly incurs
    sure loss."""
    rng = random.Random(seed)
    u = make_universe(rng.randint(2, 6))
    lower = random_credal(rng.randrange(10**6), u, rng.randint(1, 3), max_layers=3).lower
    gambles = []
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.5:
            gamble = ConditionalGamble.from_event(random_conditional_event(rng, u))
        else:
            gamble = random_conditional_gamble(rng, u)
        if gamble not in gambles:
            gambles.append(gamble)
    entries = [(g, lower(g) + (Fraction(1, rng.randint(1, 4)) if bump else 0)) for g in gambles]
    return Assessment(tuple(entries), kind="lower")


def test_consistent_w_checks_run_no_sure_loss_sequence(monkeypatch):
    # W runs the sure-loss sequence only after a sequence with an entry
    # bet against stalls, so a consistent W check never runs it.
    calls = []
    rounds = coherence._rounds

    def recording(masks, rows, n, both_ways, j0):
        calls.append(j0)
        return rounds(masks, rows, n, both_ways, j0)

    monkeypatch.setattr(coherence, "_rounds", recording)
    for seed in range(200):
        calls.clear()
        assert check(envelope_assessment(seed), "W").consistent, seed
        assert calls and None not in calls, seed


def test_kept_w_masses_have_least_sum_zero(monkeypatch):
    # W and convex share one skip rule: a kept first-round alpha settles a
    # later j0 when it charges B_j0 and its j0 sum is the least of its
    # sums. For W that least sum is 0, so W skips where the j0 sum is 0.
    least = []
    charged = coherence._charged

    def recording(alpha, rows):
        support, sums = charged(alpha, rows)
        least.append(min(sums))
        return support, sums

    monkeypatch.setattr(coherence, "_charged", recording)
    for seed in range(200):
        least.clear()
        assert check(envelope_assessment(seed), "W").consistent, seed
        assert least and set(least) == {0}, seed


@pytest.mark.parametrize("cls", ROUND_CLASSES + ("1convex",))
def test_a_check_builds_its_integer_rows_once(cls, monkeypatch):
    # The overbooked pair, as a lower assessment, incurs sure loss: its W
    # check stalls and falls back to the sure-loss search, whose witness
    # has no bet against and which reuses the rows of the check.
    calls = []
    rows = coherence._rows

    def counting(entries):
        calls.append(entries)
        return rows(entries)

    monkeypatch.setattr(coherence, "_rows", counting)
    overbooked = load_problem(str(PROBLEMS / "coins.json")).assessments["overbooked"]
    verdict = decide(Assessment(overbooked.entries, kind="lower"), cls)
    assert len(calls) == 1
    if cls == "W":
        assert verdict.witness.against is None


def test_w_with_sure_loss_reports_the_sure_loss_witness():
    found = 0
    for seed in range(200):
        assessment = envelope_assessment(seed, bump=True)
        asl = check_avoiding_sure_loss(assessment)
        if not asl.consistent:
            found += 1
            witness = check(assessment, "W").witness
            assert witness.against is None and witness == asl.witness, seed
    assert found >= 50


def bumped_entries(seed, precise, m):
    """``sixteen_entries`` with about a quarter of the values moved by
    +-1/k for k in 2..12, so that most checks find a witness through a
    gain LP whose rows share a large lcm."""
    rng = random.Random(seed)
    assessment = sixteen_entries(seed, precise, m)
    entries = tuple(
        (g, v + Fraction(rng.choice((-1, 1)), rng.randint(2, 12)) if rng.random() < 0.25 else v)
        for g, v in assessment.entries
    )
    return Assessment(entries, kind=assessment.kind)


@pytest.mark.parametrize("m", (16, 64))
def test_gcd_reduced_gain_lps_keep_every_verdict(m, monkeypatch):
    # The library divides each stake column of a gain LP by its gcd; the
    # oracle solves the same LP over the lcm columns. Verdicts, witnesses
    # and stakes must be equal.
    cases = [(bumped_entries(seed, precise, m), cls)
             for seed in range(3) for precise in (False, True) for cls in ROUND_CLASSES + ("1convex",)]
    reduced = [repr(decide(assessment, cls)) for assessment, cls in cases]
    monkeypatch.setattr(coherence, "_violating_stakes", oracles.oracle_violating_stakes)
    assert [repr(decide(assessment, cls)) for assessment, cls in cases] == reduced
    assert 2 * sum("consistent=False" in verdict for verdict in reduced) >= len(cases)
