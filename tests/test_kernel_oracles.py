"""The canonical conditional payoff, the integer evaluators, the integer GN
kernel, the monotonicity audit, the centering of convex checks and the
integer rows of the consistency checks against their oracles, and the
bounds lemma behind the audit's prefilter."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from gnprob import (
    Assessment,
    ConditionalEvent,
    ConditionalGamble,
    CredalSet,
    Event,
    Gamble,
    GnVerdict,
    LayeredProbability,
    UniverseMismatchError,
    ValidationError,
    gn_compare_gambles,
    gn_leq_gambles,
    inf_over,
    monotonicity_audit,
    sup_over,
)
from gnprob import coherence, gn, inequalities
from gnprob.coherence import _with_centering

from conftest import make_universe, random_gn_above
from oracles import (
    oracle_conditional_payoff,
    oracle_gn_leq_gambles,
    oracle_monotonicity_audit,
    oracle_prevision,
    oracle_probability,
    oracle_rows,
    oracle_with_centering,
)


def fractional_layered(rng, u, depth):
    """Layers on a shuffled split of the worlds, with masses of mixed denominators."""
    n = u.size
    order = rng.sample(range(n), n)
    bounds = [0, *sorted(rng.sample(range(1, n), depth - 1)), n]
    layers = []
    for lo, hi in zip(bounds, bounds[1:]):
        weights = {i: Fraction(rng.randint(1, 9), rng.randint(1, 7)) for i in order[lo:hi]}
        total = sum(weights.values())
        layers.append([weights.get(i, Fraction(0)) / total for i in range(n)])
    return LayeredProbability(u, layers)


def fractional_gamble(rng, u):
    return Gamble(u, [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(u.size)])


def nonempty_mask(rng, within):
    """A random nonempty subset of the worlds of ``within``."""
    while True:
        mask = rng.getrandbits(within.bit_length()) & within
        if mask:
            return mask


class TestCanonicalPayoffAgainstOracle:
    def test_seeded_payoffs_equal(self):
        kinds = {"omega": 0, "singleton": 0, "other": 0}
        for seed in range(200):
            rng = random.Random(seed)
            u = make_universe(rng.randint(1, 8))
            x = fractional_gamble(rng, u)
            masks = [u.omega.mask, 1 << rng.randrange(u.size), nonempty_mask(rng, u.omega.mask)]
            for mask in masks:
                b = Event(u, mask)
                payoff = ConditionalGamble(x, b).payoff
                assert payoff == oracle_conditional_payoff(x, b)
                assert all(type(v) is Fraction for v in payoff.values)
                kind = "omega" if b.is_omega else "singleton" if len(b) == 1 else "other"
                kinds[kind] += 1
        assert min(kinds.values()) > 50


    def test_kept_and_zeroed_payoffs_are_values(self):
        # on B = Ω the payoff is kept as it is, elsewhere it is rebuilt zeroed;
        # either way the conditional gamble is a plain value
        for seed in range(100):
            rng = random.Random(seed)
            u = make_universe(rng.randint(1, 8))
            x = fractional_gamble(rng, u)
            for b in (u.omega, Event(u, nonempty_mask(rng, u.omega.mask))):
                cg = ConditionalGamble(x, b)
                twin = ConditionalGamble(oracle_conditional_payoff(x, b), b)
                assert cg.payoff == oracle_conditional_payoff(x, b)
                assert type(cg.payoff) is Gamble and cg == twin and hash(cg) == hash(twin)
                for copied in (pickle.loads(pickle.dumps(cg)), copy.deepcopy(cg)):
                    assert copied == cg and hash(copied) == hash(cg)
                    assert copied.payoff.values == cg.payoff.values


class TestEvaluatorsAgainstOracle:
    def test_seeded_values_equal(self):
        zero_first_layer = 0
        for seed in range(300):
            rng = random.Random(seed)
            u = make_universe(rng.randint(1, 7))
            lp = fractional_layered(rng, u, rng.randint(1, min(3, u.size)))
            outside_first = u.omega.mask & ~lp.support(0).mask
            for _ in range(12):
                if outside_first and rng.random() < 0.5:
                    b = nonempty_mask(rng, outside_first)
                    zero_first_layer += 1
                else:
                    b = nonempty_mask(rng, u.omega.mask)
                ce = ConditionalEvent(Event(u, rng.getrandbits(u.size)), Event(u, b))
                cg = ConditionalGamble(fractional_gamble(rng, u), Event(u, b))
                assert lp.probability(ce) == oracle_probability(lp, ce)
                assert lp.value(ce) == oracle_probability(lp, ce)
                assert lp.prevision(ConditionalGamble.from_event(ce)) == oracle_probability(lp, ce)
                assert lp.prevision(cg) == oracle_prevision(lp, cg)
                assert lp.value(cg.payoff) == oracle_prevision(
                    lp, ConditionalGamble(cg.payoff, u.omega)
                )
                assert lp.value(Event(u, b)) == oracle_probability(
                    lp, ConditionalEvent(Event(u, b), u.omega)
                )
        assert zero_first_layer > 500

    def test_credal_envelopes_equal(self):
        seen = Counter()
        for seed in range(150):
            rng = random.Random(seed)
            u = make_universe(rng.randint(2, 6))
            members = [
                fractional_layered(rng, u, rng.randint(1, min(3, u.size)))
                for _ in range(rng.randint(1, 4))
            ]
            if rng.random() < 0.3:
                members.append(rng.choice(members))  # a tied member
            credal = CredalSet(members)
            outside_first = u.omega.mask & ~members[0].support(0).mask
            if len(members) == 1:
                seen["one member"] += 1
            elif len(set(members)) < len(members):
                seen["tied"] += 1
            for _ in range(8):
                if outside_first and rng.random() < 0.5:
                    b = Event(u, nonempty_mask(rng, outside_first))
                    seen["zero first-layer mass"] += 1
                else:
                    b = Event(u, nonempty_mask(rng, u.omega.mask))
                a, x = Event(u, rng.getrandbits(u.size)), fractional_gamble(rng, u)
                cg, ce = ConditionalGamble(x, b), ConditionalEvent(a, b)
                queries = {
                    cg: [oracle_prevision(m, cg) for m in members],
                    ce: [oracle_probability(m, ce) for m in members],
                    a: [oracle_probability(m, ConditionalEvent(a, u.omega)) for m in members],
                    x: [oracle_prevision(m, ConditionalGamble(x, u.omega)) for m in members],
                }
                for query, values in queries.items():
                    low, high = credal.lower(query), credal.upper(query)
                    assert type(low) is Fraction and type(high) is Fraction
                    assert low == min(values) and high == max(values)
        assert len(seen) == 3 and min(seen.values()) >= 10, seen

    def test_credal_envelope_refusals_keep_their_text(self):
        rng = random.Random(3)
        u, other = make_universe(3), make_universe(4)
        credal = CredalSet([fractional_layered(rng, u, 2) for _ in range(3)])
        member = credal.members[0]
        a, x = Event(other, 0b101), fractional_gamble(rng, other)
        queries = {
            ConditionalEvent(a, other.omega): "conditional event",
            ConditionalGamble(x, a): "conditional gamble",
            a: "conditional event",
            x: "conditional gamble",
        }
        for query, kind in queries.items():
            with pytest.raises(UniverseMismatchError, match=f"^{kind} on a different universe$"):
                member.value(query)
            for envelope in (credal.lower, credal.upper):
                with pytest.raises(UniverseMismatchError, match=f"^{kind} on a different universe$"):
                    envelope(query)
        for envelope in (credal.lower, credal.upper, member.value):
            with pytest.raises(ValidationError, match="^cannot evaluate object of type int$"):
                envelope(7)

    def test_event_query_builds_no_gamble(self, monkeypatch):
        # An event A is evaluated as A|Omega by the probability kernel, with
        # no indicator gamble; a query on a plain gamble builds none either.
        rng = random.Random(16)
        u = make_universe(16)
        credal = CredalSet([fractional_layered(rng, u, 2) for _ in range(6)])
        events = [Event(u, rng.getrandbits(u.size)) for _ in range(20)]
        gamble = fractional_gamble(rng, u)
        built = []
        init = Gamble.__init__

        def counting(self, *args):
            built.append(None)
            init(self, *args)

        monkeypatch.setattr(Gamble, "__init__", counting)
        for a in events:
            credal.lower(a), credal.upper(a), credal.members[0].value(a)
        credal.lower(gamble), credal.members[0].value(gamble)
        assert built == []

    def test_lone_member_takes_its_public_evaluator(self, monkeypatch):
        # A precise measure's value is one call of probability or prevision,
        # so a count of those calls sees every value query; a larger
        # envelope compares its members' kernel pairs and calls neither.
        rng = random.Random(17)
        u = make_universe(8)
        credal = CredalSet([fractional_layered(rng, u, 2) for _ in range(3)])
        lp = credal.members[0]
        a, b = Event(u, 0b1011), Event(u, 0b0110)
        queries = [a, ConditionalEvent(a, b), fractional_gamble(rng, u),
                   ConditionalGamble(fractional_gamble(rng, u), b)]
        calls = []
        for name in ("probability", "prevision"):
            original = getattr(LayeredProbability, name)
            monkeypatch.setattr(LayeredProbability, name,
                                lambda self, q, f=original, n=name: calls.append(n) or f(self, q))
        values = [(lp.value(q), lp.lower(q), lp.upper(q)) for q in queries]
        assert calls == ["probability"] * 6 + ["prevision"] * 6
        assert values == [(lp.value(q),) * 3 for q in queries]
        calls.clear()
        for q in queries:
            credal.lower(q), credal.upper(q)
        assert calls == []

    def test_layers_stay_fractions(self):
        u = make_universe(3)
        lp = LayeredProbability(u, [["1/2", "1/3", "1/6"]])
        assert lp.layers == ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),)
        assert all(type(m) is Fraction for m in lp.layers[0])

    @pytest.mark.parametrize(
        "masses",
        [["1/2", "1/3", "1/7"], ["1/2", "1/3", "1/5"], ["2/3", "2/3", "-1/3"]],
    )
    def test_mixed_denominators_must_sum_to_one(self, masses):
        with pytest.raises(ValidationError):
            LayeredProbability(make_universe(3), [masses])


RELATIONS = ("disjoint", "nested", "equal", "overlap")


def conditioning_pair(rng, u, relation):
    full = u.omega.mask
    while True:
        b = nonempty_mask(rng, full)
        if relation == "equal":
            return b, b
        if relation == "nested":
            d = nonempty_mask(rng, b)
            return (b, d) if rng.random() < 0.5 else (d, b)
        if relation == "disjoint":
            if b != full:
                return b, nonempty_mask(rng, full & ~b)
        else:
            d = nonempty_mask(rng, full)
            if b & d and b != d and not (b & ~d == 0 or d & ~b == 0):
                return b, d


def seeded_gamble_pairs():
    """(relation of B and D, X|B, Y|D) and the reversed pair, on 400 seeds."""
    for seed in range(400):
        rng = random.Random(seed)
        u = make_universe(rng.randint(3, 7))
        for relation in RELATIONS:
            b, d = conditioning_pair(rng, u, relation)
            x = fractional_gamble(rng, u)
            if rng.random() < 0.5:
                y = fractional_gamble(rng, u)
            else:
                # raise Y so that the pair is often related
                y = Gamble(u, [v + Fraction(rng.randint(0, 12), rng.randint(1, 2)) for v in x.values])
            xb = ConditionalGamble(x, Event(u, b))
            yd = ConditionalGamble(y, Event(u, d))
            yield relation, xb, yd
            yield relation, yd, xb


VERDICTS = {
    (True, True): GnVerdict.EQUIVALENT,
    (True, False): GnVerdict.LEQ,
    (False, True): GnVerdict.GEQ,
    (False, False): GnVerdict.INCOMPARABLE,
}


class TestGnKernelAgainstOracle:
    def test_compare_builds_the_profiles_once(self, monkeypatch):
        calls = []
        profiles = gn._profiles

        def counting(gambles):
            calls.append(None)
            return profiles(gambles)

        monkeypatch.setattr(gn, "_profiles", counting)
        for _, left, right in seeded_gamble_pairs():
            calls.clear()
            verdict = gn_compare_gambles(left, right)
            assert len(calls) == 1
            expected = VERDICTS[oracle_gn_leq_gambles(left, right), oracle_gn_leq_gambles(right, left)]
            assert verdict is expected, (left, right)

    def test_seeded_pairs_equal(self):
        seen = {(relation, verdict): 0 for relation in RELATIONS for verdict in (False, True)}
        for relation, left, right in seeded_gamble_pairs():
            verdict = gn_leq_gambles(left, right)
            assert verdict == oracle_gn_leq_gambles(left, right), (left, right)
            seen[relation, verdict] += 1
        assert min(seen.values()) >= 20, seen

    def test_related_pairs_have_dominated_bounds(self):
        # The lemma behind the audit's prefilter: X|B <=GN Y|D implies
        # inf_B X <= inf_D Y and sup_B X <= sup_D Y.
        related = 0
        for _, left, right in seeded_gamble_pairs():
            if not oracle_gn_leq_gambles(left, right):
                continue
            related += 1
            x, b = left.payoff, left.conditioning
            y, d = right.payoff, right.conditioning
            assert inf_over(x, b) <= inf_over(y, d), (left, right)
            assert sup_over(x, b) <= sup_over(y, d), (left, right)
        assert related >= 200, related


def workload_assessment(rng, size, kind):
    """``size`` distinct conditional gambles on the universe of ``rng``'s
    choice of 8 to 24 worlds, half of them built GN-above an earlier one,
    valued from a pool of seven values so that ties are common."""
    u = make_universe(rng.randint(8, 24))
    pool = [Fraction(k, 4) for k in range(-2, 5)]
    entries = {}
    while len(entries) < size:
        if entries and rng.random() < 0.5:
            gamble = random_gn_above(rng, rng.choice(list(entries)))
        else:
            gamble = ConditionalGamble(fractional_gamble(rng, u), Event(u, nonempty_mask(rng, u.omega.mask)))
        entries.setdefault(gamble, rng.choice(pool))
    return Assessment(tuple(entries.items()), kind=kind)


class TestAuditAgainstOracle:
    def test_seeded_audits_equal(self):
        total = 0
        for seed in range(150):
            rng = random.Random(seed)
            u = make_universe(rng.randint(2, 6))
            entries = {}
            for _ in range(rng.randint(2, 25)):
                b = Event(u, nonempty_mask(rng, u.omega.mask))
                if rng.random() < 0.4:
                    gamble = ConditionalGamble.from_event(
                        ConditionalEvent(Event(u, rng.getrandbits(u.size)), b)
                    )
                else:
                    gamble = ConditionalGamble(fractional_gamble(rng, u), b)
                entries.setdefault(gamble, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            assessment = Assessment(tuple(entries.items()), kind="lower")
            violations = monotonicity_audit(assessment)
            assert violations == oracle_monotonicity_audit(assessment)
            total += len(violations)
        assert total > 100

    def test_workload_scale_audits_equal(self):
        total = tied = 0
        kinds = set()
        for seed in range(12):
            rng = random.Random(seed)
            kind = ("lower", "upper")[seed % 2]
            assessment = workload_assessment(rng, rng.randint(30, 64), kind)
            violations = monotonicity_audit(assessment)
            assert violations == oracle_monotonicity_audit(assessment)
            # related pairs valued alike: the order walk must stop before them
            tied += sum(
                lv == rv and oracle_gn_leq_gambles(left, right)
                for i, (left, lv) in enumerate(assessment.entries)
                for j, (right, rv) in enumerate(assessment.entries)
                if i != j
            )
            total += len(violations)
            kinds.add(kind)
        assert kinds == {"lower", "upper"}
        assert tied > 100, tied
        assert total > 100, total

    def test_kernel_runs_only_on_lower_valued_pairs_with_dominated_bounds(self, monkeypatch):
        calls = 0
        kernel = inequalities._gn_leq

        def counting(left, right):
            nonlocal calls
            calls += 1
            return kernel(left, right)

        assessment = workload_assessment(random.Random(2024), 50, "lower")
        bounds = [(inf_over(g.payoff, g.conditioning), sup_over(g.payoff, g.conditioning))
                  for g in assessment.gambles()]
        values = assessment.values()
        lower_valued = [(i, j) for i in range(50) for j in range(50) if values[j] < values[i]]
        dominated = [(i, j) for i, j in lower_valued
                     if bounds[j][0] >= bounds[i][0] and bounds[j][1] >= bounds[i][1]]
        monkeypatch.setattr(inequalities, "_gn_leq", counting)
        monotonicity_audit(assessment)
        assert calls == len(dominated)
        assert calls < len(lower_valued)


class TestCenteringAgainstOracle:
    def test_seeded_centering_equal(self):
        zeros = {0: 0, 1: 0}  # zero gambles already assessed at 0, at 1, ...
        for seed in range(200):
            rng = random.Random(seed)
            u = make_universe(rng.randint(1, 5))
            entries = {}  # one value per gamble, as an Assessment holds them
            for _ in range(rng.randint(1, 6)):
                b = Event(u, nonempty_mask(rng, (1 << u.size) - 1))
                if rng.random() < 0.3:
                    payoff, value = Gamble.zero(u), rng.choice((0, 1))
                else:
                    payoff = fractional_gamble(rng, u)
                    value = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                entries.setdefault(ConditionalGamble(payoff, b), value)
            entries = list(entries.items())
            for gamble, value in entries:
                if not any(gamble.payoff.values):
                    zeros[value] = zeros.get(value, 0) + 1
            assert _with_centering(entries) == oracle_with_centering(entries)
        assert zeros[0] >= 50 and zeros[1] >= 50


class TestRowsAgainstOracle:
    def test_seeded_rows_equal(self):
        # Payoffs with denominators up to 12, or integers; values that are
        # fractions, integers or one of the entry's own payoffs; conditioning
        # on omega or on a random event; and, after centering, zero rows.
        kinds = Counter()
        for seed in range(1200):
            rng = random.Random(seed)
            u = make_universe(rng.randint(1, 6))
            omega = (1 << u.size) - 1
            entries = []
            for _ in range(rng.randint(1, 6)):
                b = Event(u, omega if rng.random() < 0.3 else nonempty_mask(rng, omega))
                if rng.random() < 0.2:
                    payoff = Gamble(u, [rng.randint(-6, 6) for _ in range(u.size)])
                else:
                    payoff = Gamble(
                        u, [Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(u.size)]
                    )
                gamble = ConditionalGamble(payoff, b)
                draw = rng.random()
                if draw < 0.3:
                    value = gamble.payoff.values[rng.choice(list(b.indices()))]
                    kinds["payoff value"] += 1
                elif draw < 0.5:
                    value = Fraction(rng.randint(-3, 3))
                else:
                    value = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                kinds["omega"] += b.is_omega
                entries.append((gamble, value))
            if rng.random() < 0.5:
                entries, _ = _with_centering(entries)
            masks, rows = coherence._rows(entries)
            assert (masks, rows) == oracle_rows(entries), seed
            assert all(type(c) is int for row in rows for c in row)
            kinds["zero row"] += sum(not any(row) for row in rows)
        assert min(kinds.values()) >= 200, kinds
