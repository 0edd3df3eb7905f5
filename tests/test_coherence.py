"""Consistency checker: witnesses, class hierarchy, envelope soundness."""

import random
from fractions import Fraction

import pytest

from gnprob import (
    Assessment,
    ConditionalGamble,
    EnumerationLimitError,
    Gamble,
    GainSpec,
    GainTerm,
    UniverseMismatchError,
    ValidationError,
    Verdict,
    check,
    check_avoiding_sure_loss,
    coherence,
    conditioned_max,
    conjugate,
    evaluate_gain,
    extension_interval,
    monotonicity_audit,
    random_credal,
    random_layered,
)
from conftest import (
    asl_not_monotone,
    make_universe,
    random_conditional_event,
    random_nontrivial_ce,
    random_partition,
)
from oracles import iter_conditional_domain, scaled

ALL_CLASSES = ("dF", "W", "convex", "1convex")


def indicator_entry(u, conditioned, conditioning=None, value=0):
    conditioning = u.omega if conditioning is None else conditioning
    return (
        ConditionalGamble(Gamble.indicator(conditioned), conditioning),
        Fraction(value),
    )


def sample_event_assessment(rng, evaluator, u, size, kind):
    """Entries at random conditional events, valued by the evaluator."""
    entries = []
    for _ in range(size):
        ce = random_conditional_event(rng, u)
        entries.append((ConditionalGamble.from_event(ce), evaluator(ce)))
    return Assessment(tuple(entries), kind=kind)


class TestEvaluateGain:
    def test_zero_stakes(self):
        u = make_universe(2)
        cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.omega)
        spec = GainSpec((GainTerm(Fraction(0), cg, Fraction(1, 2)),))
        assert evaluate_gain(spec, 0) == 0 and evaluate_gain(spec, 1) == 0

    def test_called_off_bet(self):
        u = make_universe(2)
        cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.event(["w1"]))
        spec = GainSpec((GainTerm(Fraction(1), cg, Fraction(1, 2)),))
        assert evaluate_gain(spec, "w2") == 0

    def test_winning_bet(self):
        u = make_universe(3)
        b = u.event(["w1", "w2"])
        cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), b)
        spec = GainSpec((GainTerm(Fraction(1), cg, Fraction(3, 5)),))
        assert evaluate_gain(spec, "w1") == Fraction(2, 5)

    def test_against_term_subtracted(self):
        u = make_universe(2)
        cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.omega)
        spec = GainSpec((GainTerm(Fraction(1), cg, Fraction(1, 2)),), against=0)
        assert evaluate_gain(spec, "w1") == Fraction(-1, 2)

    @pytest.mark.parametrize("world", [3, 99, -1, True, "w4"], ids=repr)
    def test_world_that_is_not_in_the_universe_refused(self, world):
        u = make_universe(3)
        cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.omega)
        spec = GainSpec((GainTerm(Fraction(1), cg, Fraction(1, 2)),))
        assert evaluate_gain(spec, 2) == Fraction(-1, 2)
        with pytest.raises(ValidationError):
            evaluate_gain(spec, world)


class TestGainValidation:
    @pytest.mark.parametrize(
        "stake, value",
        [(0.5, Fraction(1, 4)), (Fraction(1, 2), 0.25), (True, Fraction(1, 4)), (Fraction(1, 2), False)],
        ids=repr,
    )
    def test_float_or_bool_stake_or_value_refused(self, stake, value):
        u = make_universe(2)
        cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.omega)
        with pytest.raises(ValidationError):
            GainTerm(stake, cg, value)

    @pytest.mark.parametrize("against", [True, 0.0, "0"], ids=repr)
    def test_against_that_is_not_an_int_refused(self, against):
        # As in Universe.index, a bool or a float equal to an index is no index.
        u = make_universe(2)
        terms = tuple(
            GainTerm(Fraction(1), ConditionalGamble(Gamble.indicator(u.event([w])), u.omega), Fraction(1, 2))
            for w in ("w1", "w2")
        )
        with pytest.raises(ValidationError):
            GainSpec(terms, against=against)

    def test_gamble_that_is_not_conditional_refused(self):
        u = make_universe(2)
        for gamble in (Gamble(u, [1, 0]), "x"):
            with pytest.raises(ValidationError):
                GainTerm(1, gamble, 0)

    def test_witness_that_is_not_a_gain_refused(self):
        u = make_universe(2)
        term = GainTerm(1, ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.omega), 0)
        for witness in ("nope", term):
            with pytest.raises(ValidationError):
                Verdict(False, witness)

    def test_int_stake_becomes_a_fraction(self):
        u = make_universe(2)
        cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.omega)
        term = GainTerm(2, cg, "1/4")
        assert type(term.stake) is Fraction and term.stake == 2
        assert type(term.value) is Fraction and term.value == Fraction(1, 4)
        assert evaluate_gain(GainSpec((term,)), "w1") == Fraction(3, 2)

    @pytest.mark.parametrize("order", [(3, 2), (2, 3)], ids=["3-then-2", "2-then-3"])
    def test_terms_on_different_universes_refused(self, order):
        terms = []
        for n in order:
            u = make_universe(n)
            cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.omega)
            terms.append(GainTerm(Fraction(1), cg, Fraction(1, 2)))
        with pytest.raises(UniverseMismatchError):
            GainSpec(tuple(terms))

    def test_list_fields_become_tuples(self):
        u = make_universe(2)
        cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.omega)
        term = GainTerm(Fraction(1), cg, Fraction(1, 2))
        spec = GainSpec([term])
        assert spec == GainSpec((term,)) and hash(spec) == hash(GainSpec((term,)))
        verdict = Verdict(True, None, [cg])
        assert verdict == Verdict(True, None, (cg,))
        assert hash(verdict) == hash(Verdict(True, None, (cg,)))


class TestCheckExamples:
    def test_fair_pair_is_df_coherent(self):
        u = make_universe(2)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(1, 2)),
                indicator_entry(u, u.event(["w2"]), value=Fraction(1, 2)),
            ),
            kind="precise",
        )
        assert check(a, "dF").consistent

    def test_overbooked_pair_witness(self):
        u = make_universe(2)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(3, 5)),
                indicator_entry(u, u.event(["w2"]), value=Fraction(3, 5)),
            ),
            kind="precise",
        )
        verdict = check(a, "dF")
        assert not verdict.consistent
        witness = verdict.witness
        assert conditioned_max(witness) < 0
        # stakes scale to the unit gain losing 1/5 everywhere
        total = sum(t.stake for t in witness.terms)
        unit = scaled(witness, 1 / total) if total != 1 else witness
        assert conditioned_max(scaled(unit, 2)) == 2 * conditioned_max(unit)

    def test_dominated_lower_pair_w_coherent(self):
        u = make_universe(2)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(2, 5)),
                indicator_entry(u, u.event(["w2"]), value=Fraction(1, 2)),
            ),
            kind="lower",
        )
        assert check(a, "W").consistent

    def test_monotonicity_violation_fails_convex(self):
        u = make_universe(3)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(7, 10)),
                indicator_entry(u, u.event(["w1", "w2"]), value=Fraction(6, 10)),
            ),
            kind="lower",
        )
        for cls in ("convex", "1convex", "W", "dF"):
            verdict = check(a, cls)
            assert not verdict.consistent
            assert conditioned_max(verdict.witness) < 0

    def test_empty_assessment_trivially_consistent(self):
        a = Assessment(())
        for cls in ALL_CLASSES:
            assert check(a, cls).consistent

    def test_entry_cap(self):
        u = make_universe(5)
        entries = tuple(
            (ConditionalGamble(Gamble.constant(u, i), u.omega), Fraction(i))
            for i in range(coherence.MAX_ENTRIES + 1)
        )
        with pytest.raises(EnumerationLimitError):
            check(Assessment(entries), "dF")

    def test_upper_entry_cap_refused_before_conjugation(self, monkeypatch):
        # Conjugation rebuilds every entry, so an over-cap upper assessment
        # is refused as cheaply as a lower one, with the same message.
        u = make_universe(5)
        entries = tuple(
            (ConditionalGamble(Gamble.constant(u, i), u.omega), Fraction(i))
            for i in range(coherence.MAX_ENTRIES + 1)
        )

        def conjugate(assessment):
            raise AssertionError("an over-cap assessment was conjugated")

        monkeypatch.setattr(coherence, "conjugate", conjugate)
        message = f"^{coherence.MAX_ENTRIES + 1} entries exceed the cap of {coherence.MAX_ENTRIES}$"
        for cls in ALL_CLASSES:
            with pytest.raises(EnumerationLimitError, match=message):
                check(Assessment(entries, kind="upper"), cls)


class TestSubfamilyEnumeration:
    def test_violation_hidden_by_larger_union(self):
        # The incoherent pair is conditioned inside {w1,w2}; a third entry
        # conditioned on everything would zero the gain at w3, so only the
        # subfamily search can find the violation.
        u = make_universe(3)
        b = u.event(["w1", "w2"])
        a = Assessment(
            (
                (ConditionalGamble(Gamble.indicator(u.event(["w1"])), b), Fraction(3, 5)),
                (ConditionalGamble(Gamble.indicator(u.event(["w2"])), b), Fraction(3, 5)),
                indicator_entry(u, u.event(["w3"]), value=Fraction(1)),
            ),
            kind="precise",
        )
        verdict = check(a, "dF")
        assert not verdict.consistent
        assert verdict.witness.conditioning() == b
        assert conditioned_max(verdict.witness) < 0


class TestConjugate:
    def test_involution_and_sign_flip(self):
        u = make_universe(2)
        a = Assessment(
            (indicator_entry(u, u.event(["w1"]), value=Fraction(6, 10)),), kind="upper"
        )
        flipped = conjugate(a)
        assert flipped.kind == "lower"
        gamble, value = flipped.entries[0]
        assert value == Fraction(-6, 10)
        assert gamble.payoff.values[0] == -1
        assert conjugate(flipped) == a

    def test_precise_rejected(self):
        u = make_universe(2)
        a = Assessment((indicator_entry(u, u.event(["w1"]), value=Fraction(1, 2)),))
        with pytest.raises(ValidationError):
            conjugate(a)

    def test_upper_check_through_conjugate(self):
        # Upper probabilities summing below 1 are inconsistent.
        u = make_universe(2)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(2, 5)),
                indicator_entry(u, u.event(["w2"]), value=Fraction(2, 5)),
            ),
            kind="upper",
        )
        verdict = check(a, "W")
        assert not verdict.consistent
        assert conditioned_max(verdict.witness) < 0


class TestEnvelopeSoundness:
    def test_layered_families_pass_df(self):
        rng = random.Random(100)
        for seed in range(120):
            u = make_universe(rng.randint(1, 5))
            p = random_layered(seed, u, max_layers=2)
            a = sample_event_assessment(rng, p.probability, u, rng.randint(1, 4), "precise")
            assert check(a, "dF").consistent, seed

    def test_envelopes_pass_w(self):
        rng = random.Random(200)
        for seed in range(80):
            u = make_universe(rng.randint(1, 5))
            m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            a = sample_event_assessment(rng, m.lower, u, rng.randint(1, 4), "lower")
            assert check(a, "W").consistent, seed

    def test_class_hierarchy(self):
        # Passing the coherence check implies passing both convex checks.
        rng = random.Random(300)
        for seed in range(40):
            u = make_universe(rng.randint(2, 4))
            m = random_credal(seed, u, rng.randint(1, 2), max_layers=2)
            a = sample_event_assessment(rng, m.lower, u, rng.randint(1, 3), "lower")
            assert check(a, "W").consistent
            assert check(a, "convex").consistent
            assert check(a, "1convex").consistent

    def test_intermediate_values_pass(self):
        # Two passing values at one conditional gamble admit every value
        # in between. Base entries come from the measurable field, the
        # setting where the endpoint values are known to extend coherently.
        rng = random.Random(400)
        done = 0
        while done < 25:
            u = make_universe(rng.randint(2, 4))
            m = random_credal(rng.randrange(10**6), u, 2, max_layers=1)
            p = random_partition(rng, u)
            target = random_nontrivial_ce(rng, u)
            measurable = list(iter_conditional_domain(p))
            picks = [rng.choice(measurable) for _ in range(2)]
            base = Assessment(
                tuple((ConditionalGamble.from_event(ce), m.lower(ce)) for ce in picks),
                kind="lower",
            )
            interval = extension_interval(m.lower, target, p)
            if interval.low == interval.high:
                continue
            cg = ConditionalGamble.from_event(target)
            low_a = base.with_entry(cg, interval.low)
            high_a = base.with_entry(cg, interval.high)
            assert check(low_a, "W").consistent, (interval, base)
            assert check(high_a, "W").consistent, (interval, base)
            mid = (interval.low + interval.high) / 2
            third = interval.low + (interval.high - interval.low) / 3
            for value in (mid, third):
                assert check(base.with_entry(cg, value), "W").consistent
            done += 1


class TestNecessaryConditions:
    def test_breaking_event_values_fail_every_class(self):
        u = make_universe(2)
        b = u.event(["w1", "w2"])
        proper = u.event(["w1"])
        cases = [
            indicator_entry(u, proper, b, Fraction(6, 5)),    # above 1
            indicator_entry(u, proper, b, Fraction(-1, 5)),   # below 0
            indicator_entry(u, u.empty, b, Fraction(1, 10)),  # empty valued nonzero
            indicator_entry(u, b, b, Fraction(9, 10)),        # sure valued below 1
        ]
        for entry in cases:
            for kind in ("precise", "lower"):
                a = Assessment((entry,), kind=kind)
                for cls in ALL_CLASSES:
                    verdict = check(a, cls)
                    assert not verdict.consistent, (entry, kind, cls)
                    assert conditioned_max(verdict.witness) < 0


class TestAvoidingSureLoss:
    def test_counterexample_triple(self):
        assessment, (small, large) = asl_not_monotone()
        assert small.conditioned <= large.conditioned
        values = dict(assessment.entries)
        small_value = values[ConditionalGamble.from_event(small)]
        large_value = values[ConditionalGamble.from_event(large)]
        assert small_value > large_value
        assert check_avoiding_sure_loss(assessment).consistent
        assert not check(assessment, "W").consistent
        violations = monotonicity_audit(assessment)
        assert len(violations) == 1

    def test_sure_loss_detected(self):
        # Lower values summing above 1 on complementary events lose surely.
        u = make_universe(2)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(3, 5)),
                indicator_entry(u, u.event(["w2"]), value=Fraction(3, 5)),
            ),
            kind="lower",
        )
        verdict = check_avoiding_sure_loss(a)
        assert not verdict.consistent
        assert conditioned_max(verdict.witness) < 0
        assert verdict.witness.against is None
        assert all(t.stake >= 0 for t in verdict.witness.terms)

    def test_sure_loss_is_not_a_check_class(self):
        # avoiding sure loss has its own entry point, not a class name
        assessment, _ = asl_not_monotone()
        with pytest.raises(ValidationError):
            check(assessment, "asl")


class TestClassBoundaries:
    def test_superadditivity_violation_needs_a_bet_against(self):
        # Lower probabilities on disjoint events must not exceed the value
        # of their union; exposing 5/8 < 1/2 + 1/4 takes two bets in favour
        # against one on the union, with the gain -1/8 everywhere.
        u = make_universe(3)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(1, 2)),
                indicator_entry(u, u.event(["w2"]), value=Fraction(1, 4)),
                indicator_entry(u, u.event(["w1", "w2"]), value=Fraction(5, 8)),
            ),
            kind="lower",
        )
        verdict = check(a, "W")
        assert not verdict.consistent
        assert verdict.witness.against is not None
        assert conditioned_max(verdict.witness) < 0
        # only bets in favour cannot expose it
        assert check_avoiding_sure_loss(a).consistent

    def test_convexity_constraint_separates_classes(self):
        # The same assessment is convex-consistent: with the stakes in
        # favour summing to the unit stake against, the gain cannot dip
        # below zero at the world outside the union, so the coherent and
        # convex classes genuinely differ here.
        u = make_universe(3)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(1, 2)),
                indicator_entry(u, u.event(["w2"]), value=Fraction(1, 4)),
                indicator_entry(u, u.event(["w1", "w2"]), value=Fraction(5, 8)),
            ),
            kind="lower",
        )
        assert not check(a, "W").consistent
        assert not check(a, "dF").consistent
        assert check(a, "convex").consistent
        assert check(a, "1convex").consistent

    def test_witness_determinism(self):
        u = make_universe(3)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(7, 10)),
                indicator_entry(u, u.event(["w1", "w2"]), value=Fraction(6, 10)),
            ),
            kind="lower",
        )
        first = check(a, "W").witness
        second = check(a, "W").witness
        assert first == second

    def test_default_class_from_assessment_tag(self):
        u = make_universe(2)
        a = Assessment(
            (indicator_entry(u, u.event(["w1"]), value=Fraction(1, 2)),),
            kind="lower",
            consistency="1convex",
        )
        assert check(a).consistent


class TestWitnessShape:
    def test_w_witness_sign_pattern(self):
        u = make_universe(3)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(7, 10)),
                indicator_entry(u, u.event(["w1", "w2"]), value=Fraction(6, 10)),
            ),
            kind="lower",
        )
        witness = check(a, "W").witness
        assert all(t.stake >= 0 for t in witness.terms)
        assert witness.against is not None

    def test_convex_witness_balance(self):
        u = make_universe(3)
        a = Assessment(
            (
                indicator_entry(u, u.event(["w1"]), value=Fraction(7, 10)),
                indicator_entry(u, u.event(["w1", "w2"]), value=Fraction(6, 10)),
            ),
            kind="lower",
        )
        witness = check(a, "convex").witness
        against_stake = witness.terms[witness.against].stake
        favour = sum(t.stake for i, t in enumerate(witness.terms) if i != witness.against)
        assert against_stake == favour == 1
