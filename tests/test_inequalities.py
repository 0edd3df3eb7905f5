"""Inequality reports: product rule, monotonicity, nesting, lower bounds."""

import random
from fractions import Fraction

import pytest

from gnprob import (
    Assessment,
    ConditionalEvent,
    ConditionalGamble,
    CredalSet,
    EmptyConditioningError,
    Event,
    Gamble,
    GnVerdict,
    LayeredProbability,
    Partition,
    Universe,
    UnsupportedOperationError,
    ValidationError,
    finite_values_lower_bound,
    gn_leq_gambles,
    inner_event_lower_bound,
    monotonicity_audit,
    nested_conditioning_report,
    product_rule_report,
    random_credal,
    random_layered,
    sign_relation,
)
from conftest import (
    make_universe,
    random_conditional_event,
    random_conditional_gamble,
    random_event,
    random_gamble,
    random_gn_above,
    random_partition,
)
from oracles import oracle_finite_values_lower_bound


class TestProductRule:
    def test_constant_one_collapses_to_equality(self):
        rng = random.Random(1)
        for seed in range(30):
            u = make_universe(rng.randint(2, 5))
            m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            a = random_event(rng, u)
            b = random_event(rng, u)
            if (a & b).is_empty:
                continue
            positive, negative, zero = product_rule_report(m, a, b, Gamble.constant(u, 1))
            assert positive.applicable and positive.holds
            assert positive.lhs == positive.rhs  # P(A|B) * 1 against P(A*1|B)
            assert not negative.applicable
            assert zero.holds

    def test_seeded_envelopes(self):
        rng = random.Random(2)
        for seed in range(200):
            u = make_universe(rng.randint(2, 5))
            m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            a = random_event(rng, u)
            b = random_event(rng, u)
            if (a & b).is_empty:
                continue
            x = random_gamble(rng, u)
            for report in product_rule_report(m, a, b, x):
                if report.applicable:
                    assert report.holds, (seed, report)

    def test_zero_lower_probability_case(self):
        # One member concentrates off A, so the lower probability of A
        # vanishes and both sides of the zero clause are 0.
        u = make_universe(3)
        member_off = LayeredProbability(u, [[0, 0, 1], [Fraction(1, 2), Fraction(1, 2), 0]])
        member_on = LayeredProbability(u, [[Fraction(1, 3)] * 3])
        from gnprob import CredalSet

        m = CredalSet([member_off, member_on])
        a = u.event(["w1"])
        x = Gamble(u, [2, 1, 1])
        positive, negative, zero = product_rule_report(m, a, u.omega, x)
        assert zero.holds and zero.lhs == 0 and zero.rhs == 0

    def test_incompatible_events_rejected(self):
        u = make_universe(2)
        m = random_credal(0, u, 1)
        with pytest.raises(EmptyConditioningError):
            product_rule_report(m, u.event(["w1"]), u.event(["w2"]), Gamble.zero(u))

    def test_zero_clause_guard_regression(self):
        # A coherent two-member envelope with a zero lower probability on A
        # and a negative conditional price for X: the product degenerates to
        # 0 while the price of AX given B is strictly negative. The zero
        # clause must report not-applicable here, the negative clause must
        # still hold, and the forward implication stays vacuously intact.
        from gnprob import Assessment, CredalSet, check

        u = make_universe(3)
        a, b = u.event(["w1"]), u.omega
        x = Gamble(u, [-1, 1, -3])
        m0 = LayeredProbability(u, [[0, Fraction(5, 6), Fraction(1, 6)], [1, 0, 0]])
        m1 = LayeredProbability(u, [[Fraction(7, 17), Fraction(1, 17), Fraction(9, 17)]])
        m = CredalSet([m0, m1])
        assert m.lower(ConditionalEvent(a, b)) == 0
        assert m.lower(ConditionalGamble(x, a & b)) == Fraction(-1)
        ax_price = m.lower(ConditionalGamble(Gamble.indicator(a) * x, b))
        assert ax_price == Fraction(-7, 17)
        positive, negative, zero = product_rule_report(m, a, b, x)
        assert not zero.applicable
        assert negative.applicable and negative.holds
        # the restriction to the three priced objects is machine-certified
        # coherent, so no sound implementation may call this inconsistent
        triple = Assessment(
            (
                (ConditionalGamble(Gamble.indicator(a) * x, b), ax_price),
                (ConditionalGamble.from_event(ConditionalEvent(a, b)), Fraction(0)),
                (ConditionalGamble(x, a & b), Fraction(-1)),
            ),
            kind="lower",
        )
        assert check(triple, "W").consistent


class TestMonotonicityAudit:
    def test_envelope_assessments_clean(self):
        rng = random.Random(3)
        for seed in range(50):
            u = make_universe(rng.randint(2, 5))
            m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            entries = []
            for _ in range(5):
                ce = random_conditional_event(rng, u)
                entries.append((ConditionalGamble.from_event(ce), m.lower(ce)))
            assert monotonicity_audit(Assessment(tuple(entries), kind="lower")) == []

    def test_envelope_assessments_of_gambles_clean(self):
        # GN monotonicity of coherent lower and upper previsions, on
        # conditional gambles with constructed GN-ordered pairs among them.
        related = 0
        for seed in range(60):
            rng = random.Random(seed)
            u = make_universe(rng.randint(4, 12))
            credal = random_credal(seed, u, rng.randint(1, 4), max_layers=3)
            gambles = []
            for _ in range(rng.randint(12, 24)):
                if gambles and rng.random() < 0.5:
                    gambles.append(random_gn_above(rng, rng.choice(gambles)))
                else:
                    gambles.append(random_conditional_gamble(rng, u))
            gambles = list(dict.fromkeys(gambles))
            related += sum(gn_leq_gambles(a, b) for a in gambles for b in gambles if a != b)
            for kind, evaluate in (("lower", credal.lower), ("upper", credal.upper)):
                assessment = Assessment(tuple((g, evaluate(g)) for g in gambles), kind=kind)
                assert monotonicity_audit(assessment) == []
        assert related >= 5000, related

    def test_crafted_violation_found(self):
        u = make_universe(3)
        omega = u.omega
        entries = (
            (ConditionalGamble(Gamble.indicator(u.event(["w1"])), omega), Fraction(7, 10)),
            (ConditionalGamble(Gamble.indicator(u.event(["w1", "w2"])), omega), Fraction(6, 10)),
        )
        violations = monotonicity_audit(Assessment(entries, kind="lower"))
        assert len(violations) == 1
        assert violations[0].left_value == Fraction(7, 10)

    def test_incomparable_pairs_not_reported(self):
        u = make_universe(2)
        omega = u.omega
        entries = (
            (ConditionalGamble(Gamble.indicator(u.event(["w1"])), omega), Fraction(9, 10)),
            (ConditionalGamble(Gamble.indicator(u.event(["w2"])), omega), Fraction(1, 10)),
        )
        assert monotonicity_audit(Assessment(entries, kind="lower")) == []

    def test_empty_assessment(self):
        assert monotonicity_audit(Assessment(())) == []


class TestNestedConditioning:
    def test_event_numerator_instance(self, football):
        # Uniform weights on the five worlds; conditioning on the three
        # where the finalist is not a third team.
        u = football.universe
        uniform = LayeredProbability(u, [[Fraction(1, 5)] * 5])
        a = u.event(["w2"])
        b1 = u.event(["w1", "w2", "w3"])
        reports = nested_conditioning_report(uniform, a, b1, u.omega)
        numerator = [r for r in reports if r.name == "nested-numerator"][0]
        assert numerator.holds
        assert numerator.lhs == Fraction(1, 5) and numerator.rhs == Fraction(1, 3)

    def test_event_refinement_applicability(self):
        rng = random.Random(4)
        applicable_seen = 0
        for seed in range(150):
            u = make_universe(rng.randint(2, 5))
            m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            b0 = random_event(rng, u)
            if len(b0) < 2:
                continue
            inside = b0.indices()
            b1 = Event(u, 1 << inside[rng.randrange(len(inside))])
            a = Event(u, rng.randint(0, (1 << u.size) - 1) & b1.mask)  # A inside B1
            reports = nested_conditioning_report(m, a, b1, b0)
            refinement = [r for r in reports if r.name == "nested-refinement"][0]
            assert refinement.applicable  # A inside B1 forces the condition
            assert refinement.holds
            applicable_seen += 1
        assert applicable_seen > 50

    def test_event_reports_evaluate_a_given_b1_once(self):
        u = make_universe(3)
        m = random_credal(1, u, 2, max_layers=1)
        seen = []

        class Counting:
            def lower(self, obj):
                seen.append(obj)
                return m.lower(obj)

        a, b1 = u.event(["w1"]), u.event(["w1", "w2"])
        reports = nested_conditioning_report(Counting(), a, b1, u.omega)
        assert reports == nested_conditioning_report(m, a, b1, u.omega)
        assert reports[0].applicable and len(seen) == len(set(seen)) == 2

    def test_gamble_chain(self):
        rng = random.Random(5)
        for seed in range(150):
            u = make_universe(rng.randint(2, 5))
            m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            b0 = random_event(rng, u)
            if len(b0) < 2:
                continue
            sub = [i for i in b0.indices() if rng.random() < 0.6]
            if not sub:
                continue
            b1 = Event(u, sum(1 << i for i in sub))
            x = Gamble(u, [Fraction(abs(rng.randint(0, 4)), rng.randint(1, 3)) for _ in range(u.size)])
            lower_r, upper_r = nested_conditioning_report(m, x, b1, b0)
            assert lower_r.applicable and lower_r.holds
            if upper_r.applicable:
                assert upper_r.holds
                # chain is internally consistent: lhs of the lower report
                # below its rhs, which is the lhs of the upper report
                assert lower_r.lhs <= lower_r.rhs == upper_r.lhs <= upper_r.rhs

    def test_constant_gamble_collapse(self):
        u = make_universe(3)
        m = random_credal(1, u, 2, max_layers=1)
        b1 = u.event(["w1", "w2"])
        c = Fraction(3)
        reports = nested_conditioning_report(m, Gamble.constant(u, c), b1, u.omega)
        lower_r, upper_r = reports
        p_b1 = m.lower(ConditionalEvent(b1, u.omega))
        assert lower_r.holds and lower_r.lhs == c * p_b1 and lower_r.rhs == c
        assert upper_r.applicable and upper_r.rhs == c * p_b1 / p_b1 / 1  # collapses to c
        assert upper_r.holds

    def test_not_nested_rejected(self):
        u = make_universe(2)
        m = random_credal(0, u, 1)
        with pytest.raises(ValidationError):
            nested_conditioning_report(m, u.event(["w1"]), u.event(["w2"]), u.event(["w1"]))

    def test_upper_side_refused_for_a_gamble(self):
        # The quotient bound fails for upper previsions: here U(X|B1) = 91/10
        # exceeds U(B1 X|B0) / U(B1|B0) = (7/5) / (19/20) = 28/19.
        u = Universe(("a", "b", "c"))
        m = CredalSet(
            [
                LayeredProbability(u, [[Fraction(9, 10), Fraction(1, 20), Fraction(1, 20)]]),
                LayeredProbability(u, [[Fraction(1, 200), Fraction(9, 200), Fraction(190, 200)]]),
            ]
        )
        x = Gamble(u, [1, 10, 0])
        b1, b0 = u.event(["a", "b"]), u.omega
        upper_x = m.upper(ConditionalGamble(x, b1))
        quotient = m.upper(ConditionalGamble(Gamble.indicator(b1) * x, b0)) / m.upper(
            ConditionalEvent(b1, b0)
        )
        assert (upper_x, quotient) == (Fraction(91, 10), Fraction(28, 19))
        with pytest.raises(UnsupportedOperationError):
            nested_conditioning_report(m, x, b1, b0, side="upper")
        assert all(r.holds for r in nested_conditioning_report(m, x, b1, b0))

    def test_event_reports_hold_for_upper_envelopes(self):
        rng = random.Random(9)
        for seed in range(80):
            u = make_universe(rng.randint(2, 5))
            m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            b0 = random_event(rng, u)
            if len(b0) < 2:
                continue
            inside = b0.indices()
            b1 = Event(u, 1 << inside[rng.randrange(len(inside))])
            a = Event(u, rng.randint(0, (1 << u.size) - 1) & b1.mask)
            for report in nested_conditioning_report(m, a, b1, b0, side="upper"):
                if report.applicable:
                    assert report.holds


class TestInnerEventLowerBound:
    def setup_method(self):
        self.u = make_universe(4)
        self.p = Partition(
            self.u, (self.u.event(["w1"]), self.u.event(["w2", "w3"]), self.u.event(["w4"]))
        )
        self.b = self.u.event(["w1", "w2"])
        self.x = Gamble(self.u, {"w1": 1, "w2": 2})
        self.uniform = LayeredProbability(self.u, [[Fraction(1, 4)] * 4])

    def test_hand_instance(self):
        report = inner_event_lower_bound(
            self.uniform, self.x, self.b, self.p, truth=self.uniform.value
        )
        assert report.applicable
        assert report.lhs == Fraction(1)
        assert report.rhs == Fraction(3, 2)
        assert report.holds

    def test_reduces_to_infimum_when_inner_price_matches(self):
        # With the price of X on the inner event at the infimum of X on B,
        # the bound collapses to that infimum.
        x = Gamble(self.u, {"w1": 1, "w2": 1})
        report = inner_event_lower_bound(self.uniform, x, self.b, self.p, truth=self.uniform.value)
        assert report.applicable
        assert report.lhs == 1  # inf over B
        assert report.holds

    def test_empty_inner_event_not_applicable(self):
        b = self.u.event(["w2"])  # inside the block {w2,w3}
        report = inner_event_lower_bound(self.uniform, self.x, b, self.p)
        assert not report.applicable

    def test_without_truth_reported_only(self):
        report = inner_event_lower_bound(self.uniform, self.x, self.b, self.p)
        assert report.applicable and report.holds is None

    def test_seeded_bound_below_every_member(self):
        rng = random.Random(6)
        done = 0
        while done < 150:
            u = make_universe(rng.randint(2, 5))
            m = random_credal(rng.randrange(10**6), u, rng.randint(1, 3), max_layers=2)
            p = random_partition(rng, u)
            b = random_event(rng, u)
            x = random_gamble(rng, u)
            report = inner_event_lower_bound(m, x, b, p, truth=m.lower)
            if not report.applicable:
                continue
            assert report.holds, (u, b, x)
            for member in m.members:
                assert report.lhs <= member.prevision(ConditionalGamble(x, b))
            done += 1


class TestFiniteValuesLowerBound:
    def setup_method(self):
        self.u = make_universe(4)
        self.p = Partition(
            self.u, (self.u.event(["w1"]), self.u.event(["w2", "w3"]), self.u.event(["w4"]))
        )
        self.b = self.u.event(["w1", "w2"])
        self.uniform = LayeredProbability(self.u, [[Fraction(1, 4)] * 4])

    def test_hand_instance(self):
        x = Gamble(self.u, {"w1": 1, "w2": 2})
        report = finite_values_lower_bound(self.uniform, x, self.b, self.p, truth=self.uniform.value)
        assert report.applicable
        assert report.lhs == Fraction(1, 3)
        assert report.rhs == Fraction(3, 2)
        assert report.holds

    def test_zero_gamble(self):
        report = finite_values_lower_bound(self.uniform, Gamble.zero(self.u), self.b, self.p)
        assert report.applicable and report.lhs == 0

    def test_negative_values_not_applicable(self):
        x = Gamble(self.u, {"w1": -1})
        report = finite_values_lower_bound(self.uniform, x, self.b, self.p)
        assert not report.applicable

    def test_measurable_case_exact(self):
        # Measurable level sets and conditioning: the bound meets the price.
        u, p = self.u, self.p
        b = u.event(["w1", "w2", "w3"])
        x = Gamble(u, {"w1": 2, "w2": 1, "w3": 1})
        pr = LayeredProbability(u, [[Fraction(1, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 2)]])
        report = finite_values_lower_bound(pr, x, b, p, truth=pr.value)
        assert report.applicable and report.holds
        assert report.lhs == report.rhs

    def test_seeded_bound_below_truth(self):
        rng = random.Random(7)
        done = 0
        while done < 150:
            u = make_universe(rng.randint(2, 5))
            m = random_credal(rng.randrange(10**6), u, rng.randint(1, 3), max_layers=2)
            p = random_partition(rng, u)
            b = random_event(rng, u)
            x = Gamble(u, [Fraction(abs(rng.randint(0, 3)), rng.randint(1, 2)) for _ in range(u.size)])
            report = finite_values_lower_bound(m, x, b, p, truth=m.lower)
            if not report.applicable:
                continue
            assert report.holds, (u, b, x)
            done += 1

    def test_agrees_with_the_rescan_oracle(self):
        # One pass over B keyed by value gives the report that rescanning B
        # for each distinct value gave. The small pool repeats values, and
        # zeros and negatives on B reach the skipped and refused levels.
        pool = [Fraction(v) for v in ("0", "0", "1/3", "1/2", "1", "2", "2", "-1")]
        rng = random.Random(31)
        applicable = 0
        for k in range(500):
            u = make_universe(rng.randint(1, 6))
            seed = rng.randrange(10**6)
            if k % 2:
                mu = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            else:
                mu = random_layered(seed, u, max_layers=2)
            truth = mu.lower if k // 2 % 2 else None
            p = random_partition(rng, u)
            b = random_event(rng, u)
            x = Gamble(u, [rng.choice(pool) for _ in range(u.size)])
            report = finite_values_lower_bound(mu, x, b, p, truth=truth)
            assert report == oracle_finite_values_lower_bound(mu, x, b, p, truth=truth), k
            applicable += report.applicable
        assert 250 <= applicable < 500


class TestSignRelation:
    def test_three_sign_cases(self):
        u = make_universe(3)
        b1 = u.event(["w1", "w2"])
        b0 = u.omega
        assert sign_relation(Gamble(u, [1, 2, -9]), b1, b0).verdict is GnVerdict.LEQ
        assert sign_relation(Gamble(u, [-1, 0, 9]), b1, b0).verdict is GnVerdict.GEQ
        assert sign_relation(Gamble(u, [-1, 1, 0]), b1, b0).verdict is GnVerdict.INCOMPARABLE
        assert sign_relation(Gamble(u, [0, 0, 5]), b1, b0).verdict is GnVerdict.EQUIVALENT

    def test_equal_conditionings_equivalent(self):
        u = make_universe(2)
        b = u.omega
        report = sign_relation(Gamble(u, [1, -1]), b, b)
        assert report.verdict is GnVerdict.EQUIVALENT

    def test_agreement_with_gamble_relation(self):
        rng = random.Random(8)
        for _ in range(300):
            u = make_universe(rng.randint(2, 5))
            b0 = random_event(rng, u)
            sub = [i for i in b0.indices() if rng.random() < 0.7]
            if not sub:
                continue
            b1 = Event(u, sum(1 << i for i in sub))
            x = random_gamble(rng, u)
            report = sign_relation(x, b1, b0)
            left = ConditionalGamble(Gamble.indicator(b1) * x, b0)
            right = ConditionalGamble(x, b1)
            leq = gn_leq_gambles(left, right)
            geq = gn_leq_gambles(right, left)
            expected = {
                (True, True): GnVerdict.EQUIVALENT,
                (True, False): GnVerdict.LEQ,
                (False, True): GnVerdict.GEQ,
                (False, False): GnVerdict.INCOMPARABLE,
            }[(leq, geq)]
            assert report.verdict is expected
