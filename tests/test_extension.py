"""Inner/outer conditional events and the extension machinery."""

import random
from fractions import Fraction

import pytest

from gnprob import (
    ConditionalEvent,
    CredalSet,
    EnumerationLimitError,
    LayeredProbability,
    Partition,
    TrivialTargetError,
    Universe,
    UniverseMismatchError,
    UnsupportedOperationError,
    check,
    conditional_inner,
    conditional_outer,
    df_to_imprecise,
    extension_interval,
    gn_leq_events,
    natural_extension,
    random_credal,
    upper_extension,
)
from conftest import (
    all_conditional_events,
    all_set_partitions,
    make_universe,
    random_nontrivial_ce,
    random_partition,
)
from oracles import gn_lower_set, gn_upper_set, iter_conditional_domain


def _never_called(cd):
    pytest.fail(f"the evaluator was called at {cd!r}")


class TestConditionalInnerOuter:
    def test_football_outer(self, football):
        outer = conditional_outer(football.sweden_given_final, football.teams)
        assert outer == ConditionalEvent(football.sweden, football.sweden | football.brazil)

    def test_football_inner(self, football):
        inner = conditional_inner(football.sweden_given_final, football.teams)
        assert inner == ConditionalEvent(
            football.universe.empty, football.brazil | football.third
        )

    def test_measurable_fixed_point(self):
        u = make_universe(4)
        p = Partition(u, (u.event(["w1", "w2"]), u.event(["w3"]), u.event(["w4"])))
        cd = ConditionalEvent(u.event(["w1", "w2"]), u.event(["w1", "w2", "w3"]))
        assert conditional_inner(cd, p) == cd
        assert conditional_outer(cd, p) == cd

    def test_degenerate_flagged(self):
        # B|B with no block inside B has an undefined inner event.
        u = make_universe(2)
        p = Partition.trivial(u)
        cd = ConditionalEvent(u.event(["w1"]), u.event(["w1"]))
        assert conditional_inner(cd, p) is None

    def test_sandwich_exhaustive_small(self):
        for n in (2, 3, 4):
            u = make_universe(n)
            ces = all_conditional_events(u, nontrivial=True)
            for p in all_set_partitions(u):
                for cd in ces:
                    inner = conditional_inner(cd, p)
                    outer = conditional_outer(cd, p)
                    assert inner is not None and outer is not None
                    assert gn_leq_events(inner, cd)
                    assert gn_leq_events(cd, outer)


class TestUniverseMismatch:
    # Every entry point derives its inner or outer event through
    # inner_event and outer_event, which refuse the partition of another
    # universe with the same message, target's universe first.
    ENTRY_POINTS = {
        "conditional_inner": lambda mu, cd, p: conditional_inner(cd, p),
        "conditional_outer": lambda mu, cd, p: conditional_outer(cd, p),
        "extension_interval": extension_interval,
        "natural_extension_lower": lambda mu, cd, p: natural_extension(mu, [cd], p, "lower"),
        "natural_extension_upper": lambda mu, cd, p: natural_extension(mu, [cd], p, "upper"),
        "upper_extension": upper_extension,
        "df_to_imprecise": lambda mu, cd, p: df_to_imprecise(mu, [cd], p),
    }

    @pytest.mark.parametrize("other", [Universe(("a", "b", "c")), make_universe(4)], ids=repr)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_partition_of_another_universe_refused(self, entry, other):
        u = make_universe(3)
        cd = ConditionalEvent(u.event(["w1"]), u.event(["w1", "w2"]))
        mu = LayeredProbability(u, [[Fraction(1, 3)] * 3])
        with pytest.raises(UniverseMismatchError) as refused:
            self.ENTRY_POINTS[entry](mu, cd, Partition.trivial(other))
        assert str(refused.value) == (
            f"operands live on different universes: {u.worlds} vs {other.worlds}"
        )


class TestGnSets:
    def test_football_lower_set_maximum(self, football):
        p = football.teams
        cd = football.sweden_given_final
        lower = gn_lower_set(cd, p)
        inner = conditional_inner(cd, p)
        assert inner in lower
        assert all(gn_leq_events(ab, inner) for ab in lower)
        assert all(gn_leq_events(ab, cd) for ab in lower)

    def test_football_upper_set_minimum(self, football):
        p = football.teams
        cd = football.sweden_given_final
        upper = gn_upper_set(cd, p)
        outer = conditional_outer(cd, p)
        assert outer in upper
        assert all(gn_leq_events(outer, ab) for ab in upper)
        assert all(gn_leq_events(cd, ab) for ab in upper)

    def test_measurable_target_is_member(self):
        u = make_universe(3)
        p = Partition(u, (u.event(["w1"]), u.event(["w2"]), u.event(["w3"])))
        cd = ConditionalEvent(u.event(["w1"]), u.event(["w1", "w2"]))
        assert cd in gn_lower_set(cd, p)
        assert cd in gn_upper_set(cd, p)

    def test_extremes_by_enumeration_random(self):
        rng = random.Random(77)
        for _ in range(40):
            u = make_universe(rng.randint(2, 4))
            p = random_partition(rng, u)
            cd = random_nontrivial_ce(rng, u)
            inner = conditional_inner(cd, p)
            outer = conditional_outer(cd, p)
            lower = gn_lower_set(cd, p)
            upper = gn_upper_set(cd, p)
            assert inner in lower and outer in upper
            assert all(gn_leq_events(ab, inner) for ab in lower)
            assert all(gn_leq_events(outer, ab) for ab in upper)

    def test_size_cap(self):
        u = make_universe(13)
        p = Partition.finest(u)
        cd = ConditionalEvent(u.event(["w1"]), u.event(["w1", "w2"]))
        with pytest.raises(EnumerationLimitError):
            gn_lower_set(cd, p)

    def test_trivial_target_rejected(self):
        u = make_universe(3)
        p = Partition.finest(u)
        with pytest.raises(TrivialTargetError):
            gn_lower_set(ConditionalEvent(u.empty, u.omega), p)


class TestExtensionInterval:
    def test_football_uniform_interval(self, football):
        interval = extension_interval(
            football.uniform.value, football.sweden_given_final, football.teams
        )
        assert (interval.low, interval.high) == (Fraction(0), Fraction(1, 2))

    def test_measurable_target_degenerate_interval(self, football):
        cd = ConditionalEvent(football.sweden, football.sweden | football.brazil)
        interval = extension_interval(football.uniform.value, cd, football.teams)
        assert interval.low == interval.high == Fraction(1, 2)

    def test_credal_upper_endpoint(self, football):
        interval = extension_interval(
            football.credal.upper, football.sweden_given_final, football.teams
        )
        assert interval.high == Fraction(5, 7)

    def test_trivial_target_rejected(self, football):
        with pytest.raises(TrivialTargetError):
            extension_interval(
                football.uniform.value,
                ConditionalEvent(football.universe.empty, football.final),
                football.teams,
            )

    def test_trivial_targets_rejected_exhaustive_small(self):
        # Every A|B with an empty conditioned part or equal to B|B, under
        # every partition: no extension function values a trivial target.
        for n in (2, 3, 4):
            u = make_universe(n)
            trivial = [cd for cd in all_conditional_events(u) if cd.is_trivial]
            assert len(trivial) == 2 * ((1 << n) - 1)
            for p in all_set_partitions(u):
                for cd in trivial:
                    with pytest.raises(TrivialTargetError):
                        extension_interval(_never_called, cd, p)
                    for side in ("lower", "upper"):
                        with pytest.raises(TrivialTargetError):
                            natural_extension(_never_called, [cd], p, side)
                    with pytest.raises(TrivialTargetError):
                        upper_extension(_never_called, cd, p)

    def test_low_at_most_high_randomized(self):
        rng = random.Random(31)
        for seed in range(80):
            u = make_universe(rng.randint(2, 5))
            m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            p = random_partition(rng, u)
            cd = random_nontrivial_ce(rng, u)
            interval = extension_interval(m.lower, cd, p)
            assert interval.low <= interval.high
            assert gn_leq_events(interval.low_witness, cd)
            assert gn_leq_events(cd, interval.high_witness)


class TestNaturalAndUpperExtension:
    def test_football_lower_natural(self, football):
        values = natural_extension(
            football.credal.lower, [football.sweden_given_final], football.teams
        )
        assert values == [Fraction(0)]

    def test_football_upper_natural(self, football):
        values = natural_extension(
            football.credal.upper, [football.sweden_given_final], football.teams, side="upper"
        )
        assert values == [Fraction(5, 7)]

    def test_measurable_target_returns_assessed_value(self, football):
        cd = ConditionalEvent(football.sweden, football.sweden | football.brazil)
        assert natural_extension(football.credal.lower, [cd], football.teams) == [
            football.credal.lower(cd)
        ]

    def test_football_upper_extension(self, football):
        value = upper_extension(football.credal.lower, football.sweden_given_final, football.teams)
        assert value == Fraction(3, 8)

    def test_upper_extension_measurable_target(self, football):
        cd = ConditionalEvent(football.sweden, football.sweden | football.brazil)
        value = upper_extension(football.credal.lower, cd, football.teams)
        assert value == football.credal.lower(cd)

    def test_upper_extension_dominates_natural(self):
        rng = random.Random(13)
        for seed in range(60):
            u = make_universe(rng.randint(2, 5))
            m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            p = random_partition(rng, u)
            cd = random_nontrivial_ce(rng, u)
            low = natural_extension(m.lower, [cd], p)[0]
            up = upper_extension(m.lower, cd, p)
            assert low <= up

    def test_multiple_targets_unsupported_for_upper(self, football):
        with pytest.raises(UnsupportedOperationError):
            upper_extension(
                football.credal.lower,
                [football.sweden_given_final, football.sweden_given_final],
                football.teams,
            )

    def test_least_committal_dominance(self):
        # Any sub-credal-set gives a pointwise larger lower envelope; even
        # evaluated directly at the target it dominates the natural
        # extension value computed from the full set.
        rng = random.Random(17)
        for seed in range(40):
            u = make_universe(rng.randint(2, 5))
            m = random_credal(seed, u, 3, max_layers=2)
            p = random_partition(rng, u)
            targets = [random_nontrivial_ce(rng, u) for _ in range(4)]
            lows = natural_extension(m.lower, targets, p)
            members = m.members
            for submask in range(1, 1 << len(members)):
                sub = CredalSet([members[i] for i in range(len(members)) if (submask >> i) & 1])
                for cd, low in zip(targets, lows):
                    assert sub.lower(cd) >= low


class TestUpperEvaluatorEndpoints:
    def test_upper_envelope_interval_is_the_coherent_range(self):
        # The interval result also holds with an upper evaluator: joining
        # either endpoint to measurable entries valued by the upper
        # envelope stays consistent, stepping outside does not.
        rng = random.Random(71)
        from fractions import Fraction as F
        from gnprob import Assessment, ConditionalGamble, random_credal

        delta = F(1, 1000)
        done = 0
        while done < 10:
            u = make_universe(rng.randint(3, 5))
            m = random_credal(rng.randrange(10**6), u, 2, max_layers=2)
            p = random_partition(rng, u)
            target = random_nontrivial_ce(rng, u)
            inner = conditional_inner(target, p)
            outer = conditional_outer(target, p)
            if inner == target or outer == target:
                continue
            interval = extension_interval(m.upper, target, p)
            picks = {inner, outer}
            pool = [ce for ce in iter_conditional_domain(p) if ce not in picks]
            rng.shuffle(pool)
            picks.update(pool[:2])
            base = Assessment(
                tuple(
                    (ConditionalGamble.from_event(ce), m.upper(ce))
                    for ce in sorted(picks, key=lambda c: (c.conditioning.mask, c.conditioned.mask))
                ),
                kind="upper",
            )
            cg = ConditionalGamble.from_event(target)
            assert check(base.with_entry(cg, interval.low), "W").consistent
            assert check(base.with_entry(cg, interval.high), "W").consistent
            assert not check(base.with_entry(cg, interval.low - delta), "W").consistent
            assert not check(base.with_entry(cg, interval.high + delta), "W").consistent
            done += 1


class TestPreciseToImprecise:
    def test_football_bounds(self, football):
        lower, upper = df_to_imprecise(
            football.uniform, [football.sweden_given_final], football.teams
        )
        assert lower.kind == "lower" and upper.kind == "upper"
        assert lower.values() == (Fraction(0),)
        assert upper.values() == (Fraction(1, 2),)

    def test_measurable_target_collapses(self, football):
        cd = ConditionalEvent(football.sweden, football.sweden | football.brazil)
        lower, upper = df_to_imprecise(football.uniform, [cd], football.teams)
        assert lower.values() == upper.values() == (football.uniform.probability(cd),)

    def test_lower_at_most_upper_with_equality_for_equal_witnesses(self):
        rng = random.Random(23)
        from gnprob import random_layered

        for seed in range(60):
            u = make_universe(rng.randint(2, 5))
            pr = random_layered(seed, u, max_layers=2)
            p = random_partition(rng, u)
            cd = random_nontrivial_ce(rng, u)
            lower, upper = df_to_imprecise(pr, [cd], p)
            low, high = lower.values()[0], upper.values()[0]
            assert low <= high
            if conditional_inner(cd, p) == conditional_outer(cd, p):
                assert low == high

    def test_equal_bounds_do_not_force_equal_witnesses(self, football):
        # The converse fails: a measure charging the target's block only in
        # a deeper layer values both witnesses 0 while they stay distinct.
        from fractions import Fraction as F
        from gnprob import LayeredProbability

        u = football.universe
        pr = LayeredProbability(
            u,
            [
                [F(1, 2), 0, 0, F(1, 4), F(1, 4)],
                [0, F(1, 2), F(1, 2), 0, 0],
            ],
        )
        target = football.sweden_given_final
        lower, upper = df_to_imprecise(pr, [target], football.teams)
        assert lower.values()[0] == upper.values()[0] == 0
        assert conditional_inner(target, football.teams) != conditional_outer(
            target, football.teams
        )

    def test_outputs_pass_w_checks(self):
        rng = random.Random(29)
        from gnprob import random_layered

        for seed in range(15):
            u = make_universe(rng.randint(3, 4))
            pr = random_layered(seed, u, max_layers=2)
            p = random_partition(rng, u)
            targets = []
            while len(targets) < 3:
                cd = random_nontrivial_ce(rng, u)
                if cd not in targets:
                    targets.append(cd)
            lower, upper = df_to_imprecise(pr, targets, p)
            assert check(lower, "W").consistent
            assert check(upper, "W").consistent


class TestConditionalDomainEnumeration:
    def test_counts(self):
        # B over nonempty block unions, A over measurable subsets of B.
        u = make_universe(3)
        p = Partition.finest(u)
        domain = list(iter_conditional_domain(p))
        assert len(domain) == len(set(domain))
        expected = sum(2 ** bin(b).count("1") for b in range(1, 8))
        assert len(domain) == expected
