"""Layered probabilities, credal envelopes, assessments and generators."""

import random
from fractions import Fraction

import pytest

from gnprob import (
    Assessment,
    ConditionalEvent,
    ConditionalGamble,
    CredalSet,
    Event,
    Gamble,
    LayeredProbability,
    UniverseMismatchError,
    ValidationError,
    random_credal,
    random_layered,
)
from conftest import make_universe, random_conditional_event, random_conditional_gamble


class TestLayeredProbability:
    def test_validation(self):
        u = make_universe(2)
        with pytest.raises(ValidationError):
            LayeredProbability(u, [[Fraction(1, 2), Fraction(1, 4)]])  # sum != 1
        with pytest.raises(ValidationError):
            LayeredProbability(u, [[1, 0]])  # support does not cover
        with pytest.raises(ValidationError):
            LayeredProbability(u, [[1, 0], [1, 0]])  # overlapping supports
        with pytest.raises(ValidationError):
            LayeredProbability(u, [])

    def test_uniform_ratio(self):
        u = make_universe(4)
        p = LayeredProbability(u, [[Fraction(1, 4)] * 4])
        ce = ConditionalEvent(u.event(["w1", "w2"]), u.event(["w1", "w2", "w3"]))
        assert p.probability(ce) == Fraction(2, 3)

    def test_second_layer_conditioning(self):
        # Conditioning on an event the first layer gives zero mass.
        u = make_universe(4)
        p = LayeredProbability(
            u,
            [
                [Fraction(1, 2), Fraction(1, 2), 0, 0],
                [0, 0, Fraction(1, 3), Fraction(2, 3)],
            ],
        )
        ce = ConditionalEvent(u.event(["w3"]), u.event(["w3", "w4"]))
        assert p.probability(ce) == Fraction(1, 3)

    def test_sure_conditional_event(self):
        rng = random.Random(5)
        for seed in range(30):
            u = make_universe(rng.randint(2, 5))
            p = random_layered(seed, u, max_layers=3)
            b = Event(u, rng.randint(1, (1 << u.size) - 1))
            assert p.probability(ConditionalEvent(b, b)) == 1
            assert p.probability(ConditionalEvent(u.empty, b)) == 0

    def test_necessary_conditions_always(self):
        rng = random.Random(6)
        for seed in range(200):
            u = make_universe(rng.randint(1, 5))
            p = random_layered(seed, u, max_layers=2)
            ce = random_conditional_event(rng, u)
            value = p.probability(ce)
            assert 0 <= value <= 1

    def test_gamble_evaluation(self):
        u = make_universe(4)
        p = LayeredProbability(u, [[Fraction(1, 4)] * 4])
        x = Gamble(u, {"w1": 1, "w2": 2})
        b = u.event(["w1", "w2"])
        assert p.prevision(ConditionalGamble(x, b)) == Fraction(3, 2)

    def test_gamble_constant_and_indicator_consistency(self):
        rng = random.Random(9)
        for seed in range(50):
            u = make_universe(rng.randint(2, 4))
            p = random_layered(seed, u, max_layers=2)
            b = Event(u, rng.randint(1, (1 << u.size) - 1))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert p.prevision(ConditionalGamble(Gamble.constant(u, c), b)) == c
            ce = random_conditional_event(rng, u)
            assert p.prevision(ConditionalGamble.from_event(ce)) == p.probability(ce)


class TestCredalSet:
    def test_singleton_envelope(self):
        u = make_universe(3)
        p = random_layered(1, u)
        m = CredalSet([p])
        cg = ConditionalGamble(Gamble(u, [1, -1, 2]), u.omega)
        assert m.lower(cg) == m.upper(cg) == p.prevision(cg)

    def test_football_upper(self, football):
        target = ConditionalEvent(football.sweden, football.sweden | football.brazil)
        assert football.credal.upper(target) == Fraction(5, 7)
        assert football.credal.lower(target) == Fraction(3, 8)

    def test_lower_below_upper_and_conjugacy(self):
        rng = random.Random(11)
        for seed in range(100):
            u = make_universe(rng.randint(2, 5))
            m = random_credal(seed, u, rng.randint(1, 3), max_layers=2)
            cg = random_conditional_gamble(rng, u)
            assert m.lower(cg) <= m.upper(cg)
            assert m.upper(cg) == -m.lower(-cg)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            CredalSet([random_layered(0, make_universe(2)), random_layered(0, make_universe(3))])

    @pytest.mark.parametrize("stranger", [Gamble(make_universe(2), [1, 0]), object(), "x", None])
    def test_members_must_be_layered_probabilities(self, stranger):
        u = make_universe(2)
        with pytest.raises(ValidationError, match="credal set member"):
            CredalSet([stranger])
        with pytest.raises(ValidationError, match="credal set member"):
            CredalSet([random_layered(0, u), stranger])

    def test_envelope_builds_one_fraction(self, monkeypatch):
        # members are compared as integer pairs: only the extreme becomes a Fraction
        from gnprob import assessments

        u = make_universe(5)
        credal = random_credal(3, u, 4)
        queries = [
            ConditionalGamble(Gamble(u, [1, Fraction(-1, 2), 2, 0, Fraction(3, 7)]), u.event(["w1", "w3", "w4"])),
            ConditionalEvent(u.event(["w1", "w2"]), u.event(["w2", "w3", "w5"])),
            u.event(["w4"]),
        ]
        expected = [(credal.lower(q), credal.upper(q)) for q in queries]
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(assessments, "Fraction", counting)
        for q, (low, high) in zip(queries, expected):
            built.clear()
            assert credal.lower(q) == low and len(built) == 1
            built.clear()
            assert credal.upper(q) == high and len(built) == 1


class TestAssessment:
    def test_duplicate_entries_collapse(self):
        u = make_universe(2)
        cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.omega)
        a = Assessment(((cg, Fraction(1, 2)), (cg, Fraction(1, 2))))
        assert len(a) == 1
        # One value in two spellings, and payoffs that differ only off B.
        other = ConditionalGamble(Gamble.indicator(u.event(["w2"])), u.omega)
        a = Assessment(((cg, "1/2"), (other, 0), (cg, Fraction(2, 4))))
        assert a.entries == ((cg, Fraction(1, 2)), (other, Fraction(0)))
        b = u.event(["w1"])
        first = ConditionalGamble(Gamble(u, [1, 5]), b)
        second = ConditionalGamble(Gamble(u, [1, -7]), b)
        a = Assessment(((first, "1/3"), (second, Fraction(1, 3))))
        assert len(a) == 1 and a.entries[0][0] is first
        # The same payoff on another conditioning event is another entry.
        assert len(Assessment(((first, 1), (ConditionalGamble(Gamble(u, [1, 0]), u.omega), 1)))) == 2

    def test_conflicting_duplicates_rejected(self):
        u = make_universe(2)
        cg = ConditionalGamble(Gamble.indicator(u.event(["w1"])), u.omega)
        with pytest.raises(ValidationError):
            Assessment(((cg, Fraction(1, 2)), (cg, Fraction(1, 3))))
        b = u.event(["w1"])
        first = ConditionalGamble(Gamble(u, ["1/2", 5]), b)
        second = ConditionalGamble(Gamble(u, [Fraction(2, 4), -7]), b)
        with pytest.raises(ValidationError) as raised:
            Assessment(((first, "1/2"), (second, Fraction(1, 3))))
        assert str(raised.value) == "conflicting values 1/2 and 1/3 for (w1:1/2)|{w1}"

    def test_mixed_universes_rejected(self):
        a = ConditionalGamble(Gamble.zero(make_universe(2)), make_universe(2).omega)
        b = ConditionalGamble(Gamble.zero(make_universe(3)), make_universe(3).omega)
        with pytest.raises(UniverseMismatchError):
            Assessment(((a, 0), (b, 0)))

    def test_event_coercion_and_restriction(self):
        u = make_universe(3)
        ce = ConditionalEvent(u.event(["w1"]), u.omega)
        a = Assessment(((ConditionalGamble.from_event(ce), Fraction(1, 3)),), kind="lower")
        b = a.with_entry(ConditionalEvent(u.event(["w2"]), u.omega), "1/4")
        assert len(b) == 2 and b.values()[1] == Fraction(1, 4)
        assert b.restricted([1]).values() == (Fraction(1, 4),)

    def test_necessary_condition_violations(self):
        u = make_universe(2)
        omega = u.omega
        ind = lambda e: ConditionalGamble(Gamble.indicator(e), omega)
        bad = Assessment(
            (
                (ind(u.event(["w1"])), Fraction(6, 5)),
                (ind(u.empty), Fraction(1, 10)),
                (ind(omega), Fraction(9, 10)),
            )
        )
        assert len(bad.necessary_condition_violations()) == 3
        good = Assessment(((ind(u.event(["w1"])), Fraction(1, 2)),))
        assert good.necessary_condition_violations() == []


class TestGenerators:
    def test_determinism(self):
        u = make_universe(4)
        assert random_layered(7, u, 3) == random_layered(7, u, 3)
        assert random_credal(7, u, 3, 2) == random_credal(7, u, 3, 2)

    def test_single_layer_everywhere_positive(self):
        u = make_universe(5)
        p = random_layered(3, u, max_layers=1)
        assert len(p.layers) == 1
        assert all(v > 0 for v in p.layers[0])

    def test_outputs_satisfy_invariants(self):
        # The constructor revalidates, so surviving construction is the check;
        # run a spread of seeds and shapes.
        for seed in range(100):
            u = make_universe(seed % 5 + 1)
            random_layered(seed, u, max_layers=3)
            random_credal(seed, u, size=seed % 3 + 1, max_layers=2)
