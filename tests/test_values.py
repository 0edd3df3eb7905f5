"""Value semantics of the algebra and evaluator types: immutable, equal
and hash-equal by value, never equal to a value of another type."""

from fractions import Fraction

import pytest

from gnprob import (
    ConditionalEvent,
    ConditionalGamble,
    CredalSet,
    Event,
    Gamble,
    LayeredProbability,
    Universe,
)
from conftest import make_universe

U = make_universe(3)
A = U.event(["w1"])
B = U.event(["w1", "w2"])
HALF = [["1/2", "1/2", "0"], ["0", "0", "1"]]
HALF_FRACTIONS = [[Fraction(1, 2), Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]


X = Gamble(U, [1, 2, 3])
LP = LayeredProbability(U, HALF)
OTHER_LP = LayeredProbability(U, [["1/3", "1/3", "1/3"]])

# Per class: two equal values built differently (a layered probability
# from "1/2" strings and from Fractions, say), and a value of another
# type carrying the same data.
VALUES = {
    "Event": (Event(U, 0b101), U.event(["w3", "w1"]), 0b101),
    "Gamble": (X, Gamble(U, {"w1": 1, "w2": "2", "w3": Fraction(3)}), X.values),
    "ConditionalEvent": (
        ConditionalEvent(U.event(["w1", "w3"]), B),
        ConditionalEvent(A, B),
        ConditionalGamble.from_event(ConditionalEvent(A, B)),
    ),
    "ConditionalGamble": (
        ConditionalGamble(X, B),
        ConditionalGamble(Gamble(U, [1, 2, 7]), B),
        (ConditionalGamble(X, B).payoff, B),
    ),
    "LayeredProbability": (LP, LayeredProbability(U, HALF_FRACTIONS), LP.layers),
    "CredalSet": (
        CredalSet([LP, OTHER_LP]),
        CredalSet((LayeredProbability(U, HALF_FRACTIONS), OTHER_LP)),
        (LP, OTHER_LP),
    ),
}


FIELDS = {
    "Event": ("universe", "mask"),
    "Gamble": ("universe", "values"),
    "ConditionalEvent": ("conditioned", "conditioning"),
    "ConditionalGamble": ("payoff", "conditioning"),
    "LayeredProbability": ("universe", "layers"),
    "CredalSet": ("members",),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_assignment_raises(name):
    value = VALUES[name][0]
    for attribute in FIELDS[name]:
        before = getattr(value, attribute)
        with pytest.raises(AttributeError):
            setattr(value, attribute, None)
        assert getattr(value, attribute) is before
    # A name that is not a field cannot be attached either. (CPython's
    # slotted frozen dataclasses raise TypeError here up to 3.13.)
    with pytest.raises((AttributeError, TypeError)):
        value.extra = None
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_are_equal_and_hash_equal(name):
    left, right, _ = VALUES[name]
    assert left is not right
    assert left == right and not left != right
    assert hash(left) == hash(right)
    assert len({left, right}) == 1


@pytest.mark.parametrize("name", sorted(VALUES))
def test_other_type_compares_unequal(name):
    value, _, other = VALUES[name]
    assert value != other and other != value
    assert not value == other



def test_universe_is_compared_but_not_hashed(monkeypatch):
    """The hash of an event, a gamble or a conditional object skips the
    universe, whose hash walks every world name; equality still reads it."""
    other = Universe(("v1", "v2", "v3"))
    assert Event(U, 0b101) != Event(other, 0b101)
    assert Gamble(U, [1, 2, 3]) != Gamble(other, [1, 2, 3])
    assert len({Event(U, 0b101), Event(other, 0b101)}) == 2

    def refuse(self):
        raise AssertionError("a universe was hashed")

    monkeypatch.setattr(Universe, "__hash__", refuse)
    for name in ("Event", "Gamble", "ConditionalEvent", "ConditionalGamble"):
        hash(VALUES[name][0])
