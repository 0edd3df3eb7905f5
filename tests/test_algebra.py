"""Universe, event, partition and gamble behaviour."""

import copy
import pickle
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gnprob.algebra
from gnprob import (
    Assessment,
    ConditionalEvent,
    ConditionalGamble,
    EmptyConditioningError,
    Event,
    Gamble,
    LayeredProbability,
    Partition,
    UniverseMismatchError,
    Universe,
    ValidationError,
    as_fraction,
    generated_partition,
    inf_over,
    inner_event,
    is_logically_dependent,
    outer_event,
    product_partition,
    sup_over,
)
from conftest import make_universe
from oracles import iter_measurable_events, oracle_as_fraction


def u_events(u, *masks):
    return [Event(u, m) for m in masks]


class TestUniverseAndEvent:
    def test_universe_requires_distinct_worlds(self):
        with pytest.raises(ValidationError):
            Universe(("a", "a"))
        with pytest.raises(ValidationError):
            Universe(())

    def test_universe_refuses_a_bare_string(self):
        with pytest.raises(ValidationError, match="not a string: 'abc'"):
            Universe("abc")
        assert Universe(["a", "b", "c"]).worlds == ("a", "b", "c")

    def test_boolean_operations(self):
        u = make_universe(3)
        a = u.event(["w1", "w2"])
        b = u.event(["w2", "w3"])
        assert (a & b).worlds() == ("w2",)
        assert (a | b) == u.omega
        assert (~a).worlds() == ("w3",)
        assert (a - b).worlds() == ("w1",)
        assert ~~a == a

    def test_subset_order(self):
        u = make_universe(3)
        a = u.event(["w1"])
        b = u.event(["w1", "w2"])
        assert a <= b and a < b and not b <= a
        assert u.empty <= a and a <= u.omega

    def test_mixed_universe_rejected(self):
        a = make_universe(2).event(["w1"])
        b = Universe(("x", "y")).event(["x"])
        with pytest.raises(UniverseMismatchError):
            a & b

    def test_omega_is_built_once(self):
        u = make_universe(3)
        assert u.omega is u.omega
        assert u.omega == Event(u, 0b111) and u.omega.universe is u

    def test_omega_readers_are_unchanged(self):
        u = make_universe(3)
        for mask in range(8):
            e = Event(u, mask)
            assert (~e).mask == 0b111 ^ mask and (~e).universe is u
            assert e.is_omega == (mask == 0b111)
        assert Partition(u, (u.event(["w3"]), u.event(["w1", "w2"]))).blocks[1].mask == 0b100
        with pytest.raises(ValidationError, match="cover the whole universe"):
            Partition(u, (u.event(["w1"]), u.event(["w3"])))

    def test_universe_survives_pickle_and_deepcopy(self):
        u = make_universe(3)
        for twin in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u)):
            assert twin == u and hash(twin) == hash(u) and repr(twin) == repr(u)
            assert twin.omega is twin.omega and twin.omega.universe is twin
            assert twin.omega == u.omega and twin.index("w2") == 1

    def test_equal_universes_are_interchangeable(self):
        a = make_universe(2).event(["w1"])
        b = make_universe(2).event(["w2"])
        assert (a | b).is_omega

    @pytest.mark.parametrize(
        "mask", [1.5, Fraction(7, 2), Fraction(3), True, "3", None, -1, 8], ids=repr
    )
    def test_mask_is_an_int_that_fits(self, mask):
        # a mask is never coerced: int(1.5) would silently be {w1}
        with pytest.raises(ValidationError):
            Event(make_universe(3), mask)


class TestPartition:
    def test_validation(self):
        u = make_universe(3)
        with pytest.raises(ValidationError):
            Partition(u, (u.event(["w1"]),))  # no cover
        with pytest.raises(ValidationError):
            Partition(u, (u.event(["w1", "w2"]), u.event(["w2", "w3"])))  # overlap
        with pytest.raises(ValidationError):
            Partition(u, (u.omega, u.empty))  # empty block

    def test_canonical_block_order(self):
        u = make_universe(3)
        p1 = Partition(u, (u.event(["w3"]), u.event(["w1", "w2"])))
        p2 = Partition(u, (u.event(["w1", "w2"]), u.event(["w3"])))
        assert p1 == p2

    def test_generated_partition_empty_list(self):
        u = make_universe(3)
        assert generated_partition(u, []) == Partition.trivial(u)

    def test_generated_partition_single_event(self):
        u = make_universe(3)
        e = u.event(["w1"])
        assert set(generated_partition(u, [e]).blocks) == {e, ~e}

    def test_generated_partition_two_events(self):
        # {1,2} and {2,3} over three worlds: one signature cell is empty.
        u = make_universe(3)
        events = [u.event(["w1", "w2"]), u.event(["w2", "w3"])]
        # oracle: enumerate the four signature cells directly
        cells = set()
        for inc1 in (False, True):
            for inc2 in (False, True):
                m1 = events[0].mask if inc1 else ~events[0].mask
                m2 = events[1].mask if inc2 else ~events[1].mask
                cell = m1 & m2 & u.omega.mask
                if cell:
                    cells.add(cell)
        expected = {Event(u, m) for m in cells}
        assert set(generated_partition(u, events).blocks) == expected
        assert expected == {u.event(["w1"]), u.event(["w2"]), u.event(["w3"])}

    def test_product_with_trivial_is_identity(self):
        u = make_universe(4)
        p = Partition(u, (u.event(["w1", "w2"]), u.event(["w3", "w4"])))
        assert product_partition(p, Partition.trivial(u)) == p
        assert product_partition(p, p) == p

    def test_product_logically_independent(self):
        u = make_universe(4)
        p = Partition(u, (u.event(["w1", "w2"]), u.event(["w3", "w4"])))
        q = Partition(u, (u.event(["w1", "w3"]), u.event(["w2", "w4"])))
        assert product_partition(p, q) == Partition.finest(u)

    def test_product_refines_both(self):
        rng = random.Random(7)
        from conftest import random_partition

        for _ in range(50):
            u = make_universe(rng.randint(1, 5))
            p, q = random_partition(rng, u), random_partition(rng, u)
            prod = product_partition(p, q)
            for block in prod.blocks:
                assert any(block <= b for b in p.blocks)
                assert any(block <= b for b in q.blocks)


class TestInnerOuter:
    def setup_method(self):
        self.u = make_universe(4)
        self.p = Partition(
            self.u, (self.u.event(["w1"]), self.u.event(["w2", "w3"]), self.u.event(["w4"]))
        )

    def test_inner_examples(self):
        assert inner_event(self.u.event(["w2", "w3"]), self.p) == self.u.event(["w2", "w3"])
        assert inner_event(self.u.event(["w2"]), self.p).is_empty
        assert inner_event(self.u.omega, self.p).is_omega

    def test_outer_examples(self):
        assert outer_event(self.u.event(["w2"]), self.p) == self.u.event(["w2", "w3"])
        assert outer_event(self.u.event(["w1", "w4"]), self.p) == self.u.event(["w1", "w4"])

    def test_duality(self):
        e = self.u.event(["w2"])
        assert outer_event(e, self.p) == ~inner_event(~e, self.p)

    def test_logical_dependence(self):
        assert is_logically_dependent(self.u.omega, self.p)
        assert is_logically_dependent(self.u.event(["w1"]), self.p)
        p2 = Partition(self.u, (self.u.event(["w1"]), self.u.event(["w2", "w3", "w4"])))
        assert not is_logically_dependent(self.u.event(["w1", "w2"]), p2)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=5))
    def test_sandwich_measurable_monotone(self, data, n):
        u = make_universe(n)
        emask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        fmask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        from conftest import random_partition

        p = random_partition(random.Random(seed), u)
        e, f = Event(u, emask), Event(u, fmask)
        inner, outer = inner_event(e, p), outer_event(e, p)
        assert inner <= e <= outer
        assert is_logically_dependent(inner, p) and is_logically_dependent(outer, p)
        # idempotence on measurable events
        assert inner_event(inner, p) == inner and outer_event(outer, p) == outer
        # monotonicity
        if e <= f:
            assert inner_event(e, p) <= inner_event(f, p)
            assert outer_event(e, p) <= outer_event(f, p)

    def test_generated_partition_mixed_universe_rejected(self):
        u, other = make_universe(2), make_universe(3)
        with pytest.raises(UniverseMismatchError):
            generated_partition(u, [other.event(["w1"])])

    def test_generated_partition_disjoint_cover_bits(self):
        rng = random.Random(3)
        for _ in range(100):
            u = make_universe(rng.randint(1, 6))
            events = [
                Event(u, rng.randint(0, (1 << u.size) - 1)) for _ in range(rng.randint(0, 3))
            ]
            p = generated_partition(u, events)
            acc = 0
            for b in p.blocks:
                assert b.mask
                assert acc & b.mask == 0
                acc |= b.mask
            assert acc == u.omega.mask

    def test_measurable_enumeration(self):
        assert len(list(iter_measurable_events(self.p))) == 7
        assert len(list(iter_measurable_events(self.p, include_empty=True))) == 8

    def test_wide_universe_non_enumerative_ops(self):
        # Non-enumerative operations have no size cap; a 40-world universe
        # works through plain big-integer masks.
        u = make_universe(40)
        evens = Event(u, sum(1 << i for i in range(0, 40, 2)))
        front = u.event([f"w{i}" for i in range(1, 21)])
        p = generated_partition(u, [evens, front])
        assert len(p) == 4
        assert inner_event(front, p) == front
        assert outer_event(evens, p) == evens
        assert is_logically_dependent(evens | front, p)


class TestGambles:
    def test_indicator_and_extrema(self):
        u = make_universe(3)
        a = u.event(["w1", "w2"])
        ind = Gamble.indicator(a)
        assert sup_over(ind, u.omega) == 1 and inf_over(ind, u.omega) == 0
        assert sup_over(Gamble.constant(u, Fraction(5, 7)), a) == Fraction(5, 7)

    def test_point_values(self):
        u = make_universe(2)
        x = Gamble(u, {"w1": 1, "w2": -2})
        b = u.omega
        assert sup_over(x, b) == 1 and inf_over(x, b) == -2

    def test_extrema_need_nonempty_event(self):
        u = make_universe(2)
        with pytest.raises(EmptyConditioningError):
            sup_over(Gamble.zero(u), u.empty)

    def test_floats_rejected(self):
        u = make_universe(2)
        with pytest.raises(ValidationError):
            Gamble(u, [0.5, 0.5])

    def test_as_fraction_keeps_a_fraction_and_refuses_the_rest(self):
        f = Fraction(3, 7)
        assert as_fraction(f) is f
        for value in (1.5, 0.0, "1.5e", None):
            with pytest.raises(ValidationError):
                as_fraction(value)

        class Half(Fraction):
            pass

        half = as_fraction(Half(1, 2))
        assert type(half) is Fraction and half == Fraction(1, 2)
        assert type(as_fraction("2/4")) is Fraction and as_fraction(3) == Fraction(3)

    def test_arithmetic(self):
        u = make_universe(2)
        x = Gamble(u, [1, 2])
        y = Gamble(u, [3, -1])
        assert (x + y).values == (Fraction(4), Fraction(1))
        assert (x - y).values == (Fraction(-2), Fraction(3))
        assert (x * y).values == (Fraction(3), Fraction(-2))
        assert (2 * x).values == (Fraction(2), Fraction(4))
        assert (-x).values == (Fraction(-1), Fraction(-2))

    def test_lookup_by_name_or_index(self):
        x = Gamble(make_universe(3), [4, 5, 6])
        assert (x["w1"], x[0], x["w3"], x[2]) == (4, 4, 6, 6)

    @pytest.mark.parametrize("world", [-1, 3, 5, True, "w4", Fraction(1)], ids=repr)
    def test_lookup_refuses_what_names_no_world(self, world):
        with pytest.raises(ValidationError):
            Gamble(make_universe(3), [4, 5, 6])[world]


class TestLiteralPolicy:
    """Every entry point reads its numbers through ``as_fraction``, which
    refuses an oversized or boolean literal before expanding it."""

    REFUSED = [
        ("1e-3000000", "^rational literal with more than 1000 digits or an exponent above 1000$"),
        ("1E+999999999", "^rational literal with more than 1000 digits or an exponent above 1000$"),
        ("1" * 1001, "^rational literal with more than 1000 digits or an exponent above 1000$"),
        (10**1001, "^integer has more than 1000 digits$"),
        (True, "^true is not a rational literal$"),
        (False, "^false is not a rational literal$"),
        (Decimal("1e-300000"), r"^not a rational number: Decimal\('1E-300000'\)$"),
        (Decimal("0.5"), r"^not a rational number: Decimal\('0.5'\)$"),
    ]
    ENTRY_POINTS = {
        "as_fraction": lambda u, v: as_fraction(v),
        "gamble-list": lambda u, v: Gamble(u, [v, 0]),
        "gamble-mapping": lambda u, v: Gamble(u, {"w1": v}),
        "constant": lambda u, v: Gamble.constant(u, v),
        "layered": lambda u, v: LayeredProbability(u, [[v, 1]]),
        "assessment": lambda u, v: Assessment(((ConditionalEvent(u.omega, u.omega), v),)),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("value, message", REFUSED, ids=["exp-", "exp+", "digits", "int", "true", "false", "decimal-exp", "decimal"])
    def test_refused_fast_at_every_entry_point(self, entry, value, message):
        u = make_universe(2)
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=message):
            self.ENTRY_POINTS[entry](u, value)
        assert time.perf_counter() - start < 1

    def test_literals_at_the_bound_load(self):
        u = make_universe(2)
        x = Gamble(u, ["1e1000", "9" * 1000])
        assert x.values == (10**1000, 10**1000 - 1)
        assert as_fraction(10**1000 - 1) == 10**1000 - 1
        assert as_fraction("1/" + "7" * 999) == Fraction(1, int("7" * 999))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_scalar_product_reads_the_scalar_once(self, n, monkeypatch):
        x = Gamble(make_universe(n), range(n))
        calls = []

        def counting(value):
            calls.append(value)
            return as_fraction(value)

        monkeypatch.setattr(gnprob.algebra, "as_fraction", counting)
        assert (x * "1/3").values == tuple(Fraction(k, 3) for k in range(n))
        assert len(calls) <= n + 1
        assert calls.count("1/3") == 1


class TestLiteralReader:
    """``as_fraction`` memoises the strings it reads;
    ``oracle_as_fraction`` is the reader without the memo."""

    ALPHABET = "0123456789-+/.e_ \u0663"  # ARABIC-INDIC DIGIT THREE is a Unicode Nd digit
    EDGES = ["", "-", "-0", "007", "1/0", "1/-2", "+3", " 3", "3/ 4", "1_000", "\u00b2", "\u0663/\u0664"]

    @staticmethod
    def outcome(read, value):
        try:
            result = read(value)
        except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
            return type(exc), str(exc)
        return type(result), result.numerator, result.denominator

    @classmethod
    def literals(cls, count, seed):
        """Half random strings over the alphabet, half signed ``p`` or ``p/q``
        forms with leading zeros, Nd digits and now and then one stray character."""
        rng = random.Random(seed)
        digits = "0123456789" * 3 + "\u0663"
        out = list(cls.EDGES)
        while len(out) < count:
            if rng.random() < 0.5:
                out.append("".join(rng.choices(cls.ALPHABET, k=rng.randint(0, 8))))
                continue
            text = rng.choice(["", "", "-", "+"]) + "".join(rng.choices(digits, k=rng.randint(1, 5)))
            if rng.random() < 0.6:
                text += "/" + "".join(rng.choices(digits, k=rng.randint(1, 4)))
            if rng.random() < 0.2:
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(cls.ALPHABET) + text[at:]
            out.append(text)
        return out

    def test_seeded_strings_read_as_the_oracle_reads_them(self):
        strings = self.literals(100_000, seed=0)
        canonical = sum(bool(re.fullmatch(r"-?\d+(/\d+)?", s)) for s in strings)
        refused = 0
        for s in strings:
            expected = self.outcome(oracle_as_fraction, s)
            assert self.outcome(as_fraction, s) == expected, s
            refused += expected[0] is ValidationError
        # both readers and both outcomes are exercised
        assert canonical > 30_000 and refused > 30_000 and len(strings) - canonical - refused > 5_000

    def test_the_memo_changes_no_outcome(self, monkeypatch):
        monkeypatch.setattr(gnprob.algebra, "_memo", {})
        strings = self.literals(20_000, seed=1)
        # more distinct accepted strings than the memo holds, so both passes hit and miss
        accepted = {s for s in strings if self.outcome(oracle_as_fraction, s)[0] is Fraction}
        assert len(accepted) > gnprob.algebra._MEMO_LIMIT
        for s in strings + strings:
            assert self.outcome(as_fraction, s) == self.outcome(oracle_as_fraction, s), s
        memo = gnprob.algebra._memo
        assert memo and "1/0" not in memo and "" not in memo
        for key, value in memo.items():
            assert type(key) is str and len(key) <= gnprob.algebra.MAX_LITERAL_DIGITS, key
            assert type(value) is Fraction and value == oracle_as_fraction(key), key

    def test_the_memo_stays_within_its_limit(self, monkeypatch):
        monkeypatch.setattr(gnprob.algebra, "_memo", {})
        limit = gnprob.algebra._MEMO_LIMIT
        sizes = []
        for k in range(3 * limit):
            assert as_fraction(f"{k}/7") == Fraction(k, 7)
            sizes.append(len(gnprob.algebra._memo))
        assert max(sizes) == limit
        # emptied when full: the string read next is the only one kept
        assert sizes[limit] == 1 and sizes[2 * limit] == 1 and sizes[-1] == limit
        assert f"{3 * limit - 1}/7" in gnprob.algebra._memo

    def test_non_canonical_strings_are_stored(self, monkeypatch):
        monkeypatch.setattr(gnprob.algebra, "_memo", {})
        values = [" 1/2", "5e-1", "+2", "2.0", "-3.0", "1_000", "3/ 4", "0x1", "\u0663/\u0664"]
        for value in values + values:
            assert self.outcome(as_fraction, value) == self.outcome(oracle_as_fraction, value), value
        # "1_000" is refused before Python 3.11, whose Fraction reads underscores
        read = [value for value in values if self.outcome(oracle_as_fraction, value)[0] is Fraction]
        assert {" 1/2", "5e-1", "-3.0"} <= set(read) and "3/ 4" not in read and "0x1" not in read
        assert gnprob.algebra._memo == {value: oracle_as_fraction(value) for value in read}

    def test_str_subclasses_refusals_and_long_strings_are_not_stored(self, monkeypatch):
        monkeypatch.setattr(gnprob.algebra, "_memo", {})

        class Literal(str):
            pass

        long = " " * 998 + "1/2"
        assert len(long) == gnprob.algebra.MAX_LITERAL_DIGITS + 1
        values = [Literal("1/2"), Literal("7"), "1/0", long]
        for value in values + values:
            assert self.outcome(as_fraction, value) == self.outcome(oracle_as_fraction, value), value
        assert as_fraction(long) == Fraction(1, 2)
        assert gnprob.algebra._memo == {}

    @pytest.mark.parametrize(
        "value",
        [0, -7, 10**1000 - 1, 10**1001, True, 0.5, Fraction(3, 4), Decimal("0.5"), None, [1]],
        ids=repr,
    )
    def test_other_types_read_as_the_oracle_reads_them(self, value):
        assert self.outcome(as_fraction, value) == self.outcome(oracle_as_fraction, value)

    def test_unknown_world_refusals_survive_the_lookup_fast_paths(self):
        u = Universe(("a", "b", "c"))
        with pytest.raises(ValidationError, match="^unknown world 'zz'$"):
            u.event(["a", "zz"])
        assert u.event([0, "c"]) == Event(u, 0b101)
        with pytest.raises(ValidationError, match="^no world True in a 3-world universe$"):
            u.event([True])
        with pytest.raises(ValidationError, match=r"^no world \['a'\] in a 3-world universe$"):
            u.event([["a"]])
        with pytest.raises(ValidationError, match="^unknown world 'zz'$"):
            Gamble(u, {"zz": "1", "a": "x"})
        with pytest.raises(ValidationError, match="^no world True in a 3-world universe$"):
            Gamble(u, {True: "1"})
        assert Gamble(u, {2: "1/2", "a": 1}).values == (1, 0, Fraction(1, 2))


class TestConditionalObjects:
    def test_normalization(self):
        u = make_universe(3)
        a = u.event(["w1", "w3"])
        b = u.event(["w1", "w2"])
        ce = ConditionalEvent(a, b)
        assert ce.conditioned == u.event(["w1"])
        assert ce == ConditionalEvent(a & b, b)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5),
        amask=st.integers(min_value=0),
        bmask=st.integers(min_value=1),
    )
    def test_normalization_property(self, n, amask, bmask):
        u = make_universe(n)
        top = (1 << n) - 1
        a, b = Event(u, amask & top), Event(u, (bmask % top) + 1 if top else 1)
        assert ConditionalEvent(a, b) == ConditionalEvent(a & b, b)

    def test_empty_conditioning_rejected(self):
        u = make_universe(2)
        with pytest.raises(EmptyConditioningError):
            ConditionalEvent(u.event(["w1"]), u.empty)
        with pytest.raises(EmptyConditioningError):
            ConditionalGamble(Gamble.zero(u), u.empty)

    def test_conditional_gamble_canonical_payoff(self):
        u = make_universe(3)
        b = u.event(["w1", "w2"])
        g1 = ConditionalGamble(Gamble(u, [1, 2, 99]), b)
        g2 = ConditionalGamble(Gamble(u, [1, 2, -5]), b)
        assert g1 == g2
        assert g1.payoff.values[2] == 0

    def test_triviality_flags(self):
        u = make_universe(3)
        b = u.event(["w1", "w2"])
        assert ConditionalEvent(u.empty, b).is_trivial
        assert ConditionalEvent(b, b).is_trivial
        assert not ConditionalEvent(u.event(["w1"]), b).is_trivial
