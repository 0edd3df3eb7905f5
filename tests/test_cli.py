"""Command line interface: exit codes, rendering, determinism, round trips."""

import json
import re
import subprocess
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gnprob.algebra
from gnprob import GnprobError, ValidationError, cli
from gnprob.cli import Problem, load_problem, main

from oracles import oracle_as_fraction

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
FOOTBALL = str(PROBLEMS / "football.json")
COINS = str(PROBLEMS / "coins.json")
ASL = str(PROBLEMS / "asl.json")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckCommand:
    def test_consistent_exit_zero(self, capsys):
        code, out, _ = run_cli(["check", COINS, "fair"], capsys)
        assert code == 0
        assert out.strip() == "consistent"

    def test_inconsistent_exit_one_with_witness(self, capsys):
        code, out, _ = run_cli(["check", COINS, "overbooked"], capsys)
        assert code == 1
        assert out.startswith("inconsistent")
        assert "stake=" in out and "value=3/5" in out

    def test_unknown_assessment_exit_two(self, capsys):
        code, _, err = run_cli(["check", COINS, "missing"], capsys)
        assert code == 2
        assert "missing" in err

    def test_class_flag_overrides(self, capsys):
        code, _, _ = run_cli(["check", COINS, "wide", "--class", "W"], capsys)
        assert code == 0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["check", COINS, "overbooked", "--format", "json"], capsys)
        assert code == 1
        record = json.loads(out)
        assert record["consistent"] is False
        assert record["witness"]["conditioned_max"].startswith("-")

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["check", str(bad), "x"], capsys)
        assert code == 2 and "invalid JSON" in err

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100_000, b'{"universe": ["a"], "x": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "deep-nesting", "huge-integer"],
    )
    def test_unreadable_json_exit_two(self, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, _, err = run_cli(["check", str(bad), "x"], capsys)
        assert code == 2 and "invalid JSON" in err

    def test_loader_errors_are_path_anchored(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "universe": ["a", "b"],
                    "assessments": {
                        "book": {"entries": [{"event": "missing", "value": "1/2"}]}
                    },
                }
            )
        )
        code, _, err = run_cli(["check", str(bad), "book"], capsys)
        assert code == 2
        assert "assessments.book.entries[0]" in err

    def test_centering_note_printed(self, capsys):
        code, out, _ = run_cli(["check", COINS, "nonmonotone", "--class", "convex"], capsys)
        assert code == 1
        assert "centering" in out

    def test_bad_rational_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "universe": ["a"],
                    "assessments": {
                        "x": {"entries": [{"event": ["a"], "value": "0.5.1"}]}
                    },
                }
            )
        )
        code, _, err = run_cli(["check", str(bad), "x"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "data, location",
        [
            ({"universe": ["a", "b"], "assessments": {"x": [1]}}, "assessments.x:"),
            ({"universe": ["a"], "gambels": {}}, "problem file: unknown section 'gambels'"),
            ({"universe": 3}, "universe:"),
            ({"universe": "ab"}, "universe:"),
            ({"universe": ["a"], "events": [["a"]]}, "events:"),
            ({"universe": ["a"], "assessments": {"x": {"entries": 3}}}, "assessments.x.entries:"),
            ({"universe": ["a"], "assessments": {"x": {"entries": [1]}}}, "assessments.x.entries[0]:"),
            ({"universe": ["a"], "partitions": {"P": 3}}, "partitions.P:"),
            ({"universe": ["a"], "events": {"E": 3}}, "events.E:"),
            ({"universe": ["a"], "gambles": {"X": 3}}, "gambles.X:"),
            ({"universe": ["a"], "layered": {"L": 3}}, "layered.L:"),
            ({"universe": ["a"], "credal": {"C": 3}}, "credal.C:"),
            (
                {"universe": ["a"], "assessments": {"x": {"entries": [{"event": 3, "value": "1"}]}}},
                "assessments.x.entries[0]:",
            ),
            (
                {"universe": ["a", "b"], "assessments": {"x": {"entries": [{"event": ["a"], "given": [], "value": "1"}]}}},
                "assessments.x.entries[0]:",
            ),
            ({"universe": ["a", "b"], "layered": {"L": [{"a": "1", "zz": "5"}, {"b": "1"}]}}, "layered.L: unknown world 'zz'"),
            ({"universe": ["a", "b"], "credal": {"C": [[{"a": "1"}, {"b": "1"}], [{"b": "1", "zz": "0"}, {"a": "1"}]]}}, "credal.C[1]: unknown world 'zz'"),
            (
                {
                    "universe": ["a", "b"],
                    "events": {"A": ["a"]},
                    "assessments": {
                        "x": {"entries": [{"event": "A", "gven": ["a"], "value": "1/3"}]}
                    },
                },
                "assessments.x.entries[0]: unknown key 'gven'",
            ),
            (
                {"universe": ["a"], "assessments": {"x": {"knd": "upper", "entries": []}}},
                "assessments.x: unknown key 'knd'",
            ),
            (
                {"universe": ["a"], "assessments": {"x": {"zz": 1, "kind": "lower", "yy": 2}}},
                "assessments.x: unknown key 'zz'",
            ),
            (
                {
                    "universe": ["a", "b"],
                    "assessments": {
                        "x": {"entries": [{"event": ["a"], "gamble": [1, 2], "value": "1/2"}]}
                    },
                },
                "assessments.x.entries[0]: an entry takes an 'event' or a 'gamble', not both",
            ),
            (
                {
                    "universe": ["a", "b"],
                    "assessments": {
                        "x": {
                            "entries": [
                                {"event": ["a"], "value": "1"},
                                {"gamble": [1, 2], "value": "1", "Given": ["b"]},
                            ]
                        }
                    },
                },
                "assessments.x.entries[1]: unknown key 'Given'",
            ),
        ],
    )
    def test_bad_shapes_exit_two_with_location(self, data, location, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(["check", str(bad), "x"], capsys)
        assert code == 2
        assert err.startswith(f"error: {location}")


    @pytest.mark.parametrize(
        "literal",
        ["1e-3000000", "1E+999999999", "1e1001", "1" * 1001, "1/" + "7" * 1001],
    )
    def test_long_rational_literal_fails_fast(self, literal, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "universe": ["a", "b"],
                    "assessments": {
                        "x": {"entries": [{"event": ["a"], "value": literal}]}
                    },
                }
            )
        )
        start = time.perf_counter()
        code, _, err = run_cli(["check", str(bad), "x", "--class", "W"], capsys)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert err.startswith("error: assessments.x.entries[0]: rational literal")

    def test_literal_bound_covers_masses_and_payoffs(self):
        long = "1/" + "3" * 1001
        for data, location in [
            ({"universe": ["a"], "layered": {"L": [{"a": long}]}}, "layered.L:"),
            ({"universe": ["a"], "gambles": {"X": {"a": long}}}, "gambles.X:"),
            ({"universe": ["a"], "gambles": {"X": [10**1001]}}, "gambles.X:"),
        ]:
            with pytest.raises(ValidationError, match=f"^{location}"):
                Problem.from_dict(data)

    def test_literal_at_the_bound_loads(self):
        problem = Problem.from_dict(
            {"universe": ["a"], "gambles": {"X": ["1e1000"], "Y": ["9" * 1000]}}
        )
        assert problem.gambles["X"].values[0] == 10**1000

    @pytest.mark.parametrize(
        "data, location",
        [
            ({"universe": ["a"], "gambles": {"X": {"a": True}}}, "gambles.X:"),
            ({"universe": ["a"], "gambles": {"X": [False]}}, "gambles.X:"),
            ({"universe": ["a"], "layered": {"L": [{"a": True}]}}, "layered.L:"),
            ({"universe": ["a"], "credal": {"C": [[{"a": True}]]}}, "credal.C[0]:"),
            (
                {"universe": ["a"], "assessments": {"x": {"entries": [{"event": ["a"], "value": True}]}}},
                "assessments.x.entries[0]:",
            ),
        ],
        ids=["payoff-object", "payoff-list", "layer-mass", "credal-mass", "entry-value"],
    )
    def test_json_booleans_are_not_rationals(self, data, location):
        with pytest.raises(ValidationError, match=f"^{re.escape(location)} (true|false) is not a rational literal"):
            Problem.from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                {"universe": ["a", "b"], "layered": {"L": [{"a": "x", "zz": "1"}]}},
                "layered.L: not a rational number: 'x'",
            ),
            (
                {"universe": ["a", "b"], "layered": {"L": [{"zz": "1", "a": True}]}},
                "layered.L: unknown world 'zz'",
            ),
            (
                {"universe": ["a", "b"], "gambles": {"X": {"a": "x", "zz": "1"}}},
                "gambles.X: not a rational number: 'x'",
            ),
            (
                {"universe": ["a", "b"], "gambles": {"X": {"zz": "1", "a": "1e-3000000"}}},
                "gambles.X: unknown world 'zz'",
            ),
            (
                {"universe": ["a", "b"], "gambles": {"X": ["x", True]}},
                "gambles.X: not a rational number: 'x'",
            ),
            (
                # every layer is read before any layer is checked as a measure
                {"universe": ["a", "b"], "layered": {"L": [{}, {"a": "x"}]}},
                "layered.L: not a rational number: 'x'",
            ),
            (
                # an entry's conditioning is checked before its value is read
                {"universe": ["a"], "assessments": {"x": {"entries": [{"event": ["a"], "given": [], "value": True}]}}},
                "assessments.x.entries[0]: conditioning event must be nonempty",
            ),
        ],
        ids=["layer", "layer-world-first", "gamble", "gamble-world-first", "gamble-list", "layers", "entry"],
    )
    def test_first_fault_of_a_two_fault_object(self, data, message):
        with pytest.raises(ValidationError) as caught:
            Problem.from_dict(data)
        assert str(caught.value) == message

    def test_universe_cap(self):
        worlds = [f"w{i}" for i in range(cli.MAX_WORLDS + 1)]
        with pytest.raises(ValidationError, match=f"^universe: {cli.MAX_WORLDS + 1} worlds exceed"):
            Problem.from_dict({"universe": worlds})
        assert Problem.from_dict({"universe": worlds[:-1]}).universe.size == cli.MAX_WORLDS

    @pytest.mark.parametrize(
        "flag, cap", [("--worlds", cli.MAX_WORLDS), ("--members", cli.MAX_MEMBERS), ("--layers", cli.MAX_LAYERS)]
    )
    def test_sample_caps(self, flag, cap, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("generated past a cap")

        monkeypatch.setattr(cli, "Universe", refuse)
        monkeypatch.setattr(cli, "random_credal", refuse)
        for value in (cap + 1, 100_000_000, 0, -3):
            code, out, err = run_cli(["sample", flag, str(value)], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: {flag}: {value} is outside 1..{cap}\n"

    def test_unexpected_exception_is_internal_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("boom\nsecond line")

        monkeypatch.setattr(cli, "check", broken)
        code, out, err = run_cli(["check", COINS, "fair"], capsys)
        assert code == cli.EXIT_INTERNAL == 3
        assert out == ""
        assert err == "internal error: ZeroDivisionError: boom\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
WORLDS = st.sampled_from(["a", "b", "c"])
RATIONALS = st.sampled_from(["0", "1", "1/2", "1/3", "-2", "x", "1e-3000000"]) | JSON_VALUES
EVENTS = st.lists(WORLDS, max_size=3) | st.sampled_from(["E", "F"]) | JSON_VALUES
GAMBLES = st.dictionaries(WORLDS, RATIONALS, max_size=3) | st.lists(RATIONALS, max_size=3) | JSON_VALUES
LAYERED = st.lists(st.dictionaries(WORLDS, RATIONALS, max_size=3), max_size=2) | JSON_VALUES
ENTRIES = st.lists(
    st.fixed_dictionaries(
        {},
        optional={"event": EVENTS, "gamble": GAMBLES, "given": EVENTS, "value": RATIONALS},
    )
    | JSON_VALUES,
    max_size=3,
)
SECTIONS = {
    "events": st.dictionaries(st.sampled_from(["E", "F"]), EVENTS, max_size=2),
    "partitions": st.dictionaries(st.just("P"), st.lists(st.lists(WORLDS, max_size=3), max_size=3) | JSON_VALUES),
    "gambles": st.dictionaries(st.just("X"), GAMBLES, max_size=1),
    "layered": st.dictionaries(st.just("L"), LAYERED, max_size=1),
    "credal": st.dictionaries(st.just("C"), st.lists(st.just("L") | LAYERED, max_size=2) | JSON_VALUES),
    "assessments": st.dictionaries(
        st.just("x"),
        st.fixed_dictionaries(
            {"entries": ENTRIES},
            optional={"kind": st.sampled_from(["lower", "upper", "precise"]) | JSON_VALUES,
                      "class": st.sampled_from(["W", "dF"]) | JSON_VALUES},
        )
        | JSON_VALUES,
        max_size=1,
    ),
}
PROBLEM_DOCS = (
    st.fixed_dictionaries(
        {"universe": st.lists(WORLDS, min_size=1, max_size=3, unique=True) | JSON_VALUES},
        optional={key: value | JSON_VALUES for key, value in SECTIONS.items()},
    )
    | JSON_VALUES
)


class TestProblemFromDictProperty:
    @settings(max_examples=400, deadline=None)
    @given(PROBLEM_DOCS)
    def test_loads_or_raises_gnprob_error(self, data):
        try:
            Problem.from_dict(data)
        except GnprobError:
            pass


class TestLiteralMemo:
    """Loads read their literals through the memo of ``as_fraction``, which
    outlives a load and never holds a refused literal."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(gnprob.algebra, "_memo", {})

    @staticmethod
    def doc(b_value, c_value="1/3"):
        return {
            "universe": ["a", "b", "c"],
            "gambles": {"X": {"a": "1/3", "b": b_value}, "Y": ["1/3", "-2", c_value]},
            "layered": {"L": [{"a": "1/3", "b": "2/3"}, {"c": "1"}]},
            "assessments": {"s": {"entries": [{"gamble": "X", "value": "1/3"}]}},
        }

    @staticmethod
    def assert_memo_exact():
        for key, value in gnprob.algebra._memo.items():
            assert value == oracle_as_fraction(key), key

    def test_a_load_reads_each_literal_once(self):
        problem = Problem.from_dict(self.doc("-2"))
        third = problem.gambles["X"].values[0]
        assert problem.gambles["Y"].values[0] is third
        assert problem.layered["L"].layers[0][0] is third
        assert problem.assessments["s"].entries[0][1] is third
        assert problem.gambles["X"].values[1] is problem.gambles["Y"].values[1]

    def test_a_non_canonical_literal_is_read_once(self):
        problem = Problem.from_dict(self.doc(" 1/3", c_value=" 1/3"))
        third = problem.gambles["X"].values[1]
        assert third == Fraction(1, 3) and problem.gambles["Y"].values[2] is third

    def test_repeated_loads_are_equal(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(self.doc("-2")))
        assert load_problem(str(path)) == load_problem(str(path))
        for name in ("football", "coins", "asl"):
            assert load_problem(str(PROBLEMS / f"{name}.json")) == load_problem(str(PROBLEMS / f"{name}.json"))

    @pytest.mark.parametrize(
        "refused, message",
        [
            ("1/0", "gambles.X: not a rational number: '1/0'"),
            ("1e-3000000", "gambles.X: rational literal with more than 1000 digits or an exponent above 1000"),
            ("1" * 1001, "gambles.X: rational literal with more than 1000 digits or an exponent above 1000"),
        ],
        ids=["zero-denominator", "exponent", "digits"],
    )
    def test_a_refused_literal_stays_refused(self, refused, message):
        for _ in range(2):
            with pytest.raises(ValidationError) as caught:
                Problem.from_dict(self.doc(refused))
            assert str(caught.value) == message
            # a load that accepts the neighbours of the refused literal
            accepted = Problem.from_dict(self.doc("2/3", c_value="-2"))
            assert accepted.gambles["X"].values == (Fraction(1, 3), Fraction(2, 3), 0)
            assert refused not in gnprob.algebra._memo
        self.assert_memo_exact()

    def test_loads_on_several_threads_read_the_same_values(self):
        # Threads read and fill one memo; every load must still equal a load
        # made alone, and the memo must hold only exact values.
        docs = [self.doc(f"{k}/7", c_value=f"-{k}") for k in range(1, 7)]
        alone = [Problem.from_dict(doc) for doc in docs]
        faults = []

        def load(k):
            for _ in range(100):
                if Problem.from_dict(docs[k]) != alone[k]:
                    faults.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load, args=(k,)) for k in range(len(docs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not faults
        self.assert_memo_exact()

    def test_a_load_that_raises_leaves_only_exact_values(self):
        # the fault comes after literals were read into the memo
        bad = {**self.doc("-2"), "assessments": {"s": {"entries": [{"gamble": "X", "valu": "1"}]}}}
        with pytest.raises(ValidationError, match="unknown key 'valu'"):
            Problem.from_dict(bad)
        self.assert_memo_exact()
        assert Problem.from_dict(self.doc("-2")).gambles["X"].values == (Fraction(1, 3), -2, 0)


# " 1/2", "5e-1", "-3.0", "+2" and "2.0" spell the values "1/2", "-3" and "2"
# another way. The check fails, so its witness prints every value read.
CANONICAL = '{"universe": ["a", "b"], "gambles": {"X": {"a": "-3", "b": "2"}}, "assessments": {"x": {"kind": "lower", "class": "W", "entries": [{"event": ["a"], "value": "1/2"}, {"event": ["b"], "value": "1/2"}, {"gamble": "X", "value": "2"}]}}}'
NON_CANONICAL = '{"universe": ["a", "b"], "gambles": {"X": {"a": "-3.0", "b": "+2"}}, "assessments": {"x": {"kind": "lower", "class": "W", "entries": [{"event": ["a"], "value": " 1/2"}, {"event": ["b"], "value": "5e-1"}, {"gamble": "X", "value": "2.0"}]}}}'


class TestCheckBytes:
    """``check`` prints the same bytes for literals spelled another way, and
    for a second run in one process, which reads its literals from the
    memo of ``as_fraction``."""

    @staticmethod
    def check_json(path, name, capsys):
        code = main(["check", str(path), name, "--format", "json"])
        return code, capsys.readouterr().out

    def test_non_canonical_literals_load_like_canonical_ones(self, tmp_path, capsys):
        outputs = []
        for text in (CANONICAL, NON_CANONICAL):
            path = tmp_path / "doc.json"
            path.write_text(text)
            outputs.append(self.check_json(path, "x", capsys))
        assert outputs[0][0] == 1 and outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "text, name", [(None, "overbooked"), (NON_CANONICAL, "x")], ids=["coins", "non-canonical"]
    )
    def test_a_second_check_in_one_process_prints_the_same_bytes(
        self, text, name, tmp_path, monkeypatch, capsys
    ):
        path = COINS
        if text is not None:
            path = tmp_path / "doc.json"
            path.write_text(text)
        # The first run fills an empty memo; the second reads from it.
        monkeypatch.setattr(gnprob.algebra, "_memo", {})
        first = self.check_json(path, name, capsys)
        assert gnprob.algebra._memo
        assert first[0] == 1 and self.check_json(path, name, capsys) == first


class TestGnCommand:
    def test_football_leq(self, capsys):
        code, out, _ = run_cli(["gn", FOOTBALL, "S|F", "S|SB"], capsys)
        assert code == 0 and out.strip() == "LEQ"

    def test_identical_operands(self, capsys):
        code, out, _ = run_cli(["gn", FOOTBALL, "S|F", "S|F"], capsys)
        assert out.strip() == "EQUIVALENT"

    def test_incomparable_case(self, capsys):
        code, out, _ = run_cli(["gn", COINS, "A13", "A13|B12"], capsys)
        assert out.strip() == "INCOMPARABLE"

    def test_gamble_mode(self, capsys):
        code, out, _ = run_cli(
            ["gn", COINS, "winnings|B12", "winnings|B12", "--gambles"], capsys
        )
        assert out.strip() == "EQUIVALENT"

    BAD_OPERANDS = [
        ("S|", "empty conditioning part after '|'"),
        ("S| ", "empty conditioning part after '|'"),
        ("payout|", "empty conditioning part after '|'"),
        ("|F", "empty conditioned part before '|'"),
        (" |F", "empty conditioned part before '|'"),
        ("S|F|B", "more than one '|'"),
        ("payout|F|", "more than one '|'"),
    ]

    @pytest.mark.parametrize("operand, message", BAD_OPERANDS, ids=[op for op, _ in BAD_OPERANDS])
    def test_empty_conditioning_part_exit_two(self, operand, message, capsys):
        flags = ["--gambles"] if operand.startswith("payout") else []
        code, out, err = run_cli(["gn", FOOTBALL, operand, operand, *flags], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {operand}: {message}\n"


class TestExtendCommand:
    def test_interval_output(self, capsys):
        code, out, _ = run_cli(
            ["extend", FOOTBALL, "uniform", "S|F", "--mode", "interval"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0 1/2"
        assert lines[1].startswith("inner:") and lines[2].startswith("outer:")

    def test_natural_upper(self, capsys):
        code, out, _ = run_cli(
            ["extend", FOOTBALL, "M", "S|F", "--mode", "natural", "--side", "upper"], capsys
        )
        assert out.strip() == "5/7"

    def test_upper_extension(self, capsys):
        code, out, _ = run_cli(["extend", FOOTBALL, "M", "S|F", "--mode", "upper"], capsys)
        assert out.strip() == "3/8"

    def test_measurable_target_returns_assessed_value(self, capsys):
        code, out, _ = run_cli(["extend", FOOTBALL, "uniform", "S|SB"], capsys)
        assert out.strip() == "1/2"

    def test_trivial_target_exit_two(self, capsys):
        code, _, err = run_cli(["extend", FOOTBALL, "uniform", "F|F"], capsys)
        assert code == 2
        assert "forced" in err

    def test_unknown_evaluator_exit_two(self, capsys):
        code, _, _ = run_cli(["extend", FOOTBALL, "nobody", "S|F"], capsys)
        assert code == 2


class TestAuditCommand:
    def test_clean_assessment(self, capsys):
        code, out, _ = run_cli(["audit", COINS, "fair"], capsys)
        assert code == 0 and out.strip() == "no violations"

    def test_violation_listed(self, capsys):
        code, out, _ = run_cli(["audit", COINS, "nonmonotone"], capsys)
        assert code == 1
        assert "7/10 > 3/5" in out

    def test_asl_file_violation(self, capsys):
        code, out, _ = run_cli(["audit", ASL, "asl_not_monotone"], capsys)
        assert code == 1


class TestBoundsCommand:
    def test_product_reports(self, capsys):
        code, out, _ = run_cli(
            [
                "bounds", FOOTBALL, "--kind", "product", "--evaluator", "M",
                "--event-a", "S", "--event-b", "SB", "--gamble", "payout",
            ],
            capsys,
        )
        assert code == 0
        assert "product-rule-positive" in out

    def test_sign_report(self, capsys):
        code, out, _ = run_cli(
            ["bounds", COINS, "--kind", "sign", "--gamble", "winnings", "--b1", "B12", "--b0", "some_heads"],
            capsys,
        )
        assert code == 0
        assert out.strip().startswith("LEQ")

    def test_inner_bound_with_truth(self, capsys):
        code, out, _ = run_cli(
            [
                "bounds", FOOTBALL, "--kind", "inner", "--evaluator", "uniform",
                "--gamble", "payout", "--event-b", "F", "--partition", "teams",
                "--truth", "uniform",
            ],
            capsys,
        )
        assert code == 0
        assert "inner-approximation" in out

    def test_nested_event(self, capsys):
        code, out, _ = run_cli(
            [
                "bounds", COINS, "--kind", "nested", "--evaluator", "fair_coin",
                "--event-a", "both_heads", "--b1", "B12", "--b0", "some_heads",
            ],
            capsys,
        )
        assert code == 0

    def test_levels_bound_json(self, capsys):
        code, out, _ = run_cli(
            [
                "bounds", FOOTBALL, "--kind", "levels", "--evaluator", "uniform",
                "--gamble", "payout", "--event-b", "F", "--partition", "teams",
                "--truth", "uniform", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        report = record["reports"][0]
        assert report["name"] == "level-set-bound"
        assert report["holds"] is True

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--kind", "product", "--event-a", "S", "--event-b", "SB", "--gamble", "payout"], "--evaluator"),
            (["--kind", "nested", "--event-a", "S", "--b1", "SB", "--b0", "F"], "--evaluator"),
            (["--kind", "inner", "--gamble", "payout", "--event-b", "F"], "--evaluator"),
            (["--kind", "levels", "--gamble", "payout", "--event-b", "F"], "--evaluator"),
            (["--kind", "levels", "--evaluator", "M", "--event-b", "F"], "--gamble"),
            (["--kind", "product", "--evaluator", "M", "--event-b", "SB", "--gamble", "payout"], "--event-a"),
            (["--kind", "inner", "--evaluator", "M", "--gamble", "payout"], "--event-b"),
            (["--kind", "nested", "--evaluator", "M", "--event-a", "S", "--b0", "F"], "--b1"),
            (["--kind", "sign", "--gamble", "payout", "--b1", "SB"], "--b0"),
        ],
    )
    def test_missing_flag_is_named(self, argv, flag, capsys):
        code, out, err = run_cli(["bounds", FOOTBALL, *argv], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --kind {argv[1]} needs {flag}\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--kind", "sign", "--gamble", "payout", "--b1", "SB", "--b0", "SB",
              "--evaluator", "M"], "--evaluator"),
            (["--kind", "product", "--evaluator", "M", "--event-a", "S", "--event-b", "F",
              "--gamble", "payout", "--truth", "uniform"], "--truth"),
            # several unread flags: the first the parser declares is named
            (["--kind", "product", "--evaluator", "M", "--event-a", "S", "--event-b", "F",
              "--gamble", "payout", "--truth", "uniform", "--partition", "teams", "--b1", "S"], "--b1"),
            (["--kind", "nested", "--evaluator", "M", "--event-a", "S", "--b1", "SB", "--b0", "SB",
              "--partition", "teams"], "--partition"),
            (["--kind", "inner", "--evaluator", "uniform", "--gamble", "payout", "--event-b", "F",
              "--b0", "S"], "--b0"),
            (["--kind", "levels", "--evaluator", "uniform", "--gamble", "payout", "--event-b", "F",
              "--event-a", "S"], "--event-a"),
        ],
        ids=["sign", "product", "product-first-of-three", "nested", "inner", "levels"],
    )
    def test_unread_flag_is_refused(self, argv, flag, capsys):
        code, out, err = run_cli(["bounds", FOOTBALL, *argv], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --kind {argv[1]} does not read {flag}\n"

    def test_nested_takes_a_gamble_or_an_event_not_both(self, capsys):
        argv = [
            "--kind", "nested", "--evaluator", "M", "--gamble", "payout", "--event-a", "S",
            "--b1", "SB", "--b0", "SB",
        ]
        code, out, err = run_cli(["bounds", FOOTBALL, *argv], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --kind nested reads --gamble or --event-a, not both\n"


class TestSampleCommand:
    def test_deterministic_fragment(self, capsys):
        code1, out1, _ = run_cli(["sample", "--worlds", "4", "--seed", "5"], capsys)
        code2, out2, _ = run_cli(["sample", "--worlds", "4", "--seed", "5"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        fragment = json.loads(out1)
        assert fragment["universe"] == ["w1", "w2", "w3", "w4"]


def to_dict(problem: Problem) -> dict:
    """A problem as a problem-file document that ``Problem.from_dict`` reads back."""
    worlds = problem.universe.worlds

    def gamble_spec(gamble):
        return {w: str(gamble.values[i]) for i, w in enumerate(worlds)}

    def assessment_spec(a):
        entries = [
            {
                "gamble": gamble_spec(gamble.payoff),
                "given": list(gamble.conditioning.worlds()),
                "value": str(value),
            }
            for gamble, value in a.entries
        ]
        spec = {"kind": a.kind, "entries": entries}
        if a.consistency is not None:
            spec["class"] = a.consistency
        return spec

    return {
        "universe": list(worlds),
        "events": {n: list(e.worlds()) for n, e in problem.events.items()},
        "partitions": {
            n: [list(b.worlds()) for b in p.blocks] for n, p in problem.partitions.items()
        },
        "gambles": {n: gamble_spec(g) for n, g in problem.gambles.items()},
        "layered": {n: cli._layered_spec(lp) for n, lp in problem.layered.items()},
        "credal": {
            n: [cli._layered_spec(m) for m in c.members] for n, c in problem.credal.items()
        },
        "assessments": {n: assessment_spec(a) for n, a in problem.assessments.items()},
    }


class TestDeterminismAndRoundTrip:
    @pytest.mark.parametrize("path", [FOOTBALL, COINS, ASL])
    def test_round_trip(self, path):
        problem = load_problem(path)
        reloaded = Problem.from_dict(to_dict(problem))
        assert reloaded.universe == problem.universe
        assert reloaded.events == problem.events
        assert reloaded.partitions == problem.partitions
        assert reloaded.gambles == problem.gambles
        assert reloaded.layered == problem.layered
        assert reloaded.credal == problem.credal
        assert reloaded.assessments == problem.assessments
        # a second trip is byte-stable
        assert json.dumps(to_dict(reloaded), sort_keys=True, default=cli._rational) == json.dumps(
            to_dict(problem), sort_keys=True, default=cli._rational
        )

    def test_json_writes_rationals_only_as_strings(self):
        assert cli._rational(Fraction(-3, 5)) == "-3/5"
        for value in (1.5, Decimal("1.5"), object()):
            with pytest.raises(TypeError):
                cli._rational(value)

    def test_byte_identical_output(self):
        cmd = [
            sys.executable, "-m", "gnprob.cli", "extend", FOOTBALL, "M", "S|F",
            "--mode", "interval", "--format", "json",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "gnprob.cli", "check", COINS, "fair"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "consistent"


class TestParserReuse:
    """``main`` parses with one parser built at import. A run after a usage
    error, ``--help`` or a ``--format json`` run prints what a fresh process
    prints, so no default or command leaks from one call to the next."""

    SEQUENCE = [
        ["extend", FOOTBALL, "M", "S|F", "--mode", "sideways"],
        ["--help"],
        ["extend", FOOTBALL, "M", "S|F", "--mode", "interval", "--format", "json"],
        ["extend", FOOTBALL, "M", "S|F", "--mode", "interval"],
    ]

    def test_each_call_matches_a_fresh_process(self, monkeypatch, capsys):
        # Help is wrapped to the terminal width; the subprocesses inherit it too.
        monkeypatch.setenv("COLUMNS", "80")
        in_process = []
        for argv in self.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits on a usage error and on --help
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        alone = []
        for argv in self.SEQUENCE:
            result = subprocess.run(
                [sys.executable, "-m", "gnprob.cli", *argv],
                capture_output=True,
                text=True,
            )
            alone.append((result.returncode, result.stdout, result.stderr))
        assert [code for code, _, _ in in_process] == [2, 0, 0, 0]
        assert in_process == alone
