"""Seeded workloads for the gnprob benchmark.

Each workload turns a seed into a list of operations. An operation is a
library call plus a check of its answer against a property that the
generator guarantees by construction, so a wrong answer is caught
without a second implementation of the library. The harness owns all
randomness: it draws measures, events and gambles with its own
``random.Random`` and hands the library only the finished objects.

Library functions and methods are looked up at call time (``G.check``,
``credal.lower``), never bound during set-up, so that the tracer can
patch them between passes.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import gnprob as G
import gnprob.cli

# Entries per assessment, fixed per class. Every class enumerates its
# full grid on a consistent instance, so these sizes set the op cost.
CONSISTENT_SIZES = {"W": 5, "dF": 5, "asl": 6, "convex": 2, "1convex": 8}
WITNESS_SIZES = {"W": 6, "dF": 6, "asl": 7, "convex": 3, "1convex": 8}
COHERENCE_PER_CLASS = 40
COHERENCE_WORLDS = 6

INFERENCE_WORLDS = (8, 12, 16, 20, 24)
INFERENCE_GROUPS = 40
INFERENCE_MEMBERS = 6
INFERENCE_TARGETS = 6
AUDIT_ENTRIES = 50
AUDIT_PLANTED = 3

# Generated CLI problem files: big enough that parsing outweighs the
# library call, small enough that a 200-op window takes a few seconds.
CLI_FILES = ("a", "b", "c")
CLI_EVENTS = 150
CLI_MEMBERS = 16
CLI_BULK_ENTRIES = 40
CLI_AUDIT_ENTRIES = 20


class WrongAnswer(Exception):
    """An answer that contradicts the property its inputs were built with."""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    verify: Callable[[object], None]

    def run(self):
        answer = self.call()
        self.verify(answer)
        return answer


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Workload:
    ops: list
    fingerprint: str
    cold_argv: tuple
    cold_verify: Callable[[CliResult], None]


def build(name: str, seed: int, root: Path) -> Workload:
    """The workload's operations for one seed; ``root`` is the checkout."""
    return WORKLOADS[name](seed, root)


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _fingerprint(inputs) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# Generators


def universe(n: int) -> G.Universe:
    return G.Universe(tuple(f"w{i + 1}" for i in range(n)))


def rand_layered(rng: random.Random, u: G.Universe, max_layers: int = 2) -> G.LayeredProbability:
    """Layer supports cut from a shuffled world order, integer weights per layer."""
    n = u.size
    depth = rng.randint(1, min(max_layers, n))
    order = rng.sample(range(n), n)
    bounds = [0, *sorted(rng.sample(range(1, n), depth - 1)), n]
    layers = []
    for lo, hi in zip(bounds, bounds[1:]):
        weights = {i: rng.randint(1, 9) for i in order[lo:hi]}
        total = sum(weights.values())
        layers.append([Fraction(weights.get(i, 0), total) for i in range(n)])
    return G.LayeredProbability(u, layers)


def rand_credal(rng: random.Random, u: G.Universe, size: int) -> G.CredalSet:
    return G.CredalSet([rand_layered(rng, u) for _ in range(size)])


def rand_partition(rng: random.Random, u: G.Universe) -> G.Partition:
    n = u.size
    k = rng.randint(2, n // 2)
    order = rng.sample(range(n), n)
    bounds = [0, *sorted(rng.sample(range(1, n), k - 1)), n]
    blocks = [
        G.Event(u, sum(1 << i for i in order[lo:hi])) for lo, hi in zip(bounds, bounds[1:])
    ]
    return G.Partition(u, tuple(blocks))


def _mask(rng: random.Random, n: int, min_size: int = 1) -> int:
    while True:
        mask = rng.getrandbits(n)
        if mask.bit_count() >= min_size:
            return mask


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def rand_target(rng: random.Random, u: G.Universe) -> G.ConditionalEvent:
    """A nontrivial conditional event C|D."""
    while True:
        d = _mask(rng, u.size, 2)
        c = rng.getrandbits(u.size) & d
        if c and c != d:
            return G.ConditionalEvent(G.Event(u, c), G.Event(u, d))


def rand_entry(rng: random.Random, u: G.Universe) -> G.ConditionalGamble:
    """A nontrivial conditional event or a small-integer conditional gamble."""
    if rng.random() < 0.5:
        return G.ConditionalGamble.from_event(rand_target(rng, u))
    b = _mask(rng, u.size, 2)
    payoff = G.Gamble(u, [rng.randint(-3, 3) for _ in range(u.size)])
    return G.ConditionalGamble(payoff, G.Event(u, b))


def same_conditioning_pair(rng: random.Random, u: G.Universe):
    """(low, high) on one conditioning event B, low <= high on B and
    strictly below somewhere: low is GN-below high, and buying low while
    selling high loses at every world of B once low is valued higher."""
    b = _mask(rng, u.size, 3)
    worlds = _bits(b)
    rng.shuffle(worlds)
    event_b = G.Event(u, b)
    if rng.random() < 0.5:
        k1 = rng.randint(1, len(worlds) - 2)
        k2 = rng.randint(k1 + 1, len(worlds) - 1)
        small = G.Event(u, sum(1 << i for i in worlds[:k1]))
        large = G.Event(u, sum(1 << i for i in worlds[:k2]))
        return (
            G.ConditionalGamble.from_event(G.ConditionalEvent(small, event_b)),
            G.ConditionalGamble.from_event(G.ConditionalEvent(large, event_b)),
        )
    x = [rng.randint(-3, 3) for _ in range(u.size)]
    y = [v + rng.randint(0, 2) for v in x]
    y[worlds[0]] = x[worlds[0]] + 1
    return (
        G.ConditionalGamble(G.Gamble(u, x), event_b),
        G.ConditionalGamble(G.Gamble(u, y), event_b),
    )


def gn_gamble_pair(rng: random.Random, u: G.Universe):
    """(X|B, Y|D) with X|B GN-below Y|D on overlapping B and D.

    X is lowest (-3) on B minus D, Y is X plus a nonnegative amount on B
    and D, and Y is at least sup X on D minus B: the three pointwise
    conditions of the relation then hold by construction.
    """
    n = u.size
    while True:
        b, d = _mask(rng, n, 2), _mask(rng, n, 2)
        if b & d and b != d:
            break
    x = [0] * n
    for i in _bits(b):
        x[i] = rng.randint(-3, 3) if (d >> i) & 1 else -3
    top = max(x[i] for i in _bits(b))
    y = [0] * n
    for i in _bits(d):
        y[i] = (x[i] if (b >> i) & 1 else top) + rng.randint(0, 2)
    return (
        G.ConditionalGamble(G.Gamble(u, x), G.Event(u, b)),
        G.ConditionalGamble(G.Gamble(u, y), G.Event(u, d)),
    )


def gn_event_pairs(rng: random.Random, u: G.Universe):
    """Four event pairs with known verdicts: LEQ, GEQ, EQUIVALENT, INCOMPARABLE.

    The LEQ pair is built from the definition: C|D keeps every world where
    A|B is true and drops none where C|D is false that A|B has true. A
    constructed LEQ pair may coincide, which the relation reports as
    EQUIVALENT.
    """
    n = u.size
    b = _mask(rng, n, 2)
    true1 = rng.getrandbits(n) & b
    false1 = b & ~true1
    false2 = rng.getrandbits(n) & false1
    true2 = true1 | (rng.getrandbits(n) & ~false2 & ((1 << n) - 1))
    if not true2 | false2:
        true2 = true1 | (1 << _bits(~false2 & ((1 << n) - 1))[0])
    ab = G.ConditionalEvent(G.Event(u, true1), G.Event(u, b))
    cd = G.ConditionalEvent(G.Event(u, true2), G.Event(u, true2 | false2))
    x, y = _bits(b)[:2]
    rest = rng.getrandbits(n) & b & ~(1 << x) & ~(1 << y)
    outside = rng.getrandbits(n) & ~b & ((1 << n) - 1)
    left = G.ConditionalEvent(G.Event(u, rest | 1 << x), G.Event(u, b))
    right = G.ConditionalEvent(G.Event(u, rest | 1 << y), G.Event(u, b))
    widened = G.ConditionalEvent(G.Event(u, true1 | outside), G.Event(u, b))
    return [
        (ab, cd, ("LEQ", "EQUIVALENT")),
        (cd, ab, ("GEQ", "EQUIVALENT")),
        (ab, widened, ("EQUIVALENT",)),
        (left, right, ("INCOMPARABLE",)),
    ]


def gn_gamble_pairs(rng: random.Random, u: G.Universe):
    """Four gamble pairs with known verdicts, as for events."""
    low, high = gn_gamble_pair(rng, u)
    b = low.conditioning
    x, y = _bits(b.mask)[:2]
    base = [rng.randint(-3, 3) for _ in range(u.size)]
    bumped_x, bumped_y = list(base), list(base)
    bumped_x[x] += 1
    bumped_y[y] += 1
    outside = [v if (b.mask >> i) & 1 else v + 5 for i, v in enumerate(low.payoff.values)]
    return [
        (low, high, ("LEQ", "EQUIVALENT")),
        (high, low, ("GEQ", "EQUIVALENT")),
        (low, G.ConditionalGamble(G.Gamble(u, outside), b), ("EQUIVALENT",)),
        (
            G.ConditionalGamble(G.Gamble(u, bumped_x), b),
            G.ConditionalGamble(G.Gamble(u, bumped_y), b),
            ("INCOMPARABLE",),
        ),
    ]


def _distinct_entries(rng, u, count, taken):
    out = []
    while len(out) < count:
        entry = rand_entry(rng, u)
        if entry not in taken:
            taken.add(entry)
            out.append(entry)
    return out


# ---------------------------------------------------------------------------
# Coherence workloads

COHERENCE_CLASSES = ("W", "dF", "asl", "convex", "1convex")


def _checker(cls: str, assessment):
    if cls == "asl":
        return lambda: G.check_avoiding_sure_loss(assessment)
    return lambda: G.check(assessment, cls)


def expect_consistent(verdict) -> None:
    """Envelope theorem: a lower envelope of full conditional probabilities
    (or one such probability, for dF) is consistent in every class."""
    _require(verdict.consistent and verdict.witness is None, "consistent instance judged inconsistent")


def expect_witness(verdict) -> None:
    """A planted violation must be found, and its witness must lose
    strictly everywhere on its conditioning union."""
    _require(not verdict.consistent and verdict.witness is not None, "planted violation missed")
    _require(G.conditioned_max(verdict.witness) < 0, "witness gain is not strictly negative")


def _coherence_instance(seed, workload, cls, r, m, planted: bool):
    rng = _rng(seed, workload, cls, r)
    u = universe(COHERENCE_WORLDS)
    precise = cls == "dF"
    if precise:
        measure = rand_layered(rng, u)
        value = lambda g: measure.value(g)  # noqa: E731
    else:
        measure = rand_credal(rng, u, 3)
        value = lambda g: measure.lower(g)  # noqa: E731
    taken: set = set()
    pair = []
    if planted:
        if cls == "asl":
            target = rand_target(rng, u)
            complement = G.ConditionalEvent(target.false_part, target.conditioning)
            low = G.ConditionalGamble.from_event(target)
            high = G.ConditionalGamble.from_event(complement)
            v_high = value(high)
            pair = [(low, 1 - v_high + Fraction(1, rng.randint(5, 20))), (high, v_high)]
        else:
            low, high = same_conditioning_pair(rng, u)
            v_high = value(high)
            pair = [(low, v_high + Fraction(1, rng.randint(5, 20))), (high, v_high)]
        taken.update(g for g, _ in pair)
    others = [(g, value(g)) for g in _distinct_entries(rng, u, m - len(pair), taken)]
    if pair:
        # Stratified position: the later of the two planted entries sits at
        # index 1 + r mod (m - 1), so the grid exits early and late alike.
        last = 1 + r % (m - 1)
        first = rng.randrange(last)
        if rng.random() < 0.5:
            pair.reverse()
        others.insert(first, pair[0])
        others.insert(last, pair[1])
    kind = "precise" if precise else "lower"
    return G.Assessment(tuple(others), kind=kind)


def _coherence(seed: int, workload: str, sizes: dict, planted: bool) -> list:
    ops, inputs = [], []
    verify = expect_witness if planted else expect_consistent
    for r in range(COHERENCE_PER_CLASS):
        for cls in COHERENCE_CLASSES:
            assessment = _coherence_instance(seed, workload, cls, r, sizes[cls], planted)
            inputs.append((cls, assessment.kind, assessment.entries))
            ops.append(Op(cls, _checker(cls, assessment), verify))
    return ops, inputs


def _coherence_consistent(seed: int, root: Path) -> Workload:
    ops, inputs = _coherence(seed, "coherence-consistent", CONSISTENT_SIZES, planted=False)
    argv = ("check", str(root / "problems" / "coins.json"), "fair", "--class", "dF")
    return Workload(ops, _fingerprint(inputs), argv,
                    _expect_cli(0, ["consistent"]))


def _coherence_witness(seed: int, root: Path) -> Workload:
    ops, inputs = _coherence(seed, "coherence-witness", WITNESS_SIZES, planted=True)
    argv = ("check", str(root / "problems" / "coins.json"), "overbooked")
    return Workload(ops, _fingerprint(inputs), argv,
                    _expect_cli(1, ["inconsistent"], _negative_witness_text))


# ---------------------------------------------------------------------------
# Inference workload


def expect_bracket(rows) -> None:
    """Each row (low, value, high) must satisfy low <= value <= high."""
    for low, value, high in rows:
        _require(low <= value <= high, f"{value} outside [{low}, {high}]")


def expect_verdicts(pairs):
    def verify(verdicts) -> None:
        for (_, _, allowed), verdict in zip(pairs, verdicts, strict=True):
            _require(verdict.value in allowed, f"GN verdict {verdict.value}, expected {allowed}")

    return verify


def expect_envelope_order(bounds):
    """Answer (lower X|B, upper X|B, lower Y|D, upper Y|D) for X|B GN-below
    Y|D: both envelopes keep the order, lower <= upper, and each value lies
    within the payoff range of its gamble on its conditioning event."""
    (x_inf, x_sup), (y_inf, y_sup) = bounds

    def verify(answer) -> None:
        lx, ux, ly, uy = answer
        _require(lx <= ly and ux <= uy, "envelope orders a GN-related pair backwards")
        _require(x_inf <= lx <= ux <= x_sup, "envelope of X|B outside its payoff range")
        _require(y_inf <= ly <= uy <= y_sup, "envelope of Y|D outside its payoff range")

    return verify


def expect_audit(planted):
    """Every planted (left index, right index) pair is reported, and every
    reported pair is valued in the wrong order."""
    def verify(violations) -> None:
        found = {(v.left_index, v.right_index) for v in violations}
        _require(set(planted) <= found, f"planted violations {sorted(set(planted) - found)} missed")
        _require(all(v.left_value > v.right_value for v in violations), "reported pair is in order")

    return verify


def _payoff_range(cg):
    values = [cg.payoff.values[i] for i in _bits(cg.conditioning.mask)]
    return min(values), max(values)


def _audit_assessment(rng, u, credal, size):
    taken: set = set()
    pairs = []
    for _ in range(AUDIT_PLANTED):
        while True:
            low, high = gn_gamble_pair(rng, u)
            if low not in taken and high not in taken:
                break
        taken.update((low, high))
        pairs.append((low, high))
    entries = [(g, credal.lower(g)) for g in _distinct_entries(rng, u, size - 2 * AUDIT_PLANTED, taken)]
    for low, high in pairs:
        v_high = credal.lower(high)
        entries.insert(rng.randint(0, len(entries)), (high, v_high))
        entries.insert(rng.randint(0, len(entries)), (low, v_high + Fraction(1, rng.randint(5, 20))))
    index = {g: i for i, (g, _) in enumerate(entries)}
    planted = [(index[low], index[high]) for low, high in pairs]
    return G.Assessment(tuple(entries), kind="lower"), planted


def _inference_group(seed: int, r: int):
    rng = _rng(seed, "inference", r)
    u = universe(INFERENCE_WORLDS[r % len(INFERENCE_WORLDS)])
    p = rand_partition(rng, u)
    precise = rand_layered(rng, u, max_layers=3)
    credal = rand_credal(rng, u, INFERENCE_MEMBERS)
    targets = [rand_target(rng, u) for _ in range(INFERENCE_TARGETS)]
    direct = [precise.value(t) for t in targets]
    lowers = [credal.lower(t) for t in targets]
    uppers = [credal.upper(t) for t in targets]
    env_pairs = [gn_gamble_pair(rng, u) for _ in range(2)]
    event_pairs = gn_event_pairs(rng, u)
    gamble_pairs = gn_gamble_pairs(rng, u)
    audit, planted = _audit_assessment(rng, u, credal, AUDIT_ENTRIES)
    t0, t1, t2 = targets[:3]
    ops = [
        Op("interval",
           lambda: G.extension_interval(precise.value, t0, p),
           lambda iv: expect_bracket([(iv.low, direct[0], iv.high)])),
        Op("interval",
           lambda: G.extension_interval(credal.lower, t1, p),
           lambda iv: expect_bracket([(iv.low, lowers[1], iv.high)])),
        Op("natural",
           lambda: (G.natural_extension(precise.value, targets, p, "lower"),
                    G.natural_extension(precise.value, targets, p, "upper")),
           lambda ans: expect_bracket(zip(ans[0], direct, ans[1], strict=True))),
        Op("natural",
           lambda: (G.natural_extension(credal.lower, targets, p, "lower"),
                    G.natural_extension(credal.upper, targets, p, "upper")),
           lambda ans: expect_bracket(
               [(lo, v, v) for lo, v in zip(ans[0], lowers)]
               + [(v, v, hi) for v, hi in zip(uppers, ans[1])])),
        Op("upper",
           lambda: G.upper_extension(credal.lower, t2, p),
           lambda value: expect_bracket([(lowers[2], lowers[2], value)])),
    ]
    for low, high in env_pairs:
        ops.append(Op(
            "envelope",
            lambda low=low, high=high: (credal.lower(low), credal.upper(low),
                                        credal.lower(high), credal.upper(high)),
            expect_envelope_order((_payoff_range(low), _payoff_range(high)))))
    ops.append(Op("gn",
                  lambda: [G.gn_compare(a, b) for a, b, _ in event_pairs],
                  expect_verdicts(event_pairs)))
    ops.append(Op("gn",
                  lambda: [G.gn_compare_gambles(a, b) for a, b, _ in gamble_pairs],
                  expect_verdicts(gamble_pairs)))
    ops.append(Op("audit", lambda: G.monotonicity_audit(audit), expect_audit(planted)))
    inputs = (u.size, p, precise.layers, [m.layers for m in credal.members], targets,
              env_pairs, event_pairs, gamble_pairs, audit.entries, planted)
    return ops, inputs


def _inference(seed: int, root: Path) -> Workload:
    ops, inputs = [], []
    for r in range(INFERENCE_GROUPS):
        group_ops, group_inputs = _inference_group(seed, r)
        ops.extend(group_ops)
        inputs.append(group_inputs)
    argv = ("extend", str(root / "problems" / "football.json"), "M", "S|F",
            "--mode", "natural", "--side", "upper")
    return Workload(ops, _fingerprint(inputs), argv, _expect_cli(0, ["5/7"]))


# ---------------------------------------------------------------------------
# CLI workload


def run_cli(argv) -> CliResult:
    """``gnprob.cli.main`` in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = gnprob.cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def _negative_witness_text(result: CliResult) -> None:
    line = next((x for x in result.out.splitlines() if x.startswith("witness:")), "")
    _require(line != "", "no witness line")
    _require(Fraction(line.split("=")[1].split()[0]) < 0, "witness maximum is not negative")


def _expect_cli(code: int, first_lines=None, extra=None):
    """Exit code, then the leading output lines, then a custom check."""
    def verify(result: CliResult) -> None:
        _require(result.code == code, f"exit {result.code}, expected {code}: {result.err.strip()}")
        if first_lines is not None:
            lines = result.out.splitlines()
            _require(lines[: len(first_lines)] == first_lines,
                     f"output {lines[:len(first_lines)]}, expected {first_lines}")
        if extra is not None:
            extra(result)

    return verify


def _expect_json(code: int, check: Callable[[dict], bool]):
    def verify(result: CliResult) -> None:
        _require(result.code == code, f"exit {result.code}, expected {code}: {result.err.strip()}")
        try:
            record = json.loads(result.out)
        except json.JSONDecodeError as exc:
            raise WrongAnswer(f"output is not JSON: {exc}") from None
        _require(check(record), f"unexpected JSON output {result.out[:200]!r}")

    return verify


def _sample_ok(record: dict, worlds: int, members: int) -> bool:
    if len(record["universe"]) != worlds:
        return False
    sampled = record["credal"]["sampled"]
    return len(sampled) == members and all(
        sum(Fraction(v) for v in layer.values()) == 1 for member in sampled for layer in member
    )


def _readme_commands(root: Path):
    """The README's commands on the shipped problem files, with the outputs
    the README documents (or, where it shows none, the verdict the file
    is built to have)."""
    coins = str(root / "problems" / "coins.json")
    football = str(root / "problems" / "football.json")
    asl = str(root / "problems" / "asl.json")
    inner = ["bounds", football, "--kind", "inner", "--evaluator", "uniform", "--gamble",
             "payout", "--event-b", "F", "--partition", "teams", "--truth", "uniform"]
    sample = ["sample", "--worlds", "4", "--members", "2", "--seed", "7"]

    def witness_negative(r):
        return not r["consistent"] and Fraction(r["witness"]["conditioned_max"]) < 0

    def one_violation(result):
        lines = result.out.splitlines()
        _require(len(lines) == 1 and " <=GN " in lines[0], f"expected one violation: {lines}")

    def bound_holds(result):
        _require(result.out.startswith("inner-approximation: holds "), "bound not reported as holding")

    return [
        (["check", coins, "fair", "--class", "dF"], _expect_cli(0, ["consistent"]),
         _expect_json(0, lambda r: r["consistent"] and r["witness"] is None)),
        (["check", coins, "overbooked"], _expect_cli(1, ["inconsistent"], _negative_witness_text),
         _expect_json(1, witness_negative)),
        (["gn", football, "S|F", "S|SB"], _expect_cli(0, ["LEQ"]),
         _expect_json(0, lambda r: r["verdict"] == "LEQ")),
        (["extend", football, "uniform", "S|F", "--mode", "interval"], _expect_cli(0, ["0 1/2"]),
         _expect_json(0, lambda r: (r["low"], r["high"]) == ("0", "1/2"))),
        (["extend", football, "M", "S|F", "--mode", "natural", "--side", "upper"],
         _expect_cli(0, ["5/7"]), _expect_json(0, lambda r: r["values"] == ["5/7"])),
        (["extend", football, "M", "S|F", "--mode", "upper"], _expect_cli(0, ["3/8"]),
         _expect_json(0, lambda r: r["value"] == "3/8")),
        (["audit", coins, "nonmonotone"], _expect_cli(1, None, one_violation),
         _expect_json(1, lambda r: len(r["violations"]) == 1)),
        (["audit", asl, "asl_not_monotone"], _expect_cli(1, None, one_violation),
         _expect_json(1, lambda r: len(r["violations"]) == 1)),
        (inner, _expect_cli(0, None, bound_holds),
         _expect_json(0, lambda r: r["reports"][0]["holds"] is True)),
        (sample, _expect_json(0, lambda r: _sample_ok(r, 4, 2)),
         _expect_json(0, lambda r: _sample_ok(r, 4, 2))),
    ]


def _big_problem(seed: int, variant: str):
    """A large problem file: 24 worlds, hundreds of named events, a
    16-member credal set, a bulk assessment, an audit with planted
    violations and two small assessments with known verdicts. Returns the
    document and the commands to run on it with their expected answers."""
    rng = _rng(seed, "cli", variant)
    u = universe(24)
    worlds = u.worlds

    def world_list(mask):
        return [worlds[i] for i in _bits(mask)]

    def gamble_spec(cg):
        return {worlds[i]: str(v) for i, v in enumerate(cg.payoff.values) if v}

    events = {f"E{k}": _mask(rng, 24, 2) for k in range(CLI_EVENTS)}
    partition = rand_partition(rng, u)
    members = [rand_layered(rng, u) for _ in range(CLI_MEMBERS)]
    credal = G.CredalSet(members)
    doc = {
        "universe": list(worlds),
        "events": {name: world_list(mask) for name, mask in events.items()},
        "partitions": {"P": [world_list(b.mask) for b in partition.blocks]},
        "gambles": {},
        "layered": {},
        "credal": {
            "M16": [
                [{worlds[i]: str(m) for i, m in enumerate(layer) if m} for layer in member.layers]
                for member in members
            ]
        },
        "assessments": {},
    }

    def name_event(mask):
        name = f"N{len(doc['events'])}"
        doc["events"][name] = world_list(mask)
        return name

    def entry_spec(cg, value):
        given = name_event(cg.conditioning.mask)
        return {"gamble": gamble_spec(cg), "given": given, "value": str(value)}

    taken: set = set()
    bulk = _distinct_entries(rng, u, CLI_BULK_ENTRIES, taken)
    doc["assessments"]["bulk"] = {
        "kind": "lower", "class": "W",
        "entries": [entry_spec(g, credal.lower(g)) for g in bulk],
    }

    precise = members[0]
    ok_entries = _distinct_entries(rng, u, 2, taken)
    doc["assessments"]["small_ok"] = {
        "kind": "precise", "class": "dF",
        "entries": [entry_spec(g, precise.value(g)) for g in ok_entries],
    }
    low, high = same_conditioning_pair(rng, u)
    v_high = credal.lower(high)
    bad = [(low, v_high + Fraction(1, 7)), (high, v_high)]
    bad += [(g, credal.lower(g)) for g in _distinct_entries(rng, u, 2, taken | {low, high})]
    doc["assessments"]["small_bad"] = {
        "kind": "lower", "class": "W", "entries": [entry_spec(g, v) for g, v in bad],
    }
    audit, planted = _audit_assessment(rng, u, credal, CLI_AUDIT_ENTRIES)
    doc["assessments"]["audit"] = {
        "kind": "lower", "entries": [entry_spec(g, v) for g, v in audit.entries],
    }
    planted_text = [
        f"{audit.entries[i][0]!r} <=GN {audit.entries[j][0]!r}" for i, j in planted
    ]

    x, y = gn_gamble_pair(rng, u)
    doc["gambles"] = {"X": gamble_spec(x), "Y": gamble_spec(y)}
    gamble_args = [f"X|{name_event(x.conditioning.mask)}", f"Y|{name_event(y.conditioning.mask)}"]
    ab, cd, _ = gn_event_pairs(rng, u)[0]
    event_args = [
        f"{name_event(ab.conditioned.mask)}|{name_event(ab.conditioning.mask)}",
        f"{name_event(cd.conditioned.mask)}|{name_event(cd.conditioning.mask)}",
    ]
    expected_gn = G.gn_compare(ab, cd).value
    _require(expected_gn in ("LEQ", "EQUIVALENT"), "set-up: constructed pair is not GN-ordered")

    targets = [rand_target(rng, u) for _ in range(8)]
    target_args = [
        f"{name_event(t.conditioned.mask)}|{name_event(t.conditioning.mask)}" for t in targets
    ]
    naturals = [str(v) for v in G.natural_extension(credal.lower, targets, partition, "lower")]
    lowers = [credal.lower(t) for t in targets]
    _require(all(Fraction(v) <= lo for v, lo in zip(naturals, lowers)), "set-up: natural > lower")
    interval = G.extension_interval(credal.lower, targets[0], partition)
    interval_text = f"{interval.low} {interval.high}"

    def audit_text(result):
        for line in planted_text:
            _require(line in result.out, f"planted violation missing: {line}")

    def audit_json(record):
        pairs = {f"{v['left']} <=GN {v['right']}" for v in record["violations"]}
        return set(planted_text) <= pairs

    return doc, [
        (["gn", "{big}", *event_args], _expect_cli(0, [expected_gn]),
         _expect_json(0, lambda r: r["verdict"] == expected_gn)),
        (["gn", "{big}", *gamble_args, "--gambles"], _expect_cli(0, ["LEQ"]),
         _expect_json(0, lambda r: r["verdict"] in ("LEQ", "EQUIVALENT"))),
        (["extend", "{big}", "M16", *target_args, "--partition", "P"],
         _expect_cli(0, [" ".join(naturals)]),
         _expect_json(0, lambda r: r["values"] == naturals)),
        (["extend", "{big}", "M16", target_args[0], "--mode", "interval", "--partition", "P"],
         _expect_cli(0, [interval_text]),
         _expect_json(0, lambda r: f"{r['low']} {r['high']}" == interval_text)),
        (["check", "{big}", "small_ok"], _expect_cli(0, ["consistent"]),
         _expect_json(0, lambda r: r["consistent"])),
        (["check", "{big}", "small_bad"], _expect_cli(1, ["inconsistent"], _negative_witness_text),
         _expect_json(1, lambda r: not r["consistent"]
                      and Fraction(r["witness"]["conditioned_max"]) < 0)),
        (["audit", "{big}", "audit"], _expect_cli(1, None, audit_text),
         _expect_json(1, audit_json)),
        (["sample", "--worlds", "24", "--members", "16", "--seed", str(rng.randrange(10**6))],
         _expect_json(0, lambda r: _sample_ok(r, 24, 16)),
         _expect_json(0, lambda r: _sample_ok(r, 24, 16))),
    ]


def _cli(seed: int, root: Path) -> Workload:
    workdir = root / ".bench_work"
    workdir.mkdir(exist_ok=True)
    commands, texts = _readme_commands(root), []
    for variant in CLI_FILES:
        doc, big_commands = _big_problem(seed, variant)
        path = workdir / f"cli-{seed}-{variant}.json"
        texts.append(json.dumps(doc, indent=1))
        path.write_text(texts[-1], encoding="utf-8")
        commands += [
            ([str(path) if a == "{big}" else a for a in argv], *checks)
            for argv, *checks in big_commands
        ]
    ops = []
    for argv, verify_text, verify_json in commands:
        ops.append(Op("cli", lambda argv=tuple(argv): run_cli(argv), verify_text))
        json_argv = (*argv, "--format", "json")
        ops.append(Op("cli", lambda argv=json_argv: run_cli(argv), verify_json))
    argv = ("gn", str(root / "problems" / "football.json"), "S|F", "S|SB")
    return Workload(ops, _fingerprint(texts), argv, _expect_cli(0, ["LEQ"]))


WORKLOADS = {
    "coherence-consistent": _coherence_consistent,
    "coherence-witness": _coherence_witness,
    "inference": _inference,
    "cli": _cli,
}
NAMES = tuple(WORKLOADS)
