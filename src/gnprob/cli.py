"""Command line interface over JSON problem files.

A problem file is a single JSON document; rationals are strings like
"3/5" (or integers) so exact values survive serialization::

    {
      "universe": ["w1", "w2", "w3"],
      "events": {"A": ["w1"], "B": ["w1", "w2"]},
      "partitions": {"P": [["w1"], ["w2", "w3"]]},
      "gambles": {"X": {"w1": "1", "w2": "2"}},
      "layered": {"pr": [{"w1": "1/2", "w2": "1/2"}, {"w3": "1"}]},
      "credal": {"M": ["pr", [{"w1": "1", "w2": "0", "w3": "0"}]]},
      "assessments": {
        "book": {"kind": "lower", "class": "W", "entries": [
          {"event": "A", "given": "B", "value": "1/2"}
        ]}
      }
    }

Gamble value maps default missing worlds to 0. Credal members are
either names of layered probabilities or inline layer lists. Assessment
entries name an event or a gamble (or give one inline), an optional
conditioning event (defaults to the sure event) and a value.

Rational literals in a file may have at most ``MAX_LITERAL_DIGITS``
digits and an exponent of at most that size, so that a short literal
such as "1e-3000000" cannot expand into a huge number; JSON true and
false are not rationals. A universe may have at most ``MAX_WORLDS``
worlds, and ``sample`` takes 1 to ``MAX_WORLDS`` worlds, 1 to
``MAX_MEMBERS`` members and 1 to ``MAX_LAYERS`` layers.

Commands: check, gn, extend, audit, bounds, sample. Exit status is 0
when the queried property holds (consistent, no violations), 1 when it
fails, 2 for usage or input errors and 3 for an internal error (a bug:
an unexpected exception, reported in one line without a traceback).
Every command accepts ``--format json`` for structured output;
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    ConditionalEvent,
    ConditionalGamble,
    Event,
    Gamble,
    Partition,
    Universe,
    as_fraction,
)
from .assessments import (
    Assessment,
    CredalSet,
    LayeredProbability,
    normalize_class,
    random_credal,
)
from .coherence import GainSpec, check, conditioned_max
from .errors import GnprobError, ValidationError
from .extension import extension_interval, natural_extension, upper_extension
from .gn import gn_compare, gn_compare_gambles
from .inequalities import (
    BoundReport,
    inner_event_lower_bound,
    finite_values_lower_bound,
    monotonicity_audit,
    nested_conditioning_report,
    product_rule_report,
    sign_relation,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

MAX_LITERAL_DIGITS = 1000
_INTEGER_LIMIT = 10**MAX_LITERAL_DIGITS
MAX_WORLDS = 1024
MAX_MEMBERS = 256
MAX_LAYERS = MAX_WORLDS  # a layer holds at least one world


def _is_names(spec) -> bool:
    return isinstance(spec, list) and all(isinstance(w, str) for w in spec)


def _check_literal(value, where: str) -> None:
    """Refuse a rational literal from a problem file that has more than
    MAX_LITERAL_DIGITS digits, or an exponent above that, before it is
    expanded into a Fraction. JSON true and false are refused too: Python
    reads them as the integers 1 and 0."""
    if isinstance(value, str):
        if len(value) <= MAX_LITERAL_DIGITS and "e" not in value and "E" not in value:
            return
        exponent = value.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if sum(map(str.isdecimal, value)) > MAX_LITERAL_DIGITS or (
            exponent.isdecimal() and int(exponent) > MAX_LITERAL_DIGITS
        ):
            raise ValidationError(
                f"{where}: rational literal with more than {MAX_LITERAL_DIGITS} digits "
                f"or an exponent above {MAX_LITERAL_DIGITS}"
            )
    elif isinstance(value, bool):
        raise ValidationError(f"{where}: {json.dumps(value)} is not a rational literal")
    elif isinstance(value, int) and abs(value) >= _INTEGER_LIMIT:
        raise ValidationError(f"{where}: integer has more than {MAX_LITERAL_DIGITS} digits")


# ---------------------------------------------------------------------------
# Problem files


@dataclass
class Problem:
    universe: Universe
    events: dict = field(default_factory=dict)
    partitions: dict = field(default_factory=dict)
    gambles: dict = field(default_factory=dict)
    layered: dict = field(default_factory=dict)
    credal: dict = field(default_factory=dict)
    assessments: dict = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> Problem:
        if not isinstance(data, dict):
            raise ValidationError("problem file: top level must be an object")
        try:
            worlds = data["universe"]
        except KeyError:
            raise ValidationError("problem file: missing 'universe'") from None
        if not _is_names(worlds):
            raise ValidationError("universe: must be a list of world names")
        if len(worlds) > MAX_WORLDS:
            raise ValidationError(f"universe: {len(worlds)} worlds exceed the cap of {MAX_WORLDS}")
        try:
            universe = Universe(tuple(worlds))
        except GnprobError as exc:
            raise ValidationError(f"universe: {exc}") from None
        problem = cls(universe)

        def section(key: str) -> dict:
            spec = data.get(key, {})
            if not isinstance(spec, dict):
                raise ValidationError(f"{key}: must be an object")
            return spec

        for name, spec in section("events").items():
            problem.events[name] = problem._event_from_spec(spec, f"events.{name}")
        for name, spec in section("partitions").items():
            if not isinstance(spec, list) or not all(_is_names(block) for block in spec):
                raise ValidationError(
                    f"partitions.{name}: must be a list of blocks, each a list of world names"
                )
            try:
                blocks = tuple(universe.event(block) for block in spec)
                problem.partitions[name] = Partition(universe, blocks)
            except GnprobError as exc:
                raise ValidationError(f"partitions.{name}: {exc}") from None
        for name, spec in section("gambles").items():
            problem.gambles[name] = problem._gamble_from_spec(spec, f"gambles.{name}")
        for name, spec in section("layered").items():
            problem.layered[name] = problem._layered_from_spec(spec, f"layered.{name}")
        for name, spec in section("credal").items():
            if not isinstance(spec, list):
                raise ValidationError(f"credal.{name}: must be a list of members")
            members = []
            for i, member in enumerate(spec):
                where = f"credal.{name}[{i}]"
                if isinstance(member, str):
                    if member not in problem.layered:
                        raise ValidationError(f"{where}: unknown layered probability {member!r}")
                    members.append(problem.layered[member])
                else:
                    members.append(problem._layered_from_spec(member, where))
            try:
                problem.credal[name] = CredalSet(members)
            except GnprobError as exc:
                raise ValidationError(f"credal.{name}: {exc}") from None
        for name, spec in section("assessments").items():
            problem.assessments[name] = problem._assessment_from_spec(
                spec, f"assessments.{name}"
            )
        return problem

    def _event_from_spec(self, spec, where: str) -> Event:
        try:
            if isinstance(spec, str):
                return self.resolve_event(spec)
            if _is_names(spec):
                return self.universe.event(spec)
        except GnprobError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        raise ValidationError(f"{where}: an event must be a list of world names or a name")

    def _gamble_from_spec(self, spec, where: str) -> Gamble:
        if isinstance(spec, (dict, list)):
            for value in spec.values() if isinstance(spec, dict) else spec:
                _check_literal(value, where)
        elif not isinstance(spec, str):
            raise ValidationError(
                f"{where}: a gamble must be a world-to-value object, a list of values or a name"
            )
        try:
            if isinstance(spec, str):
                return self.resolve_gamble(spec)
            return Gamble(self.universe, spec)
        except GnprobError as exc:
            raise ValidationError(f"{where}: {exc}") from None

    def _layered_from_spec(self, spec, where: str) -> LayeredProbability:
        if not isinstance(spec, list) or not all(isinstance(layer, dict) for layer in spec):
            raise ValidationError(f"{where}: must be a list of world-to-mass objects")
        worlds = self.universe.worlds
        known = set(worlds)
        for layer in spec:
            for mass in layer.values():
                _check_literal(mass, where)
            if not layer.keys() <= known:
                unknown = next(w for w in layer if w not in known)
                raise ValidationError(f"{where}: unknown world {unknown!r}")
        layers = [[layer.get(w, 0) for w in worlds] for layer in spec]
        try:
            return LayeredProbability(self.universe, layers)
        except GnprobError as exc:
            raise ValidationError(f"{where}: {exc}") from None

    def _assessment_from_spec(self, spec, where: str) -> Assessment:
        if not isinstance(spec, dict):
            raise ValidationError(f"{where}: must be an object")
        kind = spec.get("kind", "precise")
        consistency = spec.get("class")
        entry_specs = spec.get("entries", [])
        if not isinstance(entry_specs, list):
            raise ValidationError(f"{where}.entries: must be a list")
        entries = []
        for i, entry in enumerate(entry_specs):
            at = f"{where}.entries[{i}]"
            if not isinstance(entry, dict):
                raise ValidationError(f"{at}: must be an object")
            given = self.universe.omega
            if "given" in entry:
                given = self._event_from_spec(entry["given"], at)
            if "event" in entry:
                payoff = Gamble.indicator(self._event_from_spec(entry["event"], at))
            elif "gamble" in entry:
                payoff = self._gamble_from_spec(entry["gamble"], at)
            else:
                raise ValidationError(f"{at}: entry needs an 'event' or a 'gamble'")
            if "value" not in entry:
                raise ValidationError(f"{at}: missing 'value'")
            _check_literal(entry["value"], at)
            try:
                entries.append((ConditionalGamble(payoff, given), as_fraction(entry["value"])))
            except GnprobError as exc:
                raise ValidationError(f"{at}: {exc}") from None
        try:
            return Assessment(tuple(entries), kind=kind, consistency=consistency)
        except GnprobError as exc:
            raise ValidationError(f"{where}: {exc}") from None

    # -- lookups ------------------------------------------------------------

    def resolve_event(self, name: str) -> Event:
        if name not in self.events:
            raise ValidationError(f"unknown event {name!r}")
        return self.events[name]

    def resolve_gamble(self, name: str) -> Gamble:
        if name not in self.gambles:
            raise ValidationError(f"unknown gamble {name!r}")
        return self.gambles[name]

    def resolve_partition(self, name: Optional[str]) -> Partition:
        if name is None:
            if len(self.partitions) == 1:
                return next(iter(self.partitions.values()))
            raise ValidationError(
                "the file declares zero or several partitions; pass --partition NAME"
            )
        if name not in self.partitions:
            raise ValidationError(f"unknown partition {name!r}")
        return self.partitions[name]

    def parse_conditional_event(self, text: str) -> ConditionalEvent:
        """Parse 'A|B' (or 'A', conditioned on the sure event)."""
        left, _, right = text.partition("|")
        conditioned = self.resolve_event(left.strip())
        conditioning = self.resolve_event(right.strip()) if right else self.universe.omega
        return ConditionalEvent(conditioned, conditioning)

    def parse_conditional_gamble(self, text: str) -> ConditionalGamble:
        """Parse 'X|B' (or 'X') with X a named gamble."""
        left, _, right = text.partition("|")
        payoff = self.resolve_gamble(left.strip())
        conditioning = self.resolve_event(right.strip()) if right else self.universe.omega
        return ConditionalGamble(payoff, conditioning)

    def lower_evaluator(self, name: str, side: str = "lower"):
        """An evaluator callable plus its envelope object, by name."""
        if name in self.layered:
            obj = self.layered[name]
            return obj.value, obj
        if name in self.credal:
            obj = self.credal[name]
            return (obj.lower if side == "lower" else obj.upper), obj
        raise ValidationError(f"unknown evaluator {name!r} (not layered, not credal)")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        def event_spec(e: Event):
            return list(e.worlds())

        def assessment_spec(a: Assessment):
            entries = []
            for gamble, value in a.entries:
                entries.append(
                    {
                        "gamble": {
                            w: str(gamble.payoff.values[i])
                            for i, w in enumerate(self.universe.worlds)
                        },
                        "given": list(gamble.conditioning.worlds()),
                        "value": str(value),
                    }
                )
            spec = {"kind": a.kind, "entries": entries}
            if a.consistency is not None:
                spec["class"] = a.consistency
            return spec

        return {
            "universe": list(self.universe.worlds),
            "events": {n: event_spec(e) for n, e in self.events.items()},
            "partitions": {
                n: [event_spec(b) for b in p.blocks] for n, p in self.partitions.items()
            },
            "gambles": {
                n: {w: str(g.values[i]) for i, w in enumerate(self.universe.worlds)}
                for n, g in self.gambles.items()
            },
            "layered": {n: _layered_spec(lp) for n, lp in self.layered.items()},
            "credal": {n: [_layered_spec(m) for m in c.members] for n, c in self.credal.items()},
            "assessments": {n: assessment_spec(a) for n, a in self.assessments.items()},
        }


def _layered_spec(lp: LayeredProbability) -> list[dict]:
    """A layered probability as its list of world-to-mass objects, zero masses left out."""
    worlds = lp.universe.worlds
    return [
        {w: str(layer[i]) for i, w in enumerate(worlds) if layer[i] != 0} for layer in lp.layers
    ]


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    return Problem.from_dict(data)


# ---------------------------------------------------------------------------
# Rendering


def _format_event(e: Event) -> str:
    return repr(e)


def _witness_dict(witness: GainSpec) -> dict:
    universe = witness.universe
    return {
        "against": witness.against,
        "conditioned_max": str(conditioned_max(witness)),
        "conditioning": list(witness.conditioning().worlds()),
        "terms": [
            {
                "stake": str(term.stake),
                "value": str(term.value),
                "given": list(term.gamble.conditioning.worlds()),
                "payoff": {
                    w: str(term.gamble.payoff.values[i])
                    for i, w in enumerate(universe.worlds)
                    if (term.gamble.conditioning.mask >> i) & 1
                },
            }
            for term in witness.terms
        ],
    }


def _print_witness(witness: GainSpec) -> None:
    print(
        f"witness: conditioned max = {conditioned_max(witness)} "
        f"on {_format_event(witness.conditioning())}"
    )
    for k, term in enumerate(witness.terms):
        role = "against" if k == witness.against else "for"
        print(f"  {role:>7} stake={term.stake} value={term.value} on {term.gamble!r}")


def _emit(args, record: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _report_lines(reports: list[BoundReport]) -> list[str]:
    lines = []
    for r in reports:
        if not r.applicable:
            lines.append(f"{r.name}: not applicable ({r.context})")
            continue
        verdict = "holds" if r.holds else ("fails" if r.holds is not None else "reported")
        lines.append(f"{r.name}: {verdict} lhs={r.lhs} rhs={r.rhs} ({r.context})")
    return lines


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    problem = load_problem(args.file)
    if args.assessment not in problem.assessments:
        raise ValidationError(f"unknown assessment {args.assessment!r}")
    assessment = problem.assessments[args.assessment]
    cls = args.cls or assessment.consistency
    if cls is None:
        raise ValidationError(
            "no consistency class: pass --class or tag the assessment in the file"
        )
    verdict = check(assessment, cls)
    record = {
        "command": "check",
        "assessment": args.assessment,
        "class": normalize_class(cls),
        "consistent": verdict.consistent,
        "witness": None if verdict.witness is None else _witness_dict(verdict.witness),
        "centering_added": [repr(g) for g in verdict.centering],
    }
    if args.format == "json":
        _emit(args, record, [])
    else:
        print("consistent" if verdict.consistent else "inconsistent")
        if verdict.witness is not None:
            _print_witness(verdict.witness)
        for extra in verdict.centering:
            print(f"note: added centering entry {extra!r} valued 0")
    return EXIT_OK if verdict.consistent else EXIT_FAIL


def cmd_gn(args) -> int:
    problem = load_problem(args.file)
    if args.gambles:
        left = problem.parse_conditional_gamble(args.left)
        right = problem.parse_conditional_gamble(args.right)
        verdict = gn_compare_gambles(left, right)
    else:
        left = problem.parse_conditional_event(args.left)
        right = problem.parse_conditional_event(args.right)
        verdict = gn_compare(left, right)
    record = {
        "command": "gn",
        "left": args.left,
        "right": args.right,
        "verdict": verdict.value,
    }
    _emit(args, record, [verdict.value])
    return EXIT_OK


def cmd_extend(args) -> int:
    problem = load_problem(args.file)
    partition = problem.resolve_partition(args.partition)
    evaluate, _ = problem.lower_evaluator(args.evaluator, args.side)
    targets = [problem.parse_conditional_event(t) for t in args.target]

    if args.mode == "interval":
        if len(targets) != 1:
            raise ValidationError("interval mode takes exactly one target")
        interval = extension_interval(evaluate, targets[0], partition)
        record = {
            "command": "extend",
            "mode": "interval",
            "target": args.target[0],
            "low": str(interval.low),
            "high": str(interval.high),
            "low_witness": repr(interval.low_witness),
            "high_witness": repr(interval.high_witness),
        }
        lines = [
            f"{interval.low} {interval.high}",
            f"inner: {interval.low_witness!r}",
            f"outer: {interval.high_witness!r}",
        ]
        _emit(args, record, lines)
        return EXIT_OK

    if args.mode == "upper":
        if len(targets) != 1:
            raise ValidationError("upper mode takes exactly one target")
        value = upper_extension(evaluate, targets[0], partition)
        record = {
            "command": "extend",
            "mode": "upper",
            "target": args.target[0],
            "value": str(value),
        }
        _emit(args, record, [str(value)])
        return EXIT_OK

    values = natural_extension(evaluate, targets, partition, side=args.side)
    record = {
        "command": "extend",
        "mode": "natural",
        "side": args.side,
        "targets": list(args.target),
        "values": [str(v) for v in values],
    }
    _emit(args, record, [" ".join(str(v) for v in values)])
    return EXIT_OK


def cmd_audit(args) -> int:
    problem = load_problem(args.file)
    if args.assessment not in problem.assessments:
        raise ValidationError(f"unknown assessment {args.assessment!r}")
    violations = monotonicity_audit(problem.assessments[args.assessment])
    record = {
        "command": "audit",
        "assessment": args.assessment,
        "violations": [
            {
                "left": repr(v.left),
                "right": repr(v.right),
                "left_value": str(v.left_value),
                "right_value": str(v.right_value),
            }
            for v in violations
        ],
    }
    lines = (
        ["no violations"]
        if not violations
        else [
            f"{v.left!r} <=GN {v.right!r} but {v.left_value} > {v.right_value}"
            for v in violations
        ]
    )
    _emit(args, record, lines)
    return EXIT_OK if not violations else EXIT_FAIL


def cmd_bounds(args) -> int:
    problem = load_problem(args.file)

    def evaluator():
        _, obj = problem.lower_evaluator(args.evaluator or "")
        return obj

    def truth():
        if args.truth is None:
            return None
        if args.truth not in problem.layered:
            raise ValidationError(f"unknown layered probability {args.truth!r}")
        return problem.layered[args.truth].value

    if args.kind == "product":
        reports = list(
            product_rule_report(
                evaluator(),
                problem.resolve_event(args.event_a),
                problem.resolve_event(args.event_b),
                problem.resolve_gamble(args.gamble),
            )
        )
    elif args.kind == "nested":
        target = (
            problem.resolve_gamble(args.gamble)
            if args.gamble
            else problem.resolve_event(args.event_a)
        )
        reports = nested_conditioning_report(
            evaluator(), target, problem.resolve_event(args.b1), problem.resolve_event(args.b0)
        )
    elif args.kind == "inner":
        reports = [
            inner_event_lower_bound(
                evaluator(),
                problem.resolve_gamble(args.gamble),
                problem.resolve_event(args.event_b),
                problem.resolve_partition(args.partition),
                truth(),
            )
        ]
    elif args.kind == "levels":
        reports = [
            finite_values_lower_bound(
                evaluator(),
                problem.resolve_gamble(args.gamble),
                problem.resolve_event(args.event_b),
                problem.resolve_partition(args.partition),
                truth(),
            )
        ]
    else:  # sign
        report = sign_relation(
            problem.resolve_gamble(args.gamble),
            problem.resolve_event(args.b1),
            problem.resolve_event(args.b0),
        )
        record = {
            "command": "bounds",
            "kind": "sign",
            "verdict": report.verdict.value,
            "inf_on_b1": str(report.inf_on_b1),
            "sup_on_b1": str(report.sup_on_b1),
            "rationale": report.rationale,
        }
        _emit(args, record, [f"{report.verdict.value} ({report.rationale})"])
        return EXIT_OK

    record = {
        "command": "bounds",
        "kind": args.kind,
        "reports": [r.as_dict() for r in reports],
    }
    _emit(args, record, _report_lines(reports))
    failed = any(r.applicable and r.holds is False for r in reports)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_sample(args) -> int:
    for flag, value, cap in (
        ("--worlds", args.worlds, MAX_WORLDS),
        ("--members", args.members, MAX_MEMBERS),
        ("--layers", args.layers, MAX_LAYERS),
    ):
        if not 1 <= value <= cap:
            raise ValidationError(f"{flag}: {value} is outside 1..{cap}")
    universe = Universe(tuple(f"w{i + 1}" for i in range(args.worlds)))
    credal = random_credal(args.seed, universe, args.members, args.layers)
    fragment = {
        "universe": list(universe.worlds),
        "credal": {"sampled": [_layered_spec(member) for member in credal.members]},
    }
    print(json.dumps(fragment, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnprob",
        description=(
            "Exact reasoning with imprecise conditional probabilities: "
            "consistency checks, Goodman-Nguyen comparisons, natural and "
            "upper extensions, and inequality reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="decide consistency of an assessment")
    p.add_argument("file")
    p.add_argument("assessment")
    p.add_argument("--class", dest="cls", choices=("dF", "W", "convex", "1convex"))
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gn", help="compare two conditional events or gambles")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--gambles", action="store_true", help="operands are gambles")
    common(p)
    p.set_defaults(func=cmd_gn)

    p = sub.add_parser("extend", help="extend an evaluator to new conditional events")
    p.add_argument("file")
    p.add_argument("evaluator", help="name of a layered probability or credal set")
    p.add_argument("target", nargs="+", help="conditional events like 'A|B'")
    p.add_argument("--mode", choices=("natural", "interval", "upper"), default="natural")
    p.add_argument("--side", choices=("lower", "upper"), default="lower")
    p.add_argument("--partition")
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("audit", help="list monotonicity violations in an assessment")
    p.add_argument("file")
    p.add_argument("assessment")
    common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("bounds", help="inequality reports")
    p.add_argument("file")
    p.add_argument("--kind", choices=("product", "nested", "inner", "levels", "sign"), required=True)
    p.add_argument("--evaluator")
    p.add_argument("--event-a", dest="event_a")
    p.add_argument("--event-b", dest="event_b")
    p.add_argument("--b1")
    p.add_argument("--b0")
    p.add_argument("--gamble")
    p.add_argument("--partition")
    p.add_argument("--truth", help="layered probability providing ground truth")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sample", help="generate a seeded random credal set fragment")
    p.add_argument("--worlds", type=int, default=4)
    p.add_argument("--members", type=int, default=2)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GnprobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - exit 1 must only ever mean "property fails"
        detail = (str(exc).splitlines() or [""])[0]
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
