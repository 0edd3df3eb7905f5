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

An assessment object takes only the keys "kind", "class" and "entries",
and an entry only "event", "gamble", "given" and "value", with one of
"event" and "gamble" but not both; a misspelt key would otherwise change
the answer silently, so any other key is refused, as is a layer key that
names no world of the universe. Every refusal names its place in the
file, such as ``assessments.book.entries[0]: unknown key 'gven'``.

Every rational in a file is read by ``algebra.as_fraction``, so a
literal may have at most ``algebra.MAX_LITERAL_DIGITS`` digits and an
exponent of at most that size, and JSON true and false are not
rationals. A world-to-value object reports its first fault in document
order, each value before its world name. A universe may have at most
``MAX_WORLDS`` worlds, and ``sample`` takes 1 to ``MAX_WORLDS`` worlds, 1 to
``MAX_MEMBERS`` members and 1 to ``MAX_LAYERS`` layers.

Commands: check, gn, extend, audit, bounds, sample. A command that
reads a file returns its JSON record, its text lines and whether the
queried property holds; ``main`` alone loads the file, writes the record
(``--format json``, every rational as its 'p/q' string) or the lines,
and chooses the exit status in one place: 0 when the property holds
(consistent, no violations), 1 when it fails, 2 for usage or input
errors and 3 for an internal error (a bug: an unexpected exception,
reported in one line without a traceback). ``sample`` reads no file and
prints a JSON problem fragment whatever ``--format`` says. ``bounds``
refuses any flag that its ``--kind`` does not read. Identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
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
    CONSISTENCY_CLASSES,
    CredalSet,
    LayeredProbability,
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

MAX_WORLDS = 1024
MAX_MEMBERS = 256
MAX_LAYERS = MAX_WORLDS  # a layer holds at least one world


def _is_names(spec) -> bool:
    """Whether ``spec`` is a list of strings: ``str.join`` walks it at C
    level and refuses any item that is not a string."""
    if not isinstance(spec, list):
        return False
    try:
        "".join(spec)
    except TypeError:
        return False
    return True


def _check_keys(spec: dict, known, noun: str, where: str) -> None:
    """Refuse the first key of ``spec``, in document order, that is not in ``known``."""
    if not spec.keys() <= known:
        unknown = next(key for key in spec if key not in known)
        raise ValidationError(f"{where}: unknown {noun} {unknown!r}")


def _located(where: str, build, *args):
    """``build(*args)``, with a library error re-raised under its place in the file."""
    try:
        return build(*args)
    except GnprobError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _named(table: dict, name: str, noun: str):
    """The object called ``name`` in ``table``; an unknown name is a ValidationError."""
    if name not in table:
        raise ValidationError(f"unknown {noun} {name!r}")
    return table[name]


_ASSESSMENT_KEYS = frozenset({"kind", "class", "entries"})
_ENTRY_KEYS = frozenset({"event", "gamble", "given", "value"})


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
        _check_keys(data, {"universe", *(key for key, _ in _SECTIONS)}, "section", "problem file")
        if "universe" not in data:
            raise ValidationError("problem file: missing 'universe'")
        worlds = data["universe"]
        if not _is_names(worlds):
            raise ValidationError("universe: must be a list of world names")
        if len(worlds) > MAX_WORLDS:
            raise ValidationError(f"universe: {len(worlds)} worlds exceed the cap of {MAX_WORLDS}")
        problem = cls(_located("universe", Universe, tuple(worlds)))
        for key, build in _SECTIONS:
            specs = data.get(key, {})
            if not isinstance(specs, dict):
                raise ValidationError(f"{key}: must be an object")
            table = getattr(problem, key)
            for name, spec in specs.items():
                table[name] = build(problem, spec, f"{key}.{name}")
        return problem

    def _event(self, spec, where: str) -> Event:
        if isinstance(spec, str):
            return _located(where, self.resolve_event, spec)
        if _is_names(spec):
            return _located(where, self.universe.event, spec)
        raise ValidationError(f"{where}: an event must be a list of world names or a name")

    def _partition(self, spec, where: str) -> Partition:
        if not isinstance(spec, list) or not all(_is_names(block) for block in spec):
            raise ValidationError(f"{where}: must be a list of blocks, each a list of world names")
        blocks = tuple(_located(where, self.universe.event, block) for block in spec)
        return _located(where, Partition, self.universe, blocks)

    def _gamble(self, spec, where: str) -> Gamble:
        if isinstance(spec, str):
            return _located(where, self.resolve_gamble, spec)
        if not isinstance(spec, (dict, list)):
            raise ValidationError(
                f"{where}: a gamble must be a world-to-value object, a list of values or a name"
            )
        return _located(where, Gamble, self.universe, spec)

    def _layered(self, spec, where: str) -> LayeredProbability:
        if not isinstance(spec, list) or not all(isinstance(layer, dict) for layer in spec):
            raise ValidationError(f"{where}: must be a list of world-to-mass objects")
        layers = [_located(where, Gamble, self.universe, layer).values for layer in spec]
        return _located(where, LayeredProbability, self.universe, layers)

    def _credal(self, spec, where: str) -> CredalSet:
        if not isinstance(spec, list):
            raise ValidationError(f"{where}: must be a list of members")
        members = [
            _located(f"{where}[{i}]", _named, self.layered, member, "layered probability")
            if isinstance(member, str)
            else self._layered(member, f"{where}[{i}]")
            for i, member in enumerate(spec)
        ]
        return _located(where, CredalSet, members)

    def _assessment(self, spec, where: str) -> Assessment:
        if not isinstance(spec, dict):
            raise ValidationError(f"{where}: must be an object")
        _check_keys(spec, _ASSESSMENT_KEYS, "key", where)
        entry_specs = spec.get("entries", [])
        if not isinstance(entry_specs, list):
            raise ValidationError(f"{where}.entries: must be a list")
        entries = tuple(
            self._entry(entry, f"{where}.entries[{i}]") for i, entry in enumerate(entry_specs)
        )
        return _located(where, Assessment, entries, spec.get("kind", "precise"), spec.get("class"))

    def _entry(self, spec, where: str) -> tuple:
        if not isinstance(spec, dict):
            raise ValidationError(f"{where}: must be an object")
        _check_keys(spec, _ENTRY_KEYS, "key", where)
        if "event" in spec and "gamble" in spec:
            raise ValidationError(f"{where}: an entry takes an 'event' or a 'gamble', not both")
        given = self._event(spec["given"], where) if "given" in spec else self.universe.omega
        if "event" in spec:
            payoff = Gamble.indicator(self._event(spec["event"], where))
        elif "gamble" in spec:
            payoff = self._gamble(spec["gamble"], where)
        else:
            raise ValidationError(f"{where}: entry needs an 'event' or a 'gamble'")
        if "value" not in spec:
            raise ValidationError(f"{where}: missing 'value'")
        gamble = _located(where, ConditionalGamble, payoff, given)
        return gamble, _located(where, as_fraction, spec["value"])

    # -- lookups ------------------------------------------------------------

    def resolve_event(self, name: str) -> Event:
        return _named(self.events, name, "event")

    def resolve_gamble(self, name: str) -> Gamble:
        return _named(self.gambles, name, "gamble")

    def resolve_partition(self, name: Optional[str]) -> Partition:
        if name is not None:
            return _named(self.partitions, name, "partition")
        if len(self.partitions) != 1:
            raise ValidationError(
                "the file declares zero or several partitions; pass --partition NAME"
            )
        return next(iter(self.partitions.values()))

    def parse_conditional(self, text: str, gambles: bool = False):
        """Parse 'A|B' (or 'A', conditioned on the sure event) into a
        conditional event, or with ``gambles`` into a conditional gamble
        whose left part names a gamble."""
        left, bar, right = text.partition("|")
        if "|" in right:
            raise ValidationError(f"{text}: more than one '|'")
        if bar and not right.strip():
            raise ValidationError(f"{text}: empty conditioning part after '|'")
        if bar and not left.strip():
            raise ValidationError(f"{text}: empty conditioned part before '|'")
        conditioned = (self.resolve_gamble if gambles else self.resolve_event)(left.strip())
        conditioning = self.resolve_event(right.strip()) if bar else self.universe.omega
        return (ConditionalGamble if gambles else ConditionalEvent)(conditioned, conditioning)

    def evaluator(self, name: str):
        """The layered probability or credal set of that name."""
        if name in self.layered:
            return self.layered[name]
        if name in self.credal:
            return self.credal[name]
        raise ValidationError(f"unknown evaluator {name!r} (not layered, not credal)")


# Built in this order, whatever the file's order: later sections refer to earlier ones by name.
_SECTIONS = (
    ("events", Problem._event),
    ("partitions", Problem._partition),
    ("gambles", Problem._gamble),
    ("layered", Problem._layered),
    ("credal", Problem._credal),
    ("assessments", Problem._assessment),
)


def _layered_spec(lp: LayeredProbability) -> list[dict]:
    """A layered probability as its list of world-to-mass objects, zero masses left out."""
    worlds = lp.universe.worlds
    return [{w: layer[i] for i, w in enumerate(worlds) if layer[i] != 0} for layer in lp.layers]


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    return Problem.from_dict(data)


# ---------------------------------------------------------------------------
# Rendering


def _rational(value) -> str:
    """The JSON writer's hook: a rational is written as its 'p/q' string."""
    if not isinstance(value, Fraction):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return str(value)


def _witness_dict(witness: GainSpec) -> dict:
    universe = witness.universe
    return {
        "against": witness.against,
        "conditioned_max": conditioned_max(witness),
        "conditioning": list(witness.conditioning().worlds()),
        "terms": [
            {
                "stake": term.stake,
                "value": term.value,
                "given": list(term.gamble.conditioning.worlds()),
                "payoff": {
                    w: term.gamble.payoff.values[i]
                    for i, w in enumerate(universe.worlds)
                    if (term.gamble.conditioning.mask >> i) & 1
                },
            }
            for term in witness.terms
        ],
    }


def _witness_lines(witness: GainSpec) -> list[str]:
    lines = [f"witness: conditioned max = {conditioned_max(witness)} on {witness.conditioning()!r}"]
    for k, term in enumerate(witness.terms):
        role = "against" if k == witness.against else "for"
        lines.append(f"  {role:>7} stake={term.stake} value={term.value} on {term.gamble!r}")
    return lines


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
#
# A file command takes the loaded problem and the parsed arguments and
# returns (record, lines, holds): the JSON record, the text lines and
# whether the queried property holds. ``main`` writes one or the other.


def cmd_check(problem: Problem, args):
    assessment = _named(problem.assessments, args.assessment, "assessment")
    cls = args.cls or assessment.consistency
    if cls is None:
        raise ValidationError(
            "no consistency class: pass --class or tag the assessment in the file"
        )
    verdict = check(assessment, cls)
    record = {
        "assessment": args.assessment,
        "class": cls,
        "consistent": verdict.consistent,
        "witness": None if verdict.witness is None else _witness_dict(verdict.witness),
        "centering_added": [repr(g) for g in verdict.centering],
    }
    lines = ["consistent" if verdict.consistent else "inconsistent"]
    if verdict.witness is not None:
        lines += _witness_lines(verdict.witness)
    lines += [f"note: added centering entry {extra!r} valued 0" for extra in verdict.centering]
    return record, lines, verdict.consistent


def cmd_gn(problem: Problem, args):
    left = problem.parse_conditional(args.left, args.gambles)
    right = problem.parse_conditional(args.right, args.gambles)
    verdict = (gn_compare_gambles if args.gambles else gn_compare)(left, right)
    return {"left": args.left, "right": args.right, "verdict": verdict.value}, [verdict.value], True


def cmd_extend(problem: Problem, args):
    partition = problem.resolve_partition(args.partition)
    evaluate = getattr(problem.evaluator(args.evaluator), args.side)
    targets = [problem.parse_conditional(t) for t in args.target]
    if args.mode != "natural" and len(targets) != 1:
        raise ValidationError(f"{args.mode} mode takes exactly one target")

    record = {"mode": args.mode}
    if args.mode == "interval":
        interval = extension_interval(evaluate, targets[0], partition)
        record.update(
            target=args.target[0],
            low=interval.low,
            high=interval.high,
            low_witness=repr(interval.low_witness),
            high_witness=repr(interval.high_witness),
        )
        lines = [
            f"{interval.low} {interval.high}",
            f"inner: {interval.low_witness!r}",
            f"outer: {interval.high_witness!r}",
        ]
    elif args.mode == "upper":
        value = upper_extension(evaluate, targets[0], partition)
        record.update(target=args.target[0], value=value)
        lines = [str(value)]
    else:
        values = natural_extension(evaluate, targets, partition, side=args.side)
        record.update(side=args.side, targets=list(args.target), values=values)
        lines = [" ".join(map(str, values))]
    return record, lines, True


def cmd_audit(problem: Problem, args):
    violations = monotonicity_audit(_named(problem.assessments, args.assessment, "assessment"))
    record = {
        "assessment": args.assessment,
        "violations": [
            {
                "left": repr(v.left),
                "right": repr(v.right),
                "left_value": v.left_value,
                "right_value": v.right_value,
            }
            for v in violations
        ],
    }
    lines = [
        f"{v.left!r} <=GN {v.right!r} but {v.left_value} > {v.right_value}" for v in violations
    ]
    return record, lines or ["no violations"], not violations


# The options each ``bounds --kind`` reads; it refuses any other, rather than drop it.
_BOUNDS_READS = {
    "sign": {"gamble", "b1", "b0"},
    "product": {"evaluator", "event_a", "event_b", "gamble"},
    "nested": {"evaluator", "gamble", "event_a", "b1", "b0"},
    "inner": {"evaluator", "gamble", "event_b", "partition", "truth"},
    "levels": {"evaluator", "gamble", "event_b", "partition", "truth"},
}


def cmd_bounds(problem: Problem, args):
    # the options in the order the parser declares them
    for name in ("evaluator", "event_a", "event_b", "b1", "b0", "gamble", "partition", "truth"):
        if getattr(args, name) is not None and name not in _BOUNDS_READS[args.kind]:
            raise ValidationError(f"--kind {args.kind} does not read --{name.replace('_', '-')}")
    if args.kind == "nested" and args.gamble is not None and args.event_a is not None:
        raise ValidationError("--kind nested reads --gamble or --event-a, not both")

    def required(flag, resolve=problem.resolve_event):
        """The object named by ``flag``, which this kind requires: an event
        unless ``resolve`` looks up something else."""
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            raise ValidationError(f"--kind {args.kind} needs {flag}")
        return resolve(value)

    def evaluator():
        return required("--evaluator", problem.evaluator)

    def gamble():
        return required("--gamble", problem.resolve_gamble)

    if args.kind == "sign":
        report = sign_relation(gamble(), required("--b1"), required("--b0"))
        record = {
            "kind": "sign",
            "verdict": report.verdict.value,
            "inf_on_b1": report.inf_on_b1,
            "sup_on_b1": report.sup_on_b1,
            "rationale": report.rationale,
        }
        return record, [f"{report.verdict.value} ({report.rationale})"], True

    if args.kind == "product":
        reports = list(
            product_rule_report(evaluator(), required("--event-a"), required("--event-b"), gamble())
        )
    elif args.kind == "nested":
        target = gamble() if args.gamble else required("--event-a")
        reports = nested_conditioning_report(evaluator(), target, required("--b1"), required("--b0"))
    else:
        bound = inner_event_lower_bound if args.kind == "inner" else finite_values_lower_bound
        reports = [
            bound(
                evaluator(),
                gamble(),
                required("--event-b"),
                problem.resolve_partition(args.partition),
                None
                if args.truth is None
                else _named(problem.layered, args.truth, "layered probability").value,
            )
        ]
    record = {"kind": args.kind, "reports": [asdict(r) for r in reports]}
    holds = not any(r.applicable and r.holds is False for r in reports)
    return record, _report_lines(reports), holds


def cmd_sample(args) -> dict:
    """A problem-file fragment holding one seeded random credal set."""
    for flag, value, cap in (
        ("--worlds", args.worlds, MAX_WORLDS),
        ("--members", args.members, MAX_MEMBERS),
        ("--layers", args.layers, MAX_LAYERS),
    ):
        if not 1 <= value <= cap:
            raise ValidationError(f"{flag}: {value} is outside 1..{cap}")
    universe = Universe(tuple(f"w{i + 1}" for i in range(args.worlds)))
    credal = random_credal(args.seed, universe, args.members, args.layers)
    return {
        "universe": list(universe.worlds),
        "credal": {"sampled": [_layered_spec(member) for member in credal.members]},
    }


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

    def command(name, func, help, *positionals):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for positional in positionals:
            p.add_argument(positional)
        return p

    p = command("check", cmd_check, "decide consistency of an assessment", "file", "assessment")
    p.add_argument("--class", dest="cls", choices=CONSISTENCY_CLASSES)

    p = command("gn", cmd_gn, "compare two conditional events or gambles", "file", "left", "right")
    p.add_argument("--gambles", action="store_true", help="operands are gambles")

    p = command("extend", cmd_extend, "extend an evaluator to new conditional events", "file")
    p.add_argument("evaluator", help="name of a layered probability or credal set")
    p.add_argument("target", nargs="+", help="conditional events like 'A|B'")
    p.add_argument("--mode", choices=("natural", "interval", "upper"), default="natural")
    p.add_argument("--side", choices=("lower", "upper"), default="lower")
    p.add_argument("--partition")

    command(
        "audit", cmd_audit, "list monotonicity violations in an assessment", "file", "assessment"
    )

    p = command("bounds", cmd_bounds, "inequality reports", "file")
    p.add_argument("--kind", choices=("product", "nested", "inner", "levels", "sign"), required=True)
    p.add_argument("--evaluator")
    p.add_argument("--event-a", dest="event_a")
    p.add_argument("--event-b", dest="event_b")
    p.add_argument("--b1")
    p.add_argument("--b0")
    p.add_argument("--gamble")
    p.add_argument("--partition")
    p.add_argument("--truth", help="layered probability providing ground truth")

    p = command("sample", cmd_sample, "generate a seeded random credal set fragment")
    p.add_argument("--worlds", type=int, default=4)
    p.add_argument("--members", type=int, default=2)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    for p in sub.choices.values():  # last, so that it ends every option list
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


# Built once per process; parse_args only reads it, so calls share nothing.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "sample":  # reads no file; its fragment is JSON whatever --format says
            document, lines, holds = cmd_sample(args), None, True
        else:
            record, lines, holds = args.func(load_problem(args.file), args)
            document = {"command": args.command, **record}
        if lines is None or args.format == "json":
            print(json.dumps(document, indent=2, sort_keys=True, default=_rational))
        else:
            for line in lines:
                print(line)
        return EXIT_OK if holds else EXIT_FAIL
    except (GnprobError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - exit 1 must only ever mean "property fails"
        detail = (str(exc).splitlines() or [""])[0]
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
