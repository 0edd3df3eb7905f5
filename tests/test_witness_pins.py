"""Exact witnesses pinned byte for byte.

``golden/check_witnesses.json`` holds the exit code and standard output
of ``gnprob check`` for every assessment in ``problems/*.json``, under
every class and in both output formats. The gain LPs are solved with
Bland's rule, so a change to their column order, rows or normalisation
can move the optimal vertex and with it the reported stakes; these pins
catch that, where the verdict-only tests would not.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gnprob import (
    Assessment,
    ConditionalGamble,
    asl_monotonicity_counterexample,
    check_avoiding_sure_loss,
    conditioned_max,
    conjugate,
    random_credal,
)
from gnprob.cli import main
from conftest import make_universe, random_conditional_event

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden" / "check_witnesses.json").read_text())


def test_golden_covers_every_assessment_and_class():
    expected = {
        f"{path.name} {name} {cls} {fmt}"
        for path in (ROOT / "problems").glob("*.json")
        for name in json.loads(path.read_text())["assessments"]
        for cls in ("dF", "W", "convex", "1convex")
        for fmt in ("text", "json")
    }
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_check_output_pinned(key, capsys):
    file, assessment, cls, fmt = key.split()
    argv = ["check", str(ROOT / "problems" / file), assessment, "--class", cls, "--format", fmt]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (GOLDEN[key]["exit"], GOLDEN[key]["stdout"])


@pytest.mark.parametrize(
    "key, marker",
    [
        ("coins.json wide dF text", "stake=-1/2"),
        ("coins.json nonmonotone W text", "against stake=1/2"),
        ("coins.json overbooked W text", "for stake=1/2 value=3/5"),
        ("coins.json nonmonotone convex text", "note: added centering entry"),
        ("coins.json nonmonotone 1convex text", "note: added centering entry"),
    ],
)
def test_golden_holds_the_witness_shapes(key, marker):
    # negative dF stakes, W with and without a bet against, centering
    assert GOLDEN[key]["exit"] == 1 and marker in GOLDEN[key]["stdout"]


def test_golden_w_witness_without_a_bet_against():
    assert "against" not in GOLDEN["coins.json overbooked W text"]["stdout"]


def test_asl_counterexample_has_no_witness():
    assessment, _ = asl_monotonicity_counterexample()
    verdict = check_avoiding_sure_loss(assessment)
    assert (verdict.consistent, verdict.witness, verdict.centering) == (True, None, ())


def sure_loss_instance():
    """Five lower values set above a credal set's upper envelope, capped at 1."""
    rng = random.Random(120)
    u = make_universe(4)
    m = random_credal(120, u, 2, max_layers=2)
    entries = []
    for _ in range(5):
        ce = random_conditional_event(rng, u)
        bump = Fraction(1, rng.randint(3, 8))
        entries.append((ConditionalGamble.from_event(ce), min(m.upper(ce) + bump, Fraction(1))))
    return Assessment(tuple(entries), kind="lower")


def test_seeded_sure_loss_witness_pinned():
    assessment = sure_loss_instance()
    verdict = check_avoiding_sure_loss(assessment)
    assert not verdict.consistent
    assert [str(t.stake) for t in verdict.witness.terms] == ["228/547", "167/547", "152/547"]
    assert verdict.witness.against is None
    entries = [g for g, _ in assessment.entries]
    assert [entries.index(t.gamble) for t in verdict.witness.terms] == [0, 1, 3]
    assert conditioned_max(verdict.witness) == Fraction(-91, 547)
    # the upper mirror is conjugated back and yields the same gain
    assert check_avoiding_sure_loss(conjugate(assessment)).witness == verdict.witness
