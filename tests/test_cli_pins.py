"""CLI output pinned byte for byte, beyond the ``check`` witnesses.

``golden/cli_outputs.json`` maps a key to the ``argv`` of one ``gnprob``
run and its exit code, standard output and standard error. It covers the
README command block, ``gn`` on event, conditional-event and gamble
pairs, ``extend`` for every evaluator x mode x side, ``audit``, all five
``bounds`` kinds, ``sample``, the by-name lookup errors of every command,
and the located errors of malformed problem files. Paths in ``argv`` are
relative to the repository root; a record with a ``doc`` runs on that
document, written to ``doc.json`` in an empty directory.
"""

import json
from pathlib import Path

import pytest

from gnprob.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_outputs.json").read_text())


def test_golden_covers_every_command_and_exit_code():
    assert {record["argv"][0] for record in GOLDEN.values()} == {
        "check", "gn", "extend", "audit", "bounds", "sample"
    }
    assert {record["exit"] for record in GOLDEN.values()} == {0, 1, 2}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_pinned(key, tmp_path, monkeypatch, capsys):
    record = GOLDEN[key]
    if "doc" in record:
        (tmp_path / "doc.json").write_text(json.dumps(record["doc"]))
        monkeypatch.chdir(tmp_path)
    else:
        monkeypatch.chdir(ROOT)
    code = main(record["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        record["exit"], record["stdout"], record["stderr"]
    )
