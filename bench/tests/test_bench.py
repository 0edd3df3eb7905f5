"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests

They check that every correctness check rejects a planted wrong answer,
that span self times add up, that inputs are a function of the seed, and
that whole runs on the default and a held-out seed pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gnprob as G  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CliResult, WrongAnswer  # noqa: E402

SEED = 1
HELD_OUT_SEED = 20611


@pytest.fixture(scope="module")
def built():
    return {name: workloads.build(name, SEED, ROOT) for name in workloads.NAMES}


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        return proc, None
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(x)["env"] for x in lines if x.startswith('{"env"'))
    return proc, result


# ---------------------------------------------------------------------------
# Inputs are a function of the seed


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs_other_seed_different(built, name):
    again = workloads.build(name, SEED, ROOT)
    other = workloads.build(name, HELD_OUT_SEED, ROOT)
    assert again.fingerprint == built[name].fingerprint
    assert other.fingerprint != built[name].fingerprint


# ---------------------------------------------------------------------------
# Every check rejects a planted wrong answer


def _rejects(op, answer) -> bool:
    try:
        op.verify(answer)
    except WrongAnswer:
        return True
    return False


def test_coherence_checks_reject_flipped_verdicts(built):
    consistent = built["coherence-consistent"].ops
    witness = built["coherence-witness"].ops
    for good, bad in zip(consistent[:10], witness[:10]):
        good_answer, bad_answer = good.run(), bad.run()
        assert _rejects(good, bad_answer)
        assert _rejects(bad, good_answer)


def test_witness_check_rejects_non_negative_maximum(built):
    for op in built["coherence-witness"].ops[:10]:
        witness = op.run().witness
        flipped = G.GainSpec(
            tuple(G.GainTerm(-t.stake, t.gamble, t.value) for t in witness.terms), witness.against
        )
        assert G.conditioned_max(flipped) >= 0
        assert _rejects(op, G.Verdict(False, flipped))


def _corrupt_inference(label, answer):
    if label == "interval":
        return SimpleNamespace(low=answer.high + 1, high=answer.high + 1)
    if label == "natural":
        return [h + 1 for h in answer[1]], answer[1]
    if label == "upper":
        return answer - 10
    if label == "envelope":
        lx, ux, ly, uy = answer
        return ly + 1, ux, ly, uy
    if label == "gn":
        flip = {"LEQ": "GEQ", "GEQ": "LEQ", "EQUIVALENT": "INCOMPARABLE", "INCOMPARABLE": "LEQ"}
        return [G.GnVerdict(flip[v.value]) for v in answer]
    if label == "audit":
        return []
    raise AssertionError(label)


def test_inference_checks_reject_planted_errors(built):
    ops = built["inference"].ops[:40]
    assert {op.label for op in ops} == {"interval", "natural", "upper", "envelope", "gn", "audit"}
    for op in ops:
        assert _rejects(op, _corrupt_inference(op.label, op.run())), op.label


def test_cli_checks_reject_wrong_exit_or_output(built):
    workload = built["cli"]
    verifies = [op.verify for op in workload.ops] + [workload.cold_verify]
    answers = [op.run() for op in workload.ops] + [CliResult(0, "LEQ\n", "")]
    for verify, answer in zip(verifies, answers):
        verify(answer)
        for wrong in (answer._replace(code=answer.code + 1), answer._replace(out="garbage\n")):
            with pytest.raises(WrongAnswer):
                verify(wrong)


# ---------------------------------------------------------------------------
# Tracing


def _traced_pass(ops):
    tracer = tracing.Tracer()
    with tracer.patched():
        for op in ops:
            with tracer.op(op.label) as root:
                root[5] = op.run()
    return tracer.spans


def test_self_times_add_up_to_each_op(built):
    ops = built["coherence-witness"].ops[:10] + built["inference"].ops[:10] + built["cli"].ops[:6]
    spans = _traced_pass(ops)
    selfs = tracing.self_times(spans)
    roots = {s[4]: s for s in spans if s[3] == -1}
    assert len(roots) == len(ops)
    for op_id, root in roots.items():
        total = sum(t for s, t in zip(spans, selfs) if s[4] == op_id)
        assert total == root[2] - root[1]
    assert all(t >= 0 for t in selfs)
    assert len(spans) > 10 * len(ops)


def test_patching_is_undone(built):
    before = (G.coherence.solve_lp, G.check, G.LayeredProbability.value)
    _traced_pass(built["coherence-witness"].ops[:2])
    assert (G.coherence.solve_lp, G.check, G.LayeredProbability.value) == before


def test_counts_repeat_and_layers_are_seen(built):
    ops = built["coherence-witness"].ops[:10] + built["inference"].ops[:10] + built["cli"].ops[:6]
    first, _ = tracing.layer_metrics(_traced_pass(ops))
    second, _ = tracing.layer_metrics(_traced_pass(ops))
    assert first == second
    for name in ("simplex.lps", "assessments.evals", "gn.leq_calls", "extension.calls",
                 "algebra.inner_outer_calls", "cli.commands", "cli.parse_bytes", "cli.output_bytes"):
        assert first[name] > 0, name


# ---------------------------------------------------------------------------
# Whole runs


@pytest.mark.parametrize("seed", [SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_run_is_correct(name, seed):
    proc, result = _run("--workload", name, "--seed", seed, "--seconds", 1, "--trace", 0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the child process hashes strings differently; its inputs must not differ
    assert result["env"]["input_sha256"] == workloads.build(name, seed, ROOT).fingerprint


def test_traced_runs_repeat_their_counts():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    results = []
    for _ in range(2):
        proc, result = _run("--workload", "coherence-witness", "--seed", SEED, "--seconds", 1,
                            "--trace", 1)
        assert proc.returncode == 0, proc.stderr
        assert result["correct"]
        assert list(result["metrics"]) == [m["name"] for m in declared]
        results.append(result["metrics"])
    timed = {"s", "ms"}
    for m in declared:
        if m["unit"] not in timed and m["name"] != "trace.overhead_ratio":
            assert results[0][m["name"]] == results[1][m["name"]], m["name"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _run("--workload", "cli", "--seed", SEED, "--seconds", 1, "--trace", 0,
                        cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
