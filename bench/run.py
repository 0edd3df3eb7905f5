"""Benchmark harness for gnprob.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the library is imported from
the checkout's ``src/``. One client runs one closed loop of operations in
this process, with no threads: each operation starts when the previous
one has returned. Every answer is checked (see ``workloads.py``).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over the
workload's operations and reports the per-layer metrics of the traced
passes (see ``tracing.py``). The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The lines before it give the per-window figures (untraced
runs), the environment and a summary with the error ratio. The exit
status is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_OPS = 200  # per window, so that at least ten latency samples lie beyond p95
COLD_STARTS = 15
IMPORT_PROBES = 5
MODULE_FILES = (
    "init", "errors", "algebra", "gn", "assessments", "coherence",
    "simplex", "extension", "inequalities", "cli",
)


class Run:
    """Counts the timed operations and collects every failed check."""

    def __init__(self, wrong: type) -> None:
        self.wrong = wrong
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, op, timed: bool = True):
        """Run one operation and check its answer; None when it failed."""
        if timed:
            self.attempted += 1
        try:
            return op.run()
        except self.wrong as exc:
            self._fail(f"{op.label}: wrong answer: {exc}", timed)
        except Exception:  # noqa: BLE001 - an op that raises is counted, not fatal
            self._fail(f"{op.label}: raised\n{traceback.format_exc()}", timed)
        return None

    def _fail(self, message: str, timed: bool) -> None:
        if timed:
            self.failed += 1
        self.problems.append(message)


def _env() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gnprob").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class ColdStarts:
    """Wall times of fresh ``python -m gnprob.cli`` processes, each checked.

    They are spread over the timed run, between its windows, so that one
    slow spell of the host does not cover all of them."""

    def __init__(self, workload, run: Run) -> None:
        self.argv = [sys.executable, "-m", "gnprob.cli", *workload.cold_argv]
        self.verify = workload.cold_verify
        self.run = run
        self.env = _child_env()
        self.samples: list[float] = []
        self._time()  # warms the file cache; not kept

    def _time(self) -> float:
        from workloads import CliResult

        start = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        try:
            self.verify(CliResult(proc.returncode, proc.stdout, proc.stderr))
        except self.run.wrong as exc:
            self.run.problems.append(f"cold start: wrong answer: {exc}")
        return elapsed

    def sample(self, progress: float) -> None:
        """Catch up to ``progress`` (0 to 1) of the COLD_STARTS samples."""
        while len(self.samples) < math.ceil(COLD_STARTS * progress):
            self.samples.append(self._time())

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3


def _import_cost() -> tuple[float, int]:
    """Median time to import gnprob.cli in a fresh interpreter, in ms, and
    the number of modules that import loads."""
    code = (
        "import sys, time; n = len(sys.modules); t = time.perf_counter(); "
        "import gnprob.cli; print(time.perf_counter() - t, len(sys.modules) - n)"
    )
    env = _child_env()
    times, modules = [], 0
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout.split()
        times.append(float(out[0]))
        modules = int(out[1])
    return statistics.median(times) * 1e3, modules


def _src_lines() -> dict:
    lines = {}
    for name in MODULE_FILES:
        path = SRC / "gnprob" / ("__init__.py" if name == "init" else f"{name}.py")
        lines[f"{name}.src_lines"] = len(path.read_text(encoding="utf-8").splitlines()) if path.is_file() else 0
    lines["src.lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "gnprob").glob("*.py")
    )
    return lines


def _timed_loop(ops, run: Run, seconds: float, between) -> dict:
    """Time whole windows of passes over the ops until ``seconds`` of
    measured time have passed. A window holds at least MIN_OPS ops, so that
    ten latency samples lie beyond its p95. Each metric is taken per window
    and the median over windows is reported: a slow spell of a shared host
    then moves it less than a mean over the run would. ``between(progress)``
    runs after each window, outside the measured time."""
    per_window = -(-MIN_OPS // len(ops)) * len(ops)
    windows, measured = [], 0.0
    while not windows or measured < seconds:
        latencies = []
        cpu_start = time.process_time()
        start = time.perf_counter()
        for i in range(per_window):
            began = time.perf_counter()
            run.op(ops[i % len(ops)])
            latencies.append(time.perf_counter() - began)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        windows.append({
            "ops_per_s": per_window / wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p95_ms": statistics.quantiles(latencies, n=20)[-1] * 1e3,
            "cpu_ms_per_op": cpu / per_window * 1e3,
        })
        measured += wall
        between(min(measured / seconds, 1.0))
    print(json.dumps({"windows": windows}))
    return {key: statistics.median(w[key] for w in windows) for key in windows[0]}


def _traced_passes(ops, run: Run, seconds: float) -> dict:
    """Traced and untraced passes over all ops, in turn, starting and ending
    with a traced one, until ``seconds`` have passed and at least two traced
    passes are done. Counts must repeat exactly across traced passes; times
    are averaged per pass."""
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, sums, reference = [], [], {}, None
    deadline = time.perf_counter() + seconds
    while True:
        tracer.reset()
        with tracer.patched():
            start = time.perf_counter()
            for op in ops:
                with tracer.op(op.label) as root:
                    root[5] = run.op(op)
            traced.append(time.perf_counter() - start)
        counts, times = tracing.layer_metrics(tracer.spans)
        if reference is None:
            reference = counts
        elif counts != reference:
            changed = sorted(k for k in counts if counts[k] != reference[k])
            run.problems.append(f"layer counts differ between passes of one seed: {changed}")
        for key, value in times.items():
            sums[key] = sums.get(key, 0.0) + value
        if len(traced) >= 2 and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        for op in ops:
            run.op(op)
        untraced.append(time.perf_counter() - start)
    metrics = dict(reference)
    metrics.update({key: value / len(traced) for key, value in sums.items()})
    metrics["trace.overhead_ratio"] = statistics.mean(untraced) / statistics.mean(traced)
    metrics["cli.import_ms"], metrics["cli.import_modules"] = _import_cost()
    metrics.update(_src_lines())
    return metrics


def _declared(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("coherence-consistent", "coherence-witness", "inference", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gnprob" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"error: {ROOT} is not a gnprob checkout: src/gnprob and problems/ are needed",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import gnprob.cli  # noqa: F401  - timed as part of set-up
    import workloads
    import_s = time.perf_counter() - start

    run = Run(workloads.WrongAnswer)
    setup_times, fingerprints = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, ROOT)
        run.op(workload.ops[0], timed=False)
        setup_times.append(time.perf_counter() - start)
        fingerprints.add(workload.fingerprint)
    if len(fingerprints) != 1:
        run.problems.append("one seed generated different inputs")

    if args.trace:
        metrics = _traced_passes(workload.ops, run, args.seconds)
    else:
        cold = ColdStarts(workload, run)
        metrics = _timed_loop(workload.ops, run, args.seconds, cold.sample)
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["cold_start_ms"] = cold.median_ms()
    declared = _declared(args.trace)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        run.problems.append(f"declared metrics not measured: {missing}")

    for problem in run.problems[:5]:
        print(problem, file=sys.stderr)
    correct = run.failed == 0 and not run.problems
    env = _env()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               input_sha256=workload.fingerprint, ops_per_pass=len(workload.ops))
    print(json.dumps({"env": env}, sort_keys=True))
    print(f"summary: attempted={run.attempted} failed={run.failed} "
          f"error_ratio={run.failed / max(run.attempted, 1)} other_problems={len(run.problems) - run.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
