"""boxcert benchmark: `boxcert verify` on seeded query sets, end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop: one process, one client, one query at a time,
no threads.  Each query goes through the public entry point
``boxcert.cli.main(["verify", FILE])`` in-process, with the report
captured from stdout.  Queries are generated from ``--seed`` by
``generate.py``; the program only sees the files.  Every report is checked
against the answer known from construction (``check.py``) and must render
byte for byte the same on every pass.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed in fresh
processes, then the query set is run in passes until ``--seconds`` have
elapsed (at least two passes).

Every end-to-end time is in reference seconds.  On a shared machine the
same instructions take up to 1.8x longer while other tenants load the
host, in phases of a fraction of a second to minutes, and CPU time moves
with wall time, so neither a longer run nor the fastest run removes it.
A calibration loop (``calibrate``: Fraction additions, no boxcert code)
is therefore timed right before and right after every query and every
set-up sample, and each time is scaled by ``CALIBRATION_S`` over the mean
of its two calibrations: the seconds it would take while the loop runs at
its idle speed.  The raw seconds are in the details line.  A program that
leaves work running between queries slows the calibration too; judge
such a change on the raw times.

``wall_s`` is the sum over queries of each query's median across passes
(one typical pass), the query percentiles are taken over those medians,
and ``setup_s`` is the median set-up.  ``--trace 1`` runs one untraced pass, then
two traced passes with the outside-in tracer (``tracer.py``), checks that
both traced passes count exactly the same work, writes the first pass's
spans under ``perfbench/work/``, and reports the per-layer metrics.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's details: machine facts, pass times and each report's SHA-256.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from check import Checker, load_oracles
from generate import WORKLOADS, generate
from tracer import Tracer, metric_names, metric_unit

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 25
# Seconds that ``calibrate`` takes on an idle core of the reference
# machine (x86-64 at 2 vCPUs, CPython 3.11): the unit of every reported
# end-to-end time.
CALIBRATION_S = 0.0008
MIN_PASSES = 2


def run_query(cli, path: Path):
    """One closed-loop request: (exit code, report text, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", str(path)])
        error = err.getvalue().strip() or None
    except Exception:  # a raise from the program is a failed query, not a crash
        code, error = None, traceback.format_exc(limit=3)
    return code, out.getvalue(), time.perf_counter() - started, error


class Outcomes:
    """Per-query results across passes, and the failures found in them.

    ``first`` keeps each query's first exit code and report text; every
    later pass must reproduce the text byte for byte.  Reports are parsed
    only when checked, so the timed passes add no objects for the garbage
    collector to scan.
    """

    def __init__(self, queries):
        self.queries = queries
        self.first: dict[str, tuple] = {}
        self.runs = 0
        self.decided = 0
        self.failed_runs: dict[str, int] = {}
        self.problems: dict[str, list[str]] = {}

    def _fail(self, name: str, problem: str) -> None:
        self.failed_runs[name] = self.failed_runs.get(name, 0) + 1
        probs = self.problems.setdefault(name, [])
        if problem not in probs:
            probs.append(problem)

    def record(self, name: str, code, text: str, error) -> bool:
        """Count one run; False if it failed outright."""
        self.runs += 1
        if code == 0:
            self.decided += 1
        if code not in (0, 2):
            self._fail(name, f"exit {code}: {error}")
            return False
        if self.first.setdefault(name, (code, text)) != (code, text):
            self._fail(name, "report renders differently on a repeat")
            return False
        return True

    def check(self, checker: Checker, runs_per_query: int) -> None:
        """Check each query's report once; a wrong report fails every run."""
        pairs: dict[str, list[dict]] = {}
        for q in self.queries:
            if q["name"] not in self.first:
                continue
            code, text = self.first[q["name"]]
            try:
                report = json.loads(text)
                found = checker.problems(q, report, code)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                report, found = {}, [f"malformed report: {exc!r}"]
            if found:
                self.failed_runs[q["name"]] = runs_per_query
                self.problems.setdefault(q["name"], []).extend(found)
            if "pair" in q["expect"]:
                pairs.setdefault(q["expect"]["pair"], []).append(report)
        for pair, problem in Checker.pair_problems(pairs):
            self.problems.setdefault(f"pair {pair}", []).append(problem)
            for q in self.queries:
                if q["expect"].get("pair") == pair:
                    self.failed_runs[q["name"]] = runs_per_query

    def digests(self) -> dict[str, str]:
        return {
            name: hashlib.sha256(text.encode()).hexdigest() for name, (_, text) in self.first.items()
        }

    @property
    def failed(self) -> int:
        return sum(self.failed_runs.values())


def calibrate() -> float:
    """Seconds for a fixed loop of Fraction additions (``CALIBRATION_S`` idle)."""
    started = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - started


def to_reference(seconds: float, before: float, after: float) -> float:
    """Seconds timed between two calibrations, at the loop's idle speed."""
    return seconds * 2 * CALIBRATION_S / (before + after)


def run_pass(cli, queries, outcomes: Outcomes, tracer: Tracer | None = None):
    """Every query once, in order.

    Returns the pass seconds and, per query, (raw, reference) seconds.
    Each calibration closes one query's bracket and opens the next one's.
    """
    times = []
    started = time.perf_counter()
    before = calibrate()
    for q in queries:
        code, text, seconds, error = run_query(cli, q["path"])
        after = calibrate()
        times.append((seconds, to_reference(seconds, before, after)))
        before = after
        if outcomes.record(q["name"], code, text, error) and tracer is not None:
            tracer.note_report(json.loads(text))
    return time.perf_counter() - started, times


def reference_total(times) -> float:
    """Reference seconds of one pass, from run_pass's per-query times."""
    return sum(t[1] for t in times)


def setup_sample(manifest: Path) -> tuple[float, float]:
    """(raw, reference) seconds to import boxcert and parse every listed
    query in a fresh process."""
    before = calibrate()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), str(manifest)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds = float(done.stdout.strip().splitlines()[-1])
    return seconds, to_reference(seconds, before, calibrate())


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "load": "closed loop, one process, one client, one query at a time, no threads",
    }


def git_sha() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measured_run(cli, queries, work: Path, seconds: float, checker: Checker):
    outcomes = Outcomes(queries)
    manifest = work / "manifest.txt"
    manifest.write_text("".join(f"{q['path']}\n" for q in queries))
    setups = [setup_sample(manifest) for _ in range(SETUP_REPEATS)]
    deadline = time.perf_counter() + seconds
    pass_times, per_query = [], []
    while len(pass_times) < MIN_PASSES or time.perf_counter() < deadline:
        wall, times = run_pass(cli, queries, outcomes)
        pass_times.append(wall)
        per_query.append(times)
    raw = [statistics.median(t[0] for t in runs) for runs in zip(*per_query)]
    typical = [statistics.median(t[1] for t in runs) for runs in zip(*per_query)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes.check(checker, len(pass_times))
    metrics = {
        "wall_s": (sum(typical), "s"),
        "query_p50_s": (percentile(typical, 0.50), "s"),
        "query_p95_s": (percentile(typical, 0.95), "s"),
        "setup_s": (statistics.median(s[1] for s in setups), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "decided_share": (outcomes.decided / outcomes.runs, "ratio"),
    }
    details = {
        "passes": len(pass_times),
        "pass_s": pass_times,
        "raw_wall_s": sum(raw),
        "raw_setup_s": statistics.median(s[0] for s in setups),
        "query_median_s": {q["name"]: t for q, t in zip(queries, typical)},
        "query_raw_median_s": {q["name"]: t for q, t in zip(queries, raw)},
    }
    return outcomes, metrics, details


def traced_run(cli, queries, work: Path, checker: Checker):
    outcomes = Outcomes(queries)
    untraced, base = run_pass(cli, queries, outcomes)
    tracer = Tracer()
    tracer.install()
    try:
        traced, first = run_pass(cli, queries, outcomes, tracer)
        values = tracer.metrics()
        first_counts = tracer.counts()
        tracer.dump(work / "spans", [q["name"] for q in queries])
        tracer.reset()
        traced_again, second = run_pass(cli, queries, outcomes, tracer)
        second_counts = tracer.counts()
    finally:
        tracer.uninstall()
    outcomes.check(checker, 3)
    if first_counts != second_counts:
        differing = sorted(k for k in first_counts if first_counts[k] != second_counts.get(k))
        outcomes.problems.setdefault("trace", []).append(f"counts differ between traced passes: {differing}")
    # In reference seconds, like wall_s.  One untraced pass against two
    # traced ones, so on a busy machine it is indicative only.
    values["trace.overhead_s"] = (
        statistics.median([reference_total(first), reference_total(second)]) - reference_total(base)
    )
    metrics = {name: (values[name], metric_unit(name)) for name in metric_names()}
    details = {"untraced_s": untraced, "traced_s": [traced, traced_again],
               "spans": str(work / "spans.bin")}
    return outcomes, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "boxcert" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.stderr.write("error: run from the root of a boxcert checkout (src/boxcert, tests/oracles.py)\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from boxcert import cli

    work = HERE / "work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    queries = generate(args.workload, args.seed, work)
    checker = Checker(load_oracles(ROOT))
    # A `boxcert verify` process starts with a small heap.  Freezing the
    # benchmark's own objects keeps the collector from scanning them
    # during the timed queries.
    gc.collect()
    gc.freeze()
    if args.trace:
        outcomes, metrics, details = traced_run(cli, queries, work, checker)
    else:
        outcomes, metrics, details = measured_run(cli, queries, work, args.seconds, checker)

    details.update(
        workload=args.workload,
        seed=args.seed,
        queries=len(queries),
        machine=machine_facts(),
        problems=outcomes.problems,
        reports_sha256=outcomes.digests(),
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not outcomes.problems,
        "attempted": outcomes.runs,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
