"""Mutants the test suite must kill.

Run from the root of a checkout, with the test dependencies installed:

    python tests/mutants.py

Each entry below names a file under ``src/boxcert``, a snippet of it, the
snippet's replacement, why the replaced code is wrong, and the test
expected to kill it.  The script first checks that every snippet occurs
exactly once, and refuses to run otherwise, so that a refactor cannot
retire a mutant silently: rewrite the entry along with the code.

Before it mutates anything, the script runs the tier-1 suite once on an
unmutated copy of the checkout, and checks that every named test exists.
It refuses to go on if a test fails there, since a failure on clean code
(a flaky test, a time budget the machine misses, a file left out of the
copy) would otherwise read as a kill for every mutant.

For each mutant it copies the checkout to a temporary directory, applies
that one replacement, and runs the named test under a time limit.  The
mutant is killed by its test only when pytest's first failure names that
test.  Otherwise (the test passes or runs out of time) it runs the
tier-1 suite with ``-x`` under a longer limit.  Every run uses
``--hypothesis-seed=0``.  A mutant is killed when a test fails; the
script prints one line per mutant, names every survivor and exits 1 if
there is one.  pytest does not collect this file, because its name has
no ``test_`` prefix.

Equivalent mutants, which no test can kill, stay off the list.  One is
``c < bound`` made ``c <= bound`` in ``verify._find_witnesses``: ``bound``
is a color already hit, so it is no longer wanted either way.  Some
entries are exact but slower; their test pins the work, not the answer.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "work")
TEST_LIMIT_S = 300
TIER1_LIMIT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    why: str
    killer: str


MUTANTS = [
    Mutant(
        "net-certain-from-hi",
        "classifiers.py",
        "if beats(min(lo[mine]), scale):",
        "if beats(min(hi[mine]), scale):",
        "a color is certain only when each margin's least value beats the "
        "threshold; the greatest says only that the color is possible",
        "tests/test_acceptance.py::test_c2_committed_verdicts_agree_with_rational_sweeps",
    ),
    Mutant(
        "net-certain-on-one-margin",
        "classifiers.py",
        "if beats(min(lo[mine]), scale):",
        "if beats(max(lo[mine]), scale):",
        "a color is certain only when all of its margins beat the threshold, not any one",
        "tests/test_integer_kernels.py::test_net_matches_interval_evaluator",
    ),
    Mutant(
        "net-beats-non-strict",
        "classifiers.py",
        "return q * m > p * scale",
        "return q * m >= p * scale",
        "a margin equal to the threshold is a tie, which the net leaves bottom",
        "tests/test_acceptance.py::test_c2_committed_verdicts_agree_with_rational_sweeps",
    ),
    Mutant(
        "margin-row-sign",
        "classifiers.py",
        "zip(rows[j], rows[i])",
        "zip(rows[i], rows[j])",
        "the margin of color j over color i is s_j - s_i, not s_i - s_j",
        "tests/test_acceptance.py::test_c1_committed_answers_never_retract_with_more_fuel",
    ),
    Mutant(
        "margin-bias-dropped",
        "classifiers.py",
        "bias[j] - bias[i] for j, i in pairs",
        "bias[j] for j, i in pairs",
        "a margin row's bias is b_j - b_i",
        "tests/test_acceptance.py::test_c2_committed_verdicts_agree_with_rational_sweeps",
    ),
    Mutant(
        "margin-rows-through-relu",
        "classifiers.py",
        "rows, bias, den, out_relu = compiled[-1]",
        "rows, bias, den, _ = compiled[-1]\n    out_relu = False",
        "relu(a) - relu(b) is not a - b, so an output relu needs the score ends",
        "tests/test_contracts.py::test_box_envelope_holds_its_points",
    ),
    Mutant(
        "constant-bottom-allows-every-color",
        "classifiers.py",
        "else ColorEnvelope(frozenset(), True)",
        "else ColorEnvelope(frozenset(range(k)), True)",
        "sound but looser: a classifier silent everywhere takes no color on any box",
        "tests/test_contracts.py::test_point_box_envelope_is_the_point_answer",
    ),
    Mutant(
        "distance-scale-not-squared",
        "numerics.py",
        "return near, far, den * den if euclid else den",
        "return near, far, den",
        "squared distances carry the square of the coordinate scale",
        "tests/test_integer_kernels.py::test_distances_match_interval_evaluator",
    ),
    Mutant(
        "grid-truncates-toward-zero",
        "numerics.py",
        "range(-(-lo * n // d), hi * n // d + 1)",
        "range(int(Fraction(lo * n, d)), int(Fraction(hi * n, d)) + 1)",
        "below zero, truncation moves both grid ends up, so the grid leaves the box",
        "tests/test_numerics.py::TestDyadicGrid::test_grids_nest_across_fuel",
    ),
    Mutant(
        "excess-sign",
        "regions.py",
        "return near * q - p * scale",
        "return p * scale - near * q",
        "the excess is the least distance minus the radius, positive outside the ball",
        "tests/test_integer_kernels.py::test_ball_tests_match_interval_tests",
    ),
    Mutant(
        "open-ball-non-strict",
        "regions.py",
        "inside = operator.lt if strict else operator.le",
        "inside = operator.le",
        "the open ball holds no point at distance exactly the radius",
        "tests/test_integer_kernels.py::test_ball_tests_at_the_radius",
    ),
    Mutant(
        "closed-keep-strict",
        "regions.py",
        "lambda box: excess(box) <= 0)",
        "lambda box: excess(box) < 0)",
        "a box whose nearest point lies exactly at the radius meets the closed ball",
        "tests/test_integer_kernels.py::test_ball_tests_match_interval_tests",
    ),
    Mutant(
        "fuel-loop-without-query-context",
        "kernel.py",
        "with _query_scope():\n        results = [step(0)]",
        "with contextlib.nullcontext():\n        results = [step(0)]",
        "a query's fuel levels share one context, so a walk at more fuel "
        "resumes the last one instead of starting from the root",
        "tests/test_kernel.py::TestFuelLoop::test_every_step_shares_one_query_context",
    ),
    Mutant(
        "race-double-commit-ignored",
        "kernel.py",
        "if yes and no:",
        "if False:",
        "two sides that both commit break the race's exclusivity precondition",
        "tests/test_kernel.py::TestRace::test_double_commit_is_incoherent",
    ),
    Mutant(
        "cover-settles-possible-colors",
        "verify.py",
        "still -= {envelope(box).committed_color}",
        "still -= envelope(box).colors",
        "a color the envelope only allows is not certified on the box",
        "tests/test_acceptance.py::test_c1_committed_answers_never_retract_with_more_fuel",
    ),
    Mutant(
        "cover-forgets-passed-entries",
        "verify.py",
        "frontier.append((box, passed))",
        "pass",
        "an entry passed over because its colors had failed can certify at "
        "more fuel, so the resumed walk must keep it",
        "tests/test_walkers.py::test_resume_walks_what_the_last_walk_left",
    ),
    Mutant(
        "nn-tie-non-strict",
        "learners.py",
        "> margin.numerator * scale",
        ">= margin.numerator * scale",
        "a runner-up exactly the tie margin behind is a tie, which is bottom",
        "tests/test_integer_kernels.py::test_nn_point_rule_matches_envelope",
    ),
    Mutant(
        "nn-certain-non-strict",
        "learners.py",
        "all(di.hi + margin < dj.lo for dj in others)",
        "all(di.hi + margin <= dj.lo for dj in others)",
        "unsound: a winner exactly the margin ahead of a rival is a tie, so "
        "a box holding that placement may be bottom",
        "tests/test_contracts.py::test_family_at_on_point_boxes_equals_retraining",
    ),
    Mutant(
        "nn-color-non-strict",
        "learners.py",
        "all(di.lo + margin < dj.hi for dj in others)",
        "all(di.lo + margin <= dj.hi for dj in others)",
        "sound but looser: a point that can only tie a rival cannot win, so "
        "its color is not possible on the box",
        "tests/test_contracts.py::test_point_box_envelope_is_the_point_answer",
    ),
    Mutant(
        "nn-box-low-corner",
        "learners.py",
        "dist_range(box, p, metric)",
        "dist_range(Box._of(box.lo, box.lo, box.den), p, metric)",
        "unsound: the envelope must hold every point of the box, not only its low corner",
        "tests/test_contracts.py::test_box_envelope_holds_its_points",
    ),
    Mutant(
        "nn-box-loose-when-small",
        "learners.py",
        "        def eval_box(box: Box) -> ColorEnvelope:\n            dists",
        "        def eval_box(box: Box) -> ColorEnvelope:\n"
        "            if 0 < box.width <= Fraction(1, 64):\n"
        "                return ColorEnvelope(frozenset(range(k)), True)\n"
        "            dists",
        "sound but not isotone: a small sub-box would allow outcomes its parent rules out",
        "tests/test_contracts.py::test_sub_box_envelopes_lie_inside_their_parents",
    ),
    Mutant(
        "nn-dense-bound-one",
        "learners.py",
        "dense_bound=2",
        "dense_bound=1",
        "unsound: two added points tied at the nearest distance force bottom, "
        "which no single addition shows",
        "tests/test_learner_searches.py::"
        "test_two_tied_additions_keep_nn_dense_side_from_confirming",
    ),
    Mutant(
        "nn-sparse-bound-zero",
        "learners.py",
        "sparse_bound=1",
        "sparse_bound=0",
        "the sparse side then tries no augmentation, so no single poisoned "
        "point ever flips a prediction",
        "tests/test_learners.py::TestRobustPoint::test_nn_flip_found_by_the_enumeration",
    ),
    Mutant(
        "majority-claims-no-deviation",
        "learners.py",
        "learner = Learner(k=k, train=train, family_at=envelope_at)",
        "learner = Learner(k=k, train=train, family_at=envelope_at, deviation_bound=0)",
        "majority mislabels a training point that the other labels outvote",
        "tests/test_learners.py::TestDoesDeviate::"
        "test_majority_deviates_with_a_replayable_witness",
    ),
    Mutant(
        "majority-tie-allows-every-color",
        "learners.py",
        "return ColorEnvelope(frozenset(), True)",
        "return ColorEnvelope(frozenset(range(k)), True)",
        "sound but looser: a tied vote retrains to bottom wherever the added points lie",
        "tests/test_contracts.py::test_family_at_on_point_boxes_equals_retraining",
    ),
    Mutant(
        "deviate-window-narrow",
        "learners.py",
        "2 ** _ceil_div(stage - t, t)) + 1",
        "2 ** _ceil_div(stage - t, t))",
        "each stage's window holds one point more than a power of two",
        "tests/test_learner_searches.py::test_does_deviate_matches_ordered_search",
    ),
    Mutant(
        "deviate-saves-confirming-stage",
        "learners.py",
        "query.frontiers[key] = (stage - 1, tried)",
        "query.frontiers[key] = (stage, tried)",
        "a stage that confirmed is not finished: a re-ask must search its "
        "untried candidates",
        "tests/test_learner_searches.py::test_reasks_after_a_confirmation_match_ordered_search",
    ),
    Mutant(
        "augmentation-base-unseeded",
        "learners.py",
        "seen = {base.color: ExtensionWitness((), base.color)} if base.committed else {}",
        "seen = {}",
        "the empty augmentation is the sparse side's first witness",
        "tests/test_learner_searches.py::test_sparse_or_dense_matches_ordered_search",
    ),
    Mutant(
        "power-cover-keeps-any-member",
        "learners.py",
        "return all(map(region.keep, members(box)))",
        "return any(map(region.keep, members(box)))",
        "a tuple of added boxes lies in the power of the region only when "
        "every member lies in the region",
        "tests/test_learner_searches.py::test_resumed_races_match_ordered_search",
    ),
    Mutant(
        "power-cover-first-labeling-only",
        "learners.py",
        "if first.committed_color is None or any(env != first for env in envelopes):",
        "if first.committed_color is None:",
        "the added boxes must keep the color under every label tuple, not the first",
        "tests/test_learner_searches.py::test_resumed_races_match_ordered_search",
    ),
    Mutant(
        "retrain-memo-drops-point",
        "learners.py",
        '("retrained", L, sample, point)',
        '("retrained", L, sample)',
        "an augmentation's retrained answer holds at the point it was asked at only",
        "tests/test_learner_searches.py::test_resumed_races_match_ordered_search",
    ),
    Mutant(
        "lower-stream-fresh-ball",
        "verify.py",
        "cover = _ball(point, r, metric).compact",
        "cover = closed_ball(point, r, metric).compact",
        "exact but slower: a fresh ball per scan saves a cover walk that no "
        "later fuel can find, so every radius is walked from its root again",
        "tests/test_radius_streams.py::test_lower_stream_resumes_one_cover_walk_per_ball",
    ),
    Mutant(
        "radius-keys-unscaled",
        "verify.py",
        "return near * (S // scale)",
        "return near",
        "exact but far slower: keys over different scales do not order boxes "
        "as their distances do",
        "tests/test_radius_streams.py::test_heap_keys_order_walk_boxes_as_their_distances",
    ),
    Mutant(
        "radius-scale-not-squared",
        "verify.py",
        "S = scale * scale if metric is MetricKind.EUCLID_SQ else scale",
        "S = scale",
        "squared distances carry the square of the coordinate scale",
        "tests/test_radius_streams.py::test_heap_keys_order_walk_boxes_as_their_distances",
    ),
    Mutant(
        "radius-resumes-from-more-fuel",
        "verify.py",
        "query.resume(state, fuel, ([(0, root)], S, None, None))",
        "query.frontiers.get(state, (fuel, ([(0, root)], S, None, None)))[1]",
        "leaves and distances found at more fuel lie on a finer grid than this call's",
        "tests/test_radius_streams.py::test_resumed_radius_walks_match_fresh_walks",
    ),
    Mutant(
        "radius-seeds-distances-from-more-fuel",
        "verify.py",
        "leaves, saved, differ, other = query.resume(",
        "_, (_, _, differ, other) = query.frontiers.get(state, (0, (0, 0, None, None)))\n"
        "    leaves, saved, _, _ = query.resume(",
        "distances found at more fuel may belong to no grid point at this fuel",
        "tests/test_radius_streams.py::test_resumed_radius_walks_match_fresh_walks",
    ),
    Mutant(
        "radius-saves-dropped-boxes",
        "verify.py",
        "env.colors <= {c}:\n            continue",
        "env.colors <= {c}:\n            enumerated.append((near, box))\n            continue",
        "exact but slower: a dropped box stays useless at more fuel, so saving "
        "it only walks it again",
        "tests/test_radius_streams.py::test_rising_fuel_loop_bisects_each_box_once",
    ),
    Mutant(
        "bracket-stops-strictly-inside-tolerance",
        "verify.py",
        "upper - lower <= tolerance",
        "upper - lower < tolerance",
        "a bracket whose gap equals the tolerance is within it, so the loop stops there",
        "tests/test_verify.py::TestOptimalRadius::"
        "test_bracket_stops_when_its_gap_equals_the_tolerance",
    ),
    Mutant(
        "radius-repeat-walks-again",
        "verify.py",
        "if at == fuel:\n        return walk[2:]",
        "if False:\n        return walk[2:]",
        "exact but slower: a repeat at the saved fuel walks the saved leaves "
        "again, so the two streams of one optimal_radius fuel pay twice",
        "tests/test_radius_streams.py::test_repeat_at_the_saved_fuel_does_no_walk_work",
    ),
    Mutant(
        "radius-restarts-from-root",
        "verify.py",
        "(fuel, (enumerated, S, differ, other))",
        "(fuel, ([(0, root)], S, differ, other))",
        "exact but slower: each fuel bisects again the boxes the last one split",
        "tests/test_radius_streams.py::test_rising_fuel_loop_bisects_each_box_once",
    ),
]


def check_snippets(mutants: list[Mutant]) -> list[str]:
    """One line per mutant whose snippet does not occur exactly once."""
    problems = []
    for m in mutants:
        count = (ROOT / "src" / "boxcert" / m.path).read_text().count(m.snippet)
        if count != 1:
            problems.append(f"{m.name}: snippet occurs {count} times in {m.path}")
    return problems


def copy_checkout(where: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, where / name, ignore=IGNORED)
        else:
            shutil.copy2(source, where / name)


def run_pytest(where: Path, args: list[str], limit: float) -> tuple[int | None, str]:
    """pytest's exit code, or None when it ran out of time, and its output."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *args]
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    run = subprocess.Popen(cmd, cwd=where, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = run.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        out, _ = run.communicate()
        return None, out
    return run.returncode, out


def failures(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))]


def first_failure(out: str) -> str:
    return next(iter(failures(out)), "")


def check_clean(mutants: list[Mutant]) -> list[str]:
    """What fails on an unmutated copy: missing named tests, then tier-1."""
    with tempfile.TemporaryDirectory(prefix="boxcert-clean-") as tmp:
        where = Path(tmp)
        copy_checkout(where)
        killers = sorted({m.killer for m in mutants})
        code, out = run_pytest(where, ["--collect-only", *killers], TEST_LIMIT_S)
        if code != 0:
            return [f"collecting the named tests: exit {code}", *out.splitlines()[-20:]]
        code, out = run_pytest(where, ["--continue-on-collection-errors"], TIER1_LIMIT_S)
        if code != 0:
            status = "timed out" if code is None else f"exit {code}"
            return [f"tier-1 on the unmutated copy: {status}", *failures(out)]
    return []


def run_mutant(m: Mutant) -> bool:
    """Apply ``m`` to a copy of the checkout; True when a test kills it."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="boxcert-mutant-") as tmp:
        where = Path(tmp)
        copy_checkout(where)
        target = where / "src" / "boxcert" / m.path
        target.write_text(target.read_text().replace(m.snippet, m.replacement))
        code, out = run_pytest(where, ["-x", m.killer], TEST_LIMIT_S)
        if code == 1 and m.killer in first_failure(out):
            how = "by its test"
        elif code in (0, None):
            how = "by tier-1, not its test" if code == 0 else "by tier-1, its test timed out"
            code, out = run_pytest(where, ["-x", "--continue-on-collection-errors"], TIER1_LIMIT_S)
        else:
            print(f"ERROR    {m.name}: pytest exited {code} on {m.killer}\n{out[-2000:]}")
            return False
    seconds = time.monotonic() - start
    if code == 1:
        print(f"killed   {m.name} {how} in {seconds:.0f} s: {first_failure(out)}")
        return True
    status = "timed out" if code is None else f"exit {code}"
    print(f"SURVIVED {m.name} ({status}, {seconds:.0f} s): {m.why}")
    return False


def main() -> int:
    problems = check_snippets(MUTANTS)
    if problems:
        print("refusing to run; rewrite these entries:", *problems, sep="\n  ")
        return 1
    start = time.monotonic()
    problems = check_clean(MUTANTS)
    if problems:
        print("refusing to run; the unmutated checkout fails:", *problems, sep="\n  ")
        return 1
    print(f"tier-1 passes on the unmutated copy in {time.monotonic() - start:.0f} s")
    survivors = [m.name for m in MUTANTS if not run_mutant(m)]
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.monotonic() - start:.0f} s")
    if survivors:
        print("survivors:", ", ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
