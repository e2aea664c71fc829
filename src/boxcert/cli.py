"""Command line front end.

The library operations give results that are pure functions of a single
fuel value; ``kernel._fuel_loop`` steps them.  Each query runs in one query
context, where each region walker resumes its last walk when the loop asks
about the same region at the next fuel, so the loop walks each subdivision
tree once.  The region and learner ops run that loop from zero to the
budget and stop at the first committed answer; ``radiusLower`` and
``radiusUpper`` evaluate their stream once at the budget, and
``optimalRadius`` runs ``optimal_radius``, whose bracket uses the loop too.
Every report is deterministic: same input files and flags give byte-identical
output.  Exit codes: 0 for a committed answer, 2 for unknown or bottom at
budget, 1 for a hard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, partial
from importlib import resources
from pathlib import Path
from typing import Any, Callable

from .errors import BoxcertError, ParseError, ValidationError
from .io import (
    _field,
    classifier_from_json,
    learner_from_json,
    load_json,
    point_from_json,
    point_to_json,
    rational_from_json,
    region_from_json,
    sample_from_json,
)
from .kernel import Outcome, _fuel_loop, _query_scope
from .learners import (
    DeviationWitness,
    ExtensionWitness,
    does_deviate,
    robust_point,
    sparse_or_dense,
)
from .numerics import MetricKind, format_rational
from .verify import (
    ColorWitness,
    constant_value,
    exists_value,
    fixed_value,
    forall_value,
    locally_constant,
    optimal_radius,
    radius_lower,
    radius_upper,
)

__all__ = ["QuerySpec", "Report", "run_query", "explain_text", "main"]

EXIT_COMMITTED = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2
ERROR_WIDTH = 200  # characters of an error message kept on its one stderr line


@dataclass(frozen=True)
class QuerySpec:
    """A parsed and validated query, ready to run."""

    op: str
    max_fuel: int
    metric: MetricKind
    classifier: Any = None
    region: Any = None
    point: Any = None
    color: int | None = None
    radius: Fraction | None = None
    ceiling: Fraction | None = None
    tol: Fraction | None = None
    learner: Any = None
    sample: Any = None
    domain: Any = None
    count: int | None = None
    eps: Fraction | None = None


@dataclass(frozen=True)
class Report:
    """Everything a run wants to say, in JSON-friendly form."""

    op: str
    verdict: str
    fuel_used: int
    max_fuel: int
    witnesses: tuple = ()
    radius: dict | None = None
    trace: tuple = ()
    diagnostics: dict = field(default_factory=dict)
    wall_time: float | None = None

    @property
    def exit_code(self) -> int:
        if self.verdict in ("confirmed", "1", "0"):
            return EXIT_COMMITTED
        return EXIT_UNDETERMINED

    def to_json_dict(self, include_timing: bool = False) -> dict:
        body: dict[str, Any] = {
            "op": self.op,
            "verdict": self.verdict,
            "fuelUsed": self.fuel_used,
            "maxFuel": self.max_fuel,
            "witnesses": list(self.witnesses),
            "perFuelTrace": list(self.trace),
            "diagnostics": dict(self.diagnostics),
        }
        if self.radius is not None:
            body["radius"] = self.radius
        if include_timing and self.wall_time is not None:
            body["wallTimeSeconds"] = round(self.wall_time, 6)
        return body

    def render(self, fmt: str = "json", include_timing: bool = False) -> str:
        body = self.to_json_dict(include_timing)
        if fmt == "json":
            return json.dumps(body, sort_keys=True, indent=2) + "\n"
        lines = [f"{key}: {json.dumps(body[key], sort_keys=True)}" for key in sorted(body)]
        return "\n".join(lines) + "\n"


def _positive(spec_obj: dict, key: str) -> Fraction:
    value = rational_from_json(_field(spec_obj, key, "query"))
    if value <= 0:
        raise ValidationError(f"{key} must be positive, got {format_rational(value)}")
    return value


def _load_operand(raw: dict, key: str, base: Path, loader) -> Any:
    """Operands may be inline objects or paths relative to the query file."""
    obj = _field(raw, key, "query")
    if isinstance(obj, str):
        return loader(load_json(base / obj))
    return loader(obj)


def parse_query(path: Path, max_fuel_override: int | None = None) -> QuerySpec:
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise ParseError(f"a query must be a JSON object, got {raw!r}")
    base = path.resolve().parent
    op = _field(raw, "op", "query")
    if op not in OPS:
        raise ValidationError(f"unknown op {op!r}; known ops: {', '.join(OPS)}")
    metric = MetricKind.parse(raw.get("metric", "max"))
    max_fuel = _field(raw, "maxFuel", "query") if max_fuel_override is None else max_fuel_override
    if not isinstance(max_fuel, int) or isinstance(max_fuel, bool) or max_fuel < 0:
        raise ParseError(f"maxFuel must be a nonnegative integer, got {max_fuel!r}")

    kwargs: dict[str, Any] = {"op": op, "max_fuel": max_fuel, "metric": metric}
    if op in ("existsValue", "forallValue", "fixedValue", "constantValue"):
        kwargs["classifier"] = _load_operand(raw, "classifier", base, classifier_from_json)
        kwargs["region"] = region_from_json(_field(raw, "region", "query"), metric)
        if op != "constantValue":
            color = _field(raw, "n", "query")
            if not isinstance(color, int) or isinstance(color, bool):
                raise ParseError(f"color n must be an integer, got {color!r}")
            kwargs["color"] = color
    elif op == "locallyConstant":
        kwargs["classifier"] = _load_operand(raw, "classifier", base, classifier_from_json)
        kwargs["point"] = point_from_json(_field(raw, "point", "query"))
        kwargs["radius"] = rational_from_json(_field(raw, "radius", "query"))
    elif op in ("radiusLower", "radiusUpper", "optimalRadius"):
        kwargs["classifier"] = _load_operand(raw, "classifier", base, classifier_from_json)
        kwargs["point"] = point_from_json(_field(raw, "point", "query"))
        kwargs["ceiling"] = _positive(raw, "ceiling")
        if op == "optimalRadius":
            kwargs["tol"] = _positive(raw, "tol")
    else:
        kwargs["learner"] = _load_operand(
            raw, "learner", base, lambda obj: learner_from_json(obj, metric)
        )
        if op != "doesDeviate":
            kwargs["sample"] = _load_operand(raw, "sample", base, sample_from_json)
            kwargs["point"] = point_from_json(_field(raw, "point", "query"))
        kwargs["domain"] = region_from_json(_field(raw, "domain", "query"), metric)
        if op == "sprsOrDns":
            count = _field(raw, "N", "query")
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ParseError(f"N must be a nonnegative integer, got {count!r}")
            kwargs["count"] = count
            kwargs["eps"] = _positive(raw, "eps")
    return QuerySpec(**kwargs)


def _witness_json(witness: Any) -> dict:
    if isinstance(witness, ColorWitness):
        return {"point": point_to_json(witness.point), "color": witness.color}
    if isinstance(witness, DeviationWitness):
        return {
            "tuple": [{"x": point_to_json(p), "label": label} for p, label in witness.sample],
            "index": witness.index,
            "observed": witness.observed,
        }
    if isinstance(witness, ExtensionWitness):
        return {
            "extension": [
                {"x": point_to_json(p), "label": label} for p, label in witness.extension
            ],
            "outcome": witness.outcome,
        }
    raise TypeError(f"cannot serialize witness {witness!r}")


# One fuel level of each op that stops at its first commitment.  The library
# names resolve at call time, so rebinding them here (perfbench/tracer.py) works.
STEPS: dict[str, Callable[[QuerySpec, int], Outcome]] = {
    "existsValue": lambda q, fuel: exists_value(q.color, q.region.overt, q.classifier, fuel),
    "forallValue": lambda q, fuel: Outcome(
        forall_value(q.color, q.region.compact, q.classifier, fuel)
    ),
    "fixedValue": lambda q, fuel: fixed_value(q.color, q.region, q.classifier, fuel),
    "constantValue": lambda q, fuel: constant_value(q.region, q.classifier, fuel),
    "locallyConstant": lambda q, fuel: locally_constant(
        q.point, q.radius, q.classifier, fuel, q.metric
    ),
    "doesDeviate": lambda q, fuel: does_deviate(q.learner, q.domain, fuel),
    "robustPoint": lambda q, fuel: robust_point(q.point, q.sample, q.learner, q.domain, fuel),
    "sprsOrDns": lambda q, fuel: sparse_or_dense(
        q.learner, q.count, q.eps, q.sample, q.point, q.domain, fuel, q.metric
    ),
}


def _iterate(spec: QuerySpec, step: Callable[[QuerySpec, int], Outcome]) -> Report:
    """Run an op fuel by fuel, stopping at the first commitment."""
    outcomes = _fuel_loop(partial(step, spec), lambda out: out.verdict.committed, spec.max_fuel)
    outcome = outcomes[-1]
    diagnostics: dict[str, Any] = {}
    if outcome.color is not None:
        diagnostics["color"] = outcome.color
    if outcome.base is not None:
        diagnostics["baseColor"] = outcome.base.color if outcome.base.committed else "bot"
    if not outcome.verdict.committed:
        diagnostics["fuelExhausted"] = True
    return Report(
        op=spec.op,
        verdict=outcome.verdict.value,
        fuel_used=len(outcomes) - 1,
        max_fuel=spec.max_fuel,
        witnesses=tuple(_witness_json(w) for w in outcome.witnesses),
        trace=tuple({"fuel": fuel, "value": o.verdict.value} for fuel, o in enumerate(outcomes)),
        diagnostics=diagnostics,
    )


def run_query(spec: QuerySpec) -> Report:
    started = time.monotonic()
    with _query_scope():
        report = _dispatch(spec)
    return replace(report, wall_time=time.monotonic() - started)


def _dispatch(spec: QuerySpec) -> Report:
    if spec.op in STEPS:
        return _iterate(spec, STEPS[spec.op])
    if spec.op in ("radiusLower", "radiusUpper"):
        # One stream value at the budget; lower confirms off its sentinel, upper below the ceiling.
        lower = spec.op == "radiusLower"
        make_stream = radius_lower if lower else radius_upper
        stream = make_stream(spec.point, spec.classifier, spec.ceiling, spec.metric)
        value = stream.approx(spec.max_fuel)
        confirmed = value >= 0 if lower else value < stream.ceiling
        return Report(
            op=spec.op,
            verdict="confirmed" if confirmed else "unknown",
            fuel_used=spec.max_fuel,
            max_fuel=spec.max_fuel,
            radius={"lower" if lower else "upper": format_rational(value)},
            diagnostics=(
                {"saturated": value >= stream.ceiling} if lower else {"unconfirmed": not confirmed}
            ),
        )
    if spec.op == "optimalRadius":
        report = optimal_radius(
            spec.point,
            spec.classifier,
            spec.ceiling,
            spec.tol,
            spec.metric,
            max_fuel=spec.max_fuel,
        )
        return Report(
            op=spec.op,
            verdict="confirmed" if report.converged else "unknown",
            fuel_used=report.fuel_used,
            max_fuel=spec.max_fuel,
            radius={
                "lower": format_rational(report.lower),
                "upper": format_rational(report.upper),
                "gap": format_rational(report.gap),
            },
            trace=tuple(
                {
                    "fuel": fuel,
                    "lower": format_rational(lo),
                    "upper": format_rational(hi),
                }
                for fuel, lo, hi in report.trace
            ),
            diagnostics={
                "converged": report.converged,
                "fuelExhausted": not report.converged,
                "lowerSaturated": report.lower_saturated,
                "upperUnconfirmed": report.upper_unconfirmed,
            },
        )
    raise ParseError(f"unknown op {spec.op!r}")


EXPLAIN = {
    "existsValue": (
        "Existential query: does some point of the region take color n?\n"
        "Search: enumerate dyadic grid points that belong to the region and\n"
        "evaluate each exactly; confirm on the first hit and report it as a\n"
        "replayable witness. More fuel means a finer grid. Never refutes."
    ),
    "forallValue": (
        "Universal query: does every point of the region take color n?\n"
        "Search: cover the region with boxes and ask the box evaluator to\n"
        "commit on each; confirm when the whole cover certifies. More fuel\n"
        "means finer boxes. Never refutes."
    ),
    "fixedValue": (
        "Two-sided query racing forallValue(n) against existsValue(m) for\n"
        "every other color m. 1 when the region certifies n everywhere, 0\n"
        "when some enumerated point commits to another color, bot while\n"
        "neither side has enough fuel."
    ),
    "constantValue": (
        "Two-sided query: is the classifier constant on the region at all?\n"
        "1 when some color certifies everywhere, 0 when two enumerated\n"
        "points commit to different colors, bot otherwise."
    ),
    "locallyConstant": (
        "Adversarial-example query on the ball around a point. 1 when some\n"
        "color certifies on the closed ball (no adversarial example within\n"
        "radius r), 0 when two points of the open ball commit to different\n"
        "colors (an adversarial pair exists), bot while undecided; a\n"
        "decision boundary through the ball closure can keep it bot forever."
    ),
    "radiusLower": (
        "Lower radius stream: the largest grid radius whose closed ball\n"
        "certifies a single color at this fuel. Approaches the optimal\n"
        "perturbation radius from below; sentinel -2^-fuel (one grid step\n"
        "below zero, -1/8 at fuel 3) before any commitment."
    ),
    "radiusUpper": (
        "Upper radius stream: the smallest grid radius whose closed ball\n"
        "already contains an enumerated point of a different committed\n"
        "color. Approaches the optimal radius from above; sits at the\n"
        "search ceiling before any commitment."
    ),
    "optimalRadius": (
        "Bracket the optimal perturbation radius: run the lower and upper\n"
        "streams fuel by fuel until the gap is within the tolerance or the\n"
        "budget runs out. Flags saturation at the search ceiling, which\n"
        "usually means the center never commits or the radius exceeds the\n"
        "ceiling."
    ),
    "doesDeviate": (
        "Learner self-consistency: can training on pairwise-distinct points\n"
        "produce a classifier that commits, on one of those points, to a\n"
        "color other than its label? Enumerates tuples, labels, and grid\n"
        "depths under one fuel dial; confirms with a replayable tuple."
    ),
    "robustPoint": (
        "Training robustness at x: 1 when the base prediction commits and\n"
        "survives every single added training point ranging over the whole\n"
        "domain with any label, 0 when some enumerated augmentation\n"
        "retrains to a committed different color, bot otherwise."
    ),
    "sprsOrDns": (
        "Sparsity race at x for up to N added points at distance eps from\n"
        "x. 0 (sparse): two augmentations strictly outside the eps-ball\n"
        "retrain to different committed colors. 1 (dense): every\n"
        "augmentation at distance eps or more yields one committed color.\n"
        "The strict/non-strict asymmetry matches enumeration vs covering."
    ),
}

OPS = tuple(EXPLAIN)


def explain_text(op: str) -> str:
    if not isinstance(op, str) or op not in EXPLAIN:
        raise ValidationError(f"unknown op {op!r}")
    return EXPLAIN[op] + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = parse_query(Path(args.query), args.max_fuel)
    report = run_query(spec)
    rendered = report.render(args.format, include_timing=args.timing)
    if args.out:
        try:
            Path(args.out).write_text(rendered)
        except (OSError, ValueError) as exc:
            raise BoxcertError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(rendered)
    return report.exit_code


def _cmd_explain(args: argparse.Namespace) -> int:
    raw = load_json(Path(args.query))
    op = raw.get("op") if isinstance(raw, dict) else None
    if op is None:
        raise ParseError("query has no op field to explain")
    sys.stdout.write(explain_text(op))
    return EXIT_COMMITTED


def _cmd_selftest(args: argparse.Namespace) -> int:
    import hashlib  # here, not at the top: every query would pay for loading OpenSSL
    root = resources.files("boxcert").joinpath("golden")
    manifest = json.loads(root.joinpath("manifest.json").read_text())
    failures = 0
    for case in manifest["cases"]:
        name = case["name"]
        query_path = Path(str(root.joinpath(case["query"])))
        try:
            spec = parse_query(query_path)
            report = run_query(spec)
            verdict = report.verdict
            code = report.exit_code
            body = report.render("json")
        except BoxcertError as exc:
            verdict = "error"
            code = EXIT_ERROR
            body = json.dumps({"error": str(exc)}, sort_keys=True, indent=2) + "\n"
        digest = hashlib.sha256(body.encode()).hexdigest()
        ok = (verdict, code, digest) == (case["expectVerdict"], case["expectExit"], case["sha256"])
        status = "ok" if ok else "MISMATCH"
        if not ok:
            failures += 1
        sys.stdout.write(
            f"case {name}: verdict={verdict} exit={code} sha256={digest[:12]} "
            f"expected={case['expectVerdict']}/{case['expectExit']}/{case['sha256'][:12]} "
            f"{status}\n"
        )
        if args.verbose:
            sys.stdout.write(body)
    total = len(manifest["cases"])
    sys.stdout.write(f"selftest: {total - failures}/{total} cases matched\n")
    return EXIT_COMMITTED if failures == 0 else EXIT_ERROR


@cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it was and
    # returns a fresh namespace on every call.
    parser = argparse.ArgumentParser(
        prog="boxcert",
        description="Certified region verification for exact-arithmetic classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a query file and print a report")
    verify.add_argument("query", help="path to a query JSON file")
    verify.add_argument("--max-fuel", type=int, default=None, help="override the query's fuel budget")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    verify.add_argument("--timing", action="store_true", help="include wall time in the report")
    verify.set_defaults(handler=_cmd_verify)

    explain = sub.add_parser("explain", help="describe what a query's op semi-decides")
    explain.add_argument("query", help="path to a query JSON file")
    explain.set_defaults(handler=_cmd_explain)

    selftest = sub.add_parser("selftest", help="run the bundled golden cases")
    selftest.add_argument("--verbose", action="store_true", help="print each case's full report")
    selftest.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BoxcertError as exc:
        # One bounded line, even when the message has line breaks or echoes a huge value.
        message = " ".join(str(exc).splitlines())
        if len(message) > ERROR_WIDTH:
            message = message[:ERROR_WIDTH] + "..."
        sys.stderr.write(f"error: {message}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
