"""Outside-in tracer: spans around the calls into each boxcert layer.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` rebinds the
module attributes through which one layer calls the next (for example
``boxcert.verify.race`` or ``boxcert.regions.dist_range``), wraps a few
class methods, and wraps the classifier and learner objects that ``io``
returns with ``dataclasses.replace``.  ``uninstall`` puts every original
back.

Each span records its name, start, end (``perf_counter_ns``) and parent
span, in flat arrays kept in memory until ``dump`` writes them out.
``metrics`` turns them into ``<span>.calls``, ``<span>.self_s`` (duration
minus the part covered by child spans) and, for spans that can have
children, ``<span>.total_s``; plus a few exact counts and ratios taken at
the same boundaries.  Counts are deterministic; times include the
tracer's own cost, so they are indicative.
"""

from __future__ import annotations

import dataclasses
import json
import time
from array import array
from pathlib import Path

# (span name, can it have child spans?)
SPANS = (
    ("cli.main", True),
    ("cli.parse_query", True),
    ("cli.run_query", True),
    ("cli.render", False),
    ("io.load_json", False),
    ("io.classifier_from_json", True),
    ("io.region_from_json", True),
    ("io.learner_from_json", False),
    ("io.sample_from_json", False),
    ("kernel.race", True),
    ("kernel.any_of", True),
    ("verify.exists_value", True),
    ("verify.forall_value", True),
    ("verify.fixed_value", True),
    ("verify.constant_value", True),
    ("verify.locally_constant", True),
    ("verify.optimal_radius", True),
    ("verify.radius_lower.approx", True),
    ("verify.radius_upper.approx", True),
    ("learners.does_deviate", True),
    ("learners.robust_point", True),
    ("learners.sparse_or_dense", True),
    ("learners.train", False),
    ("learners.family_at", True),
    ("learners.trained.eval_point", True),
    ("classifiers.eval_box", False),
    ("classifiers.eval_point", False),
    ("regions.closed_ball", False),
    ("regions.open_ball_overt", False),
    ("regions.cover_at", True),
    ("regions.points_at", True),
    ("numerics.dist_range", False),
    ("numerics.dist_point", False),
    ("numerics.Box.bisect", False),
)

# Exact counts and ratios measured at the same boundaries.
COUNTS = (
    "cli.fuel_levels",
    "kernel.race.committed_ratio",
    "verify.forall_value.confirmed_ratio",
    "verify.exists_value.confirmed_ratio",
    "classifiers.eval_box.committed_ratio",
    "regions.points_at.points",
    "numerics.Interval.created",
)

# Tracer bookkeeping reported next to the layer metrics.
OVERHEAD = ("trace.overhead_s", "trace.spans")


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for name, parent in SPANS:
        names += [f"{name}.calls", f"{name}.self_s"] + ([f"{name}.total_s"] if parent else [])
    return names + list(COUNTS) + list(OVERHEAD)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.names = [name for name, _ in SPANS]
        self.index = {name: i for i, name in enumerate(self.names)}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack = [-1]
        self.tally: dict[str, int] = {}

    def _count(self, key: str, amount: int = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    # ------------------------------------------------------------ spans

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(result)`` runs once the span ends."""
        name_id = self.index[name]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1])
            self.span_end.append(0)
            self._stack.append(i)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[i] = clock()
                self._stack.pop()
            return after(result) if after is not None else result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _ratio(self, key: str, hit: bool) -> None:
        self._count(key + ".n")
        if hit:
            self._count(key + ".hit")

    # ------------------------------------------------------------ install

    def install(self) -> None:
        from boxcert import cli, io, learners, numerics, regions, verify
        from boxcert.kernel import TwoBot, Verdict

        def span(owners, attr, name, after=None):
            wrapped = self.wrap(getattr(owners[0], attr), name, after)
            for owner in owners:
                self._patch(owner, attr, wrapped)

        # cli: the entry point, its phases and the report renderer.
        span([cli], "main", "cli.main")
        span([cli], "parse_query", "cli.parse_query")
        span([cli], "run_query", "cli.run_query")
        span([cli.Report], "render", "cli.render")

        # io: parse_query reaches io through names bound in cli.
        span([cli], "load_json", "io.load_json")
        span([cli], "classifier_from_json", "io.classifier_from_json", self._wrap_classifier)
        span([cli], "region_from_json", "io.region_from_json")
        span([cli], "learner_from_json", "io.learner_from_json", self._wrap_learner)
        span([cli], "sample_from_json", "io.sample_from_json")

        # kernel: the combinators as verify and learners bound them.
        span([verify, learners], "race", "kernel.race",
             lambda r: self._ratio("kernel.race.committed_ratio", r is not TwoBot.BOT) or r)
        span([verify], "any_of", "kernel.any_of")

        # verify: entry points as cli binds them and as verify calls itself.
        span([cli, verify], "exists_value", "verify.exists_value",
             lambda r: self._ratio("verify.exists_value.confirmed_ratio",
                                   r.verdict is Verdict.CONFIRMED) or r)
        span([cli, verify], "forall_value", "verify.forall_value",
             lambda r: self._ratio("verify.forall_value.confirmed_ratio",
                                   r is Verdict.CONFIRMED) or r)
        span([cli], "fixed_value", "verify.fixed_value")
        span([cli], "constant_value", "verify.constant_value")
        span([cli], "locally_constant", "verify.locally_constant")
        span([cli], "optimal_radius", "verify.optimal_radius")
        for attr in ("radius_lower", "radius_upper"):
            streams = self._stream_wrapper(getattr(verify, attr), f"verify.{attr}.approx")
            for owner in (cli, verify):
                self._patch(owner, attr, streams)

        # learners: the three searches; train and family_at ride on the
        # learner object that io returns.
        span([cli], "does_deviate", "learners.does_deviate")
        span([cli], "robust_point", "learners.robust_point")
        span([cli], "sparse_or_dense", "learners.sparse_or_dense")

        # regions: ball constructors as verify and io bound them, and the
        # two enumeration methods.
        span([verify, io], "closed_ball", "regions.closed_ball")
        span([verify], "open_ball_overt", "regions.open_ball_overt")
        span([regions.CompactSet], "cover_at", "regions.cover_at")
        span([regions.OvertSet], "points_at", "regions.points_at",
             lambda r: self._count("regions.points_at.points", len(r)) or r)

        # numerics: distances as regions and learners bound them, box
        # bisection, and a count of every Interval constructed.
        span([regions, learners], "dist_range", "numerics.dist_range")
        span([regions, learners], "dist_point", "numerics.dist_point")
        span([numerics.Box], "bisect", "numerics.Box.bisect")
        created = numerics.Interval.__post_init__

        def counted_post_init(interval):
            self.tally["numerics.Interval.created"] = self.tally.get("numerics.Interval.created", 0) + 1
            created(interval)

        self._patch(numerics.Interval, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _stream_wrapper(self, make_stream, name: str):
        def make(*args, **kwargs):
            stream = make_stream(*args, **kwargs)
            return dataclasses.replace(stream, approx=self.wrap(stream.approx, name))

        return make

    def _wrap_classifier(self, clf):
        def after_box(env):
            self._ratio("classifiers.eval_box.committed_ratio", env.committed_color is not None)
            return env

        return dataclasses.replace(
            clf,
            eval_point=self.wrap(clf.eval_point, "classifiers.eval_point"),
            eval_box=self.wrap(clf.eval_box, "classifiers.eval_box", after_box),
        )

    def _wrap_learner(self, learner):
        def trained(clf):
            return dataclasses.replace(
                clf, eval_point=self.wrap(clf.eval_point, "learners.trained.eval_point")
            )

        return dataclasses.replace(
            learner,
            train=self.wrap(learner.train, "learners.train", trained),
            family_at=self.wrap(learner.family_at, "learners.family_at"),
        )

    # ------------------------------------------------------------ results

    def note_report(self, report: dict) -> None:
        self._count("cli.fuel_levels", len(report.get("perFuelTrace", [])))

    def counts(self) -> dict[str, int]:
        """Exact per-span call counts and tallies: the deterministic part."""
        calls = [0] * len(self.names)
        for i in self.span_name:
            calls[i] += 1
        out = {f"{name}.calls": calls[i] for i, name in enumerate(self.names)}
        out.update(sorted(self.tally.items()))
        return out

    def metrics(self) -> dict[str, float]:
        n = len(self.names)
        calls, total, child = [0] * n, [0] * n, [0] * len(self.span_name)
        starts, ends, parents, ids = self.span_start, self.span_end, self.span_parent, self.span_name
        for i in range(len(ids)):
            duration = ends[i] - starts[i]
            calls[ids[i]] += 1
            total[ids[i]] += duration
            if parents[i] >= 0:
                child[parents[i]] += duration
        self_ns = [0] * n
        for i in range(len(ids)):
            self_ns[ids[i]] += ends[i] - starts[i] - child[i]
        out: dict[str, float] = {}
        for i, (name, parent) in enumerate(SPANS):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_ns[i] / 1e9
            if parent:
                out[f"{name}.total_s"] = total[i] / 1e9
        t = self.tally
        for key in COUNTS:
            if key.endswith("_ratio"):
                attempts = t.get(key + ".n", 0)
                out[key] = t.get(key + ".hit", 0) / attempts if attempts else 0.0
            else:
                out[key] = t.get(key, 0)
        out["trace.spans"] = len(ids)
        return out

    def dump(self, path: Path, roots: list[str]) -> None:
        """Write the spans: a JSON header plus four little-endian arrays.

        ``roots`` names the query of each ``cli.main`` span, in order, so
        every span traces back through ``parent`` to one request.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": ["name:int32", "start_ns:int64", "end_ns:int64", "parent:int32"],
            "roots": roots,
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(fh)
