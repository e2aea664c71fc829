"""Learners and the robustness questions one can semi-decide about them.

A learner turns a finite labeled sample into an interval classifier.  The
robustness ops quantify over ways of extending the sample: existential
branches enumerate concrete augmentation points from an overt presentation
and retrain exactly; universal branches range augmentation points over
cover boxes, which requires the learner to also expose a family evaluator,
an envelope of every classifier obtainable by placing the added points
anywhere in their boxes.  For the learners here that envelope is exact.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .classifiers import ColorEnvelope, IntervalClassifier, constant_classifier
from .errors import ValidationError
from .kernel import Fuel, KBot, Outcome, TwoBot, Verdict, check_fuel, race
from .numerics import (
    Box,
    Interval,
    MetricKind,
    Point,
    as_rational,
    common_denominator,
    dist_point,
    dist_range,
)
from .regions import VKSet, outside_ball

__all__ = [
    "Sample",
    "Learner",
    "nn_learner",
    "majority_learner",
    "ExtensionWitness",
    "DeviationWitness",
    "does_deviate",
    "robust_point",
    "sparse_or_dense",
    "AUGMENTATION_CAP",
]

AUGMENTATION_CAP = 3


@dataclass(frozen=True)
class Sample:
    """A finite labeled sample: a multiset of (point, label) pairs.

    The pairs are stored in the order given, but no learner may depend on
    that order (see :class:`Learner`).
    """

    points: tuple[tuple[Point, int], ...]

    def __post_init__(self) -> None:
        normalized = tuple(
            (tuple(as_rational(c) for c in p), label) for p, label in self.points
        )
        object.__setattr__(self, "points", normalized)
        dims = {len(p) for p, _ in normalized}
        if len(dims) > 1:
            raise ValidationError("sample points must share one dimension")

    @property
    def dims(self) -> int | None:
        return len(self.points[0][0]) if self.points else None

    def __len__(self) -> int:
        return len(self.points)

    def extend(self, additions: Sequence[tuple[Sequence, int]]) -> "Sample":
        return Sample(self.points + tuple(additions))

    @classmethod
    def _exact(cls, points: tuple[tuple[Point, int], ...]) -> "Sample":
        """Grid points are already ``Fraction`` tuples of one dimension."""
        sample = object.__new__(cls)
        object.__setattr__(sample, "points", points)
        return sample


# The family evaluator receives box-valued additions and a query point and
# returns an envelope valid for every placement of the added points.
FamilyEvaluator = Callable[[Sample, Sequence[tuple[Box, int]], Point], ColorEnvelope]


@dataclass(frozen=True)
class Learner:
    """Training plus the box-retrain family evaluation it must support.

    Both ``train`` and ``family_at`` must be order-free: permuting the
    sample's pairs, or the added ``(box, label)`` pairs, must not change
    what they return.  The robustness searches rely on this and try each
    labeled multiset of added points once, in one order.  They call
    ``family_at`` only with at least one addition: the trained classifier
    itself judges the empty augmentation.  Like the evaluators,
    ``family_at`` takes no fuel, so every search stage is a fixed function
    of its candidates.
    """

    k: int
    train: Callable[[Sample], IntervalClassifier]
    family_at: FamilyEvaluator

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValidationError(f"learner k must be a positive integer, got {self.k!r}")

    def check_labels(self, pairs: Iterable[tuple[object, int]]) -> None:
        k = self.k
        for _, label in pairs:
            if not isinstance(label, int) or isinstance(label, bool) or not 0 <= label < k:
                raise ValidationError(f"label {label!r} out of range for k={k}")


def _nn_envelope(dists: Sequence[tuple[Interval, int]], margin: Fraction) -> ColorEnvelope:
    """Winner analysis over interval distances.

    A training point can win when its least distance plus the margin stays
    under everyone else's largest; it certainly wins when its largest plus
    the margin stays under everyone else's least.  With a positive margin a
    certain winner silences every differently-labeled rival, so the
    envelope collapses to its label.
    """
    colors = set()
    certain = False
    for i, (di, label) in enumerate(dists):
        others = [dj for j, (dj, _) in enumerate(dists) if j != i]
        if all(di.lo + margin < dj.hi for dj in others):
            colors.add(label)
        if not certain and all(di.hi + margin < dj.lo for dj in others):
            certain = True
    return ColorEnvelope(frozenset(colors), not certain)


def nn_learner(tie_margin, k: int = 2, metric: MetricKind = MetricKind.MAX) -> Learner:
    """Nearest neighbor with an abstention band.

    The trained classifier answers the label of the unique nearest sample
    point when it beats the runner-up by more than the tie margin, and
    abstains otherwise.  The empty sample trains the everywhere-silent
    classifier.
    """
    margin = as_rational(tie_margin)
    if margin <= 0:
        raise ValidationError("tie margin must be positive")

    def envelope_at(
        sample: Sample, additions: Sequence[tuple[Box, int]], x: Point
    ) -> ColorEnvelope:
        dists: list[tuple[Interval, int]] = [
            (Interval.point(dist_point(x, p, metric)), label) for p, label in sample.points
        ]
        learner.check_labels(itertools.chain(sample.points, additions))
        dists += [(dist_range(box, x, metric), label) for box, label in additions]
        return _nn_envelope(dists, margin)

    def train(sample: Sample) -> IntervalClassifier:
        learner.check_labels(sample.points)
        pts = sample.points
        if not pts:
            return constant_classifier(k, None, sample.dims)
        dims = sample.dims
        den, nums = common_denominator([c for p, _ in pts for c in p])
        rows = [(nums[i * dims : (i + 1) * dims], label) for i, (_, label) in enumerate(pts)]

        def eval_point(x: Point) -> KBot:
            # _nn_envelope on point distances commits iff the nearest point
            # beats the runner-up by more than the margin: one pass over
            # integer distances at the common scale suffices.
            if len(x) != dims:
                raise ValidationError(f"dimension mismatch: {len(x)} vs {dims}")
            x_den, x_nums = common_denominator(x)
            scale = math.lcm(den, x_den)
            up, x_up = scale // den, scale // x_den
            xs = [c * x_up for c in x_nums]
            best = second = None
            for row, label in rows:
                gaps = [abs(r * up - c) for r, c in zip(row, xs)]
                d = max(gaps, default=0) if metric is MetricKind.MAX else sum(g * g for g in gaps)
                if best is None or d < best:
                    best, second, color = d, best, label
                elif second is None or d < second:
                    second = d
            if metric is MetricKind.EUCLID_SQ:
                scale *= scale
            if second is None or margin.denominator * (second - best) > margin.numerator * scale:
                return KBot(color)
            return KBot.bot()

        def eval_box(box: Box) -> ColorEnvelope:
            dists = [(dist_range(box, p, metric), label) for p, label in pts]
            return _nn_envelope(dists, margin)

        return IntervalClassifier(k=k, eval_point=eval_point, eval_box=eval_box, dims=dims)

    learner = Learner(k=k, train=train, family_at=envelope_at)
    return learner


def majority_learner(k: int = 2) -> Learner:
    """Predict the strict majority label everywhere, silence on ties."""

    def winner(labels: Sequence[int]) -> int | None:
        if not labels:
            return None
        counts = Counter(labels).most_common()
        if len(counts) > 1 and counts[0][1] == counts[1][1]:
            return None
        return counts[0][0]

    def train(sample: Sample) -> IntervalClassifier:
        learner.check_labels(sample.points)
        return constant_classifier(k, winner([label for _, label in sample.points]), sample.dims)

    def envelope_at(
        sample: Sample, additions: Sequence[tuple[Box, int]], x: Point
    ) -> ColorEnvelope:
        learner.check_labels(itertools.chain(sample.points, additions))
        color = winner([label for _, label in sample.points] + [label for _, label in additions])
        if color is None:
            return ColorEnvelope(frozenset(), True)
        return ColorEnvelope(frozenset((color,)), False)

    learner = Learner(k=k, train=train, family_at=envelope_at)
    return learner


@dataclass(frozen=True)
class ExtensionWitness:
    """An augmentation together with the color it produced at the query."""

    extension: tuple[tuple[Point, int], ...]
    outcome: int


@dataclass(frozen=True)
class DeviationWitness:
    """A training sample whose trained classifier mislabels one of its points.

    Training on ``sample`` and evaluating at its ``index``-th point commits
    to ``observed``, a color other than that point's label.
    """

    sample: tuple[tuple[Point, int], ...]
    index: int
    observed: int


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def does_deviate(L: Learner, domain: VKSet, fuel: Fuel) -> Outcome:
    """Can training mislabel one of its own sample points?

    Searches sets of enumerated points with every label assignment,
    looking for a trained classifier that commits, on one of the training
    points, to a color other than its label.  Set size, grid depth, and
    window size grow together under the one fuel dial, so any fixed
    candidate is reached at some finite fuel and the schedule stays
    affordable at every fuel.
    """
    check_fuel(fuel)
    grids: dict[int, list[Point]] = {}
    for stage in range(fuel + 1):
        for t in range(1, stage + 1):
            for depth in range(stage - t + 1):
                window = min(2 ** (stage - t - depth), 2 ** _ceil_div(stage - t, t)) + 1
                if window < t:
                    continue
                if depth not in grids:
                    # No stage up to this fuel reads further into the grid.
                    grids[depth] = domain.overt.points_at(depth, 2 ** (fuel - 1 - depth) + 1)
                for tup in itertools.combinations(grids[depth][:window], t):
                    for labels in itertools.product(range(L.k), repeat=t):
                        trained = L.train(Sample._exact(tuple(zip(tup, labels))))
                        for m in range(t):
                            got = trained.eval_point(tup[m])
                            if got.committed and got.color != labels[m]:
                                witness = DeviationWitness(tuple(zip(tup, labels)), m, got.color)
                                return Outcome(Verdict.CONFIRMED, witnesses=(witness,))
    return Outcome(Verdict.UNKNOWN)


def _query_point(x: Sequence, sample: Sample, domain: VKSet) -> Point:
    """The query point as exact rationals, of the sample's and domain's dimension."""
    point: Point = tuple(as_rational(c) for c in x)
    if sample.dims is not None and sample.dims != len(point):
        raise ValidationError("query point and sample disagree on dimension")
    if domain.dims != len(point):
        raise ValidationError("query point and domain disagree on dimension")
    return point


def _labeled_multisets(items: Sequence, k: int, n: int) -> Iterator[tuple]:
    """Every nonempty multiset of at most n labeled items, each once, smallest first.

    The learners are order-free, so one sorted tuple of ``(item, label)``
    pairs stands for every ordering of the same additions.
    """
    pairs = [(item, label) for item in items for label in range(k)]
    for j in range(1, n + 1):
        yield from itertools.combinations_with_replacement(pairs, j)


def _augmentation_race(
    L: Learner, sample: Sample, point: Point, base: KBot, region: VKSet, N: int, fuel: Fuel
) -> tuple[TwoBot, tuple[ExtensionWitness, ...]]:
    """Race density against sparsity of up to N points added to the sample.

    ``base``, the trained prediction at the point, is the empty augmentation
    on both sides.  ONE (dense): base commits and every nonempty labeled
    multiset of at most N of the ``region``'s cover boxes yields its color.
    ZERO (sparse): two augmentations by at most N of its enumerated points
    retrain to two different committed colors; the witnesses are those
    two, in the order found.
    """
    found: list[ExtensionWitness] = []

    def dense(d: Fuel) -> Verdict:
        if base.is_bot:
            return Verdict.UNKNOWN
        for additions in _labeled_multisets(region.compact.cover_at(d), L.k, N):
            if L.family_at(sample, additions, point).committed_color != base.color:
                return Verdict.UNKNOWN
        return Verdict.CONFIRMED

    def sparse(d: Fuel) -> Verdict:
        seen = {base.color: ExtensionWitness((), base.color)} if base.committed else {}
        for ext in _labeled_multisets(region.overt.points_at(d), L.k, N):
            got = L.train(Sample._exact(sample.points + ext)).eval_point(point)
            if got.committed:
                seen.setdefault(got.color, ExtensionWitness(ext, got.color))
                if len(seen) == 2:
                    found.extend(seen.values())
                    return Verdict.CONFIRMED
        return Verdict.UNKNOWN

    return race(dense, sparse, fuel), tuple(found)


def robust_point(x: Sequence, sample: Sample, L: Learner, domain: VKSet, fuel: Fuel) -> Outcome:
    """Does one poisoned training point flip the prediction at x?

    Once the base prediction commits, this is ``sparse_or_dense``'s race
    with N = 1 over the whole domain.  ONE: the base survives every
    single-point augmentation ranging over the domain, any label.  ZERO:
    some enumerated augmentation retrains to a committed different color,
    the one witness.
    """
    check_fuel(fuel)
    point = _query_point(x, sample, domain)
    base = L.train(sample).eval_point(point)
    if base.is_bot:
        return Outcome(TwoBot.BOT, base=base)
    value, witnesses = _augmentation_race(L, sample, point, base, domain, 1, fuel)
    return Outcome(value, base=base, witnesses=witnesses[1:])


def sparse_or_dense(
    L: Learner,
    N: int,
    eps,
    sample: Sample,
    x: Sequence,
    domain: VKSet,
    fuel: Fuel,
    metric: MetricKind = MetricKind.MAX,
) -> Outcome:
    """Race sparsity against density at x for up to N added points.

    ZERO (sparse): two augmentations by at most N enumerated points, each
    strictly farther than eps from x, retrain to two different committed
    colors.  ONE (dense): every augmentation by at most N points at
    distance eps or more, placed anywhere, yields one committed color.
    :func:`outside_ball` explains the strict/non-strict pair.
    """
    check_fuel(fuel)
    if not isinstance(N, int) or isinstance(N, bool):
        raise ValidationError(f"augmentation count must be an integer, got {N!r}")
    if N < 0:
        raise ValidationError("augmentation count must be nonnegative")
    if N > AUGMENTATION_CAP:
        raise ValidationError(f"N={N} exceeds the cap of {AUGMENTATION_CAP}")
    e = as_rational(eps)
    if e <= 0:
        raise ValidationError("eps must be positive")
    point = _query_point(x, sample, domain)
    base = L.train(sample).eval_point(point)
    far = outside_ball(domain, point, e, metric)
    value, witnesses = _augmentation_race(L, sample, point, base, far, N, fuel)
    return Outcome(value, color=base.color if value is TwoBot.ONE else None, witnesses=witnesses)
