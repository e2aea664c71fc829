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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .classifiers import ColorEnvelope, IntervalClassifier, constant_classifier
from .errors import ValidationError
from .kernel import Fuel, KBot, Outcome, TwoBot, Verdict, _per_query, _query, check_fuel, race
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
from .regions import CompactSet, VKSet, outside_ball
from .verify import _certified_colors

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
    of its candidates.  It must also be antitone under inclusion of each
    added box: shrinking one to a sub-box gives an envelope inside the
    parent's.  The augmentation race's dense side needs this, because it
    splits only the boxes that fail to commit.  The searches also rely on ``train`` and the
    trained ``eval_point`` being fixed functions: the same sample trains
    to the same answers every time, which lets ``does_deviate`` skip the
    tuples it has tried within a query.

    The three bounds are facts a learner states about its own searches;
    ``None`` means the full enumeration.  ``sparse_bound`` and
    ``dense_bound`` cap how many points the ZERO and the ONE side of the
    augmentation race add, and ``deviation_bound`` caps the tuple size
    ``does_deviate`` trains on.  A bound may cut only candidates that cannot
    change the verdict or the first witness found: every outcome the full
    search reaches, witnesses and their order included, the bounded search
    reaches too.
    """

    k: int
    train: Callable[[Sample], IntervalClassifier]
    family_at: FamilyEvaluator
    sparse_bound: int | None = None
    dense_bound: int | None = None
    deviation_bound: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValidationError(f"learner k must be a positive integer, got {self.k!r}")
        bounds = (self.sparse_bound, self.dense_bound, self.deviation_bound)
        if any(b is not None and (type(b) is not int or b < 0) for b in bounds):
            raise ValidationError(f"search bounds must be nonnegative integers, got {bounds!r}")

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

    Its searches are bounded (see :class:`Learner`):

    - ZERO side, 1 addition: if an augmentation commits x to c, either its
      nearest point is a sample point and the empty augmentation commits
      to c, or the sample plus its nearest added point alone does, since
      the runner-up can only move away.
    - ONE side, 1 addition for k >= 2 and 2 for k = 1: "i beats j"
      (``di.hi + margin < dj.lo``) is a strict partial order.  Take an
      augmentation, a maximal t in it and any rival u: the sample plus
      the additions among {t, u} commits, and only t can win it, so t
      beats every rival.  For k >= 2 a single addition of another label
      already shows any rival that could win, since it commits only if
      the sample's winner beats it.  For k = 1 every addition has the
      base's label and may win itself, but two tied ones force bottom.
    - No deviation: at a training point that point is nearest, at distance
      0, so nn commits to its own label or abstains.
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

    learner = Learner(
        k=k,
        train=train,
        family_at=envelope_at,
        sparse_bound=1,
        dense_bound=2 if k == 1 else 1,
        deviation_bound=0,
    )
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


def _bounded(n: int, bound: int | None) -> int:
    """``n``, cut to a learner's search bound when it states one."""
    return n if bound is None else min(n, bound)


def does_deviate(L: Learner, domain: VKSet, fuel: Fuel) -> Outcome:
    """Can training mislabel one of its own sample points?

    Searches sets of enumerated points with every label assignment,
    looking for a trained classifier that commits, on one of the training
    points, to a color other than its label.  Set size, grid depth, and
    window size grow together under the one fuel dial, so any fixed
    candidate is reached at some finite fuel and the schedule stays
    affordable at every fuel.

    Inside a query context the search saves one set: the tuples all of
    whose labelings it has tried and found not to deviate.  Depth grids
    nest and windows grow from stage to stage, so later stages bring back
    earlier tuples.  Every call walks stages 0..fuel in order, skips the
    tuples in the set and retrains the others' labelings in order.  A
    tuple joins the set only once all its labelings have failed, so a
    witness's tuple never does.  This is exact: no stage depends on fuel,
    since each reads a prefix of a depth's grid that is the same at every
    fuel, and ``train`` and ``eval_point`` are fixed functions, so a tuple
    that did not deviate never does.  Every verdict and first witness is
    the one a fresh search gives.  A call outside a context searches
    afresh.
    """
    check_fuel(fuel)
    tried = _query().frontiers.setdefault(("deviate", L, domain), set())
    grids: dict[int, list[Point]] = {}
    for stage in range(fuel + 1):
        for t in range(1, _bounded(stage, L.deviation_bound) + 1):
            for depth in range(stage - t + 1):
                window = min(2 ** (stage - t - depth), 2 ** _ceil_div(stage - t, t)) + 1
                if window < t:
                    continue
                if depth not in grids:
                    # No stage up to this fuel reads further into the grid.
                    grids[depth] = domain.overt.points_at(depth, 2 ** (fuel - 1 - depth) + 1)
                for tup in itertools.combinations(grids[depth][:window], t):
                    if tup in tried:
                        continue
                    for labels in itertools.product(range(L.k), repeat=t):
                        trained = L.train(Sample._exact(tuple(zip(tup, labels))))
                        for m in range(t):
                            got = trained.eval_point(tup[m])
                            if got.committed and got.color != labels[m]:
                                witness = DeviationWitness(tuple(zip(tup, labels)), m, got.color)
                                return Outcome(Verdict.CONFIRMED, witnesses=(witness,))
                    tried.add(tup)
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


class _Family(NamedTuple):
    """What the cover walk reads of a classifier: its box envelope."""

    eval_box: Callable[[Box], ColorEnvelope]


@_per_query
def _power_cover(
    L: Learner, sample: Sample, point: Point, region: CompactSet, j: int
) -> tuple[CompactSet, _Family]:
    """The dense side's cover for j added points, and its envelope.

    A node is one box in the j-fold power of the region's bounding box,
    its members the consecutive ``dims``-slices of its corners.
    ``Box.bisect`` splits the widest side, lowest index first, so a split
    splits one member as the region's own cover would, and the leaves at
    a fuel are the j-tuples of cover boxes.  A node is kept when every
    member is.  Its envelope commits to c when ``family_at`` commits to c
    on the members under every sorted label tuple, and else allows every
    outcome.  Each labeled multiset, ordered by label, is one of those
    tuples, and ``keep`` and ``family_at`` are antitone in each member, so
    the walk certifies exactly where the flat scan of multisets does.
    Built once per query, so the walk resumes across fuels.
    """
    dims, bounding = region.bounding.dims, region.bounding
    power = Box._of(bounding.lo * j, bounding.hi * j, bounding.den)
    labelings = list(itertools.combinations_with_replacement(range(L.k), j))
    anything = ColorEnvelope(frozenset(range(L.k)), True)

    def members(box: Box) -> list[Box]:
        lo, hi, den = box.lo, box.hi, box.den
        return [Box._of(lo[i : i + dims], hi[i : i + dims], den) for i in range(0, j * dims, dims)]

    def keep(box: Box) -> bool:
        return all(map(region.keep, members(box)))

    def eval_box(box: Box) -> ColorEnvelope:
        boxes = members(box)
        envelopes = (L.family_at(sample, tuple(zip(boxes, labels)), point) for labels in labelings)
        first = next(envelopes)
        if first.committed_color is None or any(env != first for env in envelopes):
            return anything
        return first

    return CompactSet(power, keep), _Family(eval_box)


# One region per query, so the dense side's cover walk resumes across fuels.
_outside_ball = _per_query(outside_ball)


def _augmentation_race(
    L: Learner, sample: Sample, point: Point, base: KBot, region: VKSet, N: int, fuel: Fuel
) -> tuple[TwoBot, tuple[ExtensionWitness, ...]]:
    """Race density against sparsity of up to N points added to the sample.

    ``base``, the trained prediction at the point, is the empty augmentation
    on both sides.  ONE (dense): base commits and every nonempty labeled
    multiset of at most N of the ``region``'s cover boxes yields its color;
    for each size j, the cover walk checks this on the j-fold power of the
    region (``_power_cover``), splitting only the nodes that fail, and
    resumes across fuels.  ZERO (sparse): two augmentations by at most N
    of its enumerated points retrain to two different committed colors;
    the witnesses are those two, in the order found.  Every candidate is
    still tried in order, but each is retrained once per query.  Each side
    tries no more points than the learner's bound for it.
    """
    found: list[ExtensionWitness] = []
    dense_n, sparse_n = _bounded(N, L.dense_bound), _bounded(N, L.sparse_bound)
    retrained = _query().frontiers.setdefault(("retrained", L, sample, point), {})

    def dense(d: Fuel) -> Verdict:
        if base.is_bot:
            return Verdict.UNKNOWN
        for j in range(1, dense_n + 1):
            cover, family = _power_cover(L, sample, point, region.compact, j)
            if not _certified_colors(cover, family, (base.color,), d):
                return Verdict.UNKNOWN
        return Verdict.CONFIRMED

    def sparse(d: Fuel) -> Verdict:
        seen = {base.color: ExtensionWitness((), base.color)} if base.committed else {}
        for ext in _labeled_multisets(region.overt.points_at(d), L.k, sparse_n):
            got = retrained.get(ext)
            if got is None:
                got = retrained[ext] = L.train(Sample._exact(sample.points + ext)).eval_point(point)
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
    far = _outside_ball(domain, point, e, metric)
    value, witnesses = _augmentation_race(L, sample, point, base, far, N, fuel)
    return Outcome(value, color=base.color if value is TwoBot.ONE else None, witnesses=witnesses)

