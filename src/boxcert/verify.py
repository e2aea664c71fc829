"""Region verification: quantify a classifier's behavior over a region.

Universal questions run over the compact presentation: every cover box must
certify the color through the box evaluator.  Existential questions run over
the overt presentation: some enumerated grid point must evaluate to the
color exactly.  Two-sided questions race the two quantifiers.

The walkers below explore the subdivision tree adaptively instead of
materializing whole covers or grids: a box whose envelope already commits
is accepted without splitting, a box whose envelope excludes the color is
skipped without enumerating, and only the undecided rim is refined.  The
accepted and rejected outcomes are provably the same as for the flat cover
and the flat grid (envelopes only shrink on sub-boxes), the work is just
concentrated where the classifier is actually undecided.

Each race side is one walk for all the colors it asks about: the universal
walk carries the colors still open in each subtree, the existential walk
the colors still wanted, and a two-sided question reports the lowest
colors that certify or have a hit.

Results stay pure functions of the arguments.  Inside one query context
(``kernel._Query``), which ``boxcert verify`` opens per query and the
kernel's fuel loop for ``optimal_radius``, all three walks (cover,
witness and radius) read each box's envelope from one memo, so each box
is evaluated once per query.  Every ball they walk, whether the
``locally_constant`` region, a radius the lower stream scans or the
radius walk's root, is the query's one ``_ball`` for its center, radius
and metric.  Each walk saves what it left under its arguments: the cover
and witness walks their frontier, the radius walk its enumerated leaves
and the distances it found.  Asked the same at the same fuel or more, a
walk goes on from there, since fuel d + 1 only refines the subdivision
of fuel d.  A fuel loop over one region query, or one radius bracket,
therefore walks each tree once.  The context also holds
``learners.does_deviate``'s last finished stage and tried candidates, so
its fuel loop runs each stage and retrains each candidate once, and the
learner race's power covers and retrained answers, so its dense side's
cover walk resumes and its sparse side retrains each candidate once.  A
call outside a context walks afresh, and nothing outlives the query.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .classifiers import IntervalClassifier
from .errors import ValidationError
# perfbench/tracer.py spans any_of, closed_ball and open_ball_overt here by name; keep them bound.
from .kernel import Fuel, KBot, Outcome, Verdict, any_of, check_fuel, race
from .kernel import _fuel_loop, _per_query, _query, _query_scope
from .numerics import (
    Box,
    LowerReal,
    MetricKind,
    Point,
    UpperReal,
    as_rational,
    common_denominator,
    dist_point,
    distance_kernel,
    dyadic_step,
    grid_points,
)
from .regions import (
    CompactSet,
    OvertSet,
    VKSet,
    ball,
    closed_ball,
    cover_width_target,
    open_ball_overt,
)

__all__ = [
    "ColorWitness",
    "RadiusReport",
    "exists_value",
    "forall_value",
    "fixed_value",
    "constant_value",
    "locally_constant",
    "radius_lower",
    "radius_upper",
    "optimal_radius",
]


@dataclass(frozen=True)
class ColorWitness:
    """A point together with the color it committed to."""

    point: Point
    color: int


def _check_region_dims(region_dims: int, f: IntervalClassifier) -> None:
    if f.dims is not None and region_dims != f.dims:
        raise ValidationError(f"region has {region_dims} dimensions, classifier expects {f.dims}")


def _certified_colors(
    A: CompactSet, f: IntervalClassifier, colors: Iterable[int], fuel: Fuel
) -> frozenset[int]:
    """Those of ``colors`` that every box of the cover at this fuel commits to.

    One walk for all of them: each pending box carries the colors still
    open in its subtree.  The keep test settles them all, a commitment to
    c settles c, and an open color that reaches the target width fails
    everywhere.  Equivalent to scanning the flat cover once per color,
    because the keep test and the envelope are antitone under inclusion.

    The walk leaves a frontier in depth-first order: its open leaves and
    the entries it passed over only because their colors had already
    failed, each with its open colors.  A failure can vanish at the next
    fuel, because ``keep`` may over-approximate and envelopes tighten on
    sub-boxes.
    A color that certifies never fails again, and at more fuel the cover
    only refines the open leaves, so the next fuel walks on from that
    frontier with the colors that failed.  This is sound because neither
    ``keep`` nor ``f.eval_box`` takes a fuel.  Of f the walk reads only
    ``eval_box``, so the learner race walks its power covers here too.
    """
    query = _query()
    envelope = query.envelope(f)
    wanted = frozenset(colors)
    key = ("cover", A, f, wanted)
    entries = query.resume(key, fuel, ((A.bounding, wanted),))
    target = cover_width_target(A.bounding, fuel)
    failed: frozenset[int] = frozenset()
    frontier = []
    stack = list(reversed(entries))
    while stack:
        box, still = stack.pop()
        passed = still & failed
        if passed:
            frontier.append((box, passed))
            still -= passed
        if not still or not A.keep(box):
            continue
        still -= {envelope(box).committed_color}
        if not still:
            continue
        if box.within(target):
            frontier.append((box, still))
            failed |= still
            continue
        lo, hi = box.bisect()
        stack.append((hi, still))
        stack.append((lo, still))
    query.frontiers[key] = (fuel, frontier)
    return wanted - failed


def _find_witnesses(
    A: OvertSet, f: IntervalClassifier, colors: Iterable[int], need: int, fuel: Fuel
) -> list[ColorWitness]:
    """The ``need`` lowest of ``colors`` that enumerated points of A take,
    each with its first such point in search order.

    One walk for all of them: a subtree is dropped when the set certainly
    misses it or its envelope rules out every color still wanted.  A
    color's own walk visits a subsequence of these boxes in the same
    order, so its first point is the one the flat grid scan finds first.
    After each hit, only colors below the ``need``-th lowest hit stay wanted.

    The walk leaves the leaves it enumerated, in search order, and the
    next fuel walks on from them with its hits starting afresh.  Grids
    nest, so at more fuel every color is settled no later in search order
    than before: a box dropped against the colors still wanted, or left
    behind the stop, is dropped again.  This is sound because none of
    ``member``, ``box_disjoint`` or the evaluators of f takes a fuel.
    """
    query = _query()
    envelope = query.envelope(f)
    key = ("grid", A, f, frozenset(colors), need)
    leaves = query.resume(key, fuel, (A.bounding,))
    hits: dict[int, Point] = {}
    wanted = set(colors)
    step = dyadic_step(fuel)
    enumerated = []
    stack = list(reversed(leaves))
    while stack and wanted:
        box = stack.pop()
        if A.box_disjoint(box) or wanted.isdisjoint(envelope(box).colors):
            continue
        if box.within(step):
            enumerated.append(box)
            for p in grid_points(box, fuel):
                if not A.member(p):
                    continue
                color = f.eval_point(p).color
                if color in wanted:
                    hits[color] = p
                    wanted.discard(color)
                    if len(hits) >= need:
                        bound = sorted(hits)[need - 1]
                        wanted = {c for c in wanted if c < bound}
                    if not wanted:
                        break
            continue
        lo, hi = box.bisect()
        stack.append(hi)
        stack.append(lo)
    query.frontiers[key] = (fuel, enumerated)
    return [ColorWitness(hits[c], c) for c in sorted(hits)[:need]]


def exists_value(n: int, A: OvertSet, f: IntervalClassifier, fuel: Fuel) -> Outcome:
    """Semi-decide: some point of the region takes color n.

    Confirmations always carry a replayable witness point from the
    region's own enumeration.
    """
    check_fuel(fuel)
    f.check_color(n)
    _check_region_dims(A.bounding.dims, f)
    found = _find_witnesses(A, f, (n,), 1, fuel)
    if not found:
        return Outcome(Verdict.UNKNOWN)
    return Outcome(Verdict.CONFIRMED, witnesses=tuple(found))


def forall_value(n: int, A: CompactSet, f: IntervalClassifier, fuel: Fuel) -> Verdict:
    """Semi-decide: every point of the region takes color n.

    Vacuously confirmed on an empty region: there is nothing to check.
    """
    check_fuel(fuel)
    f.check_color(n)
    _check_region_dims(A.bounding.dims, f)
    return Verdict.CONFIRMED if _certified_colors(A, f, (n,), fuel) else Verdict.UNKNOWN


def _race_colors(
    A: VKSet, f: IntervalClassifier, certify: Iterable[int], seek: Iterable[int],
    need: int, fuel: Fuel,
) -> Outcome:
    """Race some color of ``certify`` certifying on A's cover against ``need``
    colors of ``seek`` having points in A's enumeration, at equal fuel.

    ONE reports the lowest certified color, ZERO the first points of the
    ``need`` lowest colors found.  The callers' colors make the two sides
    mutually exclusive on a coherent classifier.
    """
    certified: list[int] = []
    found: list[ColorWitness] = []

    def yes_side(d: Fuel) -> Verdict:
        certified.extend(sorted(_certified_colors(A.compact, f, certify, d)))
        return Verdict.CONFIRMED if certified else Verdict.UNKNOWN

    def no_side(d: Fuel) -> Verdict:
        hits = _find_witnesses(A.overt, f, seek, need, d)
        if len(hits) < need:
            return Verdict.UNKNOWN
        found.extend(hits)
        return Verdict.CONFIRMED

    with _query_scope():
        value = race(yes_side, no_side, fuel)
    return Outcome(value, color=certified[0] if certified else None, witnesses=tuple(found))


def fixed_value(n: int, A: VKSet, f: IntervalClassifier, fuel: Fuel) -> Outcome:
    """Is the region uniformly color n, or does some point refuse it?

    A refutation is witnessed by the first point of the lowest other color
    that has one.
    """
    check_fuel(fuel)
    f.check_color(n)
    _check_region_dims(A.dims, f)
    return _race_colors(A, f, (n,), [m for m in range(f.k) if m != n], 1, fuel)


def constant_value(A: VKSet, f: IntervalClassifier, fuel: Fuel) -> Outcome:
    """Is the classifier constant on the region, no matter which color?

    Affirmed when one color certifies everywhere, and the lowest such
    color is reported; refuted when two enumerated points commit to
    different colors, which refutes every candidate color at once.  The
    witnesses are the first points of the two lowest colors that have one.
    """
    check_fuel(fuel)
    _check_region_dims(A.dims, f)
    return _race_colors(A, f, range(f.k), range(f.k), 2, fuel)


def locally_constant(
    x: Sequence,
    r,
    f: IntervalClassifier,
    fuel: Fuel,
    metric: MetricKind = MetricKind.MAX,
) -> Outcome:
    """Is the classifier constant on the ball around x, radius r?

    ONE: some color certifies on the closed ball.  ZERO: two enumerated
    points of the open ball commit to different colors, so an adversarial
    pair exists arbitrarily and the interior already exhibits it.  BOT
    while neither side has enough fuel; a boundary through the ball's
    closure can keep it BOT forever.
    """
    check_fuel(fuel)
    point = tuple(as_rational(c) for c in x)
    radius = as_rational(r)
    if radius <= 0:
        raise ValidationError(f"ball radius must be positive, got {radius}")
    _check_region_dims(len(point), f)
    return constant_value(_ball(point, radius, metric), f, fuel)


# One region per center, radius and metric, so consecutive fuels resume its walks.
_ball = _per_query(ball)


def _radius_keys(
    x: Point, root: Box, metric: MetricKind, fuel: Fuel
) -> tuple[int, Callable[[Box], int]]:
    """The one scale ``S`` of a radius walk from ``root`` at this fuel, and
    a box's least distance from x times ``S``, its heap key.

    The walk stops splitting a box once it is within the step, so axis i
    splits at most k_i times: the least k with
    ``(hi_i - lo_i) * 2**fuel <= den * 2**k``.  Every box the walk reaches
    has a denominator dividing ``root.den << sum(k_i)``, and its distances
    from x a scale dividing ``S``, so each key is exact.  At more fuel,
    ``S`` only gains factors of 2.
    """
    splits = sum(
        max(-(-((hi - lo) << fuel) // root.den) - 1, 0).bit_length()
        for lo, hi in zip(root.lo, root.hi)
    )
    scale = math.lcm(root.den << splits, common_denominator(x)[0])
    S = scale * scale if metric is MetricKind.EUCLID_SQ else scale
    distance = distance_kernel(x, metric)

    def key(box: Box) -> int:
        near, _, scale = distance(box)
        return near * (S // scale)

    return S, key


@_per_query
def _nearest_off_color(
    x: Point, c: int, f: IntervalClassifier, ceiling: Fraction, metric: MetricKind, fuel: Fuel
) -> tuple[Fraction | None, Fraction | None]:
    """Distances from x to the nearest grid points off the center's color c.

    Returns the distance to the nearest enumerated point of the closed
    ball of radius ``ceiling`` whose value is not color c
    (bottom counts), and to the nearest one committing to another color;
    None where no such point lies within the ceiling.  Best-first over the
    ball's bounding box by each box's least distance to x, so the first
    points found are the nearest; a box is dropped when the ball misses
    it, when its envelope commits to c, or when it can no longer beat the
    distances found.  Leaves enumerate grid points as ``_find_witnesses``
    does.  The heap keys are integers over one scale (``_radius_keys``).
    Results are kept per query, so the lower and upper streams that
    ``optimal_radius`` runs at one fuel share a single walk.

    The walk saves the leaves it enumerated, with their keys, its scale
    and both distances found, and a call at more fuel walks on from them.
    This is exact because grids nest: every grid point at fuel d is one at
    fuel d + 1, so both distances only shrink as fuel grows, and each box
    the walk dropped stays useless at every later fuel.  It committed to
    c, lay beyond the ceiling, could not beat the distances found, or was
    left in the heap behind them.  The saved keys are rescaled to the new
    ``S``, and the saved distances seed the walk.  A call at less fuel
    walks afresh from the ball's bounding box.
    """
    step = dyadic_step(fuel)
    center = KBot(c)
    query = _query()
    envelope = query.envelope(f)
    root = _ball(x, ceiling, metric).compact.bounding
    S, heap_key = _radius_keys(x, root, metric, fuel)
    state = ("radius", x, c, f, ceiling, metric)
    leaves, saved, differ, other = query.resume(state, fuel, ([(0, root)], S, None, None))
    up = S // saved
    heap = [(near * up, n, box) for n, (near, box) in enumerate(leaves)]
    heapq.heapify(heap)
    order = itertools.count(len(heap))
    # Keys are integers, so key <= ceiling * S iff key <= limit, and
    # key < d * S iff key < bound(d), the least key at distance d or more.
    limit = ceiling.numerator * S // ceiling.denominator

    def bound(d: Fraction | None) -> int:
        return limit + 1 if d is None else -(-d.numerator * S // d.denominator)

    beat_differ, beat_other = bound(differ), bound(other)
    enumerated = []
    while heap:
        near, _, box = heapq.heappop(heap)
        if near >= beat_other:
            break
        env = envelope(box)
        if env.committed_color == c or near >= beat_differ and env.colors <= {c}:
            continue
        if box.within(step):
            enumerated.append((near, box))
            for p in grid_points(box, fuel):
                d = dist_point(p, x, metric)
                if d > ceiling or (other is not None and d >= other):
                    continue
                value = f.eval_point(p)
                if value == center:
                    continue
                if differ is None or d < differ:
                    differ, beat_differ = d, bound(d)
                if value.committed and (other is None or d < other):
                    other, beat_other = d, bound(d)
            continue
        for half in box.bisect():
            least = heap_key(half)
            if least <= limit:
                heapq.heappush(heap, (least, next(order), half))
    query.frontiers[state] = (fuel, (enumerated, S, differ, other))
    return differ, other


def _radius_setup(x: Sequence, f: IntervalClassifier, ceiling) -> tuple[Point, Fraction, KBot]:
    """A radius stream's center, its search ceiling and the center's value."""
    point = tuple(as_rational(c) for c in x)
    top = as_rational(ceiling)
    if top <= 0:
        raise ValidationError("search ceiling must be positive")
    _check_region_dims(len(point), f)
    return point, top, f.eval_point(point)


def radius_lower(
    x: Sequence, f: IntervalClassifier, ceiling, metric: MetricKind = MetricKind.MAX
) -> LowerReal:
    """Certified radii from below: how far the color provably reaches.

    At fuel d the approximation is the largest multiple r of 2**-d in
    [0, ceiling] such that some color certifies on the whole closed ball
    of radius r, and -2**-d while no such radius exists.  Each scanned
    radius asks only the center's color: the ball holds the center, and a
    committed envelope fixes every point inside it, so no other color can
    certify there.  For the same reason the downward scan starts just
    below the nearest grid point whose value differs from the center's.
    Each radius is scanned on the query's one ``_ball`` for it, the cover
    ``locally_constant`` races, so a radius scanned again at more fuel
    resumes its cover walk.  A center the classifier is silent on
    certifies no ball at all, so its stream crawls up to zero from below.
    """
    point, top, base = _radius_setup(x, f, ceiling)

    def approx(fuel: Fuel) -> Fraction:
        step = dyadic_step(fuel)
        if base.is_bot:
            return -step
        differ, _ = _nearest_off_color(point, base.color, f, top, metric, fuel)
        if differ is None:
            r = math.floor(top / step) * step
        else:
            r = (math.ceil(differ / step) - 1) * step
        while r >= 0:
            cover = _ball(point, r, metric).compact
            if forall_value(base.color, cover, f, fuel) is Verdict.CONFIRMED:
                return r
            r -= step
        return -step

    return LowerReal(approx=approx, ceiling=top)


def radius_upper(
    x: Sequence, f: IntervalClassifier, ceiling, metric: MetricKind = MetricKind.MAX
) -> UpperReal:
    """Refuting radii from above: how near a differently-colored point is.

    At fuel d the approximation is the smallest multiple of 2**-d in
    [0, ceiling] whose closed ball contains an enumerated point committing
    to a color other than the center's own: the nearest such point's
    distance rounded up to the grid.  Needs the center itself to commit
    first; while it does not, or no such point lies within the ceiling,
    the stream sits at the ceiling.
    """
    point, top, base = _radius_setup(x, f, ceiling)

    def approx(fuel: Fuel) -> Fraction:
        if base.is_bot:
            return top
        _, other = _nearest_off_color(point, base.color, f, top, metric, fuel)
        if other is None:
            return top
        step = dyadic_step(fuel)
        return min(top, math.ceil(other / step) * step)

    return UpperReal(approx=approx, ceiling=top)


@dataclass(frozen=True)
class RadiusReport:
    """Two-sided bracket on the optimal perturbation radius at a point.

    ``lower`` certifies a ball that is still uniformly colored; ``upper``
    certifies a ball already containing a differently-colored point.  The
    trace records one (fuel, lower, upper) row per fuel spent.  When the
    bracket never tightens below the tolerance the report says so instead
    of guessing: saturation of the lower stream at the ceiling and an
    unconfirmed upper stream typically mean the center commits nowhere or
    the true radius exceeds the search range.
    """

    lower: Fraction
    upper: Fraction
    fuel_used: Fuel
    converged: bool
    lower_saturated: bool
    upper_unconfirmed: bool
    trace: tuple[tuple[Fuel, Fraction, Fraction], ...]

    @property
    def gap(self) -> Fraction:
        return self.upper - self.lower


def optimal_radius(
    x: Sequence,
    f: IntervalClassifier,
    ceiling,
    tol,
    metric: MetricKind = MetricKind.MAX,
    max_fuel: Fuel = 14,
) -> RadiusReport:
    """Bracket the optimal perturbation radius to a stated tolerance.

    Runs both one-sided streams fuel by fuel and stops at the first fuel
    whose bracket is tight enough, or reports a flagged partial result
    when the budget runs out.
    """
    tolerance = as_rational(tol)
    if tolerance <= 0:
        raise ValidationError("tolerance must be positive")
    lower_stream = radius_lower(x, f, ceiling, metric)
    upper_stream = radius_upper(x, f, ceiling, metric)
    top = lower_stream.ceiling

    def bracket(fuel: Fuel) -> tuple[Fuel, Fraction, Fraction]:
        return fuel, lower_stream.approx(fuel), upper_stream.approx(fuel)

    def converged(row: tuple[Fuel, Fraction, Fraction]) -> bool:
        # A bracket only counts once both sides are real commitments:
        # the lower stream above its sub-zero sentinel, the upper below
        # the ceiling it idles at.  A constant classifier drives both to
        # the ceiling with gap zero: saturation, not an answer.
        _, lower, upper = row
        return lower >= 0 and upper < top and upper - lower <= tolerance

    trace = _fuel_loop(bracket, converged, max_fuel)
    fuel_used, lower, upper = trace[-1]
    return RadiusReport(
        lower=lower,
        upper=upper,
        fuel_used=fuel_used,
        converged=converged(trace[-1]),
        lower_saturated=lower >= top,
        upper_unconfirmed=upper >= top,
        trace=tuple(trace),
    )
