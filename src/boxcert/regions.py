"""Regions presented two ways: box covers and dense point enumerations.

A compact presentation answers universal questions: ``cover_at(fuel)`` is a
finite list of boxes whose union contains the true set and shrinks onto it
as fuel grows.  An overt presentation answers existential questions:
``points_at(fuel)`` lists rational points that really belong to the set and
become dense in it.  Both are pure functions of fuel.

The grid scheme is shared everywhere: enumerated points are the dyadic
rationals with denominator 2**fuel, in lexicographic order, clipped to a
bounding box.  Grids nest as fuel grows, which is what keeps every
existential commitment stable.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ValidationError
from .kernel import Fuel, check_fuel
from .numerics import (
    Box,
    Interval,
    MetricKind,
    Point,
    as_rational,
    dist_point,
    dist_range,
    distance_kernel,
    dyadic_step,
    grid_points,
)

__all__ = [
    "CompactSet",
    "OvertSet",
    "VKSet",
    "ball",
    "closed_ball",
    "open_ball_overt",
    "domain_box",
    "outside_ball",
    "empty_region",
    "cover_width_target",
]


def cover_width_target(bounding: Box, fuel: Fuel) -> Fraction:
    """Per-box width bound for a cover at this fuel."""
    return bounding.width * dyadic_step(fuel)


@dataclass(frozen=True)
class CompactSet:
    """A set known through sound, converging finite box covers.

    ``keep`` decides whether a box meets the set; it must be antitone under
    inclusion (a box inside a discarded box is discarded too), which makes
    pruning whole subtrees of the subdivision sound.  It may over-approximate,
    but it must be a fixed function of the box, the same at every fuel: the
    cover walk resumes its last walk at the next fuel.  Every set has a
    ``bounding`` box where subdivision starts; the empty set's is the
    origin point, and its ``keep`` rejects every box.
    """

    bounding: Box
    keep: Callable[[Box], bool]

    def cover_at(self, fuel: Fuel) -> list[Box]:
        """Kept boxes of the subdivision, each no wider than 2**-fuel
        times the bounding width, in deterministic depth-first order."""
        check_fuel(fuel)
        target = cover_width_target(self.bounding, fuel)
        out: list[Box] = []
        stack = [self.bounding]
        while stack:
            box = stack.pop()
            if not self.keep(box):
                continue
            if box.within(target):
                out.append(box)
            else:
                lo, hi = box.bisect()
                stack.append(hi)
                stack.append(lo)
        return out


@dataclass(frozen=True)
class OvertSet:
    """A set known through exact members on ever finer dyadic grids.

    ``member`` is the exact membership test; every enumerated point passes
    it.  ``box_disjoint`` may say that a box certainly misses the set,
    also antitone under inclusion; it exists so that searches can skip
    regions without enumerating them.  Both are fixed functions of their
    argument, the same at every fuel: the witness walk resumes its last
    walk at the next fuel.  Every set has a ``bounding`` box
    whose grid is enumerated; the empty set's is the origin point, which
    ``member`` rejects, as ``box_disjoint`` does every box.
    """

    bounding: Box
    member: Callable[[Point], bool]
    box_disjoint: Callable[[Box], bool]

    def points_at(self, fuel: Fuel, limit: int | None = None) -> list[Point]:
        """Grid members at denominator 2**fuel, lexicographic order; with a
        ``limit``, only the first ``limit``, walking the grid no further."""
        check_fuel(fuel)
        return list(itertools.islice(filter(self.member, grid_points(self.bounding, fuel)), limit))


@dataclass(frozen=True)
class VKSet:
    """One set carrying both presentations, kept coherent by construction."""

    compact: CompactSet
    overt: OvertSet

    @property
    def dims(self) -> int:
        return self.compact.bounding.dims


def _never_disjoint(_: Box) -> bool:
    return False


def empty_region(dims: int) -> VKSet:
    """The empty set, bounded by the origin point, which its tests reject."""
    origin = Box.from_bounds([(0, 0)] * dims)
    compact = CompactSet(origin, lambda box: False)
    overt = OvertSet(origin, lambda p: False, lambda box: True)
    return VKSet(compact, overt)


def _ball_bounding(center: Point, radius: Fraction, metric: MetricKind) -> Box:
    if metric is MetricKind.MAX:
        half = radius
    else:
        # Radius is a squared distance; (r + 1) / 2 >= sqrt(r) keeps the
        # bound rational, at the price of looseness the keep test trims.
        half = (radius + 1) / 2
    return Box(tuple(Interval(c - half, c + half) for c in center))


def _excess(x: Point, r: Fraction, metric: MetricKind) -> Callable[[Box], int]:
    """A box's least distance from x minus r, times ``q * scale`` > 0."""
    kernel, p, q = distance_kernel(x, metric), r.numerator, r.denominator

    def excess(box: Box) -> int:
        near, _, scale = kernel(box)
        return near * q - p * scale

    return excess


def _ball(center: Sequence, radius, metric: MetricKind, strict: bool) -> VKSet:
    """A ball from one coercion, one bounding box and one excess kernel: the
    closed ball's cover, with the open ball's enumeration if ``strict``."""
    x: Point = tuple(as_rational(c) for c in center)
    r = as_rational(radius)
    if not x:
        raise ValidationError("a ball needs at least one dimension")
    if r < 0:
        return empty_region(len(x))
    bounding = _ball_bounding(x, r, metric)
    excess = _excess(x, r, metric)
    compact = CompactSet(bounding, lambda box: excess(box) <= 0)
    if strict and r == 0:
        return VKSet(compact, empty_region(len(x)).overt)
    inside = operator.lt if strict else operator.le
    overt = OvertSet(
        bounding,
        lambda p: inside(dist_point(p, x, metric), r),
        lambda box: not inside(excess(box), 0),
    )
    return VKSet(compact, overt)


def closed_ball(center: Sequence, radius, metric: MetricKind) -> VKSet:
    """The closed ball around a rational center; empty when radius < 0."""
    return _ball(center, radius, metric, strict=False)


def ball(center: Sequence, radius, metric: MetricKind) -> VKSet:
    """The closed ball's cover with the open ball's enumeration, the region
    ``locally_constant`` races; the enumeration is empty when radius <= 0."""
    return _ball(center, radius, metric, strict=True)


def open_ball_overt(center: Sequence, radius, metric: MetricKind) -> OvertSet:
    """Enumeration of the open ball: strict inequality on every member."""
    return ball(center, radius, metric).overt


def domain_box(bounds: Sequence) -> VKSet:
    """An axis-aligned box as a region: the workhorse search domain."""
    if isinstance(bounds, Box):
        box = bounds
    else:
        box = Box.from_bounds(bounds)
    if box.dims == 0:
        raise ValidationError("a domain needs at least one dimension")
    compact = CompactSet(box, lambda b: True)
    overt = OvertSet(box, box.contains, _never_disjoint)
    return VKSet(compact, overt)


def outside_ball(domain: VKSet, center: Sequence, eps, metric: MetricKind) -> VKSet:
    """The domain points strictly farther than eps from the center.

    The strictness matters: the enumeration lists only points of this open
    set, and the covers bracket its closure, the points at distance eps or
    more, with a non-strict test.  Whether this set is empty is not
    decidable from the outside; a search that finds nothing at its fuel
    stays undetermined there.
    """
    x: Point = tuple(as_rational(c) for c in center)
    e = as_rational(eps)
    if len(x) != domain.dims:
        raise ValidationError(f"dimension mismatch: {domain.dims} vs {len(x)}")
    inner_cover, inner_points = domain.compact, domain.overt
    compact = CompactSet(
        inner_cover.bounding,
        lambda box: inner_cover.keep(box) and dist_range(box, x, metric).hi >= e,
    )
    overt = OvertSet(
        inner_points.bounding,
        lambda p: inner_points.member(p) and dist_point(p, x, metric) > e,
        lambda box: inner_points.box_disjoint(box) or dist_range(box, x, metric).hi <= e,
    )
    return VKSet(compact, overt)
