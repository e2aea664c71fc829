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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DimensionMismatch
from .kernel import Fuel, check_fuel
from .numerics import (
    Box,
    Interval,
    MetricKind,
    Point,
    as_rational,
    dist_point,
    dist_range,
    dyadic_grid,
    dyadic_step,
)

__all__ = [
    "CompactSet",
    "OvertSet",
    "VKSet",
    "closed_ball",
    "open_ball_overt",
    "domain_box",
    "outside_ball_overt",
    "outside_ball_compact",
    "empty_region",
]


def cover_width_target(bounding: Box, fuel: Fuel) -> Fraction:
    """Per-box width bound for a cover at this fuel."""
    return bounding.width * dyadic_step(fuel)


@dataclass(frozen=True)
class CompactSet:
    """A set known through sound, converging finite box covers.

    ``keep`` decides whether a box meets the set; it must be antitone under
    inclusion (a box inside a discarded box is discarded too), which makes
    pruning whole subtrees of the subdivision sound.
    """

    dims: int
    bounding: Box | None
    keep: Callable[[Box], bool]

    def cover_at(self, fuel: Fuel) -> list[Box]:
        """Kept boxes of the subdivision, each no wider than 2**-fuel
        times the bounding width, in deterministic depth-first order."""
        check_fuel(fuel)
        if self.bounding is None:
            return []
        target = cover_width_target(self.bounding, fuel)
        out: list[Box] = []
        stack = [self.bounding]
        while stack:
            box = stack.pop()
            if not self.keep(box):
                continue
            if box.width <= target:
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
    regions without enumerating them.
    """

    dims: int
    bounding: Box | None
    member: Callable[[Point], bool]
    box_disjoint: Callable[[Box], bool]

    def points_at(self, fuel: Fuel) -> list[Point]:
        """Grid members at denominator 2**fuel, lexicographic order."""
        check_fuel(fuel)
        if self.bounding is None:
            return []
        axes = [dyadic_grid(side.lo, side.hi, fuel) for side in self.bounding.sides]
        return [p for p in itertools.product(*axes) if self.member(p)]


@dataclass(frozen=True)
class VKSet:
    """One set carrying both presentations, kept coherent by construction."""

    compact: CompactSet
    overt: OvertSet

    @property
    def dims(self) -> int:
        return self.compact.dims


def _never_disjoint(_: Box) -> bool:
    return False


def empty_region(dims: int) -> VKSet:
    compact = CompactSet(dims, None, lambda box: False)
    overt = OvertSet(dims, None, lambda p: False, lambda box: True)
    return VKSet(compact, overt)


def _ball_bounding(center: Point, radius: Fraction, metric: MetricKind) -> Box:
    if metric is MetricKind.MAX:
        half = radius
    else:
        # Radius is a squared distance; (r + 1) / 2 >= sqrt(r) keeps the
        # bound rational, at the price of looseness the keep test trims.
        half = (radius + 1) / 2
    return Box(tuple(Interval(c - half, c + half) for c in center))


def closed_ball(center: Sequence, radius, metric: MetricKind) -> VKSet:
    """The closed ball around a rational center; empty when radius < 0."""
    x: Point = tuple(as_rational(c) for c in center)
    r = as_rational(radius)
    if not x:
        raise DimensionMismatch("a ball needs at least one dimension")
    if r < 0:
        return empty_region(len(x))
    bounding = _ball_bounding(x, r, metric)
    compact = CompactSet(len(x), bounding, lambda box: dist_range(box, x, metric).lo <= r)
    overt = OvertSet(
        len(x),
        bounding,
        lambda p: dist_point(p, x, metric) <= r,
        lambda box: dist_range(box, x, metric).lo > r,
    )
    return VKSet(compact, overt)


def open_ball_overt(center: Sequence, radius, metric: MetricKind) -> OvertSet:
    """Enumeration of the open ball: strict inequality on every member."""
    x: Point = tuple(as_rational(c) for c in center)
    r = as_rational(radius)
    if not x:
        raise DimensionMismatch("a ball needs at least one dimension")
    if r <= 0:
        return OvertSet(len(x), None, lambda p: False, lambda box: True)
    bounding = _ball_bounding(x, r, metric)
    return OvertSet(
        len(x),
        bounding,
        lambda p: dist_point(p, x, metric) < r,
        lambda box: dist_range(box, x, metric).lo >= r,
    )


def domain_box(bounds: Sequence) -> VKSet:
    """An axis-aligned box as a region: the workhorse search domain."""
    if isinstance(bounds, Box):
        box = bounds
    else:
        box = Box.from_bounds(bounds)
    if box.dims == 0:
        raise DimensionMismatch("a domain needs at least one dimension")
    compact = CompactSet(box.dims, box, lambda b: True)
    overt = OvertSet(box.dims, box, box.contains, _never_disjoint)
    return VKSet(compact, overt)


def outside_ball_overt(domain: VKSet, center: Sequence, eps, metric: MetricKind) -> OvertSet:
    """Members of the domain strictly farther than eps from the center.

    The strictness matters: the enumerated set is the open complement,
    whose closure the matching compact side covers with a non-strict test.
    Whether this set is empty is not decidable from the outside; a search
    that finds nothing at its fuel stays undetermined there.
    """
    x: Point = tuple(as_rational(c) for c in center)
    e = as_rational(eps)
    inner = domain.overt
    if inner.bounding is not None:
        _ = dist_range(inner.bounding, x, metric)  # dimension check
    return OvertSet(
        domain.dims,
        inner.bounding,
        lambda p: inner.member(p) and dist_point(p, x, metric) > e,
        lambda box: inner.box_disjoint(box) or dist_range(box, x, metric).hi <= e,
    )


def outside_ball_compact(domain: VKSet, center: Sequence, eps, metric: MetricKind) -> CompactSet:
    """Cover of the domain points at distance >= eps from the center."""
    x: Point = tuple(as_rational(c) for c in center)
    e = as_rational(eps)
    inner = domain.compact
    if inner.bounding is not None:
        _ = dist_range(inner.bounding, x, metric)  # dimension check
    return CompactSet(
        domain.dims,
        inner.bounding,
        lambda box: inner.keep(box) and dist_range(box, x, metric).hi >= e,
    )
