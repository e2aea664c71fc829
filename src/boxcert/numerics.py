"""Exact rational arithmetic: intervals, boxes, metrics, one-sided reals.

Rationals are exact :class:`fractions.Fraction` values at the boundary;
inside the evaluators they become integer numerators over one common
denominator per call (:func:`common_denominator`).  Floats are refused at
the boundary because a float that survived one conversion silently poisons
every exactness guarantee downstream.  The Euclidean metric is handled
through squared distances so that all comparisons stay rational.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DimensionMismatch, ParseError
from .kernel import Fuel, check_fuel

Q = Fraction
Point = tuple[Fraction, ...]

__all__ = [
    "Q",
    "Point",
    "as_rational",
    "parse_rational",
    "format_rational",
    "common_denominator",
    "Interval",
    "Box",
    "MetricKind",
    "dist_point",
    "dist_range",
    "dyadic_step",
    "dyadic_grid",
    "LowerReal",
    "UpperReal",
]


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact rational, refusing floats outright."""
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or 'p/q' string")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse a 'p/q' or plain integer string into a reduced rational."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}")
    body = text.strip()
    try:
        if "/" in body:
            num, _, den = body.partition("/")
            d = int(den)
            if d == 0:
                raise ParseError(f"zero denominator in rational {text!r}")
            return Fraction(int(num), d)
        return Fraction(int(body))
    except ParseError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Serialize a rational as 'p/q' with an explicit denominator."""
    return f"{q.numerator}/{q.denominator}"


def common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``D``, the lcm of the denominators, and each value times ``D``."""
    den = math.lcm(*[q.denominator for q in values])
    return den, [q.numerator * (den // q.denominator) for q in values]


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.lo, Fraction) or not isinstance(self.hi, Fraction):
            object.__setattr__(self, "lo", as_rational(self.lo))
            object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(q: int | str | Fraction) -> "Interval":
        v = as_rational(q)
        return Interval(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def bisect(self) -> tuple["Interval", "Interval"]:
        mid = self.midpoint
        return Interval(self.lo, mid), Interval(mid, self.hi)


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of closed intervals."""

    sides: tuple[Interval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sides", tuple(self.sides))

    @staticmethod
    def from_bounds(bounds: Sequence[tuple[int | str | Fraction, int | str | Fraction]]) -> "Box":
        return Box(tuple(Interval(as_rational(lo), as_rational(hi)) for lo, hi in bounds))

    @staticmethod
    def around(point: Point) -> "Box":
        return Box(tuple(Interval.point(c) for c in point))

    @property
    def dims(self) -> int:
        return len(self.sides)

    @property
    def width(self) -> Fraction:
        """Widest side; the box's resolution for subdivision purposes."""
        if not self.sides:
            return Fraction(0)
        return max(side.width for side in self.sides)

    @property
    def midpoint(self) -> Point:
        return tuple(side.midpoint for side in self.sides)

    def contains(self, point: Point) -> bool:
        if len(point) != self.dims:
            raise DimensionMismatch(f"point has {len(point)} coordinates, box has {self.dims}")
        return all(side.contains(c) for side, c in zip(self.sides, point))

    def bisect(self) -> tuple["Box", "Box"]:
        """Split along the widest side, lowest axis index on ties."""
        widths = [side.width for side in self.sides]
        widest = max(widths, default=0)
        if widest == 0:
            raise ValueError("cannot bisect a degenerate box")
        axis = widths.index(widest)
        left, right = self.sides[axis].bisect()
        lo_sides = self.sides[:axis] + (left,) + self.sides[axis + 1 :]
        hi_sides = self.sides[:axis] + (right,) + self.sides[axis + 1 :]
        return Box(lo_sides), Box(hi_sides)


class MetricKind(enum.Enum):
    """Supported metrics; Euclidean is carried as its square."""

    MAX = "max"
    EUCLID_SQ = "euclid-sq"

    @staticmethod
    def parse(text: str) -> "MetricKind":
        for kind in MetricKind:
            if kind.value == text:
                return kind
        raise ParseError(f"unknown metric {text!r}")


def _check_dims(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatch(f"dimension mismatch: {a} vs {b}")


def dist_point(x: Point, y: Point, metric: MetricKind) -> Fraction:
    """Exact distance between rational points (squared for euclid-sq)."""
    _check_dims(len(x), len(y))
    den, nums = common_denominator((*x, *y))
    gaps = [abs(a - b) for a, b in zip(nums, nums[len(x) :])]
    if metric is MetricKind.MAX:
        return Fraction(max(gaps, default=0), den)
    return Fraction(sum(g * g for g in gaps), den * den)


def dist_range(box: Box, x: Point, metric: MetricKind) -> Interval:
    """Exact range of d(y, x) over y in the box.

    Coordinates are independent, so per-axis distance ranges combine by a
    max (max metric) or a sum (squared Euclidean) without any slack.
    """
    _check_dims(box.dims, len(x))
    n = len(x)
    lows = [side.lo for side in box.sides]
    den, nums = common_denominator(lows + [side.hi for side in box.sides] + list(x))
    near, far = [], []
    for lo, hi, c in zip(nums, nums[n:], nums[2 * n :]):
        lo, hi = lo - c, hi - c
        near.append(lo if lo > 0 else -hi if hi < 0 else 0)
        far.append(max(-lo, hi))
    if metric is MetricKind.MAX:
        return Interval(Fraction(max(near, default=0), den), Fraction(max(far, default=0), den))
    return Interval(
        Fraction(sum(a * a for a in near), den * den), Fraction(sum(b * b for b in far), den * den)
    )


def dyadic_step(fuel: Fuel) -> Fraction:
    check_fuel(fuel)
    return Fraction(1, 2**fuel)


def dyadic_grid(lo: Fraction, hi: Fraction, fuel: Fuel) -> list[Fraction]:
    """Multiples of 2**-fuel inside [lo, hi], ascending."""
    step = dyadic_step(fuel)
    first = math.ceil(lo / step)
    last = math.floor(hi / step)
    return [k * step for k in range(first, last + 1)]


@dataclass(frozen=True)
class LowerReal:
    """A real known from below: a nondecreasing stream of rational bounds.

    ``ceiling`` is the top of the search range.  A stream stuck at the
    ceiling cannot be told apart from one converging to a larger value or
    to infinity, which is exactly why the ceiling is explicit: saturation
    is reportable instead of silent.
    """

    approx: Callable[[Fuel], Fraction]
    ceiling: Fraction


@dataclass(frozen=True)
class UpperReal:
    """A real known from above: a nonincreasing stream of rational bounds."""

    approx: Callable[[Fuel], Fraction]
    ceiling: Fraction
