"""Exact rational arithmetic: intervals, boxes, metrics, one-sided reals.

Rationals are exact :class:`fractions.Fraction` values at the boundary:
parsed input, enumerated grid points and the :class:`Interval` that
:func:`dist_range` returns.  A :class:`Box` holds integer corners over one
denominator, so bisection, width tests, distance ranges and the grid
inside a box read integers; a point becomes integer numerators over a
common denominator (:func:`common_denominator`).  The ball tests and the
radius streams' nearest-point walk take a box's distance range from
:func:`distance_kernel` as integers over one scale, not through
``dist_range``'s ``Interval``: the ball tests compare it with the radius
in integers, and the walk keys its heap on the least distance rescaled to
one integer scale per walk.  Floats are refused at
the boundary because a float that survived one conversion silently poisons
every exactness guarantee downstream.  The Euclidean metric is handled
through squared distances so that all comparisons stay rational.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import ParseError, ValidationError
from .kernel import Fuel, check_fuel

Point = tuple[Fraction, ...]

__all__ = [
    "Point",
    "as_rational",
    "parse_rational",
    "format_rational",
    "Interval",
    "Box",
    "MetricKind",
    "dist_point",
    "dist_range",
    "dyadic_step",
    "LowerReal",
    "UpperReal",
]


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact rational, refusing floats outright."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or 'p/q' string")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse a 'p/q' or plain integer string into a reduced rational."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}")
    num, slash, den = text.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in rational {text!r}") from None
    except ValueError as exc:
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
            raise ValidationError(f"interval bounds out of order: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(q: int | str | Fraction) -> "Interval":
        v = as_rational(q)
        return Interval(v, v)


class Box:
    """Axis-aligned product of closed rational intervals.

    A box holds integer corner numerators over one denominator: axis i
    spans ``lo[i] / den`` to ``hi[i] / den``.  ``Box(sides)`` takes the lcm
    of the sides' denominators and ``bisect`` doubles it, so every box a
    walker reaches from a bounding box is an integer lattice box at scale
    ``den``, and splits, width tests, distance ranges and envelopes read
    those integers without building a ``Fraction`` or an ``Interval``.
    ``sides`` builds the interval form on demand.  Boxes are immutable,
    and two boxes are equal, and hash equal, when they hold the same
    points, whatever their denominators.
    """

    __slots__ = ("lo", "hi", "den")
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    den: int

    def __init__(self, sides: Sequence[Interval]) -> None:
        sides = tuple(sides)
        n = len(sides)
        den, nums = common_denominator([s.lo for s in sides] + [s.hi for s in sides])
        _set(self, "lo", tuple(nums[:n]))
        _set(self, "hi", tuple(nums[n:]))
        _set(self, "den", den)

    @staticmethod
    def _of(lo: tuple[int, ...], hi: tuple[int, ...], den: int) -> "Box":
        box = object.__new__(Box)
        _set(box, "lo", lo)
        _set(box, "hi", hi)
        _set(box, "den", den)
        return box

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("boxes are immutable")

    def __reduce__(self):
        return Box._of, (self.lo, self.hi, self.den)

    def _lowest_terms(self) -> tuple:
        g = math.gcd(self.den, *self.lo, *self.hi)
        return tuple(c // g for c in self.lo), tuple(c // g for c in self.hi), self.den // g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self._lowest_terms() == other._lowest_terms()

    def __hash__(self) -> int:
        return hash(self._lowest_terms())

    def __repr__(self) -> str:
        return f"Box(sides={self.sides!r})"

    @staticmethod
    def from_bounds(bounds: Sequence[tuple[int | str | Fraction, int | str | Fraction]]) -> "Box":
        return Box(tuple(Interval(as_rational(lo), as_rational(hi)) for lo, hi in bounds))

    @staticmethod
    def around(point: Point) -> "Box":
        return Box(tuple(Interval.point(c) for c in point))

    @property
    def sides(self) -> tuple[Interval, ...]:
        d = self.den
        return tuple(Interval(Fraction(a, d), Fraction(b, d)) for a, b in zip(self.lo, self.hi))

    @property
    def dims(self) -> int:
        return len(self.lo)

    @property
    def width(self) -> Fraction:
        """Widest side; the box's resolution for subdivision purposes."""
        return Fraction(max(map(operator.sub, self.hi, self.lo), default=0), self.den)

    def within(self, width: Fraction) -> bool:
        """Is every side at most ``width`` wide?  Compared in integers."""
        widest = max(map(operator.sub, self.hi, self.lo), default=0)
        return widest * width.denominator <= width.numerator * self.den

    def contains(self, point: Point) -> bool:
        if len(point) != self.dims:
            raise ValidationError(f"point has {len(point)} coordinates, box has {self.dims}")
        d = self.den
        return all(
            a * c.denominator <= c.numerator * d <= b * c.denominator
            for a, b, c in zip(self.lo, self.hi, point)
        )

    def bisect(self) -> tuple["Box", "Box"]:
        """Split along the widest side, lowest axis index on ties.

        The halves are at twice the denominator, so the split point is the
        integer ``lo + hi`` of the split axis."""
        lo, hi = self.lo, self.hi
        widths = list(map(operator.sub, hi, lo))
        widest = max(widths, default=0)
        if widest == 0:
            raise ValidationError("cannot bisect a degenerate box")
        axis = widths.index(widest)
        mid = (lo[axis] + hi[axis],)
        lo = tuple([2 * c for c in lo])
        hi = tuple([2 * c for c in hi])
        den = 2 * self.den
        return (
            Box._of(lo, hi[:axis] + mid + hi[axis + 1 :], den),
            Box._of(lo[:axis] + mid + lo[axis + 1 :], hi, den),
        )


_set = object.__setattr__


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
        raise ValidationError(f"dimension mismatch: {a} vs {b}")


def dist_point(x: Point, y: Point, metric: MetricKind) -> Fraction:
    """Exact distance between rational points (squared for euclid-sq)."""
    _check_dims(len(x), len(y))
    den, nums = common_denominator((*x, *y))
    gaps = [abs(a - b) for a, b in zip(nums, nums[len(x) :])]
    if metric is MetricKind.MAX:
        return Fraction(max(gaps, default=0), den)
    return Fraction(sum(g * g for g in gaps), den * den)


def distance_kernel(x: Point, metric: MetricKind) -> Callable[[Box], tuple[int, int, int]]:
    """For a box, ``(near, far, scale)``: the range of d(y, x) over y in
    the box is ``[near / scale, far / scale]``.

    Coordinates are independent, so per-axis distance ranges combine by a
    max (max metric) or a sum (squared Euclidean) without any slack.  The
    box's corners and x are compared as integers over one denominator.
    Each axis picks its nearest and farthest offsets by branches on the
    corners' signs.
    """
    x_den, x_nums = common_denominator(x)
    euclid = metric is MetricKind.EUCLID_SQ

    def kernel(box: Box) -> tuple[int, int, int]:
        _check_dims(box.dims, len(x))
        den = math.lcm(box.den, x_den)
        up, x_up = den // box.den, den // x_den
        near = far = 0
        for lo, hi, c in zip(box.lo, box.hi, x_nums):
            c *= x_up
            lo, hi = lo * up - c, hi * up - c
            a = lo if lo > 0 else -hi if hi < 0 else 0
            b = hi if hi > -lo else -lo
            if euclid:
                near += a * a
                far += b * b
            else:
                near = a if a > near else near
                far = b if b > far else far
        return near, far, den * den if euclid else den

    return kernel


def dist_range(box: Box, x: Point, metric: MetricKind) -> Interval:
    """Exact range of d(y, x) over y in the box (see :func:`distance_kernel`)."""
    near, far, scale = distance_kernel(x, metric)(box)
    return Interval(Fraction(near, scale), Fraction(far, scale))


def dyadic_step(fuel: Fuel) -> Fraction:
    check_fuel(fuel)
    return Fraction(1, 2**fuel)


def grid_points(box: Box, fuel: Fuel) -> Iterator[Point]:
    """Points of the dyadic grid at 2**-fuel inside ``box``, lexicographic order."""
    check_fuel(fuel)
    n, d = 2**fuel, box.den
    # Numerators k of k / n from ceil(lo * n / d) to floor(hi * n / d).
    axes = [range(-(-lo * n // d), hi * n // d + 1) for lo, hi in zip(box.lo, box.hi)]
    return itertools.product(*[[Fraction(k, n) for k in axis] for axis in axes])


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
