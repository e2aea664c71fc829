"""Interval classifiers: exact on points, enveloping on boxes.

A classifier assigns one of k colors to some points and stays silent
(bottom) on the rest, typically on its decision boundary.  The point
evaluator is exact rational arithmetic and therefore sound by computation;
the box evaluator returns a color envelope that must contain every behavior
occurring inside the box.  Envelopes shrink on sub-boxes and collapse to
the point answer in the limit, which is what lets covers certify regions.

Hyperplanes and nets compile to integer rows over one denominator per layer,
each split once by sign into a bias, positive terms and negative terms, and
both evaluators run one integer affine loop on numerators: a positive
common scale preserves every comparison and commutes with relu.  The box
evaluator reads a box's integer corners and denominator as they are; the
point evaluator puts the point over one common denominator per call.  A
net's box evaluator bounds each score difference, not each score: when the
output layer has no relu, the differences compile to margin rows over the
last hidden layer, so a hidden term shared by two scores cancels in their
margin instead of counting twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ValidationError
from .kernel import KBot
from .numerics import Box, Point, as_rational, common_denominator

__all__ = [
    "ColorEnvelope",
    "IntervalClassifier",
    "hyperplane_classifier",
    "Layer",
    "threshold_net_classifier",
    "constant_classifier",
    "make_layer",
]


@dataclass(frozen=True)
class ColorEnvelope:
    """Colors a box might take, plus whether bottom might occur.

    The envelope may overshoot but never undershoot: a color realized by
    some point of the box is listed, and if any point is undetermined the
    bottom flag is set.  At least one of the two components is nonempty.
    """

    colors: frozenset[int]
    maybe_bot: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", frozenset(self.colors))
        if not self.colors and not self.maybe_bot:
            raise ValidationError("an envelope must allow at least one outcome")

    @property
    def committed_color(self) -> int | None:
        """The color every point of the box takes, or None."""
        if not self.maybe_bot and len(self.colors) == 1:
            return next(iter(self.colors))
        return None


@dataclass(frozen=True)
class IntervalClassifier:
    """A k-color classifier with exact point and enveloping box evaluators.

    The walkers read ``eval_box`` as an interval extension of
    ``eval_point`` and require three properties of a library classifier:

    - soundness: every point of a box has its color in the box's envelope,
      or the envelope allows bottom, so a committed envelope commits every
      point of the box;
    - inclusion isotonicity: a sub-box's envelope allows no outcome that
      its parent's rules out;
    - both evaluators are fixed functions of their point or box, with no
      fuel, so the walkers may resume across fuels and memoize envelopes.

    The shipped evaluators are also exact on a point box, whose envelope is
    the point's answer; the walkers do not require this of others.
    ``tests/test_contracts.py`` checks all four over every shipped
    evaluator.
    """

    k: int
    eval_point: Callable[[Point], KBot]
    eval_box: Callable[[Box], ColorEnvelope]
    dims: int | None

    def check_color(self, n: int) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n < self.k:
            raise ValidationError(f"color {n!r} out of range for k={self.k}")


def _check_point_dims(point: Point, dims: int) -> None:
    if len(point) != dims:
        raise ValidationError(f"point has {len(point)} coordinates, expected {dims}")


def _int_layer(layer: Layer) -> tuple:
    """The layer's rows, bias, their common denominator and its relu flag."""
    width = layer.in_dim
    den, nums = common_denominator([w for row in layer.weights for w in row] + list(layer.bias))
    rows = tuple(tuple(nums[i : i + width]) for i in range(0, width * layer.out_dim, width))
    return rows, tuple(nums[width * layer.out_dim :]), den, layer.activation == "relu"


def _signed(rows: Sequence[Sequence[int]], bias: Sequence[int], den: int, relu: bool) -> tuple:
    """Integer rows compiled for :func:`_affine`: each row becomes
    ``(bias, positive terms, negative terms)``, where a term is
    ``(input index, weight)`` and zero weights are dropped."""
    signed = []
    for row, b in zip(rows, bias):
        pos, neg = [], []
        for term in enumerate(row):
            if term[1] > 0:
                pos.append(term)
            elif term[1] < 0:
                neg.append(term)
        signed.append((b, tuple(pos), tuple(neg)))
    return signed, den, relu


def _affine(
    layers: Sequence[tuple], lo: Sequence[int], hi: Sequence[int], scale: int
) -> tuple[list[int], list[int], int]:
    """Push the ranges [lo/scale, hi/scale] through the compiled layers.

    Returns the output numerators and their (positive) scale.  Each layer
    is ``(rows, den, relu)`` as :func:`_signed` compiles it: a positive
    term sends the low end to the low end, a negative term sends the high
    end there, as interval scaling does.  A point is the range with
    ``lo is hi``.
    """
    for rows, den, relu in layers:
        out_lo, out_hi = [], []
        for b, pos, neg in rows:
            a = c = b * scale
            for i, w in pos:
                a += w * lo[i]
                c += w * hi[i]
            for i, w in neg:
                a += w * hi[i]
                c += w * lo[i]
            if relu and a < 0:
                a, c = 0, c if c > 0 else 0
            out_lo.append(a)
            out_hi.append(c)
        lo, hi, scale = out_lo, out_hi, scale * den
    return lo, hi, scale


def hyperplane_classifier(weights: Sequence, bias) -> IntervalClassifier:
    """Sign of an affine functional: color 1 above, 0 below, silent on it.

    The box evaluator pushes the box through the functional exactly, so
    its envelope is as tight as interval arithmetic allows.
    """
    w = tuple(as_rational(c) for c in weights)
    b = as_rational(bias)
    if not w or all(c == 0 for c in w):
        raise ValidationError("hyperplane weights must not all be zero")
    dims = len(w)
    layers = (_signed(*_int_layer(Layer((w,), (b,), "none"))),)

    def eval_point(point: Point) -> KBot:
        _check_point_dims(point, dims)
        den, x = common_denominator(point)
        (value,), _, _ = _affine(layers, x, x, den)
        if value > 0:
            return KBot(1)
        if value < 0:
            return KBot(0)
        return KBot.bot()

    def eval_box(box: Box) -> ColorEnvelope:
        if box.dims != dims:
            raise ValidationError(f"box has {box.dims} dimensions, expected {dims}")
        (lo,), (hi,), _ = _affine(layers, box.lo, box.hi, box.den)
        if lo > 0:
            return ColorEnvelope(frozenset((1,)), False)
        if hi < 0:
            return ColorEnvelope(frozenset((0,)), False)
        colors = set()
        if hi > 0:
            colors.add(1)
        if lo < 0:
            colors.add(0)
        return ColorEnvelope(frozenset(colors), True)

    return IntervalClassifier(k=2, eval_point=eval_point, eval_box=eval_box, dims=dims)


@dataclass(frozen=True)
class Layer:
    """One affine layer with an optional ReLU."""

    weights: tuple[tuple[Fraction, ...], ...]
    bias: tuple[Fraction, ...]
    activation: str  # "relu" or "none"

    def __post_init__(self) -> None:
        if self.activation not in ("relu", "none"):
            raise ValidationError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(self.bias):
            raise ValidationError("bias length must match the number of rows")
        widths = {len(row) for row in self.weights}
        if len(widths) != 1:
            raise ValidationError("weight rows must share one input width")
        if widths == {0}:
            raise ValidationError("weight rows must not be empty")

    @property
    def out_dim(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return len(self.weights[0])


def make_layer(weights: Sequence[Sequence], bias: Sequence, activation: str) -> Layer:
    return Layer(
        tuple(tuple(as_rational(v) for v in row) for row in weights),
        tuple(as_rational(v) for v in bias),
        activation,
    )


def threshold_net_classifier(layers: Sequence[Layer], margin) -> IntervalClassifier:
    """A small feedforward net that commits only on clear margins.

    The color is the output whose score beats every other score by more
    than the margin; anything tighter is bottom.  Box evaluation bounds
    each margin s_j - s_i over the box and admits color j when every one of
    its margins could exceed the threshold; it clears the bottom flag only
    when, for some j, every margin of j certainly exceeds it.  Without a
    relu on the output layer each margin is one affine row,
    (w_j - w_i, b_j - b_i), over the last hidden interval, so a hidden term
    shared by two scores cancels in their margin.  Under an output relu,
    relu(a) - relu(b) is not relu(a - b), and the margin ends are the
    score ends hi_j - lo_i and lo_j - hi_i.
    Every layer and margin row is compiled once, at construction, into the
    sign-split rows of :func:`_affine`; both evaluators share the hidden ones.
    """
    if not layers:
        raise ValidationError("a network needs at least one layer")
    tau = as_rational(margin)
    if tau <= 0:
        raise ValidationError("margin must be positive")
    for earlier, later in zip(layers, layers[1:]):
        if earlier.out_dim != later.in_dim:
            raise ValidationError(
                f"layer output width {earlier.out_dim} does not feed input width {later.in_dim}"
            )
    dims = layers[0].in_dim
    k = layers[-1].out_dim
    compiled = [_int_layer(layer) for layer in layers]
    p, q = tau.numerator, tau.denominator
    # The k - 1 margins of color j are entries j*(k-1) .. (j+1)*(k-1) - 1.
    pairs = [(j, i) for j in range(k) for i in range(k) if i != j]
    point_layers = [_signed(*layer) for layer in compiled]
    rows, bias, den, out_relu = compiled[-1]
    box_layers = point_layers
    if not out_relu:
        margin_rows = [[a - b for a, b in zip(rows[j], rows[i])] for j, i in pairs]
        margin_bias = [bias[j] - bias[i] for j, i in pairs]
        box_layers = point_layers[:-1] + [_signed(margin_rows, margin_bias, den, False)]

    def eval_point(point: Point) -> KBot:
        _check_point_dims(point, dims)
        if k == 1:
            return KBot(0)
        den, x = common_denominator(point)
        s, _, scale = _affine(point_layers, x, x, den)
        bar = p * scale
        for j in range(k):
            # s_j beats every other score by more than tau, in integers.
            if q * (s[j] - max(s[i] for i in range(k) if i != j)) > bar:
                return KBot(j)
        return KBot.bot()

    def eval_box(box: Box) -> ColorEnvelope:
        if box.dims != dims:
            raise ValidationError(f"box has {box.dims} dimensions, expected {dims}")
        if k == 1:
            return ColorEnvelope(frozenset((0,)), False)
        lo, hi, scale = _affine(box_layers, box.lo, box.hi, box.den)
        if out_relu:
            lo, hi = [lo[j] - hi[i] for j, i in pairs], [hi[j] - lo[i] for j, i in pairs]
        bar = p * scale
        colors = set()
        certain = False
        for j in range(k):
            # Every margin of j beats tau exactly when its least one does,
            # and its low end can beat tau only when its high end does.
            mine = slice(j * (k - 1), (j + 1) * (k - 1))
            if q * min(hi[mine]) > bar:
                colors.add(j)
                if q * min(lo[mine]) > bar:
                    certain = True
        return ColorEnvelope(frozenset(colors), not certain)

    return IntervalClassifier(k=k, eval_point=eval_point, eval_box=eval_box, dims=dims)


def constant_classifier(k: int, color: int | None, dims: int | None) -> IntervalClassifier:
    """Same answer everywhere: a fixed color, or silence when color is None."""
    if color is not None and (
        not isinstance(color, int) or isinstance(color, bool) or not 0 <= color < k
    ):
        raise ValidationError(f"color {color!r} out of range for k={k}")
    answer = KBot(color)
    envelope = (
        ColorEnvelope(frozenset((color,)), False)
        if color is not None
        else ColorEnvelope(frozenset(), True)
    )
    return IntervalClassifier(
        k=k,
        eval_point=lambda point: answer,
        eval_box=lambda box: envelope,
        dims=dims,
    )
