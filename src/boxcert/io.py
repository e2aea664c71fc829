"""Reading and writing the JSON operand formats.

Rationals travel as strings "p/q" everywhere so that no client is tempted
to round-trip through floats.  Parsing errors (malformed syntax, missing
keys) raise :class:`ParseError`; structurally valid inputs that violate a
semantic rule raise :class:`ValidationError`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .classifiers import (
    IntervalClassifier,
    hyperplane_classifier,
    make_layer,
    threshold_net_classifier,
)
from .errors import BoxcertError, ParseError, ValidationError
from .learners import Learner, Sample, majority_learner, nn_learner
from .numerics import Box, MetricKind, Point, format_rational, parse_rational
from .regions import VKSet, closed_ball, domain_box, outside_ball_compact, outside_ball_overt

__all__ = [
    "load_json",
    "rational_from_json",
    "point_from_json",
    "point_to_json",
    "classifier_from_json",
    "learner_from_json",
    "sample_from_json",
    "region_from_json",
]


def load_json(path: Path) -> Any:
    # ValueError covers a NUL byte in the name, undecodable text, malformed
    # JSON and integers too long to convert; RecursionError, nesting deeper
    # than the decoder's stack.
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def rational_from_json(value: Any) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"rationals must be 'p/q' strings or integers, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ParseError(f"rationals must be 'p/q' strings or integers, got {value!r}")


def point_from_json(value: Any) -> Point:
    if not isinstance(value, list) or not value:
        raise ParseError(f"a point must be a nonempty list of rationals, got {value!r}")
    return tuple(rational_from_json(c) for c in value)


def _rational_list(value: Any, what: str) -> list[Fraction]:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list of rationals, got {value!r}")
    return [rational_from_json(c) for c in value]


def point_to_json(point: Point) -> list[str]:
    return [format_rational(c) for c in point]


def _field(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ParseError(f"{where} is missing required field {key!r}")
    return obj[key]


def classifier_from_json(obj: Any) -> IntervalClassifier:
    kind = _field(obj, "kind", "classifier")
    if kind == "hyperplane":
        w = _field(obj, "w", "hyperplane classifier")
        b = rational_from_json(_field(obj, "b", "hyperplane classifier"))
        if not isinstance(w, list) or not w:
            raise ParseError("hyperplane weights must be a nonempty list")
        try:
            return hyperplane_classifier([rational_from_json(c) for c in w], b)
        except BoxcertError:
            raise
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    if kind == "net":
        raw_layers = _field(obj, "layers", "net classifier")
        if not isinstance(raw_layers, list) or not raw_layers:
            raise ParseError("net layers must be a nonempty list")
        layers = []
        for entry in raw_layers:
            weights = _field(entry, "weights", "net layer")
            bias = _field(entry, "bias", "net layer")
            activation = _field(entry, "activation", "net layer")
            if not isinstance(weights, list):
                raise ParseError(f"net layer weights must be a list of rows, got {weights!r}")
            layers.append(
                make_layer(
                    [_rational_list(row, "a net weight row") for row in weights],
                    _rational_list(bias, "net layer bias"),
                    activation,
                )
            )
        margin = rational_from_json(_field(obj, "margin", "net classifier"))
        declared_k = _field(obj, "k", "net classifier")
        if not isinstance(declared_k, int) or isinstance(declared_k, bool):
            raise ParseError(f"net k must be an integer, got {declared_k!r}")
        try:
            net = threshold_net_classifier(layers, margin)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        if net.k != declared_k:
            raise ValidationError(
                f"declared k={declared_k} but the last layer outputs {net.k} scores"
            )
        return net
    raise ParseError(f"unknown classifier kind {kind!r}")


def learner_from_json(obj: Any, metric: MetricKind) -> Learner:
    """Build a learner; an nn learner measures with the query's metric."""
    kind = _field(obj, "kind", "learner")
    k = obj.get("k", 2)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"learner k must be a positive integer, got {k!r}")
    if kind == "nn":
        margin = rational_from_json(_field(obj, "tieMargin", "nn learner"))
        if "metric" in obj and MetricKind.parse(obj["metric"]) is not metric:
            raise ValidationError(
                f"nn learner metric {obj['metric']!r} differs from the query's {metric.value!r}"
            )
        try:
            return nn_learner(margin, k=k, metric=metric)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    if kind == "majority":
        return majority_learner(k=k)
    raise ParseError(f"unknown learner kind {kind!r}")


def sample_from_json(obj: Any) -> Sample:
    raw = _field(obj, "points", "sample")
    if not isinstance(raw, list):
        raise ParseError("sample points must be a list")
    pairs = []
    for entry in raw:
        x = point_from_json(_field(entry, "x", "sample point"))
        label = _field(entry, "label", "sample point")
        if not isinstance(label, int) or isinstance(label, bool) or label < 0:
            raise ParseError(f"sample label must be a nonnegative integer, got {label!r}")
        pairs.append((x, label))
    return Sample(tuple(pairs))


def _box_from_json(obj: Any) -> Box:
    sides = _field(obj, "sides", "box region")
    if not isinstance(sides, list) or not sides:
        raise ParseError("box sides must be a nonempty list of [lo, hi] pairs")
    bounds = []
    for pair in sides:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"each box side must be a [lo, hi] pair, got {pair!r}")
        lo = rational_from_json(pair[0])
        hi = rational_from_json(pair[1])
        if lo > hi:
            raise ValidationError(f"box side out of order: [{lo}, {hi}]")
        bounds.append((lo, hi))
    return Box.from_bounds(bounds)


def region_from_json(obj: Any, metric: MetricKind) -> VKSet:
    """Build a region from its descriptor; the metric comes from the query."""
    rtype = _field(obj, "type", "region")
    if rtype == "ball":
        center = point_from_json(_field(obj, "center", "ball region"))
        radius = rational_from_json(_field(obj, "radius", "ball region"))
        if radius < 0:
            raise ValidationError(
                f"ball radius must be nonnegative, got {format_rational(radius)}"
            )
        return closed_ball(center, radius, metric)
    if rtype == "box":
        return domain_box(_box_from_json(obj))
    if rtype == "outside-ball":
        domain = domain_box(_box_from_json(_field(obj, "domain", "outside-ball region")))
        center = point_from_json(_field(obj, "center", "outside-ball region"))
        eps = rational_from_json(_field(obj, "eps", "outside-ball region"))
        if eps <= 0:
            raise ValidationError(f"outside-ball eps must be positive, got {eps}")
        return VKSet(
            compact=outside_ball_compact(domain, center, eps, metric),
            overt=outside_ball_overt(domain, center, eps, metric),
        )
    raise ParseError(f"unknown region type {rtype!r}")
