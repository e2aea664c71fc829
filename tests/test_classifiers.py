from __future__ import annotations

import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from boxcert import (
    Box,
    Interval,
    KBot,
    MetricKind,
    Sample,
    ValidationError,
    constant_classifier,
    hyperplane_classifier,
    make_layer,
    nn_learner,
    threshold_net_classifier,
)

from oracles import hyperplane_color, net_color


def box2(x_lo, x_hi, y_lo, y_hi):
    return Box((Interval(x_lo, x_hi), Interval(y_lo, y_hi)))


class TestHyperplane:
    def setup_method(self):
        self.f = hyperplane_classifier((Q(1), Q(0)), Q(0))

    def test_positive_halfspace_box_commits(self):
        env = self.f.eval_box(box2(Q(1, 2), Q(1), Q(-1), Q(1)), 0)
        assert env.colors == frozenset({1})
        assert not env.maybe_bot

    def test_straddling_box_keeps_all_outcomes(self):
        env = self.f.eval_box(box2(Q(-1), Q(1), Q(-1), Q(1)), 0)
        assert env.colors == frozenset({0, 1})
        assert env.maybe_bot

    def test_point_on_plane_is_bot_at_any_fuel(self):
        for fuel in (0, 3, 9):
            assert self.f.eval_point((Q(0), Q(0)), fuel) == KBot.bot()

    def test_point_signs(self):
        assert self.f.eval_point((Q(1, 7), Q(2)), 0) == KBot(1)
        assert self.f.eval_point((Q(-1, 7), Q(2)), 0) == KBot(0)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValidationError, match="hyperplane weights must not all be zero"):
            hyperplane_classifier((Q(0), Q(0)), Q(1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="point has 1 coordinates, expected 2"):
            self.f.eval_point((Q(1),), 0)

    @given(
        w1=st.fractions(min_value=-4, max_value=4, max_denominator=16),
        w2=st.fractions(min_value=-4, max_value=4, max_denominator=16),
        b=st.fractions(min_value=-4, max_value=4, max_denominator=16),
        x1=st.fractions(min_value=-2, max_value=2, max_denominator=32),
        x2=st.fractions(min_value=-2, max_value=2, max_denominator=32),
    )
    def test_points_agree_with_the_sign_oracle(self, w1, w2, b, x1, x2):
        if w1 == 0 and w2 == 0:
            return
        f = hyperplane_classifier((w1, w2), b)
        got = f.eval_point((x1, x2), 0)
        assert got.color == hyperplane_color((w1, w2), b, (x1, x2))


def crossing_net():
    """Scores (x1, -x1) with threshold 1/10."""
    layer = make_layer(((Q(1), Q(0)), (Q(-1), Q(0))), (Q(0), Q(0)), "none")
    return threshold_net_classifier((layer,), Q(1, 10))


class TestThresholdNet:
    def test_wide_margin_point(self):
        net = crossing_net()
        assert net.eval_point((Q(1), Q(0)), 0) == KBot(0)

    def test_symmetric_point_is_bot(self):
        net = crossing_net()
        assert net.eval_point((Q(0), Q(0)), 0) == KBot.bot()

    def test_box_with_certain_margin(self):
        net = crossing_net()
        env = net.eval_box(box2(Q(1), Q(2), Q(0), Q(1)), 0)
        assert env.colors == frozenset({0})
        assert not env.maybe_bot

    def test_relu_scores(self):
        layer = make_layer(((Q(1),), (Q(-1),)), (Q(0), Q(0)), "relu")
        net = threshold_net_classifier((layer,), Q(1, 10))
        assert net.eval_point((Q(1),), 0) == KBot(0)
        assert net.eval_point((Q(0),), 0) == KBot.bot()
        env = net.eval_box(Box((Interval(Q(1, 4), Q(1)),)), 0)
        assert env.colors == frozenset({0})
        assert not env.maybe_bot

    def test_single_output_net_is_constant_zero(self):
        layer = make_layer(((Q(1),),), (Q(0),), "none")
        net = threshold_net_classifier((layer,), Q(1, 10))
        assert net.k == 1
        assert net.eval_point((Q(5),), 0) == KBot(0)
        env = net.eval_box(Box((Interval(Q(-9), Q(9)),)), 0)
        assert env.colors == frozenset({0})
        assert not env.maybe_bot

    def test_margin_must_be_positive(self):
        layer = make_layer(((Q(1),),), (Q(0),), "none")
        with pytest.raises(ValueError):
            threshold_net_classifier((layer,), Q(0))

    def test_layer_shape_validation(self):
        with pytest.raises(ValidationError, match="weight rows must share one input width"):
            make_layer(((Q(1), Q(2)), (Q(3),)), (Q(0), Q(0)), "none")
        first = make_layer(((Q(1), Q(0)),), (Q(0),), "none")
        second = make_layer(((Q(1), Q(2)),), (Q(0),), "none")
        with pytest.raises(
            ValidationError, match="layer output width 1 does not feed input width 2"
        ):
            threshold_net_classifier((first, second), Q(1, 10))


class TestConstantClassifier:
    def test_committed_constant(self):
        f = constant_classifier(3, 2, dims=1)
        assert f.eval_point((Q(0),), 0) == KBot(2)
        env = f.eval_box(Box((Interval(Q(-1), Q(1)),)), 0)
        assert env.colors == frozenset({2})
        assert not env.maybe_bot

    def test_bot_constant(self):
        f = constant_classifier(2, None, dims=1)
        assert f.eval_point((Q(0),), 0) == KBot.bot()
        env = f.eval_box(Box((Interval(Q(-1), Q(1)),)), 0)
        assert env.maybe_bot

    def test_color_out_of_range(self):
        with pytest.raises(ValidationError, match="color 2 out of range for k=2"):
            constant_classifier(2, 2, dims=1)

    @pytest.mark.parametrize("color", [True, 0.5, Q(1), "1"], ids=["bool", "float", "fraction", "str"])
    def test_color_not_an_integer(self, color):
        message = f"color {color!r} out of range for k=2"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            constant_classifier(2, color, dims=1)


net_params = st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
    st.sampled_from(["none", "relu"]),
)


@given(
    params=net_params,
    lo=st.fractions(min_value=-2, max_value=2, max_denominator=8),
    width=st.fractions(min_value=0, max_value=1, max_denominator=8),
    t=st.fractions(min_value=0, max_value=1, max_denominator=16),
)
@settings(deadline=None)
def test_net_envelope_soundness_on_sampled_points(params, lo, width, t):
    a, b, c, d, act = params
    layer = make_layer(((a,), (b,)), (c, d), act)
    net = threshold_net_classifier((layer,), Q(1, 10))
    box = Box((Interval(lo, lo + width),))
    env = net.eval_box(box, 0)
    x = (lo + t * width,)
    value = net.eval_point(x, 0)
    oracle = net_color([(((a,), (b,)), (c, d), act)], Q(1, 10), 2, x)
    assert value.color == oracle
    if value.committed:
        assert value.color in env.colors
    else:
        assert env.maybe_bot


@given(
    params=net_params,
    lo=st.fractions(min_value=-2, max_value=2, max_denominator=8),
    width=st.fractions(min_value=0, max_value=1, max_denominator=8),
)
@settings(deadline=None)
def test_net_envelope_shrinks_on_sub_boxes(params, lo, width):
    a, b, c, d, act = params
    if width == 0:
        return
    layer = make_layer(((a,), (b,)), (c, d), act)
    net = threshold_net_classifier((layer,), Q(1, 10))
    box = Box((Interval(lo, lo + width),))
    sub, _ = box.bisect()
    outer = net.eval_box(box, 0)
    inner = net.eval_box(sub, 0)
    assert inner.colors <= outer.colors
    if not outer.maybe_bot:
        assert not inner.maybe_bot


COORD = st.fractions(min_value=-2, max_value=2, max_denominator=16)
WEIGHT = st.fractions(min_value=-2, max_value=2, max_denominator=8)


@st.composite
def shipped_classifiers(draw):
    """A 2-D hyperplane, threshold net, constant classifier or trained nn."""
    kind = draw(st.sampled_from(["hyperplane", "net", "constant", "nn"]))
    if kind == "hyperplane":
        w = (draw(WEIGHT.filter(bool)), draw(WEIGHT))
        return hyperplane_classifier(w, draw(WEIGHT))
    if kind == "net":
        hidden = make_layer([[draw(WEIGHT), draw(WEIGHT)] for _ in range(3)],
                            [draw(WEIGHT) for _ in range(3)], "relu")
        scores = make_layer([[draw(WEIGHT) for _ in range(3)] for _ in range(3)],
                            [draw(WEIGHT) for _ in range(3)], "none")
        return threshold_net_classifier([hidden, scores], Q(1, 16))
    if kind == "constant":
        return constant_classifier(3, draw(st.sampled_from([None, 0, 2])), dims=2)
    points = draw(st.lists(st.tuples(st.tuples(COORD, COORD), st.integers(0, 1)),
                           min_size=1, max_size=4))
    metric = draw(st.sampled_from([MetricKind.MAX, MetricKind.EUCLID_SQ]))
    return nn_learner(Q(1, 16), metric=metric).train(Sample(tuple(points)))


@settings(deadline=None)
@given(
    f=shipped_classifiers(),
    corner=st.tuples(COORD, COORD),
    size=st.tuples(COORD.map(abs), COORD.map(abs)),
)
def test_evaluators_do_not_read_fuel(f, corner, size):
    """The walkers resume across fuels only because no evaluator reads it."""
    box = Box.from_bounds([(c, c + s) for c, s in zip(corner, size)])
    assert f.eval_box(box, 0) == f.eval_box(box, 12)
    assert f.eval_point(corner, 0) == f.eval_point(corner, 12)
