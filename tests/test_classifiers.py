from __future__ import annotations

import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from boxcert import (
    Box,
    Interval,
    KBot,
    ValidationError,
    constant_classifier,
    hyperplane_classifier,
    make_layer,
    threshold_net_classifier,
)

from oracles import hyperplane_color


def box2(x_lo, x_hi, y_lo, y_hi):
    return Box((Interval(x_lo, x_hi), Interval(y_lo, y_hi)))


class TestHyperplane:
    def setup_method(self):
        self.f = hyperplane_classifier((Q(1), Q(0)), Q(0))

    def test_positive_halfspace_box_commits(self):
        env = self.f.eval_box(box2(Q(1, 2), Q(1), Q(-1), Q(1)))
        assert env.colors == frozenset({1})
        assert not env.maybe_bot

    def test_straddling_box_keeps_all_outcomes(self):
        env = self.f.eval_box(box2(Q(-1), Q(1), Q(-1), Q(1)))
        assert env.colors == frozenset({0, 1})
        assert env.maybe_bot

    def test_point_on_plane_is_bot_at_any_fuel(self):
        assert self.f.eval_point((Q(0), Q(0))) == KBot.bot()

    def test_point_signs(self):
        assert self.f.eval_point((Q(1, 7), Q(2))) == KBot(1)
        assert self.f.eval_point((Q(-1, 7), Q(2))) == KBot(0)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValidationError, match="hyperplane weights must not all be zero"):
            hyperplane_classifier((Q(0), Q(0)), Q(1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="point has 1 coordinates, expected 2"):
            self.f.eval_point((Q(1),))

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
        got = f.eval_point((x1, x2))
        assert got.color == hyperplane_color((w1, w2), b, (x1, x2))


def crossing_net():
    """Scores (x1, -x1) with threshold 1/10."""
    layer = make_layer(((Q(1), Q(0)), (Q(-1), Q(0))), (Q(0), Q(0)), "none")
    return threshold_net_classifier((layer,), Q(1, 10))


class TestThresholdNet:
    def test_wide_margin_point(self):
        net = crossing_net()
        assert net.eval_point((Q(1), Q(0))) == KBot(0)

    def test_symmetric_point_is_bot(self):
        net = crossing_net()
        assert net.eval_point((Q(0), Q(0))) == KBot.bot()

    def test_box_with_certain_margin(self):
        net = crossing_net()
        env = net.eval_box(box2(Q(1), Q(2), Q(0), Q(1)))
        assert env.colors == frozenset({0})
        assert not env.maybe_bot

    def test_relu_scores(self):
        layer = make_layer(((Q(1),), (Q(-1),)), (Q(0), Q(0)), "relu")
        net = threshold_net_classifier((layer,), Q(1, 10))
        assert net.eval_point((Q(1),)) == KBot(0)
        assert net.eval_point((Q(0),)) == KBot.bot()
        env = net.eval_box(Box((Interval(Q(1, 4), Q(1)),)))
        assert env.colors == frozenset({0})
        assert not env.maybe_bot

    def test_single_output_net_is_constant_zero(self):
        layer = make_layer(((Q(1),),), (Q(0),), "none")
        net = threshold_net_classifier((layer,), Q(1, 10))
        assert net.k == 1
        assert net.eval_point((Q(5),)) == KBot(0)
        env = net.eval_box(Box((Interval(Q(-9), Q(9)),)))
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
        assert f.eval_point((Q(0),)) == KBot(2)
        env = f.eval_box(Box((Interval(Q(-1), Q(1)),)))
        assert env.colors == frozenset({2})
        assert not env.maybe_bot

    def test_bot_constant(self):
        f = constant_classifier(2, None, dims=1)
        assert f.eval_point((Q(0),)) == KBot.bot()
        env = f.eval_box(Box((Interval(Q(-1), Q(1)),)))
        assert env.maybe_bot

    def test_color_out_of_range(self):
        with pytest.raises(ValidationError, match="color 2 out of range for k=2"):
            constant_classifier(2, 2, dims=1)

    @pytest.mark.parametrize("color", [True, 0.5, Q(1), "1"], ids=["bool", "float", "fraction", "str"])
    def test_color_not_an_integer(self, color):
        message = f"color {color!r} out of range for k=2"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            constant_classifier(2, color, dims=1)

