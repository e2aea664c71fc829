"""Radius streams against the one-membership-per-radius reference scans.

``radius_lower`` and ``radius_upper`` search once per fuel for the nearest
grid points off the center's color.  The references below ask the
original membership question at every grid radius, through the scans in
``oracles``.  Both must give the same value at every fuel tested.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from boxcert import (
    MetricKind,
    Verdict,
    any_of,
    closed_ball,
    constant_classifier,
    exists_value,
    forall_value,
    hyperplane_classifier,
    make_layer,
    radius_lower,
    radius_upper,
    threshold_net_classifier,
)

from oracles import inf_of_confirmed_set, sup_of_confirmed_set
from test_acceptance import _c3_instances

METRICS = (MetricKind.MAX, MetricKind.EUCLID_SQ)


def reference_lower(x, f, ceiling, metric):
    """Largest grid radius whose closed ball certifies one color."""

    def membership(r, fuel):
        ball = closed_ball(x, r, metric)
        deciders = [(lambda d, n=n: forall_value(n, ball.compact, f, d)) for n in range(f.k)]
        return any_of(deciders, fuel)

    return sup_of_confirmed_set(membership, ceiling)


def reference_upper(x, f, ceiling, metric):
    """Smallest grid radius whose closed ball holds a point of another
    committed color than the center's."""

    def membership(r, fuel):
        base = f.eval_point(x, fuel)
        if base.is_bot:
            return Verdict.UNKNOWN
        ball = closed_ball(x, r, metric)
        deciders = [
            (lambda d, m=m: exists_value(m, ball.overt, f, d).verdict)
            for m in range(f.k)
            if m != base.color
        ]
        return any_of(deciders, fuel)

    return inf_of_confirmed_set(membership, ceiling)


def assert_streams_match(x, f, ceiling, metric, fuels):
    lower = radius_lower(x, f, ceiling, metric)
    upper = radius_upper(x, f, ceiling, metric)
    ref_lower = reference_lower(x, f, ceiling, metric)
    ref_upper = reference_upper(x, f, ceiling, metric)
    for d in fuels:
        got = (lower.approx(d), upper.approx(d))
        want = (ref_lower.approx(d), ref_upper.approx(d))
        assert got == want, f"x={x} {metric.value} fuel {d}: streams {got}, reference {want}"


@pytest.mark.parametrize(
    "w, b, x", [(w, b, x) for w, b, x, _ in _c3_instances()], ids=[f"c3-{i}" for i in range(20)]
)
def test_c3_instances_match_the_reference_at_fuels_0_to_8(w, b, x):
    assert_streams_match(x, hyperplane_classifier(w, b), Q(2), MetricKind.MAX, range(9))


@pytest.mark.parametrize("metric", METRICS)
def test_bot_center_matches_the_reference(metric):
    plane = hyperplane_classifier((Q(1), Q(0)), Q(0))
    assert_streams_match((Q(0), Q(1, 3)), plane, Q(1), metric, range(7))
    assert radius_lower((Q(0), Q(1, 3)), plane, Q(1), metric).approx(3) == Q(-1, 8)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("color", [1, None])
def test_constant_classifier_matches_the_reference(metric, color):
    assert_streams_match((Q(1, 2), Q(-1, 4)), constant_classifier(2, color, 2), Q(3, 2), metric, range(7))


dyadic = st.integers(min_value=-8, max_value=8).map(lambda n: Q(n, 4))
centers = st.tuples(dyadic, dyadic).map(lambda p: (p[0] / 4, p[1] / 4))


@st.composite
def planes(draw):
    w = draw(st.tuples(dyadic, dyadic).filter(any))
    return hyperplane_classifier(w, draw(dyadic) / 2)


@st.composite
def relu_nets(draw):
    def layer(activation):
        rows = draw(st.tuples(st.tuples(dyadic, dyadic), st.tuples(dyadic, dyadic)))
        return make_layer(rows, draw(st.tuples(dyadic, dyadic)), activation)

    return threshold_net_classifier(
        [layer("relu"), layer("none")], draw(st.sampled_from([Q(1, 8), Q(1, 16)]))
    )


@given(
    f=st.one_of(planes(), relu_nets()),
    x=centers,
    ceiling=st.sampled_from([Q(1, 2), Q(1), Q(3, 2)]),
    metric=st.sampled_from(METRICS),
)
@settings(deadline=None, max_examples=40)
def test_random_planes_and_nets_match_the_reference(f, x, ceiling, metric):
    assert_streams_match(x, f, ceiling, metric, range(5))
