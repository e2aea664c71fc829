"""Radius streams against the one-membership-per-radius reference scans.

``radius_lower`` and ``radius_upper`` search once per fuel for the nearest
grid points off the center's color.  The references below ask the
original membership question at every grid radius, through the scans in
``oracles``.  Both must give the same value at every fuel tested.

The search itself, ``_nearest_off_color``, keys its heap on integers over
one scale per walk, and resumes across fuels inside a query context.  Its
keys must order boxes exactly as their ``Fraction`` distances do, and a
resumed walk must return what a fresh walk returns, over any order of
fuels, without bisecting a box twice in a rising fuel loop.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from boxcert import (
    Box,
    MetricKind,
    Verdict,
    any_of,
    closed_ball,
    constant_classifier,
    dyadic_step,
    exists_value,
    forall_value,
    hyperplane_classifier,
    make_layer,
    radius_lower,
    radius_upper,
    threshold_net_classifier,
)
from boxcert.kernel import _query
from boxcert.numerics import distance_kernel
from boxcert.verify import _nearest_off_color, _query_scope, _radius_keys

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
        base = f.eval_point(x)
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
    def layer(outputs, activation):
        rows = draw(st.tuples(*[st.tuples(dyadic, dyadic)] * outputs))
        return make_layer(rows, draw(st.tuples(*[dyadic] * outputs)), activation)

    k = draw(st.sampled_from([2, 3]))
    return threshold_net_classifier(
        [layer(2, "relu"), layer(k, "none")], draw(st.sampled_from([Q(1, 8), Q(1, 16)]))
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


odd_coords = st.builds(Q, st.integers(-9, 9), st.sampled_from([1, 3, 5, 7, 9, 15]))
CEILINGS = st.sampled_from([Q(1, 3), Q(1, 2), Q(5, 7), Q(1), Q(3, 2), Q(2)])


@given(
    x=st.lists(odd_coords, min_size=1, max_size=3).map(tuple),
    ceiling=CEILINGS,
    metric=st.sampled_from(METRICS),
    fuel=st.integers(0, 8),
    path=st.lists(st.booleans(), max_size=40),
)
@example(x=(Q(1, 3),), ceiling=Q(1), metric=MetricKind.EUCLID_SQ, fuel=5, path=[])
@settings(deadline=None, max_examples=100)
def test_heap_keys_order_walk_boxes_as_their_distances(x, ceiling, metric, fuel, path):
    """Down a random path from the ball's bounding box to a leaf the walk
    can reach, every box and its sibling get the key ``S * near / scale``;
    so the keys order them as their ``Fraction`` distances do, and ``S``
    is a multiple of the scale of the deepest box."""
    root = closed_ball(x, ceiling, metric).compact.bounding
    S, key = _radius_keys(x, root, metric, fuel)
    distance = distance_kernel(x, metric)
    boxes, box, turns = [root], root, iter(path)
    while not box.within(dyadic_step(fuel)):
        halves = box.bisect()
        boxes += halves
        box = halves[next(turns, False)]
    near, _, scale = distance(box)
    assert S % scale == 0
    keys = [key(b) for b in boxes]
    exact = [Q(*distance(b)[::2]) for b in boxes]
    assert [Q(k, S) for k in keys] == exact
    for a in range(len(boxes)):
        for b in range(len(boxes)):
            assert (keys[a] < keys[b]) == (exact[a] < exact[b])


def radius_walk(f, x, ceiling, metric):
    """The raw walk for color c at a fuel; outside a query context it
    walks afresh, inside one it reads and writes the saved state."""
    walk = _nearest_off_color.__wrapped__
    return lambda c, fuel: walk(x, c, f, ceiling, metric, fuel)


@given(
    f=st.one_of(planes(), relu_nets()),
    x=centers,
    ceiling=st.sampled_from([Q(1, 2), Q(1), Q(3, 2)]),
    metric=st.sampled_from(METRICS),
    calls=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 6)), min_size=2, max_size=8),
)
@settings(deadline=None, max_examples=40)
def test_resumed_radius_walks_match_fresh_walks(f, x, ceiling, metric, calls):
    """Walks for one or two colors, at fuels in any order, in one context."""
    walk = radius_walk(f, x, ceiling, metric)
    calls = [(c % f.k, fuel) for c, fuel in calls]
    # Fresh values first, outside any context: inside one, the fresh walk
    # would write the state that the resumed walk then reads.
    fresh = {call: walk(*call) for call in set(calls)}
    with _query_scope():
        for call in calls:
            assert walk(*call) == fresh[call], f"color {call[0]} at fuel {call[1]}"


RADIUS_NET = threshold_net_classifier(
    [
        make_layer([[1, 0], [0, 1], [1, -1]], [8, 8, Q(-41, 15)], "relu"),
        make_layer([[1, 1, Q(1, 2)], [2, 3, Q(1, 2)]], [-16, Q(-133687, 3360)], "none"),
    ],
    Q(1, 32),
)
WALKED = [
    (RADIUS_NET, (Q(7, 3), Q(-2, 5)), Q(2)),
    (hyperplane_classifier((Q(3, 4), Q(-1, 2)), Q(1, 5)), (Q(1, 3), Q(1, 7)), Q(3, 2)),
]


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
@pytest.mark.parametrize("f, x, ceiling", WALKED, ids=["net", "plane"])
def test_rising_fuel_loop_bisects_each_box_once(monkeypatch, f, x, ceiling, metric):
    """Each fuel walks on from the leaves of the last, not from the root,
    and saves only leaves it enumerated: within the step and not
    committing to the center's color."""
    split = Counter()
    bisect = Box.bisect

    def counted(box):
        split[box.lo, box.hi, box.den] += 1
        return bisect(box)

    monkeypatch.setattr(Box, "bisect", counted)
    c = f.eval_point(x).color
    walk = radius_walk(f, x, ceiling, metric)
    with _query_scope():
        query = _query()
        for fuel in range(9):
            walk(c, fuel)
            at, (leaves, _, _, _) = query.frontiers["radius", x, c, f, ceiling, metric]
            assert at == fuel
            for _, box in leaves:
                assert box.within(dyadic_step(fuel))
                assert f.eval_box(box).committed_color != c
    assert split and max(split.values()) == 1
