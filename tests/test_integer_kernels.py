"""The integer kernels against the former Fraction/Interval evaluators.

Nets, hyperplanes, distances and the trained nn point rule now compute on
integer numerators over a common denominator.  The references in
``oracles`` are the evaluators they replaced, so every result must be
equal, not merely consistent: the same envelope, the same color, the same
interval and the same rational.
"""

from __future__ import annotations

from fractions import Fraction as Q

from hypothesis import example, given, settings, strategies as st

from boxcert import (
    Box,
    Interval,
    MetricKind,
    Sample,
    dist_point,
    dist_range,
    hyperplane_classifier,
    make_layer,
    nn_learner,
    threshold_net_classifier,
)
from boxcert.numerics import common_denominator

from oracles import (
    ref_dist_point,
    ref_dist_range,
    ref_hyperplane_eval_box,
    ref_hyperplane_eval_point,
    ref_net_eval_box,
    ref_net_eval_point,
    ref_nn_eval_point,
)

METRICS = st.sampled_from([MetricKind.MAX, MetricKind.EUCLID_SQ])

# Mixed, non-dyadic denominators, with zero drawn often.
RATIONALS = st.one_of(
    st.just(Q(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


@st.composite
def boxes(draw, dims):
    """Boxes with negative, non-dyadic and degenerate sides."""
    sides = []
    for _ in range(dims):
        a = draw(RATIONALS)
        b = draw(st.one_of(st.just(a), RATIONALS))
        sides.append(Interval(min(a, b), max(a, b)))
    return Box(tuple(sides))


def points(dims):
    return st.tuples(*[RATIONALS] * dims)


@st.composite
def nets(draw):
    """Layers for a 1-3 layer net with k = 1-3 outputs."""
    widths = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 3)) + 1)]
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        weights = [[draw(RATIONALS) for _ in range(n_in)] for _ in range(n_out)]
        bias = [draw(RATIONALS) for _ in range(n_out)]
        layers.append(make_layer(weights, bias, draw(st.sampled_from(["relu", "none"]))))
    margin = draw(st.fractions(min_value=Q(1, 12), max_value=2, max_denominator=12))
    return layers, margin


def sample_corners(box: Box):
    """The low corner, the high corner and the midpoint of a box."""
    return [tuple(s.lo for s in box.sides), tuple(s.hi for s in box.sides), box.midpoint]


def test_common_denominator():
    assert common_denominator([Q(1, 6), Q(-3, 4), Q(2)]) == (12, [2, -9, 24])
    assert common_denominator([]) == (1, [])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), spec=nets())
def test_net_matches_interval_evaluator(data, spec):
    layers, margin = spec
    f = threshold_net_classifier(layers, margin)
    box = data.draw(boxes(layers[0].in_dim))
    assert f.eval_box(box) == ref_net_eval_box(layers, margin, box)
    for p in sample_corners(box) + [data.draw(points(layers[0].in_dim))]:
        assert f.eval_point(p) == ref_net_eval_point(layers, margin, p)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    w=st.lists(RATIONALS, min_size=1, max_size=3).filter(lambda w: any(w)),
    b=RATIONALS,
)
def test_hyperplane_matches_interval_evaluator(data, w, b):
    f = hyperplane_classifier(w, b)
    box = data.draw(boxes(len(w)))
    assert f.eval_box(box) == ref_hyperplane_eval_box(w, b, box)
    for p in sample_corners(box) + [data.draw(points(len(w)))]:
        assert f.eval_point(p) == ref_hyperplane_eval_point(w, b, p)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dims=st.integers(1, 3), metric=METRICS)
def test_distances_match_interval_evaluator(data, dims, metric):
    box = data.draw(boxes(dims))
    x = data.draw(points(dims))
    assert dist_range(box, x, metric) == ref_dist_range(box, x, metric)
    y = data.draw(points(dims))
    got = dist_point(x, y, metric)
    assert isinstance(got, Q)
    assert got == ref_dist_point(x, y, metric)


# Coarse grids and margins that are multiples of their spacing make exact
# distance ties and exact margin boundaries (d1 + margin == d2) common.  The
# sample sits on halves or thirds and the query may sit on sevenths, whose
# denominator divides neither, so the point rule must rescale both.
SAMPLE_GRID = st.sampled_from(
    sorted({Q(n, 2) for n in range(-3, 4)} | {Q(n, 3) for n in range(-4, 5)})
)
QUERY_GRID = st.one_of(SAMPLE_GRID, st.sampled_from([Q(n, 7) for n in range(-7, 8)]), RATIONALS)


@settings(max_examples=300, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.tuples(SAMPLE_GRID, SAMPLE_GRID), st.integers(0, 2)), min_size=1, max_size=5
    ),
    x=st.tuples(QUERY_GRID, QUERY_GRID),
    margin=st.sampled_from([Q(1, 4), Q(1, 2), Q(1), Q(1, 3), Q(1, 7)]),
    metric=METRICS,
)
# A sample on thirds, a query on sevenths: d2 - d1 = 5/21 - 2/21 is exactly
# the margin, so the rule stays silent.
@example(
    pts=[((Q(1, 3), Q(0)), 0), ((Q(2, 3), Q(0)), 1)],
    x=(Q(3, 7), Q(0)),
    margin=Q(1, 7),
    metric=MetricKind.MAX,
)
def test_nn_point_rule_matches_envelope(pts, x, margin, metric):
    trained = nn_learner(margin, k=3, metric=metric).train(Sample(tuple(pts)))
    assert trained.eval_point(x) == ref_nn_eval_point(pts, x, margin, metric)
