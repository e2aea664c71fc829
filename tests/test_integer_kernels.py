"""The integer kernels against the former Fraction/Interval evaluators.

Nets, hyperplanes, distances and the trained nn point rule now compute on
integer numerators over a common denominator, and a ``Box`` holds integer
corners over one denominator that doubles at each bisection.  The ball
tests compare a box's least distance with the radius in integers.  The
references in ``oracles`` are the evaluators and the box operations they
replaced, and for the nn point rule the direct scan ``nn_color``, so every
result must be equal, not merely consistent: the same envelope, the same
color, the same interval, the same rational, the same halves and the same
keep and ``box_disjoint`` answers.  The net's box evaluator bounds each
score difference as one margin row, so its reference is
``ref_net_margin_eval_box``; the per-score ``ref_net_eval_box`` it
replaced must contain it, and equals it under an output relu.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from boxcert import (
    Box,
    Interval,
    MetricKind,
    Sample,
    ball,
    closed_ball,
    dist_point,
    dist_range,
    hyperplane_classifier,
    make_layer,
    nn_learner,
    open_ball_overt,
    threshold_net_classifier,
)
from boxcert.numerics import common_denominator

from oracles import (
    ref_box_bisect,
    ref_box_contains,
    ref_box_width,
    ref_dist_point,
    ref_dist_range,
    ref_hyperplane_eval_box,
    ref_hyperplane_eval_point,
    ref_net_eval_box,
    ref_net_eval_point,
    ref_net_margin_eval_box,
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
def nets(draw, output=None):
    """Layers for a 1-3 layer net with k = 1-3 outputs; ``output`` fixes
    the last layer's activation."""
    widths = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 3)) + 1)]
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        weights = [[draw(RATIONALS) for _ in range(n_in)] for _ in range(n_out)]
        bias = [draw(RATIONALS) for _ in range(n_out)]
        layers.append(make_layer(weights, bias, draw(st.sampled_from(["relu", "none"]))))
    if output is not None:
        last = layers[-1]
        layers[-1] = make_layer(last.weights, last.bias, output)
    margin = draw(st.fractions(min_value=Q(1, 12), max_value=2, max_denominator=12))
    return layers, margin


@st.composite
def net_cases(draw):
    """A net, a box of its input width and a point."""
    layers, margin = draw(nets())
    dims = layers[0].in_dim
    return layers, margin, draw(boxes(dims)), draw(points(dims))


# One relu unit h = relu(x) feeds both scores, s0 = h + 1 and s1 = h.  The
# margin row s0 - s1 is 1 everywhere, so on x in [-1, 1] the box commits to
# color 0 at margin 1/2; the per-score ends 1 - 1 and 2 - 0 leave it
# uncommitted.  At margin 1 the row sits exactly on the margin, so every
# point is bottom, while the per-score ends still admit color 0.
SHARED_UNIT = [
    make_layer([[1]], [0], "relu"),
    make_layer([[1], [1]], [1, 0], "none"),
]


# A hidden unit whose weights are all zero is the constant relu(1/2), and
# scores 0 and 1 share their weights, so the margin row s0 - s1 cancels to
# its bias 1.
ZERO_TERMS = [
    make_layer([[0, 0], [1, -1]], [Q(1, 2), 0], "relu"),
    make_layer([[2, 1], [2, 1], [1, -1]], [1, 0, Q(-1, 3)], "none"),
]


# s0 = x + 1 over s1 = 0: on x in [0, 1] the margin row runs from 1 to 2,
# so at margin 1 color 0 is possible, but its least value only ties the
# margin (x = 0 is bottom), so the box does not commit.
TIED_LOW_END = [make_layer([[1], [0]], [1, 0], "none")]


def sample_corners(box: Box):
    """The low corner, the high corner and the midpoint of a box."""
    sides = box.sides
    lo, hi = tuple(s.lo for s in sides), tuple(s.hi for s in sides)
    return [lo, hi, tuple((a + b) / 2 for a, b in zip(lo, hi))]


def test_common_denominator():
    assert common_denominator([Q(1, 6), Q(-3, 4), Q(2)]) == (12, [2, -9, 24])
    assert common_denominator([]) == (1, [])


@settings(max_examples=200, deadline=None)
@given(case=net_cases())
@example(case=(SHARED_UNIT, Q(1, 2), Box.from_bounds([(-1, 1)]), (Q(1, 3),)))
@example(case=(SHARED_UNIT, Q(1), Box.from_bounds([(-1, 1)]), (Q(1, 3),)))
@example(case=(ZERO_TERMS, Q(1, 2), Box.from_bounds([(-1, 1), (0, 2)]), (Q(1, 3), Q(-1, 2))))
@example(case=(TIED_LOW_END, Q(1), Box.from_bounds([(0, 1)]), (Q(1, 2),)))
def test_net_matches_interval_evaluator(case):
    layers, margin, box, point = case
    f = threshold_net_classifier(layers, margin)
    assert f.eval_box(box) == ref_net_margin_eval_box(layers, margin, box)
    for p in sample_corners(box) + [point]:
        assert f.eval_point(p) == ref_net_eval_point(layers, margin, p)


@st.composite
def hyperplane_cases(draw):
    """Weights, not all zero, a bias, a box of their width and a point."""
    w = draw(st.lists(RATIONALS, min_size=1, max_size=3).filter(any))
    return w, draw(RATIONALS), draw(boxes(len(w))), draw(points(len(w)))


@settings(max_examples=200, deadline=None)
@given(case=hyperplane_cases())
# The zero weight is dropped from the compiled row.
@example(case=([Q(1, 2), Q(0), Q(-2)], Q(1, 3), Box.from_bounds([(-1, 1)] * 3), (Q(1),) * 3))
def test_hyperplane_matches_interval_evaluator(case):
    w, b, box, point = case
    f = hyperplane_classifier(w, b)
    assert f.eval_box(box) == ref_hyperplane_eval_box(w, b, box)
    for p in sample_corners(box) + [point]:
        assert f.eval_point(p) == ref_hyperplane_eval_point(w, b, p)


@st.composite
def distance_cases(draw):
    """A box, two points of its width and a metric."""
    dims = draw(st.integers(1, 3))
    return draw(boxes(dims)), draw(points(dims)), draw(points(dims)), draw(METRICS)


@settings(max_examples=200, deadline=None)
@given(case=distance_cases())
# x has denominator 6.  The first box's denominator 12 is a multiple of it,
# so their lcm is the box's own; the second box's 8 is not, so the kernel
# rescales both to their lcm 24.
@example(
    case=(
        Box.from_bounds([(Q(1, 12), Q(5, 12)), (Q(-7, 12), Q(1, 4))]),
        (Q(1, 3), Q(-1, 2)),
        (Q(0), Q(1)),
        MetricKind.EUCLID_SQ,
    )
)
@example(
    case=(
        Box.from_bounds([(Q(1, 8), Q(3, 8)), (Q(-1), Q(1, 8))]),
        (Q(1, 3), Q(-1, 2)),
        (Q(0), Q(1)),
        MetricKind.MAX,
    )
)
def test_distances_match_interval_evaluator(case):
    box, x, y, metric = case
    assert dist_range(box, x, metric) == ref_dist_range(box, x, metric)
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
LABELED_POINTS = st.tuples(st.tuples(SAMPLE_GRID, SAMPLE_GRID), st.integers(0, 2))
MARGINS = st.sampled_from([Q(1, 4), Q(1, 2), Q(1), Q(1, 3), Q(1, 7)])


@settings(max_examples=300, deadline=None)
@given(
    pts=st.lists(LABELED_POINTS, min_size=1, max_size=5),
    x=st.tuples(QUERY_GRID, QUERY_GRID),
    margin=MARGINS,
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


# ------------------------------------------------------------ integer boxes

# Root denominators: 192, as at the sweep's off-dyadic centers; 7, which
# has no factor 2; and 12, a factor 4 times a factor 3.
@st.composite
def rooted_boxes(draw, dims):
    """Bounds on one of the denominators 192, 7 and 12, negative
    coordinates included, with a side sometimes degenerate."""
    den = draw(st.sampled_from([192, 7, 12]))
    bounds = []
    for _ in range(dims):
        a = draw(st.integers(-3 * den, 3 * den))
        b = draw(st.one_of(st.just(a), st.integers(-3 * den, 3 * den)))
        bounds.append((Q(min(a, b), den), Q(max(a, b), den)))
    return Box.from_bounds(bounds)


@st.composite
def walked_boxes(draw, dims):
    """A rooted box and the box 0-14 bisections below it, each step
    taking the low or the high half, with the ``Interval`` sides that the
    reference bisection reaches along the same path."""
    box = draw(rooted_boxes(dims))
    sides = box.sides
    for high in draw(st.lists(st.booleans(), max_size=14)):
        if box.width == 0:
            break
        box, sides = box.bisect()[high], ref_box_bisect(sides)[high]
    return box, sides


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dims=st.integers(1, 3))
def test_box_matches_fraction_box(data, dims):
    box, sides = data.draw(walked_boxes(dims))
    assert box.sides == sides
    assert box.width == ref_box_width(sides)
    assert box.dims == dims
    probes = sample_corners(box) + [data.draw(points(dims)) for _ in range(3)]
    probes += [tuple(s.lo - Q(1, 7) for s in sides), tuple(s.hi + Q(1, 192) for s in sides)]
    for p in probes:
        assert box.contains(p) is ref_box_contains(sides, p)
    assume(box.width > 0)
    lo, hi = box.bisect()
    ref_lo, ref_hi = ref_box_bisect(sides)
    # Equal halves as point sets pin the split axis, lowest index on ties.
    assert (lo.sides, hi.sides) == (ref_lo, ref_hi)
    assert (lo, hi) == (Box(ref_lo), Box(ref_hi))
    assert (lo.den, hi.den) == (2 * box.den, 2 * box.den)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dims=st.integers(1, 3))
def test_bisected_box_equals_and_hashes_as_its_bounds(data, dims):
    box, sides = data.draw(walked_boxes(dims))
    same = Box.from_bounds([(s.lo, s.hi) for s in sides])
    assert same == box and hash(same) == hash(box)
    assert same.den <= box.den
    assert Box(sides) == box and {box: 1}[same] == 1


@st.composite
def walked_cases(draw):
    """A net, a walked box of its input width, a distance center and a
    hyperplane over the same width."""
    layers, margin = draw(nets())
    dims = layers[0].in_dim
    box, _ = draw(walked_boxes(dims))
    x = draw(st.tuples(*[st.fractions(-3, 3, max_denominator=192)] * dims))
    w = draw(st.lists(RATIONALS, min_size=dims, max_size=dims).filter(any))
    return layers, margin, box, x, w, draw(RATIONALS)


@settings(max_examples=200, deadline=None)
@given(case=walked_cases(), metric=METRICS)
@example(
    case=(SHARED_UNIT, Q(1, 2), Box.from_bounds([(-1, 1)]).bisect()[1], (Q(1, 7),), [Q(1)], Q(0)),
    metric=MetricKind.MAX,
)
def test_walked_boxes_match_interval_evaluators(case, metric):
    layers, margin, box, x, w, b = case
    assert dist_range(box, x, metric) == ref_dist_range(box, x, metric)
    f = threshold_net_classifier(layers, margin)
    assert f.eval_box(box) == ref_net_margin_eval_box(layers, margin, box)
    assert hyperplane_classifier(w, b).eval_box(box) == ref_hyperplane_eval_box(w, b, box)


# ------------------------------------------------------------ margin rows


def inside(inner, outer) -> bool:
    """``inner`` allows no color that ``outer`` rules out, and commits
    wherever ``outer`` does."""
    return inner.colors <= outer.colors and (outer.maybe_bot or not inner.maybe_bot)


@settings(max_examples=200, deadline=None)
@given(case=net_cases())
@example(case=(SHARED_UNIT, Q(1, 2), Box.from_bounds([(-1, 1)]), (Q(0),)))
def test_margin_envelope_lies_inside_per_score_envelope(case):
    layers, margin, box, _ = case
    assert inside(
        threshold_net_classifier(layers, margin).eval_box(box),
        ref_net_eval_box(layers, margin, box),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), spec=nets(output="relu"))
def test_relu_output_envelope_equals_per_score_envelope(data, spec):
    layers, margin = spec
    box = data.draw(boxes(layers[0].in_dim))
    f = threshold_net_classifier(layers, margin)
    assert f.eval_box(box) == ref_net_eval_box(layers, margin, box)


# ------------------------------------------------------------ ball tests


def check_ball_tests(x, r, metric, box):
    """The integer ball tests at radius r give the answers of the former
    tests, which compare ``ref_dist_range(...).lo`` with r."""
    near = ref_dist_range(box, x, metric).lo
    closed = closed_ball(x, r, metric)
    assert closed.compact.keep(box) is (near <= r)
    assert closed.overt.box_disjoint(box) is (near > r)
    assert ball(x, r, metric).compact.keep(box) is (near <= r)
    assert open_ball_overt(x, r, metric).box_disjoint(box) is (near >= r)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dims=st.integers(1, 3), metric=METRICS)
def test_ball_tests_match_interval_tests(data, dims, metric):
    """On boxes 0-14 bisections below a ball's bounding box, at the ball's
    radius and at radii equal to the box's least and greatest distance."""
    den = data.draw(st.sampled_from([192, 7, 12]))
    x = tuple(Q(data.draw(st.integers(-3 * den, 3 * den)), den) for _ in range(dims))
    r = data.draw(st.fractions(min_value=Q(1, 192), max_value=2, max_denominator=192))
    box = closed_ball(x, r, metric).compact.bounding
    for high in data.draw(st.lists(st.booleans(), max_size=14)):
        box = box.bisect()[high]
    dist = ref_dist_range(box, x, metric)
    for radius in (r, dist.lo, dist.hi):
        check_ball_tests(x, radius, metric, box)


# Boxes whose least distance from the center is exactly the radius.
EXACT = [
    (MetricKind.MAX, (Q(-1, 7), Q(5, 12)), Q(1, 4), [(Q(3, 28), 1), (0, 1)]),
    (MetricKind.EUCLID_SQ, (Q(-1, 7), Q(5, 12)), Q(5, 72), [(Q(3, 28), 1), (Q(1, 2), 1)]),
    (MetricKind.MAX, (Q(-37, 192),), Q(5, 192), [(Q(-1, 6), 0)]),
    (MetricKind.EUCLID_SQ, (Q(-37, 192),), Q(25, 192**2), [(Q(-1, 6), 0)]),
]


@pytest.mark.parametrize("metric, x, r, bounds", EXACT)
def test_ball_tests_at_the_radius(metric, x, r, bounds):
    box = Box.from_bounds(bounds)
    assert ref_dist_range(box, x, metric).lo == r
    check_ball_tests(x, r, metric, box)
    closed = closed_ball(x, r, metric)
    assert closed.compact.keep(box) and not closed.overt.box_disjoint(box)
    assert open_ball_overt(x, r, metric).box_disjoint(box)
