"""The contract every shipped box and family evaluator keeps.

``IntervalClassifier``'s docstring names what the walkers require of a box
evaluator: soundness at every point of a box, inclusion isotonicity, which
is Moore's condition on interval extensions (R. E. Moore, *Interval
Analysis*, 1966), and no fuel.  Every shipped one is also exact on a point
box, so a sound but looser envelope fails too.  A learner's family
evaluator is the same kind of extension in each added box, and it ignores
the order of the additions.

Each property runs over every shipped evaluator.  A new evaluator joins the
suite as one more branch of ``box_evaluators`` or ``learners``, and one
more entry of ``SHIPPED_BOX_EVALUATORS`` or ``SHIPPED_LEARNERS``.  Corners
and points lie on the 1/8 grid, and the nn margins are 1, 2 or 4 grid steps
of distance, so ties at the margin are common.
"""

from __future__ import annotations

import inspect
import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from boxcert import (
    Box,
    ColorEnvelope,
    MetricKind,
    Sample,
    constant_classifier,
    hyperplane_classifier,
    majority_learner,
    make_layer,
    nn_learner,
    threshold_net_classifier,
)

from test_integer_kernels import SHARED_UNIT, inside, nets, sample_corners

GRID = st.integers(-8, 8).map(lambda n: Q(n, 8))
QUARTERS = st.integers(0, 4)


def grid_points(dims):
    return st.tuples(*[GRID] * dims)


@st.composite
def grid_boxes(draw, dims, point=False):
    """A box with corners on the grid; with ``point``, a point box."""
    lo, hi = draw(grid_points(dims)), draw(grid_points(dims))
    if point:
        return Box.around(lo)
    return Box.from_bounds([(min(a, b), max(a, b)) for a, b in zip(lo, hi)])


@st.composite
def nn_learners(draw, k):
    """nn under either metric, its margin 1, 2 or 4 grid steps of distance."""
    metric = draw(st.sampled_from([MetricKind.MAX, MetricKind.EUCLID_SQ]))
    unit = Q(1, 8) if metric is MetricKind.MAX else Q(1, 64)
    return nn_learner(draw(st.sampled_from([1, 2, 4])) * unit, k=k, metric=metric)


@st.composite
def learners(draw):
    """nn under either metric, or majority, with k from 1 to 3."""
    k = draw(st.integers(1, 3))
    if draw(st.integers(0, 2)) == 0:
        return majority_learner(k)
    return draw(nn_learners(k))


def labeled(dims, k):
    return st.tuples(grid_points(dims), st.integers(0, k - 1))


@st.composite
def box_evaluators(draw):
    """A hyperplane, a net (``nets`` draws a linear or a relu output), a
    constant classifier with a color or bottom, or a trained nn under
    either metric.  Hyperplane weights are halves, so grid points often lie
    on the plane."""
    kind = draw(st.sampled_from(["hyperplane", "net", "constant", "nn"]))
    dims = draw(st.integers(1, 3))
    if kind == "hyperplane":
        halves = st.integers(-4, 4).map(lambda n: Q(n, 2))
        return hyperplane_classifier(
            draw(st.lists(halves, min_size=dims, max_size=dims).filter(any)), draw(GRID)
        )
    if kind == "net":
        return threshold_net_classifier(*draw(nets()))
    if kind == "constant":
        return constant_classifier(3, draw(st.sampled_from([None, 0, 2])), dims=dims)
    L = draw(nn_learners(draw(st.integers(1, 3))))
    dims = min(dims, 2)
    return L.train(Sample(tuple(draw(st.lists(labeled(dims, L.k), min_size=1, max_size=4)))))


@st.composite
def box_cases(draw, point=False):
    """A box evaluator and a grid box of its dimension, or a grid point."""
    f = draw(box_evaluators())
    return f, draw(grid_points(f.dims) if point else grid_boxes(f.dims))


@st.composite
def family_cases(draw, point=False):
    """A learner, a sample of up to 3 points, 1 to 3 labeled added boxes
    (with ``point``, point boxes) and a query point, in 1-D or 2-D."""
    L = draw(learners())
    dims = draw(st.integers(1, 2))
    sample = Sample(tuple(draw(st.lists(labeled(dims, L.k), max_size=3))))
    added = st.tuples(grid_boxes(dims, point), st.integers(0, L.k - 1))
    return L, sample, draw(st.lists(added, min_size=1, max_size=3)), draw(grid_points(dims))


def holds(envelope, answer) -> bool:
    """The envelope allows a point's answer: its color, or bottom."""
    return envelope.maybe_bot if answer.is_bot else answer.color in envelope.colors


def point_envelope(answer) -> ColorEnvelope:
    """The exact envelope of one point's answer: ``({c}, False)``, or
    ``(∅, True)`` for bottom."""
    if answer.committed:
        return ColorEnvelope(frozenset({answer.color}), False)
    return ColorEnvelope(frozenset(), True)


def clamp(y, box: Box):
    """The point of the box nearest ``y``, which may have more coordinates
    than the box has sides."""
    return tuple(min(max(c, s.lo), s.hi) for c, s in zip(y, box.sides))


def probes(box: Box, y):
    """Every corner of a box, its midpoint, and its point nearest ``y``."""
    sides = box.sides
    yield from itertools.product(*[(s.lo, s.hi) for s in sides])
    yield tuple((s.lo + s.hi) / 2 for s in sides)
    yield clamp(y, box)


ORIGIN = (Q(0), Q(0))
# The runner-up is exactly one margin behind the nearest point at the
# origin, under either metric.
RUNNER_UP = Sample(((ORIGIN, 0), ((Q(1), Q(0)), 1)))
# A label-0 point at 0 and a label-1 point added at 1/2: at 0, retraining
# ties at margin 1/2 under max and 1/4 under euclid-sq, so it is bottom.
LONE_ZERO = Sample((((Q(0),), 0),))
ONE_AT_HALF = [(Box.around((Q(1, 2),)), 1)]
SHARED_NET = threshold_net_classifier(SHARED_UNIT, Q(1))
# Colors 0 at 0 and 1 at 1: [0, 1] holds both, and [0, 1/8] only color 0.
SPLIT_NN = nn_learner(Q(1, 8)).train(Sample((((Q(0),), 0), ((Q(1),), 1))))


# ------------------------------------------------------------ box evaluators


# One named instance of each shipped evaluator.  A signature is fixed by
# the evaluator's kind, so one instance of each kind checks it.
SHIPPED_BOX_EVALUATORS = {
    "hyperplane": hyperplane_classifier((Q(1), Q(-1)), Q(0)),
    "net-linear": SHARED_NET,
    "net-relu": threshold_net_classifier([make_layer([[1], [-1]], [0, 0], "relu")], Q(1, 8)),
    "constant": constant_classifier(3, 0, dims=2),
    "constant-bottom": constant_classifier(3, None, dims=2),
    "nn-max": nn_learner(Q(1), k=3, metric=MetricKind.MAX).train(RUNNER_UP),
    "nn-euclid-sq": nn_learner(Q(1), k=3, metric=MetricKind.EUCLID_SQ).train(RUNNER_UP),
}
SHIPPED_LEARNERS = {
    "nn-max": nn_learner(Q(1, 8), k=2, metric=MetricKind.MAX),
    "nn-euclid-sq": nn_learner(Q(1, 64), k=2, metric=MetricKind.EUCLID_SQ),
    "majority": majority_learner(2),
}


def assert_takes_no_fuel(evaluator, arity):
    """The evaluator takes ``arity`` plain positional parameters with no
    default, so no fuel can slip in."""
    plain = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
    params = inspect.signature(evaluator).parameters.values()
    assert [(p.kind, p.default) for p in params] == [plain] * arity


@pytest.mark.parametrize("f", SHIPPED_BOX_EVALUATORS.values(), ids=SHIPPED_BOX_EVALUATORS.keys())
def test_box_evaluators_take_no_fuel(f):
    """Each box evaluator is a function of its point or box alone, so the
    walkers may resume across fuels and memoize envelopes."""
    assert_takes_no_fuel(f.eval_point, 1)
    assert_takes_no_fuel(f.eval_box, 1)


@pytest.mark.parametrize("L", SHIPPED_LEARNERS.values(), ids=SHIPPED_LEARNERS.keys())
def test_family_evaluators_take_no_fuel(L):
    """Each family evaluator is a function of the sample, the additions and
    the point alone."""
    assert_takes_no_fuel(L.family_at, 3)


@settings(max_examples=300, deadline=None)
@given(case=box_cases(), y=grid_points(3))
# SHARED_UNIT's margin row is 1 everywhere, so at margin 1 every point ties.
@example(case=(SHARED_NET, Box.from_bounds([(-1, 1)])), y=ORIGIN)
@example(case=(SPLIT_NN, Box.from_bounds([(0, 1)])), y=ORIGIN)
def test_box_envelope_holds_its_points(case, y):
    """The answer at each corner, at the midpoint and at the grid point
    nearest a drawn one is in the box's envelope; a committed envelope thus
    commits every point it holds."""
    f, box = case
    envelope = f.eval_box(box)
    for x in probes(box, y):
        assert holds(envelope, f.eval_point(x))


@settings(max_examples=200, deadline=None)
@given(case=box_cases(), path=st.lists(st.booleans(), max_size=8))
@example(case=(SPLIT_NN, Box.from_bounds([(0, Q(1, 8))])), path=[False] * 3)
def test_sub_box_envelopes_lie_inside_their_parents(case, path):
    """Along a path of up to 8 bisections, each taking the low or the high
    half: a sub-box allows no outcome its parent rules out."""
    f, box = case
    for high in path:
        if box.width == 0:
            break
        child = box.bisect()[high]
        assert inside(f.eval_box(child), f.eval_box(box))
        box = child


@settings(max_examples=300, deadline=None)
@given(case=box_cases(point=True))
@example(case=(constant_classifier(3, None, dims=2), ORIGIN))
@example(case=(hyperplane_classifier((Q(1), Q(-1)), Q(0)), (Q(1, 2), Q(1, 2))))
@example(case=(nn_learner(Q(1), k=3, metric=MetricKind.MAX).train(RUNNER_UP), ORIGIN))
@example(case=(nn_learner(Q(1), k=3, metric=MetricKind.EUCLID_SQ).train(RUNNER_UP), ORIGIN))
@example(case=(SHARED_NET, (Q(1, 3),)))
def test_point_box_envelope_is_the_point_answer(case):
    """Every shipped box evaluator is exact on a point box."""
    f, x = case
    assert f.eval_box(Box.around(x)) == point_envelope(f.eval_point(x))


# ------------------------------------------------------------ family evaluators


@settings(max_examples=200, deadline=None)
@given(case=family_cases())
@example(case=(nn_learner(Q(1, 2)), LONE_ZERO, [(Box.from_bounds([(Q(1, 2), 1)]), 1)], (Q(0),)))
def test_family_envelope_holds_every_placement(case):
    """Each added point placed at its box's low corner, high corner,
    midpoint or point nearest the query point retrains to an answer the
    family envelope allows."""
    L, sample, additions, x = case
    envelope = L.family_at(sample, additions, x)
    spots = [
        [(p, label) for p in [*sample_corners(box), clamp(x, box)]] for box, label in additions
    ]
    for placement in itertools.product(*spots):
        assert holds(envelope, L.train(sample.extend(placement)).eval_point(x))


@settings(max_examples=200, deadline=None)
@given(
    case=family_cases(),
    which=st.integers(0, 2),
    shares=st.lists(st.tuples(QUARTERS, QUARTERS), min_size=2, max_size=2),
)
# A tied majority vote whatever the added box: bottom on the box and on
# every sub-box.
@example(
    case=(majority_learner(2), LONE_ZERO, [(Box.from_bounds([(0, 1)]), 1)], (Q(0),)),
    which=0,
    shares=[(0, 2), (0, 4)],
)
def test_family_envelope_shrinks_with_each_added_box(case, which, shares):
    """Shrinking one added box to a sub-box, which keeps the span between
    two quarter marks of each side, gives an envelope inside its parent's.
    The dense side's cover walk splits only boxes that fail to commit, and
    relies on this."""
    L, sample, additions, x = case
    i = which % len(additions)
    parent, label = additions[i]
    bounds = [
        (s.lo + min(ab) * (s.hi - s.lo) / 4, s.lo + max(ab) * (s.hi - s.lo) / 4)
        for s, ab in zip(parent.sides, shares)
    ]
    shrunk = additions[:i] + [(Box.from_bounds(bounds), label)] + additions[i + 1 :]
    assert inside(L.family_at(sample, shrunk, x), L.family_at(sample, additions, x))


@settings(max_examples=200, deadline=None)
@given(case=family_cases(point=True))
@example(case=(majority_learner(2), Sample(()), [(Box.around(ORIGIN), c) for c in (0, 1)], ORIGIN))
@example(case=(nn_learner(Q(1, 2), k=3), LONE_ZERO, ONE_AT_HALF, (Q(0),)))
@example(
    case=(nn_learner(Q(1, 4), k=3, metric=MetricKind.EUCLID_SQ), LONE_ZERO, ONE_AT_HALF, (Q(0),))
)
def test_family_at_on_point_boxes_equals_retraining(case):
    """With every added box a point, the family envelope is the retrained
    answer at the query point, exactly."""
    L, sample, additions, x = case
    points = [(sample_corners(box)[0], label) for box, label in additions]
    retrained = L.train(sample.extend(points))
    assert L.family_at(sample, additions, x) == point_envelope(retrained.eval_point(x))


@settings(max_examples=100, deadline=None)
@given(case=family_cases(), order=st.permutations(range(3)))
def test_family_envelope_ignores_the_order_of_additions(case, order):
    """The searches try each labeled multiset of additions once, in one
    order, and rely on this."""
    L, sample, additions, x = case
    reordered = [additions[i] for i in order if i < len(additions)]
    assert L.family_at(sample, reordered, x) == L.family_at(sample, additions, x)
