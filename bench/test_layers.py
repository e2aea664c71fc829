"""Per-layer microbenchmarks of the exact evaluators, on pytest-benchmark.

Run from the root of a checkout:

    python -m pytest bench/test_layers.py --benchmark-only

``bench/`` is outside the test paths, so the tier-1 suite does not run it.
Each benchmark times one call on fixed inputs the size the walkers see:
boxes 1/256 wide (about fuel 8) at non-dyadic offsets, a net shaped like
the ones in the benchmark's robustness sweep (2 inputs, 3 relu units,
3 scores) and a 9-point nearest-neighbor sample.  ``_nn_envelope``, the
winner analysis under nn's box and family envelopes, is timed on that
sample's distances from a point plus one added box's.  The net's
``eval_box`` is timed twice: with linear scores, whose margins it bounds as margin
rows, and with a relu on the scores, whose margins it bounds through the
score ends.  The two learner searches
are timed as whole calls: ``does_deviate`` on the unit interval at fuel 6
and on the 4-D unit box at fuel 5, where the search reads a few points of
grids up to 17**4 points large, and ``sparse_or_dense`` with two added
points at fuel 4, on a sample that the dense side certifies only after
trying every augmentation.  The ``does_deviate`` fuel loop 0..9 on the
unit interval runs in one query context, the shape of the learner
workload's ``deviate-nn-unit-fuel9``: each fuel runs only its new stage
and retrains only candidates that no earlier stage tried.  nn states that
it never deviates, so its own deviation search is empty; the three
``does_deviate`` entries run nn with that bound reset to the full search,
so they keep timing the search machinery.  Two ``sparse_or_dense`` probes
stay ``bot`` at every fuel, so both sides search everything their bounds
allow: the sample {(0, label 0), (1, label 1)} on [0, 1] with N = 3 at
fuel 6 (x = 1/8, eps = 1/4, tie margin 1/8), and {((0, 0), 0), ((2, 2),
1)} on [-1, 2]**2 with N = 2 at fuel 3 (x = (1/8, 1/8), eps = 1/4, tie
margin 1/16), both under ``max``.  ``robust_point``'s fuel loop runs on
the learner workload's ``robustPoint-nn-flip7`` instance at seed 1, in
one query context up to its flip at fuel 7, as ``boxcert verify`` runs
it: the dense side walks on from the cover frontier the last fuel left,
and the sparse side retrains each added point once.

The region layer is timed at fuel 6 on two of the sweep's
``locallyConstant`` queries: a 2-D relu net with k = 3 on small
``euclid-sq`` balls.  On ``zero`` the open ball holds colors 0 and 1, and
the no side finds both early; on ``one`` color 2 certifies, so both sides
walk their whole trees.  Each race side walker is timed on its own, for
all three colors, and so is the whole ``constant_value`` race.  Outside a
query context each of these calls walks from the root, with envelopes
evaluated afresh; every round also gets a freshly built ball, the closed
ball's cover with the open ball's enumeration from ``regions.ball``.  The
whole ``locally_constant`` fuel loop 0..12 is timed on ``bot``, a ball that
meets color 2 and the band where the net abstains, so neither side ever
commits: the shape of the sweep's slowest queries.  It runs in one query
context, as ``boxcert verify`` runs it, so each fuel resumes the walks of
the last and each box's envelope is evaluated once.  ``Box.bisect`` is
timed on the 1/256 box.

The ``_leaf`` entries time ``Box.bisect``, ``dist_range``, the closed
ball's keep test and the net's ``eval_box`` on a box as deep as the
sweep's walkers reach: 10 bisections below the bounding box of ``bot``'s
``euclid-sq`` ball, whose center has denominator 192 on one axis, taking
the half that holds the center each time.  ``CompactSet.cover_at`` is timed on ``zero``'s closed ball at fuel 6,
and the radius streams' best-first walk ``_nearest_off_color`` on the
radius workload's relu net at fuel 5, over a ceiling-2 ball; it runs
outside a query context, so each call walks afresh with a fresh envelope
memo.  The same walk's fuel loop 0..8 runs in one query context, so each
fuel walks on from the leaves the last one enumerated, and so does the lower
radius stream's: each radius it scans is the query's one ball for it,
so a radius scanned again at more fuel resumes its cover walk.  The whole
``optimal_radius`` call on that net, fuels 0..8 with ceiling 2 and
tolerance 1/64, opens its own query context, so its radius walks resume
across fuels and share one envelope memo.

To compare two commits, run this file from the root of each checkout in
turn.  ``pyproject.toml`` sets ``pythonpath = ["src"]``, which puts the
checkout's own ``src/`` ahead of ``PYTHONPATH``, so pointing
``PYTHONPATH`` at another checkout's ``src/`` still times this one.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction as Q

import pytest

from boxcert import (
    Box,
    Interval,
    MetricKind,
    Sample,
    TwoBot,
    VKSet,
    ball,
    closed_ball,
    constant_value,
    dist_point,
    dist_range,
    does_deviate,
    domain_box,
    hyperplane_classifier,
    locally_constant,
    make_layer,
    nn_learner,
    optimal_radius,
    radius_lower,
    robust_point,
    sparse_or_dense,
    threshold_net_classifier,
)
from boxcert.kernel import _fuel_loop
from boxcert.learners import _nn_envelope
from boxcert.verify import _certified_colors, _find_witnesses, _nearest_off_color, _query_scope

METRICS = [MetricKind.MAX, MetricKind.EUCLID_SQ]
X = (Q(3, 7), Q(-5, 12))
UNIT = domain_box([(0, 1)])
BOX = Box.from_bounds([(Q(101, 256), Q(102, 256)), (Q(-37, 256), Q(-36, 256))])
Y = (Q(101, 256), Q(-36, 256))
NET3 = threshold_net_classifier(
    [
        make_layer([[1, 0], [0, 1], [-1, 1]], [8, 8, Q(-25, 16)], "relu"),
        make_layer([[-1, -1, Q(1, 2)], [-2, -3, Q(1, 2)], [-3, 1, Q(1, 2)]],
                   [Q(3551, 192), Q(8969, 192), Q(3185, 192)], "none"),
    ],
    Q(1, 16),
)
BALLS = {
    "zero": ((Q(313, 384), Q(217, 128)), Q(1, 64)),
    "one": ((Q(289, 384), Q(255, 128)), Q(1, 256)),
}
BOT_BALL = ((Q(175, 192), Q(721, 384)), Q(1, 1024))
ROUNDS = 20
RADIUS_NET = threshold_net_classifier(
    [
        make_layer([[1, 0], [0, 1], [1, -1]], [8, 8, Q(-41, 15)], "relu"),
        make_layer([[1, 1, Q(1, 2)], [2, 3, Q(1, 2)]], [-16, Q(-133687, 3360)], "none"),
    ],
    Q(1, 32),
)
RADIUS_X = (Q(7, 3), Q(-2, 5))


def leaf_below(box: Box, point, depth: int) -> Box:
    """The box ``depth`` bisections below ``box`` that holds ``point``."""
    for _ in range(depth):
        lo, hi = box.bisect()
        box = lo if lo.contains(point) else hi
    return box


LEAF = leaf_below(
    closed_ball(BOT_BALL[0], BOT_BALL[1], MetricKind.EUCLID_SQ).compact.bounding, BOT_BALL[0], 10
)


def fresh_ball(name: str) -> VKSet:
    """A new ``regions.ball`` for this round, as ``locally_constant`` races it."""
    center, radius = BALLS[name]
    return ball(center, radius, MetricKind.EUCLID_SQ)


def eval_box_net(output: str):
    """The sweep-shaped net, with or without a relu on its scores."""
    return threshold_net_classifier(
        [
            make_layer([[1, 0], [0, 1], [1, 1]], [8, 8, Q(-19, 8)], "relu"),
            make_layer([[1, 0, Q(1, 2)], [0, 1, Q(-1, 3)], [Q(1, 4), Q(1, 4), 1]],
                       [Q(-8), Q(-8), Q(-3, 16)], output),
        ],
        Q(1, 8),
    )


def test_net_eval_box(benchmark):
    benchmark(eval_box_net("none").eval_box, BOX)


def test_net_eval_box_relu_output(benchmark):
    benchmark(eval_box_net("relu").eval_box, BOX)


def test_hyperplane_eval_box(benchmark):
    plane = hyperplane_classifier((Q(3, 7), Q(-2, 5)), Q(1, 3))
    benchmark(plane.eval_box, BOX)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_dist_range(benchmark, metric):
    benchmark(dist_range, BOX, X, metric)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_dist_point(benchmark, metric):
    benchmark(dist_point, Y, X, metric)


NN_POINTS = tuple(((Q(i, 3), Q(j, 5)), (i + j) % 2) for i in range(3) for j in range(3))


def test_nn_eval_point(benchmark):
    trained = nn_learner(Q(1, 16)).train(Sample(NN_POINTS))
    benchmark(trained.eval_point, (Q(1, 2), Q(1, 4)))


def test_nn_envelope(benchmark):
    x = (Q(1, 2), Q(1, 4))
    dists = [(Interval.point(dist_point(x, p, MetricKind.MAX)), label) for p, label in NN_POINTS]
    dists.append((dist_range(BOX, x, MetricKind.MAX), 1))
    benchmark(_nn_envelope, dists, Q(1, 16))


# nn states that it never deviates, which empties its own search; without
# that bound it runs the whole search machinery and finds nothing.
NN_SEARCHING = dataclasses.replace(nn_learner(Q(1, 16)), deviation_bound=None)


def test_does_deviate_nn(benchmark):
    benchmark(does_deviate, NN_SEARCHING, UNIT, 6)


def test_does_deviate_nn_4d(benchmark):
    benchmark(does_deviate, NN_SEARCHING, domain_box([(0, 1)] * 4), 5)


def deviate_loop(L, domain, max_fuel):
    """Every fuel 0..max_fuel in turn in one query context, as ``boxcert
    verify`` runs a ``doesDeviate`` query that stays unknown."""
    with _query_scope():
        return [does_deviate(L, domain, fuel).verdict for fuel in range(max_fuel + 1)]


def test_does_deviate_nn_fuel_loop(benchmark):
    verdicts = benchmark(deviate_loop, NN_SEARCHING, UNIT, 9)
    assert not any(v.committed for v in verdicts)


def test_sparse_or_dense_nn(benchmark):
    sample = Sample((((Q(9, 20),), 0), ((Q(2, 5),), 0)))
    benchmark(sparse_or_dense, nn_learner(Q(1, 100)), 2, Q(1, 5), sample, (Q(1, 2),), UNIT, 4)


def test_sparse_or_dense_nn_probe_1d(benchmark):
    sample = Sample((((Q(0),), 0), ((Q(1),), 1)))
    args = (nn_learner(Q(1, 8)), 3, Q(1, 4), sample, (Q(1, 8),), UNIT, 6)
    assert benchmark(sparse_or_dense, *args).verdict is TwoBot.BOT


def test_sparse_or_dense_nn_probe_2d(benchmark):
    sample = Sample((((Q(0), Q(0)), 0), ((Q(2), Q(2)), 1)))
    domain = domain_box([(-1, 2)] * 2)
    args = (nn_learner(Q(1, 16)), 2, Q(1, 4), sample, (Q(1, 8), Q(1, 8)), domain, 3)
    assert benchmark(sparse_or_dense, *args).verdict is TwoBot.BOT


FLIP7 = (
    (Q(271, 192),),
    Sample((((Q(54971, 38400),), 1),)),
    nn_learner(Q(1, 64)),
    domain_box([(1, 2)]),
)


def robust_loop(x, sample, L, domain, max_fuel):
    """``robust_point`` at fuel 0, 1, ... in one query context up to its
    first commitment, as ``boxcert verify`` runs a ``robustPoint`` query."""
    step = functools.partial(robust_point, x, sample, L, domain)
    return _fuel_loop(step, lambda out: out.verdict.committed, max_fuel)


def test_robust_point_nn_flip7_fuel_loop(benchmark):
    outcomes = benchmark(robust_loop, *FLIP7, 10)
    assert len(outcomes) == 8 and outcomes[-1].verdict is TwoBot.ZERO


def test_box_bisect(benchmark):
    benchmark(BOX.bisect)


def test_box_bisect_leaf(benchmark):
    benchmark(LEAF.bisect)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_dist_range_leaf(benchmark, metric):
    benchmark(dist_range, LEAF, BOT_BALL[0], metric)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_ball_keep_leaf(benchmark, metric):
    benchmark(closed_ball(BOT_BALL[0], BOT_BALL[1], metric).compact.keep, LEAF)


def test_net_eval_box_leaf(benchmark):
    benchmark(NET3.eval_box, LEAF)


def test_cover_at(benchmark):
    center, radius = BALLS["zero"]
    benchmark(closed_ball(center, radius, MetricKind.EUCLID_SQ).compact.cover_at, 6)


def test_nearest_off_color(benchmark):
    color = RADIUS_NET.eval_point(RADIUS_X).color
    benchmark(_nearest_off_color, RADIUS_X, color, RADIUS_NET, Q(2), MetricKind.MAX, 5)


def nearest_off_color_loop(color):
    """Every fuel 0..8 in turn in one query context, as ``optimal_radius``
    runs the walk."""
    with _query_scope():
        return [
            _nearest_off_color(RADIUS_X, color, RADIUS_NET, Q(2), MetricKind.MAX, fuel)
            for fuel in range(9)
        ]


def test_nearest_off_color_fuel_loop(benchmark):
    distances = benchmark(nearest_off_color_loop, RADIUS_NET.eval_point(RADIUS_X).color)
    assert all(other is not None for _, other in distances)


def radius_lower_loop():
    """Every fuel 0..8 in turn in one query context, as ``boxcert verify``
    runs a ``radiusLower`` query."""
    stream = radius_lower(RADIUS_X, RADIUS_NET, Q(2), MetricKind.MAX)
    with _query_scope():
        return [stream.approx(fuel) for fuel in range(9)]


def test_radius_lower_fuel_loop(benchmark):
    radii = benchmark(radius_lower_loop)
    assert all(r >= 0 for r in radii)


def test_optimal_radius(benchmark):
    benchmark(optimal_radius, RADIUS_X, RADIUS_NET, 2, Q(1, 64), MetricKind.MAX, max_fuel=8)


@pytest.mark.parametrize("name", BALLS)
def test_certified_colors(benchmark, name):
    benchmark.pedantic(
        _certified_colors,
        setup=lambda: ((fresh_ball(name).compact, NET3, range(3), 6), {}),
        rounds=ROUNDS,
    )


@pytest.mark.parametrize("name", BALLS)
def test_find_witnesses(benchmark, name):
    benchmark.pedantic(
        _find_witnesses,
        setup=lambda: ((fresh_ball(name).overt, NET3, range(3), 2, 6), {}),
        rounds=ROUNDS,
    )


@pytest.mark.parametrize("name", BALLS)
def test_constant_value(benchmark, name):
    benchmark.pedantic(
        constant_value, setup=lambda: ((fresh_ball(name), NET3, 6), {}), rounds=ROUNDS
    )


def locally_constant_loop(center, radius):
    """Every fuel 0..12 in turn in one query context, as ``boxcert verify``
    runs a query that stays bot."""
    with _query_scope():
        return [
            locally_constant(center, radius, NET3, fuel, MetricKind.EUCLID_SQ).verdict
            for fuel in range(13)
        ]


def test_locally_constant_fuel_loop(benchmark):
    verdicts = benchmark.pedantic(locally_constant_loop, args=BOT_BALL, rounds=ROUNDS)
    assert not any(v.committed for v in verdicts)
