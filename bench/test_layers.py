"""Per-layer microbenchmarks of the exact evaluators, on pytest-benchmark.

Run from the root of a checkout:

    python -m pytest bench/test_layers.py --benchmark-only

``bench/`` is outside the test paths, so the tier-1 suite does not run it.
Each benchmark times one call on fixed inputs the size the walkers see:
boxes 1/256 wide (about fuel 8) at non-dyadic offsets, a net shaped like
the ones in the benchmark's robustness sweep (2 inputs, 3 relu units,
3 scores) and a 9-point nearest-neighbor sample.  The two learner searches
are timed as whole calls: ``does_deviate`` on the unit interval at fuel 6
and on the 4-D unit box at fuel 5, where the search reads a few points of
grids up to 17**4 points large, and ``sparse_or_dense`` with two added
points at fuel 4, on a sample that the dense side certifies only after
trying every augmentation.

The region layer is timed at fuel 6 on two of the sweep's
``locallyConstant`` queries: a 2-D relu net with k = 3 on small
``euclid-sq`` balls.  On ``zero`` the open ball holds colors 0 and 1, and
the no side finds both early; on ``one`` color 2 certifies, so both sides
walk their whole trees.  Each race side walker is timed on its own, for
all three colors, and so is the whole ``constant_value`` race.  The
walkers resume their last walk when asked the same of the same region
again, so every round of these gets a freshly built ball and times a walk
from the root.  The whole ``locally_constant`` fuel loop 0..12 is timed on
``bot``, a ball that meets color 2 and the band where the net abstains, so
neither side ever commits: the shape of the sweep's slowest queries.
``Box.bisect`` is timed on the 1/256 box.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from boxcert import (
    Box,
    MetricKind,
    Sample,
    VKSet,
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
    open_ball_overt,
    sparse_or_dense,
    threshold_net_classifier,
)
from boxcert.verify import _certified_colors, _find_witnesses

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


def fresh_ball(name: str) -> VKSet:
    center, radius = BALLS[name]
    return VKSet(
        closed_ball(center, radius, MetricKind.EUCLID_SQ).compact,
        open_ball_overt(center, radius, MetricKind.EUCLID_SQ),
    )


def test_net_eval_box(benchmark):
    net = threshold_net_classifier(
        [
            make_layer([[1, 0], [0, 1], [1, 1]], [8, 8, Q(-19, 8)], "relu"),
            make_layer([[1, 0, Q(1, 2)], [0, 1, Q(-1, 3)], [Q(1, 4), Q(1, 4), 1]],
                       [Q(-8), Q(-8), Q(-3, 16)], "none"),
        ],
        Q(1, 8),
    )
    benchmark(net.eval_box, BOX)


def test_hyperplane_eval_box(benchmark):
    plane = hyperplane_classifier((Q(3, 7), Q(-2, 5)), Q(1, 3))
    benchmark(plane.eval_box, BOX)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_dist_range(benchmark, metric):
    benchmark(dist_range, BOX, X, metric)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_dist_point(benchmark, metric):
    benchmark(dist_point, Y, X, metric)


def test_nn_eval_point(benchmark):
    points = tuple(((Q(i, 3), Q(j, 5)), (i + j) % 2) for i in range(3) for j in range(3))
    trained = nn_learner(Q(1, 16)).train(Sample(points))
    benchmark(trained.eval_point, (Q(1, 2), Q(1, 4)))


def test_does_deviate_nn(benchmark):
    benchmark(does_deviate, nn_learner(Q(1, 16)), UNIT, 6)


def test_does_deviate_nn_4d(benchmark):
    benchmark(does_deviate, nn_learner(Q(1, 16)), domain_box([(0, 1)] * 4), 5)


def test_sparse_or_dense_nn(benchmark):
    sample = Sample((((Q(9, 20),), 0), ((Q(2, 5),), 0)))
    benchmark(sparse_or_dense, nn_learner(Q(1, 100)), 2, Q(1, 5), sample, (Q(1, 2),), UNIT, 4)


def test_box_bisect(benchmark):
    benchmark(BOX.bisect)


@pytest.mark.parametrize("ball", BALLS)
def test_certified_colors(benchmark, ball):
    benchmark.pedantic(
        _certified_colors,
        setup=lambda: ((fresh_ball(ball).compact, NET3, range(3), 6), {}),
        rounds=ROUNDS,
    )


@pytest.mark.parametrize("ball", BALLS)
def test_find_witnesses(benchmark, ball):
    benchmark.pedantic(
        _find_witnesses,
        setup=lambda: ((fresh_ball(ball).overt, NET3, range(3), 2, 6), {}),
        rounds=ROUNDS,
    )


@pytest.mark.parametrize("ball", BALLS)
def test_constant_value(benchmark, ball):
    benchmark.pedantic(
        constant_value, setup=lambda: ((fresh_ball(ball), NET3, 6), {}), rounds=ROUNDS
    )


def locally_constant_loop(center, radius):
    """Every fuel 0..12 in turn, as ``boxcert verify`` runs a query that stays bot."""
    return [
        locally_constant(center, radius, NET3, fuel, MetricKind.EUCLID_SQ).verdict
        for fuel in range(13)
    ]


def test_locally_constant_fuel_loop(benchmark):
    verdicts = benchmark.pedantic(locally_constant_loop, args=BOT_BALL, rounds=ROUNDS)
    assert not any(v.committed for v in verdicts)
