"""Per-layer microbenchmarks of the exact evaluators, on pytest-benchmark.

Run from the root of a checkout:

    python -m pytest bench/test_layers.py --benchmark-only

``bench/`` is outside the test paths, so the tier-1 suite does not run it.
Each benchmark times one call on fixed inputs the size the walkers see:
boxes 1/256 wide (about fuel 8) at non-dyadic offsets, a net shaped like
the ones in the benchmark's robustness sweep (2 inputs, 3 relu units,
3 scores) and a 9-point nearest-neighbor sample.  The two learner searches
are timed as whole calls: ``does_deviate`` on the unit interval at fuel 6
and ``sparse_or_dense`` with two added points at fuel 4, on a sample that
the dense side certifies only after trying every augmentation.
"""

from __future__ import annotations

from fractions import Fraction as Q

import warnings

import pytest

from boxcert import (
    Box,
    EmptyRegionWarning,
    MetricKind,
    Sample,
    dist_point,
    dist_range,
    does_deviate,
    domain_box,
    hyperplane_classifier,
    make_layer,
    nn_learner,
    sparse_or_dense,
    threshold_net_classifier,
)

METRICS = [MetricKind.MAX, MetricKind.EUCLID_SQ]
X = (Q(3, 7), Q(-5, 12))
UNIT = domain_box([(0, 1)])
BOX = Box.from_bounds([(Q(101, 256), Q(102, 256)), (Q(-37, 256), Q(-36, 256))])
Y = (Q(101, 256), Q(-36, 256))


def test_net_eval_box(benchmark):
    net = threshold_net_classifier(
        [
            make_layer([[1, 0], [0, 1], [1, 1]], [8, 8, Q(-19, 8)], "relu"),
            make_layer([[1, 0, Q(1, 2)], [0, 1, Q(-1, 3)], [Q(1, 4), Q(1, 4), 1]],
                       [Q(-8), Q(-8), Q(-3, 16)], "none"),
        ],
        Q(1, 8),
    )
    benchmark(net.eval_box, BOX, 8)


def test_hyperplane_eval_box(benchmark):
    plane = hyperplane_classifier((Q(3, 7), Q(-2, 5)), Q(1, 3))
    benchmark(plane.eval_box, BOX, 8)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_dist_range(benchmark, metric):
    benchmark(dist_range, BOX, X, metric)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_dist_point(benchmark, metric):
    benchmark(dist_point, Y, X, metric)


def test_nn_eval_point(benchmark):
    points = tuple(((Q(i, 3), Q(j, 5)), (i + j) % 2) for i in range(3) for j in range(3))
    trained = nn_learner(Q(1, 16)).train(Sample(points))
    benchmark(trained.eval_point, (Q(1, 2), Q(1, 4)), 8)


def test_does_deviate_nn(benchmark):
    benchmark(does_deviate, nn_learner(Q(1, 16)), UNIT, 6)


def test_sparse_or_dense_nn(benchmark):
    sample = Sample((((Q(9, 20),), 0), ((Q(2, 5),), 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyRegionWarning)
        benchmark(sparse_or_dense, nn_learner(Q(1, 100)), 2, Q(1, 5), sample, (Q(1, 2),), UNIT, 4)
