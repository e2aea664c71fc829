"""Every bad argument raises one error class with its message.

``ValidationError`` is both a ``BoxcertError``, so the CLI reports it as
one ``error:`` line, and a ``ValueError``, so library callers can catch it
as the builtin.  Each case below calls one check with a bad argument and
pins the class and the exact message.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from boxcert import (
    Box,
    BoxcertError,
    ColorEnvelope,
    Interval,
    MetricKind,
    Sample,
    ValidationError,
    constant_classifier,
    dist_point,
    domain_box,
    hyperplane_classifier,
    locally_constant,
    majority_learner,
    make_layer,
    nn_learner,
    optimal_radius,
    radius_lower,
    radius_upper,
    sparse_or_dense,
    threshold_net_classifier,
)
from boxcert.kernel import check_fuel

UNIT = domain_box([(0, 1)])
PLANE = hyperplane_classifier((Q(1),), Q(-1, 2))
ONE_LAYER = make_layer(((Q(1),),), (Q(0),), "none")
SAMPLE = Sample((((Q(0),), 0),))


def sparsity(N, eps):
    return lambda: sparse_or_dense(majority_learner(), N, eps, SAMPLE, (Q(1, 2),), UNIT, 0)


CASES = {
    # Checks that raised a bare ValueError.
    "fuel": (lambda: check_fuel(-1), "fuel must be a nonnegative integer, got -1"),
    "interval-order": (lambda: Interval(Q(1), Q(0)), "interval bounds out of order: [1, 0]"),
    "degenerate-bisect": (
        lambda: Box.around((Q(0),)).bisect(),
        "cannot bisect a degenerate box",
    ),
    "empty-envelope": (
        lambda: ColorEnvelope(frozenset(), False),
        "an envelope must allow at least one outcome",
    ),
    "net-margin": (
        lambda: threshold_net_classifier((ONE_LAYER,), Q(0)),
        "margin must be positive",
    ),
    "nn-tie-margin": (lambda: nn_learner(tie_margin=Q(0)), "tie margin must be positive"),
    "augmentation-count": (sparsity(-1, Q(1, 4)), "augmentation count must be nonnegative"),
    "sparsity-eps": (sparsity(1, Q(0)), "eps must be positive"),
    "lower-ceiling": (
        lambda: radius_lower((Q(0),), PLANE, Q(0)),
        "search ceiling must be positive",
    ),
    "upper-ceiling": (
        lambda: radius_upper((Q(0),), PLANE, Q(-1)),
        "search ceiling must be positive",
    ),
    "tolerance": (
        lambda: optimal_radius((Q(0),), PLANE, Q(1), Q(0)),
        "tolerance must be positive",
    ),
    # Checks that raised one of six single-use subclasses.
    "dimension": (
        lambda: dist_point((Q(0),), (Q(0), Q(1)), MetricKind.MAX),
        "dimension mismatch: 1 vs 2",
    ),
    "zero-normal": (
        lambda: hyperplane_classifier((Q(0), Q(0)), Q(1)),
        "hyperplane weights must not all be zero",
    ),
    "shape": (lambda: threshold_net_classifier((), Q(1)), "a network needs at least one layer"),
    "color": (lambda: constant_classifier(2, 2, dims=1), "color 2 out of range for k=2"),
    "radius": (
        lambda: locally_constant((Q(0),), Q(0), PLANE, 0),
        "ball radius must be positive, got 0",
    ),
    "augmentation-cap": (sparsity(4, Q(1, 4)), "N=4 exceeds the cap of 3"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_bad_argument_raises_validation_error(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert isinstance(info.value, BoxcertError)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == message
