"""Metamorphic tests: integer translation and axis permutation.

Dyadic grids and bisection commute with a translation by an integer
vector t.  Moving the region, the center and every sample point by t, and
changing the first layer's bias by -W.t, must therefore leave every
per-fuel verdict, color and radius value the same, and move every witness
by t.

Swapping the two axes of the region and the center, and the first
layer's weight columns, must leave every per-fuel verdict, color and
radius value of the region ops and the radius streams the same.  The
witness points may differ, because ``Box.bisect`` breaks width ties
toward the lowest axis, but not the colors they witness.  The learner
ops are left out here: ``does_deviate``'s windows are lexicographic
prefixes of the grid, which a swap reorders.

Nets and regions come from the ``net_layers`` and ``region_specs``
strategies that ``test_walkers.nets`` and ``test_walkers.regions`` build
on, so the moved instance goes through the same constructors.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction as Q

from hypothesis import example, given, settings, strategies as st

from boxcert import (
    ColorWitness,
    DeviationWitness,
    ExtensionWitness,
    MetricKind,
    Sample,
    Verdict,
    constant_value,
    does_deviate,
    exists_value,
    fixed_value,
    forall_value,
    locally_constant,
    make_layer,
    majority_learner,
    nn_learner,
    radius_lower,
    radius_upper,
    robust_point,
    sparse_or_dense,
    threshold_net_classifier,
)

from test_walkers import COORDS, METRICS, RADII, build_region, net_layers, region_specs

FUELS = range(6)
SHIFTS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
SWAP = (1, 0)
GRID = st.sampled_from([Q(n, 8) for n in range(-8, 9)])


def shift(point, t):
    return tuple(c + d for c, d in zip(point, t))


def swap(point):
    return tuple(point[i] for i in SWAP)


def shifted_net(spec, t):
    """The net of ``spec`` composed with y -> y - t."""
    (hidden, scores), margin = spec
    bias = [b - sum(w * d for w, d in zip(row, t)) for row, b in zip(hidden.weights, hidden.bias)]
    return threshold_net_classifier([make_layer(hidden.weights, bias, "relu"), scores], margin)


def swapped_net(spec):
    """The net of ``spec`` with its two input columns exchanged."""
    (hidden, scores), margin = spec
    weights = [swap(row) for row in hidden.weights]
    return threshold_net_classifier([make_layer(weights, hidden.bias, "relu"), scores], margin)


def shifted_region(spec, t):
    return build_region((spec[0], shift(spec[1], t), *spec[2:]))


def swapped_region(spec):
    if spec[0] == "box":
        return build_region(("box", swap(spec[1]), swap(spec[2])))
    return build_region(("ball", swap(spec[1]), *spec[2:]))


def moved(outcome, g):
    """``outcome`` with every witness point mapped through g; a bare
    ``Verdict`` carries none."""
    if isinstance(outcome, Verdict):
        return outcome

    def move(w):
        if isinstance(w, ColorWitness):
            return ColorWitness(g(w.point), w.color)
        if isinstance(w, ExtensionWitness):
            return ExtensionWitness(tuple((g(p), c) for p, c in w.extension), w.outcome)
        return DeviationWitness(tuple((g(p), c) for p, c in w.sample), w.index, w.observed)

    return dataclasses.replace(outcome, witnesses=tuple(move(w) for w in outcome.witnesses))


def witness_colors(outcome):
    """``outcome`` with each witness replaced by the color it witnesses."""
    if isinstance(outcome, Verdict):
        return outcome
    return dataclasses.replace(outcome, witnesses=tuple(w.color for w in outcome.witnesses))


def region_ops(region, f, fuel):
    """Every region op on one region at one fuel, in a fixed order."""
    out = []
    for n in range(f.k):
        out.append(exists_value(n, region.overt, f, fuel))
        out.append(forall_value(n, region.compact, f, fuel))
        out.append(fixed_value(n, region, f, fuel))
    out.append(constant_value(region, f, fuel))
    return out


def radius_values(x, f, metric, fuel):
    ceiling = Q(1, 2)
    return (
        radius_lower(x, f, ceiling, metric).approx(fuel),
        radius_upper(x, f, ceiling, metric).approx(fuel),
    )


@settings(max_examples=25, deadline=None)
@given(spec=net_layers(), region=region_specs(), t=SHIFTS)
def test_region_ops_commute_with_integer_translation(spec, region, t):
    f, g = threshold_net_classifier(*spec), shifted_net(spec, t)
    A, B = build_region(region), shifted_region(region, t)
    for fuel in FUELS:
        want = [moved(o, lambda p: shift(p, t)) for o in region_ops(A, f, fuel)]
        assert region_ops(B, g, fuel) == want


@settings(max_examples=25, deadline=None)
@given(spec=net_layers(), region=region_specs())
def test_region_ops_commute_with_axis_swap(spec, region):
    f, g = threshold_net_classifier(*spec), swapped_net(spec)
    A, B = build_region(region), swapped_region(region)
    for fuel in FUELS:
        want = [witness_colors(o) for o in region_ops(A, f, fuel)]
        assert [witness_colors(o) for o in region_ops(B, g, fuel)] == want


# Two small nets whose ball queries tell a grid that truncates toward zero
# from a floored one, and a cover target that scales with a corner
# coordinate from one that scales with the bounding width.
DOWN = (
    [make_layer([[0, 0], [0, -2]], [0, 0], "relu"),
     make_layer([[0, -1], [0, 0], [0, 0]], [1, 0, Q(1, 2)], "none")],
    Q(1, 16),
)
UP = (
    [make_layer([[0, 2], [0, 0]], [0, 0], "relu"),
     make_layer([[1, 0], [0, 0]], [0, 1], "none")],
    Q(1, 16),
)


@settings(max_examples=15, deadline=None)
@given(
    spec=net_layers(), x=st.tuples(COORDS, COORDS), r=RADII, metric=METRICS, t=SHIFTS
)
@example(spec=DOWN, x=(Q(0), Q(0)), r=Q(1, 4), metric=MetricKind.EUCLID_SQ, t=(0, 3))
@example(spec=UP, x=(Q(0), Q(-1, 8)), r=Q(1, 4), metric=MetricKind.EUCLID_SQ, t=(0, 1))
def test_ball_queries_commute_with_translation_and_swap(spec, x, r, metric, t):
    f, g, h = threshold_net_classifier(*spec), shifted_net(spec, t), swapped_net(spec)
    y, z = shift(x, t), swap(x)
    for fuel in FUELS:
        want = locally_constant(x, r, f, fuel, metric)
        assert locally_constant(y, r, g, fuel, metric) == moved(want, lambda p: shift(p, t))
        assert witness_colors(locally_constant(z, r, h, fuel, metric)) == witness_colors(want)
        values = radius_values(x, f, metric, fuel)
        assert radius_values(y, g, metric, fuel) == values
        assert radius_values(z, h, metric, fuel) == values


@st.composite
def learners(draw):
    """nn under either metric, or majority, with k = 2 labels."""
    if draw(st.booleans()):
        return majority_learner(2), MetricKind.MAX
    metric = draw(METRICS)
    return nn_learner(draw(st.sampled_from([Q(1, 16), Q(1, 4)])), metric=metric), metric


@settings(max_examples=8, deadline=None)
@given(
    learner=learners(),
    region=region_specs(),
    sample=st.lists(st.tuples(st.tuples(GRID, GRID), st.integers(0, 1)), max_size=2),
    x=st.tuples(GRID, GRID),
    eps=st.sampled_from([Q(1, 4), Q(1, 2)]),
    t=SHIFTS,
)
def test_learner_ops_commute_with_integer_translation(learner, region, sample, x, eps, t):
    L, metric = learner
    A, B = build_region(region), shifted_region(region, t)
    s = Sample(tuple(sample))
    s_moved = Sample(tuple((shift(p, t), c) for p, c in sample))
    y = shift(x, t)

    def g(p):
        return shift(p, t)

    for fuel in FUELS:
        assert does_deviate(L, B, fuel) == moved(does_deviate(L, A, fuel), g)
        assert robust_point(y, s_moved, L, B, fuel) == moved(robust_point(x, s, L, A, fuel), g)
        want = sparse_or_dense(L, 1, eps, s, x, A, fuel, metric)
        got = sparse_or_dense(L, 1, eps, s_moved, y, B, fuel, metric)
        assert got == moved(want, g)
