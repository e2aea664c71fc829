"""The one-walk-per-side region ops against the per-color references.

Each race side of ``verify`` now walks the subdivision tree once for all
the colors it asks about.  The references in ``oracles`` walk it once per
color and loop over the colors, lowest first, as the ops did before.  So
every op must return an equal ``Outcome`` at every fuel, witnesses
included: the same verdict, the same color and the same first points.
"""

from __future__ import annotations

from fractions import Fraction as Q

from hypothesis import example, given, settings, strategies as st

from boxcert import (
    ColorWitness,
    MetricKind,
    TwoBot,
    VKSet,
    closed_ball,
    constant_value,
    domain_box,
    exists_value,
    fixed_value,
    forall_value,
    locally_constant,
    make_layer,
    open_ball_overt,
    threshold_net_classifier,
)

from oracles import (
    ref_constant_value,
    ref_exists_value,
    ref_fixed_value,
    ref_forall_value,
)

FUELS = range(6)
METRICS = st.sampled_from([MetricKind.MAX, MetricKind.EUCLID_SQ])
WEIGHTS = st.fractions(min_value=-2, max_value=2, max_denominator=4)
COORDS = st.fractions(min_value=-1, max_value=1, max_denominator=8)
RADII = st.sampled_from([Q(1, 4), Q(3, 8), Q(1, 2), Q(3, 4)])

# Scores 2x, 1/2 and 2y on the unit square.  At fuel 0 the square is one
# leaf whose grid points come in the order (0, 0), (0, 1), (1, 0), (1, 1):
# colors 1, 2, 0 and bottom.  The joint no side meets colors 1 and 2
# before color 0, and the two lowest colors with a hit are 0 and 1.
LATE_ZERO = threshold_net_classifier(
    [
        make_layer([[1, 0], [0, 1]], [0, 0], "relu"),
        make_layer([[2, 0], [0, 0], [0, 2]], [0, Q(1, 2), 0], "none"),
    ],
    Q(1, 8),
)
UNIT_SQUARE = domain_box([(0, 1), (0, 1)])


@st.composite
def nets(draw):
    """A 2-D relu net with 2-3 hidden units and k = 2-3 colors."""
    k = draw(st.integers(2, 3))
    width = draw(st.integers(2, 3))
    hidden = make_layer(
        [[draw(WEIGHTS), draw(WEIGHTS)] for _ in range(width)],
        [draw(WEIGHTS) for _ in range(width)],
        "relu",
    )
    scores = make_layer(
        [[draw(WEIGHTS) for _ in range(width)] for _ in range(k)],
        [draw(WEIGHTS) for _ in range(k)],
        "none",
    )
    return threshold_net_classifier([hidden, scores], draw(st.sampled_from([Q(1, 16), Q(1, 8)])))


@st.composite
def regions(draw):
    """A box, or a closed ball under either metric."""
    center = (draw(COORDS), draw(COORDS))
    if draw(st.booleans()):
        halves = (draw(RADII), draw(RADII))
        return domain_box([(c - h, c + h) for c, h in zip(center, halves)])
    return closed_ball(center, draw(RADII), draw(METRICS))


@settings(max_examples=60, deadline=None)
@given(f=nets(), region=regions())
@example(f=LATE_ZERO, region=UNIT_SQUARE)
def test_region_ops_match_per_color_walks(f, region):
    A, B = region.overt, region.compact
    for fuel in FUELS:
        for n in range(f.k):
            assert exists_value(n, A, f, fuel) == ref_exists_value(n, A, f, fuel)
            assert forall_value(n, B, f, fuel) is ref_forall_value(n, B, f, fuel)
            assert fixed_value(n, region, f, fuel) == ref_fixed_value(n, region, f, fuel)
        assert constant_value(region, f, fuel) == ref_constant_value(region, f, fuel)


@settings(max_examples=60, deadline=None)
@given(f=nets(), center=st.tuples(COORDS, COORDS), radius=RADII, metric=METRICS)
@example(f=LATE_ZERO, center=(Q(1, 2), Q(1, 2)), radius=Q(3, 4), metric=MetricKind.MAX)
def test_locally_constant_matches_per_color_walks(f, center, radius, metric):
    compact = closed_ball(center, radius, metric).compact
    ball = VKSet(compact, open_ball_overt(center, radius, metric))
    for fuel in FUELS:
        got = locally_constant(center, radius, f, fuel, metric)
        assert got == ref_constant_value(ball, f, fuel)


def test_no_side_reports_the_lowest_colors_not_the_first_found():
    got = constant_value(UNIT_SQUARE, LATE_ZERO, 0)
    assert got.verdict is TwoBot.ZERO
    assert got.witnesses == (ColorWitness((Q(1), Q(0)), 0), ColorWitness((Q(0), Q(0)), 1))
    assert got == ref_constant_value(UNIT_SQUARE, LATE_ZERO, 0)
    refuted = fixed_value(1, UNIT_SQUARE, LATE_ZERO, 0)
    assert refuted.witnesses == (ColorWitness((Q(1), Q(0)), 0),)
