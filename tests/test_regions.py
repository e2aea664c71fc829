from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from boxcert import (
    Box,
    Interval,
    MetricKind,
    ValidationError,
    closed_ball,
    cover_width_target,
    domain_box,
    dist_point,
    dyadic_step,
    empty_region,
    open_ball_overt,
    outside_ball,
)


def unit_box(*bounds):
    return Box(tuple(Interval(lo, hi) for lo, hi in bounds))


def covered(point, boxes):
    return any(b.contains(point) for b in boxes)


class TestClosedBall:
    def test_negative_radius_is_empty(self):
        ball = closed_ball((Q(0), Q(0)), Q(-1), MetricKind.MAX)
        assert ball.compact.cover_at(2) == []
        assert ball.overt.points_at(2) == []

    def test_one_dimensional_cover_shape(self):
        ball = closed_ball((Q(0),), Q(1), MetricKind.MAX)
        boxes = ball.compact.cover_at(3)
        assert boxes, "cover of a nonempty ball must be nonempty"
        for box in boxes:
            assert box.width <= Q(1, 4)
            assert box.sides[0].lo >= Q(-5, 4)
            assert box.sides[0].hi <= Q(5, 4)
        for target in [Q(-1), Q(-1, 3), Q(0), Q(7, 8), Q(1)]:
            assert covered((target,), boxes)

    def test_corner_and_face_points_enumerated(self):
        ball = closed_ball((Q(0), Q(0)), Q(1), MetricKind.MAX)
        pts = ball.overt.points_at(0)
        assert (Q(1), Q(1)) in pts
        assert (Q(-1), Q(0)) in pts

    def test_enumerated_points_are_members(self):
        ball = closed_ball((Q(1, 3), Q(0)), Q(1, 2), MetricKind.MAX)
        for p in ball.overt.points_at(3):
            assert dist_point(p, (Q(1, 3), Q(0)), MetricKind.MAX) <= Q(1, 2)

    def test_squared_euclidean_membership_is_exact(self):
        ball = closed_ball((Q(0), Q(0)), Q(1), MetricKind.EUCLID_SQ)
        pts = ball.overt.points_at(1)
        assert (Q(1, 2), Q(1, 2)) in pts
        assert (Q(1), Q(1)) not in pts
        for p in pts:
            assert dist_point(p, (Q(0), Q(0)), MetricKind.EUCLID_SQ) <= Q(1)


class TestOpenBall:
    def test_strict_boundary_exclusion(self):
        interior = open_ball_overt((Q(0),), Q(1), MetricKind.MAX)
        pts = interior.points_at(2)
        assert (Q(1),) not in pts
        assert (Q(3, 4),) in pts

    def test_nonpositive_radius_is_empty(self):
        assert open_ball_overt((Q(0),), Q(0), MetricKind.MAX).points_at(3) == []


class TestDomainBox:
    def test_cover_at_zero_is_the_box(self):
        region = domain_box(unit_box((Q(0), Q(1))))
        assert region.compact.cover_at(0) == [unit_box((Q(0), Q(1)))]

    def test_cover_refines_to_quarters(self):
        region = domain_box(unit_box((Q(0), Q(1))))
        boxes = region.compact.cover_at(2)
        assert len(boxes) == 4
        assert all(box.width == Q(1, 4) for box in boxes)

    def test_grid_membership(self):
        region = domain_box(unit_box((Q(0), Q(1)), (Q(0), Q(1))))
        pts = region.overt.points_at(1)
        for expected in [(Q(0), Q(0)), (Q(1, 2), Q(1, 2)), (Q(1), Q(1))]:
            assert expected in pts


class TestOutsideBall:
    def test_enumeration_within_the_two_segments(self):
        domain = domain_box(unit_box((Q(0), Q(1))))
        region = outside_ball(domain, (Q(1, 2),), Q(1, 5), MetricKind.MAX)
        pts = region.overt.points_at(2)
        assert (Q(1, 4),) in pts
        assert (Q(3, 4),) in pts
        for (y,) in pts:
            assert abs(y - Q(1, 2)) > Q(1, 5)

    def test_oversized_ball_leaves_nothing(self):
        domain = domain_box(unit_box((Q(0), Q(1))))
        region = outside_ball(domain, (Q(1, 2),), Q(3, 5), MetricKind.MAX)
        for fuel in range(6):
            assert region.overt.points_at(fuel) == []

    def test_boundary_distance_is_not_strictly_outside(self):
        domain = domain_box(unit_box((Q(0), Q(1))))
        region = outside_ball(domain, (Q(0),), Q(1), MetricKind.MAX)
        for fuel in range(5):
            assert region.overt.points_at(fuel) == []

    def test_cover_brackets_the_two_segments(self):
        domain = domain_box(unit_box((Q(0), Q(1))))
        region = outside_ball(domain, (Q(1, 2),), Q(1, 5), MetricKind.MAX)
        boxes = region.compact.cover_at(4)
        slack = Q(1, 16)
        for box in boxes:
            side = box.sides[0]
            in_left = side.hi <= Q(3, 10) + slack
            in_right = side.lo >= Q(7, 10) - slack
            assert in_left or in_right
        for target in [Q(0), Q(1, 5), Q(3, 10), Q(7, 10), Q(9, 10), Q(1)]:
            assert covered((target,), boxes)

    def test_cover_empties_when_the_ball_swallows_the_domain(self):
        domain = domain_box(unit_box((Q(0), Q(1))))
        region = outside_ball(domain, (Q(1, 2),), Q(2), MetricKind.MAX)
        assert region.compact.cover_at(0) == []

    def test_cover_is_whole_domain_when_ball_is_far_away(self):
        domain = domain_box(unit_box((Q(0), Q(1))))
        region = outside_ball(domain, (Q(5),), Q(1), MetricKind.MAX)
        for fuel in (0, 2):
            boxes = region.compact.cover_at(fuel)
            for target in [Q(0), Q(1, 3), Q(1)]:
                assert covered((target,), boxes)
            for box in boxes:
                assert box.sides[0].lo >= 0 and box.sides[0].hi <= 1

    @pytest.mark.parametrize(
        "half", ["overt", "compact"], ids=["outside_ball_overt", "outside_ball_compact"]
    )
    def test_center_must_match_the_domain(self, half):
        domain = domain_box(unit_box((Q(0), Q(1))))
        with pytest.raises(ValidationError, match="dimension mismatch: 1 vs 2"):
            getattr(outside_ball(domain, (Q(0), Q(0)), Q(1), MetricKind.MAX), half)


class TestEmptyRegion:
    def test_both_presentations_empty(self):
        region = empty_region(2)
        assert region.compact.cover_at(3) == []
        assert region.overt.points_at(3) == []


ball_strategy = st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=16),
    st.fractions(min_value=-2, max_value=2, max_denominator=16),
    st.fractions(min_value=Q(1, 8), max_value=Q(3, 2), max_denominator=16),
    st.sampled_from([MetricKind.MAX, MetricKind.EUCLID_SQ]),
)


@given(params=ball_strategy, fuel=st.integers(min_value=0, max_value=4))
@settings(deadline=None, max_examples=60)
def test_cover_width_obeys_the_fuel_schedule(params, fuel):
    cx, cy, r, metric = params
    ball = closed_ball((cx, cy), r, metric)
    bounding = ball.compact.bounding
    target = cover_width_target(bounding, fuel)
    for box in ball.compact.cover_at(fuel):
        assert box.width <= target


@given(
    params=ball_strategy,
    fuel=st.integers(min_value=0, max_value=4),
    t1=st.fractions(min_value=0, max_value=1, max_denominator=8),
    t2=st.fractions(min_value=0, max_value=1, max_denominator=8),
)
@settings(deadline=None, max_examples=60)
def test_cover_soundness_on_sampled_members(params, fuel, t1, t2):
    cx, cy, r, metric = params
    ball = closed_ball((cx, cy), r, metric)
    spread = r if metric is MetricKind.MAX else r / 2
    candidate = (cx - spread + 2 * spread * t1, cy - spread + 2 * spread * t2)
    threshold = r if metric is MetricKind.MAX else r * r
    if dist_point(candidate, (cx, cy), metric) <= threshold:
        assert covered(candidate, ball.compact.cover_at(fuel))


@given(params=ball_strategy, fuel=st.integers(min_value=0, max_value=4))
@settings(deadline=None, max_examples=60)
def test_enumerations_nest_across_fuel(params, fuel):
    cx, cy, r, metric = params
    ball = closed_ball((cx, cy), r, metric)
    coarse = set(ball.overt.points_at(fuel))
    fine = set(ball.overt.points_at(fuel + 1))
    assert coarse <= fine


@st.composite
def outside_ball_specs(draw):
    """A 1-2-D box domain, a center near it, eps and a metric."""
    coords = st.fractions(min_value=-2, max_value=2, max_denominator=8)
    dims = draw(st.integers(min_value=1, max_value=2))
    sides = []
    for _ in range(dims):
        lo = draw(coords)
        sides.append((lo, lo + draw(st.fractions(min_value=0, max_value=2, max_denominator=8))))
    center = tuple(draw(coords) for _ in range(dims))
    eps = draw(st.fractions(min_value=Q(1, 16), max_value=2, max_denominator=16))
    metric = draw(st.sampled_from([MetricKind.MAX, MetricKind.EUCLID_SQ]))
    return domain_box(sides), center, eps, metric


@given(spec=outside_ball_specs(), fuel=st.integers(min_value=0, max_value=4))
@settings(deadline=None, max_examples=150)
def test_outside_ball_presentations_agree(spec, fuel):
    """Every enumerated point is a strict member and lies in the same-fuel cover."""
    domain, center, eps, metric = spec
    region = outside_ball(domain, center, eps, metric)
    cover = region.compact.cover_at(fuel)
    for p in region.overt.points_at(fuel):
        assert domain.compact.bounding.contains(p)
        assert dist_point(p, center, metric) > eps
        assert covered(p, cover)
