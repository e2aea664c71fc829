from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from boxcert import (
    Box,
    Interval,
    KBot,
    MetricKind,
    Outcome,
    TwoBot,
    ValidationError,
    Verdict,
    VKSet,
    closed_ball,
    constant_classifier,
    constant_value,
    domain_box,
    empty_region,
    exists_value,
    fixed_value,
    forall_value,
    hyperplane_classifier,
    locally_constant,
    make_layer,
    open_ball_overt,
    optimal_radius,
    radius_lower,
    radius_upper,
    threshold_net_classifier,
)

from oracles import grid_search_radius, net_color


def box2(x_lo, x_hi, y_lo, y_hi):
    return Box((Interval(x_lo, x_hi), Interval(y_lo, y_hi)))


def literal_exists(n, overt, f, fuel):
    """Reference semantics: scan the enumerated points one by one."""
    for p in overt.points_at(fuel):
        if f.eval_point(p) == KBot(n):
            return Verdict.CONFIRMED, p
    return Verdict.UNKNOWN, None


def literal_forall(n, compact, f, fuel):
    """Reference semantics: demand commitment on every cover box."""
    for box in compact.cover_at(fuel):
        if f.eval_box(box).committed_color != n:
            return Verdict.UNKNOWN
    return Verdict.CONFIRMED


SPLIT = hyperplane_classifier((Q(1), Q(0)), Q(0))


class TestExistsValue:
    def test_confirms_on_a_grid_witness(self):
        region = domain_box(box2(Q(0), Q(2), Q(0), Q(1)))
        out = exists_value(1, region.overt, SPLIT, 1)
        assert out.verdict is Verdict.CONFIRMED
        assert out.witnesses[0] is not None
        assert out.witnesses[0].color == 1
        assert SPLIT.eval_point(out.witnesses[0].point) == KBot(1)

    def test_unknown_when_no_point_qualifies(self):
        region = domain_box(box2(Q(1, 2), Q(1), Q(0), Q(1)))
        for fuel in range(5):
            assert exists_value(0, region.overt, SPLIT, fuel).verdict is Verdict.UNKNOWN

    def test_empty_region_never_confirms(self):
        region = empty_region(2)
        assert exists_value(1, region.overt, SPLIT, 6).verdict is Verdict.UNKNOWN


class TestForallValue:
    def test_single_box_interval_certificate(self):
        region = domain_box(box2(Q(1, 2), Q(1), Q(0), Q(1)))
        assert forall_value(1, region.compact, SPLIT, 0) is Verdict.CONFIRMED

    def test_straddling_region_never_certifies(self):
        region = domain_box(box2(Q(-1), Q(1), Q(-1), Q(1)))
        for fuel in range(6):
            assert forall_value(1, region.compact, SPLIT, fuel) is Verdict.UNKNOWN

    def test_empty_region_is_vacuously_certified(self):
        region = empty_region(2)
        assert forall_value(0, region.compact, SPLIT, 0) is Verdict.CONFIRMED


class TestFixedValue:
    def test_one_on_a_committed_ball(self):
        region = closed_ball((Q(1), Q(0)), Q(1, 2), MetricKind.MAX)
        out = fixed_value(1, region, SPLIT, 0)
        assert out.verdict is TwoBot.ONE

    def test_zero_with_an_opposing_witness(self):
        region = closed_ball((Q(0), Q(0)), Q(1, 2), MetricKind.MAX)
        committed = None
        for fuel in range(6):
            out = fixed_value(1, region, SPLIT, fuel)
            if out.verdict is not TwoBot.BOT:
                committed = out
                break
        assert committed is not None and committed.verdict is TwoBot.ZERO
        assert committed.witnesses
        point, color = committed.witnesses[0].point, committed.witnesses[0].color
        assert color != 1
        assert SPLIT.eval_point(point) == KBot(color)

    def test_empty_region_is_vacuously_one(self):
        out = fixed_value(0, empty_region(2), SPLIT, 0)
        assert out.verdict is TwoBot.ONE


class TestConstantValue:
    def test_one_when_uniformly_colored(self):
        region = closed_ball((Q(1), Q(0)), Q(1, 2), MetricKind.MAX)
        out = constant_value(region, SPLIT, 0)
        assert out.verdict is TwoBot.ONE
        assert out.color == 1

    def test_zero_with_two_witnesses(self):
        region = closed_ball((Q(0), Q(0)), Q(1, 2), MetricKind.MAX)
        committed = None
        for fuel in range(6):
            out = constant_value(region, SPLIT, fuel)
            if out.verdict is not TwoBot.BOT:
                committed = out
                break
        assert committed is not None and committed.verdict is TwoBot.ZERO
        colors = {w.color for w in committed.witnesses}
        assert len(colors) >= 2

    def test_bot_forever_on_an_undecided_net(self):
        layer = make_layer(((Q(1),), (Q(1),)), (Q(0), Q(0)), "none")
        net = threshold_net_classifier((layer,), Q(1, 100))
        region = domain_box(Box((Interval(Q(0), Q(1)),)))
        for fuel in range(8):
            assert constant_value(region, net, fuel).verdict is TwoBot.BOT


EMPTY_CENTER = (Q(1, 3), Q(-1, 2), Q(2))


def empty_regions(dims, metric):
    """Every way to build an empty region: the sentinel, a negative closed
    ball, and that ball's cover paired with a nonpositive open ball."""
    c = EMPTY_CENTER[:dims]
    return {
        "empty_region": empty_region(dims),
        "negative-ball": closed_ball(c, -1, metric),
        **{
            f"open-ball-r{r}": VKSet(
                closed_ball(c, -1, metric).compact, open_ball_overt(c, r, metric)
            )
            for r in (0, -1)
        },
    }


@pytest.mark.parametrize("metric", [MetricKind.MAX, MetricKind.EUCLID_SQ])
@pytest.mark.parametrize("fuel", range(5))
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_empty_regions_answer_vacuously(dims, fuel, metric):
    """Nothing to cover or enumerate: every color certifies, none is found.

    The classifiers commit everywhere, so any nonempty region would refute
    some color; an empty region must still affirm each of them."""
    classifiers = [
        hyperplane_classifier((Q(1),) + (Q(0),) * (dims - 1), Q(0)),
        constant_classifier(3, 1, dims),
    ]
    for name, region in empty_regions(dims, metric).items():
        assert region.compact.cover_at(fuel) == [], name
        assert region.overt.points_at(fuel) == [], name
        for f in classifiers:
            for n in range(f.k):
                assert exists_value(n, region.overt, f, fuel) == Outcome(Verdict.UNKNOWN), name
                assert forall_value(n, region.compact, f, fuel) is Verdict.CONFIRMED, name
                assert fixed_value(n, region, f, fuel) == Outcome(TwoBot.ONE, color=n), name
            assert constant_value(region, f, fuel) == Outcome(TwoBot.ONE, color=0), name


class TestLocallyConstant:
    def test_ball_inside_a_halfspace(self):
        out = locally_constant((Q(1), Q(0)), Q(1, 2), SPLIT, 0)
        assert out.verdict is TwoBot.ONE
        assert out.color == 1

    def test_adversarial_pair_in_the_open_ball(self):
        committed = None
        for fuel in range(6):
            out = locally_constant((Q(1), Q(0)), Q(2), SPLIT, fuel)
            if out.verdict is not TwoBot.BOT:
                committed = out
                break
        assert committed is not None and committed.verdict is TwoBot.ZERO
        colors = {w.color for w in committed.witnesses}
        assert colors == {0, 1}
        for w in committed.witnesses:
            assert max(abs(w.point[0] - 1), abs(w.point[1])) < 2
            assert SPLIT.eval_point(w.point) == KBot(w.color)

    def test_tangent_ball_stays_undecided(self):
        for fuel in range(9):
            assert locally_constant((Q(1), Q(0)), Q(1), SPLIT, fuel).verdict is TwoBot.BOT

    def test_radius_must_be_positive(self):
        with pytest.raises(ValidationError, match="ball radius must be positive, got 0"):
            locally_constant((Q(1), Q(0)), Q(0), SPLIT, 0)


hyperplanes = st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
    st.fractions(min_value=-1, max_value=1, max_denominator=8),
).filter(lambda t: t[0] != 0 or t[1] != 0)

small_regions = st.one_of(
    st.tuples(
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
        st.fractions(min_value=0, max_value=1, max_denominator=8),
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
        st.fractions(min_value=0, max_value=1, max_denominator=8),
    ).map(lambda t: domain_box(box2(t[0], t[0] + t[1], t[2], t[2] + t[3]))),
    st.tuples(
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
        st.fractions(min_value=Q(1, 8), max_value=1, max_denominator=8),
    ).map(lambda t: closed_ball((t[0], t[1]), t[2], MetricKind.MAX)),
)


@given(
    plane=hyperplanes,
    region=small_regions,
    n=st.integers(min_value=0, max_value=1),
    fuel=st.integers(min_value=0, max_value=4),
)
@settings(deadline=None, max_examples=80)
def test_exists_matches_the_literal_enumeration(plane, region, n, fuel):
    f = hyperplane_classifier((plane[0], plane[1]), plane[2])
    got = exists_value(n, region.overt, f, fuel)
    want, _ = literal_exists(n, region.overt, f, fuel)
    assert got.verdict is want
    if got.verdict is Verdict.CONFIRMED:
        assert f.eval_point(got.witnesses[0].point) == KBot(n)
        assert got.witnesses[0].point in region.overt.points_at(fuel)


@given(
    plane=hyperplanes,
    region=small_regions,
    n=st.integers(min_value=0, max_value=1),
    fuel=st.integers(min_value=0, max_value=4),
)
@settings(deadline=None, max_examples=80)
def test_forall_matches_the_literal_cover(plane, region, n, fuel):
    f = hyperplane_classifier((plane[0], plane[1]), plane[2])
    assert forall_value(n, region.compact, f, fuel) is literal_forall(
        n, region.compact, f, fuel
    )


class TestRadiusStreams:
    def test_lower_stream_approaches_the_plane_distance(self):
        stream = radius_lower((Q(1), Q(0)), SPLIT, Q(4))
        assert stream.approx(6) == Q(63, 64)

    def test_upper_stream_approaches_from_above(self):
        stream = radius_upper((Q(1), Q(0)), SPLIT, Q(4))
        assert stream.approx(6) == Q(65, 64)

    def test_on_plane_center_rises_toward_zero_from_below(self):
        stream = radius_lower((Q(0), Q(0)), SPLIT, Q(4))
        assert [stream.approx(d) for d in range(1, 5)] == [
            Q(-1, 2),
            Q(-1, 4),
            Q(-1, 8),
            Q(-1, 16),
        ]

    def test_constant_classifier_saturates_the_lower_stream(self):
        f = constant_classifier(2, 0, dims=2)
        assert radius_lower((Q(1), Q(0)), f, Q(4)).approx(2) == 4

    def test_constant_classifier_never_confirms_an_upper_radius(self):
        f = constant_classifier(2, 0, dims=2)
        assert radius_upper((Q(1), Q(0)), f, Q(4)).approx(2) == 4

    def test_bot_center_keeps_the_upper_stream_at_the_ceiling(self):
        f = constant_classifier(2, None, dims=2)
        assert radius_upper((Q(1), Q(0)), f, Q(4)).approx(3) == 4


class TestOptimalRadius:
    def test_hyperplane_bracket_converges_around_one(self):
        report = optimal_radius((Q(1), Q(0)), SPLIT, Q(4), Q(1, 20))
        assert report.converged
        assert abs(report.lower - 1) <= Q(1, 20)
        assert abs(report.upper - 1) <= Q(1, 20)
        assert report.lower <= 1 <= report.upper

    def test_constant_classifier_saturates_without_converging(self):
        f = constant_classifier(2, 0, dims=2)
        report = optimal_radius((Q(1), Q(0)), f, Q(4), Q(1, 20), max_fuel=4)
        assert not report.converged
        assert report.lower_saturated
        assert report.upper_unconfirmed

    def test_crossing_net_bracket_matches_the_grid_search_oracle(self):
        layer = make_layer(((Q(1),), (Q(-1),)), (Q(0), Q(1)), "none")
        net = threshold_net_classifier((layer,), Q(1, 10))
        report = optimal_radius((Q(0),), net, Q(2), Q(3, 20), max_fuel=14)
        assert report.converged
        assert report.fuel_used == 4
        assert (report.lower, report.upper) == (Q(7, 16), Q(9, 16))

        def color(p):
            return net_color(
                [(((Q(1),), (Q(-1),)), (Q(0), Q(1)), "none")], Q(1, 10), 2, p
            )

        oracle_lower, oracle_upper = grid_search_radius(
            color, (Q(0),), Q(1, 16), Q(1)
        )
        assert report.lower == oracle_lower
        assert report.upper == oracle_upper

    @pytest.mark.parametrize(
        "metric, fuel, lower, upper",
        [
            (MetricKind.MAX, 4, Q(15, 16), Q(17, 16)),
            (MetricKind.EUCLID_SQ, 5, Q(31, 32), Q(35, 32)),
        ],
    )
    def test_bracket_stops_when_its_gap_equals_the_tolerance(self, metric, fuel, lower, upper):
        # "Within the tolerance" includes equality: the first bracket whose
        # gap is exactly 1/8 ends the loop.
        report = optimal_radius((Q(1), Q(0)), SPLIT, Q(4), Q(1, 8), metric)
        assert report.converged
        assert (report.fuel_used, report.lower, report.upper) == (fuel, lower, upper)
        assert report.gap == Q(1, 8)

    def test_trace_rows_cover_every_fuel_spent(self):
        report = optimal_radius((Q(1), Q(0)), SPLIT, Q(4), Q(1, 20))
        fuels = [row[0] for row in report.trace]
        assert fuels == list(range(report.fuel_used + 1))
