from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from boxcert import (
    Box,
    Interval,
    MetricKind,
    ParseError,
    Verdict,
    as_rational,
    dist_point,
    dist_range,
    dyadic_grid,
    dyadic_step,
    format_rational,
    parse_rational,
)
from oracles import (
    inf_of_confirmed_set,
    iv_abs,
    iv_add,
    iv_mul,
    iv_neg,
    iv_relu,
    iv_scale,
    iv_shift,
    iv_square,
    iv_sub,
    sup_of_confirmed_set,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)


class TestRationalIO:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Q(3, 4)
        assert parse_rational("-2") == Q(-2)
        assert parse_rational("0") == 0

    def test_format_always_shows_denominator(self):
        assert format_rational(Q(1, 2)) == "1/2"
        assert format_rational(Q(3)) == "3/1"
        assert format_rational(Q(-5, 8)) == "-5/8"

    @pytest.mark.parametrize("bad", ["1/0", "a/b", "1.5", "", "1/2/3"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_floats_rejected_at_the_boundary(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            as_rational(True)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(Q(1), Q(0))

    def test_arithmetic(self):
        """The reference interval arithmetic that ``tests/oracles.py`` runs on."""
        a = Interval(Q(1), Q(2))
        b = Interval(Q(-1), Q(3))
        assert iv_add(a, b) == Interval(Q(0), Q(5))
        assert iv_sub(a, b) == Interval(Q(-2), Q(3))
        assert iv_neg(b) == Interval(Q(-3), Q(1))
        assert iv_mul(a, b) == Interval(Q(-2), Q(6))
        assert iv_scale(a, Q(-2)) == Interval(Q(-4), Q(-2))
        assert iv_shift(b, Q(1)) == Interval(Q(0), Q(4))
        assert iv_relu(b) == Interval(Q(0), Q(3))
        assert iv_abs(b) == Interval(Q(0), Q(3))
        assert iv_abs(Interval(Q(-2), Q(-1))) == a
        assert iv_square(Interval(Q(-2), Q(1))) == Interval(Q(0), Q(4))

    def test_bisect_splits_at_midpoint(self):
        lo, hi = Interval(Q(0), Q(1)).bisect()
        assert lo == Interval(Q(0), Q(1, 2))
        assert hi == Interval(Q(1, 2), Q(1))


class TestBox:
    def test_bisect_widest_side_lowest_index_ties(self):
        box = Box((Interval(Q(0), Q(1)), Interval(Q(0), Q(1))))
        first, second = box.bisect()
        assert first.sides[0] == Interval(Q(0), Q(1, 2))
        assert first.sides[1] == Interval(Q(0), Q(1))
        assert second.sides[0] == Interval(Q(1, 2), Q(1))

    def test_width_is_max_side(self):
        box = Box((Interval(Q(0), Q(1, 4)), Interval(Q(0), Q(1))))
        assert box.width == 1


class TestDistRange:
    def test_coordinate_distance_forced(self):
        box = Box((Interval(Q(1), Q(2)), Interval(Q(0), Q(0))))
        got = dist_range(box, (Q(0), Q(0)), MetricKind.MAX)
        assert got == Interval(Q(1), Q(2))

    def test_point_inside_interval(self):
        box = Box((Interval(Q(0), Q(1)),))
        got = dist_range(box, (Q(1, 2),), MetricKind.MAX)
        assert got == Interval(Q(0), Q(1, 2))

    def test_squared_euclidean_by_hand(self):
        box = Box((Interval(Q(3), Q(4)), Interval(Q(4), Q(4))))
        got = dist_range(box, (Q(0), Q(0)), MetricKind.EUCLID_SQ)
        assert got == Interval(Q(25), Q(32))

    @given(
        lo1=rationals, w1=st.fractions(min_value=0, max_value=2, max_denominator=32),
        lo2=rationals, w2=st.fractions(min_value=0, max_value=2, max_denominator=32),
        x1=rationals, x2=rationals,
        t1=st.fractions(min_value=0, max_value=1, max_denominator=16),
        t2=st.fractions(min_value=0, max_value=1, max_denominator=16),
        metric=st.sampled_from([MetricKind.MAX, MetricKind.EUCLID_SQ]),
    )
    def test_soundness_on_sampled_interior_points(self, lo1, w1, lo2, w2, x1, x2, t1, t2, metric):
        box = Box((Interval(lo1, lo1 + w1), Interval(lo2, lo2 + w2)))
        y = (lo1 + t1 * w1, lo2 + t2 * w2)
        x = (x1, x2)
        rng = dist_range(box, x, metric)
        assert rng.lo <= dist_point(y, x, metric) <= rng.hi


class TestDyadicGrid:
    def test_step(self):
        assert dyadic_step(0) == 1
        assert dyadic_step(3) == Q(1, 8)

    def test_grid_members_are_multiples(self):
        pts = dyadic_grid(Q(0), Q(1), 2)
        assert pts == [Q(0), Q(1, 4), Q(1, 2), Q(3, 4), Q(1)]

    def test_grid_clips_to_range(self):
        pts = dyadic_grid(Q(1, 3), Q(2, 3), 1)
        assert pts == [Q(1, 2)]

    @given(
        lo=rationals,
        width=st.fractions(min_value=0, max_value=4, max_denominator=32),
        fuel=st.integers(min_value=0, max_value=6),
    )
    def test_grids_nest_across_fuel(self, lo, width, fuel):
        coarse = set(dyadic_grid(lo, lo + width, fuel))
        fine = set(dyadic_grid(lo, lo + width, fuel + 1))
        assert coarse <= fine


def interval_membership(cut: Q):
    def membership(r: Q, fuel: int) -> Verdict:
        return Verdict.CONFIRMED if r < cut else Verdict.UNKNOWN

    return membership


class TestSupOfConfirmedSet:
    def test_approaches_cut_from_below(self):
        stream = sup_of_confirmed_set(interval_membership(Q(1)), 10)
        assert stream.approx(3) == Q(7, 8)
        assert stream.approx(6) == Q(63, 64)

    def test_sentinel_is_one_grid_step_below_zero(self):
        def never(r, fuel):
            return Verdict.UNKNOWN

        stream = sup_of_confirmed_set(never, 10)
        assert stream.approx(0) == Q(-1)
        assert stream.approx(3) == Q(-1, 8)

    def test_ceiling_saturation(self):
        def always(r, fuel):
            return Verdict.CONFIRMED

        stream = sup_of_confirmed_set(always, 10)
        assert stream.approx(4) == 10

    @given(
        cut=st.fractions(min_value=0, max_value=8, max_denominator=64),
        fuel=st.integers(min_value=0, max_value=8),
    )
    @settings(deadline=None)
    def test_converges_within_two_steps(self, cut, fuel):
        stream = sup_of_confirmed_set(interval_membership(cut), 10)
        got = stream.approx(fuel)
        assert abs(got - cut) <= 2 * dyadic_step(fuel)

    @given(
        cut=st.fractions(min_value=0, max_value=8, max_denominator=64),
        fuel=st.integers(min_value=0, max_value=7),
    )
    @settings(deadline=None)
    def test_stream_is_nondecreasing(self, cut, fuel):
        stream = sup_of_confirmed_set(interval_membership(cut), 10)
        assert stream.approx(fuel) <= stream.approx(fuel + 1)


class TestInfOfConfirmedSet:
    def test_approaches_cut_from_above(self):
        def membership(r, fuel):
            return Verdict.CONFIRMED if r > 1 else Verdict.UNKNOWN

        stream = inf_of_confirmed_set(membership, 10)
        assert stream.approx(3) == Q(9, 8)

    def test_sentinel_is_the_ceiling(self):
        def never(r, fuel):
            return Verdict.UNKNOWN

        assert inf_of_confirmed_set(never, 10).approx(5) == 10

    def test_floor_at_zero(self):
        def membership(r, fuel):
            return Verdict.CONFIRMED if r > -3 else Verdict.UNKNOWN

        assert inf_of_confirmed_set(membership, 10).approx(2) == 0

    @given(
        cut=st.fractions(min_value=0, max_value=8, max_denominator=64),
        fuel=st.integers(min_value=0, max_value=7),
    )
    @settings(deadline=None)
    def test_stream_is_nonincreasing(self, cut, fuel):
        def membership(r, f):
            return Verdict.CONFIRMED if r > cut else Verdict.UNKNOWN

        stream = inf_of_confirmed_set(membership, 10)
        assert stream.approx(fuel) >= stream.approx(fuel + 1)
