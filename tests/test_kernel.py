from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from boxcert import IncoherentRace, TwoBot, ValidationError, Verdict, any_of, race
from boxcert.kernel import _fuel_loop, _per_query, _query, _query_scope, check_fuel


def confirms_at(threshold: int):
    def decider(fuel: int) -> Verdict:
        return Verdict.CONFIRMED if fuel >= threshold else Verdict.UNKNOWN

    return decider


def never(fuel: int) -> Verdict:
    return Verdict.UNKNOWN


class TestCheckFuel:
    def test_accepts_naturals(self):
        check_fuel(0)
        check_fuel(17)

    @pytest.mark.parametrize("bad", [-1, True, 1.5, "3"])
    def test_rejects_non_naturals(self, bad):
        with pytest.raises((TypeError, ValueError)):
            check_fuel(bad)


class TestAnyOf:
    def test_empty_join_is_unknown(self):
        assert any_of([], 0) is Verdict.UNKNOWN
        assert any_of([], 9) is Verdict.UNKNOWN

    def test_identity_case(self):
        assert any_of([confirms_at(0)], 0) is Verdict.CONFIRMED

    def test_threshold_pair(self):
        deciders = [confirms_at(5), never]
        assert any_of(deciders, 4) is Verdict.UNKNOWN
        assert any_of(deciders, 5) is Verdict.CONFIRMED


class TestRace:
    def test_yes_side_wins(self):
        assert race(confirms_at(2), never, 2) is TwoBot.ONE

    def test_undecided_before_either_commits(self):
        assert race(never, confirms_at(4), 3) is TwoBot.BOT

    def test_no_side_wins(self):
        assert race(never, confirms_at(4), 4) is TwoBot.ZERO

    def test_both_silent_realizes_bot(self):
        assert race(never, never, 100) is TwoBot.BOT

    def test_double_commit_is_incoherent(self):
        with pytest.raises(IncoherentRace):
            race(confirms_at(0), confirms_at(0), 0)


class TestFuelLoop:
    def test_stops_at_the_first_accepted_result(self):
        assert _fuel_loop(lambda fuel: fuel * fuel, lambda r: r >= 9, 10) == [0, 1, 4, 9]

    def test_runs_through_the_budget_when_nothing_is_accepted(self):
        assert _fuel_loop(lambda fuel: -fuel, lambda r: False, 4) == [0, -1, -2, -3, -4]
        assert _fuel_loop(lambda fuel: fuel, lambda r: r > 4, 4) == [0, 1, 2, 3, 4]
        assert _fuel_loop(lambda fuel: fuel, lambda r: False, 0) == [0]

    def test_returns_every_result_in_fuel_order(self):
        results = _fuel_loop(lambda fuel: (fuel, "row"), lambda r: r[0] == 3, 9)
        assert results == [(0, "row"), (1, "row"), (2, "row"), (3, "row")]

    @pytest.mark.parametrize("bad", [-1, True, 1.5, "3", None])
    def test_rejects_a_bad_budget(self, bad):
        steps = []
        with pytest.raises(ValidationError):
            _fuel_loop(steps.append, lambda r: False, bad)
        assert steps == []

    def test_every_step_shares_one_query_context(self):
        computed = []

        @_per_query
        def square(n):
            computed.append(n)
            return n * n

        assert _fuel_loop(lambda fuel: square(3), lambda r: False, 5) == [9] * 6
        assert computed == [3]

    def test_keeps_an_enclosing_context(self):
        with _query_scope():
            outer = _query()
            contexts = _fuel_loop(lambda fuel: _query(), lambda r: False, 2)
            assert _query() is outer
        assert len(contexts) == 3
        assert all(context is outer for context in contexts)


class TestValueTypes:
    def test_verdict_truthiness(self):
        assert Verdict.CONFIRMED
        assert not Verdict.UNKNOWN

    def test_two_bot_commitment(self):
        assert TwoBot.ZERO.committed
        assert TwoBot.ONE.committed
        assert not TwoBot.BOT.committed


@given(
    thresholds=st.lists(st.integers(min_value=0, max_value=12), max_size=5),
    fuel=st.integers(min_value=0, max_value=12),
    extra=st.integers(min_value=1, max_value=6),
)
def test_combinators_are_fuel_monotone(thresholds, fuel, extra):
    deciders = [confirms_at(t) for t in thresholds]
    if any_of(deciders, fuel) is Verdict.CONFIRMED:
        assert any_of(deciders, fuel + extra) is Verdict.CONFIRMED
