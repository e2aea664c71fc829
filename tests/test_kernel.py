from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from boxcert import IncoherentRace, TwoBot, Verdict, any_of, race
from boxcert.kernel import check_fuel


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
