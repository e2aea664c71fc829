from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from boxcert import (
    AugmentationCapExceeded,
    Box,
    ColorEnvelope,
    DimensionMismatch,
    Interval,
    KBot,
    Learner,
    MetricKind,
    Sample,
    TwoBot,
    Verdict,
    constant_classifier,
    does_deviate,
    domain_box,
    majority_learner,
    nn_learner,
    robust_point,
    sparse_or_dense,
)

from oracles import majority_color, nn_color

UNIT = domain_box(Box((Interval(Q(0), Q(1)),)))


def sample_1d(*pairs):
    return Sample(tuple(((Q(x),), label) for x, label in pairs))


def bot_learner(k=2):
    """A learner whose trained classifier commits nowhere."""

    def train(sample):
        return constant_classifier(k, None, dims=None)

    def family_at(sample, additions, point, fuel):
        return ColorEnvelope(frozenset(range(k)), True)

    return Learner(k=k, train=train, family_at=family_at)


class TestSample:
    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            Sample((((Q(0),), 0), ((Q(0), Q(1)), 1)))

    def test_extend(self):
        base = sample_1d((Q(0), 0))
        grown = base.extend((((Q(1),), 1),))
        assert len(grown) == 2
        assert len(base) == 1

    def test_extend_coerces_and_checks_additions(self):
        base = sample_1d((Q(0), 0))
        assert base.extend(((("1/2",), 1),)).points[1] == ((Q(1, 2),), 1)
        with pytest.raises(TypeError):
            base.extend((((0.5,), 1),))
        with pytest.raises(DimensionMismatch):
            base.extend((((Q(0), Q(1)), 1),))

    def test_exact_sample_equals_checked_sample(self):
        pairs = (((Q(0), Q(1, 2)), 0), ((Q(1, 4), Q(1)), 1))
        assert Sample._exact(pairs) == Sample(pairs)
        assert hash(Sample._exact(pairs)) == hash(Sample(pairs))


class TestNNLearner:
    def test_nearest_neighbor_commits_with_margin(self):
        L = nn_learner(tie_margin=Q(1, 100))
        g = L.train(sample_1d((Q(1, 5), 0), (Q(4, 5), 1)))
        assert g.eval_point((Q(21, 100),), 0) == KBot(0)

    def test_equidistant_tie_is_bot(self):
        L = nn_learner(tie_margin=Q(1, 100))
        g = L.train(sample_1d((Q(1, 5), 0), (Q(4, 5), 1)))
        assert g.eval_point((Q(1, 2),), 0) == KBot.bot()

    def test_empty_sample_trains_a_silent_classifier(self):
        L = nn_learner(tie_margin=Q(1, 100))
        g = L.train(Sample(()))
        assert g.eval_point((Q(1, 2),), 0) == KBot.bot()

    def test_wrong_dimension_query_raises(self):
        g = nn_learner(tie_margin=Q(1, 100)).train(sample_1d((Q(1, 5), 0), (Q(4, 5), 1)))
        with pytest.raises(DimensionMismatch):
            g.eval_point((Q(1, 2), Q(1, 2)), 0)

    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            nn_learner(tie_margin=Q(0))

    @given(
        xs=st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=32),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        labels=st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4),
        query=st.fractions(min_value=0, max_value=1, max_denominator=32),
    )
    @settings(deadline=None)
    def test_agrees_with_the_sorted_distance_oracle(self, xs, labels, query):
        pairs = [(x, labels[i]) for i, x in enumerate(xs)]
        L = nn_learner(tie_margin=Q(1, 64))
        g = L.train(sample_1d(*pairs))
        got = g.eval_point((query,), 0)
        want = nn_color([(Q(x),) for x, _ in pairs], [l for _, l in pairs], (query,), Q(1, 64))
        assert got.color == want


class TestMajorityLearner:
    def test_strict_majority(self):
        L = majority_learner(k=2)
        g = L.train(sample_1d((Q(0), 0), (Q(1, 4), 0), (Q(1, 2), 0), (Q(3, 4), 1)))
        assert g.eval_point((Q(9, 10),), 0) == KBot(0)

    def test_tie_is_bot(self):
        L = majority_learner(k=2)
        g = L.train(sample_1d((Q(0), 0), (Q(1), 1)))
        assert g.eval_point((Q(1, 2),), 0) == KBot.bot()

    def test_empty_sample_is_bot(self):
        L = majority_learner(k=2)
        assert L.train(Sample(())).eval_point((Q(1, 2),), 0) == KBot.bot()

    @given(labels=st.lists(st.integers(min_value=0, max_value=2), max_size=6))
    def test_agrees_with_the_counting_oracle(self, labels):
        L = majority_learner(k=3)
        pairs = [(Q(i, 7), lab) for i, lab in enumerate(labels)]
        g = L.train(sample_1d(*pairs))
        assert g.eval_point((Q(1, 2),), 0).color == majority_color(labels)


class TestDoesDeviate:
    def test_majority_deviates_with_a_replayable_witness(self):
        L = majority_learner(k=2)
        confirmed = None
        for fuel in range(11):
            out = does_deviate(L, UNIT, fuel)
            if out.verdict is Verdict.CONFIRMED:
                confirmed = out
                break
        assert confirmed is not None
        points = [p for p, _ in confirmed.witnesses[0].sample]
        assert len(set(points)) == len(points), "witness points must be distinct"
        trained = L.train(Sample(tuple(confirmed.witnesses[0].sample)))
        target_point, target_label = confirmed.witnesses[0].sample[confirmed.witnesses[0].index]
        got = trained.eval_point(target_point, fuel)
        assert got == KBot(confirmed.witnesses[0].observed)
        assert confirmed.witnesses[0].observed != target_label

    def test_nn_never_deviates_at_small_fuel(self):
        L = nn_learner(tie_margin=Q(1, 4))
        for fuel in range(9):
            assert does_deviate(L, UNIT, fuel).verdict is Verdict.UNKNOWN

    def test_bot_learner_never_deviates(self):
        for fuel in range(7):
            assert does_deviate(bot_learner(), UNIT, fuel).verdict is Verdict.UNKNOWN


class TestRobustPoint:
    def test_majority_three_versus_one_is_robust(self):
        L = majority_learner(k=2)
        s = sample_1d((Q(0), 0), (Q(1, 4), 0), (Q(1, 2), 0), (Q(3, 4), 1))
        out = robust_point((Q(1, 2),), s, L, UNIT, 0)
        assert out.verdict is TwoBot.ONE
        assert out.base == KBot(0)

    def test_constant_learner_is_robust(self):
        def train(sample):
            return constant_classifier(2, 0, dims=None)

        def family_at(sample, additions, point, fuel):
            return ColorEnvelope(frozenset({0}), False)

        L = Learner(k=2, train=train, family_at=family_at)
        out = robust_point((Q(1, 2),), sample_1d((Q(0), 0)), L, UNIT, 0)
        assert out.verdict is TwoBot.ONE

    def test_nn_flip_found_by_the_enumeration(self):
        L = nn_learner(tie_margin=Q(1, 200))
        s = sample_1d((Q(1, 5), 0), (Q(4, 5), 1))
        committed = None
        for fuel in range(13):
            out = robust_point((Q(21, 100),), s, L, UNIT, fuel)
            if out.verdict is not TwoBot.BOT:
                committed = out
                break
        assert committed is not None and committed.verdict is TwoBot.ZERO
        (added_point, added_label), = committed.witnesses[0].extension
        retrained = L.train(s.extend((((added_point[0],), added_label),)))
        got = retrained.eval_point((Q(21, 100),), fuel)
        assert got == KBot(committed.witnesses[0].outcome)
        assert committed.witnesses[0].outcome != committed.base.color

    def test_one_commitments_survive_random_augmentation(self):
        rng = random.Random(7)
        L = majority_learner(k=2)
        s = sample_1d((Q(0), 0), (Q(1, 4), 0), (Q(1, 2), 0), (Q(3, 4), 1))
        out = robust_point((Q(1, 2),), s, L, UNIT, 2)
        assert out.verdict is TwoBot.ONE
        for _ in range(50):
            y = Q(rng.randint(0, 64), 64)
            label = rng.randint(0, 1)
            retrained = L.train(s.extend((((y,), label),)))
            got = retrained.eval_point((Q(1, 2),), 4)
            if got.committed:
                assert got.color == out.base.color


class TestSparseOrDense:
    def test_sparse_pair_of_witnesses(self):
        L = nn_learner(tie_margin=Q(1, 100))
        s = sample_1d((Q(0), 0), (Q(1), 1))
        committed = None
        for fuel in range(13):
            out = sparse_or_dense(L, 1, Q(1, 5), s, (Q(1, 2),), UNIT, fuel)
            if out.verdict is not TwoBot.BOT:
                committed = out
                break
        assert committed is not None and committed.verdict is TwoBot.ZERO
        outcomes = set()
        for witness in committed.witnesses:
            for (point, _label) in witness.extension:
                assert abs(point[0] - Q(1, 2)) > Q(1, 5), "sparse witness must be strictly outside"
            retrained = L.train(s.extend(tuple(((p[0],), l) for p, l in witness.extension)))
            got = retrained.eval_point((Q(1, 2),), fuel)
            assert got == KBot(witness.outcome)
            outcomes.add(witness.outcome)
        assert len(outcomes) == 2

    def test_dense_single_color_under_all_far_augmentations(self):
        L = nn_learner(tie_margin=Q(1, 100))
        s = sample_1d((Q(45, 100), 0), (Q(40, 100), 0))
        committed = None
        for fuel in range(13):
            out = sparse_or_dense(L, 1, Q(1, 5), s, (Q(1, 2),), UNIT, fuel)
            if out.verdict is not TwoBot.BOT:
                committed = out
                break
        assert committed is not None and committed.verdict is TwoBot.ONE
        assert committed.color == 0

    def test_bot_learner_stays_bot(self):
        s = sample_1d((Q(0), 0))
        for fuel in range(8):
            out = sparse_or_dense(bot_learner(), 1, Q(1, 5), s, (Q(1, 2),), UNIT, fuel)
            assert out.verdict is TwoBot.BOT

    def test_augmentation_cap(self):
        L = majority_learner(k=2)
        with pytest.raises(AugmentationCapExceeded):
            sparse_or_dense(L, 4, Q(1, 5), sample_1d((Q(0), 0)), (Q(1, 2),), UNIT, 0)

    def test_never_commits_both_values_across_fuels(self):
        L = nn_learner(tie_margin=Q(1, 100))
        cases = [
            sample_1d((Q(0), 0), (Q(1), 1)),
            sample_1d((Q(45, 100), 0), (Q(40, 100), 0)),
            sample_1d((Q(1, 4), 1)),
        ]
        for s in cases:
            seen = set()
            for fuel in range(9):
                value = sparse_or_dense(L, 1, Q(1, 5), s, (Q(1, 2),), UNIT, fuel).verdict
                if value is not TwoBot.BOT:
                    seen.add(value)
            assert len(seen) <= 1


class TestFamilyEnvelopes:
    @given(
        xs=st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=16),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        labels=st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=3),
        lo=st.fractions(min_value=0, max_value=1, max_denominator=16),
        width=st.fractions(min_value=0, max_value=Q(1, 2), max_denominator=16),
        add_label=st.integers(min_value=0, max_value=1),
        t=st.fractions(min_value=0, max_value=1, max_denominator=8),
        query=st.fractions(min_value=0, max_value=1, max_denominator=16),
    )
    @settings(deadline=None, max_examples=60)
    def test_nn_family_envelope_is_sound(self, xs, labels, lo, width, add_label, t, query):
        pairs = [(x, labels[i]) for i, x in enumerate(xs)]
        L = nn_learner(tie_margin=Q(1, 32))
        s = sample_1d(*pairs)
        hi = min(Q(1), lo + width)
        box = Box((Interval(lo, hi),))
        env = L.family_at(s, ((box, add_label),), (query,), 0)
        y = lo + t * (hi - lo)
        retrained = L.train(s.extend((((y,), add_label),)))
        got = retrained.eval_point((query,), 0)
        if got.committed:
            assert got.color in env.colors
        else:
            assert env.maybe_bot
        committed_color = env.committed_color
        if committed_color is not None:
            assert got == KBot(committed_color)
