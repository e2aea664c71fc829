from __future__ import annotations

import dataclasses
import inspect
import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from boxcert import (
    Box,
    ColorEnvelope,
    Interval,
    KBot,
    Learner,
    MetricKind,
    Outcome,
    Sample,
    TwoBot,
    ValidationError,
    Verdict,
    VKSet,
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

    def family_at(sample, additions, point):
        return ColorEnvelope(frozenset(range(k)), True)

    return Learner(k=k, train=train, family_at=family_at)


class TestCountArguments:
    """A count that is not a nonnegative (k: positive) int is a ValidationError."""

    @pytest.mark.parametrize("k", [0, -1, Q(2), 1.5, "2", True], ids=repr)
    @pytest.mark.parametrize(
        "make",
        [
            lambda k: nn_learner(Q(1, 8), k=k),
            lambda k: majority_learner(k=k),
            lambda k: Learner(k=k, train=None, family_at=None),
        ],
        ids=["nn", "majority", "Learner"],
    )
    def test_learner_k_must_be_a_positive_integer(self, make, k):
        message = f"learner k must be a positive integer, got {k!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(k)

    @pytest.mark.parametrize("bound", [-1, Q(1), 1.5, "1", True], ids=repr)
    @pytest.mark.parametrize("field", ["sparse_bound", "dense_bound", "deviation_bound"])
    def test_search_bounds_must_be_nonnegative_integers(self, field, bound):
        with pytest.raises(ValidationError, match="^search bounds must be nonnegative integers"):
            Learner(k=2, train=None, family_at=None, **{field: bound})

    @pytest.mark.parametrize("N",[Q(3, 2), 1.5, Q(1), "1", True, None], ids=repr)
    def test_augmentation_count_must_be_an_integer(self, N):
        message = f"augmentation count must be an integer, got {N!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sparse_or_dense(
                majority_learner(), N, Q(1, 5), sample_1d((Q(0), 0)), (Q(1, 2),), UNIT, 0
            )


EVERY_LEARNER = pytest.mark.parametrize(
    "make",
    [
        lambda: nn_learner(Q(1, 8), k=2, metric=MetricKind.MAX),
        lambda: nn_learner(Q(1, 8), k=2, metric=MetricKind.EUCLID_SQ),
        lambda: majority_learner(k=2),
    ],
    ids=["nn-max", "nn-euclid-sq", "majority"],
)
EVERY_CHECK = pytest.mark.parametrize("where", ["train", "family-sample", "family-additions"])


class TestLabelRange:
    """A label that is not an integer in 0..k-1 is a ValidationError
    wherever a learner meets it."""

    @staticmethod
    def meet(make, where, label):
        L = make()
        good, bad = sample_1d((Q(0), 1)), sample_1d((Q(0), label))
        box = Box((Interval(Q(1, 4), Q(3, 4)),))
        call = {
            "train": lambda: L.train(bad),
            "family-sample": lambda: L.family_at(bad, [], (Q(1, 2),)),
            "family-additions": lambda: L.family_at(good, [(box, 0), (box, label)], (Q(1, 2),)),
        }[where]
        message = f"label {label!r} out of range for k=2"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    @EVERY_LEARNER
    @EVERY_CHECK
    def test_label_out_of_range(self, make, where):
        self.meet(make, where, 5)

    @pytest.mark.parametrize("label", [True, 0.5, Q(1), "1"], ids=["bool", "float", "fraction", "str"])
    @EVERY_LEARNER
    @EVERY_CHECK
    def test_label_not_an_integer(self, make, where, label):
        self.meet(make, where, label)


class TestSample:
    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValidationError, match="sample points must share one dimension"):
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
        with pytest.raises(ValidationError, match="sample points must share one dimension"):
            base.extend((((Q(0), Q(1)), 1),))

    def test_exact_sample_equals_checked_sample(self):
        pairs = (((Q(0), Q(1, 2)), 0), ((Q(1, 4), Q(1)), 1))
        assert Sample._exact(pairs) == Sample(pairs)
        assert hash(Sample._exact(pairs)) == hash(Sample(pairs))


class TestNNLearner:
    def test_nearest_neighbor_commits_with_margin(self):
        L = nn_learner(tie_margin=Q(1, 100))
        g = L.train(sample_1d((Q(1, 5), 0), (Q(4, 5), 1)))
        assert g.eval_point((Q(21, 100),)) == KBot(0)

    def test_equidistant_tie_is_bot(self):
        L = nn_learner(tie_margin=Q(1, 100))
        g = L.train(sample_1d((Q(1, 5), 0), (Q(4, 5), 1)))
        assert g.eval_point((Q(1, 2),)) == KBot.bot()

    def test_empty_sample_trains_a_silent_classifier(self):
        L = nn_learner(tie_margin=Q(1, 100))
        g = L.train(Sample(()))
        assert g.eval_point((Q(1, 2),)) == KBot.bot()

    def test_wrong_dimension_query_raises(self):
        g = nn_learner(tie_margin=Q(1, 100)).train(sample_1d((Q(1, 5), 0), (Q(4, 5), 1)))
        with pytest.raises(ValidationError, match="dimension mismatch: 2 vs 1"):
            g.eval_point((Q(1, 2), Q(1, 2)))

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
        got = g.eval_point((query,))
        want = nn_color([(Q(x),) for x, _ in pairs], [l for _, l in pairs], (query,), Q(1, 64))
        assert got.color == want


class TestMajorityLearner:
    def test_strict_majority(self):
        L = majority_learner(k=2)
        g = L.train(sample_1d((Q(0), 0), (Q(1, 4), 0), (Q(1, 2), 0), (Q(3, 4), 1)))
        assert g.eval_point((Q(9, 10),)) == KBot(0)

    def test_tie_is_bot(self):
        L = majority_learner(k=2)
        g = L.train(sample_1d((Q(0), 0), (Q(1), 1)))
        assert g.eval_point((Q(1, 2),)) == KBot.bot()

    def test_empty_sample_is_bot(self):
        L = majority_learner(k=2)
        assert L.train(Sample(())).eval_point((Q(1, 2),)) == KBot.bot()

    @given(labels=st.lists(st.integers(min_value=0, max_value=2), max_size=6))
    def test_agrees_with_the_counting_oracle(self, labels):
        L = majority_learner(k=3)
        pairs = [(Q(i, 7), lab) for i, lab in enumerate(labels)]
        g = L.train(sample_1d(*pairs))
        assert g.eval_point((Q(1, 2),)).color == majority_color(labels)


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
        got = trained.eval_point(target_point)
        assert got == KBot(confirmed.witnesses[0].observed)
        assert confirmed.witnesses[0].observed != target_label

    def test_nn_never_deviates_at_small_fuel(self):
        L = nn_learner(tie_margin=Q(1, 4))
        for fuel in range(9):
            assert does_deviate(L, UNIT, fuel).verdict is Verdict.UNKNOWN

    def test_bot_learner_never_deviates(self):
        for fuel in range(7):
            assert does_deviate(bot_learner(), UNIT, fuel).verdict is Verdict.UNKNOWN

    def test_reads_only_the_grid_prefix_it_searches(self):
        cube = domain_box([(0, 1)] * 3)
        tested = []

        def member(p):
            tested.append(p)
            return cube.overt.member(p)

        counted = VKSet(cube.compact, dataclasses.replace(cube.overt, member=member))
        fuel = 5
        assert does_deviate(bot_learner(), counted, fuel).verdict is Verdict.UNKNOWN
        # A search that finds nothing reads every window, and the widest at
        # depth d holds the first 2**(fuel-1-d)+1 of the grid's (2**d+1)**3
        # points.  Each of those is tested once: 27 tests, where the whole
        # grids hold 5,802 points.
        prefixes = [min(2 ** (fuel - 1 - d) + 1, (2**d + 1) ** 3) for d in range(fuel)]
        assert len(tested) == sum(prefixes) == 27


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

        def family_at(sample, additions, point):
            return ColorEnvelope(frozenset({0}), False)

        L = Learner(k=2, train=train, family_at=family_at)
        out = robust_point((Q(1, 2),), sample_1d((Q(0), 0)), L, UNIT, 0)
        assert out.verdict is TwoBot.ONE

    def test_bottom_base_is_bot_without_a_search(self):
        searched = []

        def family_at(sample, additions, point):
            searched.append(additions)
            return ColorEnvelope(frozenset({0}), False)

        L = Learner(k=2, train=bot_learner().train, family_at=family_at)
        for fuel in range(4):
            out = robust_point((Q(1, 2),), sample_1d((Q(0), 0)), L, UNIT, fuel)
            assert out == Outcome(TwoBot.BOT, base=KBot.bot())
        assert searched == []

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
        got = retrained.eval_point((Q(21, 100),))
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
            got = retrained.eval_point((Q(1, 2),))
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
            got = retrained.eval_point((Q(1, 2),))
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
        with pytest.raises(ValidationError, match="N=4 exceeds the cap of 3"):
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


class TestEmptyAugmentation:
    """Both searches judge the empty augmentation by the trained classifier.

    This learner's trained classifier commits to 0 everywhere, and so does
    its family envelope given at least one addition; with none it is loose.
    The searches never ask it about no additions, so both certify ONE.
    """

    @staticmethod
    def loose_learner(asked):
        def train(sample):
            return constant_classifier(2, 0, dims=None)

        def family_at(sample, additions, point):
            asked.append(len(additions))
            if additions:
                return ColorEnvelope(frozenset({0}), False)
            return ColorEnvelope(frozenset({0, 1}), True)

        return Learner(k=2, train=train, family_at=family_at)

    def test_both_searches_certify_the_trained_color(self):
        asked = []
        L = self.loose_learner(asked)
        s, x = sample_1d((Q(0), 0)), (Q(1, 2),)
        for fuel in range(3):
            got = sparse_or_dense(L, 1, Q(1, 4), s, x, UNIT, fuel)
            assert got == Outcome(TwoBot.ONE, color=0)
            assert robust_point(x, s, L, UNIT, fuel) == Outcome(TwoBot.ONE, base=KBot(0))
        assert asked and 0 not in asked


class TestFamilyEnvelopes:
    @EVERY_LEARNER
    def test_family_at_takes_no_fuel(self, make):
        """A family envelope is a function of the sample, the additions and
        the point alone."""
        plain = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        params = inspect.signature(make().family_at).parameters.values()
        assert [(p.kind, p.default) for p in params] == [plain] * 3

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
        env = L.family_at(s, ((box, add_label),), (query,))
        y = lo + t * (hi - lo)
        retrained = L.train(s.extend((((y,), add_label),)))
        got = retrained.eval_point((query,))
        if got.committed:
            assert got.color in env.colors
        else:
            assert env.maybe_bot
        committed_color = env.committed_color
        if committed_color is not None:
            assert got == KBot(committed_color)

    @given(
        data=st.data(),
        learner=st.sampled_from(["nn-max", "nn-euclid", "majority"]),
        k=st.integers(1, 3),
        steps=st.sampled_from([1, 2, 4]),
        dims=st.integers(1, 2),
    )
    @settings(deadline=None, max_examples=200)
    def test_family_envelopes_shrink_with_each_added_box(self, data, learner, k, steps, dims):
        """Shrinking one added box to a sub-box gives an envelope inside
        its parent's, and a committed color stays committed.  The dense
        side's cover walk splits only boxes that fail to commit and relies
        on this.  Corners lie on the 1/8 grid and the margins are 1, 2 or
        4 grid steps of distance, so ties at the margin are common."""
        grid = st.integers(-8, 8).map(lambda n: Q(n, 8))
        point = st.tuples(*[grid] * dims)
        labels = st.integers(0, k - 1)
        if learner == "majority":
            L = majority_learner(k)
        else:
            metric = MetricKind.MAX if learner == "nn-max" else MetricKind.EUCLID_SQ
            unit = Q(1, 8) if metric is MetricKind.MAX else Q(1, 64)
            L = nn_learner(steps * unit, k=k, metric=metric)
        s = Sample(tuple(data.draw(st.lists(st.tuples(point, labels), max_size=3))))
        x = data.draw(point)

        def box(corners):
            return Box(tuple(Interval(min(a, b), max(a, b)) for a, b in zip(*corners)))

        added = data.draw(st.lists(st.tuples(st.tuples(point, point), labels), min_size=1, max_size=3))
        additions = [(box(corners), label) for corners, label in added]
        i = data.draw(st.integers(0, len(additions) - 1))
        parent, label = additions[i]
        share = st.integers(0, 4).map(lambda n: Q(n, 4))
        sides = []
        for side in parent.sides:
            a, b = sorted(data.draw(st.tuples(share, share)))
            sides.append(Interval(side.lo + a * (side.hi - side.lo), side.lo + b * (side.hi - side.lo)))
        shrunk = additions[:i] + [(Box(tuple(sides)), label)] + additions[i + 1 :]
        outer, inner = L.family_at(s, additions, x), L.family_at(s, shrunk, x)
        assert inner.colors <= outer.colors
        assert outer.maybe_bot or not inner.maybe_bot
        if outer.committed_color is not None:
            assert inner.committed_color == outer.committed_color
