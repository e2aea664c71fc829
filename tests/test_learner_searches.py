"""The multiset learner searches against the ordered-tuple references.

``does_deviate`` and ``sparse_or_dense`` try each labeled multiset of
added points once, which is sound only because the learners are
order-free.  The references in ``oracles`` retrain every ordering, so the
two must reach the same verdict and color at every fuel, and every
committed witness must replay through a real retrain.  ``robust_point``
runs ``sparse_or_dense``'s race body; its reference keeps the two
single-point race sides it had before, and the outcomes must be equal.

Inside one query context ``does_deviate`` resumes from its last finished
stage and skips the candidates it has tried.  Fuel loops and re-asks in
one context must give the reference's outcome at every fuel, and a loop
must retrain each distinct candidate exactly once.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction as Q
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from boxcert import (
    Box,
    ExtensionWitness,
    Interval,
    KBot,
    MetricKind,
    Sample,
    TwoBot,
    Verdict,
    does_deviate,
    domain_box,
    majority_learner,
    nn_learner,
    robust_point,
    sparse_or_dense,
)
from boxcert.kernel import _query_scope
from boxcert.numerics import dist_point

from oracles import ref_does_deviate, ref_robust_point, ref_sparse_or_dense

FUELS = range(5)
# Majority first deviates at fuel 4 on [-1, 1] and at fuel 5 on [0, 1],
# from a finer grid; the deviation search is cheap enough to go to 6.
DEVIATE_FUELS = range(7)
ROBUST_FUELS = range(7)
METRICS = st.sampled_from([MetricKind.MAX, MetricKind.EUCLID_SQ])
INTERVALS = [
    domain_box([(0, 1)]),
    domain_box([(0, Q(1, 2))]),
    domain_box([(Q(-1, 2), Q(1, 4))]),
    domain_box([(-1, 1)]),
]
DOMAINS = st.sampled_from(INTERVALS)
# The deviation search reads only a prefix of each grid; on a 3-D box the
# prefix is a small part of the whole grid.
CUBOID = domain_box([(0, 1), (Q(-1, 2), Q(1, 4)), (0, Q(1, 2))])
DEVIATE_DOMAINS = st.sampled_from(INTERVALS + [CUBOID])
GRID = st.sampled_from([Q(n, 8) for n in range(-4, 9)])


@st.composite
def learners(draw):
    """nn under either metric or majority, with k = 2-3 labels."""
    k = draw(st.integers(2, 3))
    if draw(st.booleans()):
        return majority_learner(k), MetricKind.MAX
    metric = draw(METRICS)
    margin = draw(st.sampled_from([Q(1, 64), Q(1, 16), Q(1, 4)]))
    return nn_learner(margin, k=k, metric=metric), metric


def replays_deviation(L, witness) -> bool:
    points = [p for p, _ in witness.sample]
    point, label = witness.sample[witness.index]
    got = L.train(Sample(witness.sample)).eval_point(point)
    return len(set(points)) == len(points) and got == KBot(witness.observed) != KBot(label)


@settings(max_examples=100, deadline=None)
@given(spec=learners(), domain=DEVIATE_DOMAINS)
def test_does_deviate_matches_ordered_search(spec, domain):
    L, _ = spec
    for fuel in DEVIATE_FUELS:
        got = does_deviate(L, domain, fuel)
        # The first deviating ordered tuple is the sorted one, and sorted
        # tuples come in the same order as combinations: the same witness.
        assert got == ref_does_deviate(L, domain, fuel)
        if got.verdict is Verdict.CONFIRMED:
            assert replays_deviation(L, got.witnesses[0])


@settings(max_examples=100, deadline=None)
@given(spec=learners(), domain=DEVIATE_DOMAINS)
def test_resumed_fuel_loop_matches_ordered_search(spec, domain):
    """Every fuel of a loop in one context, past the first commitment too."""
    L, _ = spec
    with _query_scope():
        for fuel in DEVIATE_FUELS:
            assert does_deviate(L, domain, fuel) == ref_does_deviate(L, domain, fuel)


# Majority first deviates at fuel 4 on [-1, 1] and at fuel 5 on [0, 1].
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("domain", [INTERVALS[3], INTERVALS[0]], ids=["[-1,1]", "[0,1]"])
def test_reasks_after_a_confirmation_match_ordered_search(k, domain):
    L = majority_learner(k)
    first = next(f for f in DEVIATE_FUELS if ref_does_deviate(L, domain, f).verdict.committed)
    with _query_scope():
        for fuel in range(first + 1):
            got = does_deviate(L, domain, fuel)
        assert got.verdict is Verdict.CONFIRMED
        for fuel in (first, first - 1, first + 1):
            assert does_deviate(L, domain, fuel) == ref_does_deviate(L, domain, fuel)


def counting(L):
    """L with a ``train`` that tallies its calls in the returned list."""
    calls = []

    def train(sample):
        calls.append(sample)
        return L.train(sample)

    return dataclasses.replace(L, train=train), calls


def test_unknown_at_fuel_9_answers_unknown_at_fuel_3_without_searching():
    """Stages 0..9 found nothing, so fuel 3 reads no grid and retrains nothing."""
    L, calls = counting(nn_learner(Q(1, 16)))
    unit, reads = INTERVALS[0], []

    def member(p):
        reads.append(p)
        return unit.overt.member(p)

    domain = dataclasses.replace(unit, overt=dataclasses.replace(unit.overt, member=member))
    with _query_scope():
        assert does_deviate(L, domain, 9).verdict is Verdict.UNKNOWN
        searched = len(calls), len(reads)
        assert does_deviate(L, domain, 3).verdict is Verdict.UNKNOWN
    assert (len(calls), len(reads)) == searched


def candidates(L, domain, fuel):
    """Every ``(tuple, labels)`` of stages 0..fuel in search order, repeats kept."""
    for stage in range(fuel + 1):
        for t in range(1, stage + 1):
            for depth in range(stage - t + 1):
                window = min(2 ** (stage - t - depth), 2 ** -(-(stage - t) // t)) + 1
                if window < t:
                    continue
                for tup in combinations(domain.overt.points_at(depth, window), t):
                    yield from ((tup, labels) for labels in product(range(L.k), repeat=t))


@settings(max_examples=100, deadline=None)
@given(spec=learners(), domain=DEVIATE_DOMAINS)
def test_fuel_loop_retrains_each_candidate_once(spec, domain):
    """A CLI-shaped loop, stopping at its first commitment, retrains each
    distinct candidate it reaches once, and no more than a fresh call at
    its last fuel does.  Asked again at that fuel, it retrains only the
    witness, which it never marks as tried."""
    L, calls = counting(spec[0])
    with _query_scope():
        for fuel in DEVIATE_FUELS:
            got = does_deviate(L, domain, fuel)
            if got.verdict is Verdict.CONFIRMED:
                break
        looped = len(calls)
        assert does_deviate(L, domain, fuel) == got
        assert len(calls) - looped == len(got.witnesses)
    reached = list(candidates(L, domain, fuel))
    if got.verdict is Verdict.CONFIRMED:
        points, labels = zip(*got.witnesses[0].sample)
        reached = reached[: reached.index((points, labels)) + 1]
    assert looped == len(set(reached))
    before = len(calls)
    assert does_deviate(L, domain, fuel) == got
    assert looped <= len(calls) - before


@settings(max_examples=100, deadline=None)
@given(
    spec=learners(),
    domain=DOMAINS,
    sample=st.lists(st.tuples(st.tuples(GRID), st.integers(0, 1)), max_size=3),
    x=GRID,
    n=st.integers(0, 2),
    eps=st.sampled_from([Q(1, 8), Q(1, 4), Q(1, 3)]),
)
def test_sparse_or_dense_matches_ordered_search(spec, domain, sample, x, n, eps):
    L, metric = spec
    s, point = Sample(tuple(sample)), (x,)
    for fuel in FUELS:
        got = sparse_or_dense(L, n, eps, s, point, domain, fuel, metric)
        want = ref_sparse_or_dense(L, n, eps, s, point, domain, fuel, metric)
        assert (got.verdict, got.color) == (want.verdict, want.color)
        if got.verdict is TwoBot.ONE:
            assert L.train(s).eval_point(point) == KBot(got.color)
        if got.verdict is TwoBot.ZERO:
            # A committed base is the empty augmentation, found first.
            base = L.train(s).eval_point(point)
            if base.committed:
                assert got.witnesses[0] == want.witnesses[0] == ExtensionWitness((), base.color)
            outcomes = set()
            for witness in got.witnesses:
                assert len(witness.extension) <= n
                for p, _ in witness.extension:
                    assert domain.overt.member(p) and dist_point(p, point, metric) > eps
                retrained = L.train(s.extend(witness.extension))
                assert retrained.eval_point(point) == KBot(witness.outcome)
                outcomes.add(witness.outcome)
            assert len(outcomes) == 2


@settings(max_examples=100, deadline=None)
@given(
    spec=learners(),
    domain=DOMAINS,
    sample=st.lists(st.tuples(st.tuples(GRID), st.integers(0, 1)), max_size=3),
    x=GRID,
)
def test_robust_point_matches_its_own_race_sides(spec, domain, sample, x):
    L, _ = spec
    s, point = Sample(tuple(sample)), (x,)
    for fuel in ROBUST_FUELS:
        got = robust_point(point, s, L, domain, fuel)
        assert got == ref_robust_point(point, s, L, domain, fuel)
        for witness in got.witnesses:
            (p, _), = witness.extension
            assert domain.overt.member(p)
            retrained = L.train(s.extend(witness.extension))
            assert retrained.eval_point(point) == KBot(witness.outcome) != got.base


# ---------------------------------------------------------- order-freeness

POINTS_2D = st.tuples(GRID, GRID)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    spec=learners(),
    pairs=st.lists(st.tuples(POINTS_2D, st.integers(0, 1)), max_size=5),
    x=POINTS_2D,
    corner=POINTS_2D,
)
def test_learners_are_order_free(data, spec, pairs, x, corner):
    L, _ = spec
    shuffled = data.draw(st.permutations(pairs))
    box = Box(tuple(Interval(min(a, b), max(a, b)) for a, b in zip(x, corner)))
    f, g = L.train(Sample(tuple(pairs))), L.train(Sample(tuple(shuffled)))
    assert f.eval_point(x) == g.eval_point(x)
    assert f.eval_box(box) == g.eval_box(box)
    additions = [(box, 0), (Box.around(corner), 1), (Box.around(x), 1)]
    want = L.family_at(Sample(tuple(pairs)), additions, x)
    moved = data.draw(st.permutations(additions))
    assert L.family_at(Sample(tuple(shuffled)), moved, x) == want
