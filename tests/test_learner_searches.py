"""The multiset learner searches against the ordered-tuple references.

``does_deviate`` and ``sparse_or_dense`` try each labeled multiset of
added points once, which is sound only because the learners are
order-free.  The references in ``oracles`` retrain every ordering, so the
two must reach the same verdict and color at every fuel, and every
committed witness must replay through a real retrain.  ``robust_point``
runs ``sparse_or_dense``'s race body; its reference keeps the two
single-point race sides it had before, and the outcomes must be equal.
"""

from __future__ import annotations

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from boxcert import (
    Box,
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


def replays_deviation(L, witness, fuel) -> bool:
    points = [p for p, _ in witness.sample]
    point, label = witness.sample[witness.index]
    got = L.train(Sample(witness.sample)).eval_point(point, fuel)
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
            assert replays_deviation(L, got.witnesses[0], fuel)


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
            assert L.train(s).eval_point(point, fuel) == KBot(got.color)
        if got.verdict is TwoBot.ZERO:
            outcomes = set()
            for witness in got.witnesses:
                assert len(witness.extension) <= n
                for p, _ in witness.extension:
                    assert domain.overt.member(p) and dist_point(p, point, metric) > eps
                retrained = L.train(s.extend(witness.extension))
                assert retrained.eval_point(point, fuel) == KBot(witness.outcome)
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
            assert retrained.eval_point(point, fuel) == KBot(witness.outcome) != got.base


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
    assert f.eval_point(x, 0) == g.eval_point(x, 0)
    assert f.eval_box(box, 0) == g.eval_box(box, 0)
    additions = [(box, 0), (Box.around(corner), 1), (Box.around(x), 1)]
    want = L.family_at(Sample(tuple(pairs)), additions, x, 0)
    moved = data.draw(st.permutations(additions))
    assert L.family_at(Sample(tuple(shuffled)), moved, x, 0) == want
