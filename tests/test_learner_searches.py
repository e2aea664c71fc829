"""The multiset learner searches against the ordered-tuple references.

``does_deviate`` and ``sparse_or_dense`` try each labeled multiset of
added points once, which is sound only because the learners are
order-free.  The references in ``oracles`` retrain every ordering, so the
two must reach the same verdict and color at every fuel, and every
committed witness must replay through a real retrain.  ``robust_point``
runs ``sparse_or_dense``'s race body; its reference keeps the two
single-point race sides it had before, and the outcomes must be equal.

Inside one query context ``does_deviate`` skips the tuples whose
labelings it has all tried.  Fuel loops and re-asks in one context must
give the reference's outcome at every fuel, and a loop must retrain each
distinct candidate exactly once.

The augmentation race resumes too: its dense side walks the power covers
of the region from the frontier the last fuel left, and its sparse side
retrains each candidate once per query.  Fuel loops in one context, over
several query points, must give the references' verdicts and the fresh
calls' outcomes at every fuel.

nn states bounds on its searches (one addition on the sparse side, one on
the dense side, two for k = 1, no deviation tuple).  With every bound
reset to the full enumeration it must return equal outcomes, witnesses
included.
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
    outside_ball,
    robust_point,
    sparse_or_dense,
)
from boxcert.kernel import _fuel_loop, _query_scope
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


def test_unknown_at_fuel_9_answers_unknown_at_fuel_3_reading_only_its_grid():
    """Stages 0..9 found nothing, so fuel 3 retrains nothing, and it reads
    exactly the grid points a fresh fuel-3 call reads.

    nn states that it never deviates, so its own search is empty; without
    that bound it searches every stage and finds nothing, which is what
    the skip needs."""
    L, calls = counting(dataclasses.replace(nn_learner(Q(1, 16)), deviation_bound=None))
    unit, reads = INTERVALS[0], []

    def member(p):
        reads.append(p)
        return unit.overt.member(p)

    domain = dataclasses.replace(unit, overt=dataclasses.replace(unit.overt, member=member))
    with _query_scope():
        assert does_deviate(L, domain, 3).verdict is Verdict.UNKNOWN
    fresh = list(reads)
    with _query_scope():
        assert does_deviate(L, domain, 9).verdict is Verdict.UNKNOWN
        retrained, read = len(calls), len(reads)
        assert does_deviate(L, domain, 3).verdict is Verdict.UNKNOWN
    assert len(calls) == retrained
    assert reads[read:] == fresh


def candidates(L, domain, fuel):
    """Every ``(tuple, labels)`` of stages 0..fuel in search order, repeats
    kept, with tuples as large as the learner's deviation bound allows."""
    for stage in range(fuel + 1):
        top = stage if L.deviation_bound is None else min(stage, L.deviation_bound)
        for t in range(1, top + 1):
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
    its last fuel does.  Asked again at that fuel, it retrains the
    witness's tuple, which it never marks as tried, under each labeling
    up to and including the witness's."""
    L, calls = counting(spec[0])
    with _query_scope():
        for fuel in DEVIATE_FUELS:
            got = does_deviate(L, domain, fuel)
            if got.verdict is Verdict.CONFIRMED:
                break
        looped = len(calls)
        assert does_deviate(L, domain, fuel) == got
        retried = 0
        if got.verdict is Verdict.CONFIRMED:
            labels = tuple(label for _, label in got.witnesses[0].sample)
            retried = list(product(range(L.k), repeat=len(labels))).index(labels) + 1
        assert len(calls) - looped == retried
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


# --------------------------------------------------------- resumed races

RACE_DOMAINS = [
    INTERVALS[0],
    INTERVALS[2],
    # keep prunes the middle of the interval and a disc of the square.
    outside_ball(INTERVALS[0], (Q(1, 2),), Q(1, 4), MetricKind.MAX),
    domain_box([(0, 1), (Q(-1, 2), Q(1, 2))]),
    outside_ball(domain_box([(0, 1), (0, 1)]), (Q(1, 2), Q(1, 2)), Q(1, 16), MetricKind.EUCLID_SQ),
]


@st.composite
def race_learners(draw):
    """nn, nn whose dense side tries every size up to N (power walks with
    j >= 2), or majority, which states no bound; k = 1-3."""
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["nn", "nn-dense", "majority"]))
    if kind == "majority":
        return majority_learner(k), MetricKind.MAX
    metric = draw(METRICS)
    unit = Q(1, 8) if metric is MetricKind.MAX else Q(1, 64)
    L = nn_learner(draw(st.sampled_from([unit, 2 * unit])), k=k, metric=metric)
    return (dataclasses.replace(L, dense_bound=None) if kind == "nn-dense" else L), metric


def race_fuels(dims: int, n: int) -> int:
    """The last fuel at which the ordered references stay cheap: their
    zero side retrains every tuple of up to n grid points."""
    return max(f for f in range(5) if f == 0 or (2**f + 1) ** (dims * max(n, 1)) <= 800)


@st.composite
def races(draw):
    """A learner, a domain, a sample and two query points in it, N and eps."""
    L, metric = draw(race_learners())
    domain = draw(st.sampled_from(RACE_DOMAINS))
    point = st.tuples(*[GRID] * domain.dims)
    sample = draw(st.lists(st.tuples(point, st.integers(0, L.k - 1)), max_size=3))
    xs = draw(st.lists(point, min_size=2, max_size=2, unique=True))
    n, eps = draw(st.integers(0, 3)), draw(st.sampled_from([Q(1, 8), Q(1, 4)]))
    return L, metric, domain, Sample(tuple(sample)), xs, n, eps


def race_loop(L, metric, domain, s, xs, n, eps):
    """Both races at every query point, at every fuel in one context."""

    def step(fuel):
        return [
            (robust_point(x, s, L, domain, fuel), sparse_or_dense(L, n, eps, s, x, domain, fuel, metric))
            for x in xs
        ]

    return _fuel_loop(step, lambda _: False, race_fuels(domain.dims, n))


@settings(max_examples=100, deadline=None)
@given(race=races())
def test_resumed_races_match_ordered_search(race):
    """Each fuel of one loop, past a commitment too, gives the references'
    verdicts and the fresh call's outcome, witnesses and their order
    included.  The loop asks at two points, so answers retrained at one
    must not leak to the other."""
    L, metric, domain, s, xs, n, eps = race
    for fuel, outcomes in enumerate(race_loop(*race)):
        for x, (robust, raced) in zip(xs, outcomes):
            assert robust == ref_robust_point(x, s, L, domain, fuel)
            want = ref_sparse_or_dense(L, n, eps, s, x, domain, fuel, metric)
            assert (raced.verdict, raced.color) == (want.verdict, want.color)
            assert raced == sparse_or_dense(L, n, eps, s, x, domain, fuel, metric)


@settings(max_examples=50, deadline=None)
@given(race=races())
def test_fuel_loop_retrains_each_sparse_candidate_once(race):
    """Over one loop at one point, both races share one retrain per
    augmentation; only the base sample is trained again at each fuel."""
    L, metric, domain, s, xs, n, eps = race
    L, calls = counting(L)
    race_loop(L, metric, domain, s, xs[:1], n, eps)
    augmented = [sample for sample in calls if sample != s]
    assert len(augmented) == len(set(augmented))


def test_dense_walk_splits_only_where_the_2d_probe_fails():
    """The 2-D probe with N = 1 confirms at fuel 6.  The flat cover gave
    7,992 family envelopes there; the walk needs a few hundred."""
    L = nn_learner(Q(1, 16))
    calls = []

    def family_at(*args):
        calls.append(args)
        return L.family_at(*args)

    counted = dataclasses.replace(L, family_at=family_at)
    s, x = Sample((((Q(0), Q(0)), 0), ((Q(2), Q(2)), 1))), (Q(1, 8), Q(1, 8))
    got = sparse_or_dense(counted, 1, Q(1, 4), s, x, domain_box([(-1, 2)] * 2), 6)
    assert got.verdict is TwoBot.ONE
    assert len(calls) <= 300


# ----------------------------------------------------------- search bounds


def unbounded(L):
    """L searching the full enumerations: every bound reset to None."""
    return dataclasses.replace(L, sparse_bound=None, dense_bound=None, deviation_bound=None)


@st.composite
def nn_instances(draw):
    """nn under either metric with k = 1-3, a margin that distance gaps on
    the 1/8 grid often equal, and a sample of up to 3 labeled grid points.
    With k = 1 every addition has the base's label, the one case where
    the dense side needs pairs: two tied additions force bottom."""
    k = draw(st.integers(1, 3))
    metric = draw(METRICS)
    unit = Q(1, 8) if metric is MetricKind.MAX else Q(1, 64)
    margin = draw(st.sampled_from([unit, 2 * unit, 4 * unit]))
    labels = st.integers(0, k - 1)
    sample = draw(st.lists(st.tuples(st.tuples(GRID), labels), max_size=3))
    return nn_learner(margin, k=k, metric=metric), metric, Sample(tuple(sample))


@settings(max_examples=100, deadline=None)
@given(
    instance=nn_instances(),
    domain=DOMAINS,
    x=GRID,
    n=st.integers(0, 3),
    eps=st.sampled_from([Q(1, 8), Q(1, 4), Q(1, 3)]),
)
def test_nn_search_bounds_keep_every_outcome(instance, domain, x, n, eps):
    """nn's bounded searches return the full enumerations' outcomes,
    witnesses and their order included; N = 3 stops at a lower fuel."""
    L, metric, s = instance
    full, point = unbounded(L), (x,)
    for fuel in range(7 - max(n, 1)):
        got = sparse_or_dense(L, n, eps, s, point, domain, fuel, metric)
        assert got == sparse_or_dense(full, n, eps, s, point, domain, fuel, metric)
        assert robust_point(point, s, L, domain, fuel) == robust_point(point, s, full, domain, fuel)


def test_two_tied_additions_keep_nn_dense_side_from_confirming():
    """Any one addition to the far sample point lies nearer x and wins, but
    two in one box can tie at the nearest distance, so the dense side has
    to try pairs and never confirms; the sparse side has one color only."""
    L = nn_learner(Q(1, 16), k=1)
    s, point = Sample((((Q(5),), 0),)), (Q(0),)
    assert L.train(s).eval_point(point) == KBot(0)
    for fuel in range(4):
        got = sparse_or_dense(L, 2, Q(1, 2), s, point, INTERVALS[0], fuel)
        assert got == sparse_or_dense(unbounded(L), 2, Q(1, 2), s, point, INTERVALS[0], fuel)
        assert got.verdict is TwoBot.BOT


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
