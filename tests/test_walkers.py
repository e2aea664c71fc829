"""The one-walk-per-side region ops against the per-color references,
and the resumed walkers against fresh walks.

Each race side of ``verify`` now walks the subdivision tree once for all
the colors it asks about.  The references in ``oracles`` walk it once per
color and loop over the colors, lowest first, as the ops did before.  So
every op must return an equal ``Outcome`` at every fuel, witnesses
included: the same verdict, the same color and the same first points.

Inside one query context, each walker also resumes its last walk when
asked the same again at the same fuel or more.  Driven through rising,
repeated, falling and interleaved fuels, it must return what a fresh walk
from the root returns at every call.  A context ends with its query and
leaves nothing behind, and inside one each box's envelope is evaluated
once.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import weakref
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from boxcert import (
    Box,
    ColorWitness,
    CompactSet,
    MetricKind,
    TwoBot,
    VKSet,
    ball,
    closed_ball,
    constant_value,
    domain_box,
    exists_value,
    fixed_value,
    forall_value,
    hyperplane_classifier,
    locally_constant,
    make_layer,
    optimal_radius,
    threshold_net_classifier,
)
from boxcert import cli
from boxcert.verify import _certified_colors, _find_witnesses, _query_scope

from oracles import (
    ref_certified_colors,
    ref_constant_value,
    ref_exists_value,
    ref_find_witnesses,
    ref_fixed_value,
    ref_forall_value,
)

FUELS = range(6)
METRICS = st.sampled_from([MetricKind.MAX, MetricKind.EUCLID_SQ])
WEIGHTS = st.fractions(min_value=-2, max_value=2, max_denominator=4)
COORDS = st.fractions(min_value=-1, max_value=1, max_denominator=8)
RADII = st.sampled_from([Q(1, 4), Q(3, 8), Q(1, 2), Q(3, 4)])

# Scores 2x, 1/2 and 2y on the unit square.  At fuel 0 the square is one
# leaf whose grid points come in the order (0, 0), (0, 1), (1, 0), (1, 1):
# colors 1, 2, 0 and bottom.  The joint no side meets colors 1 and 2
# before color 0, and the two lowest colors with a hit are 0 and 1.
LATE_ZERO = threshold_net_classifier(
    [
        make_layer([[1, 0], [0, 1]], [0, 0], "relu"),
        make_layer([[2, 0], [0, 0], [0, 2]], [0, Q(1, 2), 0], "none"),
    ],
    Q(1, 8),
)
UNIT_SQUARE = domain_box([(0, 1), (0, 1)])


@st.composite
def net_layers(draw):
    """The layers and margin of a 2-D relu net with 2-3 hidden units and
    k = 2-3 colors."""
    k = draw(st.integers(2, 3))
    width = draw(st.integers(2, 3))
    hidden = make_layer(
        [[draw(WEIGHTS), draw(WEIGHTS)] for _ in range(width)],
        [draw(WEIGHTS) for _ in range(width)],
        "relu",
    )
    scores = make_layer(
        [[draw(WEIGHTS) for _ in range(width)] for _ in range(k)],
        [draw(WEIGHTS) for _ in range(k)],
        "none",
    )
    return [hidden, scores], draw(st.sampled_from([Q(1, 16), Q(1, 8)]))


def nets():
    """A 2-D relu net with 2-3 hidden units and k = 2-3 colors."""
    return net_layers().map(lambda spec: threshold_net_classifier(*spec))


@st.composite
def region_specs(draw):
    """``("box", center, half-widths)`` or ``("ball", center, radius, metric)``."""
    center = (draw(COORDS), draw(COORDS))
    if draw(st.booleans()):
        return "box", center, (draw(RADII), draw(RADII))
    return "ball", center, draw(RADII), draw(METRICS)


def build_region(spec) -> VKSet:
    """The box or closed ball a ``region_specs`` draw names."""
    if spec[0] == "box":
        _, center, halves = spec
        return domain_box([(c - h, c + h) for c, h in zip(center, halves)])
    _, center, radius, metric = spec
    return closed_ball(center, radius, metric)


def regions():
    """A box, or a closed ball under either metric."""
    return region_specs().map(build_region)


@settings(max_examples=60, deadline=None)
@given(f=nets(), region=regions())
@example(f=LATE_ZERO, region=UNIT_SQUARE)
def test_region_ops_match_per_color_walks(f, region):
    A, B = region.overt, region.compact
    for fuel in FUELS:
        for n in range(f.k):
            assert exists_value(n, A, f, fuel) == ref_exists_value(n, A, f, fuel)
            assert forall_value(n, B, f, fuel) is ref_forall_value(n, B, f, fuel)
            assert fixed_value(n, region, f, fuel) == ref_fixed_value(n, region, f, fuel)
        assert constant_value(region, f, fuel) == ref_constant_value(region, f, fuel)


@settings(max_examples=60, deadline=None)
@given(f=nets(), center=st.tuples(COORDS, COORDS), radius=RADII, metric=METRICS)
@example(f=LATE_ZERO, center=(Q(1, 2), Q(1, 2)), radius=Q(3, 4), metric=MetricKind.MAX)
def test_locally_constant_matches_per_color_walks(f, center, radius, metric):
    region = ball(center, radius, metric)
    for fuel in FUELS:
        got = locally_constant(center, radius, f, fuel, metric)
        assert got == ref_constant_value(region, f, fuel)


def test_no_side_reports_the_lowest_colors_not_the_first_found():
    got = constant_value(UNIT_SQUARE, LATE_ZERO, 0)
    assert got.verdict is TwoBot.ZERO
    assert got.witnesses == (ColorWitness((Q(1), Q(0)), 0), ColorWitness((Q(0), Q(0)), 1))
    assert got == ref_constant_value(UNIT_SQUARE, LATE_ZERO, 0)
    refuted = fixed_value(1, UNIT_SQUARE, LATE_ZERO, 0)
    assert refuted.witnesses == (ColorWitness((Q(1), Q(0)), 0),)


# Rising from the root, rising with gaps, and repeated then falling fuels.
FUEL_SEQUENCES = [list(range(9)), [0, 3, 4, 8], [2, 2, 5, 1, 6]]

# The set [1/2, 1] through a keep test that over-approximates it by one box
# width, and the plane x = 9/16.  At fuel 3 color 1 fails on [1/4, 3/8],
# which the keep test still lets in, the walk passes over [3/8, 1/2] as
# already failed, and color 0 fails on [1/2, 5/8].  At fuel 4 the keep test
# drops both halves of [1/4, 3/8], and color 1 fails only on [3/8, 7/16],
# inside the box fuel 3 passed over.
# With the plane x = 3/8 instead, both colors fail on [1/4, 3/8] at fuel 3,
# and the walk parks [3/8, 1/2] and [1/2, 1], still on its stack, untouched.
# At fuel 4 both halves of [1/4, 3/8] are dropped, and both colors fail
# only on [3/8, 7/16], inside the boxes fuel 3 parked.
HALF = CompactSet(Box.from_bounds([(0, 1)]), lambda b: b.sides[0].hi >= Q(1, 2) - b.width)


def walk_both(region, f, colors, need, fuel):
    """Each walker once at this fuel, checked against its fresh walk."""
    got = _certified_colors(region.compact, f, colors, fuel)
    assert got == ref_certified_colors(region.compact, f, colors, fuel)
    found = _find_witnesses(region.overt, f, colors, need, fuel)
    assert found == ref_find_witnesses(region.overt, f, colors, need, fuel)


@settings(max_examples=40, deadline=None)
@given(
    f=nets(),
    region=regions(),
    other=regions(),
    colors=st.frozensets(st.integers(0, 2), min_size=1),
    need=st.integers(1, 2),
)
@example(f=LATE_ZERO, region=UNIT_SQUARE, other=UNIT_SQUARE, colors=frozenset({0, 1, 2}), need=2)
def test_resumed_walks_match_fresh_walks(f, region, other, colors, need):
    colors = {c for c in colors if c < f.k}
    for fuels in FUEL_SEQUENCES:
        with _query_scope():
            for fuel in fuels:
                walk_both(region, f, colors, need, fuel)
    # Two regions walked in turn in one context, each resuming its own walk.
    with _query_scope():
        for fuel, walked in [(0, region), (2, region), (2, other), (3, region), (5, region),
                             (5, other), (6, other), (7, region)]:
            walk_both(walked, f, colors, need, fuel)


@pytest.mark.parametrize("bias", [Q(-9, 16), Q(-3, 8)], ids=["passed-over", "stack-left"])
def test_resume_walks_what_the_last_walk_left(bias):
    plane = hyperplane_classifier([1], bias)
    with _query_scope():
        for fuel in (3, 4):
            assert ref_certified_colors(HALF, plane, {0, 1}, fuel) == frozenset()
            assert _certified_colors(HALF, plane, {0, 1}, fuel) == frozenset()


def test_walks_in_threads_match_fresh_walks():
    """Each thread resumes its walks in its own query context, and no
    thread sees another's frontiers or envelopes."""
    balls = [closed_ball((Q(i, 8), Q(1, 3)), Q(1, 4), MetricKind.MAX) for i in range(4)]
    colors = range(LATE_ZERO.k)
    expected = {
        (i, fuel): (
            ref_certified_colors(region.compact, LATE_ZERO, colors, fuel),
            ref_find_witnesses(region.overt, LATE_ZERO, colors, 2, fuel),
        )
        for i, region in enumerate(balls)
        for fuel in range(6)
    }
    errors = []

    def loop(i):
        with _query_scope():
            for fuel in range(6):
                got = (
                    _certified_colors(balls[i].compact, LATE_ZERO, colors, fuel),
                    _find_witnesses(balls[i].overt, LATE_ZERO, colors, 2, fuel),
                )
                if got != expected[i, fuel]:
                    errors.append((i, fuel, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=loop, args=(i % 4,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


GOLDEN = Path(cli.__file__).resolve().parent / "golden" / "cases"


@pytest.mark.parametrize("case", ["constant-bot", "locally-constant-bot", "fixed-zero"])
def test_query_context_leaves_no_state_behind(case):
    """After a CLI query nothing, in ``verify`` or elsewhere, still refers
    to its region or classifier."""
    spec = cli.parse_query(GOLDEN / f"{case}.json")
    parts = [spec.classifier]
    if spec.region is not None:
        parts += [spec.region, spec.region.compact, spec.region.overt]
    held = [weakref.ref(part) for part in parts]
    del parts
    cli.run_query(spec)
    del spec
    gc.collect()
    assert [ref() for ref in held] == [None] * len(held)


def counting(f):
    """f with an ``eval_box`` that tallies each box it is asked about."""
    boxes = Counter()

    def eval_box(box):
        boxes[box.lo, box.hi, box.den] += 1
        return f.eval_box(box)

    return dataclasses.replace(f, eval_box=eval_box), boxes


@pytest.mark.parametrize("metric", [MetricKind.MAX, MetricKind.EUCLID_SQ], ids=lambda m: m.value)
def test_query_evaluates_each_box_once(metric):
    """A fuel loop in one context evaluates each distinct box once, across
    fuels, across both race sides and in the radius walk, and answers as
    the fresh ops do."""
    f, boxes = counting(LATE_ZERO)
    center, radius = (Q(3, 8), Q(5, 8)), Q(1, 4)
    region = ball(center, radius, metric)
    radius_args = (Q(1, 2), Q(1, 64), metric)
    expected_radius = optimal_radius(center, LATE_ZERO, *radius_args, max_fuel=8)
    with _query_scope():
        for fuel in range(7):
            assert locally_constant(center, radius, f, fuel, metric) == ref_constant_value(
                region, LATE_ZERO, fuel)
            assert constant_value(UNIT_SQUARE, f, fuel) == ref_constant_value(
                UNIT_SQUARE, LATE_ZERO, fuel)
        assert optimal_radius(center, f, *radius_args, max_fuel=8) == expected_radius
    assert boxes and max(boxes.values()) == 1
