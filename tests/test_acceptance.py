"""Whole-system checks, one test per shipped guarantee.

Every test here pins a user-facing promise at an explicit tolerance or
budget: committed answers never retract under more fuel, committed answers
agree with brute-force rational sweeps, radius searches converge and stay
sound around the analytic optimum, the three-valued ball check lands where
it must on the canonical tangent geometry, the learner operations find
replayable witnesses, and the command line is deterministic byte for byte.
Random cases are seeded so a failure is reproducible as printed.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction as Q

from boxcert import (
    KBot,
    MetricKind,
    Sample,
    TwoBot,
    Verdict,
    VKSet,
    closed_ball,
    constant_value,
    cover_width_target,
    does_deviate,
    domain_box,
    exists_value,
    fixed_value,
    forall_value,
    hyperplane_classifier,
    locally_constant,
    majority_learner,
    make_layer,
    nn_learner,
    optimal_radius,
    outside_ball,
    radius_lower,
    radius_upper,
    robust_point,
    sparse_or_dense,
    threshold_net_classifier,
)
from oracles import (
    dist,
    dyadics_between,
    hyperplane_color,
    max_dist,
    net_color,
    sweep_ball,
    sweep_box,
)

UNIT = domain_box([(0, 1)])


def sample_1d(*pairs) -> Sample:
    return Sample(tuple(((Q(x),), label) for x, label in pairs))


def dy(rng: random.Random, denom_pow: int, lo: int, hi: int) -> Q:
    """A random dyadic multiple of 2**-denom_pow in [lo, hi]."""
    scale = 2**denom_pow
    return Q(rng.randint(lo * scale, hi * scale), scale)


def random_classifier(rng: random.Random):
    """A random hyperplane (2-D) or tiny threshold net (1-D)."""
    if rng.random() < 0.5:
        dims = 2
        while True:
            w = tuple(dy(rng, 3, -2, 2) for _ in range(dims))
            if any(w):
                break
        return hyperplane_classifier(w, dy(rng, 3, -1, 1)), dims
    dims = 1
    depth = rng.choice([1, 2])
    layers = []
    width_in = dims
    for i in range(depth):
        width_out = 2 if i == depth - 1 else rng.choice([1, 2])
        rows = tuple(
            tuple(dy(rng, 2, -2, 2) for _ in range(width_in)) for _ in range(width_out)
        )
        bias = tuple(dy(rng, 2, -1, 1) for _ in range(width_out))
        act = "relu" if i < depth - 1 and rng.random() < 0.5 else "none"
        layers.append(make_layer(rows, bias, act))
        width_in = width_out
    margin = rng.choice([Q(1, 8), Q(1, 16)])
    return threshold_net_classifier(layers, margin), dims


def random_region(rng: random.Random, dims: int) -> VKSet:
    if rng.random() < 0.5:
        sides = []
        for _ in range(dims):
            lo = dy(rng, 3, -1, 1)
            sides.append((lo, lo + Q(rng.randint(1, 4), 8)))
        return domain_box(sides)
    center = tuple(dy(rng, 3, -1, 1) for _ in range(dims))
    return closed_ball(center, rng.choice([Q(1, 4), Q(1, 2)]), MetricKind.MAX)


def random_sample(rng: random.Random) -> Sample:
    pairs = tuple(
        ((dy(rng, 3, 0, 1),), rng.randint(0, 1)) for _ in range(rng.randint(2, 4))
    )
    return Sample(pairs)


def random_learner(rng: random.Random):
    if rng.random() < 0.5:
        return majority_learner(k=2)
    return nn_learner(tie_margin=rng.choice([Q(1, 8), Q(1, 4)]))


def test_c1_committed_answers_never_retract_with_more_fuel():
    """200 fuzzed runs across all eight operations: fuel d vs fuel d + 5."""
    started = time.monotonic()
    checked = 0
    for i in range(200):
        rng = random.Random(900 + i)
        kind = i % 8
        if kind in (0, 1, 2, 3, 4):
            clf, dims = random_classifier(rng)
            if kind == 4:
                x = tuple(dy(rng, 3, -1, 1) for _ in range(dims))
                r = rng.choice([Q(1, 4), Q(1, 2), Q(1)])

                def run(d, x=x, r=r, clf=clf):
                    out = locally_constant(x, r, clf, d)
                    return out.verdict is not TwoBot.BOT, out.verdict
            else:
                region = random_region(rng, dims)
                n = rng.randint(0, 1)
                if kind == 0:

                    def run(d, n=n, region=region, clf=clf):
                        v = exists_value(n, region.overt, clf, d).verdict
                        return v is Verdict.CONFIRMED, v
                elif kind == 1:

                    def run(d, n=n, region=region, clf=clf):
                        v = forall_value(n, region.compact, clf, d)
                        return v is Verdict.CONFIRMED, v
                elif kind == 2:

                    def run(d, n=n, region=region, clf=clf):
                        out = fixed_value(n, region, clf, d)
                        return out.verdict is not TwoBot.BOT, out.verdict
                else:

                    def run(d, region=region, clf=clf):
                        out = constant_value(region, clf, d)
                        return out.verdict is not TwoBot.BOT, (out.verdict, out.color)
            d = rng.randint(0, 3)
        elif kind == 5:
            if rng.random() < 0.5:
                learner = majority_learner(k=2)
                d = rng.randint(0, 5)
            else:
                learner = nn_learner(tie_margin=rng.choice([Q(1, 8), Q(1, 4)]))
                d = rng.randint(0, 2)

            def run(d, learner=learner):
                v = does_deviate(learner, UNIT, d).verdict
                return v is Verdict.CONFIRMED, v
        elif kind == 6:
            learner = random_learner(rng)
            s = random_sample(rng)
            x = (dy(rng, 3, 0, 1),)
            d = rng.randint(0, 3)

            def run(d, learner=learner, s=s, x=x):
                out = robust_point(x, s, learner, UNIT, d)
                return out.verdict is not TwoBot.BOT, out.verdict
        else:
            learner = random_learner(rng)
            s = random_sample(rng)
            x = (dy(rng, 3, 0, 1),)
            eps = rng.choice([Q(1, 8), Q(1, 4)])
            d = rng.randint(0, 3)

            def run(d, learner=learner, s=s, x=x, eps=eps):
                out = sparse_or_dense(learner, 1, eps, s, x, UNIT, d)
                return out.verdict is not TwoBot.BOT, out.verdict

        committed, key = run(d)
        if committed:
            committed_later, key_later = run(d + 5)
            assert committed_later, f"case {i}: commitment lost between {d} and {d + 5}"
            assert key_later == key, f"case {i}: committed answer changed: {key} -> {key_later}"
            checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 40, f"only {checked} committed cases; fuzz too timid to mean anything"
    assert elapsed < 60, f"monotonicity fuzz took {elapsed:.1f}s, budget 60s"


def _net_instance(rng: random.Random, dims: int = 1):
    """Parallel net data: layer triples for the oracle, Layers for the engine."""
    depth = rng.choice([1, 2])
    triples = []
    width_in = dims
    for i in range(depth):
        width_out = 2 if i == depth - 1 else rng.choice([1, 2])
        rows = tuple(
            tuple(dy(rng, 2, -2, 2) for _ in range(width_in)) for _ in range(width_out)
        )
        bias = tuple(dy(rng, 2, -1, 1) for _ in range(width_out))
        act = "relu" if i < depth - 1 and rng.random() < 0.5 else "none"
        triples.append((rows, bias, act))
        width_in = width_out
    margin = rng.choice([Q(1, 8), Q(1, 16)])
    clf = threshold_net_classifier([make_layer(*t) for t in triples], margin)
    return clf, (lambda p: net_color(triples, margin, 2, p))


def _c2_instances():
    """50 seeded instances: classifier, pointwise oracle, region, ball data, sweep.

    The oracle sweeps every grid point at step 2**-10, so the 2-D regions
    are kept narrow to hold the exhaustive scan at desk scale.
    """
    rng = random.Random(902)
    step = Q(1, 2**10)
    out = []
    for i in range(30):  # 1-D, hyperplanes and tiny nets
        if i < 18:
            w = Q(0)
            while w == 0:
                w = dy(rng, 3, -2, 2)
            b = dy(rng, 3, -1, 1)
            clf = hyperplane_classifier((w,), b)
            color = lambda p, w=w, b=b: hyperplane_color((w,), b, p)
        else:
            clf, color = _net_instance(rng)
        if rng.random() < 0.5:
            lo = dy(rng, 3, -1, 0)
            hi = lo + Q(rng.randint(1, 8), 8)
            region = domain_box([(lo, hi)])
            ball = None
            pts = sweep_box([(lo, hi)], step)
        else:
            c = (dy(rng, 3, -1, 1),)
            r = rng.choice([Q(1, 4), Q(1, 2)])
            region = closed_ball(c, r, MetricKind.MAX)
            ball = (c, r)
            pts = sweep_ball(c, r, step, "max")
        out.append((clf, color, region, ball, pts, 6))
    for i in range(20):  # 2-D, hyperplanes and tiny nets
        if i < 14:
            while True:
                w = tuple(dy(rng, 3, -2, 2) for _ in range(2))
                if any(w):
                    break
            b = dy(rng, 3, -1, 1)
            clf = hyperplane_classifier(w, b)
            color = lambda p, w=w, b=b: hyperplane_color(w, b, p)
            box_extent, ball_radii = Q(1, 8), [Q(1, 16), Q(1, 8)]
        else:
            clf, color = _net_instance(rng, dims=2)
            box_extent, ball_radii = Q(1, 16), [Q(1, 32), Q(1, 16)]
        if rng.random() < 0.5:
            sides = []
            for _ in range(2):
                lo = dy(rng, 3, -1, 1)
                sides.append((lo, lo + box_extent))
            region = domain_box(sides)
            ball = None
            pts = sweep_box(sides, step)
        else:
            c = tuple(dy(rng, 3, -1, 1) for _ in range(2))
            r = rng.choice(ball_radii)
            region = closed_ball(c, r, MetricKind.MAX)
            ball = (c, r)
            pts = sweep_ball(c, r, step, "max")
        out.append((clf, color, region, ball, pts, 5))
    return out


def test_c2_committed_verdicts_agree_with_rational_sweeps():
    """Every committed verdict on 50 seeded instances matches a dense sweep."""
    started = time.monotonic()
    disagreements = []
    for idx, (clf, color, region, ball, pts, fuel) in enumerate(_c2_instances()):
        assert pts, f"instance {idx}: empty sweep, instance generator is broken"
        colors = {p: color(p) for p in pts}
        committed_colors = [c for c in colors.values() if c is not None]

        def flag(tag):
            disagreements.append(f"instance {idx}: {tag}")

        for n in (0, 1):
            ex = exists_value(n, region.overt, clf, fuel)
            if ex.verdict is Verdict.CONFIRMED:
                if n not in committed_colors:
                    flag(f"exists {n} confirmed, sweep never sees color {n}")
                if colors.get(ex.witnesses[0].point) != n:
                    flag(f"exists {n} witness {ex.witnesses[0].point} off the sweep or off-color")
            if forall_value(n, region.compact, clf, fuel) is Verdict.CONFIRMED:
                if any(c != n for c in colors.values()):
                    flag(f"forall {n} confirmed against a dissenting sweep point")
            bit = fixed_value(n, region, clf, fuel)
            if bit.verdict is TwoBot.ONE and any(c != n for c in colors.values()):
                flag(f"fixed {n} affirmed against a dissenting sweep point")
            if bit.verdict is TwoBot.ZERO and not any(
                c is not None and c != n for c in colors.values()
            ):
                flag(f"fixed {n} refuted but the sweep has no committed dissenter")
        const = constant_value(region, clf, fuel)
        if const.verdict is TwoBot.ONE and any(c != const.color for c in colors.values()):
            flag("constant affirmed against a dissenting sweep point")
        if const.verdict is TwoBot.ZERO and len(set(committed_colors)) < 2:
            flag("constant refuted but the sweep shows fewer than two colors")
        if ball is not None:
            x, r = ball
            lc = locally_constant(x, r, clf, fuel)
            if lc.verdict is TwoBot.ONE and any(c != lc.color for c in colors.values()):
                flag("ball-constancy affirmed against a dissenting sweep point")
            if lc.verdict is TwoBot.ZERO:
                inner = {
                    colors[p]
                    for p in pts
                    if max_dist(p, x) < r and colors[p] is not None
                }
                if len(inner) < 2:
                    flag("ball-constancy refuted but the open-ball sweep is one-colored")
    elapsed = time.monotonic() - started
    assert not disagreements, "\n".join(disagreements)
    assert elapsed < 120, f"sweep comparison took {elapsed:.1f}s, budget 120s"


def _c3_instances():
    """20 seeded 2-D hyperplane cases with a clean analytic optimal radius."""
    rng = random.Random(903)
    out = []
    while len(out) < 20:
        w = tuple(dy(rng, 3, -2, 2) for _ in range(2))
        if not any(w):
            continue
        b = dy(rng, 3, -1, 1)
        x = tuple(dy(rng, 4, -1, 1) for _ in range(2))
        score = w[0] * x[0] + w[1] * x[1] + b
        if score == 0:
            continue
        analytic = abs(score) / (abs(w[0]) + abs(w[1]))
        if not Q(1, 32) <= analytic <= Q(3, 2):
            continue
        out.append((w, b, x, analytic))
    return out


def test_c3_radius_search_converges_to_the_analytic_optimum():
    """Gap at most 1/20 and a strict bracket around |w.x + b| / ||w||_1."""
    started = time.monotonic()
    for w, b, x, analytic in _c3_instances():
        clf = hyperplane_classifier(w, b)
        report = optimal_radius(x, clf, ceiling=2, tol=Q(1, 20), max_fuel=14)
        label = f"w={w} b={b} x={x}"
        assert report.converged, f"{label}: no convergence by fuel 14"
        assert report.gap <= Q(1, 20), f"{label}: gap {report.gap} above tolerance"
        assert report.lower < analytic < report.upper, (
            f"{label}: bracket [{report.lower}, {report.upper}] misses {analytic}"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"radius convergence took {elapsed:.1f}s, budget 60s"


def test_c4_tangent_geometry_pins_all_three_ball_answers():
    """Strictly inside: 1.  Straddling: 0.  Tangent: bot at every fuel to 16."""
    clf = hyperplane_classifier((1, 0), 0)
    x = (Q(1), Q(0))

    inside = locally_constant(x, Q(1, 2), clf, 0)
    assert inside.verdict is TwoBot.ONE and inside.color == 1
    assert locally_constant(x, Q(1, 2), clf, 16).verdict is TwoBot.ONE

    refuted_at = None
    for fuel in range(5):
        if locally_constant(x, Q(2), clf, fuel).verdict is TwoBot.ZERO:
            refuted_at = fuel
            break
    assert refuted_at is not None, "straddling ball not refuted by fuel 4"
    assert locally_constant(x, Q(2), clf, 16).verdict is TwoBot.ZERO

    for fuel in range(17):
        out = locally_constant(x, Q(1), clf, fuel)
        assert out.verdict is TwoBot.BOT, f"tangent ball committed {out.verdict} at fuel {fuel}"


def test_c5_radius_streams_stay_a_sound_sandwich():
    """Lower approximant never exceeds upper by more than the fuel tolerance."""
    violations = []
    for w, b, x, analytic in _c3_instances():
        clf = hyperplane_classifier(w, b)
        lower_stream = radius_lower(x, clf, ceiling=2)
        upper_stream = radius_upper(x, clf, ceiling=2)
        for d in (0, 2, 4, 6, 8):
            lo = lower_stream.approx(d)
            hi = upper_stream.approx(d)
            if lo >= 0 and hi < 2:
                if lo > hi + 2 * Q(1, 2**d):
                    violations.append(f"w={w} b={b} x={x} fuel={d}: {lo} > {hi}")
                if not (lo < analytic < hi):
                    violations.append(
                        f"w={w} b={b} x={x} fuel={d}: [{lo}, {hi}] misses {analytic}"
                    )
    assert not violations, "\n".join(violations)


def test_c6_learner_gold_cases_commit_with_replayable_witnesses():
    started = time.monotonic()

    majority = majority_learner(k=2)
    s = sample_1d((0, 0), (Q(1, 4), 0), (Q(1, 2), 0), (Q(3, 4), 1))
    out = robust_point((Q(1, 2),), s, majority, UNIT, 2)
    assert out.verdict is TwoBot.ONE and out.base == KBot(0)

    nn = nn_learner(tie_margin=Q(1, 200))
    s2 = sample_1d((Q(1, 5), 0), (Q(4, 5), 1))
    flipped = None
    for fuel in range(13):
        out = robust_point((Q(21, 100),), s2, nn, UNIT, fuel)
        if out.verdict is not TwoBot.BOT:
            flipped = out
            break
    assert flipped is not None and flipped.verdict is TwoBot.ZERO
    (added, label), = flipped.witnesses[0].extension
    retrained = nn.train(s2.extend((((added[0],), label),)))
    assert retrained.eval_point((Q(21, 100),), 12) == KBot(flipped.witnesses[0].outcome)
    assert flipped.witnesses[0].outcome != flipped.base.color

    sparse_nn = nn_learner(tie_margin=Q(1, 100))
    s3 = sample_1d((0, 0), (1, 1))
    x = (Q(1, 2),)
    committed = None
    for fuel in range(13):
        out = sparse_or_dense(sparse_nn, 1, Q(1, 5), s3, x, UNIT, fuel)
        if out.verdict is not TwoBot.BOT:
            committed = out
            break
    assert committed is not None and committed.verdict is TwoBot.ZERO
    outcomes = set()
    for witness in committed.witnesses:
        for point, _label in witness.extension:
            assert abs(point[0] - Q(1, 2)) > Q(1, 5), "witness not strictly outside"
        retrained = sparse_nn.train(
            s3.extend(tuple(((p[0],), l) for p, l in witness.extension))
        )
        assert retrained.eval_point(x, 12) == KBot(witness.outcome)
        outcomes.add(witness.outcome)
    assert outcomes == {0, 1}

    s4 = sample_1d((Q(45, 100), 0), (Q(40, 100), 0))
    dense = None
    for fuel in range(13):
        out = sparse_or_dense(sparse_nn, 1, Q(1, 5), s4, x, UNIT, fuel)
        if out.verdict is not TwoBot.BOT:
            dense = out
            break
    assert dense is not None and dense.verdict is TwoBot.ONE and dense.color == 0

    elapsed = time.monotonic() - started
    assert elapsed < 60, f"learner gold cases took {elapsed:.1f}s, budget 60s"


def test_c7_self_deviation_confirms_and_stays_honestly_unknown():
    majority = majority_learner(k=2)
    confirmed = None
    for fuel in range(11):
        out = does_deviate(majority, UNIT, fuel)
        if out.verdict is Verdict.CONFIRMED:
            confirmed = out
            break
    assert confirmed is not None, "majority self-deviation not found by fuel 10"
    trained = majority.train(Sample(tuple(confirmed.witnesses[0].sample)))
    point, label = confirmed.witnesses[0].sample[confirmed.witnesses[0].index]
    assert trained.eval_point(point, 6) == KBot(confirmed.witnesses[0].observed)
    assert confirmed.witnesses[0].observed != label

    # The search schedule is nested in fuel, so a single unknown at fuel 12
    # certifies unknown at every fuel from 0 through 12.
    nn = nn_learner(tie_margin=Q(1, 4))
    assert does_deviate(nn, UNIT, 12).verdict is Verdict.UNKNOWN


def _c8_regions():
    rng = random.Random(908)
    out = []
    for _ in range(500):
        dims = rng.choice([1, 2])
        kind = rng.choice(["ball-max", "ball-euclid", "annulus"])
        center = tuple(dy(rng, 3, -1, 1) for _ in range(dims))
        fuel = rng.randint(0, 3)
        if kind == "annulus":
            dom = domain_box([(c - 1, c + 1) for c in center])
            eps = Q(rng.randint(1, 4), 8)
            region = outside_ball(dom, center, eps, MetricKind.MAX)
            member = lambda p, c=center, e=eps, d=dom: (
                max_dist(p, c) > e
                and all(s.lo <= v <= s.hi for v, s in zip(p, d.compact.bounding.sides))
            )
            out.append((region, member, fuel, ("annulus", center, eps, dom)))
        else:
            metric = MetricKind.MAX if kind == "ball-max" else MetricKind.EUCLID_SQ
            mname = "max" if kind == "ball-max" else "euclid"
            r = Q(rng.randint(2, 8), 8)
            region = closed_ball(center, r, metric)
            member = lambda p, c=center, rr=r, m=mname: dist(p, c, m) <= rr
            out.append((region, member, fuel, ("ball", center, r, mname)))
    return out


def _deep_member_target(rng: random.Random, shape) -> tuple | None:
    """A rational region point with 1/8 slack from every boundary, or None."""
    kind = shape[0]
    for _ in range(40):
        den = rng.randint(3, 48)
        if kind == "ball":
            _, center, r, mname = shape
            spread = r if mname == "max" else (r + 1) / 2
            p = tuple(
                c + Q(rng.randint(-den, den), den) * spread for c in center
            )
            if dist(p, center, mname) <= r - Q(1, 8):
                return p
        else:
            _, center, eps, dom = shape
            p = tuple(
                c + Q(rng.randint(-7 * den, 7 * den), 8 * den) for c in center
            )
            if max_dist(p, center) >= eps + Q(1, 8):
                return p
    return None


def test_c8_region_presentations_are_sound_and_dense():
    """500 seeded regions: cover widths, exact members, and grid density."""
    rng = random.Random(988)
    for idx, (region, member, fuel, shape) in enumerate(_c8_regions()):
        label = f"region {idx} {shape} fuel {fuel}"
        cover = region.compact.cover_at(fuel)
        if region.compact.bounding is not None:
            target = cover_width_target(region.compact.bounding, fuel)
            assert all(box.width <= target for box in cover), f"{label}: wide cover box"
        pts = region.overt.points_at(fuel)
        for p in pts:
            assert member(p), f"{label}: enumerated non-member {p}"
        # Every member must land inside some box of the same-fuel cover.
        for p in pts[:: max(1, len(pts) // 3)][:3]:
            assert any(
                all(s.lo <= v <= s.hi for v, s in zip(p, box.sides)) for box in cover
            ), f"{label}: member {p} escapes the cover"
        # Density: a deep member has an enumerated neighbor within 2**-d
        # once the grid is three fuels finer.
        d = rng.randint(1, 3)
        t = _deep_member_target(rng, shape)
        if t is None:
            continue
        grid = Q(1, 2 ** (d + 3))
        axes = [
            dyadics_between(c - Q(1, 2**d), c + Q(1, 2**d), grid) for c in t
        ]
        near = [
            p
            for p in itertools.product(*axes)
            if region.overt.member(p) and max_dist(p, t) <= Q(1, 2**d)
        ]
        assert near, f"{label}: no enumerable point within {Q(1, 2**d)} of {t}"


def test_c9_command_line_is_deterministic_byte_for_byte():
    run = lambda: subprocess.run(
        [sys.executable, "-m", "boxcert", "selftest"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    first, second = run(), run()
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout
    assert "10/10 cases matched" in first.stdout
