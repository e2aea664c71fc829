"""Independent reference implementations used to pin expected test values.

Everything here is written directly from the defining formulas, with none
of the interval or subdivision machinery of the package under test: colors
come from exact sign tests at points, searches are plain dense-grid sweeps.
Slow and obvious on purpose.  The two radius scans take the package's
membership tests as given and only walk the radius grid; they are the
one-membership-per-radius reference for the radius streams.  The interval
references at the end are the package's former ``Fraction``/``Interval``
evaluators, kept as the reference for the integer kernels that replaced
them, together with the ``Interval`` arithmetic they run on and the
``Box`` bisection, width and containment of a box held as ``Interval``
sides.  The net has two: the per-score envelope that bounds each output
score on its own, and the margin-row envelope of the integer kernel that
bounds each score difference as one row.  The two
learner searches at the very end enumerate ordered tuples of added points,
as the package did before its searches moved to multisets, and the
``robust_point`` reference keeps the two race sides it had before it
shared ``sparse_or_dense``'s race body.  The per-color walkers at the end
are the region ops as they were before each race side became one walk for
all its colors: one cover walk and one witness walk per color, and the
loops over colors around them.  Next to them, the one-walk-per-side
walkers as they were before each walk resumed the last one across fuels:
a fresh walk from the root box at every call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

from boxcert import (
    ColorEnvelope,
    ColorWitness,
    DeviationWitness,
    ExtensionWitness,
    Interval,
    KBot,
    LowerReal,
    MetricKind,
    Outcome,
    Sample,
    UpperReal,
    TwoBot,
    Verdict,
    cover_width_target,
    dyadic_step,
    race,
)
from boxcert.regions import outside_ball

Q = Fraction


def frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("oracle helpers take exact rationals only")
    return Fraction(x)


def max_dist(p, q) -> Fraction:
    return max(abs(a - b) for a, b in zip(p, q))


def eucl_sq_dist(p, q) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(p, q))


def dist(p, q, metric: str) -> Fraction:
    return max_dist(p, q) if metric == "max" else eucl_sq_dist(p, q)


def hyperplane_color(w, b, x):
    """Sign classification by a separating hyperplane; None on the plane."""
    dot = sum(wi * xi for wi, xi in zip(w, x)) + b
    if dot > 0:
        return 1
    if dot < 0:
        return 0
    return None


def net_scores(layers, x):
    """Forward pass: layers are (rows, bias, activation) triples."""
    values = list(x)
    for rows, bias, activation in layers:
        values = [
            sum(r * v for r, v in zip(row, values)) + bb
            for row, bb in zip(rows, bias)
        ]
        if activation == "relu":
            values = [max(Q(0), v) for v in values]
    return values


def net_color(layers, margin, k, x):
    """Margin-thresholded argmax; None when no score wins by > margin."""
    if k == 1:
        return 0
    scores = net_scores(layers, x)
    for j in range(k):
        rival = max(scores[i] for i in range(k) if i != j)
        if scores[j] - rival > margin:
            return j
    return None


def nn_color(points, labels, x, margin, metric: str = "max"):
    """1-NN with a strict margin rule over training-point indexes.

    The index with least distance must beat every other index by more
    than the margin; otherwise the prediction is undetermined (None).
    """
    if not points:
        return None
    dists = [dist(p, x, metric) for p in points]
    best = min(range(len(points)), key=lambda i: (dists[i], i))
    for j in range(len(points)):
        if j != best and not (dists[best] + margin < dists[j]):
            return None
    return labels[best]


def majority_color(labels):
    """Strict majority label; None on a tie or an empty sample."""
    if not labels:
        return None
    counts: dict[int, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        return None
    return ranked[0][0]


def dyadics_between(lo: Fraction, hi: Fraction, step: Fraction):
    """All multiples of step in [lo, hi], by direct scan."""
    n = lo / step
    k = n.numerator // n.denominator  # floor
    if k * step < lo:
        k += 1
    out = []
    while k * step <= hi:
        out.append(k * step)
        k += 1
    return out


def sweep_box(sides, step: Fraction):
    """Every grid point of a box at the given spacing, axis by axis."""
    axes = [dyadics_between(lo, hi, step) for lo, hi in sides]
    return [tuple(p) for p in product(*axes)]


def sweep_ball(center, radius: Fraction, step: Fraction, metric: str = "max"):
    """Grid points of the closed ball, via a bounding-box sweep and filter."""
    if radius < 0:
        return []
    # Under the squared-euclidean metric the radius is itself a squared
    # distance, so the cutoff is the radius in both metrics; only the
    # bounding box needs the (r + 1) / 2 >= sqrt(r) slack.
    half = radius if metric == "max" else (radius + 1) / 2
    sides = [(c - half, c + half) for c in center]
    return [p for p in sweep_box(sides, step) if dist(p, center, metric) <= radius]


def grid_search_radius(color_fn, x, step: Fraction, ceiling: Fraction):
    """Dense 1-D-style grid search bracketing the stable radius at x.

    Returns (largest grid radius whose whole grid ball keeps the base
    color committed, smallest grid radius whose grid ball contains a
    committed different color), using max-metric sweeps.  Either side is
    None when the sweep never settles it.
    """
    base = color_fn(x)
    if base is None:
        return None, None
    lower = None
    upper = None
    r = Q(0)
    while r <= ceiling:
        pts = sweep_ball(x, r, step, "max")
        colors = [color_fn(p) for p in pts]
        if all(c == base for c in colors):
            lower = r
        if upper is None and any(c is not None and c != base for c in colors):
            upper = r
        r += step
    return lower, upper


def sup_of_confirmed_set(membership, ceiling):
    """Reference scan for a supremum from below, one membership per radius.

    At fuel d the grid holds the multiples of 2**-d in [0, ceiling] and the
    approximation is the largest grid point whose membership confirms at
    fuel d, found by scanning top-down.  While nothing confirms, the grid
    minimum one step below zero stands in as the sentinel.
    """
    top = frac(ceiling)
    if top < 0:
        raise ValueError("search ceiling must be nonnegative")

    def approx(fuel):
        step = Q(1, 2**fuel)
        r = math.floor(top / step) * step
        while r >= 0:
            if membership(r, fuel) is Verdict.CONFIRMED:
                return r
            r -= step
        return -step

    return LowerReal(approx=approx, ceiling=top)


def inf_of_confirmed_set(membership, ceiling):
    """Reference scan for an infimum from above, one membership per radius.

    The grid at fuel d holds the multiples of 2**-d in [0, ceiling]; the
    approximation is the smallest confirmed grid point, the ceiling while
    nothing confirms.
    """
    top = frac(ceiling)
    if top < 0:
        raise ValueError("search ceiling must be nonnegative")

    def approx(fuel):
        step = Q(1, 2**fuel)
        r = Q(0)
        while r <= top:
            if membership(r, fuel) is Verdict.CONFIRMED:
                return r
            r += step
        return top

    return UpperReal(approx=approx, ceiling=top)


# ------------------------------------------------------- interval references


def iv_add(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo + b.lo, a.hi + b.hi)


def iv_sub(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo - b.hi, a.hi - b.lo)


def iv_neg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def iv_mul(a: Interval, b: Interval) -> Interval:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def iv_scale(a: Interval, q: Fraction) -> Interval:
    if q >= 0:
        return Interval(a.lo * q, a.hi * q)
    return Interval(a.hi * q, a.lo * q)


def iv_shift(a: Interval, q: Fraction) -> Interval:
    return Interval(a.lo + q, a.hi + q)


def iv_relu(a: Interval) -> Interval:
    return Interval(max(a.lo, Q(0)), max(a.hi, Q(0)))


def iv_abs(a: Interval) -> Interval:
    """Range of |t| for t in the interval."""
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return Interval(-a.hi, -a.lo)
    return Interval(Q(0), max(-a.lo, a.hi))


def iv_square(a: Interval) -> Interval:
    m = iv_abs(a)
    return Interval(m.lo * m.lo, m.hi * m.hi)


def ref_box_width(sides) -> Fraction:
    """Widest side of a box given as a tuple of ``Interval`` sides."""
    return max((side.hi - side.lo for side in sides), default=Q(0))


def ref_box_contains(sides, point) -> bool:
    return all(side.lo <= c <= side.hi for side, c in zip(sides, point))


def ref_box_bisect(sides):
    """The two halves of a box of ``Interval`` sides, split along the
    widest side, lowest axis index on ties."""
    widths = [side.hi - side.lo for side in sides]
    widest = max(widths, default=0)
    if widest == 0:
        raise ValueError("cannot bisect a degenerate box")
    axis = widths.index(widest)
    side = sides[axis]
    mid = (side.lo + side.hi) / 2
    left, right = Interval(side.lo, mid), Interval(mid, side.hi)
    return sides[:axis] + (left,) + sides[axis + 1 :], sides[:axis] + (right,) + sides[axis + 1 :]


def ref_dist_point(x, y, metric: MetricKind) -> Fraction:
    """Exact distance, squared for euclid-sq, in Fraction arithmetic."""
    if metric is MetricKind.MAX:
        return max((abs(a - b) for a, b in zip(x, y)), default=Q(0))
    return sum(((a - b) * (a - b) for a, b in zip(x, y)), Q(0))


def ref_dist_range(box, x, metric: MetricKind) -> Interval:
    """Range of the distance to x over a box, one Interval per axis."""
    per_axis = [iv_abs(iv_shift(side, -c)) for side, c in zip(box.sides, x)]
    if metric is MetricKind.MAX:
        if not per_axis:
            return Interval.point(0)
        return Interval(max(r.lo for r in per_axis), max(r.hi for r in per_axis))
    lo = sum((r.lo * r.lo for r in per_axis), Q(0))
    hi = sum((r.hi * r.hi for r in per_axis), Q(0))
    return Interval(lo, hi)


def ref_hyperplane_eval_point(w, b, point) -> KBot:
    color = hyperplane_color(w, b, point)
    return KBot(color) if color is not None else KBot.bot()


def ref_hyperplane_eval_box(w, b, box) -> ColorEnvelope:
    """Envelope of the sign of w.x + b over a box, by interval sums."""
    acc = Interval.point(b)
    for wi, side in zip(w, box.sides):
        acc = iv_add(acc, iv_scale(side, wi))
    if acc.lo > 0:
        return ColorEnvelope(frozenset((1,)), False)
    if acc.hi < 0:
        return ColorEnvelope(frozenset((0,)), False)
    colors = set()
    if acc.hi > 0:
        colors.add(1)
    if acc.lo < 0:
        colors.add(0)
    return ColorEnvelope(frozenset(colors), True)


def ref_net_score_ranges(layers, box) -> list[Interval]:
    """Interval forward pass; ``layers`` are ``classifiers.Layer`` objects."""
    values = list(box.sides)
    for layer in layers:
        nxt = []
        for row, bq in zip(layer.weights, layer.bias):
            acc = Interval.point(bq)
            for wi, vi in zip(row, values):
                acc = iv_add(acc, iv_scale(vi, wi))
            nxt.append(acc)
        if layer.activation == "relu":
            nxt = [iv_relu(v) for v in nxt]
        values = nxt
    return values


def ref_net_eval_point(layers, margin, point) -> KBot:
    triples = [(layer.weights, layer.bias, layer.activation) for layer in layers]
    color = net_color(triples, margin, layers[-1].out_dim, point)
    return KBot(color) if color is not None else KBot.bot()


def ref_net_eval_box(layers, margin, box) -> ColorEnvelope:
    """Margin envelope over the interval scores, each bounded on its own."""
    k = layers[-1].out_dim
    s = ref_net_score_ranges(layers, box)
    if k == 1:
        return ColorEnvelope(frozenset((0,)), False)
    colors = set()
    certain = False
    for j in range(k):
        rival_lo = max(s[i].lo for i in range(k) if i != j)
        rival_hi = max(s[i].hi for i in range(k) if i != j)
        if s[j].hi - rival_lo > margin:
            colors.add(j)
        if s[j].lo - rival_hi > margin:
            certain = True
    return ColorEnvelope(frozenset(colors), not certain)


def ref_net_margin_eval_box(layers, margin, box) -> ColorEnvelope:
    """Margin envelope over interval margin rows.

    Without an output relu, each margin s_j - s_i is one interval row,
    (w_j - w_i, b_j - b_i), over the last hidden ranges; color j is
    admitted when every row of j could exceed the margin, and the box is
    certain when, for some j, every row of j does.  Under an output relu
    the margins are bounded through the scores, as in
    :func:`ref_net_eval_box`.
    """
    *hidden, out = layers
    k = out.out_dim
    if k == 1 or out.activation == "relu":
        return ref_net_eval_box(layers, margin, box)
    h = ref_net_score_ranges(hidden, box)
    colors = set()
    certain = False
    for j in range(k):
        rows = []
        for i in range(k):
            if i != j:
                acc = Interval.point(out.bias[j] - out.bias[i])
                for wj, wi, v in zip(out.weights[j], out.weights[i], h):
                    acc = iv_add(acc, iv_scale(v, wj - wi))
                rows.append(acc)
        if all(r.hi > margin for r in rows):
            colors.add(j)
        if all(r.lo > margin for r in rows):
            certain = True
    return ColorEnvelope(frozenset(colors), not certain)


def ref_nn_eval_point(sample_points, x, margin, metric: MetricKind) -> KBot:
    """The trained nn point rule, by :func:`nn_color`'s direct scan."""
    points = [p for p, _ in sample_points]
    labels = [label for _, label in sample_points]
    color = nn_color(points, labels, x, margin, metric.value)
    return KBot(color) if color is not None else KBot.bot()


# ------------------------------------------------------ ordered searches


def ref_does_deviate(L, domain, fuel) -> Outcome:
    """``does_deviate`` over ordered tuples: every permutation is retrained."""
    for stage in range(fuel + 1):
        for t in range(1, stage + 1):
            for depth in range(stage - t + 1):
                pts = domain.overt.points_at(depth)
                window = min(
                    len(pts),
                    2 ** (stage - t - depth) + 1,
                    2 ** -(-(stage - t) // t) + 1,
                )
                if window < t:
                    continue
                for tup in permutations(pts[:window], t):
                    for labels in product(range(L.k), repeat=t):
                        trained = L.train(Sample(tuple(zip(tup, labels))))
                        for m in range(t):
                            got = trained.eval_point(tup[m])
                            if got.committed and got.color != labels[m]:
                                witness = DeviationWitness(tuple(zip(tup, labels)), m, got.color)
                                return Outcome(Verdict.CONFIRMED, witnesses=(witness,))
    return Outcome(Verdict.UNKNOWN)


def ref_sparse_or_dense(L, N, eps, sample, point, domain, fuel, metric) -> Outcome:
    """``sparse_or_dense`` over ordered tuples of points and of labels."""
    far = outside_ball(domain, point, eps, metric)
    sparse_pair: list = []
    dense_color: list = []

    def zero_side(d):
        pts = far.overt.points_at(d)
        seen: dict = {}
        for j in range(N + 1):
            for combo in product(pts, repeat=j):
                for labels in product(range(L.k), repeat=j):
                    ext = tuple(zip(combo, labels))
                    got = L.train(sample.extend(ext)).eval_point(point)
                    if not got.committed:
                        continue
                    seen.setdefault(got.color, ExtensionWitness(ext, got.color))
                    if len(seen) >= 2:
                        sparse_pair.extend(list(seen.values())[:2])
                        return Verdict.CONFIRMED
        return Verdict.UNKNOWN

    def yes_side(d):
        cover = far.compact.cover_at(d)
        target = None
        for j in range(N + 1):
            for boxes in product(cover, repeat=j):
                for labels in product(range(L.k), repeat=j):
                    env = L.family_at(sample, tuple(zip(boxes, labels)), point)
                    color = env.committed_color
                    if color is None or (target is not None and color != target):
                        return Verdict.UNKNOWN
                    target = color
        if target is None:
            return Verdict.UNKNOWN
        dense_color.append(target)
        return Verdict.CONFIRMED

    value = race(yes_side, zero_side, fuel)
    return Outcome(
        value, color=dense_color[0] if dense_color else None, witnesses=tuple(sparse_pair)
    )


def ref_robust_point(x, sample, L, domain, fuel) -> Outcome:
    """``robust_point`` with the single-point race sides of its own."""
    point = tuple(frac(c) for c in x)
    base = L.train(sample).eval_point(point)
    if base.is_bot:
        return Outcome(TwoBot.BOT, base=base)
    flip: list = []

    def yes_side(d):
        for box in domain.compact.cover_at(d):
            for label in range(L.k):
                env = L.family_at(sample, [(box, label)], point)
                if env.committed_color != base.color:
                    return Verdict.UNKNOWN
        return Verdict.CONFIRMED

    def no_side(d):
        for y in domain.overt.points_at(d):
            for label in range(L.k):
                got = L.train(Sample._exact(sample.points + ((y, label),))).eval_point(point)
                if got.committed and got.color != base.color:
                    flip.append(ExtensionWitness(((y, label),), got.color))
                    return Verdict.CONFIRMED
        return Verdict.UNKNOWN

    value = race(yes_side, no_side, fuel)
    return Outcome(value, base=base, witnesses=tuple(flip))


# ------------------------------------------------------ per-color walkers


def ref_certified_everywhere(A, f, n, fuel) -> bool:
    """Does every box of the cover at this fuel commit to color n?"""
    target = cover_width_target(A.bounding, fuel)
    stack = [A.bounding]
    while stack:
        box = stack.pop()
        if not A.keep(box):
            continue
        if f.eval_box(box).committed_color == n:
            continue
        if box.width <= target:
            return False
        lo, hi = box.bisect()
        stack.append(hi)
        stack.append(lo)
    return True


def ref_find_witness(A, f, n, fuel):
    """First enumerated point of A evaluating to color n, in search order."""
    step = dyadic_step(fuel)
    stack = [A.bounding]
    while stack:
        box = stack.pop()
        if A.box_disjoint(box):
            continue
        if n not in f.eval_box(box).colors:
            continue
        if all(side.hi - side.lo <= step for side in box.sides):
            axes = [dyadics_between(side.lo, side.hi, step) for side in box.sides]
            for p in product(*axes):
                if A.member(p) and f.eval_point(p) == KBot(n):
                    return p
            continue
        lo, hi = box.bisect()
        stack.append(hi)
        stack.append(lo)
    return None


def ref_certified_colors(A, f, colors, fuel) -> frozenset:
    """``verify._certified_colors`` as a fresh walk from the root at every
    fuel: one walk for all the colors, each pending box carrying the colors
    still open in its subtree."""
    wanted = frozenset(colors)
    target = cover_width_target(A.bounding, fuel)
    failed: frozenset = frozenset()
    stack = [(A.bounding, wanted)]
    while stack:
        box, still = stack.pop()
        still -= failed
        if not still or not A.keep(box):
            continue
        still -= {f.eval_box(box).committed_color}
        if not still:
            continue
        if box.width <= target:
            failed |= still
            if failed == wanted:
                break
            continue
        lo, hi = box.bisect()
        stack.append((hi, still))
        stack.append((lo, still))
    return wanted - failed


def ref_find_witnesses(A, f, colors, need, fuel) -> list:
    """``verify._find_witnesses`` as a fresh walk from the root at every
    fuel: one walk for all the colors still wanted."""
    hits: dict = {}
    wanted = set(colors)
    step = dyadic_step(fuel)
    stack = [A.bounding]
    while stack and wanted:
        box = stack.pop()
        if A.box_disjoint(box) or wanted.isdisjoint(f.eval_box(box).colors):
            continue
        if all(side.hi - side.lo <= step for side in box.sides):
            axes = [dyadics_between(side.lo, side.hi, step) for side in box.sides]
            for p in product(*axes):
                if not A.member(p):
                    continue
                color = f.eval_point(p).color
                if color in wanted:
                    hits[color] = p
                    wanted.discard(color)
                    if len(hits) >= need:
                        bound = sorted(hits)[need - 1]
                        wanted = {c for c in wanted if c < bound}
                    if not wanted:
                        break
            continue
        lo, hi = box.bisect()
        stack.append(hi)
        stack.append(lo)
    return [ColorWitness(hits[c], c) for c in sorted(hits)[:need]]


def ref_exists_value(n, A, f, fuel) -> Outcome:
    point = ref_find_witness(A, f, n, fuel)
    if point is None:
        return Outcome(Verdict.UNKNOWN)
    return Outcome(Verdict.CONFIRMED, witnesses=(ColorWitness(point, n),))


def ref_forall_value(n, A, f, fuel) -> Verdict:
    return Verdict.CONFIRMED if ref_certified_everywhere(A, f, n, fuel) else Verdict.UNKNOWN


def ref_fixed_value(n, A, f, fuel) -> Outcome:
    """``fixed_value`` with one witness walk per other color, lowest first."""
    found: list = []

    def no_side(d):
        for m in range(f.k):
            if m == n:
                continue
            outcome = ref_exists_value(m, A.overt, f, d)
            if outcome.verdict is Verdict.CONFIRMED:
                found.extend(outcome.witnesses)
                return Verdict.CONFIRMED
        return Verdict.UNKNOWN

    value = race(lambda d: ref_forall_value(n, A.compact, f, d), no_side, fuel)
    return Outcome(value, color=n if value is TwoBot.ONE else None, witnesses=tuple(found))


def ref_constant_value(A, f, fuel) -> Outcome:
    """``constant_value`` with one walk per color on each side, lowest first."""
    certified: list = []
    found: list = []

    def yes_side(d):
        for n in range(f.k):
            if ref_forall_value(n, A.compact, f, d) is Verdict.CONFIRMED:
                certified.append(n)
                return Verdict.CONFIRMED
        return Verdict.UNKNOWN

    def no_side(d):
        hits: list = []
        for n in range(f.k):
            hits.extend(ref_exists_value(n, A.overt, f, d).witnesses)
            if len(hits) == 2:
                found.extend(hits)
                return Verdict.CONFIRMED
        return Verdict.UNKNOWN

    value = race(yes_side, no_side, fuel)
    return Outcome(value, color=certified[0] if certified else None, witnesses=tuple(found))
