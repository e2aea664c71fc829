"""Independent reference implementations used to pin expected test values.

Everything here is written directly from the defining formulas, with none
of the interval or subdivision machinery of the package under test: colors
come from exact sign tests at points, searches are plain dense-grid sweeps.
Slow and obvious on purpose.  The two radius scans at the end take the
package's membership tests as given and only walk the radius grid; they
are the one-membership-per-radius reference for the radius streams.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from boxcert import LowerReal, UpperReal, Verdict

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


def color_multiset(color_fn, points):
    """Map a pointwise color function over points, keeping committed ones."""
    out = {}
    for p in points:
        c = color_fn(p)
        if c is not None:
            out.setdefault(c, p)
    return out


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
