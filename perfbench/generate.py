"""Seeded query generator for the benchmark workloads.

``generate(workload, seed, outdir)`` writes one query JSON file per query
(and shared operand files) under ``outdir`` and returns, for each query,
the path and the answer known from construction.  The program under test
only ever sees the files; the expectations stay in the benchmark.

Known answers come from geometry, never from running boxcert:

* hyperplanes: the analytic point-to-plane distance d, so any committed
  radius bracket must satisfy ``lower < d < upper``;
* nets: every net is a linear-cell net, ``s_j(y) = u_j . y + c_j +
  alpha * relu(q . y + e)``.  The relu term is added to every score, so it
  cancels in every score difference and the colored cells are the
  polygons ``(u_j - u_i) . y + c_j - c_i > margin`` for all ``i != j``.
  Interval evaluation does not see the cancellation, which is what makes
  these nets cost real work.  Region answers follow from exact minima and
  maxima of linear functions over boxes and balls;
* learners: 1-NN never deviates on its own sample, majority vote does, a
  sample point at exactly ``eps`` from ``x`` keeps ``sprsOrDns`` at bot
  forever, and a near sample point makes it dense.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction as Q
from pathlib import Path

WORKLOADS = ("radius-streams", "learner-search", "robustness-sweep")

# Every query of the sweep runs to this budget, under both metrics.
SWEEP_MAX_FUEL = 12
# Hidden-layer shift that keeps the two identity units of a net in relu's
# linear range: every box the program evaluates stays inside [-5, 5]^2.
NET_SHIFT = 8


def fmt(q) -> str:
    q = Q(q)
    return f"{q.numerator}/{q.denominator}"


def pt(p) -> list[str]:
    return [fmt(c) for c in p]


def _rand_q(rng: random.Random, lo, hi, den: int) -> Q:
    """A random rational with denominator ``den`` in [lo, hi]."""
    return Q(rng.randint(int(Q(lo) * den), int(Q(hi) * den)), den)


def _off_grid(rng: random.Random, lo, hi) -> Q:
    """A random rational in [lo, hi] that is not dyadic (denominator 3 * 2^k)."""
    while True:
        q = _rand_q(rng, lo, hi, 3 * 64)
        if q.denominator % 3 == 0:
            return q


def _grid_symmetry(rng: random.Random):
    """A random axis swap with sign flips, as a map on 2-D vectors.

    These map every dyadic grid onto itself, so nets built from one base
    shape under them differ in orientation but not in how they sit on the
    grids.
    """
    swap = rng.random() < 0.5
    signs = (rng.choice([1, -1]), rng.choice([1, -1]))

    def apply(v):
        a, b = (v[1], v[0]) if swap else (v[0], v[1])
        return (a * signs[0], b * signs[1])

    return apply


# ---------------------------------------------------------------- geometry


def dot(g, y) -> Q:
    return sum((Q(a) * Q(b) for a, b in zip(g, y)), Q(0))


def l1(g) -> Q:
    return sum((abs(Q(a)) for a in g), Q(0))


def l2sq(g) -> Q:
    return sum((Q(a) * Q(a) for a in g), Q(0))


class Region:
    """A box (center +- halves) or a ball (center, radius, metric).

    ``sometimes_exceeds(g, c, t)`` is exact: does some point of the closed
    region have ``g . y + c > t``?  ``always_exceeds`` asks the same of
    every point.  Under euclid-sq the radius is a squared distance, so the
    extreme of a linear function is ``g . x +- sqrt(r) |g|`` and the tests
    compare squares.
    """

    def __init__(self, center, halves=None, radius=None, metric="max"):
        self.center = tuple(Q(c) for c in center)
        self.halves = tuple(Q(h) for h in halves) if halves is not None else None
        self.radius = Q(radius) if radius is not None else None
        self.metric = metric
        self._samples = None

    def _slack(self, g, v):
        """(v - t) compared against the region's reach along g."""
        if self.halves is not None:
            return sum((abs(Q(a)) * h for a, h in zip(g, self.halves)), Q(0)), None
        if self.metric == "max":
            return self.radius * l1(g), None
        return None, self.radius * l2sq(g)

    def always_exceeds(self, g, c, t) -> bool:
        v = dot(g, self.center) + Q(c) - Q(t)
        reach, reach_sq = self._slack(g, v)
        if reach is not None:
            return v - reach > 0
        return v > 0 and v * v > reach_sq

    def sometimes_exceeds(self, g, c, t) -> bool:
        v = dot(g, self.center) + Q(c) - Q(t)
        reach, reach_sq = self._slack(g, v)
        if reach is not None:
            return v + reach > 0
        return v > 0 or v * v < reach_sq

    def grown(self, factor) -> "Region":
        f = Q(factor)
        if self.halves is not None:
            return Region(self.center, halves=[h * f for h in self.halves])
        r = self.radius * f if self.metric == "max" else self.radius * f * f
        return Region(self.center, radius=r, metric=self.metric)

    def contains(self, y, strict=False) -> bool:
        d = [Q(a) - c for a, c in zip(y, self.center)]
        if self.halves is not None:
            return all((abs(a) < h) if strict else (abs(a) <= h) for a, h in zip(d, self.halves))
        dist = max(abs(a) for a in d) if self.metric == "max" else sum(a * a for a in d)
        return dist < self.radius if strict else dist <= self.radius

    def sample_points(self, n: int = 6):
        """An (n+1) x (n+1) grid over the bounding box, filtered to the
        region's interior; computed once per region."""
        if self._samples is not None:
            return self._samples
        if self.halves is not None:
            halves = self.halves
        elif self.metric == "max":
            halves = (self.radius, self.radius)
        else:
            # Half the side of the square inscribed in the ball, rounded.
            half = Q(math.sqrt(self.radius / 2)).limit_denominator(1024)
            halves = (half, half)
        out = []
        for i in range(n + 1):
            for j in range(n + 1):
                y = (
                    self.center[0] - halves[0] + 2 * halves[0] * i / n,
                    self.center[1] - halves[1] + 2 * halves[1] * j / n,
                )
                if self.contains(y, strict=True):
                    out.append(y)
        self._samples = out
        return out

    def to_json(self) -> dict:
        if self.halves is not None:
            return {
                "type": "box",
                "sides": [[fmt(c - h), fmt(c + h)] for c, h in zip(self.center, self.halves)],
            }
        return {"type": "ball", "center": pt(self.center), "radius": fmt(self.radius)}

    def check_json(self) -> dict:
        """What the checker needs to test witness membership."""
        return {
            "center": pt(self.center),
            "halves": pt(self.halves) if self.halves is not None else None,
            "radius": fmt(self.radius) if self.radius is not None else None,
            "metric": self.metric,
        }


# Score directions of every net, before a grid symmetry is applied: no
# cell wall and no relu hinge is axis-aligned.
NET_SCORES = ((1, 1), (2, 3), (3, -1))
NET_HINGE = (1, -1)


class LinearCellNet:
    """A 2-D, 2-layer relu net whose colored cells are known exactly.

    Every net is the image of one base shape under a grid symmetry, so a
    seed moves and turns the cells without changing how much interval
    looseness a box suffers.  ``hinge_offset`` places the relu hinge.
    """

    def __init__(self, sym, k: int, margin: Q, apex, hinge_offset: Q):
        self.k = k
        self.margin = Q(margin)
        self.u = [sym(u) for u in NET_SCORES[:k]]
        # All cell boundaries pass through ``apex``: c_j = -u_j . apex.
        self.c = [-dot(u, apex) for u in self.u]
        self.q = sym(NET_HINGE)
        self.e = Q(hinge_offset)
        self.alpha = Q(1, 2)

    def g(self, j: int, i: int):
        return tuple(a - b for a, b in zip(self.u[j], self.u[i]))

    def cmargin(self, j: int, i: int) -> Q:
        return self.c[j] - self.c[i]

    def all_color(self, region: Region, j: int) -> bool:
        """Every point of the closed region takes color j."""
        return all(
            region.always_exceeds(self.g(j, i), self.cmargin(j, i), self.margin)
            for i in range(self.k)
            if i != j
        )

    def excludes(self, region: Region, j: int) -> bool:
        """No point of the region takes color j (one cell wall blocks it)."""
        return any(
            not region.sometimes_exceeds(self.g(j, i), self.cmargin(j, i), self.margin)
            for i in range(self.k)
            if i != j
        )

    def clear_witness(self, region: Region, j: int, halo: Q):
        """A sample point of the open region whose halo box lies in cell j."""
        for y in region.sample_points():
            halo_box = Region(y, halves=(halo, halo))
            if self.all_color(halo_box, j) and _box_inside(halo_box, region):
                return y
        return None

    def to_json(self) -> dict:
        hidden = {
            "weights": [["1", "0"], ["0", "1"], pt(self.q)],
            "bias": [fmt(NET_SHIFT), fmt(NET_SHIFT), fmt(self.e)],
            "activation": "relu",
        }
        out = {
            "weights": [pt((u[0], u[1], self.alpha)) for u in self.u],
            "bias": [fmt(c - NET_SHIFT * (u[0] + u[1])) for u, c in zip(self.u, self.c)],
            "activation": "none",
        }
        return {"kind": "net", "k": self.k, "margin": fmt(self.margin), "layers": [hidden, out]}


def _box_inside(box: Region, region: Region) -> bool:
    """Every corner of the box lies strictly inside the region (convex)."""
    (cx, cy), (hx, hy) = box.center, box.halves
    corners = [(cx + sx * hx, cy + sy * hy) for sx in (-1, 1) for sy in (-1, 1)]
    return all(region.contains(p, strict=True) for p in corners)


# ------------------------------------------------------------ radius-streams


def _identity(v):
    return tuple(v)


def _place(rng: random.Random):
    """The base point shifted by a random integer vector.

    A radius instance varies with the seed only by this translation.  The
    walkers search depth first in a fixed axis order, so even a reflection
    of the same instance can double the work of a fuel level.
    """
    return (POINT_FRACTION[0] + rng.randint(-2, 2), POINT_FRACTION[1] + rng.randint(-2, 2))


def _hyperplane(rng: random.Random, metric: str, dist: Q):
    """A non-axis hyperplane at distance ``dist`` from a placed point.

    Under euclid-sq the distance is squared, like every radius there, so
    ``dist * |w|^2`` must be a rational square.
    """
    w = (1, 2)
    x = _place(rng)
    if metric == "max":
        score = dist * l1(w)
    else:
        score = Q(math.isqrt((dist * l2sq(w)).numerator), math.isqrt((dist * l2sq(w)).denominator))
        assert score * score == dist * l2sq(w), "euclid-sq distance needs a rational root"
    b = score - dot(w, x)
    return {"kind": "hyperplane", "w": pt(w), "b": fmt(b)}, x


# Distances of the radius instances.  The streams scan the radius grid
# between the distance and the ceiling, so these fix how many balls each
# fuel level builds.
CEILING = 2
POINT_FRACTION = (Q(1, 3), Q(-2, 5))
OPTIMAL_DIST = {"max": Q(289, 384), "euclid-sq": Q(1, 5)}
OPTIMAL_TOL = Q(1, 32)
STREAM_FUEL = 8
STREAM_DIST = Q(8, 7)
NET_STREAM_FUEL = 5
NET_MAX_FUEL = 8
NET_MARGIN = Q(1, 32)
NET_RHO = Q(4, 7)
NET_TOL = Q(1, 8)


def _radius_streams(rng: random.Random):
    queries = []

    for metric, dist in OPTIMAL_DIST.items():
        clf, x = _hyperplane(rng, metric, dist)
        queries.append((
            f"optimal-hyperplane-{metric}",
            {"op": "optimalRadius", "maxFuel": 12, "metric": metric, "classifier": clf,
             "point": pt(x), "ceiling": CEILING, "tol": fmt(OPTIMAL_TOL)},
            {"verdict": "confirmed", "below": fmt(dist), "above": fmt(dist), "tol": fmt(OPTIMAL_TOL)},
        ))

    clf, x = _hyperplane(rng, "max", STREAM_DIST)
    for op in ("radiusLower", "radiusUpper"):
        queries.append((
            f"{op}-hyperplane-fuel{STREAM_FUEL}",
            {"op": op, "maxFuel": STREAM_FUEL, "metric": "max", "classifier": clf,
             "point": pt(x), "ceiling": CEILING},
            {"verdict": "confirmed", "below": fmt(STREAM_DIST), "above": fmt(STREAM_DIST),
             "pair": "hyperplane"},
        ))

    # Net: the nearest uncommitted point sits at (|v(x)| - m) / |g|_1 and
    # the nearest point of the other color at (|v(x)| + m) / |g|_1.
    x = _place(rng)
    # The relu hinge runs through x.
    net = LinearCellNet(_identity, 2, NET_MARGIN, (Q(0), Q(0)), -dot(NET_HINGE, x))
    g = net.g(1, 0)
    shift = NET_RHO * l1(g) + NET_MARGIN - dot(g, x)
    net.c = [Q(0), shift]
    rho_hi = NET_RHO + 2 * NET_MARGIN / l1(g)
    for op, known in (("radiusLower", {"below": fmt(NET_RHO)}), ("radiusUpper", {"above": fmt(rho_hi)})):
        queries.append((
            f"{op}-net-fuel{NET_STREAM_FUEL}",
            {"op": op, "maxFuel": NET_STREAM_FUEL, "metric": "max",
             "classifier": net.to_json(), "point": pt(x), "ceiling": CEILING},
            {"verdict": "confirmed", "pair": "net", **known},
        ))
    queries.append((
        "optimal-net",
        {"op": "optimalRadius", "maxFuel": NET_MAX_FUEL, "metric": "max",
         "classifier": net.to_json(), "point": pt(x), "ceiling": CEILING, "tol": fmt(NET_TOL)},
        {"verdict": "confirmed", "below": fmt(NET_RHO), "above": fmt(rho_hi),
         "tol": fmt(NET_TOL), "pair": "net"},
    ))
    return queries


# ------------------------------------------------------------ learner-search


DEVIATE_FUEL = 9
DEVIATE_BOX_FUEL = 7


def _learner_search(rng: random.Random):
    queries = []
    nn = {"kind": "nn", "tieMargin": "1/4"}

    a = rng.randint(-3, 3)
    queries.append((
        f"deviate-nn-unit-fuel{DEVIATE_FUEL}",
        {"op": "doesDeviate", "maxFuel": DEVIATE_FUEL, "learner": nn,
         "domain": {"type": "box", "sides": [[a, a + 1]]}},
        {"verdict": "unknown", "learner": nn},
    ))
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    nn_sq = {"kind": "nn", "tieMargin": "1/4", "metric": "euclid-sq"}
    queries.append((
        f"deviate-nn-box-euclid-fuel{DEVIATE_BOX_FUEL}",
        {"op": "doesDeviate", "maxFuel": DEVIATE_BOX_FUEL, "metric": "euclid-sq", "learner": nn_sq,
         "domain": {"type": "box", "sides": [[a, a + 1], [b, b + 1]]}},
        {"verdict": "unknown", "learner": nn_sq},
    ))
    majority = {"kind": "majority", "k": 2}
    a = rng.randint(-3, 3)
    queries.append((
        "deviate-majority",
        {"op": "doesDeviate", "maxFuel": 8, "learner": majority,
         "domain": {"type": "box", "sides": [[a, a + 1]]}},
        {"verdict": "confirmed", "learner": majority},
    ))

    # Sample point at exactly eps from x: every far augmentation either
    # loses to it or ties, and every cover box reaches distance eps, so
    # neither side of the race can ever commit.
    for count, fuel, x0, eps in ((3, 4, Q(5, 12), Q(1, 4)), (2, 6, Q(5, 12), Q(1, 4))):
        a = rng.randint(-3, 3)
        mirror = rng.choice([False, True])
        x = a + (1 - x0 if mirror else x0)
        s = x - eps if mirror else x + eps
        label = rng.randint(0, 1)
        margin = "1/16"
        learner = {"kind": "nn", "tieMargin": margin}
        queries.append((
            f"sprsOrDns-nn-N{count}-fuel{fuel}-bot",
            {"op": "sprsOrDns", "maxFuel": fuel, "learner": learner,
             "sample": {"points": [{"x": [fmt(s)], "label": label}]},
             "point": [fmt(x)], "domain": {"type": "box", "sides": [[a, a + 1]]},
             "N": count, "eps": fmt(eps)},
            {"verdict": "bot", "learner": learner, "eps": fmt(eps)},
        ))

    # Dense: the sample point sits well inside eps - margin of x, so it
    # beats every augmentation at distance eps or more.
    a = rng.randint(-3, 3)
    x = a + Q(1, 2) + _rand_q(rng, Q(-1, 24), Q(1, 24), 48)
    s = x + rng.choice([1, -1]) * Q(1, 48)
    label = rng.randint(0, 1)
    learner = {"kind": "nn", "tieMargin": "1/16"}
    queries.append((
        "sprsOrDns-nn-N2-dense",
        {"op": "sprsOrDns", "maxFuel": 6, "learner": learner,
         "sample": {"points": [{"x": [fmt(s)], "label": label}]},
         "point": [fmt(x)], "domain": {"type": "box", "sides": [[a, a + 1]]},
         "N": 2, "eps": "1/4"},
        {"verdict": "1", "color": label, "learner": learner, "eps": "1/4"},
    ))

    queries.append(_robust_flip(rng))
    return queries


def _first_flip_fuel(x: Q, reach: Q, lo: int, hi: int) -> int:
    """Least d with a multiple of 2^-d in [lo, hi] strictly within reach of x."""
    d = 0
    while True:
        step = Q(1, 2**d)
        k = (x / step).__floor__()
        if any(lo <= j * step <= hi and abs(j * step - x) < reach for j in (k, k + 1)):
            return d
        d += 1


def _robust_flip(rng: random.Random):
    """robustPoint with nn that flips exactly at fuel 7.

    One sample point of label 0 at distance delta; an added label-1 point
    closer than delta - margin wins, so the first fuel whose grid has such
    a point is the flip fuel.
    """
    margin = Q(1, 64)
    while True:
        a = rng.randint(-3, 3)
        x = a + _off_grid(rng, Q(1, 4), Q(3, 4))
        delta = margin + _rand_q(rng, Q(1, 400), Q(1, 200), 12800)
        if _first_flip_fuel(x, delta - margin, a, a + 1) == 7:
            break
    label = rng.randint(0, 1)
    s = x + rng.choice([1, -1]) * delta
    learner = {"kind": "nn", "tieMargin": fmt(margin)}
    return (
        "robustPoint-nn-flip7",
        {"op": "robustPoint", "maxFuel": 10, "learner": learner,
         "sample": {"points": [{"x": [fmt(s)], "label": label}]},
         "point": [fmt(x)], "domain": {"type": "box", "sides": [[a, a + 1]]}},
        {"verdict": "0", "fuel": 7, "base": label, "learner": learner},
    )


# ---------------------------------------------------------- robustness-sweep

# Per net: how many queries of each (op, expected verdict).  Fixed counts
# keep the decided share and the mix of cheap and costly queries the same
# for every seed; only the geometry changes.  "bot" and "unknown" are the
# honest never-commits answers and only occur on two-color nets, where the
# geometry that forces them is exact.
SWEEP_MIX = (
    ("locallyConstant", "1", 4),
    ("locallyConstant", "0", 4),
    ("locallyConstant", "bot", 1),
    ("constantValue", "1", 1),
    ("constantValue", "0", 2),
    ("fixedValue", "1", 1),
    ("fixedValue", "0", 1),
    ("existsValue", "confirmed", 2),
    ("existsValue", "unknown", 1),
    ("forallValue", "confirmed", 2),
    ("forallValue", "unknown", 1),
)
SWEEP_NETS = 8
# Largest integer move of a net per axis: with the base apex in [-2, 2]
# every region stays inside [-5, 5]^2.
SWEEP_MOVE = 2
RADII = (Q(1, 16), Q(1, 8), Q(1, 4))


def _sweep_region(rng: random.Random, apex, ball: bool, metric: str, r: Q) -> Region:
    center = (apex[0] + _off_grid(rng, -1, 1) / 2, apex[1] + _off_grid(rng, -1, 1) / 2)
    if ball:
        return Region(center, radius=r if metric == "max" else r * r, metric=metric)
    return Region(center, halves=(r, rng.choice(RADII)))


def _classify(net: LinearCellNet, op: str, region: Region, n: int | None):
    """The answer a region query must give, or None when it is not clear-cut.

    Committed answers require clearance: a 1 needs the region grown by a
    quarter to stay in one cell, a 0 needs witnesses whose halo box lies
    inside the region and the cell.  Never-committing answers need exact
    geometry, so only the two-color net produces them.
    """
    halo = (region.halves[0] if region.halves else region.radius) / 16
    if region.metric == "euclid-sq" and region.halves is None:
        halo = Q(1, 256)
    grown = region.grown(Q(5, 4))

    def solid(j):
        return net.all_color(grown, j)

    def touched(j):
        return net.clear_witness(region, j, halo) is not None

    if op in ("locallyConstant", "constantValue"):
        solids = [j for j in range(net.k) if solid(j)]
        if solids:
            return ("1", solids[0])
        if sum(1 for j in range(net.k) if touched(j)) >= 2:
            return ("0", None)
        excluded = [j for j in range(net.k) if net.excludes(region, j)]
        if net.k == 2 and len(excluded) == 1 and not any(net.all_color(region, j) for j in range(2)):
            return ("bot", None)
        return None
    if op == "forallValue":
        if solid(n):
            return ("confirmed", n)
        if not net.all_color(region, n):
            return ("unknown", None)
        return None
    if op == "existsValue":
        if net.excludes(region, n):
            return ("unknown", None)
        if touched(n):
            return ("confirmed", n)
        return None
    if op == "fixedValue":
        if solid(n):
            return ("1", n)
        if any(touched(m) for m in range(net.k) if m != n):
            return ("0", None)
        return None
    raise ValueError(op)


def _robustness_sweep(rng: random.Random, outdir: Path):
    """The sweep's nets and regions, moved and reordered by the seed.

    Shapes, offsets and radii come from one fixed base draw; the seed moves
    each net, with its relu hinge and all its regions, by an integer
    vector and shuffles the query order.  An integer move maps every
    dyadic grid onto itself, so every seed asks the same amount of work
    (a fresh draw per seed swings a pass by 2x) while no two seeds send
    the same files.
    """
    base = random.Random("robustness-sweep:base")
    queries = []
    slots: dict[tuple[str, str], int] = {}
    for index in range(SWEEP_NETS):
        k = 2 if index % 2 == 0 else 3
        margin = Q(1, 8) if index % 4 < 2 else Q(1, 16)
        move = (rng.randint(-SWEEP_MOVE, SWEEP_MOVE), rng.randint(-SWEEP_MOVE, SWEEP_MOVE))
        apex = tuple(_off_grid(base, -2, 2) + m for m in move)
        net = LinearCellNet(_grid_symmetry(base), k, margin, apex, _rand_q(base, -1, 1, 16))
        net.e -= dot(net.q, move)
        net_file = f"net{index}.json"
        (outdir / net_file).write_text(json.dumps(net.to_json(), indent=1) + "\n")
        for op, verdict, count in SWEEP_MIX:
            if net.k == 3 and verdict in ("bot", "unknown"):
                verdict_pool = [v for o, v, _ in SWEEP_MIX if o == op and v not in ("bot", "unknown")]
                verdict = verdict_pool[0]
            for _ in range(count):
                slot = slots.get((op, verdict), 0)
                slots[(op, verdict)] = slot + 1
                queries.append(_sweep_query(base, net, net_file, apex, op, verdict, slot))
    rng.shuffle(queries)
    return [(f"sweep-{i:03d}-{name}", body, expect) for i, (name, body, expect) in enumerate(queries)]


def _sweep_query(rng, net, net_file, apex, op, verdict, slot: int):
    """One query of the given op and answer.

    ``slot`` counts the queries of this (op, answer) so far: it cycles the
    metric, ball or box, and radius, so every seed draws the same mix of
    them and only the positions change.  A radius that cannot give the
    answer near this net's apex is replaced by a random one.
    """
    metric = ("max", "euclid-sq")[slot % 2]
    ball = op == "locallyConstant" or slot // 2 % 2 == 0
    for tries in itertools.count():
        r = RADII[slot % len(RADII)] if tries < 200 else rng.choice(RADII)
        region = _sweep_region(rng, apex, ball, metric, r)
        n = rng.randrange(net.k) if op in ("existsValue", "forallValue", "fixedValue") else None
        answer = _classify(net, op, region, n)
        if answer is None or answer[0] != verdict:
            continue
        body = {"op": op, "maxFuel": SWEEP_MAX_FUEL, "metric": metric, "classifier": net_file}
        if op == "locallyConstant":
            body["point"] = pt(region.center)
            body["radius"] = fmt(region.radius)
        else:
            body["region"] = region.to_json()
        if n is not None:
            body["n"] = n
        expect = {"verdict": verdict, "region": region.check_json(), "net": net.to_json()}
        if answer[1] is not None and verdict == "1":
            expect["color"] = answer[1]
        if n is not None:
            expect["n"] = n
        return (f"{op}-{verdict}", body, expect)


# ------------------------------------------------------------------ entry point


def generate(workload: str, seed: int, outdir: Path) -> list[dict]:
    """Write the workload's query files for this seed; return the queries.

    Each returned entry has ``name``, ``path`` (the query file) and
    ``expect`` (the answer known from construction).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "radius-streams":
        made = _radius_streams(rng)
    elif workload == "learner-search":
        made = _learner_search(rng)
    else:
        made = _robustness_sweep(rng, outdir)
    out = []
    for name, body, expect in made:
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(body, indent=1) + "\n")
        out.append({"name": name, "path": path, "query": body, "expect": expect})
    return out
