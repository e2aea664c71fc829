"""Output checker: every report against the answer known from construction.

Witnesses are replayed through the independent reference implementations
in ``tests/oracles.py`` (plain forward passes, sorted-distance 1-NN,
majority counts), which share no code with the package under test.
``problems(query, report, code)`` returns a list of readable problems; an
empty list means the report is right.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction as Q
from pathlib import Path

COMMITTED = ("confirmed", "1", "0")


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` by path, without touching sys.path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("boxcert_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _point(raw) -> tuple:
    return tuple(Q(c) for c in raw)


def _net_layers(net: dict):
    return [
        (
            [[Q(v) for v in row] for row in layer["weights"]],
            [Q(v) for v in layer["bias"]],
            layer["activation"],
        )
        for layer in net["layers"]
    ]


class Checker:
    def __init__(self, oracles):
        self.o = oracles

    def problems(self, query: dict, report: dict, code: int) -> list[str]:
        expect = query["expect"]
        op = query["query"]["op"]
        out = []
        verdict = report.get("verdict")
        if code != (0 if verdict in COMMITTED else 2):
            out.append(f"exit code {code} does not match verdict {verdict!r}")
        if verdict != expect["verdict"]:
            out.append(f"verdict {verdict!r}, expected {expect['verdict']!r}")
        if op in ("radiusLower", "radiusUpper", "optimalRadius"):
            out += self._radius(query, report)
        elif op in ("doesDeviate", "robustPoint", "sprsOrDns"):
            out += self._learner(query, report)
        else:
            out += self._region(query, report)
        return out

    # ------------------------------------------------------------ radius

    def _radius(self, query: dict, report: dict) -> list[str]:
        expect, body = query["expect"], query["query"]
        ceiling = Q(body["ceiling"])
        radius = report.get("radius", {})
        out = []
        below = Q(expect["below"]) if "below" in expect else None
        above = Q(expect["above"]) if "above" in expect else None
        if "lower" in radius:
            lower = Q(radius["lower"])
            if lower < 0 or (below is not None and not lower < below):
                out.append(f"lower {lower} not in [0, {below})")
        if "upper" in radius:
            upper = Q(radius["upper"])
            if above is not None and not above < upper < ceiling:
                out.append(f"upper {upper} not in ({above}, {ceiling})")
        if "gap" in radius and Q(radius["gap"]) > Q(expect["tol"]):
            out.append(f"gap {radius['gap']} above tolerance {expect['tol']}")
        last_lo, last_hi = None, None
        for row in report.get("perFuelTrace", []):
            lo, hi, fuel = Q(row["lower"]), Q(row["upper"]), row["fuel"]
            if lo > hi + 2 * Q(1, 2**fuel):
                out.append(f"fuel {fuel}: lower {lo} above upper {hi} + 2*2^-{fuel}")
            if lo >= 0 and below is not None and not lo < below:
                out.append(f"fuel {fuel}: lower {lo} not below {below}")
            if hi < ceiling and above is not None and not hi > above:
                out.append(f"fuel {fuel}: upper {hi} not above {above}")
            if last_lo is not None and (lo < last_lo or hi > last_hi):
                out.append(f"fuel {fuel}: bracket [{lo}, {hi}] retracts [{last_lo}, {last_hi}]")
            last_lo, last_hi = lo, hi
        return out

    @staticmethod
    def pair_problems(pairs: dict[str, list[dict]]) -> list[tuple[str, str]]:
        """Reports of one point: every lower must stay below every upper."""
        out = []
        for name, reports in pairs.items():
            lowers = [Q(r["radius"]["lower"]) for r in reports if "lower" in r.get("radius", {})]
            uppers = [Q(r["radius"]["upper"]) for r in reports if "upper" in r.get("radius", {})]
            if lowers and uppers and not max(lowers) < min(uppers):
                out.append((name, f"lower {max(lowers)} not below upper {min(uppers)}"))
        return out

    # ------------------------------------------------------------ regions

    def _in_region(self, p, region: dict, strict: bool) -> bool:
        center = _point(region["center"])
        if region["halves"] is not None:
            return all(abs(a - c) <= Q(h) for a, c, h in zip(p, center, region["halves"]))
        d = self.o.dist(p, center, region["metric"])
        r = Q(region["radius"])
        return d < r if strict else d <= r

    def _region(self, query: dict, report: dict) -> list[str]:
        expect, body = query["expect"], query["query"]
        op, verdict = body["op"], report.get("verdict")
        net = expect["net"]
        layers, margin, k = _net_layers(net), Q(net["margin"]), net["k"]
        strict = op == "locallyConstant"
        out = []
        colors = []
        for w in report.get("witnesses", []):
            p = _point(w["point"])
            real = self.o.net_color(layers, margin, k, p)
            if real != w["color"]:
                out.append(f"witness {w['point']} has color {real}, report says {w['color']}")
            if not self._in_region(p, expect["region"], strict):
                out.append(f"witness {w['point']} lies outside the region")
            colors.append(w["color"])
        if verdict == "1":
            want = expect.get("color", expect.get("n"))
            got = report["diagnostics"].get("color")
            if got != want:
                out.append(f"committed color {got}, expected {want}")
        elif verdict == "0":
            if op == "fixedValue":
                if len(colors) != 1 or colors[0] == expect["n"]:
                    out.append(f"refutation witnesses {colors} do not refute color {expect['n']}")
            elif len(colors) != 2 or colors[0] == colors[1]:
                out.append(f"refutation witnesses {colors} are not two distinct colors")
        elif verdict == "confirmed" and op == "existsValue":
            if colors != [expect["n"]]:
                out.append(f"existence witnesses {colors}, expected one of color {expect['n']}")
        return out

    # ------------------------------------------------------------ learners

    def _learned_color(self, learner: dict, pairs, x):
        labels = [label for _, label in pairs]
        if learner["kind"] == "majority":
            return self.o.majority_color(labels)
        points = [p for p, _ in pairs]
        metric = learner.get("metric", "max")
        return self.o.nn_color(points, labels, x, Q(learner["tieMargin"]), metric)

    def _learner(self, query: dict, report: dict) -> list[str]:
        expect, body = query["expect"], query["query"]
        op, verdict = body["op"], report.get("verdict")
        learner = expect["learner"]
        out = []
        if op == "doesDeviate":
            for w in report.get("witnesses", []):
                pairs = [(_point(e["x"]), e["label"]) for e in w["tuple"]]
                if len({p for p, _ in pairs}) != len(pairs):
                    out.append("deviation tuple repeats a point")
                point, label = pairs[w["index"]]
                got = self._learned_color(learner, pairs, point)
                if got != w["observed"] or got == label:
                    out.append(f"deviation witness retrains to {got}, report says {w['observed']}")
            if verdict == "confirmed" and not report.get("witnesses"):
                out.append("confirmed deviation without a witness")
            return out
        sample = [(_point(e["x"]), e["label"]) for e in body["sample"]["points"]]
        x = _point(body["point"])
        for w in report.get("witnesses", []):
            ext = [(_point(e["x"]), e["label"]) for e in w["extension"]]
            got = self._learned_color(learner, sample + ext, x)
            if got != w["outcome"]:
                out.append(f"augmentation retrains to {got}, report says {w['outcome']}")
            if op == "sprsOrDns" and any(
                not self.o.dist(p, x, body.get("metric", "max")) > Q(expect["eps"]) for p, _ in ext
            ):
                out.append("sparse witness point not strictly farther than eps")
        if op == "robustPoint":
            base = report["diagnostics"].get("baseColor")
            if base != expect["base"]:
                out.append(f"base color {base}, expected {expect['base']}")
            if report.get("fuelUsed") != expect["fuel"]:
                out.append(f"flipped at fuel {report.get('fuelUsed')}, expected {expect['fuel']}")
            if verdict == "0" and [w["outcome"] for w in report["witnesses"]] == [expect["base"]]:
                out.append("poisoning witness keeps the base color")
        if op == "sprsOrDns" and verdict == "1":
            if report["diagnostics"].get("color") != expect["color"]:
                out.append(f"dense color {report['diagnostics'].get('color')}, expected {expect['color']}")
        return out
