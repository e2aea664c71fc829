"""The benchmark's tracer and checker still find what they use.

``perfbench/tracer.py`` rebinds module attributes of the package by name.
Importing it by path and running golden queries under it makes a
rename of one of those attributes fail here rather than inside a
benchmark run.  The radius and learner queries reach the wrappers the
tracer builds with ``dataclasses.replace`` around radius streams and
learners.  No golden case asks ``doesDeviate``, so one majority query,
written to a temporary file, runs the deviation search under the tracer.
``perfbench/check.py`` imports ``tests/oracles.py`` by path and replays
witnesses through four of its references, so loading it the same way and
calling those references on a tiny case each catches an oracle that no
longer imports or answers.  Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction as Q
from pathlib import Path

from boxcert import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "src" / "boxcert" / "golden" / "cases"


def load_bench_module(name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"boxcert_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_golden_queries(capsys, tmp_path):
    # Majority first deviates at fuel 5 on [0, 1].
    deviate = tmp_path / "deviate-majority.json"
    deviate.write_text(json.dumps({
        "op": "doesDeviate", "maxFuel": 6, "learner": {"kind": "majority", "k": 2},
        "domain": {"type": "box", "sides": [[0, 1]]},
    }))
    tracer = load_bench_module("tracer").Tracer()
    try:
        # Inside the try: a failed install still undoes the patches it made.
        tracer.install()
        assert cli.main(["verify", str(GOLDEN / "constant-bot.json")]) == 2
        assert cli.main(["verify", str(GOLDEN / "exists-hyperplane.json")]) == 0
        assert cli.main(["verify", str(GOLDEN / "optimal-radius.json")]) == 0
        assert cli.main(["verify", str(GOLDEN / "robust-majority.json")]) == 0
        assert cli.main(["verify", str(GOLDEN / "sparse-dense-one.json")]) == 0
        trained = tracer.counts()["learners.train.calls"]
        assert cli.main(["verify", str(deviate)]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert counts["cli.main.calls"] == 6
    assert counts["verify.constant_value.calls"] > 0
    assert counts["verify.exists_value.calls"] > 0
    assert counts["verify.radius_lower.approx.calls"] > 0
    assert counts["learners.robust_point.calls"] > 0
    assert counts["learners.sparse_or_dense.calls"] > 0
    assert counts["learners.train.calls"] > 0
    # The deviation search retrains through the learner the tracer wraps.
    assert counts["learners.does_deviate.calls"] > 0
    assert counts["learners.train.calls"] > trained
    assert counts["learners.family_at.calls"] > 0
    # The walkers split, measure and evaluate boxes through the names the
    # tracer rebinds.
    assert counts["numerics.Box.bisect.calls"] > 0
    assert counts["numerics.dist_range.calls"] > 0
    assert counts["classifiers.eval_box.calls"] > 0
    assert not hasattr(cli.main, "__wrapped__")


def test_checker_loads_the_oracles_it_replays_witnesses_through():
    oracles = load_bench_module("check").load_oracles(ROOT)
    assert oracles.dist((Q(0), Q(0)), (Q(1), Q(-2)), "max") == 2
    assert oracles.dist((Q(0), Q(0)), (Q(1), Q(-2)), "euclid-sq") == 5
    points = [(Q(0),), (Q(1),)]
    assert oracles.nn_color(points, [0, 1], (Q(1, 4),), Q(1, 4), "max") == 0
    assert oracles.nn_color(points, [0, 1], (Q(1, 2),), Q(1, 4), "max") is None
    assert oracles.majority_color([0, 1, 1, 0]) is None
    # One linear layer scoring (x, -x): at x = 1, color 0 wins by 2 > 1/2.
    layers = [([[Q(1)], [Q(-1)]], [Q(0), Q(0)], "none")]
    assert oracles.net_color(layers, Q(1, 2), 2, (Q(1),)) == 0
