from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from boxcert import MetricKind, ParseError, ValidationError, nn_learner
from boxcert import cli, io
from boxcert.cli import QuerySpec, explain_text, main, parse_query, run_query

GOLDEN = Path(__file__).resolve().parent.parent / "src" / "boxcert" / "golden"


def write_query(tmp_path: Path, body: dict, name: str = "query.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


def confirm_query() -> dict:
    return {
        "op": "existsValue",
        "maxFuel": 4,
        "n": 1,
        "classifier": {"kind": "hyperplane", "w": [1], "b": "-1/2"},
        "region": {"type": "box", "sides": [[0, 1]]},
    }


class TestVerifyCommand:
    def test_committed_answer_exits_zero(self, tmp_path, capsys):
        query = write_query(tmp_path, confirm_query())
        code = main(["verify", str(query)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "confirmed"
        assert report["witnesses"]

    def test_fuel_starved_run_exits_two(self, tmp_path, capsys):
        body = confirm_query()
        body["region"] = {"type": "box", "sides": [["5/8", "3/4"]]}
        query = write_query(tmp_path, body)
        code = main(["verify", str(query), "--max-fuel", "0"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["verdict"] == "unknown"
        assert report["diagnostics"]["fuelExhausted"] is True

    @pytest.mark.parametrize(
        "classifier, reason",
        [
            ({"kind": "hyperplane", "w": [1], "b": "1/0"}, "zero denominator in rational '1/0'"),
            (
                {"kind": "net", "k": 1, "margin": "1/8",
                 "layers": [{"weights": [["1/0"]], "bias": [0], "activation": "none"}]},
                "zero denominator in rational '1/0'",
            ),
            (
                {"kind": "net", "k": 1, "margin": "1/8",
                 "layers": [{"weights": [["1/x"]], "bias": [0], "activation": "none"}]},
                "malformed rational '1/x'",
            ),
        ],
        ids=["hyperplane-zero-denominator", "net-zero-denominator", "net-malformed-weight"],
    )
    def test_parse_error_exits_one(self, tmp_path, capsys, classifier, reason):
        query = write_query(tmp_path, {**confirm_query(), "classifier": classifier})
        code = main(["verify", str(query)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {reason}\n"

    def test_reports_are_byte_identical_across_runs(self, tmp_path, capsys):
        query = write_query(tmp_path, confirm_query())
        main(["verify", str(query)])
        first = capsys.readouterr().out
        main(["verify", str(query)])
        second = capsys.readouterr().out
        assert first == second

    def test_timing_flag_adds_wall_time(self, tmp_path, capsys):
        query = write_query(tmp_path, confirm_query())
        main(["verify", str(query), "--timing"])
        report = json.loads(capsys.readouterr().out)
        assert "wallTimeSeconds" in report
        main(["verify", str(query)])
        report = json.loads(capsys.readouterr().out)
        assert "wallTimeSeconds" not in report

    def test_parsed_flags_do_not_leak_into_later_calls(self, tmp_path, capsys):
        query = write_query(tmp_path, confirm_query())
        main(["verify", str(query)])
        plain = capsys.readouterr().out
        main(["verify", str(query), "--timing", "--max-fuel", "0", "--format", "text"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["verify", str(query), "--timing", "--format", "yaml"])
        assert "invalid choice" in capsys.readouterr().err
        assert main(["verify", str(query)]) == 0
        out = capsys.readouterr().out
        assert "wallTimeSeconds" not in json.loads(out)
        assert out == plain

    def test_out_writes_the_report_to_a_file(self, tmp_path, capsys):
        query = write_query(tmp_path, confirm_query())
        out_path = tmp_path / "report.json"
        code = main(["verify", str(query), "--out", str(out_path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out_path.read_text())
        assert report["verdict"] == "confirmed"

    def test_unwritable_out_path_is_a_one_line_error(self, tmp_path, capsys):
        query = write_query(tmp_path, confirm_query())
        out_path = tmp_path / "missing" / "report.json"
        assert main(["verify", str(query), "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert str(out_path) in captured.err

    def test_text_format_is_line_oriented(self, tmp_path, capsys):
        query = write_query(tmp_path, confirm_query())
        main(["verify", str(query), "--format", "text"])
        out = capsys.readouterr().out
        assert out.startswith("diagnostics:")
        assert "verdict:" in out

    def test_operands_load_from_sibling_files(self, tmp_path, capsys):
        (tmp_path / "clf.json").write_text(
            json.dumps({"kind": "hyperplane", "w": [1], "b": "-1/2"})
        )
        body = confirm_query()
        body["classifier"] = "clf.json"
        query = write_query(tmp_path, body)
        code = main(["verify", str(query)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "confirmed"

    def test_unknown_op_is_a_validation_error(self, tmp_path):
        body = confirm_query()
        body["op"] = "frobnicate"
        query = write_query(tmp_path, body)
        with pytest.raises(ValidationError):
            parse_query(query)
        assert main(["verify", str(query)]) == 1

    def test_hand_built_spec_with_unknown_op_is_a_parse_error(self):
        spec = QuerySpec(op="frobnicate", max_fuel=0, metric=MetricKind.MAX)
        with pytest.raises(ParseError, match="unknown op 'frobnicate'"):
            run_query(spec)

    def test_missing_field_is_a_parse_error(self, tmp_path):
        body = confirm_query()
        del body["region"]
        query = write_query(tmp_path, body)
        assert main(["verify", str(query)]) == 1


class TestMalformedQueries:
    @pytest.mark.parametrize("top", [5, "op", [], None])
    def test_non_object_query_is_a_parse_error(self, tmp_path, capsys, top):
        query = tmp_path / "query.json"
        query.write_text(json.dumps(top))
        with pytest.raises(ParseError):
            parse_query(query)
        assert main(["verify", str(query)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "explain"])
    def test_nesting_deeper_than_the_decoder_is_a_parse_error(self, tmp_path, capsys, command):
        query = tmp_path / "query.json"
        query.write_text("[" * 200_000)
        with pytest.raises(ParseError):
            parse_query(query)
        assert main([command, str(query)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_all_zero_hyperplane_weights_are_a_one_line_error(self, tmp_path, capsys):
        body = {**confirm_query(), "classifier": {"kind": "hyperplane", "w": [0, 0], "b": 1}}
        assert main(["verify", str(write_query(tmp_path, body))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: hyperplane weights must not all be zero")
        assert err.count("\n") == 1

    def test_reversed_box_side_is_a_one_line_error(self, tmp_path, capsys):
        body = {**confirm_query(), "region": {"type": "box", "sides": [[1, 0]]}}
        assert main(["verify", str(write_query(tmp_path, body))]) == 1
        assert capsys.readouterr().err == "error: interval bounds out of order: [1, 0]\n"

    @pytest.mark.parametrize(
        "override, reason",
        [
            ({"classifier": list(range(100_000))}, "classifier must be a JSON object, got [0, 1,"),
            (
                {"classifier": {"kind": "hyperplane", "w": [1], "b": list(range(50_000))}},
                "rationals must be 'p/q' strings or integers, got [0, 1,",
            ),
            ({"metric": "m" * 100_000}, "unknown metric 'mmm"),
        ],
        ids=["classifier-list", "bias-list", "metric-string"],
    )
    def test_error_line_is_capped(self, tmp_path, capsys, override, reason):
        query = write_query(tmp_path, {**confirm_query(), **override})
        assert main(["verify", str(query)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + reason)
        assert err.endswith("...\n")
        assert err.count("\n") == 1
        assert len(err.encode()) <= 256

    def test_negative_ball_radius_is_a_validation_error(self, tmp_path, capsys):
        body = {
            "op": "forallValue",
            "maxFuel": 2,
            "n": 1,
            "classifier": {"kind": "hyperplane", "w": [1], "b": "-1/2"},
            "region": {"type": "ball", "center": [1], "radius": "-1"},
        }
        query = write_query(tmp_path, body)
        with pytest.raises(ValidationError):
            parse_query(query)
        assert main(["verify", str(query)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestNonpositiveFields:
    RADIUS = {
        "maxFuel": 2,
        "classifier": {"kind": "hyperplane", "w": [1, 0], "b": 0},
        "point": [1, 0],
        "ceiling": 2,
    }
    SPARSITY = {
        "op": "sprsOrDns",
        "maxFuel": 1,
        "learner": {"kind": "nn", "tieMargin": "1/8"},
        "sample": {"points": [{"x": [0], "label": 0}, {"x": [1], "label": 1}]},
        "point": ["1/4"],
        "domain": {"type": "box", "sides": [[0, 1]]},
        "N": 1,
        "eps": "1/2",
    }

    @pytest.mark.parametrize(
        "body",
        [
            {**RADIUS, "op": "radiusLower", "ceiling": "0"},
            {**RADIUS, "op": "radiusUpper", "ceiling": "-1/2"},
            {**RADIUS, "op": "optimalRadius", "tol": "0"},
            {**RADIUS, "op": "optimalRadius", "tol": "1/8", "ceiling": 0},
            {**SPARSITY, "eps": "0"},
            {**SPARSITY, "eps": "-1/4"},
        ],
    )
    def test_rejected_with_a_one_line_error(self, tmp_path, capsys, body):
        query = write_query(tmp_path, body)
        with pytest.raises(ValidationError):
            parse_query(query)
        assert main(["verify", str(query)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "must be positive" in err


class TestLearnerMetric:
    # Nearest sample point to the origin: (3/4, 3/4), label 1, under max;
    # (1, 0), label 0, under euclid-sq.
    QUERY = {
        "op": "robustPoint",
        "maxFuel": 1,
        "metric": "euclid-sq",
        "learner": {"kind": "nn", "tieMargin": "1/16"},
        "sample": {"points": [{"x": [1, 0], "label": 0}, {"x": ["3/4", "3/4"], "label": 1}]},
        "point": [0, 0],
        "domain": {"type": "box", "sides": [[-1, 1], [-1, 1]]},
    }

    def base_color(self, tmp_path, body):
        spec = parse_query(write_query(tmp_path, body))
        return spec.learner.train(spec.sample).eval_point(spec.point).color

    def test_omitted_learner_metric_inherits_the_query_metric(self, tmp_path):
        assert self.base_color(tmp_path, self.QUERY) == 0
        assert self.base_color(tmp_path, {**self.QUERY, "metric": "max"}) == 1

    def test_equal_learner_metric_accepted(self, tmp_path):
        learner = {**self.QUERY["learner"], "metric": "euclid-sq"}
        assert self.base_color(tmp_path, {**self.QUERY, "learner": learner}) == 0

    @pytest.mark.parametrize(
        "query_metric, learner_metric", [("euclid-sq", "max"), (None, "euclid-sq")]
    )
    def test_mismatched_learner_metric_rejected(
        self, tmp_path, capsys, query_metric, learner_metric
    ):
        body = {**self.QUERY, "learner": {**self.QUERY["learner"], "metric": learner_metric}}
        if query_metric is None:
            del body["metric"]
        query = write_query(tmp_path, body)
        with pytest.raises(ValidationError):
            parse_query(query)
        assert main(["verify", str(query)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestLearnerCount:
    @pytest.mark.parametrize("kind", ["nn", "majority"])
    @pytest.mark.parametrize("k", [0, -3, 1.5, "2", True, None], ids=repr)
    def test_bad_k_is_a_one_line_error(self, tmp_path, capsys, kind, k):
        learner = {"kind": kind, "tieMargin": "1/16", "k": k}
        body = {**TestLearnerMetric.QUERY, "learner": learner}
        assert main(["verify", str(write_query(tmp_path, body))]) == 1
        assert capsys.readouterr().err == f"error: learner k must be a positive integer, got {k!r}\n"


class TestTwoBotReports:
    def test_bot_at_budget_exits_two(self, tmp_path, capsys):
        body = {
            "op": "locallyConstant",
            "maxFuel": 3,
            "classifier": {"kind": "hyperplane", "w": [1, 0], "b": 0},
            "point": [1, 0],
            "radius": 1,
        }
        query = write_query(tmp_path, body)
        code = main(["verify", str(query)])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["verdict"] == "bot"
        assert len(report["perFuelTrace"]) == 4

    def test_committed_zero_exits_zero(self, tmp_path, capsys):
        body = {
            "op": "locallyConstant",
            "maxFuel": 6,
            "classifier": {"kind": "hyperplane", "w": [1, 0], "b": 0},
            "point": [1, 0],
            "radius": 2,
        }
        query = write_query(tmp_path, body)
        code = main(["verify", str(query)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "0"
        assert len(report["witnesses"]) == 2


def stream_report(op: str, key: str, value: str, diagnostics: dict, verdict: str) -> dict:
    """A radiusLower/radiusUpper report at maxFuel 3: one value, no per-fuel rows."""
    return {
        "diagnostics": diagnostics,
        "fuelUsed": 3,
        "maxFuel": 3,
        "op": op,
        "perFuelTrace": [],
        "radius": {key: value},
        "verdict": verdict,
        "witnesses": [],
    }


class TestRadiusReports:
    def test_unconverged_optimal_radius_report(self, tmp_path, capsys):
        """A one-output net is color 0 everywhere: no radius ever brackets."""
        body = {
            "op": "optimalRadius",
            "maxFuel": 9,
            "classifier": {
                "kind": "net",
                "k": 1,
                "margin": "1/10",
                "layers": [{"weights": [[1]], "bias": [0], "activation": "none"}],
            },
            "point": [0],
            "ceiling": 1,
            "tol": "1/4",
        }
        query = write_query(tmp_path, body)
        assert main(["verify", str(query), "--max-fuel", "4"]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "diagnostics": {
                "converged": False,
                "fuelExhausted": True,
                "lowerSaturated": True,
                "upperUnconfirmed": True,
            },
            "fuelUsed": 4,
            "maxFuel": 4,
            "op": "optimalRadius",
            "perFuelTrace": [
                {"fuel": fuel, "lower": "1/1", "upper": "1/1"} for fuel in range(5)
            ],
            "radius": {"gap": "0/1", "lower": "1/1", "upper": "1/1"},
            "verdict": "unknown",
            "witnesses": [],
        }


    HYPERPLANE = {"kind": "hyperplane", "w": [1, 0], "b": 0}
    ONE_OUTPUT = {
        "kind": "net",
        "k": 1,
        "margin": "1/10",
        "layers": [{"weights": [[1]], "bias": [0], "activation": "none"}],
    }

    @pytest.mark.parametrize(
        "op, classifier, point, ceiling, code, expected",
        [
            # The boundary x = 0 lies at distance 1 from (1, 0).
            ("radiusLower", HYPERPLANE, [1, 0], 2, 0,
             stream_report("radiusLower", "lower", "7/8", {"saturated": False}, "confirmed")),
            ("radiusUpper", HYPERPLANE, [1, 0], 2, 0,
             stream_report("radiusUpper", "upper", "9/8", {"unconfirmed": False}, "confirmed")),
            # A one-output net has no boundary: lower saturates, upper never confirms.
            ("radiusLower", ONE_OUTPUT, [0], 1, 0,
             stream_report("radiusLower", "lower", "1/1", {"saturated": True}, "confirmed")),
            ("radiusUpper", ONE_OUTPUT, [0], 1, 2,
             stream_report("radiusUpper", "upper", "1/1", {"unconfirmed": True}, "unknown")),
        ],
        ids=["lower-committed", "upper-committed", "lower-saturated", "upper-unconfirmed"],
    )
    def test_radius_stream_report(
        self, tmp_path, capsys, op, classifier, point, ceiling, code, expected
    ):
        body = {"op": op, "maxFuel": 3, "classifier": classifier, "point": point, "ceiling": ceiling}
        assert main(["verify", str(write_query(tmp_path, body))]) == code
        assert json.loads(capsys.readouterr().out) == expected


class TestLearnerReports:
    def test_majority_deviation_report(self, tmp_path, capsys):
        """Two 0s outvote the 1 they were trained with: the tuple's last label is missed."""
        body = {
            "op": "doesDeviate",
            "maxFuel": 8,
            "learner": {"kind": "majority", "k": 2},
            "domain": {"type": "box", "sides": [[0, 1]]},
        }
        assert main(["verify", str(write_query(tmp_path, body))]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "diagnostics": {},
            "fuelUsed": 5,
            "maxFuel": 8,
            "op": "doesDeviate",
            "perFuelTrace": [
                {"fuel": fuel, "value": "confirmed" if fuel == 5 else "unknown"}
                for fuel in range(6)
            ],
            "verdict": "confirmed",
            "witnesses": [
                {
                    "index": 2,
                    "observed": 0,
                    "tuple": [
                        {"label": 0, "x": ["0/1"]},
                        {"label": 0, "x": ["1/2"]},
                        {"label": 1, "x": ["1/1"]},
                    ],
                }
            ],
        }

    def test_nn_deviation_search_with_800_labels_retrains_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        """nn never deviates, so it tries none of a tuple's k**t labelings."""
        trained = []

        def counting_nn(*args, **kwargs):
            L = nn_learner(*args, **kwargs)
            return dataclasses.replace(L, train=lambda s: trained.append(s) or L.train(s))

        monkeypatch.setattr(io, "nn_learner", counting_nn)
        body = {
            "op": "doesDeviate",
            "maxFuel": 2,
            "learner": {"kind": "nn", "tieMargin": "1/16", "k": 800},
            "domain": {"type": "box", "sides": [[0, 1]]},
        }
        assert main(["verify", str(write_query(tmp_path, body))]) == 2
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["fuelUsed"]) == ("unknown", 2)
        assert trained == []


class TestExplain:
    def test_quantifier_structure_is_described(self, tmp_path, capsys):
        body = {
            "op": "locallyConstant",
            "maxFuel": 2,
            "classifier": {"kind": "hyperplane", "w": [1, 0], "b": 0},
            "point": [1, 0],
            "radius": 1,
        }
        query = write_query(tmp_path, body)
        assert main(["explain", str(query)]) == 0
        out = capsys.readouterr().out
        assert "closed ball" in out
        assert "open ball" in out

    def test_optimal_radius_names_both_streams(self):
        text = explain_text("optimalRadius")
        assert "lower" in text and "upper" in text

    def test_radius_lower_names_its_actual_sentinel(self):
        text = explain_text("radiusLower")
        assert "-2^-fuel" in text and "-1/8 at fuel 3" in text
        assert "sentinel -1 " not in text

    def test_unknown_op_rejected(self):
        with pytest.raises(ValidationError):
            explain_text("frobnicate")

    def test_non_string_op_rejected(self, tmp_path, capsys):
        query = write_query(tmp_path, {"op": ["existsValue"]})
        assert main(["explain", str(query)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestSelftest:
    def test_corpus_matches_and_is_deterministic(self):
        # --verbose prints every report, so the two runs must agree byte for byte.
        cmd = [sys.executable, "-m", "boxcert", "selftest", "--verbose"]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert "10/10 cases matched" in first.stdout

    def test_a_wrong_report_digest_is_a_mismatch(self, tmp_path, monkeypatch, capsys):
        # The case's verdict and exit code still match; only its body's digest does not.
        shutil.copytree(GOLDEN, tmp_path / "golden")
        manifest = json.loads((GOLDEN / "manifest.json").read_text())
        case = manifest["cases"][0]
        case["sha256"] = "0" * 64
        (tmp_path / "golden" / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.setattr(cli, "resources", SimpleNamespace(files=lambda package: tmp_path))
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        line = next(line for line in lines if line.startswith(f"case {case['name']}:"))
        assert f"verdict={case['expectVerdict']} exit={case['expectExit']} " in line
        assert line.endswith(" MISMATCH")
        assert lines[-1] == "selftest: 9/10 cases matched"


class TestManifestContract:
    def test_every_case_honors_its_expected_exit_code(self):
        manifest = json.loads((GOLDEN / "manifest.json").read_text())
        assert len(manifest["cases"]) == 10
        for case in manifest["cases"]:
            result = subprocess.run(
                [sys.executable, "-m", "boxcert", "verify", str(GOLDEN / case["query"])],
                capture_output=True,
                text=True,
            )
            assert result.returncode == case["expectExit"], case["name"]
            if case["expectExit"] != 1:
                report = json.loads(result.stdout)
                assert report["verdict"] == case["expectVerdict"], case["name"]

    def test_run_query_matches_the_subprocess_surface(self, tmp_path):
        spec = parse_query(GOLDEN / "cases" / "exists-hyperplane.json")
        report = run_query(spec)
        assert report.verdict == "confirmed"
        assert report.exit_code == 0
