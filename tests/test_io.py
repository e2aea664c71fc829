from __future__ import annotations

import pytest

from boxcert import MetricKind, ParseError, ValidationError
from boxcert.io import classifier_from_json, learner_from_json, load_json, region_from_json


def net(**layer_overrides) -> dict:
    layer = {"weights": [[1], [-1]], "bias": [0, 0], "activation": "relu", **layer_overrides}
    return {"kind": "net", "layers": [layer], "margin": "1/8", "k": 2}


class TestMalformedNets:
    def test_well_formed_net_loads(self):
        assert classifier_from_json(net()).k == 2

    def test_weights_must_be_a_list_of_rows(self):
        with pytest.raises(ParseError, match="weights"):
            classifier_from_json(net(weights=3))

    def test_each_weight_row_must_be_a_list(self):
        with pytest.raises(ParseError, match="weight row"):
            classifier_from_json(net(weights=[1, 2]))

    def test_bias_must_be_a_list(self):
        with pytest.raises(ParseError, match="bias"):
            classifier_from_json(net(bias=5))

    def test_k_must_be_an_integer(self):
        body = {**net(), "k": "2"}
        with pytest.raises(ParseError, match="k must be an integer"):
            classifier_from_json(body)


class TestHyperplanes:
    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError, match="hyperplane weights must not all be zero"):
            classifier_from_json({"kind": "hyperplane", "w": [0, "0/3"], "b": 1})


class TestBallRegions:
    def test_zero_radius_is_a_point(self):
        region = region_from_json({"type": "ball", "center": [0], "radius": 0}, MetricKind.MAX)
        assert region.overt.points_at(0) == [(0,)]


class TestValidationPassesThrough:
    """Library checks reach the caller as ValidationError, message unchanged."""

    def test_nonpositive_net_margin(self):
        with pytest.raises(ValidationError, match="^margin must be positive$"):
            classifier_from_json({**net(), "margin": 0})

    def test_nonpositive_tie_margin(self):
        body = {"kind": "nn", "tieMargin": "-1/8"}
        with pytest.raises(ValidationError, match="^tie margin must be positive$"):
            learner_from_json(body, MetricKind.MAX)


class TestLoadJson:
    def test_integer_too_long_to_convert(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text("1" + "0" * 5000)
        with pytest.raises(ParseError, match="invalid JSON"):
            load_json(path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ParseError, match="cannot read"):
            load_json(path)

    def test_nul_byte_in_the_name(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_json(tmp_path / "a\x00b")
