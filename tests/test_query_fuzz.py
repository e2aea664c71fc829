"""Fuzz ``boxcert verify`` with query files mixing valid and junk fields.

Whatever the query holds, the command exits 0, 1 or 2 and never lets a
Python exception escape; exit 1 comes with exactly one ``error:`` line.
Valid operands are tiny and fuel stays at 2 or below, so every run is
cheap: the fuzz is about the parse layer, not about the search.  Junk
numbers stay small for the same reason: a huge radius or learner ``k`` is
valid input whose search is simply long.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from boxcert.cli import OPS, main

UNIT = {"type": "box", "sides": [[0, 1]]}

# ``--max-fuel`` always overrides the query's own ``maxFuel``, so it is left out.
VALID = {
    "metric": ["max", "euclid-sq"],
    "n": [0, 1],
    "classifier": [
        {"kind": "hyperplane", "w": [1], "b": "-1/2"},
        {
            "kind": "net",
            "layers": [{"weights": [[1], [-1]], "bias": [0, 0], "activation": "relu"}],
            "margin": "1/8",
            "k": 2,
        },
    ],
    "region": [
        UNIT,
        {"type": "ball", "center": ["1/2"], "radius": "1/4"},
        {"type": "outside-ball", "domain": UNIT, "center": ["1/2"], "eps": "1/4"},
    ],
    "point": [["1/2"], [0]],
    "radius": ["1/4", 1],
    "ceiling": [1, "1/2"],
    "tol": ["1/4"],
    "learner": [{"kind": "nn", "tieMargin": "1/8"}, {"kind": "majority", "k": 2}],
    "sample": [{"points": [{"x": [0], "label": 0}, {"x": [1], "label": 1}]}],
    "domain": [UNIT],
    "N": [0, 1],
    "eps": ["1/4"],
}

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=6),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(min_value=-2, max_value=2), max_size=2),
)


def paths(value, prefix=()):
    """Every position in a JSON value, the value itself included."""
    yield prefix
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def field_values(draw, pool):
    base = draw(st.sampled_from(pool))
    mode = draw(st.sampled_from(["valid", "valid", "junk", "nested"]))
    if mode == "valid":
        return base
    if mode == "junk":
        return draw(JUNK)
    path = draw(st.sampled_from(list(paths(base))))
    return replaced(base, path, draw(JUNK))


@st.composite
def queries(draw):
    body = {"op": draw(st.one_of(st.sampled_from(OPS), JUNK))}
    for key, pool in VALID.items():
        if draw(st.integers(min_value=0, max_value=5)) > 0:
            body[key] = draw(field_values(pool))
    return body


def run_verify(body, fuel: int) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "query.json"
        path.write_text(json.dumps(body))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", str(path), "--max-fuel", str(fuel)])
    return code, err.getvalue()


NET_QUERY = {"op": "constantValue", "maxFuel": 1, "region": UNIT}


@given(body=st.one_of(queries(), JUNK), fuel=st.integers(min_value=0, max_value=2))
@example(body=5, fuel=0)
@example(body="op", fuel=0)
@example(body={**NET_QUERY, "classifier": replaced(
    VALID["classifier"][1], ("layers", 0, "weights"), 3)}, fuel=0)
@example(body={**NET_QUERY, "classifier": replaced(
    VALID["classifier"][1], ("layers", 0, "weights"), [1, 2])}, fuel=0)
@example(body={**NET_QUERY, "classifier": replaced(
    VALID["classifier"][1], ("layers", 0, "bias"), 5)}, fuel=0)
@example(body={**NET_QUERY, "classifier": {**VALID["classifier"][1], "k": "2"}}, fuel=0)
@example(body={"op": "forallValue", "maxFuel": 1, "n": 1, "classifier": VALID["classifier"][0],
               "region": {"type": "ball", "center": [1], "radius": "-1"}}, fuel=1)
@example(body={"op": "existsValue", "n": 1, "classifier": "a\x00b", "region": UNIT}, fuel=0)
@example(body={"op": "existsValue", "n": 1, "classifier": "\n", "region": UNIT}, fuel=0)
@settings(deadline=None, max_examples=300)
def test_any_query_exits_cleanly(body, fuel):
    code, err = run_verify(body, fuel)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
