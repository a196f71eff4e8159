"""jsonio writes strict JSON whose floats read back with the same bits, in
the text of the standard json module."""

import json

import numpy as np
import pytest

from sirskit import jsonio

FLOATS = [10.0, -0.0, 0.1, 1e22, 5e-324, np.float64(0.2)]


def strict_loads(text):
    """json.loads that refuses NaN and Infinity, which strict JSON lacks."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("value", FLOATS, ids=repr)
def test_float_reads_back_with_the_same_bits(value):
    back = strict_loads(jsonio.dumps({"x": [value]}))["x"][0]
    assert type(back) is float
    assert back.hex() == float(value).hex()


def test_non_finite_floats_become_null_at_any_depth():
    doc = {"a": float("nan"), "b": [1.0, float("inf"), (float("-inf"), {"c": np.float64("nan")})],
           "d": ({"e": [float("inf")]},)}
    assert strict_loads(jsonio.dumps(doc)) == {
        "a": None, "b": [1.0, None, [None, {"c": None}]], "d": [{"e": [None]}]}


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"empty_dict": {}, "empty_list": [], "pair": (1, 2)},
    {"z": 1, "a": [True, False, None], "s": "é \"quoted\"\n", "f": [0.5, -2.0, 1e-7]},
    "text",
    3,
], ids=repr)
def test_text_is_that_of_the_json_module(doc):
    assert jsonio.dumps(doc) == json.dumps(doc, indent=2) + "\n"
