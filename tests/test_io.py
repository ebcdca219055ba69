"""The file layer: every file is one compact line, and a matrix is checked as
one array with the same answers as a per-entry validator."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsekit import compat
from coarsekit.io import (
    ParseError,
    channel_to_json,
    dumps,
    matrix_from_json,
    report_to_json,
    scenario_to_json,
)
from coarsekit.scenarios import random_scenario, registry


def _documents():
    s = registry("spin-d3")["spin-d3"].scenario
    cfg = compat.CheckConfig(witness_trials=0)
    report = report_to_json(compat.run_all(s, cfg), "spin-d3", {"tol": cfg.tol})
    gen = random_scenario(8, 2, 4, 7)
    return {
        "report": report,
        "channel": channel_to_json(compat.construct_emergent(s)),
        "scenario": {**scenario_to_json(gen.scenario, gen.name), "config": {"seed": 7}},
    }


@pytest.mark.parametrize("kind", ["report", "channel", "scenario"])
def test_dumps_writes_one_compact_line_with_sorted_keys(kind):
    doc = _documents()[kind]
    text = dumps(doc)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == doc


def _per_entry_oracle(data, what="matrix"):
    """The validator that read a matrix one [re, im] pair at a time."""

    def is_number(x):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            return False
        return isinstance(x, int) or math.isfinite(x)

    def entry(e):
        if not isinstance(e, list) or len(e) != 2 or not all(map(is_number, e)):
            raise ValueError(f"not an [re, im] pair: {e!r}")
        return complex(*e)

    try:
        m = np.array([[entry(e) for e in row] for row in data], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: expected nested rows of [re, im] pairs") from exc
    if m.ndim != 2:
        raise ParseError(f"{what}: not a matrix")
    return m


_GOOD_PARTS = st.one_of(
    st.integers(-(2**60), 2**60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e-300, -1e-300, 5e-324]),
)
_BAD_PARTS = st.one_of(
    # ints beyond float range: 2**1024 and more in magnitude
    st.integers(2**1024, 2**1100),
    st.integers(-(2**1100), -(2**1024)),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "1", "", "nan"]),
)


@st.composite
def _matrices(draw):
    """Rectangular, ragged or empty nesting; clean parts, or a mix with bad
    ones; pairs that are too short or too long, or parts in place of pairs."""
    parts = _GOOD_PARTS if draw(st.booleans()) else st.one_of(_GOOD_PARTS, _BAD_PARTS)
    entry = st.one_of(
        st.lists(parts, min_size=2, max_size=2),
        st.lists(parts, max_size=3),
        parts,
    ) if draw(st.booleans()) else st.lists(parts, min_size=2, max_size=2)
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):  # one ragged or emptied row
        i = draw(st.integers(0, rows - 1))
        data[i] = draw(st.lists(entry, max_size=cols + 1))
    if draw(st.integers(0, 9)) == 0:  # a part in place of the matrix; "" is a listed difference
        return draw(parts.filter(lambda x: x != ""))
    return data


def _outcome(parse, data):
    try:
        return parse(data, "unitary")
    except ParseError as exc:
        return str(exc)


# the one test that keeps Hypothesis's local database of failing draws
@settings(max_examples=800, database=settings.get_profile("default").database)
@given(_matrices())
def test_matrix_from_json_agrees_with_the_per_entry_validator(data):
    got, want = _outcome(matrix_from_json, data), _outcome(_per_entry_oracle, data)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.complex128
        # bitwise, so that signed zeros count
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_signed_zeros_and_extreme_floats_survive():
    data = [[[-0.0, 0.0], [0.0, -0.0]], [[1e308, -1e-300], [2**1023, -(2**53) - 1]]]
    got = matrix_from_json(data)
    assert np.signbit(got.real).tolist() == [[True, False], [False, False]]
    assert np.signbit(got.imag).tolist() == [[False, True], [True, True]]
    assert got.tobytes() == _per_entry_oracle(data).tobytes()


@pytest.mark.parametrize("data", [{}, [{}], {"a": 1}, [{"a": [1, 0]}], "", [""], ["", ""]],
                         ids=repr)
def test_a_dict_or_a_string_is_not_a_matrix_or_a_row(data):
    # a dict was iterated over its keys and a string over its characters, so
    # {} and "" read "not a matrix" and [{}] and [""] a 1 x 0 matrix; both
    # are now rejected as not nested rows of pairs
    message = r"^kraus\[0\]: expected nested rows of \[re, im\] pairs$"
    with pytest.raises(ParseError, match=message):
        matrix_from_json(data, "kraus[0]")
