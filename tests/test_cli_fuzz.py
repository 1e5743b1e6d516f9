"""Mutated JSON inputs of every command.  A number becomes a float, a bool,
null, an integer up to about 10^30, a list or an exponent string; a key is
dropped or added; a list gets longer or shorter.  Whatever the input,
cli.main returns 0, 1, 2 or 3, no exception escapes it, and stderr has at
most one line."""

import contextlib
import copy
import io
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import mwglue.arith as arith
from mwglue.cli import main
from mwglue.family import FAMILY_F, FAMILY_F_GENERATORS
from mwglue.fixtures import (COVER_TO_E, COVER_TO_F, EXAMPLE_C, EXAMPLE_C_UNSCALED, EXAMPLE_E,
                             EXAMPLE_F, EXAMPLE_POINT, EXAMPLE_PSI, EXAMPLE_RESCALE)
from mwglue.glue import GluingData

from inputs import InputDir


def _cover(maps) -> dict:
    return {"u": maps[0].to_json(), "v": maps[1].to_json()}


# Each command with its other flags and the valid JSON file behind each file
# flag.  The bounds are small, so that a valid run takes milliseconds.
INPUTS = {
    "verify-example": (["--sq-primes", "30"], {"--fixtures": {
        "E": EXAMPLE_E.to_json(), "F": EXAMPLE_F.to_json(), "h": EXAMPLE_PSI.to_json(),
        "P": EXAMPLE_POINT.to_json(), "C": EXAMPLE_C.to_json(), "C_unscaled": EXAMPLE_C_UNSCALED.to_json(),
        "rescale": str(EXAMPLE_RESCALE), "cover_to_E": _cover(COVER_TO_E), "cover_to_F": _cover(COVER_TO_F),
    }}),
    "family": (["--l1", "3", "--l2", "5", "--count", "1", "--bound", "1000"], {"--F": {
        "F": FAMILY_F.to_json(), "generators": [g.to_json() for g in FAMILY_F_GENERATORS],
    }}),
    "membership": (["--sq-primes", "30"], {
        "--gluing": GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI).to_json(),
        "--P": EXAMPLE_POINT.to_json(), "--Q": "O",
    }),
    "descent-class": (["--roots", "0,-12,10"], {
        "--curve": {"f": ["0", "-120", "2"]}, "--point": {"x": "-1", "y": "11"},
    }),
    "jinv": ([], {"--curve": EXAMPLE_E.to_json()}),
    "torsion": ([], {"--curve": {"f": ["0", "-3", "2"]}}),
}

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30).map(str),
    st.lists(st.integers(-9, 9).map(str), max_size=3),
    st.sampled_from(["1e5", "-2e-3", "1E30", "3e0"]),
)
KEYS = st.sampled_from(["f", "x", "y", "h6", "num", "den", "u", "v", "generators", "F", "E", "zz"])


def _nodes(doc, path=()):
    """The path of every value inside doc, doc itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _mutate(data, doc):
    """doc with one of its values replaced, or one of its objects or lists
    grown or shrunk."""
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    parent, key = None, None
    node = doc
    for step in path:
        parent, key, node = node, step, node[step]
    moves = ["replace"]
    if isinstance(node, (dict, list)) and node:
        moves.append("shrink")
    if isinstance(node, (dict, list)):
        moves.append("grow")
    move = data.draw(st.sampled_from(moves))
    if move == "replace":
        new = data.draw(NUMBERS)
        if parent is None:
            return new
        parent[key] = new
    elif move == "shrink":
        del node[data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))]
    elif isinstance(node, dict):
        node[data.draw(KEYS)] = data.draw(NUMBERS)
    else:
        node.append(copy.deepcopy(data.draw(st.sampled_from(node))) if node and data.draw(st.booleans())
                    else data.draw(NUMBERS))
    return doc


@pytest.mark.parametrize("command", list(INPUTS))
@settings(max_examples=500, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_json_input(command, data, tmp_path, monkeypatch):
    # a cofactor of about 10^60 can run Pollard rho through its whole
    # budget; a small budget keeps every example fast and still exits 2
    monkeypatch.setattr(arith, "_RHO_STEPS", 2**12)
    flags, files = INPUTS[command]
    docs = copy.deepcopy(files)
    for _ in range(data.draw(st.integers(1, 3))):
        flag = data.draw(st.sampled_from(list(docs)))
        docs[flag] = _mutate(data, docs[flag])
    # each example writes its files in a new directory
    inputs = InputDir(tmp_path)
    argv = [command, *flags]
    for flag, doc in docs.items():
        argv += [flag, inputs.write(f"{flag[2:]}.json", doc)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    event(f"exit {code}")  # pytest --hypothesis-show-statistics counts them
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1 and (err == "" or err.endswith("\n"))
