"""How the CLI renders a report: `cli._json` writes the bytes of
`json.dumps(value, indent=2)`, the `--out` file holds the JSON stdout would,
and each command renders only the text that is printed or written."""

import json
import json.encoder
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwglue.cli import COMMANDS, _json, _quote, main
from mwglue.fixtures import EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI
from mwglue.glue import GluingData

# quotes, backslashes, control, non-ASCII, astral and JSON-breaking characters
# often, and any other character now and then
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\n\t\x7f\xe9\u2028\U0001f600'),
                         st.characters()))
LEAVES = st.one_of(
    TEXT,
    st.integers(),
    st.integers(min_value=-10**300, max_value=10**300),
    st.booleans(),
    st.none(),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(TEXT, inner)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
@example({"a": [[], {}, ()], "": [-(10**100), 0, True, False, None]})
def test_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


def test_strings_are_quoted_by_the_function_json_uses():
    # cli binds the C function from _json, so a command need not load json
    assert _quote is json.encoder.encode_basestring_ascii


@pytest.mark.parametrize(
    "value", [1.5, Fraction(1, 3), {1: "a"}, {None: 1}, {"a": [0, {"b": 2.0}]}, [Fraction(2)], {("a",): 1}],
    ids=["float", "Fraction", "int key", "None key", "nested float", "nested Fraction", "tuple key"],
)
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)


@pytest.mark.parametrize("argv", [
    ["family", "--l1", "3", "--l2", "5", "--count", "2", "--format", "json"],
    ["verify-example", "--format", "json"],
], ids=["family", "verify-example"])
def test_out_file_holds_the_json_stdout(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed == json.dumps(json.loads(printed), indent=2) + "\n"


@pytest.fixture
def command_argv(inputs):
    write = inputs.write
    curve = write("curve.json", EXAMPLE_E.to_json())
    point = write("P.json", {"x": "-2", "y": "1"})
    return {
        "verify-example": ["--sq-primes", "30"],
        "family": ["--l1", "3", "--l2", "5", "--count", "1"],
        "membership": ["--gluing", write("gluing.json", GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI).to_json()),
                       "--P", point, "--Q", write("Q.json", "O")],
        "descent-class": ["--curve", curve, "--point", point],
        "jinv": ["--curve", curve],
        "torsion": ["--curve", curve],
    }


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("fmt, out, rendered", [
    ("json", False, ["json"]),
    ("json", True, ["json"]),
    ("human", False, ["human"]),
    ("human", True, ["json", "human"]),
])
def test_only_the_printed_rendering_runs(monkeypatch, tmp_path, command_argv, command, fmt, out, rendered):
    calls = []
    handler, text, flags = COMMANDS[command]

    def spied(args):
        payload, human, code = handler(args)

        def spy(name, render):
            def run():
                calls.append(name)
                return render()
            return run

        return spy("json", payload), spy("human", human), code

    monkeypatch.setitem(COMMANDS, command, (spied, text, flags))
    argv = [command, *command_argv[command], "--format", fmt]
    if out:
        argv += ["--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    assert calls == rendered
