"""cli._load_json reads a file as json.load does: the same value from a
well-formed document, and the same message from a malformed one.

The reader decodes with json's C scanner and loads `json` only to word an
error.  Where `json.decoder` is not loaded, a syntax error inside an object
or list makes that scanner raise SystemError before Python 3.12.  pytest has
loaded `json` already, so those cases run in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwglue.cli import _load_json

from inputs import InputDir

SRC = Path(__file__).resolve().parents[1] / "src"

WHITESPACE = st.text(alphabet=" \t\n\r", max_size=4)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# documents are ASCII (json escapes the rest), so any locale writes them
DOCUMENTS = st.builds(
    lambda value, indent, before, after: before + json.dumps(value, indent=indent) + after,
    VALUES, st.sampled_from([None, 0, 2]), WHITESPACE, WHITESPACE,
)
EDIT_CHARS = st.sampled_from(list('{}[]:,"\\ \t\n\x0b\x0c0123456789.-+eEtfnaINul'))


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


def _doc(root, text: str) -> str:
    """A new file holding text, in a directory of its own."""
    return InputDir(root).write("doc.json", text=text)


def _read(read, path: str):
    """("value", its JSON text) or ("error", the message) of read on the file."""
    try:
        return "value", json.dumps(read(path))
    except ValueError as exc:
        return "error", str(exc)


def _json_load(path: str):
    with open(path) as fh:
        return json.load(fh)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_documents_read_as_json_reads_them(root, text):
    # compared as JSON text, so that NaN equals NaN and 1.0 differs from 1
    assert _read(_load_json, _doc(root, text)) == ("value", json.dumps(json.loads(text)))


@settings(max_examples=500, deadline=None)
@given(DOCUMENTS, st.data())
def test_mutated_documents_read_or_fail_as_json_does(root, text, data):
    at = data.draw(st.integers(0, len(text)))
    cut = data.draw(st.integers(0, 2))
    path = _doc(root, text[:at] + data.draw(st.text(EDIT_CHARS, max_size=2)) + text[at + cut:])
    assert _read(_load_json, path) == _read(_json_load, path)


def _fresh_jinv(curve: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "mwglue.cli", "jinv", "--curve", curve],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("text", [
    '{"f": [1, 2',  # a syntax error inside the object and the list
    '{"f" [1, 6, 5]}',
    '﻿{"f": [1, 6, 5]}',
    '{"f": [1, 6, 5]} {}',
    "",
    " \n",
], ids=["unclosed list", "missing colon", "BOM", "extra data", "empty", "whitespace"])
def test_malformed_file_in_a_fresh_process(inputs, text):
    curve = inputs.write("curve.json", text=text)  # in UTF-8
    with pytest.raises(json.JSONDecodeError) as raised:
        json.loads(Path(curve).read_text())  # in the locale's encoding, as mwglue reads it
    run = _fresh_jinv(curve)
    assert (run.returncode, run.stdout, run.stderr) == (3, "", f"error: {raised.value}\n")


def test_deep_nesting_in_a_fresh_process(inputs):
    curve = inputs.write("curve.json", text='{"f": [' + "[" * 100_000 + "]" * 100_000 + ", 6, 5]}")
    run = _fresh_jinv(curve)
    assert (run.returncode, run.stdout, run.stderr) == (3, "", f"error: {curve}: JSON nested too deeply to read\n")


def test_well_formed_file_in_a_fresh_process(inputs):
    curve = inputs.write("curve.json", text=' {"f": [1, "6", 5]}\r\n')
    run = _fresh_jinv(curve)
    assert (run.returncode, run.stdout, run.stderr) == (0, "1792\n", "")
