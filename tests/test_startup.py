"""Each CLI command runs only the submodules it needs, and no costly stdlib
module.

Every command runs in a fresh interpreter, which then lists the mwglue
submodules that have run, which of the HEAVY modules are loaded, and whether
`json` is.  A submodule that has not been used yet is still a lazy module;
`type()` tells the two apart without loading it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mwglue.fixtures import EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI
from mwglue.glue import GluingData

SRC = Path(__file__).resolve().parents[1] / "src"

# `dataclasses` imports `inspect` and compiles generated methods for every
# class at import; mwglue's value classes use `mwglue.record` instead.
# `argparse` imports `gettext`, and its first parser loads `locale`; the CLI
# reads its flags from `cli.COMMANDS` instead.  `fractions` imports `decimal`,
# `numbers` and `re`; mwglue's rationals are `poly.Rational`, and `json`,
# which also imports `re`, loads only to quote a refused value or a
# malformed file.
HEAVY = ("dataclasses", "inspect", "argparse", "gettext", "locale", "fractions", "decimal", "numbers", "re")

# what the interpreter loads by itself, read before json is imported
BARE = f"""
import contextlib, io, sys, types
heavy = [m for m in {HEAVY!r} if m in sys.modules]
import json
print(json.dumps({{"code": 0, "ran": [], "heavy": heavy}}))
"""

# json is read before the probe imports it to print its answer
PROBE = f"""
import contextlib, io, sys, types
import mwglue.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = mwglue.cli.main(sys.argv[1:])
ran = [n.split(".", 1)[1] for n, m in sys.modules.items()
       if n.startswith("mwglue.") and type(m) is types.ModuleType]
heavy = [m for m in {HEAVY!r} if m in sys.modules]
loaded_json = "json" in sys.modules
import json
print(json.dumps({{"code": code, "ran": sorted(ran), "heavy": heavy, "json": loaded_json}}))
"""


def _probe(script: str, *argv, code: int = 0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["code"] == code
    return result


def _ran(*argv) -> set[str]:
    return set(_probe(PROBE, *argv)["ran"])


@pytest.fixture
def files(inputs):
    return {name: inputs.write(f"{name}.json", payload) for name, payload in {
        "curve": EXAMPLE_E.to_json(),
        "gluing": GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI).to_json(),
        "P": {"x": "-2", "y": "1"},
        "Q": "O",
    }.items()}


# torsion's small primes come from poly's sieve, so neither runs arith
@pytest.mark.parametrize("command", ["torsion", "jinv"])
def test_curve_queries_run_only_the_curve_layers(files, command):
    assert _ran(command, "--curve", files["curve"]) == {"cli", "record", "poly", "ellcurve"}


# membership prints its certificate as JSON text in human format
@pytest.mark.parametrize("command", ["jinv", "torsion", "membership", "membership-json", "descent-class"])
def test_well_formed_files_load_no_json(files, command):
    membership = ("--gluing", files["gluing"], "--P", files["P"], "--Q", files["Q"])
    argv = {
        "jinv": ("--curve", files["curve"]),
        "torsion": ("--curve", files["curve"]),
        "membership": membership,
        "membership-json": (*membership, "--format", "json"),
        "descent-class": ("--curve", files["curve"], "--point", files["P"]),
    }[command]
    command = command.removesuffix("-json")
    assert not _probe(PROBE, command, *argv)["json"]


def test_a_malformed_file_loads_json(inputs):
    # json reads the file again, for its message
    assert _probe(PROBE, "jinv", "--curve", inputs.write("curve.json", text='{"f": [1, 2'), code=3)["json"]


def test_membership_runs_no_family_or_example_code(files):
    ran = _ran("membership", "--gluing", files["gluing"], "--P", files["P"], "--Q", files["Q"])
    assert {"descent", "squares"} <= ran
    assert not ran & {"family", "example", "fixtures"}


def test_family_runs_no_example_code():
    ran = _ran("family", "--l1", "3", "--l2", "5", "--count", "1")
    assert "family" in ran
    assert not ran & {"example", "fixtures"}


def test_family_runs_no_squareness_scan_and_no_json():
    # only split algebras occur, so the family decides over valuation
    # coordinates, and it reads no file
    result = _probe(PROBE, "family", "--l1", "3", "--l2", "5", "--count", "15", "--format", "json")
    assert result["ran"] == ["arith", "cli", "descent", "ellcurve", "etale", "family", "glue", "poly", "record"]
    assert not result["json"]


def test_descent_class_runs_no_squareness_scan_or_gluing(files):
    # a class is shown as its representative, so nothing is factored or
    # proven prime, and arith does not run
    ran = _ran("descent-class", "--curve", files["curve"], "--point", files["P"])
    assert "descent" in ran
    assert not ran & {"arith", "squares", "glue"}


def test_verify_example_runs_the_squareness_scan():
    assert {"example", "squares"} <= _ran("verify-example")


@pytest.mark.parametrize(
    "command", ["torsion", "jinv", "membership", "family", "verify-example", "descent-class"]
)
def test_commands_load_no_dataclasses_or_inspect(files, command):
    argv = {
        "torsion": ("--curve", files["curve"]),
        "jinv": ("--curve", files["curve"]),
        "membership": ("--gluing", files["gluing"], "--P", files["P"], "--Q", files["Q"]),
        "family": ("--l1", "3", "--l2", "5", "--count", "1"),
        "verify-example": (),
        "descent-class": ("--curve", files["curve"], "--point", files["P"]),
    }[command]
    bare = set(_probe(BARE)["heavy"])
    assert set(_probe(PROBE, command, *argv)["heavy"]) <= bare
