"""Each CLI command runs only the submodules it needs, and no costly stdlib
module.

Every command runs in a fresh interpreter, which then lists the mwglue
submodules that have run and the modules that are loaded, through the probe
of tests/compiled_source.py.
"""

import pytest

from mwglue.fixtures import EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI
from mwglue.glue import GluingData

from compiled_source import COMMANDS, FILES, PROBE, command_argv, probe

# `dataclasses` imports `inspect` and compiles generated methods for every
# class at import; mwglue's value classes use `mwglue.record` instead.
# `argparse` imports `gettext`, and its first parser loads `locale`; the CLI
# reads its flags from `cli.COMMANDS` instead.  `fractions` imports `decimal`,
# `numbers` and `re`; mwglue's rationals are `poly.Rational`, and `json`,
# which also imports `re`, loads only to quote a refused value or a
# malformed file.
HEAVY = ("dataclasses", "inspect", "argparse", "gettext", "locale", "fractions", "decimal", "numbers", "re")

# what the interpreter loads by itself, read before json is imported
BARE = """
import contextlib, io, sys, types
loaded = sorted(sys.modules)
import json
print(json.dumps({"loaded": loaded}))
"""


def _probe(*argv, code: int = 0) -> dict:
    result = probe(PROBE, *argv)
    assert result["code"] == code
    return result


def _heavy(result: dict) -> set[str]:
    return set(HEAVY) & set(result["loaded"])


@pytest.fixture
def files(inputs):
    # the script's copies of the bundled example
    assert FILES["curve"] == EXAMPLE_E.to_json()
    assert FILES["gluing"] == GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI).to_json()
    return {name: inputs.write(f"{name}.json", payload) for name, payload in FILES.items()}


CURVE = {"cli", "record", "poly", "ellcurve"}
DESCENT = CURVE | {"etale", "descent"}
GLUING = DESCENT | {"glue", "arith"}


# The exact set of submodules each command runs.  torsion's small primes
# come from poly's sieve, so it runs no arith; jinv, descent-class and
# membership ask for no torsion.  A class is shown as its representative, so
# descent-class factors and proves nothing prime and runs no arith, and it
# transfers nothing, so no glue.
RUNS = {
    "jinv": CURVE,
    "torsion": CURVE | {"torsion"},
    "descent-class": DESCENT,
    "membership": GLUING | {"squares"},
    "family": GLUING | {"torsion", "family"},
    "verify-example": GLUING | {"squares", "torsion", "example", "fixtures"},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_runs_exactly_its_modules(files, command):
    assert set(_probe(*command_argv(command, files))["ran"]) == RUNS[command]


# membership prints its certificate as JSON text in human format
@pytest.mark.parametrize("command", ["jinv", "torsion", "membership", "membership-json", "descent-class"])
def test_well_formed_files_load_no_json(files, command):
    argv = command_argv(command.removesuffix("-json"), files)
    if command.endswith("-json"):
        argv += ["--format", "json"]
    assert "json" not in _probe(*argv)["loaded"]


def test_a_malformed_file_loads_json(inputs):
    # json reads the file again, for its message
    assert "json" in _probe("jinv", "--curve", inputs.write("curve.json", text='{"f": [1, 2'), code=3)["loaded"]


def test_family_runs_no_squareness_scan_and_no_json():
    # only split algebras occur, so the family decides over valuation
    # coordinates, and it reads no file
    result = _probe(*COMMANDS["family"], "--format", "json")
    assert "squares" not in result["ran"]
    assert "json" not in result["loaded"]


@pytest.fixture(scope="module")
def bare_heavy() -> set[str]:
    return _heavy(probe(BARE))


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_load_no_dataclasses_or_inspect(files, bare_heavy, command):
    assert _heavy(_probe(*command_argv(command, files))) <= bare_heavy
