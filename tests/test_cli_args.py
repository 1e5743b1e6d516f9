"""The command line grammar: COMMAND [--flag VALUE | --flag=VALUE]...,
read from cli.COMMANDS.  Usage errors exit 3 with one stderr line, -h and
--help exit 0, and no argv ends in a traceback."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mwglue.cli as cli
from mwglue.cli import COMMANDS, main
from mwglue.family import FAMILY_F, FAMILY_F_GENERATORS
from mwglue.fixtures import EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI
from mwglue.glue import GluingData

from inputs import InputDir

SRC = Path(__file__).resolve().parents[1] / "src"
FLAGS = sorted({flag for _, _, flags in COMMANDS.values() for flag in flags})


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


COMMAND_LIST = ", ".join(COMMANDS)
USAGE_ERRORS = [
    ([], f"no command given; commands: {COMMAND_LIST}"),
    (["bogus"], f"unknown command 'bogus'; commands: {COMMAND_LIST}"),
    (["--curve", "c.json"], f"unknown command '--curve'; commands: {COMMAND_LIST}"),
    (["jinv", "--bogus", "x"], "jinv: unknown flag '--bogus'; flags: --curve, --format, --out"),
    (["jinv", "stray"], "jinv: unknown flag 'stray'; flags: --curve, --format, --out"),
    (["jinv", "--curve"], "jinv --curve: missing value"),
    (["family", "--l1", "x", "--l2", "5"], "family --l1: expected an integer, got 'x'"),
    (["family", "--l1=3", "--l2=5", "--count=five"], "family --count: expected an integer, got 'five'"),
    (["verify-example", "--sq-primes", "1.5"], "verify-example --sq-primes: expected an integer, got '1.5'"),
    (["jinv", "--curve", "c.json", "--format", "xml"], "jinv --format: expected human or json, got 'xml'"),
    (["family", "--l1", "3"], "family: missing required flags: --l2"),
    (["membership", "--sq-primes", "5"], "membership: missing required flags: --gluing, --P, --Q"),
    (["descent-class", "--curve", "c.json", "--point", "p.json", "--roots", "0,x,10"],
     "descent-class --roots: not a rational number: \"x\", got '0,x,10'"),
    # prefix abbreviations are refused
    (["jinv", "--cur", "c.json"], "jinv: unknown flag '--cur'; flags: --curve, --format, --out"),
    (["jinv", "--curve", "c.json", "--form=json"],
     "jinv: unknown flag '--form=json'; flags: --curve, --format, --out"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "(empty)" for argv, _ in USAGE_ERRORS])
def test_usage_error_exits_3_with_one_line(argv, message):
    code, out, err = _run(argv)
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


# A value quoted in an error is cut after 80 characters, so the line stays short.
LONG_VALUES = [
    (["jinv", "--curve", "c.json", "--format", "h" * 300],
     f"jinv --format: expected human or json, got '{'h' * 79}…"),
    (["jinv", "--" + "x" * 300, "1"],
     f"jinv: unknown flag '--{'x' * 77}…; flags: --curve, --format, --out"),
    (["x" * 300], f"unknown command '{'x' * 79}…; commands: {COMMAND_LIST}"),
    (["family", "--l1", "1" * 5000, "--l2", "5"], f"{'1' * 80}… is not an odd prime"),
]


@pytest.mark.parametrize("argv,message", LONG_VALUES, ids=["format", "flag", "command", "l1"])
def test_long_value_is_quoted_short(argv, message):
    assert _run(argv) == (3, "", f"error: {message}\n")


def test_defaults_repeated_in_the_table_match_their_homes():
    # cli cannot read them at import: building COMMANDS would then load etale
    # and family into every command
    from mwglue.etale import CERT_PRIMES
    from mwglue.family import FamilyParams

    flags = {command: spec[2] for command, spec in COMMANDS.items()}
    assert flags["verify-example"]["--sq-primes"][1] == flags["membership"]["--sq-primes"][1] == CERT_PRIMES
    assert (flags["family"]["--count"][1], flags["family"]["--bound"][1]) == (FamilyParams.count, FamilyParams.bound)


def test_int_flag_past_max_digits_exhausts_the_bound():
    # an integer all the same: not a usage error, but the bound on digits that ran out
    code, out, err = _run(["family", "--l1", "1" * (cli.MAX_DIGITS + 1), "--l2", "5"])
    assert (code, out) == (2, "")
    assert err == f"bound exhausted: a number has more than MAX_DIGITS = {cli.MAX_DIGITS} digits\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help_lists_every_command(flag):
    code, out, err = _run([flag])
    assert (code, err) == (0, "")
    listed = [line.split()[0] for line in out.split("commands:\n")[1].splitlines()]
    assert listed == list(COMMANDS)


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_lists_every_flag(command, flag):
    code, out, err = _run([command, flag])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: mwglue {command} ")
    listed = [line.split()[0] for line in out.split("flags:\n")[1].splitlines()]
    assert listed == list(COMMANDS[command][2])


def test_help_after_flags_ignores_missing_required_ones():
    code, out, _ = _run(["family", "--l1", "3", "--help"])
    assert code == 0
    assert "--l2" in out


def test_help_subprocess_reads_sys_argv():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-m", "mwglue.cli", "--help"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert all(f"  {command}  " in run.stdout for command in COMMANDS)


@pytest.mark.parametrize("spaced,joined", [
    (["--format", "json"], ["--format=json"]),
    (["--format", "json", "--format", "human"], ["--format=json", "--format=human"]),
])
def test_equals_form_matches_spaced_form(inputs, spaced, joined):
    curve = inputs.write("curve.json", EXAMPLE_E.to_json())
    assert _run(["jinv", "--curve", curve, *spaced]) == _run(["jinv", f"--curve={curve}", *joined])


def test_equals_form_on_integer_flags():
    spaced = _run(["family", "--l1", "3", "--l2", "5", "--count", "1", "--bound", "1000"])
    assert spaced[0] == 0
    assert spaced == _run(["family", "--l1=3", "--l2=5", "--count=1", "--bound=1000"])


def test_repeated_flag_keeps_its_last_value(inputs):
    curve = inputs.write("curve.json", EXAMPLE_E.to_json())
    assert _run(["jinv", "--curve", curve, "--format", "json", "--format", "human"]) == (0, "1792\n", "")


def test_value_may_start_with_a_dash(inputs):
    # the token after a flag is its value, whatever it looks like: argparse
    # refused "--roots -12,0,10" as a flag without a value
    curve = inputs.write("curve.json", {"f": ["0", "-120", "2"]})
    point = inputs.write("point.json", {"x": "-1", "y": "11"})
    argv = ["descent-class", "--curve", curve, "--point", point, "--roots"]
    assert _run([*argv, "-12,0,10"]) == (0, "class of [['11'], ['-1'], ['-11']]\n", "")
    assert _run(["family", "--l1", "-3", "--l2", "5"]) == (3, "", "error: -3 is not an odd prime\n")
    message = "error: family --l1: expected an integer, got '--l2'\n"
    assert _run(["family", "--l1", "--l2", "5"]) == (3, "", message)


# The fuzz test draws argv from the table and a few input files: mostly a
# command with flags of its own and values of the flag's kind, mixed with
# other flags, help, =-forms and junk.  Every integer it draws is small and
# --count is capped at 2, so a valid family run builds one or two instances.
INTS = ["-1", "0", "1", "2", "3", "5", "7", "13", "229"]
PARSERS = {flag: spec[0] for _, _, flags in COMMANDS.values() for flag, spec in flags.items()}
JUNK = st.text(st.characters(exclude_characters="/\x00"), max_size=6)

@pytest.fixture
def input_files(inputs):
    return [inputs.write(name, payload) for name, payload in {
        "curve.json": EXAMPLE_E.to_json(),
        "point.json": {"x": "-2", "y": "1"},
        "origin.json": "O",
        "gluing.json": GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI).to_json(),
        "F.json": {"F": FAMILY_F.to_json(), "generators": [g.to_json() for g in FAMILY_F_GENERATORS]},
        "tampered.json": {"E": {"f": ["1", "6", "4"]}},
        "bad.json": [1, 2],
    }.items()]


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzz_argv(data, input_files, tmp_path, monkeypatch):
    # --out and the junk are relative paths, and each example runs in a new
    # directory, so no example writes over a file an earlier one wrote
    monkeypatch.chdir(InputDir(tmp_path).path)
    monkeypatch.setattr(cli, "MAX_FAMILY_COUNT", 2)
    kinds = {int: INTS, cli._format: ["human", "json"], cli._roots: ["0,-12,10", ""],
             str: [*input_files, "0,-12,10", ""]}
    command = data.draw(st.sampled_from([*COMMANDS, None]))

    def value(f):  # every example shares the input files: --out never names one
        kind = st.sampled_from(["report.json", ""] if f == "--out" else kinds[PARSERS[f]])
        return st.one_of(*[kind] * 9, JUNK)

    def pair(flags):
        return st.sampled_from(flags).flatmap(lambda f: st.tuples(st.just(f), value(f)))

    own = pair(list(COMMANDS[command][2]) if command else FLAGS)
    # no lone input file, which a lone --out before it would overwrite
    single = st.sampled_from([*COMMANDS, *FLAGS, "-h", "--help", *INTS]) | JUNK
    noise = st.one_of(pair(FLAGS).map(list), single.map(lambda t: [t]))
    chunks = data.draw(st.lists(own.map(list) | own.map(lambda fv: ["=".join(fv)]), max_size=5))
    noise = data.draw(st.one_of(*[st.just([])] * 3, st.lists(noise, max_size=2)))
    chunks = data.draw(st.permutations(chunks + noise))
    argv = [command] * (command is not None) + sum(chunks, [])
    code, _, err = _run(argv)
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1 and (err == "" or err.endswith("\n"))
