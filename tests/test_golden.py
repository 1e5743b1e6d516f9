"""Golden outputs: the exit code, stdout and stderr of a fixed set of CLI
commands, pinned byte for byte, both from `main()` in-process and from a
fresh `python -m mwglue.cli` process, which ends through `cli.entry`.

A change that is meant to keep every verdict, certificate and report the
same must leave these files as they are.  A change that alters an output on
purpose regenerates them with `PYTHONPATH=src python tests/test_golden.py`
and says which output changed and why.

`PYTHONPATH=src python tests/test_golden.py --check` runs every case both
ways with the standard library alone, names each output that differs from
its file, and exits 1 if any does.  It checks an interpreter that has no
pytest.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from mwglue.cli import main

from inputs import InputDir

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

# The command inputs, which each run writes in a new directory.  The gluing
# is the bundled example; P1 = (-2, 1) generates E(Q), and P2 = 2 P1.
INPUTS = {
    "gluing.json": {"E": {"f": ["1", "6", "5"]}, "F": {"f": ["-1", "5", "-6"]}, "h": ["6", "5", "1"]},
    "P1.json": {"x": "-2", "y": "1"},
    "P2.json": {"x": "0", "y": "1"},
    "O.json": "O",
    "E.json": {"f": ["1", "6", "5"]},
    "split.json": {"f": ["0", "-120", "2"]},
    "split_point.json": {"x": "-1", "y": "11"},
    "klein.json": {"f": ["0", "-8", "2"]},
    # falsified fixtures: an h that maps no root of f to a root of g, and a
    # gluing of E to itself by the identity, which is geometric
    "unmapped.json": {"h": ["1", "1"]},
    "geometric.json": {"F": {"f": ["1", "6", "5"]}, "h": ["0", "1"]},
}

MEMBERSHIP = ("membership", "--gluing", "gluing.json", "--Q", "O.json")

# (name, argv): each case's output is tests/golden/<name>.json
CASES = (
    ("verify_example", ("verify-example",)),
    ("verify_example_json", ("verify-example", "--format", "json")),
    ("verify_example_unknown_json", ("verify-example", "--sq-primes", "2", "--format", "json")),
    ("verify_example_unmapped", ("verify-example", "--fixtures", "unmapped.json")),
    ("verify_example_unmapped_json", ("verify-example", "--fixtures", "unmapped.json", "--format", "json")),
    ("verify_example_geometric", ("verify-example", "--fixtures", "geometric.json")),
    ("verify_example_geometric_json", ("verify-example", "--fixtures", "geometric.json", "--format", "json")),
    ("membership_1P", (*MEMBERSHIP, "--P", "P1.json")),
    ("membership_1P_json", (*MEMBERSHIP, "--P", "P1.json", "--format", "json")),
    ("membership_2P_json", (*MEMBERSHIP, "--P", "P2.json", "--format", "json")),
    ("membership_unknown_json", (*MEMBERSHIP, "--P", "P1.json", "--sq-primes", "2", "--format", "json")),
    ("descent_class_split_roots", (
        "descent-class", "--curve", "split.json", "--point", "split_point.json", "--roots", "0,-12,10",
    )),
    ("descent_class_nonsplit_json", ("descent-class", "--curve", "E.json", "--point", "P1.json", "--format", "json")),
    ("jinv", ("jinv", "--curve", "E.json")),
    ("torsion", ("torsion", "--curve", "klein.json")),
    ("family", ("family", "--l1", "3", "--l2", "5", "--count", "2")),
    ("family_json", ("family", "--l1", "3", "--l2", "5", "--count", "2", "--format", "json")),
    ("family_large_p_json", (
        "family", "--l1", "7", "--l2", "13", "--count", "2", "--bound", "1000000000000", "--format", "json",
    )),
)


def _argv(argv, root) -> list[str]:
    """argv with each input it names written to a new directory under root."""
    inputs = InputDir(root)
    return [inputs.write(a, INPUTS[a]) if a in INPUTS else a for a in argv]


def run(argv, root) -> dict:
    """Exit code, stdout and stderr of `mwglue ARGV` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(argv, root))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_process(argv, root) -> dict:
    """Exit code, stdout and stderr of `python -m mwglue.cli ARGV`, with
    stdout block-buffered as it is on a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONIOENCODING"] = "utf-8"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "mwglue.cli", *_argv(argv, root)],
                          env=env, capture_output=True, timeout=120)
    return {"exit": proc.returncode, "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}


def expected(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


# pytest's parametrize through its hook, so that this module imports no pytest
def pytest_generate_tests(metafunc):
    metafunc.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])


def test_output_is_unchanged(name, argv, tmp_path):
    assert run(argv, tmp_path) == expected(name)


def test_process_output_is_unchanged(name, argv, tmp_path):
    assert run_process(argv, tmp_path) == expected(name)


def check() -> int:
    """Run every case in-process and as a process; print each mismatch."""
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES:
            for how, runner in (("in-process", run), ("process", run_process)):
                if runner(argv, tmp) != expected(name):
                    print(f"mismatch: {name} ({how}) differs from tests/golden/{name}.json", file=sys.stderr)
                    mismatches += 1
    print(f"{len(CASES)} golden cases, {mismatches} mismatches", file=sys.stderr)
    return 1 if mismatches else 0


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES:
            got = run(argv, tmp)
            (GOLDEN / f"{name}.json").write_text(json.dumps(got, indent=1) + "\n")
            print(f"{name}: exit {got['exit']}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit("usage: python tests/test_golden.py [--check]")
    regenerate()
