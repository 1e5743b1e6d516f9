"""The mwglue modules each CLI command runs, and the source lines they hold.

    python tests/compiled_source.py [BASE_DIR]

Each command of COMMANDS runs in a fresh interpreter with `src/` first on
PYTHONPATH, as tests/test_startup.py runs it.  Without `.pyc` files, as in
the benchmark, a process compiles every module it runs in full, so the
source lines of those modules (with the package's `__init__`) are the
source the command compiles.  The script prints them for this tree, and for
BASE_DIR, a checkout of another commit, when one is given.  It gates
nothing: it exits 0 unless a command fails.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from inputs import InputDir

ROOT = Path(__file__).resolve().parents[1]

# The bundled example: its curve E, its gluing (E, F, h) and the points
# P = (-2, 1) on E and O on F.
FILES = {
    "curve": {"f": ["1", "6", "5"]},
    "gluing": {"E": {"f": ["1", "6", "5"]}, "F": {"f": ["-1", "5", "-6"]}, "h": ["6", "5", "1"]},
    "P": {"x": "-2", "y": "1"},
    "Q": "O",
}

# Each command's arguments; a name in braces is the path of that file of FILES.
COMMANDS = {
    "jinv": ("jinv", "--curve", "{curve}"),
    "torsion": ("torsion", "--curve", "{curve}"),
    "descent-class": ("descent-class", "--curve", "{curve}", "--point", "{P}"),
    "membership": ("membership", "--gluing", "{gluing}", "--P", "{P}", "--Q", "{Q}"),
    "family": ("family", "--l1", "3", "--l2", "5", "--count", "15"),
    "verify-example": ("verify-example",),
}

# Runs `mwglue ARG...` in-process, then prints its exit code, the mwglue
# submodules that ran, and every module loaded before the probe imports
# json to print them.  A submodule not used yet is still a lazy module,
# and `type()` tells the two apart without loading it.
PROBE = """
import contextlib, io, sys, types
import mwglue.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = mwglue.cli.main(sys.argv[1:])
ran = [n.split(".", 1)[1] for n, m in sys.modules.items()
       if n.startswith("mwglue.") and type(m) is types.ModuleType]
loaded = sorted(sys.modules)
import json
print(json.dumps({"code": code, "ran": sorted(ran), "loaded": loaded}))
"""


def probe(script: str, *argv, src: Path = ROOT / "src") -> dict:
    """The JSON line the script prints last, run as `python -c script ARGV`
    with src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out.splitlines()[-1])


def command_argv(command: str, paths: dict[str, str]) -> list[str]:
    """The arguments of COMMANDS[command], with the file paths filled in."""
    return [arg.format(**paths) for arg in COMMANDS[command]]


def compiled_lines(src: Path, paths: dict[str, str]) -> dict[str, dict[str, int]]:
    """For each command, the source lines of each module it runs under src."""
    package = src / "mwglue"
    out = {}
    for command in COMMANDS:
        result = probe(PROBE, *command_argv(command, paths), src=src)
        if result["code"] != 0:
            raise SystemExit(f"{command} exited {result['code']} under {src}")
        out[command] = {name: len((package / f"{name}.py").read_text().splitlines())
                        for name in ["__init__", *result["ran"]]}
    return out


def main(argv: list[str]) -> int:
    trees = {"this tree": ROOT / "src"}
    if argv:
        trees["base"] = Path(argv[0]).resolve() / "src"
    with tempfile.TemporaryDirectory() as tmp:
        files = InputDir(tmp)
        paths = {name: files.write(f"{name}.json", payload) for name, payload in FILES.items()}
        tables = {label: compiled_lines(src, paths) for label, src in trees.items()}
    for command in COMMANDS:
        print(f"{command}: " + ", ".join(
            f"{sum(table[command].values()):,} lines ({label})" for label, table in tables.items()))
        for label, table in tables.items():
            modules = ", ".join(f"{name} {lines}" for name, lines in sorted(table[command].items()))
            print(f"  {label}: {modules}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
