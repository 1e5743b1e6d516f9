"""Compare the CLI's outputs on the benchmark pools with a base tree's.

    python3 tests/compare_pools.py BASE_TREE

BASE_TREE is another checkout of this repository, such as the commit a
change is based on.  Every distinct command of the example, family and
queries pools that bench/workloads.py draws for seeds 0-3 runs as
`python3 -m mwglue.cli ARGS` in three forms: as drawn, with the other
`--format`, and as drawn with `--out FILE`.  Each family command is also
run with `--F F.json`, the default F and its generators, so that the F-side
classes and their transfers are compared too.  Each form runs twice, each in a
fresh process beside its input files: once with this tree's src/ on
PYTHONPATH and once with BASE_TREE's.  Any difference in exit code, stdout,
stderr or the bytes of the `--out` file is printed, and the script then
exits 1.  It needs only the standard library.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

POOLS = ("example", "family", "queries")
SEEDS = range(4)

# The family's default F, y^2 = x(x - 1)(x + 3), with generators of F(Q)
F_FILE = "F.json"
F_INPUT = {"F": {"f": ["0", "-3", "2"]}, "generators": [{"x": "3", "y": "6"}, {"x": "0", "y": "0"}]}


def drawn(name: str, seed: int) -> list:
    """The pool as bench/run.py draws it, from Random("NAME/SEED"), with
    each family command followed by its `--F F.json` run."""
    out = []
    for cmd in WORKLOADS[name](random.Random(f"{name}/{seed}")):
        out.append(cmd)
        if name == "family":
            out.append(replace(cmd, args=(*cmd.args, "--F", F_FILE), inputs={**cmd.inputs, F_FILE: F_INPUT}))
    return out


def commands() -> list:
    """The distinct commands of the pools, in the order first drawn."""
    seen, out = set(), []
    for name in POOLS:
        for seed in SEEDS:
            for cmd in drawn(name, seed):
                key = (cmd.args, json.dumps(cmd.inputs, sort_keys=True))
                if key not in seen:
                    seen.add(key)
                    out.append(cmd)
    return out


OUT = "report.out"  # the --out file, beside the inputs


def forms(args: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The command as drawn, with the other --format, and with --out."""
    if "--format" in args:
        i = args.index("--format") + 1
        other = (*args[:i], "human" if args[i] == "json" else "json", *args[i + 1:])
    else:
        other = (*args, "--format", "json")
    return [args, other, (*args, "--out", OUT)]


def run(args: tuple[str, ...], inputs: dict, tree: Path) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and the --out file's bytes (None when no
    file was written) of the command on the tree's src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as work:
        for name, content in inputs.items():
            (Path(work) / name).write_text(json.dumps(content))
        done = subprocess.run(
            [sys.executable, "-m", "mwglue.cli", *args],
            cwd=work, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        )
        out = Path(work) / OUT
        written = out.read_bytes() if out.exists() else None
    return done.returncode, done.stdout, done.stderr, written


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "mwglue").is_dir():
        print("usage: python3 tests/compare_pools.py BASE_TREE (a tree with src/mwglue)", file=sys.stderr)
        return 3
    base = Path(argv[0]).resolve()
    cmds = commands()
    differ = 0
    for cmd in cmds:
        for args in forms(cmd.args):
            ours, theirs = run(args, cmd.inputs, ROOT), run(args, cmd.inputs, base)
            if ours != theirs:
                differ += 1
                fields = [k for k, a, b in zip(("exit code", "stdout", "stderr", "--out file"), ours, theirs)
                          if a != b]
                print(f"DIFFERS ({', '.join(fields)}): mwglue {' '.join(args)}; "
                      f"inputs {json.dumps(cmd.inputs)}")
    print(f"{len(cmds)} commands in {3 * len(cmds)} forms, {differ} differ from {base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
