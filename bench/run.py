"""The mwglue benchmark: CLI wall time per workload, and per-layer spans.

    python3 bench/run.py --workload {example,family,queries,all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source tree.  Each command is one fresh
`python3 -m mwglue.cli` process with `src/` on PYTHONPATH, run one after
another: a closed loop with a single client.  The seed draws the workload's
pool of commands; the run passes over the pool in seeded orders until
`--seconds` is used up, checks every output with the oracles in
`oracles.py`, and prints the metrics as the last line.  Each command counts
at its fastest run, and times are scaled to a machine of fixed speed (see
REF_S).  With `--trace 1`
every pass runs twice, plain and through `tracecli.py`, and the run reports
per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import aggregate, merge
from workloads import WORKLOADS, Command

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Timings taken before the first pass, and after every pass: (set-ups, REF_ARGV)
FIRST_SAMPLES = (3, 5)
PASS_SAMPLES = (1, 2)

# Times are reported on a machine of fixed speed: each is scaled by
# REF_S / (fastest run of REF_ARGV in the run).  A bare interpreter start
# does no work of mwglue's, so no change to the program moves it, but it
# slows down with the whole machine: on a shared host, other tenants slow
# every process for spans longer than a run.  REF_S is about what REF_ARGV
# takes at best on an idle 2-core x86-64 virtual machine.
REF_ARGV = [sys.executable, "-c", "pass"]
REF_S = 0.04
HARD_LIMIT_S = 150  # a run never outlasts this, whatever --seconds says

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmds_per_s": "1/s",
    "instances_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from the span totals of one traced pass:
# "<span name>.<calls|s|self_s>", plus the special cases in layer_metrics().
PER_LAYER = {
    "cli.import.s": "s",
    "cli.main.s": "s",
    "example.run_example.s": "s",
    "glue.GluingData.build.s": "s",
    "glue.validate_identification.s": "s",
    "glue.verify_cover_map.s": "s",
    "family.find_primes.s": "s",
    "family.build_instance.s": "s",
    "family.verify_instance.calls": "count",
    "family.verify_instance.s": "s",
    "ellcurve.torsion_subgroup.calls": "count",
    "ellcurve.torsion_subgroup.s": "s",
    "ellcurve.torsion_subgroup.self_s": "s",
    "ellcurve.add.calls": "count",
    "poly.integer_roots_monic_cubic.calls": "count",
    "poly.integer_roots_monic_cubic.s": "s",
    "poly.rational_roots_monic.calls": "count",
    "arith.factor.calls": "count",
    "arith.factor.s": "s",
    "arith.factor.input_bits": "bits",
    "arith.is_prime.calls": "count",
    "arith.is_prime.s": "s",
    "arith.square_class.calls": "count",
    "arith.square_class.s": "s",
    "arith.SquareClass.calls": "count",
    "arith.subgroup_contains.s": "s",
    "etale.is_square.calls": "count",
    "etale.is_square.s": "s",
    "etale.is_square.square.calls": "count",
    "etale.is_square.square.s": "s",
    "etale.is_square.non_square.calls": "count",
    "etale.is_square.non_square.s": "s",
    "etale.is_square.unknown.calls": "count",
    "etale.is_square.unknown.s": "s",
    "etale.is_square.decided_ratio": "ratio",
    "etale.AlgebraSquareClass.of.calls": "count",
    "etale.AlgebraSquareClass.of.s": "s",
    "etale.CubicEtaleAlgebra.from_cubic.s": "s",
    "descent.descent_class.calls": "count",
    "descent.descent_class.s": "s",
    "descent.membership.calls": "count",
    "descent.membership.s": "s",
    "descent.transfer_class.s": "s",
    "descent.surjectivity_obstruction.s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass
class Outcome:
    """One run of one command."""

    exit: int
    wall_s: float
    maxrss_kb: int
    ok: bool
    reason: str
    instances: int


@dataclass
class Measurement:
    """Everything a run measured: for each command of the pool, all its
    plain runs; for each traced pass, its plain and traced wall time and
    span totals; the set-up times; and the times of REF_ARGV."""

    pool: list[Command]
    runs: list[list[Outcome]]
    traced: list[tuple[float, float, dict]] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    failures: list[tuple[int, Outcome]] = field(default_factory=list)  # (pool index, run)
    attempted: int = 0
    ref: list[float] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(argv: list[str], cwd: Path, env: dict, timeout: float) -> tuple[int, str, float, int]:
    """Run one process to its end: (exit code, stdout, wall s, max RSS KiB).

    A process still running after `timeout` seconds is killed, and its exit
    code is the negative signal number.
    """
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        lock = threading.Lock()
        exited = False

        def kill():
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        # wait without reaping, so that the timer never signals a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            exited = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    return proc.returncode, stdout, wall, usage.ru_maxrss


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.env = child_env()
        self.deadline = deadline
        self.count = 0

    def _dir(self) -> Path:
        self.count += 1
        d = self.work / f"c{self.count}"
        d.mkdir()
        return d

    def check_source(self):
        """Import mwglue.cli once: it must come from SRC.  This also fills
        the bytecode cache before anything is timed."""
        d = self._dir()
        probe = "import mwglue.cli, sys; sys.stdout.write(mwglue.cli.__file__)"
        rc, out, _, _ = spawn([sys.executable, "-c", probe], d, self.env, 60)
        shutil.rmtree(d)
        if rc != 0 or not Path(out).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: mwglue.cli does not import from {SRC} (exit {rc}: {out!r})")

    def _times(self, argv: list[str], samples: int) -> list[float]:
        d = self._dir()
        times = []
        for _ in range(samples):
            rc, _, wall, _ = spawn(argv, d, self.env, 60)
            if rc != 0:
                raise SystemExit(f"error: {argv} exited {rc}")
            times.append(wall)
        shutil.rmtree(d)
        return times

    def sample(self, m: "Measurement", samples: tuple[int, int]):
        """Time set-ups (fresh interpreters that import mwglue.cli and exit)
        and bare interpreter starts, as many as `samples` gives."""
        m.setup += self._times([sys.executable, "-c", "import mwglue.cli"], samples[0])
        m.ref += self._times(REF_ARGV, samples[1])

    def run(self, cmd: Command, traced: bool) -> tuple[Outcome, dict]:
        """Run one command beside its input files; return how it went and,
        when traced, its span totals."""
        d = self._dir()
        for name, content in cmd.inputs.items():
            (d / name).write_text(json.dumps(content))
        if traced:
            argv = [sys.executable, str(BENCH / "tracecli.py"), str(d / ".spans"), *cmd.args]
        else:
            argv = [sys.executable, "-m", "mwglue.cli", *cmd.args]
        rc, stdout, wall, rss = spawn(argv, d, self.env, self.deadline - time.perf_counter())
        verdict = cmd.check(rc, stdout)
        reason = verdict.reason
        if not verdict.ok:
            stderr = (d / ".stderr").read_text(errors="replace").strip().splitlines()
            reason += f" (stderr: {stderr[-1]})" if stderr else ""
        totals = {}
        if traced and (d / ".spans").is_file():
            totals = aggregate(json.loads((d / ".spans").read_text()))
        shutil.rmtree(d)
        return Outcome(rc, wall, rss, verdict.ok, reason, verdict.instances), totals

    def run_pass(self, cmds: list[Command], traced: bool) -> tuple[list[Outcome], dict]:
        """Run the commands in order until the deadline; return their
        outcomes and, when traced, their merged span totals."""
        outcomes, spans = [], {}
        for cmd in cmds:
            if time.perf_counter() >= self.deadline:
                break
            outcome, totals = self.run(cmd, traced)
            outcomes.append(outcome)
            merge(spans, totals)
        return outcomes, spans

    def measure(self, pool: list[Command], rng, seconds: float, trace: int) -> Measurement:
        """Pass over the pool in seeded orders until another pass would end
        after `seconds`.  With `trace`, each pass runs again traced."""
        m = Measurement(pool, [[] for _ in pool])
        self.sample(m, FIRST_SAMPLES)
        end = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            order = rng.sample(range(len(pool)), len(pool))
            cmds = [pool[i] for i in order]
            plain, _ = self.run_pass(cmds, traced=False)
            for i, o in zip(order, plain):
                m.runs[i].append(o)
            done = list(zip(order, plain))
            if trace:
                traced, spans = self.run_pass(cmds, traced=True)
                m.traced.append((sum(o.wall_s for o in plain), sum(o.wall_s for o in traced), spans))
                done += zip(order, traced)
            m.attempted += len(done)
            m.failures += [(i, o) for i, o in done if not o.ok]
            self.sample(m, PASS_SAMPLES)
            now = time.perf_counter()
            if now + (now - start) > end or now >= self.deadline:
                return m


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the order statistics around q."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(m: Measurement) -> dict:
    """The end-to-end metrics, each command of the pool counted at its
    fastest run, since interference from other processes only ever adds
    time, and every time scaled to a machine of fixed speed."""
    scale = REF_S / min(m.ref)
    ran = [runs for runs in m.runs if runs]
    best = [scale * min(o.wall_s for o in runs) for runs in ran]
    right = [runs for runs in ran if all(o.ok for o in runs)]
    wall = sum(best)
    return {
        "setup_s": scale * statistics.median(m.setup),
        "wall_s": wall,
        "cmds_per_s": len(right) / wall,
        "instances_per_s": sum(runs[0].instances for runs in right) / wall,
        "cmd_p50_ms": 1000 * percentile(best, 0.5),
        "cmd_p90_ms": 1000 * percentile(best, 0.9),
        "peak_rss_mb": max(o.maxrss_kb for runs in ran for o in runs) / 1024,
    }


def layer_metrics(totals: dict) -> dict:
    """Per-layer values of one traced pass, without the tracing overhead."""
    out = {}
    for metric in PER_LAYER:
        span, _, fld = metric.rpartition(".")
        entry = totals.get(span)
        if metric == "etale.is_square.decided_ratio":
            sq = totals.get("etale.is_square", {"calls": 0, "tags": {}})
            decided = sum(sq["tags"].get(t, {}).get("calls", 0) for t in ("square", "non_square"))
            out[metric] = decided / sq["calls"] if sq["calls"] else 1.0
        elif metric == "arith.factor.input_bits":
            tags = totals.get("arith.factor", {}).get("tags", {})
            calls = sum(t["calls"] for t in tags.values())
            bits = sum(int(k) * t["calls"] for k, t in tags.items())
            out[metric] = bits / calls if calls else 0.0
        elif metric == "trace.spans":
            out[metric] = sum(e["calls"] for e in totals.values())
        elif metric.startswith("trace."):
            continue
        elif entry is None and span.startswith("etale.is_square."):
            outcome = span.rpartition(".")[2]
            tag = totals.get("etale.is_square", {}).get("tags", {}).get(outcome, {})
            out[metric] = tag.get(fld, 0)
        else:
            out[metric] = (entry or {}).get(fld, 0)
    return out


def context(workload: str, seed: int, seconds: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mwglue").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int, started: float) -> dict:
    """Measure one workload; print its summary and return the result object."""
    rng = random.Random(f"{name}/{seed}")
    pool = WORKLOADS[name](rng)
    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started + HARD_LIMIT_S)
    try:
        runner.check_source()
        m = runner.measure(pool, rng, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ctx = context(name, seed, seconds, trace)
    if trace:
        per_pass = [layer_metrics(spans) for _, _, spans in m.traced]
        values = {k: statistics.median(pp[k] for pp in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(t - p for p, t, _ in m.traced)
        units = PER_LAYER
    else:
        values = end_to_end(m)
        units = END_TO_END
        ctx["speed_scale"] = REF_S / min(m.ref)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    records = BENCH / ".records"
    records.mkdir(exist_ok=True)
    record = records / f"{name}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps(
        {"context": ctx, "metrics": metrics, "setup_s": m.setup, "ref_s": m.ref,
         "commands": [{"argv": ["mwglue", *cmd.args], "inputs": cmd.inputs,
                       "runs": [vars(o) for o in runs]} for cmd, runs in zip(pool, m.runs)],
         "traced_passes": [{"plain_s": p, "traced_s": t} for p, t, _ in m.traced]},
        indent=1,
    ))

    passes = max(len(runs) for runs in m.runs)
    print(f"== {name}: seed {seed}, {len(pool)} commands x {passes} passes, "
          f"{m.attempted} runs, {len(m.failures)} failed "
          f"(fail_rate {len(m.failures) / m.attempted:.4f})")
    print("   " + ", ".join(f"{k} {v}" for k, v in ctx.items() if k not in ("workload", "seed")))
    for k, v in metrics.items():
        print(f"   {k:40s} {v['value']:14.6f} {v['unit']}")
    for i, o in m.failures:
        print(f"   FAILED mwglue {' '.join(pool[i].args)}: {o.reason}; exit {o.exit}; "
              f"inputs {json.dumps(pool[i].inputs)}")
    print(f"   record: {record.relative_to(ROOT)}")
    return {
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mwglue" / "cli.py").is_file():
        print(f"error: no mwglue source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, started)
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, time.perf_counter())
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
