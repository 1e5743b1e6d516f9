"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench

They run reduced passes of every workload against the source tree, feed the
oracles tampered outputs, and check span self times on a synthetic tree.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import oracles as O
import run
import workloads as W
from spans import _self_time, aggregate, merge


class SpanTreeTest(unittest.TestCase):
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]), b [5, 6] and a
    # re-entered a [7, 9]
    SPANS = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, None],
        ["a", 7.0, 9.0, 0, None],
    ]

    def test_self_times(self):
        got = aggregate(self.SPANS)
        self.assertEqual(got["a"]["calls"], 2)
        self.assertEqual(got["a"]["s"], 10.0)  # the inner a is not counted again
        self.assertEqual(got["a"]["self_s"], (10 - 3 - 1 - 2) + 2)
        self.assertEqual(got["b"]["s"], 4.0)
        self.assertEqual(got["b"]["self_s"], (3 - 1) + 1)
        self.assertEqual(got["c"]["self_s"], 1.0)

    def test_overlapping_children_are_covered_once(self):
        self.assertEqual(_self_time(0.0, 10.0, [(1, 4), (3, 6), (9, 12)]), 4.0)

    def test_tags_and_derived_metrics(self):
        spans = [
            ["etale.is_square", 0.0, 2.0, -1, "square"],
            ["etale.is_square", 2.0, 3.0, -1, "non_square"],
            ["etale.is_square", 3.0, 4.0, -1, "unknown"],
            ["arith.factor", 4.0, 5.0, -1, 10],
            ["arith.factor", 5.0, 6.0, -1, 30],
        ]
        totals = {}
        merge(totals, aggregate(spans))
        merge(totals, aggregate(spans[:1]))
        m = run.layer_metrics(totals)
        self.assertEqual(m["etale.is_square.calls"], 4)
        self.assertEqual(m["etale.is_square.square.calls"], 2)
        self.assertEqual(m["etale.is_square.square.s"], 4.0)
        self.assertEqual(m["etale.is_square.unknown.calls"], 1)
        self.assertEqual(m["etale.is_square.decided_ratio"], 3 / 4)
        self.assertEqual(m["arith.factor.input_bits"], 20.0)
        self.assertEqual(m["family.verify_instance.calls"], 0)


class OracleTest(unittest.TestCase):
    CERT = {"kind": "non_square", "p": 13, "component": 0, "root": 3, "value": 8}

    def membership_out(self, verdict, cert):
        return json.dumps({"verdict": verdict, "certificate": cert})

    def test_membership_verdicts(self):
        self.assertTrue(O.check_membership(0, self.membership_out("not_in_image", self.CERT), 1).ok)
        self.assertTrue(O.check_membership(0, self.membership_out("in_image", None), 2).ok)
        flipped = O.check_membership(0, self.membership_out("in_image", None), 1)
        self.assertFalse(flipped.ok)
        self.assertFalse(O.check_membership(0, self.membership_out("not_in_image", self.CERT), 2).ok)
        self.assertFalse(O.check_membership(2, self.membership_out("not_in_image", self.CERT), 1).ok)

    def test_bad_certificates(self):
        for key, value in (("value", 9), ("root", 5), ("p", 15), ("component", 1)):
            cert = dict(self.CERT, **{key: value})
            got = O.check_membership(0, self.membership_out("not_in_image", cert), 1)
            self.assertFalse(got.ok, cert)
            self.assertEqual(got.instances, 0)

    def test_mordell_table(self):
        self.assertEqual(O.mordell_torsion_order(1), 6)
        self.assertEqual(O.mordell_torsion_order(-432), 3)
        self.assertEqual(O.mordell_torsion_order(12345**2), 3)
        self.assertEqual(O.mordell_torsion_order(-(12345**2)), 1)
        self.assertEqual(O.mordell_torsion_order(-(1001**3)), 2)
        self.assertEqual(O.mordell_torsion_order(10**8 + 7), 1)

    def test_torsion_bound_on_tate_curves(self):
        for n in range(4, 10):
            c, (x, y) = O.tate_curve(n, W.TATE_T)
            c, pt = O.translate(c, -5), (x + 5, y)
            self.assertEqual(O.torsion_bound(c) % n, 0)
            self.assertEqual(O.point_mul(c, n, pt), None)
            self.assertNotEqual(O.point_mul(c, n - 1, pt), None)

    def test_family_primes(self):
        self.assertEqual(O.family_primes(3, 5, 5, 10**6)[:1], [229])


class ReducedPassTest(unittest.TestCase):
    """Reduced passes against the real CLI: every answer must check out."""

    @classmethod
    def setUpClass(cls):
        (run.BENCH / ".work").mkdir(exist_ok=True)
        cls.work = Path(tempfile.mkdtemp(dir=run.BENCH / ".work"))
        cls.runner = run.Runner(cls.work, time.perf_counter() + 600)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def assert_pass_ok(self, cmds, traced=False):
        outcomes, spans = self.runner.run_pass(cmds, traced)
        self.assertEqual(len(outcomes), len(cmds))
        for cmd, o in zip(cmds, outcomes):
            self.assertTrue(o.ok, f"{cmd.args}: {o.reason}")
        return outcomes, spans

    def test_example(self):
        self.assert_pass_ok(W.example(random.Random(1)))

    def test_family(self):
        cmds = W.family(random.Random(1), small_count=3, large_count=1)
        outcomes, _ = self.assert_pass_ok(cmds)
        self.assertEqual(sum(o.instances for o in outcomes), 4)

    def test_queries(self):
        rng = random.Random(1)
        cmds = [W.membership(n) for n in (1, 2)]
        cmds += [W.torsion_tate(n, W.TATE_T, 7) for n in range(4, 10)]
        cmds += [W.torsion_mordell(k, 3) for k in W.mordell_ks(rng)]
        self.assert_pass_ok(cmds)

    def test_traced_pass_wraps_functions_bound_by_name(self):
        _, spans = self.assert_pass_ok([W.torsion_mordell(10**8 + 7, 0), W.membership(2)], True)
        m = run.layer_metrics(spans)
        self.assertGreater(m["cli.import.s"], 0)
        # ellcurve binds factor by name: its calls must still be counted
        self.assertGreater(m["arith.factor.calls"], 0)
        self.assertEqual(m["ellcurve.torsion_subgroup.calls"], 1)
        self.assertEqual(m["etale.is_square.square.calls"], 1)

    def test_tampered_output_counts_as_failed(self):
        # the input is 1.(-2, 1) but the oracle is told n = 2: the CLI's true
        # answer now reads as a flipped verdict
        good = W.membership(1)
        bad = W.Command(good.kind, good.args, good.inputs, {"n": 2})
        m = run.Measurement([good, bad], [[], []], setup=[0.1], ref=[run.REF_S])
        for _ in range(2):
            for runs, o in zip(m.runs, self.runner.run_pass(m.pool, traced=False)[0]):
                runs.append(o)
        self.assertEqual([[o.ok for o in runs] for runs in m.runs], [[True] * 2, [False] * 2])
        self.assertIn("expected in_image", m.runs[1][0].reason)
        best = [min(o.wall_s for o in runs) for runs in m.runs]
        values = run.end_to_end(m)
        self.assertAlmostEqual(values["wall_s"], sum(best))
        self.assertAlmostEqual(values["cmds_per_s"], 1 / sum(best))

    def test_hung_command_is_killed(self):
        argv = [sys.executable, "-c", "import time; time.sleep(60)"]
        rc, _, wall, _ = run.spawn(argv, self.work, self.runner.env, 0.5)
        self.assertEqual(rc, -9)
        self.assertLess(wall, 10)

    def test_tampered_family_certificate(self):
        cmd = W.family_run(3, 5, 2, 10**6)
        rc, out, _, _ = run.spawn(
            [sys.executable, "-m", "mwglue.cli", *cmd.args], self.work, self.runner.env, 60
        )
        self.assertTrue(cmd.check(rc, out).ok)
        data = json.loads(out)
        data["instances"][0]["obstruction"]["certificate"] = [{"component": 0, "prime": 3}]
        self.assertFalse(cmd.check(rc, json.dumps(data)).ok)
        data = json.loads(out)
        data["instances"][1]["passed"] = False
        self.assertFalse(cmd.check(rc, json.dumps(data)).ok)


class ContractTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(W.WORKLOADS))

    def test_same_seed_same_inputs(self):
        for name, make in W.WORKLOADS.items():
            self.assertEqual(make(random.Random(f"{name}/7")), make(random.Random(f"{name}/7")))

    def test_percentile(self):
        self.assertEqual(run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            ignore = shutil.ignore_patterns(".*", "__pycache__")
            shutil.copytree(run.BENCH, Path(tmp) / "bench", ignore=ignore)
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "example", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
