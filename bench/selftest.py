"""Self-tests of the benchmark; `python3 bench/selftest.py` runs them in seconds.

They cover self-time subtraction, output normalisation and failure
counting, and a smoke sweep (zudilin-1.2 at p = 5, 7) through both the
child-process and the traced in-process paths.
"""

from __future__ import annotations

import json
import unittest

import run
from spans import Tracer, patched, self_times

SMOKE_ARGV = ["verify", "--format", "json", "--id", "zudilin-1.2", "--primes", "5,7"]


class SelfTime(unittest.TestCase):
    def test_nested_spans_subtract_direct_children_only(self):
        ticks = iter(range(100))
        t = Tracer(clock=lambda: next(ticks))
        leaf = t.span("leaf", lambda: None)
        inner = t.span("inner", lambda: leaf())
        outer = t.span("outer", lambda: (inner(), inner()))
        outer()
        # outer 0..9, inner 1..4 and 5..8, leaf 2..3 and 6..7
        self.assertEqual(self_times(t.spans), {"outer": 3, "inner": 4, "leaf": 2})
        self.assertEqual(t.counts["inner.calls"], 2)

    def test_span_closes_when_the_call_raises(self):
        ticks = iter(range(100))
        t = Tracer(clock=lambda: next(ticks))

        def boom():
            raise ValueError

        wrapped = t.span("boom", boom)
        with self.assertRaises(ValueError):
            wrapped()
        self.assertEqual(t.spans, [("boom", 0, 1, -1)])
        self.assertEqual(t._stack, [])

    def test_extra_count_sees_arguments_and_result(self):
        t = Tracer()
        double = t.span("double", lambda n: 2 * n, ("units", lambda a, r: a[0] + r))
        double(3)
        double(4)
        self.assertEqual(t.counts["double.units"], 3 + 6 + 4 + 8)

    def test_patched_restores_after_an_error(self):
        class Owner:
            attr = "original"

        with self.assertRaises(KeyError), patched([(Owner, "attr", "patched")]):
            self.assertEqual(Owner.attr, "patched")
            raise KeyError
        self.assertEqual(Owner.attr, "original")


def _line(holds=True, elapsed=1.0, p=5):
    rec = {"id": "x", "p": p, "params": {}, "modulus": "125", "lhs": "1",
           "rhs": "1", "holds": holds, "elapsed_ms": elapsed}
    return json.dumps(rec) + "\n"


class Checking(unittest.TestCase):
    def test_digest_ignores_elapsed_ms_only(self):
        a = run.parse_records((_line(elapsed=1.5) + _line(p=7)).encode())
        b = run.parse_records((_line(elapsed=9.25) + _line(p=7, elapsed=3)).encode())
        c = run.parse_records((_line() + _line(p=11)).encode())
        self.assertNotIn("elapsed_ms", a[0])
        self.assertEqual(run.digest(a), run.digest(b))
        self.assertNotEqual(run.digest(a), run.digest(c))

    def test_unreadable_output_is_none(self):
        self.assertIsNone(run.parse_records(b"ok  zudilin-1.2 p=5\n"))
        self.assertEqual(run.parse_records(b""), [])

    def test_failed_reports(self):
        good = run.parse_records((_line() + _line(p=7)).encode())
        gold = run.digest(good)
        self.assertEqual(run.count_bad(0, good, 2, gold), 0)
        self.assertEqual(run.count_bad(0, good, 2, None), 0)
        self.assertEqual(run.count_bad(1, good, 2, gold), 2)  # nonzero exit
        self.assertEqual(run.count_bad(0, None, 2, None), 2)  # unreadable
        self.assertEqual(run.count_bad(0, good[:1], 2, None), 1)  # missing
        self.assertEqual(run.count_bad(0, good * 2, 2, None), 2)  # extra, capped
        violated = run.parse_records((_line() + _line(holds=False)).encode())
        self.assertEqual(run.count_bad(0, violated, 2, None), 1)
        self.assertEqual(run.count_bad(0, violated, 2, gold), 2)  # digest differs

    def test_golden_covers_every_workload(self):
        golden = json.loads(run.GOLDEN.read_text())
        self.assertEqual(set(golden), set(run.WORKLOADS))
        for entry in golden.values():
            self.assertEqual(set(entry["sha256"]), {str(s) for s in run.GOLDEN_SEEDS})


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.sc = run.import_program()

    def test_child_sweep(self):
        code, out, wall, usage = run.run_child(["-m", "supercon", *SMOKE_ARGV])
        records = run.parse_records(out)
        self.assertEqual(code, 0)
        self.assertEqual([r["p"] for r in records], [5, 7])
        self.assertEqual(run.count_bad(code, records, 2, None), 0)
        self.assertGreater(wall, 0)
        self.assertGreater(usage.ru_maxrss, 0)

    def test_traced_pass_matches_untraced_and_names_every_metric(self):
        untraced = run.run_pass(self.sc, SMOKE_ARGV)
        traced = run.run_pass(self.sc, SMOKE_ARGV, Tracer())
        counted = run.run_pass(self.sc, SMOKE_ARGV, Tracer(), arith=True)
        self.assertEqual(untraced.records, traced.records)
        self.assertEqual(untraced.oracle, 2)
        counts = counted.tracer.counts
        self.assertEqual(counts["congruences.zudilin-1.2.calls"], 2)
        self.assertEqual(counts["hyper.pfq_mod.calls"], 2)
        self.assertEqual(counts["hyper.pfq_mod.terms"], 2 + 3)
        self.assertGreater(counts["arith.padic_mul"], 0)
        self.assertGreater(counts["arith.reduce_mod.calls"], 0)
        for key, value in traced.tracer.counts.items():
            self.assertEqual(counts[key], value)

        metrics = run.layer_metrics([untraced], [traced], [counted], 1.0)
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {(m["name"], m["unit"]) for m in spec["per_layer"]},
            {(k, unit) for k, (_, unit) in metrics.items()},
        )
        self.assertEqual(metrics["congruences.zudilin-1.2.reports"][0], 2)
        self.assertEqual(metrics["congruences.oracle_compares"][0], 2)

        passes = [untraced], [traced], [counted]
        covered = run.Workload("zudilin-1.2", "5,7", 1, ("hyper.pfq_mod",))
        self.assertEqual(run.trace_problems(covered, *passes), [])
        # The smoke sweep never reaches Gamma, so a workload said to
        # exercise it must fail the coverage guard.
        problems = run.trace_problems(run.WORKLOADS["gamma-hi"], *passes)
        self.assertIn("span gamma.batch recorded no calls", problems)

    def test_oracle_global_stays_in_pool_workers(self):
        # Under --jobs N the comparisons happen in the workers, so the
        # in-process global does not move; the reports still count them.
        pooled = run.run_pass(self.sc, [*SMOKE_ARGV, "--jobs", "2"])
        series = [r for r in pooled.records if r["id"] in run.SERIES_IDS]
        self.assertEqual(len(series), 2)
        if pooled.oracle is not None:
            self.assertEqual(pooled.oracle, 0)


if __name__ == "__main__":
    unittest.main()
