"""Tests of the benchmark's own logic (no build, no processes).

    python3 -m unittest discover -s obsbench -p 'test_*.py'
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import workloads as w  # noqa: E402


def committed_reference(name):
    with open(os.path.join(HERE, "reference", f"{name}.json")) as f:
        return json.load(f)


def plant_digit(text):
    """Change the 8th decimal of the first full-precision number in `text`:
    a relative change near 1e-8, far outside the P4 tolerance."""
    for token in common._NUM.findall(text):
        if "." in token and len(token.split(".")[1]) > 12:
            k = token.index(".") + 8
            planted = token[:k] + ("1" if token[k] != "1" else "2") + token[k + 1:]
            return text.replace(token, planted, 1)
    raise AssertionError("no full-precision number to plant a digit in")


class TailPercentile(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        samples = list(range(1, 101))
        value, pct, n = common.tail(samples)
        self.assertEqual((value, pct, n), (90, 90, 100))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_highest_standard_percentile(self):
        for n, want in ((20, 50), (45, 75), (100, 90), (120, 90), (1000, 99), (4000, 99),
                        (4800, 99), (10000, 99.9)):
            self.assertEqual(common.tail_percentile(n), want, n)
            value, _, _ = common.tail(list(range(n)))
            self.assertGreaterEqual(sum(1 for s in range(n) if s > value), 10, n)

    def test_too_few_samples(self):
        self.assertIsNone(common.tail_percentile(19))
        with self.assertRaises(ValueError):
            common.tail(list(range(10)))

    def test_order_does_not_matter(self):
        self.assertEqual(common.tail([5, 1, 4, 2, 3] * 5), common.tail(sorted([5, 1, 4, 2, 3] * 5)))


class P4Comparator(unittest.TestCase):
    def test_rejects_1e_11(self):
        a = 0.11704810579168917
        self.assertFalse(common.p4_close(a, a * (1 + 1e-11)))
        ok, _ = common.compare_p4_text(f"value\n{a!r}\n", f"value\n{a * (1 + 1e-11)!r}\n")
        self.assertFalse(ok)

    def test_accepts_last_bit_differences(self):
        a = 0.11704810579168917
        b = a * (1 + 2e-16)
        self.assertNotEqual(repr(a), repr(b))
        ok, differ = common.compare_p4_text(f"value\n{a!r}\n", f"value\n{b!r}\n")
        self.assertTrue(ok)
        self.assertEqual(differ, 1)

    def test_text_must_match(self):
        ok, _ = common.compare_p4_text("s2/fd 0.5\n", "s2/nonfd 0.5\n")
        self.assertFalse(ok)

    def test_summary_rounding_one_unit(self):
        ok, _ = common.compare_p4_text("med=0.0453\n", "med=0.0454\n")
        self.assertTrue(ok)
        ok, _ = common.compare_p4_text("med=0.0453\n", "med=0.0455\n")
        self.assertFalse(ok)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        a = w_plan(7)
        b = w_plan(7)
        self.assertEqual(a, b)
        self.assertNotEqual(a, w_plan(8))
        self.assertEqual(common.job_plan(7), common.job_plan(7))
        self.assertNotEqual(common.job_plan(7), common.job_plan(8))

    def test_cold_never_repeats_a_table(self):
        for seed in range(5):
            cold, warm = common.embed_plan(seed, w.EMBED_COLD, w.EMBED_WORKING_SET, w.EMBED_WARM)
            self.assertEqual(len(cold), len(set(cold)))
            self.assertEqual(len({json.dumps(common.embed_table(i)) for i in cold}), len(cold))
            self.assertTrue(set(warm) <= set(cold))
            self.assertEqual(len(set(warm)), w.EMBED_WORKING_SET)

    def test_reference_covers_every_request(self):
        ref = committed_reference("embed_serve")
        self.assertEqual(set(ref), {f"t{i}" for i in range(common.EMBED_POOL)})
        jobs = committed_reference("analyze_jobs")
        for path, prop, model in common.job_plan(1):
            self.assertIn(w.job_key(path, prop, model), jobs)

    def test_jobs_plan_is_the_same_work_for_every_seed(self):
        self.assertEqual(sorted(common.job_plan(1)), sorted(common.job_plan(2)))
        self.assertEqual(len(common.job_plan(1)), 40 * common.JOB_ROUNDS)

    def test_grid_has_45_cells(self):
        self.assertEqual(len(common.grid_cells()), 45)


def w_plan(seed):
    cold, warm = common.embed_plan(seed, 50, 10, 100)
    return b"".join(common.embed_body(i) for i in cold + warm)


class PlantedMismatch(unittest.TestCase):
    def setUp(self):
        self.ref = committed_reference(f"paper_grid_p{w.GRID_PERMUTATIONS}")

    def test_reference_passes_unchanged(self):
        want = self.ref["cells"]["P4/bert"]
        problems, _ = w.compare_bundles_to_reference(dict(want), want, True)
        self.assertEqual(problems, [])

    def test_planted_digit_in_p4_reference_fails(self):
        want = copy.deepcopy(self.ref["cells"]["P4/bert"])
        got = dict(want)
        name = next(n for n in want if n.endswith(".csv"))
        want[name] = plant_digit(want[name])
        problems, _ = w.compare_bundles_to_reference(got, want, True)
        self.assertTrue(problems)

    def test_planted_digit_in_bitwise_reference_fails(self):
        bundle = {"P1_bert_x.csv": "value\n0.12345678901234567\n", "README.md": "# x\n"}
        want = w.bundle_reference(bundle, False)
        self.assertEqual(w.compare_bundles_to_reference(bundle, want, False)[0], [])
        planted = dict(bundle, **{"P1_bert_x.csv": plant_digit(bundle["P1_bert_x.csv"])})
        problems, _ = w.compare_bundles_to_reference(planted, want, False)
        self.assertTrue(problems)

    def test_check_grid_reports_planted_digit_and_empty_cells(self):
        p4 = {k: v for k, v in self.ref["cells"].items() if k.startswith("P4/")}
        ref = {"cells": p4, "empty_cells": ["P4/tapex"]}
        bundles = {"cold": copy.deepcopy(p4), "warm": copy.deepcopy(p4)}
        res = w.Result("paper_grid")
        w.check_grid(res, bundles, ref)
        self.assertEqual(res.problems, [])
        name = next(n for n in p4["P4/bert"] if n.endswith(".csv"))
        bundles["warm"]["P4/bert"][name] = plant_digit(p4["P4/bert"][name])
        res = w.Result("paper_grid")
        w.check_grid(res, bundles, ref)
        self.assertTrue(any("P4/bert" in p for p in res.problems))
        res = w.Result("paper_grid")
        w.check_grid(res, {"cold": p4, "warm": p4}, {"cells": p4, "empty_cells": []})
        self.assertTrue(any("empty cells" in p for p in res.problems))

    def test_planted_digit_in_job_reference_fails(self):
        jobs = committed_reference("analyze_jobs")
        key = next(k for k in jobs if "|P4|" in k)
        worker = w.JobWorker(0, {}, {key: plant_digit(jobs[key])}, False)
        self.assertIsNotNone(worker.check("cold", key, "P4", jobs[key]))
        worker = w.JobWorker(0, {}, {key: jobs[key]}, False)
        self.assertIsNone(worker.check("cold", key, "P4", jobs[key]))

    def test_job_result_body(self):
        record = b'{"job":"job-1","timings":{"run_us":5},"result":{"reports":[1]}}'
        self.assertEqual(w.job_result_body(record), '{"reports":[1]}')


if __name__ == "__main__":
    unittest.main()
