"""Self-tests of the benchmark harness (no svsim build needed):

  python3 -m unittest discover -s e2ebench/tests
"""
import itertools
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from harness import check, gen, stats  # noqa: E402
from harness.loop import LineChannel, closed_loop  # noqa: E402


def result_line(job, counts, mode="sampled", precision="f64"):
    return json.dumps({"type": "result", "id": job["id"], "ok": True,
                       "shots": job["shots"], "counts": counts, "mode": mode,
                       "precision": precision, "timing": {}})


class CheckerTest(unittest.TestCase):
    job = {"id": "j1", "qft": 2, "shots": 8}
    counts = {"00": 3, "01": 1, "10": 2, "11": 2}
    ref = {"mode": "sampled", "precision": "f64", "width": 2,
           "kind": "exact", "counts": counts}

    def verdict(self, line, ref=None):
        return check.check_serve_line(self.job, line, ref or self.ref)

    def test_accepts_matching_result(self):
        self.assertEqual(self.verdict(result_line(self.job, self.counts)),
                         (True, ""))

    def test_flags_corrupted_counts_line(self):
        good = result_line(self.job, self.counts)
        corrupted = [
            good[: len(good) // 2],                       # truncated line
            good.replace('"01": 1', '"01": 2'),           # sum != shots
            good.replace('"01": 1', '"0x": 1'),           # bad bitstring
            result_line(self.job, {"00": 4, "01": 0, "10": 2, "11": 2}),
            result_line(self.job, {"00": 2, "01": 2, "10": 2, "11": 2}),
        ]
        for line in corrupted:
            passed, why = self.verdict(line)
            self.assertFalse(passed, line)
            self.assertTrue(why)

    def test_flags_wrong_mode(self):
        passed, why = self.verdict(
            result_line(self.job, self.counts, mode="trajectory"))
        self.assertFalse(passed)
        self.assertIn("mode", why)

    def test_flags_error_results(self):
        line = json.dumps({"type": "result", "id": "j1", "ok": False,
                           "error": {"code": "job_failed"}})
        self.assertEqual(self.verdict(line), (False, "job failed: job_failed"))

    def test_marginal_tolerance(self):
        ref = dict(self.ref, kind="marginals", p1=[0.5, 0.5])
        job = dict(self.job, shots=1000)
        fair = {"00": 250, "01": 250, "10": 250, "11": 250}
        skewed = {"00": 100, "01": 400, "10": 100, "11": 400}  # bit 0: 800/1000
        self.assertTrue(check.check_serve_line(
            job, result_line(job, fair), ref)[0])
        self.assertFalse(check.check_serve_line(
            job, result_line(job, skewed), ref)[0])

    def test_ghz_run_output(self):
        n, shots = 5, 1000
        ok = "00000 : 510\n11111 : 490\n"
        self.assertTrue(check.check_run_output(ok, n, shots)[0])
        self.assertFalse(check.check_run_output(
            "00000 : 509\n11111 : 490\n00001 : 1\n", n, shots)[0])
        self.assertFalse(check.check_run_output(
            "00000 : 900\n11111 : 100\n", n, shots)[0])
        self.assertFalse(check.check_run_output("garbage\n", n, shots)[0])


class TailTest(unittest.TestCase):
    def test_percentile_chosen_for_sample_count(self):
        cases = {10000: 99, 1000: 99, 999: 90, 100: 90, 99: 75, 40: 75,
                 39: 50, 20: 50, 19: None, 1: None}
        for n, p in cases.items():
            self.assertEqual(stats.tail_percentile(n), p, n)
            if p is not None:
                self.assertGreaterEqual(stats.beyond(n, p), 10)

    def test_every_higher_rung_has_too_few_samples_beyond(self):
        for n in range(1, 2000):
            p = stats.tail_percentile(n)
            higher = [q for q in stats.TAIL_LADDER if p is None or q > p]
            for q in higher:
                self.assertLess(stats.beyond(n, q), 10, (n, q))

    def test_percentile(self):
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)
        self.assertEqual(stats.percentile([5, 1, 3], 50), 3)

    def test_sliced_tail_ignores_a_slow_stretch(self):
        self.assertEqual([stats.slice_len(p) for p in stats.TAIL_LADDER],
                         [1000, 100, 40, 20])
        fast = list(range(1, 41)) * 4
        slow = [x * 10 for x in range(1, 41)]
        self.assertEqual(stats.sliced_tail(fast + slow, 75), ("p75", 30, 5))
        self.assertEqual(stats.sliced_tail(fast[:7], 75), ("p75", 6, 1))

    def test_median_rate_over_rounds(self):
        # Rounds of two completions: 2 in 2 s, 2 in 1 s, then 2 in 8 s.
        done = [(1, 1), (2, 1), (2.5, 1), (3, 1), (4, 1), (11, 1), (12, 1)]
        self.assertEqual(stats.median_rate(done, 0, 2), 1.0)
        # A failed job (amount 0) counts for nothing: 1 in 2 s, 2, 2 in 8 s.
        done[1] = (2, 0)
        self.assertEqual(stats.median_rate(done, 0, 2), 0.5)


class ClosedLoopTest(unittest.TestCase):
    def test_never_exceeds_outstanding_cap(self):
        for cap in (1, 3):
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "fake_serve.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            chan = LineChannel(proc)
            jobs = ({"id": "j%d" % i} for i in itertools.count())
            records, st = closed_loop(chan, jobs, cap, 0.5, json.dumps)
            chan.close_input()
            summary = json.loads(chan.drain()[-1])
            proc.wait()
            self.assertEqual(st["max_outstanding"], cap)
            self.assertLessEqual(summary["peak_inflight"], cap)
            self.assertGreater(len(records), 20)
            self.assertTrue(all(r["line"] for r in records))
            self.assertTrue(all(r["received"] >= r["sent"] for r in records))

    def test_runs_whole_cycles(self):
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "fake_serve.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        chan = LineChannel(proc)
        jobs = ({"id": "j%d" % i} for i in itertools.count())
        records, st = closed_loop(chan, jobs, 2, 0.3, json.dumps, whole=17)
        chan.close_input()
        chan.drain()
        proc.wait()
        self.assertEqual(len(records) % 17, 0)
        self.assertLessEqual(st["max_outstanding"], 2)


class GeneratorTest(unittest.TestCase):
    def take(self, stream, seed, n=300):
        return [gen.job_line(j) for j in itertools.islice(stream(seed), n)]

    def test_deterministic_per_seed(self):
        for stream in (gen.small_stream, gen.noisy_stream):
            self.assertEqual(self.take(stream, 7), self.take(stream, 7))
            self.assertNotEqual(self.take(stream, 7), self.take(stream, 8))
        self.assertEqual(gen.companions(3, True, True),
                         gen.companions(3, True, True))
        self.assertEqual(list(itertools.islice(gen.run_seeds(4), 5)),
                         list(itertools.islice(gen.run_seeds(4), 5)))

    def test_small_mix(self):
        jobs = list(itertools.islice(gen.small_stream(3), 540))
        fresh = [j for j in jobs if "qv" in j and j["qv"][1] == 4
                 and j["qv"][0] in (8, 10)]
        self.assertEqual(len(fresh), 60)  # one in nine misses the cache
        self.assertEqual(len({gen.without_id(j) for j in jobs}), 48 + 60)
        self.assertTrue(any(j["options"].get("ranks") == 4 for j in jobs))

    def test_noisy_jobs_all_carry_noise(self):
        jobs = list(itertools.islice(gen.noisy_stream(11), 64))
        self.assertTrue(all(j.get("noise") for j in jobs))
        self.assertEqual(len({gen.without_id(j) for j in jobs}), 16)

    def test_leak_jobs_differ_only_in_noise(self):
        clean, noisy = gen.leak_jobs()
        self.assertNotIn("noise", clean)
        self.assertTrue(noisy["noise"])
        strip = lambda j: {k: v for k, v in j.items()
                           if k not in ("id", "noise")}
        self.assertEqual(strip(clean), strip(noisy))

    def test_same_work_for_every_seed(self):
        def work(stream, seed, n):
            """The job mix with seeds (sampling and QV circuit) taken out."""
            out = []
            for j in itertools.islice(stream(seed), n):
                j = json.loads(gen.without_id(j))
                j.get("options", {}).pop("seed", None)
                if "qv" in j:
                    j["qv"] = j["qv"][:2]
                out.append(gen.job_line(j))
            return sorted(out)
        self.assertEqual(work(gen.small_stream, 1, 54 * 4),
                         work(gen.small_stream, 2, 54 * 4))
        self.assertEqual(work(gen.noisy_stream, 1, 16 * 4),
                         work(gen.noisy_stream, 2, 16 * 4))


if __name__ == "__main__":
    unittest.main()
