#!/usr/bin/env python3
"""Validate a `svsim serve` session transcript against docs/SERVICE.md.

Usage:
  check_service_schema.py TRANSCRIPT.jsonl
  check_service_schema.py --emit-with PATH/TO/svsim [--output TRANSCRIPT.jsonl]
      [--threads N]

With --emit-with, a canned session is first driven through `svsim serve`:
the same QFT job twice (the second submission MUST be a plan-cache hit with
an identical histogram at the same seed), a noisy trajectory job, a
malformed line, and an over-cost job against a tight admission ceiling
(MUST come back `admission_rejected`). The captured transcript is then
validated line by line: every line is a well-formed JSON object, results
carry the counts/cache/admission/timing blocks with consistent types, shot
totals add up, cache attribution matches the summary's plan_cache block,
the summary's svc block accounts every job to a worker, and the summary
accounting (jobs = ok + errors) closes. Exits nonzero with a diagnostic on
the first violation.

Result lines are correlated by job id, never by position: with --threads N
(> 1) the serve loop runs N workers and emits results in completion order.
Concurrent workers may also both miss on the same plan (the "warm" job can
race "cold"), so the warm-submission-must-hit assertion is enforced only at
--threads 1; the bit-identical-histogram assertion holds at every worker
count.
"""

import argparse
import json
import subprocess
import sys

SESSION_JOBS = [
    {"id": "cold", "qft": 5, "shots": 128, "options": {"seed": 11}},
    {"id": "warm", "qft": 5, "shots": 128, "options": {"seed": 11}},
    {"id": "noisy", "qft": 3, "shots": 32, "options": {"seed": 7},
     "noise": {"depolarizing": 0.02, "readout": [0.01, 0.01]}},
    "this line is not JSON",
    {"id": "too-big", "qft": 16, "shots": 100000, "options": {"seed": 1},
     "noise": {"depolarizing": 0.01}},
]
ADMISSION_CEILING = "0.05"  # seconds; admits the small jobs, rejects too-big


def fail(msg):
    print(f"check_service_schema: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_result(i, rec):
    where = f"line {i + 1} (id={rec.get('id')!r})"
    for key, types in (("id", str), ("ok", bool), ("shots", int),
                       ("admission", dict), ("timing", dict)):
        if not isinstance(rec.get(key), types):
            fail(f"{where}: '{key}' must be {types.__name__}")
    timing = rec["timing"]
    for key in ("compile_seconds", "execute_seconds", "total_seconds"):
        if not isinstance(timing.get(key), (int, float)) or timing[key] < 0:
            fail(f"{where}: timing.{key} must be a non-negative number")
    admission = rec["admission"]
    for key in ("modeled_seconds", "limit_seconds"):
        if not isinstance(admission.get(key), (int, float)):
            fail(f"{where}: admission.{key} must be a number")

    if rec["ok"]:
        counts = rec.get("counts")
        if not isinstance(counts, dict) or not counts:
            fail(f"{where}: ok result needs a non-empty 'counts' object")
        total = 0
        for bits, n in counts.items():
            if not bits or set(bits) - {"0", "1"}:
                fail(f"{where}: counts key {bits!r} is not a bitstring")
            if not isinstance(n, int) or n <= 0:
                fail(f"{where}: counts[{bits!r}] must be a positive integer")
            total += n
        if total != rec["shots"]:
            fail(f"{where}: counts sum {total} != shots {rec['shots']}")
        if rec.get("mode") not in ("sampled", "trajectory"):
            fail(f"{where}: 'mode' must be sampled|trajectory")
        expected_execs = 1 if rec["mode"] == "sampled" else rec["shots"]
        if rec.get("executions") != expected_execs:
            fail(f"{where}: executions {rec.get('executions')} inconsistent "
                 f"with {rec['mode']} mode")
        for key in ("batches", "batch_size"):
            if not isinstance(rec.get(key), int) or rec[key] < 1:
                fail(f"{where}: '{key}' must be a positive integer")
    else:
        err = rec.get("error")
        if not isinstance(err, dict):
            fail(f"{where}: failed result needs an 'error' object")
        if err.get("code") not in ("bad_request", "admission_rejected",
                                   "job_failed"):
            fail(f"{where}: unknown error code {err.get('code')!r}")
        if not isinstance(err.get("message"), str) or not err["message"]:
            fail(f"{where}: error.message must be a non-empty string")

    cache = rec.get("cache")
    if cache is not None:
        for key, types in (("hit", bool), ("key", str), ("plan", str),
                           ("footprint_bytes", int)):
            if not isinstance(cache.get(key), types):
                fail(f"{where}: cache.{key} must be {types.__name__}")
        parts = cache["key"].split(".")
        if (len(parts) != 4
                or [p[0] for p in parts[:3]] != ["c", "m", "o"]
                or any(len(p) != 17 for p in parts[:3])
                or parts[3] not in ("s", "t")
                or ("mode" in rec
                    and (parts[3] == "s") != (rec["mode"] == "sampled"))):
            fail(f"{where}: cache.key {cache['key']!r} is not "
                 f"c<16hex>.m<16hex>.o<16hex>.<s|t> matching the mode")


def check_summary_svc(summary, jobs):
    svc = summary.get("svc")
    if not isinstance(svc, dict):
        fail("summary needs an 'svc' object")
    workers = svc.get("workers")
    if not isinstance(workers, int) or workers < 1:
        fail("summary: svc.workers must be a positive integer")
    worker_jobs = svc.get("worker_jobs")
    if (not isinstance(worker_jobs, list) or len(worker_jobs) != workers
            or any(not isinstance(j, int) or j < 0 for j in worker_jobs)):
        fail("summary: svc.worker_jobs must list one non-negative job "
             "count per worker")
    if sum(worker_jobs) != jobs:
        fail(f"summary: svc.worker_jobs sums to {sum(worker_jobs)}, "
             f"jobs says {jobs}")
    return workers


def check_transcript(path, expect_session, threads=1):
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(f"{path}: {e}")
    if not lines:
        fail("transcript is empty")
    records = []
    for i, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"line {i + 1} is not valid JSON: {e}")
        if not isinstance(rec, dict) or rec.get("type") not in ("result",
                                                                "summary"):
            fail(f"line {i + 1}: 'type' must be result|summary")
        records.append(rec)

    if records[-1]["type"] != "summary":
        fail("last line must be the summary record")
    results, summary = records[:-1], records[-1]
    if any(r["type"] != "result" for r in results):
        fail("summary must be the only non-result line, and come last")

    for i, rec in enumerate(results):
        check_result(i, rec)

    ok = [r for r in results if r["ok"]]
    errors = [r for r in results if not r["ok"]]
    cache = summary.get("plan_cache")
    if not isinstance(cache, dict):
        fail("summary needs a 'plan_cache' object")
    for key in ("hits", "misses", "evictions", "entries", "bytes",
                "budget_bytes"):
        if not isinstance(cache.get(key), int) or cache[key] < 0:
            fail(f"summary: plan_cache.{key} must be a non-negative integer")
    checks = {
        "jobs": len(results),
        "ok": len(ok),
        "errors": len(errors),
        "shots": sum(r["shots"] for r in ok),
    }
    for key, expected in checks.items():
        if summary.get(key) != expected:
            fail(f"summary: '{key}' = {summary.get(key)!r}, "
                 f"results say {expected}")
    workers = check_summary_svc(summary, len(results))
    if threads > 1 and workers != threads:
        fail(f"summary: svc.workers = {workers}, expected {threads}")
    hits = [r for r in results if (r.get("cache") or {}).get("hit")]
    misses = [r for r in results if r.get("cache")
              and not r["cache"]["hit"]]
    if cache["hits"] != len(hits) or cache["misses"] != len(misses):
        fail(f"summary plan_cache hits/misses ({cache['hits']}/"
             f"{cache['misses']}) disagree with per-result attribution "
             f"({len(hits)}/{len(misses)})")

    if expect_session:
        by_id = {r["id"]: r for r in results}
        for job_id in ("cold", "warm", "noisy", "too-big"):
            if job_id not in by_id:
                fail(f"canned session: result '{job_id}' missing")
        cold, warm = by_id["cold"], by_id["warm"]
        if threads <= 1:
            # Deterministic single-worker attribution. With concurrent
            # workers, cold and warm may race and both miss; the cache key,
            # plan, and histogram equalities below hold regardless.
            if cold["cache"]["hit"]:
                fail("canned session: first submission must be a cache miss")
            if not warm["cache"]["hit"]:
                fail("canned session: identical resubmission must be a "
                     "plan-cache hit")
            if warm["timing"]["compile_seconds"] != 0:
                fail("canned session: a cache hit must not recompile")
        if warm["cache"]["key"] != cold["cache"]["key"]:
            fail("canned session: identical jobs produced different keys")
        if warm["cache"]["plan"] != cold["cache"]["plan"]:
            fail("canned session: cache hit returned a different plan")
        if warm["counts"] != cold["counts"]:
            fail("canned session: same job + seed must reproduce the "
                 "histogram bit-for-bit")
        if by_id["noisy"]["mode"] != "trajectory":
            fail("canned session: the noisy job must run trajectories")
        too_big = by_id["too-big"]
        if too_big["ok"] or too_big["error"]["code"] != "admission_rejected":
            fail("canned session: the over-cost job must be rejected by "
                 "admission control")
        bad = [r for r in results if not r["ok"]
               and r["error"]["code"] == "bad_request"]
        if not bad:
            fail("canned session: the malformed line must yield bad_request")

    print(f"check_service_schema: OK: {len(results)} results "
          f"({len(ok)} ok, {len(errors)} errors), "
          f"plan cache {cache['hits']} hits / {cache['misses']} misses")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("transcript", nargs="?",
                        help="existing serve transcript to check")
    parser.add_argument("--emit-with", metavar="SVSIM",
                        help="svsim binary; drive the canned session first")
    parser.add_argument("--output", default="service_schema_check.jsonl",
                        help="where --emit-with writes the transcript")
    parser.add_argument("--threads", type=int, default=1,
                        help="serve worker count for --emit-with; > 1 "
                        "relaxes single-worker cache-hit attribution")
    args = parser.parse_args()
    if args.threads < 1:
        parser.error("--threads must be >= 1")

    if args.emit_with:
        path = args.output
        stdin = "\n".join(
            job if isinstance(job, str) else json.dumps(job)
            for job in SESSION_JOBS) + "\n"
        cmd = [args.emit_with, "serve", "--max-seconds", ADMISSION_CEILING,
               "--out", path]
        if args.threads > 1:
            cmd += ["--threads", str(args.threads)]
        result = subprocess.run(cmd, input=stdin, capture_output=True,
                                text=True)
        if result.returncode != 0:
            fail(f"'{' '.join(cmd)}' exited {result.returncode}:\n"
                 f"{result.stderr}")
        check_transcript(path, expect_session=True, threads=args.threads)
    elif args.transcript:
        check_transcript(args.transcript, expect_session=False,
                         threads=args.threads)
    else:
        parser.error("need a transcript file or --emit-with")


if __name__ == "__main__":
    main()
