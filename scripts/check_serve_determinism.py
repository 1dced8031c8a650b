#!/usr/bin/env python3
"""Check that noisy `svsim serve` results do not depend on the pool size.

Usage:
  check_serve_determinism.py --emit-with PATH/TO/svsim

Drives one canned noisy session through `svsim serve --threads 1` (one
worker on the whole-machine pool) and `svsim serve --threads 2` (two
workers, each on its own slice of the pool), then requires every job to
come back ok, as trajectories, with the same counts in both runs. The
session holds states on both sides of the fork crossover
(common/threading.hpp): 10-12 qubit jobs whose reductions run inline, and
a 17-qubit damping job whose measurement and damping reductions fork on
any pool of two threads or more. Trajectory i is seeded by its global
index and the fixed-chunk reductions sum in one order, so the histograms
must be identical, not merely close. Exits nonzero naming the first job
that differs.
"""

import argparse
import json
import subprocess
import sys

SESSION_JOBS = [
    {"id": "damp-qft10", "qft": 10, "shots": 64, "options": {"seed": 3},
     "noise": {"amplitude_damping": 0.02}},
    {"id": "depol-qv12", "qv": [12, 4, 7], "shots": 32,
     "options": {"seed": 5}, "noise": {"depolarizing": 0.01}},
    {"id": "flip-fused-qft6", "qft": 6, "shots": 128,
     "options": {"seed": 9, "fusion": True, "fusion_width": 4},
     "noise": {"bit_flip": 0.05}},
    {"id": "damp-blocked-qft8", "qft": 8, "shots": 64,
     "options": {"seed": 2, "blocked": True},
     "noise": {"amplitude_damping": 0.05, "readout": [0.02, 0.03]}},
    {"id": "damp-qft17", "qft": 17, "shots": 4, "options": {"seed": 1},
     "noise": {"amplitude_damping": 0.01}},
]


def fail(msg):
    print(f"check_serve_determinism: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_session(svsim, threads):
    stdin = "".join(json.dumps(job) + "\n" for job in SESSION_JOBS)
    cmd = [svsim, "serve", "--threads", str(threads)]
    result = subprocess.run(cmd, input=stdin, capture_output=True, text=True)
    if result.returncode != 0:
        fail(f"'{' '.join(cmd)}' exited {result.returncode}:\n"
             f"{result.stderr}")
    counts = {}
    for line in result.stdout.splitlines():
        rec = json.loads(line)
        if rec.get("type") != "result":
            continue
        where = f"--threads {threads}, job {rec.get('id')!r}"
        if not rec.get("ok"):
            fail(f"{where} failed: {rec.get('error')}")
        if rec.get("mode") != "trajectory":
            fail(f"{where} ran as {rec.get('mode')!r}, not trajectory")
        counts[rec["id"]] = rec["counts"]
    want = {job["id"] for job in SESSION_JOBS}
    if set(counts) != want:
        fail(f"--threads {threads} returned results for {sorted(counts)}, "
             f"expected {sorted(want)}")
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--emit-with", required=True,
                        help="path to the svsim binary")
    args = parser.parse_args()
    one = run_session(args.emit_with, 1)
    two = run_session(args.emit_with, 2)
    for job in SESSION_JOBS:
        jid = job["id"]
        if one[jid] != two[jid]:
            fail(f"job {jid!r}: counts differ between --threads 1 and 2:\n"
                 f"  1: {json.dumps(one[jid], sort_keys=True)}\n"
                 f"  2: {json.dumps(two[jid], sort_keys=True)}")
    print(f"check_serve_determinism: OK: {len(SESSION_JOBS)} noisy jobs, "
          "identical counts at --threads 1 and 2")


if __name__ == "__main__":
    main()
