"""Stand-in for `svsim serve` in the closed-loop test: answers every job line
after a random delay, several at a time, and reports in its summary line the
most jobs it ever held unanswered."""
import json
import random
import sys
import threading
import time

lock = threading.Lock()
inflight = 0
peak = 0


def answer(job_id, delay):
    global inflight
    time.sleep(delay)
    with lock:
        inflight -= 1
        sys.stdout.write(json.dumps({"type": "result", "id": job_id,
                                     "ok": True}) + "\n")
        sys.stdout.flush()


def main():
    global inflight, peak
    rng = random.Random(5)
    threads = []
    for line in sys.stdin:
        job = json.loads(line)
        with lock:
            inflight += 1
            peak = max(peak, inflight)
        t = threading.Thread(target=answer,
                             args=(job["id"], rng.uniform(0.0, 0.004)))
        t.start()
        threads.append(t)
    for t in threads:
        t.join()
    sys.stdout.write(json.dumps({"type": "summary", "peak_inflight": peak})
                     + "\n")


if __name__ == "__main__":
    main()
