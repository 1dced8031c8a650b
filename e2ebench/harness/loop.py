"""Closed-loop client for a line-protocol server (`svsim serve`).

One thread plays `cap` clients: each client sends a job, waits for its own
result line, then sends its next job, so at most `cap` jobs are ever
outstanding. Results arrive in completion order and are matched by id."""
import os
import re
import select
import time

_ID = re.compile(r'"id":\s*"([^"]*)"')


def line_id(line):
    """The job id of a result line, read without parsing the whole line."""
    m = _ID.search(line, 0, 200)
    return m.group(1) if m else None


class LineChannel:
    """Writes job lines to a child's stdin and reads result lines from its
    stdout without blocking on partial lines."""

    def __init__(self, proc):
        self.proc = proc
        self.out_fd = proc.stdout.fileno()
        self.buf = b""
        self.eof = False

    def send(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def lines(self, timeout):
        """Complete lines available within `timeout` seconds."""
        if not self.eof:
            ready, _, _ = select.select([self.out_fd], [], [], timeout)
            if ready:
                chunk = os.read(self.out_fd, 1 << 20)
                if chunk:
                    self.buf += chunk
                else:
                    self.eof = True
        *done, self.buf = self.buf.split(b"\n")
        return [d.decode() for d in done]

    def close_input(self):
        self.proc.stdin.close()

    def drain(self, timeout=120.0):
        """Everything the child prints until it closes stdout."""
        out, deadline = [], time.monotonic() + timeout
        while not self.eof and time.monotonic() < deadline:
            out += self.lines(0.5)
        if self.buf:
            out.append(self.buf.decode())
            self.buf = b""
        return out


def request(chan, line, job_id, timeout=60.0):
    """Sends one job and waits for its result line (used for warm-up)."""
    chan.send(line)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for got in chan.lines(0.5):
            if line_id(got) == job_id:
                return got
        if chan.eof:
            break
    raise RuntimeError("no answer to %s" % job_id)


def closed_loop(chan, jobs, cap, seconds, line_of, whole=1):
    """Runs the closed loop for `seconds`, and past them until the number of
    jobs sent is a multiple of `whole` (so a run covers whole cycles of a
    job deck, the same work for every seed), then waits for the jobs still
    out.

    Returns (records, stats): one record per job sent — job, result line,
    send and receive times — and the loop's own accounting, including the
    highest number of jobs it ever had outstanding."""
    outstanding = {}
    records = []
    max_out = 0
    start = time.perf_counter()
    deadline = start + seconds

    def send_next():
        nonlocal max_out
        job = next(jobs)
        line = line_of(job)
        rec = {"job": job, "line": None, "sent": time.perf_counter()}
        outstanding[job["id"]] = rec
        max_out = max(max_out, len(outstanding))
        assert len(outstanding) <= cap
        chan.send(line)
        records.append(rec)

    for _ in range(cap):
        send_next()
    while outstanding:
        got = chan.lines(1.0)
        now = time.perf_counter()
        for line in got:
            rid = line_id(line)
            rec = outstanding.pop(rid, None)
            if rec is None:
                raise RuntimeError("result for unknown job %r" % rid)
            rec["line"], rec["received"] = line, now
            if now < deadline or len(records) % whole:
                send_next()
        if chan.eof and outstanding:
            raise RuntimeError("server closed with %d jobs outstanding"
                               % len(outstanding))
        if not got and now > deadline + 120:
            raise RuntimeError("server stopped answering")
    return records, {"max_outstanding": max_out, "start": start}
