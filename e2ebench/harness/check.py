"""Result checker. Every result the benchmark receives passes through here;
a job counts as passed only if every check holds.

Tolerance of the distribution checks: a per-bit binomial z-test,
|k - s p| <= Z_TOL * sqrt(s p (1 - p)) + 1, for each classical bit, where
k is the count of ones, s the shots and p the exact probability."""
import json
import math

Z_TOL = 5.0


def _fail(reason):
    return False, reason


def _counts_ok(counts, width, shots):
    if not isinstance(counts, dict) or not counts:
        return "counts missing"
    total = 0
    for bits, c in counts.items():
        if len(bits) != width or set(bits) - {"0", "1"}:
            return "bad bitstring %r" % bits
        if not isinstance(c, int) or isinstance(c, bool) or c <= 0:
            return "bad count %r" % (c,)
        total += c
    if total != shots:
        return "counts sum to %d, not %d shots" % (total, shots)
    return None


def marginal_z(counts, width, shots, p1):
    """Largest normalized deviation of the per-bit one-counts from p1
    (p1[c] = P(classical bit c reads 1); labels are MSB first)."""
    worst = 0.0
    for c in range(width):
        k = sum(v for bits, v in counts.items() if bits[width - 1 - c] == "1")
        p = p1[c]
        dev = abs(k - shots * p) - 1.0
        sd = math.sqrt(max(shots * p * (1.0 - p), 0.0))
        if dev > 0:
            worst = max(worst, dev / sd if sd > 0 else math.inf)
    return worst


def check_marginals(counts, width, shots, p1):
    z = marginal_z(counts, width, shots, p1)
    if z > Z_TOL:
        return _fail("marginal off by %.1f sigma" % z)
    return True, ""


def check_ghz(counts, width, shots):
    """Only all-zeros and all-ones, each within the binomial bound."""
    err = _counts_ok(counts, width, shots)
    if err:
        return _fail(err)
    allowed = {"0" * width, "1" * width}
    extra = set(counts) - allowed
    if extra:
        return _fail("non-GHZ outcome %s" % sorted(extra)[0])
    bound = Z_TOL * math.sqrt(shots / 4.0) + 1.0
    for bits in allowed:
        if abs(counts.get(bits, 0) - shots / 2.0) > bound:
            return _fail("GHZ branch %s off balance" % bits[:4])
    return True, ""


def check_serve_line(job, line, ref):
    """Checks one raw result line against the job that produced it and the
    reference from the probe. Returns (passed, reason)."""
    try:
        r = json.loads(line)
    except (ValueError, TypeError):
        return _fail("unparseable result line")
    if not isinstance(r, dict) or r.get("type") != "result":
        return _fail("not a result line")
    if r.get("id") != job["id"]:
        return _fail("id mismatch")
    if r.get("ok") is not True:
        code = (r.get("error") or {}).get("code", "?")
        return _fail("job failed: %s" % code)
    shots = job.get("shots", 1024)
    if r.get("shots") != shots:
        return _fail("shots mismatch")
    err = _counts_ok(r.get("counts"), ref["width"], shots)
    if err:
        return _fail(err)
    if r.get("mode") != ref["mode"]:
        return _fail("mode %s, expected %s" % (r.get("mode"), ref["mode"]))
    if r.get("precision") != ref["precision"]:
        return _fail("precision mismatch")
    if ref["kind"] == "exact":
        if r["counts"] != ref["counts"]:
            return _fail("counts differ from the reference")
        return True, ""
    return check_marginals(r["counts"], ref["width"], shots, ref["p1"])


def parse_run_output(text):
    """`svsim run` prints one "<bits> : <count>" line per outcome."""
    counts = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        bits, sep, c = line.partition(" : ")
        if not sep:
            raise ValueError("unexpected run output %r" % line[:40])
        counts[bits] = int(c)
    return counts


def check_run_output(text, width, shots):
    """A run of the GHZ circuit prints its histogram."""
    try:
        counts = parse_run_output(text)
    except ValueError as e:
        return _fail(str(e))
    return check_ghz(counts, width, shots)
