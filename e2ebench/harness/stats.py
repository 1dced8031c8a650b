"""Order statistics for the benchmark's latency and timing figures.

The host the benchmark runs on may slow down for seconds at a time, so the
throughput and tail figures are medians over stretches of a run: a slow
spell that covers less than half of the run does not move them."""
import math
import statistics

# Tail percentiles the benchmark may report, highest first.
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)
# A tail percentile needs at least this many samples ranked beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def beyond(n, p):
    """Samples ranked strictly above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n):
    """The highest ladder percentile with >= TAIL_MIN_BEYOND samples beyond
    it, or None when there are too few samples (the tail is then the max)."""
    for p in TAIL_LADDER:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None



def slice_len(p):
    """The fewest samples with TAIL_MIN_BEYOND of them beyond the p-th
    percentile."""
    n = 1
    while beyond(n, p) < TAIL_MIN_BEYOND:
        n += 1
    return n


def sliced_tail(values, p):
    """(label, value, slices): the median, over consecutive slices of
    slice_len(p) samples, of each slice's p-th percentile. With fewer
    samples than one slice, the p-th percentile of them all."""
    n = slice_len(p)
    parts = [values[i:i + n] for i in range(0, len(values) - n + 1, n)]
    if not parts:
        return "p%g" % p, percentile(values, p), 1
    return ("p%g" % p, statistics.median(percentile(x, p) for x in parts),
            len(parts))


def median_rate(done, start, per_round):
    """Median rate over rounds of `per_round` completions.

    `done` holds (time, amount) per completion; the run from `start` is cut
    at every per_round-th completion, and each round yields the amount
    completed in it over its duration. A trailing partial round is left
    out."""
    done = sorted(done)
    rates, t0 = [], start
    for i in range(per_round, len(done) + 1, per_round):
        chunk = done[i - per_round:i]
        t1 = chunk[-1][0]
        rates.append(sum(a for _, a in chunk) / (t1 - t0))
        t0 = t1
    return statistics.median(rates)
