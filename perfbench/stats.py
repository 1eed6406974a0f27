"""Statistics used by the benchmark: percentiles with the tail rule,
quartile spread, and span self time. Pure functions, tested by
test_stats.py."""

import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; below that it is marked unsupported.
MIN_BEYOND = 10


def percentile(values, q):
    """q-th percentile (0..100) with linear interpolation between the
    closest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def beyond(values, q):
    """Number of samples strictly above the q-th percentile."""
    p = percentile(values, q)
    return sum(1 for v in values if v > p)


def tail_supported(values, q, min_beyond=MIN_BEYOND):
    """True when at least `min_beyond` samples lie beyond the q-th
    percentile, so the percentile is backed by a real tail."""
    return beyond(values, q) >= min_beyond


def min_samples_for(q, min_beyond=MIN_BEYOND):
    """Smallest sample count whose q-th percentile has `min_beyond`
    samples beyond it (distinct values, interpolated percentile)."""
    n = 1
    while (n - 1) - int((n - 1) * q / 100.0) < min_beyond:
        n += 1
    return n


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover. `spans` is a list of dicts with
    id, parent, start and end; returns {id: self seconds}."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        kids = [(max(c["start"], lo), min(c["end"], hi))
                for c in children.get(s["id"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (hi - lo) - _covered(kids)
    return out


def self_time_by_name(spans):
    """{name: (count, total self seconds)} over all spans."""
    st = self_times(spans)
    out = {}
    for s in spans:
        n, t = out.get(s["name"], (0, 0.0))
        out[s["name"]] = (n + 1, t + st[s["id"]])
    return out
