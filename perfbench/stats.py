"""Summary statistics shared by the benchmark and its tests."""

import math
import statistics

# Percentiles considered for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def tail(values):
    """Highest percentile of ``values`` with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  The percentile is the
    nearest-rank one from TAIL_PERCENTILES.  With too few samples for any of
    them (fewer than a hundred), there is no tail to estimate: the median is
    returned as percentile 50, with the number of samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], p, beyond
    middle = statistics.median(ordered)
    return middle, 50.0, sum(v > middle for v in ordered)


def self_times(spans):
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` where ``parent`` is
    the index of the enclosing span or None.  Children that overlap each
    other are counted once (the union of their intervals).
    """
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    result = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for j in sorted(children[i], key=lambda k: spans[k][0]):
            s, e = max(spans[j][0], start), min(spans[j][1], end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        result.append((end - start) - covered)
    return result
