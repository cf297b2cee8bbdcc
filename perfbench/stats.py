"""Arithmetic of the perfbench report: medians, the tail rule, span self
time and ratios with their bases.  Kept apart from run.py so the
self-tests in test_stats.py can check it without building anything."""

import statistics

# A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail(values):
    """Highest percentile of `values` with at least TAIL_BEYOND samples
    above it.  Returns (value, percentile, sample count); with too few
    samples for any such percentile it returns None."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    k = n - TAIL_BEYOND - 1  # exactly TAIL_BEYOND samples follow ordered[k]
    return ordered[k], 100.0 * (k + 1) / n, n


def block_tail(values, block=100):
    """The tail rule applied to consecutive blocks of about `block`
    samples, and the median over blocks.  A long run of short passes
    would otherwise put the tail at p99.5 and beyond, where it counts
    the host's rare preemptions rather than the program.  With fewer
    than 2 * block samples this is tail(values).

    Returns (value, percentile, block size, blocks); None when a block
    is too small for the tail rule."""
    k = max(1, len(values) // block)
    m = len(values) // k
    tails = [tail(values[i * m:(i + 1) * m]) for i in range(k)]
    if tails[0] is None:
        return None
    return median([t[0] for t in tails]), tails[0][1], m, k


def calibrated(seconds, probe_s, ref_s):
    """`seconds` measured next to a probe that took `probe_s`, stated
    in seconds of a host where the probe takes `ref_s`."""
    return seconds * ref_s / probe_s


def ratio(part, base):
    """part / base, and 0 when nothing was attempted (base 0)."""
    return part / base if base else 0.0


def hit_ratio(memory_hits, disk_hits, unique_specs):
    """Cache hits per lookup.  The base is unique specs, not grid points:
    the plan deduplicates before the runner looks anything up."""
    return ratio(memory_hits + disk_hits, unique_specs)


def full_solve_ratio(full_solves, incremental_solves):
    """Share of allocator solves that re-solved the whole flow set.  The
    base is every solve the engine classified, full plus incremental."""
    return ratio(full_solves, full_solves + incremental_solves)


def covered(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of `intervals`."""
    total = 0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that
    its children cover.  Children may overlap each other (a parallel
    pass), so the covered part is the union of their intervals.

    `spans` maps span id -> (parent id, start, end); returns id -> self.
    """
    children = {}
    for sid, (parent, start, end) in spans.items():
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (_, start, end) in spans.items():
        kids = children.get(sid, ())
        out[sid] = (end - start) - covered(kids, start, end)
    return out
