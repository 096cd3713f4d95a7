"""Pure measurement helpers shared by the workloads (no ``repro`` imports,
so the benchmark's own tests run without building any database)."""

import gc
import math
import random
import statistics
import time

#: Percentiles tried, highest first, by :func:`tail`.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    return statistics.median(values) if values else 0.0


def rank(n, pct):
    """Nearest-rank position (1-based) of percentile ``pct`` among ``n``
    sorted samples."""
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values, pct):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def tail(values, min_beyond=10, ladder=TAIL_LADDER):
    """The highest percentile of ``ladder`` with at least ``min_beyond``
    samples ranked beyond it: ``(pct, value, beyond)``.

    With too few samples for any rung, the maximum is returned as
    ``(100.0, max, 0)`` so the caller can state that the rule was not met.
    """
    if not values:
        return 100.0, 0.0, 0
    ordered = sorted(values)
    n = len(ordered)
    for pct in ladder:
        position = rank(n, pct)
        if n - position >= min_beyond:
            return pct, ordered[position - 1], n - position
    return 100.0, ordered[-1], 0


def ratio(part, whole):
    """``part / whole``, 0.0 when the base is empty (no requests means no
    hits, not an undefined ratio)."""
    return part / whole if whole else 0.0


def hit_ratio(stats):
    """Hits over lookups of a cache-stats dict with ``hits``/``misses``."""
    return ratio(stats.get("hits", 0), stats.get("hits", 0) + stats.get("misses", 0))


def open_loop_schedule(seed, rate, duration, block):
    """Seeded open-loop send times at ``rate`` per second over ``duration``
    seconds, one drawn uniformly inside each ``1 / rate`` slot (a jittered
    grid: random, but without the clumps of a Poisson process that would
    make one run's queueing unlike the next's).  Request bodies come from
    ``block(k, rng)``, which returns block ``k`` of the mix in sending
    order; blocks follow one another until every send time has a body.
    Returns ``[(due_offset_s, body), ...]``."""
    rng = random.Random(seed)
    count = round(rate * duration)
    dues = [(slot + rng.random()) / rate for slot in range(count)]
    bodies = []
    index = 0
    while len(bodies) < count:
        bodies.extend(block(index, rng))
        index += 1
    return list(zip(dues, bodies))


def open_loop_latency(due, sent, done):
    """Per-request ``(latency, lag)`` in ms of an open loop, both measured
    from the due time: latency charges a late send to the request (the
    wait a stall imposes on later requests), lag is how late the generator
    sent it."""
    return (done - due) * 1000.0, max(0.0, sent - due) * 1000.0


def busy_seconds(intervals):
    """Length of the union of ``(start, end)`` intervals — the time at
    least one request was in flight."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def peak_rss_mb():
    """This process's peak resident set size in MB (Linux ``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc/self/status")


def repeat_timed(build, repeats):
    """Call ``build()`` once untimed, then ``repeats`` times timed, each
    after the previous result is released; returns ``(last result,
    [seconds, ...])``.  The untimed first call pays the process's
    first-touch memory allocation, whose cost depends on the host's memory
    state more than on the program."""
    result = build()
    times = []
    for _ in range(repeats):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return result, times


class Stopwatch:
    """Accumulates wall milliseconds per layer name."""

    def __init__(self):
        self.ms = {}

    def add(self, layer, seconds):
        self.ms[layer] = self.ms.get(layer, 0.0) + seconds * 1000.0

    def time(self, layer, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(layer, time.perf_counter() - start)


class TimedIterator:
    """Wraps a row source and charges the time spent inside its
    ``__next__`` to ``layer`` — engine time of a streaming cursor."""

    __slots__ = ("_it", "_watch", "_layer")

    def __init__(self, iterable, watch, layer):
        self._it = iter(iterable)
        self._watch = watch
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter()
        try:
            return next(self._it)
        finally:
            self._watch.add(self._layer, time.perf_counter() - start)
