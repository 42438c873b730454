"""Machine-speed calibration and the reference-second arithmetic.

The hosts this benchmark runs on drift in speed, from tens of
milliseconds to minutes, and CPU time tracks wall time, so the drift
is the machine's speed rather than descheduling.  Every host time the
benchmark reports is therefore expressed in *reference seconds*:

    reference seconds = measured seconds / slice seconds * REFERENCE_SLICE_S

where *slice seconds* is how long one calibration slice (a fixed
amount of pure-Python work) took next to the measurement, and
:data:`REFERENCE_SLICE_S` is a constant.  A reference second is the
time the measured work would take on a machine where one slice takes
:data:`REFERENCE_SLICE_S` seconds.

Slices are sampled in two ways around every timed region:

* a full calibration loop (:data:`LOOP_SLICES` slices back to back)
  right before and right after it;
* one slice every :data:`SAMPLE_PERIOD_S` seconds *during* it, run
  from a ``SIGALRM`` handler.  Speed changes within a fraction of a
  second on a shared host, so the in-region samples track it far better
  than the two loops at the edges.  Their own time is subtracted from
  the measured time.

The calibration code is pure Python, never imports :mod:`repro` and
keeps its own small working set, so no change to the program under
test can move it.  It mimics the simulator's instruction mix: generator
resumption, a binary heap of timestamped events, ordered-dict LRU
bookkeeping, attribute access and small method calls.
"""

import gc
import heapq
import signal
import statistics
import time
from collections import OrderedDict
from contextlib import contextmanager

#: Seconds one calibration slice took on the machine the benchmark's
#: bounds were set on (2-vCPU x86-64 VM, CPython 3.11).  It only scales
#: the reported figures; ratios between runs do not depend on it.
REFERENCE_SLICE_S = 0.0015

#: Simulated events one slice steps through.
SLICE_EVENTS = 1000

#: Slices in one full calibration loop (before and after each region).
LOOP_SLICES = 50

#: Seconds between in-region calibration samples.
SAMPLE_PERIOD_S = 0.02


class _Page:
    __slots__ = ("page_id", "dirty", "hits")

    def __init__(self, page_id):
        self.page_id = page_id
        self.dirty = False
        self.hits = 0


def _client(cache, pages, capacity, state):
    """One closed-loop client touching pages through an LRU cache."""
    while True:
        state[0] = (state[0] * 1103515245 + 12345) & 0x7FFFFFFF
        key = (state[0] >> 8) % len(pages)
        page = pages[key]
        if key in cache:
            cache.move_to_end(key)
            page.hits += 1
            yield 1e-7
        else:
            cache[key] = page
            if len(cache) > capacity:
                _old_key, victim = cache.popitem(last=False)
                victim.dirty = not victim.dirty
            yield 2e-6


class Calibrator:
    """A persistent calibration workload: a tiny discrete-event loop.

    Four generator clients share an LRU cache over 1,024 pages and are
    stepped through a heap of ``(time, seq, client)`` entries.  The
    state persists across slices, so a slice costs the same whether it
    runs alone or interrupts the program under test.
    """

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.heap = []
        self.pages = [_Page(page_id) for page_id in range(1024)]
        cache = OrderedDict()
        for client_id in range(4):
            self._schedule(0.0, _client(cache, self.pages, 256, [client_id + 1]))
        self.samples = None

    def _schedule(self, delay, client):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, client))

    def _step(self, events):
        heap = self.heap
        for _ in range(events):
            when, _seq, client = heapq.heappop(heap)
            self.now = when
            self._schedule(next(client), client)

    def slice(self):
        """Seconds one slice takes right now (collector paused)."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            self._step(SLICE_EVENTS)
            return time.perf_counter() - began
        finally:
            if collecting:
                gc.enable()

    def loop(self):
        """Seconds per slice over one full calibration loop."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            self._step(SLICE_EVENTS * LOOP_SLICES)
            return (time.perf_counter() - began) / LOOP_SLICES
        finally:
            if collecting:
                gc.enable()

    def _on_alarm(self, _signum, _frame):
        if self.samples is not None:
            self.samples.append(self.slice())

    @contextmanager
    def sampling(self):
        """Sample one slice every :data:`SAMPLE_PERIOD_S` inside the block.

        Yields the list the samples are appended to.  The previous
        ``SIGALRM`` handler and timer are restored on exit.
        """
        samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.samples = samples
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.samples = None
            signal.signal(signal.SIGALRM, previous)


def slice_estimate(samples, *loops):
    """Seconds per slice next to a timed region.

    ``samples`` are the slices sampled inside the region; each full
    loop run at its edges (:meth:`Calibrator.loop`) counts as one more
    sample.
    """
    return statistics.fmean([*samples, *loops])


def to_reference_seconds(measured_s, slice_s):
    """Convert host seconds to reference seconds, given the adjacent
    calibration slice time."""
    if slice_s <= 0:
        raise ValueError("calibration slice time must be positive")
    return measured_s / slice_s * REFERENCE_SLICE_S


def relative_spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0
