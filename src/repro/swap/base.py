"""The paging substrate: resident set, faults, and the backend contract.

:class:`VirtualMemory` models the guest MMU + kernel swap logic of one
virtual server.  Page accesses either hit the resident set (cheap), hit
the prefetch buffer / swap cache (a DRAM copy), or fault — at which
point the configured :class:`SwapBackend` is charged for the swap-in,
and LRU eviction may charge a swap-out.

Design notes
------------
* Completion time is dominated by fault service; resident hits and
  per-access compute are accumulated and charged in bulk right before
  any I/O, which keeps the event count (and wall-clock runtime) low
  without changing simulated time.
* A page evicted clean whose swap copy is still valid costs nothing on
  the way out (Linux swap-cache semantics); dirty pages always pay the
  backend's write path.
"""

from collections import OrderedDict

from repro.hw.latency import CpuSpec
from repro.sim import flatpath


class PagingStats:
    """Counters for one paging run."""

    __slots__ = (
        "accesses",
        "resident_hits",
        "prefetch_hits",
        "major_faults",
        "minor_faults",
        "swap_ins",
        "swap_outs",
        "start_time",
        "end_time",
    )

    def __init__(self):
        self.accesses = 0
        self.resident_hits = 0
        self.prefetch_hits = 0
        self.major_faults = 0
        self.minor_faults = 0
        self.swap_ins = 0
        self.swap_outs = 0
        self.start_time = 0.0
        self.end_time = 0.0

    @property
    def completion_time(self):
        return self.end_time - self.start_time

    @property
    def fault_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.major_faults / self.accesses

    def snapshot(self):
        return {name: getattr(self, name) for name in self.__slots__}


class SwapBackend:
    """Contract every swap backend implements.

    Backends are charged simulated time through their generator
    methods; they never touch the resident set — that is
    :class:`VirtualMemory`'s job.
    """

    name = "abstract"

    def setup(self):
        """Generator: one-time initialization (slab reservation etc.)."""
        return
        yield  # pragma: no cover

    def swap_out(self, page):
        """Generator: persist ``page`` out of DRAM."""
        raise NotImplementedError

    def swap_in(self, page):
        """Generator: bring ``page`` back.  Returns a list of *extra*
        pages the backend opportunistically fetched in the same request
        (readahead / proactive batch swap-in); may be empty."""
        raise NotImplementedError

    def drain(self):
        """Generator: flush any buffered writes (end-of-run barrier)."""
        return
        yield  # pragma: no cover

    def discard(self, page):
        """Invalidate the backend copy of ``page`` (freed by the guest)."""


class VirtualMemory:
    """One virtual server's memory under pressure.

    Parameters
    ----------
    env:
        Simulation environment.
    pages:
        All pages of the working set (:class:`repro.mem.page.Page`).
    capacity_pages:
        Resident-set capacity; ``capacity / len(pages)`` is the paper's
        "N% configuration".
    backend:
        The swap backend to charge for misses.
    cpu:
        :class:`~repro.hw.latency.CpuSpec` for fault-path costs.
    prefetch_capacity:
        Size of the prefetch buffer / swap cache, in pages.
    fallback_windows:
        ``(start, end)`` spans of simulated time during which the
        flat-path kernel must not run (fault-injection windows); the
        event engine handles every access inside them.  Only consulted
        by :meth:`run_batch` — the streamed :meth:`access` path ignores
        them.
    """

    #: Cost of a resident hit (TLB+cache-missing DRAM access).
    HIT_TIME = 120e-9
    #: Cost of promoting a prefetched page (DRAM page copy + map).
    PROMOTE_TIME = 0.9e-6

    def __init__(self, env, pages, capacity_pages, backend, cpu=None,
                 prefetch_capacity=128, compute_per_access=1.0e-6,
                 fault_histogram=None, fallback_windows=()):
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        self.env = env
        self.pages = {page.page_id: page for page in pages}
        self.capacity_pages = capacity_pages
        self.backend = backend
        self.cpu = cpu or CpuSpec()
        self.prefetch_capacity = prefetch_capacity
        self.compute_per_access = compute_per_access
        #: Optional :class:`repro.trace.histogram.LatencyHistogram`:
        #: when set, every major fault's service time is recorded, so
        #: experiments can report tail latency per backend.
        self.fault_histogram = fault_histogram
        self.resident = OrderedDict()
        self.prefetch = OrderedDict()
        self.swapped_valid = set()
        self.stats = PagingStats()
        self._pending_time = 0.0
        self.fallback_windows = tuple(sorted(fallback_windows))
        #: What the flat-path kernel did for this instance.
        self.flat_stats = flatpath.FlatPathStats()

    # -- capacity (ballooning hook) ------------------------------------------

    def grow_capacity(self, extra_pages):
        """Balloon: grant the server ``extra_pages`` more resident frames."""
        self.capacity_pages += extra_pages

    # -- main entry point ------------------------------------------------------

    def hit(self, page_id, write=False):
        """One access to ``page_id`` if it is resident; returns whether
        it was.

        The resident hit is the one access shape that never suspends,
        so it is a plain call: request loops try it first and run
        :meth:`access` only on a miss (``if not mmu.hit(p, w): yield
        from mmu.access(p, write=w)``), sparing a generator per hit.
        :meth:`access` starts with it too, so this is the single
        definition of a hit.  On a miss it returns ``False`` and
        touches nothing.
        """
        resident = self.resident
        if page_id not in resident:
            return False
        stats = self.stats
        stats.accesses += 1
        # Same float addition order as every other access shape:
        # compute first, then the hit cost.
        self._pending_time = (
            self._pending_time + self.compute_per_access
        ) + self.HIT_TIME
        resident.move_to_end(page_id)
        stats.resident_hits += 1
        if write:
            page = resident[page_id]
            page.dirty = True
            # Writing invalidates any swap-cache copy.
            if page_id in self.swapped_valid:
                self.swapped_valid.discard(page_id)
                self.backend.discard(page)
        return True

    def access(self, page_id, write=False):
        """Generator: one memory access; charges whatever it costs."""
        if self.hit(page_id, write):
            return
        self.stats.accesses += 1
        self._pending_time += self.compute_per_access
        page = self.pages[page_id]

        if page_id in self.prefetch:
            # Swap-cache hit: promote without backend I/O.
            del self.prefetch[page_id]
            self._pending_time += self.PROMOTE_TIME
            self.stats.prefetch_hits += 1
            self.stats.minor_faults += 1
            yield from self._make_room()
            self._insert_resident(page, write)
            return

        # Real fault.
        self._pending_time += self.cpu.page_fault_overhead + self.cpu.context_switch
        wait = self.charge_pending()
        if wait is not None:
            yield wait
        yield from self._make_room()
        if page_id in self.swapped_valid:
            self.stats.major_faults += 1
            fault_started = self.env.now
            tracer = self.env.tracer
            span = (
                tracer.begin("page.fault", page=page_id, write=write)
                if tracer.enabled else None
            )
            extra = yield from self.backend.swap_in(page)
            if span is not None:
                tracer.end(span, prefetched=len(extra) if extra else 0)
                tracer.latency("fault", "major", self.env.now - fault_started)
            if self.fault_histogram is not None:
                self.fault_histogram.record(self.env.now - fault_started)
            self.stats.swap_ins += 1
            self._absorb_prefetched(extra or ())
        else:
            # First touch: demand-zero fault, no backend involved.
            self.stats.minor_faults += 1
        self._insert_resident(page, write)

    def run_batch(self, batch, start=0, stop=None):
        """Generator: drive a pre-materialized
        :class:`~repro.workloads.batch.AccessBatch` (two-speed engine).

        Fault-free stretches execute through the flat-path kernel
        (:func:`repro.sim.flatpath.advance`); every boundary access —
        major fault, eviction I/O, scheduled events, fault-injection
        window, held migration epoch — runs through the ordinary
        :meth:`access` generator, so the run is bit-identical to
        streaming the same reference string one access at a time.

        ``start``/``stop`` select the half-open access slice
        ``[start, stop)`` (default: the whole batch) without copying:
        request-oriented callers — the serving driver above all —
        build one batch per tenant class and replay it one request
        window at a time, so a million-user schedule costs zero
        per-request array allocations.

        Open-loop batches (``gaps`` set) are not bulked: the timed
        waits between accesses must interleave with other processes,
        so the whole batch runs on the event engine.
        """
        addresses = batch.addresses
        writes = batch.writes
        gaps = batch.gaps
        total = len(addresses) if stop is None else stop
        if gaps is not None:
            for index in range(start, total):
                gap = gaps[index]
                if gap > 0.0:
                    yield self.env.timeout(gap)
                yield from self.access(addresses[index], write=writes[index])
            return
        resident = self.resident
        prefetch = self.prefetch
        swapped_valid = self.swapped_valid
        index = start
        while index < total:
            # Cheap pre-checks: an access that would immediately hit a
            # boundary — a major fault, or an eviction whose LRU victim
            # needs swap-out I/O — goes straight to the event engine.
            # Fault storms and thrashing would otherwise pay the
            # kernel's entry cost once per access for zero bulked work.
            page_id = addresses[index]
            if page_id not in resident:
                if page_id not in prefetch and page_id in swapped_valid:
                    yield from self.access(page_id, write=writes[index])
                    index += 1
                    continue
                if len(resident) >= self.capacity_pages:
                    victim_id, victim = next(iter(resident.items()))
                    if victim.dirty or victim_id not in swapped_valid:
                        yield from self.access(page_id, write=writes[index])
                        index += 1
                        continue
            index, reason = flatpath.advance(
                self, addresses, writes, index, total
            )
            if reason is None:
                break
            yield from self.access(addresses[index], write=writes[index])
            index += 1

    def flush(self):
        """Generator: charge accumulated cheap-path time and drain the
        backend's buffered writes (end of an op or a run)."""
        wait = self.charge_pending()
        if wait is not None:
            yield wait
        yield from self.backend.drain()

    def charge_pending(self):
        """Charge the accumulated cheap-path time to the clock now.

        Returns ``None`` when there was nothing to charge or
        :meth:`~repro.sim.engine.Environment.jump` applied it (nothing
        could observe the wait); otherwise the timeout the calling
        process must yield.
        """
        pending = self._pending_time
        if pending > 0.0:
            self._pending_time = 0.0
            if not self.env.jump(pending):
                return self.env.timeout(pending)
        return None

    # -- internals ----------------------------------------------------------

    def _insert_resident(self, page, write):
        if write:
            page.dirty = True
            # The swap copy (if any) is stale once the page is written.
            if page.page_id in self.swapped_valid:
                self.swapped_valid.discard(page.page_id)
                self.backend.discard(page)
        self.resident[page.page_id] = page

    def _make_room(self):
        while len(self.resident) >= self.capacity_pages:
            victim_id, victim = self.resident.popitem(last=False)
            if victim.dirty or victim_id not in self.swapped_valid:
                yield from self.backend.swap_out(victim)
                self.stats.swap_outs += 1
                victim.dirty = False
            self.swapped_valid.add(victim_id)

    def _absorb_prefetched(self, extra_pages):
        for page in extra_pages:
            if page.page_id in self.resident or page.page_id in self.prefetch:
                continue
            self.prefetch[page.page_id] = page
            # Prefetched pages keep their swap copy; dropping them from
            # the buffer later costs nothing.
            while len(self.prefetch) > self.prefetch_capacity:
                self.prefetch.popitem(last=False)
