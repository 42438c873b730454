"""``VirtualMemory.hit``: the resident hit as a plain call.

A hit must leave exactly the state ``access()`` leaves, a miss must
leave no trace, and a request loop that tries ``hit()`` first must give
the same results as one that runs every access through the ``access``
generator.  The reference for the last property is
:func:`reference_access`, the ``access`` generator as it was before
``hit()`` existed (the hit shape inline).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_kv_workload
from repro.sim import Environment
from repro.swap.base import VirtualMemory
from repro.workloads.kv import KV_WORKLOADS
from tests.swap.test_base import drive, make_mmu


def snapshot(mmu, backend):
    """Everything an access can change, by value."""
    return {
        "stats": mmu.stats.snapshot(),
        "pending": mmu._pending_time,
        "resident": list(mmu.resident),
        "prefetch": list(mmu.prefetch),
        "swapped_valid": sorted(mmu.swapped_valid),
        "dirty": {pid: page.dirty for pid, page in mmu.pages.items()},
        "discarded": list(backend.discarded),
        "now": mmu.env.now,
    }


def prepared():
    """An MMU whose resident set holds pages with and without a valid
    swap copy: 0 was swapped out dirty and read back (copy still
    valid), 3..5 were written and never swapped; 6 sits in the
    prefetch buffer; 1 and 2 are swapped out; 7 was never touched."""
    env = Environment()
    mmu, backend, pages = make_mmu(env, npages=8, capacity=4)
    backend.prefetch_payload = [pages[6]]
    drive(env, mmu, [(p, True) for p in range(6)] + [0, 4, 5])
    backend.prefetch_payload = []
    assert set(mmu.resident) == {3, 4, 5, 0}
    assert 0 in mmu.swapped_valid and 6 in mmu.prefetch
    return mmu, backend


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("page_id", [0, 3, 5])
def test_a_hit_leaves_the_state_access_leaves(page_id, write):
    by_hit, hit_backend = prepared()
    by_access, access_backend = prepared()
    by_reference, reference_backend = prepared()
    assert by_hit.hit(page_id, write) is True
    # A resident access never suspends: draining the generator runs it.
    assert list(by_access.access(page_id, write=write)) == []
    assert list(reference_access(by_reference, page_id, write)) == []
    state = snapshot(by_hit, hit_backend)
    assert state == snapshot(by_access, access_backend)
    assert state == snapshot(by_reference, reference_backend)
    assert state["resident"][-1] == page_id


def test_a_write_hit_drops_the_swap_copy():
    mmu, backend = prepared()
    assert mmu.hit(0, True)
    assert 0 not in mmu.swapped_valid
    assert backend.discarded == [0]
    assert mmu.pages[0].dirty
    assert list(mmu.resident)[-1] == 0


def test_a_hit_adds_compute_then_hit_time():
    mmu, _backend = prepared()
    pending = mmu._pending_time = 1e-3
    mmu.hit(3)
    expected = pending + mmu.compute_per_access
    expected += mmu.HIT_TIME
    assert mmu._pending_time == expected


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("page_id", [1, 6, 7, 99])
def test_a_miss_changes_nothing(page_id, write):
    mmu, backend = prepared()
    before = snapshot(mmu, backend)
    assert mmu.hit(page_id, write) is False
    assert snapshot(mmu, backend) == before


# -- property: hit-first loops == access-only loops -----------------------


def reference_access(self, page_id, write=False):
    """``VirtualMemory.access`` with the resident hit inline."""
    self.stats.accesses += 1
    self._pending_time += self.compute_per_access
    page = self.pages[page_id]

    if page_id in self.resident:
        self.resident.move_to_end(page_id)
        self._pending_time += self.HIT_TIME
        self.stats.resident_hits += 1
        if write:
            page.dirty = True
            if page_id in self.swapped_valid:
                self.swapped_valid.discard(page_id)
                self.backend.discard(page)
        return

    if page_id in self.prefetch:
        del self.prefetch[page_id]
        self._pending_time += self.PROMOTE_TIME
        self.stats.prefetch_hits += 1
        self.stats.minor_faults += 1
        yield from self._make_room()
        self._insert_resident(page, write)
        return

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
        self.stats.minor_faults += 1
    self._insert_resident(page, write)


@given(
    workload=st.sampled_from(sorted(KV_WORKLOADS)),
    keys=st.integers(32, 256),
    seed=st.integers(0, 2 ** 16),
    fit=st.sampled_from([1.0, 0.75, 0.5, 0.3]),
    backend=st.sampled_from(["linux", "zswap", "infiniswap", "fastswap"]),
    cold_start=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_hit_first_kv_loop_matches_an_access_only_loop(
    workload, keys, seed, fit, backend, cold_start
):
    spec = KV_WORKLOADS[workload].with_overrides(keys=keys)

    def run():
        return run_kv_workload(
            backend, spec, fit, duration=0.02, window=0.005, seed=seed,
            cold_start=cold_start, record_op_latency=True,
        ).to_json()

    hit_first = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VirtualMemory, "hit", lambda self, page_id, write=False: False)
        patch.setattr(VirtualMemory, "access", reference_access)
        access_only = run()
    assert hit_first["operations"] > 0
    assert json.dumps(hit_first, sort_keys=True) == json.dumps(
        access_only, sort_keys=True
    )
