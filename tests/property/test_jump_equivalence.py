"""Oracle: guarded clock jumps change host speed, never a simulated number.

Every pending-time flush and idle wait tries ``Environment.jump`` before
yielding a timeout, on the event path and the flat path alike.  The
reference is the same engine with ``jump`` patched to always refuse —
every such wait then takes a real timeout, as before jumps existed —
and each case asserts byte-identical serialized results with and
without the patch, plus proof that jumps really happened.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import fig8_distribution_ratio as fig8
from repro.experiments import open_loop_serving, resilience_recovery
from repro.experiments.runner import run_paging_workload
from repro.mem.page import make_pages
from repro.sim import Environment, flatpath
from repro.swap.base import SwapBackend, VirtualMemory
from repro.workloads.ml import ML_WORKLOADS

_JUMP = Environment.jump


def with_jumps(monkeypatch, compute, enabled):
    """Run ``compute()`` with jumps enabled (counting the ones taken) or
    refused; returns ``(result, jumps_taken)``."""
    taken = [0]

    def counting(env, delay):
        if _JUMP(env, delay):
            taken[0] += 1
            return True
        return False

    with monkeypatch.context() as patch:
        patch.setattr(
            Environment, "jump",
            counting if enabled else (lambda env, delay: False),
        )
        result = compute()
    return result, taken[0]


def assert_identical(monkeypatch, compute):
    jumped, taken = with_jumps(monkeypatch, compute, True)
    timed, refused_taken = with_jumps(monkeypatch, compute, False)
    assert taken > 0, "no jump was taken: the oracle is vacuous"
    assert refused_taken == 0
    assert json.dumps(jumped, sort_keys=True) == json.dumps(
        timed, sort_keys=True
    )
    return jumped


def one_cell(module, predicate, fast_path=False):
    for spec in module.cells(scale=0.1, seed=0):
        if predicate(spec):
            return dataclasses.replace(spec, fast_path=fast_path)
    raise AssertionError("no such cell in {}".format(module.__name__))


def test_fig8_fastswap_memcached_cell(monkeypatch):
    spec = one_cell(
        fig8,
        lambda s: s.workload == "memcached"
        and s.options["column"] == "fs_9_1",
    )
    payload = assert_identical(monkeypatch, lambda: fig8.compute(spec))
    assert payload["mean_throughput"] > 0


def test_resilience_erasure_cell_under_faults(monkeypatch):
    spec = one_cell(
        resilience_recovery,
        lambda s: s.options["scheme"] == "erasure" and s.options["rate"] > 0,
    )
    payload = assert_identical(
        monkeypatch, lambda: resilience_recovery.compute(spec)
    )
    assert payload["schedule"] is not None


@pytest.mark.parametrize("fast_path", [False, True])
def test_shed_serving_cell_on_both_paths(monkeypatch, fast_path):
    spec = one_cell(
        open_loop_serving,
        lambda s: s.options.get("policy") == "queue-depth"
        and s.options["chaos"],
        fast_path=fast_path,
    )
    payload = assert_identical(
        monkeypatch, lambda: open_loop_serving.compute(spec)
    )
    assert payload["shed"] > 0


@pytest.mark.parametrize("backend", ["linux", "fastswap"])
def test_golden_paging_spec(monkeypatch, backend):
    spec = ML_WORKLOADS["logistic_regression"].with_overrides(
        pages=512, iterations=2
    )
    assert_identical(
        monkeypatch,
        lambda: run_paging_workload(backend, spec, 0.6, seed=7).to_json(),
    )


# -- property: a KV client beside a timer ----------------------------------


class SlowBackend(SwapBackend):
    """Fixed-latency swap I/O, so major faults and evictions suspend."""

    name = "slow"

    def __init__(self, env):
        self.env = env

    def swap_out(self, page):
        yield self.env.timeout(3e-6)

    def swap_in(self, page):
        yield self.env.timeout(5e-6)
        return []


def observe(ops, delays, deadlines, fast_path):
    """Run a KV client beside a timer; log every ``(who, env.now)``.

    Both start on one shared gate event, so the client's first wait
    is taken while the timer's resume is still due in the same step.
    """
    env = Environment()
    vm = VirtualMemory(env, make_pages(16), 6, SlowBackend(env),
                       prefetch_capacity=2, compute_per_access=2e-6)
    log = []
    gate = env.timeout(1e-6)

    def client():
        yield gate
        for first_page, count, write in ops:
            pages = range(first_page, first_page + count)
            index = 0
            if fast_path:
                index, _reason = flatpath.advance(
                    vm, pages, (write,) * count, 0
                )
            for page_id in pages[index:]:
                yield from vm.access(page_id, write=write)
            yield from vm.flush()
            log.append(("client", env.now))

    def timer():
        yield gate
        log.append(("timer", env.now))
        for delay in delays:
            yield env.timeout(delay)
            log.append(("timer", env.now))

    env.process(client())
    env.process(timer())
    for deadline in deadlines:
        env.run(until=max(deadline, env.now))
        log.append(("run", env.now))
    env.run()
    log.append(("end", env.now))
    return log


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 12), st.integers(1, 4), st.booleans()),
        min_size=1, max_size=40,
    ),
    delays=st.lists(st.floats(0.0, 4e-5), max_size=20),
    deadlines=st.lists(st.floats(0.0, 3e-4), max_size=4).map(sorted),
    fast_path=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_kv_client_beside_a_timer_observes_identical_times(
    ops, delays, deadlines, fast_path
):
    with pytest.MonkeyPatch.context() as patch:
        jumped, _taken = with_jumps(
            patch, lambda: observe(ops, delays, deadlines, fast_path), True
        )
        timed, _none = with_jumps(
            patch, lambda: observe(ops, delays, deadlines, fast_path), False
        )
    assert jumped == timed
