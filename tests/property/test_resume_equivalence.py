"""Oracle: the fire-next resume loop changes host speed, never a number.

``Process._resume`` pops an event it would otherwise hand back to
``Environment.step`` when that event fires next and only the resumed
process waits on it.  The reference is :func:`reference_resume` below,
the resume without the loop (every yielded event goes back through
``step()``); each case patches it in and asserts byte-identical
serialized results under both, plus proof that the loop really
consumed events (fewer steps).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import fig8_distribution_ratio as fig8
from repro.experiments import open_loop_serving, resilience_recovery
from repro.experiments.runner import run_paging_workload
from repro.sim import Environment
from repro.sim.engine import PRIORITY_URGENT
from repro.sim.errors import Interrupt, StopProcess
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.workloads.ml import ML_WORKLOADS

_STEP = Environment.step


def reference_resume(self, event):
    """``Process._resume`` without the fire-next loop: one send (or
    throw) per call, and the yielded event always waits for ``step()``."""
    self.env.active_process = self
    try:
        if event._ok:
            target = self._generator.send(event._value)
        else:
            target = self._generator.throw(event._value)
    except StopIteration as exc:
        self.succeed(exc.value)
        return
    except StopProcess as exc:
        self.succeed(exc.value)
        return
    except Interrupt as exc:
        self.fail(exc)
        if not self.callbacks:
            raise
        return
    except BaseException as exc:
        self.fail(exc)
        if not self.callbacks:
            raise
        return
    finally:
        self.env.active_process = None

    if not isinstance(target, Event):
        error = RuntimeError(
            "process {!r} yielded a non-event: {!r}".format(self.name, target)
        )
        self.fail(error)
        raise error
    if target.callbacks is not None:
        target.callbacks.append(self._resume)
        self._target = target
    else:
        proxy = Event(self.env, name="replay")
        proxy._ok = target._ok
        proxy._value = target._value
        proxy.callbacks.append(self._resume)
        self.env._push(proxy, priority=PRIORITY_URGENT)
        self._target = proxy


def run_with(patch, compute, reference):
    """``(compute(), steps)`` under the loop or the reference resume."""
    steps = [0]

    def counting(env):
        steps[0] += 1
        _STEP(env)

    with patch.context() as scoped:
        scoped.setattr(Environment, "step", counting)
        if reference:
            scoped.setattr(Process, "_resume", reference_resume)
        result = compute()
    return result, steps[0]


def assert_identical(monkeypatch, compute):
    looped, loop_steps = run_with(monkeypatch, compute, False)
    stepped, reference_steps = run_with(monkeypatch, compute, True)
    assert loop_steps < reference_steps, "the loop consumed nothing"
    assert json.dumps(looped, sort_keys=True) == json.dumps(
        stepped, sort_keys=True
    )
    return looped


def one_cell(module, predicate):
    for spec in module.cells(scale=0.1, seed=0):
        if predicate(spec):
            return spec
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


def test_shed_chaos_serving_cell(monkeypatch):
    spec = one_cell(
        open_loop_serving,
        lambda s: s.options.get("policy") == "queue-depth"
        and s.options["chaos"],
    )
    payload = assert_identical(
        monkeypatch, lambda: open_loop_serving.compute(spec)
    )
    assert payload["shed"] > 0


@pytest.mark.parametrize("fast_path", [False, True])
@pytest.mark.parametrize("backend", ["linux", "fastswap"])
def test_golden_paging_spec(monkeypatch, backend, fast_path):
    spec = ML_WORKLOADS["logistic_regression"].with_overrides(
        pages=512, iterations=2
    )
    assert_identical(
        monkeypatch,
        lambda: run_paging_workload(
            backend, spec, 0.6, seed=7, fast_path=fast_path
        ).to_json(),
    )


def test_a_self_resuming_chain_is_consumed(monkeypatch):
    def chain():
        env = Environment()

        def proc():
            for delay in (1.0, 0.0, 2.5):
                yield env.timeout(delay)
            return env.now

        done = env.process(proc())
        env.run()
        return done.value

    assert assert_identical(monkeypatch, chain) == 3.5


# -- property: two processes on a shared gate ------------------------------


def observe(plan_a, plan_b, deadlines):
    """Two processes start on one gate, then each runs its plan: a
    ``(delay, hold)`` step waits ``delay`` (a timeout), then, if
    ``hold`` is positive, holds a shared one-slot resource that long.
    Returns the ``(who, env.now)`` log of every resume."""
    env = Environment()
    lock = Resource(env, capacity=1, name="lock")
    gate = env.timeout(0.5)
    log = []

    def proc(name, plan):
        yield gate
        log.append((name, env.now))
        for delay, hold in plan:
            yield env.timeout(delay)
            log.append((name, env.now))
            if hold > 0.0:
                with lock.request() as request:
                    yield request
                    log.append((name + ":lock", env.now))
                    yield env.timeout(hold)
                log.append((name + ":unlock", env.now))

    env.process(proc("a", plan_a))
    env.process(proc("b", plan_b))
    for deadline in deadlines:
        env.run(until=max(deadline, env.now))
        log.append(("run", env.now))
    env.run()
    log.append(("end", env.now))
    return log


# Delays from a small grid make same-time ties common.
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
_plans = st.lists(st.tuples(_delays, _delays), max_size=12)


@given(
    plan_a=_plans,
    plan_b=_plans,
    deadlines=st.lists(st.floats(0.0, 12.0), max_size=4).map(sorted),
)
@settings(max_examples=80, deadline=None)
def test_two_processes_on_a_gate_observe_identical_times(
    plan_a, plan_b, deadlines
):
    with pytest.MonkeyPatch.context() as patch:
        looped, _steps = run_with(
            patch, lambda: observe(plan_a, plan_b, deadlines), False
        )
        stepped, _steps = run_with(
            patch, lambda: observe(plan_a, plan_b, deadlines), True
        )
    assert looped == stepped
