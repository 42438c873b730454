"""Extra edge-case tests for events and the kernel."""

import pytest

from repro.sim import Environment, StopProcess
from repro.sim.errors import EventAlreadyTriggered


def test_event_trigger_copies_outcome():
    env = Environment()
    source = env.event()
    sink = env.event()
    source.succeed("payload")
    sink.trigger(source)
    assert sink.triggered and sink.ok
    assert sink.value == "payload"


def test_event_trigger_copies_failure():
    env = Environment()
    source = env.event()
    sink = env.event()
    source.fail(ValueError("boom"))
    sink.trigger(source)
    assert sink.triggered and not sink.ok
    # Drain the heap; nothing should raise because no process waits
    # (failed bare events do not crash the run, only processes do).
    def watcher():
        with pytest.raises(ValueError):
            yield sink
        return True

    assert env.run(until=env.process(watcher()))


def test_double_fail_rejected():
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("x"))
    with pytest.raises(EventAlreadyTriggered):
        event.fail(RuntimeError("y"))


def test_peek_reports_next_timestamp():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(5.0)
    env.timeout(2.0)
    assert env.peek() == 0.0 or env.peek() <= 2.0  # init pushes at now


def test_stop_process_finishes_with_value():
    env = Environment()

    def helper():
        raise StopProcess("early-exit")
        yield  # pragma: no cover

    def proc():
        yield env.timeout(1.0)
        raise StopProcess("done-early")

    assert env.run(until=env.process(proc())) == "done-early"


def test_empty_all_of_fires_immediately():
    env = Environment()
    condition = env.all_of([])
    assert env.run(until=condition) == {}


def test_empty_any_of_fires_immediately():
    env = Environment()
    condition = env.any_of([])
    assert env.run(until=condition) == {}


def test_condition_rejects_foreign_events():
    env_a = Environment()
    env_b = Environment()
    foreign = env_b.event()
    with pytest.raises(ValueError):
        env_a.all_of([foreign])


def test_timeout_value_passthrough():
    env = Environment()
    timeout = env.timeout(1.0, value="tick")
    assert env.run(until=timeout) == "tick"


def test_nested_processes_compose():
    env = Environment()

    def leaf(delay, value):
        yield env.timeout(delay)
        return value

    def mid():
        a = yield env.process(leaf(1.0, 10))
        b = yield env.process(leaf(2.0, 20))
        return a + b

    def top():
        total = yield env.process(mid())
        return total * 2

    assert env.run(until=env.process(top())) == 60
    assert env.now == 3.0


def test_derived_labels_read_as_before():
    from repro.sim.resources import PriorityResource, Resource

    env = Environment()

    def worker():
        yield env.timeout(1)

    env.process(worker(), name="worker")
    start = env._heap[0][3]
    assert start.name == "init:worker"
    assert repr(start) == "<init:worker ok>"
    disk = Resource(env, name="disk")
    granted = disk.request()
    queued = disk.request()
    assert granted.name == "request:disk"
    assert repr(granted) == "<request:disk ok>"
    assert repr(queued) == "<request:disk pending>"
    nic = PriorityResource(env, name="nic")
    assert repr(nic.request(priority=2)) == "<request:nic ok>"
    assert env.event(name="gate").name == "gate"
    assert env.event().name is None


def test_event_kinds_carry_no_instance_dict():
    from repro.sim.resources import PriorityResource, Resource

    env = Environment()

    def idle():
        yield env.timeout(0)

    process = env.process(idle())
    events = [
        env.event(),
        env.timeout(1),
        process,
        env._heap[0][3],  # the process's start event
        Resource(env).request(),
        PriorityResource(env).request(),
        env.all_of([]),
        env.any_of([]),
    ]
    for event in events:
        assert not hasattr(event, "__dict__"), type(event).__name__
