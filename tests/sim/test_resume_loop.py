"""The fire-next resume loop in ``Process._resume`` and its guards.

When a process yields an event that ``step()`` would fire next and that
only this process waits on, the loop pops it and resumes the generator
at once.  Each guard case below checks that the event goes through
``step()`` instead; :func:`stepped` records every event ``step()``
fires.
"""

import pytest

from repro.sim import Environment
from repro.sim.engine import EmptySchedule
from repro.sim.events import Event


def stepped(env):
    """Record each event ``env.step()`` fires (the loop's are absent)."""
    fired = []
    step = env.step

    def recording():
        if env._heap:
            fired.append(env._heap[0][3])
        step()

    env.step = recording
    return fired


def test_a_lone_waiter_consumes_the_next_event():
    env = Environment()
    fired = stepped(env)
    log = []
    waits = []

    def proc():
        for delay in (1.0, 2.0):
            waits.append(env.timeout(delay))
            value = yield waits[-1]
            log.append((env.now, value))

    env.process(proc())
    env.run()
    assert log == [(1.0, None), (3.0, None)]
    assert not any(wait in fired for wait in waits)
    assert all(wait.callbacks is None for wait in waits)


@pytest.mark.parametrize("tie_at", [1, 2])
def test_a_same_time_tie_is_stepped(tie_at):
    env = Environment()
    fired = stepped(env)
    waits = []

    def proc():
        if tie_at == 2:
            env.timeout(2.0)  # heap[1] once the wait is pushed
        waits.append(env.timeout(1.0))
        env.timeout(1.0)  # same time, behind it on the heap
        assert env._heap[0][3] is waits[0]
        assert env._heap[tie_at][0] == 1.0
        yield waits[0]

    env.process(proc())
    env.run()
    assert waits[0] in fired


def test_an_event_with_another_waiter_is_stepped():
    env = Environment()
    fired = stepped(env)
    shared = env.event()
    log = []

    def waiter(name):
        yield shared
        log.append((name, env.now))

    def trigger():
        yield env.timeout(1.0)
        shared.succeed()

    env.process(waiter("a"))
    env.process(waiter("b"))
    env.process(trigger())
    env.run()
    assert shared in fired
    assert log == [("a", 1.0), ("b", 1.0)]


def test_no_event_is_consumed_during_a_shared_step():
    env = Environment()
    fired = stepped(env)
    gate = env.timeout(1.0)
    waits = []
    log = []

    def first():
        yield gate
        # "second" is still to be resumed in this step.
        waits.append(env.timeout(0.5))
        yield waits[0]
        log.append(("first", env.now))

    def second():
        yield gate
        log.append(("second", env.now))

    env.process(first())
    env.process(second())
    env.run()
    assert waits[0] in fired
    assert log == [("second", 1.0), ("first", 1.5)]


def test_no_event_past_a_numeric_deadline_is_consumed():
    env = Environment()
    fired = stepped(env)
    waits = []
    log = []

    def proc():
        for delay in (1.0, 5.0):
            waits.append(env.timeout(delay))
            yield waits[-1]
            log.append(env.now)

    env.process(proc())
    env.run(until=2.0)
    assert log == [1.0]
    assert env.now == 2.0
    assert waits[0] not in fired  # due before the deadline: consumed
    assert waits[1].callbacks is not None  # still waiting on the heap
    env.run()
    assert log == [1.0, 6.0]
    assert waits[1] in fired


def test_nothing_is_consumed_after_a_run_until_event_target_fired():
    env = Environment()
    fired = stepped(env)
    target = env.timeout(1.0, value="done")
    waits = []

    def proc():
        yield target
        waits.append(env.timeout(0.5))
        yield waits[0]

    env.process(proc())
    assert env.run(until=target) == "done"
    assert env.now == 1.0
    assert target in fired
    assert waits[0].callbacks is not None  # left for the next run
    env.run()
    assert waits[0] in fired
    assert env.now == 1.5


def test_nothing_is_consumed_under_a_bulk_hold():
    env = Environment()
    fired = stepped(env)
    waits = []

    def proc():
        env.hold_bulk()
        try:
            waits.append(env.timeout(1.0))
            yield waits[0]
        finally:
            env.release_bulk()
        waits.append(env.timeout(1.0))
        yield waits[1]

    env.process(proc())
    env.run()
    assert waits[0] in fired
    assert waits[1] not in fired
    assert env.now == 2.0


@pytest.mark.parametrize("target_kind", ["timeout", "event", "process"])
def test_run_until_event_never_loses_its_target(target_kind):
    """The target carries the run's own callbacks, so the loop can
    never consume it and leave ``run(until=...)`` with an empty heap."""
    env = Environment()
    holder = {}

    def proc():
        for _ in range(3):
            yield env.timeout(1.0)
        if target_kind == "event":
            holder["target"].succeed("fired")
            yield env.timeout(1.0)
        elif target_kind == "timeout":
            yield holder["target"]
        return "done"

    if target_kind == "timeout":
        holder["target"] = env.timeout(3.0, value="fired")
    elif target_kind == "event":
        holder["target"] = Event(env)
    process = env.process(proc())
    target = process if target_kind == "process" else holder["target"]
    try:
        value = env.run(until=target)
    except EmptySchedule:  # pragma: no cover - the failure under test
        pytest.fail("the loop consumed the run(until=event) target")
    assert value == ("done" if target_kind == "process" else "fired")


def test_failures_and_values_are_delivered_through_the_loop():
    env = Environment()
    fired = stepped(env)
    log = []

    def proc():
        event = env.event()
        event.fail(ValueError("boom"))
        try:
            yield event
        except ValueError as error:
            log.append((env.now, str(error)))
        event = env.event()
        event.succeed(7)
        log.append((env.now, (yield event)))

    env.process(proc())
    env.run()
    assert log == [(0.0, "boom"), (0.0, 7)]
    assert len(fired) == 2  # the start event and the finished process
