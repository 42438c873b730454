"""Guarded clock jumps: ``Environment.jump`` and its three guards."""

import pytest

from repro.mem.page import make_pages
from repro.sim import Environment
from repro.sim.events import Timeout
from repro.swap.base import SwapBackend, VirtualMemory


def refuse_jumps(monkeypatch):
    """Make every jump fall back to a timeout (the pre-elision engine)."""
    monkeypatch.setattr(Environment, "jump", lambda self, delay: False)


def sleeper(env, delays, log, name="sleeper"):
    """Wait out each delay the way every pending-time flush does."""
    for delay in delays:
        if not env.jump(delay):
            yield env.timeout(delay)
        log.append((name, env.now))


def test_jump_advances_the_clock_when_the_heap_is_empty():
    env = Environment()
    assert env.jump(0.25)
    assert env.now == 0.25
    assert env.peek() == float("inf")


def test_jump_refuses_while_a_bulk_hold_is_open():
    env = Environment()
    env.hold_bulk()
    assert not env.jump(0.5)
    assert env.now == 0.0
    env.release_bulk()
    assert env.jump(0.5)
    assert env.now == 0.5


def test_jump_refuses_a_tie_with_the_heap_head():
    env = Environment()
    env.timeout(1.0)
    assert env._heap[0][0] == env.now + 1.0
    assert not env.jump(1.0)  # a tie is not a strict win
    assert not env.jump(1.5)
    assert env.now == 0.0
    assert env.jump(0.5)
    assert env.now == 0.5


def test_jump_refuses_a_negative_delay():
    env = Environment()
    assert not env.jump(-1.0)
    assert env.now == 0.0


def test_jump_never_passes_a_numeric_run_deadline():
    env = Environment()
    log = []
    env.process(sleeper(env, [0.25, 0.5, 0.5], log))
    env.run(until=0.6)
    assert env.now == 0.6
    assert log == [("sleeper", 0.25)]
    env.run(until=0.75)
    assert env.now == 0.75
    assert log == [("sleeper", 0.25), ("sleeper", 0.75)]
    env.run()
    assert log == [("sleeper", 0.25), ("sleeper", 0.75), ("sleeper", 1.25)]
    # Outside run() nothing limits a jump.
    assert env.jump(1.0)


def test_jumps_outside_a_run_ignore_the_last_deadline():
    env = Environment()
    env.run(until=1.0)
    assert env.jump(5.0)
    assert env.now == 6.0


def test_run_until_event_stops_jumps_once_the_event_fires():
    def target(env):
        yield env.timeout(1.0)

    def waiter(env, proc, log):
        yield proc
        log.append(("waiter", env.now))
        if not env.jump(0.5):
            yield env.timeout(0.5)
        log.append(("waiter", env.now))

    env = Environment()
    log = []
    proc = env.process(target(env))
    env.process(waiter(env, proc, log))
    env.run(until=proc)
    # The step that fired ``proc`` ends the run: the waiter's wait is
    # left on the heap, exactly as a timeout would be.
    assert env.now == 1.0
    assert log == [("waiter", 1.0)]
    env.run()
    assert log == [("waiter", 1.0), ("waiter", 1.5)]


def flush_across_deadline(refuse, monkeypatch):
    """A process whose final flush straddles ``run(until=0.5)``."""
    with monkeypatch.context() as patch:
        if refuse:
            refuse_jumps(patch)
        env = Environment()
        # Every page fits: only demand-zero faults and hits, no I/O.
        vm = VirtualMemory(env, make_pages(4), 4, SwapBackend(),
                           compute_per_access=0.2)
        log = []

        def client():
            for page_id in (0, 0, 1, 1):
                yield from vm.access(page_id)
                log.append(("access", env.now))
            yield from vm.flush()
            log.append(("flush", env.now))

        env.process(client())
        env.run(until=0.5)
        paused = (env.now, list(log))
        env.run()
        return paused, log, env.now


def test_a_flush_across_a_run_deadline_matches_the_event_engine(monkeypatch):
    jumped = flush_across_deadline(False, monkeypatch)
    timed = flush_across_deadline(True, monkeypatch)
    assert jumped == timed
    (paused_now, _paused_log), log, _end = jumped
    assert paused_now == 0.5
    assert log[-1][1] > 0.5  # the flush really straddled the deadline


def test_timeout_repr_is_unchanged():
    env = Environment()
    timeout = env.timeout(0.5)
    assert repr(timeout) == "<Timeout(0.5) ok>"
    assert timeout.name == "Timeout(0.5)"
    env.run()
    assert repr(timeout) == "<Timeout(0.5) ok>"
    assert repr(env.timeout(1, value=3)) == "<Timeout(1) ok>"
    assert repr(Timeout(env, 0.5, name="tick")) == "<tick ok>"
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_no_jump_while_other_callbacks_of_the_step_remain():
    # Both processes resume from the same event: the first one's wait
    # must not move the clock the second one resumes at.
    def waiter(env, gate, name, delay, log):
        yield gate
        if not env.jump(delay):
            yield env.timeout(delay)
        log.append((name, env.now))

    def observer(env, gate, log):
        yield gate
        log.append(("observer", env.now))

    env = Environment()
    log = []
    gate = env.timeout(1.0)
    env.process(waiter(env, gate, "first", 0.5, log))
    env.process(observer(env, gate, log))
    env.process(waiter(env, gate, "last", 0.25, log))
    env.run()
    assert log == [("observer", 1.0), ("last", 1.25), ("first", 1.5)]
