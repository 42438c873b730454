"""The simulation environment: clock + event heap + run loop."""

import heapq
from itertools import count

from repro.sim.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.trace.runtime import tracer_for_env

#: Scheduling priorities. Events pushed at the same timestamp fire in
#: priority order, then insertion order, which keeps runs deterministic.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class EmptySchedule(SimulationError):
    """``run()`` was asked to advance but no events remain."""


class Environment:
    """Coordinates simulated time and event execution.

    The environment is the single mutable hub of a simulation: models
    create events through it, processes are registered on it, and
    :meth:`run` advances the clock by firing events in timestamp order.

    Determinism: two runs with the same model code and the same RNG
    seeds produce identical event orders — ties are broken by
    (priority, insertion sequence).
    """

    def __init__(self, initial_time=0.0):
        self.now = float(initial_time)
        self._heap = []
        self._seq = count()
        self.active_process = None
        #: While positive, the flat-path kernel must not run: some
        #: multi-step protocol (e.g. a staged page migration) is in an
        #: intermediate state that bulk execution is not allowed to
        #: overlap.  Managed via :meth:`hold_bulk` / :meth:`release_bulk`.
        self.bulk_holds = 0
        #: The latest time :meth:`jump` may land on: the deadline of a
        #: numeric ``run(until=T)``, ``-inf`` once a ``run(until=event)``
        #: target has fired, ``inf`` otherwise.
        self._jump_limit = float("inf")
        #: Positive while :meth:`step` runs a callback that other
        #: callbacks of the same event follow (no jump may pass them).
        self._shared_steps = 0
        #: The run's tracer: the shared no-op :data:`~repro.trace.tracer.
        #: NULL_TRACER` unless a trace session is active.  Models guard
        #: hot paths with ``if env.tracer.enabled:`` so disabled runs
        #: pay one attribute read and one branch.
        self.tracer = tracer_for_env(self)

    # -- event construction ------------------------------------------------

    def event(self, name=None):
        """Create a new pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None):
        """Create an event that succeeds ``delay`` time units from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator, name=None):
        """Register ``generator`` as a new :class:`Process` starting now."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Condition event succeeding when all ``events`` succeed."""
        return AllOf(self, events)

    def any_of(self, events):
        """Condition event succeeding when any of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- flat-path gating --------------------------------------------------

    def hold_bulk(self):
        """Forbid flat-path bulk execution until the matching release."""
        self.bulk_holds += 1

    def release_bulk(self):
        """Release one :meth:`hold_bulk` (pair them with try/finally)."""
        if self.bulk_holds <= 0:
            raise SimulationError("release_bulk without a matching hold")
        self.bulk_holds -= 1

    # -- event elision -----------------------------------------------------

    def jump(self, delay):
        """Advance the clock by ``delay`` without an event, when nothing
        could observe the wait; returns False (clock untouched) so the
        caller yields ``timeout(delay)`` instead.

        A timeout whose time pops *strictly* before every heap entry
        fires next with nothing able to interleave (a strict compare
        wins every priority/sequence tie-break), so adding ``delay`` to
        the clock is the identical float computation.  Three guards
        keep it that way (the first, the second's shared-step part and
        the third are :meth:`_unobserved`):

        * no bulk hold is open (a held protocol window runs on events);
        * nothing else is due first: the landing time is strictly
          before the earliest heap entry, and no other callback of the
          event being fired is still to run at the current time;
        * the landing time does not pass the current run's deadline
          (the timeout would not have fired inside this ``run()``).

        ``self._seq`` is deliberately not consumed: the skipped draw
        shifts every later tie-break sequence number by the same
        amount, which preserves the relative order of all heap entries.
        """
        if delay < 0:
            return False
        now = self.now + delay
        if not self._unobserved(now):
            return False
        heap = self._heap
        if heap and heap[0][0] <= now:
            return False
        self.now = now
        return True

    def _unobserved(self, when):
        """The guards :meth:`jump` and a process's fire-next resume
        (:meth:`~repro.sim.process.Process._resume`) share before they
        move the clock to ``when`` without a :meth:`step`: no bulk hold
        is open, no other callback of the current step is still to
        run, and ``when`` does not pass the run's deadline.  Each
        caller adds its own heap check."""
        return (
            not self.bulk_holds
            and not self._shared_steps
            and when <= self._jump_limit
        )

    # -- scheduling --------------------------------------------------------

    def _push(self, event, delay=0.0, priority=PRIORITY_NORMAL):
        """Put a triggered event on the heap, to fire after ``delay``."""
        heapq.heappush(
            self._heap, (self.now + delay, priority, next(self._seq), event)
        )

    def peek(self):
        """Timestamp of the next event, or ``float('inf')`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self):
        """Fire the single next event; advances ``now`` to its timestamp."""
        if not self._heap:
            raise EmptySchedule("no scheduled events")
        when, _priority, _seq, event = heapq.heappop(self._heap)
        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        if len(callbacks) > 1:
            # Every callback but the last has more of this step due at
            # ``when`` after it, so none of them may jump the clock.
            self._shared_steps += 1
            for callback in callbacks[:-1]:
                callback(event)
            self._shared_steps -= 1
            callbacks = callbacks[-1:]
        for callback in callbacks:
            callback(event)

    def run(self, until=None):
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain; a number — run until
            the clock reaches that time; an :class:`Event` — run until
            that event fires, returning (or raising) its outcome.
        """
        if until is None:
            while self._heap:
                self.step()
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self.now:
            raise ValueError(
                "until ({}) is in the past (now={})".format(deadline, self.now)
            )
        # A jump past the deadline would let a process run on beyond
        # it, where its timeout would have waited for the next run().
        # (A limit left behind by an exception only refuses jumps,
        # which is always safe.)
        limit, self._jump_limit = self._jump_limit, deadline
        while self._heap and self.peek() <= deadline:
            self.step()
        self._jump_limit = limit
        self.now = deadline
        return None

    def _run_until_event(self, event):
        finished = []
        if event.callbacks is None:
            # Already fired; report its outcome directly.
            finished.append(event)
        else:
            # The run stops after the step that fires ``event``: from
            # its first callback on, a waiter resumed in that step must
            # leave its timeouts on the heap rather than jump.
            event.callbacks.insert(0, self._close_jumps)
            event.callbacks.append(finished.append)
        limit = self._jump_limit
        while not finished:
            if not self._heap:
                raise EmptySchedule(
                    "event {!r} can never fire: schedule is empty".format(event)
                )
            self.step()
        self._jump_limit = limit
        if event._ok:
            return event._value
        # Mark as handled for Process events so defused errors do not
        # re-raise; then surface the failure to the caller.
        raise event._value

    def _close_jumps(self, _event):
        self._jump_limit = float("-inf")
