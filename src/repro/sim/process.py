"""Generator-based simulation processes.

A process wraps a Python generator.  Each value the generator yields
must be an :class:`~repro.sim.events.Event`; the process sleeps until
the event fires and is resumed with the event's value (or has the
event's exception thrown into it).  A process is itself an event that
triggers when the generator returns, so processes can wait on each
other simply by yielding them.
"""

from heapq import heappop

from repro.sim import engine as _engine
from repro.sim.errors import Interrupt, StopProcess
from repro.sim.events import Event


class _Start(Event):
    """A process's already-successful start event, labelled
    ``init:<process name>`` (built only when read)."""

    __slots__ = ("_process",)

    def __init__(self, process):
        super().__init__(process.env)
        self._process = process
        self._ok = True
        self._value = None

    @property
    def name(self):
        return "init:{}".format(self._process.name)


class Process(Event):
    """A running simulation process (also an event: fires on completion)."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env, generator, name=None):
        if not hasattr(generator, "send"):
            raise TypeError(
                "process() expects a generator, got {!r}".format(generator)
            )
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._target = None
        # Kick the generator off via an already-successful init event so
        # the first body statement runs at the current simulated time.
        init = _Start(self)
        init.callbacks.append(self._resume)
        env._push(init, priority=_engine.PRIORITY_URGENT)

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`~repro.sim.errors.Interrupt` into the process.

        The process may catch the interrupt and keep running (e.g. to
        handle a failure notice and retry).  Interrupting a finished
        process raises ``RuntimeError``.
        """
        if self.triggered:
            raise RuntimeError("cannot interrupt finished process {!r}".format(self))
        # Detach from whatever the process is currently waiting on so it
        # is not resumed twice.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        poke = Event(self.env, name="interrupt:{}".format(self.name))
        poke._ok = False
        poke._value = Interrupt(cause)
        poke.callbacks.append(self._resume)
        self.env._push(poke, priority=_engine.PRIORITY_URGENT)

    # -- internal ----------------------------------------------------------

    def _resume(self, event):
        """Run the generator on ``event``'s outcome until it waits.

        Fire-next loop: when the event the generator yields is the one
        :meth:`~repro.sim.engine.Environment.step` would fire next and
        only this process waits on it, it is popped here and its
        outcome sent straight back, without a trip through ``step()``.
        It must be the heap head, strictly earlier than every other
        entry (a same-time tie goes back to the engine), and
        :meth:`~repro.sim.engine.Environment._unobserved` must hold: no
        bulk hold, no other callback of the current step still to run,
        and no later than the run's deadline.  The event was pushed
        when it was triggered, so no sequence number is drawn or
        skipped: the heap ends in exactly the state ``step()`` leaves.
        """
        env = self.env
        generator = self._generator
        while True:
            env.active_process = self
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    target = generator.throw(event._value)
            except (StopIteration, StopProcess) as exc:
                self.succeed(exc.value)
                return
            except BaseException as exc:
                # An escaped interrupt is a failure like any other.
                self.fail(exc)
                if not self.callbacks:
                    # Nobody is waiting on this process; crash loudly
                    # rather than losing the error.
                    raise
                return
            finally:
                env.active_process = None

            if not isinstance(target, Event):
                error = RuntimeError(
                    "process {!r} yielded a non-event: {!r}".format(
                        self.name, target
                    )
                )
                self.fail(error)
                raise error
            callbacks = target.callbacks
            if callbacks is None:
                # The event already fired; resume at the current
                # timestamp with the same outcome via a proxy event.
                proxy = Event(env, name="replay")
                proxy._ok = target._ok
                proxy._value = target._value
                proxy.callbacks.append(self._resume)
                env._push(proxy, priority=_engine.PRIORITY_URGENT)
                self._target = proxy
                return
            if not callbacks:
                heap = env._heap
                if heap and heap[0][3] is target:
                    when = heap[0][0]
                    size = len(heap)
                    if (
                        (size < 2 or when < heap[1][0])
                        and (size < 3 or when < heap[2][0])
                        and env._unobserved(when)
                    ):
                        heappop(heap)
                        env.now = when
                        target.callbacks = None
                        event = target
                        continue
            # Pending, or triggered but not yet fired: hook its
            # callback chain directly.
            callbacks.append(self._resume)
            self._target = target
            return
