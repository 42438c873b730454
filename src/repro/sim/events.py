"""Events: the unit of synchronization in the simulation kernel.

An :class:`Event` starts *pending*, is *triggered* exactly once with
either a value (success) or an exception (failure), and then runs its
callbacks when the environment pops it off the event heap.  Processes
wait on events by yielding them; composite conditions (:class:`AllOf`,
:class:`AnyOf`) are themselves events.
"""

from repro.sim.errors import EventAlreadyTriggered

_PENDING = object()


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    env:
        The :class:`~repro.sim.engine.Environment` the event belongs to.
    name:
        Optional label used in ``repr`` for debugging.
    """

    __slots__ = ("env", "_name", "callbacks", "_value", "_ok")

    def __init__(self, env, name=None):
        self.env = env
        self._name = name
        self.callbacks = []
        self._value = _PENDING
        self._ok = None

    @property
    def name(self):
        """The event's label (``None`` unless one was given); kinds
        with a derived label build it here, only when it is read."""
        return self._name

    def __repr__(self):
        label = self.name or self.__class__.__name__
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return "<{} {}>".format(label, state)

    @property
    def triggered(self):
        """True once the event has an outcome (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def ok(self):
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self):
        """The event outcome: its value on success, exception on failure."""
        if self._value is _PENDING:
            raise AttributeError("event has not been triggered")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``.

        Returns the event so calls can be chained/yielded directly.
        """
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(repr(self))
        self._ok = True
        self._value = value
        self.env._push(self)
        return self

    def fail(self, exception):
        """Trigger the event as failed with ``exception``.

        A process waiting on the event will have the exception thrown
        into it.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(repr(self))
        self._ok = False
        self._value = exception
        self.env._push(self)
        return self

    def trigger(self, event):
        """Trigger this event with the outcome of another event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)
        return self


class Timeout(Event):
    """An event that succeeds after a relative simulated ``delay``."""

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None, name=None):
        if delay < 0:
            raise ValueError("negative delay: {!r}".format(delay))
        # Event.__init__ inlined: timeouts are the engine's hottest
        # allocation, and their label is only built when asked for.
        self.env = env
        self._name = name
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        env._push(self, delay=delay)

    @property
    def name(self):
        return self._name or "Timeout({})".format(self.delay)


class ConditionValue(dict):
    """Outcome of a condition: maps each triggered sub-event to its value."""


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env, events, name=None):
        super().__init__(env, name=name)
        self.events = tuple(events)
        for event in self.events:
            if event.env is not env:
                raise ValueError("event from a different environment")
        self._remaining = len(self.events)
        for event in self.events:
            if event.callbacks is None:
                # Already fired (callbacks consumed): account for it now.
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)
        if not self.triggered and self._satisfied():
            self._resolve()

    def _on_child(self, event):
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._satisfied():
            self._resolve()

    def _satisfied(self):
        raise NotImplementedError

    def _resolve(self):
        value = ConditionValue()
        for event in self.events:
            if event.callbacks is None and event._ok:
                value[event] = event._value
        self.succeed(value)


class AllOf(_Condition):
    """Succeeds when *all* sub-events succeed; fails fast on any failure."""

    __slots__ = ()

    def _satisfied(self):
        return self._remaining == 0


class AnyOf(_Condition):
    """Succeeds as soon as *any* sub-event succeeds (or fails on a failure)."""

    __slots__ = ()

    def _satisfied(self):
        return self._remaining < len(self.events) or not self.events
