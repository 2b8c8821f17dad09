"""Synchronization primitives built on the DES kernel.

These are the concurrency vocabulary of every simulated subsystem:

* :class:`Channel` — an ordered message queue with blocking ``get`` and
  (optionally capacity-bounded) ``put``; the backbone of simulated
  sockets and job queues.
* :class:`Resource` — a FIFO counting resource; models link
  serialization and CPU cores.
* :class:`Gate` — a level-triggered condition ("open"/"closed") that
  any number of processes can wait on.

All operations return :class:`~repro.simnet.kernel.Event` objects to be
yielded from process generators, mirroring the kernel's style.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generic, Optional, TypeVar

from repro.simnet.kernel import Event, SimError, Simulator

__all__ = ["Channel", "ChannelClosed", "Resource", "Gate"]

T = TypeVar("T")


class ChannelClosed(Exception):
    """Raised from a pending/future ``get`` when the channel is closed."""


class Channel(Generic[T]):
    """FIFO message queue between simulated processes.

    ``capacity=None`` means unbounded (puts never block); otherwise a
    ``put`` blocks while the queue holds ``capacity`` items.  ``close``
    fails all pending getters and makes future gets fail; items already
    queued are still delivered before the closure is observed
    (TCP-like: queued data survives a FIN).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise SimError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, T]] = deque()
        self._closed = False

    # -- state ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._items)

    def peek(self) -> T:
        """Look at the next item without removing it."""
        if not self._items:
            raise SimError("peek at empty channel")
        return self._items[0]

    # -- operations ---------------------------------------------------------

    def put(self, item: T) -> Event:
        """Enqueue ``item``; the returned event fires once it is accepted."""
        ev = Event(self.sim)
        if self._closed:
            ev.fail(ChannelClosed("put on closed channel"))
            return ev
        if self._getters:
            # Direct hand-off to the longest-waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: T) -> bool:
        """Non-blocking put; returns False when full or closed."""
        if self._closed:
            return False
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return True
        return False

    def get(self) -> Event:
        """Dequeue; the returned event fires with the item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
            self._refill()
        elif self._closed:
            ev.fail(ChannelClosed("get on closed channel"))
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Optional[T]]:
        """Non-blocking get; ``(False, None)`` when empty."""
        if self._items:
            item = self._items.popleft()
            self._refill()
            return True, item
        return False, None

    def requeue_front(self, item: T) -> None:
        """Push ``item`` back at the *front* of the queue.

        Used by timed receives that lost the race: the message they
        consumed from the queue is put back so the next reader sees it
        in order.  If a getter is already waiting it gets the item
        immediately.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.appendleft(item)

    def _refill(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            pev, item = self._putters.popleft()
            self._items.append(item)
            pev.succeed()

    def close(self) -> None:
        """Close the channel; idempotent."""
        if self._closed:
            return
        self._closed = True
        while self._getters:
            self._getters.popleft().fail(ChannelClosed("channel closed"))
        while self._putters:
            pev, _ = self._putters.popleft()
            pev.fail(ChannelClosed("channel closed"))


class Resource:
    """FIFO counting resource (semaphore with fair queuing).

    ``request()`` returns an event that fires when a slot is granted;
    the holder must call ``release()`` exactly once per grant.  FIFO
    granting is load-bearing: it keeps link transmissions in order.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError("release without a matching request")
        if self._waiters:
            # Hand the slot straight to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def use(self, duration: float):
        """Generator helper: hold one slot for ``duration`` seconds."""
        yield self.request()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()


class Gate:
    """A reusable open/closed condition.

    ``wait()`` returns an event that fires as soon as the gate is (or
    becomes) open.  Used for flow-control pause/resume in the relay.
    """

    def __init__(self, sim: Simulator, open: bool = True) -> None:
        self.sim = sim
        self._open = open
        self._waiters: list[Event] = []

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed()

    def close(self) -> None:
        self._open = False

    def wait(self) -> Event:
        ev = Event(self.sim)
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev
