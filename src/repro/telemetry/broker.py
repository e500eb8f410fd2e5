"""Bounded pub/sub event broker: slow subscribers drop, never block.

The :class:`TopicBroker` is the fan-out point of the serving stack's push
telemetry.  Its contract is shaped entirely by where it sits — inside
``ModelServer.submit``, the dispatch lanes, the shard pool and the gateway's
event loop, i.e. on hot paths that must never be held hostage by an
observer:

* **publishing never blocks** — each subscriber owns a bounded deque; when
  it is full the *oldest* queued event is dropped (and counted on the
  subscription's ``n_dropped``) so the stream stays recent, and the
  publisher's cost stays two appends regardless of consumer speed;
* **publishing with no subscribers is near-free** — the broker is *falsy*
  while nobody is subscribed, so instrumentation sites guard with
  ``if broker: broker.publish(Event(...))`` and skip even the event
  construction on the un-observed fast path;
* **subscribers cannot break the publisher** — the optional per-subscription
  ``wakeup`` callback (how an asyncio consumer gets poked across threads)
  is invoked outside every lock and any exception it raises is swallowed;
* **one publish path** — :meth:`TopicBroker.publish` is
  :meth:`~TopicBroker.publish_many` of one event, so the drop-oldest
  enqueue, the empty → non-empty wakeup and the lockwatch hook each exist
  once.

Subscriptions filter by **topic** — the event's class name (see
:mod:`repro.telemetry.events`); ``topics=None`` receives everything.
Consumption is pull-based and thread-safe: blocking :meth:`Subscription.get`
(with timeout), non-blocking :meth:`~Subscription.get_nowait`, bulk
:meth:`~Subscription.drain`, or plain iteration until :meth:`close`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from ..checks import lockwatch

__all__ = ["Subscription", "TopicBroker"]


class Subscription:
    """One subscriber's bounded event queue (created by ``subscribe``)."""

    __slots__ = ("topics", "maxsize", "n_dropped", "n_delivered", "_events",
                 "_cond", "_closed", "_wakeup", "_broker")

    def __init__(self, broker: "TopicBroker", topics, maxsize: int,
                 wakeup: Callable[[], None] | None) -> None:
        self._broker = broker
        #: Topic filter (frozenset of event class names); ``None`` = all.
        self.topics = frozenset(topics) if topics else None
        self.maxsize = max(1, int(maxsize))
        #: Events discarded because this subscriber fell behind.
        self.n_dropped = 0
        #: Events ever enqueued for this subscriber (dropped ones included).
        self.n_delivered = 0
        self._events: deque = deque()
        self._cond = lockwatch.monitored_condition("telemetry.subscription")
        self._closed = False
        self._wakeup = wakeup

    # ------------------------------------------------------------ broker side
    def _offer_many(self, events) -> None:
        """Enqueue pre-matched events in one lock hop; never blocks
        (drop-oldest when full)."""
        with self._cond:
            if self._closed:
                return
            was_empty = not self._events
            self._events.extend(events)
            self.n_delivered += len(events)
            overflow = len(self._events) - self.maxsize
            if overflow > 0:
                for _ in range(overflow):
                    self._events.popleft()
                self.n_dropped += overflow
            if was_empty:
                # A consumer only ever blocks on an *empty* queue, so the
                # empty -> non-empty edge is the only one that needs a
                # wakeup (``get`` passes the baton on for further waiters).
                # Skipping the per-event notify keeps a hot publisher from
                # being preempted once per event by the woken consumer —
                # the difference between ~5% and ~40% serving overhead.
                self._cond.notify()
        if was_empty and self._wakeup is not None:
            # Outside the lock, exceptions swallowed: a subscriber raising
            # mid-delivery must never propagate into the publishing hot path.
            try:
                self._wakeup()
            except Exception:   # repro: allow[REP104] a raising subscriber must never break the publishing hot path
                pass

    # -------------------------------------------------------- consumer side
    def __len__(self) -> int:
        with self._cond:
            return len(self._events)

    @property
    def closed(self) -> bool:
        return self._closed

    def get(self, timeout: float | None = None):
        """Next event; blocks up to ``timeout`` (``None`` = forever).

        Returns ``None`` on timeout or once the subscription is closed and
        drained — iteration-friendly, never raises on shutdown.
        """
        with self._cond:
            while not self._events:
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    return None
            event = self._events.popleft()
            if self._events:
                self._cond.notify()   # baton for any other blocked consumer
            return event

    def get_nowait(self):
        """Next event without blocking (``None`` when empty)."""
        with self._cond:
            return self._events.popleft() if self._events else None

    def drain(self) -> list:
        """Every queued event at once (cheapest way to consume in bulk)."""
        with self._cond:
            events = list(self._events)
            self._events.clear()
        return events

    def __iter__(self):
        """Blocking iteration until :meth:`close` (then drains and stops)."""
        while True:
            event = self.get(timeout=0.25)
            if event is not None:
                yield event
            elif self._closed:
                remaining = self.drain()
                yield from remaining
                return

    def close(self) -> None:
        """Unsubscribe; queued events stay readable, new ones stop arriving."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._broker._unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TopicBroker:
    """Thread-safe bounded pub/sub broker over telemetry events.

    Truthiness is the fast-path gate: ``bool(broker)`` is ``True`` only
    while at least one subscription is live, so instrumentation sites write
    ``if broker: broker.publish(...)`` and pay one attribute read plus one
    tuple truth test when nobody is watching.
    """

    def __init__(self) -> None:
        self._lock = lockwatch.monitored_lock("telemetry.broker")
        #: Immutable snapshot, replaced wholesale on (un)subscribe — publish
        #: iterates it without taking the broker lock.
        self._subs: tuple[Subscription, ...] = ()
        #: Topics some live subscription receives (``None``: every topic),
        #: replaced together with ``_subs`` so :meth:`accepts` is one read.
        self._topics: frozenset | None = frozenset()
        #: Events ever published while at least one subscriber was attached
        #: (approximate under heavy contention — it is telemetry, not money).
        self.n_published = 0

    def __bool__(self) -> bool:
        return bool(self._subs)

    @property
    def n_subscribers(self) -> int:
        return len(self._subs)

    def accepts(self, topic: str) -> bool:
        """True while some live subscription receives ``topic`` — the gate
        for a publisher whose events are costly to build (span tracing)."""
        topics = self._topics
        return topics is None or topic in topics

    def _set_subs_locked(self, subs: tuple) -> None:
        self._subs = subs
        self._topics = (None if any(s.topics is None for s in subs)
                        else frozenset().union(*(s.topics for s in subs)))

    def subscribe(self, topics: Iterable[str] | None = None,
                  maxsize: int = 4096,
                  wakeup: Callable[[], None] | None = None) -> Subscription:
        """Open a subscription.

        Parameters
        ----------
        topics:
            Event class names to receive (``None`` = every event).
        maxsize:
            Queue bound; beyond it the oldest queued event is dropped and
            counted on ``n_dropped`` — the publisher never blocks.
        wakeup:
            Optional callable fired (outside all locks, exceptions
            swallowed) when the queue transitions empty → non-empty; the
            hook an asyncio consumer uses to ``call_soon_threadsafe`` itself
            awake instead of polling.
        """
        sub = Subscription(self, topics, maxsize, wakeup)
        with self._lock:
            self._set_subs_locked(self._subs + (sub,))
        return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            self._set_subs_locked(tuple(s for s in self._subs
                                        if s is not sub))

    def publish(self, event) -> int:
        """Offer ``event`` to every matching subscription; never blocks.

        Returns the number of subscriptions it was enqueued to (0 with no
        subscribers — though call sites should have skipped the call, and
        the event's construction, via the truthiness gate).
        """
        return self.publish_many((event,))

    def publish_many(self, events) -> int:
        """Offer a sequence of events in one queue hop per subscription.

        The one publish path (:meth:`publish` is its one-event form, and a
        :class:`~repro.telemetry.spans.SpanBatch` flushes through it): each
        matching subscription's queue lock is taken once for the whole
        sequence, which keeps span-heavy publishers off the per-event lock
        treadmill.  Returns the number of subscriptions that received at
        least one of the events.
        """
        subs = self._subs
        if not subs or not events:
            return 0
        lockwatch.note_publish()
        n = 0
        for sub in subs:
            if sub.topics is None:
                matched = events
            else:
                matched = [event for event in events
                           if type(event).__name__ in sub.topics]
            if matched:
                sub._offer_many(matched)
                n += 1
        self.n_published += len(events)
        return n
