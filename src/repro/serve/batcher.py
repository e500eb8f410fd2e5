"""Micro-batching: coalesce individual stimulus requests into lock-step batches.

Serving traffic arrives one stimulus at a time, but the compiled runtime's
entire speed advantage comes from advancing *many* stimuli in lock-step
(:mod:`repro.runtime.batch`).  The :class:`MicroBatcher` bridges the two: it
keeps one FIFO of pending requests per coalescing key and hands a *free*
dispatch lane up to ``max_batch`` of them at a time (dynamic batching: the
batch is formed when the executor can take it, not when a timer fires).

Requests to the same model can only share a lock-step batch when their
sample counts match, so the coalescing key is ``(model key, n_steps)``.
Mixed-length traffic to one model simply forms parallel FIFOs.

A FIFO is *ready* for a lane once the batching policy has released its
oldest request: the arrival that filled the request's group to
``max_batch`` or the group's ``max_wait`` deadline (pinned by the group's
oldest request), whichever comes first — or :meth:`MicroBatcher.flush`.  A
group is the run of consecutive requests the policy would have closed into
one batch had a lane always been free; its release time is stamped on each
member as ``t_closed``.  A lane that takes rows before their own release
(the tail behind a ready head) stamps them at the take, and the rows left
behind start a fresh group.  Each taken request therefore waited at most
``max_wait`` for the policy (``t_closed - t_submit``); the wait for a free
lane (take time minus ``t_closed``) is accounted separately by the server.

This module is a *pure data structure*: no threads, no locks, no clock of
its own (every method takes ``now``).  The server serialises access under
its lock and owns the time base, which keeps the coalescing logic trivially
testable.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MicroBatch", "MicroBatcher", "ServeRequest"]


@dataclass
class ServeRequest:
    """One submitted stimulus and the future its caller is waiting on."""

    key: str
    samples: np.ndarray
    future: Future = field(default_factory=Future)
    #: Scheduler timestamps (server's monotonic clock): submission and
    #: release by the batching policy (end of the coalescing wait; see the
    #: module docstring).  Completion is accounted by the server at resolve
    #: time and never stored per request.  These two stamps are also the
    #: span boundaries the server's tracer materialises the ``serve_queue``
    #: / ``serve_coalesce`` stages from — the batcher itself stays
    #: clock-free and tracer-free; it only carries the timestamps.
    t_submit: float = 0.0
    t_closed: float = 0.0
    #: Telemetry trace id assigned by :meth:`ModelServer.submit
    #: <repro.serve.server.ModelServer.submit>`; rides with the request
    #: through coalescing, dispatch and shard evaluation so the telemetry
    #: events of one request chain together (``0`` = untraced).
    trace_id: int = 0

    @property
    def n_steps(self) -> int:
        return int(self.samples.size)


@dataclass
class MicroBatch:
    """A taken batch: requests frozen in dispatch order."""

    key: str
    n_steps: int
    requests: list[ServeRequest]

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def trace_ids(self) -> tuple[int, ...]:
        """Trace ids of the member requests, in row order."""
        return tuple(request.trace_id for request in self.requests)

    @property
    def rows(self) -> list[np.ndarray]:
        """The member requests' samples, one 1-D row per request."""
        return [request.samples for request in self.requests]

    def resolve(self, rows: Sequence[np.ndarray]) -> None:
        """Fulfil every request's future with its own output row.

        Each row is handed over as is, so it must own its memory: a view
        would keep the whole ``(rows, n_steps)`` result alive for as long as
        any single caller held on to its row.
        """
        for request, row in zip(self.requests, rows):
            try:
                request.future.set_result(row)
            except InvalidStateError:     # caller cancelled while queued
                pass

    def fail(self, exc: BaseException) -> None:
        """Fail every request's future with the same exception."""
        for request in self.requests:
            try:
                request.future.set_exception(exc)
            except InvalidStateError:
                pass


class _Group:
    """One coalescing key's FIFO.

    ``requests[:n_released]`` have been released (``t_closed`` stamped);
    the rest form the open group, due at ``deadline``.
    """

    __slots__ = ("requests", "n_released", "deadline")

    def __init__(self) -> None:
        self.requests: list[ServeRequest] = []
        self.n_released = 0
        self.deadline = math.inf


class MicroBatcher:
    """Per-``(model, n_steps)`` request FIFOs that free lanes pull from.

    ``on_close`` (optional) is invoked with each :class:`MicroBatch` the
    moment a lane takes it, in whatever thread drove the transition — the
    server uses it to publish ``BatchClosed`` telemetry under its own lock,
    keeping this module free of clocks *and* of broker knowledge.
    """

    def __init__(self, max_batch: int, max_wait: float,
                 on_close=None) -> None:
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.on_close = on_close
        self._groups: dict[tuple[str, int], _Group] = {}

    # ------------------------------------------------------------------ state
    def pending(self, key: str | None = None) -> int:
        """Requests submitted but not yet taken by a lane.

        With ``key``, only that model's FIFOs are counted (the per-model
        lane stats report this as the model's coalescing backlog).
        """
        return sum(len(group.requests)
                   for (group_key, _), group in self._groups.items()
                   if key is None or group_key == key)

    def keys(self) -> set[str]:
        """Model keys with at least one pending request."""
        return {group_key for group_key, _ in self._groups}

    def next_deadline(self,
                      keys: Collection[str] | None = None) -> float | None:
        """Earliest open-group deadline among ``keys``' FIFOs (all FIFOs
        when ``keys`` is None; None when no group is open)."""
        deadlines = [group.deadline for (key, _), group in self._groups.items()
                     if (keys is None or key in keys)
                     and group.n_released < len(group.requests)]
        return min(deadlines, default=None)

    # ------------------------------------------------------------- transitions
    def add(self, request: ServeRequest, now: float) -> bool:
        """Enqueue one request; True when a waiting lane should wake.

        That is when the request filled its group to ``max_batch`` (the
        FIFO became ready) or is its FIFO's only pending request (a lane
        with nothing pending sleeps without a deadline).  The group's
        deadline is pinned by its *oldest* request — later arrivals never
        extend another request's wait; an arrival after the deadline starts
        the next group.
        """
        request.t_submit = now
        group_key = (request.key, request.n_steps)
        group = self._groups.get(group_key)
        if group is None:
            group = self._groups[group_key] = _Group()
        self._release_due(group, now)
        requests = group.requests
        if len(requests) == group.n_released:
            group.deadline = self._deadline(now)
        requests.append(request)
        if len(requests) - group.n_released >= self.max_batch:
            self._release(group, now)
            return True
        return len(requests) == 1

    def take(self, now: float,
             keys: Collection[str] | None = None) -> MicroBatch | None:
        """Hand a free lane the oldest ready FIFO among ``keys``.

        Returns up to ``max_batch`` of its requests, oldest first, or None
        when no FIFO of ``keys`` (all keys when None) is ready.  FIFOs are
        ordered by their oldest pending request.
        """
        ready = [(group.requests[0].t_submit, group_key)
                 for group_key, group in self._groups.items()
                 if (keys is None or group_key[0] in keys)
                 and self._release_due(group, now)]
        if not ready:
            return None
        group_key = min(ready)[1]
        group = self._groups[group_key]
        requests = group.requests[:self.max_batch]
        del group.requests[:self.max_batch]
        for request in requests[group.n_released:]:
            request.t_closed = now            # taken before its release
        if not group.requests:
            del self._groups[group_key]
        elif len(requests) > group.n_released:
            # The take cut into the open group: the rest starts afresh.
            group.deadline = self._deadline(group.requests[0].t_submit)
        group.n_released = max(0, group.n_released - len(requests))
        key, n_steps = group_key
        batch = MicroBatch(key=key, n_steps=n_steps, requests=requests)
        if self.on_close is not None:
            self.on_close(batch)
        return batch

    def flush(self, now: float) -> None:
        """Release every pending request now (flush / shutdown path)."""
        for group in self._groups.values():
            self._release(group, min(group.deadline, now))

    # ---------------------------------------------------------------- helpers
    def _deadline(self, t_oldest: float) -> float:
        """First instant at which a request submitted at ``t_oldest`` has
        waited ``max_wait`` (rounded up, so the difference never falls
        short of ``max_wait`` in floating point)."""
        deadline = t_oldest + self.max_wait
        while deadline - t_oldest < self.max_wait:
            deadline = math.nextafter(deadline, math.inf)
        return deadline

    def _release_due(self, group: _Group, now: float) -> int:
        """Release the open group if its deadline has passed; returns how
        many requests (at the front of the FIFO) are released."""
        if group.deadline <= now:
            self._release(group, group.deadline)
        return group.n_released

    @staticmethod
    def _release(group: _Group, t_closed: float) -> None:
        for request in group.requests[group.n_released:]:
            request.t_closed = t_closed
        group.n_released = len(group.requests)
        group.deadline = math.inf
