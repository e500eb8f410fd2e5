"""Gateway clients: drive a remote model server from a few lines.

Two variants over the same wire protocol (:mod:`repro.gateway.protocol`):

* :class:`GatewayClient` — synchronous, stdlib sockets.  :meth:`submit`
  for one round trip, :meth:`submit_many` for pipelining: every request
  frame is streamed out while replies stream back concurrently (a
  ``selectors`` readiness loop interleaves the two), so a single connection
  sustains thousands of in-flight-batched requests without ever deadlocking
  against the gateway's per-connection backpressure.
* :class:`AsyncGatewayClient` — asyncio, for callers that already live on
  an event loop.  A background reader task matches reply frames to the
  awaiting futures by request id.

Each connection parses its replies with one
:class:`~repro.gateway.protocol.FrameReader`, the parser the gateway reads
requests with; chunked replies come out of it whole.

Both raise :class:`~repro.exceptions.GatewayError`:

* connecting to a closed (or never-started) gateway names the address and
  the refusal,
* a per-request error reply carries the server's message (which itself names
  the violated limit or the unknown key),
* a connection dropped mid-flight names how many requests were outstanding.

The minimal round trip::

    from repro.gateway import GatewayClient

    with GatewayClient("127.0.0.1", 7433) as client:
        output = client.submit(key, samples)            # one stimulus
        outputs = client.submit_many([(key, s) for s in stimuli])

Both clients can also subscribe to the gateway's push telemetry:
:meth:`~GatewayClient.subscribe_stats` yields periodic server-stats
snapshots (``ServeStats.as_dict()`` plus the gateway counters) and
:meth:`~GatewayClient.subscribe_events` streams the server's telemetry
events as dicts.  On the synchronous client a subscription iterator owns
the connection's receive stream — use a dedicated client instance for it;
the asyncio client multiplexes subscriptions alongside data submits.
"""

from __future__ import annotations

import asyncio
import selectors
import socket
import time

import numpy as np

from ..exceptions import FrameError, GatewayError
from . import protocol

__all__ = ["AsyncGatewayClient", "GatewayClient"]


def _connect_error(host: str, port: int, exc: Exception) -> GatewayError:
    return GatewayError(
        f"could not connect to gateway at {host}:{port}: {exc!r} — is the "
        "gateway running? (a closed gateway refuses new connections)")


def _raise_if_fatal(reply) -> None:
    """A ``request_id == 0`` error frame fails the whole connection."""
    if isinstance(reply, protocol.ErrorReply) and reply.request_id == 0:
        raise GatewayError(
            f"gateway failed this connection (code {reply.code}): "
            f"{reply.message}")


class GatewayClient:
    """Synchronous TCP client of a :class:`~repro.gateway.server.Gateway`.

    Parameters
    ----------
    host / port:
        The gateway's bind address (``gateway.address`` unpacks into both).
    timeout:
        Wall-clock bound (seconds) on :meth:`submit` / :meth:`submit_many`.
    max_frame_bytes:
        Largest reply frame this client accepts (mirror of the server-side
        policy knob).  Requests larger than it stream out as chunk series
        automatically, and chunked replies are reassembled transparently.
    dtype:
        Wire dtype for this client's samples: ``"float64"`` (the default,
        lossless) or ``"float32"`` (half the bytes; the gateway upcasts at
        the edge and replies in kind, so outputs are float64 arrays either
        way, quantised to float32 precision).
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 max_frame_bytes: int = 64 << 20, dtype="float64") -> None:
        self.host, self.port = host, int(port)
        self.timeout = float(timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        self.dtype = protocol.dtype_code(dtype)
        self._next_id = 1
        self._closed = False
        try:
            self._sock = socket.create_connection((host, self.port),
                                                  timeout=self.timeout)
        except OSError as exc:
            raise _connect_error(host, self.port, exc) from None
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: Parses every reply this connection receives, across calls.
        self._frames = protocol.FrameReader(self.max_frame_bytes)

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- submission
    def submit(self, key: str, samples) -> np.ndarray:
        """One request, one blocking round trip; returns the output row."""
        (output,) = self.submit_many([(key, samples)])
        return output

    def submit_many(self, requests, return_errors: bool = False) -> list:
        """Pipeline many requests over this one connection.

        ``requests`` is a sequence of ``(model_key, samples)`` pairs.
        Returns the output rows in request order.  Per-request failures
        raise the first :class:`~repro.exceptions.GatewayError` encountered
        — or, with ``return_errors=True``, are returned in place of that
        request's output so one bad request doesn't void its thousand good
        neighbours.
        """
        if self._closed:
            raise GatewayError(
                f"client connection to {self.host}:{self.port} is closed")
        requests = list(requests)
        if not requests:
            return []
        frames = []
        order: list[int] = []
        for key, samples in requests:
            request_id = self._next_id
            self._next_id += 1
            frames.extend(protocol.encode_request_frames(
                request_id, key, samples, dtype=self.dtype,
                max_frame_bytes=self.max_frame_bytes))
            order.append(request_id)
        try:
            results = self._pipeline(b"".join(frames), set(order))
        except GatewayError:
            # A fatal mid-pipeline failure (timeout, EOF, malformed frame)
            # loses the stream's frame alignment: bytes of a reply may have
            # been half-consumed, so no later call on this connection could
            # trust what it reads.  Close rather than corrupt.
            self.close()
            raise
        outputs = []
        for request_id in order:
            reply = results[request_id]
            if isinstance(reply, protocol.Result):
                outputs.append(reply.outputs)
                continue
            error = GatewayError(
                f"request {request_id} failed (code {reply.code}): "
                f"{reply.message}")
            if not return_errors:
                raise error
            outputs.append(error)
        return outputs

    def _pipeline(self, outbound: bytes, expected: set[int]) -> dict:
        """Stream ``outbound`` out and collect every expected reply."""
        results: dict[int, object] = {}
        for reply in self._messages(outbound, self.timeout, per_message=False):
            if reply is None:
                raise GatewayError(
                    f"timed out after {self.timeout:.1f} s with "
                    f"{len(expected) - len(results)} of {len(expected)} "
                    f"reply(ies) outstanding from {self.host}:{self.port}")
            if reply.request_id in expected:
                results[reply.request_id] = reply
                if len(results) == len(expected):
                    return results
        raise GatewayError(
            f"gateway at {self.host}:{self.port} closed the connection with "
            f"{len(expected) - len(results)} request(s) outstanding")

    def _messages(self, outbound: bytes, timeout: float | None,
                  per_message: bool):
        """Yield each message the gateway sends while ``outbound`` streams out.

        Sends and receives interleave on one selector, so a long pipeline
        never deadlocks against the gateway's per-connection backpressure.
        Yields ``None`` once ``timeout`` passes (counted from the call, or
        from the last message with ``per_message``; ``None`` waits forever)
        and returns when the gateway closes the connection.  Every other
        failure raises a named :class:`~repro.exceptions.GatewayError`.
        """
        sock, frames = self._sock, self._frames
        view = memoryview(outbound)
        deadline = None if timeout is None else time.monotonic() + timeout
        sock.setblocking(False)
        selector = selectors.DefaultSelector()
        try:
            selector.register(sock, selectors.EVENT_READ
                              | (selectors.EVENT_WRITE if view else 0))
            while True:
                message = frames.next_message()
                if message is not None:
                    _raise_if_fatal(message)
                    yield message
                    if per_message and timeout is not None:
                        deadline = time.monotonic() + timeout
                    continue
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    yield None
                    continue
                for _, mask in selector.select(remaining):
                    if mask & selectors.EVENT_WRITE and view:
                        try:
                            sent = sock.send(view[:1 << 20])
                        except BlockingIOError:
                            sent = 0
                        except OSError as exc:
                            raise GatewayError(
                                f"connection to {self.host}:{self.port} "
                                f"failed mid-send: {exc!r}") from None
                        view = view[sent:]
                        if not view:
                            selector.modify(sock, selectors.EVENT_READ)
                    if mask & selectors.EVENT_READ:
                        try:
                            data = sock.recv(1 << 20)
                        except BlockingIOError:
                            continue
                        except OSError as exc:
                            if self._closed:
                                return      # close() ended the stream
                            raise GatewayError(
                                f"connection to {self.host}:{self.port} "
                                f"failed mid-receive: {exc!r}") from None
                        if not data:
                            return
                        frames.feed(data)
        except FrameError as exc:
            raise GatewayError(
                f"gateway at {self.host}:{self.port} sent a malformed "
                f"frame: {exc}") from None
        finally:
            selector.close()
            if not self._closed:
                sock.settimeout(self.timeout)

    # ------------------------------------------------------------ subscriptions
    def subscribe_stats(self, interval_s: float = 0.0,
                        timeout: float | None = None):
        """Iterate periodic server-stats snapshots (dicts), forever.

        ``interval_s`` requests a cadence; the gateway clamps it up to its
        ``ServePolicy.stats_interval``.  ``timeout`` bounds the wait for
        each snapshot (``None`` blocks).  The iterator owns this
        connection's receive stream — use a dedicated client instance, and
        ``break`` /  ``close()`` to end the subscription.
        """
        return self._subscribe(protocol.StatsFrame, timeout,
                               protocol.encode_stats_subscribe, interval_s)

    def subscribe_events(self, topics=(), timeout: float | None = None):
        """Iterate streamed telemetry events (dicts), as they happen.

        ``topics`` filters by event class name (empty = every event); see
        :func:`repro.telemetry.event_topics`.  Each yielded dict is an
        event's ``as_dict()`` payload — pass it to
        :func:`repro.telemetry.event_from_dict` to get the typed event
        back.  Semantics otherwise match :meth:`subscribe_stats`.
        """
        return self._subscribe(protocol.EventFrame, timeout,
                               protocol.encode_events_subscribe, topics)

    def _subscribe(self, frame_cls, timeout: float | None, encode, *args):
        """Send the subscribe frame ``encode(request_id, *args)`` now; return
        the iterator of its frames."""
        if self._closed:
            raise GatewayError(
                f"client connection to {self.host}:{self.port} is closed")
        request_id = self._next_id
        self._next_id += 1
        try:
            self._sock.sendall(encode(request_id, *args))
        except OSError as exc:
            raise GatewayError(
                f"connection to {self.host}:{self.port} failed mid-send: "
                f"{exc!r}") from None
        return self._subscription_frames(request_id, frame_cls, timeout)

    def _subscription_frames(self, request_id: int, frame_cls,
                             timeout: float | None):
        for reply in self._messages(b"", timeout, per_message=True):
            if reply is None:
                raise GatewayError(
                    f"timed out after {timeout:.1f} s waiting for the next "
                    f"telemetry frame from {self.host}:{self.port}")
            if reply.request_id != request_id:
                continue
            if isinstance(reply, protocol.ErrorReply):
                raise GatewayError(
                    f"subscription {request_id} failed (code {reply.code}): "
                    f"{reply.message}")
            if isinstance(reply, frame_cls):
                yield reply.payload


class AsyncGatewayClient:
    """Asyncio client: ``await connect(...)``, then ``await submit(...)``.

    A background reader task resolves each in-flight future as its reply
    frame arrives, so any number of :meth:`submit` coroutines can be in
    flight concurrently (``submit_many`` is a thin ``gather`` over them).
    """

    def __init__(self, host: str, port: int,
                 max_frame_bytes: int = 64 << 20, dtype="float64") -> None:
        self.host, self.port = host, int(port)
        self.max_frame_bytes = int(max_frame_bytes)
        self.dtype = protocol.dtype_code(dtype)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        #: Live telemetry subscriptions: request id → queue the reader task
        #: routes that subscription's STATS/EVENT payloads into.
        self._streams: dict[int, asyncio.Queue] = {}
        self._next_id = 1
        self._closed = False
        #: Terminal connection failure; set by the reader task so later
        #: submits fail fast instead of awaiting a reply that can't come.
        self._dead: GatewayError | None = None

    @classmethod
    async def connect(cls, host: str, port: int,
                      max_frame_bytes: int = 64 << 20,
                      dtype="float64") -> "AsyncGatewayClient":
        client = cls(host, port, max_frame_bytes, dtype=dtype)
        try:
            client._reader, client._writer = await asyncio.open_connection(
                host, port)
        except OSError as exc:
            raise _connect_error(host, port, exc) from None
        client._reader_task = asyncio.ensure_future(client._read_replies())
        return client

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):   # repro: allow[REP104] reader died on its own error; close() must still succeed
                pass
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_pending(GatewayError(
            f"client connection to {self.host}:{self.port} closed with "
            f"{len(self._pending)} request(s) outstanding"))

    async def __aenter__(self) -> "AsyncGatewayClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------- submission
    async def submit(self, key: str, samples) -> np.ndarray:
        if self._closed or self._writer is None:
            raise GatewayError(
                f"client connection to {self.host}:{self.port} is closed")
        if self._dead is not None:
            raise self._dead
        request_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(b"".join(protocol.encode_request_frames(
                request_id, key, samples, dtype=self.dtype,
                max_frame_bytes=self.max_frame_bytes)))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            raise self._dead or GatewayError(
                f"connection to {self.host}:{self.port} failed mid-send: "
                f"{exc!r}") from None
        return await future

    async def submit_many(self, requests, return_errors: bool = False) -> list:
        """Concurrent :meth:`submit` of ``(key, samples)`` pairs, in order."""
        results = await asyncio.gather(
            *(self.submit(key, samples) for key, samples in requests),
            return_exceptions=True)
        outputs = []
        for result in results:
            if isinstance(result, BaseException):
                if not return_errors or not isinstance(result, GatewayError):
                    raise result
                outputs.append(result)
            else:
                outputs.append(result)
        return outputs

    # ---------------------------------------------------------------- replies
    async def _read_replies(self) -> None:
        frames = protocol.FrameReader(self.max_frame_bytes)
        try:
            while data := await self._reader.read(protocol.READ_BYTES):
                frames.feed(data)
                while (reply := frames.next_message()) is not None:
                    _raise_if_fatal(reply)
                    if isinstance(reply, (protocol.StatsFrame,
                                          protocol.EventFrame)):
                        stream = self._streams.get(reply.request_id)
                        if stream is not None:
                            stream.put_nowait(reply.payload)
                        continue
                    if isinstance(reply, protocol.ErrorReply) \
                            and reply.request_id in self._streams:
                        self._streams[reply.request_id].put_nowait(
                            GatewayError(
                                f"subscription {reply.request_id} failed "
                                f"(code {reply.code}): {reply.message}"))
                        continue
                    future = self._pending.pop(reply.request_id, None)
                    if future is None or future.done():
                        continue
                    if isinstance(reply, protocol.Result):
                        future.set_result(reply.outputs)
                    else:
                        future.set_exception(GatewayError(
                            f"request {reply.request_id} failed "
                            f"(code {reply.code}): {reply.message}"))
        except (ConnectionError, OSError):
            pass
        except GatewayError as exc:
            self._fail_pending(exc)
            return
        self._fail_pending(GatewayError(
            f"gateway at {self.host}:{self.port} closed the connection "
            f"with {len(self._pending)} request(s) outstanding"))

    def _fail_pending(self, exc: GatewayError) -> None:
        if self._dead is None:
            self._dead = exc
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
        for stream in self._streams.values():
            stream.put_nowait(exc)

    # ------------------------------------------------------------ subscriptions
    async def subscribe_stats(self, interval_s: float = 0.0):
        """Async-iterate periodic server-stats snapshots (dicts).

        Unlike the synchronous client, subscriptions multiplex with
        concurrent :meth:`submit` calls on this same connection — the
        reader task routes each frame to its awaiting consumer.
        """
        async for payload in self._subscribe(
                protocol.encode_stats_subscribe, interval_s):
            yield payload

    async def subscribe_events(self, topics=()):
        """Async-iterate streamed telemetry events (dicts)."""
        async for payload in self._subscribe(
                protocol.encode_events_subscribe, topics):
            yield payload

    async def _subscribe(self, encode, *args):
        """Send the subscribe frame ``encode(request_id, *args)``, then
        yield its payloads."""
        if self._closed or self._writer is None:
            raise GatewayError(
                f"client connection to {self.host}:{self.port} is closed")
        if self._dead is not None:
            raise self._dead
        request_id = self._next_id
        self._next_id += 1
        queue: asyncio.Queue = asyncio.Queue()
        self._streams[request_id] = queue
        try:
            self._writer.write(encode(request_id, *args))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._streams.pop(request_id, None)
            raise self._dead or GatewayError(
                f"connection to {self.host}:{self.port} failed mid-send: "
                f"{exc!r}") from None
        try:
            while True:
                item = await queue.get()
                if isinstance(item, GatewayError):
                    # Connection death ends the stream cleanly; a
                    # subscription-specific error frame raises.
                    if item is self._dead:
                        return
                    raise item
                yield item
        finally:
            self._streams.pop(request_id, None)
