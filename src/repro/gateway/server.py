"""Asyncio TCP front-end over a :class:`~repro.serve.server.ModelServer`.

The :class:`Gateway` owns one event loop on a dedicated thread and speaks
the length-prefixed binary protocol of :mod:`repro.gateway.protocol`.  Each
request frame is validated and submitted into the model server's
micro-batching scheduler; the per-request future's completion is bounced
back onto the event loop, which writes the result (or error) frame to the
connection that asked.  Because replies are matched by request id, a single
connection can keep hundreds of requests in flight across many models — the
per-model dispatch lanes answer them in whatever order batches complete.

Admission control and backpressure, all from the serving policy:

* ``max_connections`` — connections beyond the cap are refused with a named
  error frame (code ``E_CONNECTION_LIMIT``) and closed, never buffered;
* ``max_inflight_per_conn`` — one slot budget per connection.  An admitted
  request holds a slot until its reply is written, and every other queued
  frame (error, stats or event) holds one until it is written.  A
  connection at its cap neither decodes a buffered frame nor reads its
  socket until a written frame frees a slot, so the TCP window pushes back
  on the client.  The gateway reads what the socket holds (up to
  ``protocol.READ_BYTES``) into the connection's
  :class:`~repro.gateway.protocol.FrameReader`, which then holds less than
  one read plus one maximum-size frame, and the outgoing queue never holds
  more frames than the cap;
* ``max_frame_bytes`` — an oversized length prefix fails the connection with
  a named error before the frame's payload is buffered.

Failure isolation: a malformed frame whose request id is readable fails only
that request (error frame, connection lives); a frame without a readable id
(bad magic, truncated or oversized header) fails only that connection (error
frame with the ``request_id == 0`` connection-fatal sentinel, then close).
A chunk series that fails reassembly fails only its request and is counted
apart, as a chunk-stream error.  The model server, its dispatch lanes, and
every other connection keep serving either way.

Observability: a connection can also subscribe to push telemetry —
``STATS_SUBSCRIBE`` starts periodic ``STATS`` frames (snapshots of
``ServeStats.as_dict()`` plus the gateway counters) and ``EVENTS_SUBSCRIBE``
streams the model server's broker events as ``EVENT`` frames.  Telemetry
frames take slots from the same budget: at the cap a stats tick is skipped
and an events pump parks until a written frame frees a slot (its broker
subscription keeps absorbing events, dropping oldest when full), so a slow
telemetry consumer throttles only its own stream.  The gateway itself
publishes ``ConnectionOpened`` / ``ConnectionClosed``, ``ProtocolError`` and
``ChunkStreamError`` events to the same broker, and — when the server's span
tracer is live — contributes ``gateway_decode`` / ``gateway_encode`` /
``gateway_write`` spans to each sampled request's trace through one
:class:`~repro.telemetry.spans.SpanBatch` per request, opened at decode
(the trace id rides the request future; the sampling decision is the span
batch's, not the gateway's).
"""

from __future__ import annotations

import asyncio
import threading
import time

from ..exceptions import (ChunkSeriesError, GatewayError, ServeError,
                          ServerClosedError)
from ..serve.server import ModelServer
from ..serve.stats import GatewayCounters
from ..telemetry.events import (ChunkStreamError, ConnectionClosed,
                                ConnectionOpened, ProtocolError)
from . import protocol

__all__ = ["Gateway"]


class _Connection:
    """Loop-side state of one accepted connection."""

    __slots__ = ("writer", "frames", "outgoing", "inflight", "slot_freed",
                 "alive", "peer", "pumps", "n_requests")

    def __init__(self, writer: asyncio.StreamWriter, max_frame_bytes: int,
                 max_request_samples: int) -> None:
        self.writer = writer
        peername = writer.get_extra_info("peername")
        #: ``host:port`` of the client, for the connection-scoped telemetry
        #: events (falls back to ``"?"`` on transports without a peername).
        self.peer = (f"{peername[0]}:{peername[1]}"
                     if isinstance(peername, (tuple, list))
                     and len(peername) >= 2 else "?")
        #: Parses this connection's incoming frames.  Its chunk reassembly is
        #: bounded by the policy's per-request sample limit — a stream
        #: declaring more is rejected on its first chunk.
        self.frames = protocol.FrameReader(max_frame_bytes,
                                           max_samples=max_request_samples)
        #: Telemetry pump tasks (stats/events subscriptions) of this
        #: connection; cancelled at teardown before the writer sentinel.
        self.pumps: list[asyncio.Task] = []
        #: Request frames admitted into the model server over this
        #: connection's lifetime (reported by its ConnectionClosed event).
        self.n_requests = 0
        #: Frames waiting for the writer task.  The queue object is
        #: unbounded, but each item holds an in-flight slot until it is
        #: written, so it never holds more than the cap.
        self.outgoing: asyncio.Queue = asyncio.Queue()
        #: Slots held: admitted requests not yet answered on the wire, plus
        #: queued error, stats and event frames.
        self.inflight = 0
        #: Set when a written frame frees a slot or the writer dies.  It
        #: wakes every waiter (the read loop, parked events pumps); each
        #: re-checks the cap and clears it before waiting again.
        self.slot_freed = asyncio.Event()
        self.alive = True


class Gateway:
    """TCP front-end: remote clients → micro-batching model server.

    Parameters
    ----------
    server:
        The :class:`~repro.serve.server.ModelServer` requests are submitted
        into (the gateway does not own it — closing the gateway leaves the
        server serving in-process callers).
    host / port:
        Bind address.  ``port=0`` (the default) picks a free port; the bound
        port is available as :attr:`port` after :meth:`start`.

    Use as a context manager, or call :meth:`start` / :meth:`close`::

        with ModelServer(registry, policy) as server:
            with Gateway(server).start() as gateway:
                client = GatewayClient(*gateway.address)
    """

    def __init__(self, server: ModelServer, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._server = server
        self.policy = server.policy
        self.host = host
        self.port = int(port)          # rebound to the real port on start()
        self.counters = GatewayCounters()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._shutdown: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "Gateway":
        """Bind, start serving on a dedicated event-loop thread, return self."""
        if self._closed:
            raise GatewayError(
                f"gateway at {self.host}:{self.port} is closed; create a new "
                "Gateway instead of restarting a closed one")
        if self._thread is not None:
            return self
        # A retried start() (e.g. after a failed bind) must not observe the
        # previous attempt's readiness flag or error.
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-gateway", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise GatewayError(
                f"gateway failed to bind {self.host}:{self.port}: "
                f"{self._startup_error!r}")
        return self

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the gateway is serving on."""
        return (self.host, self.port)

    def close(self) -> None:
        """Stop accepting, drop open connections, stop the loop (idempotent).

        The model server is left running; in-flight requests still resolve
        server-side, but replies to dropped connections go nowhere.  After
        ``close()`` the listening socket is gone — new client connects are
        refused by the OS, which clients surface as a named
        :class:`~repro.exceptions.GatewayError`.
        """
        if self._closed:
            return
        self._closed = True
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:
                pass                      # loop already torn down
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Connection/frame counters plus the bind address."""
        stats = self.counters.as_dict()
        stats["address"] = f"{self.host}:{self.port}"
        return stats

    @property
    def telemetry(self):
        """The model server's broker — the gateway publishes there too."""
        return self._server.telemetry

    # ------------------------------------------------------------ event loop
    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:   # noqa: BLE001 - surfaced via start()
            self._startup_error = exc
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._accept, self.host, self.port)
        except OSError as exc:
            self._startup_error = exc
            return
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await self._shutdown.wait()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        # Shutdown cancels this task, possibly while it already waits in
        # wait_closed() below; it must still end normally, because the
        # stream protocol's done-callback (Python 3.11) logs a cancelled
        # handler task as "Exception in callback".
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        counters = self.counters
        if counters.n_open_connections >= self.policy.max_connections:
            counters.n_rejected_connections += 1
            writer.write(protocol.encode_error(
                0, protocol.E_CONNECTION_LIMIT,
                f"gateway connection limit reached: "
                f"ServePolicy.max_connections="
                f"{self.policy.max_connections} connection(s) already open"))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            return
        counters.n_connections += 1
        counters.n_open_connections += 1
        conn = _Connection(writer, self.policy.max_frame_bytes,
                           self.policy.max_request_samples)
        if self.telemetry:
            self.telemetry.publish(ConnectionOpened(peer=conn.peer))
        writer_task = asyncio.ensure_future(self._write_loop(conn))
        try:
            await self._read_loop(reader, conn)
        finally:
            conn.alive = False
            # Stop the telemetry pumps before the writer sentinel: a pump
            # that survived it could enqueue frames nobody will ever write.
            for pump in conn.pumps:
                pump.cancel()
            if conn.pumps:
                await asyncio.gather(*conn.pumps, return_exceptions=True)
            # Chunk series still streaming at disconnect never completed:
            # account them as chunk-stream failures (the client is gone, so
            # no error frame — just the counter and the event).
            n_abandoned = conn.frames.n_streams
            if n_abandoned:
                counters.n_chunk_stream_errors += n_abandoned
                if self.telemetry:
                    self.telemetry.publish(ChunkStreamError(
                        peer=conn.peer,
                        detail=f"{n_abandoned} chunk stream(s) abandoned "
                               "at disconnect"))
            if self.telemetry:
                self.telemetry.publish(ConnectionClosed(
                    peer=conn.peer, n_requests=conn.n_requests))
            # Let queued replies flush, then stop the writer — but never
            # wait out a peer that stalled its reads (drain() would block
            # forever); cancel the writer instead.
            conn.outgoing.put_nowait(None)
            try:
                await asyncio.wait_for(writer_task, timeout=5.0)
            except asyncio.TimeoutError:
                writer_task.cancel()
                try:
                    await writer_task
                except asyncio.CancelledError:
                    pass
            except asyncio.CancelledError:
                writer_task.cancel()
            counters.n_open_connections -= 1

    async def _read_loop(self, reader: asyncio.StreamReader,
                         conn: _Connection) -> None:
        frames = conn.frames
        cap = self.policy.max_inflight_per_conn
        while True:
            # Backpressure: at the in-flight cap, neither decode a buffered
            # frame nor read the socket until a written frame frees a slot.
            while conn.alive and conn.inflight >= cap:
                conn.slot_freed.clear()
                await conn.slot_freed.wait()
            if not conn.alive:             # writer died: stop serving reads
                return
            n_before = frames.n_frames
            t_decode = time.monotonic()
            try:
                message = frames.next_message()
            except protocol.FrameError as err:
                if not self._frame_error(conn, err):
                    return
                continue
            finally:
                self.counters.n_frames_in += frames.n_frames - n_before
            if message is None:
                try:
                    data = await reader.read(protocol.READ_BYTES)
                except (ConnectionError, OSError):
                    return                  # client went away
                if not data:
                    return                  # EOF, possibly mid-frame
                frames.feed(data)
            elif isinstance(message, protocol.Request):
                self._submit(conn, message, t_decode,
                             time.monotonic() - t_decode)
            elif isinstance(message, protocol.StatsSubscribe):
                self._start_stats_pump(conn, message)
            elif isinstance(message, protocol.EventsSubscribe):
                self._start_events_pump(conn, message)
            elif not self._frame_error(conn, protocol.FrameError(
                    "clients send request or subscribe frames only",
                    request_id=message.request_id,
                    code=protocol.E_BAD_FRAME)):
                return

    def _frame_error(self, conn: _Connection,
                     err: protocol.FrameError) -> bool:
        """Account and answer one malformed frame.

        Returns ``False`` when the error is connection-fatal (no request id
        — the stream can't be trusted to be in sync any more) so the read
        loop fails this connection, nothing else.  A failed chunk series is
        published as a ``ChunkStreamError``, anything else as a
        ``ProtocolError``.
        """
        counters, telemetry = self.counters, self.telemetry
        counters.n_protocol_errors += 1
        code = err.code or protocol.E_BAD_FRAME
        detail = str(err)
        if isinstance(err, ChunkSeriesError):
            counters.n_chunk_stream_errors += 1
            if telemetry:
                telemetry.publish(ChunkStreamError(
                    peer=conn.peer, request_id=err.request_id, detail=detail))
        elif telemetry:
            telemetry.publish(ProtocolError(
                peer=conn.peer, code=code, request_id=err.request_id))
        if code == protocol.E_FRAME_TOO_LARGE:
            detail = (f"{detail} (ServePolicy.max_frame_bytes); closing this "
                      "connection, the frame was not read")
        self._enqueue(conn, protocol.encode_error(err.request_id, code,
                                                  detail))
        return err.request_id != 0

    def _submit(self, conn: _Connection, message: protocol.Request,
                t_decode: float, decode_s: float) -> None:
        counters = self.counters
        try:
            future = self._server.submit(message.key, message.samples)
        except ServeError as exc:
            counters.n_rejected_requests += 1
            code = (protocol.E_SERVER_CLOSED
                    if isinstance(exc, ServerClosedError)
                    else protocol.E_BAD_REQUEST)
            self._enqueue(conn, protocol.encode_error(
                message.request_id, code, str(exc)))
            return
        # The trace id exists only once the server admitted the request, so
        # the request's span batch opens here (sampling it once) and takes
        # the decode span retroactively from its timestamps; the encode and
        # write stages reuse it.  Unsampled, it is falsy and no stage takes
        # timestamps for it.
        tracer = self._server.tracer
        spans = tracer.batch((future.trace_id,)) if tracer else None
        if spans:
            spans.add("gateway_decode", t_decode, decode_s)
            spans.flush()
        counters.n_requests += 1
        conn.n_requests += 1
        # The request holds its slot until the writer puts its reply on the
        # wire (see _write_loop): releasing it earlier would let a client
        # that stalls its reads grow the outgoing queue past the cap.
        conn.inflight += 1
        request_id = message.request_id
        dtype = message.dtype
        future.add_done_callback(
            lambda fut: self._reply_threadsafe(conn, request_id, dtype, fut,
                                               spans))

    # --------------------------------------------------------------- replies
    def _reply_threadsafe(self, conn: _Connection, request_id: int,
                          dtype: int, future, spans) -> None:
        """Future callback — runs on a dispatch-lane thread.

        Must never raise into the lane's batch resolution: a gateway torn
        down mid-flight silently drops the reply instead.
        """
        loop = self._loop
        try:
            if loop is None or loop.is_closed():
                return
            loop.call_soon_threadsafe(self._reply, conn, request_id, dtype,
                                      future, spans)
        except RuntimeError:
            pass                           # loop shut down under us

    def _reply(self, conn: _Connection, request_id: int, dtype: int,
               future, spans) -> None:
        if not conn.alive:
            # The read loop is gone; its in-flight accounting with it.
            return
        if future.cancelled():
            frames = [protocol.encode_error(
                request_id, protocol.E_INTERNAL, "request cancelled")]
        else:
            exc = future.exception()
            if exc is not None:
                # An admitted request that failed server-side: not a
                # rejection (those are counted at submit), just a failure
                # relayed in its error frame.
                frames = [protocol.encode_error(
                    request_id, protocol.E_INTERNAL, str(exc))]
            else:
                # Reply in the request's wire dtype; a result too large for
                # one frame streams back as a RESULT_CHUNK series.  All its
                # frames are queued as one item so the reply is written
                # contiguously, under the slot its request already holds.
                t_encode = time.monotonic()
                frames = protocol.encode_result_frames(
                    request_id, future.result(), dtype=dtype,
                    max_frame_bytes=self.policy.max_frame_bytes)
                if spans:
                    spans.add("gateway_encode", t_encode,
                              time.monotonic() - t_encode)
                    spans.flush()
        conn.outgoing.put_nowait((b"".join(frames), len(frames), spans))

    def _enqueue(self, conn: _Connection, frame: bytes) -> None:
        """Queue an error, stats or event frame under a slot of its own."""
        if conn.alive:
            conn.inflight += 1
            conn.outgoing.put_nowait((frame, 1, None))

    # ------------------------------------------------------- telemetry pumps
    def _start_stats_pump(self, conn: _Connection,
                          message: protocol.StatsSubscribe) -> None:
        """Begin periodic STATS frames for one subscription (loop thread)."""
        interval = max(self.policy.stats_interval, float(message.interval_s))
        conn.pumps.append(asyncio.ensure_future(
            self._stats_pump(conn, message.request_id, interval)))

    async def _stats_pump(self, conn: _Connection, request_id: int,
                          interval: float) -> None:
        while conn.alive:
            # At the cap the tick is skipped (stats are periodic snapshots —
            # the next tick carries fresher numbers anyway), so a slow
            # consumer throttles only itself.
            if conn.inflight < self.policy.max_inflight_per_conn:
                payload = self._server.stats().as_dict()
                payload["gateway"] = self.stats()
                self._enqueue(conn, protocol.encode_stats(request_id, payload))
            await asyncio.sleep(interval)

    def _start_events_pump(self, conn: _Connection,
                           message: protocol.EventsSubscribe) -> None:
        """Begin streaming EVENT frames for one subscription (loop thread)."""
        loop = asyncio.get_running_loop()
        ready = asyncio.Event()
        # The broker wakeup fires on a publisher's thread; bounce it onto
        # the loop.  The broker swallows wakeup exceptions, so a loop torn
        # down mid-publish can never break the publishing lane.
        subscription = self._server.telemetry.subscribe(
            topics=message.topics or None,
            maxsize=self.policy.telemetry_maxsize,
            wakeup=lambda: loop.call_soon_threadsafe(ready.set))
        conn.pumps.append(asyncio.ensure_future(
            self._events_pump(conn, message.request_id, subscription, ready)))

    async def _events_pump(self, conn: _Connection, request_id: int,
                           subscription, ready: asyncio.Event) -> None:
        cap = self.policy.max_inflight_per_conn
        try:
            while conn.alive:
                ready.clear()
                while conn.inflight < cap:
                    event = subscription.get_nowait()
                    if event is None:
                        break
                    self._enqueue(conn, protocol.encode_event(
                        request_id, event.as_dict()))
                if len(subscription) and conn.inflight >= cap:
                    # Backlog but no slots: wait for a written frame to free
                    # one.  Events keep accumulating in the subscription's
                    # bounded queue meanwhile (dropping oldest when full) —
                    # backpressure costs this subscriber history, never the
                    # publisher latency and never other connections.
                    conn.slot_freed.clear()
                    await conn.slot_freed.wait()
                else:
                    await ready.wait()
        finally:
            subscription.close()

    async def _write_loop(self, conn: _Connection) -> None:
        try:
            while True:
                item = await conn.outgoing.get()
                if item is None:
                    return
                frame, n_frames, spans = item
                # Count before writing: transport.write() can push the bytes
                # to the socket synchronously, and a client observing the
                # reply must also observe it counted.
                self.counters.n_frames_out += n_frames
                t_write = time.monotonic()
                conn.writer.write(frame)
                await conn.writer.drain()
                if spans:
                    # Sampled at decode: error, stats and event frames carry
                    # None, an unsampled reply a falsy span batch.
                    spans.add("gateway_write", t_write,
                              time.monotonic() - t_write)
                    spans.flush()
                conn.inflight -= 1
                conn.slot_freed.set()
        except (ConnectionError, OSError):
            conn.alive = False
            # Wake the read loop and any events pump parked on the slot
            # budget: each re-checks conn.alive and exits.
            conn.slot_freed.set()
            # Drain until the read loop's sentinel arrives (nothing enqueues
            # after it: the read loop has exited by then).
            while True:
                if await conn.outgoing.get() is None:
                    return
