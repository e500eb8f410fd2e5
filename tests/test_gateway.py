"""Tests of the TCP gateway: protocol, live-socket round trips, isolation.

Everything here runs over real sockets — the gateway binds an ephemeral
port on 127.0.0.1 and the clients connect through the OS network stack; no
transport is mocked.  The acceptance test round-trips 1000+ pipelined
requests through one connection.
"""

import asyncio
import logging
import select
import socket
import struct
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.exceptions import FrameError, GatewayError
from repro.gateway import (
    AsyncGatewayClient,
    Gateway,
    GatewayClient,
    protocol,
)
from repro.runtime import ModelRegistry, compile_model, content_hash
from repro.serve import ModelServer, ServePolicy
from test_serve import small_model

FUTURE_TIMEOUT = 60.0


@pytest.fixture(scope="module")
def compiled_pair():
    return (compile_model(small_model(), dt=1e-9, input_range=(0.0, 1.0)),
            compile_model(small_model(tau=2.0), dt=1e-9,
                          input_range=(0.0, 1.0)))


@pytest.fixture()
def registry(compiled_pair, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    for compiled in compiled_pair:
        registry.save(compiled)
    return registry


@pytest.fixture()
def keys(compiled_pair):
    return tuple(content_hash(compiled) for compiled in compiled_pair)


def request_rows(n_rows: int = 16, n_steps: int = 64, seed: int = 0):
    rng = np.random.default_rng(seed)
    return 0.5 + 0.3 * rng.standard_normal((n_rows, n_steps))


# ------------------------------------------------------------------- protocol
class TestProtocol:
    def test_request_round_trip(self):
        samples = np.linspace(0.0, 1.0, 17)
        frame = protocol.encode_request(42, "deadbeef", samples)
        (length,) = protocol.LENGTH_PREFIX.unpack_from(frame)
        assert length == len(frame) - protocol.LENGTH_PREFIX.size
        decoded = protocol.decode_payload(frame[4:])
        assert isinstance(decoded, protocol.Request)
        assert decoded.request_id == 42 and decoded.key == "deadbeef"
        np.testing.assert_array_equal(decoded.samples, samples)

    def test_result_and_error_round_trip(self):
        outputs = np.arange(5.0)
        result = protocol.decode_payload(
            protocol.encode_result(7, outputs)[4:])
        assert isinstance(result, protocol.Result) and result.request_id == 7
        np.testing.assert_array_equal(result.outputs, outputs)
        error = protocol.decode_payload(
            protocol.encode_error(9, protocol.E_BAD_REQUEST, "nope")[4:])
        assert isinstance(error, protocol.ErrorReply)
        assert (error.request_id, error.code, error.message) == \
            (9, protocol.E_BAD_REQUEST, "nope")

    @pytest.mark.parametrize("payload, match", [
        (b"\x00\x01\x02", "truncated frame header"),
        (b"XX" + bytes(10), "bad frame magic"),
        (struct.pack("!HBBQ", protocol.MAGIC, 99, protocol.REQUEST, 1),
         "unsupported protocol version"),
        (struct.pack("!HBBQ", protocol.MAGIC, protocol.PROTOCOL_VERSION,
                     77, 1), "unknown message type"),
    ])
    def test_malformed_payloads_named(self, payload, match):
        with pytest.raises(FrameError, match=match):
            protocol.decode_payload(payload)

    def test_wrong_dtype_keeps_request_id(self):
        frame = bytearray(protocol.encode_request(5, "ab", np.zeros(4)))
        frame[4 + 12] = 9                      # dtype code byte
        with pytest.raises(FrameError, match="unsupported dtype code 9") as e:
            protocol.decode_payload(bytes(frame[4:]))
        assert e.value.request_id == 5

    def test_shape_header_mismatch_named(self):
        frame = protocol.encode_request(6, "ab", np.zeros(4))
        with pytest.raises(FrameError, match="shape header declares"):
            protocol.decode_payload(frame[4:-8])   # drop one sample

    def test_request_id_zero_rejected(self):
        with pytest.raises(FrameError, match="positive"):
            protocol.encode_request(0, "ab", np.zeros(4))

    def test_non_ascii_key_named_on_both_paths(self):
        """Satellite: frame_overhead must raise the same named FrameError as
        encode_request for a non-ASCII key, not a raw UnicodeEncodeError."""
        with pytest.raises(FrameError, match="model key must be ASCII"):
            protocol.encode_request(1, "modèle", np.zeros(4))
        with pytest.raises(FrameError, match="model key must be ASCII"):
            protocol.frame_overhead("modèle")
        # The happy path still answers plain byte accounting.
        assert protocol.frame_overhead("ab") == \
            protocol.frame_overhead() + 2

    def test_float32_round_trip_upcasts_at_the_edge(self):
        rng = np.random.default_rng(11)
        samples = 0.5 + 0.3 * rng.standard_normal(33)
        frame = protocol.encode_request(3, "ab", samples,
                                        dtype=protocol.DTYPE_FLOAT32)
        decoded = protocol.decode_payload(frame[4:])
        assert decoded.dtype == protocol.DTYPE_FLOAT32
        assert decoded.samples.dtype == np.float64     # upcast at the edge
        np.testing.assert_array_equal(
            decoded.samples,
            samples.astype(np.float32).astype(np.float64))
        result = protocol.decode_payload(
            protocol.encode_result(3, samples,
                                   dtype=protocol.DTYPE_FLOAT32)[4:])
        assert result.dtype == protocol.DTYPE_FLOAT32
        np.testing.assert_array_equal(
            result.outputs, samples.astype(np.float32).astype(np.float64))

    def test_float32_frames_halve_the_sample_bytes(self):
        samples = np.linspace(0.0, 1.0, 4096)
        f64 = protocol.encode_request(1, "ab", samples)
        f32 = protocol.encode_request(1, "ab", samples,
                                      dtype=protocol.DTYPE_FLOAT32)
        overhead = protocol.frame_overhead("ab")
        assert len(f64) - overhead == 4096 * 8
        assert len(f32) - overhead == 4096 * 4

    def test_dtype_code_normalises_specs(self):
        assert protocol.dtype_code("float64") == protocol.DTYPE_FLOAT64
        assert protocol.dtype_code("float32") == protocol.DTYPE_FLOAT32
        assert protocol.dtype_code(np.float32) == protocol.DTYPE_FLOAT32
        assert protocol.dtype_code(protocol.DTYPE_FLOAT32) == \
            protocol.DTYPE_FLOAT32
        with pytest.raises(FrameError, match="unsupported dtype code 9"):
            protocol.dtype_code(9)
        with pytest.raises(FrameError, match="unsupported wire dtype"):
            protocol.dtype_code("int32")


class TestChunkedFrames:
    def test_small_request_stays_a_single_frame(self):
        """The single-frame forms are byte-identical to the one-frame
        encoders, for requests and results, on either wire dtype and from
        either input dtype."""
        values = np.linspace(-1.0, 1.0, 16) / 3.0
        for samples in (values, values.astype(np.float32)):
            for dtype in (protocol.DTYPE_FLOAT64, protocol.DTYPE_FLOAT32):
                frames = protocol.encode_request_frames(
                    5, "ab", samples, dtype=dtype, max_frame_bytes=1 << 20)
                assert frames == [protocol.encode_request(5, "ab", samples,
                                                          dtype=dtype)]
                frames = protocol.encode_result_frames(
                    5, samples, dtype=dtype, max_frame_bytes=1 << 20)
                assert frames == [protocol.encode_result(5, samples,
                                                         dtype=dtype)]

    def test_request_chunk_series_reassembles_bitwise(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(3000)
        frames = protocol.encode_request_frames(9, "ab", samples,
                                                max_frame_bytes=4096)
        assert len(frames) > 1
        for frame in frames:
            (length,) = protocol.LENGTH_PREFIX.unpack_from(frame)
            assert length <= 4096
        assembler = protocol.ChunkAssembler()
        done = []
        for frame in frames:
            chunk = protocol.decode_payload(frame[4:])
            assert isinstance(chunk, protocol.RequestChunk)
            assert chunk.key == "ab"
            message = assembler.feed(chunk)
            if message is not None:
                done.append(message)
        assert len(done) == 1 and len(assembler) == 0
        request = done[0]
        assert isinstance(request, protocol.Request)
        assert request.request_id == 9 and request.key == "ab"
        np.testing.assert_array_equal(request.samples, samples)

    def test_result_chunk_series_reassembles_bitwise(self):
        outputs = np.linspace(-1.0, 1.0, 2500)
        frames = protocol.encode_result_frames(
            4, outputs, dtype=protocol.DTYPE_FLOAT32, max_frame_bytes=2048)
        assert len(frames) > 1
        assembler = protocol.ChunkAssembler()
        result = None
        for frame in frames:
            result = assembler.feed(protocol.decode_payload(frame[4:]))
        assert isinstance(result, protocol.Result)
        np.testing.assert_array_equal(
            result.outputs, outputs.astype(np.float32).astype(np.float64))

    def test_interleaved_streams_assemble_independently(self):
        a = np.arange(1000.0)
        b = -np.arange(1500.0)
        frames_a = [protocol.decode_payload(f[4:]) for f in
                    protocol.encode_request_frames(1, "aa", a,
                                                   max_frame_bytes=2048)]
        frames_b = [protocol.decode_payload(f[4:]) for f in
                    protocol.encode_request_frames(2, "bb", b,
                                                   max_frame_bytes=2048)]
        assembler = protocol.ChunkAssembler()
        done = {}
        for chunk in [x for pair in zip(frames_a, frames_b) for x in pair] \
                + frames_b[len(frames_a):]:
            message = assembler.feed(chunk)
            if message is not None:
                done[message.request_id] = message
        np.testing.assert_array_equal(done[1].samples, a)
        np.testing.assert_array_equal(done[2].samples, b)

    def test_assembler_rejects_out_of_order_and_drops_stream(self):
        frames = protocol.encode_request_frames(3, "ab",
                                                np.arange(3000.0),
                                                max_frame_bytes=4096)
        chunks = [protocol.decode_payload(f[4:]) for f in frames]
        assert len(chunks) >= 3
        assembler = protocol.ChunkAssembler()
        assembler.feed(chunks[0])
        with pytest.raises(FrameError, match="in order") as err:
            assembler.feed(chunks[2])              # gap: skipped chunk 1
        assert err.value.request_id == 3
        assert len(assembler) == 0                 # offending stream dropped

    def test_assembler_rejects_nonzero_first_offset(self):
        frames = protocol.encode_request_frames(6, "ab",
                                                np.arange(3000.0),
                                                max_frame_bytes=4096)
        later = protocol.decode_payload(frames[1][4:])
        with pytest.raises(FrameError, match="offset 0"):
            protocol.ChunkAssembler().feed(later)

    def test_assembler_enforces_sample_and_stream_limits(self):
        frames = protocol.encode_request_frames(7, "ab",
                                                np.arange(3000.0),
                                                max_frame_bytes=4096)
        first = protocol.decode_payload(frames[0][4:])
        with pytest.raises(FrameError, match="per-request limit"):
            protocol.ChunkAssembler(max_samples=100).feed(first)
        assembler = protocol.ChunkAssembler(max_streams=1)
        assembler.feed(first)
        other = protocol.decode_payload(protocol.encode_request_frames(
            8, "ab", np.arange(3000.0), max_frame_bytes=4096)[0][4:])
        with pytest.raises(FrameError, match="too many concurrent"):
            assembler.feed(other)

    def test_unstreamably_small_frame_budget_named(self):
        with pytest.raises(FrameError, match="cannot carry even one"):
            protocol.encode_request_frames(1, "k" * 64, np.zeros(100),
                                           max_frame_bytes=80)


class TestFrameReaderMemory:
    """What reading one large frame costs the reader, measured in bytes
    allocated under ``tracemalloc``: every copy needs a fresh allocation."""

    samples = np.random.default_rng(3).standard_normal(1 << 20)   # 8 MiB

    def test_frame_over_many_reads_costs_linear_allocation(self):
        """An 8 MiB request read 64 KiB at a time allocates about one copy
        for the frame and one for its samples, not a growing prefix per
        read (about 64 frames' worth here)."""
        frame = protocol.encode_request(1, "ab", self.samples)
        pieces = [frame[at:at + (64 << 10)]
                  for at in range(0, len(frame), 64 << 10)]
        reader = protocol.FrameReader()
        messages, allocated = [], 0
        tracemalloc.start()
        try:
            for piece in pieces:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                reader.feed(piece)
                while (message := reader.next_message()) is not None:
                    messages.append(message)
                allocated += tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        (request,) = messages
        assert request.samples.tobytes() == self.samples.tobytes()
        assert reader.buffered == 0
        assert allocated < 3 * len(frame)

    def test_consumed_frames_pin_no_read(self):
        """Once every fed frame is taken out, the reader drops its buffer:
        an idle connection holds none of its last read."""
        frame = protocol.encode_request(1, "ab", self.samples)
        halves = frame[:len(frame) // 2], frame[len(frame) // 2:]
        reader = protocol.FrameReader()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for half in halves:
                reader.feed(half)
            request = reader.next_message()
            assert reader.next_message() is None
            assert request.samples.tobytes() == self.samples.tobytes()
            del request
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert reader.buffered == 0
        assert held < 64 << 10


# ----------------------------------------------------------------- round trip
class TestGatewayRoundTrip:
    @pytest.fixture()
    def serving(self, registry):
        policy = ServePolicy(max_batch=32, max_wait=2e-3, n_lanes=2)
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                yield server, gateway

    def test_single_submit_bitwise_equal(self, serving, compiled_pair, keys):
        _, gateway = serving
        row = request_rows(1, 48)[0]
        with GatewayClient(*gateway.address) as client:
            output = client.submit(keys[0], row)
        np.testing.assert_array_equal(output,
                                      compiled_pair[0].evaluate(row))

    def test_1200_requests_through_live_socket(self, serving, compiled_pair,
                                               keys):
        """Acceptance: 1000+ pipelined round trips, interleaved 2-model."""
        server, gateway = serving
        rows = request_rows(40, 64)
        requests = [(keys[i % 2], rows[i % 40]) for i in range(1200)]
        with GatewayClient(*gateway.address) as client:
            outputs = client.submit_many(requests)
        assert len(outputs) == 1200
        for (key, row), output in zip(requests, outputs):
            model = compiled_pair[keys.index(key)]
            np.testing.assert_array_equal(output, model.evaluate(row))
        stats = server.stats()
        assert stats.n_completed >= 1200 and stats.n_failed == 0
        assert {model.lane for model in stats.per_model.values()} == {0, 1}
        assert gateway.counters.n_requests >= 1200

    def test_async_client_round_trip(self, serving, compiled_pair, keys):
        _, gateway = serving
        rows = request_rows(8, 32, seed=3)

        async def drive():
            async with await AsyncGatewayClient.connect(
                    *gateway.address) as client:
                requests = [(keys[i % 2], rows[i % 8]) for i in range(64)]
                return requests, await client.submit_many(requests)

        requests, outputs = asyncio.run(drive())
        for (key, row), output in zip(requests, outputs):
            model = compiled_pair[keys.index(key)]
            np.testing.assert_array_equal(output, model.evaluate(row))

    def test_mixed_lengths_round_trip(self, serving, compiled_pair, keys):
        _, gateway = serving
        short, long = np.full(16, 0.4), np.full(48, 0.6)
        with GatewayClient(*gateway.address) as client:
            outputs = client.submit_many(
                [(keys[0], short), (keys[0], long), (keys[1], short)])
        np.testing.assert_array_equal(outputs[0],
                                      compiled_pair[0].evaluate(short))
        np.testing.assert_array_equal(outputs[1],
                                      compiled_pair[0].evaluate(long))
        np.testing.assert_array_equal(outputs[2],
                                      compiled_pair[1].evaluate(short))

    def test_backpressure_cap_still_serves_all(self, registry, compiled_pair,
                                               keys):
        """A tiny in-flight cap throttles reads, never loses requests."""
        policy = ServePolicy(max_batch=8, max_wait=1e-3, n_lanes=2,
                             max_inflight_per_conn=4)
        rows = request_rows(20, 32, seed=5)
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                with GatewayClient(*gateway.address) as client:
                    outputs = client.submit_many(
                        [(keys[i % 2], rows[i % 20]) for i in range(100)])
        assert len(outputs) == 100
        np.testing.assert_array_equal(
            outputs[0], compiled_pair[0].evaluate(rows[0]))


# ------------------------------------------------------- raw-socket utilities
def raw_connection(gateway) -> socket.socket:
    sock = socket.create_connection(gateway.address, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


#: One FrameReader per raw socket: bytes read past one reply stay buffered
#: for the next call.
_readers = weakref.WeakKeyDictionary()


def read_reply(sock: socket.socket):
    """One decoded reply off a raw socket (None on EOF)."""
    frames = _readers.setdefault(sock, protocol.FrameReader())
    while (reply := frames.next_message()) is None:
        data = sock.recv(1 << 16)
        if not data:
            return None
        frames.feed(data)
    return reply


def assert_closed(sock: socket.socket) -> None:
    """The far end must close: the next read returns EOF, not data."""
    assert read_reply(sock) is None


# ------------------------------------------------------------ failure paths
class TestGatewayFailureIsolation:
    """Malformed traffic fails only its connection/request — never the lane
    or the server (every test re-proves the server serves afterwards)."""

    @pytest.fixture()
    def serving(self, registry):
        policy = ServePolicy(max_batch=8, max_wait=1e-3, n_lanes=2,
                             max_frame_bytes=1 << 20)
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                yield server, gateway

    def still_serves(self, gateway, compiled_pair, keys):
        row = request_rows(1, 24, seed=9)[0]
        with GatewayClient(*gateway.address) as client:
            output = client.submit(keys[0], row)
        np.testing.assert_array_equal(output,
                                      compiled_pair[0].evaluate(row))

    def test_truncated_header_fails_only_that_connection(
            self, serving, compiled_pair, keys):
        _, gateway = serving
        sock = raw_connection(gateway)
        sock.sendall(protocol.LENGTH_PREFIX.pack(5) + b"\x01\x02\x03\x04\x05")
        reply = read_reply(sock)
        assert isinstance(reply, protocol.ErrorReply)
        assert reply.request_id == 0           # connection-fatal sentinel
        assert "truncated frame header" in reply.message
        assert_closed(sock)
        sock.close()
        self.still_serves(gateway, compiled_pair, keys)

    def test_oversized_frame_fails_only_that_connection(
            self, serving, compiled_pair, keys):
        _, gateway = serving
        sock = raw_connection(gateway)
        sock.sendall(protocol.LENGTH_PREFIX.pack(2 << 20))   # beyond policy
        reply = read_reply(sock)
        assert isinstance(reply, protocol.ErrorReply)
        assert reply.request_id == 0
        assert "max_frame_bytes" in reply.message
        assert_closed(sock)
        sock.close()
        self.still_serves(gateway, compiled_pair, keys)

    def test_wrong_dtype_fails_only_that_request(self, serving,
                                                 compiled_pair, keys):
        _, gateway = serving
        sock = raw_connection(gateway)
        frame = bytearray(protocol.encode_request(11, keys[0], np.zeros(8)))
        frame[4 + 12] = 3                      # unsupported dtype code
        sock.sendall(bytes(frame))
        reply = read_reply(sock)
        assert isinstance(reply, protocol.ErrorReply)
        assert reply.request_id == 11
        assert "unsupported dtype code 3" in reply.message
        # Same connection keeps working afterwards.
        row = request_rows(1, 24, seed=2)[0]
        sock.sendall(protocol.encode_request(12, keys[0], row))
        reply = read_reply(sock)
        assert isinstance(reply, protocol.Result) and reply.request_id == 12
        np.testing.assert_array_equal(reply.outputs,
                                      compiled_pair[0].evaluate(row))
        sock.close()

    def test_unknown_model_key_fails_only_that_request(
            self, serving, compiled_pair, keys):
        _, gateway = serving
        with GatewayClient(*gateway.address) as client:
            outputs = client.submit_many(
                [("f" * 64, np.full(16, 0.5)),
                 (keys[0], np.full(16, 0.5))], return_errors=True)
            assert isinstance(outputs[0], GatewayError)
            assert "unknown model key" in str(outputs[0])
            np.testing.assert_array_equal(
                outputs[1], compiled_pair[0].evaluate(np.full(16, 0.5)))
            with pytest.raises(GatewayError, match="unknown model key"):
                client.submit_many([("f" * 64, np.full(16, 0.5))])
        self.still_serves(gateway, compiled_pair, keys)

    def test_non_finite_request_fails_only_that_request(
            self, serving, compiled_pair, keys):
        _, gateway = serving
        bad = np.full(16, 0.5)
        bad[3] = np.inf
        with GatewayClient(*gateway.address) as client:
            outputs = client.submit_many(
                [(keys[0], bad), (keys[0], np.full(16, 0.5))],
                return_errors=True)
        assert isinstance(outputs[0], GatewayError)
        assert "non-finite sample at step 3" in str(outputs[0])
        assert not isinstance(outputs[1], GatewayError)

    def test_connect_to_closed_gateway_named(self, registry):
        server = ModelServer(registry, ServePolicy(max_batch=4,
                                                   max_wait=1e-3))
        gateway = Gateway(server).start()
        address = gateway.address
        gateway.close()
        server.close()
        with pytest.raises(GatewayError,
                           match=r"could not connect to gateway at"):
            GatewayClient(*address)

    def test_submit_to_closed_server_behind_gateway_named(self, registry,
                                                          keys):
        """Gateway up, model server closed: requests fail with the server's
        name, the connection (and gateway) stay up."""
        server = ModelServer(registry, ServePolicy(max_batch=4,
                                                   max_wait=1e-3))
        with Gateway(server) as gateway:
            server.close()
            with GatewayClient(*gateway.address) as client:
                outputs = client.submit_many(
                    [(keys[0], np.full(8, 0.5))] * 3, return_errors=True)
                assert all(isinstance(out, GatewayError) for out in outputs)
                assert "ModelServer(" in str(outputs[0])
                assert "is closed" in str(outputs[0])

    def test_connection_limit_refused_with_named_error(self, registry,
                                                       compiled_pair, keys):
        policy = ServePolicy(max_batch=4, max_wait=1e-3, max_connections=1)
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                with GatewayClient(*gateway.address) as first:
                    sock = raw_connection(gateway)
                    reply = read_reply(sock)
                    assert isinstance(reply, protocol.ErrorReply)
                    assert reply.code == protocol.E_CONNECTION_LIMIT
                    assert "max_connections=1" in reply.message
                    assert_closed(sock)
                    sock.close()
                    # The admitted connection is unaffected.
                    row = request_rows(1, 16)[0]
                    np.testing.assert_array_equal(
                        first.submit(keys[0], row),
                        compiled_pair[0].evaluate(row))
                assert gateway.counters.n_rejected_connections == 1

    def test_async_client_fails_fast_after_gateway_goes_away(self, registry,
                                                             keys):
        """A dead connection fails later submits immediately — no hang."""
        server = ModelServer(registry, ServePolicy(max_batch=4,
                                                   max_wait=1e-3))
        gateway = Gateway(server).start()

        async def drive():
            client = await AsyncGatewayClient.connect(*gateway.address)
            np.testing.assert_array_equal(
                await client.submit(keys[0], np.full(8, 0.5)),
                (await client.submit(keys[0], np.full(8, 0.5))))
            gateway.close()
            with pytest.raises(GatewayError):
                for _ in range(50):          # dropped conn surfaces quickly
                    await client.submit(keys[0], np.full(8, 0.5))
            # ... and from then on every submit fails fast, not by timeout.
            with pytest.raises(GatewayError):
                await client.submit(keys[0], np.full(8, 0.5))
            await client.close()

        try:
            asyncio.run(drive())
        finally:
            gateway.close()
            server.close()

    def test_gateway_close_is_idempotent_and_restart_refused(self, registry):
        server = ModelServer(registry, ServePolicy(max_batch=4,
                                                   max_wait=1e-3))
        gateway = Gateway(server).start()
        gateway.close()
        gateway.close()
        with pytest.raises(GatewayError, match="is closed"):
            gateway.start()
        server.close()

    def test_close_during_connection_teardown_logs_nothing(
            self, registry, monkeypatch, caplog):
        """Shutdown cancels a connection task already parked in
        ``writer.wait_closed()``: the task must end normally, or asyncio
        logs "Exception in callback" for the cancelled handler task."""
        original = asyncio.StreamWriter.wait_closed

        async def slow_wait_closed(writer):
            await asyncio.sleep(2.0)
            await original(writer)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                            slow_wait_closed)
        caplog.set_level(logging.WARNING, logger="asyncio")
        with ModelServer(registry, ServePolicy(max_batch=4,
                                               max_wait=1e-3)) as server:
            gateway = Gateway(server).start()
            raw_connection(gateway).close()
            deadline = time.monotonic() + 10.0
            while not (gateway.counters.n_connections == 1
                       and gateway.counters.n_open_connections == 0):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.1)           # parked in the slowed wait_closed
            gateway.close()
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_chunk_stream_truncation_fails_only_its_request(
            self, serving, compiled_pair, keys):
        """Satellite: an abandoned/inconsistent chunk stream fails exactly
        that request — the connection (and other requests) keep serving."""
        _, gateway = serving
        sock = raw_connection(gateway)
        frames = protocol.encode_request_frames(
            21, keys[0], np.full(3000, 0.5), max_frame_bytes=4096)
        assert len(frames) >= 3
        # Truncate the stream: first chunk, then a gap (third chunk).
        sock.sendall(frames[0] + frames[2])
        reply = read_reply(sock)
        assert isinstance(reply, protocol.ErrorReply)
        assert reply.request_id == 21
        assert "in order" in reply.message
        # Same connection still serves: a fresh complete stream round-trips.
        row = request_rows(1, 24, seed=8)[0]
        for frame in protocol.encode_request_frames(22, keys[0], row,
                                                    max_frame_bytes=256):
            sock.sendall(frame)
        reply = read_reply(sock)
        assert isinstance(reply, protocol.Result) and reply.request_id == 22
        np.testing.assert_array_equal(reply.outputs,
                                      compiled_pair[0].evaluate(row))
        sock.close()

    def test_counters_track_traffic(self, serving, keys):
        _, gateway = serving
        with GatewayClient(*gateway.address) as client:
            client.submit_many([(keys[0], np.full(16, 0.5))] * 5)
        counters = gateway.counters
        assert counters.n_connections >= 1
        assert counters.n_frames_in >= 5
        # The out-counter is bumped on the event loop right after the write
        # syscall; give that thread a beat to finish its bookkeeping.
        deadline = time.monotonic() + 5.0
        while counters.n_frames_out < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert counters.n_frames_out >= 5
        assert counters.n_requests >= 5
        assert "connection" in counters.describe()
        stats = gateway.stats()
        assert stats["address"].startswith("127.0.0.1:")


# ------------------------------------------------------------ slot budget
class TestSlotBudget:
    """Every queued frame (reply, error, stats or event) holds one of the
    connection's ``max_inflight_per_conn`` slots until it is written."""

    #: The sender keeps at most this many frames ahead of the gateway's
    #: error count, so a paused gateway is not buried in buffered bytes.
    AHEAD = 20_000
    CHUNK = 1_000

    def test_malformed_flood_pauses_the_reader_and_loses_nothing(
            self, registry, compiled_pair, keys):
        """A client floods malformed frames with readable ids and does not
        read.  The error frames fill the kernel buffers, the writer stalls,
        the queued errors take every slot, and the gateway stops reading:
        its error count levels off below the frames sent.  Once the client
        reads, it gets one error per frame, in order, and the connection
        still serves a request bitwise."""
        policy = ServePolicy(max_batch=8, max_wait=1e-3,
                             max_inflight_per_conn=4)
        bad_head = struct.Struct("!IHBBQBIH")  # prefix + request head only
        sent_bytes, stop, failures = [0], threading.Event(), []
        with ModelServer(registry, policy) as server, \
                Gateway(server) as gateway:
            counters = gateway.counters
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(30.0)
            sock.connect(gateway.address)

            def n_sent() -> int:
                return sent_bytes[0] // bad_head.size

            def flood():
                next_id = 1
                try:
                    while not stop.is_set():
                        if n_sent() - counters.n_protocol_errors > self.AHEAD:
                            time.sleep(0.01)
                            continue
                        view = memoryview(b"".join(
                            bad_head.pack(bad_head.size - 4, protocol.MAGIC,
                                          protocol.PROTOCOL_VERSION,
                                          protocol.REQUEST, request_id,
                                          9, 0, 1)       # dtype code 9
                            for request_id in range(next_id,
                                                    next_id + self.CHUNK)))
                        next_id += self.CHUNK
                        while view:              # blocks once buffers fill
                            n = sock.send(view)
                            sent_bytes[0] += n
                            view = view[n:]
                except OSError as exc:
                    failures.append(exc)

            sender = threading.Thread(target=flood, daemon=True)
            sender.start()
            last, since = -1, time.monotonic()
            deadline = time.monotonic() + 60.0
            while time.monotonic() - since < 0.5:
                assert time.monotonic() < deadline, "gateway never paused"
                if counters.n_protocol_errors != last:
                    last, since = counters.n_protocol_errors, time.monotonic()
                time.sleep(0.05)
            # Paused: frames sent (or stuck in a blocked send) go unread.
            assert 0 < last < n_sent()
            stop.set()
            frames, got = protocol.FrameReader(), 0
            deadline = time.monotonic() + 60.0
            while sender.is_alive() or got < n_sent():
                assert time.monotonic() < deadline, "replies stopped"
                reply = frames.next_message()
                if reply is None:
                    # A sender finishing its chunk waits for these reads.
                    if select.select([sock], [], [], 0.05)[0]:
                        frames.feed(sock.recv(1 << 16))
                    continue
                assert isinstance(reply, protocol.ErrorReply)
                assert reply.request_id == got + 1
                assert "unsupported dtype code 9" in reply.message
                got += 1
            assert failures == [] and got == n_sent()
            assert frames.buffered == 0
            row = request_rows(1, 24, seed=4)[0]
            sock.sendall(protocol.encode_request(got + 1, keys[0], row))
            reply = read_reply(sock)
            assert isinstance(reply, protocol.Result)
            assert reply.request_id == got + 1
            np.testing.assert_array_equal(reply.outputs,
                                          compiled_pair[0].evaluate(row))
            sock.close()
        assert counters.n_protocol_errors == got


# ----------------------------------------------------------- wire format opt-ins
class TestWireFormats:
    """Float32 opt-in and chunked streaming through live sockets."""

    @pytest.fixture()
    def serving(self, registry):
        policy = ServePolicy(max_batch=32, max_wait=2e-3, n_lanes=2)
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                yield server, gateway

    def test_float32_request_bitwise_matches_upcast_path(
            self, serving, compiled_pair, keys):
        """Acceptance: a float32 wire round trip equals evaluating the
        float32-quantised stimulus in float64 and quantising the reply."""
        _, gateway = serving
        rows = request_rows(6, 48, seed=13)
        with GatewayClient(*gateway.address, dtype="float32") as client:
            outputs = client.submit_many([(keys[0], row) for row in rows])
        for row, output in zip(rows, outputs):
            upcast = row.astype(np.float32).astype(np.float64)
            direct = compiled_pair[0].evaluate(upcast)
            expected = direct.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(output, expected)

    def test_float32_async_client_round_trip(self, serving, compiled_pair,
                                             keys):
        _, gateway = serving
        row = request_rows(1, 32, seed=14)[0]

        async def drive():
            async with await AsyncGatewayClient.connect(
                    *gateway.address, dtype="float32") as client:
                return await client.submit(keys[0], row)

        output = asyncio.run(drive())
        upcast = row.astype(np.float32).astype(np.float64)
        expected = compiled_pair[0].evaluate(upcast).astype(
            np.float32).astype(np.float64)
        np.testing.assert_array_equal(output, expected)

    def test_long_stimulus_streams_in_chunks_both_ways(self, registry,
                                                       compiled_pair, keys):
        """A stimulus beyond max_frame_bytes streams out as REQUEST_CHUNKs
        and its (equally oversized) reply streams back as RESULT_CHUNKs."""
        policy = ServePolicy(max_batch=8, max_wait=1e-3, n_lanes=2,
                             max_frame_bytes=4096)
        rng = np.random.default_rng(15)
        long_row = 0.5 + 0.3 * rng.standard_normal(5000)   # 40 kB in float64
        short_row = request_rows(1, 32, seed=16)[0]
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                with GatewayClient(*gateway.address,
                                   max_frame_bytes=4096) as client:
                    outputs = client.submit_many(
                        [(keys[0], long_row), (keys[1], short_row)])
                counters = gateway.counters
                # The long request could not have fit one frame each way.
                assert counters.n_frames_in > 2
                assert counters.n_frames_out > 2
        np.testing.assert_array_equal(outputs[0],
                                      compiled_pair[0].evaluate(long_row))
        np.testing.assert_array_equal(outputs[1],
                                      compiled_pair[1].evaluate(short_row))

    def test_chunked_float32_stream_round_trip(self, registry, compiled_pair,
                                               keys):
        """Chunking composes with the float32 opt-in."""
        policy = ServePolicy(max_batch=8, max_wait=1e-3,
                             max_frame_bytes=2048)
        rng = np.random.default_rng(17)
        long_row = 0.5 + 0.3 * rng.standard_normal(4000)
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                with GatewayClient(*gateway.address, max_frame_bytes=2048,
                                   dtype="float32") as client:
                    output = client.submit(keys[0], long_row)
        upcast = long_row.astype(np.float32).astype(np.float64)
        expected = compiled_pair[0].evaluate(upcast).astype(
            np.float32).astype(np.float64)
        np.testing.assert_array_equal(output, expected)

    def test_oversized_request_refused_with_named_limit_when_chunked(
            self, registry, keys):
        """Chunk streaming still honours the per-request sample limit —
        the stream is refused on its *first* chunk, before any buffering."""
        policy = ServePolicy(max_batch=8, max_wait=1e-3,
                             max_frame_bytes=4096, max_request_samples=1000)
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                sock = raw_connection(gateway)
                frames = protocol.encode_request_frames(
                    31, keys[0], np.full(5000, 0.5), max_frame_bytes=4096)
                sock.sendall(frames[0])
                reply = read_reply(sock)
                assert isinstance(reply, protocol.ErrorReply)
                assert reply.request_id == 31
                assert "per-request limit" in reply.message
                sock.close()
