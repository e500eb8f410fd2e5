"""Gateway wire protocol: length-prefixed binary frames, stdlib only.

One frame is a 4-byte big-endian payload length followed by the payload.
Every payload starts with a fixed 12-byte prefix::

    !HBBQ   magic 0x5247 ('RG') | version | message type | request id

followed by a per-type body:

* **REQUEST** (client → gateway): ``!BIH`` dtype code | n_steps (shape
  header) | key length, then the model key (ASCII) and the raw samples —
  ``n_steps`` little-endian values of the declared dtype.  The explicit
  dtype/shape header lets the gateway validate the body *before* touching
  the model server: a declared shape that disagrees with the byte count is
  a malformed frame, not a garbled model input.
* **RESULT** (gateway → client): ``!BI`` dtype code | n_steps, then the raw
  little-endian output row.  A result is encoded in the dtype its request
  declared.
* **ERROR** (gateway → client): ``!H`` error code, then a UTF-8 message.
  ``request_id`` names the request being failed; ``request_id == 0`` means
  the error is connection-fatal (the gateway could not trust the stream any
  further and is closing it).
* **REQUEST_CHUNK** (client → gateway): ``!BIIH`` dtype code | total
  n_steps | sample offset | key length, then the key and this chunk's
  samples.  A stimulus longer than ``max_frame_bytes`` streams as an
  in-order chunk series (offset 0 first, each offset equal to the samples
  already sent); the stream completes — and is served exactly like a plain
  REQUEST — when the accumulated samples reach the declared total.
* **RESULT_CHUNK** (gateway → client): ``!BII`` dtype code | total n_steps
  | sample offset, then this chunk's samples.  The result-side mirror of
  REQUEST_CHUNK, for replies that exceed ``max_frame_bytes``.
* **STATS_SUBSCRIBE** (client → gateway): ``!d`` interval seconds.  The
  gateway starts emitting periodic **STATS** frames (UTF-8 JSON body:
  ``ServeStats.as_dict()`` plus a ``"gateway"`` counter section) on this
  connection at the requested cadence, clamped up to
  ``ServePolicy.stats_interval``, echoing the subscription's request id on
  every frame.  One subscription per request id; the stream ends with the
  connection.
* **EVENTS_SUBSCRIBE** (client → gateway): UTF-8 JSON body — a list of
  topic names (event class names; empty list = every topic).  The gateway
  streams matching telemetry events as **EVENT** frames (UTF-8 JSON body:
  the event's ``as_dict()``), echoing the subscription's request id.  A
  slow subscriber's queue drops oldest-first server-side; its frames share
  the connection's ``max_inflight_per_conn`` slot budget, so telemetry can
  never starve the same connection's data traffic — nor anyone else's.

**Dtype codes**: float64 (code 1) is the native wire format.  A client may
opt into float32 (code 2) to halve its request/response bytes; the gateway
upcasts to float64 at the edge — the model server and runtime only ever see
float64 — and encodes the reply in the request's dtype.  The dtype is a
per-message transport choice, not a protocol version: version 1 speaks both.

Decoding raises :class:`~repro.exceptions.FrameError` with the recovered
``request_id`` (when the fixed prefix was intact) and the wire error code,
so a server can fail exactly the offending request — or only the offending
connection — and a client can map a reply onto the caller that sent it.

Every endpoint parses its incoming byte stream with one
:class:`FrameReader` (sans-I/O, https://sans-io.readthedocs.io/): the
endpoint feeds it whatever its socket returned and takes whole messages
out, chunk series already reassembled.  The gateway, both clients and the
tests share that one parser.

The request id is chosen by the client (non-zero, unique among its in-flight
requests on that connection); the gateway echoes it verbatim.  Replies may
arrive in any order — different models complete on different dispatch lanes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ChunkSeriesError, FrameError

__all__ = [
    "ChunkAssembler",
    "DTYPE_FLOAT32",
    "DTYPE_FLOAT64",
    "ERROR",
    "ErrorReply",
    "MAX_KEY_BYTES",
    "PROTOCOL_VERSION",
    "EVENT",
    "EVENTS_SUBSCRIBE",
    "EventFrame",
    "EventsSubscribe",
    "FrameReader",
    "READ_BYTES",
    "REQUEST",
    "REQUEST_CHUNK",
    "RESULT",
    "RESULT_CHUNK",
    "Request",
    "RequestChunk",
    "Result",
    "ResultChunk",
    "STATS",
    "STATS_SUBSCRIBE",
    "StatsFrame",
    "StatsSubscribe",
    "E_BAD_FRAME",
    "E_BAD_REQUEST",
    "E_CONNECTION_LIMIT",
    "E_FRAME_TOO_LARGE",
    "E_INTERNAL",
    "E_SERVER_CLOSED",
    "dtype_code",
    "encode_error",
    "encode_event",
    "encode_events_subscribe",
    "encode_request",
    "encode_request_frames",
    "encode_result",
    "encode_result_frames",
    "encode_stats",
    "encode_stats_subscribe",
    "decode_payload",
    "frame_overhead",
]

#: ``'RG'`` — repro gateway.
MAGIC = 0x5247
PROTOCOL_VERSION = 1

# Message types.
REQUEST, RESULT, ERROR = 1, 2, 3
REQUEST_CHUNK, RESULT_CHUNK = 4, 5
STATS_SUBSCRIBE, EVENTS_SUBSCRIBE, STATS, EVENT = 6, 7, 8, 9

#: Sample dtype codes.  Samples always reach the runtime as float64; the
#: code only chooses the wire representation (float32 halves the bytes at
#: ~1e-7 relative quantisation — the client's call).
DTYPE_FLOAT64 = 1
DTYPE_FLOAT32 = 2

#: Wire representation per dtype code: always little-endian, independent of
#: host byte order.
WIRE_DTYPES = {DTYPE_FLOAT64: np.dtype("<f8"), DTYPE_FLOAT32: np.dtype("<f4")}

# Error codes carried by ERROR frames.
E_BAD_FRAME = 1          #: malformed payload (magic/version/type/body)
E_BAD_REQUEST = 2        #: the model server rejected the request at submit
E_SERVER_CLOSED = 3      #: the model server behind the gateway is closed
E_INTERNAL = 4           #: evaluation failed server-side
E_FRAME_TOO_LARGE = 5    #: length prefix exceeded ``max_frame_bytes``
E_CONNECTION_LIMIT = 6   #: refused by ``max_connections`` admission control

MAX_KEY_BYTES = 512

#: Bytes an asyncio endpoint asks its socket for per read: it takes
#: whatever the socket holds, up to this, and feeds it to its FrameReader.
READ_BYTES = 256 << 10

LENGTH_PREFIX = struct.Struct("!I")
_PREFIX = struct.Struct("!HBBQ")
_REQUEST_HEAD = struct.Struct("!BIH")
_RESULT_HEAD = struct.Struct("!BI")
_ERROR_HEAD = struct.Struct("!H")
_REQUEST_CHUNK_HEAD = struct.Struct("!BIIH")
_RESULT_CHUNK_HEAD = struct.Struct("!BII")
_STATS_SUB_HEAD = struct.Struct("!d")


def dtype_code(dtype) -> int:
    """Normalise a dtype spec (code, name, or numpy dtype) to its wire code."""
    if isinstance(dtype, int):
        if dtype not in WIRE_DTYPES:
            raise FrameError(f"unsupported dtype code {dtype} (known: "
                             f"{sorted(WIRE_DTYPES)})")
        return dtype
    try:
        wanted = np.dtype(dtype)
    except TypeError as exc:
        raise FrameError(f"unsupported wire dtype {dtype!r}: {exc}") from None
    for code, wire in WIRE_DTYPES.items():
        if wire.kind == wanted.kind and wire.itemsize == wanted.itemsize:
            return code
    raise FrameError(
        f"unsupported wire dtype {dtype!r} (supported: float64, float32)")


@dataclass(frozen=True)
class Request:
    """A decoded request frame (samples already upcast to float64)."""

    request_id: int
    key: str
    samples: np.ndarray
    #: Wire dtype the client sent — the reply must be encoded in kind.
    dtype: int = DTYPE_FLOAT64


@dataclass(frozen=True)
class Result:
    """A decoded result frame (outputs already upcast to float64)."""

    request_id: int
    outputs: np.ndarray
    dtype: int = DTYPE_FLOAT64


@dataclass(frozen=True)
class RequestChunk:
    """One slice of a streaming request (feed to a :class:`ChunkAssembler`)."""

    request_id: int
    key: str
    samples: np.ndarray
    dtype: int
    n_steps_total: int
    offset: int


@dataclass(frozen=True)
class ResultChunk:
    """One slice of a streaming result (feed to a :class:`ChunkAssembler`)."""

    request_id: int
    outputs: np.ndarray
    dtype: int
    n_steps_total: int
    offset: int


@dataclass(frozen=True)
class ErrorReply:
    """A decoded error frame (``request_id == 0`` → connection-fatal)."""

    request_id: int
    code: int
    message: str


@dataclass(frozen=True)
class StatsSubscribe:
    """A decoded STATS_SUBSCRIBE frame (interval is a request, see clamp)."""

    request_id: int
    interval_s: float


@dataclass(frozen=True)
class EventsSubscribe:
    """A decoded EVENTS_SUBSCRIBE frame (empty ``topics`` = every topic)."""

    request_id: int
    topics: tuple[str, ...] = ()


@dataclass(frozen=True)
class StatsFrame:
    """A decoded STATS frame (one periodic server-stats snapshot)."""

    request_id: int
    payload: dict


@dataclass(frozen=True)
class EventFrame:
    """A decoded EVENT frame (one telemetry event's ``as_dict`` payload)."""

    request_id: int
    payload: dict


def _ascii(key: str) -> bytes:
    try:
        return key.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FrameError(f"model key must be ASCII: {exc}") from None


def frame_overhead(key: str = "") -> int:
    """Bytes a request frame adds on top of the raw sample payload."""
    return (LENGTH_PREFIX.size + _PREFIX.size + _REQUEST_HEAD.size
            + len(_ascii(key)))


def _frame(payload: bytes) -> bytes:
    return LENGTH_PREFIX.pack(len(payload)) + payload


def _check_request_id(request_id: int) -> None:
    if request_id < 1:
        raise FrameError("request_id must be a positive integer (0 is the "
                         "connection-fatal sentinel)")


def _key_bytes(key: str) -> bytes:
    key_bytes = _ascii(key)
    if not key_bytes or len(key_bytes) > MAX_KEY_BYTES:
        raise FrameError(f"model key must be 1..{MAX_KEY_BYTES} ASCII bytes; "
                         f"got {len(key_bytes)}")
    return key_bytes


def _wire_samples(values, dtype: int) -> np.ndarray:
    """Flatten ``values`` into a contiguous array of the wire dtype."""
    return np.ascontiguousarray(np.asarray(values, dtype=float).ravel(),
                                dtype=WIRE_DTYPES[dtype])


def _request_parts(request_id: int, key: str, samples,
                   dtype) -> tuple[bytes, int, np.ndarray]:
    """Validated key bytes, wire dtype code and wire samples of a request."""
    _check_request_id(request_id)
    key_bytes = _key_bytes(key)
    dtype = dtype_code(dtype)
    return key_bytes, dtype, _wire_samples(samples, dtype)


def _request_frame(request_id: int, key_bytes: bytes, dtype: int,
                   wire: np.ndarray) -> bytes:
    return _frame(_PREFIX.pack(MAGIC, PROTOCOL_VERSION, REQUEST, request_id)
                  + _REQUEST_HEAD.pack(dtype, wire.size, len(key_bytes))
                  + key_bytes + wire.tobytes())


def _result_frame(request_id: int, dtype: int, wire: np.ndarray) -> bytes:
    return _frame(_PREFIX.pack(MAGIC, PROTOCOL_VERSION, RESULT, request_id)
                  + _RESULT_HEAD.pack(dtype, wire.size) + wire.tobytes())


def encode_request(request_id: int, key: str, samples,
                   dtype: int = DTYPE_FLOAT64) -> bytes:
    """One request frame (length prefix included)."""
    return _request_frame(request_id,
                          *_request_parts(request_id, key, samples, dtype))


def encode_result(request_id: int, outputs,
                  dtype: int = DTYPE_FLOAT64) -> bytes:
    """One result frame (length prefix included)."""
    dtype = dtype_code(dtype)
    return _result_frame(request_id, dtype, _wire_samples(outputs, dtype))


def _chunk_series(request_id: int, msg_type: int, head_size: int,
                  make_head, key_bytes: bytes, wire: np.ndarray,
                  max_frame_bytes: int) -> list[bytes]:
    """Split ``wire`` into chunk frames of at most ``max_frame_bytes``.

    ``make_head(offset)`` packs the per-chunk body header of ``head_size``
    bytes; ``key_bytes`` rides in every chunk (empty for result chunks).
    """
    per_chunk = ((max_frame_bytes - _PREFIX.size - head_size
                  - len(key_bytes)) // wire.dtype.itemsize)
    if per_chunk < 1:
        raise FrameError(
            f"max_frame_bytes={max_frame_bytes} cannot carry even one "
            f"sample per chunk frame "
            f"({_PREFIX.size + head_size + len(key_bytes)} bytes of headers)",
            request_id=request_id)
    frames = []
    for offset in range(0, wire.size, per_chunk):
        part = wire[offset:offset + per_chunk]
        payload = (_PREFIX.pack(MAGIC, PROTOCOL_VERSION, msg_type, request_id)
                   + make_head(offset) + key_bytes + part.tobytes())
        frames.append(_frame(payload))
    return frames


def encode_request_frames(request_id: int, key: str, samples,
                          dtype: int = DTYPE_FLOAT64,
                          max_frame_bytes: int = 64 << 20) -> list[bytes]:
    """Encode a request as one frame, or a chunk series when it must stream.

    The single-frame form is byte-identical to :func:`encode_request`,
    built from the same validated key and converted samples; a stimulus
    whose frame would exceed ``max_frame_bytes`` becomes an in-order
    ``REQUEST_CHUNK`` series instead of being refused.
    """
    key_bytes, dtype, wire = _request_parts(request_id, key, samples, dtype)
    single_payload = (_PREFIX.size + _REQUEST_HEAD.size + len(key_bytes)
                      + wire.nbytes)
    if single_payload <= max_frame_bytes:
        return [_request_frame(request_id, key_bytes, dtype, wire)]
    return _chunk_series(
        request_id, REQUEST_CHUNK, _REQUEST_CHUNK_HEAD.size,
        lambda offset: _REQUEST_CHUNK_HEAD.pack(dtype, wire.size, offset,
                                                len(key_bytes)),
        key_bytes, wire, max_frame_bytes)


def encode_result_frames(request_id: int, outputs,
                         dtype: int = DTYPE_FLOAT64,
                         max_frame_bytes: int = 64 << 20) -> list[bytes]:
    """Encode a result as one frame (byte-identical to
    :func:`encode_result`, converted once), or a ``RESULT_CHUNK`` series."""
    dtype = dtype_code(dtype)
    wire = _wire_samples(outputs, dtype)
    single_payload = _PREFIX.size + _RESULT_HEAD.size + wire.nbytes
    if single_payload <= max_frame_bytes:
        return [_result_frame(request_id, dtype, wire)]
    return _chunk_series(
        request_id, RESULT_CHUNK, _RESULT_CHUNK_HEAD.size,
        lambda offset: _RESULT_CHUNK_HEAD.pack(dtype, wire.size, offset),
        b"", wire, max_frame_bytes)


def encode_error(request_id: int, code: int, message: str) -> bytes:
    """One error frame (length prefix included)."""
    payload = (_PREFIX.pack(MAGIC, PROTOCOL_VERSION, ERROR, request_id)
               + _ERROR_HEAD.pack(code) + message.encode("utf-8"))
    return _frame(payload)


def encode_stats_subscribe(request_id: int, interval_s: float = 0.0) -> bytes:
    """One STATS_SUBSCRIBE frame (length prefix included)."""
    _check_request_id(request_id)
    payload = (_PREFIX.pack(MAGIC, PROTOCOL_VERSION, STATS_SUBSCRIBE,
                            request_id)
               + _STATS_SUB_HEAD.pack(float(interval_s)))
    return _frame(payload)


def encode_events_subscribe(request_id: int, topics=()) -> bytes:
    """One EVENTS_SUBSCRIBE frame (length prefix included)."""
    _check_request_id(request_id)
    return _json_frame(EVENTS_SUBSCRIBE, request_id,
                       [str(topic) for topic in topics])


def _json_frame(msg_type: int, request_id: int, body) -> bytes:
    return _frame(_PREFIX.pack(MAGIC, PROTOCOL_VERSION, msg_type, request_id)
                  + json.dumps(body, sort_keys=True).encode("utf-8"))


def encode_stats(request_id: int, stats: dict) -> bytes:
    """One STATS frame (length prefix included; body is UTF-8 JSON)."""
    return _json_frame(STATS, request_id, stats)


def encode_event(request_id: int, event: dict) -> bytes:
    """One EVENT frame (length prefix included; body is UTF-8 JSON)."""
    return _json_frame(EVENT, request_id, event)


def decode_payload(payload):
    """Decode one frame payload (the bytes after the length prefix).

    Returns a :class:`Request`, :class:`Result`, :class:`ErrorReply`,
    :class:`RequestChunk`, :class:`ResultChunk` or a subscription/telemetry
    frame.  ``payload`` is any bytes-like object, sliced through memoryviews;
    only the samples are copied, once, into an array of their own.  Raises
    :class:`~repro.exceptions.FrameError` on any malformation, carrying the
    request id when the 12-byte fixed prefix was readable so the error can
    be attributed to the offending request.
    """
    payload = memoryview(payload)
    if len(payload) < _PREFIX.size:
        raise FrameError(
            f"truncated frame header: {len(payload)} byte(s), need at least "
            f"{_PREFIX.size}", code=E_BAD_FRAME)
    magic, version, msg_type, request_id = _PREFIX.unpack_from(payload)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic 0x{magic:04x} (expected "
                         f"0x{MAGIC:04x})", code=E_BAD_FRAME)
    if version != PROTOCOL_VERSION:
        raise FrameError(
            f"unsupported protocol version {version} (this gateway speaks "
            f"version {PROTOCOL_VERSION})", code=E_BAD_FRAME)
    body = payload[_PREFIX.size:]
    if msg_type == REQUEST:
        return _decode_request(request_id, body)
    if msg_type == RESULT:
        return _decode_result(request_id, body)
    if msg_type == REQUEST_CHUNK:
        return _decode_request_chunk(request_id, body)
    if msg_type == RESULT_CHUNK:
        return _decode_result_chunk(request_id, body)
    if msg_type == ERROR:
        if len(body) < _ERROR_HEAD.size:
            raise FrameError("truncated error frame", request_id=request_id,
                             code=E_BAD_FRAME)
        (code,) = _ERROR_HEAD.unpack_from(body)
        message = str(body[_ERROR_HEAD.size:], "utf-8", "replace")
        return ErrorReply(request_id=request_id, code=code, message=message)
    if msg_type == STATS_SUBSCRIBE:
        if request_id < 1:
            raise FrameError("stats subscriptions need a positive request_id",
                             code=E_BAD_FRAME)
        if len(body) < _STATS_SUB_HEAD.size:
            raise FrameError("truncated stats-subscribe frame",
                             request_id=request_id, code=E_BAD_FRAME)
        (interval_s,) = _STATS_SUB_HEAD.unpack_from(body)
        return StatsSubscribe(request_id=request_id, interval_s=interval_s)
    if msg_type == EVENTS_SUBSCRIBE:
        if request_id < 1:
            raise FrameError(
                "events subscriptions need a positive request_id",
                code=E_BAD_FRAME)
        topics = _decode_json(body, request_id, "events-subscribe")
        if not isinstance(topics, list) or not all(
                isinstance(topic, str) for topic in topics):
            raise FrameError(
                "events-subscribe body must be a JSON list of topic names",
                request_id=request_id, code=E_BAD_FRAME)
        return EventsSubscribe(request_id=request_id, topics=tuple(topics))
    if msg_type in (STATS, EVENT):
        what, frame_cls = (("stats", StatsFrame) if msg_type == STATS
                           else ("event", EventFrame))
        payload_dict = _decode_json(body, request_id, what)
        if not isinstance(payload_dict, dict):
            raise FrameError(f"{what} body must be a JSON object",
                             request_id=request_id, code=E_BAD_FRAME)
        return frame_cls(request_id=request_id, payload=payload_dict)
    raise FrameError(f"unknown message type {msg_type}",
                     request_id=request_id, code=E_BAD_FRAME)


def _decode_json(body: memoryview, request_id: int, what: str):
    try:
        return json.loads(str(body, "utf-8"))
    except (ValueError, RecursionError) as exc:   # bad UTF-8/JSON, huge ints
        raise FrameError(f"malformed JSON in {what} frame: {exc}",
                         request_id=request_id, code=E_BAD_FRAME) from None


def _checked_dtype(dtype_code_raw: int, request_id: int, what: str) -> int:
    if dtype_code_raw not in WIRE_DTYPES:
        raise FrameError(
            f"unsupported dtype code {dtype_code_raw} in {what} (this "
            f"gateway speaks float64 = code {DTYPE_FLOAT64}, float32 = code "
            f"{DTYPE_FLOAT32})", request_id=request_id, code=E_BAD_FRAME)
    return dtype_code_raw


def _samples_from(body: memoryview, n_steps: int | None, dtype: int,
                  request_id: int, what: str) -> np.ndarray:
    """The body's samples as float64; ``n_steps=None`` (a chunk) takes any
    whole number of them."""
    wire = WIRE_DTYPES[dtype]
    if n_steps is None:
        if len(body) % wire.itemsize:
            raise FrameError(
                f"{what} carries {len(body)} byte(s), not a multiple of the "
                f"{wire.name} item size", request_id=request_id,
                code=E_BAD_FRAME)
    elif len(body) != n_steps * wire.itemsize:
        raise FrameError(
            f"{what} shape header declares {n_steps} {wire.name} sample(s) "
            f"({n_steps * wire.itemsize} bytes) but the frame carries "
            f"{len(body)} byte(s)", request_id=request_id, code=E_BAD_FRAME)
    # Upcast at the edge: the runtime only ever sees native float64.  The
    # copy owns its data, so the samples pin no read buffer and are aligned
    # whatever the key length.
    return np.frombuffer(body, dtype=wire).astype(np.float64)


def _decode_request(request_id: int, body: memoryview) -> Request:
    if request_id < 1:
        raise FrameError("request frames need a positive request_id",
                         code=E_BAD_FRAME)
    if len(body) < _REQUEST_HEAD.size:
        raise FrameError("truncated request header", request_id=request_id,
                         code=E_BAD_FRAME)
    dtype_raw, n_steps, key_len = _REQUEST_HEAD.unpack_from(body)
    dtype = _checked_dtype(dtype_raw, request_id, "request")
    rest = body[_REQUEST_HEAD.size:]
    key = _decode_key(rest, key_len, request_id)
    samples = _samples_from(rest[key_len:], n_steps, dtype, request_id,
                            "request")
    return Request(request_id=request_id, key=key, samples=samples,
                   dtype=dtype)


def _decode_key(rest: memoryview, key_len: int, request_id: int) -> str:
    if key_len < 1 or key_len > MAX_KEY_BYTES or len(rest) < key_len:
        raise FrameError(
            f"bad model-key length {key_len} (1..{MAX_KEY_BYTES}, frame has "
            f"{len(rest)} byte(s) after the header)", request_id=request_id,
            code=E_BAD_FRAME)
    try:
        return str(rest[:key_len], "ascii")
    except UnicodeDecodeError as exc:
        raise FrameError(f"model key is not ASCII: {exc}",
                         request_id=request_id, code=E_BAD_FRAME) from None


def _decode_result(request_id: int, body: memoryview) -> Result:
    if len(body) < _RESULT_HEAD.size:
        raise FrameError("truncated result header", request_id=request_id,
                         code=E_BAD_FRAME)
    dtype_raw, n_steps = _RESULT_HEAD.unpack_from(body)
    dtype = _checked_dtype(dtype_raw, request_id, "result")
    outputs = _samples_from(body[_RESULT_HEAD.size:], n_steps, dtype,
                            request_id, "result")
    return Result(request_id=request_id, outputs=outputs, dtype=dtype)


def _decode_request_chunk(request_id: int,
                          body: memoryview) -> RequestChunk:
    if request_id < 1:
        raise FrameError("request chunks need a positive request_id",
                         code=E_BAD_FRAME)
    if len(body) < _REQUEST_CHUNK_HEAD.size:
        raise FrameError("truncated request-chunk header",
                         request_id=request_id, code=E_BAD_FRAME)
    dtype_raw, total, offset, key_len = _REQUEST_CHUNK_HEAD.unpack_from(body)
    dtype = _checked_dtype(dtype_raw, request_id, "request chunk")
    rest = body[_REQUEST_CHUNK_HEAD.size:]
    key = _decode_key(rest, key_len, request_id)
    samples = _samples_from(rest[key_len:], None, dtype, request_id,
                            "request chunk")
    return RequestChunk(request_id=request_id, key=key, samples=samples,
                        dtype=dtype, n_steps_total=total, offset=offset)


def _decode_result_chunk(request_id: int, body: memoryview) -> ResultChunk:
    if len(body) < _RESULT_CHUNK_HEAD.size:
        raise FrameError("truncated result-chunk header",
                         request_id=request_id, code=E_BAD_FRAME)
    dtype_raw, total, offset = _RESULT_CHUNK_HEAD.unpack_from(body)
    dtype = _checked_dtype(dtype_raw, request_id, "result chunk")
    outputs = _samples_from(body[_RESULT_CHUNK_HEAD.size:], None, dtype,
                            request_id, "result chunk")
    return ResultChunk(request_id=request_id, outputs=outputs, dtype=dtype,
                       n_steps_total=total, offset=offset)


@dataclass
class _Stream:
    """Accumulator of one in-flight chunk series."""

    key: str
    dtype: int
    total: int
    filled: int = 0
    parts: list = field(default_factory=list)


class ChunkAssembler:
    """Reassemble chunk series into whole :class:`Request` / :class:`Result`.

    One assembler per connection (per direction).  :meth:`feed` returns the
    completed message when a chunk finishes its series, ``None`` while the
    series is still streaming, and raises :class:`~repro.exceptions.
    ChunkSeriesError` (a ``FrameError``) — attributed to the chunk's request
    id, with the offending stream already dropped — on any inconsistency: out-of-order or
    overlapping offsets, a first chunk not at offset 0, a key/dtype/total
    that changes mid-series, a declared total over ``max_samples``, or more
    than ``max_streams`` concurrently streaming requests (an attacker must
    not be able to grow per-connection buffers without bound by opening
    series it never finishes).
    """

    def __init__(self, max_samples: int | None = None,
                 max_streams: int = 64) -> None:
        self.max_samples = max_samples
        self.max_streams = max_streams
        self._streams: dict[tuple[int, int], _Stream] = {}

    def __len__(self) -> int:
        return len(self._streams)

    def _fail(self, stream_key, message: str, request_id: int):
        self._streams.pop(stream_key, None)
        raise ChunkSeriesError(message, request_id=request_id,
                               code=E_BAD_FRAME)

    def feed(self, chunk: RequestChunk | ResultChunk):
        """Absorb one chunk; the finished Request/Result, or ``None``."""
        if isinstance(chunk, RequestChunk):
            kind, key, samples = REQUEST_CHUNK, chunk.key, chunk.samples
        else:
            kind, key, samples = RESULT_CHUNK, "", chunk.outputs
        stream_key = (kind, chunk.request_id)
        stream = self._streams.get(stream_key)
        if stream is None:
            if chunk.offset != 0:
                self._fail(stream_key,
                           f"chunk stream must start at offset 0; got "
                           f"{chunk.offset}", chunk.request_id)
            if chunk.n_steps_total < 1:
                self._fail(stream_key,
                           "chunk stream declares an empty total",
                           chunk.request_id)
            if (self.max_samples is not None
                    and chunk.n_steps_total > self.max_samples):
                self._fail(stream_key,
                           f"chunk stream declares {chunk.n_steps_total} "
                           f"sample(s), over the per-request limit "
                           f"{self.max_samples}", chunk.request_id)
            if len(self._streams) >= self.max_streams:
                self._fail(stream_key,
                           f"too many concurrent chunk streams (limit "
                           f"{self.max_streams})", chunk.request_id)
            stream = _Stream(key=key, dtype=chunk.dtype,
                             total=chunk.n_steps_total)
            self._streams[stream_key] = stream
        else:
            if chunk.offset != stream.filled:
                self._fail(stream_key,
                           f"chunk at offset {chunk.offset} but the stream "
                           f"has {stream.filled} sample(s) (chunks must "
                           "arrive in order, without gaps or overlap)",
                           chunk.request_id)
            if (chunk.n_steps_total != stream.total
                    or chunk.dtype != stream.dtype or key != stream.key):
                self._fail(stream_key,
                           "chunk stream changed its key/dtype/total "
                           "mid-series", chunk.request_id)
        if samples.size == 0:
            self._fail(stream_key, "empty chunk in stream", chunk.request_id)
        if stream.filled + samples.size > stream.total:
            self._fail(stream_key,
                       f"chunk stream overflows its declared total "
                       f"{stream.total}", chunk.request_id)
        stream.parts.append(samples)
        stream.filled += samples.size
        if stream.filled < stream.total:
            return None
        del self._streams[stream_key]
        assembled = np.concatenate(stream.parts)
        if kind == REQUEST_CHUNK:
            return Request(request_id=chunk.request_id, key=stream.key,
                           samples=assembled, dtype=stream.dtype)
        return Result(request_id=chunk.request_id, outputs=assembled,
                      dtype=stream.dtype)


class FrameReader:
    """Sans-I/O reader of one direction of a connection.

    The endpoint owns the socket: it passes whatever a read returned to
    :meth:`feed` and calls :meth:`next_message` until that returns ``None``
    (no whole message buffered).  The reader does no I/O, so every endpoint
    parses frames with this one piece of code.

    * A length prefix over ``max_frame_bytes`` raises the connection-fatal
      ``FrameError`` (code ``E_FRAME_TOO_LARGE``) as soon as the prefix is
      buffered, before the frame's payload is, and keeps raising it: the
      stream cannot be re-synchronised.
    * A malformed frame is consumed, then raises the ``FrameError`` of
      :func:`decode_payload` (carrying its request id when readable); the
      next call goes on with the frame after it.
    * Chunk frames go to the reader's :class:`ChunkAssembler` (bounded by
      ``max_samples``): a series comes out as one :class:`Request` or
      :class:`Result`, and a failed series raises ``ChunkSeriesError``.

    Fed bytes are kept as they came and joined onto the read buffer only
    once they complete the length prefix or the frame being waited for, so
    a frame that spans many reads is joined once, when it completes, not
    once per read.
    Frames are decoded through memoryview slices of the read buffer, and
    only the samples are copied out, once, into arrays of their own, so a
    message never pins the read buffer; a fully consumed buffer is dropped
    at once.  Whenever :meth:`next_message` returns ``None`` the reader
    holds less than ``4 + max_frame_bytes`` unconsumed bytes.
    """

    def __init__(self, max_frame_bytes: int = 64 << 20,
                 max_samples: int | None = None) -> None:
        self.max_frame_bytes = int(max_frame_bytes)
        #: Frames consumed so far, chunk and malformed frames included.
        self.n_frames = 0
        #: Immutable, so views of it (say, in a raised error's traceback)
        #: can never block a resize; bytes before ``_offset`` are consumed.
        self._buffer = b""
        self._offset = 0
        #: Bytes fed since the last join, and their total length.
        self._pieces = []
        self._n_pieces = 0
        self._assembler = ChunkAssembler(max_samples=max_samples)

    @property
    def buffered(self) -> int:
        """Bytes fed but not yet consumed."""
        return len(self._buffer) - self._offset + self._n_pieces

    @property
    def n_streams(self) -> int:
        """Chunk series still streaming."""
        return len(self._assembler)

    def feed(self, data) -> None:
        """Append bytes the connection delivered."""
        if data:
            self._pieces.append(bytes(data))
            self._n_pieces += len(data)

    def next_message(self):
        """The next whole message, or ``None`` until more bytes are fed."""
        while self._holds(LENGTH_PREFIX.size):
            (length,) = LENGTH_PREFIX.unpack_from(self._buffer, self._offset)
            if length > self.max_frame_bytes:
                raise FrameError(
                    f"frame of {length} bytes exceeds max_frame_bytes="
                    f"{self.max_frame_bytes}", code=E_FRAME_TOO_LARGE)
            if not self._holds(LENGTH_PREFIX.size + length):
                return None
            buffer, start = self._buffer, self._offset + LENGTH_PREFIX.size
            self._offset = start + length
            if self._offset == len(buffer):
                self._buffer, self._offset = b"", 0
            self.n_frames += 1
            message = decode_payload(memoryview(buffer)[start:start + length])
            if isinstance(message, (RequestChunk, ResultChunk)):
                message = self._assembler.feed(message)
                if message is None:
                    continue
            return message
        return None

    def _holds(self, n: int) -> bool:
        """Whether the read buffer holds ``n`` unconsumed bytes, joining the
        fed pieces onto it only once, with them, it does."""
        unread = len(self._buffer) - self._offset
        if unread >= n:
            return True
        if unread + self._n_pieces < n:
            return False
        if unread:
            self._pieces.insert(0, memoryview(self._buffer)[self._offset:])
        self._buffer = b"".join(self._pieces)
        self._offset, self._pieces, self._n_pieces = 0, [], 0
        return True
