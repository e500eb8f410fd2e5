"""Network front-end: serve compiled models to remote clients over TCP.

:mod:`repro.serve` made extracted models servable to in-process callers —
micro-batched, sharded, answered through futures.  This package opens that
scheduler to the network: a :class:`Gateway` accepts thousands of concurrent
TCP connections on one asyncio event loop, speaks a compact length-prefixed
binary protocol (model key, dtype/shape header, raw little-endian samples —
float64 natively, float32 on client opt-in for half the bytes, chunked
streaming for stimuli beyond ``max_frame_bytes``; no third-party
dependencies), and funnels every request into the same
:class:`~repro.serve.server.ModelServer` the in-process callers use.  The
server's per-model dispatch lanes answer them concurrently, one lane per
model, so one model's traffic never stalls another's.

* :mod:`~repro.gateway.protocol` — the frame format, its encoders /
  decoders (pure functions over bytes; every malformation is a named
  :class:`~repro.exceptions.FrameError`) and
  :class:`~repro.gateway.protocol.FrameReader`, the sans-I/O parser every
  endpoint reads its byte stream with;
* :mod:`~repro.gateway.server` — :class:`Gateway`, the asyncio front-end
  with admission control (``max_connections``) and per-connection
  backpressure (``max_inflight_per_conn`` — every queued frame holds a
  slot, and a connection at its cap stops being read, not buffered);
* :mod:`~repro.gateway.client` — :class:`GatewayClient` (synchronous, with
  pipelined :meth:`~repro.gateway.client.GatewayClient.submit_many`) and
  :class:`AsyncGatewayClient`; both grow ``subscribe_stats()`` /
  ``subscribe_events()`` iterators over the gateway's push-telemetry
  STATS / EVENT frames (see :mod:`repro.telemetry`).

Serving over TCP in a few lines::

    from repro.gateway import Gateway, GatewayClient
    from repro.serve import ModelServer, ServePolicy

    policy = ServePolicy(max_batch=256, max_wait=2e-3,
                         n_workers=4, n_lanes=4)
    with ModelServer(registry, policy) as server, \\
            Gateway(server, "0.0.0.0", 7433) as gateway:
        ...                                    # serve until shut down

    # any other process / host:
    with GatewayClient(host, 7433) as client:
        outputs = client.submit_many([(key, samples) for samples in stimuli])

See ``examples/gateway_cluster.py`` for the multi-process demo and
``benchmarks/test_gateway_speedup.py`` for the gated lane-overlap
acceptance run.
"""

from .client import AsyncGatewayClient, GatewayClient
from .protocol import (
    DTYPE_FLOAT32,
    DTYPE_FLOAT64,
    ChunkAssembler,
    ErrorReply,
    EventFrame,
    EventsSubscribe,
    Request,
    RequestChunk,
    Result,
    ResultChunk,
    StatsFrame,
    StatsSubscribe,
    decode_payload,
    encode_error,
    encode_event,
    encode_events_subscribe,
    encode_request,
    encode_request_frames,
    encode_result,
    encode_result_frames,
    encode_stats,
    encode_stats_subscribe,
)
from .server import Gateway

__all__ = [
    "AsyncGatewayClient",
    "ChunkAssembler",
    "DTYPE_FLOAT32",
    "DTYPE_FLOAT64",
    "ErrorReply",
    "EventFrame",
    "EventsSubscribe",
    "Gateway",
    "GatewayClient",
    "Request",
    "RequestChunk",
    "Result",
    "ResultChunk",
    "StatsFrame",
    "StatsSubscribe",
    "decode_payload",
    "encode_error",
    "encode_event",
    "encode_events_subscribe",
    "encode_request",
    "encode_request_frames",
    "encode_result",
    "encode_result_frames",
    "encode_stats",
    "encode_stats_subscribe",
]
