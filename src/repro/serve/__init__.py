"""Model-serving layer: sharded micro-batching over the compiled runtime.

:mod:`repro.runtime` made extracted models *fast* — thousands of stimuli in
one lock-step NumPy call.  This package makes them *servable*: individual
requests from many callers are coalesced into lock-step batches, dispatched
by per-model lanes (batches for different models execute concurrently),
sharded across warm worker processes, and answered through per-request
futures, with the registry's integrity guarantees and the batch kernel's
bitwise determinism carried through end to end.

* :mod:`~repro.serve.policy` — one frozen :class:`ServePolicy` value holds
  every deployment knob (``max_batch``, ``max_wait``, lane/worker counts,
  cache budget, request/connection limits);
* :mod:`~repro.serve.batcher` — per-``(model, n_steps)`` request FIFOs
  that free lanes pull :class:`MicroBatch` objects from (pure data
  structure);
* :mod:`~repro.serve.shards` — :class:`ShardPool` worker processes with warm
  model caches, crash detection, respawn, deterministic reassembly, and
  per-worker leasing so concurrent lanes split the pool instead of queueing;
* :mod:`~repro.serve.cache` — byte-budget LRU :class:`ModelCache` so a
  server fronts more models than fit in memory;
* :mod:`~repro.serve.server` — :class:`ModelServer`, the submit → batch →
  lane-dispatch → shard → respond front-end;
* :mod:`~repro.serve.stats` — :class:`ServeStats` latency/throughput
  snapshots (queue vs end-to-end percentiles, per-model lane breakdown)
  built on the exactly mergeable :class:`LatencySummary`, and the
  gateway's :class:`GatewayCounters`.

The canonical flow::

    from repro.serve import ModelServer, ServePolicy

    server = ModelServer(registry, ServePolicy(max_batch=256, max_wait=2e-3,
                                               n_workers=4, n_lanes=4))
    future = server.submit(key, waveform_samples)      # one stimulus
    output = future.result()                           # that stimulus's output
    server.close()

Remote clients reach the same scheduler over TCP through
:mod:`repro.gateway`.  See ``examples/serving_cluster.py`` /
``examples/gateway_cluster.py`` for the end-to-end demos and
``benchmarks/test_serve_speedup.py`` / ``benchmarks/test_gateway_speedup.py``
for the gated throughput/latency acceptance runs.
"""

from .batcher import MicroBatch, MicroBatcher, ServeRequest
from .cache import CacheStats, ModelCache
from .policy import ServePolicy
from .server import ModelServer
from .shards import ShardPool
from .stats import (
    GatewayCounters,
    LatencySummary,
    ModelLaneStats,
    ServeStats,
)

__all__ = [
    "CacheStats",
    "GatewayCounters",
    "LatencySummary",
    "MicroBatch",
    "MicroBatcher",
    "ModelCache",
    "ModelLaneStats",
    "ModelServer",
    "ServePolicy",
    "ServeRequest",
    "ServeStats",
    "ShardPool",
]
