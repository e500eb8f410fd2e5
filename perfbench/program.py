"""The program process: runs ``repro`` for one workload and answers run.py.

Started by ``run.py`` as ``python3 perfbench/program.py '<config json>'``.
It imports ``repro``, performs the workload's set-up, writes one ``ready``
line, then answers JSON commands read line by line from stdin, one JSON
reply line each.  Peak RSS is measured here, so the load generator in
``run.py`` is excluded from it.

Set-up, per workload:

* ``extract`` — imports only; ``run.py`` then asks for one repetition of
  the extraction flow at a time;
* ``bulk`` / ``interactive`` — imports, the extraction flow (validated on
  held-out sines), compile, registry save, ``ModelServer`` with its shard
  workers, ``Gateway``, warm-up.  ``interactive`` serves the buffer model
  compiled at two sample rates (two keys, so two dispatch lanes) and runs
  the production observability: a sampling tracer plus a live
  ``MetricsAggregator``.

Commands: ``repetition`` (one pass of the extraction flow), ``spans_on`` /
``spans_off`` (subscribe to the program's own span stream), ``stop`` (shut
the server down and report its counters), ``exit`` (report peak RSS and
leave).  Host probes run in ``run.py``, never here.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import pipeline  # noqa: E402
from repro.gateway import Gateway, GatewayClient  # noqa: E402
from repro.runtime import ModelRegistry, compile_model  # noqa: E402
from repro.serve import ModelServer, ServePolicy  # noqa: E402
from repro.telemetry import (MetricsAggregator, TracerConfig,  # noqa: E402
                             subscribe_spans)
from tracing import Recorder, from_trace_tree, self_times_by_name  # noqa: E402

T_IMPORTED = time.monotonic()

#: The one serving policy ``bulk`` and ``interactive`` share, so the two
#: workloads differ only in their traffic.
POLICY = ServePolicy(max_batch=64, max_wait=2e-3, n_workers=2)
#: Rows per model pushed through the server before it reports ready: enough
#: to split across both shard workers so each loads the model.
WARMUP_ROWS = 4
#: Aggregator window and ring; the ring outlasts any run.
WINDOW_S = 1.0
N_WINDOWS = 600
#: Queue bound of the benchmark's span subscription (a whole run fits).
SPAN_QUEUE = 1 << 20
#: Pause before draining the span stream, so that spans closed just after
#: the last reply (the gateway's write span) are in the queue.
SPAN_SETTLE_S = 0.05


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Program:
    """State of one program process and its command handlers."""

    def __init__(self, config: dict) -> None:
        self.config = config
        self.workload = config["workload"]
        self.recorder = Recorder(config["trace"], tag=config["tag"])
        self.recorder.add("imports", T_START, T_IMPORTED)
        self.server = None
        self.gateway = None
        self.aggregator = None
        self.spans = None
        self.assemblers = []
        self.span_drops = 0
        self.span_stack = contextlib.ExitStack()

    # ------------------------------------------------------------- set-up
    def setup(self) -> dict:
        if self.workload == "extract":
            return {"event": "ready"}
        cfg = self.config
        rng = pipeline.rng_for(cfg["seed"], pipeline.STREAM_HELDOUT,
                               cfg["index"])
        extraction = pipeline.extract_validated(pipeline.heldout_sines(rng),
                                                self.recorder)
        models = [extraction.compiled]
        if self.workload == "interactive":
            with self.recorder.span("compile_model"):
                models.append(compile_model(
                    extraction.model, dt=extraction.dt / 2.0,
                    input_range=extraction.input_range))
        registry = ModelRegistry(cfg["registry"])
        keys = []
        for model in models:
            with self.recorder.span("registry.save"):
                keys.append(registry.save(model))
        with self.recorder.span("server.start"):
            self.server = ModelServer(registry, POLICY,
                                      tracing=TracerConfig(sample_rate=1.0))
        with self.recorder.span("gateway.start"):
            self.gateway = Gateway(self.server).start()
        n_steps = cfg["n_steps"]
        with self.recorder.span("warmup"):
            for key in keys:
                row = np.full(n_steps, extraction.offset)
                for future in [self.server.submit(key, row)
                               for _ in range(WARMUP_ROWS)]:
                    future.result(timeout=60.0)
            with GatewayClient(*self.gateway.address) as client:
                client.submit_many([(key, np.full(n_steps, extraction.offset))
                                    for key in keys])
        if self.workload == "interactive":
            self.aggregator = MetricsAggregator(
                self.server.telemetry, window_s=WINDOW_S,
                n_windows=N_WINDOWS, max_batch=POLICY.max_batch)
        self.stats0 = self.server.stats()
        self.counters0 = self.gateway.counters.as_dict()
        return {"event": "ready", "address": list(self.gateway.address),
                "registry": str(registry.root), "keys": keys,
                "dts": [model.dt for model in models],
                "offset": extraction.offset,
                "extract_wall_s": extraction.wall_s,
                "max_rel_rmse": extraction.max_rel_rmse,
                "counters": extraction.counters}

    # ------------------------------------------------------------ commands
    def cmd_repetition(self, request: dict) -> dict:
        """One pass of the extraction flow on the ``index``-th held-out set."""
        rng = pipeline.rng_for(self.config["seed"], pipeline.STREAM_HELDOUT,
                               request["index"])
        extraction = pipeline.extract_validated(pipeline.heldout_sines(rng),
                                                self.recorder)
        return {"wall_s": extraction.wall_s,
                "max_rel_rmse": extraction.max_rel_rmse,
                "rows": extraction.validated_rows,
                "counters": extraction.counters}

    def cmd_spans_on(self, request: dict) -> dict:
        if self.spans is None:
            assembler, self.spans = self.span_stack.enter_context(
                subscribe_spans(self.server.telemetry, maxsize=SPAN_QUEUE))
            self.assemblers.append(assembler)
        return {"ok": True}

    def cmd_spans_off(self, request: dict) -> dict:
        if self.spans is not None:
            time.sleep(SPAN_SETTLE_S)
            self.span_stack.close()          # drains into the assembler
            self.span_drops += self.spans.n_dropped
            self.spans = None
        return {"ok": True}

    def cmd_stop(self, request: dict) -> dict:
        """Shut down gateway, server and aggregator; report their counters."""
        self.cmd_spans_off(request)
        counters = self.gateway.counters.as_dict()
        self.gateway.close()
        stats = self.server.stats()
        self.server.close()
        reply = {"serve": _serve_delta(self.stats0, stats),
                 "gateway": {name: counters[name] - self.counters0[name]
                             for name in counters},
                 "stages": self.stage_report()}
        if self.aggregator is not None:
            self.aggregator.close()
            report = self.aggregator.report()
            reply["aggregator"] = {
                "submitted": report.n_submitted, "served": report.n_served,
                "failed": report.n_failed, "unmatched": report.n_unmatched,
                "dropped": report.n_subscriber_dropped,
                "events": sum(window.n_events for window in report.windows)}
        self.server = self.gateway = self.aggregator = None
        return reply

    def stage_report(self) -> dict:
        """Mean self time per traced request of every stage, and counts."""
        totals: dict[str, float] = {}
        n_traces = n_spans = 0
        for assembler in self.assemblers:
            for trace_id in assembler.trace_ids():
                n_traces += 1
                n_spans += len(assembler.spans(trace_id))
                tree = from_trace_tree(assembler.tree(trace_id))
                for name, value in self_times_by_name([tree]).items():
                    totals[name] = totals.get(name, 0.0) + value
        n = max(1, n_traces)
        return {"traces": n_traces, "spans": n_spans,
                "self_s": {name: value / n for name, value in totals.items()},
                "dropped": self.span_drops}

    def cmd_exit(self, request: dict) -> dict:
        self.span_stack.close()
        for closer in (self.gateway, self.server, self.aggregator):
            if closer is not None:
                closer.close()
        return {"peak_rss_mb": peak_rss_mb(), "spans": self.recorder.export()}


def _serve_delta(before, after) -> dict:
    """``ServeStats`` counters over the measured phase (warm-up excluded)."""
    rows = (after.mean_batch_size * after.n_batches
            - before.mean_batch_size * before.n_batches)
    batches = after.n_batches - before.n_batches
    return {"submitted": after.n_submitted - before.n_submitted,
            "served": after.n_completed - before.n_completed,
            "failed": after.n_failed - before.n_failed,
            "pending": after.n_pending,
            "batches": batches, "rows": rows, "max_batch": after.max_batch,
            "queue_p50_s": after.queue_latency.p50}


def main() -> int:
    # The reply channel is a private copy of stdout; fd 1 itself is pointed
    # at stderr so that nothing else the process prints can corrupt it.
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    program = Program(json.loads(sys.argv[1]))

    def reply(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    reply(program.setup())
    handlers = {"repetition": program.cmd_repetition,
                "spans_on": program.cmd_spans_on,
                "spans_off": program.cmd_spans_off, "stop": program.cmd_stop,
                "exit": program.cmd_exit}
    while True:
        line = sys.stdin.readline()
        if not line:                 # run.py went away: shut down
            program.cmd_exit({})
            return 1
        request = json.loads(line)
        reply(handlers[request["cmd"]](request))
        if request["cmd"] == "exit":
            return 0


if __name__ == "__main__":
    sys.exit(main())
