"""Acceptance benchmark of span tracing (:mod:`repro.telemetry.spans`).

Two overhead gates and one completeness claim, recorded into
``BENCH_spans.json``:

* ``full tracing`` — serving the standard 1000-request load with
  ``sample_rate=1.0`` **and a live SpanClosed subscriber draining the span
  stream** must stay within **10%** of the untraced throughput (no
  subscriber, so the falsy tracer skips span construction entirely).
* ``sampling off`` — a server whose tracer is configured with
  ``sample_rate=0.0`` (the machinery compiled in, every trace dropped at
  the head) must stay within **2%**: switched-off tracing is one
  truthiness check per guard site and nothing else.
* completeness rides along: on the last traced load, every one of the
  1000 requests must assemble into a span tree rooted at ``request``
  whose ``serve_queue`` + ``serve_coalesce`` + ``serve_execute`` children
  tile the root — per-stage durations sum to the recorded e2e latency.
  The load's published ``SpanClosed`` events per request are recorded next
  to the spans assembled per request: a batch or job stage is one event
  shared by its members, so the first number is the smaller one.

Methodology is ``test_telemetry_overhead``'s: alternated loads (plain,
traced, off, plain, ...) compared on interquartile means, so machine
drift hits every mode alike.  The traced and plain loads share one
server; the sampling-off mode needs its own tracer config and therefore
its own server, warmed identically and loaded in the same rotation.

Run directly for a report::

    python -m pytest benchmarks/test_spans_overhead.py -q -s
"""

import os
import tempfile
import threading
import time

import numpy as np

from repro.runtime import ModelRegistry, compile_model
from repro.serve import ModelServer
from repro.telemetry import ROOT_SPAN, TraceAssembler, TracerConfig

from .artifacts import record_benchmark
from .test_telemetry_overhead import (FUTURE_TIMEOUT, N_LOADS, N_REQUESTS,
                                      N_STEPS, N_WARMUP, POLICY, _model,
                                      _stimuli, _time_load)

#: Full tracing (every request traced, live subscriber) costs <= 10%.
TRACED_GATE = 1.10
#: Tracing compiled in but sampled out costs <= 2%.
OFF_GATE = 1.02
#: The stages that tile the root span exactly (submit -> close -> start ->
#: resolve share their boundary timestamps).
TILING_STAGES = ("serve_queue", "serve_coalesce", "serve_execute")


def _traced_load(server, key, stimuli):
    """One timed load with full tracing live.

    A coalescing consumer drains the ``SpanClosed`` stream while serving
    (same consumer style as the telemetry benchmark); after the timed
    section the tail of the last batch's spans is allowed to settle so the
    assembler holds every request's complete tree.
    """
    subscription = server.telemetry.subscribe(topics=("SpanClosed",),
                                              maxsize=1 << 17)
    spans = []
    stop = threading.Event()

    def drain():
        while not stop.is_set():
            event = subscription.get(timeout=0.05)
            if event is None:
                continue
            spans.append(event)
            time.sleep(0.01)
            spans.extend(subscription.drain())

    drainer = threading.Thread(target=drain, daemon=True)
    drainer.start()
    start = time.perf_counter()
    futures = [server.submit(key, row) for row in stimuli]
    served = np.vstack([f.result(FUTURE_TIMEOUT) for f in futures])
    seconds = time.perf_counter() - start
    stop.set()
    drainer.join(timeout=10.0)
    spans.extend(subscription.drain())

    expected = {future.trace_id for future in futures}
    assembler = TraceAssembler()
    assembler.extend(spans)
    deadline = time.monotonic() + 10.0
    while not all(assembler.complete(trace_id) for trace_id in expected):
        if time.monotonic() > deadline:
            break
        time.sleep(0.01)
        assembler.extend(subscription.drain())
    n_dropped = subscription.n_dropped
    n_events = subscription.n_delivered
    subscription.close()
    assert n_dropped == 0, (
        f"span subscriber dropped {n_dropped} events — enlarge the "
        "benchmark subscription queue")
    return seconds, served, assembler, expected, n_events


class TestSpanTracingOverhead:
    def test_full_tracing_and_sampling_off_gated(self, capsys):
        registry = ModelRegistry(tempfile.mkdtemp(prefix="spans-bench-"))
        compiled = compile_model(_model(), dt=1e-9, input_range=(0.0, 1.0))
        key = registry.save(compiled)
        stimuli = _stimuli(seed=11)
        direct = compiled.evaluate(stimuli)

        plain_times, traced_times, off_times = [], [], []
        assembler, expected, n_events = None, set(), 0
        with ModelServer(registry, POLICY,
                         tracing=TracerConfig(sample_rate=1.0)) as server, \
             ModelServer(registry, POLICY,
                         tracing=TracerConfig(sample_rate=0.0)) as off_server:
            for instance in (server, off_server):
                warm = [instance.submit(key, row)
                        for row in stimuli[:N_WARMUP]]
                for future in warm:
                    future.result(FUTURE_TIMEOUT)
            for load in range(N_LOADS):
                seconds, served = _time_load(server, key, stimuli)
                np.testing.assert_array_equal(served, direct)
                plain_times.append(seconds)
                seconds, served, assembler, expected, n_events = \
                    _traced_load(server, key, stimuli)
                np.testing.assert_array_equal(served, direct)
                traced_times.append(seconds)
                seconds, served = _time_load(off_server, key, stimuli)
                np.testing.assert_array_equal(served, direct)
                off_times.append(seconds)

        def iq_mean(times):
            trim = len(times) // 4
            kept = sorted(times)[trim:len(times) - trim]
            return sum(kept) / len(kept)

        plain_s = iq_mean(plain_times)
        traced_s = iq_mean(traced_times)
        off_s = iq_mean(off_times)
        traced_overhead = traced_s / plain_s
        off_overhead = off_s / plain_s

        # Completeness acceptance on the last traced load: every request
        # assembled into a rooted tree whose tiling stages sum to the
        # recorded e2e latency.
        assert len(expected) == N_REQUESTS
        n_spans = 0
        stage_names = set()
        n_worker_spans = 0
        for trace_id in expected:
            assert assembler.complete(trace_id), (
                f"trace {trace_id} never recorded its root span")
            recorded = assembler.spans(trace_id)
            n_spans += len(recorded)
            stage_names.update(node.name for node in recorded)
            n_worker_spans += sum(1 for node in recorded
                                  if node.worker_index >= 0)
            root = assembler.tree(trace_id)
            tiled = sum(child.duration_s for child in root.children
                        if child.name in TILING_STAGES)
            assert abs(tiled - root.duration_s) <= max(
                1e-9, root.duration_s * 1e-6), (
                f"trace {trace_id}: stage durations sum to {tiled:.9f} s "
                f"but the recorded e2e latency is {root.duration_s:.9f} s")
        assert stage_names >= {ROOT_SPAN, *TILING_STAGES}

        with capsys.disabled():
            print(f"\n[spans] {N_REQUESTS} requests x {N_STEPS} steps, "
                  f"{N_LOADS} alternated loads per mode: plain IQ-mean "
                  f"{plain_s * 1e3:.0f} ms, full tracing "
                  f"{traced_s * 1e3:.0f} ms ({traced_overhead:.3f}x), "
                  f"sampling off {off_s * 1e3:.0f} ms "
                  f"({off_overhead:.3f}x); last traced load published "
                  f"{n_events} span events and assembled {n_spans} spans "
                  f"over {len(expected)} complete traces "
                  f"({n_worker_spans} worker-attributed)")

        record_benchmark("BENCH_spans.json", "span_tracing_overhead", {
            "n_requests": N_REQUESTS,
            "n_steps": N_STEPS,
            "n_loads_per_mode": N_LOADS,
            "cpu_count": os.cpu_count(),
            "policy": {"max_batch": POLICY.max_batch,
                       "max_wait_s": POLICY.max_wait,
                       "n_workers": POLICY.n_workers},
            "plain_s_iq_mean": plain_s,
            "traced_s_iq_mean": traced_s,
            "off_s_iq_mean": off_s,
            "plain_s_all": plain_times,
            "traced_s_all": traced_times,
            "off_s_all": off_times,
            "traced_overhead_x": traced_overhead,
            "traced_overhead_gate_x": TRACED_GATE,
            "off_overhead_x": off_overhead,
            "off_overhead_gate_x": OFF_GATE,
            "n_spans_last_load": n_spans,
            "n_worker_spans_last_load": n_worker_spans,
            "span_events_per_request": n_events / N_REQUESTS,
            "spans_per_request": n_spans / N_REQUESTS,
            "stage_names": sorted(stage_names),
            "trees_complete": True,
        })

        assert traced_overhead <= TRACED_GATE, (
            f"full span tracing costs {(traced_overhead - 1) * 100:.1f}% "
            f"(> {(TRACED_GATE - 1) * 100:.0f}%) of serve throughput")
        assert off_overhead <= OFF_GATE, (
            f"sampled-out tracing costs {(off_overhead - 1) * 100:.1f}% "
            f"(> {(OFF_GATE - 1) * 100:.0f}%) of serve throughput — the "
            "off path must stay one truthiness check per guard site")
