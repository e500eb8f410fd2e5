"""Acceptance benchmark of the push-telemetry stack (:mod:`repro.telemetry`).

Three claims, recorded into ``BENCH_telemetry.json``:

* ``live_subscriber_overhead`` — serving >= 1000 requests with telemetry
  enabled **and a live events subscriber draining the stream** must stay
  within **5%** of the telemetry-disabled throughput (no subscriber, so
  publish sites skip event construction entirely).  Trials are interleaved
  (plain, subscribed, plain, subscribed, ...) and compared on min-times so
  machine noise hits both sides alike.  The subscribed runs double as the
  trace-chain acceptance: every request's trace id must appear in its
  ``RequestSubmitted``, then in a ``BatchClosed`` and a ``BatchServed``.
* ``aggregator_overhead`` — the same gate for the PR 9 consumer tier: a
  live :class:`~repro.telemetry.MetricsAggregator` folding the stream into
  windows (latency folding, percentile summaries, republication) must also
  stay within 5%, measured with the same interleaved-load IQ-mean
  methodology.
* ``record_replay`` — a :class:`~repro.telemetry.RunRecorder` journals a
  1000-request session into a :class:`~repro.telemetry.RunStore`; replaying
  the recorded schedule against a fresh server re-serves every request
  bitwise-identically.

Run directly for a report::

    python -m pytest benchmarks/test_telemetry_overhead.py -q -s
"""

import os
import tempfile
import threading
import time

import numpy as np

from repro.runtime import ModelRegistry, compile_model
from repro.rvf.hammerstein import HammersteinBranch, HammersteinModel
from repro.rvf.residues import PartialFractionFunction
from repro.serve import ModelServer, ServePolicy
from repro.telemetry import (
    BatchClosed,
    BatchServed,
    MetricsAggregator,
    RequestSubmitted,
    RunRecorder,
    RunStore,
)

from .artifacts import record_benchmark

#: Request count of the measured load (acceptance: >= 1000).
N_REQUESTS = 1000
#: Samples per request — heavy enough that per-request evaluation (identical
#: work in both modes) dominates scheduler jitter, which otherwise swamps
#: the few-percent effect this gate measures.
N_STEPS = 1024
#: Timed loads per mode, alternated load-by-load (plain, subscribed,
#: plain, ...) on ONE shared server.  The gate compares the two modes'
#: interquartile means: alternation cancels slow machine drift, sharing the
#: server removes worker-spawn variance, and trimming the quartiles rejects
#: scheduler outliers in *either* direction (a lucky fast plain load would
#: poison a min-based ratio just as surely as an unlucky slow subscribed
#: one).
N_LOADS = 10
#: Warm-up submissions per server instance (excluded from timing).
N_WARMUP = 8
#: The overhead gate: subscribed min-time <= 1.05x the plain min-time.
OVERHEAD_GATE = 1.05
#: Serving policy under test (matches the serve benchmark's shape).
POLICY = ServePolicy(max_batch=64, max_wait=10e-3, n_workers=2)
FUTURE_TIMEOUT = 60.0


def _model(tau: float = 1.0) -> HammersteinModel:
    """A small synthetic Hammerstein model (compiles in microseconds)."""
    def pf(poles, coeffs, const):
        return PartialFractionFunction(np.asarray(poles, complex),
                                       np.asarray(coeffs, complex), const)

    gain = pf([-2.0 + 0.5j], [0.3 + 0.1j], 1.2)
    pair = pf([-1.5 + 0.2j], [0.2 - 0.05j], 0.4 + 0.2j)
    real = pf([-1.0], [0.15], 0.2)
    branches = [
        HammersteinBranch(pole=(-3e7 + 1e8j) * tau, residue_function=pair,
                          static_function=pair.antiderivative()
                          .with_value_at(0.5, 0.0), is_complex_pair=True),
        HammersteinBranch(pole=-5e7 * tau, residue_function=real,
                          static_function=real.antiderivative()
                          .with_value_at(0.5, 0.0), is_complex_pair=False),
    ]
    return HammersteinModel(
        branches=branches, gain_function=gain,
        static_function=gain.antiderivative().with_value_at(0.5, 0.3),
        dc_input=0.5, dc_output=0.3)


def _stimuli(n_requests: int = N_REQUESTS, n_steps: int = N_STEPS,
             seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.5 + 0.3 * rng.standard_normal((n_requests, n_steps))


def _time_load(server, key, stimuli):
    """Submit the full load and gather every reply; returns (seconds, rows)."""
    start = time.perf_counter()
    futures = [server.submit(key, row) for row in stimuli]
    served = np.vstack([f.result(FUTURE_TIMEOUT) for f in futures])
    return time.perf_counter() - start, served


def _subscribed_load(server, key, stimuli, events):
    """One timed load with a live subscriber draining the event stream.

    The drainer is a coalescing consumer: it takes the first event of a
    burst, lets the rest of the burst build for a moment, then drains it in
    one lock hop.  An event-at-a-time consumer would instead force a thread
    wakeup per published event — measuring the consumer's scheduling style,
    not the telemetry cost.
    """
    subscription = server.telemetry.subscribe(maxsize=1 << 17)
    stop = threading.Event()

    def drain():
        while not stop.is_set():
            event = subscription.get(timeout=0.05)
            if event is None:
                continue
            events.append(event)
            time.sleep(0.01)
            events.extend(subscription.drain())

    drainer = threading.Thread(target=drain, daemon=True)
    drainer.start()
    seconds, served = _time_load(server, key, stimuli)
    stop.set()
    drainer.join(timeout=10.0)
    events.extend(subscription.drain())
    n_dropped = subscription.n_dropped
    subscription.close()
    assert n_dropped == 0, (
        f"telemetry subscriber dropped {n_dropped} events — "
        "enlarge the benchmark subscription queue")
    return seconds, served


def _aggregated_load(server, key, stimuli):
    """One timed load with a live MetricsAggregator folding the stream."""
    aggregator = MetricsAggregator(server.telemetry, window_s=0.25,
                                   n_windows=256,
                                   max_batch=POLICY.max_batch,
                                   maxsize=1 << 17, republish=False)
    seconds, served = _time_load(server, key, stimuli)
    aggregator.close()
    assert aggregator.n_dropped == 0, (
        f"aggregator dropped {aggregator.n_dropped} events — enlarge the "
        "benchmark subscription queue")
    return seconds, served, aggregator.report()


class TestTelemetryOverhead:
    def test_live_subscriber_overhead_within_5pct(self, capsys):
        registry = ModelRegistry(tempfile.mkdtemp(prefix="telemetry-bench-"))
        compiled = compile_model(_model(), dt=1e-9, input_range=(0.0, 1.0))
        key = registry.save(compiled)
        stimuli = _stimuli()
        direct = compiled.evaluate(stimuli)

        plain_times, subscribed_times = [], []
        chain_events = []
        with ModelServer(registry, POLICY) as server:
            warm = [server.submit(key, row) for row in stimuli[:N_WARMUP]]
            for future in warm:
                future.result(FUTURE_TIMEOUT)
            for load in range(N_LOADS):
                seconds, served = _time_load(server, key, stimuli)
                np.testing.assert_array_equal(served, direct)
                plain_times.append(seconds)
                chain_events = []
                seconds, served = _subscribed_load(server, key, stimuli,
                                                   chain_events)
                np.testing.assert_array_equal(served, direct)
                subscribed_times.append(seconds)

        def iq_mean(times):
            trim = len(times) // 4
            kept = sorted(times)[trim:len(times) - trim]
            return sum(kept) / len(kept)

        plain_s = iq_mean(plain_times)
        subscribed_s = iq_mean(subscribed_times)
        overhead = subscribed_s / plain_s
        throughput = N_REQUESTS / subscribed_s

        # Trace-chain acceptance on the last subscribed run: every one of
        # its requests shows up in a closed and a served batch.
        submitted = {e.trace_id for e in chain_events
                     if isinstance(e, RequestSubmitted)}
        closed = {t for e in chain_events if isinstance(e, BatchClosed)
                  for t in e.trace_ids}
        served_ids = {t for e in chain_events if isinstance(e, BatchServed)
                      for t in e.trace_ids}
        assert len(submitted) == N_REQUESTS
        assert submitted == closed == served_ids, (
            f"trace chain broken: {len(submitted)} submitted, "
            f"{len(closed)} closed, {len(served_ids)} served")

        with capsys.disabled():
            print(f"\n[telemetry] {N_REQUESTS} requests x {N_STEPS} steps, "
                  f"{N_LOADS} alternated loads per mode: plain IQ-mean "
                  f"{plain_s * 1e3:.0f} ms, live subscriber IQ-mean "
                  f"{subscribed_s * 1e3:.0f} ms ({overhead:.3f}x, "
                  f"{throughput:.0f} req/s); {len(chain_events)} events "
                  f"drained on the last load, trace chain complete for "
                  f"{len(submitted)} requests")

        record_benchmark("BENCH_telemetry.json", "live_subscriber_overhead", {
            "n_requests": N_REQUESTS,
            "n_steps": N_STEPS,
            "n_loads_per_mode": N_LOADS,
            "cpu_count": os.cpu_count(),
            "policy": {"max_batch": POLICY.max_batch,
                       "max_wait_s": POLICY.max_wait,
                       "n_workers": POLICY.n_workers},
            "plain_s_iq_mean": plain_s,
            "subscribed_s_iq_mean": subscribed_s,
            "plain_s_all": plain_times,
            "subscribed_s_all": subscribed_times,
            "overhead_x": overhead,
            "overhead_gate_x": OVERHEAD_GATE,
            "subscribed_requests_per_s": throughput,
            "n_events_drained": len(chain_events),
            "trace_chain_complete": True,
        })

        # The gate: a live subscriber costs at most 5% throughput.
        assert overhead <= OVERHEAD_GATE, (
            f"live events subscriber costs {(overhead - 1) * 100:.1f}% "
            f"(> {(OVERHEAD_GATE - 1) * 100:.0f}%) of serve throughput")

    def test_metrics_aggregator_overhead_within_5pct(self, capsys):
        """The windowed-metrics consumer inherits the 5% overhead gate."""
        registry = ModelRegistry(tempfile.mkdtemp(prefix="telemetry-bench-"))
        compiled = compile_model(_model(), dt=1e-9, input_range=(0.0, 1.0))
        key = registry.save(compiled)
        stimuli = _stimuli(seed=3)
        direct = compiled.evaluate(stimuli)

        plain_times, aggregated_times = [], []
        report = None
        with ModelServer(registry, POLICY) as server:
            warm = [server.submit(key, row) for row in stimuli[:N_WARMUP]]
            for future in warm:
                future.result(FUTURE_TIMEOUT)
            for load in range(N_LOADS):
                seconds, served = _time_load(server, key, stimuli)
                np.testing.assert_array_equal(served, direct)
                plain_times.append(seconds)
                seconds, served, report = _aggregated_load(
                    server, key, stimuli)
                np.testing.assert_array_equal(served, direct)
                aggregated_times.append(seconds)

        def iq_mean(times):
            trim = len(times) // 4
            kept = sorted(times)[trim:len(times) - trim]
            return sum(kept) / len(kept)

        plain_s = iq_mean(plain_times)
        aggregated_s = iq_mean(aggregated_times)
        overhead = aggregated_s / plain_s

        # Aggregation acceptance on the last load: the fold covered the
        # whole session, every served row seen submitted.
        assert report.n_submitted == N_REQUESTS
        assert report.n_served == N_REQUESTS
        assert report.n_unmatched == 0
        assert report.n_subscriber_dropped == 0
        assert report.e2e_latency.count == N_REQUESTS
        assert 0.0 < report.fill_ratio <= 1.0

        with capsys.disabled():
            print(f"\n[telemetry] {N_REQUESTS} requests x {N_STEPS} steps, "
                  f"{N_LOADS} alternated loads per mode: plain IQ-mean "
                  f"{plain_s * 1e3:.0f} ms, live aggregator IQ-mean "
                  f"{aggregated_s * 1e3:.0f} ms ({overhead:.3f}x); last "
                  f"fold: {report.n_windows} windows, e2e p95 "
                  f"{report.e2e_latency.p95 * 1e3:.2f} ms, fill "
                  f"{report.fill_ratio * 100.0:.0f}%")

        record_benchmark("BENCH_telemetry.json", "aggregator_overhead", {
            "n_requests": N_REQUESTS,
            "n_steps": N_STEPS,
            "n_loads_per_mode": N_LOADS,
            "cpu_count": os.cpu_count(),
            "window_s": 0.25,
            "plain_s_iq_mean": plain_s,
            "aggregated_s_iq_mean": aggregated_s,
            "plain_s_all": plain_times,
            "aggregated_s_all": aggregated_times,
            "overhead_x": overhead,
            "overhead_gate_x": OVERHEAD_GATE,
            "last_report": report.as_dict(),
        })

        assert overhead <= OVERHEAD_GATE, (
            f"live metrics aggregator costs {(overhead - 1) * 100:.1f}% "
            f"(> {(OVERHEAD_GATE - 1) * 100:.0f}%) of serve throughput")

    def test_record_replay_1000_requests_bitwise(self, capsys, tmp_path):
        """A journaled 1000-request session replays bitwise-identically."""
        registry = ModelRegistry(tempfile.mkdtemp(prefix="telemetry-bench-"))
        compiled = compile_model(_model(), dt=1e-9, input_range=(0.0, 1.0))
        key = registry.save(compiled)
        stimuli = _stimuli(seed=7)
        store = RunStore(tmp_path / "runs.db")

        with ModelServer(registry, POLICY) as server:
            with RunRecorder(server.telemetry, store, name="bench-session",
                             stats_source=lambda: server.stats().as_dict(),
                             snapshot_interval=0.2,
                             maxsize=1 << 17) as recorder:
                start = time.perf_counter()
                futures = [server.submit(key, row) for row in stimuli]
                recorded = np.vstack([f.result(FUTURE_TIMEOUT)
                                      for f in futures])
                record_s = time.perf_counter() - start
            n_dropped = recorder.n_dropped
        assert n_dropped == 0

        run = store.runs()[-1]
        assert run.closed
        schedule = list(store.replay(run.run_id))
        assert len(schedule) == N_REQUESTS
        # The journal preserved submission order: trace ids ascend with it.
        trace_ids = [entry.trace_id for entry in schedule]
        assert trace_ids == sorted(trace_ids)
        assert all(entry.key == key and entry.n_steps == N_STEPS
                   for entry in schedule)

        # Re-serve the recorded schedule against a fresh server: schedule
        # position i is submission i, whose stimulus is row i.
        with ModelServer(registry, POLICY) as server:
            futures = [server.submit(entry.key, stimuli[index])
                       for index, entry in enumerate(schedule)]
            replayed = np.vstack([f.result(FUTURE_TIMEOUT) for f in futures])
        np.testing.assert_array_equal(replayed, recorded)
        np.testing.assert_array_equal(replayed, compiled.evaluate(stimuli))

        span = schedule[-1].t_rel - schedule[0].t_rel
        with capsys.disabled():
            print(f"\n[telemetry] journaled {len(schedule)} requests "
                  f"({record_s * 1e3:.0f} ms serve, submit span "
                  f"{span * 1e3:.0f} ms, {len(store.snapshots(run.run_id))} "
                  f"stats snapshots) and replayed them bitwise-identically")

        record_benchmark("BENCH_telemetry.json", "record_replay", {
            "n_requests": N_REQUESTS,
            "n_steps": N_STEPS,
            "record_s": record_s,
            "submit_span_s": span,
            "n_journaled_events": len(store.events(run.run_id)),
            "n_snapshots": len(store.snapshots(run.run_id)),
            "n_dropped": n_dropped,
            "replay_bitwise_identical": True,
        })
        store.close()
