"""Tests of the metrics/alerting consumer tier (:mod:`repro.telemetry`).

The windowing tests drive :class:`~repro.telemetry.MetricsAggregator`
synchronously with hand-stamped events (``t0=0.0``), which makes window
boundaries, out-of-order arrivals and lost submit events exactly
reproducible.  The integration tests attach the live aggregator + alert
manager to a real :class:`~repro.serve.ModelServer` — and, for the wire
round-trip, a real :class:`~repro.gateway.Gateway` — and assert alerts
fire and clear deterministically under injected shard crashes
(``fault_injection``), wedged workers (``stall_injection``) and injected
latency (``delay_injection``).
"""

import collections
import json
import math
import threading
import time

import numpy as np
import pytest

from repro.exceptions import GatewayError
from repro.gateway import Gateway, GatewayClient
from repro.runtime import ModelRegistry, compile_model, content_hash
from repro.serve import ModelServer, ServePolicy
from repro.serve.stats import ALPHA, LatencySummary
from repro.telemetry import (
    SCHEMA_VERSION,
    AlertManager,
    AlertRule,
    BatchServed,
    MetricsAggregator,
    MetricsReport,
    MetricsWindowClosed,
    RequestSubmitted,
    RunRecorder,
    RunStore,
    TopicBroker,
    WindowMetrics,
    WorkerCrashed,
    event_from_dict,
    subscribe_spans,
)
from test_serve import small_model
from test_telemetry import drain_until, request_batch

FUTURE_TIMEOUT = 60.0


@pytest.fixture(scope="module")
def compiled():
    return compile_model(small_model(), dt=1e-9, input_range=(0.0, 1.0))


@pytest.fixture()
def registry(compiled, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    registry.save(compiled)
    return registry


@pytest.fixture()
def key(compiled):
    return content_hash(compiled)


def submitted(trace_id, t, key="m", n_steps=64):
    return RequestSubmitted(key=key, n_steps=n_steps, trace_id=trace_id, t=t)


def served(trace_ids, t, key="m", n_rows=None, ok=True, n_steps=64,
           queue_s=(), e2e_s=()):
    return BatchServed(key=key, n_steps=n_steps,
                       n_rows=len(trace_ids) if n_rows is None else n_rows,
                       ok=ok, duration_s=0.0, trace_ids=tuple(trace_ids),
                       queue_s=tuple(queue_s), e2e_s=tuple(e2e_s), t=t)


def assert_no_nan(payload, path="payload"):
    if isinstance(payload, dict):
        for name, value in payload.items():
            assert_no_nan(value, f"{path}.{name}")
    elif isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            assert_no_nan(value, f"{path}[{index}]")
    elif isinstance(payload, float):
        assert not math.isnan(payload), f"NaN at {path}"


# ------------------------------------------------------- windowed aggregation
class TestAggregatorWindows:
    def test_trace_chain_folds_into_window_metrics(self):
        agg = MetricsAggregator(window_s=1.0, max_batch=4, t0=0.0)
        agg.ingest(submitted(1, t=0.10))
        agg.ingest(submitted(2, t=0.20))
        agg.ingest(served((1, 2), t=0.50, queue_s=(0.20, 0.10),
                          e2e_s=(0.40, 0.30)))
        (event,) = agg.close_window()
        assert event.window_index == 0
        assert event.n_submitted == 2
        assert event.n_served == 2
        assert event.n_batches == 1
        assert event.throughput_rps == pytest.approx(2.0)
        assert event.fill_ratio == pytest.approx(0.5)
        assert event.queue_latency["count"] == 2
        assert event.queue_latency["p50_s"] == pytest.approx(0.15, abs=0.06)
        assert event.e2e_latency["count"] == 2
        assert event.e2e_latency["max_s"] == pytest.approx(0.40, abs=1e-9)
        assert event.queue_depth == 0
        assert "m" in event.per_model
        assert event.per_model["m"]["fill_ratio"] == pytest.approx(0.5)

    def test_out_of_order_event_across_window_boundary_is_clamped(self):
        agg = MetricsAggregator(window_s=1.0, max_batch=8, t0=0.0)
        agg.ingest(submitted(1, t=0.50))
        # Jumping to window 1 closes window 0 with the request still pending.
        closed = agg.ingest(submitted(2, t=1.10))
        assert len(closed) == 1
        assert closed[0].n_submitted == 1
        assert closed[0].queue_depth == 1          # trace 1 still in flight
        # The serve arrives late, stamped before window 1 opened: it is
        # clamped into the current window (counted), never lost, and it
        # still serves both in-flight requests across the boundary.
        agg.ingest(served((1, 2), t=0.95, queue_s=(0.01, 0.0),
                          e2e_s=(0.45, 0.0)))
        (event,) = agg.close_window()
        assert event.window_index == 1
        assert event.n_late == 1
        assert event.n_served == 2
        assert event.n_unmatched == 0
        assert event.queue_depth == 0
        # The batch's own latencies land in the window it was served in.
        assert event.e2e_latency["count"] == 2
        assert event.e2e_latency["max_s"] == pytest.approx(0.45, abs=1e-9)
        assert event.e2e_latency["min_s"] == pytest.approx(0.0, abs=1e-9)

    def test_dropped_submit_events_leave_unmatched_not_broken(self):
        # A slow subscriber dropped the RequestSubmitted events (n_dropped
        # > 0 upstream): the batch serves rows the aggregator never saw
        # submitted.  They must be counted, not crash the fold or drive
        # the in-flight depth negative.
        agg = MetricsAggregator(window_s=1.0, max_batch=8, t0=0.0)
        agg.ingest(submitted(1, t=0.10))
        agg.ingest(served((1, 7, 8), t=0.40, queue_s=(0.1, 0.2, 0.3),
                          e2e_s=(0.3, 0.3, 0.3)))
        (event,) = agg.close_window()
        assert event.n_unmatched == 2              # rows 7 and 8
        assert event.queue_depth == 0
        assert event.queue_latency["count"] == 3   # the batch's own samples
        assert event.e2e_latency["count"] == 3
        assert event.n_served == 3                 # row counts still exact
        assert_no_nan(event.as_dict())

    def test_empty_windows_are_zeroed_not_nan(self):
        agg = MetricsAggregator(window_s=1.0, max_batch=8, t0=0.0)
        agg.ingest(submitted(1, t=0.10))
        agg.ingest(served((1,), t=0.20))
        events = agg.tick(4.5)                     # closes windows 0..3
        assert [e.window_index for e in events] == [0, 1, 2, 3]
        for event in events[1:]:
            assert event.n_events == 0
            assert event.throughput_rps == 0.0
            assert event.fill_ratio == 0.0
            assert event.e2e_latency["p95_s"] == 0.0
            payload = event.as_dict()
            assert_no_nan(payload)
            json.dumps(payload)                    # wire/journal safe
        # An all-empty rolling report is zeroed too.
        report = MetricsReport.of((), window_s=1.0)
        assert report.throughput_rps == 0.0
        assert report.e2e_latency.count == 0
        assert_no_nan(report.as_dict())

    def test_gap_longer_than_ring_skips_unobservable_middle(self):
        agg = MetricsAggregator(window_s=1.0, n_windows=4, max_batch=8,
                                t0=0.0)
        agg.ingest(submitted(1, t=0.10))
        events = agg.tick(1000.0)
        # Only the last ring's worth of windows is closed/republished; the
        # index still lands where event time says it should.
        assert len(events) == 4
        assert events[-1].window_index == 999
        assert agg.ingest(submitted(2, t=1000.5)) == []

    def test_window_latency_merges_every_model(self):
        agg = MetricsAggregator(window_s=1.0, max_batch=4, t0=0.0)
        agg.ingest(submitted(1, t=0.1, key="a"))
        agg.ingest(submitted(2, t=0.1, key="b"))
        agg.ingest(served((1,), t=0.2, key="a", e2e_s=(0.1,)))
        agg.ingest(served((2,), t=0.5, key="b", e2e_s=(0.4,)))
        (event,) = agg.close_window()
        assert event.e2e_latency["count"] == 2
        assert event.e2e_latency["min_s"] == pytest.approx(0.1)
        assert event.e2e_latency["max_s"] == pytest.approx(0.4)

    def test_report_merges_windows_and_models(self):
        agg = MetricsAggregator(window_s=1.0, max_batch=4, t0=0.0)
        agg.ingest(submitted(1, t=0.1, key="a"))
        agg.ingest(served((1,), t=0.2, key="a", e2e_s=(0.1,)))
        agg.ingest(submitted(2, t=1.1, key="b"))
        agg.ingest(served((2,), t=1.3, key="b", e2e_s=(0.2,)))
        agg.ingest(submitted(3, t=2.1, key="a"))
        agg.ingest(served((3,), t=2.4, key="a", e2e_s=(0.3,)))
        agg.close_window()
        report = agg.report()
        assert report.n_windows == 3
        assert report.n_submitted == 3 and report.n_served == 3
        assert report.throughput_rps == pytest.approx(1.0)
        assert set(report.per_model) == {"a", "b"}
        assert report.per_model["a"].n_served == 2
        assert report.per_model["a"].e2e_latency.count == 2
        assert report.per_model["b"].e2e_latency.max == pytest.approx(0.2)
        assert report.e2e_latency.count == 3
        json.dumps(report.as_dict())
        assert "rows/s" in report.describe()

    def test_window_close_republishes_schema_versioned_event(self):
        broker = TopicBroker()
        watcher = broker.subscribe(topics=("MetricsWindowClosed",))
        with MetricsAggregator(broker, window_s=0.1, max_batch=8) as agg:
            broker.publish(RequestSubmitted(key="m", n_steps=64, trace_id=1))
            deadline = time.monotonic() + 10.0
            while agg.n_windows_closed == 0:
                assert time.monotonic() < deadline
                time.sleep(0.02)
        event = watcher.get(timeout=5.0)
        assert isinstance(event, MetricsWindowClosed)
        payload = event.as_dict()
        assert payload["event"] == "MetricsWindowClosed"
        assert payload["schema"] == SCHEMA_VERSION
        rebuilt = event_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == event
        watcher.close()

    def test_counter_events_fold_in(self):
        agg = MetricsAggregator(window_s=1.0, max_batch=8, t0=0.0)
        agg.ingest(WorkerCrashed(worker_index=0, key="m", t=0.1))
        (event,) = agg.close_window()
        assert event.n_crashes == 1
        assert event.n_subscriber_dropped == 0

    def test_subscription_drops_fold_into_the_window(self):
        """Events the aggregator's own subscription dropped while its
        consumer fell behind are counted on the window that closes next."""
        broker = TopicBroker()
        agg = MetricsAggregator(broker, window_s=60.0, maxsize=4)
        with agg._lock:        # the consumer thread stalls on its fold
            for _ in range(50):
                # repro: allow[REP102] stalls the consumer so its subscription overflows
                broker.publish(WorkerCrashed(worker_index=0, key="m"))
        (event,) = agg.close()
        assert event.n_subscriber_dropped == agg.n_dropped > 0
        assert event.n_crashes + event.n_subscriber_dropped == 50


# -------------------------------------------------- LatencySummary satellites
class TestLatencySummaryWindows:
    def test_p95_between_p90_and_p99(self):
        summary = LatencySummary.of(np.linspace(0.0, 1.0, 1001))
        assert summary.p90 <= summary.p95 <= summary.p99
        assert summary.p95 == pytest.approx(0.95, rel=ALPHA)
        assert summary.percentile(95.0) == pytest.approx(summary.p95)

    def test_merge_weights_by_count(self):
        first = LatencySummary.of(np.full(30, 1.0))
        second = LatencySummary.of(np.full(10, 5.0))
        merged = LatencySummary.merge([first, second])
        assert merged.count == 40
        assert merged.mean == pytest.approx(2.0)
        assert merged.min == 1.0 and merged.max == 5.0
        assert merged.p95 == pytest.approx(5.0)

    def test_merge_skips_empties_and_merges_none_to_zero(self):
        empty = LatencySummary.of(())
        live = LatencySummary.of([0.5, 1.0])
        assert LatencySummary.merge([empty, live]) == live
        merged = LatencySummary.merge([empty, empty])
        assert merged.count == 0 and merged.p95 == 0.0
        assert LatencySummary.merge([]).count == 0

    def test_bursty_rollup_reports_the_true_p99(self):
        """Nine quiet 500-request windows at 5 ms and one overloaded
        50-request window at 200 ms: 50 of 4550 samples sit above the 1%
        tail, so the rolled-up p99 is 200 ms.  Averaging the windows' p99s
        would report ~7 ms and a p99 alert would never fire."""
        windows = [
            WindowMetrics(index=i, t_start=float(i), t_end=i + 1.0,
                          e2e_latency=LatencySummary.of(
                              np.full(50 if i == 9 else 500,
                                      0.200 if i == 9 else 0.005)))
            for i in range(10)]
        report = MetricsReport.of(windows, window_s=1.0)
        assert report.e2e_latency.count == 4550
        assert report.e2e_latency.p99 >= 0.198


# ------------------------------------------------------------ alert hysteresis
class TestAlertHysteresis:
    def window(self, index, **fields):
        return MetricsWindowClosed(window_index=index, t_start=float(index),
                                   t_end=float(index + 1), **fields)

    def test_raise_clear_raise_is_deterministic(self):
        manager = AlertManager(
            [AlertRule.crash_rate(0.0, raise_after=2, clear_after=2)])
        bad = dict(n_crashes=1)
        kinds = []
        for index, fields in enumerate([bad, bad, {}, bad, {}, {}, bad, bad]):
            kinds.append([type(e).__name__ for e in
                          manager.evaluate(self.window(index, **fields))])
        # breach x2 raises; one ok window is debounced away by the breach at
        # index 3; two consecutive ok windows clear; two breaches re-raise.
        assert kinds == [[], ["AlertRaised"], [], [], [], ["AlertCleared"],
                         [], ["AlertRaised"]]
        assert manager.active() == {"crash_rate": 1.0}
        assert manager.states()["crash_rate"]["n_raised"] == 2
        assert manager.states()["crash_rate"]["n_cleared"] == 1

    def test_dotted_metric_reaches_latency_percentiles(self):
        rule = AlertRule.p95_latency(0.010, raise_after=1, clear_after=1)
        manager = AlertManager([rule])
        slow = self.window(0, e2e_latency={"p95_s": 0.050})
        (raised,) = manager.evaluate(slow)
        assert raised.topic == "AlertRaised"
        assert raised.value == pytest.approx(0.050)
        assert raised.threshold == pytest.approx(0.010)
        # Events and raw dict payloads evaluate identically.
        fast = self.window(1, e2e_latency={"p95_s": 0.001}).as_dict()
        (cleared,) = manager.evaluate(fast)
        assert cleared.topic == "AlertCleared"
        assert cleared.window_index == 1

    def test_builtin_rules_cover_the_issue_metrics(self):
        metrics = {rule.metric for rule in (
            AlertRule.p95_latency(0.1), AlertRule.crash_rate(0.0),
            AlertRule.queue_depth(100), AlertRule.subscriber_drops(0.0))}
        assert metrics == {"e2e_latency.p95_s", "n_crashes", "queue_depth",
                           "n_subscriber_dropped"}

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="op"):
            AlertRule(name="x", metric="n_crashes", threshold=0.0, op=">=")
        with pytest.raises(ValueError, match="raise_after"):
            AlertRule(name="x", metric="n_crashes", threshold=0.0,
                      raise_after=0)
        with pytest.raises(ValueError, match="duplicate"):
            AlertManager([AlertRule.crash_rate(0.0), AlertRule.crash_rate(1.0)])

    def test_missing_metric_path_reads_zero(self):
        rule = AlertRule(name="x", metric="no_such.field", threshold=1.0)
        assert rule.value_of(self.window(0)) == 0.0
        assert not rule.breached(rule.value_of({}))


# --------------------------------------------------------- server integration
class TestLiveAggregation:
    def test_live_aggregator_folds_real_traffic(self, registry, compiled,
                                                key):
        batch = request_batch(32, 64)
        policy = ServePolicy(max_batch=16, max_wait=2e-3)
        with ModelServer(registry, policy) as server:
            with MetricsAggregator(server.telemetry, window_s=0.2,
                                   max_batch=policy.max_batch) as agg:
                futures = [server.submit(key, row) for row in batch]
                outputs = np.vstack([f.result(FUTURE_TIMEOUT)
                                     for f in futures])
            report = agg.report()
        np.testing.assert_array_equal(outputs, compiled.evaluate(batch))
        assert report.n_submitted == 32
        assert report.n_served == 32
        assert report.n_failed == 0
        assert report.n_unmatched == 0
        assert report.e2e_latency.count == 32
        assert 0.0 < report.fill_ratio <= 1.0
        assert report.per_model[key].n_served == 32

    def test_windows_reconcile_with_serve_stats_and_journal(
            self, registry, compiled, key, tmp_path):
        """Windows fold the latencies the server accounts, so merged over
        the run they equal ``ServeStats`` bucket for bucket; the journal
        agrees on the counts, and every batch or job stage is published
        once for all its members."""
        batch = request_batch(300, 64)
        policy = ServePolicy(max_batch=64, max_wait=2e-3, n_workers=2)
        with ModelServer(registry, policy) as server, \
                RunStore(tmp_path / "runs.sqlite") as store:
            with MetricsAggregator(server.telemetry, window_s=0.05,
                                   n_windows=10_000,
                                   max_batch=policy.max_batch) as agg, \
                    RunRecorder(server.telemetry, store,
                                name="reconcile") as recorder, \
                    subscribe_spans(server.telemetry) as (assembler, sub):
                futures = [server.submit(key, row) for row in batch]
                outputs = np.vstack([f.result(FUTURE_TIMEOUT)
                                     for f in futures])
                trace_ids = {future.trace_id for future in futures}
                spans = []
                deadline = time.monotonic() + 10.0
                while not all(assembler.complete(t) for t in trace_ids):
                    assert time.monotonic() < deadline
                    drained = sub.drain()
                    spans.extend(drained)
                    assembler.extend(drained)
                    time.sleep(0.01)
            stats = server.stats()
            report = agg.report()
            events = store.events(recorder.run_id)
            rows = store.spans(recorder.run_id)
        np.testing.assert_array_equal(outputs, compiled.evaluate(batch))
        n = len(batch)
        assert stats.n_completed == n and stats.n_failed == 0
        for ours, theirs in ((report.queue_latency, stats.queue_latency),
                             (report.e2e_latency, stats.e2e_latency)):
            assert ours.count == theirs.count == n
            assert (ours.min, ours.max) == (theirs.min, theirs.max)
            assert (ours.offset, ours.buckets) == \
                (theirs.offset, theirs.buckets)
            assert ours.mean == pytest.approx(theirs.mean, rel=1e-12)
        assert sum(w.n_served for w in report.windows) == stats.n_completed
        assert report.n_submitted == n
        assert report.n_unmatched == 0 and report.queue_depth == 0
        # The journal reconciles too.
        kinds = collections.Counter(e["event"] for e in events)
        assert kinds["RequestSubmitted"] == n
        assert sum(e["n_rows"] for e in events
                   if e["event"] == "BatchServed") == stats.n_completed
        per_trace = collections.Counter(r["trace_ids"][0] for r in rows)
        assert per_trace == {t: len(assembler.spans(t)) for t in trace_ids}
        # Each batch stage once per batch, each job stage once per job:
        # either way every request is a member exactly once.
        members = collections.defaultdict(list)
        for span in spans:
            members[span.name].append(span.trace_ids)
        for stage in ("serve_dispatch", "serve_execute", "shard_lease"):
            assert len(members[stage]) == stats.n_batches
        for stage in ("serve_dispatch", "serve_execute", "shard_lease",
                      "shard_stage_in", "worker_evaluate",
                      "worker_stage_out", "serve_reassemble",
                      "serve_queue", "serve_coalesce", "request"):
            covered = [t for ids in members[stage] for t in ids]
            assert sorted(covered) == sorted(trace_ids), stage

    def test_timeout_alert_raises_and_clears_under_stall(self, registry,
                                                         key):
        """A wedged worker (stall_injection + job_timeout) trips a timeout
        rule; clean follow-up windows clear it — all in-process."""
        policy = ServePolicy(max_batch=8, max_wait=5e-3, n_workers=1,
                             job_timeout=0.3)
        rules = (AlertRule(name="timeouts", metric="n_timeouts",
                           threshold=0.0, raise_after=1, clear_after=2,
                           detail="jobs past job_timeout"),)
        with ModelServer(registry, policy, stall_injection={key}) as server:
            alert_sub = server.telemetry.subscribe(
                topics=("AlertRaised", "AlertCleared"))
            with MetricsAggregator(server.telemetry, window_s=0.2,
                                   max_batch=policy.max_batch) as agg:
                with AlertManager(rules, server.telemetry):
                    # First batch wedges its worker, times out, respawns
                    # and retries — the window that saw JobTimedOut
                    # breaches the rule immediately (raise_after=1).
                    server.serve(key, request_batch(4, 32))
                    raised = drain_until(
                        alert_sub, lambda events: any(
                            e.topic == "AlertRaised" for e in events),
                        timeout=30.0)
                    # Clean traffic (the stall is wedge-once) closes
                    # timeout-free windows until the hysteresis clears.
                    deadline = time.monotonic() + 30.0
                    cleared = []
                    while not any(e.topic == "AlertCleared"
                                  for e in cleared):
                        assert time.monotonic() < deadline
                        server.serve(key, request_batch(2, 32))
                        cleared.extend(alert_sub.drain())
                        time.sleep(0.05)
            assert agg.report().n_timeouts >= 1
            alert_sub.close()
        (raise_event,) = [e for e in raised if e.topic == "AlertRaised"]
        assert raise_event.name == "timeouts"
        assert raise_event.value >= 1.0

    def test_p95_alert_raises_under_injected_delay_then_clears_idle(
            self, registry, key):
        """delay_injection pushes every e2e sample over the p95 bound; the
        alert raises on the first closed window and clears once idle
        (zeroed) windows satisfy the hysteresis."""
        policy = ServePolicy(max_batch=8, max_wait=2e-3, n_workers=1)
        rules = (AlertRule.p95_latency(0.010, raise_after=1, clear_after=2),)
        with ModelServer(registry, policy, delay_injection=0.05) as server:
            alert_sub = server.telemetry.subscribe(
                topics=("AlertRaised", "AlertCleared"))
            with MetricsAggregator(server.telemetry, window_s=0.2,
                                   max_batch=policy.max_batch):
                with AlertManager(rules, server.telemetry):
                    server.serve(key, request_batch(4, 32))
                    events = drain_until(
                        alert_sub, lambda seen: any(
                            e.topic == "AlertRaised" for e in seen),
                        timeout=30.0)
                    # No further traffic: the aggregator keeps closing
                    # empty windows whose zeroed p95 is in bounds.
                    events += drain_until(
                        alert_sub, lambda seen: any(
                            e.topic == "AlertCleared" for e in seen),
                        timeout=30.0)
            alert_sub.close()
        kinds = [e.topic for e in events]
        assert kinds.index("AlertRaised") < kinds.index("AlertCleared")
        raised = events[kinds.index("AlertRaised")]
        assert raised.metric == "e2e_latency.p95_s"
        assert raised.value > 0.010


# ---------------------------------------------------------- gateway round-trip
class TestAlertWireRoundTrip:
    def test_crash_alert_rides_events_subscribe_frames(self, registry,
                                                       compiled, key):
        """AlertRaised/AlertCleared cross the gateway wire unchanged: a
        shard crash (fault_injection) raises crash_rate, the respawned
        clean windows clear it, and a remote EVENTS_SUBSCRIBE client sees
        both — with no protocol change."""
        batch = request_batch(8, 32)
        policy = ServePolicy(max_batch=8, max_wait=5e-3, n_workers=2)
        rules = (AlertRule.crash_rate(0.0, raise_after=1, clear_after=2),)
        seen: list = []
        done = threading.Event()

        with ModelServer(registry, policy, fault_injection={key}) as server:
            with MetricsAggregator(server.telemetry, window_s=0.2,
                                   max_batch=policy.max_batch):
                with AlertManager(rules, server.telemetry):
                    with Gateway(server) as gateway:
                        host, port = gateway.address

                        def watch():
                            try:
                                with GatewayClient(host, port) as client:
                                    for payload in client.subscribe_events(
                                            topics=("AlertRaised",
                                                    "AlertCleared"),
                                            timeout=10.0):
                                        seen.append(payload)
                                        kinds = {p["event"] for p in seen}
                                        if {"AlertRaised",
                                                "AlertCleared"} <= kinds:
                                            done.set()
                                            return
                            except GatewayError:
                                pass

                        watcher = threading.Thread(target=watch)
                        watcher.start()
                        time.sleep(0.3)   # let the subscription register

                        with GatewayClient(host, port,
                                           timeout=60.0) as client:
                            # The crash-once key: first batch crashes a
                            # worker (raising crash_rate), every retry and
                            # follow-up batch is clean (clearing it).
                            outputs = client.submit_many(
                                (key, row) for row in batch)
                            deadline = time.monotonic() + 30.0
                            while not done.is_set():
                                assert time.monotonic() < deadline
                                client.submit(key, batch[0])
                                time.sleep(0.05)
                        watcher.join(timeout=30.0)

        for row, expected in zip(outputs, compiled.evaluate(batch)):
            np.testing.assert_array_equal(row, expected)
        kinds = [p["event"] for p in seen]
        assert kinds.index("AlertRaised") < kinds.index("AlertCleared")
        # Wire payloads rebuild into the typed events, schema intact.
        raised = event_from_dict(seen[kinds.index("AlertRaised")])
        assert raised.topic == "AlertRaised"
        assert raised.name == "crash_rate"
        assert raised.value >= 1.0
        assert seen[0]["schema"] == SCHEMA_VERSION
