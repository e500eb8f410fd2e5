"""Tests of the push-telemetry stack: broker, events, run store, wiring.

The broker tests exercise the concurrency contract directly (slow and
raising subscribers must never hurt the publisher).  The integration tests
drive a real :class:`~repro.serve.ModelServer` — and, for the wire frames, a
real :class:`~repro.gateway.Gateway` over live sockets — and assert the
trace-id chain, the crash/respawn event flow and the record → replay loop.
"""

import asyncio
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import RunStoreError
from repro.gateway import AsyncGatewayClient, Gateway, GatewayClient, protocol
from repro.runtime import ModelRegistry, compile_model, content_hash
from repro.serve import ModelServer, ServePolicy
from repro.sweep import Scenario, SweepOptions, run_sweep
from repro.telemetry import (
    SCHEMA_VERSION,
    BatchClosed,
    BatchServed,
    ChunkStreamError,
    ConnectionOpened,
    EngineProfile,
    RequestRejected,
    RequestSubmitted,
    RunRecorder,
    RunStore,
    ScenarioCompleted,
    SweepCompleted,
    SweepStarted,
    TopicBroker,
    WorkerCrashed,
    WorkerRespawned,
    event_from_dict,
    event_topics,
)
from test_serve import small_model

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


def request_batch(n_rows: int = 16, n_steps: int = 64, seed: int = 0):
    rng = np.random.default_rng(seed)
    return 0.5 + 0.3 * rng.standard_normal((n_rows, n_steps))


def drain_until(subscription, predicate, timeout: float = 10.0) -> list:
    """Collect events until ``predicate(events)`` holds (fail on timeout)."""
    events = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        event = subscription.get(timeout=0.1)
        if event is not None:
            events.append(event)
        if predicate(events):
            return events
    raise AssertionError(
        f"condition not met within {timeout}s; saw {[type(e).__name__ for e in events]}")


# ------------------------------------------------------------------- broker
class TestTopicBroker:
    def test_no_subscriber_publish_is_a_cheap_no_op(self):
        broker = TopicBroker()
        assert not broker
        assert broker.publish(WorkerRespawned(worker_index=0)) == 0

    def test_events_delivered_in_order_with_types_intact(self):
        broker = TopicBroker()
        with broker.subscribe() as sub:
            assert broker
            for index in range(5):
                broker.publish(WorkerRespawned(worker_index=index))
            got = [sub.get(timeout=1.0) for _ in range(5)]
        assert [e.worker_index for e in got] == list(range(5))
        assert all(isinstance(e, WorkerRespawned) for e in got)

    def test_topic_filter_delivers_only_named_topics(self):
        broker = TopicBroker()
        with broker.subscribe(topics=["WorkerCrashed"]) as sub:
            broker.publish(WorkerRespawned(worker_index=1))
            broker.publish(WorkerCrashed(worker_index=2))
            event = sub.get(timeout=1.0)
            assert isinstance(event, WorkerCrashed)
            assert len(sub) == 0

    def test_slow_subscriber_drops_oldest_without_blocking_publisher(self):
        """Satellite: a full queue costs the laggard history — counted in
        ``n_dropped`` — never publisher latency."""
        broker = TopicBroker()
        n_events = 20_000
        with broker.subscribe(maxsize=8) as sub:
            start = time.perf_counter()
            for index in range(n_events):
                broker.publish(WorkerRespawned(worker_index=index))
            elapsed = time.perf_counter() - start
            # Never-blocking publish: 20k events through a jammed subscriber
            # in well under a second (generous bound for loaded CI).
            assert elapsed < 5.0
            assert sub.n_dropped == n_events - 8
            assert sub.n_dropped + len(sub) == n_events
            # Drop-oldest: the survivors are the *newest* events.
            survivors = [e.worker_index for e in sub.drain()]
            assert survivors == list(range(n_events - 8, n_events))

    def test_publisher_survives_subscriber_raising_mid_delivery(self):
        """Satellite: a wakeup callback that raises must not break publish
        or starve the other subscribers."""
        broker = TopicBroker()

        def bad_wakeup():
            raise RuntimeError("subscriber exploded")

        with broker.subscribe(wakeup=bad_wakeup) as bad, \
                broker.subscribe() as good:
            assert broker.publish(WorkerRespawned(worker_index=7)) == 2
            assert bad.get(timeout=1.0).worker_index == 7
            assert good.get(timeout=1.0).worker_index == 7

    def test_close_unsubscribes_and_unblocks_get(self):
        broker = TopicBroker()
        sub = broker.subscribe()
        waiter_result = []

        def waiter():
            waiter_result.append(sub.get(timeout=30.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        sub.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert waiter_result == [None]
        assert broker.n_subscribers == 0
        assert broker.publish(WorkerRespawned(worker_index=0)) == 0

    def test_iteration_drains_remaining_events_after_close(self):
        broker = TopicBroker()
        sub = broker.subscribe()
        for index in range(3):
            broker.publish(WorkerRespawned(worker_index=index))
        sub.close()
        assert [e.worker_index for e in sub] == [0, 1, 2]

    def test_wakeup_fires_only_on_empty_to_nonempty(self):
        broker = TopicBroker()
        wakeups = []
        sub = broker.subscribe(wakeup=lambda: wakeups.append(1))
        broker.publish(WorkerRespawned(worker_index=0))
        broker.publish(WorkerRespawned(worker_index=1))
        assert len(wakeups) == 1         # second publish found a non-empty queue
        sub.drain()
        broker.publish(WorkerRespawned(worker_index=2))
        assert len(wakeups) == 2
        sub.close()


# ------------------------------------------------------------------- events
class TestEventSchema:
    def test_as_dict_round_trips_through_json(self):
        event = BatchServed(key="ab", n_steps=64, n_rows=3, ok=True,
                            duration_s=0.5, trace_ids=(1, 2, 3),
                            queue_s=(0.1, 0.0, 0.25), e2e_s=(0.5, 0.4, 0.6))
        payload = json.loads(json.dumps(event.as_dict()))
        back = event_from_dict(payload)
        assert back == event
        assert back.trace_ids == (1, 2, 3)
        assert back.queue_s == (0.1, 0.0, 0.25)
        assert payload["event"] == "BatchServed"
        assert payload["schema"] == SCHEMA_VERSION

    def test_unknown_event_name_raises_key_error(self):
        with pytest.raises(KeyError, match="NoSuchEvent"):
            event_from_dict({"event": "NoSuchEvent", "schema": 1})

    def test_unknown_fields_are_ignored_for_forward_compat(self):
        payload = {"event": "WorkerRespawned", "schema": 1,
                   "worker_index": 4, "t": 1.0, "added_in_v9": "x"}
        assert event_from_dict(payload).worker_index == 4

    def test_topic_registry_covers_the_instrumented_events(self):
        topics = event_topics()
        for name in ("RequestSubmitted", "BatchClosed", "BatchServed",
                     "WorkerCrashed", "WorkerRespawned", "CacheEvicted",
                     "ConnectionOpened", "ConnectionClosed", "ProtocolError",
                     "ChunkStreamError", "SweepStarted", "ScenarioCompleted",
                     "SweepCompleted"):
            assert name in topics


# ---------------------------------------------------------------- run store
class TestRunStore:
    def test_round_trip_events_and_snapshots(self, tmp_path):
        path = tmp_path / "runs.db"
        with RunStore(path) as store:
            run_id = store.open_run("unit", meta={"who": "test"})
            store.record_events(run_id, [WorkerRespawned(worker_index=3)])
            store.record_events(run_id, [
                RequestSubmitted(key="ab", n_steps=64, trace_id=1),
                RequestSubmitted(key="ab", n_steps=64, trace_id=2),
            ])
            store.record_snapshot(run_id, {"n_completed": 5})
            store.close_run(run_id)
            run = store.get_run(run_id)
            assert run.closed and run.name == "unit"
            assert run.meta["who"] == "test"
            assert len(store.events(run_id)) == 3
            assert store.events(run_id, kind="RequestSubmitted")[0]["trace_id"] == 1
            assert store.snapshots(run_id) == [{"n_completed": 5}]

    def test_bitwise_round_trip_through_a_fresh_process(self, tmp_path):
        """Satellite: payloads written here must read back bitwise-identical
        from a separate interpreter (canonical JSON, no per-process state)."""
        path = tmp_path / "runs.db"
        event = BatchServed(key="deadbeef", n_steps=96, n_rows=7, ok=True,
                            duration_s=0.125, trace_ids=(9, 10, 11))
        with RunStore(path) as store:
            run_id = store.open_run("xproc")
            store.record_events(run_id, [event])
        script = (
            "import json, sys\n"
            "from repro.telemetry import RunStore, event_from_dict\n"
            "store = RunStore(sys.argv[1])\n"
            "payload = store.events(1)[0]\n"
            "event = event_from_dict(payload)\n"
            "print(json.dumps(payload, sort_keys=True, separators=(',', ':')))\n"
        )
        import repro
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, check=True, env=env)
        fresh_payload = json.loads(out.stdout.strip())
        assert event_from_dict(fresh_payload) == event
        canonical = json.dumps(event.as_dict(), sort_keys=True,
                               separators=(",", ":"))
        assert out.stdout.strip() == canonical

    def test_corrupted_database_fails_as_named_error(self, tmp_path):
        """Satellite: garbage on disk is a ``RunStoreError`` at open, not a
        latent sqlite exception at first use."""
        path = tmp_path / "corrupt.db"
        path.write_bytes(b"this is not a sqlite database at all\x00\xff" * 64)
        with pytest.raises(RunStoreError, match="cannot open run store"):
            RunStore(path)

    def test_closed_store_and_unknown_run_raise_named_errors(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        with pytest.raises(RunStoreError, match="unknown run id"):
            store.get_run(999)
        store.close()
        with pytest.raises(RunStoreError, match="is closed"):
            store.open_run("late")

    def test_replay_schedule_preserves_order_and_relative_times(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.open_run("sched")
            run = store.get_run(run_id)
            for index in range(5):
                event = RequestSubmitted(key="ab", n_steps=32,
                                         trace_id=index + 1)
                store.record_events(run_id, [event])
            schedule = list(store.replay(run_id))
        assert [r.trace_id for r in schedule] == [1, 2, 3, 4, 5]
        assert all(r.key == "ab" and r.n_steps == 32 for r in schedule)
        t_rels = [r.t_rel for r in schedule]
        assert t_rels == sorted(t_rels)
        assert all(t >= 0.0 for t in t_rels)
        assert schedule[0].t_rel >= 0.0 and run.t_opened > 0.0


# ------------------------------------------------------- server integration
class TestServerTelemetry:
    def test_every_request_trace_id_spans_submit_close_serve(self, registry,
                                                             key):
        """Acceptance: each trace id appears in its RequestSubmitted, then in
        a BatchClosed and a BatchServed ``trace_ids`` tuple."""
        batch = request_batch(12, 48)
        policy = ServePolicy(max_batch=4, max_wait=1e-3, n_workers=1)
        with ModelServer(registry, policy) as server:
            with server.telemetry.subscribe(
                    topics=["RequestSubmitted", "BatchClosed",
                            "BatchServed"]) as sub:
                futures = [server.submit(key, row) for row in batch]
                for future in futures:
                    future.result(FUTURE_TIMEOUT)
                events = drain_until(
                    sub, lambda evs: sum(
                        len(e.trace_ids) for e in evs
                        if isinstance(e, BatchServed)) >= len(batch))
        submitted = [e for e in events if isinstance(e, RequestSubmitted)]
        closed_ids = {t for e in events if isinstance(e, BatchClosed)
                      for t in e.trace_ids}
        served = [e for e in events if isinstance(e, BatchServed)]
        served_ids = {t for e in served for t in e.trace_ids}
        assert len(submitted) == len(batch)
        trace_ids = {e.trace_id for e in submitted}
        assert len(trace_ids) == len(batch)           # unique per request
        assert trace_ids <= closed_ids
        assert trace_ids <= served_ids
        assert all(e.ok and e.duration_s > 0.0 for e in served)
        assert all(e.key == key for e in submitted)
        # Ordering: a request's submit event precedes its batch close.
        first_close = next(i for i, e in enumerate(events)
                           if isinstance(e, BatchClosed))
        early_submits = {e.trace_id for e in events[:first_close]
                        if isinstance(e, RequestSubmitted)}
        assert set(events[first_close].trace_ids) <= early_submits

    def test_rejection_publishes_named_reason(self, registry, key):
        policy = ServePolicy(max_batch=4, max_wait=1e-3, n_workers=1)
        with ModelServer(registry, policy) as server:
            with server.telemetry.subscribe(topics=["RequestRejected"]) as sub:
                with pytest.raises(Exception):
                    server.submit("no-such-model", np.full(16, 0.5))
                event = sub.get(timeout=5.0)
        assert isinstance(event, RequestRejected)
        assert event.reason == "unknown_key"

    def test_events_flow_across_worker_crash_and_respawn(self, registry,
                                                         compiled, key):
        """Satellite: a crash mid-batch emits WorkerCrashed + WorkerRespawned
        (with the batch's trace ids riding on the crash) and the stream keeps
        flowing for the retried work."""
        batch = request_batch(8, 32)
        policy = ServePolicy(max_batch=8, max_wait=60.0, n_workers=2)
        with ModelServer(registry, policy, fault_injection={key}) as server:
            with server.telemetry.subscribe() as sub:
                futures = [server.submit(key, row) for row in batch]
                results = np.vstack([f.result(FUTURE_TIMEOUT)
                                     for f in futures])
                events = drain_until(
                    sub, lambda evs: any(isinstance(e, WorkerCrashed)
                                         for e in evs)
                    and any(isinstance(e, WorkerRespawned) for e in evs)
                    and any(isinstance(e, BatchServed) and e.ok
                            for e in evs))
        np.testing.assert_array_equal(results, compiled.evaluate(batch))
        crashes = [e for e in events if isinstance(e, WorkerCrashed)]
        assert any(e.key == key for e in crashes)
        assert any(t for e in crashes for t in e.trace_ids)

    def test_stats_carry_snapshot_time_and_uptime(self, registry, key):
        """Satellite: ServeStats gains t_snapshot / uptime_s."""
        policy = ServePolicy(max_batch=4, max_wait=1e-3, n_workers=1)
        with ModelServer(registry, policy) as server:
            first = server.stats()
            time.sleep(0.05)
            second = server.stats()
        assert first.t_snapshot > 0.0
        assert second.t_snapshot > first.t_snapshot
        assert second.uptime_s > first.uptime_s >= 0.0
        payload = second.as_dict()
        assert payload["uptime_s"] == second.uptime_s
        assert payload["t_snapshot"] == second.t_snapshot
        assert second.describe().startswith("up ")


# ------------------------------------------------------ gateway wire frames
class TestGatewayTelemetry:
    @pytest.fixture()
    def serving(self, registry):
        policy = ServePolicy(max_batch=8, max_wait=1e-3, n_lanes=2,
                             stats_interval=0.05)
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                yield server, gateway

    def test_stats_subscription_streams_snapshots(self, serving, key):
        _, gateway = serving
        with GatewayClient(*gateway.address) as data:
            data.submit(key, np.full(24, 0.5))
        with GatewayClient(*gateway.address) as sub:
            stream = sub.subscribe_stats(interval_s=0.05, timeout=10.0)
            payloads = [next(stream) for _ in range(2)]
        for payload in payloads:
            assert payload["uptime_s"] > 0.0
            assert payload["n_completed"] >= 1
            assert payload["gateway"]["n_requests"] >= 1
        assert payloads[1]["uptime_s"] > payloads[0]["uptime_s"]

    def test_event_subscription_streams_trace_chain(self, serving, key):
        _, gateway = serving
        events = []
        done = threading.Event()

        def subscriber():
            with GatewayClient(*gateway.address) as sub:
                for payload in sub.subscribe_events(
                        topics=("RequestSubmitted", "BatchServed"),
                        timeout=15.0):
                    events.append(event_from_dict(payload))
                    if sum(len(e.trace_ids) for e in events
                           if isinstance(e, BatchServed)) >= 4:
                        done.set()
                        return

        thread = threading.Thread(target=subscriber)
        thread.start()
        time.sleep(0.2)                   # let the subscription register
        with GatewayClient(*gateway.address) as data:
            data.submit_many([(key, row) for row in request_batch(4, 32)])
        assert done.wait(timeout=15.0)
        thread.join(timeout=10.0)
        submitted = {e.trace_id for e in events
                     if isinstance(e, RequestSubmitted)}
        served = {t for e in events if isinstance(e, BatchServed)
                  for t in e.trace_ids}
        assert len(submitted) >= 4
        assert submitted <= served

    def test_async_client_multiplexes_data_and_events(self, serving, key):
        _, gateway = serving
        row = request_batch(1, 32)[0]

        async def scenario():
            client = await AsyncGatewayClient.connect(*gateway.address)
            try:
                got = []
                stream = client.subscribe_events(
                    topics=("RequestSubmitted",))
                collector = asyncio.ensure_future(anext(stream))
                await asyncio.sleep(0.2)
                output = await client.submit(key, row)
                payload = await asyncio.wait_for(collector, timeout=15.0)
                await stream.aclose()
                return output, payload
            finally:
                await client.close()

        output, payload = asyncio.run(scenario())
        assert payload["event"] == "RequestSubmitted"
        assert payload["trace_id"] >= 1
        assert output.shape == row.shape

    def test_chunk_stream_error_counted_and_published(self, serving, key):
        """Satellite: an out-of-order chunk stream bumps
        ``n_chunk_stream_errors`` and emits a ChunkStreamError event."""
        server, gateway = serving
        with server.telemetry.subscribe(topics=["ChunkStreamError"]) as sub:
            before = gateway.counters.n_chunk_stream_errors
            import socket as socket_module
            sock = socket_module.create_connection(gateway.address,
                                                   timeout=10.0)
            try:
                frames = protocol.encode_request_frames(
                    5, key, np.full(3000, 0.5), max_frame_bytes=4096)
                assert len(frames) >= 3
                sock.sendall(frames[0] + frames[2])   # gap: skipped chunk 1
                event = sub.get(timeout=10.0)
            finally:
                sock.close()
        assert isinstance(event, ChunkStreamError)
        assert event.request_id == 5
        assert gateway.counters.n_chunk_stream_errors > before
        assert "chunk-stream" in gateway.counters.describe()

    def test_connection_events_carry_peer_and_request_count(self, serving,
                                                            key):
        server, gateway = serving
        with server.telemetry.subscribe(
                topics=["ConnectionOpened", "ConnectionClosed"]) as sub:
            with GatewayClient(*gateway.address) as client:
                client.submit(key, np.full(16, 0.5))
            events = drain_until(
                sub, lambda evs: any(type(e).__name__ == "ConnectionClosed"
                                     for e in evs))
        opened = next(e for e in events if isinstance(e, ConnectionOpened))
        closed = next(e for e in events
                      if type(e).__name__ == "ConnectionClosed")
        assert opened.peer.startswith("127.0.0.1:")
        assert closed.peer == opened.peer
        assert closed.n_requests == 1


# ------------------------------------------------------- record and replay
class TestRecordReplay:
    def test_recorder_journals_a_session_and_replay_reserves_it(
            self, registry, compiled, key, tmp_path):
        """Acceptance (small-scale twin of the gated benchmark): journal a
        served session, then re-serve its replayed schedule bitwise."""
        batch = request_batch(20, 48, seed=3)
        policy = ServePolicy(max_batch=8, max_wait=1e-3, n_workers=1)
        store = RunStore(tmp_path / "runs.db")
        with ModelServer(registry, policy) as server:
            recorder = RunRecorder(server.telemetry, store, name="session",
                                   stats_source=lambda: server.stats().as_dict(),
                                   snapshot_interval=0.05)
            futures = [server.submit(key, row) for row in batch]
            recorded = np.vstack([f.result(FUTURE_TIMEOUT) for f in futures])
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if len(store.events(recorder.run_id,
                                    kind="RequestSubmitted")) >= len(batch):
                    break
                time.sleep(0.02)
            recorder.close()

        run = store.runs()[-1]
        assert run.closed
        schedule = list(store.replay(run.run_id))
        assert len(schedule) == len(batch)
        assert [r.t_rel for r in schedule] == sorted(r.t_rel for r in schedule)
        assert len(store.snapshots(run.run_id)) >= 1

        # Re-serve the recorded schedule against a fresh server: with the
        # same stimuli, outputs must be bitwise identical.
        with ModelServer(registry, policy) as server:
            futures = [server.submit(entry.key, batch[index])
                       for index, entry in enumerate(schedule)]
            replayed = np.vstack([f.result(FUTURE_TIMEOUT) for f in futures])
        np.testing.assert_array_equal(replayed, recorded)
        np.testing.assert_array_equal(replayed, compiled.evaluate(batch))
        store.close()

    def test_recorder_counts_its_own_drops(self, tmp_path):
        broker = TopicBroker()
        store = RunStore(tmp_path / "runs.db")
        with RunRecorder(broker, store, name="drops", maxsize=4) as recorder:
            assert recorder.n_dropped >= 0
        run = store.runs()[-1]
        assert run.meta["n_dropped"] == 0
        store.close()


# -------------------------------------------------------------------- sweep
class TestSweepTelemetry:
    def test_sweep_publishes_lifecycle_events(self):
        from repro.circuit import Sine, TransientOptions
        from repro.circuits import build_rc_ladder

        scenarios = [
            Scenario(name=f"s{i}", builder=build_rc_ladder,
                     builder_kwargs={"n_sections": 1},
                     waveform=Sine(0.5, 0.1, 2e5),
                     transient=TransientOptions(t_stop=2e-7, dt=1e-8))
            for i in range(2)
        ]
        broker = TopicBroker()
        with broker.subscribe() as sub:
            result = run_sweep(scenarios, SweepOptions(
                n_workers=1, capture_snapshots=False, broker=broker))
            events = sub.drain()
        assert len(result) == 2
        started = [e for e in events if isinstance(e, SweepStarted)]
        per_scenario = [e for e in events if isinstance(e, ScenarioCompleted)]
        completed = [e for e in events if isinstance(e, SweepCompleted)]
        assert len(started) == 1 and started[0].n_scenarios == 2
        assert [e.name for e in per_scenario] == ["s0", "s1"]
        assert all(e.ok and e.wall_time_s > 0.0 for e in per_scenario)
        assert len(completed) == 1
        assert completed[0].n_ok == 2 and completed[0].n_failed == 0

        # s0 and s1 share one circuit, so they ran as one transient family:
        # one EngineProfile per scenario, in order, with its own run's counters
        # and the family's engine time split equally.
        from repro.circuit import transient_analysis
        profiles = [e for e in events if isinstance(e, EngineProfile)]
        assert [e.name for e in profiles] == ["s0", "s1"]
        for scenario, profile in zip(scenarios, profiles):
            solo = transient_analysis(scenario.build_circuit().build(),
                                      scenario.transient)
            assert (profile.newton_iterations, profile.accepted_steps,
                    profile.rejected_steps, profile.lte_rejections,
                    profile.cache_factorizations, profile.cache_reuses,
                    profile.cache_hit_rate) == (
                solo.newton_iterations, solo.accepted_steps, solo.rejected_steps,
                solo.lte_rejections, solo.cache_factorizations, solo.cache_reuses,
                solo.cache_hit_rate)
            assert profile.wall_time_s == result[scenario.name].transient.wall_time
        assert profiles[0].wall_time_s == profiles[1].wall_time_s > 0.0
        assert per_scenario[0].wall_time_s == per_scenario[1].wall_time_s

    def test_sweep_without_broker_is_unchanged(self):
        from repro.circuit import Sine, TransientOptions
        from repro.circuits import build_rc_ladder

        scenario = Scenario(name="solo", builder=build_rc_ladder,
                            builder_kwargs={"n_sections": 1},
                            waveform=Sine(0.5, 0.1, 2e5),
                            transient=TransientOptions(t_stop=2e-7, dt=1e-8))
        result = run_sweep([scenario], SweepOptions(capture_snapshots=False))
        assert result[0].ok
