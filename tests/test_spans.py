"""Tests of the span tracer tier: sampling, assembly, attribution, profiling.

The unit tests drive :class:`~repro.telemetry.Tracer` and
:class:`~repro.telemetry.TraceAssembler` with hand-stamped spans, which makes
tree shapes and the critical path exactly reproducible.  The integration
tests attach a live subscriber to a real :class:`~repro.serve.ModelServer`
(in-process, sharded, crash-retried and gateway-fronted) and assert every
served request at ``sample_rate=1.0`` yields a **complete** span tree whose
stage durations tile the recorded end-to-end latency — and that a
sampled-out trace produces zero spans across every layer.
"""

import sqlite3
import time

import pytest

from repro.exceptions import RunStoreError
from repro.gateway import Gateway, GatewayClient
from repro.runtime import ModelRegistry, compile_model, content_hash
from repro.serve import ModelServer, ServePolicy
from repro.telemetry import spans as spans_module
from repro.telemetry import (
    ROOT_SPAN,
    STORE_VERSION,
    AlertRule,
    EngineProfile,
    MetricsAggregator,
    RunStore,
    SpanClosed,
    TopicBroker,
    TraceAssembler,
    Tracer,
    TracerConfig,
    describe_trace,
    event_from_dict,
    subscribe_spans,
)
from test_serve import small_model
from test_telemetry import request_batch

FUTURE_TIMEOUT = 60.0

#: Stages the in-process serve path must contribute to every sampled trace.
SERVE_STAGES = {"serve_queue", "serve_coalesce", "serve_execute"}


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


def span(name, trace_id=7, t_start=0.0, duration_s=1.0, parent=ROOT_SPAN,
         worker_index=-1):
    return SpanClosed(name=name, trace_ids=(trace_id,), t_start=t_start,
                      duration_s=duration_s, parent=parent,
                      worker_index=worker_index)


def drain_spans(assembler, subscription, predicate, timeout=10.0):
    """Feed the assembler from the subscription until ``predicate`` holds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        event = subscription.get(timeout=0.1)
        if event is not None:
            assembler.add(event)
        if predicate(assembler):
            return
    raise AssertionError(f"condition not met within {timeout}s; "
                         f"traces={assembler.trace_ids()}")


# ------------------------------------------------------------------- tracer
class TestTracer:
    def test_falsy_without_subscriber_or_at_zero_rate(self):
        broker = TopicBroker()
        assert not Tracer(broker)                     # nobody listening
        with broker.subscribe(topics=("SpanClosed",)):
            assert Tracer(broker)
            assert not Tracer(broker, TracerConfig(sample_rate=0.0))
        # Only a subscription that takes SpanClosed turns tracing on.
        with broker.subscribe(topics=("BatchServed",)):
            assert broker and not Tracer(broker)
            with broker.subscribe():                  # every topic
                assert Tracer(broker)
            assert not Tracer(broker)

    def test_config_validates_sample_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            TracerConfig(sample_rate=1.5)
        with pytest.raises(ValueError, match="sample_rate"):
            TracerConfig(sample_rate=-0.1)

    def test_sampling_is_deterministic_and_rate_proportional(self):
        config = TracerConfig(sample_rate=0.25, seed=7)
        a = Tracer(TopicBroker(), config)
        b = Tracer(TopicBroker(), config)
        decisions = [a.sampled(i) for i in range(10_000)]
        assert decisions == [b.sampled(i) for i in range(10_000)]
        kept = sum(decisions)
        assert 0.20 * 10_000 < kept < 0.30 * 10_000
        # Different seed, different subset — the decision keys on the pair.
        other = Tracer(TopicBroker(), TracerConfig(sample_rate=0.25, seed=8))
        assert decisions != [other.sampled(i) for i in range(10_000)]
        assert all(Tracer(TopicBroker()).sampled(i) for i in range(64))

    def test_with_span_publishes_span_closed(self):
        broker = TopicBroker()
        with broker.subscribe(topics=("SpanClosed",)) as sub:
            spans = Tracer(broker).batch((5,))
            t_start = time.monotonic()
            time.sleep(0.001)
            spans.add("serve_execute", t_start, time.monotonic() - t_start,
                      worker_index=2)
            assert sub.get(timeout=0.05) is None      # nothing before flush
            spans.flush()
            event = sub.get(timeout=5.0)
        assert isinstance(event, SpanClosed)
        assert event.name == "serve_execute"
        assert event.trace_ids == (5,)
        assert event.parent == ROOT_SPAN
        assert event.worker_index == 2
        assert event.duration_s > 0.0

    def test_sampled_out_trace_records_nothing(self):
        broker = TopicBroker()
        with broker.subscribe(topics=("SpanClosed",)) as sub:
            tracer = Tracer(broker, TracerConfig(sample_rate=0.5, seed=3))
            dropped = next(i for i in range(1, 1000)
                           if not tracer.sampled(i))
            spans = tracer.batch((dropped,))
            assert not spans
            spans.add("serve_execute", 0.0, 1.0)
            spans.add("serve_queue", 0.0, 1.0, trace_ids=(dropped,))
            spans.flush()
            assert sub.get(timeout=0.2) is None

    def test_emit_clamps_negative_durations(self):
        broker = TopicBroker()
        with broker.subscribe(topics=("SpanClosed",)) as sub:
            spans = Tracer(broker).batch((1,))
            spans.add("serve_queue", 10.0, -0.5)
            spans.flush()
            event = sub.get(timeout=5.0)
        assert event.duration_s == 0.0


# ---------------------------------------------------------------- assembler
class TestTraceAssembler:
    def lifecycle(self, trace_id=7):
        return [
            span(ROOT_SPAN, trace_id, 0.0, 10.0, parent=""),
            span("serve_queue", trace_id, 0.0, 1.0),
            span("serve_coalesce", trace_id, 1.0, 1.0),
            span("serve_execute", trace_id, 2.0, 8.0),
            span("worker_evaluate", trace_id, 3.0, 6.0,
                 parent="serve_execute", worker_index=0),
        ]

    def test_tree_links_children_by_stage_name(self):
        assembler = TraceAssembler()
        assembler.extend(self.lifecycle())
        root = assembler.tree(7)
        assert root.name == ROOT_SPAN
        assert [c.name for c in root.children] == [
            "serve_queue", "serve_coalesce", "serve_execute"]
        execute = root.children[-1]
        assert [c.name for c in execute.children] == ["worker_evaluate"]
        assert assembler.complete(7)
        # The tree is a faithful re-arrangement: no span dropped, none added.
        assert len(list(root.walk())) == len(assembler.spans(7))

    def test_repeated_parent_disambiguated_by_time_containment(self):
        assembler = TraceAssembler()
        assembler.extend([
            span(ROOT_SPAN, 1, 0.0, 10.0, parent=""),
            span("shard_stage_in", 1, 0.0, 4.0),
            span("shard_stage_in", 1, 5.0, 4.0),     # the retry attempt
            span("worker_evaluate", 1, 6.0, 2.0, parent="shard_stage_in"),
        ])
        root = assembler.tree(1)
        attempts = [c for c in root.children if c.name == "shard_stage_in"]
        assert len(attempts) == 2                     # retries are siblings
        assert attempts[0].children == []
        assert [c.name for c in attempts[1].children] == ["worker_evaluate"]

    def test_unknown_parent_attaches_to_root_not_dropped(self):
        assembler = TraceAssembler()
        assembler.extend([
            span(ROOT_SPAN, 1, 0.0, 10.0, parent=""),
            span("gateway_write", 1, 9.0, 0.5, parent="no_such_stage"),
        ])
        root = assembler.tree(1)
        assert [c.name for c in root.children] == ["gateway_write"]

    def test_rootless_trace_synthesises_root(self):
        assembler = TraceAssembler()
        assembler.add(span("serve_queue", 9, 2.0, 3.0))
        assert not assembler.complete(9)
        root = assembler.tree(9)
        assert root.name == ROOT_SPAN
        assert root.t_start == 2.0 and root.duration_s == 3.0
        assert [c.name for c in root.children] == ["serve_queue"]

    def test_critical_path_follows_latest_ending_child(self):
        assembler = TraceAssembler()
        assembler.extend(self.lifecycle())
        path = [node.name for node in assembler.critical_path(7)]
        assert path == [ROOT_SPAN, "serve_execute", "worker_evaluate"]

    def test_stage_totals_accumulate_retry_attempts(self):
        assembler = TraceAssembler()
        assembler.add(span("shard_stage_in", 1, 0.0, 2.0))
        assembler.add(span("shard_stage_in", 1, 3.0, 1.0))
        assert assembler.stage_totals(1) == {"shard_stage_in": 3.0}

    def test_ignores_foreign_event_payloads(self):
        assembler = TraceAssembler()
        assembler.add({"event": "BatchServed", "trace_ids": (1,)})
        assembler.add(42)
        assert assembler.trace_ids() == ()

    def test_describe_trace_renders_waterfall(self):
        assembler = TraceAssembler()
        assembler.extend(self.lifecycle())
        text = describe_trace(assembler, 7)
        lines = text.splitlines()
        assert "trace 7" in lines[0] and "5 spans" in lines[0]
        assert lines[1].startswith(ROOT_SPAN)
        assert any(line.strip().startswith("worker_evaluate")
                   for line in lines)
        assert " w0" in text                          # worker attribution
        assert text.count(" *") >= 2                  # critical-path marks
        assert describe_trace(assembler, 999) == \
            "trace 999 — no spans recorded"


# ------------------------------------------------------- served-request trees
class TestServedRequestTraces:
    def serve_and_assemble(self, registry, key, policy, n_rows=8,
                           tracing=None, **server_kwargs):
        batch = request_batch(n_rows, 32)
        with ModelServer(registry, policy, tracing=tracing,
                         **server_kwargs) as server:
            with subscribe_spans(server.telemetry) as (assembler, sub):
                futures = [server.submit(key, row) for row in batch]
                for future in futures:
                    future.result(FUTURE_TIMEOUT)
                drain_spans(
                    assembler, sub,
                    lambda asm: len(asm.trace_ids()) == n_rows
                    and all(asm.complete(t) for t in asm.trace_ids()))
        return assembler

    def test_every_request_yields_complete_tiled_tree(self, registry, key):
        policy = ServePolicy(max_batch=4, max_wait=2e-3, n_workers=0)
        assembler = self.serve_and_assemble(registry, key, policy)
        for trace_id in assembler.trace_ids():
            assert assembler.complete(trace_id)
            root = assembler.tree(trace_id)
            stages = {node.name for node in root.walk()}
            assert SERVE_STAGES | {"serve_evaluate", "serve_dispatch"} \
                <= stages
            # queue → coalesce → execute tile the root span exactly: their
            # durations sum to the recorded end-to-end latency.
            tiled = sum(child.duration_s for child in root.children
                        if child.name in SERVE_STAGES)
            assert tiled == pytest.approx(root.duration_s, rel=1e-6,
                                          abs=1e-9)
            # Every span is keyed to this trace and non-negative.
            for node in root.walk():
                assert node.trace_id == trace_id
                assert node.duration_s >= 0.0

    def test_sharded_trees_carry_worker_attribution(self, registry, key):
        policy = ServePolicy(max_batch=8, max_wait=2e-3, n_workers=2)
        assembler = self.serve_and_assemble(registry, key, policy,
                                            n_rows=12)
        worker_stages = {"shard_lease", "shard_stage_in", "worker_evaluate",
                         "worker_stage_out", "serve_reassemble"}
        for trace_id in assembler.trace_ids():
            names = {node.name for node in assembler.spans(trace_id)}
            assert SERVE_STAGES | worker_stages <= names
            evaluates = [node for node in assembler.spans(trace_id)
                         if node.name == "worker_evaluate"]
            assert evaluates and all(n.worker_index >= 0 for n in evaluates)
            # Worker spans nest under the execute stage in the tree.
            root = assembler.tree(trace_id)
            execute = next(node for node in root.walk()
                           if node.name == "serve_execute")
            nested = {child.name for child in execute.children}
            assert "worker_evaluate" in nested

    def test_crashed_then_retried_job_yields_well_formed_tree(
            self, registry, key):
        """A crash-retried batch repeats dispatch stages as siblings; the
        tree stays complete with every span attached (no orphans)."""
        policy = ServePolicy(max_batch=8, max_wait=60.0, n_workers=2)
        batch = request_batch(8, 32)
        with ModelServer(registry, policy,
                         fault_injection={key}) as server:
            with subscribe_spans(server.telemetry) as (assembler, sub):
                futures = [server.submit(key, row) for row in batch]
                for future in futures:
                    future.result(FUTURE_TIMEOUT)
                drain_spans(
                    assembler, sub,
                    lambda asm: len(asm.trace_ids()) == len(batch)
                    and all(asm.complete(t) for t in asm.trace_ids()))
            assert server.stats().pool["respawns"] >= 1
        retried = 0
        for trace_id in assembler.trace_ids():
            recorded = assembler.spans(trace_id)
            root = assembler.tree(trace_id)
            # Well-formed: every recorded span appears in the tree exactly
            # once — retry attempts included, nothing orphaned or dropped.
            assert len(list(root.walk())) == len(recorded)
            attempts = [node for node in recorded
                        if node.name == "shard_stage_in"]
            if len(attempts) > 1:
                retried += 1
                parents = [node for node in root.walk()
                           if any(c.name == "shard_stage_in"
                                  for c in node.children)]
                # Retry attempts are siblings under the same parent stage.
                assert len(parents) == 1
        assert retried >= 1

    def test_other_topic_subscriber_builds_no_spans(self, registry, key,
                                                    monkeypatch):
        built = []
        real = spans_module.SpanClosed
        monkeypatch.setattr(spans_module, "SpanClosed",
                            lambda **fields: built.append(fields)
                            or real(**fields))
        policy = ServePolicy(max_batch=4, max_wait=2e-3, n_workers=2)
        with ModelServer(registry, policy) as server:
            with server.telemetry.subscribe(topics=("BatchServed",)) as sub:
                assert server.telemetry and not server.tracer
                server.serve(key, request_batch(8, 32))
                assert sub.drain()
        assert built == []

    def test_sampled_out_traces_produce_zero_spans_end_to_end(
            self, registry, key):
        config = TracerConfig(sample_rate=0.5, seed=11)
        decision = Tracer(TopicBroker(), config).sampled
        # Trace ids are handed out sequentially from 1; with this seed both
        # populations are non-empty within the first eight requests.
        expected_kept = {i for i in range(1, 9) if decision(i)}
        assert expected_kept and expected_kept != set(range(1, 9))
        batch = request_batch(8, 32)
        # In-process and sharded: a kept trace keeps every stage, the ones
        # its batch and shard job share with other members too.
        for n_workers, n_stages in ((0, 6), (2, 10)):
            policy = ServePolicy(max_batch=4, max_wait=2e-3,
                                 n_workers=n_workers)
            with ModelServer(registry, policy, tracing=config) as server:
                with subscribe_spans(server.telemetry) as (assembler, sub):
                    futures = [server.submit(key, row) for row in batch]
                    for future in futures:
                        future.result(FUTURE_TIMEOUT)
                    drain_spans(
                        assembler, sub,
                        lambda asm: set(asm.trace_ids()) == expected_kept
                        and all(asm.complete(t) for t in asm.trace_ids()))
                    # Settle: nothing trickles in for the dropped ids.
                    assert sub.get(timeout=0.2) is None
            assert set(assembler.trace_ids()) == expected_kept
            for trace_id in expected_kept:
                assert len(assembler.spans(trace_id)) == n_stages


# ------------------------------------------------------------------ gateway
class TestGatewaySpans:
    def test_gateway_contributes_decode_encode_write_spans(self, registry,
                                                           key):
        policy = ServePolicy(max_batch=8, max_wait=2e-3, n_workers=0)
        batch = request_batch(6, 32)
        with ModelServer(registry, policy) as server:
            with subscribe_spans(server.telemetry) as (assembler, sub):
                with Gateway(server).start() as gateway:
                    with GatewayClient(*gateway.address) as client:
                        for row in batch:
                            client.submit(key, row)
                    gateway_stages = {"gateway_decode", "gateway_encode",
                                      "gateway_write"}
                    drain_spans(
                        assembler, sub,
                        lambda asm: len(asm.trace_ids()) == len(batch)
                        and all(gateway_stages <= {
                            s.name for s in asm.spans(t)}
                            for t in asm.trace_ids()))
        for trace_id in assembler.trace_ids():
            root = assembler.tree(trace_id)
            names = {node.name for node in root.walk()}
            assert {"gateway_decode", "gateway_encode", "gateway_write"} \
                <= names
            assert SERVE_STAGES <= names
            # Gateway stages hang off the root request span.
            assert {c.name for c in root.children} >= {"gateway_decode",
                                                       "gateway_write"}

    def test_sampled_gateway_traces_are_all_or_nothing(self, registry, key):
        """Sampling is decided once per trace (by the span batches): a
        dropped trace gets no span from any layer, a kept one every span
        of the serve path and its three gateway stages under its root."""
        config = TracerConfig(sample_rate=0.5, seed=11)
        decision = Tracer(TopicBroker(), config).sampled
        # The client submits one request at a time, so trace ids run 1..8.
        expected_kept = {i for i in range(1, 9) if decision(i)}
        assert expected_kept and expected_kept != set(range(1, 9))
        gateway_stages = {"gateway_decode", "gateway_encode",
                          "gateway_write"}
        policy = ServePolicy(max_batch=8, max_wait=2e-3, n_workers=0)
        with ModelServer(registry, policy, tracing=config) as server:
            with subscribe_spans(server.telemetry) as (assembler, sub):
                with Gateway(server).start() as gateway:
                    with GatewayClient(*gateway.address) as client:
                        for row in request_batch(8, 32):
                            client.submit(key, row)
                    drain_spans(
                        assembler, sub,
                        lambda asm: set(asm.trace_ids()) == expected_kept
                        and all(gateway_stages
                                <= {s.name for s in asm.spans(t)}
                                for t in asm.trace_ids()))
                    # Settle: nothing trickles in for the dropped ids.
                    assert sub.get(timeout=0.2) is None
        assert set(assembler.trace_ids()) == expected_kept
        for trace_id in expected_kept:
            # In-process serve stages (6) plus the three gateway stages.
            assert len(assembler.spans(trace_id)) == 9
            root = assembler.tree(trace_id)
            assert {c.name for c in root.children} >= gateway_stages


# ----------------------------------------------------------------- runstore
class TestBatchScopedSpans:
    """One span shared by a batch's members is consumed exactly like one
    single-member span per member (and like schema-1 payloads, which name
    one ``trace_id`` each)."""

    MEMBERS = (11, 12, 13)

    def batch_spans(self, shared):
        """A hand-built two-job batch; batch and job stages are one span
        for all their members when ``shared``, one per member otherwise."""
        spans = []

        def add(name, trace_ids, t_start, duration_s, parent=ROOT_SPAN,
                worker_index=-1):
            groups = [trace_ids] if shared else [(t,) for t in trace_ids]
            spans.extend(SpanClosed(
                name=name, trace_ids=group, t_start=t_start,
                duration_s=duration_s, parent=parent,
                worker_index=worker_index, t=9.0) for group in groups)

        for index, trace_id in enumerate(self.MEMBERS):
            t_submit = 0.1 * index
            add(ROOT_SPAN, (trace_id,), t_submit, 2.0 - t_submit, parent="")
            add("serve_queue", (trace_id,), t_submit, 0.05)
            add("serve_coalesce", (trace_id,), t_submit + 0.05,
                0.45 - t_submit)
        add("serve_execute", self.MEMBERS, 0.5, 1.5)
        add("serve_dispatch", self.MEMBERS, 0.5, 0.1, parent="serve_execute")
        add("shard_lease", self.MEMBERS, 0.6, 0.1, parent="serve_execute")
        for job, worker, t_stage in (((11, 12), 0, 0.7), ((13,), 1, 0.75)):
            for name, offset, duration in (
                    ("shard_stage_in", 0.0, 0.05),
                    ("worker_evaluate", 0.05, 0.8),
                    ("worker_stage_out", 0.85, 0.05),
                    ("serve_reassemble", 0.9, 0.1)):
                add(name, job, t_stage + offset, duration,
                    parent="serve_execute", worker_index=worker)
        return spans

    def consume(self, events, path):
        def shape(node):
            return (node.name, node.t_start, node.duration_s,
                    node.worker_index, tuple(map(shape, node.children)))

        assembler = TraceAssembler()
        assembler.extend(events)
        with RunStore(path) as store:
            run_id = store.open_run("batch")
            store.record_events(run_id, events)
            rows = {t: store.spans(run_id, trace_id=t) for t in self.MEMBERS}
        agg = MetricsAggregator(window_s=10.0, t0=0.0)
        for event in events:
            agg.ingest(event if isinstance(event, SpanClosed)
                       else event_from_dict(event))
        (window,) = agg.close_window()
        return ({t: shape(assembler.tree(t)) for t in self.MEMBERS},
                {t: [n.name for n in assembler.critical_path(t)]
                 for t in self.MEMBERS},
                {t: describe_trace(assembler, t) for t in self.MEMBERS},
                rows, window.stages)

    @pytest.mark.parametrize("form", ["shared", "schema1"])
    def test_fans_out_to_the_same_trees_rows_and_stages(self, form,
                                                        tmp_path):
        single = self.batch_spans(shared=False)
        if form == "shared":
            events = self.batch_spans(shared=True)
            assert len(events) == 3 * 3 + 3 + 4 * 2 < len(single)
        else:
            events = []
            for span_event in single:
                payload = span_event.as_dict()
                (payload["trace_id"],) = payload.pop("trace_ids")
                events.append(dict(payload, schema=1))
        reference = self.consume(single, tmp_path / "single.sqlite")
        assert self.consume(events, tmp_path / f"{form}.sqlite") == reference
        _, _, _, rows, stages = reference
        assert all(len(rows[t]) == 10 for t in self.MEMBERS)
        assert stages["worker_evaluate"]["count"] == 3


class TestRunStoreSpans:
    def test_span_events_route_to_spans_table(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            run_id = store.open_run("spans")
            n = store.record_events(run_id, [
                span("serve_queue", trace_id=4, t_start=1.0, duration_s=0.5),
                span("serve_execute", trace_id=4, t_start=1.5,
                     duration_s=2.0),
                span("serve_queue", trace_id=5, t_start=9.0, duration_s=0.1),
            ])
            assert n == 3
            rows = store.spans(run_id)
            assert [r["name"] for r in rows] == ["serve_queue",
                                                 "serve_execute",
                                                 "serve_queue"]
            assert store.spans(run_id, trace_id=5)[0]["t_start"] == 9.0
            # Spans live in their own table, not the event journal…
            assert list(store.iter_events(run_id)) == []
            # …and rebuild into a tree straight from the reader's payloads.
            assembler = TraceAssembler()
            assembler.extend(store.spans(run_id, trace_id=4))
            assert [n_.name for n_ in assembler.spans(4)] == [
                "serve_queue", "serve_execute"]

    def test_pre_spans_store_migrates_transparently(self, tmp_path):
        path = tmp_path / "old.sqlite"
        db = sqlite3.connect(path)
        # A PR-7-era file: runs/events/snapshots only, user_version never
        # set (0), with one recorded run that must survive the migration.
        db.executescript("""
            CREATE TABLE runs (
                run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
                name        TEXT NOT NULL,
                t_opened    REAL NOT NULL,
                wall_opened REAL NOT NULL,
                t_closed    REAL,
                meta        TEXT NOT NULL DEFAULT '{}'
            );
            CREATE TABLE events (
                event_id    INTEGER PRIMARY KEY AUTOINCREMENT,
                run_id      INTEGER NOT NULL REFERENCES runs(run_id),
                t           REAL NOT NULL,
                kind        TEXT NOT NULL,
                trace_id    INTEGER NOT NULL DEFAULT 0,
                payload     TEXT NOT NULL
            );
            CREATE TABLE snapshots (
                snapshot_id INTEGER PRIMARY KEY AUTOINCREMENT,
                run_id      INTEGER NOT NULL REFERENCES runs(run_id),
                t           REAL NOT NULL,
                stats       TEXT NOT NULL
            );
            INSERT INTO runs (name, t_opened, wall_opened)
                VALUES ('legacy', 1.0, 2.0);
        """)
        db.commit()
        db.close()
        with RunStore(path) as store:
            assert store.schema_version == STORE_VERSION
            (run,) = store.runs()
            assert run.name == "legacy"               # old data intact
            run_id = store.open_run("new")            # …and still writable
            store.record_events(run_id, [span("serve_queue", trace_id=1)])
            assert len(store.spans(run_id)) == 1
        db = sqlite3.connect(path)
        assert db.execute("PRAGMA user_version").fetchone()[0] \
            == STORE_VERSION
        db.close()

    def test_newer_store_version_refuses_naming_both_versions(self, tmp_path):
        path = tmp_path / "future.sqlite"
        db = sqlite3.connect(path)
        db.execute("PRAGMA user_version = 99")
        db.commit()
        db.close()
        with pytest.raises(RunStoreError) as err:
            RunStore(path)
        assert "99" in str(err.value)
        assert str(STORE_VERSION) in str(err.value)
        assert "refusing to open" in str(err.value)


# ----------------------------------------------------------- metrics wiring
class TestStageMetrics:
    def test_span_events_feed_stage_window_sections(self):
        agg = MetricsAggregator(window_s=1.0, max_batch=4, t0=0.0)
        agg.ingest(span("worker_evaluate", trace_id=1, t_start=0.1,
                        duration_s=0.20))
        agg.ingest(span("worker_evaluate", trace_id=2, t_start=0.2,
                        duration_s=0.40))
        agg.ingest(span("serve_queue", trace_id=1, t_start=0.1,
                        duration_s=0.01))
        (event,) = agg.close_window()
        assert set(event.stages) == {"worker_evaluate", "serve_queue"}
        evaluate = event.stages["worker_evaluate"]
        assert evaluate["count"] == 2
        assert evaluate["max_s"] == pytest.approx(0.40)
        assert evaluate["p95_s"] > evaluate["p50_s"] > 0.0

    def test_alert_rules_address_stage_latency_paths(self):
        agg = MetricsAggregator(window_s=1.0, max_batch=4, t0=0.0)
        agg.ingest(span("worker_evaluate", trace_id=1, t_start=0.1,
                        duration_s=0.30))
        (event,) = agg.close_window()
        rule = AlertRule(name="slow-evaluate",
                         metric="stages.worker_evaluate.p95_s",
                         threshold=0.1)
        value = rule.value_of(event)
        assert value == pytest.approx(0.30, rel=0.01)
        assert rule.breached(value)
        # The dotted path also resolves on the wire-shaped dict payload.
        assert rule.value_of(event.as_dict()) == pytest.approx(value)
        # A stage the window never saw answers 0.0, not a crash.
        absent = AlertRule(name="x", metric="stages.gateway_write.p95_s",
                           threshold=0.1)
        assert absent.value_of(event) == 0.0

    def test_report_merges_stages_across_windows(self):
        agg = MetricsAggregator(window_s=1.0, max_batch=4, t0=0.0)
        agg.ingest(span("serve_queue", trace_id=1, t_start=0.5,
                        duration_s=0.1))
        agg.close_window()
        agg.ingest(span("serve_queue", trace_id=2, t_start=1.5,
                        duration_s=0.3))
        agg.close_window()
        report = agg.report()
        assert report.stages["serve_queue"].count == 2
        assert report.stages["serve_queue"].max == pytest.approx(0.3)
        assert "serve_queue" in report.describe()
        assert report.as_dict()["stages"]["serve_queue"]["count"] == 2

    def test_live_server_spans_reach_stage_windows(self, registry, key):
        policy = ServePolicy(max_batch=4, max_wait=2e-3, n_workers=0)
        with ModelServer(registry, policy) as server:
            with MetricsAggregator(server.telemetry, window_s=0.1,
                                   max_batch=policy.max_batch) as agg:
                server.serve(key, request_batch(8, 32))
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    report = agg.report()
                    if SERVE_STAGES <= set(report.stages):
                        break
                    time.sleep(0.05)
        assert SERVE_STAGES <= set(report.stages)
        assert report.stages["serve_execute"].count >= 1


# ------------------------------------------------------------ engine profile
class TestEngineProfile:
    def test_run_sweep_publishes_engine_profile_counters(self):
        from repro.circuit import Sine, TransientOptions
        from repro.circuits import build_rc_ladder
        from repro.sweep import Scenario, SweepOptions, run_sweep

        scenarios = [
            Scenario(name=f"s{i}", builder=build_rc_ladder,
                     builder_kwargs={"n_sections": 1},
                     waveform=Sine(0.5, 0.1, 2e5),
                     transient=TransientOptions(t_stop=2e-7, dt=1e-8))
            for i in range(2)
        ]
        broker = TopicBroker()
        with broker.subscribe(topics=("EngineProfile",)) as sub:
            run_sweep(scenarios, SweepOptions(capture_snapshots=False,
                                              broker=broker))
            profiles = sub.drain()
        assert [p.name for p in profiles] == ["s0", "s1"]
        for profile in profiles:
            assert isinstance(profile, EngineProfile)
            assert profile.accepted_steps > 0
            assert profile.newton_iterations > 0
            assert profile.cache_factorizations >= 1
            # An RC ladder is linear: after the first factorisation every
            # solve reuses the cached LU factors.
            assert profile.cache_reuses > 0
            assert 0.0 < profile.cache_hit_rate <= 1.0
            assert profile.wall_time_s > 0.0
            assert profile.rejected_steps >= profile.lte_rejections >= 0

    def test_transient_result_carries_cache_counters(self):
        from repro.circuit import Sine, TransientOptions, transient_analysis
        from repro.circuits import build_rc_ladder

        system = build_rc_ladder(n_sections=1,
                                 input_waveform=Sine(0.5, 0.1, 2e5)).build()
        result = transient_analysis(
            system, TransientOptions(t_stop=2e-7, dt=1e-8))
        assert result.cache_solves >= result.cache_reuses > 0
        assert result.cache_factorizations >= 1
        assert result.cache_hit_rate == pytest.approx(
            result.cache_reuses / result.cache_solves)

    def test_journal_payload_with_a_dropped_field_still_decodes(self):
        """Journals written while EngineProfile carried cache_invalidations
        keep decoding: unknown fields are ignored."""
        profile = EngineProfile(name="s0", cache_factorizations=2, cache_reuses=98)
        payload = {**profile.as_dict(), "cache_invalidations": 3}
        assert event_from_dict(payload) == profile
