"""The checker checking itself: REP1xx rule fixtures, pragmas, lockwatch.

Every rule gets a known-bad fixture that must be flagged *exactly once*
with the right rule id, and a known-good fixture that must stay clean —
the checker's false-positive rate is as much a contract as its recall.
"""

import json
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.checks import lockwatch
from repro.checks.cli import main as checks_main
from repro.checks.engine import check_source, run_paths

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def findings(source, only=None):
    return check_source("fixture.py", textwrap.dedent(source), only=only)


def rule_hits(rule, source):
    return [f for f in findings(source, only=[rule]) if f.rule == rule]


# ----------------------------------------------------------------- REP101


def test_rep101_flags_blocking_call_in_async_def():
    hits = rule_hits("REP101", """
        import time

        async def handler():
            time.sleep(0.1)
    """)
    assert len(hits) == 1
    assert hits[0].rule == "REP101" and hits[0].line == 5


def test_rep101_good_fixture_clean():
    assert rule_hits("REP101", """
        import time

        def sync_path():
            time.sleep(0.1)      # blocking is fine off the event loop

        async def handler(event, writer):
            await event.wait()   # awaited .wait() is non-blocking
            await writer.wait_closed()
    """) == []


# ----------------------------------------------------------------- REP102


def test_rep102_flags_publish_under_lock():
    hits = rule_hits("REP102", """
        class Server:
            def submit(self):
                with self._lock:
                    self.broker.publish("event")
    """)
    assert len(hits) == 1 and hits[0].line == 5


def test_rep102_flags_publish_many_under_lock():
    hits = rule_hits("REP102", """
        class Server:
            def close_window(self, events):
                with self._lock:
                    self.broker.publish_many(events)
    """)
    assert len(hits) == 1 and hits[0].line == 5
    assert "publish_many()" in hits[0].message


def test_rep102_good_fixture_clean():
    assert rule_hits("REP102", """
        class Server:
            def submit(self):
                with self._lock:
                    batch = self._queue.pop()

                    def deferred():       # runs later, not under the lock
                        future.set_result(batch)
                self.broker.publish("event")
                deferred()
    """) == []


# ----------------------------------------------------------------- REP103


def test_rep103_flags_wall_clock_deadline():
    hits = rule_hits("REP103", """
        import time

        def deadline():
            return time.time() + 5.0
    """)
    assert len(hits) == 1 and hits[0].line == 5


def test_rep103_good_fixture_clean():
    assert rule_hits("REP103", """
        import time

        def deadline():
            return time.monotonic() + 5.0

        def elapsed(start):
            return time.perf_counter() - start
    """) == []


# ----------------------------------------------------------------- REP104


def test_rep104_flags_silent_broad_except():
    hits = rule_hits("REP104", """
        def swallow():
            try:
                risky()
            except Exception:
                pass
    """)
    assert len(hits) == 1 and hits[0].line == 5


def test_rep104_flags_raise_outside_hierarchy():
    hits = rule_hits("REP104", """
        def fail():
            raise RuntimeError("nope")
    """)
    assert len(hits) == 1 and "RuntimeError" in hits[0].message


def test_rep104_flags_bare_except():
    hits = rule_hits("REP104", """
        def swallow():
            try:
                risky()
            except:
                pass
    """)
    assert len(hits) == 1 and "bare except" in hits[0].message


def test_rep104_good_fixture_clean():
    assert rule_hits("REP104", """
        from repro.exceptions import ServeError

        def ok():
            try:
                risky()
            except Exception as exc:
                raise ServeError("risky failed") from exc
            try:
                other()
            except Exception as exc:
                log(exc)            # attributed, not swallowed
            raise ValueError("python-contract builtin is fine")
    """) == []


# ----------------------------------------------------------------- REP105


def test_rep105_flags_unregistered_event():
    hits = rule_hits("REP105", """
        from dataclasses import dataclass

        SCHEMA_VERSION = 1

        class TelemetryEvent:
            pass

        @dataclass(frozen=True)
        class BatchClosed(TelemetryEvent):
            key: str
    """)
    assert len(hits) == 1 and "register_event" in hits[0].message


def test_rep105_flags_asymmetric_frame_code():
    hits = rule_hits("REP105", """
        MAGIC = 42
        VERSION = 1
        REQUEST, RESULT = 1, 2

        def encode_request(x):
            return _PREFIX.pack(MAGIC, VERSION, REQUEST, x)

        def encode_result(x):
            return _PREFIX.pack(MAGIC, VERSION, RESULT, x)

        def decode_payload(msg_type, payload):
            if msg_type == REQUEST:
                return payload
    """)
    assert len(hits) == 1 and "RESULT" in hits[0].message
    assert "never handles" in hits[0].message


def test_rep105_flags_duplicate_wire_value():
    hits = rule_hits("REP105", """
        MAGIC = 42
        REQUEST = 1
        RESULT = 1

        def encode_request(x):
            return _PREFIX.pack(MAGIC, 0, REQUEST, x)

        def encode_result(x):
            return _PREFIX.pack(MAGIC, 0, RESULT, x)

        def decode_payload(msg_type, payload):
            if msg_type == REQUEST:
                return payload
            if msg_type == RESULT:
                return payload
    """)
    assert len(hits) == 1 and "share wire value 1" in hits[0].message


def test_rep105_good_fixtures_clean():
    assert rule_hits("REP105", """
        from dataclasses import dataclass

        SCHEMA_VERSION = 2

        class TelemetryEvent:
            pass

        @register_event
        @dataclass(frozen=True)
        class BatchClosed(TelemetryEvent):
            key: str
    """) == []
    assert rule_hits("REP105", """
        MAGIC = 42
        REQUEST, RESULT = 1, 2

        def encode_request(x):
            return _PREFIX.pack(MAGIC, 0, REQUEST, x)

        def encode_result(x):
            return _PREFIX.pack(MAGIC, 0, RESULT, x)

        def decode_payload(msg_type, payload):
            if msg_type == REQUEST:
                return payload
            if msg_type == RESULT:
                return payload
    """) == []


# ----------------------------------------------------------------- REP106


def test_rep106_flags_lock_shipped_to_worker():
    hits = rule_hits("REP106", """
        import threading
        from multiprocessing import Process

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def spawn(self):
                Process(target=work, args=(self._lock, "name")).start()
    """)
    assert len(hits) == 1 and "_lock" in hits[0].message


def test_rep106_good_fixture_clean():
    assert rule_hits("REP106", """
        import threading
        from multiprocessing import Process

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.segment_name = "shm_0"

            def spawn(self, child_conn):
                Process(target=work,
                        args=(child_conn, self.segment_name)).start()
    """) == []


# ----------------------------------------------------------------- REP107


def test_rep107_flags_span_traffic_under_lock():
    hits = rule_hits("REP107", """
        def serve(self, spans):
            with self._lock:
                spans.flush()
            with self._cond:
                self._spans.flush()
    """)
    assert [hit.line for hit in hits] == [4, 6]
    assert all("spans.flush()" in hit.message for hit in hits)


def test_rep107_good_fixture_clean():
    assert rule_hits("REP107", """
        def serve(self, spans, t_start):
            with self._lock:
                t_closed = self.now()
                spans.add("serve_queue", t_start, t_closed - t_start)
            spans.flush()

            def later():          # runs after the lock is released
                spans.flush()
            with self._lock:
                self.deferred = later
    """) == []


def test_rep107_ignores_non_tracer_receivers():
    # `flush` on something that is not a span batch (a file, a server) is
    # somebody else's API, not span traffic.
    assert rule_hits("REP107", """
        def persist(self, file):
            with self._lock:
                file.flush()
                self.server.flush()
    """) == []


def test_rep107_pragma_suppresses_with_reason():
    assert rule_hits("REP107", """
        def handler(self, spans):
            with self._lock:
                # repro: allow[REP107] the ordering contract needs the lock
                spans.flush()
    """) == []


# ----------------------------------------------------- pragmas and REP100


def test_allow_pragma_suppresses_on_same_line():
    source = """
        import time

        def provenance():
            return time.time()  # repro: allow[REP103] human-facing timestamp
    """
    assert rule_hits("REP103", source) == []


def test_allow_pragma_on_comment_line_covers_next_line():
    source = """
        import time

        def provenance():
            # repro: allow[REP103] human-facing timestamp
            return time.time()
    """
    assert rule_hits("REP103", source) == []


def test_allow_pragma_suppresses_only_named_rule():
    source = """
        import time

        def provenance():
            return time.time()  # repro: allow[REP104] wrong rule id
    """
    assert len(rule_hits("REP103", source)) == 1


def test_allow_pragma_without_reason_is_a_finding():
    source = """
        import time

        def provenance():
            return time.time()  # repro: allow[REP103]
    """
    got = findings(source)
    rules = sorted(f.rule for f in got)
    # The reason-less pragma is reported AND does not suppress the rule.
    assert rules == ["REP100", "REP103"]


def test_syntax_error_reported_as_rep100():
    got = findings("def broken(:\n")
    assert [f.rule for f in got] == ["REP100"]
    assert "does not parse" in got[0].message


# --------------------------------------------------------- whole-repo gate


def test_shipped_tree_is_clean():
    """`python -m repro.checks src/repro` must exit 0 on the repo itself."""
    assert run_paths([REPO_SRC]) == []


def test_cli_exit_codes(tmp_path, capsys):
    assert checks_main([str(REPO_SRC)]) == 0
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert checks_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:4: REP103" in out


def test_cli_list_rules(capsys):
    assert checks_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("REP101", "REP102", "REP103", "REP104", "REP105",
                    "REP106", "REP107"):
        assert rule_id in out


def test_cli_json_mode(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert checks_main(["--json", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is False
    assert report["n_findings"] == len(report["findings"]) == 1
    assert report["n_files"] == 1
    (finding,) = report["findings"]
    assert finding["path"] == str(bad)
    assert finding["line"] == 4
    assert finding["rule"] == "REP103"
    assert "time.time" in finding["message"]

    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert checks_main(["--json", str(good)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is True
    assert report["findings"] == []

    assert checks_main(["--json", "--list-rules"]) == 0
    rules = json.loads(capsys.readouterr().out)["rules"]
    assert set(rules) >= {"REP101", "REP102", "REP103", "REP104", "REP105",
                          "REP106", "REP107"}
    assert all(doc for doc in rules.values())


# --------------------------------------------------------------- lockwatch


def test_disabled_watcher_returns_plain_primitives():
    with lockwatch.isolated():
        lockwatch.disable()
        assert isinstance(lockwatch.monitored_lock("x"),
                          type(threading.Lock()))
        assert isinstance(lockwatch.monitored_condition("x"),
                          threading.Condition)


def test_consistent_lock_order_is_clean():
    with lockwatch.isolated():
        a = lockwatch.monitored_lock("order.a")
        b = lockwatch.monitored_lock("order.b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert lockwatch.violations() == []


def test_seeded_lock_order_inversion_is_detected():
    with lockwatch.isolated():
        a = lockwatch.monitored_lock("inv.a")
        b = lockwatch.monitored_lock("inv.b")
        with a:
            with b:
                pass
        with b:
            with a:     # opposite order: the seeded inversion
                pass
        got = lockwatch.violations()
        assert [v.kind for v in got] == ["lock-order"]
        assert "inv.a" in got[0].detail and "inv.b" in got[0].detail
        # ...and reported once per pair, not once per acquisition.
        with b:
            with a:
                pass
        assert len(lockwatch.violations()) == 1


def test_publish_under_lock_is_detected():
    from repro.telemetry.broker import TopicBroker

    with lockwatch.isolated():
        broker = TopicBroker()
        with broker.subscribe():
            guard = lockwatch.monitored_lock("watch.guard")
            with guard:
                broker.publish("event")
            got = lockwatch.violations()
            assert [v.kind for v in got] == ["publish-under-lock"]
            assert "watch.guard" in got[0].detail


def test_publish_under_lock_honors_allow_pragma():
    from repro.telemetry.broker import TopicBroker

    with lockwatch.isolated():
        broker = TopicBroker()
        with broker.subscribe():
            guard = lockwatch.monitored_lock("watch.pragma")
            with guard:
                # repro: allow[REP102] exercising the runtime pragma lookup
                broker.publish("event")
            assert lockwatch.violations() == []


def test_publish_many_under_lock_is_attributed_to_its_call_site():
    from repro.telemetry.broker import TopicBroker

    with lockwatch.isolated():
        broker = TopicBroker()
        with broker.subscribe() as sub:
            guard = lockwatch.monitored_lock("watch.many")
            with guard:
                line = sys._getframe().f_lineno + 1
                broker.publish_many(["a", "b"])
            got = lockwatch.violations()
            assert [v.kind for v in got] == ["publish-under-lock"]
            assert f"{__file__}:{line} " in got[0].detail
            assert sub.drain() == ["a", "b"]


def test_span_flush_under_lock_is_attributed_to_the_flush_line():
    from repro.telemetry.broker import TopicBroker
    from repro.telemetry.spans import Tracer

    with lockwatch.isolated():
        broker = TopicBroker()
        with broker.subscribe():
            spans = Tracer(broker).batch((1,))
            guard = lockwatch.monitored_lock("watch.spans")
            with guard:
                spans.add("serve_queue", 0.0, 1.0)
                line = sys._getframe().f_lineno + 1
                spans.flush()
            got = lockwatch.violations()
            assert [v.kind for v in got] == ["publish-under-lock"]
            assert f"{__file__}:{line} " in got[0].detail
            assert "allow[REP107]" in got[0].detail


def test_span_flush_under_lock_honors_rep107_pragma():
    from repro.telemetry.broker import TopicBroker
    from repro.telemetry.spans import Tracer

    with lockwatch.isolated():
        broker = TopicBroker()
        with broker.subscribe() as sub:
            spans = Tracer(broker).batch((1,))
            guard = lockwatch.monitored_lock("watch.spans_pragma")
            with guard:
                spans.add("serve_queue", 0.0, 1.0)
                # repro: allow[REP107] exercising the runtime pragma lookup
                spans.flush()
            assert lockwatch.violations() == []
            assert len(sub.drain()) == 1


def test_publish_outside_locks_is_clean():
    from repro.telemetry.broker import TopicBroker

    with lockwatch.isolated():
        broker = TopicBroker()
        with broker.subscribe() as sub:
            broker.publish("event")
            assert sub.get(timeout=1.0) == "event"
        assert lockwatch.violations() == []


def test_condition_wait_updates_held_stack():
    with lockwatch.isolated():
        cond = lockwatch.monitored_condition("wait.cond")
        seen = []

        def waiter():
            with cond:
                cond.wait(timeout=0.5)
                seen.append(lockwatch.held())

        thread = threading.Thread(target=waiter)
        thread.start()
        with cond:
            cond.notify_all()
        thread.join()
        assert seen == [("wait.cond",)]
        assert lockwatch.violations() == []
        assert lockwatch.held() == ()


def test_assert_clean_raises_with_seeded_violation():
    with lockwatch.isolated():
        a = lockwatch.monitored_lock("gate.a")
        b = lockwatch.monitored_lock("gate.b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        with pytest.raises(AssertionError, match="lock-order"):
            lockwatch.assert_clean()
