"""Durable run/snapshot/event store on stdlib ``sqlite3``.

A **run** is one recorded serving (or sweep) session.  While it is open,
periodic :class:`~repro.serve.stats.ServeStats` snapshots and every broker
event are journaled; afterwards the run can be inspected — or **replayed**:
:meth:`RunStore.replay` turns the journaled ``RequestSubmitted`` events back
into the request schedule (model key, step count, relative submit time) so a
recorded load test can be re-driven against a live server as regression
traffic.

Design points:

* one SQLite file, WAL off, ``check_same_thread=False`` plus a process-side
  lock — writers are the recorder thread and (rarely) the caller, and the
  store's job is durability, not concurrency;
* events/snapshots store their payload as canonical JSON (sorted keys) so a
  run round-trips **bitwise** through a fresh process;
* timestamps are the publisher's ``time.monotonic()`` — meaningless across
  processes on their own, so each run also records ``t_opened`` (same clock)
  to difference against and ``wall_opened`` (``time.time()``) for humans;
* a corrupted or non-database file fails at :class:`RunStore` construction
  with the named :class:`~repro.exceptions.RunStoreError`, not at first use.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass

from ..checks import lockwatch
from ..exceptions import RunStoreError
from .events import SpanClosed, TelemetryEvent, event_from_dict

__all__ = ["ReplayRequest", "RunRecord", "RunStore", "STORE_VERSION"]

#: On-disk schema version, tracked in sqlite's ``user_version`` pragma.
#: 0/1 are the pre-spans layouts (PR 7/9 — ``user_version`` was never set);
#: 2 added the ``spans`` table.  Older files migrate transparently (every
#: change so far is additive); files stamped **newer** than this build
#: refuse to open with a :class:`~repro.exceptions.RunStoreError` naming
#: both versions.
STORE_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    name        TEXT NOT NULL,
    t_opened    REAL NOT NULL,
    wall_opened REAL NOT NULL,
    t_closed    REAL,
    meta        TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS events (
    event_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id      INTEGER NOT NULL REFERENCES runs(run_id),
    t           REAL NOT NULL,
    kind        TEXT NOT NULL,
    trace_id    INTEGER NOT NULL DEFAULT 0,
    payload     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshots (
    snapshot_id INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id      INTEGER NOT NULL REFERENCES runs(run_id),
    t           REAL NOT NULL,
    stats       TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS spans (
    span_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id       INTEGER NOT NULL REFERENCES runs(run_id),
    trace_id     INTEGER NOT NULL DEFAULT 0,
    name         TEXT NOT NULL,
    parent       TEXT NOT NULL DEFAULT '',
    t_start      REAL NOT NULL,
    duration_s   REAL NOT NULL,
    worker_index INTEGER NOT NULL DEFAULT -1,
    payload      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_events_run ON events(run_id, event_id);
CREATE INDEX IF NOT EXISTS idx_snapshots_run ON snapshots(run_id, snapshot_id);
CREATE INDEX IF NOT EXISTS idx_spans_run ON spans(run_id, trace_id, span_id);
"""


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunRecord:
    """One recorded run (header row; events/snapshots are queried separately)."""

    run_id: int
    name: str
    t_opened: float
    wall_opened: float
    t_closed: float | None
    meta: dict

    @property
    def closed(self) -> bool:
        return self.t_closed is not None

    @property
    def duration_s(self) -> float | None:
        if self.t_closed is None:
            return None
        return self.t_closed - self.t_opened


@dataclass(frozen=True)
class ReplayRequest:
    """One entry of a recorded request schedule, ready to re-drive.

    ``t_rel`` is seconds since the run opened (same monotonic clock as the
    original submit), so a replayer sleeps ``t_rel - elapsed`` between
    submissions to reproduce the recorded arrival pattern.
    """

    t_rel: float
    key: str
    n_steps: int
    trace_id: int


class RunStore:
    """SQLite-backed journal of runs, their stats snapshots and events."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._lock = lockwatch.monitored_lock("telemetry.runstore")
        try:
            self._db = sqlite3.connect(self.path, check_same_thread=False)
            # Exercise the file now: sqlite3.connect is lazy, so a garbage
            # file would otherwise only fail on first query deep in a caller.
            found = int(self._db.execute(
                "PRAGMA user_version").fetchone()[0])
            if found > STORE_VERSION:
                self._db.close()
                raise RunStoreError(
                    f"run store at {self.path!r} has schema version {found}, "
                    f"newer than this build's version {STORE_VERSION} — "
                    "refusing to open (open it with the build that wrote it)")
            # Older layouts (pre-spans: user_version 0/1) migrate
            # transparently: every schema change so far is additive, so
            # running the idempotent CREATE IF NOT EXISTS script *is* the
            # migration; the version stamp records that it happened.
            self._db.executescript(_SCHEMA)
            self._db.execute(f"PRAGMA user_version = {STORE_VERSION}")
            self._db.commit()
        except sqlite3.DatabaseError as exc:
            raise RunStoreError(
                f"cannot open run store at {self.path!r}: {exc}") from exc
        self._closed = False

    @property
    def schema_version(self) -> int:
        """The store's on-disk schema version (always current once open)."""
        return STORE_VERSION

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._db.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _execute(self, sql: str, params: tuple = ()):
        if self._closed:
            raise RunStoreError(f"run store at {self.path!r} is closed")
        try:
            return self._db.execute(sql, params)
        except sqlite3.DatabaseError as exc:
            raise RunStoreError(
                f"run store at {self.path!r} failed: {exc}") from exc

    # ------------------------------------------------------------------ runs
    def open_run(self, name: str, meta: dict | None = None) -> int:
        """Start a run; returns its id (the handle every journal call takes)."""
        with self._lock:
            cursor = self._execute(
                "INSERT INTO runs (name, t_opened, wall_opened, meta) "
                "VALUES (?, ?, ?, ?)",
                (name, time.monotonic(),
                 time.time(),  # repro: allow[REP103] wall_opened is human-facing provenance, not a deadline
                 _canonical(meta or {})))
            self._db.commit()
            return int(cursor.lastrowid)

    def close_run(self, run_id: int, meta: dict | None = None) -> None:
        """Mark a run finished; ``meta`` (if given) is merged into its meta."""
        with self._lock:
            run = self._get_run_locked(run_id)
            merged = dict(run.meta)
            if meta:
                merged.update(meta)
            self._execute(
                "UPDATE runs SET t_closed = ?, meta = ? WHERE run_id = ?",
                (time.monotonic(), _canonical(merged), run_id))
            self._db.commit()

    def _get_run_locked(self, run_id: int) -> RunRecord:
        row = self._execute(
            "SELECT run_id, name, t_opened, wall_opened, t_closed, meta "
            "FROM runs WHERE run_id = ?", (run_id,)).fetchone()
        if row is None:
            raise RunStoreError(f"unknown run id {run_id}")
        return RunRecord(run_id=int(row[0]), name=row[1],
                         t_opened=float(row[2]), wall_opened=float(row[3]),
                         t_closed=None if row[4] is None else float(row[4]),
                         meta=json.loads(row[5]))

    def get_run(self, run_id: int) -> RunRecord:
        with self._lock:
            return self._get_run_locked(run_id)

    def runs(self) -> list[RunRecord]:
        """Every recorded run, oldest first."""
        with self._lock:
            rows = self._execute(
                "SELECT run_id FROM runs ORDER BY run_id").fetchall()
            return [self._get_run_locked(int(r[0])) for r in rows]

    # --------------------------------------------------------------- journal
    @staticmethod
    def _span_rows(run_id: int, span: SpanClosed) -> list:
        """One single-member row per member trace of ``span``."""
        payload = span.as_dict()
        return [(run_id, trace_id, span.name, span.parent, span.t_start,
                 span.duration_s, span.worker_index,
                 _canonical(dict(payload, trace_ids=[trace_id])))
                for trace_id in span.trace_ids]

    def record_events(self, run_id: int, events) -> int:
        """Journal a batch of broker events (typed events or ``as_dict``
        payloads) in one transaction; returns the count of rows written.

        ``SpanClosed`` events split off into the ``spans`` table (same
        transaction), one row per member trace, so a recorded run keeps its
        trace spans queryable by ``(run_id, trace_id)`` instead of buried
        in the event journal.
        """
        rows, span_rows = [], []
        for event in events:
            if isinstance(event, dict) and event.get("event") == "SpanClosed":
                event = event_from_dict(event)
            if isinstance(event, SpanClosed):
                span_rows.extend(self._span_rows(run_id, event))
                continue
            payload = event.as_dict() if isinstance(event, TelemetryEvent) \
                else dict(event)
            rows.append((run_id, float(payload.get("t", 0.0)),
                         str(payload.get("event", "")),
                         int(payload.get("trace_id", 0)),
                         _canonical(payload)))
        if not rows and not span_rows:
            return 0
        with self._lock:
            if self._closed:
                raise RunStoreError(f"run store at {self.path!r} is closed")
            try:
                if rows:
                    self._db.executemany(
                        "INSERT INTO events "
                        "(run_id, t, kind, trace_id, payload) "
                        "VALUES (?, ?, ?, ?, ?)", rows)
                if span_rows:
                    self._db.executemany(
                        "INSERT INTO spans (run_id, trace_id, name, parent, "
                        "t_start, duration_s, worker_index, payload) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?)", span_rows)
                self._db.commit()
            except sqlite3.DatabaseError as exc:
                raise RunStoreError(
                    f"run store at {self.path!r} failed: {exc}") from exc
        return len(rows) + len(span_rows)

    def record_snapshot(self, run_id: int, stats: dict,
                        t: float | None = None) -> None:
        """Journal one ``ServeStats.as_dict()``-shaped stats snapshot."""
        with self._lock:
            self._execute(
                "INSERT INTO snapshots (run_id, t, stats) VALUES (?, ?, ?)",
                (run_id, time.monotonic() if t is None else float(t),
                 _canonical(stats)))
            self._db.commit()

    # ----------------------------------------------------------------- reads
    def iter_events(self, run_id: int, kind: str | None = None,
                    chunk: int = 1024):
        """Journaled event payloads of a run in record order, **streamed**.

        Rows are paged out of sqlite ``chunk`` at a time by keyset
        pagination on ``event_id`` (the store's lock is held only while a
        page is fetched, never across a ``yield``), so iterating a
        multi-million-event run costs one page of memory, and a recorder
        appending concurrently never starves readers.
        """
        chunk = max(1, int(chunk))
        last_id = 0
        while True:
            sql = ("SELECT event_id, payload FROM events "
                   "WHERE run_id = ? AND event_id > ?")
            params: tuple = (run_id, last_id)
            if kind is not None:
                sql += " AND kind = ?"
                params += (kind,)
            sql += " ORDER BY event_id LIMIT ?"
            params += (chunk,)
            with self._lock:
                rows = self._execute(sql, params).fetchall()
            if not rows:
                return
            last_id = int(rows[-1][0])
            for _, payload in rows:
                yield json.loads(payload)

    def events(self, run_id: int, kind: str | None = None) -> list[dict]:
        """Journaled event payloads of a run in record order (materialised
        convenience over :meth:`iter_events`)."""
        return list(self.iter_events(run_id, kind=kind))

    def spans(self, run_id: int, trace_id: int | None = None) -> list[dict]:
        """Journaled ``SpanClosed`` payloads of a run, in record order.

        Each row names one trace (a span shared by a batch was written once
        per member).  Optionally narrowed to one trace — the shape
        :class:`~repro.telemetry.spans.TraceAssembler` rebuilds trees from,
        schema-1 rows (one ``trace_id``) included.
        """
        sql = "SELECT payload FROM spans WHERE run_id = ?"
        params: tuple = (run_id,)
        if trace_id is not None:
            sql += " AND trace_id = ?"
            params += (trace_id,)
        sql += " ORDER BY span_id"
        with self._lock:
            rows = self._execute(sql, params).fetchall()
        return [json.loads(r[0]) for r in rows]

    def snapshots(self, run_id: int) -> list[dict]:
        """Journaled stats snapshots of a run in record order."""
        with self._lock:
            rows = self._execute(
                "SELECT stats FROM snapshots WHERE run_id = ? "
                "ORDER BY snapshot_id", (run_id,)).fetchall()
        return [json.loads(r[0]) for r in rows]

    def replay(self, run_id: int, chunk: int = 1024):
        """The run's recorded request schedule, in submission order.

        Derived from the journaled ``RequestSubmitted`` events: each entry
        carries the model key, the request's step count and its submit time
        relative to the run opening — everything a driver needs to re-serve
        the same traffic against a live server.

        Returns a **lazy iterator** backed by :meth:`iter_events` keyset
        pagination — a journaled session streams out of sqlite one page at
        a time instead of materialising every row before the first entry is
        yielded.  The run id is validated eagerly (unknown ids raise
        :class:`~repro.exceptions.RunStoreError` here, not at first
        ``next``); callers that need the whole schedule at once wrap it in
        ``list``.
        """
        run = self.get_run(run_id)

        def _schedule():
            for payload in self.iter_events(run_id, kind="RequestSubmitted",
                                            chunk=chunk):
                yield ReplayRequest(
                    t_rel=max(0.0, float(payload["t"]) - run.t_opened),
                    key=str(payload["key"]),
                    n_steps=int(payload["n_steps"]),
                    trace_id=int(payload.get("trace_id", 0)))

        return _schedule()
