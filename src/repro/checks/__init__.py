"""Machine-checked concurrency invariants for the serving stack.

Two halves, one contract:

* the **static rule engine** (:mod:`repro.checks.engine`,
  :mod:`repro.checks.rules`, :mod:`repro.checks.registry_rules`) walks the
  source tree with :mod:`ast` and enforces the hard-won REP1xx invariants —
  run it with ``python -m repro.checks [paths]``;
* the **dynamic lock sanitizer** (:mod:`repro.checks.lockwatch`) wraps the
  serve/telemetry locks when ``REPRO_LOCKWATCH=1`` and fails tests on
  lock-order inversions or ``publish``-under-lock observed on real traffic.

Rules (suppress a deliberate site with ``# repro: allow[REP10x] <reason>``):

========  =============================================================
REP101    no blocking calls inside ``async def`` bodies
REP102    no publish / future resolution / user callback under a lock
REP103    deadlines and latency windows use ``time.monotonic()``
REP104    raises use the ``repro.exceptions`` hierarchy; no silent
          ``except Exception`` swallows
REP105    telemetry events and gateway frame codes registered once,
          schema-versioned, encoder/decoder symmetric
REP106    shard-worker payloads must not capture locks / brokers /
          sqlite handles
REP107    no ``spans.flush()`` (a span batch's publish) lexically under
          a ``with <lock>:`` block
========  =============================================================

This ``__init__`` stays import-light on purpose: the telemetry broker
imports :mod:`~repro.checks.lockwatch` on its hot path, and must not drag
the AST engine in with it.
"""

from __future__ import annotations

__all__ = ["Finding", "run_paths", "check_source", "main"]


def __getattr__(name):  # lazy re-exports; keeps `import repro.checks` light
    if name in ("Finding", "run_paths", "check_source"):
        from . import engine

        return getattr(engine, name)
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
