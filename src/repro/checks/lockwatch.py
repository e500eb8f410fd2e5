"""Dynamic lock sanitizer: order inversions and publish-under-lock at runtime.

The static REP102 rule only sees *lexical* nesting; the dangerous cases are
dynamic — a callback invoked under lock A that takes lock B, while another
thread takes B then A.  ``lockwatch`` catches those on real traffic:

* **opt-in** — ``REPRO_LOCKWATCH=1`` in the environment (or
  :func:`enable` programmatically).  When inactive,
  :func:`monitored_lock` / :func:`monitored_condition` return plain
  :mod:`threading` primitives and :func:`note_publish` returns
  immediately, so production pays one module-level bool check;
* **per-thread acquisition stacks** — every instrumented acquire records
  the edge *(each already-held lock → newly acquired lock)* into a global
  graph keyed by lock *name* (all instances of ``telemetry.subscription``
  are one node: the order contract is between roles, not objects);
* **inversion detection** — acquiring B while holding A when the graph
  already contains (B, A) reports a ``lock-order`` violation with both
  stacks, once per unordered pair;
* **publish-under-lock** — :meth:`TopicBroker.publish_many
  <repro.telemetry.broker.TopicBroker.publish_many>`, the broker's one
  publish path, calls :func:`note_publish`; publishing while any
  instrumented lock is held is reported against the line that called
  ``publish``, ``publish_many`` or ``spans.flush()``, unless that line
  carries a ``# repro: allow[REP102] <reason>`` pragma (``allow[REP107]``
  for a span batch's flush) within two lines — the same pragma syntax the
  static checker honors, looked up via :mod:`linecache` so the
  justification lives at the site.

Tests make violations fatal: the session-scoped gate in ``tests/conftest``
calls :func:`assert_clean` at teardown whenever the watcher is active.
"""

from __future__ import annotations

import linecache
import os
import sys
import threading
import traceback
from dataclasses import dataclass

__all__ = [
    "Violation", "is_enabled", "enable", "disable", "reset", "isolated",
    "monitored_lock", "monitored_condition", "held", "note_publish",
    "violations", "assert_clean",
]


@dataclass(frozen=True)
class Violation:
    """One runtime invariant breach (kind: 'lock-order' | 'publish-under-lock')."""

    kind: str
    detail: str
    stack: str

    def render(self) -> str:
        return f"[{self.kind}] {self.detail}\n{self.stack}"


# Global state. Guarded by a *plain* lock that is itself never monitored.
_state_lock = threading.Lock()
_held_local = threading.local()
_edges: dict[tuple[str, str], str] = {}      # (first, second) -> sample stack
_reported_pairs: set[frozenset] = set()
_reported_sites: set[tuple[str, int]] = set()
_pragma_cache: dict[tuple[str, int, str], bool] = {}
_violations: list[Violation] = []
_active = os.environ.get("REPRO_LOCKWATCH", "").strip() not in ("", "0")


def is_enabled() -> bool:
    return _active


def enable(reset_state: bool = True) -> None:
    """Turn the watcher on (tests; prefer REPRO_LOCKWATCH=1 in CI)."""
    global _active
    if reset_state:
        reset()
    _active = True


def disable() -> None:
    global _active
    _active = False


def reset() -> None:
    """Drop the acquisition graph and recorded violations."""
    with _state_lock:
        _edges.clear()
        _reported_pairs.clear()
        _reported_sites.clear()
        _pragma_cache.clear()
        _violations.clear()


class isolated:
    """Context manager: run with a private watcher state, then restore.

    Used by the checker's own tests so a *seeded* inversion does not leak
    into (or wipe) the state the session-level gate is accumulating.
    """

    def __enter__(self) -> "isolated":
        with _state_lock:
            self._saved = (dict(_edges), set(_reported_pairs),
                           set(_reported_sites), dict(_pragma_cache),
                           list(_violations))
        self._was_active = _active
        enable(reset_state=True)
        return self

    def __exit__(self, *exc_info) -> None:
        global _active
        with _state_lock:
            edges, pairs, sites, cache, found = self._saved
            _edges.clear(); _edges.update(edges)
            _reported_pairs.clear(); _reported_pairs.update(pairs)
            _reported_sites.clear(); _reported_sites.update(sites)
            _pragma_cache.clear(); _pragma_cache.update(cache)
            _violations.clear(); _violations.extend(found)
        _active = self._was_active


def _stack() -> list[str]:
    stack = getattr(_held_local, "names", None)
    if stack is None:
        stack = _held_local.names = []
    return stack


def held() -> tuple[str, ...]:
    """Names of instrumented locks the calling thread currently holds."""
    return tuple(_stack())


def _where() -> str:
    return "".join(traceback.format_stack(limit=8)[:-2])


def _note_acquired(name: str) -> None:
    # The held stack must stay correct even while the watcher is toggled
    # off (instrumented locks outlive a disable()); only *recording* stops.
    stack = _stack()
    if stack and _active:
        where = _where()
        with _state_lock:
            for prior in stack:
                if prior == name:
                    continue
                _edges.setdefault((prior, name), where)
                reverse = _edges.get((name, prior))
                pair = frozenset((prior, name))
                if reverse is not None and pair not in _reported_pairs:
                    _reported_pairs.add(pair)
                    _violations.append(Violation(
                        "lock-order",
                        f"acquired {name!r} while holding {prior!r}, but the "
                        f"opposite order {name!r} -> {prior!r} was also "
                        "observed; first-seen opposite-order stack:\n"
                        + reverse,
                        where))
    stack.append(name)


def _note_released(name: str) -> None:
    stack = _stack()
    # Release order may differ from acquisition order; drop the newest entry.
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] == name:
            del stack[i]
            return


def _site_allowed(filename: str, lineno: int, rule: str) -> bool:
    """Does the publishing call site carry an allow[``rule``] pragma nearby?"""
    key = (filename, lineno, rule)
    cached = _pragma_cache.get(key)
    if cached is None:
        cached = any(
            "repro: allow[" in line and rule in line
            for line in (linecache.getline(filename, n)
                         for n in range(max(1, lineno - 2), lineno + 3)))
        with _state_lock:
            _pragma_cache[key] = cached
    return cached


#: Modules between a publishing call site and :func:`note_publish`, with the
#: rule whose pragma exempts a call site that enters through them: the
#: broker's ``publish`` / ``publish_many`` (REP102) and a span batch's
#: ``flush`` (REP107).
_PUBLISH_PATH = {"repro.telemetry.broker": "REP102",
                 "repro.telemetry.spans": "REP107"}


def note_publish() -> None:
    """Called by ``TopicBroker.publish_many``; flags publishing under a lock."""
    if not _active:
        return
    stack = _stack()
    if not stack:
        return
    # Attribute the publish to the first frame outside the publish path —
    # the line that called publish, publish_many or spans.flush(), where
    # the pragma lives.
    frame = sys._getframe(1)
    rule = "REP102"
    while frame.f_back is not None:
        entered = _PUBLISH_PATH.get(frame.f_globals.get("__name__"))
        if entered is None:
            break
        rule, frame = entered, frame.f_back
    site = (frame.f_code.co_filename, frame.f_lineno)
    if _site_allowed(*site, rule):
        return
    with _state_lock:
        if site in _reported_sites:
            return
        _reported_sites.add(site)
        _violations.append(Violation(
            "publish-under-lock",
            f"publish at {site[0]}:{site[1]} while holding "
            f"{list(stack)!r}; publish hands control to subscriber wakeups — "
            f"move it outside the lock or allow[{rule}]-pragma the ordering "
            "contract",
            _where()))


def violations() -> list[Violation]:
    with _state_lock:
        return list(_violations)


def assert_clean() -> None:
    """Raise AssertionError listing every recorded violation (test gate)."""
    found = violations()
    if found:
        raise AssertionError(
            f"lockwatch recorded {len(found)} violation(s):\n\n"
            + "\n\n".join(v.render() for v in found))


# ------------------------------------------------------- instrumented locks


class _WatchedLock:
    """A ``threading.Lock`` that reports acquisitions to the watcher."""

    __slots__ = ("name", "_raw")

    def __init__(self, name: str) -> None:
        self.name = name
        self._raw = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._raw.acquire(blocking, timeout)
        if ok:
            _note_acquired(self.name)
        return ok

    def release(self) -> None:
        _note_released(self.name)
        self._raw.release()

    def locked(self) -> bool:
        return self._raw.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<WatchedLock {self.name!r} locked={self._raw.locked()}>"


class _WatchedCondition:
    """A ``threading.Condition`` whose lock reports to the watcher.

    When built over an existing :class:`_WatchedLock` (the
    ``Condition(self._lock)`` sharing pattern in the server), it adopts
    that lock's *name* so both entry points count as the same graph node.
    """

    __slots__ = ("name", "_cond")

    def __init__(self, name: str, lock=None) -> None:
        if isinstance(lock, _WatchedLock):
            self.name = lock.name
            self._cond = threading.Condition(lock._raw)
        else:
            self.name = name
            self._cond = threading.Condition(lock)

    def acquire(self, *args) -> bool:
        ok = self._cond.acquire(*args)
        if ok:
            _note_acquired(self.name)
        return ok

    def release(self) -> None:
        _note_released(self.name)
        self._cond.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def wait(self, timeout: float | None = None) -> bool:
        # The condition drops the lock while waiting: reflect that in the
        # held stack or every waiter would look like a lock-order cycle.
        _note_released(self.name)
        try:
            return self._cond.wait(timeout)
        finally:
            _note_acquired(self.name)

    def wait_for(self, predicate, timeout: float | None = None):
        _note_released(self.name)
        try:
            return self._cond.wait_for(predicate, timeout)
        finally:
            _note_acquired(self.name)

    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._cond.notify_all()

    def __repr__(self) -> str:
        return f"<WatchedCondition {self.name!r}>"


def monitored_lock(name: str):
    """A lock for the serving stack: plain when off, instrumented when on."""
    return _WatchedLock(name) if _active else threading.Lock()


def monitored_condition(name: str, lock=None):
    """A condition variable, instrumented when the watcher is active.

    ``lock`` may be a plain lock, a :class:`_WatchedLock` (shared-lock
    pattern: the condition adopts its name/node) or ``None``.
    """
    if _active:
        return _WatchedCondition(name, lock)
    if isinstance(lock, _WatchedLock):  # enabled after the lock was made
        lock = lock._raw
    return threading.Condition(lock)
