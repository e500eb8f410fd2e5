"""Declarative threshold alerting over closed metrics windows.

An :class:`AlertRule` names one metric of the
:class:`~repro.telemetry.events.MetricsWindowClosed` payload (dotted paths
reach into the nested latency summaries, e.g. ``e2e_latency.p95_s``), a
threshold, and a **hysteresis pair**: the rule must breach for
``raise_after`` consecutive windows before :class:`AlertRaised` fires, and
must then stay within bounds for ``clear_after`` consecutive windows before
:class:`AlertCleared` follows — one noisy window neither raises nor clears
an alert, so a flapping metric debounces into a stable alert state.

:class:`AlertManager` evaluates a rule set against every closed window —
live, by subscribing to the broker's ``MetricsWindowClosed`` republications
on a daemon thread, or synchronously through :meth:`evaluate` for
deterministic tests and replays.  Raised/cleared events go back through the
same broker, which puts them on the gateway's existing ``EVENTS_SUBSCRIBE``
wire frames with no protocol change: remote dashboards simply subscribe to
the ``AlertRaised`` / ``AlertCleared`` topics.

State sits behind a ``lockwatch``-monitored lock (``telemetry.alerts``);
publication happens strictly outside it (REP102).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..checks import lockwatch
from .broker import TopicBroker
from .events import AlertCleared, AlertRaised

__all__ = ["AlertManager", "AlertRule", "AlertState"]

_POLL_S = 0.1


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold over a closed-window metric.

    ``metric`` is an attribute of :class:`MetricsWindowClosed`, with dots
    descending into dict-valued fields (``"e2e_latency.p95_s"``).  ``op``
    is the breach comparison: ``">"`` (value above threshold breaches,
    the default) or ``"<"`` (value below threshold breaches).
    """

    name: str
    metric: str
    threshold: float
    op: str = ">"
    #: Consecutive breaching windows before ``AlertRaised`` fires.
    raise_after: int = 1
    #: Consecutive in-bounds windows before ``AlertCleared`` fires.
    clear_after: int = 1
    detail: str = ""

    def __post_init__(self) -> None:
        if self.op not in (">", "<"):
            raise ValueError(f"AlertRule.op must be '>' or '<', got "
                             f"{self.op!r}")
        if self.raise_after < 1 or self.clear_after < 1:
            raise ValueError("AlertRule raise_after/clear_after must be >= 1")

    # ------------------------------------------------------------ constructors
    @classmethod
    def p95_latency(cls, bound_s: float, *, queue: bool = False,
                    raise_after: int = 2, clear_after: int = 2) -> "AlertRule":
        """End-to-end (or queue) p95 latency above ``bound_s`` seconds."""
        which = "queue" if queue else "e2e"
        return cls(name=f"{which}_p95_latency",
                   metric=f"{which}_latency.p95_s", threshold=float(bound_s),
                   raise_after=raise_after, clear_after=clear_after,
                   detail=f"{which} p95 above {bound_s * 1e3:.1f} ms")

    @classmethod
    def crash_rate(cls, max_per_window: float = 0.0, *, raise_after: int = 1,
                   clear_after: int = 2) -> "AlertRule":
        """Worker crashes per window above ``max_per_window``."""
        return cls(name="crash_rate", metric="n_crashes",
                   threshold=float(max_per_window), raise_after=raise_after,
                   clear_after=clear_after,
                   detail=f"worker crashes above {max_per_window:g}/window")

    @classmethod
    def queue_depth(cls, max_depth: int, *, raise_after: int = 2,
                    clear_after: int = 2) -> "AlertRule":
        """Unserved submitted requests at window close above ``max_depth``."""
        return cls(name="queue_depth", metric="queue_depth",
                   threshold=float(max_depth), raise_after=raise_after,
                   clear_after=clear_after,
                   detail=f"queue depth above {max_depth}")

    @classmethod
    def subscriber_drops(cls, max_per_window: float = 0.0, *,
                         raise_after: int = 1,
                         clear_after: int = 2) -> "AlertRule":
        """Telemetry subscriber drops per window above ``max_per_window``."""
        return cls(name="subscriber_drops", metric="n_subscriber_dropped",
                   threshold=float(max_per_window), raise_after=raise_after,
                   clear_after=clear_after,
                   detail=f"subscriber drops above {max_per_window:g}/window")

    # ------------------------------------------------------------- evaluation
    def value_of(self, window) -> float:
        """Extract this rule's metric from a window event (or its dict).

        Missing paths answer 0.0 — a rule must tolerate older payload
        layouts rather than crash the evaluator.
        """
        head, _, rest = self.metric.partition(".")
        if isinstance(window, dict):
            value = window.get(head, 0.0)
        else:
            value = getattr(window, head, 0.0)
        for part in rest.split(".") if rest else ():
            if not isinstance(value, dict):
                return 0.0
            value = value.get(part, 0.0)
        try:
            return float(value)
        except (TypeError, ValueError):
            return 0.0

    def breached(self, value: float) -> bool:
        return value > self.threshold if self.op == ">" else \
            value < self.threshold


class AlertState:
    """Mutable evaluation state of one rule (owned by the manager)."""

    __slots__ = ("rule", "active", "breach_streak", "ok_streak",
                 "last_value", "n_raised", "n_cleared")

    def __init__(self, rule: AlertRule) -> None:
        self.rule = rule
        self.active = False
        self.breach_streak = 0
        self.ok_streak = 0
        self.last_value = 0.0
        self.n_raised = 0
        self.n_cleared = 0


class AlertManager:
    """Evaluate alert rules against every closed metrics window.

    Live mode (``broker`` given): subscribes to ``MetricsWindowClosed`` and
    evaluates on a daemon thread, publishing ``AlertRaised`` /
    ``AlertCleared`` back through the broker.  Synchronous mode
    (``broker=None``): feed windows through :meth:`evaluate`, which returns
    the alert events deterministically.
    """

    def __init__(self, rules, broker: TopicBroker | None = None,
                 maxsize: int = 1024) -> None:
        rules = tuple(rules)
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate alert rule names: {names}")
        self._broker = broker
        self._lock = lockwatch.monitored_lock("telemetry.alerts")
        self._states = {rule.name: AlertState(rule) for rule in rules}
        self._closed = False
        self._sub = None
        self._stop = threading.Event()
        self._thread = None
        if broker is not None:
            self._sub = broker.subscribe(topics=("MetricsWindowClosed",),
                                         maxsize=maxsize)
            self._thread = threading.Thread(
                target=self._loop, name="alert-manager", daemon=True)
            self._thread.start()

    @property
    def rules(self) -> tuple:
        return tuple(state.rule for state in self._states.values())

    def active(self) -> dict:
        """Currently raised alerts: rule name → last observed value."""
        with self._lock:
            return {name: state.last_value
                    for name, state in self._states.items() if state.active}

    def states(self) -> dict:
        """Snapshot of every rule's state (name → dict), for dashboards."""
        with self._lock:
            return {name: {"active": state.active,
                           "last_value": state.last_value,
                           "breach_streak": state.breach_streak,
                           "ok_streak": state.ok_streak,
                           "n_raised": state.n_raised,
                           "n_cleared": state.n_cleared,
                           "threshold": state.rule.threshold,
                           "metric": state.rule.metric}
                    for name, state in self._states.items()}

    # ------------------------------------------------------------- evaluation
    def evaluate(self, window) -> list:
        """Fold one closed window (:class:`MetricsWindowClosed` event or its
        dict payload) through every rule; returns (and publishes, in live
        mode) the resulting ``AlertRaised`` / ``AlertCleared`` events."""
        with self._lock:
            events = self._evaluate_locked(window)
        broker = self._broker
        if events and broker is not None:
            broker.publish_many(events)
        return events

    def _evaluate_locked(self, window) -> list:
        if isinstance(window, dict):
            index = int(window.get("window_index", 0))
        else:
            index = int(getattr(window, "window_index", 0))
        events = []
        for state in self._states.values():
            rule = state.rule
            value = rule.value_of(window)
            state.last_value = value
            if rule.breached(value):
                state.breach_streak += 1
                state.ok_streak = 0
                if not state.active and \
                        state.breach_streak >= rule.raise_after:
                    state.active = True
                    state.n_raised += 1
                    events.append(AlertRaised(
                        name=rule.name, metric=rule.metric, value=value,
                        threshold=rule.threshold, window_index=index,
                        detail=rule.detail))
            else:
                state.ok_streak += 1
                state.breach_streak = 0
                if state.active and state.ok_streak >= rule.clear_after:
                    state.active = False
                    state.n_cleared += 1
                    events.append(AlertCleared(
                        name=rule.name, metric=rule.metric, value=value,
                        threshold=rule.threshold, window_index=index,
                        detail=rule.detail))
        return events

    # ----------------------------------------------------------------- thread
    def _loop(self) -> None:
        while not self._stop.is_set():
            event = self._sub.get(timeout=_POLL_S)
            if event is None:
                continue
            for window in [event] + self._sub.drain():
                self.evaluate(window)

    def close(self) -> None:
        """Stop evaluating; drains queued windows through the rules first."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
        if self._sub is not None:
            self._sub.close()
            for window in self._sub.drain():
                self.evaluate(window)

    def __enter__(self) -> "AlertManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
