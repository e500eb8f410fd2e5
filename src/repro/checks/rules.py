"""REP101–REP104, REP106 and REP107: AST visitors over one module at a time.

Each rule is a function ``(path, tree, lines) -> [(line, message), ...]``;
the engine applies pragma suppression afterwards, so rules always report
what they see.  The rules encode invariants this repo actually bled for
(see the ROADMAP's "Correctness tooling" section for the war stories):

* REP101 — an ``async def`` body that blocks stalls every connection on
  the gateway's event loop, not just its own.
* REP102 — resolving futures, invoking user callbacks or publishing
  telemetry while holding a lock hands control to foreign code that may
  try to take the same lock (or submit work that does) — instant deadlock.
* REP103 — ``time.time()`` jumps under NTP; a deadline computed from it
  can fire years late or early.  Monotonic clocks only.
* REP104 — every raised error should be catchable as
  :class:`repro.exceptions.ReproError` (Python-contract builtins such as
  ``ValueError``/``KeyError`` excepted); broad handlers must re-raise or
  visibly attribute the failure, never silently swallow it.
* REP106 — locks, brokers and sqlite handles are process-local; shipping
  one to a shard worker pickles a token that is dead on arrival.
* REP107 — ``spans.flush()`` lexically under ``with <lock>:`` publishes a
  span batch while holding the lock — the same hand-control-to-foreign-code
  hazard REP102 guards for ``publish``.
"""

from __future__ import annotations

import ast
import re
from typing import Sequence

__all__ = ["RULES"]


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` name of a Name/Attribute chain ('' when not a plain chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _terminal(node: ast.AST) -> str:
    """Last segment of a Name/Attribute chain ('' otherwise)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


# --------------------------------------------------------------------- REP101

_BLOCKING_DOTTED = {
    "time.sleep", "os.system", "socket.create_connection", "socket.socketpair",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
}
_BLOCKING_PREFIXES = ("sqlite3.",)
_BLOCKING_METHODS = {"result", "recv", "sendall", "accept"}


def rep101_no_blocking_in_async(path: str, tree: ast.Module,
                                lines: Sequence[str]):
    """No blocking calls inside ``async def`` bodies."""
    # Calls that sit directly under an ``await`` are non-blocking by
    # definition (asyncio.Event.wait, StreamWriter.wait_closed, ...).
    awaited = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Await)}
    findings: list[tuple[int, str]] = []
    stack: list[bool] = []  # innermost enclosing function is async?

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.append(isinstance(node, ast.AsyncFunctionDef))
            for child in ast.iter_child_nodes(node):
                visit(child)
            stack.pop()
            return
        if isinstance(node, ast.Call) and stack and stack[-1]:
            dotted = _dotted(node.func)
            attr = _terminal(node.func)
            if dotted in _BLOCKING_DOTTED or dotted.startswith(_BLOCKING_PREFIXES):
                findings.append((node.lineno,
                                 f"blocking call {dotted}() inside async def "
                                 "stalls the event loop"))
            elif isinstance(node.func, ast.Name) and node.func.id == "open":
                findings.append((node.lineno,
                                 "sync file I/O (open) inside async def "
                                 "stalls the event loop"))
            elif isinstance(node.func, ast.Attribute) and attr in _BLOCKING_METHODS:
                findings.append((node.lineno,
                                 f"blocking .{attr}() inside async def "
                                 "stalls the event loop"))
            elif (isinstance(node.func, ast.Attribute) and attr == "wait"
                  and id(node) not in awaited):
                findings.append((node.lineno,
                                 "un-awaited .wait() inside async def blocks "
                                 "the event loop (threading primitive?)"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return findings


# --------------------------------------------------------------------- REP102

_LOCKISH_NAME = re.compile(r"lock|cond|lease|mutex|wakeup|^ready$")
_LOCK_CONSTRUCTORS = {"threading.Lock", "threading.RLock", "threading.Condition"}
_FORBIDDEN_UNDER_LOCK = {"publish", "publish_many", "set_result",
                         "set_exception"}


def _is_lockish(ctx: ast.AST) -> bool:
    if isinstance(ctx, ast.Call):
        return (_dotted(ctx.func) in _LOCK_CONSTRUCTORS
                or _terminal(ctx.func) in ("monitored_lock",
                                           "monitored_condition"))
    term = _terminal(ctx).lstrip("_").lower()
    return bool(term) and _LOCKISH_NAME.search(term) is not None


def _calls_under_lock(tree: ast.Module) -> list[ast.Call]:
    """Every call lexically inside a ``with <lock>:`` block."""
    calls: list[ast.Call] = []

    def visit(node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            locked = False    # a nested def runs later, not under the lock
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            inner = locked or any(_is_lockish(item.context_expr)
                                  for item in node.items)
            for child in node.body:
                visit(child, inner)
            for item in node.items:
                visit(item, locked)
            return
        elif locked and isinstance(node, ast.Call):
            calls.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    visit(tree, False)
    return calls


def rep102_no_publish_under_lock(path: str, tree: ast.Module,
                                 lines: Sequence[str]):
    """No publish / future resolution / user callback under ``with <lock>:``."""
    findings: list[tuple[int, str]] = []
    for node in _calls_under_lock(tree):
        attr = _terminal(node.func)
        if attr in _FORBIDDEN_UNDER_LOCK:
            findings.append((node.lineno,
                             f"{attr}() inside a with-lock block hands "
                             "control to foreign code while holding the "
                             "lock (deadlock / lock-order hazard)"))
        elif attr.startswith("on_") or attr == "callback":
            findings.append((node.lineno,
                             f"user callback {attr}() invoked inside a "
                             "with-lock block"))
    return findings


# --------------------------------------------------------------------- REP103


def rep103_monotonic_deadlines(path: str, tree: ast.Module,
                               lines: Sequence[str]):
    """``time.time()`` is wall clock; deadlines must use ``time.monotonic()``."""
    findings: list[tuple[int, str]] = []
    # `from time import time [as x]` makes a bare name just as dangerous.
    aliases = {alias.asname or alias.name
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "time"
               for alias in node.names if alias.name == "time"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if (dotted.endswith(".time") and dotted.split(".", 1)[0].lstrip("_")
                in ("time",)) or dotted in aliases:
            findings.append((node.lineno,
                             "time.time() is wall clock and jumps under NTP; "
                             "use time.monotonic() for deadlines/latency "
                             "(allow-pragma human-facing timestamps)"))
    return findings


# --------------------------------------------------------------------- REP104

#: Raising these is lazy error handling — there is a repro.exceptions class
#: (or a Python-contract builtin) for every real failure mode.
_FORBIDDEN_RAISES = {"Exception", "BaseException", "RuntimeError",
                     "OSError", "IOError", "EnvironmentError", "SystemError"}
#: Builtins with a language-level contract callers legitimately catch.
_CONTRACT_BUILTINS = {"ValueError", "TypeError", "KeyError", "IndexError",
                      "AttributeError", "NotImplementedError",
                      "AssertionError", "StopIteration", "StopAsyncIteration",
                      "TimeoutError", "KeyboardInterrupt", "SystemExit"}
_BROAD_EXCEPTS = {"Exception", "BaseException"}


def _handler_is_broad(handler: ast.ExceptHandler) -> bool:
    types = []
    if isinstance(handler.type, ast.Tuple):
        types = handler.type.elts
    elif handler.type is not None:
        types = [handler.type]
    return any(_terminal(t) in _BROAD_EXCEPTS for t in types)


def _handler_attributes_error(handler: ast.ExceptHandler) -> bool:
    """Does the broad handler re-raise or visibly attribute the failure?"""
    for node in handler.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                return True
            if isinstance(sub, ast.Name) and handler.name and \
                    sub.id == handler.name:
                return True
            term = _terminal(sub) if isinstance(sub, (ast.Name,
                                                      ast.Attribute)) else ""
            if term.endswith("Error") or term in ("format_exc",
                                                  "set_exception",
                                                  "print_exc", "exception"):
                return True
    return False


def rep104_exception_hygiene(path: str, tree: ast.Module,
                             lines: Sequence[str]):
    """Raises use the repro.exceptions hierarchy; no silent broad excepts."""
    findings: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = _terminal(exc.func) if isinstance(exc, ast.Call) \
                else _terminal(exc)
            if name in _FORBIDDEN_RAISES:
                findings.append((node.lineno,
                                 f"raise {name}: use the repro.exceptions "
                                 "hierarchy so callers can catch ReproError"))
            elif (name and name[0].isupper()
                  and not name.endswith(("Error", "Exit", "Warning"))
                  and name not in _CONTRACT_BUILTINS):
                findings.append((node.lineno,
                                 f"raise {name}: not a repro.exceptions class "
                                 "or a Python-contract builtin"))
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                findings.append((node.lineno,
                                 "bare except: catches SystemExit/"
                                 "KeyboardInterrupt; name the exception"))
            elif _handler_is_broad(node) and not _handler_attributes_error(node):
                findings.append((node.lineno,
                                 "broad except swallows the error silently; "
                                 "re-raise, attribute it to a named error, or "
                                 "allow-pragma the deliberate swallow"))
    return findings


# --------------------------------------------------------------------- REP106

_HANDLE_CONSTRUCTORS = {"threading.Lock", "threading.RLock",
                        "threading.Condition", "threading.Semaphore",
                        "sqlite3.connect"}
_HANDLE_TERMINALS = {"TopicBroker", "monitored_lock", "monitored_condition"}
#: Attribute names that hold process-local handles across this codebase.
#: ``tracer`` wraps the broker, so shipping it is shipping the broker.
_RISKY_ATTRS = {"broker", "telemetry", "tracer", "_lock", "_cond", "_lease",
                "_conn"}
_SHIP_METHODS = {"send", "apply_async", "starmap", "submit_to_worker"}


def rep106_no_handles_to_workers(path: str, tree: ast.Module,
                                 lines: Sequence[str]):
    """Worker payloads must not capture locks, brokers or sqlite handles."""
    tainted: set[str] = set(_RISKY_ATTRS)
    class_has_handles = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            ctor = node.value
            if (_dotted(ctor.func) in _HANDLE_CONSTRUCTORS
                    or _terminal(ctor.func) in _HANDLE_TERMINALS):
                for target in node.targets:
                    term = _terminal(target)
                    if term:
                        tainted.add(term)
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        class_has_handles = True

    def _tainted_in(expr: ast.AST) -> tuple[int, str] | None:
        if isinstance(expr, ast.Attribute):
            if expr.attr in tainted:
                return expr.lineno, expr.attr
            if isinstance(expr.value, ast.Name):
                # ``obj.attr`` with an untainted attr ships the attribute's
                # value, not the object the attribute hangs off.
                return None
            return _tainted_in(expr.value)
        if isinstance(expr, ast.Name):
            if expr.id in tainted:
                return expr.lineno, expr.id
            if class_has_handles and expr.id == "self":
                return expr.lineno, "self (instance holds lock/broker attrs)"
            return None
        for child in ast.iter_child_nodes(expr):
            hit = _tainted_in(child)
            if hit is not None:
                return hit
        return None

    findings: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        attr = _terminal(node.func)
        is_ship = (attr == "Process" or attr in _SHIP_METHODS
                   or _dotted(node.func) == "pickle.dumps")
        if not is_ship:
            continue
        payload: list[ast.AST] = list(node.args)
        payload.extend(kw.value for kw in node.keywords)
        for expr in payload:
            hit = _tainted_in(expr)
            if hit is not None:
                findings.append((hit[0],
                                 f"{hit[1]} shipped to a worker via {attr}(); "
                                 "locks/brokers/sqlite handles are "
                                 "process-local and die in pickling"))
                break  # one finding per ship call keeps the signal readable
    return findings


# --------------------------------------------------------------------- REP107


def rep107_span_discipline(path: str, tree: ast.Module,
                           lines: Sequence[str]):
    """No ``spans.flush()`` lexically inside a ``with <lock>:`` block.

    Every span is recorded into a :class:`~repro.telemetry.spans.SpanBatch`
    and published by its ``flush()``; a flush under a lock publishes
    ``SpanClosed`` events while the lock is held — the foreign-code
    re-entrancy hazard REP102 flags for bare ``publish()``.  The receiver
    must look like a span batch (its name contains ``spans``), so
    ``file.flush()`` and ``server.flush()`` stay clean.
    """
    return [(node.lineno, "spans.flush() inside a with-lock block publishes "
             "span telemetry while holding the lock (deadlock / lock-order "
             "hazard)")
            for node in _calls_under_lock(tree)
            if isinstance(node.func, ast.Attribute)
            and node.func.attr == "flush"
            and "spans" in _terminal(node.func.value).lower()]


RULES = {
    "REP101": rep101_no_blocking_in_async,
    "REP102": rep102_no_publish_under_lock,
    "REP103": rep103_monotonic_deadlines,
    "REP104": rep104_exception_hygiene,
    "REP106": rep106_no_handles_to_workers,
    "REP107": rep107_span_discipline,
}
