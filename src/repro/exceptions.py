"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  The sub-classes separate the three layers of
the tool chain: the circuit simulator substrate, the fitting engines and the
extracted behavioural models.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class CircuitError(ReproError):
    """Raised for malformed circuits (unknown nodes, duplicate names, ...)."""


class NetlistParseError(CircuitError):
    """Raised when a SPICE-like text netlist cannot be parsed."""

    def __init__(self, message: str, line_number: int | None = None,
                 line: str | None = None) -> None:
        self.line_number = line_number
        self.line = line
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if line is not None:
            message = f"{message}  [{line.strip()!r}]"
        super().__init__(message)


class ConvergenceError(ReproError):
    """Raised when a Newton iteration or a stepping strategy fails."""

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None) -> None:
        self.iterations = iterations
        self.residual = residual
        details = []
        if iterations is not None:
            details.append(f"iterations={iterations}")
        if residual is not None:
            details.append(f"residual={residual:.3e}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)


class SingularMatrixError(ReproError):
    """Raised when an MNA system matrix is singular or near singular."""


class FittingError(ReproError):
    """Raised when vector fitting or recursive vector fitting fails."""


class ModelError(ReproError):
    """Raised for inconsistent extracted models (e.g. unstable poles)."""


class RegistryError(ReproError):
    """Raised for corrupt or inconsistent model-registry entries.

    Covers truncated/unreadable array archives, metadata whose recorded
    content hash no longer matches the stored arrays, and lookups of keys
    that are not present in the registry directory.
    """


class ServeError(ReproError):
    """Raised by the model-serving layer (:mod:`repro.serve`).

    Covers rejected requests (oversized payloads, non-finite samples, closed
    servers, full queues), shard jobs that exhausted their crash-retry
    budget, and worker-side evaluation failures propagated back to the
    submitting caller's future.
    """


class ServerClosedError(ServeError):
    """Raised for submissions to a :class:`~repro.serve.server.ModelServer`
    after its ``close()`` — typed so transports (the gateway) can classify
    it without inspecting message prose."""


class GatewayError(ServeError):
    """Raised by the network front-end (:mod:`repro.gateway`).

    Covers failed connections (gateway closed or never started, connection
    limit reached), per-request error replies relayed over the wire, and
    connections dropped with requests outstanding.
    """


class RunStoreError(ReproError):
    """Raised by the durable telemetry store (:mod:`repro.telemetry.runstore`).

    Covers opening a corrupted or non-database file, operations on a closed
    store, and lookups of unknown run ids.
    """


class FrameError(GatewayError):
    """Raised for malformed gateway protocol frames.

    ``request_id`` is the id recovered from the frame when the fixed prefix
    was intact (``0`` when even that was unreadable) and ``code`` the wire
    error code the gateway reports back for it — both let the server fail
    exactly the offending request, or only the offending connection when the
    stream can no longer be trusted.
    """

    def __init__(self, message: str, request_id: int = 0,
                 code: int | None = None) -> None:
        self.request_id = int(request_id)
        self.code = code
        super().__init__(message)


class ChunkSeriesError(FrameError):
    """A chunk series failed reassembly (out of order, inconsistent, or over
    its limits); always attributed to the series' request id."""
