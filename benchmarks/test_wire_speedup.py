"""Acceptance benchmark of the leaner wire format (:mod:`repro.gateway`).

Two claims over a live TCP gateway, recorded into ``BENCH_wire.json``:

* ``float32_wire`` — a client that opts into ``dtype="float32"`` moves
  roughly **half the sample bytes** of the float64 default for the same
  request load (gated <= 0.55x, the shrinking payload amortising the fixed
  per-frame headers), while every reply stays bitwise-equal to the float64
  evaluation of the float32-quantised stimulus — the upcast happens once,
  at the gateway's edge, never inside the numerics.
* ``chunked_streaming`` — a stimulus far beyond ``max_frame_bytes`` streams
  through ``REQUEST_CHUNK``/``RESULT_CHUNK`` frames instead of being
  refused: the round trip must split into multiple chunk frames each within
  the frame budget, and the reassembled reply must be bitwise-equal to a
  direct in-process ``CompiledModel.evaluate`` of the same rows.

Run directly for a report::

    python -m pytest benchmarks/test_wire_speedup.py -q -s
"""

import os
import tempfile
import time

import numpy as np
import pytest

from repro.gateway import Gateway, GatewayClient, protocol
from repro.runtime import ModelRegistry, compile_model
from repro.rvf.hammerstein import HammersteinBranch, HammersteinModel
from repro.rvf.residues import PartialFractionFunction
from repro.serve import ModelServer, ServePolicy

from .artifacts import record_benchmark

#: Requests in the float32-vs-float64 load (acceptance: >= 1000).
N_REQUESTS = 1024
#: Samples per request in that load.
N_STEPS = 512
#: Samples in the long streaming stimulus — at 8 B/sample this is ~1.6 MB
#: of float64 payload against a 256 KiB frame budget, forcing a multi-frame
#: chunk stream in both directions.
N_LONG_STEPS = 200_000
#: Frame budget for the streaming section.
MAX_FRAME_BYTES = 256 << 10


def _model(tau: float = 1.0) -> HammersteinModel:
    """A small synthetic Hammerstein model (compiles in microseconds)."""
    def pf(poles, coeffs, const):
        return PartialFractionFunction(np.asarray(poles, complex),
                                       np.asarray(coeffs, complex), const)

    gain = pf([-2.0 + 0.5j], [0.3 + 0.1j], 1.2)
    pair = pf([-1.5 + 0.2j], [0.2 - 0.05j], 0.4 + 0.2j)
    real = pf([-1.0], [0.15], 0.2)
    branches = [
        HammersteinBranch(pole=(-3e7 + 1e8j) * tau, residue_function=pair,
                          static_function=pair.antiderivative()
                          .with_value_at(0.5, 0.0), is_complex_pair=True),
        HammersteinBranch(pole=-5e7 * tau, residue_function=real,
                          static_function=real.antiderivative()
                          .with_value_at(0.5, 0.0), is_complex_pair=False),
    ]
    return HammersteinModel(
        branches=branches, gain_function=gain,
        static_function=gain.antiderivative().with_value_at(0.5, 0.3),
        dc_input=0.5, dc_output=0.3)


def _registry():
    registry = ModelRegistry(tempfile.mkdtemp(prefix="wire-bench-"))
    compiled = compile_model(_model(), dt=1e-9, input_range=(0.0, 1.0))
    return registry, compiled, registry.save(compiled)


def _stimuli(n_requests: int, n_steps: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.5 + 0.3 * rng.uniform(-1.0, 1.0, (n_requests, n_steps))


def _wire_bytes(key: str, stimuli: np.ndarray, dtype: int) -> int:
    """Encoded request bytes for a whole load at one wire dtype."""
    return sum(
        sum(len(frame) for frame in protocol.encode_request_frames(
            i, key, row, dtype=dtype))
        for i, row in enumerate(stimuli, start=1))


class TestLeanerWireFormat:
    def test_float32_moves_half_the_bytes_and_stays_bitwise(self, capsys):
        registry, compiled, key = _registry()
        stimuli = _stimuli(N_REQUESTS, N_STEPS)
        requests = [(key, row) for row in stimuli]
        # The float32 contract: the gateway upcasts once at the edge, so the
        # reply equals the float64 pipeline run on the quantised stimulus,
        # quantised once more on the way back out.
        quantised = stimuli.astype(np.float32).astype(np.float64)
        direct32 = compiled.evaluate(quantised).astype(np.float32) \
            .astype(np.float64)
        direct64 = compiled.evaluate(stimuli)

        bytes64 = _wire_bytes(key, stimuli, protocol.DTYPE_FLOAT64)
        bytes32 = _wire_bytes(key, stimuli, protocol.DTYPE_FLOAT32)
        ratio = bytes32 / bytes64

        policy = ServePolicy(max_batch=64, max_wait=5e-3, n_workers=2)
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                with GatewayClient(*gateway.address, timeout=600.0,
                                   dtype="float64") as client:
                    client.submit_many(requests[:8])    # warm caches/workers
                    start = time.perf_counter()
                    out64 = client.submit_many(requests)
                    s64 = time.perf_counter() - start
                with GatewayClient(*gateway.address, timeout=600.0,
                                   dtype="float32") as client:
                    client.submit_many(requests[:8])
                    start = time.perf_counter()
                    out32 = client.submit_many(requests)
                    s32 = time.perf_counter() - start
            stats = server.stats()

        with capsys.disabled():
            print(f"\n[wire] {N_REQUESTS} requests x {N_STEPS} steps: "
                  f"float64 {bytes64 / 1e6:.1f} MB / {s64 * 1e3:.0f} ms, "
                  f"float32 {bytes32 / 1e6:.1f} MB / {s32 * 1e3:.0f} ms "
                  f"({ratio:.2f}x the bytes) on {os.cpu_count()} core(s)")

        record_benchmark("BENCH_wire.json", "float32_wire", {
            "n_requests": N_REQUESTS,
            "n_steps": N_STEPS,
            "cpu_count": os.cpu_count(),
            "request_bytes_float64": bytes64,
            "request_bytes_float32": bytes32,
            "bytes_ratio": ratio,
            "float64_s": s64,
            "float32_s": s32,
            "float64_requests_per_s": N_REQUESTS / s64,
            "float32_requests_per_s": N_REQUESTS / s32,
        })

        # Gate 1: float32 halves the sample payload (headers amortised).
        assert ratio <= 0.55, (
            f"float32 frames carry {ratio:.2f}x the bytes of float64 "
            f"(expected <= 0.55x)")
        # Gate 2: float64 replies bitwise-equal to the direct evaluation.
        np.testing.assert_array_equal(np.vstack(out64), direct64)
        # Gate 3: float32 replies bitwise-equal to the float64 pipeline on
        # the f4-quantised stimulus — precision is lost at the edges only.
        np.testing.assert_array_equal(np.vstack(out32), direct32)
        assert stats.n_failed == 0

    def test_long_stimulus_streams_in_chunks(self, capsys):
        registry, compiled, key = _registry()
        stimulus = _stimuli(1, N_LONG_STEPS, seed=2)[0]
        direct = compiled.evaluate(stimulus)

        frames = protocol.encode_request_frames(
            1, key, stimulus, max_frame_bytes=MAX_FRAME_BYTES)
        n_chunks = len(frames)
        assert n_chunks > 1, "stimulus fit one frame; raise N_LONG_STEPS"
        # Each payload fits the budget (the 4-byte length prefix rides on
        # top — the gateway's limit bounds what follows the prefix).
        assert all(len(f) - protocol.LENGTH_PREFIX.size <= MAX_FRAME_BYTES
                   for f in frames)

        policy = ServePolicy(max_batch=4, max_wait=2e-3, n_workers=2,
                             max_frame_bytes=MAX_FRAME_BYTES)
        with ModelServer(registry, policy) as server:
            with Gateway(server) as gateway:
                with GatewayClient(*gateway.address, timeout=600.0,
                                   max_frame_bytes=MAX_FRAME_BYTES) as client:
                    client.submit(key, stimulus[:256])  # warm caches/workers
                    start = time.perf_counter()
                    streamed = client.submit(key, stimulus)
                    seconds = time.perf_counter() - start
            counters = gateway.stats()
            stats = server.stats()

        mb = stimulus.nbytes / 1e6
        with capsys.disabled():
            print(f"[wire] streaming: {N_LONG_STEPS} samples ({mb:.1f} MB) "
                  f"across {n_chunks} chunk frames of <= "
                  f"{MAX_FRAME_BYTES >> 10} KiB round-tripped in "
                  f"{seconds * 1e3:.0f} ms")

        record_benchmark("BENCH_wire.json", "chunked_streaming", {
            "n_samples": N_LONG_STEPS,
            "payload_mb": mb,
            "max_frame_bytes": MAX_FRAME_BYTES,
            "n_request_chunks": n_chunks,
            "round_trip_s": seconds,
            "frames_in": counters["n_frames_in"],
            "frames_out": counters["n_frames_out"],
        })

        # Gate 1: the reply is bitwise-equal to the in-process evaluation —
        # chunk reassembly is lossless in both directions.
        np.testing.assert_array_equal(streamed, direct)
        # Gate 2: the gateway actually saw a multi-frame stream (and sent
        # one back — the reply payload is as long as the stimulus).
        assert counters["n_frames_in"] > n_chunks   # warm-up + chunk stream
        assert counters["n_frames_out"] > n_chunks  # reply streamed too
        assert stats.n_failed == 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
