#!/usr/bin/env python3
"""Repository benchmark: the paper's extraction flow and the serving stack.

Run from the repository root, with the arguments ``BENCHMARK.json`` fixes
(the probe reference time and the accuracy tolerance) followed by the run's
own::

    python3 perfbench/run.py --probe-ref-ms 10 --rmse-tol 2.5e-3 \\
        --workload bulk --seed 1 --seconds 30 --trace 0

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric of ``BENCHMARK.json``
with ``--trace 0``, every per-layer metric with ``--trace 1``.  A results
file with the environment record (and, traced, the spans) is written under
``.perfbench/results/``.

Workloads (the seed draws every input; ``program.py`` runs ``repro``):

* ``extract`` — the paper's user: the Section IV flow on the output buffer
  (training transient, TFT, RVF, compile, validation on held-out sines),
  repeated closed-loop.  Serving, gateway and telemetry sit idle.
* ``bulk`` — one client, one connection, closed-loop rounds of 256
  stimuli x 4096 steps through ``GatewayClient.submit_many``; telemetry off.
  Long rows put the work on the compiled kernel, the shared-memory
  dataplane and large-frame decoding.
* ``interactive`` — independent users: Poisson arrivals at 200 req/s of
  256-step stimuli alternating between the buffer model compiled at two
  sample rates (two lanes), over two ``AsyncGatewayClient`` connections,
  with the production tracer and a live ``MetricsAggregator``.  About one
  row per batch, so per-request costs dominate.  It also reports latency
  from due time to reply (p50, p90, p99) and checks reconciliation and
  backlog.  Its latencies follow the hypervisor's steal share too closely
  to gate on a shared two-core host, so ``BENCHMARK.json`` leaves it out;
  run it by hand.

What each end-to-end metric measures per workload:

=============== ============================== ==============================
metric          extract                        bulk / interactive
=============== ============================== ==============================
setup_s         imports                        imports, extraction, registry
                                               save, server, gateway, warm-up
peak_rss_mb     program process                server process
extract_s       per repetition                 the extraction of each set-up
model_rel_rmse  max over every held-out sine   max over the set-ups' sines
throughput_rps  held-out rows validated per s  served rows/s (bulk: per round)
=============== ============================== ==============================

Timings of repetitions (extraction passes, bulk rounds, kernel calls) are
probe-scaled and corrected for steal (see ``probe.py``); ``setup_s`` is the
median of five fresh starts of the program process, corrected for steal.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import pipeline  # noqa: E402
from probe import HostProbe, ScaledTimer, StealMeter  # noqa: E402
from repro.exceptions import GatewayError  # noqa: E402
from repro.gateway import (AsyncGatewayClient, GatewayClient,  # noqa: E402
                           encode_request_frames, encode_result_frames)
from repro.runtime import ModelRegistry  # noqa: E402
from tracing import (BENCH_ROOT, Recorder, build_forest,  # noqa: E402
                     rank_stages, self_times_by_name)

PROGRAM = HERE / "program.py"
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".perfbench"

#: Fresh starts of the program process per run (``setup_s`` is their median).
SETUPS = 5
#: Workload shapes.
BULK_ROWS, BULK_STEPS, BULK_POOL = 256, 4096, 2
INTERACTIVE_RATE, INTERACTIVE_STEPS, INTERACTIVE_POOL = 200.0, 256, 64
#: A run measures at least this many repetitions / rounds, however short.
MIN_REPS = 3
#: An open-loop request not answered within this counts as failed; it also
#: stands in as the latency of every failed request (a latency miss).
REQUEST_TIMEOUT_S = 5.0
#: Served rate below this share of the offered rate means a growing backlog.
BACKLOG_SHARE = 0.99
#: Repetitions of the in-process kernel probe (traced runs).
KERNEL_REPS = 5
#: Time limits (s): set-up of one program process, one command, whole run.
SETUP_TIMEOUT_S = 90.0
COMMAND_TIMEOUT_S = 90.0
WATCHDOG_S = 175

#: Stages of the program's request path, in pipeline order.
STAGES = ("gateway_decode", "serve_queue", "serve_coalesce", "serve_dispatch",
          "shard_lease", "shard_stage_in", "worker_evaluate",
          "worker_stage_out", "serve_reassemble", "gateway_encode",
          "gateway_write")

_INTERACTIVE = "interactive's latency (a hand-run workload)"
_SERVE_E2E = f"throughput_rps on bulk; {_INTERACTIVE}"
#: Per-layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    **{name: "extract_s on extract" for name in (
        "circuit.transient_s", "circuit.newton_iterations",
        "circuit.lu_factorizations", "circuit.lu_reuse_ratio",
        "circuit.steps_rejected", "tft.extract_s", "tft.solves",
        "rvf.extract_s", "vectfit.orders_tried", "vectfit.iterations",
        "rvf.state_orders_tried", "runtime.compile_s",
        "runtime.validate_engine_s", "runtime.validate_model_s")},
    "rvf.frequency_poles": "extract_s and model_rel_rmse on extract",
    "rvf.state_poles": "extract_s and model_rel_rmse on extract",
    "runtime.kernel_rows_per_s": "throughput_rps on bulk",
    "telemetry.trace_overhead_ratio": "throughput_rps on bulk",
    **{name: _SERVE_E2E for name in (
        "serve.batches", "serve.rows_per_batch", "serve.fill_ratio",
        "serve.queue_p50_ms", "gateway.frames_in", "gateway.frames_out",
        "gateway.wire_bytes_per_row")},
    **{f"stage.{stage}_ms": _SERVE_E2E for stage in STAGES},
    **{name: _INTERACTIVE for name in (
        "telemetry.spans_per_request", "telemetry.events_per_request",
        "telemetry.subscriber_dropped", "telemetry.aggregator_unmatched")},
    **{name: "setup_s on bulk" for name in (
        "runtime.registry_save_s", "serve.start_s", "gateway.start_s")},
    **{name: "run validity and context" for name in (
        "loadgen.late_p99_ms", "loadgen.offered_rps", "loadgen.served_rps",
        "loadgen.e2e_p99_ms", "loadgen.e2e_samples", "host.probe_ms",
        "host.nproc")},
}


class BenchError(Exception):
    """The benchmark could not complete a run."""


# --------------------------------------------------------------- context
@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    probe_ref_s: float
    rmse_tol: float
    setups: int = SETUPS
    recorder: Recorder = None
    host: HostProbe = None
    work: Path = None
    problems: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    e2e: dict
    layers: dict
    details: dict = field(default_factory=dict)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def digest(row: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(row, dtype=float).tobytes(),
                           digest_size=16).hexdigest()


# ------------------------------------------------------ program process
class ProgramHandle:
    """One ``program.py`` process, spoken to in JSON lines.

    The process leads its own process group, so :meth:`close` also reaps the
    shard workers it forked, whatever state it was left in.
    """

    def __init__(self, ctx: Context, index: int, n_steps: int) -> None:
        config = {"workload": ctx.workload, "seed": ctx.seed,
                  "trace": ctx.trace, "tag": f"p{index}.", "index": index,
                  "n_steps": n_steps,
                  "registry": str(ctx.work / f"registry-{index}")}
        self.proc = subprocess.Popen(
            [sys.executable, str(PROGRAM), json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            start_new_session=True)
        self._buffer = b""

    def read(self, timeout: float) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"program gave no reply in {timeout:.0f} s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise BenchError(
                        f"program exited with code {self.proc.wait()}")
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def ask(self, request: dict, timeout: float = COMMAND_TIMEOUT_S) -> dict:
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()
        return self.read(timeout)

    def exit(self, ctx: Context) -> float:
        """Stop the process; adopt its spans; return its peak RSS (MB)."""
        reply = self.ask({"cmd": "exit"})
        self.proc.wait(COMMAND_TIMEOUT_S)
        adopt(ctx.recorder, reply["spans"])
        return float(reply["peak_rss_mb"])

    def close(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def adopt(recorder: Recorder, spans: list) -> None:
    """Merge another process's spans, nesting each top-level one under the
    innermost benchmark span whose interval contains it (the monotonic
    clock is shared by every process on the host)."""
    if not recorder.enabled:
        return
    own = list(recorder.spans)
    for span in spans:
        parent = span["parent"]
        if parent is None:
            holders = [s for s in own
                       if s.start <= span["start"] and span["end"] <= s.end]
            parent = (min(holders, key=lambda s: s.duration).span_id
                      if holders else recorder.current)
        recorder.add(span["name"], span["start"], span["end"], parent)
        recorder.spans[-1].span_id = span["id"]


def start_program(ctx: Context, n_steps: int = 0):
    """Start the program ``ctx.setups`` times, keeping the last one.

    Returns the running handle, its ready message and one record per start:
    wall time from process launch to ready, and the share of it the host
    gave the benchmark (``1 - steal``).  A start is process creation,
    imports and forks, which the probe does not track (scaling by it
    widened the spread of set-up times two- to fourfold), so set-up times
    are corrected for steal only.
    """
    starts = []
    for index in range(ctx.setups):
        meter = StealMeter()
        with ctx.recorder.span("setup"):
            t_launch = time.monotonic()
            handle = ProgramHandle(ctx, index, n_steps)
            try:
                ready = handle.read(SETUP_TIMEOUT_S)
            except BaseException:
                handle.close()
                raise
            wall = time.monotonic() - t_launch
        starts.append({"wall_s": wall, "factor": 1.0 - meter.lap(),
                       "ready": ready})
        if index < ctx.setups - 1:
            try:
                handle.exit(ctx)
            finally:
                handle.close()
    return handle, ready, starts


def setup_metrics(starts: list) -> dict:
    """``setup_s`` — and for serving workloads the set-up's extraction."""
    metrics = {"setup_s": median(s["wall_s"] * s["factor"] for s in starts)}
    if "extract_wall_s" in starts[0]["ready"]:
        metrics["extract_s"] = median(
            s["ready"]["extract_wall_s"] * s["factor"] for s in starts)
        metrics["model_rel_rmse"] = max(s["ready"]["max_rel_rmse"]
                                        for s in starts)
    return metrics


def check_rmse(ctx: Context, rmse: float) -> None:
    if not rmse <= ctx.rmse_tol:
        ctx.problems.append(f"model_rel_rmse {rmse:.3e} exceeds the "
                            f"tolerance {ctx.rmse_tol:.1e}")


# ------------------------------------------------------- per-layer helpers
def spans_named(ctx: Context, name: str) -> list:
    return [s for s in ctx.recorder.spans if s.name == name]


def scaled_span_median(ctx: Context, name: str, factors: list) -> float:
    """Median rescaled duration of the ``name`` spans.

    ``factors`` holds one scale factor per pass (repetition or set-up); a
    pass may hold several ``name`` spans, which share its factor.
    """
    spans = spans_named(ctx, name)
    if not spans:
        return 0.0
    per_pass = max(1, len(spans) // len(factors))
    last = len(factors) - 1
    return median(span.duration * factors[min(i // per_pass, last)]
                  for i, span in enumerate(spans))


def extraction_layers(ctx: Context, counters: dict, factors: list) -> dict:
    """Per-layer metrics of the extraction flow (one factor per pass)."""
    solves = counters["circuit.lu_solves"]
    layers = {
        "circuit.transient_s": scaled_span_median(
            ctx, "transient_analysis", factors),
        "tft.extract_s": scaled_span_median(ctx, "extract_tft", factors),
        "rvf.extract_s": scaled_span_median(ctx, "extract_rvf_model",
                                            factors),
        "runtime.compile_s": scaled_span_median(
            ctx, "compile_model", factors),
        "circuit.lu_reuse_ratio": (counters["circuit.lu_reuses"] / solves
                                   if solves else 0.0),
    }
    for name in ("circuit.newton_iterations", "circuit.lu_factorizations",
                 "circuit.steps_rejected", "tft.solves",
                 "vectfit.orders_tried", "vectfit.iterations",
                 "rvf.state_orders_tried", "rvf.frequency_poles",
                 "rvf.state_poles"):
        layers[name] = float(counters[name])
    return layers


def kernel_rows_per_s(ctx: Context, model, rows: np.ndarray) -> float:
    """Direct in-process ``CompiledModel.evaluate`` rate at one shape."""
    timer = ScaledTimer(ctx.probe_ref_s, ctx.host.read)
    timer.start()
    with ctx.recorder.span("kernel_probe"):
        for _ in range(KERNEL_REPS):
            start = time.perf_counter()
            model.evaluate(rows)
            timer.add(time.perf_counter() - start)
    return rows.shape[0] / timer.median()


def wire_bytes_per_row(key: str, row: np.ndarray) -> float:
    """Request plus reply frame bytes of one row on the float64 wire."""
    request = encode_request_frames(1, key, row)
    reply = encode_result_frames(1, row)
    return float(sum(map(len, request)) + sum(map(len, reply)))


def serving_layers(ctx: Context, stop: dict, key: str, rows: int,
                   row: np.ndarray) -> dict:
    serve, gateway, stages = stop["serve"], stop["gateway"], stop["stages"]
    batches = serve["batches"]
    per_batch = serve["rows"] / batches if batches else 0.0
    layers = {
        "serve.batches": float(batches),
        "serve.rows_per_batch": per_batch,
        "serve.fill_ratio": per_batch / serve["max_batch"],
        "serve.queue_p50_ms": serve["queue_p50_s"] * 1e3,
        "gateway.frames_in": gateway["n_frames_in"] / max(1, rows),
        "gateway.frames_out": gateway["n_frames_out"] / max(1, rows),
        "gateway.wire_bytes_per_row": wire_bytes_per_row(key, row),
        "telemetry.spans_per_request": (stages["spans"] / stages["traces"]
                                        if stages["traces"] else 0.0),
        "telemetry.subscriber_dropped": float(stages["dropped"]),
    }
    for stage in STAGES:
        layers[f"stage.{stage}_ms"] = stages["self_s"].get(stage, 0.0) * 1e3
    return layers


def setup_layers(ctx: Context, starts: list) -> dict:
    """Set-up per-layer metrics: extraction passes plus start-up spans."""
    factors = [s["factor"] for s in starts]
    layers = extraction_layers(ctx, starts[-1]["ready"]["counters"], factors)
    for name in ("runtime.validate_engine_s", "runtime.validate_model_s"):
        layers[name] = median(s["ready"]["counters"][name] * s["factor"]
                              for s in starts)
    for metric, span in (("runtime.registry_save_s", "registry.save"),
                         ("serve.start_s", "server.start"),
                         ("gateway.start_s", "gateway.start")):
        layers[metric] = scaled_span_median(ctx, span, factors)
    return layers


# ----------------------------------------------------------- workloads
def run_extract(ctx: Context) -> Outcome:
    handle, _, starts = start_program(ctx)
    timer = ScaledTimer(ctx.probe_ref_s, ctx.host.read)
    replies = []
    try:
        timer.start()
        deadline = time.monotonic() + ctx.seconds
        while len(replies) < MIN_REPS or time.monotonic() < deadline:
            with ctx.recorder.span("repetition"):
                reply = handle.ask({"cmd": "repetition",
                                    "index": len(replies)})
            timer.add(reply["wall_s"])
            replies.append(reply)
        rss = handle.exit(ctx)
    finally:
        handle.close()
    factors = timer.factors()
    engine_s = [r["counters"]["runtime.validate_engine_s"] for r in replies]
    model_s = [r["counters"]["runtime.validate_model_s"] for r in replies]
    reps = timer.scaled()
    validated = [reply["rows"] / ((engine + model) * factor)
                 for reply, engine, model, factor
                 in zip(replies, engine_s, model_s, factors)]
    rmse = max(r["max_rel_rmse"] for r in replies)
    check_rmse(ctx, rmse)
    e2e = {"setup_s": setup_metrics(starts)["setup_s"],
           "peak_rss_mb": rss,
           "extract_s": median(reps),
           "model_rel_rmse": rmse,
           "throughput_rps": median(validated)}
    layers = {}
    if ctx.trace:
        layers = extraction_layers(ctx, replies[-1]["counters"], factors)
        for name, seconds in (("runtime.validate_engine_s", engine_s),
                              ("runtime.validate_model_s", model_s)):
            layers[name] = median(value * factor
                                  for value, factor in zip(seconds, factors))
    return Outcome(attempted=len(replies), failed=0, e2e=e2e, layers=layers,
                   details={"repetitions_s": reps, "walls_s": timer.walls,
                            "probes_s": timer.probes, "steals": timer.steals,
                            "rmse": [r["max_rel_rmse"] for r in replies],
                            "setups": starts})


def run_bulk(ctx: Context, n_rows: int = BULK_ROWS,
             n_steps: int = BULK_STEPS) -> Outcome:
    handle, ready, starts = start_program(ctx, n_steps)
    try:
        key = ready["keys"][0]
        rng = pipeline.rng_for(ctx.seed, pipeline.STREAM_BULK)
        pool = [pipeline.stimulus_rows(rng, n_rows, n_steps, ready["dts"][0],
                                       ready["offset"])
                for _ in range(BULK_POOL)]
        timer = ScaledTimer(ctx.probe_ref_s, ctx.host.read)
        traced, received = [], []
        attempted = failed = 0
        with GatewayClient(*ready["address"],
                           timeout=COMMAND_TIMEOUT_S) as client:
            timer.start()
            deadline = time.monotonic() + ctx.seconds
            while len(timer.walls) < MIN_REPS or time.monotonic() < deadline:
                index = len(timer.walls)
                # Traced runs alternate untraced and traced rounds, so the
                # tracing overhead is a ratio of interleaved rounds.
                tracing = ctx.trace and index % 2 == 1
                if tracing:
                    handle.ask({"cmd": "spans_on"})
                batch = pool[index % BULK_POOL]
                attempted += len(batch)
                with ctx.recorder.span("client.round"):
                    start = time.perf_counter()
                    try:
                        outputs = client.submit_many(
                            [(key, row) for row in batch], return_errors=True)
                    except GatewayError as exc:
                        ctx.problems.append(f"round {index} failed: {exc}")
                        failed += len(batch)
                        break
                    wall = time.perf_counter() - start
                if tracing:
                    handle.ask({"cmd": "spans_off"})
                timer.add(wall)
                traced.append(tracing)
                received.append([digest(out) if isinstance(out, np.ndarray)
                                 else None for out in outputs])
        stop = handle.ask({"cmd": "stop"})
        rss = handle.exit(ctx)
    finally:
        handle.close()

    model = ModelRegistry(ready["registry"]).load(key)
    expected = [[digest(row) for row in model.evaluate(batch)]
                for batch in pool]
    mismatched = 0
    for index, digests in enumerate(received):
        for got, want in zip(digests, expected[index % BULK_POOL]):
            if got is None:
                failed += 1
            elif got != want:
                mismatched += 1
    if mismatched:
        ctx.problems.append(f"{mismatched} served row(s) differ from "
                            "CompiledModel.evaluate")
    rounds = timer.scaled()
    plain = [s for s, t in zip(rounds, traced) if not t]
    serve = stop["serve"]
    e2e = {**setup_metrics(starts),
           "peak_rss_mb": rss,
           "throughput_rps": n_rows / median(plain)}
    check_rmse(ctx, e2e["model_rel_rmse"])
    layers = {}
    if ctx.trace:
        layers = {**setup_layers(ctx, starts),
                  **serving_layers(ctx, stop, key, serve["rows"], pool[0][0])}
        with_spans = [s for s, t in zip(rounds, traced) if t]
        layers["telemetry.trace_overhead_ratio"] = (
            median(plain) / median(with_spans) if with_spans else 0.0)
        batch_rows = max(1, round(layers["serve.rows_per_batch"]))
        layers["runtime.kernel_rows_per_s"] = kernel_rows_per_s(
            ctx, model, pool[0][:batch_rows])
        raw = timer.walls
        layers.update({
            "loadgen.offered_rps": attempted / sum(raw),
            "loadgen.served_rps": (attempted - failed) / sum(raw),
            "loadgen.late_p99_ms": 0.0,          # closed loop: never late
            "loadgen.e2e_p99_ms": percentile(raw, 99) * 1e3,
            "loadgen.e2e_samples": float(len(raw))})
    return Outcome(attempted=attempted, failed=failed, e2e=e2e, layers=layers,
                   details={"rounds_s": rounds, "walls_s": timer.walls,
                            "probes_s": timer.probes, "steals": timer.steals,
                            "traced_rounds": traced, "serve": serve,
                            "gateway": stop["gateway"], "setups": starts})


async def _request(client, key: str, samples: np.ndarray, due: float):
    loop = asyncio.get_running_loop()
    sent = loop.time()
    try:
        output = await asyncio.wait_for(client.submit(key, samples),
                                        REQUEST_TIMEOUT_S)
    except (GatewayError, asyncio.TimeoutError):
        return due, sent, None, None
    return due, sent, loop.time(), digest(output)


async def _open_loop(address, keys, pools, offsets, picks) -> list:
    """Send each request at its due time; time it from then to the reply."""
    clients = [await AsyncGatewayClient.connect(*address) for _ in range(2)]
    loop = asyncio.get_running_loop()
    try:
        t0 = loop.time() + 0.05
        tasks = []
        for index, offset in enumerate(offsets):
            due = t0 + float(offset)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            model = index % 2
            tasks.append(asyncio.ensure_future(_request(
                clients[model], keys[model], pools[model][picks[index]],
                due)))
        return await asyncio.gather(*tasks)
    finally:
        for client in clients:
            await client.close()


def reconcile(client: dict, serve: dict, aggregator: dict) -> list[str]:
    """Problems with submitted = served + failed across the three counts."""
    problems = []
    counts = {"client": client, "ServeStats": serve, "aggregator": aggregator}
    for name, c in counts.items():
        if c["submitted"] != c["served"] + c["failed"]:
            problems.append(f"{name}: submitted {c['submitted']} != served "
                            f"{c['served']} + failed {c['failed']}")
    triples = {name: (c["submitted"], c["served"], c["failed"])
               for name, c in counts.items()}
    if len(set(triples.values())) > 1:
        problems.append(f"counts disagree (submitted, served, failed): "
                        f"{triples}")
    return problems


def run_interactive(ctx: Context, rate: float = INTERACTIVE_RATE,
                    n_steps: int = INTERACTIVE_STEPS) -> Outcome:
    handle, ready, starts = start_program(ctx, n_steps)
    try:
        keys = ready["keys"]
        rng = pipeline.rng_for(ctx.seed, pipeline.STREAM_INTERACTIVE)
        pools = [pipeline.stimulus_rows(rng, INTERACTIVE_POOL, n_steps, dt,
                                        ready["offset"])
                 for dt in ready["dts"]]
        schedule_rng = pipeline.rng_for(ctx.seed, pipeline.STREAM_SCHEDULE)
        offsets = pipeline.poisson_schedule(schedule_rng, rate, ctx.seconds)
        picks = schedule_rng.integers(0, INTERACTIVE_POOL, offsets.size)
        if ctx.trace:
            handle.ask({"cmd": "spans_on"})
        with ctx.recorder.span("client.requests") as span:
            results = asyncio.run(_open_loop(
                ready["address"], keys, pools, offsets, picks))
        if ctx.trace:
            for due, _, done, _ in results:
                ctx.recorder.add("client.request", due,
                                 done if done is not None else due,
                                 span.span_id)
        stop = handle.ask({"cmd": "stop"})
        rss = handle.exit(ctx)
    finally:
        handle.close()

    models = [ModelRegistry(ready["registry"]).load(key) for key in keys]
    expected = [[digest(row) for row in model.evaluate(pool)]
                for model, pool in zip(models, pools)]
    latencies, late = [], []
    failed = mismatched = 0
    for index, (due, sent, done, got) in enumerate(results):
        late.append(sent - due)
        if done is None:
            failed += 1
            latencies.append(REQUEST_TIMEOUT_S)
            continue
        latencies.append(done - due)
        if got != expected[index % 2][picks[index]]:
            mismatched += 1
    if mismatched:
        ctx.problems.append(f"{mismatched} served row(s) differ from "
                            "CompiledModel.evaluate")
    attempted = len(results)
    served = attempted - failed
    # Offered: first to last due time.  Served: first to last reply, so a
    # steady latency cancels and only a growing backlog stretches it.
    dones = [r[2] for r in results if r[2] is not None]
    offered_rps = attempted / max(results[-1][0] - results[0][0], 1e-9)
    served_rps = (served / max(max(dones) - min(dones), 1e-9)
                  if dones else 0.0)
    if served_rps < BACKLOG_SHARE * offered_rps:
        ctx.problems.append(
            f"backlog: served {served_rps:.1f} req/s against offered "
            f"{offered_rps:.1f} req/s")
    aggregator = stop["aggregator"]
    ctx.problems += reconcile(
        {"submitted": attempted, "served": served, "failed": failed},
        stop["serve"], aggregator)
    if aggregator["unmatched"] or aggregator["dropped"]:
        ctx.problems.append(
            f"aggregator lost events: {aggregator['unmatched']} unmatched, "
            f"{aggregator['dropped']} dropped")

    e2e = {**setup_metrics(starts),
           "peak_rss_mb": rss,
           "throughput_rps": served_rps,
           "e2e_p50_ms": percentile(latencies, 50) * 1e3,
           "e2e_p90_ms": percentile(latencies, 90) * 1e3,
           "e2e_p99_ms": percentile(latencies, 99) * 1e3}
    check_rmse(ctx, e2e["model_rel_rmse"])
    layers = {}
    if ctx.trace:
        layers = {**setup_layers(ctx, starts),
                  **serving_layers(ctx, stop, keys[0], attempted,
                                   pools[0][0])}
        layers["telemetry.subscriber_dropped"] += aggregator["dropped"]
        batch_rows = max(1, round(layers["serve.rows_per_batch"]))
        layers.update({
            "telemetry.trace_overhead_ratio": 0.0,   # always traced here
            "telemetry.events_per_request": aggregator["events"] / attempted,
            "telemetry.aggregator_unmatched": float(aggregator["unmatched"]),
            "runtime.kernel_rows_per_s": kernel_rows_per_s(
                ctx, models[0], pools[0][:batch_rows]),
            "loadgen.late_p99_ms": percentile(late, 99) * 1e3,
            "loadgen.offered_rps": offered_rps,
            "loadgen.served_rps": served_rps,
            "loadgen.e2e_p99_ms": percentile(latencies, 99) * 1e3,
            "loadgen.e2e_samples": float(len(latencies))})
    return Outcome(attempted=attempted, failed=failed, e2e=e2e, layers=layers,
                   details={"serve": stop["serve"], "gateway": stop["gateway"],
                            "aggregator": aggregator, "setups": starts,
                            "latencies_s": latencies})


WORKLOADS = {"extract": run_extract, "bulk": run_bulk,
             "interactive": run_interactive}


# ------------------------------------------------------------ reporting
def environment(ctx: Context) -> dict:
    """What the numbers depend on besides the code."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = git.stdout.split()
        commit = (lines[1] if git.returncode == 0 and len(lines) == 2
                  and Path(lines[0]).resolve() == ROOT else None)
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"probe_s": ctx.host.readings, "probe_ref_s": ctx.probe_ref_s,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {name: os.environ.get(name) for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")},
            "machine": platform.machine(), "commit": commit}


def final_metrics(ctx: Context, outcome: Outcome, spec: dict) -> dict:
    """The spec's metrics of this mode, each with its unit; all present."""
    section = "per_layer" if ctx.trace else "end_to_end"
    values = dict(outcome.layers if ctx.trace else outcome.e2e)
    if ctx.trace:
        values.setdefault("host.probe_ms", median(ctx.host.readings) * 1e3)
        values.setdefault("host.nproc", float(os.cpu_count()))
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        # A layer the workload leaves idle reads 0.
        value = values.get(name, 0.0 if ctx.trace else None)
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    return metrics


def describe(ctx: Context, outcome: Outcome, metrics: dict) -> str:
    lines = [f"workload {ctx.workload}  seed {ctx.seed}  seconds "
             f"{ctx.seconds:g}  trace {int(ctx.trace)}  attempted "
             f"{outcome.attempted}  failed {outcome.failed}"]
    for name, metric in metrics.items():
        moves = f"  -> {MOVES.get(name, '')}" if ctx.trace else ""
        lines.append(f"  {name:32s} {metric['value']:14.6g} "
                     f"{metric['unit']}{moves}")
    for name, value in (outcome.layers if ctx.trace else outcome.e2e).items():
        if name not in metrics:
            lines.append(f"  {name:32s} {value:14.6g}  "
                         "(not in BENCHMARK.json)")
    if ctx.trace:
        ranked = rank_stages(self_times_by_name(
            build_forest(ctx.recorder.spans)))
        lines.append("  benchmark spans by self time: " + ", ".join(
            f"{name} {value:.3f} s" for name, value in ranked[:6]))
    for problem in ctx.problems:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--probe-ref-ms", type=float, required=True,
                        help="probe time of the reference host")
    parser.add_argument("--rmse-tol", type=float, required=True,
                        help="largest accepted model_rel_rmse")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, setups: int = SETUPS, **shape) -> dict:
    """One benchmark run; returns the final JSON object."""
    spec = json.loads(SPEC.read_text())
    WORK_DIR.mkdir(exist_ok=True)
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  probe_ref_s=args.probe_ref_ms * 1e-3,
                  rmse_tol=args.rmse_tol, setups=setups,
                  recorder=Recorder(bool(args.trace), tag="b"),
                  work=WORK_DIR / f"tmp-{os.getpid()}-{args.workload}")
    try:
        with HostProbe() as ctx.host, ctx.recorder.span(BENCH_ROOT):
            outcome = WORKLOADS[args.workload](ctx, **shape)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    metrics = final_metrics(ctx, outcome, spec)
    result = {"correct": not ctx.problems, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    print(describe(ctx, outcome, metrics))
    results = WORK_DIR / "results"
    results.mkdir(exist_ok=True)
    record = {**result, "problems": ctx.problems, "details": outcome.details,
              "env": environment(ctx),
              "moves": {name: MOVES[name] for name in metrics
                        if ctx.trace and name in MOVES},
              "spans": ctx.recorder.export()}
    name = f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    return result


def _watchdog(signum, frame):
    raise BenchError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        result = run(args)
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
