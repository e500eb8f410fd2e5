"""Replay-based latency-regression gate over the canonical session.

``fixtures/canonical_session.json`` is a checked-in 1000-request session
(seeded exponential arrivals over ~1 s).  This harness journals it into a
fresh :class:`~repro.telemetry.RunStore`, streams the schedule back out
through :meth:`RunStore.replay <repro.telemetry.RunStore.replay>` (the
keyset-paginated iterator — each pass re-reads sqlite), and re-drives it
against a live :class:`~repro.serve.ModelServer` with a live
:class:`~repro.telemetry.MetricsAggregator` folding the event stream.

The gate is **drift**, not absolute numbers: passes alternate between a
baseline and a candidate label on one shared server (exactly the
interleaved-trial methodology of ``test_telemetry_overhead.py``), and the
two sides' aggregated e2e p95 latency and served throughput must agree
within generous bounds.  The server runs with full span tracing
(``sample_rate=1.0``) so every pass also records its per-stage p95
attribution — where a latency regression *lands* (queue, coalesce,
execute, ...) is preserved alongside how big it is.  On an unchanged tree both sides run identical
code, so the gate measures the harness's own noise floor; a regression in
the serving or telemetry hot paths widens every pass alike and shows up in
the absolute numbers recorded into ``BENCH_metrics.json``, which CI uploads
for cross-run tracking.

Correctness rides along: every pass must serve all 1000 requests bitwise
identically to direct evaluation, and the aggregator must see the full
session submitted and served (no unmatched rows, no subscriber drops).

Run directly for a report::

    python -m pytest benchmarks/test_replay_regression.py -q -s
"""

import json
import os
import pathlib
import tempfile
import time

import numpy as np

from repro.runtime import ModelRegistry, compile_model
from repro.serve import ModelServer
from repro.telemetry import ROOT_SPAN, MetricsAggregator, RunStore, TracerConfig

from .artifacts import record_benchmark
from .test_telemetry_overhead import (FUTURE_TIMEOUT, N_WARMUP, POLICY,
                                      _model, _stimuli)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "canonical_session.json"

#: Replay passes, alternated baseline / candidate on one shared server.
N_PASSES = 6
#: Latency-drift gate: candidate e2e p95 within this factor of baseline
#: (either direction) across the alternated passes.
P95_DRIFT_GATE = 1.5
#: Throughput-drift gate (served rows/s, either direction).
THROUGHPUT_DRIFT_GATE = 1.35
#: Aggregator window while replaying (the ~1 s session closes several).
WINDOW_S = 0.25


def _load_fixture() -> dict:
    with open(FIXTURE) as fh:
        fixture = json.load(fh)
    assert fixture["version"] == 1
    assert len(fixture["t_rel"]) == fixture["n_requests"]
    return fixture


def _journal_session(store: RunStore, fixture: dict, key: str) -> int:
    """Journal the fixture as ``RequestSubmitted`` events; returns run id."""
    run_id = store.open_run(fixture["name"],
                            meta={"seed": fixture["seed"],
                                  "n_requests": fixture["n_requests"]})
    t_opened = store.get_run(run_id).t_opened
    store.record_events(run_id, [
        {"event": "RequestSubmitted", "schema": 1, "key": key,
         "n_steps": fixture["n_steps"], "trace_id": index + 1,
         "t": t_opened + t_rel}
        for index, t_rel in enumerate(fixture["t_rel"])])
    store.close_run(run_id)
    return run_id


def _replay_pass(server, store, run_id, stimuli):
    """One timed replay of the journaled schedule with live aggregation.

    The schedule is **streamed** from sqlite (``RunStore.replay`` iterator)
    while submissions are in flight — the materialise-first pattern this PR
    removed would hide a pagination regression here.
    """
    aggregator = MetricsAggregator(server.telemetry, window_s=WINDOW_S,
                                   n_windows=256, max_batch=POLICY.max_batch,
                                   maxsize=1 << 17, republish=False)
    start = time.perf_counter()
    futures = [server.submit(entry.key, stimuli[index])
               for index, entry in enumerate(store.replay(run_id))]
    served = np.vstack([f.result(FUTURE_TIMEOUT) for f in futures])
    wall_s = time.perf_counter() - start
    aggregator.close()
    report = aggregator.report()
    assert aggregator.n_dropped == 0, (
        f"aggregator dropped {aggregator.n_dropped} events — enlarge the "
        "benchmark subscription queue")
    return wall_s, served, report


class TestReplayRegression:
    def test_canonical_session_latency_drift_gated(self, capsys, tmp_path):
        fixture = _load_fixture()
        n_requests = fixture["n_requests"]
        registry = ModelRegistry(tempfile.mkdtemp(prefix="replay-bench-"))
        compiled = compile_model(_model(), dt=1e-9, input_range=(0.0, 1.0))
        key = registry.save(compiled)
        stimuli = _stimuli(n_requests, fixture["n_steps"],
                           seed=fixture["seed"])
        direct = compiled.evaluate(stimuli)

        store = RunStore(tmp_path / "canonical.db")
        run_id = _journal_session(store, fixture, key)

        passes = []
        with ModelServer(registry, POLICY,
                         tracing=TracerConfig(sample_rate=1.0)) as server:
            warm = [server.submit(key, row) for row in stimuli[:N_WARMUP]]
            for future in warm:
                future.result(FUTURE_TIMEOUT)
            for _ in range(N_PASSES):
                wall_s, served, report = _replay_pass(
                    server, store, run_id, stimuli)
                np.testing.assert_array_equal(served, direct)
                assert report.n_submitted == n_requests
                assert report.n_served == n_requests
                assert report.n_failed == 0
                assert report.n_unmatched == 0
                assert report.n_subscriber_dropped == 0
                assert report.stages, (
                    "full-rate tracing produced no stage attribution — "
                    "SpanClosed events are not reaching the aggregator")
                passes.append({
                    "wall_s": wall_s,
                    "throughput_rps": n_requests / wall_s,
                    "e2e_p50_s": report.e2e_latency.p50,
                    "e2e_p95_s": report.e2e_latency.p95,
                    "e2e_p99_s": report.e2e_latency.p99,
                    "queue_p95_s": report.queue_latency.p95,
                    "fill_ratio": report.fill_ratio,
                    "n_windows": report.n_windows,
                    "stages_p95_s": {name: summary.p95 for name, summary
                                     in sorted(report.stages.items())},
                })
        store.close()

        def mean(side, field):
            values = [p[field] for p in passes[side::2]]
            return sum(values) / len(values)

        baseline_p95 = mean(0, "e2e_p95_s")
        candidate_p95 = mean(1, "e2e_p95_s")
        p95_drift = max(candidate_p95 / baseline_p95,
                        baseline_p95 / candidate_p95)
        baseline_rps = mean(0, "throughput_rps")
        candidate_rps = mean(1, "throughput_rps")
        rps_drift = max(candidate_rps / baseline_rps,
                        baseline_rps / candidate_rps)

        def stage_p95(side):
            """Per-stage p95 attribution averaged over one side's passes."""
            samples: dict = {}
            for entry in passes[side::2]:
                for name, p95 in entry["stages_p95_s"].items():
                    samples.setdefault(name, []).append(p95)
            return {name: sum(values) / len(values)
                    for name, values in sorted(samples.items())}

        baseline_stages = stage_p95(0)
        candidate_stages = stage_p95(1)
        # The root span spans the whole request, so it names no stage.
        hottest = max((name for name in baseline_stages if name != ROOT_SPAN),
                      key=baseline_stages.get)

        with capsys.disabled():
            print(f"\n[replay-regression] canonical session "
                  f"({n_requests} requests over {fixture['duration_s']:.2f} s "
                  f"recorded): {N_PASSES} alternated passes — baseline p95 "
                  f"{baseline_p95 * 1e3:.2f} ms vs candidate "
                  f"{candidate_p95 * 1e3:.2f} ms (drift {p95_drift:.3f}x), "
                  f"throughput {baseline_rps:.0f} vs {candidate_rps:.0f} "
                  f"rows/s (drift {rps_drift:.3f}x), fill "
                  f"{passes[-1]['fill_ratio'] * 100.0:.0f}%; hottest stage "
                  f"{hottest} at p95 {baseline_stages[hottest] * 1e3:.2f} ms "
                  f"baseline / {candidate_stages.get(hottest, 0.0) * 1e3:.2f}"
                  f" ms candidate")

        record_benchmark("BENCH_metrics.json", "replay_regression", {
            "fixture": FIXTURE.name,
            "fixture_seed": fixture["seed"],
            "n_requests": n_requests,
            "n_steps": fixture["n_steps"],
            "n_passes": N_PASSES,
            "window_s": WINDOW_S,
            "cpu_count": os.cpu_count(),
            "policy": {"max_batch": POLICY.max_batch,
                       "max_wait_s": POLICY.max_wait,
                       "n_workers": POLICY.n_workers},
            "passes": passes,
            "baseline_e2e_p95_s": baseline_p95,
            "candidate_e2e_p95_s": candidate_p95,
            "e2e_p95_drift_x": p95_drift,
            "e2e_p95_drift_gate_x": P95_DRIFT_GATE,
            "baseline_throughput_rps": baseline_rps,
            "candidate_throughput_rps": candidate_rps,
            "throughput_drift_x": rps_drift,
            "throughput_drift_gate_x": THROUGHPUT_DRIFT_GATE,
            "baseline_stage_p95_s": baseline_stages,
            "candidate_stage_p95_s": candidate_stages,
            "hottest_stage": hottest,
            "replay_bitwise_identical": True,
        })

        assert p95_drift <= P95_DRIFT_GATE, (
            f"e2e p95 drifted {p95_drift:.3f}x between alternated replay "
            f"passes (gate {P95_DRIFT_GATE}x): baseline "
            f"{baseline_p95 * 1e3:.2f} ms, candidate "
            f"{candidate_p95 * 1e3:.2f} ms")
        assert rps_drift <= THROUGHPUT_DRIFT_GATE, (
            f"throughput drifted {rps_drift:.3f}x between alternated replay "
            f"passes (gate {THROUGHPUT_DRIFT_GATE}x)")
