"""Every workload end to end on reduced inputs, and the output checks.

Reduced means one set-up instead of three, short runs and small shapes;
the code paths, checks and metric tables are the benchmark's own.
"""

import json

import numpy as np
import pytest

import run

SPEC = json.loads(run.SPEC.read_text())
#: Reduced shapes per workload (keyword arguments of the workload runner).
REDUCED = {"extract": {},
           "bulk": {"n_rows": 16, "n_steps": 512},
           "interactive": {"rate": 60.0}}
SECONDS = {"extract": 0.5, "bulk": 0.5, "interactive": 3.0}


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    args = run.parse_args(SPEC["command"][2:] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS[workload]), "--trace", str(trace)])
    return run.run(args, setups=1, **REDUCED[workload])


def _problems(workload: str, seed: int = 1) -> list:
    path = run.WORK_DIR / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())["problems"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_prints_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in section}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_every_per_layer_metric_names_what_it_should_move():
    assert set(run.MOVES) == {entry["name"] for entry in SPEC["per_layer"]}


def test_a_corrupted_served_row_fails_the_run(monkeypatch):
    submit_many = run.GatewayClient.submit_many

    def corrupting(self, requests, return_errors=False):
        outputs = submit_many(self, requests, return_errors)
        outputs[3] = np.array(outputs[3], copy=True)
        outputs[3][100] = np.nextafter(outputs[3][100], np.inf)
        return outputs

    monkeypatch.setattr(run.GatewayClient, "submit_many", corrupting)
    result = _run("bulk", 0)
    assert result["correct"] is False
    assert any("differ from CompiledModel.evaluate" in problem
               for problem in _problems("bulk"))


def test_a_broken_reconciliation_count_fails_the_run(monkeypatch):
    ask = run.ProgramHandle.ask

    def losing_one(self, request, timeout=run.COMMAND_TIMEOUT_S):
        reply = ask(self, request, timeout)
        if request["cmd"] == "stop":
            reply["serve"]["served"] -= 1
        return reply

    monkeypatch.setattr(run.ProgramHandle, "ask", losing_one)
    result = _run("interactive", 0)
    assert result["correct"] is False
    assert any("ServeStats" in problem for problem in _problems("interactive"))


def test_reconcile_accepts_agreeing_counts_and_names_disagreement():
    counts = {"submitted": 10, "served": 9, "failed": 1}
    assert run.reconcile(counts, dict(counts), dict(counts)) == []
    problems = run.reconcile(counts, dict(counts),
                             {"submitted": 10, "served": 8, "failed": 1})
    assert len(problems) == 2
    assert problems[0].startswith("aggregator:")
