"""Self-time attribution: children are subtracted once, roots never rank."""

import pytest

from repro.telemetry import SpanClosed, TraceAssembler
from tracing import (BENCH_ROOT, PROGRAM_ROOT, Recorder, Span, build_forest,
                     from_trace_tree, rank_stages, self_time,
                     self_times_by_name)


def _tree():
    """A request whose root covers much more than its stages.

    request          [0, 20]
      serve_queue    [0, 2]
      serve_execute  [2, 9]
        shard_stage_in   [2.5, 3.5]   overlaps worker_evaluate
        worker_evaluate  [3, 7]
      gateway_write  [19.5, 20.5]     ends after the root
    """
    root = Span(PROGRAM_ROOT, 0.0, 20.0)
    execute = Span("serve_execute", 2.0, 9.0)
    execute.children = [Span("shard_stage_in", 2.5, 3.5),
                        Span("worker_evaluate", 3.0, 7.0)]
    root.children = [Span("serve_queue", 0.0, 2.0), execute,
                     Span("gateway_write", 19.5, 20.5)]
    return root


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    root = _tree()
    execute = root.children[1]
    # Children cover [0, 9] and [19.5, 20] of the root: 9.5 of 20 s.
    assert self_time(root) == pytest.approx(10.5)
    # Overlapping children [2.5, 3.5] and [3, 7] cover 4.5 s, not 5.
    assert self_time(execute) == pytest.approx(2.5)
    assert self_time(execute.children[1]) == pytest.approx(4.0)


def test_roots_are_never_ranked_although_their_self_time_is_largest():
    totals = self_times_by_name([_tree()])
    assert max(totals, key=totals.get) == PROGRAM_ROOT   # a naive ranking
    ranked = rank_stages(totals)
    assert ranked[0] == ("worker_evaluate", pytest.approx(4.0))
    assert PROGRAM_ROOT not in dict(ranked)
    assert [name for name, _ in ranked] == [
        "worker_evaluate", "serve_execute", "serve_queue", "gateway_write",
        "shard_stage_in"]


def test_the_benchmark_root_is_not_a_stage_either():
    recorder = Recorder(True)
    recorder.add(BENCH_ROOT, 0.0, 10.0)
    root_id = recorder.spans[-1].span_id
    recorder.add("client.round", 1.0, 3.0, root_id)
    ranked = rank_stages(self_times_by_name(build_forest(recorder.spans)))
    assert ranked == [("client.round", pytest.approx(2.0))]


def test_recorder_nests_spans_and_exports_them():
    recorder = Recorder(True, tag="t")
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    inner, outer = recorder.spans
    assert inner.parent == outer.span_id and outer.parent is None
    (root,) = build_forest(recorder.export())
    assert root.name == "outer" and root.children[0].name == "inner"
    disabled = Recorder(False)
    with disabled.span("outer"):
        disabled.add("x", 0.0, 1.0)
    assert disabled.spans == []


def test_program_trace_trees_rank_the_same_way():
    assembler = TraceAssembler()
    for name, start, duration, parent in (
            (PROGRAM_ROOT, 0.0, 0.020, ""),
            ("serve_queue", 0.0, 0.002, PROGRAM_ROOT),
            ("serve_execute", 0.002, 0.007, PROGRAM_ROOT),
            ("worker_evaluate", 0.003, 0.004, "serve_execute")):
        assembler.add(SpanClosed(name=name, trace_id=7, t_start=start,
                                 duration_s=duration, parent=parent))
    tree = from_trace_tree(assembler.tree(7))
    ranked = dict(rank_stages(self_times_by_name([tree])))
    assert set(ranked) == {"serve_queue", "serve_execute", "worker_evaluate"}
    assert ranked["worker_evaluate"] == pytest.approx(0.004)
    assert ranked["serve_execute"] == pytest.approx(0.003)
