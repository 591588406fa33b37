"""Self-time arithmetic, ledger additivity and wrapper lifetime."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench.ledger import PER_LAYER, body_metrics
from perfbench.run import Runner
from perfbench.spans import (
    LAYERS,
    Span,
    SpanRecorder,
    Tracing,
    layer_ledger,
    self_times,
    union_length,
)


def span(start, end, parent=-1, layer="x"):
    return Span("s", layer, start, end, parent=parent)


class TestSelfTime:
    def test_nested(self):
        spans = [span(0, 10), span(2, 6, 0), span(3, 4, 1)]
        assert self_times(spans) == [6.0, 3.0, 1.0]

    def test_back_to_back_children(self):
        spans = [span(0, 6), span(0, 2, 0), span(2, 5, 0)]
        assert self_times(spans) == [1.0, 2.0, 3.0]

    def test_overlapping_children_count_once(self):
        # children on two threads overlapping in [3, 4]
        spans = [span(0, 10), span(1, 4, 0), span(3, 6, 0)]
        assert self_times(spans)[0] == 5.0

    def test_child_clipped_to_parent(self):
        spans = [span(0, 4), span(3, 9, 0)]
        assert self_times(spans)[0] == 3.0

    def test_union_length(self):
        assert union_length([(0, 1), (1, 2), (5, 7), (6, 8)]) == 5.0
        assert union_length([]) == 0.0

    def test_ledger_adds_up_to_root(self):
        spans = [
            span(0, 20, layer="run"),
            span(1, 15, 0, "scf"),
            span(2, 9, 1, "transport"),
            span(3, 5, 2, "kernel"),
            span(5, 8, 2, "kernel"),
            span(10, 12, 1, "poisson"),
            span(16, 17, -1, "stray"),  # outside the root: ignored
        ]
        ledger = layer_ledger(spans, root=0)
        assert set(ledger) == {"run", "scf", "transport", "kernel", "poisson"}
        assert ledger["kernel"] == {"calls": 2, "self_s": 5.0}
        assert ledger["run"]["self_s"] == 6.0
        assert sum(r["self_s"] for r in ledger.values()) == 20.0

    def test_recorder_nesting_with_fake_clock(self):
        ticks = iter(range(100))
        rec = SpanRecorder(clock=lambda: float(next(ticks)))
        with rec.span("run", "run"):
            with rec.span("a", "scf"):
                pass
            with rec.span("b", "poisson"):
                pass
        assert [s.parent for s in rec.spans] == [-1, 0, 0]
        assert self_times(rec.spans) == [3.0, 1.0, 1.0]

    def test_out_of_order_close_raises(self):
        rec = SpanRecorder()
        outer = rec.open("a", "x")
        rec.open("b", "x")
        with pytest.raises(RuntimeError):
            rec.close(outer)


def _current_attributes():
    seen = {}
    tracing = Tracing(SpanRecorder())
    for module_name, attr, _, _ in LAYERS:
        for owner, name in tracing._targets(module_name, attr):
            seen[(owner, name)] = owner.__dict__[name]
    return seen


class TestWrappers:
    def test_restored_after_exit_and_on_error(self):
        before = _current_attributes()
        assert before, "no layer attribute resolved"
        with Tracing(SpanRecorder()):
            assert all(
                owner.__dict__[name] is not v
                for (owner, name), v in before.items()
            )
        assert _current_attributes() == before
        with pytest.raises(KeyError):
            with Tracing(SpanRecorder()):
                raise KeyError("boom")
        after = _current_attributes()
        assert all(after[k] is v for k, v in before.items())

    def test_restored_after_traced_run(self, tiny_grid_wf):
        before = _current_attributes()
        runner = Runner(tiny_grid_wf, seed=3, seconds=0.0)
        runner.run_traced()
        after = _current_attributes()
        assert all(after[k] is v for k, v in before.items())
        assert not any(
            hasattr(v, "__perfbench_original__") for v in after.values()
        )

    @pytest.mark.parametrize(
        "fixture", ["tiny_grid_wf", "tiny_fullband_rgf", "tiny_transport"]
    )
    def test_traced_outputs_bit_identical(self, fixture, request):
        workload = request.getfixturevalue(fixture)
        runner = Runner(workload, seed=5, seconds=0.0)
        metrics, ledgers = runner.run_traced()
        assert runner.failures == []
        assert runner.mismatches == 0
        assert runner.failed == 0 and runner.attempted > 0
        assert set(metrics) == set(PER_LAYER)
        assert ledgers[0]["transport"]["calls"] > 0
        assert metrics["kernel.calls"][1] > 0
        if fixture != "tiny_transport":
            assert metrics["scf.iterations"][1] > 0
            assert metrics["poisson.calls"][1] > 0

    def test_means_stay_additive(self):
        def body(run, scf):
            return {
                "ledger": {
                    "run": {"calls": 1, "self_s": run},
                    "scf": {"calls": 1, "self_s": scf, "iterations": 3},
                },
                "flops": {}, "overhead_s": 0.0,
            }

        m = body_metrics([body(1.0, 2.0), body(2.0, 5.0)], peak_gflops=1.0)
        assert m["residue.self_s"][1] + m["scf.self_s"][1] == 5.0
        assert m["scf.iterations"] == ("count", 3.0)


def test_benchmark_json_names_match_the_code():
    spec = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == PER_LAYER
    from perfbench.workloads import WORKLOADS

    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"run_s", "setup_s", "peak_rss_mb"}
    assert np.isclose(
        max(m["bound"] for m in spec["end_to_end"]),
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"),
    )
