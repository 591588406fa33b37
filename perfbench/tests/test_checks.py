"""Every output check passes clean results and rejects perturbed ones."""

import copy
import dataclasses

import numpy as np
import pytest

from perfbench.workloads import check_scf_curve


@pytest.fixture(scope="module")
def swept(tiny_grid_wf):
    """A clean tiny sweep: (workload, state, inputs, curve)."""
    rng = np.random.default_rng(0)
    inputs = tiny_grid_wf.inputs(rng)
    state = tiny_grid_wf.setup()
    curve = tiny_grid_wf.body(state, inputs)
    return tiny_grid_wf, state, inputs, curve


def _with_points(curve, points):
    out = copy.copy(curve)
    out.points = points
    return out


def _failed(reasons):
    return [i for i, r in enumerate(reasons) if r]


class TestSCFChecks:
    def test_clean_sweep_passes(self, swept):
        w, state, inputs, curve = swept
        assert w.check(state, inputs, curve) == ["", ""]

    def test_perturbed_current_rejected(self, swept):
        w, state, inputs, curve = swept
        p = curve.points[1]
        bad = dataclasses.replace(p, current_a=p.current_a * (1 + 1e-6))
        pts = [curve.points[0], bad]
        reasons = w.check(state, inputs, _with_points(curve, pts))
        assert _failed(reasons) == [1]

    def test_resolve_mismatch_rejected(self, swept):
        # the program reports a current its own potential does not give
        w, state, inputs, curve = swept
        p = curve.points[0]
        bumped = p.current_a * (1 + 1e-6)
        key = (p.v_gate, p.v_drain)
        fake = copy.copy(state["results"][key][-1])
        fake.transport = dataclasses.replace(fake.transport, current_a=bumped)
        results = dict(state["results"])
        results[key] = [fake]
        pts = [dataclasses.replace(p, current_a=bumped), curve.points[1]]
        transport = state["transport"]

        def resolve(u, vd):
            grid = transport.energy_grid(u, vd)
            return transport.solve_bias(u, vd, energy_grid=grid).current_a

        reasons = check_scf_curve(_with_points(curve, pts), results, resolve)
        assert _failed(reasons) == [0]
        assert "re-solve" in reasons[0]

    def test_non_increasing_current_rejected(self, swept):
        w, state, inputs, curve = swept
        p0, p1 = curve.points
        low = dataclasses.replace(p1, current_a=p0.current_a * 0.5)
        reasons = w.check(state, inputs, _with_points(curve, [p0, low]))
        assert "does not increase" in reasons[1]

    @pytest.mark.parametrize("value", [0.0, -1e-9, float("nan")])
    def test_non_positive_or_nan_current_rejected(self, swept, value):
        w, state, inputs, curve = swept
        p0 = dataclasses.replace(curve.points[0], current_a=value)
        pts = [p0, curve.points[1]]
        reasons = w.check(state, inputs, _with_points(curve, pts))
        assert 0 in _failed(reasons)

    def test_unconverged_point_rejected(self, swept):
        w, state, inputs, curve = swept
        p0 = dataclasses.replace(curve.points[0], converged=False)
        pts = [p0, curve.points[1]]
        reasons = w.check(state, inputs, _with_points(curve, pts))
        assert "not converged" in reasons[0]

    def test_quarantined_nodes_rejected(self, swept):
        w, state, inputs, curve = swept
        out = copy.copy(curve)
        out.degradation = copy.deepcopy(curve.degradation)
        out.degradation.quarantine(0, 0.1)
        assert _failed(w.check(state, inputs, out)) == [0, 1]


class TestTransportChecks:
    @pytest.fixture(scope="class")
    def called(self, tiny_transport):
        rng = np.random.default_rng(0)
        inputs = tiny_transport.inputs(rng)
        state = tiny_transport.setup()
        results = tiny_transport.body(state, inputs)
        yield tiny_transport, state, inputs, results
        tiny_transport.teardown(state)

    def test_clean_calls_pass(self, called):
        w, state, inputs, results = called
        assert w.check(state, inputs, results) == ["", ""]

    def test_perturbed_transmission_rejected(self, called):
        w, state, inputs, results = called
        j = inputs["check_indices"][1][0]
        t = results[1].transmission.copy()
        t[0, j] = t[0, j] * (1 + 1e-6) + 1e-300
        bad = dataclasses.replace(results[1], transmission=t)
        reasons = w.check(state, inputs, [results[0], bad])
        assert _failed(reasons) == [1]
        assert "dense" in reasons[1]

    @pytest.mark.parametrize("factor", [1 + 1e-6, float("nan"), -1.0])
    def test_perturbed_current_rejected(self, called, factor):
        w, state, inputs, results = called
        bad = dataclasses.replace(
            results[0], current_a=results[0].current_a * factor
        )
        reasons = w.check(state, inputs, [bad, results[1]])
        assert _failed(reasons) == [0]


def test_untraced_run_reports_end_to_end_metrics(tiny_transport):
    from perfbench.run import Runner

    runner = Runner(tiny_transport, seed=1, seconds=0.0)
    metrics = runner.run_untraced()
    assert set(metrics) == {"run_s", "setup_s", "peak_rss_mb"}
    assert runner.failed == 0 and runner.attempted == tiny_transport.n_calls
    # the cold set-up is kept apart; every body adds its own set-up
    assert runner.cold_setup_s is not None
    assert len(runner.setup_s) == tiny_transport.setups_per_body + 1
    assert len(runner.calibration) == len(runner.bodies) + 1
    assert metrics["peak_rss_mb"][1] > 0
