"""Execution-backend properties: equivalence, caching, scheduling, resume.

Locks down the contracts of :mod:`repro.parallel.backend`:

* serial / thread / process backends (with and without energy batching)
  produce *identical* transport results and IV curves, and pickled rank
  payloads on the process pool reduce to the sequential ranks exactly,
* self-energy cache hit/miss/invalidation counters match the analytic
  expectations exactly, both on the cache object and in the mirrored
  ``selfenergy_cache.*`` metrics,
* the scheduler's round-robin and contiguous-chunk splitters cover every
  index for any ``n_points % n_ranks`` remainder (regression: a
  remainder must never be dropped), and
* an interrupted sweep resumed from its checkpoint is identical to an
  uninterrupted one under every backend.
"""

import numpy as np
import pytest

from repro.core import (
    DistributedTransport,
    IVSweep,
    SelfConsistentSolver,
)
from repro.observability import MetricsRegistry, use_metrics
from repro.parallel import (
    Decomposition,
    SelfEnergyCache,
    SerialComm,
    choose_level_sizes,
    get_backend,
    lead_token,
    round_robin,
    split_chunks,
)
from repro.resilience import SweepCheckpoint
from tests.conftest import make_transport as _transport

# the ``built`` and ``reference`` fixtures live in tests/conftest.py

BACKENDS = ["serial", "thread", "process"]


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch", [False, True])
    def test_solve_bias_identical(self, built, reference, backend, batch):
        pot, grid, ref = reference
        tc = _transport(
            built, backend=backend, workers=2, batch_energies=batch
        )
        res = tc.solve_bias(pot, 0.05, energy_grid=grid)
        assert res.current_a == ref.current_a
        np.testing.assert_array_equal(res.transmission, ref.transmission)
        np.testing.assert_array_equal(
            res.density_per_atom, ref.density_per_atom
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cached_solve_identical(self, built, reference, backend):
        """The self-energy cache must never change a single bit."""
        pot, grid, ref = reference
        tc = _transport(
            built, backend=backend, workers=2,
            batch_energies=True, sigma_cache=True,
        )
        for _ in range(2):  # second pass served from the cache
            res = tc.solve_bias(pot, 0.05, energy_grid=grid)
            assert res.current_a == ref.current_a
            np.testing.assert_array_equal(res.transmission, ref.transmission)

    def test_wf_backends_agree(self, built):
        """WF batched path uses a different LU backend: a-few-ulp window."""
        pot = np.zeros(built.n_atoms)
        # pin the uniform grid: the comparison below re-solves on the
        # reference's own nodes, which only sees the same integrand when
        # the reference was not adaptively refined ($REPRO_ADAPTIVE)
        ref = _transport(built, method="wf", energy_mode="uniform").solve_bias(
            pot, 0.05
        )
        tc = _transport(
            built, method="wf", backend="thread", workers=2,
            batch_energies=True,
        )
        res = tc.solve_bias(pot, 0.05, energy_grid=ref.energy_grid)
        np.testing.assert_allclose(
            res.transmission, ref.transmission, atol=1e-12, rtol=0.0
        )
        assert res.current_a == pytest.approx(ref.current_a, abs=1e-15)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_iv_curve_identical(self, built, backend):
        vgs = [-0.1, 0.1]
        curves = {}
        for name in ("serial", backend):
            tc = _transport(built, backend=name, workers=2)
            scf = SelfConsistentSolver(built, tc, max_iterations=40)
            curves[name] = IVSweep(scf).transfer_curve(vgs, v_drain=0.05)
        ref, cur = curves["serial"], curves[backend]
        assert len(cur.points) == len(ref.points)
        for a, b in zip(cur.points, ref.points):
            assert a.v_gate == b.v_gate
            assert a.current_a == b.current_a
            assert a.converged == b.converged

    def test_distributed_process_ranks_identical(self, built, reference):
        """Pickled rank payloads on the process pool reduce to the
        sequential ranks' density and current bit-for-bit."""
        pot, _, _ = reference
        ref = DistributedTransport(_transport(built)).solve_bias(
            pot, 0.05, SerialComm(), n_ranks=4
        )
        dt = DistributedTransport(
            _transport(built), backend="process", workers=2
        )
        out = dt.solve_bias(pot, 0.05, SerialComm(), n_ranks=4)
        np.testing.assert_array_equal(
            ref["density_per_atom"], out["density_per_atom"]
        )
        assert ref["current_a"] == out["current_a"]

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        backend = get_backend()
        assert backend.name == "thread"
        assert backend.workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("cuda")


class TestSelfEnergyCache:
    def test_counters_match_analytic_expectation(self, built, reference):
        pot, grid, _ = reference
        cache = SelfEnergyCache()
        registry = MetricsRegistry()
        # counters are a shared-memory contract: pin the serial backend so
        # a REPRO_BACKEND=process environment cannot strand the counts in
        # child processes
        tc = _transport(built, backend="serial", sigma_cache=cache)
        n_e = len(grid.energies)
        with use_metrics(registry):
            tc.solve_bias(pot, 0.05, energy_grid=grid)
            stats = dict(cache.stats)
            # one miss per (energy, lead) on the cold pass
            assert stats["misses"] == 2 * n_e
            assert stats["hits"] == 0
            assert stats["size"] == 2 * n_e
            tc.solve_bias(pot, 0.05, energy_grid=grid)
            stats = dict(cache.stats)
            assert stats["misses"] == 2 * n_e
            assert stats["hits"] == 2 * n_e
        snap = registry.snapshot()
        assert snap.counter("selfenergy_cache.misses") == 2 * n_e
        assert snap.counter("selfenergy_cache.hits") == 2 * n_e

    def test_invalidation_on_potential_update(self, built, reference):
        pot, grid, _ = reference
        cache = SelfEnergyCache()
        tc = _transport(built, backend="serial", sigma_cache=cache)
        tc.solve_bias(pot, 0.05, energy_grid=grid)
        assert cache.stats["invalidations"] == 0
        bumped = pot + 0.01
        tc.solve_bias(bumped, 0.05, energy_grid=grid)
        stats = dict(cache.stats)
        assert stats["invalidations"] == 1
        # everything recomputed after the flush
        assert stats["misses"] == 2 * 2 * len(grid.energies)
        assert stats["hits"] == 0
        # unchanged potential must NOT invalidate
        tc.solve_bias(bumped, 0.05, energy_grid=grid)
        assert cache.stats["invalidations"] == 1
        assert cache.stats["hits"] == 2 * len(grid.energies)

    def test_lru_eviction(self):
        cache = SelfEnergyCache(maxsize=4)
        for i in range(6):
            cache.store(("tok", "left", "sancho", 1e-6, float(i)), i)
        assert len(cache) == 4
        assert cache.stats["evictions"] == 2
        # oldest entries evicted, newest retained
        assert cache.lookup(("tok", "left", "sancho", 1e-6, 0.0)) is None
        assert cache.lookup(("tok", "left", "sancho", 1e-6, 5.0)) == 5

    def test_lead_token_distinguishes_leads(self):
        h00 = np.eye(2, dtype=complex)
        h01 = np.full((2, 2), 0.5, dtype=complex)
        assert lead_token(h00, h01) == lead_token(h00.copy(), h01.copy())
        assert lead_token(h00, h01) != lead_token(h00, 2.0 * h01)
        assert lead_token(h00, h01) != lead_token(h00 + 0.1, h01)

    def test_cache_pickles_without_lock(self):
        import pickle

        cache = SelfEnergyCache()
        cache.store(("t", "left", "sancho", 1e-6, 0.5), 42)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.lookup(("t", "left", "sancho", 1e-6, 0.5)) == 42


class TestSchedulerRemainder:
    """Regression: remainders of n_points % n_ranks must never be dropped."""

    @pytest.mark.parametrize("n_items,n_workers", [
        (7, 3), (11, 4), (41, 8), (5, 8), (1, 4), (0, 3), (12, 12),
    ])
    def test_round_robin_full_coverage(self, n_items, n_workers):
        plan = round_robin(n_items, n_workers)
        assert len(plan) == n_workers
        flat = sorted(i for chunk in plan for i in chunk)
        assert flat == list(range(n_items))
        sizes = [len(chunk) for chunk in plan]
        assert max(sizes, default=0) - min(sizes, default=0) <= 1

    @pytest.mark.parametrize("n_items,n_chunks", [
        (7, 3), (11, 4), (41, 8), (5, 8), (1, 4), (12, 5),
    ])
    def test_split_chunks_contiguous_and_complete(self, n_items, n_chunks):
        chunks = split_chunks(n_items, n_chunks)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(n_items))  # ordered, gapless, complete
        for chunk in chunks:
            assert chunk == list(range(chunk[0], chunk[-1] + 1))

    def test_distributed_uneven_ranks_match_serial(self, built, reference):
        """41 energies over 5 ranks (remainder 1) == the 1-rank answer."""
        pot, grid, _ = reference
        results = {}
        for n_ranks in (1, 5):
            dist = DistributedTransport(_transport(built))
            out = dist.solve_bias(pot, 0.05, SerialComm(), n_ranks=n_ranks)
            results[n_ranks] = out
        # rank-count changes the reduction (sum) order: last-ulp window,
        # far inside the 1e-10 differential contract
        np.testing.assert_allclose(
            results[1]["density_per_atom"], results[5]["density_per_atom"],
            rtol=1e-13, atol=0.0,
        )
        assert results[1]["current_a"] == pytest.approx(
            results[5]["current_a"], rel=1e-13
        )


class TestDecompositionEdges:
    """choose_level_sizes / Decomposition at the degenerate corners."""

    def test_single_rank(self):
        groups = choose_level_sizes(1, n_bias=5, n_k=3, n_energy=41)
        assert groups == (1, 1, 1, 1)
        d = Decomposition(5, 3, 41, groups)
        assert d.n_ranks == 1
        assert len(d.tasks_of_rank(0)) == 5 * 3 * 41
        assert d.coverage_is_exact()
        assert d.efficiency() == 1.0

    @pytest.mark.parametrize("p", [7, 13, 61])
    def test_prime_rank_counts(self, p):
        """A prime P cannot factor evenly: sizes may multiply to < P, but
        every level stays bounded by its work and coverage stays exact."""
        groups = choose_level_sizes(p, n_bias=4, n_k=2, n_energy=11)
        g_b, g_k, g_e, g_s = groups
        assert g_b <= 4 and g_k <= 2 and g_e <= 11
        assert g_b * g_k * g_e * g_s <= p
        d = Decomposition(4, 2, 11, groups)
        assert d.coverage_is_exact()
        assert 0.0 < d.efficiency() <= 1.0

    def test_spatial_overflow_clamped(self):
        """Far more ranks than outer work: the spatial level absorbs the
        excess but never exceeds its cap, and spatial peers share tasks."""
        groups = choose_level_sizes(
            4096, n_bias=2, n_k=2, n_energy=4, max_spatial=8
        )
        assert groups[:3] == (2, 2, 4)
        assert groups[3] <= 8
        d = Decomposition(2, 2, 4, groups)
        assert d.coverage_is_exact()
        rep = d.tasks_of_rank(0)
        for s in range(1, groups[3]):
            assert d.tasks_of_rank(s) == rep

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            choose_level_sizes(0, 1, 1, 1)
        with pytest.raises(ValueError):
            choose_level_sizes(4, 0, 1, 1)
        with pytest.raises(ValueError):
            Decomposition(1, 1, 1, (0, 1, 1, 1))
        with pytest.raises(IndexError):
            Decomposition(1, 1, 1, (1, 1, 1, 1)).rank_coordinates(1)


class TestCheckpointResume:
    VGS = [-0.1, 0.0, 0.1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interrupted_resume_identical(self, built, backend, tmp_path):
        path = tmp_path / "iv.npz"
        kwargs = {"backend": backend, "workers": 2, "batch_energies": True}

        full = IVSweep(SelfConsistentSolver(
            built, _transport(built, **kwargs), max_iterations=40
        )).transfer_curve(self.VGS, v_drain=0.05)

        # kill the sweep at the last bias point
        scf_killed = SelfConsistentSolver(
            built, _transport(built, **kwargs), max_iterations=40
        )
        original_run = scf_killed.run

        def run_then_die(v_gate, *args, **kw):
            if v_gate == self.VGS[2]:
                raise KeyboardInterrupt
            return original_run(v_gate, *args, **kw)

        scf_killed.run = run_then_die
        with pytest.raises(KeyboardInterrupt):
            IVSweep(scf_killed, checkpoint=path).transfer_curve(
                self.VGS, v_drain=0.05
            )
        assert len(SweepCheckpoint(path).load()["points"]) == 2

        resumed = IVSweep(
            SelfConsistentSolver(
                built, _transport(built, **kwargs), max_iterations=40
            ),
            checkpoint=path, resume=True,
        ).transfer_curve(self.VGS, v_drain=0.05)

        assert resumed.report.resumed_points == 2
        assert len(resumed.points) == len(full.points)
        for a, b in zip(resumed.points, full.points):
            assert a.v_gate == b.v_gate
            assert a.current_a == b.current_a
            assert a.converged == b.converged
