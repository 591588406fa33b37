"""The benchmark's workloads: seeded inputs, set-up, timed body, checks.

Each workload drives the public API exactly as ``repro sweep`` users do
(:class:`~repro.core.IVSweep` over a :class:`~repro.core.SelfConsistentSolver`,
or :class:`~repro.core.TransportCalculation` directly), passing only the
stable user-facing options ``method``, ``n_energy`` and, for the process
workload, ``backend``/``workers``.  Everything else stays at the program's
default, so a later change of default shows up in the numbers.

Every body starts from freshly built device, solver and backend objects;
the seed reaches the program only through the generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SCFWorkload",
    "TransportWorkload",
    "WORKLOADS",
    "block_size",
    "check_scf_curve",
    "check_transport_call",
    "RESOLVE_RTOL",
    "DENSE_RTOL",
]

#: fixed-potential re-solve at the SCF potential must reproduce the
#: reported current to this relative tolerance
RESOLVE_RTOL = 1e-8
#: transmission against the dense oracle (the certified mixed-precision
#: contract, so a later precision default still passes)
DENSE_RTOL = 1e-8

#: drain bias of the SCF transfer sweeps (V)
SCF_V_DRAIN = 0.05
#: the seed shifts the whole gate grid by one offset within +-this (V)
GATE_JITTER_V = 0.01

#: ranges the seed draws each ``solve_bias`` call's barrier height (eV),
#: width (nm) and drain bias (V) from
BARRIER_EV = (0.05, 0.2)
WIDTH_NM = (1.0, 3.0)
CALL_V_DRAIN = (0.05, 0.3)
#: energies per call checked against the dense oracle
CHECKED_ENERGIES = 3
#: energies of the warm-up call that starts the pool during set-up
WARMUP_ENERGIES = 8


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def block_size(state) -> int:
    """Largest Hamiltonian block of a set-up workload (BLAS probe size)."""
    H = state["transport"].hamiltonian(np.zeros(state["built"].n_atoms))
    return int(H.block_sizes.max())


# ---------------------------------------------------------------------------
# SCF I-V sweeps


def check_scf_curve(curve, scf_results, resolve) -> list[str]:
    """Per-point failure reasons of one transfer sweep ('' = point passed).

    ``scf_results`` maps each bias key to the :class:`SCFResult` objects
    the sweep produced; ``resolve(potential_ev, v_drain)`` runs a
    fixed-potential transport solve and returns its current.
    """
    reasons = []
    quarantined_nodes = len(curve.degradation.quarantined_points)
    prev = -math.inf
    for point in curve.points:
        why = []
        i = point.current_a
        if not point.converged:
            why.append("not converged")
        if quarantined_nodes:
            why.append(f"{quarantined_nodes} quarantined energy nodes")
        if not (math.isfinite(i) and i > 0):
            why.append(f"current {i!r} not finite and positive")
        elif not i > prev:
            why.append("current does not increase along V_G")
        if math.isfinite(i):
            prev = max(prev, i)
        key = (point.v_gate, point.v_drain)
        matches = [
            r for r in scf_results.get(key, ())
            if r.transport.current_a == i
        ]
        if not matches:
            why.append("no SCF result carries the reported current")
        else:
            again = resolve(matches[-1].potential_ev, point.v_drain)
            if not _rel(again, i) <= RESOLVE_RTOL:
                why.append(
                    f"fixed-potential re-solve gives {again!r} "
                    f"(rel {_rel(again, i):.2e})"
                )
        reasons.append("; ".join(why))
    return reasons


@dataclass
class SCFWorkload:
    """A transfer sweep ``IVSweep.transfer_curve`` at fixed drain bias.

    The seed shifts the whole gate grid by one common offset drawn
    uniformly within ``+-GATE_JITTER_V``.
    """

    name: str
    why: str
    spec_kwargs: dict
    method: str
    n_energy: int
    gate_voltages: tuple

    #: extra timed set-ups before each untraced body (set-up is short and
    #: noisy, so ``setup_s`` needs many samples spread over the run)
    setups_per_body = 10

    def inputs(self, rng) -> dict:
        offset = float(rng.uniform(-GATE_JITTER_V, GATE_JITTER_V))
        return {"gate_voltages": [v + offset for v in self.gate_voltages]}

    def config(self) -> dict:
        return {
            "method": self.method, "n_energy": self.n_energy,
            "spec": self.spec_kwargs,
        }

    def setup(self) -> dict:
        from repro.core import (
            DeviceSpec, IVSweep, SelfConsistentSolver, TransportCalculation,
            build_device,
        )

        built = build_device(DeviceSpec(**self.spec_kwargs))
        transport = TransportCalculation(
            built, method=self.method, n_energy=self.n_energy
        )
        scf = SelfConsistentSolver(built, transport)
        sweep = IVSweep(scf)
        # keep every SCFResult for the post-run re-solve check: one
        # instance-level pass-through call per bias point, no timing.  The
        # class attribute is looked up per call, so a traced run still
        # goes through the span wrapper installed on the class.
        results: dict = {}

        def run_and_keep(v_gate, v_drain, *args, **kwargs):
            res = SelfConsistentSolver.run(
                scf, v_gate, v_drain, *args, **kwargs
            )
            results.setdefault((float(v_gate), float(v_drain)), []).append(res)
            return res

        scf.run = run_and_keep
        return {
            "built": built, "transport": transport, "scf": scf,
            "sweep": sweep, "results": results,
        }

    def body(self, state, inputs):
        return state["sweep"].transfer_curve(
            inputs["gate_voltages"], v_drain=SCF_V_DRAIN
        )

    def flops(self, output) -> dict:
        return dict(output.flops.counts)

    def values(self, output) -> list[float]:
        """Outputs compared bit-for-bit between traced and untraced runs."""
        return [float(p.current_a) for p in output.points]

    def work(self, output) -> dict:
        """Amount of work a body did, for the run record."""
        return {
            "scf_iterations": [p.n_iterations for p in output.points],
            "currents_a": self.values(output),
            "ladder_steps": dict(output.degradation.ladder_steps),
        }

    def check(self, state, inputs, output) -> list[str]:
        transport = state["transport"]

        def resolve(potential_ev, v_drain):
            grid = transport.energy_grid(potential_ev, v_drain)
            return transport.solve_bias(
                potential_ev, v_drain, energy_grid=grid
            ).current_a

        return check_scf_curve(output, state["results"], resolve)

    def teardown(self, state) -> None:
        state.clear()


# ---------------------------------------------------------------------------
# fixed-potential transport on the process backend


def check_transport_call(result, hamiltonian, energy_indices,
                         transport) -> str:
    """Failure reason of one ``solve_bias`` call ('' = passed).

    Transmission at ``energy_indices`` of the call's grid must match the
    dense oracle :func:`repro.negf.dense_ref.dense_transmission`, and the
    reported current must be the Landauer integral of the reported T(E).
    """
    from repro.negf.dense_ref import dense_transmission
    from repro.negf.observables import landauer_current

    why = []
    current = result.current_a
    if not (math.isfinite(current) and current > 0):
        why.append(f"current {current!r} not finite and positive")
    built = transport.built
    integral = sum(
        wk * landauer_current(
            result.energy_grid, t_k, result.mu_source, result.mu_drain,
            built.spec.kT, spin_degeneracy=transport.spin_degeneracy,
        )
        for wk, t_k in zip(built.momentum_grid.weights, result.transmission)
    )
    if not _rel(current, integral) <= DENSE_RTOL:
        why.append(
            f"current {current!r} is not the Landauer integral {integral!r}"
        )
    leads = (
        (hamiltonian.diagonal[0], hamiltonian.upper[0]),
        (hamiltonian.diagonal[-1], hamiltonian.upper[-1]),
    )
    for j in energy_indices:
        energy = float(result.energy_grid.energies[j])
        ref = dense_transmission(
            hamiltonian, energy, *leads, eta=transport.eta
        )
        got = float(result.transmission[0, j])
        if not _rel(got, ref) <= DENSE_RTOL:
            why.append(
                f"T({energy:.6f} eV) = {got!r} vs dense {ref!r} "
                f"(rel {_rel(got, ref):.2e})"
            )
    return "; ".join(why)


@dataclass
class TransportWorkload:
    """A sequence of fixed-potential ``solve_bias`` calls on a pool.

    The seed draws each call's square barrier (height, width, centred in
    the channel) and drain bias; the energy grid size is fixed, so every
    call does the same number of energy solves.
    """

    name: str
    why: str
    spec_kwargs: dict
    method: str
    n_energy: int
    n_calls: int
    backend: str
    workers: int

    #: extra timed set-ups before each untraced body
    setups_per_body = 1

    def inputs(self, rng) -> dict:
        calls = []
        for _ in range(self.n_calls):
            calls.append({
                "barrier_ev": float(rng.uniform(*BARRIER_EV)),
                "width_nm": float(rng.uniform(*WIDTH_NM)),
                "v_drain": float(rng.uniform(*CALL_V_DRAIN)),
            })
        picks = rng.integers(
            0, self.n_energy, (self.n_calls, CHECKED_ENERGIES)
        )
        return {"calls": calls, "check_indices": picks.tolist()}

    def config(self) -> dict:
        return {
            "method": self.method, "n_energy": self.n_energy,
            "backend": self.backend, "workers": self.workers,
            "n_calls": self.n_calls, "spec": self.spec_kwargs,
        }

    def setup(self) -> dict:
        from repro.core import DeviceSpec, TransportCalculation, build_device
        from repro.physics.grids import EnergyGrid, trapezoid_weights

        built = build_device(DeviceSpec(**self.spec_kwargs))
        transport = TransportCalculation(
            built, method=self.method, n_energy=self.n_energy,
            backend=self.backend, workers=self.workers,
        )
        # start the pool with one small warm-up call (part of set-up)
        zero = np.zeros(built.n_atoms)
        full = transport.energy_grid(zero, 0.0).energies
        pts = np.linspace(full[0], full[-1], WARMUP_ENERGIES)
        transport.solve_bias(
            zero, 0.0, energy_grid=EnergyGrid(pts, trapezoid_weights(pts))
        )
        return {"built": built, "transport": transport}

    def potential(self, built, call) -> np.ndarray:
        x = built.device.structure.positions[:, 0]
        centre = 0.5 * (x.min() + x.max())
        inside = np.abs(x - centre) < 0.5 * call["width_nm"]
        return np.where(inside, call["barrier_ev"], 0.0)

    def body(self, state, inputs):
        built, transport = state["built"], state["transport"]
        potentials = [self.potential(built, c) for c in inputs["calls"]]
        return [
            transport.solve_bias(u, c["v_drain"])
            for u, c in zip(potentials, inputs["calls"])
        ]

    def flops(self, output) -> dict:
        total: dict = {}
        for res in output:
            for key, val in res.flops.counts.items():
                total[key] = total.get(key, 0.0) + val
        return total

    def work(self, output) -> dict:
        """Amount of work a body did, for the run record."""
        return {
            "energy_points": [int(r.transmission.size) for r in output],
            "currents_a": [float(r.current_a) for r in output],
            "ladder_steps": [dict(r.degradation.ladder_steps) for r in output],
        }

    def values(self, output) -> list[float]:
        vals = []
        for res in output:
            vals.append(float(res.current_a))
            vals.extend(float(t) for t in res.transmission.ravel())
        return vals

    def check(self, state, inputs, output) -> list[str]:
        built, transport = state["built"], state["transport"]
        reasons = []
        for res, call, picks in zip(
            output, inputs["calls"], inputs["check_indices"]
        ):
            H = transport.hamiltonian(self.potential(built, call))
            reasons.append(check_transport_call(res, H, picks, transport))
        return reasons

    def teardown(self, state) -> None:
        from repro.parallel.backend import shutdown_pools

        shutdown_pools()
        state.clear()


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        SCFWorkload(
            name="iv-fullband-rgf",
            why=(
                "full-band sp3s* Si wire (8 blocks of 70 orbitals) under "
                "RGF: the paper's NEGF kernel, BLAS-bound in contacts and "
                "block LU"
            ),
            spec_kwargs=dict(
                name="si-fullband", geometry="nanowire-zb",
                material="Si-sp3s*", n_x=8, n_y=2, n_z=1,
                source_cells=2, drain_cells=2, gate_cells=(3, 4),
                donor_density_nm3=0.05,
            ),
            method="rgf",
            n_energy=11,
            gate_voltages=(-0.35, -0.30),
        ),
        TransportWorkload(
            name="transport-process",
            why=(
                "540-atom wire at fixed potential on a 2-worker process "
                "pool: puts dispatch and IPC on the critical path, no SCF"
            ),
            spec_kwargs=dict(
                name="wire540", n_x=30, n_y=3, n_z=6,
                source_cells=5, drain_cells=5, gate_cells=(12, 17),
                donor_density_nm3=0.05, material_params={"m_rel": 0.3},
            ),
            method="wf",
            n_energy=256,
            n_calls=2,
            backend="process",
            workers=2,
        ),
    )
}
