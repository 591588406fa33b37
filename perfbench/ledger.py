"""Per-layer metrics from a traced body's ledger.

Layer names follow the package layout (see ``README.md`` in this
directory).  Flops are the program's *counted* analytic ledger
(``IVCurve.flops`` / ``TransportResult.flops``): ``surface_gf`` is
charged to the contacts, ``rgf``/``wf`` to the kernels.  ``*.frac_peak``
divides a layer's counted rate by the BLAS probe's stacked complex128
matmul rate at the workload's block size, measured in the same run.
"""

from __future__ import annotations

__all__ = ["PER_LAYER", "metrics_of", "body_metrics"]

_S, _N = "s", "count"

#: name -> (unit, better) of every per-layer metric the traced run prints
PER_LAYER = {
    "iv.bias_points": (_N, "higher"),
    "iv.self_s": (_S, "lower"),
    "scf.iterations": (_N, "lower"),
    "scf.self_s": (_S, "lower"),
    "poisson.calls": (_N, "lower"),
    "poisson.newton_iterations": (_N, "lower"),
    "poisson.self_s": (_S, "lower"),
    "mixing.self_s": (_S, "lower"),
    "transport.calls": (_N, "lower"),
    "transport.energy_points": (_N, "lower"),
    "transport.self_s": (_S, "lower"),
    "transport.grid_s": (_S, "lower"),
    "tb.hamiltonian_calls": (_N, "lower"),
    "tb.hamiltonian_s": (_S, "lower"),
    "contacts.energies": (_N, "lower"),
    "contacts.self_s": (_S, "lower"),
    "contacts.gflops": ("GFlop/s", "higher"),
    "contacts.frac_peak": ("ratio", "higher"),
    "kernel.calls": (_N, "lower"),
    "kernel.energies": (_N, "lower"),
    "kernel.batch_mean": ("energies/call", "higher"),
    "kernel.self_s": (_S, "lower"),
    "kernel.gflops": ("GFlop/s", "higher"),
    "kernel.frac_peak": ("ratio", "higher"),
    "health.calls": (_N, "lower"),
    "health.self_s": (_S, "lower"),
    "parallel.map_calls": (_N, "lower"),
    "parallel.tasks": (_N, "lower"),
    "parallel.map_s": (_S, "lower"),
    "parallel.payload_bytes": ("bytes", "lower"),
    "trace.overhead_s": (_S, "lower"),
    "residue.self_s": (_S, "lower"),
    "blas.peak_gflops": ("GFlop/s", "higher"),
}


def _rate(flops: float, seconds: float) -> float:
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def metrics_of(ledger: dict, flops: dict, overhead_s: float,
               peak_gflops: float) -> dict:
    """Every :data:`PER_LAYER` value of one traced body."""

    def get(layer, key):
        return ledger.get(layer, {}).get(key, 0)

    contacts_gflops = _rate(flops.get("surface_gf", 0.0),
                            get("contacts", "self_s"))
    kernel_gflops = _rate(flops.get("rgf", 0.0) + flops.get("wf", 0.0),
                          get("kernel", "self_s"))
    kernel_calls = get("kernel", "calls")
    return {
        "iv.bias_points": get("iv", "bias_points"),
        "iv.self_s": get("iv", "self_s"),
        "scf.iterations": get("scf", "iterations"),
        "scf.self_s": get("scf", "self_s"),
        "poisson.calls": get("poisson", "calls"),
        "poisson.newton_iterations": get("poisson", "iterations"),
        "poisson.self_s": get("poisson", "self_s"),
        "mixing.self_s": get("mixing", "self_s"),
        "transport.calls": get("transport", "calls"),
        "transport.energy_points": get("transport", "energy_points"),
        "transport.self_s": get("transport", "self_s"),
        "transport.grid_s": get("transport.grid", "self_s"),
        "tb.hamiltonian_calls": get("tb", "calls"),
        "tb.hamiltonian_s": get("tb", "self_s"),
        "contacts.energies": get("contacts", "energies"),
        "contacts.self_s": get("contacts", "self_s"),
        "contacts.gflops": contacts_gflops,
        "contacts.frac_peak": contacts_gflops / peak_gflops,
        "kernel.calls": kernel_calls,
        "kernel.energies": get("kernel", "energies"),
        "kernel.batch_mean": (
            get("kernel", "energies") / kernel_calls if kernel_calls else 0.0
        ),
        "kernel.self_s": get("kernel", "self_s"),
        "kernel.gflops": kernel_gflops,
        "kernel.frac_peak": kernel_gflops / peak_gflops,
        "health.calls": get("health", "calls"),
        "health.self_s": get("health", "self_s"),
        "parallel.map_calls": get("parallel", "calls"),
        "parallel.tasks": get("parallel", "tasks"),
        "parallel.map_s": get("parallel", "self_s"),
        "parallel.payload_bytes": get("parallel", "payload_bytes"),
        "trace.overhead_s": overhead_s,
        "residue.self_s": get("run", "self_s"),
        "blas.peak_gflops": peak_gflops,
    }


def body_metrics(per_body: list[dict], peak_gflops: float) -> dict:
    """Mean over traced bodies of every per-layer metric, with units.

    Means (not medians) keep the ledger additive: the mean layer self
    times plus ``residue.self_s`` still sum to the mean root span.
    """
    rows = [
        metrics_of(b["ledger"], b["flops"], b["overhead_s"], peak_gflops)
        for b in per_body
    ]
    return {
        name: (unit, sum(r[name] for r in rows) / len(rows))
        for name, (unit, _) in PER_LAYER.items()
    }
