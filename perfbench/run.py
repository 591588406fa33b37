"""End-to-end benchmark of the SCF I-V pipeline with a per-layer ledger.

Run one workload with one seed from the repository root::

    python3 perfbench/run.py --workload iv-fullband-rgf --seed 1 \
        --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mb``) with nothing wrapped.  ``--trace 1`` runs pairs of
bodies on identical inputs, the first untraced and the second with span
wrappers around every layer's public calls, and reports the per-layer
ledger.  Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record
(environment, every body's time, per-layer ledgers, check failures) is
written to ``perfbench/results/``.

Operations are bias points (``iv-fullband-rgf``) or ``solve_bias`` calls
(``transport-process``); an operation that fails any output check counts
as failed.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _child_pids() -> list[int]:
    """Live child processes of this process (the pool workers)."""
    pids = []
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(p) for p in children.read_text().split())
        except OSError:
            continue
    return pids


class Runner:
    """One benchmark run: set-ups, timed bodies, checks, ledger."""

    def __init__(self, workload, seed: int, seconds: float):
        import numpy as np

        self.w = workload
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.setup_s: list[float] = []
        self.cold_setup_s = None
        self.calibration: list[dict] = []
        self._cpu = None
        self.t_start = time.perf_counter()
        self.bodies: list[dict] = []
        self.attempted = 0
        self.failed = 0
        #: traced-run self-checks that failed (outputs or ledger)
        self.mismatches = 0
        self.failures: list[str] = []

    def setup(self):
        state, dt = _timed(self.w.setup)
        self.setup_s.append(dt)
        return state

    def warm_up(self) -> None:
        """One cold set-up (imports, lazy init), timed but not counted."""
        state, self.cold_setup_s = _timed(self.w.setup)
        self.w.teardown(state)
        self.calibrate()

    def calibrate(self) -> None:
        """Record the host's speed and load since the previous record."""
        from perfbench.machine import calibrate, host_cpu_s

        cpu = host_cpu_s(_child_pids())
        entry = {"t_s": time.perf_counter() - self.t_start, **calibrate()}
        if self._cpu is not None:
            busy = cpu["busy_s"] - self._cpu["busy_s"]
            own = cpu["own_s"] - self._cpu["own_s"]
            entry["others_cpu_s"] = busy - own
            entry["steal_s"] = cpu["steal_s"] - self._cpu["steal_s"]
        self._cpu = cpu
        self.calibration.append(entry)

    def check(self, state, inputs, output, label: str) -> None:
        reasons = self.w.check(state, inputs, output)
        self.attempted += len(reasons)
        bad = [f"{label} op {i}: {r}" for i, r in enumerate(reasons) if r]
        self.failed += len(bad)
        self.failures.extend(bad)

    def fits(self, measured: float, last: float) -> bool:
        """Start another body only if it should end inside the window."""
        return measured + last <= self.seconds

    # -- untraced -------------------------------------------------------
    def run_untraced(self) -> dict:
        from perfbench.machine import peak_rss_mb, reset_peak_rss

        self.warm_up()
        measured = 0.0
        while True:
            inputs = self.w.inputs(self.rng)
            for _ in range(self.w.setups_per_body):
                self.w.teardown(self.setup())
            state = self.setup()
            # the peak covers the live set-up and the body, not the
            # discarded set-ups or the checks
            reset_peak_rss(_child_pids())
            output, run_s = _timed(self.w.body, state, inputs)
            rss = peak_rss_mb(_child_pids())
            self.check(state, inputs, output, f"body {len(self.bodies)}")
            self.w.teardown(state)
            self.bodies.append({
                "run_s": run_s, "peak_rss_mb": rss, "inputs": inputs,
                **self.w.work(output),
            })
            self.calibrate()
            measured += run_s
            if not self.fits(measured, run_s):
                break
        return {
            "run_s": ("s", statistics.median(b["run_s"] for b in self.bodies)),
            "setup_s": ("s", statistics.median(self.setup_s)),
            "peak_rss_mb": ("MB", max(b["peak_rss_mb"] for b in self.bodies)),
        }

    # -- traced ---------------------------------------------------------
    def run_traced(self) -> tuple[dict, list]:
        from perfbench.ledger import body_metrics
        from perfbench.machine import blas_peak_gflops
        from perfbench.spans import SpanRecorder, Tracing, layer_ledger
        from perfbench.workloads import block_size

        self.warm_up()
        measured = 0.0
        per_body: list[dict] = []
        block = None
        while True:
            inputs = self.w.inputs(self.rng)
            label = f"pair {len(per_body)}"
            state = self.setup()
            plain, t_plain = _timed(self.w.body, state, inputs)
            self.check(state, inputs, plain, label + " untraced")
            self.w.teardown(state)

            state = self.setup()
            if block is None:
                block = block_size(state)
            recorder = SpanRecorder()
            with Tracing(recorder):
                t0 = time.perf_counter()
                with recorder.span("run", "run"):
                    traced = self.w.body(state, inputs)
                t_traced = time.perf_counter() - t0
            self.check(state, inputs, traced, label + " traced")
            self.w.teardown(state)

            if self.w.values(plain) != self.w.values(traced):
                self.mismatches += 1
                self.failures.append(
                    f"{label}: traced outputs differ from untraced"
                )
            ledger = layer_ledger(recorder.spans, root=0)
            root_s = recorder.spans[0].duration
            gap = sum(row["self_s"] for row in ledger.values()) - root_s
            if abs(gap) > 1e-9 * root_s:
                self.mismatches += 1
                self.failures.append(
                    f"{label}: layer self times miss the root by {gap!r} s"
                )
            per_body.append({
                "ledger": ledger,
                "flops": self.w.flops(traced),
                "overhead_s": t_traced - t_plain,
            })
            self.bodies.append({
                "run_s": t_plain, "traced_s": t_traced, "inputs": inputs,
                **self.w.work(plain),
            })
            self.calibrate()
            measured += t_plain + t_traced
            if not self.fits(measured, t_plain + t_traced):
                break
        metrics = body_metrics(per_body, blas_peak_gflops(block))
        return metrics, [b["ledger"] for b in per_body]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: program source not found under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.machine import clean_environment, environment_record

    removed = clean_environment()  # before repro reads any REPRO_* var
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, args.seconds)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment_record(removed, workload.config()),
    }
    if args.trace:
        metrics, record["ledgers"] = runner.run_traced()
    else:
        metrics = runner.run_untraced()
    correct = runner.failed == 0 and runner.mismatches == 0
    record.update({
        "cold_setup_s": runner.cold_setup_s,
        "setup_s": runner.setup_s,
        "calibration": runner.calibration,
        "bodies": runner.bodies,
        "failures": runner.failures,
    })
    result = {
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (unit, value) in metrics.items()
        },
    }
    record["result"] = result
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
