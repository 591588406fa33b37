"""Machine facts recorded with every run: environment, BLAS, memory.

Nothing here changes how the program executes except
:func:`clean_environment`, which removes every ``REPRO_*`` variable so
that a CI leg's exported execution mode (``REPRO_PRECISION=mixed``,
``REPRO_ZERO_COPY=1``, ...) cannot leak into the measured program.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time

__all__ = [
    "clean_environment",
    "environment_record",
    "blas_peak_gflops",
    "calibrate",
    "host_cpu_s",
    "peak_rss_mb",
    "reset_peak_rss",
]


def clean_environment() -> list[str]:
    """Remove every ``REPRO_*`` variable; return the names removed."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    return removed


def _blas_info() -> dict:
    import numpy as np

    info = {"vendor": "unknown", "version": "unknown", "threads": None}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        info["vendor"] = str(blas.get("name", "unknown"))
        info["version"] = str(blas.get("version", "unknown"))
    except (TypeError, KeyError, AttributeError):
        pass
    # OpenBLAS builds export a thread-count getter; the symbol carries the
    # build's suffix (``scipy_openblas_..._64_`` in the wheels)
    candidates = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    try:
        import numpy.linalg._umath_linalg as ul

        lib = ctypes.CDLL(ul.__file__)
    except (ImportError, OSError):
        return info
    for name in candidates:
        fn = getattr(lib, name, None)
        if fn is None:
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        info["threads"] = int(fn())
        break
    return info


def environment_record(removed_env: list[str], config: dict) -> dict:
    """Everything needed to interpret a run's numbers later."""
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "removed_env": removed_env,
        "execution_config": config,
    }


def blas_peak_gflops(block: int, seconds: float = 0.25) -> float:
    """Best stacked complex128 matmul rate (GFlop/s) at one block size.

    The stack depth is chosen so one product is ~16 MFlop (so tiny blocks
    measure the same batched dispatch the kernels see), and the best of
    repeated products within ``seconds`` is reported.
    """
    import numpy as np

    m = int(block)
    flops_one = 8.0 * m ** 3
    depth = max(1, int(16e6 / flops_one))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((depth, m, m)) + 1j * rng.standard_normal(
        (depth, m, m)
    )
    b = a.conj().transpose(0, 2, 1).copy()
    out = np.empty_like(a)
    np.matmul(a, b, out=out)  # warm-up
    best = float("inf")
    t_end = time.perf_counter() + seconds
    reps = 0
    while reps < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - t0)
        reps += 1
    return depth * flops_one / best / 1e9


def calibrate() -> dict:
    """Host speed right now: a fixed pure-Python loop and a fixed matmul.

    Neither touches the program.  Recorded with every body, they show
    whether a shift between runs comes from the host rather than the
    code.  Each figure is the median of three timings, in seconds.
    """
    import numpy as np

    def loop():
        total = 0
        for i in range(200_000):
            total += i
        return total

    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 70, 70)) * (1 + 1j)
    out = np.empty_like(a)
    times = {"python_loop_s": [], "matmul_s": []}
    for _ in range(3):
        t0 = time.perf_counter()
        loop()
        times["python_loop_s"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(10):
            np.matmul(a, a, out=out)
        times["matmul_s"].append(time.perf_counter() - t0)
    return {k: sorted(v)[1] for k, v in times.items()}


def _ticks() -> float:
    return float(os.sysconf("SC_CLK_TCK"))


def host_cpu_s(worker_pids=()) -> dict:
    """Cumulative CPU seconds: the whole host's, this run's, and stolen.

    ``busy_s`` is every CPU's user+system time from ``/proc/stat``,
    ``own_s`` the CPU time of this process, its reaped children and the
    given live workers, and ``steal_s`` the time the hypervisor gave the
    host's virtual CPUs to someone else.  Differences between two calls
    show how much of the host other work took during a body.
    """
    tick = _ticks()
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal ...
    busy = f[0] + f[1] + f[2] + f[5] + f[6]
    steal = f[7] if len(f) > 7 else 0
    t = os.times()
    own = t.user + t.system + t.children_user + t.children_system
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            own += (int(fields[11]) + int(fields[12])) / tick
        except (OSError, IndexError, ValueError):
            continue
    return {"busy_s": busy / tick, "own_s": own, "steal_s": steal / tick}


def reset_peak_rss(worker_pids=()) -> None:
    """Reset the peak resident set (VmHWM) of this process and workers."""
    for pid in ("self", *worker_pids):
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass


def _vm_hwm_kb(pid) -> int:
    """Peak resident set (VmHWM, kB) of a live process, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(worker_pids=()) -> float:
    """Peak resident memory of this process plus the given live workers.

    A forked worker's figure also counts the pages it still shares with
    the parent, so the sum overstates physical memory by that much.
    """
    total_kb = _vm_hwm_kb("self")
    total_kb += sum(_vm_hwm_kb(pid) for pid in worker_pids)
    return total_kb / 1024.0
