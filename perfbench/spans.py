"""Outside-in span recorder for the traced benchmark run.

The benchmark never edits the program: it wraps the *public* calls of each
layer (class methods and the module-level names callers bind) with a thin
recorder, runs one traced body, and restores every original attribute
afterwards.  Spans stay in memory; :func:`self_times` and
:func:`layer_ledger` turn them into per-layer self times and counts once
the body has finished.

A span's self time is its duration minus the union of its children's
intervals (clipped to the span), so nested and back-to-back children are
both handled, and the self times of all spans under a root add up exactly
to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanRecorder",
    "Tracing",
    "LAYERS",
    "self_times",
    "union_length",
    "layer_ledger",
]


@dataclass
class Span:
    """One recorded call: ``[start, end)`` on the recorder's clock."""

    name: str
    layer: str
    start: float
    end: float = float("nan")
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> int:
        """Start a span under the innermost open span of this thread."""
        stack = self._stack()
        span = Span(
            name, layer, self.clock(), parent=stack[-1] if stack else -1
        )
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        """End span ``idx`` (must be the innermost open span)."""
        span = self.spans[idx]
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if counts:
            span.counts.update(counts)

    def span(self, name: str, layer: str):
        """Context manager form of :meth:`open`/:meth:`close`."""
        return _SpanContext(self, name, layer)


class _SpanContext:
    def __init__(self, recorder, name, layer):
        self.recorder, self.name, self.layer = recorder, name, layer

    def __enter__(self):
        self.idx = self.recorder.open(self.name, self.layer)
        return self.recorder.spans[self.idx]

    def __exit__(self, *exc):
        self.recorder.close(self.idx)
        return False


# ---------------------------------------------------------------------------
# self-time arithmetic


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of child intervals."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(i, ())
        ]
        out.append(span.duration - union_length(clipped))
    return out


# ---------------------------------------------------------------------------
# wrapped public calls, one group per layer


def _n_energies(args, kwargs, result) -> dict:
    energies = args[1] if len(args) > 1 else kwargs.get("energies", ())
    return {"energies": len(energies)}


def _one_energy(args, kwargs, result) -> dict:
    return {"energies": 1}


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": int(result.n_iterations)}


def _bias_points(args, kwargs, result) -> dict:
    return {"bias_points": len(result.points)}


def _energy_points(args, kwargs, result) -> dict:
    return {"energy_points": int(result.transmission.size)}


def _map_items(args, kwargs, result) -> dict:
    items = args[2] if len(args) > 2 else kwargs["items"]
    # pickled size is computed after the run (see layer_ledger), so the
    # serialisation cost never lands inside a measured span
    return {"tasks": len(items), "items": items}


#: (module, qualified attribute, layer, count extractor).  A dotted
#: attribute names a class method; a plain one a module-level function,
#: patched in every ``repro`` module that binds the same object.
LAYERS = (
    ("repro.core.iv", "IVSweep.transfer_curve", "iv", _bias_points),
    ("repro.core.scf", "SelfConsistentSolver.run", "scf", _iterations),
    ("repro.poisson.nonlinear", "NonlinearPoisson.solve", "poisson",
     _iterations),
    ("repro.poisson.nonlinear", "AndersonMixer.update", "mixing", None),
    ("repro.core.transport", "TransportCalculation.solve_bias",
     "transport", _energy_points),
    ("repro.core.transport", "TransportCalculation.energy_grid",
     "transport.grid", None),
    ("repro.core.transport", "TransportCalculation.hamiltonian", "tb", None),
    ("repro.wf.qtbm", "WFSolver.self_energies", "contacts", _one_energy),
    ("repro.wf.qtbm", "WFSolver.self_energies_batch", "contacts",
     _n_energies),
    ("repro.negf.rgf", "RGFSolver.self_energies", "contacts", _one_energy),
    ("repro.negf.rgf", "RGFSolver.self_energies_batch", "contacts",
     _n_energies),
    ("repro.wf.qtbm", "WFSolver.solve", "kernel", _one_energy),
    ("repro.wf.qtbm", "WFSolver.solve_batch", "kernel", _n_energies),
    ("repro.negf.rgf", "RGFSolver.solve", "kernel", _one_energy),
    ("repro.negf.rgf", "RGFSolver.solve_batch", "kernel", _n_energies),
    ("repro.resilience.health", "HealthSentinel.check_finite", "health",
     None),
    ("repro.resilience.health", "HealthSentinel.check_condition", "health",
     None),
    ("repro.resilience.health", "HealthSentinel.check_residual", "health",
     None),
    ("repro.resilience.health", "condition_estimate", "health", None),
    ("repro.parallel.backend", "ExecutionBackend.map", "parallel",
     _map_items),
    ("repro.parallel.backend", "SerialBackend.map", "parallel", _map_items),
    ("repro.parallel.backend", "ThreadBackend.map", "parallel", _map_items),
    ("repro.parallel.backend", "ProcessBackend.map", "parallel", _map_items),
)


def _wrap(fn, recorder: SpanRecorder, name: str, layer: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(idx)
            raise
        recorder.close(
            idx, count(args, kwargs, result) if count is not None else None
        )
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


class Tracing:
    """Install span wrappers on every :data:`LAYERS` entry; restore on exit.

    Usage::

        recorder = SpanRecorder()
        with Tracing(recorder):
            ...  # calls into repro are recorded

    Every patched attribute is put back exactly (the original object, in
    the owning class or module ``__dict__``), even if the body raises.
    """

    def __init__(self, recorder: SpanRecorder, layers=LAYERS):
        self.recorder = recorder
        self.layers = layers
        self._saved: list = []

    def _targets(self, module_name: str, attr: str):
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            # only methods the class defines itself: an inherited one is
            # already wrapped on the base class
            if meth in owner.__dict__:
                yield owner, meth
            return
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if (
                (mod_name == "repro" or mod_name.startswith("repro."))
                and mod is not None
                and mod.__dict__.get(attr) is original
            ):
                yield mod, attr

    def __enter__(self):
        wrappers: dict = {}  # one wrapper per original, however bound
        try:
            for module_name, attr, layer, count in self.layers:
                for owner, name in self._targets(module_name, attr):
                    original = owner.__dict__[name]
                    if id(original) not in wrappers:
                        wrappers[id(original)] = _wrap(
                            original, self.recorder, attr, layer, count
                        )
                    self._saved.append((owner, name, original))
                    setattr(owner, name, wrappers[id(original)])
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every patched attribute back (idempotent)."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# per-layer ledger


def _pickled_size(items) -> int:
    return sum(
        len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
        for item in items
    )


def layer_ledger(spans, root: int) -> dict:
    """Self time, call count and summed counts per layer under ``root``.

    Returns ``{layer: {"calls", "self_s", <count>: total, ...}}`` for every
    span descending from ``root`` (the root itself is the ``run`` layer).
    The ``self_s`` values of all layers add up to the root's duration.
    """
    selfs = self_times(spans)
    inside = {root}
    ledger: dict = {}
    for i, span in enumerate(spans):
        if i != root and span.parent not in inside:
            continue
        inside.add(i)
        row = ledger.setdefault(span.layer, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        for key, val in span.counts.items():
            if key == "items":
                row["payload_bytes"] = (
                    row.get("payload_bytes", 0) + _pickled_size(val)
                )
            else:
                row[key] = row.get(key, 0) + val
    return ledger
