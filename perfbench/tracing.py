"""Spans around shelab's public functions, installed from outside.

A target is patched where its callers look it up: a module-level function
is replaced on every loaded ``shelab`` module that holds it (``solve_batch``
is looked up on ``shelab.analysis`` and ``shelab.experiments`` as well as on
``shelab.solver``), and a method on its class.  Nothing in ``src/`` changes.
A target that no longer exists is reported absent, with every metric 0, and
the run goes on.

A span records its name, start, end, parent span, the phase it ran in
(``"setup"`` or an iteration index, which is the identifier all spans of one
iteration share) and, for some targets, the work it did.  Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _steps(cfg, t_final) -> int:
    return round(t_final / cfg.dt)


def _solve_work(fn, args, kwargs, result) -> float:
    a = _bound(fn, args, kwargs)
    return len(a["streams"]) * a["cfg"].grid.n_sites * _steps(a["cfg"], a["t_final"])


def _oracle_work(fn, args, kwargs, result) -> float:
    cfg = _bound(fn, args, kwargs)["cfg"]
    return cfg.walkers * cfg.inner_steps


def _bundle_bytes(fn, args, kwargs, result) -> float:
    return sum(p.stat().st_size for p in Path(result.path).rglob("*") if p.is_file())


# (span name, module, attribute path, work function)
TARGETS = (
    ("noise.white_at", "shelab.noise", "WhiteNoiseSource.white_at", None),
    ("noise.kernel_multiplier", "shelab.noise", "kernel_multiplier", None),
    ("lattice.propagator_multiplier", "shelab.lattice", "propagator_multiplier", None),
    ("correlation.kernel_h_hat_radial", "shelab.noise", "kernel_h_hat_radial", None),
    ("solver.solve_batch", "shelab.solver", "solve_batch", _solve_work),
    ("solver.sigma", "shelab.solver", "SigmaFunction.__call__", None),
    ("solver.localized_solve_batch", "shelab.solver", "localized_solve_batch", _solve_work),
    ("analysis.replica_map", "shelab.analysis", "replica_map", None),
    ("analysis.fk_moment_oracle", "shelab.analysis", "fk_moment_oracle", _oracle_work),
    ("experiments.run", "shelab.experiments", "run", _bundle_bytes),
    ("experiments.validate_manifest", "shelab.experiments", "validate_manifest", None),
    ("experiments.read_bundle", "shelab.experiments", "read_bundle", None),
    ("cli.main", "shelab.cli", "main", None),
)
CHUNK = "analysis.replica_map.chunk"


def _resolve(module: str, path: str):
    """(owner objects to patch, attribute name, original) or None if absent."""
    try:
        mod = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    *owner_path, attr = path.split(".")
    owner = mod
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    if isinstance(owner, type):
        return [owner], attr, original
    owners = [
        m for name, m in list(sys.modules.items())
        if (name == "shelab" or name.startswith("shelab.")) and getattr(m, attr, None) is original
    ]
    return owners, attr, original


class Tracer:
    """Records spans while installed; ``phase`` labels what is running."""

    def __init__(self):
        self.spans = []  # [id, parent, name, t0, t1, phase, work, cpu_s]
        self.phase = "setup"
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _timed(self, name, fn, args, kwargs, work=None, parent=None, cpu=False):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        span = [sid, parent, name, 0.0, 0.0, self.phase, None, None]
        stack.append(sid)
        cpu0 = time.process_time() if cpu else 0.0
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            stack.pop()
            if cpu:
                span[7] = time.process_time() - cpu0
            self.spans.append(span)
        if work is not None:
            try:
                span[6] = work(fn, args, kwargs, result)
            except (TypeError, KeyError, AttributeError, ValueError, OSError):
                pass  # the target's signature changed: report no rate
        return result

    def _wrapper(self, name, original, work):
        tracer = self

        if name == "analysis.replica_map":
            # chunks run on pool threads, so their parent is passed explicitly
            def wrapper(*args, **kwargs):
                try:
                    a = _bound(original, args, kwargs)
                    fn = a["fn"]
                except (TypeError, KeyError):
                    return tracer._timed(name, original, args, kwargs, cpu=True)
                parent = [None]

                def chunk(streams):
                    return tracer._timed(CHUNK, fn, (streams,), {}, parent=parent[0])

                def call(**kw):
                    parent[0] = tracer._stack()[-1]
                    return original(**kw)

                a["fn"] = chunk
                return tracer._timed(name, call, (), a, cpu=True)
            return wrapper

        def wrapper(*args, **kwargs):
            return tracer._timed(name, original, args, kwargs, work=work)
        return wrapper

    def install(self):
        self.absent = []
        for name, module, path, work in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owners, attr, original = found
            wrapper = self._wrapper(name, original, work)
            for owner in owners:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def peak_alloc_mb(run, module="shelab.solver", attr="localized_solve_batch") -> float:
    """Largest tracemalloc peak inside one call of the target during run().

    Kept out of the timed trace: tracemalloc slows numpy-heavy code by more
    than half, which would distort the span times.
    """
    found = _resolve(module, attr)
    if found is None:
        return 0.0
    owners, name, original = found
    peaks = [0]

    def wrapper(*args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    for owner in owners:
        setattr(owner, name, wrapper)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        for owner in owners:
            setattr(owner, name, original)
    return max(peaks) / 2**20


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        kids = [(max(a, s[3]), min(b, s[4])) for a, b in children.get(s[0], ()) if b > s[3] and a < s[4]]
        out[s[0]] = (s[4] - s[3]) - _union_length(kids)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def phase_metrics(spans, wall_s: float, threads: int) -> dict:
    """Per-layer metrics of one phase (set-up or one iteration).

    ``noise.white_at.share`` is white_at busy time, summed over the threads
    that ran it, as a fraction of ``wall_s * threads``: the share of the
    workload's thread capacity spent drawing noise, between 0 and 1 at any
    thread count.
    """
    by = {}
    for s in spans:
        by.setdefault(s[2], []).append(s)
    self_t = _self_times(spans)

    def dur(name):
        return [s[4] - s[3] for s in by.get(name, ())]

    def busy(name):
        return float(sum(dur(name)))

    def selfsum(name):
        return float(sum(self_t[s[0]] for s in by.get(name, ())))

    def per_unit(name, scale):
        ss = [s for s in by.get(name, ()) if s[6]]
        return _ratio(sum(s[4] - s[3] for s in ss) * scale, sum(s[6] for s in ss))

    m = {}
    for name in ("noise.white_at", "noise.kernel_multiplier", "lattice.propagator_multiplier",
                 "correlation.kernel_h_hat_radial", "solver.solve_batch", "solver.sigma",
                 "solver.localized_solve_batch", "analysis.fk_moment_oracle", "cli.main"):
        m[f"{name}.calls"] = len(by.get(name, ()))
    for name in ("noise.white_at", "noise.kernel_multiplier", "lattice.propagator_multiplier",
                 "correlation.kernel_h_hat_radial", "solver.solve_batch", "solver.sigma",
                 "solver.localized_solve_batch", "analysis.fk_moment_oracle", "experiments.run",
                 "experiments.validate_manifest", "experiments.read_bundle"):
        m[f"{name}.busy_s"] = busy(name)
    white = dur("noise.white_at")
    m["noise.white_at.share"] = _ratio(busy("noise.white_at"), wall_s * threads)
    m["noise.white_at.us_p50"] = float(np.percentile(white, 50)) * 1e6 if white else 0.0
    m["noise.white_at.us_p99"] = float(np.percentile(white, 99)) * 1e6 if white else 0.0
    for name in ("solver.solve_batch", "solver.localized_solve_batch"):
        m[f"{name}.self_s"] = selfsum(name)
        m[f"{name}.ns_per_site_step"] = per_unit(name, 1e9)
    chunks = dur(CHUNK)
    rmap = busy("analysis.replica_map")
    m["analysis.replica_map.chunks"] = len(chunks)
    m["analysis.replica_map.chunk_s_p50"] = float(statistics.median(chunks)) if chunks else 0.0
    m["analysis.replica_map.concurrency"] = _ratio(sum(chunks), rmap)
    m["analysis.replica_map.cpu_per_wall"] = _ratio(
        sum(s[7] or 0.0 for s in by.get("analysis.replica_map", ())), rmap)
    m["analysis.fk_moment_oracle.ns_per_walker_step"] = per_unit("analysis.fk_moment_oracle", 1e9)
    m["experiments.overhead_s"] = selfsum("experiments.run")
    m["experiments.bytes_written"] = float(sum(s[6] or 0 for s in by.get("experiments.run", ())))
    m["cli.overhead_s"] = selfsum("cli.main")
    return m


# Metrics that add up over phases; the rest are rates, shares and quantiles.
def _additive(name: str) -> bool:
    return name.endswith((".calls", ".busy_s", ".self_s", ".overhead_s", ".chunks", ".bytes_written"))


def summarize(spans, walls: dict, threads: int) -> dict:
    """Per-layer metrics: set-up plus the median iteration.

    ``walls`` maps each traced iteration index to its wall time; ``threads``
    is the workload's replica-farm thread count.  Counts and
    times add the set-up phase to the median over iterations, so a cost that
    moves between set-up and the iterations still shows; rates, shares and
    quantiles are medians over iterations alone.
    """
    setup = phase_metrics([s for s in spans if s[5] == "setup"], 0.0, threads)
    per_iter = [phase_metrics([s for s in spans if s[5] == i], w, threads) for i, w in walls.items()]
    out = {}
    for name in setup:
        med = float(statistics.median(p[name] for p in per_iter))
        out[name] = med + setup[name] if _additive(name) else med
    return out
