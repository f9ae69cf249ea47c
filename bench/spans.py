"""In-memory call spans for the traced benchmark run.

A traced invocation wraps every public function of the dsi_lab layers
(``core``, ``lamperti``, ``markov_cov``, ``spectral``, ``sbm_sim``) and the
``cli.cmd_*`` commands at every name a dsi_lab module binds them to,
including ``cli._DISPATCH``.  The package source is not edited: the
wrappers are installed from here, inside the child process, after import.

Each call records one span ``[name, start, end, parent]``; ``parent`` is
the index of the enclosing span in the same invocation (-1 for the root).
run.py turns a list of spans into per-function calls and self time,
where self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

MODULES = ("cli", "core", "lamperti", "markov_cov", "spectral", "sbm_sim")
ROOT = "cli.main"


def _count_paths(counts, args, kwargs, result):
    # one Philox stream per path, K standard normals from each
    P, K = result.paths.shape
    counts["sbm_sim.streams_built"] += P
    counts["sbm_sim.normals_drawn"] += P * K


def _count_density(counts, args, kwargs, result):
    M, q, _ = result.matrices.shape
    counts["spectral.density_entries"] += M * q * q
    if result.meta is not None:
        counts["spectral.series_terms"] += result.meta.n_terms


def _count_inversion(counts, args, kwargs, result):
    evaluation = args[0] if args else kwargs["evaluation"]
    n_tau, q, _ = result.matrices.shape
    counts["spectral.invert_cmacs"] += n_tau * evaluation.omegas.size * q * q


# work counts computed from a call's arguments and result, not timed
COUNTERS = {
    "sbm_sim.simulate_paths": _count_paths,
    "spectral.spectral_markov": _count_density,
    "spectral.spectral_sbm": _count_density,
    "spectral.spectral_series": _count_density,
    "spectral.invert_spectrum": _count_inversion,
}
COUNT_NAMES = (
    "sbm_sim.normals_drawn",
    "sbm_sim.streams_built",
    "spectral.density_entries",
    "spectral.invert_cmacs",
    "spectral.series_terms",
)


class Tracer:
    """Span recorder for one invocation; spans stay in memory until dumped."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._local = threading.local()

    def begin(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self.counts, args, kwargs, result)
                return result
            finally:
                self.end(span)

        traced.span_name = name
        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap the layer functions everywhere dsi_lab binds them; return their names."""
    cli = sys.modules["dsi_lab.cli"]
    wrapped = {}
    for layer in MODULES:
        mod = sys.modules[f"dsi_lab.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            if layer == "cli" and not attr.startswith("cmd_"):
                continue
            wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)

    dsi_modules = [
        mod for name, mod in sys.modules.items()
        if name == "dsi_lab" or name.startswith("dsi_lab.")
    ]
    for mod in dsi_modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for key, fn in cli._DISPATCH.items():
        cli._DISPATCH[key] = wrapped.get(fn, fn)

    for mod in dsi_modules:
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj in wrapped:
                raise RuntimeError(f"{mod.__name__}.{attr} is still unwrapped")
    return sorted(w.span_name for w in wrapped.values())


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per-function ``calls``, ``total_s`` and ``self_s`` of one invocation."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, parent), inner in zip(spans, child_s):
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += end - start - inner
    return out


def module_self_s(summary) -> dict[str, float]:
    """Self time per module: ``cli`` holds the root span and the commands."""
    out = dict.fromkeys(MODULES, 0.0)
    for name, rec in summary.items():
        out[name.split(".", 1)[0]] += rec["self_s"]
    return out
