"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each linkmech layer from outside:
it replaces the name every linkmech module looks up (for example
``linkmech.sim.canonical_minimal_message``) with a timing wrapper, and
restores the originals afterwards.  Nothing under ``src/`` is edited.
Spans are kept in memory and written to a file when the run ends; the
per-layer metrics are derived from them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

# (defining module, attribute, span name, captures the call arguments)
FUNCTIONS = (
    ("core", "validate_problem", "core.validate_problem", False),
    ("core", "marginal", "core.marginal", False),
    ("core", "tv_distance", "core.tv_distance", False),
    ("truthfulness", "compute_quota", "truthfulness.compute_quota", False),
    ("truthfulness", "lie_count", "truthfulness.lie_count", False),
    ("truthfulness", "min_lie_count", "truthfulness.min_lie_count", False),
    ("truthfulness", "canonical_minimal_message", "truthfulness.canonical_minimal_message", False),
    ("truthfulness", "sample_minimal_message", "truthfulness.sample_minimal_message", False),
    ("truthfulness", "is_permutation_truthful", "truthfulness.is_permutation_truthful", False),
    ("truthfulness", "permutation_witness", "truthfulness.permutation_witness", True),
    ("optimize", "best_response_transport", "optimize.best_response_transport", True),
    ("sim", "sample_type_vector", "sim.sample_type_vector", False),
    ("sim", "run_convergence", "sim.run_convergence", True),
    ("cli", "main", "cli.main", False),
)
# Dataclass validation hooks; their time is reported as core.object_validation.
VALIDATORS = ("PreferenceVector", "Marginal", "Message")
LAYERS = ("core", "truthfulness", "optimize", "sim", "cli")


class Tracer:
    """Records (name, request, parent, start_ns, end_ns, args) per call."""

    def __init__(self, linkmech_modules: dict):
        self.mods = linkmech_modules
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, keep_args: bool):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, self.request, parent, t0, t1, args if keep_args else None)

        return traced

    def install(self) -> None:
        for home, attr, name, keep_args in FUNCTIONS:
            original = getattr(self.mods[home], attr)
            wrapper = self._wrap(name, original, keep_args)
            for mod in self.mods.values():
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for cls_name in VALIDATORS:
            cls = getattr(self.mods["core"], cls_name)
            original = cls.__dict__["__post_init__"]
            self._undo.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(f"core.{cls_name}.__post_init__", original, False)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, req, parent, t0, t1, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "request": req, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


def layer_metrics(spans: list, audit_calls: int, untraced_ns: int, traced_ns: int) -> dict:
    """Per-layer metrics from a finished span list, as {name: (value, unit)}."""
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, int] = defaultdict(int)
    child_ns = [0] * len(spans)
    for name, _, parent, t0, t1, _ in spans:
        calls[name] += 1
        incl[name] += t1 - t0
        if parent >= 0:
            child_ns[parent] += t1 - t0
    self_ns: dict[str, int] = defaultdict(int)
    for i, (name, _, _, t0, t1, _) in enumerate(spans):
        self_ns[name] += t1 - t0 - child_ns[i]

    # Episodes and per-K segments of run_convergence.  Each K starts with one
    # compute_quota call made directly by run_convergence; a segment runs to
    # the next one (or the end of the call) and covers that K's episodes and
    # its aggregation.
    episodes = 0
    k_ns: dict[int, int] = defaultdict(int)
    k_eps: dict[int, int] = defaultdict(int)
    quota_children: dict[int, list[int]] = defaultdict(list)
    for name, _, parent, t0, _, _ in spans:
        if name == "truthfulness.compute_quota" and parent >= 0 and spans[parent][0] == "sim.run_convergence":
            quota_children[parent].append(t0)
    for i, (name, _, _, t0, t1, args) in enumerate(spans):
        if name != "sim.run_convergence":
            continue
        cfg = args[0]
        episodes += cfg.replications * len(cfg.k_values)
        starts = sorted(quota_children[i])
        if len(starts) == len(cfg.k_values):
            for K, a, b in zip(cfg.k_values, starts, starts[1:] + [t1]):
                k_ns[K] += b - a
                k_eps[K] += cfg.replications

    witness_k4096 = [t1 - t0 for name, _, _, t0, t1, args in spans
                     if name == "truthfulness.permutation_witness" and len(args[0].entries) == 4096]
    transport_counts = {
        tuple(sorted(args[0].counts().items()))
        for name, *_, args in spans if name == "optimize.best_response_transport"
    }
    validation_ns = sum(t1 - t0 for name, _, parent, t0, t1, _ in spans
                        if name.endswith("__post_init__")
                        and not (parent >= 0 and spans[parent][0].endswith("__post_init__")))

    def per(total_ns: float, count: int, scale: float) -> float:
        return total_ns / count / scale if count else 0.0

    m: dict[str, tuple[float, str]] = {}
    for _, _, name, _ in FUNCTIONS:
        m[f"{name}.calls"] = (calls[name], "count")
    m["core.object_validation.calls"] = (sum(calls[f"core.{c}.__post_init__"] for c in VALIDATORS), "count")
    m["sim.episodes"] = (episodes, "count")
    m["sim.run_convergence.self_us_per_episode"] = (per(self_ns["sim.run_convergence"], episodes, 1e3), "us")
    for K in (4, 256):
        m[f"sim.run_convergence.k{K}.us_per_episode"] = (per(k_ns[K], k_eps[K], 1e3), "us")
    for name in ("sim.sample_type_vector", "truthfulness.canonical_minimal_message",
                 "truthfulness.sample_minimal_message", "truthfulness.compute_quota",
                 "truthfulness.is_permutation_truthful", "truthfulness.min_lie_count",
                 "truthfulness.lie_count", "optimize.best_response_transport",
                 "core.marginal", "core.tv_distance"):
        m[f"{name}.us_per_call"] = (per(incl[name], calls[name], 1e3), "us")
    pw = "truthfulness.permutation_witness"
    m[f"{pw}.ms_per_call"] = (per(incl[pw], calls[pw], 1e6), "ms")
    m[f"{pw}.k4096.calls"] = (len(witness_k4096), "count")
    m[f"{pw}.k4096.ms_per_call"] = (per(sum(witness_k4096), len(witness_k4096), 1e6), "ms")
    m[f"{pw}.share"] = (incl[pw] / incl["cli.main"] if incl["cli.main"] else 0.0, "ratio")
    m["optimize.distinct_count_ratio"] = (
        len(transport_counts) / calls["optimize.best_response_transport"]
        if calls["optimize.best_response_transport"] else 0.0, "ratio")
    m["core.object_validation.us_per_episode"] = (per(validation_ns, episodes, 1e3), "us")
    m["core.validate_problem.ms"] = (per(incl["core.validate_problem"], calls["core.validate_problem"], 1e6), "ms")
    m["cli.main.self_ms_per_audit"] = (per(self_ns["cli.main"], audit_calls, 1e6), "ms")
    m["trace.overhead_ratio"] = (traced_ns / untraced_ns, "ratio")
    return m
