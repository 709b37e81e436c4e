"""The benchmark's tracer reaches into linkmech by name; keep those names working.

``bench/tracing.py`` rebinds module globals and dataclass ``__post_init__``
hooks from outside ``src/``, and the benchmark's self-test expects non-zero
call counts in the layers each workload exercises.  These tests load the
tracer as it is and check that contract in the tier-1 suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from linkmech import PreferenceVector, SimConfig, core, sim

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
BUILDERS = ("canonical_minimal_message", "sample_minimal_message", "best_response_transport")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = load_tracing()
    for home, attr, name, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"linkmech.{home}"), attr, None)), name
    for cls_name in tracing.VALIDATORS:
        assert "__post_init__" in vars(getattr(core, cls_name)), cls_name


@pytest.mark.parametrize(
    "strategy, builder",
    [
        ("canonical-min-lie", "canonical_minimal_message"),
        ("uniform-min-lie", "sample_minimal_message"),
        ("best-response", "best_response_transport"),
    ],
)
def test_run_convergence_calls_traced_globals(monkeypatch, counterexample_problem, strategy, builder):
    calls = dict.fromkeys(("compute_quota", "sample_type_vector", *BUILDERS), 0)
    for attr in calls:

        def counted(*args, _attr=attr, _fn=getattr(sim, attr), **kwargs):
            calls[_attr] += 1
            if _attr == "best_response_transport":
                assert isinstance(args[0], PreferenceVector)  # the tracer reads args[0].counts()
            return _fn(*args, **kwargs)

        monkeypatch.setattr(sim, attr, counted)
    cfg = SimConfig(
        problem=counterexample_problem, k_values=(3, 8, 16), replications=5, seed=1, strategy=strategy
    )
    sim.run_convergence(cfg)
    # one direct compute_quota per K marks the tracer's per-K segments
    assert calls["compute_quota"] == len(cfg.k_values)
    episodes = len(cfg.k_values) * cfg.replications
    assert calls["sample_type_vector"] == episodes
    assert calls[builder] == episodes
    assert all(calls[b] == 0 for b in BUILDERS if b != builder)
