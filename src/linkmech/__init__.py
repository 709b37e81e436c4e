"""Quota-linked reporting mechanisms.

Budgeted reporting across K linked copies of a decision problem: quota
construction, minimal-lie strategies, truthfulness audits with explicit
permutation witnesses, exact best responses, and seeded convergence
experiments.

The namespace is lazy (PEP 562): ``import linkmech`` loads no submodule, and
each exported name imports its home module on first use, so a command loads
only the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "core": (
        "STRATEGY_NAMES", "EnumerationCapError", "Marginal", "Message", "PreferenceVector", "Problem",
        "Quota", "ValidationError", "marginal", "tv_distance", "validate_problem",
    ),
    "truthfulness": (
        "Audit", "PermutationWitness", "audit", "canonical_minimal_message", "compute_quota",
        "count_minimal_lie_messages", "is_permutation_truthful", "lie_count", "min_lie_count",
        "minimal_lie_messages", "permutation_witness", "sample_minimal_message",
    ),
    "optimize": (
        "CounterexampleReport", "SocialChoiceFunction", "TransportPlan", "TransportResult",
        "best_response_bruteforce", "best_response_transport", "message_count", "payoff",
        "verify_counterexample",
    ),
    "sim": ("SimConfig", "SimStats", "run_convergence", "sample_type_vector", "stats_to_csv"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, read from its home module; an exporting submodule itself."""
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
