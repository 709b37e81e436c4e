"""Quota-linked reporting mechanisms.

Budgeted reporting across K linked copies of a decision problem: quota
construction, minimal-lie strategies, truthfulness audits with explicit
permutation witnesses, exact best responses, and seeded convergence
experiments.
"""

from .core import (
    EnumerationCapError,
    Marginal,
    Message,
    PreferenceVector,
    Problem,
    Quota,
    ValidationError,
    marginal,
    tv_distance,
    validate_problem,
)
from .truthfulness import (
    Audit,
    PermutationWitness,
    audit,
    canonical_minimal_message,
    compute_quota,
    count_minimal_lie_messages,
    is_permutation_truthful,
    lie_count,
    min_lie_count,
    minimal_lie_messages,
    permutation_witness,
    sample_minimal_message,
)
from .optimize import (
    CounterexampleReport,
    SocialChoiceFunction,
    TransportPlan,
    TransportResult,
    best_response_bruteforce,
    best_response_transport,
    message_count,
    payoff,
    verify_counterexample,
)
from .sim import (
    STRATEGY_NAMES,
    SimConfig,
    SimStats,
    run_convergence,
    sample_type_vector,
    stats_to_csv,
)

__version__ = "0.1.0"
