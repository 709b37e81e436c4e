"""Seeded Monte Carlo experiments for quota-linked reporting.

Each replication draws an i.i.d. type vector from the prior, applies a
reporting strategy, and records which slots lie and which slots change the
implemented decision.  Replications own independent RNG substreams derived
from (seed, K, replication index).  Each episode is audited and folded into
the per-K totals in label space: the truth's type counts give the distances,
and the per-slot tallies are touched only where the report lies.  Memory
stays O(K) in the number of replications, and output is bit-identical
across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from fractions import Fraction
from itertools import chain, compress, islice
from operator import ne
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    EnumerationCapError,
    Message,
    PreferenceVector,
    Problem,
    Quota,
    ValidationError,
    Weights,
    _cut,
)
from .truthfulness import (
    canonical_minimal_message,
    compute_quota,
    is_permutation_truthful,
    sample_minimal_message,
)
from .optimize import SocialChoiceFunction, best_response_transport

STRATEGY_NAMES = (
    "canonical-min-lie",
    "uniform-min-lie",
    "best-response",
    "custom-permutation-truthful",
)

_SEED_MASK = (1 << 64) - 1

# Largest K a simulation accepts: each episode holds O(K) arrays and lists.
MAX_K = 10**7

StrategyFn = Callable[[PreferenceVector, Quota, np.random.Generator], Message]


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words ``SeedSequence`` splits an int entry ``0 <= n < 2**64`` into."""
    return [n & 0xFFFFFFFF, n >> 32] if n >> 32 else [n]


# numpy's SeedSequence hash and mix constants, and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
# A call's (K, rep) columns are seeded K-major, in chunks of at most this many, each as its first episode starts.
_SEED_BLOCK = 1024


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first n + 1 values of a SeedSequence hash constant, as a uint32 column (read, never written)."""
    return np.array([init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(n + 1)], dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, hc: np.ndarray, j: int, n: int) -> np.ndarray:
    """SeedSequence's hashmix calls j .. j + n - 1, call j + i on row i of ``v`` (or on ``v``)."""
    v = (v ^ hc[j:j + n]) * hc[j + 1:j + n + 1]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _seed_states(head: list, reps: np.ndarray) -> list[tuple[int, int]]:
    """The ``(state, inc)`` that ``PCG64(SeedSequence(head + _words(rep)))`` sets, per column of the uint64
    ``reps`` (each head word is an int or a uint32 column): SeedSequence's mixing of its 4-word pool runs on
    ``uint32`` arrays, and ``pcg64_set_seed``'s two LCG steps in Python ints."""
    words = [*head, reps.astype(np.uint32), (reps >> 32).astype(np.uint32)]
    hc = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(len(words) - 4, 0))
    pool = np.zeros((4, len(reps)), dtype=np.uint32)  # entropy padded with zero words
    for i, word in enumerate(words[:4]):
        pool[i] = word
    pool = _hashmix(pool, hc, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], hc, 4 + 3 * src, 3))
    for i, word in enumerate(words[4:], 4):
        mixed = _mix(pool, _hashmix(word, hc, 4 * i, 4))
        # a rep below 2**32 has no high word; inside the pool its zero is the padding
        pool = np.where(word != 0, mixed, pool) if i == len(words) - 1 else mixed
    # generate_state(4, uint64): 8 hashed words, little-endian pairs, seed then inc
    w = _hashmix(np.concatenate((pool, pool)), _hash_consts(_INIT_B, _MULT_B, 8), 0, 8).astype(np.uint64)
    out = []
    for s0, s1, i0, i1 in zip(*(w[0::2] | w[1::2] << 32).tolist()):
        inc = (i0 << 64 | i1) << 1 & _MASK128 | 1
        out.append((((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc))
    return out


@lru_cache(maxsize=64)
def _sampling_table(prior_items: tuple) -> tuple:
    """Sorted labels, cumulative integer thresholds, common denominator D, the labels as an object array
    indexed by draw, and for 1 < D <= 2**32 the uint32 cuts ceil(c * 2**32 / D) of the cumulative c < D
    and Lemire's threshold 2**32 mod D (else no cuts and None)."""
    types = tuple(t for t, _ in prior_items)
    weights = [Fraction(w) for _, w in prior_items]
    if sum(weights) != 1 or any(w < 0 for w in weights):
        raise ValidationError("prior must be a distribution")
    denom = math.lcm(*(w.denominator for w in weights))
    if denom > 1 << 62:
        raise ValidationError("prior denominator too large for exact integer sampling")
    cum = np.cumsum([int(w * denom) for w in weights])
    labels = np.array(types, dtype=object)
    raw = 1 < denom <= 1 << 32  # the draw from raw 32-bit values applies
    cuts = np.array([-((-c << 32) // denom) for c in cum.tolist() if c < denom and raw], dtype=np.uint32)
    cum.flags.writeable = labels.flags.writeable = cuts.flags.writeable = False  # shared by every caller of the cache
    return types, cum, denom, labels, cuts, (1 << 32) % denom if raw else None


# The last Problem with its sampling table, keyed by identity as in
# optimize._pair_table: the Problem is held, so its id cannot be reused.
_problem_table: tuple = (None, None)


class _EpisodeGenerator(np.random.Generator):
    """``run_convergence``'s generator: ``fresh`` from its re-seeding, with no half word buffered, to its truth draw."""
    fresh = False


def sample_type_vector(prior: Union[Problem, Weights], K: int, rng: np.random.Generator) -> PreferenceVector:
    """K i.i.d. draws from the prior, exact on the prior's rational grid.

    Thresholds ``rng.integers(0, D, size=K)`` over the prior's common denominator D: each type is hit with
    exactly its prior probability, deterministically given the generator state.  A ``PCG64`` with no half
    word buffered gets the same values and end state from raw words where 1 < D <= 2**32 (README, "Seeded
    simulation").  A Problem's table is looked up once per Problem; a ``Weights`` mapping's by its content.
    """
    global _problem_table
    if K < 1:
        raise ValidationError("K must be at least 1")
    # the memo is read once, so a thread that swaps it cannot hand this call another Problem's table
    memo = _problem_table if isinstance(prior, Problem) else (prior, _sampling_table(tuple(sorted(prior.items()))))
    if memo[0] is not prior:
        memo = _problem_table = (prior, _sampling_table(tuple(sorted(prior.prior.items()))))
    types, cum, denom, labels, cuts, reject = memo[1]
    bg, idx, fresh = rng.bit_generator, None, getattr(rng, "fresh", False)
    if reject is not None and (fresh or type(bg) is np.random.PCG64 and not bg.state["has_uint32"]):
        # the last word takes the 32-bit path, whose buffered high half rng.integers leaves in the state
        n, ct = (K - 1) // 2, bg.ctypes
        x = np.empty(K, dtype=np.uint32)
        x[:2 * n] = bg.random_raw(n).view(np.uint32)
        for k in range(2 * n, K):
            x[k] = ct.next_uint32(ct.state)
        if reject and (x * np.uint32(denom) < reject).any():
            bg.advance(-1 - n)  # back to the call's state, buffer still empty
        else:
            idx = cuts.searchsorted(x, "right")
    if idx is None:
        idx = cum.searchsorted(rng.integers(0, denom, size=K), "right")
    return PreferenceVector._from_codes(tuple(labels[idx].tolist()), types, idx)


@dataclass(frozen=True)
class SimConfig:
    """One experiment: a problem, a K grid, and a seeded strategy."""

    problem: Problem
    k_values: tuple[int, ...]
    replications: int
    seed: int
    strategy: str = "canonical-min-lie"
    scf: Optional[SocialChoiceFunction] = None
    custom_strategy: Optional[StrategyFn] = None

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(self.k_values))
        if not self.k_values or any(not isinstance(k, int) or k < 1 for k in self.k_values):
            raise ValidationError("k_values must be positive integers")
        if any(a >= b for a, b in zip(self.k_values, self.k_values[1:])):
            raise ValidationError("k_values must be strictly increasing")
        if self.k_values[-1] > MAX_K:
            raise EnumerationCapError(f"K={_cut(str(self.k_values[-1]))} exceeds the simulation cap {MAX_K}")
        if not isinstance(self.replications, int) or self.replications < 1:
            raise ValidationError("replications must be at least 1")
        if self.strategy not in STRATEGY_NAMES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; choose from {', '.join(STRATEGY_NAMES)}"
            )
        if self.strategy == "custom-permutation-truthful" and not callable(self.custom_strategy):
            raise ValidationError("custom-permutation-truthful requires a custom_strategy callable")


@dataclass(frozen=True)
class SimStats:
    """Per-K aggregates of one convergence run."""

    K: int
    strategy: str
    replications: int
    seed: int
    lie_fraction: float
    lie_fraction_se: Optional[float]
    max_slot_lie_prob: float
    mean_tv_to_quota: float
    mean_tv_to_prior: float
    quota_tv_to_prior: float
    star_bound: float
    efficiency_gap: float

    def to_json_dict(self) -> dict:
        """Every field in declaration order; ``replications`` is keyed ``reps``."""
        return {
            "reps" if f.name == "replications" else f.name: getattr(self, f.name) for f in fields(self)
        }


CSV_COLUMNS = (
    "K",
    "strategy",
    "reps",
    "lie_fraction",
    "lie_fraction_se",
    "max_slot_lie_prob",
    "mean_tv_to_quota",
    "star_bound",
    "efficiency_gap",
    "seed",
)


def stats_to_csv(stats: Sequence[SimStats]) -> str:
    """Render per-K rows in the fixed CSV schema, bit-stable across runs."""
    rows = [s.to_json_dict() for s in stats]
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join("" if r[c] is None else str(r[c]) for c in CSV_COLUMNS) for r in rows]
    return "\n".join(lines) + "\n"


def _resolve_strategy(cfg: SimConfig, f: SocialChoiceFunction) -> StrategyFn:
    if cfg.strategy == "canonical-min-lie":
        return lambda u, q, rng: canonical_minimal_message(u, q)
    if cfg.strategy == "uniform-min-lie":
        return sample_minimal_message
    if cfg.strategy == "best-response":
        return lambda u, q, rng: best_response_transport(u, f, cfg.problem, q).message
    fn = cfg.custom_strategy

    def audited(u: PreferenceVector, q: Quota, rng: np.random.Generator) -> Message:
        m = fn(u, q, rng)
        if not isinstance(m, Message):
            raise ValidationError("custom strategy must return a Message")
        if m.quota != q:
            raise ValidationError("custom strategy returned a message for the wrong quota")
        if not is_permutation_truthful(u, m):
            raise ValidationError("custom strategy produced a truth-permuting report")
        return m

    return audited


def _lottery_ids(f: SocialChoiceFunction, types: Sequence[str]) -> dict[str, int]:
    """Group types by identical outcome lottery: label -> index of the first type with its lottery."""
    lots = [dict(f.lottery(t)) for t in types]
    return {t: lots.index(lot) for t, lot in zip(types, lots)}


def run_convergence(cfg: SimConfig) -> tuple[SimStats, ...]:
    """Run the seeded experiment on every K and aggregate per-slot lie data.

    Episode (K, rep) starts from SeedSequence([seed, K, rep]); the call's states come K-major from one
    vectorized pass per chunk of ``_SEED_BLOCK`` pairs, and the generator is marked as just seeded for
    the truth draw only.  Each episode is folded in label space: one C-level pass finds the lying slots, the
    truth's type counts give both tv excesses in Python ints, and the per-slot lie and decision-change
    tallies are bumped only at lying slots, since a truthful slot cannot change the decision.  Built-in
    minimal-lie strategies must lie in exactly K * tv(marginal, quota) slots, every built-in strategy in
    at most (#types - 1) times that.  A violation is an implementation bug, not bad input: it raises,
    naming the episode that SeedSequence([seed, K, rep]) replays.
    """
    problem = cfg.problem
    f = cfg.scf or SocialChoiceFunction.utility_argmax(problem)
    strategy = _resolve_strategy(cfg, f)
    prior = problem.prior
    # Prior as integers P_t / D over its common denominator D (up to 2**62):
    # K * D * tv(marginal, prior) = sum_t max(c_t * D - K * P_t, 0) and
    # 2 * K * D * tv(quota, prior) = sum_t |q_t * D - K * P_t|, both Python ints.
    types, cum, denom = _sampling_table(tuple(sorted(prior.items())))[:3]
    prior_num = np.diff(cum, prepend=0).tolist()
    n_types = len(types)
    lotid = _lottery_ids(f, types)

    exact_min = cfg.strategy in ("canonical-min-lie", "uniform-min-lie")
    # The relaxed budget is guaranteed for minimal-lie reports, for audited
    # permutation-truthful reports, and for lie-minimal best responses
    # against the default argmax outcome function.
    enforce_star = exact_min or cfg.strategy == "custom-permutation-truthful" or cfg.scf is None

    out = []
    seed = cfg.seed & _SEED_MASK
    reps = cfg.replications
    rng = _EpisodeGenerator(np.random.PCG64())  # re-seeded before every episode
    bitgen = rng.bit_generator
    ks, n = np.array(cfg.k_values, dtype=np.uint32), len(cfg.k_values) * reps  # K < 2**32 is one seed word
    chunks = (np.arange(a, min(a + _SEED_BLOCK, n), dtype=np.uint64) for a in range(0, n, _SEED_BLOCK))
    states = chain.from_iterable(_seed_states(_words(seed) + [ks[g // reps]], g % reps) for g in chunks)
    for K in cfg.k_values:
        quota = compute_quota(prior, K)
        scaled = list(zip(types, quota.counts, [K * p for p in prior_num]))
        d_prior_quota = Fraction(sum(abs(b * denom - p) for _, b, p in scaled), 2 * K * denom)

        slot_lies = [0] * K
        slot_gaps = [0] * K
        sum_lies = 0
        sum_lies_sq = 0
        sum_excess_q = 0  # sum over episodes of K * tv(marginal, quota)
        sum_excess_p = 0  # sum over episodes of K * D * tv(marginal, prior)
        for rep, (state, inc) in enumerate(islice(states, reps)):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
            rng.fresh = True
            u = sample_type_vector(problem, K, rng)
            rng.fresh = False
            try:
                m = strategy(u, quota, rng)
            except RuntimeError as exc:
                if not str(exc).startswith("internal:"):
                    raise
                raise RuntimeError(f"{exc} ({cfg.strategy}, seed {seed}, K {K}, replication {rep})") from exc
            ue, me = u.entries, m.entries
            lying = list(compress(range(K), map(ne, ue, me)))
            lies = len(lying)
            counts = u._type_counts()
            excess_q = sum(counts[t] - b for t, b, _ in scaled if counts[t] > b)
            if exact_min and lies != excess_q or enforce_star and lies > (n_types - 1) * excess_q:
                what = ("minimal-lie strategy missed the minimum" if exact_min and lies != excess_q
                        else "strategy exceeded the relaxed lie budget")
                raise RuntimeError(f"internal: {what} ({cfg.strategy}, seed {seed}, K {K}, replication {rep})")
            for k in lying:
                slot_lies[k] += 1
                if lotid[ue[k]] != lotid[me[k]]:
                    slot_gaps[k] += 1
            sum_lies += lies
            sum_lies_sq += lies * lies
            sum_excess_q += excess_q
            sum_excess_p += sum(max(counts[t] * denom - p, 0) for t, _, p in scaled)

        lie_fraction = sum_lies / (reps * K)
        if reps > 1:
            var_lies = (sum_lies_sq - sum_lies * sum_lies / reps) / (reps - 1)
            se = math.sqrt(max(var_lies, 0.0) / reps) / K
        else:
            se = None
        mean_tvq = Fraction(sum_excess_q, reps * K)
        mean_tvp = Fraction(sum_excess_p, reps * K * denom)
        out.append(
            SimStats(
                K=K,
                strategy=cfg.strategy,
                replications=reps,
                seed=cfg.seed,
                lie_fraction=lie_fraction,
                lie_fraction_se=se,
                max_slot_lie_prob=max(slot_lies) / reps,
                mean_tv_to_quota=float(mean_tvq),
                mean_tv_to_prior=float(mean_tvp),
                quota_tv_to_prior=float(d_prior_quota),
                star_bound=float((n_types - 1) * (mean_tvp + d_prior_quota)),
                efficiency_gap=max(slot_gaps) / reps,
            )
        )
    return tuple(out)

