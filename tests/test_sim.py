import dataclasses
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from linkmech import (
    EnumerationCapError,
    Message,
    PreferenceVector,
    Problem,
    SimConfig,
    SocialChoiceFunction,
    ValidationError,
    canonical_minimal_message,
    compute_quota,
    marginal,
    run_convergence,
    sample_type_vector,
    stats_to_csv,
    tv_distance,
)
from linkmech import best_response_transport, is_permutation_truthful, sample_minimal_message, sim
from linkmech.sim import CSV_COLUMNS
from linkmech.core import PRIOR_TOLERANCE, _prior_ints
from helpers import (
    assert_same_vector,
    exhaustive_expected_lie_count,
    oracle_run_convergence,
    oracle_sample_type_vector,
)

ABC = ("A", "B", "C")


def cfg_for(problem, **kw):
    defaults = dict(k_values=(2, 4), replications=200, seed=7)
    defaults.update(kw)
    return SimConfig(problem=problem, **defaults)


class TestSampleTypeVector:
    def test_degenerate_prior(self):
        rng = np.random.default_rng(0)
        v = sample_type_vector({"A": Fraction(1), "B": Fraction(0)}, 20, rng)
        assert v.entries == ("A",) * 20

    def test_seed_determinism(self):
        prior = {"A": Fraction(1, 3), "B": Fraction(1, 3), "C": Fraction(1, 3)}
        a = sample_type_vector(prior, 50, np.random.default_rng(42)).entries
        b = sample_type_vector(prior, 50, np.random.default_rng(42)).entries
        assert a == b

    def test_large_sample_close_to_prior(self):
        prior = {"A": Fraction(1, 2), "B": Fraction(1, 2)}
        v = sample_type_vector(prior, 10**5, np.random.default_rng(314))
        frac_a = v.entries.count("A") / 10**5
        assert abs(frac_a - 0.5) < 0.01

    def test_exact_thresholds_skip_zero_weight_types(self):
        prior = {"A": Fraction(1, 2), "B": Fraction(0), "C": Fraction(1, 2)}
        v = sample_type_vector(prior, 2000, np.random.default_rng(1))
        assert "B" not in v.entries


    @pytest.mark.parametrize(
        "prior, message",
        [
            pytest.param(
                {"A": Fraction(1, 2), "B": Fraction(1, 3)}, "prior: sums to 5/6, expected 1", id="prior0-must be a distribution"
            ),
            ({"A": Fraction(1, 2**63), "B": 1 - Fraction(1, 2**63)}, "denominator too large"),
        ],
    )
    def test_bad_prior_fails_on_every_call(self, prior, message):
        cached = sim._sampling_table.cache_info().currsize
        for seed in range(3):
            with pytest.raises(ValidationError, match=message):
                sample_type_vector(prior, 4, np.random.default_rng(seed))
        assert sim._sampling_table.cache_info().currsize == cached

    @pytest.mark.parametrize("K", [True, 2.0, "3", None, [4]])
    def test_rejects_a_k_that_is_no_integer(self, K):
        # each raised numpy's own TypeError, where compute_quota raised this
        with pytest.raises(ValidationError, match="^K must be a positive integer, got "):
            sample_type_vector({"A": Fraction(1, 2), "B": Fraction(1, 2)}, K, np.random.default_rng(0))

    def test_accepts_a_numpy_integer_k(self):
        prior = {"A": Fraction(1, 3), "B": Fraction(2, 3)}
        for K in (np.int64(9), np.uint32(9)):
            got = sample_type_vector(prior, K, np.random.default_rng(5)).entries
            assert got == sample_type_vector(prior, 9, np.random.default_rng(5)).entries

    def test_near_one_prior_draws_over_its_sum(self):
        # sums within the tolerance of 1 (the floats' exact binary values sum to
        # 1 - 2.8e-17): each type is drawn with probability P_t / sum_t P_t
        for prior in ({"A": 0.1, "B": 0.2, "C": 0.7}, {"A": Fraction(1, 2) + Fraction(1, 10**13), "B": Fraction(1, 2)}):
            types, nums, D = _prior_ints(prior)
            assert sum(nums) != D
            cum = np.cumsum(nums)
            for K in (1, 7, 64):
                got = sample_type_vector(prior, K, np.random.default_rng(K)).entries
                want = cum.searchsorted(np.random.default_rng(K).integers(0, sum(nums), size=K), "right")
                assert got == tuple(types[i] for i in want)

    def test_quota_sampler_and_simulation_agree_on_priors(self):
        # the sampler once demanded a sum of exactly 1 where the quota allowed a drift
        third = 1 / 3
        priors = [{"A": Fraction(1, 2) + drift, "B": Fraction(1, 4), "C": Fraction(1, 4)}
                  for drift in (0, PRIOR_TOLERANCE, -PRIOR_TOLERANCE, Fraction(1, 10**13),
                                PRIOR_TOLERANCE + Fraction(1, 10**15), Fraction(-1, 10**11), Fraction(1, 6))]
        priors += [{"A": 0.1, "B": 0.2, "C": 0.7}, {"A": third, "B": third, "C": third},
                   {"A": 0.3, "B": 0.3, "C": 0.3}, {"A": 0, "B": 0, "C": 0}]
        accepted = 0
        for prior in priors:
            problem = Problem(("x",), ("A", "B", "C"), {t: {"x": 0} for t in "ABC"}, prior)
            for K in (1, 10, 1000, 10**6):
                calls = [lambda: compute_quota(prior, K), lambda: sample_type_vector(prior, K, np.random.default_rng(0))]
                if K <= 1000:
                    calls.append(lambda: run_convergence(SimConfig(problem, (K,), 2, 1)))
                outcomes = set()
                for call in calls:
                    try:
                        call()
                        outcomes.add("ok")
                    except ValidationError as exc:
                        outcomes.add(str(exc))
                assert len(outcomes) == 1, (prior, K, outcomes)
                accepted += outcomes == {"ok"}
        assert accepted == 4 * 6

    def test_cached_table_gives_same_draws(self):
        prior = {"B": Fraction(2, 7), "A": Fraction(5, 7)}
        first = sample_type_vector(prior, 64, np.random.default_rng(8)).entries
        again = sample_type_vector(dict(sorted(prior.items())), 64, np.random.default_rng(8)).entries
        assert first == again
        draws = np.random.default_rng(8).integers(0, 7, size=64)
        assert first == tuple("A" if d < 5 else "B" for d in draws)


class TestSimConfig:
    def test_rejects_unknown_strategy(self, binary_problem):
        with pytest.raises(ValidationError, match="unknown strategy"):
            cfg_for(binary_problem, strategy="optimal-lies")

    def test_rejects_nonincreasing_k(self, binary_problem):
        with pytest.raises(ValidationError, match="strictly increasing"):
            cfg_for(binary_problem, k_values=(4, 4))

    def test_rejects_zero_reps(self, binary_problem):
        with pytest.raises(ValidationError, match="replications"):
            cfg_for(binary_problem, replications=0)

    def test_rejects_k_above_cap_before_allocating(self, binary_problem):
        with pytest.raises(EnumerationCapError, match="cap"):
            cfg_for(binary_problem, k_values=(4, sim.MAX_K + 1))
        assert cfg_for(binary_problem, k_values=(4, sim.MAX_K)).k_values[-1] == sim.MAX_K

    def test_rejects_reps_above_cap(self, binary_problem):
        for reps in (sim.MAX_REPS + 1, 10**20):
            with pytest.raises(EnumerationCapError) as exc:
                cfg_for(binary_problem, replications=reps)
            assert str(exc.value) == f"replications={reps} exceeds the simulation cap {sim.MAX_REPS}"
        assert cfg_for(binary_problem, replications=sim.MAX_REPS).replications == sim.MAX_REPS

    @pytest.mark.parametrize("field, error", [
        (dict(k_values=(10**5000,)), EnumerationCapError),
        (dict(replications=10**5000), EnumerationCapError),
        (dict(strategy="x" * 5000), ValidationError),
    ], ids=["k", "replications", "strategy"])
    def test_long_values_give_one_short_line(self, binary_problem, field, error):
        # an int past the digits Python will print once ended in its own ValueError
        with pytest.raises(error) as exc:
            cfg_for(binary_problem, **field)
        assert "\n" not in str(exc.value) and len(str(exc.value).encode()) < 200

    def test_custom_requires_callable(self, binary_problem):
        with pytest.raises(ValidationError, match="custom_strategy"):
            cfg_for(binary_problem, strategy="custom-permutation-truthful")

    @pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), ("3", "'3'"), (None, "None"), (True, "True")])
    def test_rejects_non_integer_seed(self, binary_problem, seed, shown):
        with pytest.raises(ValidationError) as exc:
            cfg_for(binary_problem, seed=seed)
        assert str(exc.value) == f"seed must be an integer, got {shown}"

    def test_numpy_seed_is_stored_as_int(self, binary_problem):
        cfg = cfg_for(binary_problem, seed=np.int64(5))
        assert type(cfg.seed) is int
        assert stats_to_csv(run_convergence(cfg)) == stats_to_csv(run_convergence(cfg_for(binary_problem, seed=5)))

    def test_numpy_k_values_and_replications_are_stored_as_int(self, binary_problem):
        cfg = cfg_for(binary_problem, k_values=(np.int64(2), np.uint32(4)), replications=np.int64(200))
        assert all(type(k) is int for k in cfg.k_values) and type(cfg.replications) is int
        assert stats_to_csv(run_convergence(cfg)) == stats_to_csv(run_convergence(cfg_for(binary_problem)))
        for bad in (dict(k_values=(np.True_, 2)), dict(replications=np.True_)):
            with pytest.raises(ValidationError):
                cfg_for(binary_problem, **bad)

    def test_rejects_bool_replications(self, binary_problem):
        with pytest.raises(ValidationError) as exc:
            cfg_for(binary_problem, replications=True)
        assert str(exc.value) == "replications must be an integer, got True"

    def test_rejects_bool_k(self, binary_problem):
        with pytest.raises(ValidationError, match="k_values must be positive integers"):
            cfg_for(binary_problem, k_values=(True, 2))

    @pytest.mark.parametrize("scf, message", [
        ("x", "scf must be a SocialChoiceFunction, got 'x'"),
        ({"A": {"a": 1}}, "scf must be a SocialChoiceFunction, got a dict"),
        (SocialChoiceFunction.point_mass({"A": "a", "B": "b"}), "scf: no lottery for types ['C']"),
        (SocialChoiceFunction.point_mass({"A": "a", "B": "b", "C": "zz"}),
         "scf: lottery[C] names unknown decisions ['zz']"),
    ])
    def test_rejects_bad_scf(self, counterexample_problem, scf, message):
        with pytest.raises(ValidationError) as exc:
            cfg_for(counterexample_problem, strategy="best-response", scf=scf)
        assert str(exc.value) == message

    def test_accepts_scf_covering_the_problem(self, counterexample_problem):
        scf = SocialChoiceFunction.point_mass({"A": "a", "B": "b", "C": "c", "D": "d"})  # an extra type is unused
        want = cfg_for(counterexample_problem, strategy="best-response")
        got = cfg_for(counterexample_problem, strategy="best-response", scf=scf)
        assert stats_to_csv(run_convergence(got)) == stats_to_csv(run_convergence(want))

    def test_negative_and_wide_seeds_are_masked(self, binary_problem):
        for seed in (-1, 2**64 + 7):
            got = run_convergence(cfg_for(binary_problem, seed=seed))
            want = run_convergence(cfg_for(binary_problem, seed=seed & sim._SEED_MASK))
            assert [s.seed for s in got] == [seed, seed]
            assert [dataclasses.replace(s, seed=0) for s in got] == [dataclasses.replace(s, seed=0) for s in want]


class TestRunConvergence:
    def test_stats_shape_and_schema(self, binary_problem):
        stats = run_convergence(cfg_for(binary_problem))
        assert [s.K for s in stats] == [2, 4]
        for s in stats:
            assert 0 <= s.lie_fraction <= s.max_slot_lie_prob <= 1
            assert s.efficiency_gap <= s.max_slot_lie_prob
            assert s.strategy == "canonical-min-lie"

    def test_float_prior_problem_simulates(self):
        # the exact binary values of 0.1, 0.2 and 0.7 sum to 1 - 2.8e-17: the quota
        # took them, while the sampler raised that the prior was no distribution
        utility = {t: {d: int(t.lower() == d) for d in "abc"} for t in ABC}
        p = Problem(("a", "b", "c"), ABC, utility, {"A": 0.1, "B": 0.2, "C": 0.7})
        assert compute_quota(p, 10).counts == (1, 2, 7)
        for strategy in sim.STRATEGY_NAMES[:3]:
            stats = run_convergence(SimConfig(p, (4, 10), 3, 1, strategy))
            assert [(s.K, s.strategy) for s in stats] == [(4, strategy), (10, strategy)]

    def test_degenerate_prior_never_lies(self):
        p = Problem(("d", "e"), ("A", "B"), {"A": {"d": 1, "e": 0}, "B": {"d": 0, "e": 1}}, {"A": Fraction(1), "B": Fraction(0)})
        stats = run_convergence(cfg_for(p, k_values=(3, 5), replications=100))
        assert all(s.lie_fraction == 0 and s.max_slot_lie_prob == 0 for s in stats)

    def test_repeat_run_identical(self, binary_problem):
        assert run_convergence(cfg_for(binary_problem)) == run_convergence(cfg_for(binary_problem))

    def test_tv_statistics_match_per_episode_fractions(self, counterexample_problem):
        # the same truths, re-drawn from each replication's stream, measured
        # with exact Fraction distances
        prior = {"A": Fraction(1, 6), "B": Fraction(1, 3), "C": Fraction(1, 2)}
        p = dataclasses.replace(counterexample_problem, prior=prior)
        cfg = cfg_for(p, k_values=(5, 12), replications=60, strategy="uniform-min-lie")
        for s in run_convergence(cfg):
            quota = compute_quota(p, s.K)
            tvq = tvp = Fraction(0)
            for rep in range(cfg.replications):
                rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, s.K, rep]))
                u = sample_type_vector(p, s.K, rng)
                tvq += tv_distance(marginal(u), quota)
                tvp += tv_distance(marginal(u), prior)
            mean_tvp = tvp / cfg.replications
            assert s.mean_tv_to_quota == float(tvq / cfg.replications)
            assert s.mean_tv_to_prior == float(mean_tvp)
            assert s.star_bound == float(2 * (mean_tvp + tv_distance(prior, quota)))

    def test_peak_memory_flat_in_reps(self, binary_problem):
        # episodes fold into O(K) totals; keeping each replication's slot
        # arrays would cost about 2.6 KB per replication at K=1024
        def peak(reps):
            cfg = cfg_for(binary_problem, k_values=(1024,), replications=reps, strategy="uniform-min-lie")
            tracemalloc.start()
            try:
                run_convergence(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) < peak(200) + 512 * 1024

    def test_uniform_strategy_matches_exhaustive_oracle(self, counterexample_problem):
        cfg = cfg_for(
            counterexample_problem, k_values=(3,), replications=4000, strategy="uniform-min-lie", seed=11
        )
        (stats,) = run_convergence(cfg)
        exact = exhaustive_expected_lie_count(counterexample_problem, 3) / 3
        assert stats.lie_fraction_se is not None
        assert abs(stats.lie_fraction - float(exact)) <= 3 * stats.lie_fraction_se

    def test_best_response_strategy_obeys_relaxed_budget(self, counterexample_problem):
        cfg = cfg_for(counterexample_problem, k_values=(3, 6), replications=300, strategy="best-response")
        stats = run_convergence(cfg)
        # per-episode budget enforcement happened in-run; the aggregate must
        # then sit within (#types - 1) times the mean quota distance
        for s in stats:
            assert s.lie_fraction <= 2 * s.mean_tv_to_quota + 1e-12

    def test_best_response_lies_at_least_as_often_as_minimum(self, counterexample_problem):
        base = cfg_for(counterexample_problem, k_values=(3,), replications=400)
        greedy = cfg_for(
            counterexample_problem, k_values=(3,), replications=400, strategy="best-response"
        )
        (s_min,) = run_convergence(base)
        (s_br,) = run_convergence(greedy)
        assert s_br.lie_fraction >= s_min.lie_fraction

    def test_custom_strategy_is_audited(self, binary_problem):
        # quota at K=2 is (1,1); swapping a feasible truth permutes it
        def transposing(u, q, rng):
            if sorted(u.entries) == ["A", "B"]:
                return Message(PreferenceVector(tuple(reversed(u.entries)), u.types), q)
            return canonical_minimal_message(u, q)

        cfg = cfg_for(
            binary_problem,
            k_values=(2,),
            replications=50,
            strategy="custom-permutation-truthful",
            custom_strategy=transposing,
        )
        with pytest.raises(ValidationError, match="truth-permuting"):
            run_convergence(cfg)

    def test_custom_strategy_canonical_wrapper_runs(self, binary_problem):
        cfg = cfg_for(
            binary_problem,
            k_values=(2, 4),
            replications=100,
            strategy="custom-permutation-truthful",
            custom_strategy=lambda u, q, rng: canonical_minimal_message(u, q),
        )
        stats = run_convergence(cfg)
        assert all(0 <= s.lie_fraction <= 1 for s in stats)

    def test_chain_at_the_relaxed_budget_is_accepted(self):
        # Seed 1041 draws the truth A,C,C,C,A,A,B,B,B,A at K=10 against the
        # quota (1,3,3,3).  Pushing the surplus along A -> B -> C -> D lies in
        # 9 slots, exactly (#types - 1) times the minimum of 3, without
        # closing a cycle; in floats 9/10 > 3 * 0.3, which must not matter.
        types = ("A", "B", "C", "D")
        problem = Problem(
            decisions=("a", "b", "c", "d"),
            types=types,
            utility={t: {d: int(t.lower() == d) for d in ("a", "b", "c", "d")} for t in types},
            prior=dict(zip(types, (Fraction(1, 10), Fraction(3, 10), Fraction(3, 10), Fraction(3, 10)))),
        )

        def chain(u, q, rng):
            assert u.entries == tuple("ACCCAABBBA")
            out = list(u.entries)
            for t, nxt in (("A", "B"), ("B", "C"), ("C", "D")):
                slots = [k for k, x in enumerate(u.entries) if x == t][:3]
                for k in slots:
                    out[k] = nxt
            return Message(PreferenceVector(tuple(out), u.types), q)

        cfg = SimConfig(
            problem=problem,
            k_values=(10,),
            replications=1,
            seed=1041,
            strategy="custom-permutation-truthful",
            custom_strategy=chain,
        )
        (s,) = run_convergence(cfg)
        assert s.lie_fraction == 0.9 and s.mean_tv_to_quota == 0.3

    def test_single_replication_has_no_se(self, binary_problem):
        (s,) = run_convergence(cfg_for(binary_problem, k_values=(4,), replications=1))
        assert s.lie_fraction_se is None
        row = stats_to_csv([s]).splitlines()[1]
        assert ",," in row  # empty se field


def random_fold_case(rnd: random.Random, n: int, strategy: str, denom: int) -> SimConfig:
    """A random problem, outcome function and K grid for the fold oracle.

    The prior is a random composition of ``denom`` (zero weights included).
    Every other outcome function draws the types' lotteries from a pool
    smaller than the type set, so some types share a lottery and a lie
    between them changes no decision.
    """
    types = tuple(f"t{i}" for i in range(n))
    decisions = tuple(f"d{i}" for i in range(rnd.randint(1, n)))
    utility = {t: {d: rnd.randint(0, 9) for d in decisions} for t in types}
    cuts = sorted(rnd.randint(0, denom) for _ in range(n - 1))
    bounds = [0, *cuts, denom]
    prior = {t: Fraction(bounds[i + 1] - bounds[i], denom) for i, t in enumerate(types)}
    problem = Problem(decisions, types, utility, prior)
    scf = None
    if n > 1 and rnd.random() < 0.5:
        pool = [{d: Fraction(1)} for d in decisions] + [{d: Fraction(1, len(decisions)) for d in decisions}]
        pool = rnd.sample(pool, min(len(pool), n - 1))
        scf = SocialChoiceFunction({t: rnd.choice(pool) for t in types})
    k_values = tuple(sorted(rnd.sample(range(1, 601), rnd.randint(1, 3))))
    custom = None
    if strategy == "custom-permutation-truthful":
        argmax = SocialChoiceFunction.utility_argmax(problem)

        def custom(u, q, rng):
            m = best_response_transport(u, argmax, problem, q).message
            return m if is_permutation_truthful(u, m) else sample_minimal_message(u, q, rng)

    return SimConfig(problem=problem, k_values=k_values, replications=rnd.randint(1, 20),
                     seed=rnd.randrange(2**64), strategy=strategy, scf=scf, custom_strategy=custom)


class TestFrozenFoldOracle:
    def test_matches_index_array_fold(self):
        rnd = random.Random(8080)
        shared_gap = 0
        for n in range(1, 6):
            for strategy in sim.STRATEGY_NAMES:
                for denom in (rnd.randint(1, 12), rnd.randint(13, 10**4), 2**40 - rnd.randint(1, 10**3)):
                    cfg = random_fold_case(rnd, n, strategy, denom)
                    got = run_convergence(cfg)
                    assert got == oracle_run_convergence(cfg), cfg
                    shared_gap += any(s.efficiency_gap != s.max_slot_lie_prob for s in got)
        assert shared_gap >= 5


class TestEfficiencyGap:
    def test_injective_outcome_gap_equals_max_slot_lie_prob(self, binary_problem):
        cfg = cfg_for(binary_problem, k_values=(2, 4), replications=300)
        for s in run_convergence(cfg):
            assert s.max_slot_lie_prob == s.efficiency_gap

    def test_constant_outcome_has_zero_gap(self, binary_problem):
        f = SocialChoiceFunction.point_mass({"A": "x", "B": "x"})
        cfg = cfg_for(binary_problem, k_values=(3,), replications=200, scf=f)
        (s,) = run_convergence(cfg)
        assert s.efficiency_gap == 0
        assert s.lie_fraction > 0  # lies happen, they just cost nothing

    def test_uniform_strategy_gap_shrinks_with_k(self, binary_problem):
        cfg = cfg_for(
            binary_problem,
            k_values=(4, 64),
            replications=2000,
            strategy="uniform-min-lie",
            seed=123,
        )
        stats = run_convergence(cfg)
        assert stats[1].max_slot_lie_prob < stats[0].max_slot_lie_prob


class TestExhaustiveOracle:
    def test_uniform_three_types_k3(self, counterexample_problem):
        assert exhaustive_expected_lie_count(counterexample_problem, 3) == Fraction(8, 9)

    def test_degenerate_prior(self):
        p = Problem(("d",), ("A", "B"), {"A": {"d": 0}, "B": {"d": 0}}, {"A": Fraction(1), "B": Fraction(0)})
        assert exhaustive_expected_lie_count(p, 5) == 0

    def test_binary_matches_binomial_formula(self, binary_problem):
        for K in (2, 4, 6):
            exact = exhaustive_expected_lie_count(binary_problem, K)
            pmf = sum(
                Fraction(math.comb(K, x), 2**K) * abs(Fraction(2 * x - K, 2))
                for x in range(K + 1)
            )
            assert exact == pmf

    def test_cap(self, counterexample_problem):
        from linkmech import EnumerationCapError

        with pytest.raises(EnumerationCapError):
            exhaustive_expected_lie_count(counterexample_problem, 20)


class TestQuotaRoundingError:
    def test_tv_to_prior_bounded_by_types_over_2k(self):
        rnd = random.Random(606)
        for _ in range(300):
            n = rnd.randint(1, 6)
            K = rnd.randint(1, 100)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            denom = rnd.randint(1, 50)
            cuts = sorted(rnd.randint(0, denom) for _ in range(n - 1))
            bounds = [0, *cuts, denom]
            prior = {t: Fraction(bounds[i + 1] - bounds[i], denom) for i, t in enumerate(types)}
            q = compute_quota(prior, K)
            assert tv_distance(prior, q) <= Fraction(n, 2 * K)


class TestCsv:
    def test_header_schema(self, binary_problem):
        text = stats_to_csv(run_convergence(cfg_for(binary_problem)))
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert text.splitlines()[0] == (
            "K,strategy,reps,lie_fraction,lie_fraction_se,max_slot_lie_prob,"
            "mean_tv_to_quota,star_bound,efficiency_gap,seed"
        )

    def test_json_mirror(self, binary_problem):
        (s,) = run_convergence(cfg_for(binary_problem, k_values=(4,), replications=50))
        d = s.to_json_dict()
        assert d["K"] == 4 and d["reps"] == 50 and d["seed"] == 7
        assert set(d) >= {"lie_fraction", "max_slot_lie_prob", "star_bound", "efficiency_gap"}

    def test_json_keys_keep_their_order(self, binary_problem):
        (s,) = run_convergence(cfg_for(binary_problem, k_values=(4,), replications=3))
        assert list(s.to_json_dict()) == [
            "K", "strategy", "reps", "seed", "lie_fraction", "lie_fraction_se",
            "max_slot_lie_prob", "mean_tv_to_quota", "mean_tv_to_prior",
            "quota_tv_to_prior", "star_bound", "efficiency_gap",
        ]

    # sha256 of the CSV at K 3,16,64, seed 1, 200 reps.  A change to the RNG
    # stream or to a tie-break changes these; update them with a CHANGES.md
    # line that says why.
    @pytest.mark.parametrize(
        "spec, strategy, digest",
        [
            ("binary", "canonical-min-lie", "41e7e73adedfeba58217b6304dd01e7950dcc74235a5e4bf370d60f2abb62135"),
            ("binary", "uniform-min-lie", "1d956debbdaffab92e7131149f6e0970276c4d8559e6f52d62ecd60e5360fc3b"),
            ("binary", "best-response", "0226648f8cec34601b077ee201fe49ff328407a70794fb87b55a9a69a1d0088f"),
            ("counterexample", "canonical-min-lie", "970a44d596105574934f7b439a7db966b61221c11861e47c73731654427ba842"),
            ("counterexample", "uniform-min-lie", "fda9f9f2c15901391014c4054d8267da1736507230d26bca42b514cb7d3d1095"),
            ("counterexample", "best-response", "dcc9b7ec67680193bf6bfe50492572778bf15e21f3137d3daca87d747a37c1a1"),
        ],
    )
    def test_bytes_pinned(self, spec, strategy, digest, binary_problem, counterexample_problem):
        problem = binary_problem if spec == "binary" else counterexample_problem
        cfg = SimConfig(problem=problem, k_values=(3, 16, 64), replications=200, seed=1, strategy=strategy)
        assert hashlib.sha256(stats_to_csv(run_convergence(cfg)).encode()).hexdigest() == digest


class TestFastConstructors:
    def test_sampled_vectors_match_validated_ones(self):
        rnd = random.Random(13)
        for _ in range(150):
            n = rnd.randint(1, 5)
            types = tuple("ABCDE"[:n])
            raw = [rnd.choice((0, 0, 1, 2, 5)) for _ in types]
            raw[rnd.randrange(n)] += 1
            prior = {t: Fraction(w, sum(raw)) for t, w in zip(types, raw)}
            u = sample_type_vector(prior, rnd.randint(1, 600), np.random.default_rng(rnd.getrandbits(32)))
            assert_same_vector(u)

    def test_builder_messages_pass_public_validation(self, counterexample_problem):
        f = SocialChoiceFunction.utility_argmax(counterexample_problem)
        rng = np.random.default_rng(5)
        for K in (1, 2, 3, 7, 40, 301):
            q = compute_quota(counterexample_problem, K)
            for _ in range(5):
                u = sample_type_vector(counterexample_problem, K, rng)
                for m in (canonical_minimal_message(u, q), sample_minimal_message(u, q, rng),
                          best_response_transport(u, f, counterexample_problem, q).message):
                    validated = Message(PreferenceVector(m.entries, u.types), q)
                    assert m == validated and hash(m) == hash(validated)
                    assert m.vector.counts() == validated.vector.counts()


class TestSeedWords:
    MASK = (1 << 64) - 1
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**62 + 12345, 2**64 - 1, -1)

    def test_episode_generator_matches_seed_sequence(self):
        # each rep is checked in the block that run_convergence derives it in,
        # at block edges, up to the largest rep a simulation accepts
        B = sim._SEED_BLOCK
        reps = (0, 1, B - 1, B, sim.MAX_REPS - 1)
        blocks = {(r - r % B, r - r % B + B) for r in reps}
        got = np.random.Generator(np.random.PCG64())
        for seed, K, (start, stop) in itertools.product(self.SEEDS, (1, 256, 10**7), sorted(blocks)):
            seed &= self.MASK
            states = sim._seed_states(sim._words(seed) + sim._words(K), np.arange(start, stop, dtype=np.uint64))
            assert len(states) == stop - start
            for rep in (r for r in reps if start <= r < stop):
                state, inc = states[rep - start]
                got.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                           "has_uint32": 0, "uinteger": 0}
                want = np.random.default_rng(np.random.SeedSequence([seed, K, rep]))
                assert got.bit_generator.state == want.bit_generator.state, (seed, K, rep, start)

    def test_run_convergence_seeds_each_episode(self, binary_problem, monkeypatch):
        seen = []
        original = sim.sample_type_vector

        def recording(prior, K, rng):
            seen.append((K, rng.bit_generator.state))
            return original(prior, K, rng)

        monkeypatch.setattr(sim, "sample_type_vector", recording)
        for seed in self.SEEDS:
            seen.clear()
            run_convergence(cfg_for(binary_problem, k_values=(1, 256), replications=3, seed=seed))
            want = [(K, np.random.default_rng(np.random.SeedSequence([seed & self.MASK, K, rep])).bit_generator.state)
                    for K in (1, 256) for rep in range(3)]
            assert seen == want, seed


class TestSeedCaps:
    def test_caps_keep_entropy_at_four_words(self):
        # K and a rep are one 32-bit word each, so a two-word seed fills SeedSequence's 4-word pool;
        # raising either cap past 2**32 would add a fifth word that _seed_states does not mix
        assert sim.MAX_REPS < 2**32 and sim.MAX_K < 2**32
        rep = sim.MAX_REPS - 1
        for seed in (2**32, 2**62 + 12345, 2**64 - 1):
            (state, inc), = sim._seed_states(sim._words(seed) + [sim.MAX_K], np.array([rep], dtype=np.uint64))
            want = np.random.PCG64(np.random.SeedSequence([seed, sim.MAX_K, rep])).state["state"]
            assert {"state": state, "inc": inc} == want, seed


class TestCallSeeding:
    """A call's (K, rep) columns are seeded K-major in shared chunks of at most ``_SEED_BLOCK``."""

    @staticmethod
    def record(monkeypatch):
        seen, original = [], sim.sample_type_vector

        def recording(prior, K, rng):
            seen.append((K, rng.bit_generator.state))
            return original(prior, K, rng)

        monkeypatch.setattr(sim, "sample_type_vector", recording)
        return seen

    @pytest.mark.parametrize("reps", [1, 3, 1023, 1024, 1025])
    def test_every_episode_matches_seed_sequence(self, binary_problem, monkeypatch, reps):
        # chunks of 1024 columns end mid-K, at K edges, or hold many K
        seen = self.record(monkeypatch)
        for seed, n_k in itertools.product((5, 2**40 + 9), range(1, 6)):
            seen.clear()
            k_values = tuple(range(1, n_k + 1))
            run_convergence(cfg_for(binary_problem, k_values=k_values, replications=reps, seed=seed))
            assert len(seen) == n_k * reps
            for i, (K, state) in enumerate(seen):
                want = np.random.PCG64(np.random.SeedSequence([seed, k_values[i // reps], i % reps])).state
                assert (K, state) == (k_values[i // reps], want), (seed, n_k, i)

    @pytest.mark.parametrize("k_values, reps, passes", [
        (tuple(range(1, 13)), 1, 1), ((4, 16, 64, 256), 40, 1), ((1, 2, 3), 1024, 3), ((1, 2, 3), 1025, 4),
    ])
    def test_kernel_passes(self, binary_problem, monkeypatch, k_values, reps, passes):
        calls = []
        original = sim._seed_states

        def counted(head, rep_column):
            calls.append(len(rep_column))
            return original(head, rep_column)

        monkeypatch.setattr(sim, "_seed_states", counted)
        run_convergence(cfg_for(binary_problem, k_values=k_values, replications=reps))
        assert len(calls) == passes and sum(calls) == len(k_values) * reps
        assert max(calls) <= sim._SEED_BLOCK


class TestRawDraw:
    """The truth draw equals the frozen ``rng.integers`` sampler: same vector, same generator state after."""

    # 2, 2**5 and 2**32 take raw words on a fresh generator at even K; 2**31 + 1 redraws about half of all
    # 32-bit values; 2**32 + 1 and 2**40 take numpy's 64-bit path.
    DENOMS = (1, 2, 3, 10, 2**5, 2**31 + 1, 2**32, 2**32 + 1, 2**40)
    KINDS = ("seeded", "pcg64", "pcg64-buffered", "mt19937", "philox", "sfc64")

    @staticmethod
    def prior_over(rnd, D):
        """A 2- to 4-type prior whose common denominator is exactly D (one type may get weight 0)."""
        if D == 1:
            return {"A": Fraction(1), "B": Fraction(0)} if rnd.random() < 0.5 else {"A": Fraction(1)}
        splits = sorted(rnd.randint(0, D - 1) for _ in range(rnd.randint(0, 2)))
        parts = [1] + [b - a for a, b in zip([0, *splits], [*splits, D - 1])]
        return {"ABCD"[i]: Fraction(p, D) for i, p in enumerate(parts)}

    @staticmethod
    def generator(rnd, kind):
        seed = rnd.getrandbits(64)
        if kind in ("seeded", "pcg64", "pcg64-buffered"):
            bg = np.random.PCG64(seed)
            bg.state = {**bg.state, "has_uint32": int(kind == "pcg64-buffered"), "uinteger": rnd.getrandbits(32)}
        else:
            bg = {"mt19937": np.random.MT19937, "philox": np.random.Philox, "sfc64": np.random.SFC64}[kind](seed)
        if kind != "seeded":
            return np.random.Generator(bg)
        rng = sim._EpisodeGenerator(bg)  # as run_convergence hands it to the truth draw, just re-seeded
        rng.fresh = True
        return rng

    @classmethod
    def same_state(cls, a, b) -> bool:
        """Equal generator states; MT19937, Philox and SFC64 hold arrays in theirs."""
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(cls.same_state(a[k], b[k]) for k in a)
        return np.array_equal(a, b)

    def test_matches_frozen_sampler(self):
        rnd = random.Random(20261019)
        for case in range(2400):
            D, kind = self.DENOMS[case % len(self.DENOMS)], self.KINDS[case // len(self.DENOMS) % len(self.KINDS)]
            K = rnd.randint(1, 600) if case % 3 else rnd.randint(1, 4)
            prior = self.prior_over(rnd, D)
            got = self.generator(rnd, kind)
            want = np.random.Generator(type(got.bit_generator)())
            want.bit_generator.state = got.bit_generator.state
            u, v = sample_type_vector(prior, K, got), oracle_sample_type_vector(prior, K, want)
            where = (case, kind, D, K)
            assert u.entries == v.entries and u.types == v.types, where
            assert np.array_equal(u._codes(), v._codes()) and u._type_counts() == v._type_counts(), where
            a, b = got.bit_generator.state, want.bit_generator.state
            if a.get("has_uint32") == 0:  # no draw reads the uinteger word while no half word is buffered
                a, b = {**a, "uinteger": 0}, {**b, "uinteger": 0}
            assert self.same_state(a, b), where
            # the next 32-bit and 64-bit draws agree, the buffered half word (if any) first
            c, d = got.bit_generator.ctypes, want.bit_generator.ctypes
            nxt = [(e.next_uint32(e.state), e.next_uint64(e.state)) for e in (c, d)]
            assert nxt[0] == nxt[1], where
            assert_same_vector(u)

    def test_redraws_fall_back_from_the_same_state(self):
        # at 2**31 + 1 a draw of 64 values all but surely holds one numpy redraws
        prior = {"A": Fraction(1, 2**31 + 1), "B": Fraction(2**31, 2**31 + 1)}
        for K in (63, 64):
            got = np.random.Generator(np.random.PCG64(K))
            want = np.random.Generator(np.random.PCG64(K))
            assert sample_type_vector(prior, K, got) == oracle_sample_type_vector(prior, K, want)
            assert got.bit_generator.state == want.bit_generator.state

    def test_generator_is_fresh_for_the_truth_draw_only(self, binary_problem):
        # a strategy that leaves a half word buffered and then draws a truth itself must get the
        # frozen sampler's vector and state: the generator it is handed is no longer marked fresh
        seen = []

        def strategy(u, q, rng):
            assert not rng.fresh
            rng.random(dtype=np.float32)  # one 32-bit value, the high half of its word stays buffered
            want = np.random.Generator(np.random.PCG64())
            want.bit_generator.state = rng.bit_generator.state
            assert sample_type_vector(binary_problem, 5, rng) == oracle_sample_type_vector(binary_problem, 5, want)
            assert rng.bit_generator.state == want.bit_generator.state
            seen.append(u.K)
            return canonical_minimal_message(u, q)

        run_convergence(cfg_for(binary_problem, k_values=(3, 4), replications=20,
                                strategy="custom-permutation-truthful", custom_strategy=strategy))
        assert seen == [3] * 20 + [4] * 20

    def test_cut_points(self):
        # raw words apply at a power-of-two total only: one cut c * 2**32 / S per cumulative weight c < S
        for prior, denom in (({"A": Fraction(1, 2), "B": Fraction(0), "C": Fraction(1, 2), "D": Fraction(0)}, 2),
                             ({"A": Fraction(1, 2**32), "B": 1 - Fraction(1, 2**32)}, 2**32)):
            types, cum, total, _, cuts = sim._sampling_table(*_prior_ints(prior))
            assert total == denom and not cuts.flags.writeable
            assert cuts.tolist() == [c * 2**32 // denom for c in cum.tolist() if c < denom]
            # x maps to code #{c in cum : c <= (x * S) >> 32}; the cuts give that count by search on x
            for x in (0, 1, 2**31, 2**32 - 1, *(int(c) for c in cuts), *(int(c) - 1 for c in cuts if c)):
                assert cuts.searchsorted(np.uint32(x), "right") == cum.searchsorted((x * denom) >> 32, "right"), x
        prior = {"A": Fraction(1, 3), "B": Fraction(0), "C": Fraction(2, 3)}
        assert sim._sampling_table(*_prior_ints(prior))[4] is None

    def test_raw_words_only_at_a_power_of_two_total_and_even_k(self, binary_problem, counterexample_problem,
                                                               monkeypatch):
        def integers(*args, **kwargs):
            raise AssertionError("rng.integers reached")

        monkeypatch.setattr(sim._EpisodeGenerator, "integers", integers)
        run_convergence(cfg_for(binary_problem, k_values=(4, 16), replications=5))  # S = 2, even K
        for problem, k_values in ((binary_problem, (3,)), (counterexample_problem, (4, 16))):
            with pytest.raises(AssertionError, match="rng.integers reached"):
                run_convergence(cfg_for(problem, k_values=k_values, replications=5))


class TestInternalChecks:
    @staticmethod
    def overlying(u, m):
        """``m`` with two truthful slots of different types swapped where there
        are any: it still meets the quota but lies twice more."""
        out = list(m.entries)
        truthful = [k for k in range(u.K) if out[k] == u.entries[k]]
        for a, b in itertools.combinations(truthful, 2):
            if out[a] != out[b]:
                out[a], out[b] = out[b], out[a]
                break
        return Message(PreferenceVector(tuple(out), u.types), m.quota)

    @pytest.mark.parametrize("strategy, message", [
        ("canonical-min-lie", "internal: minimal-lie strategy missed the minimum"),
        ("best-response", "internal: strategy exceeded the relaxed lie budget"),
    ])
    def test_failure_names_the_episode(self, binary_problem, monkeypatch, strategy, message):
        seed = 2**40 + 3
        truths = []

        def canonical(u, q):
            truths.append(u)
            m = canonical_minimal_message(u, q)
            return self.overlying(u, m) if len(truths) > 23 else m

        def transport(u, f, p, q):
            truths.append(u)
            result = best_response_transport(u, f, p, q)
            if len(truths) > 23:
                result = dataclasses.replace(result, message=self.overlying(u, result.message))
            return result

        monkeypatch.setattr(sim, "canonical_minimal_message", canonical)
        monkeypatch.setattr(sim, "best_response_transport", transport)
        cfg = cfg_for(binary_problem, k_values=(4, 8), replications=20, seed=seed, strategy=strategy)
        with pytest.raises(RuntimeError) as exc:
            run_convergence(cfg)
        # the first overlying episode fails: K 8, past its third replication
        u = truths[-1]
        rep = len(truths) - 21
        assert u.K == 8 and rep >= 3
        assert str(exc.value) == f"{message} ({strategy}, seed {seed}, K 8, replication {rep})"
        # the named episode replays alone
        rng = np.random.default_rng(np.random.SeedSequence([seed, 8, rep]))
        assert sample_type_vector(binary_problem, 8, rng) == u

    @pytest.mark.parametrize("error", [
        RuntimeError("internal: rewritten message misses the quota"),
        RuntimeError("solver gave up"),
        EnumerationCapError("too many messages"),
    ])
    def test_builder_failure_names_the_episode(self, binary_problem, monkeypatch, error):
        calls = []

        def canonical(u, q):
            calls.append(u)
            if len(calls) == 4:  # replication 3 of K 5
                raise error
            return canonical_minimal_message(u, q)

        monkeypatch.setattr(sim, "canonical_minimal_message", canonical)
        with pytest.raises(type(error)) as exc:
            run_convergence(cfg_for(binary_problem, k_values=(5, 9), replications=10, seed=-5))
        if str(error).startswith("internal:"):
            assert str(exc.value) == f"{error} (canonical-min-lie, seed {2**64 - 5}, K 5, replication 3)"
            assert exc.value.__cause__ is error
        else:
            assert exc.value is error


class TestSamplingTableMemo:
    PRIORS = ((Fraction(1, 3), Fraction(2, 3)), (Fraction(3, 4), Fraction(1, 4)))
    SCRIPT = """
import sys
from fractions import Fraction
import numpy as np
from linkmech import Problem, SimConfig, run_convergence, sample_type_vector, stats_to_csv
a, b = map(Fraction, sys.argv[1:])
p = Problem(("d", "e"), ("A", "B"), {"A": {"d": 1, "e": 0}, "B": {"d": 0, "e": 1}}, {"A": a, "B": b})
print(",".join(sample_type_vector(p, 64, np.random.default_rng(11)).entries))
print(stats_to_csv(run_convergence(SimConfig(p, (3, 16), 50, 4242))), end="")
"""

    @staticmethod
    def outputs(p):
        draws = ",".join(sample_type_vector(p, 64, np.random.default_rng(11)).entries)
        return draws + "\n" + stats_to_csv(run_convergence(SimConfig(p, (3, 16), 50, 4242)))

    def test_alternated_problems_match_a_fresh_process(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        fresh = [subprocess.run([sys.executable, "-c", self.SCRIPT, str(a), str(b)], capture_output=True,
                                text=True, env=env, timeout=60, check=True).stdout for a, b in self.PRIORS]
        assert fresh[0] != fresh[1]
        utility = {"A": {"d": 1, "e": 0}, "B": {"d": 0, "e": 1}}
        problems = [Problem(("d", "e"), ("A", "B"), utility, {"A": a, "B": b}) for a, b in self.PRIORS]
        for _ in range(2):
            assert [self.outputs(p) for p in problems] == fresh

    def test_mutated_weights_draw_from_their_new_weights(self):
        prior = {"A": Fraction(1, 2), "B": Fraction(1, 2)}
        first = sample_type_vector(prior, 64, np.random.default_rng(5)).entries
        assert set(first) == {"A", "B"}
        prior["A"], prior["B"] = Fraction(0), Fraction(1)
        assert sample_type_vector(prior, 64, np.random.default_rng(5)).entries == ("B",) * 64
        prior["A"], prior["B"] = Fraction(1, 5), Fraction(4, 5)
        again = sample_type_vector(prior, 64, np.random.default_rng(5)).entries
        assert again == sample_type_vector(dict(prior), 64, np.random.default_rng(5)).entries != first
