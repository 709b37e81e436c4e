import itertools
import math
import random
import re
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkmech import (
    EnumerationCapError,
    Message,
    PreferenceVector,
    Quota,
    ValidationError,
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
    tv_distance,
    validate_problem,
)
from linkmech.core import PRIOR_TOLERANCE, _prior_ints, _quota_tv
from linkmech.sim import sample_type_vector
from linkmech.truthfulness import _exceeds, _rewritten, iter_multiset_arrangements
from helpers import (
    LABELS,
    assert_maximum_witness,
    assert_witness_sound,
    brute_min_hamming,
    brute_minimal_set,
    is_permutation_truthful_naive,
    max_witness_size,
    oracle_canonical_minimal_message,
    oracle_audit,
    oracle_compute_quota,
    oracle_count_minimal_lie_messages,
    oracle_is_approx_truthful,
    oracle_is_approx_truthful_star,
    oracle_iter_multiset_arrangements,
    oracle_minimal_lie_messages,
    oracle_sample_minimal_message,
    oracle_star_lie_bound,
    permuted,
    random_quota,
    random_quota_message,
    random_vector,
)

ABC = ("A", "B", "C")


def vec(entries, types=ABC):
    return PreferenceVector(tuple(entries), types)


def msg(entries, quota, types=ABC):
    return Message(PreferenceVector(tuple(entries), types), quota)


class TestComputeQuota:
    def test_uniform_three_types(self):
        q = compute_quota({t: Fraction(1, 3) for t in ABC}, 3)
        assert q.as_dict() == {"A": 1, "B": 1, "C": 1}

    def test_degenerate_prior(self):
        q = compute_quota({"A": Fraction(1), "B": Fraction(0)}, 5)
        assert q.as_dict() == {"A": 5, "B": 0}

    def test_half_half_k3_tie_breaks_to_first_label(self):
        q = compute_quota({"A": Fraction(1, 2), "B": Fraction(1, 2)}, 3)
        assert q.as_dict() == {"A": 2, "B": 1}
        assert tv_distance(q, {"A": Fraction(1, 2), "B": Fraction(1, 2)}) == Fraction(1, 6)

    def test_k1_uniform_puts_unit_on_first_type(self):
        q = compute_quota({t: Fraction(1, 3) for t in ABC}, 1)
        assert q.as_dict() == {"A": 1, "B": 0, "C": 0}

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            compute_quota({"A": Fraction(1)}, 0)

    def test_attains_tv_minimum_over_all_count_vectors(self):
        rnd = random.Random(91)
        for _ in range(150):
            n = rnd.randint(1, 4)
            K = rnd.randint(1, 10)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            denom = rnd.randint(1, 40)
            cuts = sorted(rnd.randint(0, denom) for _ in range(n - 1))
            bounds = [0, *cuts, denom]
            prior = {t: Fraction(bounds[i + 1] - bounds[i], denom) for i, t in enumerate(types)}
            q = compute_quota(prior, K)
            best = min(
                tv_distance(dict(zip(types, (Fraction(c, K) for c in counts))), prior)
                for counts in itertools.product(range(K + 1), repeat=n)
                if sum(counts) == K
            )
            assert tv_distance(q, prior) == best

    def test_matches_frozen_fraction_rounding(self):
        # priors of 1-6 types, zero weights and ties included, as str, float
        # and Fraction values, K from 1 to 10**6; floats, which miss 1 by
        # their binary rounding, must round alike too, while 3-place decimals
        # that miss 1 by more than the tolerance are rejected
        rnd = random.Random(1806)
        rejected = 0
        for i in range(3000):
            n = rnd.randint(1, 6)
            types = rnd.sample(LABELS, n)
            denom = rnd.choice((1, 2, 3, 4, 7, 10, 12, 64, 1000, 2**31 + 1, rnd.randint(1, 10**9)))
            cuts = sorted(rnd.randint(0, denom) for _ in range(n - 1))
            weights = [Fraction(b - a, denom) for a, b in zip([0, *cuts], [*cuts, denom])]
            kind = i % 4
            if kind == 1:
                prior = {t: str(w) for t, w in zip(types, weights)}
            elif kind == 2:
                prior = {t: float(w) for t, w in zip(types, weights)}  # read as their binary value
            elif kind == 3:
                prior = {t: f"{float(w):.3f}" for t, w in zip(types, weights)}  # decimals near the weights
            else:
                prior = dict(zip(types, weights))
            K = rnd.choice((rnd.randint(1, 20), rnd.randint(1, 5000), rnd.randint(1, 10**6), 10**6))
            if abs(sum(map(Fraction, prior.values())) - 1) > PRIOR_TOLERANCE:
                assert kind == 3
                with pytest.raises(ValidationError, match="^prior: sums to "):
                    compute_quota(prior, K)
                rejected += 1
                continue
            outcomes = []
            for rounding in (compute_quota, oracle_compute_quota):
                try:
                    outcomes.append(rounding(prior, K))
                except ValidationError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (prior, K)
        assert 50 < rejected < 750
        problem = validate_problem({"decisions": ["x"], "types": ["B", "A"], "prior": ["2/3", "1/3"],
                                    "utility": {"A": {"x": 1}, "B": {"x": 0}}})
        for K in (1, 2, 3, 4, 5, 10**6):
            assert compute_quota(problem, K) == oracle_compute_quota(problem, K)
        for K in (0, -1, 1.0, True, "3"):
            with pytest.raises(ValidationError, match="K must be a positive integer"):
                compute_quota(problem, K)

    def test_numpy_k_matches_python_k(self):
        # K * P_t over a 10**30 denominator overflows int64, so K is kept as a Python int
        prior = {"A": Fraction(1, 10**30), "B": 1 - Fraction(1, 10**30)}
        for K in (np.int64(5), np.uint16(7), np.int32(10**6)):
            q = compute_quota(prior, K)
            assert q == compute_quota(prior, int(K)) and all(type(c) is int for c in q.counts)
        for K in (True, np.True_):
            with pytest.raises(ValidationError, match="K must be a positive integer"):
                compute_quota(prior, K)

    @pytest.mark.parametrize("K, shown", [
        (-(10**5000), "a negative int of 16610 bits"),  # past the digits Python will print
        (-int("9" * 4000), "a negative int of 13288 bits"),
        (-int("9" * 616), "-" + "9" * 36 + "..."),  # 2,047 bits: cut as any long repr is
    ], ids=["past-the-digit-limit", "4000-nines", "616-nines"])
    def test_long_k_is_one_short_line(self, K, shown):
        with pytest.raises(ValidationError) as exc:
            compute_quota({"A": "1/2", "B": "1/2"}, K)
        assert str(exc.value) == f"K must be a positive integer, got {shown}"

    @pytest.mark.parametrize("prior, message", [
        ({"A": "0.3", "B": "0.3"}, "prior: sums to 3/5, expected 1"),
        ({"A": "0.3", "B": "0.3", "C": "0.4000000000011"}, "prior: sums to 10000000000011/10000000000000, expected 1"),
        ({"A": "-0.5", "B": "1.5"}, "prior: negative weight -1/2 for 'A'"),
        ({"A": 0, "B": 0}, "prior: sums to 0, expected 1"),
    ])
    def test_rejects_a_prior_that_is_no_distribution(self, prior, message):
        # each used to give a quota (of total 8 for the first) or a quota error
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            compute_quota(prior, 10)

    def test_drift_within_tolerance(self):
        # a drift the tolerance admits is rounded, unless K is large enough
        # for it to move the counts' total off K
        for drift in (PRIOR_TOLERANCE, -PRIOR_TOLERANCE, Fraction(1, 10**13)):
            prior = {"A": Fraction(1, 2) + drift, "B": Fraction(1, 4), "C": Fraction(1, 4)}
            for K in (1, 3, 10, 10**6, 10**11):
                assert compute_quota(prior, K).K == K
            with pytest.raises(ValidationError, match="^prior: sums to "):
                compute_quota(prior, 10**15)

    @pytest.mark.parametrize("weight, message", [
        ("abc", "prior: cannot parse rational from 'abc' for 'A'"),
        (None, "prior: cannot parse rational from None for 'A'"),
        (float("nan"), "prior: cannot parse rational from 'nan' for 'A'"),
        (float("inf"), "prior: cannot parse rational from 'inf' for 'A'"),
        (True, "prior: expected a number, got a bool for 'A'"),
        ("1e-100000000", "prior: more than 1000 digits in '1e-100000000' for 'A'"),
    ])
    def test_rejects_a_weight_that_is_no_number(self, weight, message):
        # each used to raise a bare ValueError, TypeError or OverflowError, give
        # a quota (True), or build a hundred-million-digit power of ten for minutes
        prior = {"A": weight, "B": 0}
        for parse in (lambda: compute_quota(prior, 4), lambda: sample_type_vector(prior, 4, np.random.default_rng(0))):
            start = time.perf_counter()
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                parse()
            assert time.perf_counter() - start < 1

    def test_rejects_an_unbounded_common_denominator(self):
        prior = {"A": Fraction(1, 10**600), "B": Fraction(1, 3**1300), "C": 1}
        with pytest.raises(ValidationError, match="^prior: common denominator has more than 1000 digits$"):
            compute_quota(prior, 4)

    def test_quota_distance_in_ints_matches_fractions(self):
        rnd = random.Random(2020)
        for _ in range(500):
            types = rnd.sample(LABELS, rnd.randint(1, 5))
            denom = rnd.choice((1, 3, 10, 2**31 + 1, rnd.randint(1, 10**9)))
            cuts = sorted(rnd.randint(0, denom) for _ in range(len(types) - 1))
            prior = {t: Fraction(b - a, denom) for t, a, b in zip(types, [0, *cuts], [*cuts, denom])}
            q = compute_quota(prior, rnd.randint(1, 10**6))
            assert _quota_tv(q, *_prior_ints(prior)[1:]) == tv_distance(prior, q)


class TestMinLieCount:
    def test_one_lie_instance(self):
        q = Quota(ABC, (1, 1, 1))
        assert min_lie_count(vec("AAB"), q) == 1

    def test_quota_feasible_truth(self):
        q = Quota(ABC, (2, 1, 0))
        assert min_lie_count(vec("ABA"), q) == 0

    def test_all_same_type(self):
        q = Quota(ABC, (2, 1, 1))
        assert min_lie_count(vec("AAAA"), q) == 2

    def test_matches_bruteforce_on_random_instances(self):
        rnd = random.Random(1234)
        for _ in range(300):
            n = rnd.randint(1, 4)
            K = rnd.randint(1, 8)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            assert min_lie_count(u, q) == brute_min_hamming(u, q)


class TestMultisetArrangements:
    def test_matches_frozen_recursive_oracle(self):
        # 1-4 labels with counts 0-3, so empty multisets come up too
        rnd = random.Random(2026)
        for _ in range(300):
            counts = {t: rnd.randint(0, 3) for t in rnd.sample("ABCD", rnd.randint(1, 4))}
            assert list(iter_multiset_arrangements(counts)) == list(oracle_iter_multiset_arrangements(counts))

    def test_empty_multiset_has_one_arrangement(self):
        assert list(iter_multiset_arrangements({})) == [()]
        assert list(iter_multiset_arrangements({"A": 0})) == [()]


class TestMinimalLieMessages:
    def test_one_lie_pair(self):
        q = Quota(ABC, (1, 1, 1))
        got = {m.entries for m in minimal_lie_messages(vec("AAB"), q)}
        assert got == {("A", "C", "B"), ("C", "A", "B")}

    def test_truth_feasible_singleton(self):
        q = Quota(ABC, (1, 1, 1))
        got = minimal_lie_messages(vec("ABC"), q)
        assert {m.entries for m in got} == {("A", "B", "C")}

    def test_twelve_messages_at_distance_two(self):
        q = Quota(ABC, (2, 1, 1))
        u = vec("AAAA")
        got = minimal_lie_messages(u, q)
        assert len(got) == 12 == count_minimal_lie_messages(u, q)
        assert {m.entries for m in got} == brute_minimal_set(u, q)

    def test_matches_bruteforce_filter(self):
        rnd = random.Random(77)
        for _ in range(120):
            n = rnd.randint(1, 3)
            K = rnd.randint(1, 6)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            got = {m.entries for m in minimal_lie_messages(u, q)}
            assert got == brute_minimal_set(u, q)

    def test_single_message_beyond_recursion_depth(self):
        # every slot lies, so the deficit multiset is 3,000 labels long
        u = PreferenceVector(("A",) * 3000, ("A", "B"))
        q = Quota(("A", "B"), (0, 3000))
        assert {m.entries for m in minimal_lie_messages(u, q)} == {("B",) * 3000}

    def test_cap_guard_points_to_canonical(self):
        types = tuple(sorted(f"t{i:02d}" for i in range(2)))
        u = PreferenceVector(("t00",) * 30, types)
        q = Quota(types, (15, 15))
        with pytest.raises(EnumerationCapError, match="canonical_minimal_message"):
            minimal_lie_messages(u, q)
        # the cap-free routes still work
        assert lie_count(u, canonical_minimal_message(u, q)) == 15
        m = sample_minimal_message(u, q, np.random.default_rng(0))
        assert lie_count(u, m) == 15


    def test_cap_refuses_a_count_past_the_digit_limit(self):
        # the count has over 4,300 digits, past Python's int-to-str limit; the refusal never prints it
        u = PreferenceVector(("A",) * 12000, ABC)
        q = Quota(ABC, (4000, 4000, 4000))
        assert count_minimal_lie_messages(u, q).bit_length() > 4300 * 3.33
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as exc:
            minimal_lie_messages(u, q)
        assert time.perf_counter() - start < 1
        assert str(exc.value) == ("more than 1000000 minimal-lie messages; "
                                  "use canonical_minimal_message or sample_minimal_message instead")

    def test_cap_test_matches_the_exact_count(self):
        rnd = random.Random(32)
        for _ in range(300):
            groups = [[rnd.choice((0, 0, 1, 2, 3, 7, 40)) for _ in range(rnd.randint(0, 4))]
                      for _ in range(rnd.randint(0, 3))]
            n = math.prod(math.factorial(sum(g)) // math.prod(map(math.factorial, g)) for g in groups)
            for cap in {1, max(n - 1, 1), n, n + 1, rnd.randint(1, 10**6)}:
                assert _exceeds(groups, cap) == (n > cap), (groups, cap)
        # comb(10, 2) kept slots times 8! / (3! 5!) owed orders: a cap of 2,520 admits them, 2,519 refuses
        u, q = PreferenceVector(("A",) * 10, ABC), Quota(ABC, (2, 3, 5))
        assert count_minimal_lie_messages(u, q) == 2520
        assert len(minimal_lie_messages(u, q, cap=2520)) == 2520
        with pytest.raises(EnumerationCapError, match="^more than 2519 minimal-lie messages"):
            minimal_lie_messages(u, q, cap=2519)


class TestShortfallSplit:
    def test_count_rejects_length_mismatch(self):
        u = PreferenceVector(("A", "A", "A"), ("A", "B"))
        with pytest.raises(ValidationError, match="vector length 3 != quota total 4"):
            count_minimal_lie_messages(u, Quota(("A", "B"), (2, 2)))

    def test_count_rejects_foreign_type_universe(self):
        u = PreferenceVector(("A", "A", "B"), ("A", "B"))
        with pytest.raises(ValidationError, match="type sets differ"):
            count_minimal_lie_messages(u, Quota(ABC, (1, 1, 1)))

    def test_matches_frozen_oracles(self):
        # quotas are drawn independently of the truth, and every other truth
        # uses only a random subset of the types, so absent types are common
        rnd = random.Random(2205)
        compared_sets = 0
        for i in range(6_000):
            n = rnd.randint(1, 6)
            K = rnd.randint(1, 40)
            types = tuple(f"t{j}" for j in range(n))
            drawn = types if i % 2 else tuple(rnd.sample(types, rnd.randint(1, n)))
            u = PreferenceVector(tuple(rnd.choice(drawn) for _ in range(K)), types)
            q = random_quota(rnd, types, K)
            count = count_minimal_lie_messages(u, q)
            assert count == oracle_count_minimal_lie_messages(u, q)
            seed = rnd.randrange(2**32)
            got = sample_minimal_message(u, q, np.random.default_rng(seed))
            assert got == oracle_sample_minimal_message(u, q, np.random.default_rng(seed))
            if count <= 50:
                compared_sets += 1
                assert minimal_lie_messages(u, q) == oracle_minimal_lie_messages(u, q)
        assert compared_sets > 2_000


class TestCanonicalAndSampler:
    def test_canonical_is_lexicographic_minimum(self):
        rnd = random.Random(555)
        for _ in range(200):
            n = rnd.randint(1, 4)
            K = rnd.randint(1, 7)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            expected = min(minimal_lie_messages(u, q), key=lambda m: m.entries)
            assert canonical_minimal_message(u, q).entries == expected.entries

    def test_canonical_prefers_small_labels_over_keeping(self):
        # replacing the first B with A is lexicographically better than (B, A);
        # for truth (A, A) the first slot keeps A and the last slot lies
        q = Quota(("A", "B"), (1, 1))
        for truth in (("B", "B"), ("A", "A")):
            u = PreferenceVector(truth, ("A", "B"))
            assert canonical_minimal_message(u, q).entries == ("A", "B")
            assert oracle_canonical_minimal_message(u, q).entries == ("A", "B")

    def test_canonical_matches_frozen_oracle(self):
        # quotas are drawn independently of the truth, and every other truth
        # uses only a random subset of the types, so absent types are common
        rnd = random.Random(3352)
        for i in range(12_000):
            n = rnd.randint(1, 6)
            K = rnd.randint(1, 40)
            types = tuple(f"t{j}" for j in range(n))
            drawn = types if i % 2 else tuple(rnd.sample(types, rnd.randint(1, n)))
            u = PreferenceVector(tuple(rnd.choice(drawn) for _ in range(K)), types)
            q = random_quota(rnd, types, K)
            assert canonical_minimal_message(u, q) == oracle_canonical_minimal_message(u, q)

    def test_builders_match_frozen_oracles_at_large_k(self):
        # truth and quota come from independent skewed distributions, so
        # several types are over-supplied at once, and prefixes, kept
        # budgets and tails all interleave
        rnd = random.Random(4117)
        several = 0
        for _ in range(200):
            n = rnd.randint(1, 6)
            K = rnd.randint(41, 1200)
            types = tuple(f"t{j}" for j in range(n))
            u = PreferenceVector(tuple(rnd.choices(types, [rnd.random() ** 3 for _ in types], k=K)), types)
            drawn = Counter(rnd.choices(types, [rnd.random() ** 3 for _ in types], k=K))
            q = Quota(types, tuple(drawn[t] for t in types))
            counts = u.counts()
            several += sum(counts[t] > b for t, b in zip(types, q.counts)) >= 2
            assert canonical_minimal_message(u, q) == oracle_canonical_minimal_message(u, q)
            seed = rnd.randrange(2**32)
            got = sample_minimal_message(u, q, np.random.default_rng(seed))
            assert got == oracle_sample_minimal_message(u, q, np.random.default_rng(seed))
        assert several >= 60

    @staticmethod
    def sampler_case(rnd, K):
        """A truth, a quota and a seed: types t0.., some absent from the truth and
        some with zero budget.  Every other truth comes from ``sample_type_vector``
        (codes memo filled), the rest from ``PreferenceVector(...)`` (codes built
        on first use)."""
        types = tuple(f"t{j}" for j in range(rnd.randint(1, 6)))
        weights = [rnd.choice((0, 1, 1, 2, 5)) for _ in types]
        weights[rnd.randrange(len(types))] += 1
        if rnd.random() < 0.5:
            prior = {t: Fraction(w, sum(weights)) for t, w in zip(types, weights)}
            u = sample_type_vector(prior, K, np.random.default_rng(rnd.randrange(2**32)))
        else:
            u = PreferenceVector(tuple(rnd.choices(types, weights, k=K)), types)
        budgets = Counter(rnd.choices(types, [rnd.choice((0, 1, 3)) + (t == types[-1]) for t in types], k=K))
        return u, Quota(types, tuple(budgets[t] for t in types)), rnd.randrange(2**32)

    def test_sampler_generator_use_pinned(self):
        # the sampler's draws are one ``choice`` per over-supplied type, in type
        # order, then ``permutation(len(owed))`` only when two or more distinct
        # labels are owed: one label repeated needs no arrangement
        rnd = random.Random(7311)
        seen = Counter()
        for _ in range(1_500):
            u, q, seed = self.sampler_case(rnd, rnd.randint(1, 300))
            counts = u.counts()
            owed = [b - counts[t] for t, b in zip(q.types, q.counts) if b > counts[t]]
            rng = np.random.default_rng(seed)
            sample_minimal_message(u, q, rng)
            twin = np.random.default_rng(seed)
            for t, b in zip(q.types, q.counts):
                if counts[t] > b:
                    twin.choice(counts[t], size=b, replace=False)
            if len(owed) > 1:
                twin.permutation(sum(owed))
            assert rng.bit_generator.state == twin.bit_generator.state
            # a permutation of 0 or 1 labels draws nothing, so only the last two cases tell
            seen["one slot owed at most" if sum(owed) < 2 else "one label" if len(owed) == 1 else "two labels"] += 1
        assert min(seen.values()) >= 200 and len(seen) == 3

    def test_sampler_matches_frozen_oracle_up_to_k_4096(self):
        # zero-budget over-supplied types, one over-supplied type and several
        # at once, at K from 1 to 4,096, from both kinds of truth
        rnd = random.Random(9023)
        seen = Counter()
        for i in range(400):
            u, q, seed = self.sampler_case(rnd, rnd.randint(1, 4096) if i % 2 else rnd.randint(1, 64))
            counts = u.counts()
            over = [b for t, b in zip(q.types, q.counts) if counts[t] > b]
            seen[f"{min(len(over), 2)} over-supplied"] += 1
            seen["zero budget"] += 0 in over
            seen["memo filled"] += "_codes_memo" in u.__dict__
            got = sample_minimal_message(u, q, np.random.default_rng(seed))
            assert got == oracle_sample_minimal_message(u, q, np.random.default_rng(seed))
        assert min(seen.values()) >= 40 and len(seen) == 5

    def test_sampler_uniform_over_pair(self):
        q = Quota(ABC, (1, 1, 1))
        u = vec("AAB")
        rng = np.random.default_rng(2024)
        counts = {("A", "C", "B"): 0, ("C", "A", "B"): 0}
        for _ in range(2000):
            counts[sample_minimal_message(u, q, rng).entries] += 1
        # exact binomial 3-sigma band around 1000
        assert abs(counts[("A", "C", "B")] - 1000) < 3 * (2000 * 0.25) ** 0.5

    def test_sampler_covers_twelve_element_set(self):
        q = Quota(ABC, (2, 1, 1))
        u = vec("AAAA")
        rng = np.random.default_rng(99)
        seen = {sample_minimal_message(u, q, rng).entries for _ in range(3000)}
        assert seen == {m.entries for m in minimal_lie_messages(u, q)}

    def test_sampler_deterministic_per_seed(self):
        q = Quota(ABC, (2, 1, 1))
        u = vec("AAAA")
        a = [sample_minimal_message(u, q, np.random.default_rng(5)).entries for _ in range(10)]
        b = [sample_minimal_message(u, q, np.random.default_rng(5)).entries for _ in range(10)]
        assert a == b


class TestApproxCheckers:
    Q3 = Quota(ABC, (1, 1, 1))

    def test_table_rows(self):
        u = vec("AAB")
        assert audit(u, msg("ACB", self.Q3)).approx_truthful
        assert not audit(u, msg("ABC", self.Q3)).approx_truthful

    def test_truthful_report_always_minimal(self):
        u = vec("ABC")
        assert audit(u, msg("ABC", self.Q3)).approx_truthful

    def test_relaxed_bound_admits_two_lies_here(self):
        a = audit(vec("AAB"), msg("ABC", self.Q3))
        assert a.star_bound == 2
        assert a.approx_truthful_star

    def test_exact_implies_relaxed(self):
        rnd = random.Random(31)
        for _ in range(200):
            n = rnd.randint(1, 4)
            K = rnd.randint(1, 7)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            for m in minimal_lie_messages(u, q):
                a = audit(u, m)
                assert a.approx_truthful and a.approx_truthful_star

    def test_binary_three_lies_exceed_bound(self):
        q = Quota(("A", "B"), (1, 2))
        u = PreferenceVector(("A", "A", "B"), ("A", "B"))
        bad = audit(u, Message(PreferenceVector(("B", "B", "A"), ("A", "B")), q))
        assert (bad.star_bound, bad.lies) == (1, 3)
        assert not bad.approx_truthful_star
        ok = audit(u, Message(PreferenceVector(("B", "A", "B"), ("A", "B")), q))
        assert ok.lies == 1
        assert ok.approx_truthful_star and ok.approx_truthful

    def test_definitions_coincide_on_binary_universes_exhaustively(self):
        types = ("A", "B")
        for K in range(1, 7):
            for counts in [(c, K - c) for c in range(K + 1)]:
                q = Quota(types, counts)
                feasible = [
                    Message(PreferenceVector(p, types), q)
                    for p in sorted(set(itertools.permutations("A" * counts[0] + "B" * counts[1])))
                ]
                for entries in itertools.product(types, repeat=K):
                    u = PreferenceVector(entries, types)
                    for m in feasible:
                        a = audit(u, m)
                        assert a.approx_truthful == a.approx_truthful_star

    def test_strictly_weaker_beyond_binary(self):
        a = audit(vec("AAB"), msg("ABC", self.Q3))
        assert a.approx_truthful_star and not a.approx_truthful


class TestPermutationCheckers:
    Q3 = Quota(ABC, (1, 1, 1))

    def test_path_of_lies_is_fine(self):
        u = vec("AAB")
        assert is_permutation_truthful_naive(u, msg("ABC", self.Q3))
        assert is_permutation_truthful(u, msg("ABC", self.Q3))

    def test_transposition_fails(self):
        u = PreferenceVector(("A", "B"), ("A", "B"))
        m = PreferenceVector(("B", "A"), ("A", "B"))
        assert not is_permutation_truthful_naive(u, m)
        assert not is_permutation_truthful(u, m)

    def test_single_minimal_lie_passes(self):
        u = vec("AAB")
        assert is_permutation_truthful_naive(u, msg("ACB", self.Q3))

    def test_truthful_report_passes(self):
        u = vec("CAB")
        assert is_permutation_truthful(u, u) and is_permutation_truthful_naive(u, u)

    def test_naive_refuses_large_k(self):
        u = PreferenceVector(("A",) * 13, ("A", "B"))
        with pytest.raises(ValidationError, match="K=13"):
            is_permutation_truthful_naive(u, u)

    def test_checkers_agree_exhaustively_small(self):
        types = ABC
        rnd = random.Random(4242)
        for K in range(1, 6):
            quota = compute_quota({t: Fraction(1, 3) for t in types}, K)
            feasible = list(
                sorted(
                    set(
                        itertools.permutations(
                            [t for t, c in quota.as_dict().items() for _ in range(c)]
                        )
                    )
                )
            )
            for _ in range(40):
                u = random_vector(rnd, types, K)
                for entries in feasible:
                    m = Message(PreferenceVector(entries, types), quota)
                    assert is_permutation_truthful(u, m) == is_permutation_truthful_naive(u, m)

    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=4),
        st.randoms(use_true_random=False),
    )
    def test_checkers_agree_fuzz(self, K, n, rnd):
        types = tuple(sorted({f"t{i}" for i in range(n)}))
        u = PreferenceVector(tuple(rnd.choice(types) for _ in range(K)), types)
        m = PreferenceVector(tuple(rnd.choice(types) for _ in range(K)), types)
        assert is_permutation_truthful(u, m) == is_permutation_truthful_naive(u, m)


class TestAudit:
    Q3 = Quota(ABC, (1, 1, 1))

    def test_two_lie_deviation(self):
        a = audit(vec("AAB"), msg("ABC", self.Q3))
        assert (a.approx_truthful, a.approx_truthful_star, a.permutation_truthful) == (False, True, True)
        assert (a.min_lies, a.lies, a.star_bound) == (1, 2, 2)
        assert a.witness.pairs == ((1, 1),)

    def test_rejects_foreign_quota(self):
        q = Quota(("A", "B", "C", "D"), (1, 1, 1, 0))
        m = Message(PreferenceVector(("A", "B", "C"), q.types), q)
        with pytest.raises(ValidationError, match="type sets differ"):
            audit(vec("AAB"), m)

    def test_checkers_are_views_of_the_record(self):
        u, m = vec("AAB"), msg("BCA", self.Q3)
        a = audit(u, m)
        assert a.approx_truthful == oracle_is_approx_truthful(u, m)
        assert a.approx_truthful_star == oracle_is_approx_truthful_star(u, m)
        assert a.permutation_truthful == is_permutation_truthful(u, m) is False
        assert a.star_bound == oracle_star_lie_bound(u, m.quota)
        assert a.witness == permutation_witness(u, m)

    def test_matches_frozen_checkers(self):
        # independent, minimal and shuffled-minimal reports; below K = 11
        # the permutation verdict is also checked by the subset scan
        rnd = random.Random(2206)
        scanned = 0
        for i in range(3000):
            n = rnd.randint(1, 6)
            K = rnd.randint(1, 10) if i % 2 else rnd.randint(1, 40)
            types = tuple(sorted({f"t{j}" for j in range(n)}))
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            if i % 3 == 0:
                m = random_quota_message(rnd, u, q)
            else:
                m = sample_minimal_message(u, q, np.random.default_rng(i))
                if i % 3 == 2:
                    sub = rnd.sample(range(K), K // 4)
                    entries = list(m.entries)
                    for k, j in zip(sub, rnd.sample(sub, len(sub))):
                        entries[k] = m.entries[j]
                    m = Message(PreferenceVector(tuple(entries), types), q)
            a, frozen = audit(u, m), oracle_audit(u, m)
            assert replace(a, witness=None) == replace(frozen, witness=None)
            assert_witness_sound(u, m, a.witness)
            assert len(a.witness.slots) >= len(frozen.witness.slots)
            if K <= 10:
                scanned += 1
                assert a.permutation_truthful == is_permutation_truthful_naive(u, m)
                assert len(a.witness.slots) == max_witness_size(u, m)
        assert scanned > 1500

    @pytest.mark.parametrize("K", [256, 1024, 4096])
    def test_matches_frozen_checkers_at_large_k(self, K):
        # the audit benchmark's mix: a 2/5, 3/10, 1/5, 1/10 prior, and minimal,
        # shuffled-minimal (a random quarter of the slots permuted) and
        # random quota-feasible reports
        rnd = random.Random(K)
        types = ("A", "B", "C", "D")
        q = compute_quota({t: Fraction(w, 10) for t, w in zip(types, (4, 3, 2, 1))}, K)
        u = PreferenceVector(tuple(rnd.choices(types, (4, 3, 2, 1), k=K)), types)
        minimal = sample_minimal_message(u, q, np.random.default_rng(K))
        sub = rnd.sample(range(K), K // 4)
        entries = list(minimal.entries)
        for k, j in zip(sub, rnd.sample(sub, len(sub))):
            entries[k] = minimal.entries[j]
        shuffled = Message(PreferenceVector(tuple(entries), types), q)
        for m in (minimal, shuffled, random_quota_message(rnd, u, q)):
            a, frozen = audit(u, m), oracle_audit(u, m)
            assert a.witness == permutation_witness(u, m)
            assert replace(a, witness=None) == replace(frozen, witness=None)
            assert_witness_sound(u, m, a.witness)
            assert_maximum_witness(u, m, a.witness)
            assert len(a.witness.slots) >= len(frozen.witness.slots)


class TestMemoizedCounts:
    def test_mutating_counts_changes_nothing_later(self):
        q = Quota(ABC, (1, 1, 1))
        u, m = vec("AAB"), msg("BCA", q)
        before = (min_lie_count(u, q), audit(u, m))
        for v in (u, m.vector):
            c = v.counts()
            c["A"] += 5
            c["D"] = 2
            c.clear()
        assert (min_lie_count(u, q), audit(u, m)) == before
        assert u.counts() == Counter("AAB")
        # Message validation reads the same memo
        Message(m.vector, q)
        with pytest.raises(ValidationError, match=r"over-represented \['A'\]"):
            Message(u, q)


class TestRewrittenCheck:
    """``_rewritten`` builds every minimal-lie and transport message unvalidated,
    so its own O(lies) tally is the only quota check those messages get."""

    def test_sound_rewrite_equals_validated_message(self):
        u, q = vec("AAAABC"), Quota(ABC, (2, 2, 2))
        m = _rewritten(u, q, u._type_counts(), [(0, "C"), (2, "B")])
        assert m == msg("CABABC", q) and hash(m) == hash(msg("CABABC", q))
        assert m.entries == ("C", "A", "B", "A", "B", "C") and m.vector.types == ABC

    @pytest.mark.parametrize("truth, budget, writes", [
        ("AAAABC", (2, 2, 2), [(0, "B"), (1, "B")]),  # one owed label swapped for another
        ("AAAABC", (2, 2, 2), [(0, "B"), (1, "Z")]),  # a label outside the universe
        ("AAAABC", (2, 2, 2), [(0, "B")]),  # a write missing
        # one slot listed twice: a tally that took the truth's label at every
        # listed slot would meet the quota in both, though the first frees one
        # A only and the second leaves slot 0 the A it started as
        ("AAAA", (2, 2, 0), [(0, "B"), (0, "B")]),
        ("AAAB", (2, 2, 0), [(0, "B"), (0, "A")]),
    ])
    def test_rewrite_missing_the_quota_raises(self, truth, budget, writes):
        u, q = vec(truth), Quota(ABC, budget)
        with pytest.raises(RuntimeError, match="^internal: rewritten message misses the quota$"):
            _rewritten(u, q, u._type_counts(), writes)


class TestLabelFreeness:
    def test_minimal_set_is_slot_equivariant(self):
        rnd = random.Random(808)
        for _ in range(150):
            n = rnd.randint(1, 3)
            K = rnd.randint(1, 6)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            perm = list(range(K))
            rnd.shuffle(perm)
            permuted_set = {permuted(m.vector, perm).entries for m in minimal_lie_messages(u, q)}
            direct_set = {m.entries for m in minimal_lie_messages(permuted(u, perm), q)}
            assert permuted_set == direct_set

    def test_canonical_pick_has_slot_invariant_lie_pattern(self):
        rnd = random.Random(809)
        for _ in range(150):
            n = rnd.randint(1, 3)
            K = rnd.randint(1, 7)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            perm = list(range(K))
            rnd.shuffle(perm)
            base = canonical_minimal_message(u, q)
            shuffled = canonical_minimal_message(permuted(u, perm), q)
            pattern = sorted(zip(u.entries, base.entries))
            shuffled_pattern = sorted(zip(permuted(u, perm).entries, shuffled.entries))
            assert pattern == shuffled_pattern

    def test_no_deterministic_pick_commutes_with_slot_swaps(self):
        # swapping the two slots of ("A","A") fixes the truth but must move
        # any quota-feasible report, so per-slot equivariance is unattainable
        # for every deterministic single-message strategy.
        q = Quota(("A", "B"), (1, 1))
        u = PreferenceVector(("A", "A"), ("A", "B"))
        m = canonical_minimal_message(u, q)
        swapped = permuted(m.vector, [1, 0])
        assert canonical_minimal_message(permuted(u, [1, 0]), q).entries != swapped.entries
