"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Every expected value is either checked exactly or recomputed here by an
independent oracle (full enumeration, subset scans, binomial pmf sums)
before being compared against the library path.  Each test prints a
PASS line; run with ``pytest tests/test_acceptance.py -v -rA``.
"""

import math
import random
import time
from fractions import Fraction

from linkmech import (
    Message,
    PreferenceVector,
    SimConfig,
    SocialChoiceFunction,
    audit,
    best_response_bruteforce,
    best_response_transport,
    canonical_minimal_message,
    compute_quota,
    is_permutation_truthful,
    lie_count,
    marginal,
    min_lie_count,
    minimal_lie_messages,
    payoff,
    permutation_witness,
    run_convergence,
    tv_distance,
)
from linkmech.core import Problem
from linkmech.cli import bundled_spec_path
from helpers import (
    assert_plan_sums,
    balance_graph,
    build_link_graph,
    enumerate_messages,
    is_permutation_truthful_naive,
    permuted,
    random_quota,
    random_quota_message,
    random_vector,
    run_cli,
    run_cli_json,
)

BIN_SPEC = bundled_spec_path("binary")


def _report(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_01_counterexample_reproduction(counterexample_problem):
    started = time.perf_counter()
    code, out = run_cli_json(["counterexample"])
    assert code == 0 and out["passed"] is True

    p = counterexample_problem
    f = SocialChoiceFunction.utility_argmax(p)
    quota = compute_quota(p, 3)
    u = p.vector(("A", "A", "B"))

    assert min_lie_count(u, quota) == 1
    assert {m.entries for m in minimal_lie_messages(u, quota)} == {
        ("A", "C", "B"),
        ("C", "A", "B"),
    }

    # the paper's strict-preference inequality holds for the bundled table
    assert p.utility["A"]["b"] + p.utility["B"]["c"] > p.utility["A"]["c"] + p.utility["B"]["b"]

    best = best_response_bruteforce(u, f, p, quota)
    best_pay = payoff(u, best[0], f, p)
    deviation = Message(p.vector(("A", "B", "C")), quota)
    assert deviation in best
    # slots 1 and 2 carry the same true type, so the deviation's slot-swap
    # twin always ties it; a strict singleton argmax is impossible here
    assert {m.entries for m in best} == {("A", "B", "C"), ("B", "A", "C")}
    assert payoff(u, deviation, f, p) == payoff(u, Message(p.vector(("B", "A", "C")), quota), f, p)
    for m in minimal_lie_messages(u, quota):
        assert payoff(u, m, f, p) < best_pay

    judged = audit(u, deviation)
    assert not judged.approx_truthful
    assert judged.approx_truthful_star
    assert judged.permutation_truthful

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("01 counterexample-reproduction", f"({elapsed:.3f}s)")


def test_criterion_02_transport_identity():
    started = time.perf_counter()
    rnd = random.Random(220)
    for _ in range(1000):
        n = rnd.randint(1, 4)
        K = rnd.randint(1, 8)
        types = tuple(sorted({f"t{i}" for i in range(n)}))
        u = random_vector(rnd, types, K)
        q = random_quota(rnd, types, K)
        oracle = min(lie_count(u, m) for m in enumerate_messages(q, cap=10**7))
        assert min_lie_count(u, q) == oracle
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report("02 transport-identity", f"(1000 instances, {elapsed:.1f}s)")


def test_criterion_03_witness_suite():
    started = time.perf_counter()
    rnd = random.Random(330)
    for _ in range(2000):
        n = rnd.randint(1, 5)
        K = rnd.randint(1, 12)
        types = tuple(sorted({f"t{i}" for i in range(n)}))
        u = random_vector(rnd, types, K)
        w = random_vector(rnd, types, K)
        d = tv_distance(marginal(u), marginal(w))

        g = balance_graph(build_link_graph(u, w))
        assert g.new_edge_count == K * d

        witness = permutation_witness(u, w)
        pi = dict(witness.pairs)
        assert sorted(pi) == list(witness.slots)
        assert sorted(pi.values()) == list(witness.slots)
        for k, pk in pi.items():
            assert w.entries[k - 1] == u.entries[pk - 1]
        assert len(witness.slots) >= K - (n - 1) * K * d
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report("03 witness-suite", f"(2000 pairs, {elapsed:.1f}s)")


def test_criterion_04_checker_equivalence():
    started = time.perf_counter()
    rnd = random.Random(440)
    types3 = ("A", "B", "C")
    uniform3 = {t: Fraction(1, 3) for t in types3}
    checked = 0
    for K in range(1, 7):
        quota = compute_quota(uniform3, K)
        feasible = list(enumerate_messages(quota))
        for _ in range(100):
            u = random_vector(rnd, types3, K)
            for m in feasible:
                assert is_permutation_truthful(u, m) == is_permutation_truthful_naive(u, m)
                checked += 1
    fuzzed = 0
    for _ in range(10**4):
        n = rnd.randint(2, 4)
        K = rnd.randint(1, 8)
        types = tuple(sorted({f"t{i}" for i in range(n)}))
        u = random_vector(rnd, types, K)
        m = random_vector(rnd, types, K)
        assert is_permutation_truthful(u, m) == is_permutation_truthful_naive(u, m)
        fuzzed += 1
    elapsed = time.perf_counter() - started
    _report("04 checker-equivalence", f"({checked} exhaustive + {fuzzed} fuzzed pairs, {elapsed:.1f}s)")


def test_criterion_05_implication_chain():
    started = time.perf_counter()
    rnd = random.Random(550)
    permutation_truthful_seen = 0
    for _ in range(10**4):
        n = rnd.randint(2, 4)
        K = rnd.randint(1, 8)
        types = tuple(sorted({f"t{i}" for i in range(n)}))
        u = random_vector(rnd, types, K)
        q = random_quota(rnd, types, K)
        a = audit(u, random_quota_message(rnd, u, q))
        if a.approx_truthful:
            assert a.approx_truthful_star
        if a.permutation_truthful:
            permutation_truthful_seen += 1
            assert a.approx_truthful_star
    assert permutation_truthful_seen > 1000

    # on binary universes the exact and relaxed verdicts coincide everywhere
    types2 = ("A", "B")
    half = {t: Fraction(1, 2) for t in types2}
    pairs = 0
    for K in range(1, 9):
        quota = compute_quota(half, K)
        feasible = list(enumerate_messages(quota))
        for bits in range(2**K):
            entries = tuple(types2[bits >> i & 1] for i in range(K))
            u = PreferenceVector(entries, types2)
            for m in feasible:
                a = audit(u, m)
                assert a.approx_truthful == a.approx_truthful_star
                pairs += 1
    elapsed = time.perf_counter() - started
    _report("05 implication-chain", f"({permutation_truthful_seen} filtered + {pairs} binary pairs, {elapsed:.1f}s)")


def test_criterion_06_solver_agreement():
    started = time.perf_counter()
    rnd = random.Random(660)
    for _ in range(500):
        n = rnd.randint(1, 4)
        K = rnd.randint(1, 7)
        types = tuple(sorted({f"t{i}" for i in range(n)}))
        decisions = tuple(sorted(f"d{i}" for i in range(rnd.randint(1, 4))))
        utility = {t: {d: rnd.randint(-9, 9) for d in decisions} for t in types}
        p = Problem(decisions, types, utility, {t: Fraction(1, n) for t in types})
        f = SocialChoiceFunction.utility_argmax(p)
        u = random_vector(rnd, types, K)
        q = random_quota(rnd, types, K)
        brute = best_response_bruteforce(u, f, p, q)
        expected = payoff(u, brute[0], f, p)
        result = best_response_transport(u, f, p, q)
        assert payoff(u, result.message, f, p) == expected  # exact: integer utilities
        assert_plan_sums(result.plan, u, q)
    elapsed = time.perf_counter() - started
    _report("06 solver-agreement", f"(500 instances, {elapsed:.1f}s)")


def test_criterion_07_binary_convergence(binary_problem):
    started = time.perf_counter()
    k_values = (4, 16, 64, 256)
    cfg = SimConfig(
        problem=binary_problem,
        k_values=k_values,
        replications=10**4,
        seed=20240817,
        strategy="canonical-min-lie",
    )
    stats = run_convergence(cfg)

    def exact_binomial_lie_fraction(K: int) -> Fraction:
        # E|X/K - 1/2| for X ~ Bin(K, 1/2), straight from the pmf
        num = sum(math.comb(K, x) * abs(2 * x - K) for x in range(K + 1))
        return Fraction(num, 2**K * 2 * K)

    zs = []
    for s in stats:
        exact = float(exact_binomial_lie_fraction(s.K))
        assert s.lie_fraction_se is not None
        assert abs(s.lie_fraction - exact) <= 3 * s.lie_fraction_se
        zs.append(abs(s.lie_fraction - exact) / s.lie_fraction_se)
    assert stats[-1].lie_fraction < stats[0].lie_fraction

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        "07 binary-convergence",
        f"(K={list(k_values)}, max |z|={max(zs):.2f}, {elapsed:.1f}s)",
    )


def test_criterion_08_exact_small_k_expectation(counterexample_problem):
    started = time.perf_counter()
    # independent oracle: enumerate all 27 equally likely truth vectors and
    # take each one's minimum Hamming distance over the 6 quota messages
    types = ("A", "B", "C")
    quota = compute_quota({t: Fraction(1, 3) for t in types}, 3)
    feasible = list(enumerate_messages(quota))
    total = Fraction(0)
    cases = 0
    import itertools

    for entries in itertools.product(types, repeat=3):
        u = PreferenceVector(entries, types)
        total += Fraction(min(lie_count(u, m) for m in feasible), 27)
        cases += 1
    assert cases == 27
    exact = total  # = 8/9

    cfg = SimConfig(
        problem=counterexample_problem,
        k_values=(3,),
        replications=10**5,
        seed=8,
        strategy="canonical-min-lie",
    )
    (s,) = run_convergence(cfg)
    mean_lies = s.lie_fraction * 3
    se_lies = s.lie_fraction_se * 3
    assert abs(mean_lies - float(exact)) <= 3 * se_lies
    elapsed = time.perf_counter() - started
    _report(
        "08 exact-small-k-expectation",
        f"(oracle {exact}, simulated {mean_lies:.5f}, z={abs(mean_lies - float(exact)) / se_lies:.2f}, {elapsed:.1f}s)",
    )


def test_criterion_09_simulate_determinism(tmp_path):
    args = ["simulate", "--spec", BIN_SPEC, "--K", "2,8,32", "--reps", "2000", "--seed", "4242"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    third = tmp_path / "c.csv"
    assert run_cli(args + ["--output", str(first)])[0] == 0
    assert run_cli(args + ["--output", str(second)])[0] == 0
    assert run_cli(args + ["--output", str(third)])[0] == 0
    a, b, c = first.read_bytes(), second.read_bytes(), third.read_bytes()
    assert a == b == c
    _report("09 simulate-determinism", f"({len(a)} identical bytes, three runs)")


def test_criterion_10_label_freeness():
    # A deterministic single-message strategy cannot commute with slot
    # permutations per slot: swapping the two slots of truth (A, A) fixes the
    # truth, while quota (1, 1) forces distinct reports, so any pick moves.
    from linkmech import Quota

    q2 = Quota(("A", "B"), (1, 1))
    uu = PreferenceVector(("A", "A"), ("A", "B"))
    pick = canonical_minimal_message(uu, q2)
    assert canonical_minimal_message(permuted(uu, [1, 0]), q2).entries != permuted(pick.vector, [1, 0]).entries

    # The label-free object is the minimal-lie *set* (the uniform mixture over
    # it): permuting the truth permutes the set elementwise, exactly.
    rnd = random.Random(1010)
    for _ in range(1000):
        n = rnd.randint(1, 3)
        K = rnd.randint(1, 6)
        types = tuple(sorted({f"t{i}" for i in range(n)}))
        u = random_vector(rnd, types, K)
        q = random_quota(rnd, types, K)
        perm = list(range(K))
        rnd.shuffle(perm)
        base_set = minimal_lie_messages(u, q)
        permuted_set = {permuted(m.vector, perm).entries for m in base_set}
        direct_set = {m.entries for m in minimal_lie_messages(permuted(u, perm), q)}
        assert permuted_set == direct_set

        # the canonical pick stays inside the permuted set with an identical
        # (truth, report) pairing pattern, the invariance a deterministic
        # selection can honor
        base_pick = canonical_minimal_message(u, q)
        moved_pick = canonical_minimal_message(permuted(u, perm), q)
        assert moved_pick.entries in direct_set
        assert sorted(zip(u.entries, base_pick.entries)) == sorted(
            zip(permuted(u, perm).entries, moved_pick.entries)
        )
    _report("10 label-freeness", "(1000 fuzzed permutation instances, set-equivariant)")
