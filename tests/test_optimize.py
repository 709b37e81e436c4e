import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from linkmech import (
    EnumerationCapError,
    Message,
    PreferenceVector,
    Problem,
    Quota,
    SimConfig,
    SocialChoiceFunction,
    ValidationError,
    audit,
    best_response_bruteforce,
    best_response_transport,
    compute_quota,
    lie_count,
    message_count,
    min_lie_count,
    payoff,
    run_convergence,
    validate_problem,
    verify_counterexample,
)
from linkmech import optimize, truthfulness
from linkmech.optimize import _MinCostFlow, _pair_table
from helpers import (
    assert_plan_sums,
    enumerate_messages,
    oracle_best_response_transport,
    permuted,
    random_quota,
    random_vector,
)

ABC = ("A", "B", "C")
Q3 = Quota(ABC, (1, 1, 1))
CYCLE_SPEC = Path(__file__).parent / "data" / "transport_cycle.json"


def vec(entries, types=ABC):
    return PreferenceVector(tuple(entries), types)


def exact_values(f, p, types):
    """value[i][j]: exact payoff to true type i reporting j, floats read exactly."""
    return [
        [sum(Fraction(w) * Fraction(p.utility[t][d]) for d, w in f.lottery(r).items()) for r in types]
        for t in types
    ]


def best_plan_value(supply, demand, value):
    """Exact maximum of sum(flow * value) over all integer plans with these margins.

    Every quota-feasible message has the payoff of its (true, reported) count
    plan, so this bounds the exact payoff of every message.  Row-by-row
    dynamic program over the remaining column capacity.
    """
    n = len(supply)

    def rows(total, left):
        if len(left) == 1:
            if total <= left[0]:
                yield (total,)
            return
        for x in range(min(total, left[0]) + 1):
            for rest in rows(total - x, left[1:]):
                yield (x, *rest)

    @lru_cache(maxsize=None)
    def best(i, left):
        if i == n:
            return 0
        return max(
            sum(x * v for x, v in zip(row, value[i]) if x)
            + best(i + 1, tuple(c - x for c, x in zip(left, row)))
            for row in rows(supply[i], left)
        )

    return best(0, tuple(demand))


def make_problem(utility, types=ABC, decisions=("a", "b", "c")):
    n = len(types)
    return Problem(
        decisions=tuple(decisions),
        types=tuple(types),
        utility=utility,
        prior={t: Fraction(1, n) for t in types},
    )


class TestSocialChoiceFunction:
    def test_utility_argmax_is_dictatorial_on_fixture(self, counterexample_problem):
        f = SocialChoiceFunction.utility_argmax(counterexample_problem)
        assert {t: f.decision(t) for t in ABC} == {"A": "a", "B": "b", "C": "c"}

    def test_argmax_tie_breaks_to_first_decision(self):
        p = make_problem({t: {"a": 1, "b": 1, "c": 0} for t in ABC})
        f = SocialChoiceFunction.utility_argmax(p)
        assert all(f.decision(t) == "a" for t in ABC)

    def test_rejects_bad_lottery(self):
        with pytest.raises(ValidationError, match="sum"):
            SocialChoiceFunction({"A": {"a": Fraction(1, 2)}})

    @pytest.mark.parametrize(
        "weight, stored",
        [
            (float("nan"), None), ("x", None), (None, None), (float("inf"), None), (True, None), ([1], None),
            ("1/2", Fraction(1, 2)), (" 0.5 ", Fraction(1, 2)), (0.5, 0.5), (Fraction(1, 2), Fraction(1, 2)),
        ],
    )
    def test_weight_checked_and_str_parsed(self, weight, stored):
        lottery = {"A": {"a": weight, "b": Fraction(1, 2)}, "B": {"b": 1}, "C": {"c": 1}}
        if stored is None:
            with pytest.raises(ValidationError, match=r"^lottery\[A\]\[a\]: weight .* is not a finite number$"):
                SocialChoiceFunction(lottery)
            return
        f = SocialChoiceFunction(lottery)
        assert f.lottery("A")["a"] == stored and type(f.lottery("A")["a"]) is type(stored)
        assert f.lottery("B")["b"] == 1 and type(f.lottery("B")["b"]) is int
        p = make_problem({t: {"a": 2, "b": 0, "c": 1} for t in ABC})
        assert_matches_oracle(vec("AAB"), f, p, Q3)
        want = Fraction(2) if type(stored) is Fraction else 2.0  # a float weight keeps a float payoff
        got = payoff(vec("ABC"), vec("ABC"), f, p)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize(
        "lottery",
        [{"a": "1e20000000"}, {"a": "1e-20000000", "b": 1}, {"a": 10**5000}, {"a": Fraction(1, 10**5000)}],
        ids=["huge-exponent", "tiny-exponent", "long-int", "long-denominator"],
    )
    def test_oversized_weight_refused_fast(self, lottery):
        # an exponent past the digit bound is refused before Fraction expands
        # it, and a sum too long to print is named by its size
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"^lottery\[A\]") as info:
            SocialChoiceFunction({"A": lottery})
        assert time.perf_counter() - start < 1
        assert "\n" not in str(info.value) and len(str(info.value)) < 100

    def test_mixed_lottery_expected_utility(self):
        p = make_problem({t: {"a": 2, "b": 0, "c": 1} for t in ABC})
        f = SocialChoiceFunction({t: {"a": Fraction(1, 2), "c": Fraction(1, 2)} for t in ABC})
        assert f.expected_utility("A", "B", p) == Fraction(3, 2)
        assert f.decision("A") is None


class TestPayoff:
    def test_fixture_minimal_message(self, counterexample_problem):
        p = counterexample_problem
        f = SocialChoiceFunction.utility_argmax(p)
        assert payoff(vec("AAB"), Message(vec("ACB"), Q3), f, p) == 4

    def test_truthful_feasible_report_is_optimal(self, counterexample_problem):
        p = counterexample_problem
        f = SocialChoiceFunction.utility_argmax(p)
        u = vec("CAB")
        truth_pay = payoff(u, Message(u, Q3), f, p)
        for m in enumerate_messages(Q3):
            assert payoff(u, m, f, p) <= truth_pay

    def test_zero_utilities(self):
        p = make_problem({t: {"a": 0, "b": 0, "c": 0} for t in ABC})
        f = SocialChoiceFunction.utility_argmax(p)
        assert payoff(vec("AAB"), Message(vec("ACB"), Q3), f, p) == 0

    def test_slot_permutation_invariance(self, counterexample_problem):
        p = counterexample_problem
        f = SocialChoiceFunction.utility_argmax(p)
        rnd = random.Random(5)
        for _ in range(50):
            u = random_vector(rnd, ABC, 3)
            best = best_response_bruteforce(u, f, p, Q3)
            perm = list(range(3))
            rnd.shuffle(perm)
            best_permuted = best_response_bruteforce(permuted(u, perm), f, p, Q3)
            assert payoff(u, best[0], f, p) == payoff(permuted(u, perm), best_permuted[0], f, p)

    def test_constant_shift_keeps_argmax(self):
        base = {"A": {"a": 2, "b": 1, "c": 0}, "B": {"a": 0, "b": 2, "c": 1}, "C": {"a": 1, "b": 0, "c": 2}}
        shifted = {t: {d: v + (7 if t == "B" else 0) for d, v in row.items()} for t, row in base.items()}
        p1, p2 = make_problem(base), make_problem(shifted)
        f = SocialChoiceFunction.utility_argmax(p1)
        u = vec("ABB")
        pays1 = {m.entries: payoff(u, m, f, p1) for m in enumerate_messages(Q3)}
        pays2 = {m.entries: payoff(u, m, f, p2) for m in enumerate_messages(Q3)}
        assert all(pays2[e] == pays1[e] + 7 * 2 for e in pays1)  # two B slots
        assert {e for e in pays1 if pays1[e] == max(pays1.values())} == {
            e for e in pays2 if pays2[e] == max(pays2.values())
        }


class TestEnumerateMessages:
    def test_six_permutations_in_lex_order(self):
        got = [m.entries for m in enumerate_messages(Q3)]
        assert got == sorted(set(itertools.permutations(ABC)))
        assert message_count(Q3) == 6

    def test_degenerate_quota(self):
        q = Quota(ABC, (3, 0, 0))
        assert [m.entries for m in enumerate_messages(q)] == [("A", "A", "A")]

    def test_two_one_quota(self):
        q = Quota(("A", "B"), (2, 1))
        assert [m.entries for m in enumerate_messages(q)] == [
            ("A", "A", "B"),
            ("A", "B", "A"),
            ("B", "A", "A"),
        ]

    def test_count_matches_multinomial(self):
        rnd = random.Random(6)
        for _ in range(50):
            n = rnd.randint(1, 4)
            K = rnd.randint(1, 7)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            q = random_quota(rnd, types, K)
            msgs = list(enumerate_messages(q))
            assert len(msgs) == message_count(q) == len({m.entries for m in msgs})

    def test_cap(self):
        types = tuple(sorted(f"t{i}" for i in range(4)))
        q = Quota(types, (6, 6, 6, 6))
        with pytest.raises(EnumerationCapError):
            list(enumerate_messages(q, cap=10**6))

    def test_cap_refuses_a_count_past_the_digit_limit(self, counterexample_problem):
        # the count has over 4,300 digits, past Python's int-to-str limit; the refusal never prints it
        q = Quota(("A", "B", "C"), (4000, 4000, 4000))
        assert message_count(q).bit_length() > 4300 * 3.33
        u = PreferenceVector(("A", "B", "C") * 4000, q.types)
        f = SocialChoiceFunction.utility_argmax(counterexample_problem)
        with pytest.raises(EnumerationCapError) as exc:
            best_response_bruteforce(u, f, counterexample_problem, q)
        assert str(exc.value) == "more than 1000000 quota messages"
        q = Quota(("A", "B", "C"), (1, 2, 3))  # 60 messages: a cap of 60 admits them, 59 refuses
        assert len(list(enumerate_messages(q, cap=60))) == 60
        with pytest.raises(EnumerationCapError, match="^more than 59 quota messages$"):
            list(enumerate_messages(q, cap=59))


class TestBestResponse:
    def test_fixture_deviation_pair(self, counterexample_problem):
        p = counterexample_problem
        f = SocialChoiceFunction.utility_argmax(p)
        u = vec("AAB")
        best = best_response_bruteforce(u, f, p, Q3)
        # slots 1 and 2 share true type A, so the deviation always ties with
        # its slot-swap; the optimum is the pair, not a singleton
        assert [m.entries for m in best] == [("A", "B", "C"), ("B", "A", "C")]
        assert payoff(u, best[0], f, p) == 4.5

    def test_truth_feasible_strict_preferences_unique(self, counterexample_problem):
        p = counterexample_problem
        f = SocialChoiceFunction.utility_argmax(p)
        for entries in itertools.permutations(ABC):
            u = vec(entries)
            best = best_response_bruteforce(u, f, p, Q3)
            assert [m.entries for m in best] == [entries]

    def test_indifferent_agent_ties_everywhere(self):
        p = make_problem({t: {"a": 1, "b": 1, "c": 1} for t in ABC})
        f = SocialChoiceFunction.utility_argmax(p)
        best = best_response_bruteforce(vec("AAB"), f, p, Q3)
        assert len(best) == 6

    def test_transport_matches_fixture(self, counterexample_problem):
        p = counterexample_problem
        f = SocialChoiceFunction.utility_argmax(p)
        result = best_response_transport(vec("AAB"), f, p, Q3)
        assert result.message.entries == ("A", "B", "C")
        assert payoff(vec("AAB"), result.message, f, p) == 4.5
        assert result.plan.to_json_dict()["flows"] == {
            "A": {"A": 1, "B": 1},
            "B": {"C": 1},
            "C": {},
        }

    def test_transport_diagonal_when_truth_feasible(self, counterexample_problem):
        p = counterexample_problem
        f = SocialChoiceFunction.utility_argmax(p)
        result = best_response_transport(vec("BCA"), f, p, Q3)
        assert result.message.entries == ("B", "C", "A")
        assert all(result.plan.flows[i][i] == 1 for i in range(len(ABC)))

    def test_transport_single_type(self):
        types = ("T",)
        p = Problem(("d",), types, {"T": {"d": 3}}, {"T": Fraction(1)})
        f = SocialChoiceFunction.utility_argmax(p)
        u = PreferenceVector(("T", "T"), types)
        result = best_response_transport(u, f, p, Quota(types, (2,)))
        assert result.message.entries == ("T", "T") and payoff(u, result.message, f, p) == 6

    def test_transport_agrees_with_bruteforce_exact(self):
        rnd = random.Random(20240818)
        for _ in range(200):
            n = rnd.randint(1, 4)
            K = rnd.randint(1, 7)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            decisions = tuple(sorted(f"d{i}" for i in range(rnd.randint(1, 4))))
            utility = {t: {d: rnd.randint(-5, 9) for d in decisions} for t in types}
            p = Problem(decisions, types, utility, {t: Fraction(1, n) for t in types})
            f = SocialChoiceFunction.utility_argmax(p)
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            best = best_response_bruteforce(u, f, p, q)
            result = best_response_transport(u, f, p, q)
            expected = payoff(u, best[0], f, p)
            assert payoff(u, result.message, f, p) == expected
            assert_plan_sums(result.plan, u, q)
        # one-decimal float utilities: the bruteforce ties are the exact argmax,
        # with every float read as its exact binary value
        rnd = random.Random(1)
        for _ in range(300):
            types = ("t0", "t1", "t2")
            utility = {t: {d: rnd.randint(0, 20) / 10 for d in types} for t in types}
            p = Problem(types, types, utility, {t: Fraction(1, 3) for t in types})
            f = SocialChoiceFunction.utility_argmax(p)
            K = rnd.randint(4, 7)
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            value = dict(zip(types, exact_values(f, p, types)))
            exact = {
                m.entries: sum(value[t][types.index(r)] for t, r in zip(u.entries, m.entries))
                for m in enumerate_messages(q)
            }
            top = max(exact.values())
            best = best_response_bruteforce(u, f, p, q)
            assert [m.entries for m in best] == [e for e, v in exact.items() if v == top]
            assert exact[best_response_transport(u, f, p, q).message.entries] == top

    def test_transport_breaks_payoff_ties_toward_fewer_lies(self):
        rnd = random.Random(31337)
        for _ in range(150):
            n = rnd.randint(2, 4)
            K = rnd.randint(1, 6)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            decisions = ("d0", "d1")
            utility = {t: {d: rnd.randint(0, 2) for d in decisions} for t in types}
            p = Problem(decisions, types, utility, {t: Fraction(1, n) for t in types})
            f = SocialChoiceFunction.utility_argmax(p)
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            best = best_response_bruteforce(u, f, p, q)
            fewest = min(lie_count(u, m) for m in best)
            got = best_response_transport(u, f, p, q)
            assert lie_count(u, got.message) == fewest


def random_oracle_case(rnd, kind=None, n=None, K=None):
    """An instance on which the tuple-weight solver's sums are exact; the
    utility kind, type count and K are drawn unless given."""
    kind = kind or rnd.choice(("int", "fraction", "dyadic"))
    n = n or rnd.randint(1, 5)
    K = K or rnd.randint(1, 30)
    types = tuple(f"t{i}" for i in range(n))
    decisions = tuple(f"d{i}" for i in range(rnd.randint(1, 4)))
    if kind == "int":
        draw = lambda: rnd.randint(-5, 9)
    elif kind == "fraction":
        draw = lambda: Fraction(rnd.randint(-20, 20), rnd.randint(1, 12))
    else:
        draw = lambda: rnd.randint(-64, 64) / 2 ** rnd.randint(0, 4)
    utility = {t: {d: draw() for d in decisions} for t in types}
    p = Problem(decisions, types, utility, {t: Fraction(1, n) for t in types})
    if kind == "dyadic" or rnd.random() < 0.5:
        f = SocialChoiceFunction.utility_argmax(p)
    else:
        lotteries = {}
        for t in types:
            raw = [rnd.randint(0, 3) for _ in decisions]
            if not any(raw):
                raw[rnd.randrange(len(raw))] = 1
            lotteries[t] = {d: Fraction(w, sum(raw)) for d, w in zip(decisions, raw) if w}
        f = SocialChoiceFunction(lotteries)
    return p, f, random_vector(rnd, types, K), random_quota(rnd, types, K)


class TestIntegerTransport:
    def test_matches_frozen_oracle(self):
        rnd = random.Random(44)
        for _ in range(10_000):
            p, f, u, q = random_oracle_case(rnd)
            got = best_response_transport(u, f, p, q)
            want = oracle_best_response_transport(u, f, p, q)
            assert got.plan.flows == want.plan.flows
            assert got.message.entries == want.message.entries
            assert payoff(u, got.message, f, p) == want.payoff

    def test_matches_frozen_oracle_many_types(self):
        # 8-20 types, where the search's passes and ties matter most
        rnd = random.Random(2900)
        for _ in range(40):
            p, f, u, q = random_oracle_case(rnd, None, rnd.randint(8, 20), rnd.randint(1, 64))
            got = best_response_transport(u, f, p, q)
            want = oracle_best_response_transport(u, f, p, q)
            assert got.plan.flows == want.plan.flows
            assert got.message.entries == want.message.entries

    def test_matches_frozen_oracle_at_scale(self):
        # 2-8 types and K up to 2,000, on truths that miss some types and
        # quotas with zero counts, so some rows lie to labels on both sides
        rnd = random.Random(2000)
        seen = Counter()
        for _ in range(400):
            n = rnd.randint(2, 8)
            K = rnd.choice((rnd.randint(1, 60), rnd.randint(60, 2_000)))
            p, f, _, _ = random_oracle_case(rnd, None, n, K)
            types = tuple(f"t{i}" for i in range(n))
            u = vec(rnd.choices(rnd.sample(types, rnd.randint(1, n)), k=K), types)
            owed = rnd.sample(types, rnd.randint(1, n))  # every other type gets a zero quota
            cuts = sorted(rnd.randint(0, K) for _ in owed[1:])
            quota = dict(zip(owed, (b - a for a, b in zip([0, *cuts], [*cuts, K]))))
            q = Quota(types, tuple(quota.get(t, 0) for t in types))
            assert_matches_oracle(u, f, p, q)
            flows = best_response_transport(u, f, p, q).plan.flows
            counts = u.counts()
            seen["absent type"] += len(counts) < n
            seen["zero quota"] += 0 in q.counts
            seen["both sides"] += any(any(row[:i]) and any(row[i + 1:]) for i, row in enumerate(flows))
            seen["K > 1,000"] += K > 1_000
        assert min(seen[k] for k in ("absent type", "zero quota", "both sides", "K > 1,000")) >= 20, seen

    def test_rounded_float_utilities_reach_exact_optimum(self):
        rnd = random.Random(6151)
        for _ in range(5_000):
            n = rnd.randint(2, 4)
            K = rnd.randint(1, 12)
            types = tuple(f"t{i}" for i in range(n))
            decisions = tuple(f"d{i}" for i in range(n))
            digits = rnd.randint(1, 3)
            utility = {t: {d: round(rnd.uniform(0, 2), digits) for d in decisions} for t in types}
            p = Problem(decisions, types, utility, {t: Fraction(1, n) for t in types})
            f = SocialChoiceFunction.utility_argmax(p)
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            result = best_response_transport(u, f, p, q)
            value = exact_values(f, p, types)
            got = sum(x * v for row, vrow in zip(result.plan.flows, value) for x, v in zip(row, vrow))
            counts = u.counts()
            best = best_plan_value([counts.get(t, 0) for t in types], list(q.counts), value)
            assert got == best  # >= every message's exact payoff, and attained

    def test_plan_dynamic_program_matches_message_enumeration(self):
        rnd = random.Random(97)
        for _ in range(300):
            n = rnd.randint(1, 4)
            K = rnd.randint(1, 6)
            types = tuple(f"t{i}" for i in range(n))
            decisions = tuple(f"d{i}" for i in range(n))
            utility = {t: {d: round(rnd.uniform(0, 2), 2) for d in decisions} for t in types}
            p = Problem(decisions, types, utility, {t: Fraction(1, n) for t in types})
            f = SocialChoiceFunction.utility_argmax(p)
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            value = exact_values(f, p, types)
            index = {t: i for i, t in enumerate(types)}
            enumerated = max(
                sum(value[index[t]][index[r]] for t, r in zip(u.entries, m.entries))
                for m in enumerate_messages(q)
            )
            counts = u.counts()
            assert best_plan_value([counts.get(t, 0) for t in types], list(q.counts), value) == enumerated

    def test_float_cycle_spec_returns_through_cli(self):
        # Float sums of (top - value) once closed a negative residual cycle on
        # this spec and truth, and the augmenting-path walk never ended.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outs = {}
        for method in ("transport", "bruteforce"):
            argv = [sys.executable, "-m", "linkmech", "best-response", "--spec", str(CYCLE_SPEC),
                    "--truth", "t1,t1,t2,t2,t2,t2,t2,t1,t2,t1", "--method", method]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outs[method] = json.loads(proc.stdout)
        # the exact payoff rounded once; the slot pairs' float sum read 7.552
        assert {method: out["payoff"] for method, out in outs.items()} == {
            "transport": 7.5520000000000005, "bruteforce": 7.5520000000000005}
        # every exactly tied best response, which slot-order float sums once split
        assert len(outs["bruteforce"]["messages"]) == 90
        assert outs["transport"]["message"] in outs["bruteforce"]["messages"]

    def test_weights_are_plain_ints(self, counterexample_problem):
        p = counterexample_problem
        f = SocialChoiceFunction.utility_argmax(p)
        best_response_transport(vec("AAB"), f, p, Q3)
        cost = _pair_table(f, p, ABC)[3].cost
        assert cost and all(type(c) is int for c in cost)


def plain_shortest_path(head, to, cost, cap, s):
    """Bellman-Ford that relaxes every reached vertex on every pass, each
    from its distance at the start of its turn (a self-loop may lower it):
    every node's distance and last edge."""
    n = len(head)
    dist = [None] * n
    prev_edge = [-1] * n
    dist[s] = 0
    for _ in range(n - 1):
        changed = False
        for v in range(n):
            dv = dist[v]
            if dv is None:
                continue
            for eid in head[v]:
                if cap[eid] == 0:
                    continue
                w = to[eid]
                cand = dv + cost[eid]
                if dist[w] is None or cand < dist[w]:
                    dist[w] = cand
                    prev_edge[w] = eid
                    changed = True
        if not changed:
            break
    return dist, prev_edge


class TestShortestPath:
    """The search matches a plain Bellman-Ford: every distance, predecessor
    edge and tie."""

    def test_matches_plain_bellman_ford_mid_solve(self, monkeypatch):
        real = optimize._bellman_ford
        searches = []

        def checked(head, to, weight, room, sources):
            (s,) = sources
            got = real(head, to, weight, room, sources)
            assert got == plain_shortest_path(head, to, weight, room, s)
            searches.append(s)
            return got

        monkeypatch.setattr(optimize, "_bellman_ford", checked)
        rnd = random.Random(31)
        for _ in range(400):
            p, f, u, q = random_oracle_case(rnd)
            assert_matches_oracle(u, f, p, q)
        assert len(searches) > 800  # every solve after its first path is mid-solve

    def test_matches_plain_bellman_ford_on_random_networks(self):
        # arbitrary costs, negative cycles and self-loops included, and zero capacities
        rnd = random.Random(32)
        for _ in range(2_000):
            n = rnd.randint(2, 9)
            arcs = [(rnd.randrange(n), rnd.randrange(n), rnd.randint(-4, 9)) for _ in range(rnd.randint(0, 4 * n))]
            net = _MinCostFlow(n, [a for a, _, _ in arcs], [b for _, b, _ in arcs], [c for _, _, c in arcs])
            cap = [rnd.choice((0, 0, 1, 3)) if e % 2 == 0 else 0 for e in range(len(net.to))]
            cap = [c if rnd.random() < 0.7 else rnd.randint(0, 2) for c in cap]
            s = rnd.randrange(n)
            got = optimize._bellman_ford(net.head, net.to, net.cost, cap, (s,))
            assert got == plain_shortest_path(net.head, net.to, net.cost, cap, s)


class TestNetworkLayout:
    """``_pair_table``'s network: n source arcs, n sink arcs, then the n**2
    pair arcs in row order, laid out by ``_residual`` with (c, -c) costs, the
    payoff gaps divided by their gcd."""

    def test_arcs_in_order(self):
        rnd = random.Random(3302)
        for n in range(1, 6):
            p, f, _, _ = random_oracle_case(rnd, n=n)
            types = tuple(f"t{i}" for i in range(n))
            scaled, _, _, net = _pair_table(f, p, types)
            top = max(scaled.values())
            unit = math.gcd(*(top - v for v in scaled.values())) or 1
            tails = [2 * n] * n + list(range(n, 2 * n)) + [i for i in range(n) for _ in range(n)]
            heads = list(range(n)) + [2 * n + 1] * n + list(range(n, 2 * n)) * n
            assert (net.head, net.to) == truthfulness._residual(2 * n + 2, tails, heads)
            gaps = [(top - scaled[t, r]) // unit * optimize._LIE_SCALE + (t != r) for t in types for r in types]
            assert net.cost[0::2] == [0] * (2 * n) + gaps
            assert net.cost[1::2] == [-c for c in net.cost[0::2]]


class CountingMemo(dict):
    """A plan memo that counts its lookups, one per best response, and hits."""

    lookups = hits = 0

    def get(self, key):
        self.lookups += 1
        value = super().get(key)
        self.hits += value is not None
        return value


class TestPlanMemo:
    """A network solves once per (counts, quota) and keeps the flows: a plan
    memo hit gives the same plan, message and payoff as a solve, for any
    truth with those counts."""

    def test_repeated_counts_match_frozen_oracle(self):
        rnd = random.Random(3400)
        for kind, n in itertools.product(("int", "fraction", "dyadic"), range(1, 6)):
            K = rnd.randint(1, 40)
            p, f, _, _ = random_oracle_case(rnd, kind, n, K)
            types = tuple(f"t{i}" for i in range(n))
            net = _pair_table(f, p, types)[3]
            net.plans = CountingMemo()
            truths = [random_vector(rnd, types, K) for _ in range(4)]
            quotas = [random_quota(rnd, types, K) for _ in range(3)]
            for _ in range(100):
                u = vec(rnd.sample(rnd.choice(truths).entries, K), types)  # known counts, new slot order
                assert_matches_oracle(u, f, p, rnd.choice(quotas))
            assert _pair_table(f, p, types)[3] is net
            assert net.plans.lookups == 100 and net.plans.hits >= 100 - len(truths) * len(quotas)

    def test_memo_never_outgrows_its_cap(self, monkeypatch):
        monkeypatch.setattr("linkmech.optimize._PLAN_MEMO_CELLS", 72)  # 8 plans of 3 x 3 cells
        rnd = random.Random(3401)
        p, f, _, _ = random_oracle_case(rnd, "fraction", 3, 12)
        types = ("t0", "t1", "t2")
        net = _pair_table(f, p, types)[3]
        net.plans.clear()
        sizes = []
        for _ in range(200):
            assert_matches_oracle(random_vector(rnd, types, 12), f, p, random_quota(rnd, types, 12))
            sizes.append(len(net.plans))
        assert _pair_table(f, p, types)[3] is net
        assert max(sizes) == 8 and (8, 1) in zip(sizes, sizes[1:])  # emptied when full

    def test_memo_bounded_in_cells_at_many_types(self):
        # 20 types: 400 cells a plan, so the memo holds at most 163 plans
        rnd = random.Random(3403)
        p, f, _, _ = random_oracle_case(rnd, "int", 20, 30)
        types = tuple(sorted(p.types))  # the quota's order, t10 before t2
        net = _pair_table(f, p, types)[3]
        net.plans = CountingMemo()
        sizes = []
        for i in range(400):
            u, q = random_vector(rnd, types, 30), random_quota(rnd, types, 30)
            if i % 40:
                best_response_transport(u, f, p, q)
            else:
                assert_matches_oracle(u, f, p, q)
            sizes.append(len(net.plans))
        assert _pair_table(f, p, types)[3] is net and net.plans.hits == 0  # every call a new count vector
        assert max(sizes) == optimize._PLAN_MEMO_CELLS // 400 and sizes[-1] < max(sizes)  # emptied when full

    def test_bench_sized_counts_pinned(self, monkeypatch, counterexample_problem):
        # new networks, solves (plan memo misses), plan memo hits and path
        # searches (one per augmentation) per simulate run at K 16,64,256,
        # from an emptied network slot, so later runs reuse the first run's
        # network: a plan key that merged or split count vectors would move them
        nets, searches = [], []
        real_init, real_search = _MinCostFlow.__init__, optimize._bellman_ford

        def counted_init(self, *arcs):
            real_init(self, *arcs)
            self.plans = CountingMemo()
            nets.append(self)

        def counted_search(head, to, weight, room, sources):
            searches.append(sources)
            return real_search(head, to, weight, room, sources)

        monkeypatch.setattr(_MinCostFlow, "__init__", counted_init)
        monkeypatch.setattr(optimize, "_bellman_ford", counted_search)
        monkeypatch.setattr(optimize, "_cached", (None,) * 4)
        counts = {}
        for seed in (1, 2, 3):
            built = len(nets)
            searches.clear()
            cfg = SimConfig(problem=counterexample_problem, k_values=(16, 64, 256), replications=25, seed=seed,
                            strategy="best-response")
            run_convergence(cfg)
            plans = nets[0].plans
            counts[seed] = (len(nets) - built, plans.lookups - plans.hits, plans.hits, len(searches))
            plans.lookups = plans.hits = 0
        assert counts == {1: (1, 66, 9, 314), 2: (0, 56, 19, 265), 3: (0, 56, 19, 265)}


def assert_matches_oracle(u, f, p, q):
    got = best_response_transport(u, f, p, q)
    want = oracle_best_response_transport(u, f, p, q)
    assert got.plan.flows == want.plan.flows
    assert got.message.entries == want.message.entries
    got_payoff = payoff(u, got.message, f, p)
    assert got_payoff == want.payoff and type(got_payoff) is type(want.payoff)


# The counterexample's utilities with u(c|B) left open: at 1.5 the truth
# A,A,B prefers the two-lie report, at 1 it keeps the one-lie minimum.
def ce_utility(b_c, number=int):
    return {
        "A": {"a": number(2), "b": number(1), "c": number(0)},
        "B": {"a": number(0), "b": number(2), "c": b_c},
        "C": {"a": number(0), "b": number(0), "c": number(2)},
    }


class TestValueTableCache:
    """Per-problem tables are reused by the identity of ``f`` and ``p`` only."""

    def alternate(self, cases, rounds=30):
        rnd = random.Random(8)
        for _ in range(rounds):
            for p, f in cases:
                assert_matches_oracle(vec("AAB"), f, p, Q3)
                K = rnd.randint(1, 12)
                assert_matches_oracle(random_vector(rnd, ABC, K), f, p, random_quota(rnd, ABC, K))

    def test_problems_with_the_same_types(self):
        f = SocialChoiceFunction.point_mass({"A": "a", "B": "b", "C": "c"})
        deviates, stays = make_problem(ce_utility(1.5)), make_problem(ce_utility(1))
        assert best_response_transport(vec("AAB"), f, deviates, Q3).message.entries == ("A", "B", "C")
        assert best_response_transport(vec("AAB"), f, stays, Q3).message.entries == ("A", "C", "B")
        self.alternate([(deviates, f), (stays, f)])

    def test_int_and_equal_float_utilities(self):
        f = SocialChoiceFunction.point_mass({"A": "a", "B": "b", "C": "c"})
        ints, floats = make_problem(ce_utility(1)), make_problem(ce_utility(1.0, float))
        assert ints.utility == floats.utility
        for p, number in ((ints, Fraction), (floats, float)):
            result = best_response_transport(vec("AAB"), f, p, Q3)
            assert type(payoff(vec("AAB"), result.message, f, p)) is number
        self.alternate([(ints, f), (floats, f), (ints, f)])

    def test_equal_and_scaled_utilities_share_one_network(self, monkeypatch):
        # the network depends only on the int arc costs, the payoff gaps over
        # their gcd; each problem keeps its own table, so its payoff type
        monkeypatch.setattr(optimize, "_cached", (None,) * 4)
        f = SocialChoiceFunction.point_mass({"A": "a", "B": "b", "C": "c"})
        ints, floats = make_problem(ce_utility(1)), make_problem(ce_utility(1.0, float))
        doubled = make_problem({t: {d: 2 * v for d, v in row.items()} for t, row in ce_utility(1).items()})
        cases = ((ints, Fraction, 1), (floats, float, 1), (doubled, Fraction, 2))
        nets = []
        rnd = random.Random(3402)
        for _ in range(20):
            K = rnd.randint(1, 12)
            u, q = random_vector(rnd, ABC, K), random_quota(rnd, ABC, K)
            pays = []
            for p, number, scale in cases:
                assert_matches_oracle(u, f, p, q)
                pay = payoff(u, best_response_transport(u, f, p, q).message, f, p)
                assert type(pay) is number
                pays.append(pay / scale)
                nets.append(_pair_table(f, p, ABC)[3])
            assert pays[0] == pays[1] == pays[2]
        assert all(net is nets[0] for net in nets)
        deviates = make_problem(ce_utility(1.5))  # other payoff gaps: a network of its own
        assert best_response_transport(vec("AAB"), f, deviates, Q3).message.entries == ("A", "B", "C")
        assert _pair_table(f, deviates, ABC)[3] is not nets[0]

    def test_two_outcome_functions_on_one_problem(self, counterexample_problem):
        p = counterexample_problem
        argmax = SocialChoiceFunction.utility_argmax(p)
        mixed = SocialChoiceFunction(
            {"A": {"c": Fraction(1)}, "B": {"a": Fraction(1, 2), "b": Fraction(1, 2)}, "C": {"b": Fraction(1)}}
        )
        self.alternate([(p, argmax), (p, mixed)])

    def test_one_build_per_run(self, monkeypatch, counterexample_problem):
        calls = []
        real = SocialChoiceFunction.expected_utility

        def counted(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(SocialChoiceFunction, "expected_utility", counted)
        cfg = SimConfig(
            problem=counterexample_problem, k_values=(3, 8, 16), replications=20, seed=5, strategy="best-response"
        )
        run_convergence(cfg)
        assert len(calls) == 9  # one pair payoff per (true, reported) type pair

    def test_one_network_for_every_k(self, monkeypatch, counterexample_problem):
        nets, solves, searches = [], [], Counter()
        real_init, real_run, real_search = _MinCostFlow.__init__, _MinCostFlow.run, optimize._bellman_ford

        def counted_init(self, n_nodes, *arcs):
            nets.append(self)
            real_init(self, n_nodes, *arcs)
            self.plans = CountingMemo()

        def counted_run(self, s, t, amount, cap):
            solves.append(amount)
            real_run(self, s, t, amount, cap)

        def counted_search(head, to, weight, room, sources):
            searches[solves[-1]] += 1
            return real_search(head, to, weight, room, sources)

        monkeypatch.setattr(_MinCostFlow, "__init__", counted_init)
        monkeypatch.setattr(_MinCostFlow, "run", counted_run)
        monkeypatch.setattr(optimize, "_bellman_ford", counted_search)
        monkeypatch.setattr(optimize, "_cached", (None,) * 4)
        cfg = SimConfig(
            problem=counterexample_problem, k_values=(3, 8, 16), replications=20, seed=5, strategy="best-response"
        )
        run_convergence(cfg)
        assert [len(net.head) for net in nets] == [8]
        assert (nets[0].plans.lookups, nets[0].plans.hits) == (60, 22)  # one lookup per episode
        assert Counter(solves) == {3: 6, 8: 15, 16: 17}  # one solve per new count vector
        assert searches == {3: 18, 8: 64, 16: 76}  # one search per augmentation

    def test_payoff_summed_on_first_read(self):
        f = SocialChoiceFunction.point_mass({"A": "a", "B": "b", "C": "c"})
        for p in (make_problem(ce_utility(1)), make_problem(ce_utility(1.5, float))):
            got = payoff(vec("AAB"), best_response_transport(vec("AAB"), f, p, Q3).message, f, p)
            want = oracle_best_response_transport(vec("AAB"), f, p, Q3).payoff
            assert got == want and type(got) is type(want)
        # non-dyadic floats: the plan's row-by-row sum, taken exactly from the
        # floats' binary values and the lottery weights, then rounded once
        p = validate_problem(json.loads(CYCLE_SPEC.read_text()))
        f = SocialChoiceFunction.utility_argmax(p)
        types = tuple(sorted(p.types))

        def exact(t, r):
            return sum(Fraction(w) * Fraction(p.utility[t][d]) for d, w in f.lottery(r).items())

        rnd = random.Random(12)
        for _ in range(100):
            u = random_vector(rnd, types, 10)
            result = best_response_transport(u, f, p, compute_quota(p, 10))
            rows = zip(types, result.plan.flows)
            want = float(sum(x * exact(t, r) for t, row in rows for r, x in zip(types, row) if x))
            assert repr(payoff(u, result.message, f, p)) == repr(want)


class TestVerifyCounterexample:
    def test_fixture_passes(self, counterexample_problem):
        report = verify_counterexample(counterexample_problem)
        assert report.passed and report.deviation_strictly_preferred
        assert report.min_lies == 1
        assert report.minimal_messages == (("A", "C", "B"), ("C", "A", "B"))
        assert report.best_responses == (("A", "B", "C"), ("B", "A", "C"))
        assert report.best_payoff == 4.5
        assert set(report.minimal_payoffs.values()) == {4}

    def test_lowered_cross_utility_removes_incentive(self, counterexample_problem):
        p = counterexample_problem
        utility = {t: dict(p.utility[t]) for t in p.types}
        utility["B"]["c"] = 0.5
        weakened = Problem(p.decisions, p.types, utility, p.prior)
        report = verify_counterexample(weakened)
        assert report.passed and not report.deviation_strictly_preferred
        assert [c.name for c in report.checks if c.passed] == [
            "one_lie_required",
            "no_deviation_incentive",
        ]

    def test_symmetric_utilities_tie_on_minimal_pair(self):
        p = make_problem(
            {
                "A": {"a": 2, "b": 1, "c": 1},
                "B": {"a": 1, "b": 2, "c": 1},
                "C": {"a": 1, "b": 1, "c": 2},
            }
        )
        report = verify_counterexample(p)
        assert report.passed and not report.deviation_strictly_preferred
        f = SocialChoiceFunction.utility_argmax(p)
        best = best_response_bruteforce(vec("AAB"), f, p, Q3)
        assert {m.entries for m in best} >= {("A", "C", "B"), ("C", "A", "B")}

    def test_shape_mismatch(self, binary_problem):
        with pytest.raises(ValidationError, match="3 types"):
            verify_counterexample(binary_problem)

    def test_requires_uniform_prior(self, counterexample_problem):
        p = counterexample_problem
        skew = Problem(p.decisions, p.types, p.utility, {"A": Fraction(1, 2), "B": Fraction(1, 4), "C": Fraction(1, 4)})
        with pytest.raises(ValidationError, match="uniform"):
            verify_counterexample(skew)

    def test_holds_across_random_single_peaked_tables(self):
        rnd = random.Random(2718)
        checked = 0
        while checked < 100:
            utility = {}
            for t, peak in zip(ABC, ("a", "b", "c")):
                others = [d for d in ("a", "b", "c") if d != peak]
                top = rnd.uniform(1.5, 3.0)
                utility[t] = {peak: round(top, 3)}
                for d in others:
                    utility[t][d] = round(rnd.uniform(0.0, top - 0.5), 3)
            gain = utility["A"]["b"] + utility["B"]["c"] - utility["A"]["c"] - utility["B"]["b"]
            if gain <= 0:
                continue
            report = verify_counterexample(make_problem(utility))
            assert report.passed and report.deviation_strictly_preferred
            assert report.best_responses == (("A", "B", "C"), ("B", "A", "C"))
            checked += 1

    def test_json_roundtrip(self, counterexample_problem):
        report = verify_counterexample(counterexample_problem)
        d = report.to_json_dict()
        assert d["passed"] is True
        assert d["quota"] == {"A": 1, "B": 1, "C": 1}
        assert all(c["passed"] for c in d["checks"])


class TestApproxTruthfulBestResponseInteraction:
    def test_best_responses_can_exceed_exact_budget(self, counterexample_problem):
        p = counterexample_problem
        f = SocialChoiceFunction.utility_argmax(p)
        u = vec("AAB")
        for m in best_response_bruteforce(u, f, p, Q3):
            assert not audit(u, m).approx_truthful
            assert lie_count(u, m) == 2 > min_lie_count(u, Q3) == 1

    @pytest.mark.parametrize("n", range(2, 11))
    def test_chain_family_lies_types_minus_one_times(self, n):
        # u_i(d_i) = 2n, u_i(d_{i+1}) = 2n - 1, 0 elsewhere: with one slot
        # moved from T_{n-1} to T_0, shifting every type one step up the chain
        # costs n - 1 payoff units and a direct lie 2n, so the best response
        # lies n - 1 times against a minimum of 1, and its lies close no cycle
        types = tuple(f"t{i}" for i in range(n))
        decisions = tuple(f"d{i}" for i in range(n))
        utility = {t: {d: 2 * n if j == i else 2 * n - 1 if j == i + 1 else 0 for j, d in enumerate(decisions)}
                   for i, t in enumerate(types)}
        p = make_problem(utility, types, decisions)
        f = SocialChoiceFunction.utility_argmax(p)
        rnd = random.Random(n)
        for K in (n, 4 * n, 64 * n):
            q = compute_quota(p, K)
            assert q.counts == (K // n,) * n
            entries = [t for t, c in zip(types, q.counts) for _ in range(c)]
            entries[-1] = types[0]
            rnd.shuffle(entries)
            u = vec(entries, types)
            result = audit(u, best_response_transport(u, f, p, q).message)
            assert (result.lies, result.min_lies, result.star_bound) == (n - 1, 1, n - 1)
            assert result.permutation_truthful and result.approx_truthful_star
            assert result.approx_truthful is (n == 2)
