import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkmech import (
    Message,
    PermutationWitness,
    PreferenceVector,
    Quota,
    SocialChoiceFunction,
    ValidationError,
    audit,
    best_response_transport,
    canonical_minimal_message,
    compute_quota,
    is_permutation_truthful,
    lie_count,
    marginal,
    permutation_witness,
    sample_minimal_message,
    sample_type_vector,
    tv_distance,
    validate_problem,
)
from linkmech import truthfulness
from linkmech.truthfulness import _check_witness
from helpers import (
    assert_maximum_witness,
    assert_witness_sound,
    balance_graph,
    build_link_graph,
    cycle_partition,
    max_witness_size,
    oracle_audit,
    oracle_permutation_witness,
    oracle_queue_search,
    oracle_witness,
    permuted,
    random_quota,
    random_vector,
)

ABC = ("A", "B", "C")
REPORT_KINDS = ("minimal", "shuffled", "random", "identity", "all-lie")


def vec(entries, types=ABC):
    return PreferenceVector(tuple(entries), types)


def report_of_kind(rnd, u, kind):
    """A report against truth ``u``: a uniform minimal-lie report for a random
    quota, the truth with a random subset of its slots permuted among
    themselves, an independent vector, the truth itself, or a lie in every slot."""
    types, K = u.types, u.K
    if kind == "minimal":
        rng = np.random.default_rng(rnd.getrandbits(32))
        return sample_minimal_message(u, random_quota(rnd, types, K), rng).vector
    if kind == "shuffled":
        sub = rnd.sample(range(K), rnd.randint(0, K))
        entries = list(u.entries)
        for k, t in zip(sub, rnd.sample([u.entries[k] for k in sub], len(sub))):
            entries[k] = t
        return PreferenceVector(tuple(entries), types)
    if kind == "random":
        return random_vector(rnd, types, K)
    if kind == "identity":
        return u
    n, index = len(types), {t: i for i, t in enumerate(types)}
    return PreferenceVector(tuple(types[(index[t] + rnd.randrange(1, n)) % n] for t in u.entries), types)


class TestBuildLinkGraph:
    def test_edges_and_degrees(self):
        g = build_link_graph(vec("AAB"), vec("ABC"))
        assert [(e.label, e.tail, e.head) for e in g.edges] == [
            (1, "A", "A"),
            (2, "A", "B"),
            (3, "B", "C"),
        ]
        assert [g.out_degree(v) for v in ABC] == [2, 1, 0]
        assert [g.in_degree(v) for v in ABC] == [1, 1, 1]

    def test_identical_vectors_give_loops(self):
        g = build_link_graph(vec("CAB"), vec("CAB"))
        assert all(e.tail == e.head for e in g.edges)
        assert g.is_balanced()

    def test_two_cycle(self):
        u = PreferenceVector(("A", "B"), ("A", "B"))
        g = build_link_graph(u, PreferenceVector(("B", "A"), ("A", "B")))
        assert [(e.tail, e.head) for e in g.edges] == [("A", "B"), ("B", "A")]

    def test_degree_identities_random(self):
        rnd = random.Random(11)
        for _ in range(100):
            n = rnd.randint(1, 5)
            K = rnd.randint(1, 12)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u, w = random_vector(rnd, types, K), random_vector(rnd, types, K)
            g = build_link_graph(u, w)
            for v in types:
                assert g.out_degree(v) == K * marginal(u).as_dict()[v]
                assert g.in_degree(v) == K * marginal(w).as_dict()[v]


class TestBalanceGraph:
    def test_adds_single_edge_from_receiver_to_sender(self):
        g = balance_graph(build_link_graph(vec("AAB"), vec("ABC")))
        new = [e for e in g.edges if e.is_new]
        assert [(e.label, e.tail, e.head) for e in new] == [(4, "C", "A")]
        assert g.is_balanced()

    def test_balanced_graph_unchanged(self):
        g = balance_graph(build_link_graph(vec("ABC"), vec("BCA")))
        assert g.new_edge_count == 0

    def test_opposite_constants_need_two_edges(self):
        u = PreferenceVector(("A", "A"), ("A", "B"))
        w = PreferenceVector(("B", "B"), ("A", "B"))
        g = balance_graph(build_link_graph(u, w))
        new = [(e.tail, e.head) for e in g.edges if e.is_new]
        assert new == [("B", "A"), ("B", "A")]

    def test_new_edge_count_is_k_times_tv(self):
        rnd = random.Random(17)
        for _ in range(200):
            n = rnd.randint(1, 5)
            K = rnd.randint(1, 12)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u, w = random_vector(rnd, types, K), random_vector(rnd, types, K)
            g = balance_graph(build_link_graph(u, w))
            assert g.new_edge_count == K * tv_distance(marginal(u), marginal(w))
            assert g.is_balanced()

    def test_rejects_double_balancing(self):
        g = balance_graph(build_link_graph(vec("AAB"), vec("ABC")))
        with pytest.raises(ValidationError, match="freshly built"):
            balance_graph(g)


class TestCyclePartition:
    def test_loops_become_singletons(self):
        g = build_link_graph(vec("CAB"), vec("CAB"))
        assert cycle_partition(g).cycles == ((1,), (2,), (3,))

    def test_worked_example(self):
        g = balance_graph(build_link_graph(vec("AAB"), vec("ABC")))
        assert cycle_partition(g).cycles == ((1,), (2, 3, 4))

    def test_two_cycle(self):
        u = PreferenceVector(("A", "B"), ("A", "B"))
        g = build_link_graph(u, PreferenceVector(("B", "A"), ("A", "B")))
        assert cycle_partition(g).cycles == ((1, 2),)

    def test_requires_balance(self):
        g = build_link_graph(vec("AAB"), vec("ABC"))
        with pytest.raises(ValidationError, match="balanced"):
            cycle_partition(g)

    def test_partition_is_exhaustive_and_chained(self):
        rnd = random.Random(23)
        for _ in range(200):
            n = rnd.randint(1, 5)
            K = rnd.randint(1, 12)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u, w = random_vector(rnd, types, K), random_vector(rnd, types, K)
            g = balance_graph(build_link_graph(u, w))
            part = cycle_partition(g)
            by_label = {e.label: e for e in g.edges}
            seen = [lab for cycle in part.cycles for lab in cycle]
            assert sorted(seen) == sorted(by_label)
            for cycle in part.cycles:
                for i, lab in enumerate(cycle):
                    assert by_label[lab].head == by_label[cycle[(i + 1) % len(cycle)]].tail
                nodes = [by_label[lab].tail for lab in cycle]
                assert len(set(nodes)) == len(nodes)


class TestPermutationWitness:
    def test_worked_example(self):
        w = permutation_witness(vec("AAB"), vec("ABC"))
        assert w.slots == (1,)
        assert dict(w.pairs) == {1: 1}

    def test_identity_report(self):
        u = vec("BCA")
        w = permutation_witness(u, u)
        assert w.slots == (1, 2, 3)
        assert dict(w.pairs) == {1: 1, 2: 2, 3: 3}

    def test_full_rotation(self):
        w = permutation_witness(vec("ABC"), vec("BCA"))
        assert w.slots == (1, 2, 3)
        assert dict(w.pairs) == {1: 2, 2: 3, 3: 1}

    def test_pairs_read_the_ranks(self):
        w = PermutationWitness((2, 5, 7, 11), (3, 1, 0, 2))
        assert w.pairs == ((2, 11), (5, 5), (7, 2), (11, 7))
        assert PermutationWitness((), ()).pairs == ()

    def test_rejects_report_with_unknown_type(self):
        with pytest.raises(ValidationError, match=r"unknown types \['D'\]"):
            permutation_witness(vec("ABC"), vec("ABD", ("A", "B", "D")))

    def test_matches_frozen_oracle(self):
        # independent, shuffled-truth and lightly edited reports, so long
        # cycles, pure permutations and mostly truthful pairs all occur; the
        # frozen greedy peel is a lower bound, the subset scan the maximum
        rnd = random.Random(2205)
        for i in range(12_000):
            n = rnd.randint(1, 6)
            K = rnd.randint(1, 40)
            types = tuple(sorted({f"t{j}" for j in range(n)}))
            u = random_vector(rnd, types, K)
            if i % 3 == 0:
                w = random_vector(rnd, types, K)
            elif i % 3 == 1:
                w = permuted(u, rnd.sample(range(K), K))
            else:
                entries = list(u.entries)
                for k in rnd.sample(range(K), rnd.randint(0, K // 4)):
                    entries[k] = rnd.choice(types)
                w = PreferenceVector(tuple(entries), types)
            witness = permutation_witness(u, w)
            assert_witness_sound(u, w, witness)
            assert len(witness.slots) >= len(oracle_witness(u, w).slots)
            if K <= 10:
                assert len(witness.slots) == max_witness_size(u, w)

    def test_matches_frozen_walk_at_scale(self):
        # at least the frozen walk's S, sound, maximum by the negative-cycle
        # certificate, and the audit's own witness, on independent, shuffled,
        # lightly edited, minimal-lie and restated reports up to K = 5,000
        rnd = random.Random(1616)
        for i in range(150):
            n = rnd.randint(1, 6)
            K = rnd.randint(1, 5000) if i % 3 else rnd.randint(1, 300)
            types = tuple(f"t{j}" for j in range(n))
            u = random_vector(rnd, types, K)
            kind = i % 5
            if kind == 0:
                w = random_vector(rnd, types, K)
            elif kind == 1:
                w = permuted(u, rnd.sample(range(K), K))
            elif kind == 2:
                entries = list(u.entries)
                for k in rnd.sample(range(K), rnd.randint(0, K // 4)):
                    entries[k] = rnd.choice(types)
                w = PreferenceVector(tuple(entries), types)
            elif kind == 3:
                w = sample_minimal_message(u, random_quota(rnd, types, K), np.random.default_rng(i)).vector
            else:  # over a wider type set, so the witness restates it
                w = PreferenceVector(random_vector(rnd, types, K).entries, types + ("zz",))
            new = permutation_witness(u, w)
            assert_witness_sound(u, w, new)
            assert_maximum_witness(u, w, new)
            over_truth = PreferenceVector(w.entries, types)
            counts = over_truth.counts()
            record = audit(u, Message(over_truth, Quota(types, tuple(counts[t] for t in types))))
            assert record.witness == new

    def test_soundness_on_random_pairs(self):
        rnd = random.Random(4321)
        for _ in range(400):
            n = rnd.randint(1, 5)
            K = rnd.randint(1, 12)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u, w = random_vector(rnd, types, K), random_vector(rnd, types, K)
            witness = permutation_witness(u, w)
            pi = dict(witness.pairs)
            assert sorted(pi) == list(witness.slots)
            assert sorted(pi.values()) == list(witness.slots)
            for k, pk in pi.items():
                assert w.entries[k - 1] == u.entries[pk - 1]
            floor = K - (n - 1) * K * tv_distance(marginal(u), marginal(w))
            assert len(witness.slots) >= floor

    @settings(max_examples=200)
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_soundness_fuzz(self, K, n, rnd):
        types = tuple(sorted({f"t{i}" for i in range(n)}))
        u = PreferenceVector(tuple(rnd.choice(types) for _ in range(K)), types)
        w = PreferenceVector(tuple(rnd.choice(types) for _ in range(K)), types)
        witness = permutation_witness(u, w)
        pi = dict(witness.pairs)
        for k, pk in pi.items():
            assert w.entries[k - 1] == u.entries[pk - 1]
        assert len(witness.slots) >= K - (n - 1) * K * tv_distance(marginal(u), marginal(w))

    def test_permutation_truthful_reports_lie_within_relaxed_budget(self):
        # a report that never shuffles truths is truthful on the witness
        # slots, so its lies are capped by (#types - 1) * K * tv
        rnd = random.Random(999)
        seen = 0
        for _ in range(2000):
            n = rnd.randint(2, 4)
            K = rnd.randint(1, 8)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            u, w = random_vector(rnd, types, K), random_vector(rnd, types, K)
            if not is_permutation_truthful(u, w):
                continue
            seen += 1
            bound = (n - 1) * K * tv_distance(marginal(u), marginal(w))
            assert lie_count(u, w) <= bound
        assert seen > 200  # the filter kept a meaningful sample

    def test_report_over_another_type_universe(self):
        # the report's own codes index its own types; the witness must map it
        # through the truth's index, so the extra label shifts no code
        rnd = random.Random(77)
        for truth_types, report_types in [(ABC, ABC + ("D",)), (("B", "C", "D"), ("A", "B", "C", "D"))]:
            for _ in range(200):
                K = rnd.randint(1, 20)
                u = random_vector(rnd, truth_types, K)
                w = random_vector(rnd, truth_types, K)
                wide = PreferenceVector(w.entries, report_types)
                witness = permutation_witness(u, wide)
                assert witness == permutation_witness(u, w)
                assert_witness_sound(u, w, witness)
                assert len(witness.slots) >= len(oracle_witness(u, w).slots)
                if K <= 10:
                    assert len(witness.slots) == max_witness_size(u, w)
        u, w = vec("AAB"), PreferenceVector(tuple("ABC"), ABC + ("D",))
        assert permutation_witness(u, w) == oracle_witness(u, vec("ABC"))
        # audit takes a Message, whose quota must share the truth's types
        q = Quota(ABC + ("D",), (1, 1, 1, 0))
        for judge in (audit, oracle_audit):
            with pytest.raises(ValidationError, match="type sets differ"):
                judge(u, Message(w, q))

    def test_beats_the_greedy_peel(self):
        # lies A->B, A->C, B->C and B->A, and C is owed two slots: the peel
        # walks A->B->C and closes both of its cycles through a balancing
        # edge out of C, so it keeps nothing, while the 2-cycle A->B->A on
        # slots 1 and 4 permutes truths
        u, w = vec("AABB"), vec("BCCA")
        assert oracle_witness(u, w).slots == ()
        assert permutation_witness(u, w).pairs == ((1, 4), (4, 1))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.one_of(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=4096)),
        st.sampled_from(REPORT_KINDS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_frozen_routing(self, n, K, kind, seed):
        # the frozen witness routes every report, after a one-arc pre-fill;
        # the library skips the routing on acyclic lies and has no pre-fill
        rnd = random.Random(seed)  # seeded here: K draws through Hypothesis would be slow
        types = tuple(f"t{j}" for j in range(n))
        u = random_vector(rnd, types, K)
        w = report_of_kind(rnd, u, kind)
        assert permutation_witness(u, w) == oracle_permutation_witness(u, w)

    def test_matches_frozen_routing_many_types(self):
        rnd = random.Random(2808)
        for i in range(10):
            n, K = rnd.randint(30, 200), rnd.randint(1, 4096)
            types = tuple(f"t{j:03d}" for j in range(n))
            u = random_vector(rnd, types, K)
            w = report_of_kind(rnd, u, REPORT_KINDS[i % len(REPORT_KINDS)])
            assert permutation_witness(u, w) == oracle_permutation_witness(u, w)

    def test_search_matches_frozen_queue_search(self):
        # many sources and negative edges, but no negative cycle: weights
        # c + pi(a) - pi(b) with c >= 0, on edges with zero or positive room
        rnd = random.Random(2901)
        for _ in range(3_000):
            m = rnd.randint(1, 12)
            pi = [rnd.randint(-20, 20) for _ in range(m)]
            head, tail, to, weight = [[] for _ in range(m)], [], [], []
            for e in range(rnd.randint(0, 4 * m)):
                a, b = rnd.randrange(m), rnd.randrange(m)
                head[a].append(e)
                tail.append(a)
                to.append(b)
                weight.append(rnd.randint(0, 6) + pi[a] - pi[b])
            room = [rnd.choice((0, 0, 1, 3)) for _ in to]
            sources = rnd.sample(range(m), rnd.randint(1, m))
            dist, last = truthfulness._bellman_ford(head, to, weight, room, sources)
            top = 10**9
            assert [top if d is None else d for d in dist] == oracle_queue_search(m, head, to, weight, room, sources, top)
            for w, e in enumerate(last):  # each last edge is tight and has room
                assert e < 0 or room[e] and dist[w] == dist[tail[e]] + weight[e]

    @pytest.mark.parametrize("n, K", [(100, 4096), (1000, 64)])
    def test_many_types_in_bounded_time(self, n, K):
        # the routing runs over the types that occur in lies, and its rounds
        # over the distinct lie arcs: a maximum witness over 100 types at
        # K = 4,096 takes milliseconds, and 1,000 declared types cost no more
        # than the few a short report uses
        rnd = random.Random(2107 + n)
        types = tuple(f"t{j:04d}" for j in range(n))
        u, w = random_vector(rnd, types, K), random_vector(rnd, types, K)
        started = time.perf_counter()
        witness = permutation_witness(u, w)
        assert time.perf_counter() - started < 0.25
        assert_witness_sound(u, w, witness)
        assert_maximum_witness(u, w, witness)
        occurring = set(u.entries) | set(w.entries)
        used = tuple(t for t in types if t in occurring)
        assert permutation_witness(PreferenceVector(u.entries, used), PreferenceVector(w.entries, used)) == witness


class TestResidual:
    """``_residual``, the layout both flow solvers search: edge 2i is arc i,
    edge 2i + 1 its reverse, and each node lists its out-edges in edge order."""

    def test_self_loops_parallel_arcs_and_an_isolated_node(self):
        # arcs 0 -> 1, 1 -> 1, 1 -> 0, 2 -> 2, 0 -> 1 on nodes 0..3; node 3 has none
        head, to = truthfulness._residual(4, [0, 1, 1, 2, 0], [1, 1, 0, 2, 1])
        assert to == [1, 0, 1, 1, 0, 1, 2, 2, 1, 0]
        assert head == [[0, 5, 8], [1, 2, 3, 4, 9], [6, 7], []]

    def test_no_arcs(self):
        assert truthfulness._residual(3, [], []) == ([[], [], []], [])
        assert truthfulness._residual(0, [], []) == ([], [])

    def test_random_arcs(self):
        rnd = random.Random(3301)
        for _ in range(500):
            m = rnd.randint(1, 8)
            tails = [rnd.randrange(m) for _ in range(rnd.randint(0, 3 * m))]
            heads = [rnd.randrange(m) for _ in tails]
            head, to = truthfulness._residual(m, tails, heads)
            assert to[0::2] == heads and to[1::2] == tails
            assert all(h == sorted(h) for h in head)
            assert sorted(e for h in head for e in h) == list(range(2 * len(tails)))
            for v, h in enumerate(head):  # an edge leaves where its reverse ends
                assert all(to[e ^ 1] == v for e in h)


FOUR_SPEC = {
    "decisions": ["w", "x", "y", "z"],
    "types": ["a", "b", "c", "d"],
    "prior": ["2/5", "3/10", "1/5", "1/10"],
    "utility": {t: {d: int(i == j) for j, d in enumerate("wxyz")} for i, t in enumerate("abcd")},
}


class TestAcyclicSkip:
    """A report whose lies close no cycle gets S = its truthful slots without a routing."""

    @pytest.fixture
    def no_routing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("routed a report whose lies close no cycle")

        monkeypatch.setattr(truthfulness, "_min_routing", refuse)

    def check(self, u, m):
        record = audit(u, m)
        assert record.permutation_truthful
        assert record.witness.pairs == tuple((k, k) for k, (a, b) in enumerate(zip(u.entries, m.entries), 1) if a == b)
        assert record.lies <= record.star_bound

    def test_minimal_lie_and_identity_reports(self, no_routing, counterexample_problem, binary_problem):
        rng = np.random.default_rng(2808)
        for p in (binary_problem, counterexample_problem, validate_problem(FOUR_SPEC)):
            for K in (1, 2, 3, 7, 64, 256, 1024):
                q = compute_quota(p, K)
                for _ in range(4):
                    u = sample_type_vector(p, K, rng)
                    counts = u.counts()
                    own = Message(u, Quota(u.types, tuple(counts[t] for t in u.types)))
                    for m in (canonical_minimal_message(u, q), sample_minimal_message(u, q, rng), own):
                        self.check(u, m)

    def test_best_responses(self, no_routing, counterexample_problem):
        p = counterexample_problem
        f = SocialChoiceFunction.utility_argmax(p)
        rng = np.random.default_rng(2808)
        for K in (1, 2, 3, 16, 64, 256):
            q = compute_quota(p, K)
            for _ in range(6):
                u = sample_type_vector(p, K, rng)
                self.check(u, best_response_transport(u, f, p, q).message)

    def test_a_two_cycle_is_routed(self, monkeypatch):
        # lies A -> B, B -> A and A -> C: the routing sends A's excess over
        # A -> C, and the witness keeps the 2-cycle on slots 1 and 2
        calls = []
        routing = truthfulness._min_routing
        monkeypatch.setattr(truthfulness, "_min_routing", lambda *args: calls.append(args) or routing(*args))
        u, w = vec("ABCA"), vec("BACC")
        record = audit(u, Message(w, Quota(ABC, (1, 1, 2))))
        assert len(calls) == 1
        assert record.witness.pairs == ((1, 2), (2, 1), (3, 3))
        assert not record.permutation_truthful


def test_witness_and_audit_hold_python_ints():
    # the arrays behind them must not leak numpy scalars into the record
    q = Quota(ABC, (1, 1, 1))
    a = audit(vec("ABC"), Message(vec("BCA"), q))
    assert a.witness.slots == (1, 2, 3)
    w = a.witness
    assert all(type(x) is int for x in w.slots + tuple(k for pair in w.pairs for k in pair))
    assert all(type(getattr(a, f)) is int for f in ("min_lies", "lies", "star_bound"))
    assert all(type(getattr(a, f)) is bool for f in ("approx_truthful", "approx_truthful_star", "permutation_truthful"))


class TestWitnessChecks:
    """The internal re-checks run on arrays; each must still fire."""

    def codes(self, truth, report):
        return vec(truth)._codes(), vec(report)._codes()

    def check(self, truth, report, slots, images):
        uc, rc = self.codes(truth, report)
        _check_witness(uc, rc, len(ABC), np.array(slots, dtype=np.intp), np.array(images, dtype=np.intp))

    def test_sound_witnesses_pass(self):
        self.check("ABC", "BCA", [1, 2, 3], [2, 3, 1])
        self.check("AAB", "ABC", [1], [1])
        self.check("ABC", "ABC", [1, 2, 3], [1, 2, 3])

    @pytest.mark.parametrize("slots, images", [
        ([1, 1, 2], [1, 2, 1]),  # a duplicated slot; the images sort to the slots
        ([1, 2, 3], [1, 1, 2]),  # a duplicated image
        ([0, 1, 2], [1, 2, 0]),  # a slot outside 1..K
        ([1, 2, 4], [2, 4, 1]),
    ])
    def test_not_a_bijection(self, slots, images):
        with pytest.raises(RuntimeError, match="^internal: witness mapping is not a bijection on S$"):
            self.check("ABC", "BCA", slots, images)

    def test_swapped_image(self):
        with pytest.raises(RuntimeError, match="^internal: witness pairing does not map reports to truths$"):
            self.check("ABC", "BCA", [1, 2, 3], [3, 2, 1])
        # one wrong slot among many right ones
        with pytest.raises(RuntimeError, match="^internal: witness pairing does not map reports to truths$"):
            self.check("ABCAB", "BCAAB", [1, 2, 3, 4, 5], [2, 3, 1, 5, 4])

    @pytest.mark.parametrize("truth, report, slots, images", [
        ("ABC", "ABC", [], []),
        ("ABC", "ABC", [1, 2], [1, 2]),  # the identity report owes every slot to S
        ("AAB", "ABC", [], []),  # K - (n - 1) * excess = 3 - 2 * 1 leaves a floor of 1
    ])
    def test_too_few_slots(self, truth, report, slots, images):
        with pytest.raises(RuntimeError, match="^internal: witness covers fewer slots than guaranteed$"):
            self.check(truth, report, slots, images)
