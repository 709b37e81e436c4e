import random
from dataclasses import replace
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
    ValidationError,
    audit,
    is_permutation_truthful,
    lie_count,
    marginal,
    permutation_witness,
    sample_minimal_message,
    tv_distance,
)
from linkmech.cli import _render_audit
from linkmech.truthfulness import _check_witness
from helpers import (
    balance_graph,
    build_link_graph,
    cycle_partition,
    oracle_audit,
    oracle_permutation_witness_walk,
    oracle_witness,
    permuted,
    random_quota,
    random_vector,
)

ABC = ("A", "B", "C")


def vec(entries, types=ABC):
    return PreferenceVector(tuple(entries), types)


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
        # cycles, pure permutations and mostly truthful pairs all occur
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
            assert permutation_witness(u, w) == oracle_witness(u, w)

    def test_matches_frozen_walk_at_scale(self):
        # the per-node edge queues must peel the cycles the frozen alive-list
        # walk peels, and the audit must print the same bytes for both
        # witnesses, on independent, shuffled, lightly edited, minimal-lie and
        # restated reports up to K = 5,000
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
            new, old = permutation_witness(u, w), oracle_permutation_witness_walk(u, w)
            assert new == old
            over_truth = PreferenceVector(w.entries, types)
            counts = over_truth.counts()
            record = audit(u, Message(over_truth, Quota(types, tuple(counts[t] for t in types))))
            assert record.witness == new
            assert _render_audit(replace(record, witness=new)) == _render_audit(replace(record, witness=old))

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
                assert permutation_witness(u, wide) == oracle_witness(u, w) == permutation_witness(u, w)
        u, w = vec("AAB"), PreferenceVector(tuple("ABC"), ABC + ("D",))
        assert permutation_witness(u, w) == oracle_witness(u, vec("ABC"))
        # audit takes a Message, whose quota must share the truth's types
        q = Quota(ABC + ("D",), (1, 1, 1, 0))
        for judge in (audit, oracle_audit):
            with pytest.raises(ValidationError, match="type sets differ"):
                judge(u, Message(w, q))


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
