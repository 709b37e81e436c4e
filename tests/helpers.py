"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library paths they
check: minimal Hamming distance by full enumeration, subset scans, and
hand-rolled random instances driven by ``random.Random`` seeds.  The
link-graph pipeline below is a frozen copy of the object-based witness
construction that ``permutation_witness`` replaced with a flat pass; the
two must return identical witnesses.  The flat walk after it is a frozen
copy of that pass as it stood on an alive list with per-node skip pointers,
before the walk moved to per-node edge queues; the two must also return
identical witnesses.  Likewise the lookahead greedy is a
frozen copy of the slot-by-slot search that ``canonical_minimal_message``
replaced with a closed rule, and the transport solver at the end is a
frozen copy of the successive-shortest-paths solve on ``(cost, lies)``
tuple weights that ``best_response_transport`` replaced with exact integer
weights; wherever the tuple sums are exact the two return identical plans.
It builds its network per call and sums its plan's payoff into its own
record, so it checks the reused network and the pair-count ``payoff``.
The minimal-lie counter, enumerator and sampler after it are frozen copies
of the per-function keep/deficit code that the shared shortfall split
replaced; they must return equal counts, equal sets and, under equal
generator seeds, identical samples.  The checkers at the very end are frozen
copies of the per-verdict functions that ``audit`` folds into one pass over
the slots; every field of its record must equal theirs.  The episode fold at
the very end is a frozen copy of ``run_convergence`` as it stood on index
arrays, before the fold moved to label space; the two must return equal
statistics.  The recursive multiset enumerator is a frozen copy of the
one that the iterative next-permutation walk replaced; the two must yield
the same sequence, and the frozen minimal-lie enumerator runs on it.  The
``Fraction`` quota rounding is a frozen copy of the one that integer rounding
over the weights' common denominator replaced; the two must return equal
quotas and raise on the same input wherever the weights sum to 1 within the
tolerance, beyond which the library rejects the prior.  The n^K expectation
oracle at the end weights every type vector by its prior
probability.
"""

from __future__ import annotations

import io
import json
import random
import itertools
from itertools import product
import math
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from linkmech import (
    Audit,
    EnumerationCapError,
    Message,
    PermutationWitness,
    PreferenceVector,
    Problem,
    Quota,
    SimConfig,
    SimStats,
    SocialChoiceFunction,
    TransportPlan,
    ValidationError,
    compute_quota,
    enumerate_messages,
    lie_count,
    marginal,
    min_lie_count,
    tv_distance,
)
from linkmech import sim
from linkmech.cli import main
from linkmech.core import Weights
from linkmech.sim import _SEED_MASK, _resolve_strategy, sample_type_vector
from linkmech.truthfulness import _check_shapes, _check_witness, _report_entries

LABELS = ("A", "B", "C", "D", "E", "F")


def brute_min_hamming(u: PreferenceVector, q: Quota) -> int:
    """Independent oracle: minimum lies over every quota-feasible message."""
    return min(lie_count(u, m) for m in enumerate_messages(q, cap=10**7))


def brute_minimal_set(u: PreferenceVector, q: Quota) -> set[tuple[str, ...]]:
    best = brute_min_hamming(u, q)
    return {
        m.entries for m in enumerate_messages(q, cap=10**7) if lie_count(u, m) == best
    }


def random_vector(rnd: random.Random, types: tuple[str, ...], K: int) -> PreferenceVector:
    return PreferenceVector(tuple(rnd.choice(types) for _ in range(K)), types)


def permuted(v: PreferenceVector, perm: Sequence[int]) -> PreferenceVector:
    """Reorder slots: entry k of the result is entry perm[k] of ``v`` (0-based)."""
    if sorted(perm) != list(range(v.K)):
        raise ValidationError("perm: not a permutation of the slot indices")
    return PreferenceVector(tuple(v.entries[i] for i in perm), v.types)


def random_quota(rnd: random.Random, types: tuple[str, ...], K: int) -> Quota:
    """A uniformly random composition of K over the type set."""
    cuts = sorted(rnd.randint(0, K) for _ in range(len(types) - 1))
    bounds = [0, *cuts, K]
    return Quota(tuple(sorted(types)), tuple(b - a for a, b in zip(bounds, bounds[1:])))


def random_quota_message(rnd: random.Random, u: PreferenceVector, q: Quota) -> Message:
    entries = [t for t, c in zip(q.types, q.counts) for _ in range(c)]
    rnd.shuffle(entries)
    return Message(PreferenceVector(tuple(entries), u.types), q)


def assert_same_vector(v: PreferenceVector) -> None:
    """``v``, built unvalidated from type codes, equals the validated vector of
    its entries in value, hash, counts (no zero keys) and codes."""
    ref = PreferenceVector(v.entries, v.types)
    assert v == ref and hash(v) == hash(ref)
    assert v.counts() == ref.counts() and set(v.counts()) == set(ref.counts())
    assert all(c > 0 for c in v.counts().values())
    assert v._codes().dtype == ref._codes().dtype and v._codes().tolist() == ref._codes().tolist()
    assert not v._codes().flags.writeable


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Invoke the CLI in-process, returning (exit code, captured stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_cli_json(argv: list[str]) -> tuple[int, dict]:
    code, out = run_cli(argv)
    return code, json.loads(out)


VectorLike = Union[Message, PreferenceVector]


def _entries(v: VectorLike) -> tuple[str, ...]:
    return v.entries


def _vector(v: VectorLike) -> PreferenceVector:
    return v.vector if isinstance(v, Message) else v


def is_permutation_truthful_naive(u: PreferenceVector, m: VectorLike, max_k: int = 12) -> bool:
    """Subset-scan reference checker, exponential in K.

    A report fails when some nonempty slot subset carries the same multiset
    of labels in truth and report without being slotwise equal (i.e. the
    report shuffles true types around).  Only for K <= ``max_k``.
    """
    me = _entries(m)
    k = u.K
    if len(me) != k:
        raise ValidationError(f"report length {len(me)} != truth length {k}")
    if k > max_k:
        raise ValidationError(f"naive subset scan refused for K={k} > {max_k}")
    ue = u.entries
    for mask in range(1, 1 << k):
        idx = [i for i in range(k) if mask >> i & 1]
        if sorted(ue[i] for i in idx) == sorted(me[i] for i in idx):
            if any(ue[i] != me[i] for i in idx):
                return False
    return True


# --- frozen balanced-multigraph witness pipeline ---


@dataclass(frozen=True)
class GraphEdge:
    label: int
    tail: str
    head: str
    is_new: bool = False


@dataclass(frozen=True)
class LinkGraph:
    """Directed multigraph pairing truth slots with report slots.

    Edge k (labels 1..K) runs from the true type in slot k to the reported
    type in slot k; balancing edges, when present, carry labels above K and
    ``is_new``.
    """

    nodes: tuple[str, ...]
    edges: tuple[GraphEdge, ...]
    original_count: int

    def out_degree(self, v: str) -> int:
        return sum(e.tail == v for e in self.edges)

    def in_degree(self, v: str) -> int:
        return sum(e.head == v for e in self.edges)

    def is_balanced(self) -> bool:
        return all(self.out_degree(v) == self.in_degree(v) for v in self.nodes)

    @property
    def new_edge_count(self) -> int:
        return sum(e.is_new for e in self.edges)

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "original_count": self.original_count,
            "edges": [
                {"label": e.label, "tail": e.tail, "head": e.head, "is_new": e.is_new}
                for e in self.edges
            ],
        }


@dataclass(frozen=True)
class CyclePartition:
    """Edge-disjoint cycles covering every edge, as lists of edge labels."""

    cycles: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {"cycles": [list(c) for c in self.cycles]}


def build_link_graph(u: PreferenceVector, reported: VectorLike) -> LinkGraph:
    """One labeled edge per slot, truth type -> reported type."""
    re = _entries(reported)
    if len(re) != u.K:
        raise ValidationError(f"report length {len(re)} != truth length {u.K}")
    rv = _vector(reported)
    if rv.types != u.types:
        raise ValidationError(f"type sets differ: {u.types} vs {rv.types}")
    edges = tuple(
        GraphEdge(label=k + 1, tail=a, head=b) for k, (a, b) in enumerate(zip(u.entries, re))
    )
    return LinkGraph(nodes=u.types, edges=edges, original_count=u.K)


def balance_graph(g: LinkGraph) -> LinkGraph:
    """Add edges until every node has equal in- and out-degree.

    Each added edge leaves a node that currently receives more than it
    sends and enters a node that sends more than it receives; surpluses are
    matched in canonical node order.  The number of added edges equals
    K * tv_distance between the tail marginal and the head marginal.
    """
    if any(e.is_new for e in g.edges):
        raise ValidationError("balance_graph expects a freshly built graph")
    net = {v: g.out_degree(v) - g.in_degree(v) for v in g.nodes}
    senders = [v for v in g.nodes for _ in range(-net[v]) if net[v] < 0]
    receivers = [v for v in g.nodes for _ in range(net[v]) if net[v] > 0]
    assert len(senders) == len(receivers)
    label = g.original_count
    new_edges = []
    for tail, head in zip(senders, receivers):
        label += 1
        new_edges.append(GraphEdge(label=label, tail=tail, head=head, is_new=True))
    return LinkGraph(nodes=g.nodes, edges=g.edges + tuple(new_edges), original_count=g.original_count)


def cycle_partition(g: LinkGraph) -> CyclePartition:
    """Peel a balanced graph into edge-disjoint cycles covering every edge.

    Walks always consume the lowest available edge label, so the partition
    is deterministic; each walk is cut at the first repeated node, which
    also keeps every cycle's nodes distinct.
    """
    if not g.is_balanced():
        raise ValidationError("cycle_partition requires a balanced graph")
    by_label = {e.label: e for e in g.edges}
    outgoing: dict[str, list[int]] = defaultdict(list)
    for e in sorted(g.edges, key=lambda e: e.label):
        outgoing[e.tail].append(e.label)
    alive = set(by_label)
    cycles: list[tuple[int, ...]] = []

    def next_edge(node: str, in_path: set[int]) -> int:
        for lab in outgoing[node]:
            if lab in alive and lab not in in_path:
                return lab
        raise RuntimeError("internal: balanced graph ran out of outgoing edges")

    while alive:
        start = min(alive)
        e = by_label[start]
        path = [e]
        in_path = {start}
        node_pos = {e.tail: 0}
        cur = e.head
        while cur not in node_pos:
            node_pos[cur] = len(path)
            lab = next_edge(cur, in_path)
            e = by_label[lab]
            path.append(e)
            in_path.add(lab)
            cur = e.head
        cycle = [edge.label for edge in path[node_pos[cur]:]]
        pivot = cycle.index(min(cycle))
        cycles.append(tuple(cycle[pivot:] + cycle[:pivot]))
        alive.difference_update(cycle)
    return CyclePartition(tuple(cycles))


def witness_from_pairs(pairs: Sequence[tuple[int, int]]) -> PermutationWitness:
    """The witness whose bijection is the (k, pi(k)) ``pairs``, listed in slot order."""
    S = tuple(k for k, _ in pairs)
    rank = {k: i for i, k in enumerate(S)}
    return PermutationWitness(S, tuple(rank[p] for _, p in pairs))


def oracle_witness(u: PreferenceVector, reported: VectorLike) -> PermutationWitness:
    """Certify the largest slot subset on which the report permutes truths.

    Builds the slot graph, balances it, peels cycles, and drops every cycle
    touching a balancing edge.  The surviving slot labels form S with the
    in-cycle successor map as the bijection; S covers at least
    K - (#types - 1) * K * tv(marginal(u), marginal(report)) slots.  Both
    guarantees are re-checked before returning.
    """
    g = balance_graph(build_link_graph(u, reported))
    part = cycle_partition(g)
    K = u.K
    slots: list[int] = []
    pairs: list[tuple[int, int]] = []
    for cycle in part.cycles:
        if any(lab > K for lab in cycle):
            continue
        slots.extend(cycle)
        for i, lab in enumerate(cycle):
            pairs.append((lab, cycle[(i + 1) % len(cycle)]))
    slots.sort()
    pairs.sort()

    re = _entries(reported)
    pi = dict(pairs)
    if sorted(pi) != slots or sorted(pi.values()) != slots:
        raise RuntimeError("internal: witness mapping is not a bijection on S")
    for k, pk in pi.items():
        if re[k - 1] != u.entries[pk - 1]:
            raise RuntimeError("internal: witness pairing does not map reports to truths")
    floor = K - (len(u.types) - 1) * K * tv_distance(marginal(u), marginal(_vector(reported)))
    if len(slots) < floor:
        raise RuntimeError("internal: witness covers fewer slots than guaranteed")
    return witness_from_pairs(pairs)


def oracle_permutation_witness_walk(
    u: PreferenceVector, reported: Union[Message, PreferenceVector]
) -> PermutationWitness:
    """Certify the largest slot subset on which the report permutes truths.

    Edge k (0-based) runs from the true type in slot k+1 to the reported
    type there.  Balancing edges, numbered after the K slot edges, run from
    each node that receives more than it sends to one that sends more than
    it receives, matched in canonical node order.  The balanced multigraph
    is peeled into edge-disjoint cycles: each walk starts at the lowest
    alive edge, leaves every node by its lowest alive outgoing edge, and is
    cut at the first repeated node, so every cycle's nodes are distinct.
    Cycles through a balancing edge are dropped; the rest form S, with the
    in-cycle successor as the bijection.  S covers at least
    K - (#types - 1) * K * tv(marginal(u), marginal(report)) slots, that is
    K - (#types - 1) * sum_t (truth count - report count)_+.

    Nodes are the memoized type codes, a report's taken over the truth's
    types.  numpy finds the fixed and lying slots and the degree balance; the
    walk runs on int lists.  S and pi are sorted as arrays, and the bijection,
    the report-to-truth pairing and the floor are re-checked over all of S.
    """
    _report_entries(u, reported)
    rv = reported.vector if isinstance(reported, Message) else reported
    if rv.types != u.types:  # restate the report over the truth's types
        unknown = sorted(set(rv.entries) - set(u.types))
        if unknown:
            raise ValidationError(f"report: unknown types {unknown}")
        rv = PreferenceVector(rv.entries, u.types)
    uc, rc = u._codes(), rv._codes()
    n = len(u.types)
    # A truthful slot is a self-loop.  The walk would peel it as its own
    # 1-cycle, which changes the walk on no other edge, so it enters S as a
    # fixed point and only the lying slots (edges 0..L-1 below, in slot
    # order) and the balancing edges are walked.
    lies = uc != rc
    fixed = np.flatnonzero(~lies) + 1
    lying = np.flatnonzero(lies)
    net = (np.bincount(uc, minlength=n) - np.bincount(rc, minlength=n)).tolist()
    tail = uc[lying].tolist() + [v for v, d in enumerate(net) for _ in range(-d)]
    head = rc[lying].tolist() + [v for v, d in enumerate(net) for _ in range(d)]

    outgoing: list[list[int]] = [[] for _ in net]
    for e, a in enumerate(tail):
        outgoing[a].append(e)
    next_out = [0] * n  # index of each node's lowest alive outgoing edge
    alive = [True] * len(tail)
    slot_of = (lying + 1).tolist()  # 1-based slot of each lying edge
    on_cycles: list[int] = []  # slots on kept cycles
    successors: list[int] = []  # their images under pi
    for start in range(len(tail)):
        if not alive[start]:
            continue
        # After a cycle is peeled the walk goes on from its first node, which a
        # restart from the start edge would reach along the same, untouched path.
        path = [start]
        pos = {tail[start]: 0}
        cur = head[start]
        while path:
            while cur not in pos:
                pos[cur] = len(path)
                out, i = outgoing[cur], next_out[cur]
                while not alive[out[i]]:
                    i += 1
                next_out[cur] = i
                path.append(out[i])
                cur = head[out[i]]
            cycle = path[pos[cur]:]
            del path[pos[cur]:]
            for e in cycle:
                alive[e] = False
                del pos[tail[e]]
            if max(cycle) < len(slot_of):
                labels = [slot_of[e] for e in cycle]
                on_cycles += labels
                successors += labels[1:] + labels[:1]
    slots = np.concatenate((fixed, np.array(on_cycles, dtype=np.intp)))
    images = np.concatenate((fixed, np.array(successors, dtype=np.intp)))
    order = np.lexsort((images, slots))
    slots, images = slots[order], images[order]
    _check_witness(uc, rc, n, slots, images)
    return witness_from_pairs(list(zip(slots.tolist(), images.tolist())))


# --- frozen lookahead canonical pick ---


def oracle_canonical_minimal_message(u: PreferenceVector, q: Quota) -> Message:
    """First minimal-lie message in canonical (lexicographic) order.

    Greedy over slots: pick the smallest label that still allows the suffix
    to finish at the global minimum lie count.  No enumeration involved.
    """
    target = min_lie_count(u, q)
    remaining_truth = Counter(u.entries)
    remaining_quota = dict(zip(q.types, q.counts))
    types = q.types
    lies = 0
    out: list[str] = []
    for tru in u.entries:
        remaining_truth[tru] -= 1
        for r in types:
            if remaining_quota[r] == 0:
                continue
            remaining_quota[r] -= 1
            new_lies = lies + (r != tru)
            suffix_min = sum(
                c - remaining_quota[t]
                for t, c in remaining_truth.items()
                if c > remaining_quota[t]
            )
            if new_lies + suffix_min == target:
                out.append(r)
                lies = new_lies
                break
            remaining_quota[r] += 1
        else:  # pragma: no cover - minimum is always attainable
            raise RuntimeError("internal: no feasible label for slot")
    return Message(PreferenceVector(tuple(out), u.types), q)


# --- frozen lexicographic transport solver ---


class _MinCostFlow:
    """Successive shortest paths with lexicographic (cost, lies) edge weights."""

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.head: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[tuple] = []

    def add_edge(self, a: int, b: int, cap: int, cost: tuple) -> None:
        self.head[a].append(len(self.to))
        self.to.append(b)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[b].append(len(self.to))
        self.to.append(a)
        self.cap.append(0)
        self.cost.append(tuple(-c for c in cost))

    def _shortest_path(self, s: int, t: int):
        dist: list[Optional[tuple]] = [None] * self.n
        prev_edge = [-1] * self.n
        dist[s] = (0, 0)
        for _ in range(self.n - 1):
            changed = False
            for v in range(self.n):
                if dist[v] is None:
                    continue
                for eid in self.head[v]:
                    if self.cap[eid] == 0:
                        continue
                    w = self.to[eid]
                    cand = (dist[v][0] + self.cost[eid][0], dist[v][1] + self.cost[eid][1])
                    if dist[w] is None or cand < dist[w]:
                        dist[w] = cand
                        prev_edge[w] = eid
                        changed = True
            if not changed:
                break
        return dist[t], prev_edge

    def run(self, s: int, t: int, amount: int) -> None:
        sent = 0
        while sent < amount:
            d, prev_edge = self._shortest_path(s, t)
            if d is None:  # pragma: no cover - supplies always match demands here
                raise RuntimeError("internal: transportation network infeasible")
            bottleneck = amount - sent
            v = t
            while v != s:
                eid = prev_edge[v]
                bottleneck = min(bottleneck, self.cap[eid])
                v = self.to[eid ^ 1]
            v = t
            while v != s:
                eid = prev_edge[v]
                self.cap[eid] -= bottleneck
                self.cap[eid ^ 1] += bottleneck
                v = self.to[eid ^ 1]
            sent += bottleneck


def quota_count(q: Quota, t: str) -> int:
    """The quota's budget for type ``t``."""
    return q.counts[q.types.index(t)]


def assert_plan_sums(plan: TransportPlan, u: PreferenceVector, q: Quota) -> None:
    """Each plan row ships its type's slot count, each column its quota count."""
    counts = u.counts()
    assert [sum(row) for row in plan.flows] == [counts[t] for t in plan.types]
    assert [sum(col) for col in zip(*plan.flows)] == [quota_count(q, t) for t in plan.types]


@dataclass(frozen=True)
class OracleTransportResult:
    """The frozen solver's answer, with its payoff summed eagerly."""

    plan: TransportPlan
    message: Message
    payoff: Union[int, float, Fraction]


def oracle_best_response_transport(
    u: PreferenceVector, f: SocialChoiceFunction, p: Problem, q: Quota
) -> OracleTransportResult:
    """Payoff-maximizing message via an integral transportation solve.

    The payoff of a message depends only on how many slots of each true type
    report each type, so the argmax reduces to a transportation problem with
    row sums equal to slot counts and column sums equal to the quota.  Costs
    are negated utilities shifted to be nonnegative, with the lie indicator
    as an exact secondary objective: among payoff-optimal plans the solver
    returns one with the fewest lies.  The plan is realized slot by slot,
    filling each true type's slots with its reported types in canonical
    order.
    """
    _check_shapes(u, q)
    types = q.types
    n = len(types)
    counts = u.counts()
    supply = [counts.get(t, 0) for t in types]
    demand = list(q.counts)

    value = [[f.expected_utility(r, t, p) for r in types] for t in types]
    top = max(max(row) for row in value)
    source, sink = 2 * n, 2 * n + 1
    net = _MinCostFlow(2 * n + 2)
    pair_eid: dict[tuple[int, int], int] = {}
    for i in range(n):
        net.add_edge(source, i, supply[i], (0, 0))
    for j in range(n):
        net.add_edge(n + j, sink, demand[j], (0, 0))
    for i in range(n):
        for j in range(n):
            c = min(supply[i], demand[j])
            if c == 0:
                continue
            pair_eid[(i, j)] = len(net.to)
            net.add_edge(i, n + j, c, (top - value[i][j], int(i != j)))
    net.run(source, sink, q.K)

    flows = [[0] * n for _ in range(n)]
    for (i, j), eid in pair_eid.items():
        flows[i][j] = net.cap[eid ^ 1]  # reverse capacity == shipped units
    plan = TransportPlan(types, tuple(tuple(row) for row in flows))
    assert_plan_sums(plan, u, q)

    slots_by_type: dict[str, list[int]] = {t: [] for t in types}
    for k, t in enumerate(u.entries):
        slots_by_type[t].append(k)
    entries = [""] * u.K
    for i, t in enumerate(types):
        reports = [r for j, r in enumerate(types) for _ in range(flows[i][j])]
        for slot, r in zip(slots_by_type[t], reports):
            entries[slot] = r
    message = Message(PreferenceVector(tuple(entries), u.types), q)
    total = sum(
        flows[i][j] * value[i][j] for i in range(n) for j in range(n) if flows[i][j]
    )
    return OracleTransportResult(plan=plan, message=message, payoff=total)


# --- frozen Fraction quota rounding ---


def oracle_compute_quota(prior: Union[Problem, Weights], K: int) -> Quota:
    """Round a prior onto the 1/K grid by largest remainders.

    The returned counts sum to K and minimize the total variation distance
    to the prior among all integer count vectors summing to K.  Leftover
    units after flooring go to the types with the largest fractional
    remainders, ties broken by canonical label order.
    """
    if isinstance(prior, Problem):
        prior = prior.prior
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise ValidationError(f"K must be a positive integer, got {K!r}")
    types = tuple(sorted(prior))
    scaled = {t: K * Fraction(prior[t]) for t in types}
    counts = {t: math.floor(scaled[t]) for t in types}
    leftover = K - sum(counts.values())
    by_remainder = sorted(types, key=lambda t: (-(scaled[t] - counts[t]), t))
    for t in by_remainder[:leftover]:
        counts[t] += 1
    return Quota(types, tuple(counts[t] for t in types))


# --- frozen recursive multiset enumerator ---


def oracle_iter_multiset_arrangements(counts: Mapping[str, int]) -> Iterator[tuple[str, ...]]:
    """All distinct orderings of a multiset of labels, lexicographically."""
    labels = sorted(t for t, c in counts.items() if c > 0)
    remaining = {t: counts[t] for t in labels}
    total = sum(remaining.values())
    if total == 0:
        yield ()
        return
    prefix: list[str] = []

    def rec():
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for t in labels:
            if remaining[t] > 0:
                remaining[t] -= 1
                prefix.append(t)
                yield from rec()
                prefix.pop()
                remaining[t] += 1

    yield from rec()


# --- frozen per-function minimal-lie counter, enumerator and sampler ---


def oracle_count_minimal_lie_messages(u: PreferenceVector, q: Quota) -> int:
    """Size of the minimal-lie message set, without enumerating it."""
    counts = u.counts()
    total = 1
    deficit_slots = 0
    deficit_fact = 1
    for t in q.types:
        have = counts.get(t, 0)
        budget = quota_count(q, t)
        total *= math.comb(have, min(have, budget))
        if budget > have:
            deficit_slots += budget - have
            deficit_fact *= math.factorial(budget - have)
    total *= math.factorial(deficit_slots) // deficit_fact
    return total


def oracle_minimal_lie_messages(u: PreferenceVector, q: Quota, cap: int = 10**6) -> set[Message]:
    """All quota-feasible messages at the minimum Hamming distance from u.

    Every returned message keeps exactly min(count, budget) truthful slots
    per type; the remaining slots carry the deficit types.  Refuses when the
    set would exceed ``cap`` elements; use ``canonical_minimal_message`` or
    ``sample_minimal_message`` in that regime, neither of which enumerates.
    """
    target = min_lie_count(u, q)  # validates shapes
    n = oracle_count_minimal_lie_messages(u, q)
    if n > cap:
        raise EnumerationCapError(
            f"{n} minimal-lie messages exceed cap {cap}; "
            "use canonical_minimal_message or sample_minimal_message instead"
        )
    counts = u.counts()
    positions = defaultdict(list)
    for k, t in enumerate(u.entries):
        positions[t].append(k)
    surplus_types = [t for t in q.types if counts.get(t, 0) > quota_count(q, t)]
    deficit = {t: quota_count(q, t) - counts.get(t, 0) for t in q.types if quota_count(q, t) > counts.get(t, 0)}

    keep_choices = [
        list(itertools.combinations(positions[t], quota_count(q, t))) for t in surplus_types
    ]
    out: set[Message] = set()
    for keeps in itertools.product(*keep_choices):
        base = list(u.entries)
        free: list[int] = []
        for t, kept in zip(surplus_types, keeps):
            kept_set = set(kept)
            free.extend(p for p in positions[t] if p not in kept_set)
        free.sort()
        for arrangement in oracle_iter_multiset_arrangements(deficit):
            entries = base.copy()
            for slot, label in zip(free, arrangement):
                entries[slot] = label
            out.add(Message(PreferenceVector(tuple(entries), u.types), q))
    assert len(out) == n and all(lie_count(u, m) == target for m in out)
    return out


def oracle_sample_minimal_message(u: PreferenceVector, q: Quota, rng) -> Message:
    """Draw uniformly from the minimal-lie message set without enumerating it.

    Independently keeps a uniform budget-sized subset of each over-supplied
    type's slots and scatters the deficit multiset uniformly over the freed
    slots.  ``rng`` is a ``numpy.random.Generator``; a fixed generator state
    yields a fixed message.
    """
    _check_shapes(u, q)
    counts = u.counts()
    entries = list(u.entries)
    free: list[int] = []
    for t in q.types:
        pos = [k for k, x in enumerate(u.entries) if x == t]
        budget = quota_count(q, t)
        if counts.get(t, 0) > budget:
            picked = rng.choice(len(pos), size=budget, replace=False)
            kept = {pos[int(i)] for i in picked}
            free.extend(p for p in pos if p not in kept)
    deficit: list[str] = []
    for t in q.types:
        deficit.extend([t] * max(quota_count(q, t) - counts.get(t, 0), 0))
    free.sort()
    if deficit:
        order = rng.permutation(len(deficit))
        for slot, j in zip(free, order):
            entries[slot] = deficit[int(j)]
    return Message(PreferenceVector(tuple(entries), u.types), q)


# --- frozen per-verdict checkers ---


def oracle_star_lie_bound(u: PreferenceVector, q: Quota) -> int:
    """The relaxed lie budget: (#types - 1) times the minimum lie count."""
    return (len(u.types) - 1) * min_lie_count(u, q)


def oracle_is_approx_truthful(u: PreferenceVector, m: Message) -> bool:
    """True when the report lies in exactly the minimum feasible number of slots."""
    return lie_count(u, m) == min_lie_count(u, m.quota)


def oracle_is_approx_truthful_star(u: PreferenceVector, m: Message) -> bool:
    """True when the lies stay within (#types - 1) times the minimum."""
    return lie_count(u, m) <= oracle_star_lie_bound(u, m.quota)


def oracle_is_permutation_truthful(u: PreferenceVector, m: VectorLike) -> bool:
    """Fast checker: the lying slots must not close a directed cycle.

    Draw an arc truth -> report for every lying slot; the report shuffles
    truths on some subset exactly when these arcs contain a directed cycle.
    The test suite checks this against an exponential subset scan.
    """
    me = _entries(m)
    if len(me) != u.K:
        raise ValidationError(f"report length {len(me)} != truth length {u.K}")
    succ: dict[str, set[str]] = defaultdict(set)
    indeg: Counter = Counter()
    nodes: set[str] = set()
    for a, b in zip(u.entries, me):
        if a == b:
            continue
        nodes.update((a, b))
        if b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    queue = [v for v in nodes if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(nodes)


def oracle_audit(u: PreferenceVector, m: Message) -> Audit:
    """The audit record assembled from the frozen per-verdict checkers."""
    return Audit(
        approx_truthful=oracle_is_approx_truthful(u, m),
        approx_truthful_star=oracle_is_approx_truthful_star(u, m),
        permutation_truthful=oracle_is_permutation_truthful(u, m),
        min_lies=min_lie_count(u, m.quota),
        lies=lie_count(u, m),
        star_bound=oracle_star_lie_bound(u, m.quota),
        witness=oracle_witness(u, m),
    )


# --- frozen index-array episode fold ---


def _sampling_table(prior_items: tuple):
    """The sampling table as the fold below reads it: labels, thresholds, denominator."""
    return sim._sampling_table(prior_items)[:3]


def _lottery_ids(f: SocialChoiceFunction, types: Sequence[str]) -> np.ndarray:
    """Group types by identical outcome lottery; ids come back per type index."""
    seen: list = []
    ids = []
    for t in types:
        lot = dict(f.lottery(t))
        for i, other in enumerate(seen):
            if other == lot:
                ids.append(i)
                break
        else:
            seen.append(lot)
            ids.append(len(seen) - 1)
    return np.array(ids, dtype=np.int64)


def oracle_run_convergence(cfg: SimConfig) -> tuple[SimStats, ...]:
    """Run the seeded experiment on every K and aggregate per-slot lie data.

    For the built-in minimal-lie strategies every episode is checked to lie
    in exactly K * tv(marginal, quota) slots; every built-in strategy is
    checked against the relaxed budget (#types - 1) times that.  Raises on
    violation, which signals an implementation bug rather than bad input.
    """
    problem = cfg.problem
    f = cfg.scf or SocialChoiceFunction.utility_argmax(problem)
    strategy = _resolve_strategy(cfg, f)
    prior = problem.prior
    # Prior as integers P_t / D over its common denominator D, so that
    # K * D * tv(marginal, prior) = sum_t max(c_t * D - K * P_t, 0) stays in
    # Python ints (D may reach 2**62).
    types, cum, denom = _sampling_table(tuple(sorted(prior.items())))
    prior_num = np.diff(cum, prepend=0).tolist()
    n_types = len(types)
    type_index = {t: i for i, t in enumerate(types)}
    lotid = _lottery_ids(f, types)

    exact_min = cfg.strategy in ("canonical-min-lie", "uniform-min-lie")
    # The relaxed budget is guaranteed for minimal-lie reports, for audited
    # permutation-truthful reports, and for lie-minimal best responses
    # against the default argmax outcome function.
    enforce_star = exact_min or cfg.strategy == "custom-permutation-truthful" or cfg.scf is None

    out = []
    seed = cfg.seed & _SEED_MASK
    for K in cfg.k_values:
        quota = compute_quota(prior, K)
        d_prior_quota = tv_distance(prior, quota.distribution())
        quota_counts = np.array(quota.counts, dtype=np.int64)
        prior_scaled = [K * p for p in prior_num]

        slot_lies = np.zeros(K, dtype=np.int64)
        slot_gaps = np.zeros(K, dtype=np.int64)
        sum_lies = 0
        sum_lies_sq = 0
        sum_excess_q = 0  # sum over episodes of K * tv(marginal, quota)
        sum_excess_p = 0  # sum over episodes of K * D * tv(marginal, prior)
        for rep in range(cfg.replications):
            rng = np.random.default_rng(np.random.SeedSequence([seed, K, rep]))
            u = sample_type_vector(prior, K, rng)
            m = strategy(u, quota, rng)
            ue = np.fromiter((type_index[t] for t in u.entries), dtype=np.int64, count=K)
            me = np.fromiter((type_index[t] for t in m.entries), dtype=np.int64, count=K)
            lie_slots = ue != me
            lies = int(lie_slots.sum())
            counts = np.bincount(ue, minlength=n_types)
            excess_q = int(np.maximum(counts - quota_counts, 0).sum())
            if exact_min and lies != excess_q:
                raise RuntimeError("internal: minimal-lie strategy missed the minimum")
            if enforce_star and lies > (n_types - 1) * excess_q:
                raise RuntimeError("internal: strategy exceeded the relaxed lie budget")
            slot_lies += lie_slots
            slot_gaps += lotid[ue] != lotid[me]
            sum_lies += lies
            sum_lies_sq += lies * lies
            sum_excess_q += excess_q
            sum_excess_p += sum(
                max(c * denom - p, 0) for c, p in zip(counts.tolist(), prior_scaled)
            )

        reps = cfg.replications
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
                max_slot_lie_prob=int(slot_lies.max()) / reps,
                mean_tv_to_quota=float(mean_tvq),
                mean_tv_to_prior=float(mean_tvp),
                quota_tv_to_prior=float(d_prior_quota),
                star_bound=float((n_types - 1) * (mean_tvp + d_prior_quota)),
                efficiency_gap=int(slot_gaps.max()) / reps,
            )
        )
    return tuple(out)


# --- frozen integers-based truth sampler ---

# The last Problem with its sampling table, for the frozen sampler below.
_oracle_problem_table: tuple = (None, None)


def _table(prior_items: tuple):
    """The sampling table as the frozen sampler reads it: labels, thresholds, denominator, label array."""
    return sim._sampling_table(prior_items)[:4]


def oracle_sample_type_vector(prior: Union[Problem, Weights], K: int, rng: np.random.Generator) -> PreferenceVector:
    """K i.i.d. draws from the prior, exact on the prior's rational grid.

    Draws integers below the prior's common denominator and thresholds them,
    so each type is hit with exactly its prior probability.  Deterministic
    given the generator state.  A Problem's table is looked up once per
    Problem; a ``Weights`` mapping's by its current content.
    """
    global _oracle_problem_table
    if K < 1:
        raise ValidationError("K must be at least 1")
    # the memo is read once, so a thread that swaps it cannot hand this call another Problem's table
    memo = _oracle_problem_table if isinstance(prior, Problem) else (prior, _table(tuple(sorted(prior.items()))))
    if memo[0] is not prior:
        memo = _oracle_problem_table = (prior, _table(tuple(sorted(prior.prior.items()))))
    types, cum, denom, labels = memo[1]
    idx = cum.searchsorted(rng.integers(0, denom, size=K), "right")
    return PreferenceVector._from_codes(tuple(labels[idx].tolist()), types, idx)


# --- n^K expectation oracle ---


def exhaustive_expected_lie_count(problem: Problem, K: int, cap: int = 10**6) -> Fraction:
    """Exact expected minimum lie count by enumerating all type vectors.

    Weights each of the #types^K vectors by its prior probability; use for
    desk-scale K instead of sampling.
    """
    types = tuple(sorted(problem.types))
    if len(types) ** K > cap:
        raise EnumerationCapError(f"{len(types)}**{K} vectors exceed cap {cap}")
    quota = compute_quota(problem, K)
    prior = {t: Fraction(problem.prior[t]) for t in types}
    total = Fraction(0)
    for entries in product(types, repeat=K):
        weight = Fraction(1)
        for t in entries:
            weight *= prior[t]
        if weight == 0:
            continue
        u = PreferenceVector(entries, types)
        total += weight * min_lie_count(u, quota)
    return total
