"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library paths they
check: minimal Hamming distance by full enumeration, subset scans, and
hand-rolled random instances driven by ``random.Random`` seeds.  The
link-graph pipeline below is a frozen copy of the object-based greedy
cycle peel, and the flat walk after it a frozen copy of the same peel on an
alive list with per-node skip pointers; the two return identical witnesses.
``permutation_witness`` replaced the peel with a min-cost flow, so both are
now a lower bound on its witness size.  The exact oracles for that size
follow them: a subset scan for small K, and a negative-cycle certificate
on the witness's lie counts for any K.  After them come frozen copies of
``_min_routing``, as it stood with a one-arc pre-fill before its rounds,
of the queue-based Bellman-Ford that its rounds ran before they shared
``_bellman_ford`` with the transport solver (the two must give equal
distances on graphs with no negative cycle), and of ``permutation_witness``,
as it stood routing every report, before it skipped the routing on lie arcs
that close no cycle; the two witnesses must be identical.  Likewise the
lookahead greedy is a frozen copy of the slot-by-slot search that
``canonical_minimal_message`` replaced with a closed rule, and the
transport solver at the end is a
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
from collections import Counter, defaultdict, deque
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
    lie_count,
    marginal,
    min_lie_count,
    tv_distance,
)
from linkmech import sim
from linkmech.cli import main
from linkmech.core import Weights, _prior_ints
from linkmech.optimize import _arrangements
from linkmech.sim import _SEED_MASK, _resolve_strategy, sample_type_vector
from linkmech.truthfulness import _check_shapes, _check_witness, _report_entries

LABELS = ("A", "B", "C", "D", "E", "F")


def enumerate_messages(q: Quota, cap: int = 10**6) -> Iterator[Message]:
    """All quota-feasible messages in canonical lexicographic order, lazily."""
    return (Message(PreferenceVector(entries, q.types), q) for entries in _arrangements(q, cap))


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
    """The frozen greedy lower bound: a slot subset on which the report
    permutes truths, not always the largest.

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


def assert_witness_sound(u: PreferenceVector, reported: VectorLike, witness: PermutationWitness) -> None:
    """pi is a bijection on S, maps each report slot to a truth slot of the same
    label, and S meets the floor K - (#types - 1) * sum_t (truth count - report count)_+."""
    re = _entries(reported)
    pi = dict(witness.pairs)
    assert list(witness.slots) == sorted(set(witness.slots)) == sorted(pi) == sorted(pi.values())
    assert all(1 <= k <= u.K for k in pi)
    for k, pk in pi.items():
        assert re[k - 1] == u.entries[pk - 1]
    truth, report = Counter(u.entries), Counter(re)
    excess = sum(max(c - report[t], 0) for t, c in truth.items())
    assert len(witness.slots) >= u.K - (len(u.types) - 1) * excess


def max_witness_size(u: PreferenceVector, reported: VectorLike) -> int:
    """The size of the largest slot subset on which the report's labels are a
    rearrangement of the truth's, by a scan of all 2^K subsets (K <= 16).

    Slot k adds B^i(truth) - B^i(report) to its subset's sum, with i a label's
    index and B = 2K + 1.  A subset's per-label count differences lie in
    [-K, K], so its sum is 0 exactly when every difference is.
    """
    re = _entries(reported)
    K = u.K
    assert K <= 16
    index = {t: i for i, t in enumerate(sorted(set(u.entries) | set(re)))}
    B = 2 * K + 1
    sums, sizes = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for a, b in zip(u.entries, re):
        d = B ** index[a] - B ** index[b]
        sums, sizes = np.concatenate((sums, sums + d)), np.concatenate((sizes, sizes + 1))
    return int(sizes[sums == 0].max())


def assert_maximum_witness(u: PreferenceVector, reported: VectorLike, witness: PermutationWitness) -> None:
    """Certify that no slot subset beats ``witness``, from its lie counts alone.

    With c[a, b] the lying slots of truth a and report b, and x[a, b] those in
    S, y = c - x routes each label's excess to the deficit labels, and S is
    maximum exactly when it holds every truthful slot and y is a min-cost
    routing at unit arc cost: its residual graph over the labels, a -> b at
    cost +1 where y < c and b -> a at cost -1 where y > 0, has no negative
    cycle.  Bellman-Ford from every label at distance 0 must settle in
    fewer passes than there are labels.
    """
    re = _entries(reported)
    S = set(witness.slots)
    assert all(k in S for k, (a, b) in enumerate(zip(u.entries, re), start=1) if a == b)
    c = Counter((a, b) for a, b in zip(u.entries, re) if a != b)
    x = Counter((u.entries[k - 1], re[k - 1]) for k in S if u.entries[k - 1] != re[k - 1])
    arcs = []
    for (a, b), cab in c.items():
        y = cab - x[a, b]
        assert 0 <= y <= cab
        if y < cab:
            arcs.append((a, b, 1))
        if y > 0:
            arcs.append((b, a, -1))
    dist = dict.fromkeys(set(u.entries) | set(re), 0)
    for _ in range(len(dist)):
        changed = False
        for a, b, w in arcs:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            return
    raise AssertionError("witness is not maximum: y's residual graph has a negative cycle")


# --- frozen min-cost-routing witness ---


def oracle_min_routing(m: int, tails: list[int], heads: list[int], caps: list[int], left: list[int]) -> list[int]:
    """Route every node's excess to the deficit nodes over the fewest arcs.

    Arc i runs tails[i] -> heads[i], carries at most caps[i] units and costs
    1 per unit; ``left[v]`` is node v's excess (> 0) or deficit (< 0), the
    whole summing to 0, and is spent in place.  Returns the units on each arc
    of a cheapest routing, by successive shortest paths.  Residual edge 2i is
    arc i's spare room (cost +1) and edge 2i + 1 its routed units, which a
    unit may cancel (cost -1).

    First each excess node fills the deficit nodes it has an arc to.  These
    one-arc paths leave every cancelling edge running from a deficit node to
    an excess node, so no residual cycle costs less than 0.  Then each round
    labels every node with its cheapest (cost, arcs) distance from the excess
    nodes, as ``key = cost * B + arcs``, by a queue-based Bellman-Ford, and
    augments from the excess nodes along edges that are tight for the labels
    (each adds one arc, so they form a DAG) to deficit nodes at the least
    cost, until none is reachable.  No residual path out of an excess node
    costs less than 0, so the excess nodes keep key 0 and no tight edge
    enters one.
    """
    A = len(tails)
    to = [0] * (2 * A)
    to[0::2], to[1::2] = heads, tails
    room = [0] * (2 * A)
    room[0::2] = caps
    head: list[list[int]] = [[] for _ in range(m)]
    for e, v in enumerate(itertools.chain.from_iterable(zip(tails, heads))):
        head[v].append(e)
    for a in range(m):
        for e in head[a]:
            if left[a] <= 0:
                break
            b = to[e]
            if not e & 1 and left[b] < 0:
                k = min(left[a], -left[b], room[e])
                room[e] -= k
                room[e ^ 1] += k
                left[a] -= k
                left[b] += k
    B = m + 1  # more than the arcs on any cheapest path
    weight = (B + 1, 1 - B)  # per edge parity: spare room, cancel
    while True:
        sources = [v for v in range(m) if left[v] > 0]
        if not sources:
            return room[1::2]
        key = [m * B] * m  # above every reachable key
        queued = [False] * m
        for v in sources:
            key[v], queued[v] = 0, True
        queue = deque(sources)
        while queue:
            u = queue.popleft()
            queued[u] = False
            ku = key[u]
            for e in head[u]:
                if room[e]:
                    v = to[e]
                    kv = ku + weight[e & 1]
                    if kv < key[v]:
                        key[v] = kv
                        if not queued[v]:
                            queued[v] = True
                            queue.append(v)
        cost = min(key[v] // B for v in range(m) if left[v] < 0)
        if cost == m:  # pragma: no cover - c itself routes every excess
            raise RuntimeError("internal: excess cannot reach a deficit")
        done = [0] * m  # each node's first head edge not yet ruled out this round
        for a in sources:
            while left[a] > 0:
                path, v = [], a
                while not (left[v] < 0 and key[v] // B == cost):
                    hv, i, kv = head[v], done[v], key[v]
                    while i < len(hv) and not (room[hv[i]] and key[to[hv[i]]] == kv + weight[hv[i] & 1]):
                        i += 1
                    done[v] = i
                    if i < len(hv):
                        path.append(hv[i])
                        v = to[hv[i]]
                    elif path:  # a dead end: back up and rule out the edge into it
                        v = to[path.pop() ^ 1]
                        done[v] += 1
                    else:
                        break
                if not path:
                    break
                k = min(left[a], -left[v], *(room[e] for e in path))
                for e in path:
                    room[e] -= k
                    room[e ^ 1] += k
                left[a] -= k
                left[v] += k


def oracle_queue_search(m: int, head: list, to: list, weight: list, room: list, sources: list, top: int) -> list:
    """The queue-based Bellman-Ford that ``_min_routing`` ran in each round
    before ``_bellman_ford`` replaced it, frozen: every node's shortest
    distance from the ``sources`` (each at 0) over edges with room left, and
    ``top``, above every reachable distance, for an unreached node.  It
    needs a graph with no negative cycle, like the routing's residual graph.
    """
    key = [top] * m
    queued = [False] * m
    for v in sources:
        key[v], queued[v] = 0, True
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        queued[u] = False
        ku = key[u]
        for e in head[u]:
            if room[e]:
                v = to[e]
                kv = ku + weight[e]
                if kv < key[v]:
                    key[v] = kv
                    if not queued[v]:
                        queued[v] = True
                        queue.append(v)
    return key


def oracle_permutation_witness(
    u: PreferenceVector, reported: Union[Message, PreferenceVector]
) -> PermutationWitness:
    """Certify the largest slot subset on which the report permutes truths.

    Nodes are the types that occur in lying slots, and c[a, b] counts the
    slots with truth a and report b.  A subset S permutes truths exactly when
    its lying slots form a circulation x <= c on the lie arcs a -> b
    (a != b); truthful slots are fixed points, always in S.  The complement
    y = c - x routes each type's excess (truth count - report count) to the
    deficit types, so the largest S has K - min sum(y) slots: a min-cost
    routing with unit arc costs and capacities c[a, b] (``oracle_min_routing``).
    Each unit of excess crosses at most #types - 1 arcs, so S covers at least
    K - (#types - 1) * K * tv(marginal(u), marginal(report)) slots, that is
    K - (#types - 1) * sum_t (truth count - report count)_+.

    Each arc keeps its first x[a, b] lying slots in slot order (one stable
    sort of the lying slots' arc codes), and pi pairs S's report-t lying
    slots with its truth-t lying slots in slot order (two stable sorts).
    Ranks come from a running count of S; the bijection, pairing and floor
    are re-checked.
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
    lying = np.flatnonzero(uc != rc)
    occurs = np.zeros(n, dtype=bool)
    occurs[uc[lying]] = occurs[rc[lying]] = True
    node = np.cumsum(occurs) - 1  # each type's node, where it occurs in a lie
    m = int(occurs.sum())
    lu, lr = node[uc[lying]], node[rc[lying]]
    small = np.min_scalar_type(m * m)  # 8 or 16 bits get numpy's radix sort
    arc = (lu * m + lr).astype(small)
    order = np.argsort(arc, kind="stable")  # the lying slots by arc, each arc's in slot order
    starts = np.ones(len(arc), dtype=bool)
    starts[1:] = arc[order[1:]] != arc[order[:-1]]
    first = np.flatnonzero(starts)  # where each arc's run begins in ``order``
    c = np.full_like(first, len(arc))  # each arc's run length: the next run's start (or the end) minus its own
    c[:-1] = first[1:]
    c -= first
    tails, heads = np.divmod(arc[order[first]], max(m, 1))
    left = np.bincount(lu, minlength=m) - np.bincount(lr, minlength=m)
    x = c - oracle_min_routing(m, tails.tolist(), heads.tolist(), c.tolist(), left.tolist())
    in_s = np.zeros(len(uc), dtype=bool)
    in_s[lying[order[np.arange(len(arc)) - np.repeat(first, c) < np.repeat(x, c)]]] = True
    kept = np.flatnonzero(in_s)  # S's lying slots, in slot order
    by_report = kept[np.argsort(node[rc[kept]].astype(small), kind="stable")]
    by_truth = kept[np.argsort(node[uc[kept]].astype(small), kind="stable")]
    image = np.where(uc == rc, np.arange(len(uc)), -1)  # each 0-based slot's image under pi, or -1 off S
    image[by_report] = by_truth  # the i-th report-t slot of S maps to its i-th truth-t slot
    slots = np.flatnonzero(image >= 0)
    ranks = np.cumsum(image >= 0)[image[slots]] - 1
    _check_witness(uc, rc, n, slots + 1, slots[ranks] + 1)
    return PermutationWitness(tuple((slots + 1).tolist()), tuple(ranks.tolist()))


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
    return sim._sampling_table(*_prior_ints(dict(prior_items)))[:3]


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
        d_prior_quota = tv_distance(prior, quota)
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
    return sim._sampling_table(*_prior_ints(dict(prior_items)))[:4]


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
