"""Minimal-lie reporting under a quota, truthfulness checkers, and the
witness that certifies how much of a report merely permutes truths.

The quota forces an agent whose type vector has the wrong frequencies to
lie in some slots.  The minimum number of lies equals K times the total
variation distance between the vector's marginal and the quota
distribution; this module constructs the minimizers, checks reports against
three increasingly permissive standards, and produces an explicit
slot-subset-plus-bijection witness via a balanced-multigraph cycle
decomposition.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .core import (
    EnumerationCapError,
    Message,
    PreferenceVector,
    Problem,
    Quota,
    ValidationError,
    Weights,
    marginal,
    tv_distance,
)

def compute_quota(prior: Union[Problem, Weights], K: int) -> Quota:
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


def lie_count(u: PreferenceVector, m: Union[Message, PreferenceVector]) -> int:
    """Number of slots where the report differs from the truth."""
    me = m.entries
    if len(me) != u.K:
        raise ValidationError(f"report length {len(me)} != truth length {u.K}")
    return sum(a != b for a, b in zip(u.entries, me))


def _check_shapes(u: PreferenceVector, q: Quota) -> None:
    if u.types != q.types:
        raise ValidationError(f"type sets differ: {u.types} vs {q.types}")
    if u.K != q.K:
        raise ValidationError(f"vector length {u.K} != quota total {q.K}")


def min_lie_count(u: PreferenceVector, q: Quota) -> int:
    """Minimum number of lies over all quota-feasible messages.

    Equals K * tv_distance(marginal(u), quota distribution), the sum over
    types of (count - budget)_+: with 0/1 slot costs, the cheapest way to
    meet the quota keeps min(count, budget) truthful slots per type and
    rewrites the rest.
    """
    _check_shapes(u, q)
    counts = u.counts()
    return sum(max(counts[t] - b, 0) for t, b in zip(q.types, q.counts))


def star_lie_bound(u: PreferenceVector, q: Quota) -> int:
    """The relaxed lie budget: (#types - 1) times the minimum lie count."""
    return (len(u.types) - 1) * min_lie_count(u, q)


def iter_multiset_arrangements(counts: Mapping[str, int]) -> Iterator[tuple[str, ...]]:
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


def count_minimal_lie_messages(u: PreferenceVector, q: Quota) -> int:
    """Size of the minimal-lie message set, without enumerating it."""
    counts = u.counts()
    total = 1
    deficit_slots = 0
    deficit_fact = 1
    for t in q.types:
        have = counts.get(t, 0)
        budget = q.count(t)
        total *= math.comb(have, min(have, budget))
        if budget > have:
            deficit_slots += budget - have
            deficit_fact *= math.factorial(budget - have)
    total *= math.factorial(deficit_slots) // deficit_fact
    return total


def minimal_lie_messages(u: PreferenceVector, q: Quota, cap: int = 10**6) -> set[Message]:
    """All quota-feasible messages at the minimum Hamming distance from u.

    Every returned message keeps exactly min(count, budget) truthful slots
    per type; the remaining slots carry the deficit types.  Refuses when the
    set would exceed ``cap`` elements; use ``canonical_minimal_message`` or
    ``sample_minimal_message`` in that regime, neither of which enumerates.
    """
    target = min_lie_count(u, q)  # validates shapes
    n = count_minimal_lie_messages(u, q)
    if n > cap:
        raise EnumerationCapError(
            f"{n} minimal-lie messages exceed cap {cap}; "
            "use canonical_minimal_message or sample_minimal_message instead"
        )
    counts = u.counts()
    positions = defaultdict(list)
    for k, t in enumerate(u.entries):
        positions[t].append(k)
    surplus_types = [t for t in q.types if counts.get(t, 0) > q.count(t)]
    deficit = {t: q.count(t) - counts.get(t, 0) for t in q.types if q.count(t) > counts.get(t, 0)}

    import itertools

    keep_choices = [
        list(itertools.combinations(positions[t], q.count(t))) for t in surplus_types
    ]
    out: set[Message] = set()
    for keeps in itertools.product(*keep_choices):
        base = list(u.entries)
        free: list[int] = []
        for t, kept in zip(surplus_types, keeps):
            kept_set = set(kept)
            free.extend(p for p in positions[t] if p not in kept_set)
        free.sort()
        for arrangement in iter_multiset_arrangements(deficit):
            entries = base.copy()
            for slot, label in zip(free, arrangement):
                entries[slot] = label
            out.add(Message(PreferenceVector(tuple(entries), u.types), q))
    assert len(out) == n and all(lie_count(u, m) == target for m in out)
    return out


def canonical_minimal_message(u: PreferenceVector, q: Quota) -> Message:
    """First minimal-lie message in canonical (lexicographic) order.

    Only slots of over-supplied types lie, and each lie reports the smallest
    deficit type still owed.  Scanning left to right, a slot of an
    over-supplied type with lies left lies when that label sorts before its
    truth, or when its type has no truthful slots left; every other slot
    keeps its truth.  Linear in K; no enumeration involved.
    """
    _check_shapes(u, q)
    counts = u.counts()
    keep = {t: min(counts[t], b) for t, b in zip(q.types, q.counts)}
    lies = {t: counts[t] - keep[t] for t in q.types}
    owed = [t for t, b in zip(q.types, q.counts) for _ in range(b - counts[t])]
    j = 0
    out: list[str] = []
    for t in u.entries:
        if lies[t] and (not keep[t] or owed[j] < t):
            lies[t] -= 1
            out.append(owed[j])
            j += 1
        else:
            keep[t] -= 1
            out.append(t)
    return Message(PreferenceVector(tuple(out), u.types), q)


def sample_minimal_message(u: PreferenceVector, q: Quota, rng) -> Message:
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
        budget = q.count(t)
        if counts.get(t, 0) > budget:
            picked = rng.choice(len(pos), size=budget, replace=False)
            kept = {pos[int(i)] for i in picked}
            free.extend(p for p in pos if p not in kept)
    deficit: list[str] = []
    for t in q.types:
        deficit.extend([t] * max(q.count(t) - counts.get(t, 0), 0))
    free.sort()
    if deficit:
        order = rng.permutation(len(deficit))
        for slot, j in zip(free, order):
            entries[slot] = deficit[int(j)]
    return Message(PreferenceVector(tuple(entries), u.types), q)


def is_approx_truthful(u: PreferenceVector, m: Message) -> bool:
    """True when the report lies in exactly the minimum feasible number of slots."""
    return lie_count(u, m) == min_lie_count(u, m.quota)


def is_approx_truthful_star(u: PreferenceVector, m: Message) -> bool:
    """True when the lies stay within (#types - 1) times the minimum."""
    return lie_count(u, m) <= star_lie_bound(u, m.quota)


def is_permutation_truthful(u: PreferenceVector, m: Union[Message, PreferenceVector]) -> bool:
    """Fast checker: the lying slots must not close a directed cycle.

    Draw an arc truth -> report for every lying slot; the report shuffles
    truths on some subset exactly when these arcs contain a directed cycle.
    The test suite checks this against an exponential subset scan.
    """
    me = m.entries
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


# --- balanced-multigraph permutation witness ---


@dataclass(frozen=True)
class PermutationWitness:
    """A slot subset S and bijection on it along which the report permutes truths.

    ``pairs`` lists (k, pi(k)) for every k in S; report slot k equals truth
    slot pi(k).  The pairing is explicit so bijectivity is directly checkable.
    """

    slots: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]

    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    def to_json_dict(self) -> dict:
        return {"S": list(self.slots), "pi": [list(p) for p in self.pairs]}


def permutation_witness(
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
    K - (#types - 1) * K * tv(marginal(u), marginal(report)) slots.  The
    bijection, the report-to-truth pairing and that floor are re-checked
    before returning.
    """
    re = reported.entries
    K = u.K
    if len(re) != K:
        raise ValidationError(f"report length {len(re)} != truth length {K}")
    node = {t: i for i, t in enumerate(u.types)}
    unknown = sorted(set(re) - node.keys())
    if unknown:
        raise ValidationError(f"report: unknown types {unknown}")
    tail = [node[t] for t in u.entries]
    head = [node[t] for t in re]
    net = [0] * len(node)
    for a, b in zip(tail, head):
        net[a] += 1
        net[b] -= 1
    tail += [v for v, d in enumerate(net) for _ in range(-d)]
    head += [v for v, d in enumerate(net) for _ in range(d)]

    outgoing: list[list[int]] = [[] for _ in net]
    for e, a in enumerate(tail):
        outgoing[a].append(e)
    next_out = [0] * len(net)  # index of each node's lowest alive outgoing edge
    alive = [True] * len(tail)
    slots: list[int] = []
    pairs: list[tuple[int, int]] = []
    for start in range(len(tail)):
        while alive[start]:
            path = [start]
            pos = {tail[start]: 0}
            cur = head[start]
            while cur not in pos:
                pos[cur] = len(path)
                out, i = outgoing[cur], next_out[cur]
                while not alive[out[i]]:
                    i += 1
                next_out[cur] = i
                path.append(out[i])
                cur = head[out[i]]
            cycle = path[pos[cur]:]
            for e in cycle:
                alive[e] = False
            if max(cycle) < K:
                slots.extend(e + 1 for e in cycle)
                pairs.extend((e + 1, f + 1) for e, f in zip(cycle, cycle[1:] + cycle[:1]))
    slots.sort()
    pairs.sort()
    witness = PermutationWitness(tuple(slots), tuple(pairs))

    pi = witness.mapping()
    if sorted(pi) != slots or sorted(pi.values()) != slots:
        raise RuntimeError("internal: witness mapping is not a bijection on S")
    for k, pk in pi.items():
        if re[k - 1] != u.entries[pk - 1]:
            raise RuntimeError("internal: witness pairing does not map reports to truths")
    report_counts = Counter(re)
    report_marginal = {t: Fraction(report_counts[t], K) for t in u.types}
    floor = K - (len(u.types) - 1) * K * tv_distance(marginal(u), report_marginal)
    if len(slots) < floor:
        raise RuntimeError("internal: witness covers fewer slots than guaranteed")
    return witness
