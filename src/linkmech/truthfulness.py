"""Minimal-lie reporting under a quota, truthfulness checkers, and the
witness that certifies how much of a report merely permutes truths.

The quota forces an agent whose type vector has the wrong frequencies to
lie in some slots.  The minimum number of lies equals K times the total
variation distance between the vector's marginal and the quota
distribution; this module constructs the minimizers, checks reports against
three increasingly permissive standards, produces an explicit
slot-subset-plus-bijection witness via a balanced-multigraph cycle
decomposition, and bundles every verdict with the witness in one audit
record.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

import numpy as np

from .core import (
    EnumerationCapError,
    PRIOR_TOLERANCE,
    Message,
    PreferenceVector,
    Problem,
    Quota,
    ValidationError,
    Weights,
    _cut,
)

def compute_quota(prior: Union[Problem, Weights], K: int) -> Quota:
    """Round a prior onto the 1/K grid by largest remainders.

    The returned counts sum to K and minimize the total variation distance
    to the prior among all integer count vectors summing to K.  Leftover
    units after flooring go to the types with the largest fractional
    remainders, ties broken by canonical label order.  The rounding runs
    in integers over D, the weights' common denominator: each count is
    K*w*D // D, and the remainders are K*w*D % D.  A negative weight, or a sum
    off 1 by over ``PRIOR_TOLERANCE`` or by enough to move the counts' total,
    is a ``prior:`` error.
    """
    if isinstance(prior, Problem):
        prior = prior.prior
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise ValidationError(f"K must be a positive integer, got {K!r}")
    types = tuple(sorted(prior))
    weights = [Fraction(prior[t]) for t in types]
    for t, w in zip(types, weights):
        if w.numerator < 0:
            raise ValidationError(f"prior: negative weight {_cut(str(w))} for {t!r}")
    D = math.lcm(*(w.denominator for w in weights))
    scaled = [K * w.numerator * (D // w.denominator) for w in weights]  # K * weight * D
    counts = [s // D for s in scaled]
    left = K - sum(counts)
    if sum(scaled) != K * D and (abs(sum(weights) - 1) > PRIOR_TOLERANCE or not 0 <= left <= len(types)):
        raise ValidationError(f"prior: sums to {_cut(str(sum(weights)))}, expected 1")
    # the stable sort keeps equal remainders in label order
    for i in sorted(range(len(types)), key=lambda i: -(scaled[i] % D))[:left]:
        counts[i] += 1
    return Quota(types, tuple(counts))


def _report_entries(u: PreferenceVector, m: Union[Message, PreferenceVector]) -> tuple[str, ...]:
    """The report's entries, after checking that it is as long as the truth."""
    me = m.entries
    if len(me) != u.K:
        raise ValidationError(f"report length {len(me)} != truth length {u.K}")
    return me


def lie_count(u: PreferenceVector, m: Union[Message, PreferenceVector]) -> int:
    """Number of slots where the report differs from the truth."""
    return sum(a != b for a, b in zip(u.entries, _report_entries(u, m)))


def _check_shapes(u: PreferenceVector, q: Quota) -> None:
    if u.types != q.types:
        raise ValidationError(f"type sets differ: {u.types} vs {q.types}")
    if u.K != q.K:
        raise ValidationError(f"vector length {u.K} != quota total {q.K}")


def _shortfall(u: PreferenceVector, q: Quota) -> tuple[Counter, list[str]]:
    """The truth's type counts, and each under-supplied type once per missing slot.

    Every minimal-lie message keeps min(count, budget) slots of each type
    and fills the freed slots with ``owed``, which lists the deficit types
    in canonical order.
    """
    _check_shapes(u, q)
    counts = u._type_counts()
    return counts, [t for t, b in zip(q.types, q.counts) for _ in range(b - counts[t])]


def _rewritten(u: PreferenceVector, q: Quota, counts: Counter, writes) -> Message:
    """The truth with each ``(slot, label)`` of ``writes`` written in turn, its
    ``counts`` (from ``_shortfall``, which checked the shapes) tallied through
    every write, slots written twice too, and checked against the quota."""
    entries = list(u.entries)
    net = dict.fromkeys(q.types, 0)
    for k, t in writes:
        net[entries[k]] -= 1
        net[t] = net.get(t, 0) + 1
        entries[k] = t
    if [counts[t] + net[t] for t in q.types] != list(q.counts):
        raise RuntimeError("internal: rewritten message misses the quota")
    return Message._built(tuple(entries), q)


def _scan(entries: tuple[str, ...], t: str) -> Iterator[int]:
    """0-based slots of ``t`` in ``entries``, in order, one ``tuple.index`` hop each."""
    k = -1
    try:
        while True:
            k = entries.index(t, k + 1)
            yield k
    except ValueError:
        return


def min_lie_count(u: PreferenceVector, q: Quota) -> int:
    """Minimum number of lies over all quota-feasible messages.

    Equals K * tv_distance(marginal(u), quota distribution), the sum over
    types of (count - budget)_+: with 0/1 slot costs, the cheapest way to
    meet the quota keeps min(count, budget) truthful slots per type and
    rewrites the rest.
    """
    return len(_shortfall(u, q)[1])


def star_lie_bound(u: PreferenceVector, q: Quota) -> int:
    """The relaxed lie budget: (#types - 1) times the minimum lie count."""
    return (len(u.types) - 1) * min_lie_count(u, q)


def iter_multiset_arrangements(counts: Mapping[str, int]) -> Iterator[tuple[str, ...]]:
    """All distinct orderings of a multiset of labels, lexicographically, by
    next-permutation steps from the sorted arrangement (no recursion limit)."""
    a = sorted(t for t, c in counts.items() for _ in range(c))
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def count_minimal_lie_messages(u: PreferenceVector, q: Quota) -> int:
    """Size of the minimal-lie message set, without enumerating it."""
    counts, owed = _shortfall(u, q)
    total = math.factorial(len(owed))
    for c in Counter(owed).values():
        total //= math.factorial(c)
    for t, b in zip(q.types, q.counts):
        total *= math.comb(counts[t], min(counts[t], b))
    return total


def minimal_lie_messages(u: PreferenceVector, q: Quota, cap: int = 10**6) -> set[Message]:
    """All quota-feasible messages at the minimum Hamming distance from u.

    Every returned message keeps exactly min(count, budget) truthful slots
    per type; the remaining slots carry the deficit types.  Refuses when the
    set would exceed ``cap`` elements; use ``canonical_minimal_message`` or
    ``sample_minimal_message`` in that regime, neither of which enumerates.
    """
    n = count_minimal_lie_messages(u, q)  # validates shapes
    if n > cap:
        raise EnumerationCapError(
            f"{n} minimal-lie messages exceed cap {cap}; "
            "use canonical_minimal_message or sample_minimal_message instead"
        )
    counts, owed = _shortfall(u, q)
    surplus = [(list(_scan(u.entries, t)), b) for t, b in zip(q.types, q.counts) if counts[t] > b]
    out: set[Message] = set()
    for keeps in itertools.product(*(itertools.combinations(pos, b) for pos, b in surplus)):
        kept = set().union(*keeps)
        free = sorted(k for pos, _ in surplus for k in pos if k not in kept)
        for arrangement in iter_multiset_arrangements(Counter(owed)):
            entries = list(u.entries)
            for slot, label in zip(free, arrangement):
                entries[slot] = label
            out.add(Message(PreferenceVector(tuple(entries), u.types), q))
    assert len(out) == n and all(lie_count(u, m) == len(owed) for m in out)
    return out


def canonical_minimal_message(u: PreferenceVector, q: Quota) -> Message:
    """First minimal-lie message in canonical (lexicographic) order.

    Only slots of over-supplied types lie, and in slot order the lies
    report the owed deficit labels in canonical order.  Each over-supplied
    type lies on a prefix of its slots while the next owed label sorts
    before it (bisection counts those labels), then keeps its truthful
    budget, then lies on its last slots.  Only these lie events are visited,
    in slot order, by ``tuple.index`` hops (on the reversed truth for the
    tails); ``_rewritten`` writes the owed labels there in turn.
    """
    counts, owed = _shortfall(u, q)
    ue = u.entries
    # Per over-supplied type: [next lying slot, type, lies left, owed index
    # its prefix ends at, lying slots].  With no truthful budget the prefix
    # never ends, since fewer than len(owed) slots lie while a lie is left.
    live = []
    for t, b in zip(q.types, q.counts):
        if counts[t] > b:
            slots = _scan(ue, t)
            live.append([next(slots), t, counts[t] - b, bisect.bisect_left(owed, t) if b else len(owed), slots])
    lying: list[int] = []
    while live:
        ev = min(live)
        k, t, left, stop, slots = ev
        if len(lying) >= stop:  # prefix done: keep the budget, lie on the last `left` slots
            ev[4] = slots = reversed([len(ue) - 1 - i for i in itertools.islice(_scan(ue[::-1], t), left)])
            ev[0], ev[3] = next(slots), len(owed)
            continue
        lying.append(k)
        if left == 1:
            live.remove(ev)
        else:
            ev[0], ev[2] = next(slots), left - 1
    return _rewritten(u, q, counts, zip(lying, owed))


def sample_minimal_message(u: PreferenceVector, q: Quota, rng) -> Message:
    """Draw uniformly from the minimal-lie message set without enumerating it.

    Independently keeps a uniform budget-sized subset of each over-supplied
    type's slots and scatters the deficit multiset uniformly over the freed
    slots.  ``rng`` is a ``numpy.random.Generator``; a fixed generator state
    yields a fixed message.  Each over-supplied type's slots come from one
    pass over the truth, and ``_rewritten`` overwrites only the freed slots.
    """
    counts, owed = _shortfall(u, q)
    ue = u.entries
    free: list[int] = []
    for t, b in zip(q.types, q.counts):
        if counts[t] > b:
            freed = np.ones(counts[t], dtype=bool)
            freed[rng.choice(counts[t], size=b, replace=False)] = False
            slots = itertools.compress(range(len(ue)), map(operator.eq, ue, itertools.repeat(t)))
            free.extend(itertools.compress(slots, freed.tolist()))
    free.sort()
    return _rewritten(u, q, counts, zip(free, map(owed.__getitem__, rng.permutation(len(owed)).tolist())))


def is_approx_truthful(u: PreferenceVector, m: Message) -> bool:
    """True when the report lies in exactly the minimum feasible number of slots."""
    return lie_count(u, m) == min_lie_count(u, m.quota)


def is_approx_truthful_star(u: PreferenceVector, m: Message) -> bool:
    """True when the lies stay within (#types - 1) times the minimum."""
    return lie_count(u, m) <= star_lie_bound(u, m.quota)


def _is_acyclic(arcs: set[tuple[str, str]]) -> bool:
    """Kahn's test: the distinct arcs (tail, head) close no directed cycle."""
    succ: dict[str, list[str]] = defaultdict(list)
    indeg: Counter = Counter()
    nodes: set[str] = set()
    for a, b in arcs:
        nodes.update((a, b))
        succ[a].append(b)
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


def is_permutation_truthful(u: PreferenceVector, m: Union[Message, PreferenceVector]) -> bool:
    """Fast checker: the lying slots must not close a directed cycle.

    Draw an arc truth -> report for every lying slot; the report shuffles
    truths on some subset exactly when these arcs contain a directed cycle.
    The test suite checks this against an exponential subset scan.
    """
    return _is_acyclic({(a, b) for a, b in zip(u.entries, _report_entries(u, m)) if a != b})


# --- balanced-multigraph permutation witness ---


@dataclass(frozen=True)
class PermutationWitness:
    """A slot subset S and bijection pi on it along which the report permutes truths.

    ``slots`` is S in increasing order and ``ranks[i]`` the position in S of
    pi(slots[i]): report slot ``slots[i]`` equals truth slot ``slots[ranks[i]]``.
    """

    slots: tuple[int, ...]
    ranks: tuple[int, ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(k, pi(k)) for every k in S, in slot order."""
        return tuple(zip(self.slots, map(self.slots.__getitem__, self.ranks)))


def _check_witness(uc: np.ndarray, rc: np.ndarray, n: int, slots: np.ndarray, images: np.ndarray) -> None:
    """Re-check a witness: 1-based ``slots`` in increasing order and their ``images`` under pi."""
    K = len(uc)
    if np.any(np.diff(slots, prepend=0, append=K + 1) <= 0) or not np.array_equal(np.sort(images), slots):
        raise RuntimeError("internal: witness mapping is not a bijection on S")
    if np.any(rc[slots - 1] != uc[images - 1]):
        raise RuntimeError("internal: witness pairing does not map reports to truths")
    excess = np.maximum(np.bincount(uc, minlength=n) - np.bincount(rc, minlength=n), 0).sum()
    if len(slots) < K - (n - 1) * int(excess):
        raise RuntimeError("internal: witness covers fewer slots than guaranteed")


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
    K - (#types - 1) * K * tv(marginal(u), marginal(report)) slots, that is
    K - (#types - 1) * sum_t (truth count - report count)_+.

    Nodes are the memoized type codes, a report's taken over the truth's
    types.  A node on the path is left by one edge at a time and an edge
    leaves the path only when its cycle is peeled, so each node's out-edges
    pop in edge order from one iterator.  numpy writes the kept cycles'
    successors into a per-slot image array, -1 off S, and ranks each image by
    a running count of S; the bijection, pairing and floor are re-checked.
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
    lying = np.flatnonzero(uc != rc)
    net = (np.bincount(uc, minlength=n) - np.bincount(rc, minlength=n)).tolist()
    tail = uc[lying].tolist() + [v for v, d in enumerate(net) for _ in range(-d)]
    head = rc[lying].tolist() + [v for v, d in enumerate(net) for _ in range(d)]

    outgoing: list[list[int]] = [[] for _ in net]
    for e, a in enumerate(tail):
        outgoing[a].append(e)
    take = [iter(out).__next__ for out in outgoing]  # pops a node's next untaken edge
    taken, pos = bytearray(len(tail)), [-1] * n  # pos: a node's place on the path, or -1
    path, flat, starts = [], [], []  # flat: the peeled cycles' edges; starts: where each begins
    start = taken.find(0)
    while start >= 0:
        # After a cycle is peeled the walk goes on from its first node, which a
        # restart from the start edge would reach along the same, untouched path.
        cur = tail[start]
        while True:
            while pos[cur] < 0:
                pos[cur] = len(path)
                e = take[cur]()
                taken[e] = 1
                path.append(e)
                cur = head[e]
            i = pos[cur]
            starts.append(len(flat))
            cycle = path[i:]
            flat += cycle
            for e in cycle:
                pos[tail[e]] = -1
            del path[i:]
            if not path:
                break
        start = taken.find(0, start)
    flat_a, starts_a = np.array(flat, dtype=np.intp), np.array(starts, dtype=np.intp)
    lengths = np.diff(starts_a, append=len(flat))
    succ = np.arange(1, len(flat) + 1)  # each edge's in-cycle successor, as a place in ``flat``
    succ[starts_a + lengths - 1] = starts_a
    kept = np.repeat(np.maximum.reduceat(flat_a, starts_a) < len(lying), lengths)
    image = np.where(uc == rc, np.arange(len(uc)), -1)  # each 0-based slot's image under pi, or -1 off S
    image[lying[flat_a[kept]]] = lying[flat_a[succ[kept]]]
    slots = np.flatnonzero(image >= 0)
    ranks = np.cumsum(image >= 0)[image[slots]] - 1
    _check_witness(uc, rc, n, slots + 1, slots[ranks] + 1)
    return PermutationWitness(tuple((slots + 1).tolist()), tuple(ranks.tolist()))


# --- the audit record ---


@dataclass(frozen=True)
class Audit:
    """A report judged against every truthfulness standard, with its witness.

    The fields are the ``linkmech audit`` output keys, in output order.
    """

    approx_truthful: bool
    approx_truthful_star: bool
    permutation_truthful: bool
    min_lies: int
    lies: int
    star_bound: int
    witness: PermutationWitness


def audit(u: PreferenceVector, m: Message) -> Audit:
    """Judge a quota-feasible report from one count of its slot pairs.

    One ``np.bincount`` of the (truth, report) type code pairs gives the
    n x n grid of pair counts: its row sums are the truth's type counts, its
    off-diagonal cells the lies and the distinct lie arcs.  The minimum lie
    count, the relaxed budget and both approximate verdicts are integer
    comparisons on those counts, the acyclicity test runs on at most n(n-1)
    arcs, and the witness is built once.  Agrees with ``min_lie_count``,
    ``lie_count``, ``star_lie_bound``, the three ``is_*`` checkers and
    ``permutation_witness``.
    """
    _check_shapes(u, m.quota)
    n = len(u.types)
    grid = np.bincount(u._codes() * n + m.vector._codes(), minlength=n * n).reshape(n, n)
    arcs = {(a, b) for a, b in zip(*np.nonzero(grid)) if a != b}
    lies = u.K - int(grid.trace())
    min_lies = sum(max(c - b, 0) for c, b in zip(grid.sum(axis=1).tolist(), m.quota.counts))
    star_bound = (n - 1) * min_lies
    return Audit(
        approx_truthful=lies == min_lies,
        approx_truthful_star=lies <= star_bound,
        permutation_truthful=_is_acyclic(arcs),
        min_lies=min_lies,
        lies=lies,
        star_bound=star_bound,
        witness=permutation_witness(u, m),
    )
