"""Minimal-lie reporting under a quota, truthfulness checkers, and the
witness that certifies how much of a report merely permutes truths.

The quota forces an agent whose type vector has the wrong frequencies to
lie in some slots.  The minimum number of lies equals K times the total
variation distance between the vector's marginal and the quota
distribution; this module constructs the minimizers, checks reports against
three increasingly permissive standards, produces the largest
slot-subset-plus-bijection witness from one unit-cost min-cost flow, and
bundles every verdict with the witness in one audit record.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .core import (
    EnumerationCapError,
    Message,
    PreferenceVector,
    Problem,
    Quota,
    ValidationError,
    Weights,
    _brief,
    _cut,
    _prior_ints,
    _prior_total,
)

def compute_quota(prior: Union[Problem, Weights], K: int) -> Quota:
    """Round a prior onto the 1/K grid by largest remainders.

    The returned counts sum to K and minimize the total variation distance
    to the prior among all integer count vectors summing to K.  Leftover
    units after flooring go to the types with the largest fractional
    remainders, ties broken by canonical label order.  The rounding runs
    in integers over D, the weights' common denominator (``_prior_ints``, or
    a Problem's integer prior): each count is K*w*D // D, and the remainders
    are K*w*D % D.  A weight ``_prior_ints`` rejects, or a sum off 1 by over
    ``PRIOR_TOLERANCE`` (``_prior_total``) or by enough to move the counts'
    total, is a ``prior:`` error.
    """
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool) or K < 1:
        raise ValidationError(f"K must be a positive integer, got {_brief(K)}")
    K = int(K)  # a numpy integer would overflow K * P_t
    types, nums, D = prior._int_prior() if isinstance(prior, Problem) else _prior_ints(prior)
    total = _prior_total(nums, D)
    scaled = [K * P for P in nums]  # K * weight * D
    counts = [s // D for s in scaled]
    left = K - sum(counts)
    if not 0 <= left <= len(types):  # only a sum off 1 moves the counts' total, and only at a large K
        raise ValidationError(f"prior: sums to {_cut(str(Fraction(total, D)))}, expected 1")
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


def _shortfall(u: PreferenceVector, q: Quota) -> tuple[tuple[int, ...], list[str]]:
    """The truth's type counts, aligned with ``q.counts``, and each under-supplied type once per missing slot.

    Every minimal-lie message keeps min(count, budget) slots of each type
    and fills the freed slots with ``owed``, which lists the deficit types
    in canonical order.
    """
    _check_shapes(u, q)
    counts = u._type_counts()
    return counts, [t for t, c, b in zip(q.types, counts, q.counts) for _ in range(b - c)]


def _rewritten(u: PreferenceVector, q: Quota, counts: tuple[int, ...], writes) -> Message:
    """The truth with each ``(slot, label)`` of ``writes`` written in turn, its
    ``counts`` (from ``_shortfall``, which checked the shapes, so aligned with
    ``q.counts``) tallied through every write, slots written twice too, and
    checked against the quota."""
    entries = list(u.entries)
    net = dict.fromkeys(q.types, 0)
    for k, t in writes:
        net[entries[k]] -= 1
        net[t] = net.get(t, 0) + 1
        entries[k] = t
    if [c + net[t] for t, c in zip(q.types, counts)] != list(q.counts):
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


def _exceeds(groups: Iterable[Iterable[int]], cap: int) -> bool:
    """Whether the product of the groups' multinomial coefficients exceeds ``cap``, by a running product
    that starts each group at its largest count: every factor (n + i) / i is at least 2, so it passes the
    cap within log2(cap) + 1 factors, before any big-int factorial.  Each partial product is an int."""
    r = 1
    for counts in groups:
        n, *rest = sorted(counts, reverse=True) or [0]
        for c in rest:
            for i in range(1, c + 1):
                if (r := r * (n + i) // i) > cap:
                    return True
            n += c
    return False


def count_minimal_lie_messages(u: PreferenceVector, q: Quota) -> int:
    """Size of the minimal-lie message set, without enumerating it."""
    counts, owed = _shortfall(u, q)
    total = math.factorial(len(owed)) // math.prod(map(math.factorial, Counter(owed).values()))
    return total * math.prod(math.comb(c, min(c, b)) for c, b in zip(counts, q.counts))


def minimal_lie_messages(u: PreferenceVector, q: Quota, cap: int = 10**6) -> set[Message]:
    """All quota-feasible messages at the minimum Hamming distance from u.

    Every returned message keeps exactly min(count, budget) truthful slots
    per type; the remaining slots carry the deficit types.  Refuses when the
    set would exceed ``cap`` elements; use ``canonical_minimal_message`` or
    ``sample_minimal_message`` in that regime, neither of which enumerates.
    """
    counts, owed = _shortfall(u, q)  # validates shapes
    kept = [(b, c - b) for c, b in zip(counts, q.counts) if c > b]  # comb(count, budget) each
    if _exceeds([Counter(owed).values(), *kept], cap):
        raise EnumerationCapError(
            f"more than {cap} minimal-lie messages; "
            "use canonical_minimal_message or sample_minimal_message instead"
        )
    surplus = [(list(_scan(u.entries, t)), b) for t, c, b in zip(q.types, counts, q.counts) if c > b]
    out: set[Message] = set()
    for keeps in itertools.product(*(itertools.combinations(pos, b) for pos, b in surplus)):
        kept = set().union(*keeps)
        free = sorted(k for pos, _ in surplus for k in pos if k not in kept)
        for arrangement in iter_multiset_arrangements(Counter(owed)):
            entries = list(u.entries)
            for slot, label in zip(free, arrangement):
                entries[slot] = label
            out.add(Message(PreferenceVector(tuple(entries), u.types), q))
    assert len(out) == count_minimal_lie_messages(u, q) and all(lie_count(u, m) == len(owed) for m in out)
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
    for t, c, b in zip(q.types, counts, q.counts):
        if c > b:
            slots = _scan(ue, t)
            live.append([next(slots), t, c - b, bisect.bisect_left(owed, t) if b else len(owed), slots])
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
    yields a fixed message.

    In canonical type order, each over-supplied type draws the positions it
    keeps among its slots, ``rng.choice(count, size=budget, replace=False)``;
    its slots come from the truth's int type codes.  Then
    ``rng.permutation(len(owed))`` deals the owed deficit labels to the
    freed slots in slot order, but only when those labels are not all one
    label: every arrangement of one label gives the same message, so the
    generator skips that draw.  ``_rewritten`` overwrites only the freed slots.
    """
    counts, owed = _shortfall(u, q)
    codes = u._codes()
    parts = []
    for i, (c, b) in enumerate(zip(counts, q.counts)):
        if c > b:
            freed = np.ones(c, dtype=bool)
            freed[rng.choice(c, size=b, replace=False)] = False
            parts.append((codes == i).nonzero()[0][freed])
    free = np.concatenate(parts).tolist() if parts else []
    if len(parts) > 1:
        free.sort()
    if owed and owed[0] != owed[-1]:  # ``owed`` is in label order: two labels or more
        owed = list(map(owed.__getitem__, rng.permutation(len(owed)).tolist()))
    return _rewritten(u, q, counts, zip(free, owed))


def _is_acyclic(tails: list, heads: list) -> bool:
    """Kahn's test: the distinct arcs tails[i] -> heads[i] close no directed cycle."""
    indeg = Counter(heads)
    queue = list(set(tails).difference(indeg))  # the nodes no arc enters
    if not queue:  # each node on an arc has one entering it
        return not tails
    succ: dict = defaultdict(list)
    for a, b in zip(tails, heads):
        succ[a].append(b)
    while queue:  # strip a node no remaining arc enters, with its out-arcs
        for w in succ[queue.pop()]:
            indeg[w] -= 1
            if not indeg[w]:
                queue.append(w)
    return not any(indeg.values())


def _residual(m: int, tails, heads) -> tuple[list[list[int]], list[int]]:
    """The residual graph of the arcs ``tails[i] -> heads[i]`` on nodes 0..m-1, as both flow solvers lay
    it out: edge 2i is arc i and edge 2i + 1 its reverse (``e ^ 1``), ``to[e]`` is where edge e ends, and
    ``head[v]`` lists the edges out of node v in edge order."""
    to = [0] * (2 * len(tails))
    to[0::2], to[1::2] = heads, tails
    head: list[list[int]] = [[] for _ in range(m)]
    for e, v in enumerate(itertools.chain.from_iterable(zip(tails, heads))):
        head[v].append(e)
    return head, to


def _bellman_ford(head: list, to: list, weight: list, room: list, sources) -> tuple[list, list[int]]:
    """Distances from ``sources`` (each at 0) over the edges e with ``room[e]`` left, each running
    from the node whose ``head`` list holds it to ``to[e]`` at cost ``weight[e]``, and each node's last
    edge (-1 if none); an unreached node's distance is ``None``.  Vertex-order passes, at most n - 1,
    scan only the nodes whose distance fell since their last scan (a self-loop can lower its own node):
    rescanning any other relaxes nothing, so distances, last edges and ties are those of the plain
    vertex-order loop, negative cycles included."""
    dist: list = [None] * len(head)
    last = [-1] * len(head)
    dirty = bytearray(len(head))
    for s in sources:
        dist[s], dirty[s] = 0, 1
    for _ in range(len(head) - 1):
        v = dirty.find(1)
        if v < 0:
            break
        while v >= 0:
            dirty[v] = 0
            dv = dist[v]
            for e in head[v]:
                if room[e]:
                    w = to[e]
                    dw = dv + weight[e]
                    if dist[w] is None or dw < dist[w]:
                        dist[w], last[w], dirty[w] = dw, e, 1
            v = dirty.find(1, v + 1)
    return dist, last


def is_permutation_truthful(u: PreferenceVector, m: Union[Message, PreferenceVector]) -> bool:
    """Fast checker: the lying slots must not close a directed cycle.

    Draw an arc truth -> report for every lying slot; the report shuffles
    truths on some subset exactly when these arcs contain a directed cycle.
    The test suite checks this against an exponential subset scan.
    """
    lies = {(a, b) for a, b in zip(u.entries, _report_entries(u, m)) if a != b}
    return _is_acyclic([a for a, _ in lies], [b for _, b in lies])


# --- maximum permutation witness, from a unit-cost flow ---


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
    in_range = not len(slots) or 1 <= slots[0] and slots[-1] <= K
    if not in_range or (slots[1:] <= slots[:-1]).any() or not np.array_equal(np.sort(images), slots):
        raise RuntimeError("internal: witness mapping is not a bijection on S")
    if np.any(rc[slots - 1] != uc[images - 1]):
        raise RuntimeError("internal: witness pairing does not map reports to truths")
    excess = np.maximum(np.bincount(uc, minlength=n) - np.bincount(rc, minlength=n), 0).sum()
    if len(slots) < K - (n - 1) * int(excess):
        raise RuntimeError("internal: witness covers fewer slots than guaranteed")


def _min_routing(m: int, tails: list[int], heads: list[int], caps: list[int], left: list[int]) -> list[int]:
    """Route every node's excess to the deficit nodes over the fewest arcs.

    Arc i runs tails[i] -> heads[i], carries at most caps[i] units and costs
    1 per unit; ``left[v]`` is node v's excess (> 0) or deficit (< 0), the
    whole summing to 0, and is spent in place.  Returns the units on each arc
    of a cheapest routing, by successive shortest paths.  The residual graph
    is ``_residual``'s layout, the transport solver's too: edge 2i is arc i's
    spare room (cost +1) and edge 2i + 1 its routed units, which a unit may
    cancel (cost -1).

    Routing starts from zero flow.  Each round labels every node with its
    cheapest (cost, arcs) distance from the excess nodes, as ``key = cost *
    B + arcs``, by ``_bellman_ford`` (the transport solver's search too),
    and augments from the excess nodes along edges that are tight for the
    labels (each adds one arc, so they form a DAG) to deficit nodes at the
    least cost, until none is reachable.  Augmenting only along shortest
    paths leaves no residual cycle that costs less than 0, and no node's
    distance falls from one round to the next, so the excess nodes keep key
    0 and no tight edge enters one.
    """
    head, to = _residual(m, tails, heads)
    room = [0] * len(to)
    room[0::2] = caps
    ends = [len(h) for h in head]
    B = m + 1  # more than the arcs on any cheapest path
    weight = [B + 1, 1 - B] * len(tails)  # per edge: spare room, cancel
    while True:
        sources = [v for v in range(m) if left[v] > 0]
        if not sources:
            return room[1::2]
        dist = _bellman_ford(head, to, weight, room, sources)[0]
        key = [m * B if d is None else d for d in dist]  # m * B: above every reachable key
        cost = min(key[v] // B for v in range(m) if left[v] < 0)
        if cost == m:  # pragma: no cover - c itself routes every excess
            raise RuntimeError("internal: excess cannot reach a deficit")
        done = [0] * m  # each node's first head edge not yet ruled out this round, ``ends`` once it is a dead end
        for a in sources:
            while left[a] > 0:
                path, v = [], a
                while not (left[v] < 0 and key[v] // B == cost):
                    hv, kv = head[v], key[v]
                    for i in range(done[v], ends[v]):
                        e = hv[i]
                        w = to[e]
                        if room[e] and key[w] == kv + weight[e] and done[w] < ends[w]:
                            done[v] = i
                            path.append(e)
                            v = w
                            break
                    else:
                        done[v] = ends[v]
                        if not path:
                            break
                        v = to[path.pop() ^ 1]  # a dead end: back up and rule out the edge into it
                        done[v] += 1
                if not path:
                    break
                k = min(left[a], -left[v], *map(room.__getitem__, path))
                for e in path:
                    room[e] -= k
                    room[e ^ 1] += k
                left[a] -= k
                left[v] += k


def permutation_witness(
    u: PreferenceVector, reported: Union[Message, PreferenceVector]
) -> PermutationWitness:
    """Certify the largest slot subset on which the report permutes truths.

    Nodes are the types that occur in lying slots, and c[a, b] counts the
    slots with truth a and report b.  A subset S permutes truths exactly when
    its lying slots form a circulation x <= c on the lie arcs a -> b
    (a != b); truthful slots are fixed points, always in S.  The complement
    y = c - x routes each type's excess (truth count - report count) to the
    deficit types, so the largest S has K - min sum(y) slots: a min-cost
    routing with unit arc costs and capacities c[a, b] (``_min_routing``).
    Each unit of excess crosses at most #types - 1 arcs, so S covers at least
    K - (#types - 1) * K * tv(marginal(u), marginal(report)) slots, that is
    K - (#types - 1) * sum_t (truth count - report count)_+.

    The lying slots are sorted by arc code once (stable, so each arc's slots
    stay in slot order).  When the lie arcs close no cycle (``_is_acyclic``,
    the test behind ``is_permutation_truthful``), no circulation fits in
    them: S is the truthful slots and pi the identity on them, without a
    routing, and the re-checked floor is then the paper's loosened bound,
    lies <= (#types - 1) * K * tv.  Otherwise each arc keeps its first
    x[a, b] lying slots, and pi pairs S's report-t lying slots with its
    truth-t lying slots in slot order (two stable sorts).  Ranks come from
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
    tails, heads = (a.tolist() for a in np.divmod(arc[order[first]], max(m, 1)))
    image = np.where(uc == rc, np.arange(len(uc)), -1)  # each 0-based slot's image under pi, or -1 off S
    if not _is_acyclic(tails, heads):  # else S is the truthful slots
        left = np.bincount(lu, minlength=m) - np.bincount(lr, minlength=m)
        x = c - _min_routing(m, tails, heads, c.tolist(), left.tolist())
        in_s = np.zeros(len(uc), dtype=bool)
        in_s[lying[order[np.arange(len(arc)) - np.repeat(first, c) < np.repeat(x, c)]]] = True
        kept = np.flatnonzero(in_s)  # S's lying slots, in slot order
        by_report = kept[np.argsort(node[rc[kept]].astype(small), kind="stable")]
        by_truth = kept[np.argsort(node[uc[kept]].astype(small), kind="stable")]
        image[by_report] = by_truth  # the i-th report-t slot of S maps to its i-th truth-t slot
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
    """Judge a quota-feasible report from its type codes and its witness.

    The minimum lie count and the relaxed budget come from the truth's type
    counts and the quota, the lie count from one comparison of the type
    codes, and both approximate verdicts are integer comparisons on those
    counts.  A circulation fits in the lie arcs exactly when they close a
    cycle, so the report is permutation-truthful exactly when the maximum
    witness keeps no lying slot; a report whose lies close no cycle gets S =
    its truthful slots without a routing, and the witness's re-checked floor
    is then the loosened bound, lies <= (#types - 1) * K * tv.  Agrees with ``min_lie_count``,
    ``lie_count``, ``is_permutation_truthful`` and ``permutation_witness``.
    """
    _check_shapes(u, m.quota)
    min_lies = sum(max(c - b, 0) for c, b in zip(u._type_counts(), m.quota.counts))
    lies = int(np.count_nonzero(u._codes() != m.vector._codes()))
    star_bound = (len(u.types) - 1) * min_lies
    witness = permutation_witness(u, m)
    return Audit(
        approx_truthful=lies == min_lies,
        approx_truthful_star=lies <= star_bound,
        permutation_truthful=len(witness.slots) == u.K - lies,
        min_lies=min_lies,
        lies=lies,
        star_bound=star_bound,
        witness=witness,
    )
