"""Exact payoff evaluation and best responses over the quota message space.

Two independent routes compute a payoff-maximizing message: exhaustive
enumeration of all quota-feasible messages, and an integral transportation
solve over (true type, reported type) mass.  The transportation route
breaks payoff ties toward fewer lies, which keeps its answer within the
relaxed lie budget whenever the outcome function picks each type's favorite
decision.  ``verify_counterexample`` packages the bundled 3-type instance
where the best response is not a minimal-lie message.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

from .core import (
    EnumerationCapError,
    Message,
    PreferenceVector,
    Problem,
    Quota,
    ValidationError,
    _bounded,
    _brief,
)
from .truthfulness import (
    _bellman_ford,
    _check_shapes,
    _exceeds,
    _report_entries,
    _residual,
    _rewritten,
    audit,
    compute_quota,
    iter_multiset_arrangements,
    minimal_lie_messages,
)


@dataclass(frozen=True)
class SocialChoiceFunction:
    """Maps each reported type to a lottery over decisions."""

    lotteries: Mapping[str, Mapping[str, Fraction]]

    def __post_init__(self):
        parsed = {}  # the lotteries with a str weight, each such weight parsed
        for t, lot in self.lotteries.items():
            total = Fraction(0)
            for d, w in lot.items():
                text = _bounded(w, f"lottery[{t}][{d}]") if isinstance(w, str) else w
                try:
                    exact = Fraction(None if isinstance(w, bool) else text)
                except (TypeError, ValueError, OverflowError):
                    raise ValidationError(f"lottery[{t}][{d}]: weight {_brief(w)} is not a finite number") from None
                if exact < 0:
                    raise ValidationError(f"lottery[{t}][{d}]: negative weight")
                if isinstance(w, str):
                    parsed.setdefault(t, dict(lot))[d] = exact
                total += exact
            if total != 1:
                raise ValidationError(f"lottery[{t}]: weights sum to {_brief(total)}, expected 1")
        if parsed:
            object.__setattr__(self, "lotteries", {**self.lotteries, **parsed})

    @classmethod
    def point_mass(cls, assignment: Mapping[str, str]) -> "SocialChoiceFunction":
        return cls({t: {d: Fraction(1)} for t, d in assignment.items()})

    @classmethod
    def utility_argmax(cls, problem: Problem) -> "SocialChoiceFunction":
        """Give each type its highest-utility decision (ties: canonical label)."""
        assignment = {}
        for t in problem.types:
            best = max(problem.utility[t].values())
            assignment[t] = min(d for d in problem.decisions if problem.utility[t][d] == best)
        return cls.point_mass(assignment)

    def lottery(self, typ: str) -> Mapping[str, Fraction]:
        return self.lotteries[typ]

    def decision(self, typ: str) -> Optional[str]:
        """The supported decision when the lottery is degenerate, else None."""
        lot = self.lotteries[typ]
        support = [d for d, w in lot.items() if w > 0]
        return support[0] if len(support) == 1 else None

    def expected_utility(self, reported: str, true_type: str, problem: Problem):
        """Expected payoff to ``true_type`` when the mechanism sees ``reported``."""
        return sum(w * problem.utility[true_type][d] for d, w in self.lotteries[reported].items())


# The last (f, p, types) with its pair table and transport network, keyed by
# identity: f and p are held, so their ids cannot be reused, and neither is
# mutated after construction.  Keying on content would mix int and float
# utilities, since 1 == 1.0; the network alone is kept for equal int costs.
_cached: tuple = (None,) * 4

# The transport costs' payoff unit, above K + 4n + 2 on every problem: K, the
# most lies a plan holds, is a tuple's length, at most sys.maxsize < 2**63,
# and 4n + 2, the widest gap between two paths' lie sums, is below 2**34,
# since the network's n**2 pair edges fit in a list.
_LIE_SCALE = 1 << 64


def _pair_table(f: SocialChoiceFunction, p: Problem, types: tuple[str, ...]):
    """Each (true, reported) pair's exact value as an int over one common
    denominator, floats read as their exact binary value; the set of pairs
    whose ``f.expected_utility`` is a float; that denominator; and the
    transport network, whose arcs in edge order are a source arc per true
    type, a sink arc per reported type, then every pair arc in row order, a
    pair costing ``(top - value) // gcd * _LIE_SCALE`` plus its lie bit."""
    global _cached
    if not (_cached[0] is f and _cached[1] is p and _cached[2] == types):
        pairs = [(t, r) for t in types for r in types]
        exact = [sum(Fraction(w) * Fraction(p.utility[t][d]) for d, w in f.lottery(r).items()) for t, r in pairs]
        denom = math.lcm(*(v.denominator for v in exact))
        scaled = {pair: v.numerator * (denom // v.denominator) for pair, v in zip(pairs, exact)}
        floats = {(t, r) for t, r in pairs if isinstance(f.expected_utility(r, t, p), float)}
        n, top = len(types), max(scaled.values())
        unit = math.gcd(*(top - v for v in scaled.values())) or 1
        costs = [0] * (2 * n) + [(top - scaled[t, r]) // unit * _LIE_SCALE + (t != r) for t, r in pairs]
        net = _cached[3] and _cached[3][3]
        if not (net and net.cost[::2] == costs):  # a network and its plans depend on these ints alone
            tails = [2 * n] * n + [*range(n, 2 * n)] + [i for i in range(n) for _ in types]
            heads = [*range(n)] + [2 * n + 1] * n + [*range(n, 2 * n)] * n
            net = _MinCostFlow(2 * n + 2, tails, heads, costs)
        _cached = (f, p, types, (scaled, floats, denom, net))
    return _cached[3]


def _pair_sum(u: PreferenceVector, m: Union[Message, PreferenceVector], f: SocialChoiceFunction, p: Problem):
    """The slots' (true, reported) pair values summed exactly, as an int over
    ``_pair_table``'s denominator, and whether a used pair's ``f.expected_utility``
    is a float."""
    scaled, floats, _, _ = _pair_table(f, p, u.types)
    pairs = Counter(zip(u.entries, _report_entries(u, m)))
    return sum(c * scaled[pair] for pair, c in pairs.items()), not floats.isdisjoint(pairs)


def payoff(u: PreferenceVector, m: Union[Message, PreferenceVector], f: SocialChoiceFunction, p: Problem):
    """Total payoff: the exact sum of the slots' (true, reported) pair values, rounded
    once, to a float if a used pair's ``f.expected_utility`` is a float, else a Fraction.
    A float payoff beyond the float range is a ``payoff:`` ValidationError."""
    total, rounded = _pair_sum(u, m, f, p)
    exact = Fraction(total, _pair_table(f, p, u.types)[2])
    if not rounded:
        return exact
    try:
        return float(exact)
    except OverflowError:
        raise ValidationError("payoff: the exact sum is beyond the float range") from None


def message_count(q: Quota) -> int:
    """Number of quota-feasible messages (a multinomial coefficient)."""
    return math.factorial(q.K) // math.prod(map(math.factorial, q.counts))


def _arrangements(q: Quota, cap: int) -> Iterator[tuple[str, ...]]:
    """The quota's arrangements in lexicographic order, if at most ``cap``."""
    if _exceeds([q.counts], cap):
        raise EnumerationCapError(f"more than {cap} quota messages")
    return iter_multiset_arrangements(q.as_dict())


def best_response_bruteforce(
    u: PreferenceVector, f: SocialChoiceFunction, p: Problem, q: Quota, cap: int = 10**6
) -> tuple[Message, ...]:
    """All payoff-maximizing messages, by enumeration, in canonical order.
    Payoffs are compared exactly, so float rounding neither splits nor makes a tie."""
    _check_shapes(u, q)
    scaled = _pair_table(f, p, q.types)[0]
    best_pay = None
    best: list[tuple[str, ...]] = []
    for entries in _arrangements(q, cap):
        pay = sum(map(scaled.__getitem__, zip(u.entries, entries)))
        if best_pay is None or pay > best_pay:
            best_pay = pay
            best = [entries]
        elif pay == best_pay:
            best.append(entries)
    return tuple(Message(PreferenceVector(e, q.types), q) for e in best)  # already lexicographic


@dataclass(frozen=True)
class TransportPlan:
    """Integer mass moved from true types (rows) to reported types (columns)."""

    types: tuple[str, ...]
    flows: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "types": list(self.types),
            "flows": {
                t: {r: self.flows[i][j] for j, r in enumerate(self.types) if self.flows[i][j]}
                for i, t in enumerate(self.types)
            },
        }


@dataclass(frozen=True)
class TransportResult:
    """A transport best response: the plan and its message."""

    plan: TransportPlan
    message: Message


_PLAN_MEMO_CELLS = 1 << 16  # most flow cells, n**2 a plan, that one network's plan memo keeps; emptied when full


class _MinCostFlow:
    """Successive shortest paths on integer weights with the lie bit folded in.

    The arcs ``tails[i] -> heads[i]`` at ``costs[i]`` are fixed at build time and laid out by
    ``_residual``, reverse edges at ``-costs[i]``; ``run`` augments a caller's residual capacities,
    one per edge, along one ``_bellman_ford`` path at a time (both are the witness routing's too).
    Exact weights leave no negative cycle in the residual graph; the checks in ``run`` fail loudly
    anyway.  ``plans`` maps (supply, demand) to solved flows.
    """

    def __init__(self, n_nodes: int, tails: list[int], heads: list[int], costs: list[int]):
        self.head, self.to = _residual(n_nodes, tails, heads)
        self.cost = [w for c in costs for w in (c, -c)]
        self.plans: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], ...]] = {}

    def run(self, s: int, t: int, amount: int, cap: list[int]) -> None:
        """Send ``amount`` units from s to t, updating ``cap`` in place."""
        while amount > 0:
            dist, prev_edge = _bellman_ford(self.head, self.to, self.cost, cap, (s,))
            if dist[t] is None:  # pragma: no cover - supplies always match demands here
                raise RuntimeError("internal: transportation network infeasible")
            path, v = [], t
            while v != s:
                if len(path) == len(self.head):
                    raise RuntimeError("internal: shortest-path tree has a cycle")
                eid = prev_edge[v]
                path.append(eid)
                v = self.to[eid ^ 1]
            bottleneck = min(amount, *map(cap.__getitem__, path))
            if bottleneck < 1:
                raise RuntimeError("internal: augmenting path has no capacity left")
            for eid in path:
                cap[eid] -= bottleneck
                cap[eid ^ 1] += bottleneck
            amount -= bottleneck


def _transport_plan(supply: tuple[int, ...], q: Quota, f: SocialChoiceFunction, p: Problem) -> tuple[tuple[int, ...], ...]:
    """A best response's flows, one row per true type: solved once per (supply,
    quota) on the network's plan memo, and checked against both on every call.
    ``supply`` is the truth's type counts aligned with ``q.counts``, and with it the memo key."""
    n = len(q.types)
    net = _pair_table(f, p, q.types)[3]
    flows = net.plans.get((supply, q.counts))
    if flows is None:
        arcs = [*supply, *q.counts, *(min(s, d) for s in supply for d in q.counts)]
        cap = [c for arc in arcs for c in (arc, 0)]  # edge 2i is arc i, edge 2i + 1 its reverse
        net.run(2 * n, 2 * n + 1, q.K, cap)
        flows = tuple(zip(*[iter(cap[4 * n + 1::2])] * n))  # reverse capacity == shipped units, n to a row
        if len(net.plans) >= max(1, _PLAN_MEMO_CELLS // (n * n)):
            net.plans.clear()
        net.plans[supply, q.counts] = flows
    if tuple(map(sum, flows)) != supply or tuple(map(sum, zip(*flows))) != q.counts:
        raise RuntimeError("internal: transport plan misses the slot counts or the quota")
    return flows


def best_response_transport(
    u: PreferenceVector, f: SocialChoiceFunction, p: Problem, q: Quota
) -> TransportResult:
    """Payoff-maximizing message via an integral transportation solve.

    The payoff of a message depends only on how many slots of each true type
    report each type, so the argmax reduces to a transportation problem with
    row sums equal to slot counts and column sums equal to the quota.  Each
    (true, reported) payoff is summed exactly over the lottery, floats read as
    their exact binary value, and the ``top - value`` gaps are scaled to
    integers over the common denominator and divided by their gcd: one positive
    factor on every payoff, so no order moves.  The lie indicator is folded in
    below one payoff unit as ``cost * M + lie`` with ``M = _LIE_SCALE``, which
    exceeds K (the most lies a plan holds) and 4n + 2 (the widest gap between
    the lie sums of two paths of at most 2n + 1 edges), so int comparisons order
    paths and plans exactly as ``(cost, lies)`` pairs would: among
    payoff-optimal plans the solver returns one with the fewest lies.  The plan
    is realized slot by slot, filling each true type's slots with its reported
    types in canonical order, so a lying row overwrites a prefix of its slots
    with the lower labels and a suffix with the higher ones.  ``_pair_table``
    builds the network with all n^2 pair edges once per problem and keeps it
    while the int arc costs stay equal.  ``_transport_plan`` solves once per
    (counts, quota), on fresh capacities (a pair edge gets min(supply, demand),
    so one at zero is never relaxed and its reverse edge never gains capacity).
    Per call: the truth's memoized counts, the plan, its row and column sums
    against the counts and the quota, and the lying rows'
    realization with an O(lies) quota check.  A lying row's slots are found by
    ``tuple.index`` hops, one per lie: forward for the lower labels, and on the
    reversed truth, built once and only if some row writes a higher label, for
    the higher ones.  The message's payoff is ``payoff(u, result.message, f, p)``.
    """
    _check_shapes(u, q)
    counts = u._type_counts()
    flows = _transport_plan(counts, q, f, p)
    types = q.types
    n = len(types)

    ue, rev, last = u.entries, (), u.K - 1
    writes = []
    write = writes.append
    for i, t in enumerate(types):
        row = flows[i]
        if row[i] == counts[i]:
            continue
        k = -1  # the lower labels, in canonical order, on the row's first slots
        for j in range(i):
            for _ in range(row[j]):
                k = ue.index(t, k + 1)
                write((k, types[j]))
        k = -1  # the higher labels, highest first, on its last slots
        for j in range(n - 1, i, -1):
            if row[j]:
                rev = rev or ue[::-1]
                for _ in range(row[j]):
                    k = rev.index(t, k + 1)
                    write((last - k, types[j]))
    return TransportResult(plan=TransportPlan(types, flows), message=_rewritten(u, q, counts, writes))


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    details: str


@dataclass(frozen=True)
class CounterexampleReport:
    """Structured result of the bundled deviation-incentive check."""

    truth: tuple[str, ...]
    quota_counts: dict[str, int]
    min_lies: int
    minimal_messages: tuple[tuple[str, ...], ...]
    minimal_payoffs: dict[tuple[str, ...], float]
    best_payoff: float
    best_responses: tuple[tuple[str, ...], ...]
    deviation_strictly_preferred: bool
    checks: tuple[CheckOutcome, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "truth": list(self.truth),
            "quota": dict(self.quota_counts),
            "min_lies": self.min_lies,
            "minimal_messages": [list(m) for m in self.minimal_messages],
            "minimal_payoffs": {",".join(m): float(v) for m, v in self.minimal_payoffs.items()},
            "best_payoff": float(self.best_payoff),
            "best_responses": [list(m) for m in self.best_responses],
            "deviation_strictly_preferred": self.deviation_strictly_preferred,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details} for c in self.checks
            ],
            "passed": self.passed,
        }


def verify_counterexample(
    problem: Problem, f: Optional[SocialChoiceFunction] = None
) -> CounterexampleReport:
    """Audit the 3-type, K=3 instance where best responses over-lie.

    Requires 3 types, 3 decisions, a uniform prior, and a dictatorial
    outcome function (each type gets a distinct favorite decision).  With
    truth (t1, t1, t2) the minimal-lie messages swap one t1 for the missing
    t3; whenever u(d2|t1) + u(d3|t2) > u(d3|t1) + u(d2|t2) the agent instead
    prefers the two-lie reports {(t1,t2,t3), (t2,t1,t3)}, which stay within
    the relaxed lie budget and never permute truths.  All claims are checked
    against the enumeration oracle, never assumed; every verdict, lie count
    and bound comes from ``audit``.
    """
    types = tuple(sorted(problem.types))
    if len(types) != 3 or len(problem.decisions) != 3:
        raise ValidationError("counterexample requires exactly 3 types and 3 decisions")
    if any(problem.prior[t] != Fraction(1, 3) for t in types):
        raise ValidationError("counterexample requires the uniform prior (1/3, 1/3, 1/3)")
    f = f or SocialChoiceFunction.utility_argmax(problem)
    peaks = {t: f.decision(t) for t in types}
    if None in peaks.values() or len(set(peaks.values())) != 3:
        raise ValidationError("counterexample requires a dictatorial (injective, deterministic) f")
    for t in types:
        others = [problem.utility[t][d] for d in problem.decisions if d != peaks[t]]
        if any(problem.utility[t][peaks[t]] <= v for v in others):
            raise ValidationError(f"type {t} must strictly prefer its own decision")

    t1, t2, t3 = types
    K = 3
    quota = compute_quota(problem, K)
    u = problem.vector((t1, t1, t2))

    checks: list[CheckOutcome] = []

    def record(name: str, passed: bool, details: str) -> None:
        checks.append(CheckOutcome(name, passed, details))

    best = best_response_bruteforce(u, f, problem, quota)
    judged = [audit(u, m) for m in best]
    min_lies = judged[0].min_lies
    minimal = minimal_lie_messages(u, quota)
    expected_minimal = {(t1, t3, t2), (t3, t1, t2)}
    record(
        "one_lie_required",
        min_lies == 1 and {m.entries for m in minimal} == expected_minimal,
        f"min_lies={min_lies}, minimal set={sorted(m.entries for m in minimal)}",
    )

    # verdicts compare exact sums; the report prints the payoffs as rounded
    best_pay = payoff(u, best[0], f, problem)
    minimal = sorted(minimal, key=lambda m: m.entries)
    minimal_pay = {m.entries: payoff(u, m, f, problem) for m in minimal}
    best_sum, denom = _pair_sum(u, best[0], f, problem)[0], _pair_table(f, problem, u.types)[2]
    gaps = {m.entries: Fraction(best_sum - _pair_sum(u, m, f, problem)[0], denom) for m in minimal}  # best - minimal
    worse = all(gap > 0 for gap in gaps.values())
    gain = (
        Fraction(problem.utility[t1][peaks[t2]])
        + Fraction(problem.utility[t2][peaks[t3]])
        - Fraction(problem.utility[t1][peaks[t3]])
        - Fraction(problem.utility[t2][peaks[t2]])
    )
    deviation_preferred = gain > 0

    if deviation_preferred:
        # Slots 1 and 2 hold the same true type, so the two-lie deviation is
        # always accompanied by its slot-swapped twin at identical payoff.
        expected_best = {(t1, t2, t3), (t2, t1, t3)}
        record(
            "two_lie_deviation_optimal",
            {m.entries for m in best} == expected_best and worse,
            f"best={sorted(m.entries for m in best)} at {best_pay}, "
            f"minimal payoffs={ {','.join(k): v for k, v in minimal_pay.items()} }",
        )
        deviation = audit(u, Message(problem.vector((t1, t2, t3)), quota))
        record(
            "deviation_fails_exact_budget",
            not deviation.approx_truthful and not any(a.approx_truthful for a in judged),
            f"lie counts={[a.lies for a in judged]} vs min {min_lies}",
        )
        record(
            "deviation_within_relaxed_budget",
            deviation.approx_truthful_star and all(a.approx_truthful_star for a in judged),
            f"bound={deviation.star_bound}",
        )
        record(
            "deviation_never_permutes_truths",
            all(a.permutation_truthful for a in judged),
            "lie arcs form a path, no cycle",
        )
        if all(v < best_pay for v in minimal_pay.values()):
            details = f"{dict((','.join(k), v) for k, v in minimal_pay.items())} < {best_pay}"
        else:  # rounding hides the order: state the exact gaps
            exact = ", ".join(f"{','.join(k)!r}: {g}" for k, g in gaps.items())
            details = f"best - minimal = {{{exact}}}"
        record("minimal_messages_strictly_worse", worse, details)
    else:
        record(
            "no_deviation_incentive",
            all(a.approx_truthful for a in judged),
            f"best responses {sorted(m.entries for m in best)} are minimal-lie messages",
        )

    return CounterexampleReport(
        truth=u.entries,
        quota_counts=quota.as_dict(),
        min_lies=min_lies,
        minimal_messages=tuple(sorted(m.entries for m in minimal)),
        minimal_payoffs={k: v for k, v in minimal_pay.items()},
        best_payoff=best_pay,
        best_responses=tuple(m.entries for m in best),
        deviation_strictly_preferred=deviation_preferred,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
    )
