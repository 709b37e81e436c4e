"""Output checks for the benchmark, written without any linkmech code.

Every function here recomputes what a CLI output must satisfy from the
inputs alone (type labels, prior, K), so a check cannot pass merely because
the program agrees with itself.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

CSV_COLUMNS = (
    "K",
    "strategy",
    "reps",
    "lie_fraction",
    "lie_fraction_se",
    "max_slot_lie_prob",
    "mean_tv_to_quota",
    "star_bound",
    "efficiency_gap",
    "seed",
)

# Half-width of the band, in standard errors, that a simulated lie fraction
# must fall in around its exact expectation.  At 7 SE a correct program
# fails a row with probability about 1e-9.
Z_BAND = 7.0
FLOAT_TOL = 1e-12


def largest_remainder_quota(prior: dict[str, Fraction], K: int) -> dict[str, int]:
    """Round ``prior`` onto the 1/K grid: floor every share, then hand the
    leftover units to the largest remainders, ties to the smaller label."""
    types = sorted(prior)
    floors = {t: (K * prior[t].numerator) // prior[t].denominator for t in types}
    rema = {t: K * prior[t] - floors[t] for t in types}
    leftover = K - sum(floors.values())
    for t in sorted(types, key=lambda t: (-rema[t], t))[:leftover]:
        floors[t] += 1
    return floors


def _compositions(K: int, n: int):
    if n == 1:
        yield (K,)
        return
    for first in range(K + 1):
        for rest in _compositions(K - first, n - 1):
            yield (first,) + rest


def exact_expected_tv(prior: dict[str, Fraction], K: int) -> Fraction:
    """E[tv(marginal(u), quota)] for u of K i.i.d. draws from ``prior``.

    Sums over the C(K+n-1, n-1) count vectors with multinomial weights, so
    it is exact and cheap where #types is small.
    """
    types = sorted(prior)
    quota = largest_remainder_quota(prior, K)
    denom = math.lcm(*(prior[t].denominator for t in types))
    num = [prior[t].numerator * (denom // prior[t].denominator) for t in types]
    fact = [1] * (K + 1)
    for i in range(1, K + 1):
        fact[i] = fact[i - 1] * i
    total = 0
    for counts in _compositions(K, len(types)):
        excess = sum(max(c - quota[t], 0) for c, t in zip(counts, types))
        if not excess:
            continue
        weight = fact[K]
        for c in counts:
            weight //= fact[c]
        for c, a in zip(counts, num):
            weight *= a**c
        total += weight * excess
    return Fraction(total, denom**K * K)


def check_simulate_csv(
    text: str,
    *,
    strategy: str,
    k_values: tuple[int, ...],
    reps: int,
    seed: int,
    n_types: int,
    expected_tv: dict[int, float] | None,
) -> list[str]:
    """Check one ``linkmech simulate`` CSV.

    Always: the fixed schema, one row per K, echoed parameters, fractions in
    [0, 1], and minimum <= lies <= (#types - 1) * minimum.  With
    ``expected_tv`` (minimal-lie strategies): ``lie_fraction`` equals
    ``mean_tv_to_quota`` exactly and lies within Z_BAND standard errors of
    the exact expectation.
    """
    lines = text.strip("\n").split("\n")
    if tuple(lines[0].split(",")) != CSV_COLUMNS:
        return [f"csv header {lines[0]!r}"]
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
    if len(rows) != len(k_values):
        return [f"{len(rows)} csv rows for {len(k_values)} K values"]
    problems = []
    for K, row in zip(k_values, rows):
        try:
            echoed = (int(row["K"]), row["strategy"], int(row["reps"]), int(row["seed"]))
            lf = float(row["lie_fraction"])
            se = float(row["lie_fraction_se"])
            tvq = float(row["mean_tv_to_quota"])
            fracs = [float(row[c]) for c in ("max_slot_lie_prob", "efficiency_gap")]
        except (KeyError, ValueError) as exc:
            problems.append(f"K={K}: unparsable row {row}: {exc}")
            continue
        if echoed != (K, strategy, reps, seed):
            problems.append(f"K={K}: echoed parameters {echoed}")
        if not all(0.0 <= x <= 1.0 for x in [lf, tvq] + fracs) or se < 0:
            problems.append(f"K={K}: value out of range in {row}")
        if lf < tvq - FLOAT_TOL or lf > (n_types - 1) * tvq + FLOAT_TOL:
            problems.append(f"K={K}: lie_fraction {lf} outside [tv, {n_types - 1}*tv] with tv={tvq}")
        if expected_tv is not None:
            if lf != tvq:
                problems.append(f"K={K}: lie_fraction {lf} != mean_tv_to_quota {tvq}")
            if abs(lf - expected_tv[K]) > Z_BAND * se + FLOAT_TOL:
                problems.append(
                    f"K={K}: lie_fraction {lf} is {abs(lf - expected_tv[K]) / se if se else math.inf:.1f} SE "
                    f"from the exact {expected_tv[K]}"
                )
    return problems


def _has_lie_cycle(truth: list[str], report: list[str]) -> bool:
    succ: dict[str, set[str]] = {}
    for a, b in zip(truth, report):
        if a != b:
            succ.setdefault(a, set()).add(b)
    state: dict[str, int] = {}

    def visit(v: str) -> bool:  # True when a cycle is reachable from v
        state[v] = 1
        for w in succ.get(v, ()):
            if state.get(w) == 1 or (w not in state and visit(w)):
                return True
        state[v] = 2
        return False

    return any(v not in state and visit(v) for v in list(succ))


def check_audit_json(
    text: str, *, truth: list[str], report: list[str], kind: str, prior: dict[str, Fraction]
) -> list[str]:
    """Re-verify one ``linkmech audit`` output from the truth and report alone."""
    try:
        out = json.loads(text)
        S = out["witness"]["S"]
        pairs = out["witness"]["pi"]
        pi = {int(k): int(v) for k, v in pairs}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unparsable audit output: {exc}"]
    K = len(truth)
    n = len(prior)
    quota = largest_remainder_quota(prior, K)
    counts = {t: 0 for t in prior}
    for t in truth:
        counts[t] += 1
    min_lies = sum(max(counts[t] - quota[t], 0) for t in prior)
    lies = sum(a != b for a, b in zip(truth, report))
    problems = []
    if len(pi) != len(pairs) or sorted(pi) != sorted(S) or sorted(pi.values()) != sorted(S) or len(set(S)) != len(S):
        problems.append("witness pi is not a bijection on S")
    elif any(not 1 <= k <= K or report[k - 1] != truth[pi[k] - 1] for k in pi):
        problems.append("witness maps a report slot to a truth slot with another type")
    # The report meets the quota, so tv(marginal(truth), marginal(report)) = min_lies / K.
    if len(S) < K - (n - 1) * min_lies:
        problems.append(f"#S={len(S)} below the floor {K - (n - 1) * min_lies}")
    perm_truthful = not _has_lie_cycle(truth, report)
    expected = {
        "min_lies": min_lies,
        "lies": lies,
        "star_bound": (n - 1) * min_lies,
        "approx_truthful": lies == min_lies,
        "approx_truthful_star": lies <= (n - 1) * min_lies,
        "permutation_truthful": perm_truthful,
    }
    for key, want in expected.items():
        if out.get(key) != want:
            problems.append(f"{key}={out.get(key)!r}, expected {want!r}")
    if kind == "minimal" and not (lies == min_lies and out.get("permutation_truthful") is True):
        problems.append("minimal-lie report not judged permutation-truthful with minimum lies")
    return problems
