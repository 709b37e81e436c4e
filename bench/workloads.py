"""Workload definitions: seeded input generation and the CLI calls to make.

A workload turns ``--seed`` into a pool of CLI calls, grouped into rounds.
A round is one pass over the workload's input mix (one ``simulate`` call,
or one audit of each (K, report kind) pair), and the harness only stops
between rounds, so every run measures the same mix.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import oracle


@dataclass
class Call:
    argv: list[str]
    items: int  # episodes simulated or audits made by this call
    check: Callable[[str], list[str]]
    input: dict = field(default_factory=dict)  # what a corruption needs to see


@dataclass
class Prepared:
    calls: list[Call]
    round_size: int
    spec_path: str
    params: dict


# Pool sizes.  A run that outlasts its pool starts over from the first call;
# the manifest says when that happened.
SIM_POOL_CALLS = 4096
AUDIT_POOL_ROUNDS = 64


def _read_prior(spec_path: str) -> dict[str, Fraction]:
    with open(spec_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {t: Fraction(p) for t, p in zip(raw["types"], raw["prior"])}


@dataclass(frozen=True)
class SimWorkload:
    """``linkmech simulate`` on a bundled spec, one CLI seed per call."""

    spec: str
    strategy: str
    k_values: tuple[int, ...]
    reps: int

    def prepare(self, seed: int, workdir: str, mods: dict) -> Prepared:
        spec_path = mods["cli"].bundled_spec_path(self.spec)
        prior = _read_prior(spec_path)
        expected = None
        if self.strategy != "best-response":
            expected = {K: float(oracle.exact_expected_tv(prior, K)) for K in self.k_values}
        seeds = np.random.default_rng(seed).integers(0, 2**62, size=SIM_POOL_CALLS).tolist()
        k_arg = ",".join(map(str, self.k_values))
        calls = []
        for s in seeds:
            argv = ["simulate", "--spec", spec_path, "--K", k_arg, "--reps", str(self.reps),
                    "--seed", str(s), "--strategy", self.strategy]
            check = _sim_check(self.strategy, self.k_values, self.reps, s, len(prior), expected)
            calls.append(Call(argv, self.reps * len(self.k_values), check))
        params = {"spec": self.spec, "strategy": self.strategy, "K": list(self.k_values),
                  "reps_per_call": self.reps, "episodes_per_call": self.reps * len(self.k_values),
                  "pool_calls": SIM_POOL_CALLS}
        return Prepared(calls, 1, spec_path, params)

    def extra_checks(self, seed: int, run_cli, spec_path: str) -> list[list[str]]:
        """Untimed: transport and bruteforce best responses agree on payoff at K = 6."""
        if self.strategy != "best-response":
            return []
        types = sorted(_read_prior(spec_path))
        rng = np.random.default_rng([seed, 6])
        results = []
        for _ in range(8):
            truth = ",".join(types[i] for i in rng.integers(0, len(types), size=6))
            pays = []
            for method in ("transport", "bruteforce"):
                code, out, err = run_cli(["best-response", "--spec", spec_path, "--truth", truth,
                                          "--method", method])
                pays.append(json.loads(out)["payoff"] if code == 0 else f"exit {code}: {err}")
            ok = all(isinstance(p, (int, float)) for p in pays) and abs(pays[0] - pays[1]) <= 1e-9
            results.append([] if ok else [f"best-response payoffs differ on {truth}: {pays}"])
        return results


def _sim_check(strategy, k_values, reps, seed, n_types, expected):
    return lambda text: oracle.check_simulate_csv(
        text, strategy=strategy, k_values=k_values, reps=reps, seed=seed,
        n_types=n_types, expected_tv=expected)


AUDIT_TYPES = ("A", "B", "C", "D")
AUDIT_DECISIONS = ("a", "b", "c", "d")
AUDIT_PRIOR = ("2/5", "3/10", "1/5", "1/10")
REPORT_KINDS = ("minimal", "shuffled", "random")


@dataclass(frozen=True)
class AuditWorkload:
    """``linkmech audit`` on a generated 4-type spec and truth/report pairs."""

    k_values: tuple[int, ...]

    def prepare(self, seed: int, workdir: str, mods: dict) -> Prepared:
        rng = np.random.default_rng(seed)
        peaks = rng.permutation(len(AUDIT_DECISIONS))
        spec = {
            "decisions": list(AUDIT_DECISIONS),
            "types": list(AUDIT_TYPES),
            "prior": list(AUDIT_PRIOR),
            "utility": {
                t: {d: (2.0 if j == peaks[i] else round(float(rng.uniform(0, 1)), 3))
                    for j, d in enumerate(AUDIT_DECISIONS)}
                for i, t in enumerate(AUDIT_TYPES)
            },
        }
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2)
        with open(spec_path, encoding="utf-8") as fh:
            mods["core"].validate_problem(json.load(fh))  # raises on a bad spec
        prior = {t: Fraction(p) for t, p in zip(AUDIT_TYPES, AUDIT_PRIOR)}
        cum = np.cumsum([int(prior[t] * 10) for t in AUDIT_TYPES])
        labels = np.array(AUDIT_TYPES)
        calls = []
        pairs_path = os.path.join(workdir, "pairs.jsonl")
        with open(pairs_path, "w", encoding="utf-8") as fh:
            for _ in range(AUDIT_POOL_ROUNDS):
                # Each round audits every (K, kind) pair once, in a Latin-square
                # order so that consecutive calls alternate K.
                for i in range(len(REPORT_KINDS)):
                    for j, K in enumerate(self.k_values):
                        kind = REPORT_KINDS[(i + j) % len(REPORT_KINDS)]
                        truth, report = _audit_pair(rng, K, kind, prior, cum)
                        t_lab, r_lab = labels[truth].tolist(), labels[report].tolist()
                        fh.write(json.dumps({"K": K, "kind": kind, "truth": t_lab, "report": r_lab}) + "\n")
                        argv = ["audit", "--spec", spec_path, "--truth", ",".join(t_lab),
                                "--report", ",".join(r_lab)]
                        check = _audit_check(t_lab, r_lab, kind, prior)
                        calls.append(Call(argv, 1, check, {"truth": t_lab}))
        params = {"spec": "generated 4-type", "prior": list(AUDIT_PRIOR), "K": list(self.k_values),
                  "report_kinds": list(REPORT_KINDS), "pool_rounds": AUDIT_POOL_ROUNDS,
                  "calls_per_round": len(self.k_values) * len(REPORT_KINDS), "pairs_file": pairs_path}
        return Prepared(calls, len(self.k_values) * len(REPORT_KINDS), spec_path, params)

    def extra_checks(self, seed: int, run_cli, spec_path: str) -> list[list[str]]:
        return []


def _audit_check(truth, report, kind, prior):
    return lambda text: oracle.check_audit_json(text, truth=truth, report=report, kind=kind, prior=prior)


def _audit_pair(rng, K: int, kind: str, prior: dict, cum) -> tuple[np.ndarray, np.ndarray]:
    """Truth of K i.i.d. draws and a quota-feasible report of the given kind."""
    n = len(prior)
    truth = np.searchsorted(cum, rng.integers(0, int(cum[-1]), size=K), side="right")
    quota_map = oracle.largest_remainder_quota(prior, K)
    quota = np.array([quota_map[t] for t in AUDIT_TYPES])
    if kind == "random":
        return truth, rng.permutation(np.repeat(np.arange(n), quota))
    # A minimal-lie message: keep a uniform quota-sized subset of each
    # over-supplied type's slots and scatter the deficit over the rest.
    counts = np.bincount(truth, minlength=n)
    report = truth.copy()
    freed = []
    for t in range(n):
        if counts[t] > quota[t]:
            slots = np.flatnonzero(truth == t)
            freed.append(rng.choice(slots, size=counts[t] - quota[t], replace=False))
    if freed:
        free = np.sort(np.concatenate(freed))
        report[free] = rng.permutation(np.repeat(np.arange(n), np.maximum(quota - counts, 0)))
    if kind == "shuffled":
        # Permute the entries of a random quarter of the slots among themselves.
        sub = rng.choice(K, size=K // 4, replace=False)
        report[sub] = report[rng.permutation(sub)]
    return truth, report
