#!/usr/bin/env python3
"""One sha256 over the output bytes of a fixed grid of CLI runs.

Run it on two checkouts; equal digests mean a change kept every byte of
these runs (exit code, stdout and stderr):

- ``simulate`` on both bundled specs x the three built-in strategies x CSV
  and JSON x K grids ``2,8,32,256`` and ``3,16,64`` x seeds 1 and 4242,
  300 replications each (48 runs);
- ``simulate`` on ``binary.json`` x the three built-in strategies in CSV at
  K ``3,16,64`` and 300 replications, with seeds ``4611686018427400000``
  (two 32-bit entropy words, like the benchmark's 62-bit seeds) and ``-1``
  (masked to 64 bits) (6 runs);
- ``simulate`` on ``binary.json`` with the canonical and uniform strategies
  in CSV at K ``1,7``, seed 1 and 1100 replications, so each K's
  replications cross the edge of a 1024-replication seeding block (2 runs);
- ``simulate --strategy best-response`` on ``tests/data/transport_cycle.json``
  (4 types, one of them at prior 0, float utilities, best responses that lie
  more than the minimum) in CSV at K ``4,32,256``, seed 1 and 300
  replications (1 run);
- ``best-response`` with both methods on the README example (the bundled
  counterexample spec, truth ``A,A,B``) and on ``tests/data/transport_cycle.json``
  (4 runs);
- ``quota`` on both bundled specs at K 1, 3 and 1000 (6 runs);
- ``audit`` on the README example, and on a generated 4-type spec with one
  minimal, one shuffled and one random report per K in 64, 256, 1024 and
  4096 (the audit benchmark's largest K), drawn from a fixed
  ``random.Random`` seed without linkmech code (13 runs);
- the K=4096 shuffled ``audit`` pair again, its labels joined with ``", "``,
  so the parse that strips padded labels runs at scale (1 run);
- ``counterexample`` by default and with ``--utility u_cB=0.5`` (2 runs);
- ``best-response --method bruteforce`` on three truths with K <= 8 (3 runs);
- ``simulate --reps 1 --K 1,2,...,12`` with the three built-in strategies on
  the bundled counterexample spec, seed 1: odd K, denominator 3, and twelve
  K seeded in one chunk (3 runs);
- ``simulate --strategy uniform-min-lie`` on a 2-type spec with prior
  ``1/2147483649, 2147483648/2147483649``, K ``2,3,64``, seed 1 and 50
  replications: about half of the 32-bit values drawn at that denominator
  are redrawn, and the strategy draws from the generator after the truth (1 run);
- ``simulate --strategy best-response`` on a generated 12-type spec (uniform
  prior, 3-decimal float utilities) at K ``16,64,256``, seed 1 and 30
  replications, and ``best-response --method transport`` on a 60-slot truth
  of it, so the transport's shortest-path search runs on 26-node networks
  (2 runs);
- ``audit`` at 30 and 100 types (uniform priors), K=4096, each on a uniform
  truth and the quota's labels in shuffled order, so the witness routing
  runs on dozens of nodes (2 runs).

The generated specs, truths and reports come from fixed ``random.Random``
seeds without linkmech code.

The first line printed is the digest over every run.  One line per
subcommand follows, each a digest over that subcommand's runs alone, so a
change that moves the bytes of one subcommand shows the others unchanged.
Every run must exit 0; otherwise the script names the run and exits 1.
The printed lines must equal the committed ``parity_digest.txt`` beside
this script; otherwise the script names each subcommand whose digest moved
and exits 1.  A change that moves bytes on purpose rewrites that file:

    python3 scripts/parity_digest.py > scripts/parity_digest.txt

The package is imported from this checkout's ``src/``, not from wherever
``linkmech`` happens to be installed.

    python3 scripts/parity_digest.py
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().with_name("parity_digest.txt")
sys.path.insert(0, str(ROOT / "src"))

from linkmech import cli  # noqa: E402

FOUR_TYPES = ("a", "b", "c", "d")
FOUR_PRIOR = ("2/5", "3/10", "1/5", "1/10")
# A denominator of 2**31 + 1, where about half of all 32-bit draws are rejected and redrawn.
REJECT_SPEC = {
    "decisions": ["x", "y"],
    "types": ["A", "B"],
    "prior": ["1/2147483649", "2147483648/2147483649"],
    "utility": {"A": {"x": 1, "y": 0}, "B": {"x": 0, "y": 1}},
}
FOUR_SPEC = {
    "decisions": ["w", "x", "y", "z"],
    "types": list(FOUR_TYPES),
    "prior": list(FOUR_PRIOR),
    "utility": {t: {d: int(i == j) for j, d in enumerate("wxyz")} for i, t in enumerate(FOUR_TYPES)},
}


def _uniform_spec(n: int, utility) -> dict:
    """A spec on types t00, t01, ... (canonical order is index order) with prior 1/n each."""
    types = [f"t{i:02d}" for i in range(n)]
    decisions = [f"d{i:02d}" for i in range(n)]
    return {"decisions": decisions, "types": types, "prior": [f"1/{n}"] * n,
            "utility": {t: {d: utility(i, j) for j, d in enumerate(decisions)} for i, t in enumerate(types)}}


def _generated_specs() -> dict[str, dict]:
    """Every spec the grid writes to its temp dir, by file stem."""
    rnd = random.Random(20261020)
    return {
        "four_types": FOUR_SPEC,
        "reject": REJECT_SPEC,
        "twelve_types": _uniform_spec(12, lambda i, j: round(rnd.uniform(0, 2), 3)),
        "types_30": _uniform_spec(30, lambda i, j: int(i == j)),
        "types_100": _uniform_spec(100, lambda i, j: int(i == j)),
    }


def _quota(K: int, prior=FOUR_PRIOR) -> list[int]:
    """Largest-remainder counts of K over a prior, ties to the lower label."""
    scaled = [K * Fraction(w) for w in prior]
    counts = [math.floor(x) for x in scaled]
    order = sorted(range(len(counts)), key=lambda i: (counts[i] - scaled[i], i))
    for i in order[:K - sum(counts)]:
        counts[i] += 1
    return counts


def _audit_pair(rnd: random.Random, K: int, kind: str) -> tuple[list[str], list[str]]:
    """A truth of K prior draws and a quota-feasible report of the given kind."""
    truth = rnd.choices(FOUR_TYPES, weights=[Fraction(w) for w in FOUR_PRIOR], k=K)
    quota = _quota(K)
    if kind == "random":
        report = [t for t, c in zip(FOUR_TYPES, quota) for _ in range(c)]
        rnd.shuffle(report)
        return truth, report
    # minimal: keep a random quota-sized subset of each type's slots and
    # scatter the owed labels over the freed slots
    report = truth[:]
    freed = []
    for t, b in zip(FOUR_TYPES, quota):
        slots = [k for k, x in enumerate(truth) if x == t]
        freed += rnd.sample(slots, max(len(slots) - b, 0))
    owed = [t for t, b in zip(FOUR_TYPES, quota) for _ in range(b - truth.count(t))]
    rnd.shuffle(owed)
    for k, t in zip(sorted(freed), owed):
        report[k] = t
    if kind == "shuffled":  # permute the entries of a random quarter of the slots
        sub = rnd.sample(range(K), K // 4)
        moved = [report[k] for k in sub]
        rnd.shuffle(moved)
        for k, t in zip(sub, moved):
            report[k] = t
    return truth, report


def runs(paths: dict[str, str]) -> list[list[str]]:
    four_spec, reject_spec = paths["four_types"], paths["reject"]
    specs = [cli.bundled_spec_path(name) for name in cli.BUNDLED_SPECS]
    ce_spec, bin_spec = specs
    grid = product(specs, cli.STRATEGY_NAMES[:3], ("csv", "json"), ("2,8,32,256", "3,16,64"), ("1", "4242"))
    out = [
        ["simulate", "--spec", spec, "--strategy", strategy, "--format", fmt, "--K", ks,
         "--reps", "300", "--seed", seed]
        for spec, strategy, fmt, ks, seed in grid
    ]
    for strategy, seed in product(cli.STRATEGY_NAMES[:3], ("4611686018427400000", "-1")):
        out.append(["simulate", "--spec", bin_spec, "--strategy", strategy, "--format", "csv", "--K", "3,16,64",
                    "--reps", "300", "--seed", seed])
    for strategy in cli.STRATEGY_NAMES[:2]:
        out.append(["simulate", "--spec", bin_spec, "--strategy", strategy, "--format", "csv", "--K", "1,7",
                    "--reps", "1100", "--seed", "1"])
    cycle_spec = str(ROOT / "tests" / "data" / "transport_cycle.json")
    out.append(["simulate", "--spec", cycle_spec, "--strategy", "best-response", "--format", "csv",
                "--K", "4,32,256", "--reps", "300", "--seed", "1"])
    examples = [(ce_spec, "A,A,B"), (cycle_spec, "t1,t1,t2,t2,t2,t2,t2,t1,t2,t1")]
    for (spec, truth), method in product(examples, ("transport", "bruteforce")):
        out.append(["best-response", "--spec", spec, "--truth", truth, "--method", method])
    for spec, K in product(specs, ("1", "3", "1000")):
        out.append(["quota", "--spec", spec, "--K", K])
    out.append(["audit", "--spec", ce_spec, "--truth", "A,A,B", "--report", "A,B,C"])
    rnd = random.Random(20261018)
    for K, kind in product((64, 256, 1024, 4096), ("minimal", "shuffled", "random")):
        truth, report = _audit_pair(rnd, K, kind)
        out.append(["audit", "--spec", four_spec, "--truth", ",".join(truth), "--report", ",".join(report)])
        if (K, kind) == (4096, "shuffled"):
            padded = ["audit", "--spec", four_spec, "--truth", ", ".join(truth), "--report", ", ".join(report)]
    out.append(padded)
    out += [["counterexample"], ["counterexample", "--utility", "u_cB=0.5"]]
    for spec, truth in ((ce_spec, "C,C,A,B,A,C,B,B"), (ce_spec, "B,B,B,B"), (bin_spec, "A,A,A,B,A,B")):
        out.append(["best-response", "--spec", spec, "--truth", truth, "--method", "bruteforce"])
    for strategy in cli.STRATEGY_NAMES[:3]:
        out.append(["simulate", "--spec", ce_spec, "--strategy", strategy, "--K", ",".join(map(str, range(1, 13))),
                    "--reps", "1", "--seed", "1"])
    out.append(["simulate", "--spec", reject_spec, "--strategy", "uniform-min-lie", "--K", "2,3,64",
                "--reps", "50", "--seed", "1"])
    twelve = paths["twelve_types"]
    out.append(["simulate", "--spec", twelve, "--strategy", "best-response", "--format", "csv",
                "--K", "16,64,256", "--reps", "30", "--seed", "1"])
    rnd = random.Random(20261021)
    truth = rnd.choices([f"t{i:02d}" for i in range(12)], k=60)
    out.append(["best-response", "--spec", twelve, "--truth", ",".join(truth), "--method", "transport"])
    for n in (30, 100):
        types = [f"t{i:02d}" for i in range(n)]
        truth = rnd.choices(types, k=4096)
        report = [t for t, c in zip(types, _quota(4096, [f"1/{n}"] * n)) for _ in range(c)]
        rnd.shuffle(report)
        out.append(["audit", "--spec", paths[f"types_{n}"], "--truth", ",".join(truth), "--report", ",".join(report)])
    return out


SUBCOMMANDS = ("simulate", "audit", "quota", "best-response", "counterexample")


def main() -> int:
    digest = hashlib.sha256()
    digests = {name: hashlib.sha256() for name in SUBCOMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for stem, spec in _generated_specs().items():
            paths[stem] = str(Path(tmp) / f"{stem}.json")
            Path(paths[stem]).write_text(json.dumps(spec), encoding="utf-8")
        argvs = runs(paths)
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                print(f"exit {code}: {' '.join(argv)[:200]}\n{err.getvalue()}", file=sys.stderr)
                return 1
            # Spec paths differ between checkouts; hash only what the run printed.
            for part in (str(code), out.getvalue(), err.getvalue()):
                data = part.encode()
                block = len(data).to_bytes(8, "big") + data
                digest.update(block)
                digests[argv[0]].update(block)
    runs_of = Counter(argv[0] for argv in argvs)
    lines = [f"{digest.hexdigest()}  {len(argvs)} runs"]
    lines += [f"{own.hexdigest()}  {runs_of[name]} {name} runs" for name, own in digests.items()]
    print("\n".join(lines))
    expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    if lines != expected:
        was = dict(zip(SUBCOMMANDS, expected[1:]))
        moved = [name for name, line in zip(SUBCOMMANDS, lines[1:]) if was.get(name) != line]
        print(f"digests differ from {EXPECTED.name}; moved: {', '.join(moved) or 'the total'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
