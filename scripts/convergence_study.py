#!/usr/bin/env python3
"""Compare built-in reporting strategies on one problem across a K grid.

Runs canonical-min-lie, uniform-min-lie, and best-response with a shared
seed and writes a single CSV.  The per-slot worst-case column separates the
label-free uniform mixture (worst slot tracks the mean) from the canonical
deterministic pick (worst slot stays flat because its lies concentrate in
fixed slots).

    python scripts/convergence_study.py --spec src/linkmech/data/binary.json \
        --K 4,16,64,256 --reps 5000 --seed 7 --out study.csv
"""

from __future__ import annotations

import argparse
import json
import sys

from linkmech import SimConfig, run_convergence, stats_to_csv, validate_problem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--K", default="4,16,64,256")
    ap.add_argument("--reps", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    with open(args.spec, "r", encoding="utf-8") as fh:
        problem = validate_problem(json.load(fh))
    k_values = tuple(int(x) for x in args.K.split(","))

    rows = []
    for strategy in ("canonical-min-lie", "uniform-min-lie", "best-response"):
        cfg = SimConfig(
            problem=problem,
            k_values=k_values,
            replications=args.reps,
            seed=args.seed,
            strategy=strategy,
        )
        rows.extend(run_convergence(cfg))
        print(f"done: {strategy}", file=sys.stderr)

    text = stats_to_csv(rows)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
