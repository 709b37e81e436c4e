#!/usr/bin/env python3
"""Record the benchmark as one ``BENCH_*.json``: per workload, each metric's
median and quartiles over seeds, scaled and raw.

Usage, from the repository root:

    python3 scripts/bench_record.py --out BENCH_36.json
    python3 scripts/bench_record.py --out /tmp/b.json --workload audit-witness-4type --seeds 1 --seconds 1
    python3 scripts/bench_record.py --compare BENCH_35.json BENCH_36.json

Runs ``bench/run.py --trace 0`` unedited, once per (seed, workload), one run
at a time, seeds in the outer loop so that a slow phase of the machine
falls on every workload alike.  ``--root`` measures another checkout (say,
the parent commit's) with this recorder; its ``bench/run.py`` and ``src/``
are the ones run.

Every run is kept.  A run that ends ``incorrect`` counts in ``incorrect``
and its metrics stay in the summary; a run that prints no result line
counts in ``errored`` with its exit code and the tail of its stderr.  No
run is dropped, repeated or re-seeded.  Paths inside the measured checkout
are written relative to it.

Per metric, ``scaled`` summarizes the values on the result line, which
``bench/run.py`` scales to its reference machine, and ``raw`` the wall-time
figures in the manifest's ``raw_wall``.  Raw ``setup_s`` pools every probe
in ``setup_s_values`` (five per run); ``peak_rss_mb`` is never scaled, so it
has only ``raw``.  Each summary holds ``median``, ``q1``, ``q3`` (inclusive
quartiles) and the ``values`` themselves.

``--compare OLD NEW`` reads two records and prints, per workload and
end-to-end metric in ``BENCHMARK.json``, both medians (scaled, or raw for
``peak_rss_mb``), the relative change in the metric's worse direction, its
bound and a verdict: ``worse`` when the change is worse by more than the
bound, ``unresolved`` when OLD's interquartile spread, relative to its
median, exceeds the bound, else ``ok``.  It exits 1 only on ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RAW = ("throughput_per_s", "call_p50_ms", "call_p90_ms")


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its manifest and result, or its exit code and stderr tail."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.replace(f"{root.resolve()}/", "").strip().splitlines()  # paths relative to the checkout
    try:
        manifest, result = json.loads(lines[-2])["manifest"], json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        return {"seed": seed, "exit": proc.returncode, "stderr": proc.stderr.strip()[-500:]}
    return {"seed": seed, "manifest": manifest, "result": result}


def record(runs: list[dict]) -> dict:
    """The summary of one workload's runs."""
    done = [r for r in runs if "result" in r]
    metrics = {}
    for name, metric in done[0]["result"]["metrics"].items() if done else ():
        scaled = [r["result"]["metrics"][name]["value"] for r in done]
        if name in RAW:
            raw = [r["manifest"]["raw_wall"][name] for r in done]
        elif name == "setup_s":
            raw = [x for r in done for x in r["manifest"]["raw_wall"]["setup_s_values"]]
        else:  # peak_rss_mb
            raw, scaled = scaled, []
        metrics[name] = {"unit": metric["unit"], "scaled": summary(scaled) if scaled else None, "raw": summary(raw)}
    return {
        "runs": len(runs),
        "correct": sum(r["result"]["correct"] for r in done),
        "incorrect": sum(not r["result"]["correct"] for r in done),
        "errored": [r for r in runs if "result" not in r],
        "calls_attempted": sum(r["result"]["attempted"] for r in done),
        "calls_failed": sum(r["result"]["failed"] for r in done),
        "metrics": metrics,
        "manifests": [dict(r["manifest"], correct=r["result"]["correct"]) for r in done],
    }


def compare(old: dict, new: dict) -> list[tuple]:
    """Per workload and end-to-end metric: (workload, metric, old median, new median, change in the
    worse direction, bound, verdict); each median is the scaled one, or the raw one where none is scaled."""
    rows = []
    for w in WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (rec["workloads"][w]["metrics"][name] for rec in (old, new))
            a, b = a["scaled"] or a["raw"], b["scaled"] or b["raw"]
            worse = (b["median"] - a["median"]) / a["median"] * (1 if metric["better"] == "lower" else -1)
            spread = (a["q3"] - a["q1"]) / a["median"]
            verdict = "worse" if worse > bound else "unresolved" if spread > bound else "ok"
            rows.append((w, name, a["median"], b["median"], worse, bound, verdict))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="path of the JSON record to write")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                    help="compare two records instead of running the benchmark")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run (repeatable); default every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (default 1,2,3)")
    ap.add_argument("--seconds", type=float, default=10.0, help="timed seconds per run (default 10)")
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to measure (default this one)")
    args = ap.parse_args(argv)
    if args.compare:
        rows = compare(*(json.loads(path.read_text()) for path in args.compare))
        print(f"{'workload':<22}{'metric':<18}{'old':>12}{'new':>12}{'worse by':>10}{'bound':>8}  verdict")
        for w, name, a, b, worse, bound, verdict in rows:
            print(f"{w:<22}{name:<18}{a:>12.5g}{b:>12.5g}{worse:>+10.1%}{bound:>8.0%}  {verdict}")
        return 1 if any(row[-1] == "worse" for row in rows) else 0
    if not args.out:
        ap.error("--out is required unless --compare is given")
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workload or WORKLOADS
    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_once(args.root, w, seed, args.seconds))
            print(f"{w} seed {seed}: {'ok' if 'result' in runs[w][-1] else 'no result'}", file=sys.stderr)
    out = {
        "command": ["python3", "bench/run.py", "--trace", "0"],
        "seeds": seeds,
        "seconds": args.seconds,
        "workloads": {w: record(r) for w, r in runs.items()},
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 1 if any(rec["errored"] for rec in out["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
