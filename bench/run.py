"""linkmech benchmark: CLI throughput and latency, with a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness imports linkmech from ``src/`` and drives ``linkmech.cli.main``
in-process, from one thread, as a closed loop with a single client: each
call starts when the previous one has returned.  Inputs come from
``--seed`` only.  Every output is re-checked by ``oracle.py``, which uses no
linkmech code; a non-zero exit, an exception or a failed check counts as a
failed call.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
calls untraced and then traced, writes the spans to
``.bench_out/<workload>/spans.jsonl`` and reports the per-layer metrics.
The last line of standard output is the result object; the line before it
is the run manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import AuditWorkload, SimWorkload  # noqa: E402

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
# Machine-speed reference.  Shared machines change speed in phases of seconds
# (by up to 1.7x where this benchmark was built, a 2-core Xeon VM), which
# moves every raw wall time with them.  Between calls the harness times a
# fixed kernel of interpreter and small-numpy work, and scales each call's wall time by
# REFERENCE_S over the median kernel time measured within REF_WINDOW_S of the
# call.  Reported times are thus times on a machine where the kernel takes
# REFERENCE_S; the raw wall times are in the manifest.
REFERENCE_S = 1.5e-3
REF_WINDOW_S = 0.2
REF_REPEATS = 9  # kernel runs before and after each set-up probe
BINARY_GRID = (4, 16, 64, 256)

# Why each workload is in the set is recorded in BENCHMARK.json.
WORKLOADS = {
    "sim-canonical-binary": SimWorkload(
        spec="binary", strategy="canonical-min-lie", k_values=BINARY_GRID, reps=40),
    "sim-uniform-binary": SimWorkload(
        spec="binary", strategy="uniform-min-lie", k_values=BINARY_GRID, reps=40),
    "sim-bestresp-3type": SimWorkload(
        spec="counterexample", strategy="best-response", k_values=(16, 64, 256), reps=25),
    "audit-witness-4type": AuditWorkload(k_values=(256, 1024, 4096)),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


_KERNEL_CUM = np.array([4, 7, 9, 10])


def reference_kernel() -> Fraction:
    """Fixed work of the kinds linkmech does: Fractions, dicts, tuples and
    sorting, then small numpy draws and counts.  Neither part runs linkmech
    code.  On the machines measured so far the numpy part tracks
    numpy-heavy workloads through speed phases better, and the Python part
    tracks the others; the mix serves both."""
    acc = Fraction(0)
    counts: dict = {}
    keys = []
    for i in range(250):
        acc += Fraction(i % 7, 13)
        key = ("ABCD"[i % 4], i % 17)
        counts[key] = counts.get(key, 0) + 1
        keys.append(key)
    set(keys)
    sorted(counts.items())
    rng = np.random.default_rng(0)
    for _ in range(24):
        draws = rng.integers(0, 10, size=64)
        np.bincount(np.searchsorted(_KERNEL_CUM, draws, side="right"), minlength=4)
        rng.permutation(16)
    return acc


def time_reference() -> tuple[float, float]:
    """(end timestamp, duration) of one reference kernel run."""
    t0 = time.perf_counter()
    reference_kernel()
    t1 = time.perf_counter()
    return t1, t1 - t0


def speed_scale(intervals: list[tuple[float, float]], refs: list[tuple[float, float]]) -> list[float]:
    """Per call, the factor that maps its wall time to the reference machine.

    ``refs`` must hold a kernel run just before every call and one after
    the last, so each window has at least one sample.
    """
    stamps = [t for t, _ in refs]
    out = []
    for t0, t1 in intervals:
        window = refs[bisect_left(stamps, t0 - REF_WINDOW_S):bisect_right(stamps, t1 + REF_WINDOW_S)]
        out.append(REFERENCE_S / statistics.median(d for _, d in window))
    return out


def load_linkmech() -> dict:
    if not os.path.isfile(os.path.join(SRC, "linkmech", "cli.py")):
        raise FileNotFoundError(f"linkmech sources not found under {SRC}")
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"linkmech.{name}") for name in tracing.LAYERS}
    mods["package"] = importlib.import_module("linkmech")
    return mods


class Harness:
    """Runs calls through the CLI, timing each and checking its output."""

    def __init__(self, mods: dict, corrupt=None):
        self.mods = mods
        self.corrupt = corrupt  # output mangler, used only by the self-test
        self.attempted = 0
        self.failures: list[str] = []

    def run_cli(self, argv: list[str]) -> tuple[object, str, str]:
        """(exit code, stdout, stderr) of one in-process CLI call."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.mods["cli"].main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed call, not a crashed run
            code = f"raised {exc!r}"
        return code, out.getvalue(), err.getvalue()

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems[:3])}")

    def finish_call(self, call, code, out, err) -> None:
        if code != 0:
            self.record(call.argv[0], [f"exit {code}: {err.strip()[:200]}"])
            return
        if self.corrupt is not None:
            out = self.corrupt(out, call)
        self.record(call.argv[0], call.check(out))

    def loop(self, calls, round_size: int, seconds: float = 0.0, count: int | None = None,
             on_call=None) -> tuple[list[float], list[float]]:
        """Call in order for ``seconds`` (whole rounds) or exactly ``count`` calls.

        Returns per-call wall times and the same scaled to the reference
        machine, in seconds.  The reference kernel and the output checks run
        between calls, outside the timed region.
        """
        intervals, refs = [], []
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            if count is not None:
                if i >= count:
                    break
            elif i % round_size == 0 and time.perf_counter() >= deadline:
                break
            call = calls[i % len(calls)]
            if on_call is not None:
                on_call(i)
            refs.append(time_reference())
            t0 = time.perf_counter()
            code, out, err = self.run_cli(call.argv)
            intervals.append((t0, time.perf_counter()))
            self.finish_call(call, code, out, err)
            i += 1
        refs.append(time_reference())
        lat = [t1 - t0 for t0, t1 in intervals]
        return lat, [x * f for x, f in zip(lat, speed_scale(intervals, refs))]


def probe_setup(prep, harness: Harness, workdir: str) -> tuple[list[float], list[float]]:
    """Set-up samples from fresh interpreters: wall times and scaled times."""
    first = os.path.join(workdir, "first_call.json")
    with open(first, "w", encoding="utf-8") as fh:
        json.dump(prep.calls[0].argv, fh)
    samples, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = statistics.median(time_reference()[1] for _ in range(REF_REPEATS))
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), SRC, prep.spec_path, first],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            harness.record("setup-probe", [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
            continue
        harness.finish_call(prep.calls[0], res["exit"], res["output"], proc.stderr)
        samples.append(res["setup_s"])
        after = statistics.median(time_reference()[1] for _ in range(REF_REPEATS))
        scaled.append(res["setup_s"] * REFERENCE_S / statistics.mean([before, after]))
    return samples, scaled


def summarize(lat: list[float], calls, round_size: int) -> dict:
    """Throughput (median over rounds) and latency percentiles of one loop."""
    per_round = []
    for r in range(len(lat) // round_size):
        span = range(r * round_size, (r + 1) * round_size)
        per_round.append(sum(calls[i % len(calls)].items for i in span) / sum(lat[i] for i in span))
    ms = [x * 1e3 for x in lat]
    return {
        "throughput_per_s": statistics.median(per_round),
        "call_p50_ms": statistics.median(ms),
        "call_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


def git_commit(root: str):
    """Commit of a git checkout, read from .git without running git; None elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, traced: bool, corrupt=None) -> tuple[dict, dict]:
    """Run one workload; returns (result object, manifest)."""
    wl = WORKLOADS[name]
    mods = load_linkmech()
    import numpy

    workdir = os.path.join(OUT, name)
    os.makedirs(workdir, exist_ok=True)
    prep = wl.prepare(seed, workdir, mods)
    harness = Harness(mods, corrupt)
    manifest = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "linkmech": getattr(mods["package"], "__version__", None), "git_commit": git_commit(ROOT),
        "nproc": os.cpu_count(), "platform": platform.platform(), "params": prep.params,
        "loop": "closed, 1 client, in-process, --workers default",
    }
    metrics: dict[str, dict] = {}

    if not traced:
        setup_raw, setup = probe_setup(prep, harness, workdir)
        harness.loop(prep.calls, prep.round_size, count=prep.round_size)  # warm-up round
        raw, scaled = harness.loop(prep.calls, prep.round_size, seconds=seconds)
        values = summarize(scaled, prep.calls, prep.round_size)
        values["setup_s"] = statistics.median(setup) if setup else 0.0  # no probe ran: failures say why
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        manifest["raw_wall"] = dict(summarize(raw, prep.calls, prep.round_size),
                                    setup_s_values=setup_raw)
        manifest["machine_speed"] = statistics.median(s / r for s, r in zip(scaled, raw))
        p90 = values["call_p90_ms"]
        manifest["samples"] = {
            "setup_s": len(setup), "calls": len(raw), "call_p50_ms": len(raw), "call_p90_ms": len(raw),
            "call_p90_ms_beyond": sum(x * 1e3 > p90 for x in scaled),
            "throughput_rounds": len(raw) // prep.round_size,
            "items": sum(prep.calls[i % len(prep.calls)].items for i in range(len(raw))),
            "pool_wrapped": len(raw) > len(prep.calls),
        }
    else:
        harness.loop(prep.calls, prep.round_size, count=prep.round_size)  # warm-up round
        _, plain = harness.loop(prep.calls, prep.round_size, seconds=seconds / 2)
        tracer = tracing.Tracer({k: mods[k] for k in tracing.LAYERS})
        tracer.install()
        try:
            _, timed = harness.loop(prep.calls, prep.round_size, count=len(plain),
                                    on_call=lambda i: setattr(tracer, "request", i))
        finally:
            tracer.uninstall()
        spans_path = os.path.join(workdir, "spans.jsonl")
        tracer.write(spans_path)
        audit_calls = sum(prep.calls[i % len(prep.calls)].argv[0] == "audit" for i in range(len(plain)))
        layer = tracing.layer_metrics(tracer.spans, audit_calls, sum(plain), sum(timed))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        manifest["samples"] = {"calls": len(plain), "spans": len(tracer.spans), "spans_file": spans_path}

    for problems in wl.extra_checks(seed, harness.run_cli, prep.spec_path):
        harness.record("extra-check", problems)
    manifest["failed_ratio"] = len(harness.failures) / max(harness.attempted, 1)
    manifest["failures"] = harness.failures[:10]
    result = {
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": metrics,
    }
    return result, manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, manifest = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in manifest["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
