"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Checks that every workload reports every metric named in BENCHMARK.json
with its unit, that the traced run shows calls exactly in the layers each
workload is meant to reach, and that deliberately corrupted outputs are
counted as failures, so the output checks are not vacuous.  Exits 0 when
all of that holds.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SECONDS = 0.3
SEED = 11

# Layer call counts that must be non-zero (True) or zero (False) per workload.
EXPECTED_CALLS = {
    "sim-canonical-binary": {"truthfulness.canonical_minimal_message": True,
                             "truthfulness.sample_minimal_message": False},
    "sim-uniform-binary": {"truthfulness.canonical_minimal_message": False,
                           "truthfulness.sample_minimal_message": True},
    "sim-bestresp-3type": {"optimize.best_response_transport": True},
    "audit-witness-4type": {"truthfulness.permutation_witness": True, "sim.run_convergence": False,
                            "optimize.best_response_transport": False},
}
SIM_LAYERS = ("sim.run_convergence", "sim.sample_type_vector")


def rename_csv_column(out: str, call) -> str:
    return out.replace("mean_tv_to_quota", "mean_tv_to_prior", 1)


def shift_lie_fraction(out: str, call) -> str:
    """Move every K's lie_fraction (and its equal twin) far outside the band."""
    lines = out.strip("\n").split("\n")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        f[3] = f[6] = repr(min(float(f[3]) + 0.25, 1.0) if float(f[3]) < 0.5 else float(f[3]) - 0.25)
        rows.append(",".join(f))
    return "\n".join([lines[0]] + rows) + "\n"


def flip_witness_pair(out: str, call) -> str:
    """Swap the images of two witness pairs whose truth slots carry different types."""
    obj = json.loads(out)
    truth = call.input["truth"]
    pairs = obj["witness"]["pi"]
    for i in range(1, len(pairs)):
        if truth[pairs[0][1] - 1] != truth[pairs[i][1] - 1]:
            pairs[0][1], pairs[i][1] = pairs[i][1], pairs[0][1]
            return json.dumps(obj)
    raise AssertionError("no flippable witness pair")


def bump_min_lies(out: str, call) -> str:
    obj = json.loads(out)
    obj["min_lies"] += 1
    return json.dumps(obj)


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    errors = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            errors.append(what)
            print(f"FAIL {what}", file=sys.stderr)

    names = [w["name"] for w in bench["workloads"]]
    expect(sorted(names) == sorted(run.WORKLOADS), f"workloads {names} vs harness {sorted(run.WORKLOADS)}")
    for key, traced in (("end_to_end", False), ("per_layer", True)):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for name in names:
            result, manifest = run.run_workload(name, SEED, SECONDS, traced)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={int(traced)}: metrics/units differ: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={int(traced)}: {result['failed']}/{result['attempted']} failed: "
                   f"{manifest['failures'][:2]}")
            if not traced:
                expect(all(v["value"] > 0 for v in result["metrics"].values()), f"{name}: a zero end-to-end metric")
                continue
            calls = {k[:-len(".calls")]: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
            expected = dict(EXPECTED_CALLS[name])
            for layer in SIM_LAYERS:
                expected.setdefault(layer, name.startswith("sim-"))
            for layer, nonzero in expected.items():
                expect((calls[layer] > 0) == nonzero, f"{name}: {layer}.calls = {calls[layer]}")

    for name, corrupt in (("sim-canonical-binary", rename_csv_column),
                          ("sim-uniform-binary", shift_lie_fraction),
                          ("audit-witness-4type", flip_witness_pair),
                          ("audit-witness-4type", bump_min_lies)):
        result, manifest = run.run_workload(name, SEED, SECONDS, False, corrupt=corrupt)
        expect(result["failed"] == result["attempted"] > 0 and not result["correct"],
               f"{name} with {corrupt.__name__}: only {result['failed']}/{result['attempted']} counted as failed")
        expect(all(re.match(r"(simulate|audit): ", f) for f in manifest["failures"]),
               f"{name} with {corrupt.__name__}: unexpected failure kinds {manifest['failures'][:2]}")

    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
