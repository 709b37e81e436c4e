"""``scripts/bench_record.py --compare``: one verdict per workload and end-to-end metric."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDER = ROOT / "scripts" / "bench_record.py"


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic(recorder, spread: float, **medians) -> dict:
    """A record in which each metric's median is 100, or ``medians[name]``, and its quartiles sit
    ``spread`` times 100 apart; ``peak_rss_mb`` has only raw values, as ``bench_record.py`` writes it."""
    def metric(name):
        m = medians.get(name, 100.0)
        summary = {"median": m, "q1": m - 50 * spread, "q3": m + 50 * spread, "values": [m]}
        return {"scaled": None, "raw": summary} if name == "peak_rss_mb" else {"scaled": summary, "raw": None}

    names = [m["name"] for m in recorder.BENCHMARK["end_to_end"]]
    return {"workloads": {w: {"metrics": {n: metric(n) for n in names}} for w in recorder.WORKLOADS}}


def compare(recorder, tmp_path, old: dict, new: dict, capsys) -> tuple[int, list[str]]:
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, rec in zip(paths, (old, new)):
        path.write_text(json.dumps(rec))
    code = recorder.main(["--compare", *map(str, paths)])
    return code, capsys.readouterr().out.splitlines()[1:]


def test_a_change_past_its_bound_is_worse(tmp_path, capsys):
    recorder = load_recorder()
    # throughput is better higher: 100 -> 75 is 25% worse against a 20% bound; p50 100 -> 115 is within it
    new = synthetic(recorder, 0.01, throughput_per_s=75.0, call_p50_ms=115.0)
    code, rows = compare(recorder, tmp_path, synthetic(recorder, 0.01), new, capsys)
    assert code == 1 and len(rows) == len(recorder.WORKLOADS) * len(recorder.BENCHMARK["end_to_end"])
    verdicts = {tuple(row.split()[:2]): row.split()[-1] for row in rows}
    assert {key for key, v in verdicts.items() if v == "worse"} == {(w, "throughput_per_s") for w in recorder.WORKLOADS}
    assert set(verdicts.values()) == {"worse", "ok"}
    assert "+25.0%" in next(row for row in rows if "throughput_per_s" in row)


def test_a_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys):
    recorder = load_recorder()
    # OLD's quartiles 30% apart exceed every bound (at most 25%); NEW is 5% worse on each metric
    new = synthetic(recorder, 0.3, setup_s=105.0, throughput_per_s=95.0, call_p50_ms=105.0, call_p90_ms=105.0,
                    peak_rss_mb=105.0)
    code, rows = compare(recorder, tmp_path, synthetic(recorder, 0.3), new, capsys)
    assert code == 0 and rows and all(row.split()[-1] == "unresolved" for row in rows)
    assert all("+5.0%" in row for row in rows)


def test_committed_records_compare_clean():
    proc = subprocess.run([sys.executable, str(RECORDER), "--compare", "BENCH_35.json", "BENCH_36.json"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "worse" not in proc.stdout.replace("worse by", "")
