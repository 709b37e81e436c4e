import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import linkmech

from linkmech import (
    Audit,
    Message,
    PermutationWitness,
    PreferenceVector,
    Quota,
    ValidationError,
    audit,
    cli,
    compute_quota,
    is_permutation_truthful,
    lie_count,
    min_lie_count,
    optimize,
    sample_minimal_message,
    sim,
    truthfulness,
    validate_problem,
)
from linkmech.cli import _render_audit, bundled_spec_path
from linkmech.sim import STRATEGY_NAMES
from helpers import (
    assert_same_vector,
    oracle_is_approx_truthful,
    oracle_is_approx_truthful_star,
    oracle_star_lie_bound,
    random_quota,
    random_quota_message,
    random_vector,
    run_cli,
    run_cli_json,
)

CE_SPEC = bundled_spec_path("counterexample")
BIN_SPEC = bundled_spec_path("binary")


def run_cli_captured(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_failure(argv, capsys, message):
    """The run exits 1 with a single ``error:`` line on stderr, no traceback."""
    capsys.readouterr()
    assert run_cli(argv)[0] == 1
    assert capsys.readouterr().err == f"error: {message}\n"


class TestQuotaCommand:
    # sha256 of ``quota`` stdout on the parity grid's quota runs: both bundled specs at K 1, 3 and 1000.
    DIGESTS = {
        ("counterexample", "1"): "632e231905f16558e35e8ad53bff646b6237db80c125b0a3bf231868cea97913",
        ("counterexample", "3"): "2600d3bdb601758970b2aedfb5a6797480dd106e4ee2836387d57cc5c64a86fd",
        ("counterexample", "1000"): "0726b2997e1e9180bda9fd218ce47a65d114e264da3188f8aef7a6ced2a93d1a",
        ("binary", "1"): "a541124e17d86acc49d779286d2f8d5151e7da01a7d0e8e5b16c60bcb4ae8fb2",
        ("binary", "3"): "a3838808788a2af15d6ba0a9a7408b2017cef7c27a408dee59ba278e0b069855",
        ("binary", "1000"): "2de2d9a32c9f80022878fc85c3c539d1b33051c390764d9a12ea05cb99e46866",
    }

    def test_bytes_pinned(self):
        digests = {}
        for name, K in self.DIGESTS:
            code, out = run_cli(["quota", "--spec", bundled_spec_path(name), "--K", K])
            assert code == 0
            digests[name, K] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == self.DIGESTS

    def test_counterexample_spec(self):
        code, out = run_cli_json(["quota", "--spec", CE_SPEC, "--K", "3"])
        assert code == 0
        assert out["counts"] == {"A": 1, "B": 1, "C": 1}
        assert out["tv_to_prior"] == "0"

    def test_binary_k3(self):
        code, out = run_cli_json(["quota", "--spec", BIN_SPEC, "--K", "3"])
        assert code == 0
        assert out["counts"] == {"A": 2, "B": 1}
        assert out["distribution"] == {"A": "2/3", "B": "1/3"}
        assert out["tv_to_prior"] == "1/6"

    def test_k1_forces_single_unit(self):
        code, out = run_cli_json(["quota", "--spec", CE_SPEC, "--K", "1"])
        assert code == 0
        assert out["counts"] == {"A": 1, "B": 0, "C": 0}

    def test_missing_spec_file(self, capsys):
        code = run_cli(["quota", "--spec", "/no/such/file.json", "--K", "3"])[0]
        assert code == 1

    @pytest.mark.parametrize(
        "content", [b'{"decisions": ["\xe9"]}', b'{"decisions": [' + b"1" * 5000 + b"]}"]
    )
    def test_undecodable_spec_file(self, tmp_path, capsys, content):
        # latin-1 bytes, and an integer literal past Python's digit limit
        spec = tmp_path / "spec.json"
        spec.write_bytes(content)
        capsys.readouterr()
        assert run_cli(["quota", "--spec", str(spec), "--K", "3"])[0] == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: spec {spec} is not valid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value", [("types", 5), ("decisions", "ab"), ("types", {"A": 1, "B": 2})]
    )
    def test_label_lists_must_be_lists(self, tmp_path, capsys, field, value):
        with open(BIN_SPEC, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw[field] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["quota", "--spec", str(spec), "--K", "3"]
        assert_clean_failure(argv, capsys, f"{field}: must be a list of labels")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_fuzz(self, data):
        # zero, negative, junk and huge K, with either spec, ends in exit 0,
        # 1 or, above the K cap, 3 with at most one line, never a traceback
        K = data.draw(st.one_of(st.integers(min_value=-3, max_value=300), st.integers(10**6, 10**30),
                                st.sampled_from(["x", "", "1.5", " 4 ", "1_0", "0x3"])))
        spec = data.draw(st.sampled_from([CE_SPEC, BIN_SPEC]))
        code, out, err = run_cli_captured(["quota", "--spec", spec, "--K", str(K)])
        event(f"exit {code}")
        if code == 0:
            assert err == "" and sum(json.loads(out)["counts"].values()) == int(K)
        else:
            over_cap = isinstance(K, int) and K > sim.MAX_K
            assert code == (3 if over_cap else 1) and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("K", [str(10**7 + 1), "9" * 4300])
    def test_k_above_cap(self, K, capsys):
        # a 4,300-digit K once ended in a traceback: tv_to_prior's
        # denominator 2K was too long for str
        capsys.readouterr()
        assert run_cli(["quota", "--spec", BIN_SPEC, "--K", K])[0] == 3
        err = capsys.readouterr().err
        assert err.startswith("error: K=") and err.endswith(f"exceeds the cap {sim.MAX_K}\n")
        assert err.count("\n") == 1 and len(err) < 200

    def test_long_negative_k_is_one_short_line(self, capsys):
        argv = ["quota", "--spec", BIN_SPEC, "--K", "-" + "9" * 4000]
        assert_clean_failure(argv, capsys, "K must be a positive integer, got a negative int of 13288 bits")

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        capsys.readouterr()
        assert run_cli(["quota", "--spec", CE_SPEC, "--K", "3", "--output", str(target)])[0] == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


class TestAuditCommand:
    def test_two_lie_deviation(self):
        code, out = run_cli_json(
            ["audit", "--spec", CE_SPEC, "--truth", "A,A,B", "--report", "A,B,C"]
        )
        assert code == 0
        assert out["approx_truthful"] is False
        assert out["approx_truthful_star"] is True
        assert out["permutation_truthful"] is True
        assert out["min_lies"] == 1
        assert out["lies"] == 2
        assert out["star_bound"] == 2
        assert out["witness"] == {"S": [1], "pi": [[1, 1]]}

    def test_feasible_truth_all_green(self):
        code, out = run_cli_json(
            ["audit", "--spec", CE_SPEC, "--truth", "B,C,A", "--report", "B,C,A"]
        )
        assert code == 0
        assert out["lies"] == 0
        assert out["approx_truthful"] and out["approx_truthful_star"] and out["permutation_truthful"]

    def test_transposition_flagged(self):
        code, out = run_cli_json(
            ["audit", "--spec", BIN_SPEC, "--truth", "A,B", "--report", "B,A"]
        )
        assert code == 0
        assert out["permutation_truthful"] is False

    def test_quota_violation_names_types(self, capsys):
        code = run_cli(["audit", "--spec", CE_SPEC, "--truth", "A,A,B", "--report", "A,A,B"])[0]
        assert code == 1

    def test_unknown_label(self):
        code = run_cli(["audit", "--spec", CE_SPEC, "--truth", "A,A,Z", "--report", "A,B,C"])[0]
        assert code == 1

    def test_k_flag_must_match(self, capsys):
        # the truth's length fixes K, so audit has no --K flag
        argv = ["audit", "--spec", CE_SPEC, "--truth", "A,A,B", "--report", "A,B,C", "--K", "3"]
        assert_clean_failure(argv, capsys, "unrecognized arguments: --K 3")

    def test_agrees_with_library_on_fuzzed_inputs(self, counterexample_problem):
        problem = counterexample_problem
        types = tuple(sorted(problem.types))
        rnd = random.Random(13)
        for _ in range(200):
            K = rnd.randint(1, 6)
            u = random_vector(rnd, types, K)
            quota = compute_quota(problem, K)
            m = random_quota_message(rnd, u, quota)
            code, out = run_cli_json(
                [
                    "audit",
                    "--spec",
                    CE_SPEC,
                    "--truth",
                    ",".join(u.entries),
                    "--report",
                    ",".join(m.entries),
                ]
            )
            assert code == 0
            assert out["approx_truthful"] == oracle_is_approx_truthful(u, m)
            assert out["approx_truthful_star"] == oracle_is_approx_truthful_star(u, m)
            assert out["permutation_truthful"] == is_permutation_truthful(u, m)
            assert out["lies"] == lie_count(u, m)
            assert out["min_lies"] == min_lie_count(u, quota)
            assert out["star_bound"] == oracle_star_lie_bound(u, quota)

    def test_one_witness_and_no_recount_per_audit(self, monkeypatch):
        # names are counted wherever a linkmech module binds them, as the
        # benchmark's tracer wraps them
        calls = Counter()
        for name in ("permutation_witness", "min_lie_count", "lie_count"):
            original = getattr(truthfulness, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod in (linkmech, truthfulness, optimize, sim, cli):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        code, _ = run_cli(["audit", "--spec", CE_SPEC, "--truth", "A,A,B,C,C,C", "--report", "C,A,B,A,B,C"])
        assert code == 0
        assert calls["permutation_witness"] == 1
        assert calls["min_lie_count"] <= 1 and calls["lie_count"] <= 1

    @pytest.mark.parametrize(
        "truth, report, message",
        [
            ("A,,B", "A,B", "truth: empty label at position 2"),
            (",A,B", "A,B,C", "truth: empty label at position 1"),
            ("", "A", "truth: empty label at position 1"),
            ("A,B,C", "A,B,C,", "report: empty label at position 4"),
            ("A,B,C", "A, ,C", "report: empty label at position 2"),
        ],
    )
    def test_empty_label_rejected(self, truth, report, message, capsys):
        argv = ["audit", "--spec", CE_SPEC, "--truth", truth, "--report", report]
        assert_clean_failure(argv, capsys, message)

    @pytest.mark.parametrize(
        "truth, report, message",
        [
            ("A,Z,B,Y,Z", "A,B,C", "truth: unknown types ['Y', 'Z']"),
            ("A,B,C", "C, a ,B", "report: unknown types ['a']"),
            ("A,B,C", "A,B,C,D", "report: unknown types ['D']"),
        ],
    )
    def test_unknown_label_rejected(self, truth, report, message, capsys):
        argv = ["audit", "--spec", CE_SPEC, "--truth", truth, "--report", report]
        assert_clean_failure(argv, capsys, message)

    def test_parsed_vectors_match_validated_ones(self, counterexample_problem):
        problem = counterexample_problem
        rnd = random.Random(29)
        for K in list(range(1, 12)) + [rnd.randint(12, 600) for _ in range(40)]:
            labels = [rnd.choice("ABC"[:rnd.randint(1, 3)]) for _ in range(K)]
            v = cli._parse_vector(" , ".join(labels), problem, "truth")
            assert v.entries == tuple(labels) and v.types == ("A", "B", "C")
            assert_same_vector(v)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_code_fuzz(self, data):
        # empty and unknown labels, length mismatches, quota violations and
        # the unknown --K flag all end in exit 1 with one line, never a
        # traceback
        label = st.sampled_from(["A", "B", "C"] * 4 + ["", "Z", " B "])
        labels = data.draw(st.lists(label, max_size=6))
        truth = ",".join(labels)
        report = ",".join(data.draw(st.one_of(st.permutations(labels), st.lists(label, max_size=6))))
        K = data.draw(st.one_of(st.none(), st.just(len(labels)), st.integers(min_value=-1, max_value=7)))
        argv = ["audit", "--spec", CE_SPEC, "--truth", truth, "--report", report]
        if K is not None:
            argv += ["--K", str(K)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code == 0:
            assert err.getvalue() == ""
            assert set(json.loads(out.getvalue())) >= {"lies", "witness"}
        else:
            assert code == 1 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


FOUR_SPEC = {"decisions": ["x"], "types": ["A", "B", "C", "D"], "prior": ["2/5", "3/10", "1/5", "1/10"],
             "utility": {t: {"x": 1} for t in "ABCD"}}


def audit_pinned_pairs(rnd):
    """(K, kind, truth, report) on ``FOUR_SPEC``: at each K a minimal report,
    that report with a quarter of its slots shuffled, and a random
    quota-feasible report, all drawn from ``rnd``."""
    problem = validate_problem(FOUR_SPEC)
    for K in (256, 1024, 4096):
        u = PreferenceVector(tuple(rnd.choices("ABCD", weights=(4, 3, 2, 1), k=K)), problem.types)
        q = compute_quota(problem, K)
        minimal = list(sample_minimal_message(u, q, np.random.default_rng(rnd.getrandbits(32))).entries)
        shuffled = minimal[:]
        sub = rnd.sample(range(K), K // 4)
        moved = [shuffled[k] for k in sub]
        rnd.shuffle(moved)
        for k, t in zip(sub, moved):
            shuffled[k] = t
        random_report = list(random_quota_message(rnd, u, q).entries)
        for kind, report in (("minimal", minimal), ("shuffled", shuffled), ("random", random_report)):
            yield K, kind, ",".join(u.entries), ",".join(report)


class TestAuditBytes:
    # sha256 of ``audit`` stdout on the pairs of ``audit_pinned_pairs(Random(18))``.
    # A change to the witness construction or to the renderer changes these; update
    # them with a CHANGES.md line that says why.
    DIGESTS = {
        (256, "minimal"): "f1bed27bdf307a9edbd55b00b4471dd62f31b72c57269d94f4eae9736475f0ea",
        (256, "shuffled"): "32dd7cfe1d80ab770840aea88a9b6429e3a0750095423ec9e654a31cfe86f2cb",
        (256, "random"): "73ecc9abf7e4b75b19276ffcbea0708105fe78a36f09dc69537bc1b6339719df",
        (1024, "minimal"): "bbce96e15b613ff17feb83d429732a2050f6ca6db58fe8153427eeb86d603c95",
        (1024, "shuffled"): "50db0acfc64734fb90a4814a2cf05b0bd217b1ae72553ccddb409bfa013a9631",
        (1024, "random"): "64ea2ba989b6e43d346f76e73415d8beb4d598e9c8284d1388048ae5e8840eb9",
        (4096, "minimal"): "53ec8a03141677c65c92f10f05e15a959b0f33d1f33b284eb98613d46602f2f6",
        (4096, "shuffled"): "4b5c0212699e3f3b85b3565f4b306d35f564561da6ae04b7f67ffa09340b85ed",
        (4096, "random"): "79f9bd87180b236f12fae98cf373a652bbba0a6f208a7003ebbb5b55b8c73946",
    }

    def test_bytes_pinned(self, tmp_path):
        spec = tmp_path / "four_types.json"
        spec.write_text(json.dumps(FOUR_SPEC), encoding="utf-8")
        digests = {}
        for K, kind, truth, report in audit_pinned_pairs(random.Random(18)):
            code, out = run_cli(["audit", "--spec", str(spec), "--truth", truth, "--report", report])
            assert code == 0
            digests[K, kind] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == self.DIGESTS


def parse_both_ways(text, problem, field="report"):
    """``_parse_vector`` and the stripping parse on ``text``: each one's vector,
    or its ``ValidationError`` text."""
    code = {t: i for i, t in enumerate(sorted(problem.types))}
    results = []
    for parse in (lambda: cli._parse_vector(text, problem, field),
                  lambda: cli._parse_stripped(text.split(","), code, field)):
        try:
            v = parse()
        except ValidationError as exc:
            results.append(str(exc))
        else:
            assert_same_vector(v)
            results.append(v)
    return results


class TestLabelParse:
    """The C-level lookup of raw parts agrees with the stripping parse, vector or error."""

    @pytest.mark.parametrize("text", [
        "A,B,C", "A", " A,B", "A ,B", " C ", "A,,B", "", ",", "A,B,", "A, ,C", "A,Z,B,Y,Z", "a,B", "A B,C",
    ])
    def test_paths_agree(self, text, counterexample_problem):
        fast, stripped = parse_both_ways(text, counterexample_problem)
        assert fast == stripped

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["A", "B", "C"] * 3 + ["", " A", "B ", " C ", "\tA", "Z", "a", "A B"]), max_size=8))
    def test_paths_agree_fuzz(self, counterexample_problem, labels):
        fast, stripped = parse_both_ways(",".join(labels), counterexample_problem)
        assert fast == stripped

    def test_paths_agree_at_scale(self, counterexample_problem):
        problem = counterexample_problem
        rnd = random.Random(31)
        for K in (1, 2, 4096, 5000):
            labels = [rnd.choice("ABC") for _ in range(K)]
            fast, stripped = parse_both_ways(",".join(labels), problem)
            assert fast == stripped and fast.entries == tuple(labels)
            labels[rnd.randrange(K)] = "Q"
            assert parse_both_ways(",".join(labels), problem) == ["report: unknown types ['Q']"] * 2


def audit_json(a) -> dict:
    """The audit output object as ``json.dumps`` would be given it."""
    return {
        "approx_truthful": a.approx_truthful,
        "approx_truthful_star": a.approx_truthful_star,
        "permutation_truthful": a.permutation_truthful,
        "min_lies": a.min_lies,
        "lies": a.lies,
        "star_bound": a.star_bound,
        "witness": {"S": list(a.witness.slots), "pi": [list(p) for p in a.witness.pairs]},
    }


class TestAuditRendering:
    def test_empty_witness(self):
        ab = ("A", "B")
        a = audit(PreferenceVector(("A",), ab), Message(PreferenceVector(("B",), ab), Quota(ab, (0, 1))))
        assert a.witness.slots == ()
        assert '"S": [],' in _render_audit(a)
        assert _render_audit(a) == json.dumps(audit_json(a), indent=2)

    def test_matches_json_dumps(self):
        # independent and minimal reports, so S runs from empty to all of K,
        # and hand-built witnesses, one with images out of slot order
        hand = Audit(False, True, False, 2, 4, 4, PermutationWitness((2, 5, 7, 11), (3, 1, 0, 2)))
        for a in (hand, replace(hand, witness=PermutationWitness((), ()))):
            assert _render_audit(a) == json.dumps(audit_json(a), indent=2)
        rnd = random.Random(4096)
        for i in range(400):
            n = rnd.randint(1, 6)
            K = rnd.randint(1, 300)
            types = tuple(sorted({f"t{j}" for j in range(n)}))
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            if i % 2:
                m = random_quota_message(rnd, u, q)
            else:
                m = sample_minimal_message(u, q, np.random.default_rng(i))
            a = audit(u, m)
            assert _render_audit(a) == json.dumps(audit_json(a), indent=2)


    def test_matches_json_dumps_at_scale(self):
        rnd = random.Random(5000)
        for i in range(12):
            n = rnd.randint(1, 6)
            K = rnd.randint(1000, 5000)
            types = tuple(sorted({f"t{j}" for j in range(n)}))
            u = random_vector(rnd, types, K)
            q = random_quota(rnd, types, K)
            m = random_quota_message(rnd, u, q) if i % 2 else sample_minimal_message(u, q, np.random.default_rng(i))
            a = audit(u, m)
            assert _render_audit(a) == json.dumps(audit_json(a), indent=2)


class TestInternalFailures:
    """A failed ``internal:`` check ends in one ``error:`` line and exit code 2."""

    def test_audit_witness_check(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("internal: witness pairing does not map reports to truths")

        monkeypatch.setattr(truthfulness, "_check_witness", broken)
        argv = ["audit", "--spec", CE_SPEC, "--truth", "A,A,B", "--report", "A,B,C"]
        assert run_cli_captured(argv) == (2, "", "error: internal: witness pairing does not map reports to truths\n")

    def test_other_runtime_errors_propagate(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("not an internal check")

        monkeypatch.setattr(truthfulness, "_check_witness", broken)
        with pytest.raises(RuntimeError, match="^not an internal check$"):
            cli.main(["audit", "--spec", CE_SPEC, "--truth", "A,A,B", "--report", "A,B,C"])

    def test_simulate_builder_failure(self, monkeypatch):
        calls = []

        def canonical(u, q):
            calls.append(u)
            if len(calls) == 4:  # replication 3 of K 5
                raise RuntimeError("internal: builder broke")
            return truthfulness.canonical_minimal_message(u, q)

        monkeypatch.setattr(sim, "canonical_minimal_message", canonical)
        argv = ["simulate", "--spec", BIN_SPEC, "--K", "5,9", "--reps", "10", "--seed", "3"]
        expected = "error: internal: builder broke (canonical-min-lie, seed 3, K 5, replication 3)\n"
        assert run_cli_captured(argv) == (2, "", expected)


class TestBestResponseCommand:
    # sha256 of ``best-response`` stdout on the parity grid's seven best-response runs.
    CYCLE_TRUTH = "t1,t1,t2,t2,t2,t2,t2,t1,t2,t1"
    DIGESTS = {
        ("counterexample", "A,A,B", "transport"): "c005e347e78580fc3e662ebbd1d12de43acbb0797b92b3bca8555f7bc28dfb6d",
        ("counterexample", "A,A,B", "bruteforce"): "c1498351769824454667135afab498e27636bc7932dbc51df94651ab3096ad69",
        ("cycle", CYCLE_TRUTH, "transport"): "b1c67850c73c88da8aab780cca22d80455e949b9d9fa0145ebb6fdea6259780d",
        ("cycle", CYCLE_TRUTH, "bruteforce"): "44ba504cd7bd8a507f15d0d9d66f4c0f94154b60caf73814dae3f1e27a7559e8",
        ("counterexample", "C,C,A,B,A,C,B,B", "bruteforce"):
            "28b16d2c8d0c9141d8cffae72ffec3b85f38907eb176771659a083d96b2c2dff",
        ("counterexample", "B,B,B,B", "bruteforce"): "4d72cc1f2ca6cece9deea24993a03aa442b7cdd5a469d6b623746a74f68cdfdb",
        ("binary", "A,A,A,B,A,B", "bruteforce"): "a4a45963d6f04df105cfa556b7fe6ac28eba8e32769e39ce3400db87ee59699d",
    }

    def test_bytes_pinned(self):
        specs = {name: bundled_spec_path(name) for name in ("counterexample", "binary")}
        specs["cycle"] = str(Path(__file__).parent / "data" / "transport_cycle.json")
        digests = {}
        for name, truth, method in self.DIGESTS:
            argv = ["best-response", "--spec", specs[name], "--truth", truth, "--method", method]
            code, out, err = run_cli_captured(argv)
            assert code == 0 and err == ""
            digests[name, truth, method] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == self.DIGESTS

    def test_bruteforce_lists_tied_pair(self):
        code, out = run_cli_json(
            ["best-response", "--spec", CE_SPEC, "--truth", "A,A,B", "--method", "bruteforce"]
        )
        assert code == 0
        assert out["payoff"] == 4.5
        assert out["messages"] == [["A", "B", "C"], ["B", "A", "C"]]

    def test_bruteforce_output_is_indented_json(self, tmp_path):
        # labels that JSON escapes, and every message tied
        types = ['"q"', "\\", "\u00e9"]
        raw = {"decisions": ["x"], "types": types, "prior": ["1/3"] * 3, "utility": {t: {"x": 0.1} for t in types}}
        spec = tmp_path / "escaped.json"
        spec.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["best-response", "--spec", str(spec), "--truth", ",".join(types), "--method", "bruteforce"]
        code, out, err = run_cli_captured(argv)
        assert code == 0 and err == ""
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert len(json.loads(out)["messages"]) == 6

    def test_transport_returns_canonical_and_plan(self):
        code, out = run_cli_json(
            ["best-response", "--spec", CE_SPEC, "--truth", "A,A,B", "--method", "transport"]
        )
        assert code == 0
        assert out["message"] == ["A", "B", "C"]
        assert out["payoff"] == 4.5
        assert out["plan"]["flows"] == {"A": {"A": 1, "B": 1}, "B": {"C": 1}, "C": {}}

    def test_methods_agree_on_payoff(self, counterexample_problem):
        rnd = random.Random(3)
        problem = counterexample_problem
        for _ in range(20):
            u = random_vector(rnd, tuple(sorted(problem.types)), 3)
            truth = ",".join(u.entries)
            _, brute = run_cli_json(
                ["best-response", "--spec", CE_SPEC, "--truth", truth, "--method", "bruteforce"]
            )
            _, trans = run_cli_json(
                ["best-response", "--spec", CE_SPEC, "--truth", truth, "--method", "transport"]
            )
            assert brute["payoff"] == trans["payoff"]
            assert trans["message"] in brute["messages"]
        # Non-dyadic float utilities: the transport message is one of the exact
        # bruteforce ties, and both print the exact payoff rounded once, so the
        # payoff bytes agree even where the two messages' pair counts differ.
        cycle_spec = str(Path(__file__).parent / "data" / "transport_cycle.json")
        for _ in range(20):
            truth = ",".join(random_vector(rnd, ("t0", "t1", "t2", "t3"), 10).entries)
            outs = {}
            for method in ("bruteforce", "transport"):
                code, outs[method] = run_cli(
                    ["best-response", "--spec", cycle_spec, "--truth", truth, "--method", method]
                )
                assert code == 0
            brute, trans = json.loads(outs["bruteforce"]), json.loads(outs["transport"])
            assert trans["message"] in brute["messages"]
            payoff_lines = [next(line for line in out.splitlines() if '"payoff"' in line) for out in outs.values()]
            assert payoff_lines[0] == payoff_lines[1]

    def test_nan_utility_spec_rejected(self, tmp_path, capsys):
        with open(CE_SPEC, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["utility"]["B"]["c"] = float("nan")
        spec = tmp_path / "nan.json"
        spec.write_text(json.dumps(raw))  # json writes the bare NaN token
        assert "NaN" in spec.read_text()
        for argv in (
            ["best-response", "--spec", str(spec), "--truth", "A,A,B"],
            ["simulate", "--spec", str(spec), "--K", "3", "--reps", "2", "--strategy", "best-response"],
        ):
            assert_clean_failure(argv, capsys, "utility[B][c]: not finite")

    def test_payoff_beyond_float_range_rejected(self, tmp_path, capsys):
        # an int utility just under the 1000-digit bound, summed with a float pair
        with open(CE_SPEC, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["utility"]["A"]["a"] = 10**999
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps(raw), encoding="utf-8")
        for method in ("transport", "bruteforce"):
            assert_clean_failure(["best-response", "--spec", str(spec), "--truth", "A,A,B", "--method", method],
                                 capsys, "payoff: the exact sum is beyond the float range")

    def test_bruteforce_beyond_recursion_depth(self, tmp_path):
        # 1,200 messages, well under the cap, each 1,200 slots long
        with open(BIN_SPEC, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["prior"] = ["999/1000", "1/1000"]
        spec = tmp_path / "skewed.json"
        spec.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["best-response", "--spec", str(spec), "--truth", ",".join(["A"] * 1200)]
        payoffs = []
        for method in ("bruteforce", "transport"):
            code, out, err = run_cli_captured(argv + ["--method", method])
            assert code == 0 and err == ""
            payoffs.append(json.loads(out)["payoff"])
        assert payoffs == [1199, 1199]

    def test_cap_exceeded_exit_code(self):
        code = run_cli(
            ["best-response", "--spec", CE_SPEC, "--truth", "A,A,B", "--method", "bruteforce", "--cap", "2"]
        )[0]
        assert code == 3

    @pytest.mark.parametrize("K", [12_000, 200_000])
    def test_cap_on_a_long_truth_is_one_short_line(self, K):
        # the message count has over 4,300 digits at 12,000 slots; the cap test never computes it
        truth = ",".join(("A", "B", "C") * (K // 3))
        start = time.perf_counter()
        code, out, err = run_cli_captured(["best-response", "--spec", CE_SPEC, "--truth", truth,
                                           "--method", "bruteforce"])
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (3, "", "error: more than 1000000 quota messages\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_usage_error(self, cap, capsys):
        argv = ["best-response", "--spec", CE_SPEC, "--truth", "A,A,B", "--method", "bruteforce", "--cap", cap]
        assert_clean_failure(argv, capsys, f"--cap must be at least 1, got {cap}")

    def test_long_negative_cap_is_one_short_line(self, capsys):
        argv = ["best-response", "--spec", CE_SPEC, "--truth", "A,A,B", "--cap", "-" + "9" * 4000]
        assert_clean_failure(argv, capsys, "--cap must be at least 1, got a negative int of 13288 bits")

    def test_empty_label_rejected(self, capsys):
        assert_clean_failure(["best-response", "--spec", CE_SPEC, "--truth", "A,B,"], capsys,
                             "truth: empty label at position 3")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_code_fuzz(self, data):
        # empty and unknown labels, the unknown --K flag, every --cap and
        # both methods end in exit 0, 1 or 3 with at most one line, never a
        # traceback
        label = st.sampled_from(["A", "B", "C"] * 4 + ["", "Z", " B "])
        labels = data.draw(st.lists(label, max_size=6))
        argv = ["best-response", "--spec", CE_SPEC, "--truth", ",".join(labels)]
        argv += ["--method", data.draw(st.sampled_from(["transport", "bruteforce"]))]
        K = data.draw(st.one_of(st.none(), st.just(len(labels)), st.integers(min_value=-1, max_value=7)))
        if K is not None:
            argv += ["--K", str(K)]
        cap = data.draw(st.one_of(st.none(), st.integers(min_value=-2, max_value=800), st.just("x")))
        if cap is not None:
            argv += ["--cap", str(cap)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code == 0:
            assert err.getvalue() == ""
            assert "payoff" in json.loads(out.getvalue())
        else:
            assert code in (1, 3) and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestCounterexampleCommand:
    # sha256 of ``counterexample`` stdout on the parity grid's two runs.
    DIGESTS = {
        (): "e4c4d56127503e2f62ace06f3b1455142d6bdf540f4cf49b39bb0da99c68c727",
        ("--utility", "u_cB=0.5"): "bc7c19fe3209eac95a01b46956bf235a2d0a78c6f9f3f6480e837489b3fbe733",
    }

    def test_bytes_pinned(self):
        digests = {}
        for flags in self.DIGESTS:
            code, out = run_cli(["counterexample", *flags])
            assert code == 0
            digests[flags] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == self.DIGESTS

    def test_default_fixture_passes(self):
        code, out = run_cli_json(["counterexample"])
        assert code == 0
        assert out["passed"] is True
        assert out["deviation_strictly_preferred"] is True
        assert out["minimal_messages"] == [["A", "C", "B"], ["C", "A", "B"]]
        assert out["best_payoff"] == 4.5

    def test_lowered_utility_flags_no_incentive(self):
        code, out = run_cli_json(["counterexample", "--utility", "u_cB=0.5"])
        assert code == 0
        assert out["passed"] is True
        assert out["deviation_strictly_preferred"] is False
        assert any(c["name"] == "no_deviation_incentive" and c["passed"] for c in out["checks"])

    def test_huge_utility_judged_exactly(self):
        # every payoff prints as 1e+308, yet the exact gain
        # u(b|A) + u(c|B) - u(c|A) - u(b|B) is 0.5 > 0
        code, out = run_cli_json(["counterexample", "--utility", "u_aA=1e308"])
        assert code == 0
        assert out["passed"] is True and all(c["passed"] for c in out["checks"])
        assert out["deviation_strictly_preferred"] is True
        assert out["best_payoff"] == 1e308 and set(out["minimal_payoffs"].values()) == {1e308}

    def test_huge_utility_details_state_a_true_relation(self):
        # the rounded payoffs all read 1e+308, so "minimal < best" on them
        # would be false on its face; the details give the exact gaps instead
        code, out = run_cli_json(["counterexample", "--utility", "u_aA=1e308"])
        details = {c["name"]: c["details"] for c in out["checks"]}
        assert details["minimal_messages_strictly_worse"] == "best - minimal = {'A,C,B': 1/2, 'C,A,B': 1/2}"
        # where the rounded payoffs do order, the rounded relation stays, and it holds
        code, out = run_cli_json(["counterexample"])
        details = {c["name"]: c["details"] for c in out["checks"]}
        assert details["minimal_messages_strictly_worse"] == "{'A,C,B': Fraction(4, 1), 'C,A,B': Fraction(4, 1)} < 4.5"
        assert all(v < out["best_payoff"] for v in out["minimal_payoffs"].values())

    def test_non_finite_override_rejected(self, capsys):
        for value in ("nan", "inf", "-inf"):
            argv = ["counterexample", "--utility", f"u_aA={value}"]
            assert_clean_failure(argv, capsys, "utility[A][a]: not finite")

    def test_malformed_override(self):
        code = run_cli(["counterexample", "--utility", "u_zQ=1"])[0]
        assert code == 1
        code = run_cli(["counterexample", "--utility", "cB=0.5"])[0]
        assert code == 1
        code = run_cli(["counterexample", "--utility", "u_cB=high"])[0]
        assert code == 1


    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_fuzz(self, data):
        # malformed, unresolvable, non-finite, oversized and repeated
        # overrides end in exit 0, 1 or 2 with at most one line, never a
        # traceback; exit 0 and 2 print the report and mean pass and fail
        keys = st.sampled_from(["u_aA", "u_bA", "u_cB", "u_bC", "u_aC"] * 4 + ["u_zQ", "cB", "u_", "u_aAB", ""])
        values = st.one_of(
            st.sampled_from(["0", "0.5", "1.5", "2.5", "3", "-1"]),
            st.sampled_from(["nan", "inf", "-inf", "1e5000", "1e-5000", "1e-100000000", "", "x", "1_0", " 2 ",
                             "9" * 5000, "1e308", "-1e308"]),
            st.floats().map(repr),
        )
        sep = st.sampled_from(["="] * 8 + ["==", ""])
        overrides = data.draw(st.lists(st.tuples(keys, sep, values), max_size=3))
        argv = ["counterexample"]
        for key, sep, value in overrides:
            argv += ["--utility", key + sep + value]
        code, out, err = run_cli_captured(argv)
        event(f"exit {code}")
        assert "Traceback" not in err
        if code in (0, 2):
            assert err == "" and json.loads(out)["passed"] is (code == 0)
        else:
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


# Untrusted flag values once echoed whole in the error line (up to 10 kB).
LONG_VALUE_CALLS = {
    "utility-override": (["counterexample", "--utility", "u_aA=" + "x" * 5000], 1),
    "quota-K-not-int": (["quota", "--spec", BIN_SPEC, "--K", "7" * 5000], 1),
    "simulate-K-over-cap": (["simulate", "--spec", BIN_SPEC, "--K", "7" * 4000], 3),
    "simulate-K-not-int": (["simulate", "--spec", BIN_SPEC, "--K", "7" * 5000], 1),
    "audit-unknown-label": (["audit", "--spec", CE_SPEC, "--truth", "Z" * 3000, "--report", "A"], 1),
    "audit-unknown-flag": (["audit", "--spec", CE_SPEC, "--truth", "A", "--report", "A", "--K", "7" * 5000], 1),
}


@pytest.mark.parametrize("argv, expected", LONG_VALUE_CALLS.values(), ids=LONG_VALUE_CALLS.keys())
def test_long_values_cut_in_error_line(argv, expected):
    code, out, err = run_cli_captured(argv)
    assert code == expected and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


# Prior strings that once printed a traceback (a sum or a renormalized
# quota too long for ``str``) or ran for minutes (a 10**10**8 power of ten).
HUGE_PRIORS = ["1e5000", "1e-5000", "1e-100000000"]


class TestMalformedSpecs:
    @pytest.mark.parametrize("text", HUGE_PRIORS)
    def test_huge_prior_exponent(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        with open(BIN_SPEC, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["prior"] = [text, "1"]
        spec.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["quota", "--spec", str(spec), "--K", "3"]
        assert_clean_failure(argv, capsys, f"prior[A]: more than 1000 digits in '{text}'")

    @pytest.mark.parametrize("command", [
        ["quota", "--K", "3"],
        ["audit", "--truth", "a,b,c", "--report", "c,c,c"],
        ["best-response", "--truth", "c,c", "--method", "transport"],
        ["simulate", "--K", "3", "--reps", "2"],
    ])
    def test_type_label_with_comma(self, tmp_path, capsys, command):
        # --truth and --report split on commas, so such a type could never be named there
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"decisions": ["x"], "types": ["c", "a,b"], "prior": ["1/2", "1/2"],
                                    "utility": {"a,b": {"x": 1}, "c": {"x": 0}}}), encoding="utf-8")
        assert_clean_failure([command[0], "--spec", str(spec), *command[1:]], capsys,
                             "types: label 'a,b' contains a comma, which separates --truth/--report labels")

    @pytest.mark.parametrize("command", [
        ["quota", "--K", "3"],
        ["audit", "--truth", "A,B", "--report", "B,A"],
        ["best-response", "--truth", "B,B", "--method", "transport"],
        ["simulate", "--K", "3", "--reps", "2"],
    ])
    @pytest.mark.parametrize("label", ["A ", " A", "\tA"])
    def test_type_label_with_outer_whitespace(self, tmp_path, capsys, command, label):
        # --truth and --report strip their parts, so such a type could never be named there
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"decisions": ["x"], "types": [label, "B"], "prior": ["1/2", "1/2"],
                                    "utility": {label: {"x": 1}, "B": {"x": 0}}}), encoding="utf-8")
        assert_clean_failure([command[0], "--spec", str(spec), *command[1:]], capsys,
                             f"types: label {label!r} has outer whitespace, which --truth/--report strip")

    def test_prior_denominator_too_long_together(self, tmp_path, capsys):
        # each weight fits, but their sum has a 4995-digit denominator, too
        # long for ``str`` in the "sums to" message
        spec = tmp_path / "spec.json"
        types = ["A", "B", "C", "D", "E"]
        raw = {"decisions": ["x"], "types": types, "utility": {t: {"x": 0} for t in types},
               "prior": [f"1/{10**999 + k}" for k in (1, 3, 7, 9, 13)]}
        spec.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["quota", "--spec", str(spec), "--K", "3"]
        assert_clean_failure(argv, capsys, "prior: common denominator has more than 1000 digits")

    def test_deeply_nested_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        argv = ["quota", "--spec", str(spec), "--K", "3"]
        assert_clean_failure(argv, capsys, f"spec {spec} is nested too deeply")

    # One entry of a spec replaced by junk: cases that once escaped, values
    # just inside and outside the digit bound, and wrong JSON types.
    JUNK = [*HUGE_PRIORS, "1e-999", "1e999", "1e1000", "NaN", "inf", "1/0", "", "x", "-1/2", " 1/3 ", "9" * 2000,
            0.5, 1e-300, float("nan"), float("inf"), True, None, [], {}, [[["x"]]], 10**999, -(10**1200), 10**4299]
    # Whole files that are no spec at all.
    BROKEN = [b"", b"[]", b"3", b'"spec"', b"null", b'{"decisions": [', b'{"types": ["\xe9"]}',
              b"[" * 200_000 + b"]" * 200_000]

    def mutate(self, data, raw):
        """Break 0-2 parts of a valid spec; return the file bytes and whether any broke."""
        kinds = data.draw(st.lists(st.sampled_from(["prior", "prior_list", "utility", "labels", "drop", "file"]),
                                   max_size=2))
        junk = st.sampled_from(self.JUNK)
        types, decisions, prior, utility = raw["types"], raw["decisions"], raw["prior"], raw["utility"]
        n = len(types)
        for kind in kinds:
            if kind == "prior":
                raw["prior"] = list(prior)
                raw["prior"][data.draw(st.integers(0, n - 1))] = data.draw(junk)
            elif kind == "prior_list":
                raw["prior"] = data.draw(st.sampled_from([
                    "1/2", {"A": "1"}, [], ["1"] * (n + 1), ["1e-999", "1"] + ["0"] * (n - 2),
                    [f"1/{10**600 + 1}", f"1/{10**600 - 1}"] + ["0"] * (n - 2),
                    [f"{10**600 - 1}/{10**600}", f"1/{10**600}"] + ["0"] * (n - 2),
                ]))
            elif kind == "utility":
                raw["utility"] = {t: dict(row) for t, row in utility.items()}
                t = data.draw(st.sampled_from(types))
                if data.draw(st.booleans()):
                    raw["utility"][t][data.draw(st.sampled_from(decisions))] = data.draw(junk)
                else:
                    raw["utility"][t] = data.draw(junk)
            elif kind == "labels":
                field = data.draw(st.sampled_from(["types", "decisions"]))
                labels = raw[field] = list(types if field == "types" else decisions)
                raw[field] = data.draw(st.sampled_from([
                    [*labels, labels[0]], [*labels, ""], [*labels, 7], [*labels, ["x"]], "ab", [],
                    ["x" * 5000] * 2, [*labels, "x" * 5000],
                ]))
            elif kind == "drop":
                raw.pop(data.draw(st.sampled_from(["decisions", "types", "prior", "utility"])), None)
            else:
                return data.draw(st.sampled_from(self.BROKEN)), True
        return json.dumps(raw).encode(), bool(kinds)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_code_fuzz(self, data):
        # a broken spec file ends every spec-reading command in exit 1 (or 3)
        # with one line, never a traceback or a hang; an intact one succeeds,
        # and the runs that succeed stay at K <= 64
        base = data.draw(st.sampled_from([CE_SPEC, BIN_SPEC]))
        with open(base, encoding="utf-8") as fh:
            raw = json.load(fh)
        report = "A,B,C" if base == CE_SPEC else "A,B,A"
        content, broken = self.mutate(data, raw)
        command = data.draw(st.sampled_from([
            ["quota", "--K", "3"],
            ["audit", "--truth", "A,A,B", "--report", report],
            ["best-response", "--truth", "A,A,B", "--method", "transport"],
            ["best-response", "--truth", "A,A,B", "--method", "bruteforce"],
            ["simulate", "--K", "3,16,64", "--reps", "2", "--strategy", "best-response"],
            ["simulate", "--K", "5,64", "--reps", "2", "--strategy", "uniform-min-lie"],
        ]))
        with tempfile.TemporaryDirectory() as tmp:
            spec = os.path.join(tmp, "spec.json")
            with open(spec, "wb") as fh:
                fh.write(content)
            code, out, err = run_cli_captured([command[0], "--spec", spec, *command[1:]])
        event(f"exit {code}")
        assert "Traceback" not in err
        assert code == 0 or broken
        if code == 0:
            assert err == "" and out
        else:
            assert code in (1, 3) and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


class TestSimulateCommand:
    ARGS = [
        "simulate",
        "--spec",
        BIN_SPEC,
        "--K",
        "2,4,8",
        "--reps",
        "300",
        "--seed",
        "99",
    ]

    def test_csv_schema_and_determinism(self):
        code1, out1 = run_cli(self.ARGS)
        code2, out2 = run_cli(self.ARGS)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()
        header = out1.splitlines()[0]
        assert header == (
            "K,strategy,reps,lie_fraction,lie_fraction_se,max_slot_lie_prob,"
            "mean_tv_to_quota,star_bound,efficiency_gap,seed"
        )
        assert len(out1.splitlines()) == 4

    def test_json_format(self):
        code, out = run_cli_json(self.ARGS + ["--format", "json"])
        assert code == 0
        assert [row["K"] for row in out["stats"]] == [2, 4, 8]

    def test_single_rep_empty_se(self):
        code, out = run_cli(["simulate", "--spec", BIN_SPEC, "--K", "4", "--reps", "1", "--seed", "1"])
        assert code == 0
        assert ",," in out.splitlines()[1]

    def test_env_seed_default(self, monkeypatch):
        monkeypatch.setenv("LINKED_SEED", "99")
        _, via_env = run_cli(["simulate", "--spec", BIN_SPEC, "--K", "2,4,8", "--reps", "300"])
        _, via_flag = run_cli(self.ARGS)
        assert via_env == via_flag

    def test_env_seed_must_be_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("LINKED_SEED", "abc")
        argv = ["simulate", "--spec", BIN_SPEC, "--K", "2", "--reps", "5"]
        assert_clean_failure(argv, capsys, "LINKED_SEED must be an integer, got 'abc'")

    @pytest.mark.parametrize("env", ["x" * 5000, "9" * 5000], ids=["letters", "nines"])
    def test_long_env_seed_is_cut(self, monkeypatch, capsys, env):
        # 5,000 nines are past the digits int() will read
        monkeypatch.setenv("LINKED_SEED", env)
        argv = ["simulate", "--spec", BIN_SPEC, "--K", "2", "--reps", "5"]
        assert_clean_failure(argv, capsys, f"LINKED_SEED must be an integer, got '{env[:36]}...")

    def test_k_above_cap_exits_3(self, capsys):
        capsys.readouterr()
        code = run_cli(["simulate", "--spec", BIN_SPEC, "--K", "1000000000000000", "--reps", "2"])[0]
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_reps_above_cap_exits_3(self, capsys):
        capsys.readouterr()
        code = run_cli(["simulate", "--spec", BIN_SPEC, "--K", "4", "--reps", "99999999999999999999"])[0]
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: replications=99999999999999999999 exceeds the simulation cap {sim.MAX_REPS}\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_fuzz(self, data):
        # empty, zero, negative, non-increasing, junk and over-cap K lists,
        # junk and over-cap reps, junk strategies and seeds, and junk
        # LINKED_SEED values end in exit 0, 1 or 3 with at most one line,
        # never a traceback.  Each
        # example breaks at most two inputs, and one that breaks none must
        # succeed; the runs that succeed stay at K <= 64 and reps <= 5.
        junk = set(data.draw(st.lists(st.sampled_from(["K", "reps", "strategy", "seed", "env"]), max_size=2)))
        k_values = sorted(set(data.draw(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=4))))
        if "K" in junk:
            k_values = data.draw(st.sampled_from([
                [], [0, *k_values], [-k_values[0]], [*k_values, k_values[-1]], k_values[::-1] + [0],
                [*k_values, "x"], ["", *k_values], [*k_values, sim.MAX_K + 1], [*k_values, 10**15],
            ]))
        reps = data.draw(st.sampled_from(["0", "x", "-1", "", "1000000001", "99999999999999999999"] if "reps" in junk
                                         else ["1", "2", "5"]))
        argv = ["simulate", "--spec", data.draw(st.sampled_from([CE_SPEC, BIN_SPEC])),
                "--K", ",".join(map(str, k_values)), "--reps", reps,
                "--format", data.draw(st.sampled_from(["csv", "json"]))]
        strategy = data.draw(st.sampled_from(
            ["bogus", STRATEGY_NAMES[-1]] if "strategy" in junk else [None, *STRATEGY_NAMES[:3]]))
        if strategy is not None:
            argv += ["--strategy", strategy]
        seeds = st.integers(min_value=-(2**70), max_value=2**70).map(str)
        seed = data.draw(st.sampled_from(["x", "1.5"]) if "seed" in junk else st.one_of(st.none(), seeds))
        if seed is not None:
            argv += ["--seed", seed]
        env = data.draw(st.sampled_from(["", "abc", "1e3", "0x10", "9" * 5000]) if "env" in junk
                        else st.one_of(st.none(), seeds, st.just(" 7 ")))
        with mock.patch.dict(os.environ):
            os.environ.pop("LINKED_SEED", None)
            if env is not None:
                os.environ["LINKED_SEED"] = env
            code, out, err = run_cli_captured(argv)
        event(f"exit {code}")
        assert code == 0 or junk
        if code == 0:
            assert err == "" and k_values[-1] <= 64
            if "json" in argv:
                assert [row["K"] for row in json.loads(out)["stats"]] == k_values
            else:
                assert out.splitlines()[0].startswith("K,strategy") and len(out.splitlines()) == len(k_values) + 1
        else:
            assert code in (1, 3) and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_k_list(self):
        code = run_cli(["simulate", "--spec", BIN_SPEC, "--K", "4,oops", "--reps", "10"])[0]
        assert code == 1

    def test_output_file(self, tmp_path):
        target = tmp_path / "stats.csv"
        code, out = run_cli(self.ARGS + ["--output", str(target)])
        assert code == 0 and out == ""
        assert target.read_text().startswith("K,strategy")

    def test_closed_stdout_exits_quietly(self):
        # about 250 KB of JSON, well past a pipe buffer, so writing must hit
        # the closed pipe after the reader leaves
        k_values = ",".join(str(k) for k in range(1, 601))
        env = dict(os.environ)
        src = str(Path(linkmech.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "linkmech", "simulate", "--spec", BIN_SPEC,
                "--K", k_values, "--reps", "1", "--format", "json"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert err == b""


class TestParser:
    def test_unknown_subcommand(self, capsys):
        capsys.readouterr()
        assert run_cli(["frobnicate"])[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["quota", "--spec", CE_SPEC],
            ["quota", "--spec", CE_SPEC, "--K", "x"],
            ["quota", "--spec", CE_SPEC, "--K", "2", "--format", "json"],
            ["simulate", "--spec", BIN_SPEC, "--K", "4", "--format", "xml"],
            ["simulate", "--spec", BIN_SPEC, "--K", "4", "--reps", "many"],
            ["audit", "--spec", CE_SPEC, "--truth", "A,B"],
            ["best-response", "--spec", CE_SPEC, "--truth", "A", "--method", "guess"],
        ],
    )
    def test_usage_error_exits_1_with_one_line(self, argv, capsys):
        capsys.readouterr()
        assert run_cli(argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["-h"], ["simulate", "--help"]])
    def test_help_exits_0(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 0

    def test_reused_parser_matches_fresh_runs(self):
        # the counterexample calls check that one run's --utility list does
        # not leak into the next, and the usage error that a failed parse
        # leaves nothing behind for the good call after it
        runs = [
            ["quota", "--spec", CE_SPEC, "--K", "5"],
            ["counterexample", "--utility", "u_cB=0.5"],
            ["counterexample", "--utility", "u_aA=1.5", "--utility", "u_bB=2.5"],
            ["counterexample"],
            ["audit", "--spec", CE_SPEC, "--truth", "A,A,B", "--report", "A,B,C"],
            ["simulate", "--spec", BIN_SPEC, "--K", "4", "--format", "xml"],
            ["simulate", "--spec", BIN_SPEC, "--K", "2,4", "--reps", "20", "--seed", "3"],
            ["best-response", "--spec", CE_SPEC, "--truth", "A,A,B", "--method", "guess"],
            ["best-response", "--spec", CE_SPEC, "--truth", "A,A,B", "--method", "bruteforce"],
            ["quota", "--spec", CE_SPEC, "--K", "5"],
        ]

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        cli.build_parser.cache_clear()
        reused = [run(argv) for argv in runs]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in runs:
            cli.build_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 1, 0, 1, 0, 0]
        assert reused[1][1] != reused[3][1] != reused[2][1]

    def test_version_of_outputs_are_json(self):
        code, out = run_cli(["quota", "--spec", CE_SPEC, "--K", "2"])
        assert code == 0
        json.loads(out)
