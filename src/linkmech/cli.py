"""Command-line front end: problem ingestion and one subcommand per capability.

Problem specs are JSON objects with ``decisions``, ``types``, ``prior``
(rationals as strings, aligned with ``types``) and ``utility`` (type ->
decision -> number).  Two specs ship with the package: ``counterexample.json``
(three single-peaked types, uniform prior) and ``binary.json``.

Exit codes: 0 success, 1 usage or validation error or unwritable output,
2 regression/assertion failure (a failed ``internal:`` check included),
3 resource cap exceeded.  A reader that closes stdout early (``linkmech
simulate ... | head -1``) ends the run quietly with exit code 1, since the
output it got is incomplete.

``optimize`` and ``sim`` are imported by the commands that run them, so a
one-shot ``quota`` or ``audit`` loads neither.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from importlib.resources import files
from typing import Optional, Sequence

import numpy as np

from .core import (
    MAX_K,
    STRATEGY_NAMES,
    EnumerationCapError,
    Message,
    PreferenceVector,
    Problem,
    ValidationError,
    _brief,
    _cut,
    _quota_tv,
    validate_problem,
)
from .truthfulness import Audit, _report_entries, audit, compute_quota

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_REGRESSION = 2
EXIT_CAP = 3

BUNDLED_SPECS = ("counterexample", "binary")


def bundled_spec_path(name: str) -> str:
    """Filesystem path of a bundled problem spec ("counterexample" or "binary")."""
    if name not in BUNDLED_SPECS:
        raise ValidationError(f"unknown bundled spec {name!r}; choose from {BUNDLED_SPECS}")
    return str(files("linkmech").joinpath(f"data/{name}.json"))


def _load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read spec {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, oversized integer literals
        raise ValidationError(f"spec {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"spec {path} is nested too deeply") from None
    return validate_problem(raw)


def _parse_vector(text: str, problem: Problem, field: str) -> PreferenceVector:
    """Look the raw parts up in one C-level pass (no type label has outer
    whitespace); a padded, empty or unknown part goes to ``_parse_stripped``."""
    code = {t: i for i, t in enumerate(sorted(problem.types))}
    parts = text.split(",")
    try:
        codes = np.fromiter(map(code.__getitem__, parts), np.intp, len(parts))
    except KeyError:  # a padded, empty or unknown part
        return _parse_stripped(parts, code, field)
    return PreferenceVector._from_codes(tuple(parts), tuple(code), codes)


def _parse_stripped(parts: list[str], code: dict[str, int], field: str) -> PreferenceVector:
    """The stripped ``parts`` as a vector over the sorted types in ``code``; names a bad label."""
    labels = tuple(map(str.strip, parts))
    if "" in labels:
        raise ValidationError(f"{field}: empty label at position {labels.index('') + 1}")
    codes = [code.get(t, -1) for t in labels]
    if -1 in codes:
        raise ValidationError(f"{field}: unknown types {_cut(str(sorted(set(labels) - set(code))))}")
    return PreferenceVector._from_codes(labels, tuple(code), codes)


def _emit(text: str, output: Optional[str]) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe must fail here, inside main
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {output}: {exc}") from exc


def _emit_json(obj, output: Optional[str]) -> None:
    _emit(json.dumps(obj, indent=2), output)


def _block(items: list[str], pad: str) -> str:
    """A list of encoded items laid out as ``json.dumps(indent=2)`` does at ``pad``."""
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]" if items else "[]"


def _render_audit(a: Audit) -> str:
    """``json.dumps`` of the audit output with ``indent=2``, byte for byte.

    ``indent`` forces the pure-Python encoder, which at large K takes longer
    than the audit itself; the shape is fixed, so it is written out here.
    Each slot becomes a decimal string once, by ``format``'s C fast path; pi
    picks its images from those by the witness's ``ranks``, in a stride-4 interleave.
    """
    head = "".join(f'  "{f.name}": {json.dumps(getattr(a, f.name))},\n' for f in fields(a)[:-1])
    digits = list(map(format, a.witness.slots))
    cells = [None, ",\n        ", None, "\n      ],\n      [\n        "] * len(digits)
    cells[0::4], cells[2::4] = digits, map(digits.__getitem__, a.witness.ranks)
    pi = "[\n      [\n        " + "".join(cells[:-1]) + "\n      ]\n    ]" if digits else "[]"
    return f'{{\n{head}  "witness": {{\n    "S": {_block(digits, "    ")},\n    "pi": {pi}\n  }}\n}}'


def _jsonable_number(x):
    """Exact payoffs may be Fractions; render integers as ints, else floats."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else float(x)
    return x


def cmd_quota(args) -> int:
    problem = _load_problem(args.spec)
    if args.K > MAX_K:
        raise EnumerationCapError(f"K={_brief(args.K)} exceeds the cap {MAX_K}")
    quota = compute_quota(problem, args.K)
    _emit_json(
        {
            "K": args.K,
            "counts": quota.as_dict(),
            "distribution": {t: str(Fraction(c, args.K)) for t, c in zip(quota.types, quota.counts)},
            "tv_to_prior": str(_quota_tv(quota, *problem._int_prior()[1:])),
        },
        args.output,
    )
    return EXIT_OK


def cmd_audit(args) -> int:
    problem = _load_problem(args.spec)
    truth = _parse_vector(args.truth, problem, "truth")
    report = _parse_vector(args.report, problem, "report")
    _report_entries(truth, report)
    quota = compute_quota(problem, truth.K)
    message = Message(report, quota)  # names over/under-represented types on failure
    _emit(_render_audit(audit(truth, message)), args.output)
    return EXIT_OK


def cmd_best_response(args) -> int:
    from .optimize import SocialChoiceFunction, best_response_bruteforce, best_response_transport, payoff

    if args.cap < 1:
        raise ValidationError(f"--cap must be at least 1, got {_brief(args.cap)}")
    problem = _load_problem(args.spec)
    truth = _parse_vector(args.truth, problem, "truth")
    quota = compute_quota(problem, truth.K)
    f = SocialChoiceFunction.utility_argmax(problem)
    if args.method == "bruteforce":
        best = best_response_bruteforce(truth, f, problem, quota, cap=args.cap)
        pay = json.dumps(_jsonable_number(payoff(truth, best[0], f, problem)))
        # json.dumps(indent=2) byte for byte, without its slow pure-Python encoder
        label = {t: json.dumps(t) for t in quota.types}
        rows = _block([_block([label[t] for t in m.entries], "    ") for m in best], "  ")
        _emit(f'{{\n  "method": "bruteforce",\n  "payoff": {pay},\n  "messages": {rows}\n}}', args.output)
        return EXIT_OK
    result = best_response_transport(truth, f, problem, quota)
    out = {
        "method": "transport",
        "payoff": _jsonable_number(payoff(truth, result.message, f, problem)),
        "message": list(result.message.entries),
        "plan": result.plan.to_json_dict(),
    }
    _emit_json(out, args.output)
    return EXIT_OK


def _apply_utility_overrides(raw: dict, overrides: Sequence[str]) -> dict:
    """Apply ``u_<decision><type>=<value>`` overrides to a raw spec dict."""
    decisions = set(raw["decisions"])
    types = set(raw["types"])
    for text in overrides:
        if "=" not in text or not text.startswith("u_"):
            raise ValidationError(f"malformed utility override {_brief(text)}, expected u_<decision><type>=<number>")
        key, _, value = text.partition("=")
        suffix = key[2:]
        matches = [
            (suffix[:i], suffix[i:])
            for i in range(1, len(suffix))
            if suffix[:i] in decisions and suffix[i:] in types
        ]
        if len(matches) != 1:
            raise ValidationError(f"cannot resolve override {_brief(key)} to a (decision, type) pair")
        decision, typ = matches[0]
        try:
            number = float(value)
        except ValueError as exc:
            raise ValidationError(f"override {_brief(text)}: {_brief(value)} is not a number") from exc
        raw["utility"][typ][decision] = number
    return raw


def cmd_counterexample(args) -> int:
    from .optimize import verify_counterexample

    with open(bundled_spec_path("counterexample"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if args.utility:
        raw = _apply_utility_overrides(raw, args.utility)
    problem = validate_problem(raw)
    report = verify_counterexample(problem)
    _emit_json(report.to_json_dict(), args.output)
    return EXIT_OK if report.passed else EXIT_REGRESSION


def cmd_simulate(args) -> int:
    from .sim import SimConfig, run_convergence, stats_to_csv

    problem = _load_problem(args.spec)
    try:
        k_values = tuple(int(x) for x in args.K.split(","))
    except ValueError as exc:
        raise ValidationError(f"--K must be a comma-separated list of integers: {_brief(args.K)}") from exc
    seed = args.seed
    if seed is None:
        env = os.environ.get("LINKED_SEED")
        try:
            seed = int(env) if env is not None else 0
        except ValueError:
            raise ValidationError(f"LINKED_SEED must be an integer, got {_brief(env)}") from None
    cfg = SimConfig(
        problem=problem,
        k_values=k_values,
        replications=args.reps,
        seed=seed,
        strategy=args.strategy,
    )
    stats = run_convergence(cfg)
    if args.format == "json":
        _emit_json({"stats": [s.to_json_dict() for s in stats]}, args.output)
    else:
        _emit(stats_to_csv(stats), args.output)
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ``ValidationError``: exit code 1, one line,
    with each quoted value and long word cut as ``_cut`` cuts untrusted input."""

    def error(self, message: str):
        raise ValidationError(re.sub(r"'[^']*'|\S{41,}", lambda m: _cut(m[0]), message))


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="linkmech",
        description="Quota-linked reporting: quotas, truthfulness audits, best responses, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec_required=True):
        if spec_required:
            p.add_argument("--spec", required=True, help="path to a problem-spec JSON file")
        p.add_argument("--output", default="-", help="output path, or - for stdout")

    p_quota = sub.add_parser("quota", help="rounded report budget for K linked copies")
    add_common(p_quota)
    p_quota.add_argument("--K", type=int, required=True)
    p_quota.set_defaults(fn=cmd_quota)

    p_audit = sub.add_parser("audit", help="judge a report against every truthfulness standard")
    add_common(p_audit)
    p_audit.add_argument("--truth", required=True, help="comma-separated type labels")
    p_audit.add_argument("--report", required=True, help="comma-separated type labels")
    p_audit.set_defaults(fn=cmd_audit)

    p_best = sub.add_parser("best-response", help="payoff-maximizing message(s) for a truth vector")
    add_common(p_best)
    p_best.add_argument("--truth", required=True, help="comma-separated type labels")
    p_best.add_argument("--method", choices=("bruteforce", "transport"), default="transport")
    p_best.add_argument("--cap", type=int, default=10**6)
    p_best.set_defaults(fn=cmd_best_response)

    p_ce = sub.add_parser("counterexample", help="run the bundled deviation-incentive regression")
    add_common(p_ce, spec_required=False)
    p_ce.add_argument(
        "--utility",
        action="append",
        default=[],
        metavar="u_<decision><type>=<number>",
        help="override one utility entry of the bundled spec (repeatable)",
    )
    p_ce.set_defaults(fn=cmd_counterexample)

    p_sim = sub.add_parser("simulate", help="seeded convergence experiment over a K grid")
    add_common(p_sim)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--K", required=True, help="comma-separated K values, strictly increasing")
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=None, help="defaults to $LINKED_SEED or 0")
    p_sim.add_argument("--strategy", choices=STRATEGY_NAMES[:3], default="canonical-min-lie")
    p_sim.set_defaults(fn=cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:  # a failed internal check is a regression, reported in one line
        if not str(exc).startswith("internal:"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGRESSION
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
