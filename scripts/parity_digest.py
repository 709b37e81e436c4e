#!/usr/bin/env python3
"""One sha256 over the output bytes of a fixed grid of CLI runs.

Run it on two checkouts; equal digests mean a change kept every byte of
these runs (exit code, stdout and stderr):

- ``simulate`` on both bundled specs x the three built-in strategies x CSV
  and JSON x K grids ``2,8,32,256`` and ``3,16,64`` x seeds 1 and 4242,
  300 replications each (48 runs);
- ``best-response`` with both methods on the README example (the bundled
  counterexample spec, truth ``A,A,B``) and on ``tests/data/transport_cycle.json``.

The package is imported from this checkout's ``src/``, not from wherever
``linkmech`` happens to be installed.

    python3 scripts/parity_digest.py
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from linkmech import cli  # noqa: E402


def runs() -> list[list[str]]:
    specs = [cli.bundled_spec_path(name) for name in cli.BUNDLED_SPECS]
    grid = product(specs, cli.STRATEGY_NAMES[:3], ("csv", "json"), ("2,8,32,256", "3,16,64"), ("1", "4242"))
    out = [
        ["simulate", "--spec", spec, "--strategy", strategy, "--format", fmt, "--K", ks,
         "--reps", "300", "--seed", seed]
        for spec, strategy, fmt, ks, seed in grid
    ]
    examples = [
        (cli.bundled_spec_path("counterexample"), "A,A,B"),
        (str(ROOT / "tests" / "data" / "transport_cycle.json"), "t1,t1,t2,t2,t2,t2,t2,t1,t2,t1"),
    ]
    for (spec, truth), method in product(examples, ("transport", "bruteforce")):
        out.append(["best-response", "--spec", spec, "--truth", truth, "--method", method])
    return out


def main() -> int:
    digest = hashlib.sha256()
    argvs = runs()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        # Spec paths differ between checkouts; hash only what the run printed.
        for part in (str(code), out.getvalue(), err.getvalue()):
            data = part.encode()
            digest.update(len(data).to_bytes(8, "big") + data)
    print(f"{digest.hexdigest()}  {len(argvs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
