"""Set-up probe, run in a fresh interpreter by the harness.

Times importing linkmech, loading and validating the spec, and the
workload's first CLI call.  Usage:

    python3 bench/probe.py SRC_DIR SPEC_PATH FIRST_CALL_JSON

Prints one JSON line: {"setup_s", "exit", "output"}.
"""

import sys
import time

t0 = time.perf_counter()
src, spec_path, call_path = sys.argv[1:4]
sys.path.insert(0, src)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from linkmech import cli  # noqa: E402
from linkmech.core import validate_problem  # noqa: E402

with open(spec_path, encoding="utf-8") as fh:
    validate_problem(json.load(fh))
with open(call_path, encoding="utf-8") as fh:
    argv = json.load(fh)
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main(argv)
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "exit": code, "output": buf.getvalue()}))
