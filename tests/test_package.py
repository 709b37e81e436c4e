"""The package namespace, what each command loads at start-up, and the unread-import check.

``linkmech``'s namespace is lazy: each exported name imports its home module
on first use.  These tests pin that the lazy namespace is the eager one it
replaced, that a one-shot ``audit`` loads neither the optimizer nor the
simulator (nor ``numpy.random``), and that ``scripts/check_imports.py`` sees
the per-command imports inside functions.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import linkmech
from linkmech.cli import bundled_spec_path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHECK_IMPORTS = ROOT / "scripts" / "check_imports.py"

# The 37 names the package exported when it imported every submodule
# eagerly, by home module.
EXPORTS = {
    "core": (
        "EnumerationCapError", "Marginal", "Message", "PreferenceVector", "Problem", "Quota",
        "STRATEGY_NAMES", "ValidationError", "marginal", "tv_distance", "validate_problem",
    ),
    "truthfulness": (
        "Audit", "PermutationWitness", "audit", "canonical_minimal_message", "compute_quota",
        "count_minimal_lie_messages", "is_permutation_truthful", "lie_count", "min_lie_count",
        "minimal_lie_messages", "permutation_witness", "sample_minimal_message",
    ),
    "optimize": (
        "CounterexampleReport", "SocialChoiceFunction", "TransportPlan", "TransportResult",
        "best_response_bruteforce", "best_response_transport", "message_count", "payoff",
        "verify_counterexample",
    ),
    "sim": ("SimConfig", "SimStats", "run_convergence", "sample_type_vector", "stats_to_csv"),
}
NAMES = [name for names in EXPORTS.values() for name in names]


class TestLazyNamespace:
    def test_all_is_the_old_export_list(self):
        assert len(NAMES) == 37
        assert sorted(linkmech.__all__) == sorted(NAMES)
        assert linkmech.__version__ == "0.1.0"

    @pytest.mark.parametrize("home, name", [(home, name) for home, names in EXPORTS.items() for name in names])
    def test_each_name_is_its_home_modules_object(self, home, name):
        assert getattr(linkmech, name) is getattr(importlib.import_module(f"linkmech.{home}"), name)

    def test_moved_constants_are_shared_by_the_simulator(self):
        from linkmech import core, sim

        assert sim.STRATEGY_NAMES is core.STRATEGY_NAMES and sim.MAX_K is core.MAX_K

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from linkmech import *", namespace)
        assert {name: namespace[name] for name in NAMES} == {name: getattr(linkmech, name) for name in NAMES}

    def test_dir_lists_every_name(self):
        assert set(NAMES) <= set(dir(linkmech))

    def test_unknown_name_raises_the_standard_error(self):
        with pytest.raises(AttributeError, match=r"^module 'linkmech' has no attribute 'no_such_name'$"):
            linkmech.no_such_name
        assert getattr(linkmech, "no_such_name", None) is None


def loaded_after(code: str) -> set[str]:
    """The ``linkmech`` and ``numpy.random`` modules a fresh interpreter holds after running ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    mods = json.loads(proc.stdout.splitlines()[-1])
    return {m for m in mods if m.split(".")[0] == "linkmech" or m.startswith("numpy.random")}


class TestStartup:
    AUDIT = ["audit", "--spec", bundled_spec_path("counterexample"), "--truth", "A,A,B", "--report", "A,C,B"]

    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import linkmech") == {"linkmech"}

    def test_submodule_attribute_loads_that_submodule(self):
        loaded = loaded_after("import linkmech\nassert linkmech.optimize.__name__ == 'linkmech.optimize'")
        assert loaded == {"linkmech", "linkmech.core", "linkmech.truthfulness", "linkmech.optimize"}

    def test_cli_import_loads_no_optimizer_or_simulator(self):
        assert loaded_after("import linkmech.cli") == {"linkmech", "linkmech.cli", "linkmech.core", "linkmech.truthfulness"}

    def test_audit_loads_no_optimizer_or_simulator(self):
        loaded = loaded_after(f"from linkmech import cli\nassert cli.main({self.AUDIT!r}) == 0")
        assert loaded == {"linkmech", "linkmech.cli", "linkmech.core", "linkmech.truthfulness"}

    def test_simulate_loads_the_simulator(self):
        argv = ["simulate", "--spec", bundled_spec_path("binary"), "--K", "4", "--reps", "2"]
        loaded = loaded_after(f"from linkmech import cli\nassert cli.main({argv!r}) == 0")
        assert {"linkmech.sim", "linkmech.optimize", "numpy.random"} <= loaded


def load_check_imports():
    spec = importlib.util.spec_from_file_location("check_imports", CHECK_IMPORTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckImports:
    def test_reports_an_unread_import_inside_a_function(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent("""\
            import json
            from os import path


            def used():
                from fractions import Fraction

                return Fraction(1, 2), json


            def unused():
                from itertools import chain

                return path


            def elsewhere():
                return chain
        """))
        assert load_check_imports().unread_imports(path) == [(12, "chain")]

    def test_package_sources_pass(self):
        proc = subprocess.run([sys.executable, str(CHECK_IMPORTS)], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "")
