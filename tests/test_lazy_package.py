"""The package is lazy: a process runs only the modules it uses, and the
package exports the same names as when it imported every module. Each run
is a fresh interpreter, since this one has run every module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeprop

SOURCE = Path(treeprop.__file__).parent
ENV = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}

# what the package exports, by the module that defines it
EXPORTS = {
    "antichains": ["AntichainCatalog", "alpha", "count_antichains", "enumerate_antichains",
                   "find_iso_copy", "maximal_antichains", "universal_prefix"],
    "errors": ["FormulaError", "ResourceCapError", "TreepropError", "WitnessError"],
    "formulas": ["FiniteStructure", "divisor_structure", "eval_formula", "parse_formula"],
    "nodes": ["Node", "TreeDomain", "closure", "concat_set", "is_antichain", "meet",
              "node_str"],
    "oracles": ["BitsetOracle", "ConjunctionOracle", "FoOracle", "GcdOracle", "TupleWitness",
                "Witness", "oracle_for"],
    "patterns": ["ConsistencyFamily", "PatternSpec", "VerificationReport", "exact_family",
                 "make_pattern", "required_consistent", "required_inconsistent", "verify"],
    "qftypes": ["atomic_pattern", "delta_type", "qftype0", "sim0", "sim0_atomic",
                "sim0_sets", "sim_delta", "verify_ss_ll"],
    "synth": ["synth_boolean", "synth_skolem"],
    "transforms": ["Scaffold", "build_onevar_scaffold", "collapse_extend",
                   "collapse_product", "elongate", "fatten", "reduce_katp"],
}

# the last line of stdout, after what the code prints
REPORT = """
import json, sys, types
print()
json.dump({name: type(module) is types.ModuleType for name, module in sys.modules.items()
           if name == "treeprop" or name.startswith("treeprop.")}, sys.stdout)
"""


def modules_after(code, cwd=None):
    """{module: whether it has run} for every treeprop module in sys.modules
    after a fresh interpreter runs `code`."""
    done = subprocess.run([sys.executable, "-c", code + REPORT], capture_output=True,
                          text=True, env=ENV, cwd=cwd, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_modules(code, cwd=None):
    return sorted(name for name, ran in modules_after(code, cwd).items() if ran)


def test_import_registers_every_module_and_runs_none():
    submodules = {f"treeprop.{path.stem}" for path in SOURCE.glob("*.py")
                  if path.stem not in ("__init__", "cli")}
    assert len(submodules) > 10
    assert modules_after("import treeprop") == {"treeprop": True,
                                                **dict.fromkeys(submodules, False)}


def test_importing_the_cli_runs_only_its_errors():
    assert run_modules("import treeprop.cli") == ["treeprop", "treeprop.cli", "treeprop.errors"]


def test_check_lemma_runs_only_nodes_and_qftypes():
    code = ("import treeprop.cli\n"
            "treeprop.cli.main(['check-lemma', 'ss-ll', '--n', '2', '--len', '2'])\n")
    assert run_modules(code) == ["treeprop", "treeprop.cli", "treeprop.errors",
                                 "treeprop.nodes", "treeprop.qftypes"]


def test_synth_and_verify_run_no_formulas_transforms_or_dot(tmp_path):
    code = ("import treeprop.cli as cli\n"
            "assert cli.main(['synth', '--pattern', 'atp', '--depth', '2', '--backend', 'skolem',"
            " '--out', 'w.json']) == 0\n"
            "assert cli.main(['verify', '--witness', 'w.json', '--exhaustive']) == 0\n")
    ran = run_modules(code, cwd=tmp_path)
    assert "treeprop.witnessio" in ran and "treeprop.patterns" in ran
    assert {"treeprop.formulas", "treeprop.transforms", "treeprop.dot"}.isdisjoint(ran)


def test_exports_are_the_defining_modules_names():
    names = [name for module_names in EXPORTS.values() for name in module_names]
    assert len(names) == 54
    assert sorted(treeprop.__all__) == sorted(names)
    for module, module_names in EXPORTS.items():
        for name in module_names:
            assert getattr(treeprop, name) is getattr(sys.modules[f"treeprop.{module}"], name)
    # dir() lists every name before any is read
    listed = subprocess.run([sys.executable, "-c", "import treeprop; print(*dir(treeprop))"],
                            capture_output=True, text=True, env=ENV, timeout=60, check=True)
    assert set(names) <= set(listed.stdout.split())


def test_a_name_is_read_from_its_module_on_every_access():
    # a name first read while its module's attribute is patched is not kept
    code = ("import treeprop, treeprop.patterns as patterns\n"
            "real = patterns.verify\n"
            "patterns.verify = stand_in = object()\n"
            "assert treeprop.verify is stand_in\n"
            "patterns.verify = real\n"
            "assert treeprop.verify is real and 'verify' not in vars(treeprop)\n")
    subprocess.run([sys.executable, "-c", code], env=ENV, timeout=60, check=True)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        treeprop.not_a_name
    assert not hasattr(treeprop, "cli_main")


def test_running_the_cli_as_a_module_warns_of_nothing():
    done = subprocess.run([sys.executable, "-W", "error", "-m", "treeprop.cli", "--help"],
                          capture_output=True, text=True, env=ENV, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage: treeprop")
