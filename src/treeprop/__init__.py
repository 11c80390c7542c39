"""Finite-scale laboratory for model-theoretic tree properties.

Synthesizes exact parameter families for the ATP, k-ATP, SOP1, SOP2, TP and
TP2 patterns from divisibility and Boolean-atom encodings, verifies them
exhaustively against consistency oracles, and implements the supporting tree
combinatorics: strong isomorphism of node tuples, maximal-antichain
enumeration, fattening and elongation, and the collapse-skeleton embedding.

The package is lazy. Importing it puts every submodule but `cli` in
`sys.modules` and binds it here through `importlib.util.LazyLoader`, but runs
none of them: a submodule runs when one of its attributes is first read. So
a process, a CLI command above all, runs only the modules it uses:
`import treeprop.cli` takes about 13 ms where it took 61 ms with every module
run and compiled from source, and 7 ms where it took 43 ms with the bytecode
cached (README, "Import cost"). The exported names are served by the module
`__getattr__` (PEP 562), which reads each one from its defining module on
every access and keeps none here: a name patched there is patched here too,
and no longer than there.
A module imports names from another only if all of its callers need them;
otherwise it binds the lazy module (`from . import qftypes`), which runs
when a caller first reads a name through it. No module imports inside a
function: `cli` binds every module it uses this way.
`cli` is left out so that `python -m treeprop.cli` does not find it in
`sys.modules` already. LazyLoader is not thread-safe before Python 3.12; the
package starts no threads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "antichains": ("AntichainCatalog", "alpha", "count_antichains",
                   "enumerate_antichains", "find_iso_copy", "maximal_antichains",
                   "universal_prefix"),
    "dot": (),
    "errors": ("FormulaError", "ResourceCapError", "TreepropError", "WitnessError"),
    "formulas": ("FiniteStructure", "divisor_structure", "eval_formula",
                 "parse_formula"),
    "nodes": ("Node", "TreeDomain", "closure", "concat_set", "is_antichain", "meet",
              "node_str"),
    "oracles": ("BitsetOracle", "ConjunctionOracle", "FoOracle", "GcdOracle",
                "TupleWitness", "Witness", "oracle_for"),
    "patterns": ("ConsistencyFamily", "PatternSpec", "VerificationReport",
                 "exact_family", "make_pattern", "required_consistent",
                 "required_inconsistent", "verify"),
    "qftypes": ("atomic_pattern", "delta_type", "qftype0", "sim0", "sim0_atomic",
                "sim0_sets", "sim_delta", "verify_ss_ll"),
    "synth": ("synth_boolean", "synth_skolem"),
    "transforms": ("Scaffold", "build_onevar_scaffold", "collapse_extend",
                   "collapse_product", "elongate", "fatten", "reduce_katp"),
    "witnessio": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _register(module: str):
    """The submodule, in sys.modules and unrun until an attribute is read."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
