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
`import treeprop.cli` takes about 9 ms where it took 61 ms with every module
run and compiled from source, and 5 ms where it took 43 ms with the bytecode
cached (README, "Import cost"). No module imports `dataclasses`, whose import
takes about 10 ms: records are `errors.record` named tuples. The package's
class is a `types.ModuleType` subclass with one read-only property per
exported name, which reads the name from the submodule bound here on every
access and keeps none in the package: a name patched there is patched here
too, and no longer than there. A property is found on the class in one
lookup, where a PEP 562 `__getattr__` ran only after the module's own lookup
had failed and raised.
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
import types
from operator import attrgetter

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "antichains": ("AntichainCatalog", "ConsistencyFamily", "alpha", "count_antichains",
                   "enumerate_antichains", "find_iso_copy", "maximal_antichains",
                   "universal_prefix"),
    "dot": (),
    "errors": ("FormulaError", "ResourceCapError", "TreepropError", "WitnessError"),
    "formulas": ("FiniteStructure", "divisor_structure", "eval_formula",
                 "parse_formula"),
    "nodes": ("Node", "TreeDomain", "closure", "concat_set", "meet", "node_str"),
    "oracles": ("BitsetOracle", "ConjunctionOracle", "FoOracle", "GcdOracle",
                "TupleWitness", "Witness", "oracle_for"),
    "patterns": ("PatternSpec", "VerificationReport", "exact_family", "make_pattern",
                 "required_consistent", "required_inconsistent", "verify"),
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

# The package's class: each exported name is a read-only property that reads
# it from the submodule bound here, on every access.
sys.modules[__name__].__class__ = type(
    "_Package", (types.ModuleType,),
    {name: property(attrgetter(f"{module}.{name}")) for name, module in _HOME.items()})


def __dir__():
    return sorted(set(globals()) | set(__all__))
