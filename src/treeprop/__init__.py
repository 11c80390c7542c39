"""Finite-scale laboratory for model-theoretic tree properties.

Synthesizes exact parameter families for the ATP, k-ATP, SOP1, SOP2, TP and
TP2 patterns from divisibility and Boolean-atom encodings, verifies them
exhaustively against consistency oracles, and implements the supporting tree
combinatorics: strong isomorphism of node tuples, maximal-antichain
enumeration, fattening and elongation, and the collapse-skeleton embedding.
"""

from .antichains import (AntichainCatalog, alpha, count_antichains,
                         enumerate_antichains, find_iso_copy,
                         maximal_antichains, universal_prefix)
from .errors import (FormulaError, MalformedNodeError, ResourceCapError,
                     TreepropError, WitnessError)
from .formulas import (FiniteStructure, divisor_structure, eval_formula,
                       parse_formula)
from .nodes import (Node, TreeDomain, closure, concat_set, is_antichain, meet,
                    node_str, parse_node)
from .oracles import (BitsetOracle, ConjunctionOracle, FoOracle, GcdOracle,
                      TupleWitness, Witness, oracle_for)
from .patterns import (ConsistencyFamily, PatternSpec, VerificationReport,
                       exact_family, make_pattern, required_consistent,
                       required_inconsistent, verify)
from .qftypes import (atomic_pattern, delta_type, qftype0, sim0, sim0_atomic,
                      sim0_sets, sim_delta, verify_ss_ll)
from .synth import synth_boolean, synth_skolem
from .transforms import (Scaffold, build_onevar_scaffold, collapse_extend,
                         collapse_product, elongate, fatten, reduce_katp)

__version__ = "0.1.0"
