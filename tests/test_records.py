"""Record semantics of every treeprop record class (`errors.record`): fields
in their constructor order, equality and hash within the class alone,
immutability, a repr that names the class and its fields, and checks that
no way of building a record skips."""

import copy
import pickle

import pytest

from treeprop import (AntichainCatalog, ConsistencyFamily, PatternSpec, Scaffold, TreeDomain,
                      TupleWitness, VerificationReport, Witness, WitnessError, exact_family,
                      make_pattern)
from treeprop.errors import record
from treeprop.formulas import (And, Apply, Atom, Equals, Implies, Literal, Name, Not, Or,
                               Quantifier)
from treeprop.qftypes import SsLlReport
from treeprop.transforms import ReduceReport
from treeprop.witnessio import WitnessFile

ATP3 = make_pattern("atp", depth=3)
LABELS = ATP3.index_labels()


def _witness():
    return Witness("skolem", LABELS, {label: 2 for label in LABELS})


def _formula():
    x = Name("x")
    return Quantifier("exists", "y", And(Atom("R", (x, Name("y"))), Not(Equals(x, Literal(1)))))


# class -> (its fields in constructor order, a function making one record,
# whether records of it hash): every call makes an equal record of new objects
RECORDS = {
    TreeDomain: (("branching", "depth"), lambda: TreeDomain(2, 3), True),
    Witness: (("backend", "labels", "params", "width"), _witness, False),
    TupleWitness: (("base", "labels", "provenance", "arity"),
                   lambda: TupleWitness(_witness(), LABELS[:2], {LABELS[0]: (LABELS[1],),
                                                                 LABELS[1]: (LABELS[0],)}, 1),
                   False),
    PatternSpec: (("kind", "branching", "depth", "k", "rows", "cols"),
                  lambda: make_pattern("katp", depth=3, k=3), True),
    ConsistencyFamily: (("labels", "columns", "count"), lambda: exact_family(ATP3), True),
    VerificationReport: (("passed", "consistent_checked", "inconsistent_checked", "exhaustive",
                          "counterexample"),
                         lambda: VerificationReport(False, 3, 4, True, (frozenset({()}), 1, 0)),
                         True),
    AntichainCatalog: (("domain", "items"),
                       lambda: AntichainCatalog(TreeDomain(2, 2), (frozenset({()}),)), True),
    WitnessFile: (("pattern", "witness", "base_pattern"), lambda: WitnessFile(ATP3, _witness()),
                  False),
    SsLlReport: (("passed", "tuple_count", "pair_count", "counterexample"),
                 lambda: SsLlReport(True, 12, 144, None), True),
    ReduceReport: (("case", "fatten_level", "probes"),
                   lambda: ReduceReport("fatten", 1, ((0, True), (1, False))), True),
    Scaffold: (("level", "families", "embedding", "chi", "chi_prime"),
               lambda: Scaffold(1, (frozenset({(0,)}),), {(): (0,)}, None, None), False),
    Name: (("ident",), lambda: Name("x"), True),
    Literal: (("value",), lambda: Literal(1), True),
    Apply: (("func", "args"), lambda: Apply("f", (Name("x"),)), True),
    Atom: (("rel", "args"), lambda: Atom("R", (Name("x"), Literal(2))), True),
    Equals: (("left", "right", "negated"), lambda: Equals(Name("x"), Name("y"), True), True),
    Not: (("inner",), lambda: Not(Atom("P", (Name("x"),))), True),
    And: (("left", "right"), lambda: And(Atom("P", ()), Atom("Q", ())), True),
    Or: (("left", "right"), lambda: Or(Atom("P", ()), Atom("Q", ())), True),
    Implies: (("left", "right"), lambda: Implies(Atom("P", ()), Atom("Q", ())), True),
    Quantifier: (("kind", "var", "body"), _formula, True),
}

CASES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def _values(rec) -> tuple:
    return tuple(getattr(rec, field) for field in rec._fields)


def test_every_record_class_is_listed():
    assert len(RECORDS) == 21
    assert all(issubclass(cls, tuple) for cls in RECORDS)


@CASES
def test_fields_keep_their_names_and_order(cls):
    fields, make, _ = RECORDS[cls]
    rec = make()
    assert type(rec) is cls and rec._fields == fields
    assert cls(*_values(rec)) == rec
    assert cls(**dict(zip(fields, _values(rec)))) == rec


@CASES
def test_equality_and_hash_hold_within_the_class(cls):
    _, make, hashable = RECORDS[cls]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b) and {a: 1}[b] == 1
    else:  # a dict field, as with the dataclasses
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@CASES
def test_a_record_never_equals_a_tuple_or_another_class(cls):
    fields, make, _ = RECORDS[cls]
    rec = make()
    plain = _values(rec)
    twin = type(cls.__name__, (record(" ".join(fields)),), {})(*plain)
    for other in (plain, twin):
        assert rec != other and other != rec
        assert not rec == other and not other == rec
    with pytest.raises(TypeError):
        rec < make()


def test_formula_nodes_of_equal_fields_differ_by_class():
    p, q = Atom("P", ()), Atom("Q", ())
    assert And(p, q) != Or(p, q) != Implies(p, q)
    assert len({And(p, q), Or(p, q), Implies(p, q), (p, q)}) == 4
    # the hash reads the class too, so such records do not collide in a dict
    assert len({hash(And(p, q)), hash(Or(p, q)), hash(Implies(p, q)), hash((p, q))}) == 4
    assert Name("x") != Literal("x")


@CASES
def test_assignment_raises_attribute_error(cls):
    fields, make, _ = RECORDS[cls]
    rec = make()
    for name in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert _values(rec) == _values(make())


@CASES
def test_repr_names_the_class_and_its_fields(cls):
    fields, make, _ = RECORDS[cls]
    rec = make()
    text = repr(rec)
    assert text.startswith(f"{cls.__name__}({fields[0]}=")
    assert all(f"{field}={getattr(rec, field)!r}" in text for field in fields)


@CASES
def test_copies_are_equal_records(cls):
    _, make, _ = RECORDS[cls]
    rec = make()
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec)),
                 rec._make(_values(rec)), rec._replace()):
        assert type(twin) is cls and twin == rec


def test_defaults_are_kept():
    assert PatternSpec("atp", depth=3) == PatternSpec("atp", 2, 3, None, 0, 0)
    assert Witness("skolem", (), {}).width is None
    assert VerificationReport(True, 1, 2, False).counterexample is None
    assert WitnessFile(ATP3, _witness()).base_pattern is None
    assert Equals(Name("x"), Name("y")).negated is False


def test_no_way_of_building_skips_the_checks():
    domain, witness = TreeDomain(2, 3), _witness()
    tuple_witness = RECORDS[TupleWitness][1]()
    with pytest.raises(ValueError, match="depth must be >= 1"):
        domain._replace(depth=0)
    with pytest.raises(ValueError, match="branching must be >= 2"):
        TreeDomain._make((1, 3))
    with pytest.raises(WitnessError, match="skolem parameters must be >= 1"):
        witness._replace(params={label: 0 for label in LABELS})
    with pytest.raises(WitnessError, match="parameter map does not match labels"):
        Witness._make(("skolem", LABELS, {}))
    with pytest.raises(WitnessError, match="needs a declared width"):
        witness._replace(backend="boolean")
    with pytest.raises(WitnessError, match="non-uniform arity"):
        tuple_witness._replace(arity=2)
    with pytest.raises(WitnessError, match="unknown source indices"):
        TupleWitness._make((witness, ((5,),), {(5,): ((7,),)}, 1))
    with pytest.raises(TypeError):
        domain._replace(width=3)
    pattern = make_pattern("katp", depth=3, k=3)
    for build, message in [(lambda: PatternSpec("sop9", depth=3), "unknown pattern kind 'sop9'"),
                           (lambda: PatternSpec("atp", depth=0), "atp needs depth >= 1"),
                           (lambda: PatternSpec("katp", depth=3), "katp needs k >= 2"),
                           (lambda: PatternSpec("tp", branching=3, depth=2), "tp needs k >= 2"),
                           (lambda: pattern._replace(kind="sop9"), "unknown pattern kind"),
                           (lambda: PatternSpec._make(("atp", 2, 0, None, 0, 0)), "needs depth"),
                           (lambda: pattern._replace(depth=True), "depth must be an integer"),
                           (lambda: PatternSpec("tp2", rows=2, cols=2, k=3), "tp2 takes no k"),
                           (lambda: PatternSpec.from_json({"kind": "sop9", "depth": 3}),
                            "unknown pattern kind"),
                           (lambda: pickle.loads(pickle.dumps(pattern).replace(b"katp", b"ktap")),
                            "unknown pattern kind 'ktap'")]:
        with pytest.raises(ValueError, match=message):
            build()


def test_make_pattern_is_the_checked_pattern_class():
    assert make_pattern is PatternSpec
    # the kind is read in any case, and the spec equals and hashes as one
    # made from the lower-case kind
    upper, lower = PatternSpec("ATP", depth=3), make_pattern("atp", depth=3)
    assert upper == lower == ATP3 and hash(upper) == hash(lower) and upper.kind == "atp"
    assert PatternSpec.from_json({"kind": "TP2", "rows": 2, "cols": 3}) == make_pattern(
        "tp2", rows=2, cols=3)


def test_a_family_hashes_without_its_columns_and_reads_its_members_lazily():
    family = exact_family(ATP3)
    assert "masks" not in vars(family) and "maximal" not in vars(family)
    assert len(family.maximal) == family.count
    assert "masks" in vars(family) and "maximal" in vars(family)
    other = ConsistencyFamily(family.labels, (0,) * len(family.labels), family.count)
    assert hash(other) == hash(family) and other != family
    assert family == exact_family(ATP3)


def test_a_catalog_iterates_counts_and_holds_its_items():
    catalog = RECORDS[AntichainCatalog][1]()
    assert len(catalog) == 1 and list(catalog) == [frozenset({()})]
    assert frozenset({()}) in catalog and catalog.domain not in catalog
