"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; every check is exact (no tolerances).
"""

import itertools
import random
import time

from treeprop import (ConjunctionOracle, FoOracle, GcdOracle, TreeDomain,
                      Witness, alpha, build_onevar_scaffold, collapse_extend,
                      collapse_product, divisor_structure, exact_family,
                      make_pattern, maximal_antichains, oracle_for,
                      parse_formula, reduce_katp, sim0, sim0_atomic,
                      sim0_sets, synth_boolean, synth_skolem, verify,
                      verify_ss_ll)
from treeprop.oracles import STRUCTURE
from treeprop.patterns import (ATP, KATP, SOP1, SOP2, TP, TP2,
                               ConsistencyFamily)

from references import is_antichain, max_chain_bounded_sets


def report(n, text, started):
    print(f"criterion {n}: PASS ({text}; {time.time() - started:.1f}s)")


def test_criterion_1_alpha_recurrence():
    started = time.time()
    for n in range(1, 5):
        brute = max_chain_bounded_sets(TreeDomain(2, n), 2)
        assert len(brute) == alpha(n)
        assert set(brute) == set(maximal_antichains(n).items)
    assert alpha(4) == 26
    assert len(maximal_antichains(5).items) == 677
    assert time.time() - started < 10
    report(1, "alpha matches brute force for n <= 4 and recursion at n = 5",
           started)


def test_criterion_2_skolem_atp_exactness():
    started = time.time()
    p3 = make_pattern(ATP, depth=3)
    w3 = synth_skolem(exact_family(p3))
    r3 = verify(oracle_for(w3), w3, p3, exhaustive=True)
    assert r3.passed
    assert r3.consistent_checked == 25
    assert r3.inconsistent_checked == 102
    p4 = make_pattern(ATP, depth=4)
    w4 = synth_skolem(exact_family(p4))
    r4 = verify(oracle_for(w4), w4, p4, exhaustive=True)
    assert r4.passed
    assert r4.consistent_checked + r4.inconsistent_checked == 32767
    assert r4.consistent_checked == 676  # the nonempty antichains
    assert time.time() - started < 30
    report(2, "depth 3: 25/102 over 127 subsets; depth 4 over 32767", started)


def test_criterion_3_backend_agreement():
    started = time.time()
    family = exact_family(make_pattern(ATP, depth=3))
    gcd = oracle_for(synth_skolem(family))
    bits = oracle_for(synth_boolean(family))
    labels = list(family.labels)
    for mask in range(1, 1 << len(labels)):
        subset = [x for i, x in enumerate(labels) if mask >> i & 1]
        assert gcd.consistent(subset) == bits.consistent(subset)

    params = {"a": 6, "b": 10, "c": 15, "d": 7}  # products of 2, 3, 5, 7
    fo = FoOracle(divisor_structure(210),
                  parse_formula("x != 1 & divides(x, y)"),
                  Witness(STRUCTURE, tuple(params),
                          {k: (v,) for k, v in params.items()}))
    ref = GcdOracle(Witness("skolem", tuple(params), params))
    names = list(params)
    for mask in range(1, 1 << len(names)):
        subset = [x for i, x in enumerate(names) if mask >> i & 1]
        assert fo.consistent(subset) == ref.consistent(subset)
    assert time.time() - started < 10
    report(3, "bitset = gcd on 127 subsets; fo = gcd on the 210-divisor "
              "structure", started)


def test_criterion_4_ss_ll_finite_form():
    started = time.time()
    comparisons = 0
    for tuple_len in (2, 3):
        r = verify_ss_ll(2, 3, tuple_len)
        assert r.passed and r.counterexample is None
        comparisons += r.pair_count
    assert comparisons == 3136 + 112896
    assert time.time() - started < 30
    report(4, f"delta type = closure type on {comparisons} ordered "
              "comparisons of leaf pairs/triples", started)


def test_criterion_5_katp_to_atp_pipeline():
    started = time.time()
    base_pattern = make_pattern(KATP, depth=5, k=3)
    base = synth_skolem(exact_family(base_pattern))
    tw, rr = reduce_katp(base, oracle_for(base), 2)
    assert rr.case == "elongate"
    assert all(ok for _, ok in rr.probes)
    target = make_pattern(ATP, depth=3)
    result = verify(ConjunctionOracle(oracle_for(base), tw), tw, target,
                    exhaustive=True)
    assert result.passed
    assert result.consistent_checked == 25
    assert result.inconsistent_checked == 102
    assert time.time() - started < 10
    report(5, "3-ATP on depth 5 elongates to an exact ATP witness on depth 3",
           started)


def test_criterion_6_other_patterns():
    started = time.time()
    specs = [
        make_pattern(SOP2, depth=3),
        make_pattern(SOP1, depth=3),
        make_pattern(TP, depth=3, branching=3, k=2),
        make_pattern(TP2, rows=3, cols=3),
    ]
    for p in specs:
        family = exact_family(p)
        for witness in (synth_skolem(family), synth_boolean(family)):
            result = verify(oracle_for(witness), witness, p)
            assert result.passed, (p.kind, witness.backend, result.summary())
    assert time.time() - started < 10
    report(6, "sop2/sop1/tp/tp2 exact witnesses pass pattern verification on "
              "both backends", started)


def test_criterion_7_collapse_and_scaffold():
    started = time.time()
    # collapse skeleton invariants on a worked chain of steps
    families = [frozenset({(0,), (1,)})]
    for step in range(2):
        products = collapse_product(families, (0,), (1,))
        families, chi, chi_prime = collapse_extend(products)
        for x in families:
            assert is_antichain(x) and sim0_sets(x, families[0])
        assert chi in families[-1]
        assert chi == chi_prime[: len(chi)]

    for m in (1, 2, 3):
        s = build_onevar_scaffold(m, {(0,)})
        assert len(s.families) == alpha(m)
        for x in s.families:
            assert is_antichain(x) and sim0_sets(x, s.families[0])
        catalog = list(maximal_antichains(m).items)
        hits = []
        for y in catalog:  # conditions (i) and (ii)
            image = frozenset(s.embedding[node] for node in y)
            indices = [i for i, x in enumerate(s.families) if image <= x]
            assert len(indices) == 1
            hits.append(indices[0])
        assert len(set(hits)) == len(catalog)
        nodes = sorted(s.embedding)
        # condition (iii): closure types on pairs, atomic relation patterns
        # on every longer tuple (f cannot preserve meet nesting, see notes)
        for a, b in itertools.product(nodes, repeat=2):
            assert sim0((a, b), (s.embedding[a], s.embedding[b]))
        for r in range(1, len(nodes) + 1):
            for tup in itertools.permutations(nodes, r):
                assert sim0_atomic(tup, tuple(s.embedding[x] for x in tup))
    assert time.time() - started < 30
    report(7, "collapse invariants and scaffold conditions (i)-(iii) for "
              "m <= 3", started)


def test_criterion_8_randomized_monotonicity():
    started = time.time()
    rng = random.Random(20240817)
    structure = divisor_structure(210)
    formula = parse_formula("x != 1 & divides(x, y)")
    divisors = [d for d in structure.universe if d > 1]
    cases = 0
    for _ in range(400):
        labels = tuple(range(rng.randint(3, 6)))
        members = [
            frozenset(rng.sample(labels, rng.randint(1, len(labels))))
            for _ in range(rng.randint(1, 5))
        ]
        family = ConsistencyFamily.from_members(labels, members)
        fo_params = {l: (rng.choice(divisors),) for l in labels}
        oracles = [
            oracle_for(synth_skolem(family)),
            oracle_for(synth_boolean(family)),
            FoOracle(structure, formula,
                     Witness(STRUCTURE, labels, fo_params)),
        ]
        big = rng.sample(labels, rng.randint(1, len(labels)))
        small = rng.sample(big, rng.randint(0, len(big)))
        for oracle in oracles:
            if oracle.consistent(big):
                assert oracle.consistent(small), (big, small)
            cases += 1
    assert cases >= 1000
    assert time.time() - started < 30
    report(8, f"{cases} randomized subset cases, no monotonicity violation",
           started)
