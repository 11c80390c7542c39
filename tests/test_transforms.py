import itertools

import pytest

from treeprop import (ConjunctionOracle, ResourceCapError, TupleWitness,
                      WitnessError, alpha, build_onevar_scaffold,
                      collapse_extend, collapse_product, elongate, exact_family,
                      fatten, make_pattern, maximal_antichains, oracle_for,
                      reduce_katp, sim0, sim0_atomic, sim0_sets, synth_skolem,
                      verify)
from treeprop import transforms
from treeprop.nodes import concat_set, is_prefix
from treeprop.patterns import ATP, KATP
from treeprop.transforms import _check_family, elongated_core, probe_set

from references import is_antichain, source_union


def atp_witness(depth):
    return synth_skolem(exact_family(make_pattern(ATP, depth=depth)))


def katp_witness(depth, k):
    return synth_skolem(exact_family(make_pattern(KATP, depth=depth, k=k)))


def test_fatten_provenance():
    tw = fatten(atp_witness(3), 1)
    assert tw.arity == 2
    assert set(tw.labels) == {(), (0,), (1,)}
    # digits prepend: the tuple at eta collects 0^m..1^m shifted copies
    assert tw.provenance[()] == ((0,), (1,))
    assert tw.provenance[(1,)] == ((0, 1), (1, 1))
    two = fatten(atp_witness(3), 2)
    assert two.arity == 4
    assert two.provenance[()] == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_fatten_validation():
    assert fatten(atp_witness(2), 0).provenance[()] == ((),)
    with pytest.raises(ValueError):
        fatten(atp_witness(3), -1)
    with pytest.raises(WitnessError):
        fatten(atp_witness(3), 3)


def test_elongated_core():
    assert elongated_core((), 2) == ()
    assert elongated_core((1,), 2) == (1,)
    assert elongated_core((1, 1), 2) == (1, 0, 1)
    assert elongated_core((1, 0, 1), 3) == (1, 0, 0, 0, 0, 0, 1)


def test_elongate_provenance():
    tw = elongate(atp_witness(5), 2)
    assert tw.arity == 2
    assert set(tw.labels) == set(make_pattern(ATP, depth=3).index_labels())
    assert tw.provenance[()] == ((), (0,))
    assert tw.provenance[(1,)] == ((1,), (1, 0))
    assert tw.provenance[(1, 1)] == ((1, 0, 1), (1, 0, 1, 0))


def test_elongate_validation():
    with pytest.raises(ValueError):
        elongate(atp_witness(3), 1)


def test_elongate_refuses_k_past_the_source_depth():
    assert elongate(atp_witness(3), 3).labels == ((),)
    with pytest.raises(WitnessError) as refused:
        elongate(atp_witness(3), 3000)  # a chain of 3000 at the root, none of it built
    assert str(refused.value) == "elongation by 3000 exceeds source depth 3"


def test_missing_sources_are_listed_briefly():
    base = atp_witness(2)
    sources = tuple((0,) * i for i in range(2, 3002))
    with pytest.raises(WitnessError) as refused:
        TupleWitness(base, ((),), {(): sources}, len(sources))
    assert str(refused.value) == ("unknown source indices [(0, 0), (0, 0, 0), (0, 0, 0, 0), "
                                  "... (2997 more)] at ()")


def test_tuple_witness_validation():
    base = atp_witness(2)
    with pytest.raises(WitnessError):
        TupleWitness(base, ((),), {(): ((), (9,))}, 2)
    with pytest.raises(WitnessError):
        TupleWitness(base, ((),), {(): ((),)}, 2)


def test_conjunction_oracle_unions_sources():
    base = atp_witness(5)
    tw = elongate(base, 2)
    oracle = ConjunctionOracle(oracle_for(base), tw)
    assert source_union(tw, [(), (1,)]) == {(), (0,), (1,), (1, 0)}
    assert oracle.consistent([]) and oracle.consistent([()]) is not None


def test_probe_set():
    assert probe_set(0, 2) == frozenset({(), (0,)})
    assert probe_set(1, 2) == frozenset({(0,), (0, 0), (1,), (1, 0)})


def test_reduce_takes_elongation_for_genuine_katp():
    base = katp_witness(5, 3)
    tw, report = reduce_katp(base, oracle_for(base), 2)
    assert report.case == "elongate"
    assert all(ok for _, ok in report.probes)
    p = make_pattern(ATP, depth=3)
    result = verify(ConjunctionOracle(oracle_for(base), tw), tw, p,
                    exhaustive=True)
    assert result.passed
    assert result.consistent_checked == 25
    assert result.inconsistent_checked == 102


def test_reduce_takes_fattening_for_plain_atp():
    # an ATP witness makes K_0 = {root, root 0} a comparable pair, so the
    # very first probe is inconsistent and the fattening branch fires
    base = atp_witness(4)
    tw, report = reduce_katp(base, oracle_for(base), 2)
    assert report.case == "fatten" and report.fatten_level == 0
    assert report.probes == ((0, False),)
    assert tw.arity == 1


def test_reduce_validation():
    base = atp_witness(3)
    with pytest.raises(ValueError):
        reduce_katp(base, oracle_for(base), 1)
    with pytest.raises(WitnessError):
        reduce_katp(base, oracle_for(base), 4)


def test_collapse_product_example():
    out = collapse_product([{(0,)}, {(1,)}], (0,), (1,))
    assert out == [
        {(0, 0), (1, 0)}, {(0, 0), (1, 1)}, {(0, 1), (1, 0)}, {(0, 1), (1, 1)}
    ]
    for x in out:
        assert is_antichain(x) and sim0_sets(x, out[0])


def test_collapse_product_validation():
    with pytest.raises(ValueError):
        collapse_product([{(0,)}], (0,), (0, 1))
    with pytest.raises(ValueError):
        collapse_product([{(0,)}], (1,), (0,))
    with pytest.raises(ValueError):
        collapse_product([{(0,)}, {(0,), (0, 1)}], (0,), (1,))


def test_collapse_extend_examples():
    out, chi, chi_prime = collapse_extend([{(0,), (1,)}])
    assert out == [{(0, 0, 0, 0), (0, 0, 0, 1)}, {(0,), (1,)}]
    assert chi == (0,) and chi_prime == (0, 0, 0)
    out, chi, chi_prime = collapse_extend([{()}])
    assert out == [{(0, 0)}, {()}] and chi == () and chi_prime == (0, 0)
    assert chi == chi_prime[: len(chi)]


def test_collapse_extend_searches_for_a_fresh_branch_point():
    # (0, 0) lies in the second family, so the branch point moves one level
    # further down, to (0, 0, 0), and chi_prime is its 0 child
    families = [frozenset({(0,)}), frozenset({(0, 0)})]
    out, chi, chi_prime = collapse_extend(families)
    assert chi == (0,) and chi_prime == (0, 0, 0, 0)
    assert out == [{(0, 0, 0, 0, 0)}, {(0, 0, 0, 0, 0, 0)}, {(0,)}]
    # the documented properties: every family prefixed by chi_prime, the
    # first appended unchanged, chi in it and a prefix of chi_prime, and the
    # branch point below chi_prime is no prefix of any input element
    assert out[:-1] == [concat_set(chi_prime, x) for x in families]
    assert out[-1] == families[0] and chi in out[-1]
    assert chi == chi_prime[:len(chi)]
    assert not any(is_prefix(chi_prime[:-1], e) for x in families for e in x)
    _check_family(out)
    # no search for [{(0,)}, {(1,)}]: the branch point (0, 0) is fresh
    assert collapse_extend([{(0,)}, {(1,)}])[2] == (0, 0, 0)


def test_collapse_extend_validation():
    with pytest.raises(ValueError):
        collapse_extend([])
    with pytest.raises(ValueError):
        collapse_extend([{(0,)}, {(0,), (1,)}])  # unequal cardinality


def scaffold_conditions(m, seed):
    s = build_onevar_scaffold(m, seed)
    assert s.level == m
    assert len(s.families) == alpha(m)
    for x in s.families:
        assert is_antichain(x) and sim0_sets(x, s.families[0])
    catalog = list(maximal_antichains(m).items)
    hits = []
    for y in catalog:
        image = frozenset(s.embedding[node] for node in y)
        indices = [i for i, x in enumerate(s.families) if image <= x]
        assert len(indices) == 1  # condition (i)
        hits.append(indices[0])
    assert len(set(hits)) == len(catalog)  # condition (ii)
    nodes = sorted(s.embedding)
    for a, b in itertools.product(nodes, repeat=2):  # condition (iii), pairs
        assert sim0((a, b), (s.embedding[a], s.embedding[b]))
    return s


def test_scaffold_conditions_small_levels():
    for m in (1, 2, 3):
        scaffold_conditions(m, {(0,)})


def test_scaffold_chi_in_last_family():
    s = build_onevar_scaffold(3, {(0,)})
    assert s.chi in s.families[-1]
    assert s.embedding[()] == s.chi
    assert s.chi == s.chi_prime[: len(s.chi)]


def test_scaffold_atomic_embedding_on_longer_tuples():
    s = build_onevar_scaffold(3, {(0,)})
    nodes = sorted(s.embedding)
    for tup in itertools.permutations(nodes, 3):
        assert sim0_atomic(tup, tuple(s.embedding[x] for x in tup))


@pytest.mark.parametrize("broken_level", [2, 3])
def test_scaffold_refuses_a_product_family_of_another_shape(monkeypatch, broken_level):
    # the product step at level 2 or 3 hands on one family swapped for a
    # comb, an antichain of its size that is not strongly isomorphic to it;
    # the extension step right after it refuses the families
    real, calls = transforms.collapse_product, []

    def broken(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(len(out))
        if len(calls) == broken_level:
            n = len(out[1])
            comb = frozenset([(1,) * i + (0,) for i in range(n - 1)] + [(1,) * (n - 1)])
            assert is_antichain(comb) and len(comb) == n and not sim0_sets(comb, out[1])
            out[1] = comb
        return out
    monkeypatch.setattr(transforms, "collapse_product", broken)
    with pytest.raises(ValueError, match="not strongly isomorphic"):
        build_onevar_scaffold(4, {(0,)})
    assert calls[-1] == [4, 25][broken_level - 2]


def test_scaffold_validation():
    with pytest.raises(ValueError):
        build_onevar_scaffold(0, {(0,)})
    with pytest.raises(ValueError):
        build_onevar_scaffold(2, {(), (0,)})
    with pytest.raises(ResourceCapError, match=r"scaffold level 5 .*\(cap 4\)"):
        build_onevar_scaffold(5, {(0,)})
