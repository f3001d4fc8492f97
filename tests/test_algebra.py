import random

import numpy as np
import pytest

from conftest import full_transformations
from fpal import algebra, entailment
from fpal.algebra import (
    FiniteGroup,
    SimpleGroupId,
    all_subgroup_sets,
    composition_factors,
    cyclic_group,
    divides,
    divisor_witnesses_monoid,
    fingerprint,
    group_from_permutations,
    idempotents,
    is_simple,
    maximal_subgroup_at,
    normal_subgroups,
    quotient,
    simple_divisors_group,
    simple_divisors_monoid,
    subgroups,
    symmetric_group,
    transition_monoid,
)
from fpal.automaton import Automaton, counter, full_T2, symmetric_automaton
from oracle import (
    group_from_monoid_indices,
    group_subsemigroups,
    simple_divisors_monoid_bruteforce,
    units_by_inverse_search,
)


def dihedral(n: int) -> FiniteGroup:
    rotation = tuple(list(range(2, n + 1)) + [1])
    reflection = tuple(range(n, 0, -1))
    return group_from_permutations([rotation, reflection])


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n, m = g.order, h.order
    table = np.zeros((n * m, n * m), dtype=np.int32)
    for i in range(n):
        for j in range(m):
            for k in range(n):
                for l in range(m):
                    table[i * m + j, k * m + l] = g.table[i, k] * m + h.table[j, l]
    return FiniteGroup(table)


def alternating4() -> FiniteGroup:
    return group_from_permutations([(2, 1, 4, 3), (2, 3, 1, 4)])


def alternating5() -> FiniteGroup:
    return group_from_permutations([(2, 3, 4, 5, 1), (2, 3, 1, 4, 5)])


def names(ids) -> list:
    return sorted(str(x) for x in ids)


# -- monoids ------------------------------------------------------------------


def test_monoid_orders():
    assert transition_monoid(symmetric_automaton(3)).order == 6
    assert transition_monoid(counter(5)).order == 5
    assert transition_monoid(full_T2()).order == 4


def test_monoid_product_matches_composition():
    m = transition_monoid(symmetric_automaton(3))
    for i in range(m.order):
        for j in range(m.order):
            expected = m.elements[i].then(m.elements[j])
            assert m.elements[m.product(i, j)] == expected


def test_monoid_witnesses_are_shortest():
    m = transition_monoid(symmetric_automaton(3))
    from fpal.automaton import induced

    q = symmetric_automaton(3)
    for t, w in zip(m.elements, m.witnesses):
        assert induced(q, w) == t
    assert m.witnesses[m.identity_index] == ()


def test_full_t2_idempotents():
    m = transition_monoid(full_T2())
    idem = idempotents(m)
    assert len(idem) == 3
    orders = sorted(maximal_subgroup_at(m, e).order for e in idem)
    assert orders == [1, 1, 2]



def test_table_of_32_state_monoid():
    # read in base 32, the two maps differ by 32**31, which is 0 mod 2**64
    delta = tuple((s, 2 if s == 1 else s) for s in range(1, 33))
    m = transition_monoid(Automaton(32, ("a", "b"), delta))
    assert m.order == 2
    assert m.table.tolist() == [[0, 1], [1, 1]]
    assert idempotents(m) == [0, 1]


def test_maximal_subgroup_requires_idempotent():
    m = transition_monoid(symmetric_automaton(3))
    non_idem = next(
        i for i in range(m.order) if m.product(i, i) != i
    )
    with pytest.raises(ValueError):
        maximal_subgroup_at(m, non_idem)


# -- groups -------------------------------------------------------------------


def test_cyclic_group_structure():
    c6 = cyclic_group(6)
    assert c6.order == 6
    assert c6.is_abelian()
    assert sorted(c6.element_orders()) == [1, 2, 3, 3, 6, 6]
    assert c6.check_associative()


def test_group_from_permutations_closure():
    s3 = group_from_permutations([(2, 3, 1), (2, 1, 3)])
    assert s3.order == 6
    assert not s3.is_abelian()


def test_group_validation_rejects_non_group():
    # a non-Latin square
    with pytest.raises(ValueError):
        FiniteGroup(np.array([[0, 0], [0, 0]], dtype=np.int32))


def test_subgroups_of_s3():
    s3 = symmetric_group(3)
    assert len(all_subgroup_sets(s3)) == 6
    reps = subgroups(s3)
    assert len(reps) == 4
    assert sorted(g.order for g in reps) == [1, 2, 3, 6]


def test_normal_subgroups_of_s3():
    s3 = symmetric_group(3)
    assert sorted(n.order for n in normal_subgroups(s3)) == [1, 3, 6]


def test_quotient_c6_by_c2():
    c6 = cyclic_group(6)
    c2 = next(s for s in subgroups(c6) if s.order == 2)
    q = quotient(c6, c2)
    assert q.order == 3
    assert str(fingerprint(q)) == "C_3"


def test_quotient_rejects_non_normal():
    s3 = symmetric_group(3)
    c2 = next(s for s in subgroups(s3) if s.order == 2)
    with pytest.raises(ValueError):
        quotient(s3, c2)


def test_is_simple_cases():
    assert not is_simple(cyclic_group(1))
    assert is_simple(cyclic_group(2))
    assert is_simple(cyclic_group(7))
    assert not is_simple(cyclic_group(6))
    assert not is_simple(alternating4())
    assert is_simple(alternating5())


def test_fingerprint_names():
    assert str(fingerprint(cyclic_group(5))) == "C_5"
    assert str(fingerprint(alternating5())) == "A_5"
    with pytest.raises(ValueError):
        fingerprint(cyclic_group(4))


def test_fingerprint_psl27():
    shift = (2, 3, 4, 5, 6, 7, 1, 8)
    invert = (8, 7, 4, 3, 6, 5, 2, 1)
    psl = group_from_permutations([shift, invert])
    assert psl.order == 168
    assert str(fingerprint(psl)) == "PSL(2,7)"


def test_simple_group_id_ordering():
    a = SimpleGroupId(2, (1, 2), "C_2")
    b = SimpleGroupId(3, (1, 3, 3), "C_3")
    assert a < b
    assert str(SimpleGroupId(4, (1, 2, 2, 2))) == "simple_4[1,2,2,2]"


# -- composition factors -------------------------------------------------------


def test_composition_factors_examples():
    assert names(composition_factors(symmetric_group(3))) == ["C_2", "C_3"]
    assert names(composition_factors(cyclic_group(12))) == ["C_2", "C_2", "C_3"]
    assert names(composition_factors(symmetric_group(4))) == [
        "C_2", "C_2", "C_2", "C_3",
    ]
    assert names(composition_factors(alternating5())) == ["A_5"]


def test_composition_factor_multiset_s4():
    factors = composition_factors(symmetric_group(4))
    orders = sorted(f.order for f in factors)
    assert orders == [2, 2, 2, 3]


def group_corpus() -> list:
    groups = [cyclic_group(n) for n in list(range(1, 17)) + [18, 20, 24, 30, 36, 48, 60]]
    groups += [symmetric_group(3), symmetric_group(4)]
    groups += [dihedral(4), dihedral(5), dihedral(6)]
    groups += [alternating4(), alternating5()]
    c2, c3, c4, c5 = (cyclic_group(k) for k in (2, 3, 4, 5))
    groups += [
        direct_product(c2, c2),
        direct_product(c2, c4),
        direct_product(c3, c3),
        direct_product(c5, c5),
        direct_product(c2, direct_product(c2, c2)),
        direct_product(alternating4(), c2),
        direct_product(symmetric_group(3), c2),
    ]
    assert all(g.order <= 60 for g in groups)
    return groups


def test_factor_orders_multiply_to_group_order():
    for g in group_corpus():
        factors = composition_factors(g)
        product = 1
        for f in factors:
            product *= f.order
        assert product == g.order


def test_jordan_holder_invariance_under_random_tie_breaks():
    for g in group_corpus():
        base = composition_factors(g)
        for seed in range(8):
            shuffled = composition_factors(g, rng=random.Random(seed))
            assert shuffled == base


# -- divisors -------------------------------------------------------------------


def test_simple_divisors_of_s5_group():
    s5 = symmetric_group(5)
    assert names(simple_divisors_group(s5)) == ["A_5", "C_2", "C_3", "C_5"]


def test_simple_divisors_monoid_examples():
    assert names(simple_divisors_monoid(transition_monoid(counter(6)))) == [
        "C_2", "C_3",
    ]
    assert names(simple_divisors_monoid(transition_monoid(full_T2()))) == ["C_2"]
    assert names(simple_divisors_monoid(transition_monoid(counter(1)))) == []


def test_divides_with_witness():
    m = transition_monoid(full_T2())
    c2 = fingerprint(cyclic_group(2))
    ok, witness = divides(c2, m)
    assert ok
    assert witness is not None
    sub = group_from_monoid_indices(m, witness.subgroup)
    assert sub.order == 2
    c5 = fingerprint(cyclic_group(5))
    ok, witness = divides(c5, m)
    assert not ok and witness is None


def test_divisor_witnesses_name_idempotent():
    m = transition_monoid(symmetric_automaton(3))
    table = divisor_witnesses_monoid(m)
    for fp, w in table.items():
        assert w.idempotent == m.identity_index
        assert w.idempotent_word == ()
        sub = group_from_monoid_indices(m, w.subgroup)
        assert sub.order % fp.order == 0


def test_group_subsemigroups_of_full_t2():
    m = transition_monoid(full_T2())
    kinds = sorted(len(s) for s in group_subsemigroups(m))
    # three idempotents give three trivial groups; identity+swap is the C_2
    assert kinds == [1, 1, 1, 2]


def test_bruteforce_oracle_matches_on_small_monoids():
    for q in [counter(4), counter(6), full_T2(), symmetric_automaton(3)]:
        m = transition_monoid(q)
        assert simple_divisors_monoid(m) == simple_divisors_monoid_bruteforce(m)


def test_bruteforce_oracle_on_corpus_sample(corpus):
    for q in corpus[::7]:
        m = transition_monoid(q, cap=24)
        assert simple_divisors_monoid(m) == simple_divisors_monoid_bruteforce(m)


# -- checks kept out of the divisor path ------------------------------------------


def test_witness_scan_equals_composition_factor_union(corpus_monoids):
    # the divisors of a group are the composition factors of its subgroups
    groups = group_corpus()
    for m in corpus_monoids:
        groups += [maximal_subgroup_at(m, e) for e in idempotents(m)]
    for g in groups:
        union = set()
        for k in subgroups(g):
            union.update(composition_factors(k))
        assert simple_divisors_group(g) == union


def test_units_by_rank_match_inverse_search(corpus_monoids):
    monoids = corpus_monoids + [
        transition_monoid(symmetric_automaton(4)),
        transition_monoid(full_transformations(4)),
    ]
    checked = 0
    for m in monoids:
        for e in idempotents(m):
            units = units_by_inverse_search(m, e)
            h = maximal_subgroup_at(m, e)
            assert list(h.labels) == units
            assert np.array_equal(h.table, group_from_monoid_indices(m, units).table)
            checked += 1
    assert (len(monoids), checked) == (222, 745)


# -- caches ---------------------------------------------------------------------


def test_cached_divisor_table_is_read_only():
    m = transition_monoid(counter(6))
    table = divisor_witnesses_monoid(m)
    original = dict(table)
    c5 = fingerprint(cyclic_group(5))
    with pytest.raises(TypeError):
        table[c5] = next(iter(original.values()))
    with pytest.raises(TypeError):
        del table[next(iter(original))]
    assert dict(divisor_witnesses_monoid(transition_monoid(counter(6)))) == original
    assert isinstance(all_subgroup_sets(cyclic_group(6)), tuple)


def test_caches_are_bounded(monkeypatch):
    monkeypatch.setattr(algebra, "MONOID_CACHE_SIZE", 2)
    monkeypatch.setattr(algebra, "SUBGROUP_CACHE_SIZE", 3)
    monkeypatch.setattr(algebra, "_walk_cache", {})
    monkeypatch.setattr(algebra, "_subgroup_cache", {})
    for n in range(2, 7):
        assert simple_divisors_monoid(transition_monoid(counter(n)))
    assert len(algebra._walk_cache) == 2
    assert len(algebra._subgroup_cache) == 3
    assert entailment._cyclic_simple_id.cache_info().maxsize == 256
    assert entailment._alternating5_id.cache_info().maxsize == 1
