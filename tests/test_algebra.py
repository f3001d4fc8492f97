import dataclasses
import json
import random

import pytest

from conftest import (
    STREAM_GROUPS,
    alternating5_automaton,
    entails_sized_automaton,
    full_transformations,
    group_plus_extensive,
    permutation_automaton,
    psl213_automaton,
)
from fpal import algebra, cli, entailment
from fpal.algebra import (
    FiniteGroup,
    SimpleGroupId,
    composition_factors,
    cyclic_group,
    divides,
    divisor_witnesses_monoid,
    fingerprint,
    group_from_permutations,
    idempotents,
    is_simple,
    maximal_subgroup_at,
    simple_divisors_group,
    simple_divisors_monoid,
    symmetric_group,
    transition_monoid,
)
from fpal.automaton import Automaton, counter, full_T2, symmetric_automaton, to_dict
from fpal.errors import CapExceededError
import oracle
from oracle import (
    all_subgroup_sets,
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
    return FiniteGroup([[g.table[i][k] * m + h.table[j][l] for k in range(n) for l in range(m)]
                        for i in range(n) for j in range(m)])


def alternating4() -> FiniteGroup:
    return group_from_permutations([(2, 1, 4, 3), (2, 3, 1, 4)])


def alternating5() -> FiniteGroup:
    return group_from_permutations([(2, 3, 4, 5, 1), (2, 3, 1, 4, 5)])


def alternating6() -> FiniteGroup:
    """A_6 = <(1 2 3), (2 3 4 5 6)>, order 360."""
    return group_from_permutations([(2, 3, 1, 4, 5, 6), (1, 3, 4, 5, 6, 2)])


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
    assert oracle.product_table(m).tolist() == [[0, 1], [1, 1]]
    assert [[m.product(i, j) for j in range(2)] for i in range(2)] == [[0, 1], [1, 1]]
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
    assert oracle.is_associative(c6)


def test_group_from_permutations_closure():
    s3 = group_from_permutations([(2, 3, 1), (2, 1, 3)])
    assert s3.order == 6
    assert not s3.is_abelian()


def test_group_validation_rejects_non_group():
    for table, labels, message in (
        ([[0, 0], [0, 0]], None, "rows and columns must be permutations"),
        ([[0, 1], [1]], None, "must be square"),
        ([], None, "at least one element"),
        ([[0, 1], [1, 2]], None, "entries out of range"),
        # x * y = -x - y mod 3: a Latin square with no identity
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], None, "no two-sided identity"),
        ([[0, 1], [1, 0]], ["e"], "label count"),
    ):
        with pytest.raises(ValueError, match=message):
            FiniteGroup(table, labels=labels)


def test_group_tables_are_immutable():
    # a group built through FiniteGroup is checked once, when built, and
    # its table keys the oracle's lattice cache, so neither may change
    # under the caller
    g = cyclic_group(2)
    for target, index in ((g.table, (0, 0)), (g.table, 0), (g.table[0], 0), (g.inverse, 0)):
        with pytest.raises(TypeError):
            target[index] = 1
    assert all_subgroup_sets(g) == ((0,), (0, 1))


def test_groups_built_without_checks_pass_them(monkeypatch, corpus_monoids):
    # maximal subgroups are groups by construction and skip FiniteGroup's
    # checks; each must pass them all the same
    known = FiniteGroup._known.__func__
    built = []

    def checked(cls, rows, identity, labels=None):
        g = known(cls, rows, identity, labels)
        ref = FiniteGroup(rows, labels)
        assert (g.table, g.cols, g.identity, g.inverse, g.labels) == (
            ref.table, ref.cols, ref.identity, ref.inverse, ref.labels)
        assert g.order > 60 or oracle.is_associative(g)
        built.append(g.order)
        return g

    monkeypatch.setattr(FiniteGroup, "_known", classmethod(checked))
    # the corpus has maximal subgroups whose identity is not their least
    # element
    count = 0
    for m in corpus_monoids:
        for e in idempotents(m):
            maximal_subgroup_at(m, e)
            count += 1
    assert len(built) == count
    # the divisor search reads subgroups as index sets of the group it is
    # given, and builds no table of its own, not even for a residual
    # larger than A_5
    built.clear()
    assert len(simple_divisors_group(direct_product(psl27(), cyclic_group(2)))) == 4
    assert built == []


# The subgroup and quotient tables live in the oracle, the reference for
# the sections that fpal.algebra reads off one subgroup lattice.


def test_subgroups_of_s3():
    s3 = symmetric_group(3)
    assert len(all_subgroup_sets(s3)) == 6
    reps = oracle.subgroups(s3)
    assert len(reps) == 4
    assert sorted(g.order for g in reps) == [1, 2, 3, 6]


def test_normal_subgroups_of_s3():
    s3 = symmetric_group(3)
    assert sorted(n.order for n in oracle.normal_subgroups(s3)) == [1, 3, 6]


def test_quotient_c6_by_c2():
    c6 = cyclic_group(6)
    c2 = next(s for s in oracle.subgroups(c6) if s.order == 2)
    q = oracle.quotient(c6, c2)
    assert q.order == 3
    assert str(fingerprint(q)) == "C_3"


def test_quotient_rejects_non_normal():
    s3 = symmetric_group(3)
    c2 = next(s for s in oracle.subgroups(s3) if s.order == 2)
    with pytest.raises(ValueError):
        oracle.quotient(s3, c2)


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


def test_composition_factors_match_table_route():
    for g in group_corpus():
        assert composition_factors(g) == oracle.composition_factors(g)


def test_composition_series_orders_match_sympy():
    pytest.importorskip("sympy.combinatorics")
    for g in group_corpus():
        factors = composition_factors(g)
        assert oracle.composition_factor_orders_sympy(g) == sorted(f.order for f in factors)


def automaton_groups() -> dict:
    """The maximal subgroups that ``fpal divisors`` searches on the S4 and
    A5 automata: the units of their transition monoids."""
    out = {}
    for name, q in (("S4", symmetric_automaton(4)), ("A5", alternating5_automaton())):
        m = transition_monoid(q)
        out[name] = maximal_subgroup_at(m, m.identity_index)
    return out


def test_subgroup_lattice_matches_oracle():
    for g in group_corpus() + list(automaton_groups().values()):
        assert list(all_subgroup_sets(g)) == oracle.subgroup_sets(g), g.order


@pytest.mark.parametrize("name, gens, count", [
    ("S4", [(2, 3, 4, 1), (2, 1, 3, 4)], 30),
    ("A5", [(2, 3, 4, 5, 1), (2, 3, 1, 4, 5)], 59),
    ("S5", [(2, 3, 4, 5, 1), (2, 1, 3, 4, 5)], 156),
    ("PSL(2,7)", [(2, 3, 4, 5, 6, 7, 1, 8), (8, 7, 4, 3, 6, 5, 2, 1)], 179),
])
def test_known_subgroup_counts(name, gens, count):
    subs = all_subgroup_sets(group_from_permutations(gens))
    assert len(subs) == count
    assert len(set(subs)) == count


PSL27_GENERATORS = [(2, 3, 4, 5, 6, 7, 1, 8), (8, 7, 4, 3, 6, 5, 2, 1)]


def psl27() -> FiniteGroup:
    return group_from_permutations(PSL27_GENERATORS)


def test_normal_subgroups_come_from_one_routine(monkeypatch):
    # no subgroup lattice is listed: composition factors, simplicity and
    # nonabelian witnesses all read _maximal_normals, once per factor of
    # the series, once per simplicity test, and only on subgroups of a
    # residual larger than A_5 in the divisor search
    assert not hasattr(algebra, "all_subgroup_sets")
    calls = []

    def counted(g, k):
        calls.append(len(k))
        return maximal_normals(g, k)

    maximal_normals = algebra._maximal_normals
    monkeypatch.setattr(algebra, "_maximal_normals", counted)
    # every group of the corpus has a trivial residual or A_5, as do S5 and
    # A5 x C2; PSL(2,7) is its own residual, and the residual of
    # PSL(2,7) x C2 is PSL(2,7)
    searched = [(g, False) for g in group_corpus()]
    searched += [(symmetric_group(5), False),
                 (direct_product(alternating5(), cyclic_group(2)), False),
                 (psl27(), True), (direct_product(psl27(), cyclic_group(2)), True)]
    for g, nonabelian_search in searched:
        calls.clear()
        factors = composition_factors(g)
        assert len(calls) == len(factors)
        assert calls[:1] == ([g.order] if g.order > 1 else [])
        calls.clear()
        is_simple(g)
        assert calls == [g.order]
        calls.clear()
        algebra._group_divisors_with_witnesses(g, algebra.DEFAULT_SUBGROUP_CAP)
        assert bool(calls) == nonabelian_search
        assert all(n <= 168 for n in calls)


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


def test_divisor_witnesses_match_the_lattice_scan():
    # Cauchy and the solvable residual against the scan of the whole
    # lattice: the same witnesses, in the order the scan finds them
    t5 = transition_monoid(full_transformations(5))
    groups = group_corpus() + [
        symmetric_group(5),
        direct_product(alternating5(), cyclic_group(2)),
        psl27(),
        direct_product(psl27(), cyclic_group(2)),
        alternating6(),
    ] + [maximal_subgroup_at(t5, e) for e in idempotents(t5)]
    for g in groups:
        got = algebra._group_divisors_with_witnesses(g, algebra.DEFAULT_SUBGROUP_CAP)
        assert list(got.items()) == list(oracle.group_divisors_with_witnesses(g).items()), g.order
    assert len(groups) == len(group_corpus()) + 5 + 196


def test_maximal_normals_match_the_lattice_filter():
    # normal subgroups from class joins against the filter of the whole
    # subgroup lattice, on every subgroup k
    checked = 0
    for g in group_corpus() + [alternating6()]:
        subs = oracle.all_subgroup_sets(g)
        for k in subs:
            assert algebra._maximal_normals(g, k) == oracle.maximal_normals_in_lattice(g, subs, k)
            checked += 1
    assert checked == sum(len(oracle.all_subgroup_sets(g)) for g in group_corpus()) + 501


def test_solvable_residuals():
    assert algebra._solvable_residual(symmetric_group(4)) is None
    assert algebra._solvable_residual(direct_product(cyclic_group(5), cyclic_group(5))) is None
    s5 = symmetric_group(5)
    a5 = sorted(x for x in range(120) if s5.labels[x] in set(alternating5().labels))
    assert sorted(algebra._solvable_residual(s5)) == a5
    assert sorted(algebra._solvable_residual(psl27())) == list(range(168))
    # the elements (x, 0) of PSL(2,7) x C2 are the indices 2x
    psl_c2 = direct_product(psl27(), cyclic_group(2))
    assert sorted(algebra._solvable_residual(psl_c2)) == list(range(0, 336, 2))


def test_divisors_above_the_cap_are_refused_on_every_route():
    for g in (cyclic_group(12), alternating5(), psl27()):
        with pytest.raises(CapExceededError):
            algebra._group_divisors_with_witnesses(g, g.order - 1)
        assert algebra._group_divisors_with_witnesses(g, g.order)


def count_builds(monkeypatch) -> list:
    """Record the order of every maximal subgroup the walk builds, with the
    walk cache emptied."""
    built = []

    def counted(m, e, units=None):
        h = maximal_subgroup_at(m, e, units)
        built.append(h.order)
        return h

    monkeypatch.setattr(algebra, "maximal_subgroup_at", counted)
    monkeypatch.setattr(algebra, "_walk_cache", {})
    return built


def test_one_maximal_subgroup_per_image_kernel_class(monkeypatch):
    # T_n has one class per rank, with groups S_n, ..., S_2, 1; the walk
    # builds S_2 (C_2), S_3 (C_3) and, in T5, S_5 (C_5 and A_5), and skips
    # the trivial group and S_4, which is solvable with C_2 and C_3 found
    built = count_builds(monkeypatch)
    for n, groups in ((4, [2, 6]), (5, [2, 6, 120])):
        m = transition_monoid(full_transformations(n))
        built.clear()
        report = algebra.algebra_report(m)
        assert built == groups
        # the order at every idempotent, each group built on its own
        assert report["maximal_subgroup_orders"] == [
            maximal_subgroup_at(m, e).order for e in idempotents(m)]
        # one class per rank: the orders are n!, (n-1)!, ..., 1
        assert sorted(set(report["maximal_subgroup_orders"])) == [1, 2, 6, 24, 120][:n]


def a5_after_c30() -> Automaton:
    """A_5 on states 2-6, fixing the rest, and a letter that sends states
    2-6 to the sink 1 and acts on states 7-16 as a 2-, a 3- and a
    5-cycle.  Its idempotents: the 30th power of that letter, with group
    C_30, then the identity, with group A_5."""
    a5 = [(2, 3, 4, 5, 1), (2, 3, 1, 4, 5)]
    cycles = (2, 1, 4, 5, 3, 7, 8, 9, 10, 6)
    gens = [(1,) + tuple(v + 1 for v in g) + tuple(range(7, 17)) for g in a5]
    gens.append((1,) * 6 + tuple(v + 6 for v in cycles))
    return permutation_automaton(gens)


@pytest.mark.parametrize("q, orders, built_orders, divisors", [
    # S3 beside an extensive automaton: 7 idempotents, each its own class,
    # with groups 1, 1, C2, C3, S3, C3, S3; only C2 and the first C3 are
    # built, and S3 adds nothing to them
    (entails_sized_automaton(), [1, 1, 2, 3, 6, 3, 6], [2, 3], ["C_2", "C_3"]),
    # A_5 is not solvable, so it is built though C_30 gave its primes
    (a5_after_c30(), [30, 60], [30, 60], ["C_2", "C_3", "C_5", "A_5"]),
])
def test_walk_builds_only_groups_that_can_add_a_divisor(monkeypatch, q, orders, built_orders,
                                                        divisors):
    built = count_builds(monkeypatch)
    report = algebra.algebra_report(transition_monoid(q))
    assert report["maximal_subgroup_orders"] == orders
    assert built == built_orders
    assert [d["name"] for d in report["simple_divisors"]] == divisors


def walk_inputs(corpus_monoids) -> list:
    big = [full_transformations(4), full_transformations(5), symmetric_automaton(5),
           permutation_automaton(PSL27_GENERATORS), entails_sized_automaton(), a5_after_c30()]
    stream = [group_plus_extensive(name) for name in STREAM_GROUPS]
    return corpus_monoids + [transition_monoid(q) for q in big + stream]


def test_walk_matches_the_every_leader_reference(monkeypatch, corpus_monoids):
    # skipping leaders changes no order, divisor or witness
    monoids = walk_inputs(corpus_monoids)
    monkeypatch.setattr(algebra, "_walk_cache", {})
    fast = [(algebra.algebra_report(m), dict(divisor_witnesses_monoid(m))) for m in monoids]
    monkeypatch.setattr(algebra, "_walk_idempotents", oracle.walk_every_leader)
    for m, (report, witnesses) in zip(monoids, fast):
        assert report == algebra.algebra_report(m)
        assert witnesses == dict(divisor_witnesses_monoid(m))
    assert len(monoids) == len(corpus_monoids) + 16
    assert sum(bool(report["simple_divisors"]) for report, _ in fast[-10:]) == 9


def test_a_leader_above_the_cap_is_refused_though_its_primes_are_found(
        tmp_path, capsys, monkeypatch):
    # T4's S4 comes after S2 and S3, which give C_2 and C_3; at cap 23 it
    # is still refused
    t4 = full_transformations(4)
    m = transition_monoid(t4)
    monkeypatch.setattr(algebra, "_walk_cache", {})
    monkeypatch.setattr(entailment, "_divisor_tables", {})
    with pytest.raises(CapExceededError, match="order 24"):
        algebra.algebra_report(m, cap=23)
    with pytest.raises(CapExceededError, match="order 24"):
        entailment.entails([counter(6)], t4, subgroup_cap=23)
    assert algebra.algebra_report(m, cap=24)["simple_divisors"]
    path = tmp_path / "t4.json"
    path.write_text(json.dumps(to_dict(t4)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subgroup_cap": 23}))
    monkeypatch.setenv("FPAL_CONFIG", str(cfg))
    assert cli.main(["divisors", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error[cap-exceeded]: subgroup enumeration cap 23 exceeded by group of order 24\n")


def test_a_leader_above_the_cap_is_refused_before_its_group_is_built(
        tmp_path, capsys, monkeypatch):
    # PSL(2,13) on 14 points has order 1092, above the default cap 1024;
    # its order is known from its units, so its 1092 x 1092 table is
    # never built
    built = count_builds(monkeypatch)
    monkeypatch.setattr(entailment, "_divisor_tables", {})
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    q = psl213_automaton()
    message = "subgroup enumeration cap 1024 exceeded by group of order 1092"
    with pytest.raises(CapExceededError) as refused:
        algebra.algebra_report(transition_monoid(q))
    assert str(refused.value) == message
    path = tmp_path / "psl213.json"
    path.write_text(json.dumps(to_dict(q)))
    assert cli.main(["divisors", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error[cap-exceeded]: {message}\n")
    assert built == []


def test_prime_factors_match_sympy():
    factorint = pytest.importorskip("sympy").factorint

    assert algebra._prime_factors(1) == []
    for n in range(2, 5001):
        assert algebra._prime_factors(n) == sorted(factorint(n)), n
        assert algebra._is_prime(n) == (factorint(n) == {n: 1}), n
        assert algebra._surely_solvable(n) == (n < 60 or len(factorint(n)) <= 2), n


def test_witness_scan_equals_composition_factor_union(corpus_monoids):
    # the divisors of a group are the composition factors of its subgroups,
    # here taken from the oracle's subgroup and quotient tables
    groups = group_corpus()
    for m in corpus_monoids:
        groups += [maximal_subgroup_at(m, e) for e in idempotents(m)]
    for g in groups:
        union = set()
        for k in oracle.subgroups(g):
            union.update(oracle.composition_factors(k))
        assert simple_divisors_group(g) == union


def test_units_by_rank_match_inverse_search(corpus_monoids):
    # products, idempotents and maximal subgroups, all found by composing
    # maps, against the oracle's full product table
    monoids = corpus_monoids + [
        transition_monoid(symmetric_automaton(4)),
        transition_monoid(full_transformations(4)),
    ]
    checked = 0
    for m in monoids:
        table = oracle.product_table(m)
        assert [[m.product(i, j) for j in range(m.order)] for i in range(m.order)] == table.tolist()
        assert idempotents(m) == oracle.table_idempotents(table)
        for e in idempotents(m):
            units = units_by_inverse_search(table, e)
            h = maximal_subgroup_at(m, e)
            assert list(h.labels) == units
            assert h.table == group_from_monoid_indices(m, units, table).table
            checked += 1
    assert (len(monoids), checked) == (222, 745)


def padded_with_fixed_states(q: Automaton, n: int) -> Automaton:
    """``q`` on its own states plus fixed states up to ``n`` in all."""
    fixed = tuple(tuple(s for _ in q.letters) for s in range(q.n_states + 1, n + 1))
    return Automaton(n, q.letters, q.delta + fixed)


def test_wide_automaton_keeps_tuple_maps():
    m = transition_monoid(counter(300))
    assert isinstance(m.maps[0], tuple)
    assert (m.order, idempotents(m)) == (300, [m.identity_index])
    assert maximal_subgroup_at(m, m.identity_index).order == 300
    report = algebra.algebra_report(m)
    assert [(d["name"], d["witness"]["subgroup"]) for d in report["simple_divisors"]] == [
        ("C_2", [0, 150]), ("C_3", [0, 100, 200]), ("C_5", [0, 60, 120, 180, 240]),
    ]
    assert all(d["witness"]["normal"] == [0] for d in report["simple_divisors"])
    # element k steps every state k ahead
    assert all(t[0] == k for k, t in enumerate(m.maps))


def test_wide_automaton_with_nonabelian_maximal_subgroup():
    q = padded_with_fixed_states(alternating5_automaton(), 300)
    m = transition_monoid(q)
    assert isinstance(m.maps[0], tuple)
    h = maximal_subgroup_at(m, m.identity_index)
    assert (m.order, h.order, h.is_abelian()) == (60, 60, False)
    assert names(simple_divisors_monoid(m)) == ["A_5", "C_2", "C_3", "C_5"]
    small = transition_monoid(alternating5_automaton())
    assert algebra.algebra_report(m) == algebra.algebra_report(small)


def test_tuple_maps_give_the_same_idempotent_classes(monkeypatch):
    # T4 on 300 states (296 of them fixed), and on 4 states kept as tuples
    small = transition_monoid(full_transformations(4))
    leaders = algebra._class_leaders(small, idempotents(small))
    assert len(set(leaders)) == 4
    wide = transition_monoid(padded_with_fixed_states(full_transformations(4), 300))
    assert isinstance(wide.maps[0], tuple)
    assert idempotents(wide) == idempotents(small)
    assert algebra._class_leaders(wide, idempotents(wide)) == leaders
    assert algebra.algebra_report(wide) == algebra.algebra_report(small)
    monkeypatch.setattr("fpal.automaton.BYTE_MAP_STATES", 0)
    tuples = transition_monoid(full_transformations(4))
    assert isinstance(tuples.maps[0], tuple)
    assert algebra._class_leaders(tuples, idempotents(tuples)) == leaders


def test_tuple_maps_agree_with_byte_maps(monkeypatch, corpus):
    # the same monoids, products and reports when every map is a tuple
    qs = corpus[::11] + [symmetric_automaton(4), full_transformations(3)]
    byte_monoids = [transition_monoid(q) for q in qs]
    monkeypatch.setattr("fpal.automaton.BYTE_MAP_STATES", 0)
    for q, mb in zip(qs, byte_monoids):
        mt = transition_monoid(q)
        assert isinstance(mt.maps[0], tuple)
        assert [tuple(t) for t in mb.maps] == list(mt.maps)
        assert mb.witnesses == mt.witnesses
        assert [mb.product(i, j) for i in range(mb.order) for j in range(mb.order)] \
            == [mt.product(i, j) for i in range(mt.order) for j in range(mt.order)]
        assert algebra.algebra_report(mb) == algebra.algebra_report(mt)


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
    # the per-monoid index and image buckets cannot be changed either
    assert isinstance(m.maps, tuple)
    for mapping in (m.index, m.by_image):
        with pytest.raises(TypeError):
            mapping[next(iter(mapping))] = 0
    assert all(isinstance(xs, tuple) for xs in m.by_image.values())
    # nor can the per-automaton table that entailment caches, or its witnesses
    caps = (algebra.DEFAULT_MONOID_CAP, algebra.DEFAULT_SUBGROUP_CAP)
    cached = entailment._divisor_table(counter(6), *caps)
    assert cached is entailment._divisor_table(counter(6), *caps)
    with pytest.raises(TypeError):
        cached[c5] = next(iter(original.values()))
    witness = next(iter(cached.values()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        witness.idempotent_word = ("b",)
    assert isinstance(witness.subgroup, tuple) and isinstance(witness.idempotent_word, tuple)
    assert dict(cached) == original


def test_cached_walk_keeps_each_automatons_witness_words():
    # the same maps reached by differently named letters
    m_a = transition_monoid(Automaton(3, ("a",), ((2,), (1,), (1,))))
    m_b = transition_monoid(Automaton(3, ("b",), ((2,), (1,), (1,))))
    assert m_a.element_key() == m_b.element_key()
    for m, word in ((m_a, ("a", "a")), (m_b, ("b", "b"))):
        assert [w.idempotent_word for w in divisor_witnesses_monoid(m).values()] == [word]
        assert algebra.algebra_report(m)["simple_divisors"][0]["witness"]["idempotent_word"] \
            == list(word)


def test_caches_are_bounded(monkeypatch):
    monkeypatch.setattr(algebra, "MONOID_CACHE_SIZE", 2)
    monkeypatch.setattr(algebra, "_walk_cache", {})
    for n in range(2, 7):
        assert simple_divisors_monoid(transition_monoid(counter(n)))
    assert len(algebra._walk_cache) == 2
    # the per-automaton divisor tables of entailment share the monoid bound
    monkeypatch.setattr(entailment, "_divisor_tables", {})
    for n in range(2, 7):
        assert entailment.entails([counter(n)], counter(n)).holds
    assert len(entailment._divisor_tables) == 2
    assert [key[0] for key in entailment._divisor_tables] == [counter(5), counter(6)]
    assert entailment._nonabelian_simple_id.cache_info().maxsize == 5
