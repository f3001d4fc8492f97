import itertools
import json
import pathlib
import random

import pytest

from fpal import cpo_model
from fpal.cli import main
from fpal.cpo_model import (
    Interpretation,
    PosetModel,
    TableFn,
    _cover_preds,
    _fill_plan,
    _monotone_pool,
    _offsets,
    _upper_bounds,
    chain,
    check_equation,
    count_monotone,
    enumerate_monotone,
    eval_morphism,
    interpretation_count,
    lfp,
    random_monotone,
)
from fpal.errors import CapExceededError, ThresholdExceededError
from fpal.identities import (
    adding_id_instance,
    conway_library,
    cycle_transposition_identity,
    power_identity,
)
from fpal.term import (
    Comp,
    Dagger,
    Equation,
    Proj,
    Sym,
    Symbol,
    Tup,
    base_from_function,
    dagger,
    identity,
    power,
    tup,
)
from conftest import WIDE_TERMS, run_limited
from oracle import check_one_at_a_time, random_table_by_randrange, reference_eval

C2 = chain(2)
C3 = chain(3)
# the two-element poset with bottom 1: its forced entries are element 0
B1 = PosetModel(2, ((1, 0), (1, 1)), 1, "bottom 1")
# bottom 0 below two incomparable elements: not a lattice
V = PosetModel(3, ((1, 1, 1), (0, 1, 0), (0, 0, 1)), 0, "V")
GOLDEN = pathlib.Path(__file__).parent / "golden"


def brute_force_monotone_count(poset: PosetModel, arity: int) -> int:
    """Oracle: try every table and keep the monotone ones."""
    size = poset.size
    total = size ** arity
    points = list(itertools.product(range(size), repeat=arity))
    le = [
        [all(poset.leq[a][b] for a, b in zip(x, y)) for y in points]
        for x in points
    ]
    count = 0
    for table in itertools.product(range(size), repeat=total):
        if all(
            poset.leq[table[i]][table[j]]
            for i in range(total)
            for j in range(total)
            if le[i][j]
        ):
            count += 1
    return count


def test_chain_structure():
    assert C2.size == 2
    assert C2.bottom == 0
    assert C2.height() == 2
    assert C3.leq[0][2] and not C3.leq[2][0]
    with pytest.raises(ValueError):
        chain(0)


def test_poset_validation():
    with pytest.raises(ValueError):
        PosetModel(2, ((True, False), (False, True)), 0, "antichain")  # no bottom


@pytest.mark.parametrize("size, leq, message", [
    (2, ((1, 1),), "shape"),
    (2, ((1, 1), (0,)), "shape"),
    (0, (), "shape"),
    (2, ((1, 1), (0, 0)), "reflexive"),
    (2, ((1, 1), (1, 1)), "antisymmetric"),
    # 0 <= 1 <= 2 but not 0 <= 2, with 0 below 1 and 2 only through 3
    (4, ((1, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "transitive"),
    (3, ((1, 0, 1), (1, 1, 1), (0, 0, 1)), "bottom"),
], ids=["short", "ragged", "empty", "reflexive", "antisymmetric", "transitive", "bottom"])
def test_malformed_orders_are_refused(size, leq, message):
    with pytest.raises(ValueError, match=message):
        PosetModel(size, leq, 0)


@pytest.mark.parametrize("bottom", [2, -1])
def test_a_bottom_outside_the_carrier_is_refused(bottom):
    # element 1 is the least of the two, so index -1 would name it
    with pytest.raises(ValueError, match="bottom"):
        PosetModel(2, ((1, 0), (1, 1)), bottom)


def test_covers_and_ranks_of_a_diamond_with_a_tail():
    # bottom 4 < 2, 3 < 1 < 0: listed from the top down
    leq = ((1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 1, 1, 0, 0), (1, 1, 0, 1, 0),
           (1, 1, 1, 1, 1))
    poset = PosetModel(5, leq, 4)
    assert [poset.covers_below(x) for x in range(5)] == [[1], [2, 3], [4], [4], []]
    assert poset.ranks() == (3, 2, 1, 1, 0) and poset.height() == 4


def test_long_chains_are_built_quickly_and_refused_past_the_cap():
    import time

    start = time.perf_counter()
    poset = chain(400)
    assert time.perf_counter() - start < 0.5
    assert poset.height() == 400 and poset.covers_below(399) == [398]
    # 2001^2 order entries pass MAX_SAMPLED_ENTRIES: refused before any is built
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        chain(2001)
    assert time.perf_counter() - start < 0.1


def test_monotone_counts_on_chain2():
    assert count_monotone(C2, 1, 10**6) == 3
    assert count_monotone(C2, 2, 10**6) == 6
    assert count_monotone(C2, 3, 10**6) == 20
    assert count_monotone(C2, 4, 10**6) == 168


def test_monotone_counts_match_bruteforce():
    for poset, arity in [(C2, 1), (C2, 2), (C3, 1), (C2, 3)]:
        expected = brute_force_monotone_count(poset, arity)
        assert count_monotone(poset, arity, 10**6) == expected


def test_count_past_the_cap_needs_no_enumeration(monkeypatch):
    def refuse(poset, arity):
        raise AssertionError("counted by enumeration")

    monkeypatch.setattr(cpo_model, "_monotone_tables", refuse)
    _monotone_pool.cache_clear()
    try:
        # chain(2)^10 has a level of 252 points, so at least 2^252 maps
        assert count_monotone(C2, 10, 100_000) == 100_001
        # chain(12) has C(23, 12) = 1,352,078 maps into itself, though
        # each level of it holds one point
        assert count_monotone(chain(12), 1, 100_000) == 100_001
    finally:
        _monotone_pool.cache_clear()


DIAMOND = PosetModel(4, ((1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1)), 0, "diamond")


@pytest.mark.parametrize("poset", [chain(1), C2, C3, V, DIAMOND], ids=lambda p: p.name)
def test_count_shortcut_matches_plain_counting(poset):
    caps = (0, 1, 5, 10, 250, 2000)
    for arity in range(5):
        # plain counting, stopped past the largest cap
        seen = sum(1 for _ in itertools.islice(cpo_model._monotone_tables(poset, arity),
                                               max(caps) + 1))
        for cap in caps:
            assert count_monotone(poset, arity, cap) == min(seen, cap + 1), (arity, cap)


def test_enumerate_monotone_yields_monotone_unique():
    seen = set()
    for fn in enumerate_monotone(C3, 2):
        assert fn.is_monotone()
        key = tuple(fn.table)
        assert key not in seen
        seen.add(key)
    assert len(seen) == count_monotone(C3, 2, 10**6)


def test_enumerate_monotone_limit():
    with pytest.raises(ThresholdExceededError):
        list(enumerate_monotone(C2, 3, limit=5))


def test_random_monotone_is_monotone():
    rng = random.Random(99)
    for _ in range(40):
        arity = rng.randint(1, 4)
        assert random_monotone(C3, arity, rng).is_monotone()
    # on V some partial fillings have no allowed value and start over
    for _ in range(40):
        assert random_monotone(V, 2, rng).is_monotone()


def test_enumeration_order_is_fixed():
    # exhaustive checks walk this order, so interpretations_checked and the
    # first counterexample depend on it
    assert [fn.table for fn in enumerate_monotone(C2, 2)] == [
        [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1], [1, 1, 1, 1],
    ]
    assert [fn.table for fn in enumerate_monotone(V, 1)] == [
        [0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 1, 0], [0, 1, 1], [0, 1, 2],
        [0, 2, 0], [0, 2, 1], [0, 2, 2], [1, 1, 1], [2, 2, 2],
    ]
    assert count_monotone(V, 2, 10**6) == brute_force_monotone_count(V, 2) == 197


def test_model_caches_are_bounded():
    caches = {name: value for name, value in vars(cpo_model).items()
              if hasattr(value, "cache_info")}
    assert {"_offsets", "_monotone_pool"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name


def test_index_vectors_are_shared_by_the_checks_of_a_process():
    # read-only tuples, since every check of the process reads them
    assert type(_offsets(2, 3, 4, 1)) is tuple
    assert _offsets(2, 3, 4, 1) == (0, 1, 2, 4, 5, 6)
    assert _offsets(2, 3, 4, 0) == (0, 0, 0, 4, 4, 4)
    # a composition of two symbols and a dagger read index vectors
    f, g = Sym(Symbol("f", 1)), Sym(Symbol("g", 2))
    eq = Equation.of("fg dagger", Dagger(Comp(f, g), 1), Dagger(Comp(f, g), 1))
    _offsets.cache_clear()
    assert check_equation(eq, C3, mode="exhaustive").holds
    first = _offsets.cache_info()
    assert first.misses > 0
    assert check_equation(eq, C3, mode="exhaustive").holds
    second = _offsets.cache_info()
    assert second.misses == first.misses
    assert second.hits > first.hits


def test_exhaustive_pools_are_enumerated_once_per_poset_and_arity(monkeypatch):
    # two exhaustive checks over C2 and V, with symbols of arity 1 and 2,
    # enumerate four pools, which their counts read too; the second check
    # of each poset reads them back
    f, g = Sym(Symbol("f", 1)), Sym(Symbol("g", 2))
    eq = Equation.of("fg", Comp(f, g), Comp(f, g))
    _monotone_pool.cache_clear()
    # a poset computes its covers and ranks when it is made; the checks
    # read them back and ask for covers only through _cover_preds
    covers = []
    covers_below = PosetModel.covers_below
    monkeypatch.setattr(PosetModel, "covers_below",
                        lambda self, x: covers.append(x) or covers_below(self, x))
    posets = [chain(2), PosetModel(V.size, V.leq, V.bottom, V.name)]
    ranks = [poset.ranks() for poset in posets]
    for poset in posets:
        _cover_preds(poset, 1), _cover_preds(poset, 2)
    covers.clear()
    for poset in posets + posets:
        assert check_equation(eq, poset, mode="exhaustive").holds
    assert not covers
    assert all(poset.ranks() is r for poset, r in zip(posets, ranks))
    # per check, one count and one read of each of its two pools
    assert _monotone_pool.cache_info()[:2] == (12, 4)
    for poset, arity in ((C2, 1), (C2, 2), (V, 1), (V, 2)):
        pool = _monotone_pool(poset, arity, cpo_model.DEFAULT_EXHAUSTIVE_THRESHOLD,
                              cpo_model.MAX_SAMPLED_ENTRIES)
        assert pool[1] == tuple(tuple(fn.table) for fn in enumerate_monotone(poset, arity))


def test_monotone_tables_run_once_per_pool(monkeypatch):
    # a count and the exhaustive check after it enumerate each (poset,
    # arity, cap) once, and a count past the cap keeps no pool
    runs = []
    tables = cpo_model._monotone_tables
    monkeypatch.setattr(cpo_model, "_monotone_tables",
                        lambda poset, arity: runs.append((poset.name, arity)) or tables(poset, arity))
    _monotone_pool.cache_clear()
    f, g = Sym(Symbol("f", 1)), Sym(Symbol("g", 2))
    eq = Equation.of("fg", Comp(f, g), Comp(f, g))
    for _ in range(2):
        assert interpretation_count(eq, C3, 2000) == 10 * 175
        assert check_equation(eq, C3, threshold=2000).strategy == "exhaustive"
        assert count_monotone(C3, 2, 100) == 101
    assert runs == [("chain(3)", 1), ("chain(3)", 2), ("chain(3)", 2)]
    assert _monotone_pool(C3, 2, 100, cpo_model.MAX_SAMPLED_ENTRIES) == (101, None)


def test_pools_hold_no_more_tables_than_an_exhaustive_check_can_use(monkeypatch):
    # a pool holds at most MAX_SAMPLED_ENTRIES // |P|^arity tables, the most
    # an exhaustive check within the cap evaluates; a count past that goes
    # on to the threshold holding none, and the verdicts stay the same
    monkeypatch.setattr(cpo_model, "MAX_SAMPLED_ENTRIES", 100_000)
    held = []
    pool = cpo_model._monotone_pool

    def recorded(poset, arity, *caps):
        counted, tables = pool(poset, arity, *caps)
        held.append((poset.size ** arity, counted, tables))
        return counted, tables

    monkeypatch.setattr(cpo_model, "_monotone_pool", recorded)
    f = Sym(Symbol("f", 2))
    eq = Equation.of("f", f, f)
    with pytest.raises(CapExceededError) as refused:
        check_equation(eq, chain(4))
    assert str(refused.value) == "24696 x 4^2 table entries exceed the cap of 100000 entries"
    result = check_equation(eq, C3)
    assert (result.strategy, result.interpretations_checked, result.holds) == (
        "exhaustive", 175, True)
    assert [(width, counted) for width, counted, _ in held] == [(16, 24696), (9, 175), (9, 175)]
    assert held[0][2] is None and len(held[1][2]) == 175
    # the pool's cache key holds the cap, so a pool counted under another
    # cap is not read back
    monkeypatch.undo()
    threshold, cap = cpo_model.DEFAULT_EXHAUSTIVE_THRESHOLD, cpo_model.MAX_SAMPLED_ENTRIES
    assert len(_monotone_pool(chain(4), 2, threshold, cap)[1]) == 24696


def test_tablefn_call_and_encoding():
    # binary meet on the 2-chain
    meet = TableFn(C2, 2, 1, [0, 0, 0, 1])
    assert meet((0, 1)) == (0,)
    assert meet((1, 1)) == (1,)
    assert meet.is_monotone()
    not_mono = TableFn(C2, 1, 1, [1, 0])
    assert not not_mono.is_monotone()


def test_tablefn_refuses_entries_outside_its_codomain():
    # entries of a table P^k -> P^t lie in 0 .. |P|^t - 1, as its length
    # must be |P|^k
    with pytest.raises(ValueError):
        TableFn(C3, 1, 1, [1, 2, 7])
    with pytest.raises(ValueError):
        TableFn(C3, 1, 1, [-1, 0, 0])
    with pytest.raises(ValueError):
        TableFn(C2, 1, 2, [0, 4])
    assert TableFn(C2, 1, 2, [0, 3]).decode_out(3) == (1, 1)


def test_lfp_is_least_fixed_point():
    for fn in enumerate_monotone(C3, 1):
        x = lfp(fn)
        assert fn((x,)) == (x,)
        fixed = [v for v in range(C3.size) if fn((v,)) == (v,)]
        assert x == min(fixed)


def test_lfp_with_parameters():
    # f(x, y) = y has least fixed point y
    f = TableFn(C3, 2, 1, [c for _ in range(3) for c in range(3)])
    for y in range(3):
        assert lfp(f, (y,)) == y


def test_lfp_iterates_only_the_requested_parameters():
    # f(x, 0) = 0 has a fixed point; f(x, 1) = not x has none
    f = TableFn(C2, 2, 1, [0, 1, 0, 0])
    assert lfp(f, (0,)) == 0
    with pytest.raises(RuntimeError):
        lfp(f, (1,))


def test_eval_projection_and_tuple():
    interp = Interpretation(C2, {})
    swap = eval_morphism(base_from_function([2, 1], 2), interp)
    assert swap((0, 1)) == (1, 0)
    assert swap((1, 0)) == (0, 1)
    ident = eval_morphism(identity(3), interp)
    assert ident((1, 0, 1)) == (1, 0, 1)


def test_eval_of_bang_is_empty_output():
    interp = Interpretation(C2, {})
    fn = eval_morphism(Tup((), 2), interp)
    assert fn.out_arity == 0
    assert fn((1, 1)) == ()


def test_eval_composition_associates():
    interp = Interpretation(C3, {})
    rho = base_from_function([2, 1], 2)
    sigma = base_from_function([1, 1], 2)
    lhs = eval_morphism(Comp(sigma, rho), interp)
    for args in itertools.product(range(3), repeat=2):
        step = eval_morphism(rho, interp)(args)
        assert lhs(args) == eval_morphism(sigma, interp)(step)


def test_eval_requires_matching_symbol_arity():
    f = TableFn(C2, 1, 1, [0, 1])
    interp = Interpretation(C2, {"f": f})
    with pytest.raises(ValueError):
        eval_morphism(Sym(Symbol("f", 2)), interp)
    with pytest.raises(ValueError):
        eval_morphism(Sym(Symbol("g", 1)), interp)


def test_eval_monotone_closure():
    # composite terms evaluated over monotone symbols stay monotone
    rng = random.Random(5)
    f = random_monotone(C3, 2, rng)
    g = random_monotone(C3, 1, rng)
    interp = Interpretation(C3, {"f": f, "g": g})
    term = Comp(
        Sym(Symbol("g", 1)),
        Tup((Dagger(Sym(Symbol("f", 2)), 1),), 1),
    )
    assert eval_morphism(term, interp).is_monotone()


def test_dagger_eval_matches_pointwise_lfp():
    fsym = Symbol("f", 2)
    for table in enumerate_monotone(C3, 2):
        interp = Interpretation(C3, {"f": table})
        fn = eval_morphism(Dagger(Sym(fsym), 1), interp)
        for y in range(3):
            assert fn((y,)) == (lfp_scan(table, y),)


def lfp_scan(table: TableFn, y: int) -> int:
    x = 0
    for _ in range(10):
        nxt = table((x, y))[0]
        if nxt == x:
            return x
        x = nxt
    raise AssertionError("no fixed point reached")


def test_power_eval_iterates_body():
    fsym = Symbol("f", 2)
    # f ignores its parameter and bumps x by one (clamped at the top)
    f = TableFn(C3, 2, 1, [min(x + 1, 2) for x in range(3) for _ in range(3)])
    interp = Interpretation(C3, {"f": f})
    p2 = eval_morphism(power(Sym(fsym), 2), interp)
    for x in range(3):
        assert p2((x, 0)) == (min(x + 2, 2),)


def test_interpretation_count_multiplies_symbol_pools():
    f = Sym(Symbol("f", 1))
    g = Sym(Symbol("g", 1))
    eq = Equation.of("two", Comp(f, Tup((g,), 1)), Comp(g, Tup((f,), 1)))
    assert interpretation_count(eq, C2, 10**6) == 9


def test_check_modes_and_determinism():
    eq = power_identity(2, 1)
    r1 = check_equation(eq, C2, mode="exhaustive")
    assert r1.holds and r1.strategy == "exhaustive" and r1.seed is None
    r2 = check_equation(eq, C2, mode="sampled", seed=5, samples=50)
    r3 = check_equation(eq, C2, mode="sampled", seed=5, samples=50)
    assert r2.to_json() == r3.to_json()
    assert r2.seed == 5
    assert r2.refutation_only and r1.refutation_only


def test_check_auto_respects_threshold():
    eq = power_identity(2, 1)
    r = check_equation(eq, C2, mode="auto", threshold=2)
    assert r.strategy == "sampled"
    with pytest.raises(ThresholdExceededError):
        check_equation(eq, C2, mode="exhaustive", threshold=2)
    with pytest.raises(ValueError):
        check_equation(eq, C2, mode="telepathy")


# -- fault injections: corrupted equations must be refuted ---------------------


def corrupted_fixed_point() -> Equation:
    f = Sym(Symbol("f", 2))
    good_lhs = dagger(f, 1)
    swapped = Comp(f, Tup((Proj(1, 1), dagger(f, 1)), 1))
    return Equation.of("corrupt: swapped recursion args", good_lhs, swapped)


def corrupted_left_zero() -> Equation:
    f = Sym(Symbol("f", 1))
    lhs = dagger(Comp(f, Tup((Proj(1, 2),), 2)), 1)  # reads the state slot
    return Equation.of("corrupt: feedback on the wrong slot", lhs, f)


def corrupted_drop_params() -> Equation:
    f = Sym(Symbol("f", 2))
    lhs = dagger(Comp(f, base_from_function([1, 2], 3)), 1)
    rhs = Comp(dagger(f, 1), Proj(2, 2))  # projects the wrong parameter
    return Equation.of("corrupt: wrong parameter kept", lhs, rhs)


def corrupted_double_dagger() -> Equation:
    f = Sym(Symbol("f", 3))
    lhs = dagger(dagger(f, 1), 1)
    rhs = dagger(Comp(f, base_from_function([1, 2, 2], 2)), 1)
    return Equation.of("corrupt: diagonal folds the parameter", lhs, rhs)


def corrupted_diagonal() -> Equation:
    f = Sym(Symbol("f", 2))
    diagonal = Comp(f, Tup((Proj(1, 1), Proj(1, 1)), 1))
    return Equation.of("corrupt: least fixed point replaced by the diagonal", dagger(f, 1), diagonal)


CORRUPTED = [
    corrupted_fixed_point,
    corrupted_left_zero,
    corrupted_drop_params,
    corrupted_double_dagger,
    corrupted_diagonal,
]


@pytest.mark.parametrize("make", CORRUPTED)
def test_fault_injection_produces_counterexample(make):
    eq = make()
    r = check_equation(eq, C2, mode="exhaustive")
    assert not r.holds
    cex = r.counterexample
    assert cex is not None
    assert cex["lhs"] != cex["rhs"]
    assert set(cex["symbols"]) == {s.name for s in eq.symbols}


def test_counterexample_is_replayable():
    eq = corrupted_left_zero()
    r = check_equation(eq, C2, mode="exhaustive")
    tables = {
        name: TableFn(C2, next(s.in_arity for s in eq.symbols if s.name == name),
                      1, values)
        for name, values in r.counterexample["symbols"].items()
    }
    interp = Interpretation(C2, tables)
    lhs = eval_morphism(eq.lhs, interp)
    rhs = eval_morphism(eq.rhs, interp)
    args = tuple(r.counterexample["input"])
    assert lhs(args) == tuple(r.counterexample["lhs"])
    assert rhs(args) == tuple(r.counterexample["rhs"])
    assert lhs(args) != rhs(args)


def bottom_constant_equation() -> Equation:
    """A valid equation whose sides compose a symbol with constants of
    source 0: on a chain, the constant bottom ``dagger(pi(1,1),1)`` has the
    table [0], which looks like an identity table but is not one."""
    f = Sym(Symbol("f", 1))
    lhs = Comp(f, Dagger(Proj(1, 1), 1))
    rhs = Dagger(Comp(f, Dagger(Proj(1, 2), 1)), 1)
    return Equation.of("bottom constant", lhs, rhs)


def widening_constant_equation() -> Equation:
    """``g(bottom, x) = g(bottom, x)`` through a constant of source 1 and
    target 2, whose table on chain(2) is [0, 1]."""
    g = Sym(Symbol("g", 2))
    widen = Tup((Comp(Dagger(Proj(1, 1), 1), Tup((), 1)), Proj(1, 1)), 1)
    return Equation.of("widening constant", Comp(g, widen), Comp(g, widen))


def library_equations() -> list:
    return (
        conway_library()
        + [cycle_transposition_identity(n, 1) for n in (3, 4)]
        + [adding_id_instance(n, 1) for n in (1, 2)]
        + [make() for make in CORRUPTED]
        + [bottom_constant_equation(), widening_constant_equation()]
    )


@pytest.mark.parametrize("poset", [C2, C3], ids=["chain2", "chain3"])
def test_eval_matches_reference_oracle(poset):
    rng = random.Random(2024 + poset.size)
    for eq in library_equations():
        for _ in range(4):
            interp = Interpretation(
                poset, {s.name: random_monotone(poset, s.in_arity, rng) for s in eq.symbols}
            )
            for side in (eq.lhs, eq.rhs):
                assert eval_morphism(side, interp) == reference_eval(side, interp), eq.name


def test_dagger_of_non_monotone_table_raises():
    flip = TableFn(C2, 1, 1, [1, 0])
    interp = Interpretation(C2, {"f": flip})
    with pytest.raises(RuntimeError):
        eval_morphism(Dagger(Sym(Symbol("f", 1)), 1), interp)
    with pytest.raises(RuntimeError):
        reference_eval(Dagger(Sym(Symbol("f", 1)), 1), interp)


# -- blocks of interpretations against the one-at-a-time oracle ---------------

# 36 samples: a block of 32 and a short last block of 4
DIFFERENTIAL_SAMPLES = 36
DIFFERENTIAL_THRESHOLD = 250


def zero_symbol_equations() -> list:
    bottom = Dagger(Proj(1, 1), 1)
    return [
        Equation.of("no symbols", Comp(bottom, Tup((), 2)), Comp(bottom, Tup((), 2))),
        Equation.of("no symbols, refuted", Proj(1, 2), Proj(2, 2)),
    ]


def assert_matches_oracle(eq, poset, mode, seed, samples=DIFFERENTIAL_SAMPLES):
    r = check_equation(eq, poset, mode=mode, seed=seed, samples=samples,
                       threshold=DIFFERENTIAL_THRESHOLD)
    assert r.strategy == mode
    expect = check_one_at_a_time(eq, poset, mode, r.seed, samples)
    assert (r.holds, r.interpretations_checked, r.counterexample) == expect, (eq.name, mode)
    return r


@pytest.mark.parametrize("poset", [C2, C3, B1], ids=["chain2", "chain3", "bottom1"])
def test_block_checks_match_the_one_at_a_time_oracle(poset):
    assert cpo_model.BLOCK == 32
    refuted_at = []
    for seed, eq in enumerate(library_equations() + zero_symbol_equations()):
        modes = ["sampled"]
        if interpretation_count(eq, poset, DIFFERENTIAL_THRESHOLD) <= DIFFERENTIAL_THRESHOLD:
            modes.append("exhaustive")
        for mode in modes:
            r = assert_matches_oracle(eq, poset, mode, seed)
            if not r.holds:
                refuted_at.append(r.interpretations_checked)
    # refutations inside the first block, past its first interpretation
    assert any(1 < k < cpo_model.BLOCK for k in refuted_at)


def test_refutations_in_later_blocks(monkeypatch):
    # with blocks of 3, 40 samples end in a block of one, and refutations
    # fall at every position of blocks after the first
    monkeypatch.setattr(cpo_model, "BLOCK", 3)
    positions = set()
    for poset in (C2, C3):
        for make in CORRUPTED:
            for seed in (1, 2, 3):
                r = assert_matches_oracle(make(), poset, "sampled", seed, samples=40)
                if r.interpretations_checked > 3:
                    positions.add((r.interpretations_checked - 1) % 3)
        for eq in library_equations()[:6] + zero_symbol_equations():
            assert_matches_oracle(eq, poset, "sampled", 0, samples=40)
    assert positions == {0, 1, 2}


def test_block_size_shrinks_for_wide_symbols(monkeypatch):
    # both block sources take the block size last: sampled checks on a
    # two-element poset use _two_element_blocks, every other check _blocks
    sizes = []
    for name in ("_blocks", "_two_element_blocks"):
        def recorded(*args, source=getattr(cpo_model, name)):
            sizes.append(args[-1])
            return source(*args)

        monkeypatch.setattr(cpo_model, name, recorded)
    # one interpretation of f and g on chain(2) holds 2 * 2**9 entries
    f, g = Sym(Symbol("f", 9)), Sym(Symbol("g", 9))
    eq = Equation.of("wide pair", Comp(g, Tup((f,) * 9, 9)), Comp(g, Tup((f,) * 9, 9)))
    assert_matches_oracle(eq, C2, "sampled", 4, samples=3)
    # f of arity 3 on chain(5) has 125 entries
    assert_matches_oracle(corrupted_double_dagger(), chain(5), "sampled", 4, samples=5)
    # the widest table counts too: f of arity 1 on chain(3) has 3 entries,
    # but pi(1,6) and the composition 3^6 = 729 each
    f = Sym(Symbol("f", 1))
    eq = Equation.of("wide term", Comp(f, Proj(1, 6)), Comp(f, Proj(1, 6)))
    assert_matches_oracle(eq, C3, "sampled", 4, samples=3)
    # BLOCK_ENTRIES is 1024: blocks of 1, of 1024 // 125 = 8 and of 1
    assert sizes == [1, 8, 1]


# single symbols of every arity 0-9, and pairs and triples of mixed arities
TWO_ELEMENT_ARITIES = [(a,) for a in range(10)] + [
    (0, 3), (2, 2), (5, 1), (9, 0), (1, 4, 2), (3, 0, 3), (6, 2, 7), (0, 0, 0),
]


@pytest.mark.parametrize("poset", [C2, B1], ids=["chain2", "bottom1"])
def test_two_element_blocks_match_randrange(poset):
    # the bulk sampler yields the blocks of the tables randrange draws from
    # the same seed; 2 * size + 1 samples end in a block of one, and blocks
    # of one draw so few words that later blocks start on carried ones
    bounds = _upper_bounds(poset)
    carried = 0
    for seed, arities in enumerate(TWO_ELEMENT_ARITIES):
        plans = [_fill_plan(poset, a) for a in arities]
        entries = sum(2 ** a for a in arities)
        wide = max(1, min(cpo_model.BLOCK, cpo_model.BLOCK_ENTRIES // entries))
        for samples, size in ((1, wide), (wide + 1, wide), (2 * wide + 1, wide), (9, 1), (7, 3)):
            ref = random.Random(seed)
            drawn = [[random_table_by_randrange(plan, bounds, ref.randrange) for plan in plans]
                     for _ in range(samples)]
            expect = [
                (len(run), [list(itertools.chain.from_iterable(col)) for col in zip(*run)])
                for run in (drawn[i:i + size] for i in range(0, samples, size))
            ]
            rng, calls = random.Random(seed), []

            def getrandbits(k):
                calls.append(k)
                return rng.getrandbits(k)

            got = list(cpo_model._two_element_blocks(poset, arities, samples, getrandbits, size))
            assert got == expect, (arities, samples, size)
            carried += len(calls) < len(expect)
    assert carried


@pytest.mark.parametrize("poset", [C2, C3], ids=["chain2", "chain3"])
def test_eval_of_arbitrary_tables_matches_the_oracle(poset):
    # tables that need not be monotone: a dagger may then fail to
    # stabilize within its step bound, and both evaluators refuse it
    rng = random.Random(31 + poset.size)
    outcomes = set()
    for eq in library_equations():
        if max((s.in_arity for s in eq.symbols), default=0) > 5:
            continue
        interp = Interpretation(poset, {
            s.name: TableFn(poset, s.in_arity, 1,
                            [rng.randrange(poset.size) for _ in range(poset.size ** s.in_arity)])
            for s in eq.symbols
        })
        for side in (eq.lhs, eq.rhs):
            try:
                expect = reference_eval(side, interp)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    eval_morphism(side, interp)
                outcomes.add("refused")
            else:
                assert eval_morphism(side, interp) == expect, eq.name
                outcomes.add("evaluated")
    assert outcomes == {"refused", "evaluated"}


@pytest.mark.parametrize("n", range(1, 10))
def test_inline_draw_follows_randrange(n):
    # the sampler inlines Random.randrange's draw; it must give the same
    # values and leave the generator in the same state, or every seeded
    # check would change
    plan = tuple((idx, cpo_model._no_values) for idx in range(10_000))
    bounds = _upper_bounds(chain(n))  # no predecessor: any of the n values
    for seed in (0, 1729, 2**40 + 7):
        rng, ref = random.Random(seed), random.Random(seed)
        table = cpo_model._random_table(plan, bounds, rng.getrandbits)
        assert table == [ref.randrange(n) for _ in range(10_000)]
        assert rng.getstate() == ref.getstate()


# Seeded outputs recorded before the evaluator and sampler were rewritten:
# the random stream, the interpretation order and every counterexample must
# stay byte-identical.
GOLDEN_REFUTATIONS = [
    (corrupted_fixed_point, 2, "exhaustive", None, None),
    (corrupted_fixed_point, 2, "sampled", 11, 400),
    (corrupted_fixed_point, 3, "sampled", 5, 400),
    (corrupted_double_dagger, 3, "sampled", 7, 400),
]


def test_golden_refutations():
    out = {}
    for make, k, mode, seed, samples in GOLDEN_REFUTATIONS:
        r = check_equation(make(), chain(k), mode=mode, seed=seed, samples=samples)
        out[f"{make.__name__} chain({k}) {mode} seed={seed} samples={samples}"] = r.to_json()
    assert json.dumps(out, indent=2) + "\n" == (GOLDEN / "refutations.json").read_text()


def test_golden_library_check(capsys, monkeypatch):
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    code = main(["check", "--builtin", "conway", "--samples", "25", "--seed", "1729"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "check_conway_samples25_seed1729.json").read_text()


def test_sampled_check_finds_injected_fault():
    eq = corrupted_fixed_point()
    r = check_equation(eq, C2, mode="sampled", seed=11, samples=400)
    assert not r.holds
    assert r.counterexample is not None


# -- regressions ---------------------------------------------------------------


@pytest.mark.parametrize("poset, count", [(C2, 3), (C3, 10)], ids=["chain2", "chain3"])
def test_constant_of_source_zero_is_not_an_identity(poset, count):
    # both sides are f(bottom); a table [0] of source 0 once passed for an
    # identity and the lhs came out as all of f's table
    r = check_equation(bottom_constant_equation(), poset)
    assert r.holds
    assert r.strategy == "exhaustive"
    assert r.interpretations_checked == count
    interp = Interpretation(poset, {"f": TableFn(poset, 1, 1, list(range(poset.size)))})
    lhs = eval_morphism(bottom_constant_equation().lhs, interp)
    assert (lhs.in_arity, lhs.table) == (0, [poset.bottom])


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_check_refuses_fewer_than_one_sample(samples):
    eq = power_identity(2, 1)
    with pytest.raises(ValueError):
        check_equation(eq, C2, mode="sampled", samples=samples)
    with pytest.raises(ValueError):
        check_equation(eq, C2, mode="auto", threshold=2, samples=samples)


def test_sampled_check_past_the_work_cap_is_refused():
    # 10,000 default samples of a 1,024-entry table took 14 s to draw
    f = Sym(Symbol("f", 10))
    with pytest.raises(CapExceededError):
        check_equation(Equation.of("wide", f, f), C2, mode="sampled")


def test_sampled_work_cap_counts_samples_times_table_entries(monkeypatch):
    f, g = Sym(Symbol("f", 2)), Sym(Symbol("g", 1))
    eq = Equation.of("two", f, f)
    eq2 = Equation.of("three", Comp(g, f), Comp(g, f))
    monkeypatch.setattr(cpo_model, "MAX_SAMPLED_ENTRIES", 3 * 9)
    assert check_equation(eq, C3, mode="sampled", samples=3).interpretations_checked == 3
    with pytest.raises(CapExceededError):
        check_equation(eq, C3, mode="sampled", samples=4)
    # every symbol's table counts: 2 samples of 9 + 3 entries fit, 3 do not
    assert check_equation(eq2, C3, mode="sampled", samples=2).holds
    with pytest.raises(CapExceededError):
        check_equation(eq2, C3, mode="sampled", samples=3)


def test_exhaustive_work_cap_counts_interpretations_times_table_entries(monkeypatch):
    # 175 monotone f of arity 2 on chain(3), 9 entries each: 1,575 entries
    # under a cap of 1,000 are refused whichever mode the threshold picks,
    # and 3 samples of 9 entries fit
    f = Sym(Symbol("f", 2))
    eq = Equation.of("two", f, f)
    assert interpretation_count(eq, C3, 1000) == 175
    monkeypatch.setattr(cpo_model, "MAX_SAMPLED_ENTRIES", 1000)
    for mode in ("auto", "exhaustive"):
        with pytest.raises(CapExceededError):
            check_equation(eq, C3, mode=mode)
    assert check_equation(eq, C3, mode="sampled", samples=3).interpretations_checked == 3


def test_table_sizes_are_checked_before_interpretations_are_counted(monkeypatch):
    def counted(*args):
        raise AssertionError("interpretations counted before the table sizes were checked")

    monkeypatch.setattr(cpo_model, "interpretation_count", counted)
    f = Sym(Symbol("f", 10_000))
    for mode in ("auto", "exhaustive"):
        with pytest.raises(CapExceededError):
            check_equation(Equation.of("vast", f, f), C2, mode=mode)


@pytest.mark.parametrize("eq", [
    Equation.of("vast symbol", Sym(Symbol("f", 10**9)), Sym(Symbol("f", 10**9))),
    Equation.of("vast projection", Proj(1, 10**9), Proj(1, 10**9)),
], ids=["symbol", "projection"])
def test_refusal_of_a_vast_table_takes_no_power_past_the_cap(eq):
    # 2^(10^9) has about 3 * 10^8 digits and takes seconds to compute:
    # neither taken nor printed
    import time

    start = time.perf_counter()
    with pytest.raises(CapExceededError) as refused:
        check_equation(eq, C2)
    assert time.perf_counter() - start < 0.5
    assert len(str(refused.value)) < 200


def _widest_source(m) -> int:
    """The largest source of a subterm of m: its tables have |P|^s entries
    per interpretation."""
    parts = {Tup: lambda t: t.parts, Comp: lambda t: (t.g, t.f),
             Dagger: lambda t: (t.body,)}.get(type(m), lambda t: ())(m)
    return max([m.source, *map(_widest_source, parts)])


@pytest.mark.parametrize("poset", [C2, C3], ids=["chain2", "chain3"])
def test_library_exhaustive_work_fits_the_cap(poset):
    # headroom: at the default threshold every library identity that is
    # checked exhaustively evaluates at most MAX_SAMPLED_ENTRIES entries
    threshold = cpo_model.DEFAULT_EXHAUSTIVE_THRESHOLD
    exhaustive = 0
    for eq in conway_library():
        count = interpretation_count(eq, poset, threshold)
        if count > threshold:
            continue
        exhaustive += 1
        entries = sum(poset.size ** s.in_arity for s in eq.symbols)
        widest = poset.size ** max(_widest_source(eq.lhs), _widest_source(eq.rhs))
        assert count * max(entries, widest) <= cpo_model.MAX_SAMPLED_ENTRIES, eq.name
    assert exhaustive > 0


@pytest.mark.parametrize("poset, arity", [(C2, 10), (C3, 7)])
def test_wide_symbol_gets_a_verdict(poset, arity):
    # |P|^arity table entries, far past the interpreter's recursion limit
    f = Sym(Symbol("f", arity))
    r = check_equation(Equation.of("wide", f, f), poset, threshold=10, samples=3)
    assert r.holds
    assert r.strategy == "sampled"
    assert r.interpretations_checked == 3


@pytest.mark.parametrize("text, k", WIDE_TERMS, ids=["chain12", "chain30"])
def test_wide_term_tables_are_refused_at_once(text, k):
    script = f"""
import time
from fpal.cpo_model import chain, check_equation
from fpal.errors import CapExceededError
from fpal.term import parse_equation
eq, poset = parse_equation({text!r}), chain({k})
start = time.perf_counter()
try:
    check_equation(eq, poset)
except CapExceededError:
    print(time.perf_counter() - start)
"""
    proc = run_limited(script)
    assert proc.returncode == 0, proc.stderr[-400:]
    assert float(proc.stdout) < 1.0
