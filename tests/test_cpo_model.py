import importlib.util
import itertools
import json
import pathlib
import random

import pytest

from fpal import cpo_model, kernels
from fpal.cli import main
from fpal.cpo_model import (
    PosetModel,
    _cover_preds,
    _decode,
    _encode,
    _fill_plan,
    _monotone_pool,
    _monotone_tables,
    _random_table,
    _upper_bounds,
    chain,
    check_equation,
    count_monotone,
    interpretation_count,
)
from fpal.errors import CapExceededError, ThresholdExceededError
from fpal.kernels import Bytes, Lists, PastAByte, lanes, offsets
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
    parse_equation,
    power,
    render_equation,
    symbols_of,
    tup,
)
from conftest import WIDE_TERMS, run_limited
from oracle import check_one_at_a_time, is_monotone, random_table_by_randrange, reference_eval

C2 = chain(2)
C3 = chain(3)
# the two-element poset with bottom 1: its forced entries are element 0
B1 = PosetModel(2, ((1, 0), (1, 1)), 1, "bottom 1")
# bottom 0 below two incomparable elements: not a lattice
V = PosetModel(3, ((1, 1, 1), (0, 1, 0), (0, 0, 1)), 0, "V")
GOLDEN = pathlib.Path(__file__).parent / "golden"


def brute_force_monotone_count(poset: PosetModel, arity: int) -> int:
    """Oracle: try every table and keep the monotone ones."""
    return sum(is_monotone(poset, arity, table)
               for table in itertools.product(range(poset.size), repeat=poset.size ** arity))


def random_monotone(poset: PosetModel, arity: int, rng: random.Random) -> list:
    """A table of a symbol of this arity, drawn as a sampled check draws it."""
    return _random_table(_fill_plan(poset, arity), _upper_bounds(poset), rng.getrandbits)


def compiled_eval(m, poset: PosetModel, tables: dict, kernel=None) -> list:
    """The table of a term for one interpretation (``tables``, name ->
    list), as the compiled run of a check evaluates it, on a block of
    one: compiled by ``_compile_sides``, which picks the kernel as
    ``check_equation`` does, or by ``_compile`` on ``kernel``."""
    names = list(symbols_of(m))
    slots = {name: k for k, name in enumerate(names)}
    if kernel is None:
        kernel, (run,) = cpo_model._compile_sides([m], poset, slots, 1, [])
    else:
        run = cpo_model._as_run(*cpo_model._compile(m, poset, slots, 1, [], kernel, {})[:2])
    return list(run([kernel.table(tables[name]) for name in names], 1))


def at(table: list, poset: PosetModel, args, out_arity: int = 1) -> tuple:
    """A table's output tuple at an input tuple, both mixed-radix coded."""
    return _decode(table[_encode(args, poset.size)], poset.size, out_arity)


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
    for table in _monotone_tables(C3, 2):
        assert is_monotone(C3, 2, table)
        key = tuple(table)
        assert key not in seen
        seen.add(key)
    assert len(seen) == count_monotone(C3, 2, 10**6)


def test_random_monotone_is_monotone():
    rng = random.Random(99)
    for _ in range(40):
        arity = rng.randint(1, 4)
        assert is_monotone(C3, arity, random_monotone(C3, arity, rng))
    # on V some partial fillings have no allowed value and start over
    for _ in range(40):
        assert is_monotone(V, 2, random_monotone(V, 2, rng))


def test_enumeration_order_is_fixed():
    # exhaustive checks walk this order, so interpretations_checked and the
    # first counterexample depend on it
    assert list(_monotone_tables(C2, 2)) == [
        [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1], [1, 1, 1, 1],
    ]
    assert list(_monotone_tables(V, 1)) == [
        [0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 1, 0], [0, 1, 1], [0, 1, 2],
        [0, 2, 0], [0, 2, 1], [0, 2, 2], [1, 1, 1], [2, 2, 2],
    ]
    assert count_monotone(V, 2, 10**6) == brute_force_monotone_count(V, 2) == 197


def test_model_caches_are_bounded():
    caches = {name: value for module in (cpo_model, kernels)
              for name, value in vars(module).items() if hasattr(value, "cache_info")}
    assert {"offsets", "lanes", "_monotone_pool", "_projection", "_fixed_points"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name


def test_the_bench_empties_the_model_caches():
    spec = importlib.util.spec_from_file_location(
        "algebra_latency", pathlib.Path(__file__).parents[1] / "bench" / "algebra_latency.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    f = Sym(Symbol("f", 2))
    eq = Equation.of("fixed point", Dagger(f, 1), Comp(f, Tup((Dagger(f, 1), Proj(1, 1)), 1)))
    assert check_equation(eq, C2).holds
    caches = (cpo_model._projection, cpo_model._fixed_points, cpo_model._monotone_pool)
    assert all(cache.cache_info().currsize for cache in caches)
    bench.clear_caches()
    assert not any(cache.cache_info().currsize for cache in caches)


def test_cached_projection_tables_are_read_only():
    # bytes on the byte kernel; on lists a tuple, which a compile copies
    # into a list of the check's own
    for kernel, kind in ((kernels.Bytes, bytes), (Lists, tuple)):
        cached = cpo_model._projection(kernel, 3, 2, 9)
        assert (type(cached), list(cached)) == (kind, [0, 1, 2] * 3)
    table = cpo_model._compile(Proj(2, 2), C3, {}, 1, [], Lists, {})[0]
    assert (type(table), table) == (list, [0, 1, 2] * 3)
    table[0] = 2
    assert cpo_model._compile(Proj(2, 2), C3, {}, 1, [], Lists, {})[0] == [0, 1, 2] * 3


def test_a_constant_side_on_lists_compares_as_a_list(monkeypatch):
    # six codes of chain(3) pass a byte, so this check runs on lists; its
    # lhs is the cached table of pi(1,1), and a block of it must be a list
    # to compare equal to the rhs's blocks
    f = Sym(Symbol("f", 1))
    rhs = Comp(Proj(1, 6), Tup((Proj(1, 1),) + (f,) * 5, 1))
    calls = count_list_primitives(monkeypatch)
    for mode in ("exhaustive", "sampled"):
        eq = Equation.of("first of six", Proj(1, 1), rhs)
        assert check_equation(eq, C3, mode, samples=20).holds
    assert calls


def _occurrences(m, seen: dict) -> dict:
    """Every node of a term by identity, as ``id -> [node, occurrences]``."""
    seen.setdefault(id(m), [m, 0])[1] += 1
    for part in {Tup: lambda t: t.parts, Comp: lambda t: (t.g, t.f),
                 Dagger: lambda t: (t.body,)}.get(type(m), lambda t: ())(m):
        _occurrences(part, seen)
    return seen


def test_each_distinct_dagger_is_solved_once_per_block(monkeypatch):
    # the rhs holds dagger(sym(f),1) three times and a 2-dagger twice,
    # each the same object; with the lhs's dagger, three distinct daggers
    # read symbols
    eq = next(eq for eq in conway_library() if eq.name == "pairing[a=1,b=2,c=0]")
    daggers = [k for m, k in _occurrences(eq.rhs, _occurrences(eq.lhs, {})).values()
               if isinstance(m, Dagger) and symbols_of(m)]
    assert (len(daggers), sum(daggers)) == (3, 6)
    # a solve starts from the bottom block, all zeros on chain(2), and
    # never steps from it again; solvers read the step as they start
    solves, blocks = [], []
    step, real_blocks = kernels.Bytes.step, cpo_model._blocks
    monkeypatch.setattr(kernels.Bytes, "step",
                        lambda body, xs, *rest: solves.append(not any(xs)) or step(body, xs, *rest))
    monkeypatch.setattr(cpo_model, "_blocks", lambda *args: (
        blocks.append(n) or (n, tables) for n, tables in real_blocks(*args)))
    # blocks of 3 interpretations
    monkeypatch.setattr(cpo_model, "BLOCK_ENTRIES", 3 * widest(eq, C2))
    run = cpo_model.prepare_check(eq, C2, mode="exhaustive")
    solves.clear()
    assert run().holds and len(blocks) > 1
    assert sum(solves) == len(daggers) * len(blocks)


def test_index_vectors_are_shared_by_the_checks_of_a_process():
    # read-only tuples, since every check of the process reads them,
    # built for the longest block of their shape, whose prefix a block reads
    assert type(offsets(3, 4, 1)) is tuple
    assert len(offsets(3, 4, 1)) == kernels.BLOCK_ENTRIES // 3 * 3
    assert offsets(3, 4, 1)[:9] == (0, 1, 2, 4, 5, 6, 8, 9, 10)
    assert offsets(3, 4, 0)[:6] == (0, 0, 0, 4, 4, 4)
    # a block of one table past the budget reads a vector of its own
    wide = kernels.BLOCK_ENTRIES + 1
    assert offsets(wide, 1, 1) == ()
    assert kernels._block_offsets(1, wide, 1, 1) == tuple(range(wide))
    # on byte lanes, ints whose offsets start over every 256 // stride
    # interpretations
    assert lanes(3, 2, 100, 1).to_bytes(6, "little") == bytes([0, 1, 100, 101, 0, 1])
    # a composition of two symbols and a dagger read lane offsets
    f, g = Sym(Symbol("f", 1)), Sym(Symbol("g", 2))
    eq = Equation.of("fg dagger", Dagger(Comp(f, g), 1), Dagger(Comp(f, g), 1))
    lanes.cache_clear()
    assert check_equation(eq, C3, mode="exhaustive").holds
    first = lanes.cache_info()
    assert first.misses > 0
    assert check_equation(eq, C3, mode="exhaustive").holds
    second = lanes.cache_info()
    assert second.misses == first.misses
    assert second.hits > first.hits


def test_vector_caches_stay_within_their_stated_memory(monkeypatch):
    # every vector a check keeps in a per-process cache has at most
    # BLOCK_ENTRIES entries (a projection at most _PROJECTION_ENTRIES), and
    # no cache passes its maxsize, which bounds each cache's memory as its
    # docstring states
    budget = kernels.BLOCK_ENTRIES
    kept, lists_blocks = {}, set()

    def recording(module, name):
        real = getattr(module, name)
        cache = kept.setdefault(name, (real, []))[1]

        def record(*args):
            cache.append(real(*args))
            return cache[-1]

        record.__wrapped__ = real.__wrapped__
        monkeypatch.setattr(module, name, record)

    for module, name in ((kernels, "offsets"), (kernels, "lanes"),
                         (cpo_model, "_projection"), (cpo_model, "_two_element_closure")):
        getattr(module, name).cache_clear()
        recording(module, name)
    offsets_for_a_block = kernels._block_offsets
    monkeypatch.setattr(kernels, "_block_offsets", lambda n, *shape: (
        lists_blocks.add((n, shape)) or offsets_for_a_block(n, *shape)))
    # the library on byte lanes and on lists, 25 samples ending in a short
    # block for narrow checks, and tables past the budget: f of arity 14 on
    # chain(2), and a dagger of 3^9 parameters on chain(3)
    for eq in library_equations():
        for poset in (C2, C3, chain(4)):
            check_equation(eq, poset, "sampled", samples=25 if poset.size < 4 else 3)
    f = Sym(Symbol("f", 14))
    assert check_equation(Equation.of("past the budget", f, f), C2, "sampled", samples=2).holds
    f = Sym(Symbol("f", 1))
    wide_dagger = Dagger(Comp(f, Proj(1, 10)), 1)
    assert check_equation(Equation.of("wide dagger", wide_dagger, wide_dagger), C3,
                          "sampled", samples=1).holds
    for name, (cache, vectors) in kept.items():
        assert vectors, name
        assert cache.cache_info().currsize <= cache.cache_info().maxsize, name
    assert max(map(len, kept["offsets"][1])) <= budget
    assert max(-(-v.bit_length() // 8) for v in kept["lanes"][1]) <= budget
    assert max(map(len, kept["_projection"][1])) <= cpo_model._PROJECTION_ENTRIES
    for positions, _, steps in kept["_two_element_closure"][1]:
        assert len(positions) <= budget
        assert all(-(-mask.bit_length() // 8) <= budget for _, _, mask in steps)
    # list offsets are keyed by shape alone: one vector serves blocks of
    # every length
    shapes = {shape for _, shape in lists_blocks}
    assert len(lists_blocks) > len(shapes) == kept["offsets"][0].cache_info().misses


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
        assert pool[1] == tuple(map(bytes, _monotone_tables(poset, arity)))


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
    # binary meet on the 2-chain, read at the mixed-radix code of its
    # arguments, the first one most significant
    meet = [0, 0, 0, 1]
    assert at(meet, C2, (0, 1)) == (0,)
    assert at(meet, C2, (1, 1)) == (1,)
    assert [_decode(code, 3, 2) for code in (0, 5, 8)] == [(0, 0), (1, 2), (2, 2)]
    assert is_monotone(C2, 2, meet)
    assert not is_monotone(C2, 1, [1, 0])


def test_lfp_is_least_fixed_point():
    f = Sym(Symbol("f", 1))
    for table in _monotone_tables(C3, 1):
        [x] = compiled_eval(Dagger(f, 1), C3, {"f": table})
        assert table[x] == x
        assert x == min(v for v in range(C3.size) if table[v] == v)


def test_lfp_with_parameters():
    # f(x, y) = y has least fixed point y
    f = [c for _ in range(3) for c in range(3)]
    assert compiled_eval(Dagger(Sym(Symbol("f", 2)), 1), C3, {"f": f}) == [0, 1, 2]


def test_eval_projection_and_tuple():
    swap = compiled_eval(base_from_function([2, 1], 2), C2, {})
    assert at(swap, C2, (0, 1), 2) == (1, 0)
    assert at(swap, C2, (1, 0), 2) == (0, 1)
    ident = compiled_eval(identity(3), C2, {})
    assert at(ident, C2, (1, 0, 1), 3) == (1, 0, 1)
    assert ident == list(range(8))


def test_eval_of_bang_is_empty_output():
    fn = compiled_eval(Tup((), 2), C2, {})
    assert fn == [0] * 4
    assert at(fn, C2, (1, 1), 0) == ()


def test_eval_composition_associates():
    rho = base_from_function([2, 1], 2)
    sigma = base_from_function([1, 1], 2)
    lhs = compiled_eval(Comp(sigma, rho), C3, {})
    inner, outer = compiled_eval(rho, C3, {}), compiled_eval(sigma, C3, {})
    for args in itertools.product(range(3), repeat=2):
        assert at(lhs, C3, args, 2) == at(outer, C3, at(inner, C3, args, 2), 2)


def test_eval_monotone_closure():
    # composite terms evaluated over monotone symbols stay monotone
    rng = random.Random(5)
    tables = {"f": random_monotone(C3, 2, rng), "g": random_monotone(C3, 1, rng)}
    term = Comp(
        Sym(Symbol("g", 1)),
        Tup((Dagger(Sym(Symbol("f", 2)), 1),), 1),
    )
    assert is_monotone(C3, 1, compiled_eval(term, C3, tables))


def test_dagger_eval_matches_pointwise_lfp():
    fsym = Symbol("f", 2)
    for table in _monotone_tables(C3, 2):
        fn = compiled_eval(Dagger(Sym(fsym), 1), C3, {"f": table})
        assert fn == [lfp_scan(table, y) for y in range(3)]


def lfp_scan(table: list, y: int) -> int:
    """The least fixed point of x -> f(x, y) for a table f on chain(3)."""
    x = 0
    for _ in range(10):
        nxt = table[_encode((x, y), 3)]
        if nxt == x:
            return x
        x = nxt
    raise AssertionError("no fixed point reached")


def test_power_eval_iterates_body():
    fsym = Symbol("f", 2)
    # f ignores its parameter and bumps x by one (clamped at the top)
    f = [min(x + 1, 2) for x in range(3) for _ in range(3)]
    p2 = compiled_eval(power(Sym(fsym), 2), C3, {"f": f})
    for x in range(3):
        assert at(p2, C3, (x, 0)) == (min(x + 2, 2),)


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
    cex = check_equation(eq, C2, mode="exhaustive").counterexample
    args = tuple(cex["input"])
    for evaluate in (compiled_eval, reference_eval):
        lhs, rhs = (at(evaluate(side, C2, cex["symbols"]), C2, args, side.target)
                    for side in (eq.lhs, eq.rhs))
        assert lhs == tuple(cex["lhs"])
        assert rhs == tuple(cex["rhs"])
        assert lhs != rhs


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


@pytest.mark.parametrize("kernel", [Bytes, Lists], ids=["bytes", "lists"])
@pytest.mark.parametrize("poset", [C2, C3], ids=["chain2", "chain3"])
def test_eval_matches_reference_oracle(poset, kernel):
    # each side compiled on the given kernel, entry by entry against the
    # oracle; on bytes, a side whose codes or gathered tables pass a byte
    # is refused as it compiles, and lists compile every side
    rng = random.Random(2024 + poset.size)
    past_a_byte = set()
    for eq in library_equations():
        for _ in range(4):
            tables = {s.name: random_monotone(poset, s.in_arity, rng) for s in eq.symbols}
            for side in (eq.lhs, eq.rhs):
                expect = reference_eval(side, poset, tables)
                try:
                    got = compiled_eval(side, poset, tables, kernel)
                except PastAByte:
                    past_a_byte.add(eq.name)
                    continue
                assert got == expect, (eq.name, next(
                    idx for idx, (a, b) in enumerate(zip(got, expect)) if a != b))
    wide = {eq.name for eq in library_equations() if not _within_a_byte(eq, poset.size)}
    assert past_a_byte == (wide if kernel is Bytes else set())
    assert bool(wide) == (poset is C3)


def test_dagger_of_non_monotone_table_raises():
    flip = {"f": [1, 0]}
    term = Dagger(Sym(Symbol("f", 1)), 1)
    for kernel in (None, Bytes, Lists):
        with pytest.raises(RuntimeError):
            compiled_eval(term, C2, flip, kernel)
    with pytest.raises(RuntimeError):
        reference_eval(term, C2, flip)


# -- blocks of interpretations against the one-at-a-time oracle ---------------

# Under a budget of 256 entries, 36 samples of a check whose widest table
# has 8 entries are a block of 32 and a short last block of 4
DIFFERENTIAL_ENTRIES = 256
DIFFERENTIAL_SAMPLES = DIFFERENTIAL_ENTRIES // 8 + 4
DIFFERENTIAL_THRESHOLD = 250


def widest(eq, poset) -> int:
    """The widest table of a check of ``eq`` on ``poset``, or the sum of
    its symbol tables if wider: under a budget of k times it, the check
    runs blocks of k interpretations."""
    widths = [sum(poset.size ** s.in_arity for s in eq.symbols)]
    cpo_model._compile_sides([eq.lhs, eq.rhs], poset,
                             {s.name: k for k, s in enumerate(eq.symbols)}, 1, widths)
    return max(widths)


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
def test_block_checks_match_the_one_at_a_time_oracle(poset, monkeypatch):
    monkeypatch.setattr(cpo_model, "BLOCK_ENTRIES", DIFFERENTIAL_ENTRIES)
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
    assert any(1 < k < DIFFERENTIAL_ENTRIES // 8 for k in refuted_at)


@pytest.mark.parametrize("poset", [C2, C3], ids=["chain2", "chain3"])
def test_block_size_never_changes_a_result(poset, monkeypatch):
    # a block only batches the same interpretations in the same order:
    # blocks of 1, 2 and 3 interpretations and the default budget give
    # every library identity and corrupted equation the same result bytes,
    # sampled and, where the pool is small, exhaustive
    default = cpo_model.BLOCK_ENTRIES
    refuted_late = 0
    for k, eq in enumerate(library_equations()):
        settings = [("sampled", k, 25)]
        if interpretation_count(eq, poset, DIFFERENTIAL_THRESHOLD) <= DIFFERENTIAL_THRESHOLD:
            settings.append(("exhaustive", None, None))
        width = widest(eq, poset)
        for mode, seed, samples in settings:
            results = set()
            for budget in (width, 2 * width, 3 * width, default):
                monkeypatch.setattr(cpo_model, "BLOCK_ENTRIES", budget)
                r = check_equation(eq, poset, mode, seed, samples, DIFFERENTIAL_THRESHOLD)
                results.add(json.dumps(r.to_json()))
            assert len(results) == 1, (eq.name, mode)
            refuted_late += not r.holds and r.interpretations_checked > 3
    assert refuted_late


def test_refutations_in_later_blocks(monkeypatch):
    # with blocks of 3, 40 samples end in a block of one, and refutations
    # fall at every position of blocks after the first
    positions = set()
    for poset in (C2, C3):
        for make in CORRUPTED:
            eq = make()
            monkeypatch.setattr(cpo_model, "BLOCK_ENTRIES", 3 * widest(eq, poset))
            for seed in (1, 2, 3):
                r = assert_matches_oracle(eq, poset, "sampled", seed, samples=40)
                if r.interpretations_checked > 3:
                    positions.add((r.interpretations_checked - 1) % 3)
        for eq in library_equations()[:6] + zero_symbol_equations():
            monkeypatch.setattr(cpo_model, "BLOCK_ENTRIES", 3 * widest(eq, poset))
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
    # one interpretation of f and g on chain(2) holds 2 * 2**a entries,
    # the whole budget
    budget = cpo_model.BLOCK_ENTRIES
    a = budget.bit_length() - 2
    assert 2 * 2 ** a == budget
    f, g = Sym(Symbol("f", a)), Sym(Symbol("g", a))
    eq = Equation.of("wide pair", Comp(g, Tup((f,) * a, a)), Comp(g, Tup((f,) * a, a)))
    assert_matches_oracle(eq, C2, "sampled", 4, samples=3)
    # f of arity 3 on chain(5) has 125 entries
    assert_matches_oracle(corrupted_double_dagger(), chain(5), "sampled", 4, samples=5)
    # the widest table counts too: f of arity 1 on chain(3) has 3 entries,
    # but pi(1,6) and the composition 3^6 = 729 each
    f = Sym(Symbol("f", 1))
    eq = Equation.of("wide term", Comp(f, Proj(1, 6)), Comp(f, Proj(1, 6)))
    assert_matches_oracle(eq, C3, "sampled", 4, samples=3)
    # blocks of 1, of budget // 125 and of budget // 729
    assert sizes == [1, budget // 125, budget // 729]


# single symbols of every arity 0-9, and pairs and triples of mixed arities
TWO_ELEMENT_ARITIES = [(a,) for a in range(10)] + [
    (0, 3), (2, 2), (5, 1), (9, 0), (1, 4, 2), (3, 0, 3), (6, 2, 7), (0, 0, 0),
]


@pytest.mark.parametrize("poset", [C2, B1], ids=["chain2", "bottom1"])
def test_two_element_blocks_match_randrange(poset):
    # the bulk sampler yields the blocks of the tables randrange draws from
    # the same seed, as bytes; 2 * size + 1 samples end in a block of one, and blocks
    # of one draw so few words that later blocks start on carried ones
    bounds = _upper_bounds(poset)
    carried = 0
    for seed, arities in enumerate(TWO_ELEMENT_ARITIES):
        plans = [_fill_plan(poset, a) for a in arities]
        entries = sum(2 ** a for a in arities)
        wide = max(1, cpo_model.BLOCK_ENTRIES // entries)
        for samples, size in ((1, wide), (wide + 1, wide), (2 * wide + 1, wide), (9, 1), (7, 3)):
            ref = random.Random(seed)
            drawn = [[random_table_by_randrange(plan, bounds, ref.randrange) for plan in plans]
                     for _ in range(samples)]
            expect = [
                (len(run), [bytes(itertools.chain.from_iterable(col)) for col in zip(*run)])
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


def _within_a_byte(eq, size: int) -> bool:
    """Whether every subterm of the equation has at most 256 output codes,
    |P|^target, and every table a composition or a dagger gathers from,
    of |P|^source entries for the outer part or the body, at most 256
    entries."""
    def fits(m) -> bool:
        gathered = {Comp: lambda t: (t.g,), Dagger: lambda t: (t.body,)}.get(type(m),
                                                                          lambda t: ())(m)
        parts = {Tup: lambda t: t.parts, Comp: lambda t: (t.g, t.f),
                 Dagger: lambda t: (t.body,)}.get(type(m), lambda t: ())(m)
        return (size ** m.target <= 256 and all(size ** g.source <= 256 for g in gathered)
                and all(map(fits, parts)))

    return fits(eq.lhs) and fits(eq.rhs)


@pytest.mark.parametrize("poset", [C2, C3], ids=["chain2", "chain3"])
def test_shared_subterms_check_as_their_unshared_twins(poset):
    # 80 of these equations share a subterm that reads symbols, by
    # identity, and their rendered and parsed twins share none; exhaustive
    # and two sampled settings give each the same result
    shared = refuted = 0
    for k, eq in enumerate(library_equations()):
        twin = parse_equation(render_equation(eq))
        nodes = _occurrences(eq.rhs, _occurrences(eq.lhs, {})).values()
        shared += any(n > 1 and not isinstance(m, Sym) and symbols_of(m) for m, n in nodes)
        assert all(n == 1 for _, n in _occurrences(twin.rhs, _occurrences(twin.lhs, {})).values())
        settings = [("sampled", k, 25), ("sampled", 1000 + k, 3)]
        if interpretation_count(eq, poset, DIFFERENTIAL_THRESHOLD) <= DIFFERENTIAL_THRESHOLD:
            settings.append(("exhaustive", None, None))
        for mode, seed, samples in settings:
            got, want = (check_equation(e, poset, mode, seed, samples, DIFFERENTIAL_THRESHOLD)
                         .to_json() for e in (eq, twin))
            assert got == want, (eq.name, mode)
            refuted += not got["holds"]
    assert shared == 80 and refuted > 10


def _byte_boundary_equations() -> list:
    """``(equation, poset, within a byte)``: sides that reach code 255 or
    gather from a table of 256 entries, and their twins one past."""
    f, g = Sym(Symbol("f", 1)), Sym(Symbol("g", 1))
    cases = []
    for poset, outputs in ((C2, 8), (C2, 9), (chain(4), 4), (chain(4), 5)):
        lhs = Tup((f,) * outputs, 1)
        rhs = Tup((f,) * (outputs - 1) + (g,), 1)
        cases.append((Equation.of(f"{outputs} outputs", lhs, rhs), poset,
                      poset.size ** outputs <= 256))
    for arity in (8, 9):
        h = Sym(Symbol("h", arity))
        lhs = Comp(h, Tup((f,) * arity, 1))
        rhs = Comp(h, Tup((f,) * (arity - 1) + (Proj(1, 1),), 1))
        cases.append((Equation.of(f"outer source {arity}", lhs, rhs), C2, arity == 8))
        params = tuple(Proj(i, arity - 1) for i in range(1, arity))
        fixed = Comp(h, Tup((Dagger(h, 1),) + params, arity - 1))
        cases.append((Equation.of(f"body source {arity}", Dagger(h, 1), fixed), C2, arity == 8))
    return cases


def count_list_primitives(monkeypatch) -> list:
    """Record every call of a primitive of the list kernel."""
    calls = []
    for name in ("pack", "gather", "step"):
        def counted(*args, primitive=getattr(Lists, name), name=name):
            calls.append(name)
            return primitive(*args)

        monkeypatch.setattr(Lists, name, counted)
    return calls


@pytest.mark.parametrize("case", _byte_boundary_equations(),
                         ids=lambda case: f"{case[0].name} on {case[1].name}")
def test_checks_at_the_byte_boundary_match_the_oracle(case, monkeypatch):
    # a check within a byte runs on bytes, one past it on lists
    eq, poset, within = case
    assert _within_a_byte(eq, poset.size) == within
    calls = count_list_primitives(monkeypatch)
    refuted = False
    for seed in (1, 2):
        refuted |= not assert_matches_oracle(eq, poset, "sampled", seed).holds
        if interpretation_count(eq, poset, DIFFERENTIAL_THRESHOLD) <= DIFFERENTIAL_THRESHOLD:
            assert_matches_oracle(eq, poset, "exhaustive", seed)
    assert refuted == (not eq.name.startswith("body"))
    assert bool(calls) != within


def test_library_checks_on_chain2_run_on_bytes(monkeypatch):
    calls = count_list_primitives(monkeypatch)
    for seed, eq in enumerate(library_equations()):
        check_equation(eq, C2, seed=seed, samples=40)
    assert not calls
    # the same primitives, called through the list kernel, are counted
    check_equation(_byte_boundary_equations()[1][0], C2, samples=3)
    assert calls


def test_library_checks_past_a_byte_on_chain4_match_the_oracle():
    # 12 library identities have a subterm of more than 256 codes or
    # gather from a table of more than 256 entries on chain(4)
    wide = [eq for eq in conway_library() if not _within_a_byte(eq, 4)]
    assert len(wide) == 12
    assert all(_within_a_byte(eq, 2) for eq in conway_library())
    for seed, eq in enumerate(wide):
        assert_matches_oracle(eq, chain(4), "sampled", seed, samples=3)


def test_a_block_with_one_interpretation_not_monotone_is_refused(monkeypatch):
    # the pool's fourth table of f of arity 2 on chain(2) is replaced by a
    # table that is not monotone, and its dagger then has no fixed point
    # to reach: the block holding it is refused as a whole
    f = Sym(Symbol("f", 2))
    eq = Equation.of("fixed point", Dagger(f, 1), Comp(f, Tup((Dagger(f, 1), Proj(1, 1)), 1)))
    assert check_equation(eq, C2, mode="exhaustive").holds
    pool = cpo_model._monotone_pool

    def spoiled(poset, arity, *caps):
        count, tables = pool(poset, arity, *caps)
        flip = type(tables[0])([1, 0, 0, 0])
        return count, tables[:3] + (flip,) + tables[4:]

    monkeypatch.setattr(cpo_model, "_monotone_pool", spoiled)
    with pytest.raises(RuntimeError):
        check_equation(eq, C2, mode="exhaustive")


@pytest.mark.parametrize("poset", [C2, C3], ids=["chain2", "chain3"])
def test_eval_of_arbitrary_tables_matches_the_oracle(poset):
    # tables that need not be monotone: a dagger may then fail to
    # stabilize within its step bound, and both evaluators refuse it
    rng = random.Random(31 + poset.size)
    outcomes = set()
    for eq in library_equations():
        if max((s.in_arity for s in eq.symbols), default=0) > 5:
            continue
        tables = {s.name: [rng.randrange(poset.size) for _ in range(poset.size ** s.in_arity)]
                  for s in eq.symbols}
        for side in (eq.lhs, eq.rhs):
            try:
                expect = reference_eval(side, poset, tables)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    compiled_eval(side, poset, tables)
                outcomes.add("refused")
            else:
                assert compiled_eval(side, poset, tables) == expect, eq.name
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
    lhs = bottom_constant_equation().lhs
    assert lhs.source == 0
    assert compiled_eval(lhs, poset, {"f": list(range(poset.size))}) == [poset.bottom]


@pytest.mark.parametrize("mode", ["auto", "exhaustive", "sampled"])
def test_a_negative_seed_is_refused(mode):
    # Random(-7) repeats Random(7)'s stream, so the result would name a
    # seed it was not drawn from
    eq = power_identity(2, 1)
    with pytest.raises(ValueError, match="seed"):
        cpo_model.prepare_check(eq, C2, mode, seed=-7, samples=5)
    assert check_equation(eq, C2, "sampled", seed=0, samples=5).seed == 0


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
