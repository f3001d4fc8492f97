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

C2 = chain(2)
C3 = chain(3)
# bottom 0 below two incomparable elements: not a lattice
V = PosetModel(3, ((1, 1, 1), (0, 1, 0), (0, 0, 1)), 0, "V")
GOLDEN = pathlib.Path(__file__).parent / "golden"


def reference_eval(m, interp: Interpretation) -> TableFn:
    """Oracle: interpret a term by a direct recursive walk, one table per
    node, with each dagger entry iterated from bottom on its own."""
    poset = interp.poset
    size = poset.size
    if isinstance(m, Proj):
        span = size ** (m.n - m.i)
        return TableFn(poset, m.n, 1, [(idx // span) % size for idx in range(size ** m.n)])
    if isinstance(m, Sym):
        fn = interp.by_name[m.symbol.name]
        assert fn.in_arity == m.symbol.in_arity
        return fn
    if isinstance(m, Tup):
        total = size ** m.source
        table = [0] * total
        for part in (reference_eval(p, interp) for p in m.parts):
            scale = size ** part.out_arity
            for idx in range(total):
                table[idx] = table[idx] * scale + part.table[idx]
        return TableFn(poset, m.source, m.target, table)
    if isinstance(m, Comp):
        inner = reference_eval(m.f, interp)
        outer = reference_eval(m.g, interp)
        return TableFn(poset, inner.in_arity, outer.out_arity,
                       [outer.table[v] for v in inner.table])
    if isinstance(m, Dagger):
        body = reference_eval(m.body, interp)
        p = body.in_arity - m.m
        span = size ** p
        bottom = 0
        for _ in range(m.m):
            bottom = bottom * size + poset.bottom
        table = []
        for c in range(size ** p):
            x = bottom
            for _ in range(m.m * (poset.height() - 1) + 2):
                nxt = body.table[x * span + c]
                if nxt == x:
                    break
                x = nxt
            else:
                raise RuntimeError("fixed-point iteration failed to stabilize")
            table.append(x)
        return TableFn(poset, p, m.m, table)
    raise AssertionError(f"cannot evaluate {m!r}")


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


def test_monotone_counts_on_chain2():
    assert count_monotone(C2, 1, 10**6) == 3
    assert count_monotone(C2, 2, 10**6) == 6
    assert count_monotone(C2, 3, 10**6) == 20
    assert count_monotone(C2, 4, 10**6) == 168


def test_monotone_counts_match_bruteforce():
    for poset, arity in [(C2, 1), (C2, 2), (C3, 1), (C2, 3)]:
        expected = brute_force_monotone_count(poset, arity)
        assert count_monotone(poset, arity, 10**6) == expected


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
    for cache in (_cover_preds, _fill_plan, _upper_bounds, count_monotone):
        assert cache.cache_info().maxsize is not None


def test_tablefn_call_and_encoding():
    # binary meet on the 2-chain
    meet = TableFn(C2, 2, 1, [0, 0, 0, 1])
    assert meet((0, 1)) == (0,)
    assert meet((1, 1)) == (1,)
    assert meet.is_monotone()
    not_mono = TableFn(C2, 1, 1, [1, 0])
    assert not not_mono.is_monotone()


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


CORRUPTED = [
    corrupted_fixed_point,
    corrupted_left_zero,
    corrupted_drop_params,
    corrupted_double_dagger,
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


@pytest.mark.parametrize("poset, arity", [(C2, 10), (C3, 7)])
def test_wide_symbol_gets_a_verdict(poset, arity):
    # |P|^arity table entries, far past the interpreter's recursion limit
    f = Sym(Symbol("f", arity))
    r = check_equation(Equation.of("wide", f, f), poset, threshold=10, samples=3)
    assert r.holds
    assert r.strategy == "sampled"
    assert r.interpretations_checked == 3
