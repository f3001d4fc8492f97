"""Brute-force references for the divisor pipeline, kept out of the
library.  They build the full product table of a monoid where
``fpal.algebra`` composes maps on demand, they enumerate directly what
``fpal.algebra`` derives from the maximal subgroups, and they build
explicit subgroup and quotient tables where ``fpal.algebra`` reads
sections off one subgroup lattice, and they scan the whole subgroup
lattice for divisor witnesses where ``fpal.algebra`` uses Cauchy's
theorem and the solvable residual, and they search the maximal subgroup
at every image/kernel class leader where ``fpal.algebra`` skips those
that can add no divisor; the tests replay the fast routes against
them.  For the model checker they check an equation one
interpretation at a time, walking each side node by node, where
``fpal.cpo_model`` evaluates compiled sides on blocks of
interpretations."""

import itertools
import random
from collections import deque
from dataclasses import replace

import numpy as np

from fpal.algebra import (
    DEFAULT_SUBGROUP_CAP,
    DivisorWitness,
    FiniteGroup,
    SimpleGroupId,
    TransformationMonoid,
    _class_leaders,
    _group_divisors_with_witnesses,
    _IdempotentWalk,
    _maximal_normals,
    _section_id,
    all_subgroup_sets,
    idempotents,
    maximal_subgroup_at,
)
from fpal.cpo_model import (
    Interpretation,
    TableFn,
    _fill_plan,
    _upper_bounds,
    enumerate_monotone,
)
from fpal.errors import CapExceededError
from fpal.term import Comp, Dagger, Proj, Sym, Tup


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per row, the row's bytes, so that two rows share a
    key only when they are equal.  (Reading a row as a base-n integer
    wraps an int64 from 16 states on.)"""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def product_table(m: TransformationMonoid) -> np.ndarray:
    """The order x order table whose entry (i, j) is the index of element
    i followed by element j, found by sorting the composed maps row by
    row with numpy."""
    maps = np.array([t.map for t in m.elements], dtype=np.int64) - 1
    keys = _row_keys(maps)
    sort = np.argsort(keys)
    sorted_keys = keys[sort]
    table = np.empty((m.order, m.order), dtype=np.int32)
    for i in range(m.order):
        composed = maps[:, maps[i]]  # row j is "element i, then element j"
        pos = np.searchsorted(sorted_keys, _row_keys(composed))
        table[i] = sort[pos]
    return table


def table_idempotents(table: np.ndarray) -> list:
    return [i for i in range(len(table)) if table[i, i] == i]


def closure(table: np.ndarray, seed) -> tuple:
    """Smallest set containing ``seed`` and closed under the table, as a
    sorted index tuple."""
    cur = np.unique(np.asarray(seed, dtype=np.int64))
    while True:
        merged = np.union1d(cur, np.unique(table[np.ix_(cur, cur)]))
        if merged.size == cur.size:
            return tuple(int(v) for v in cur)
        cur = merged


def subgroup_sets(g: FiniteGroup) -> list:
    """Every subgroup of ``g`` as a sorted index tuple, in (size, element
    set) order: the cyclic subgroups, then joins with them, each join
    closed by repeated squaring of the whole set under the table.  The
    reference for ``all_subgroup_sets``."""
    cyclics = set()
    for x in range(g.order):
        orbit, y = [g.identity], x
        while y != g.identity:
            orbit.append(y)
            y = g.table[y][x]
        cyclics.add(tuple(sorted(orbit)))
    cyclic_list = sorted(cyclics)
    table = np.asarray(g.table)
    found = set(cyclic_list)
    queue = deque(cyclic_list)
    while queue:
        h = queue.popleft()
        for c in cyclic_list:
            if set(c) <= set(h):
                continue
            k = closure(table, h + c)
            if k not in found:
                found.add(k)
                queue.append(k)
    return sorted(found, key=lambda t: (len(t), t))


def group_subsemigroups(m: TransformationMonoid, max_order: int = 64) -> list:
    """Every subset of the monoid that is closed under the product and
    forms a group, as sorted index tuples.  Grown from idempotent
    singletons one generator at a time."""
    if m.order > max_order:
        raise CapExceededError(
            f"group subsemigroup enumeration capped at monoid order {max_order}"
        )
    table = product_table(m)

    def is_group(indices) -> bool:
        members = list(indices)
        units = [u for u in members
                 if all(int(table[u, x]) == x and int(table[x, u]) == x for x in members)]
        if len(units) != 1:
            return False
        u = units[0]
        return all(
            any(int(table[x, y]) == u and int(table[y, x]) == u for y in members)
            for x in members
        )

    seeds = [(e,) for e in table_idempotents(table)]
    found = {s: True for s in seeds}
    queue = deque(seeds)
    while queue:
        h = queue.popleft()
        h_set = set(h)
        for x in range(m.order):
            if x in h_set:
                continue
            kt = closure(table, sorted(h_set | {x}))
            if kt in found:
                continue
            if is_group(kt):
                found[kt] = True
                queue.append(kt)
    return sorted(found, key=lambda t: (len(t), t))


def group_from_monoid_indices(m: TransformationMonoid, indices, mt=None) -> FiniteGroup:
    """Present a group subsemigroup of the monoid as a FiniteGroup with
    monoid element indices as labels, read off the product table ``mt``
    (built when not given)."""
    indices = sorted(indices)
    pos = {x: i for i, x in enumerate(indices)}
    if mt is None:
        mt = product_table(m)
    try:
        table = [[pos[int(mt[x, y])] for y in indices] for x in indices]
    except KeyError:
        raise ValueError("index set is not closed under the monoid product") from None
    return FiniteGroup(table, labels=indices)


# ---------------------------------------------------------------------------
# subgroups and quotients as their own tables


def conjugacy_classes(g: FiniteGroup, subgroup_sets) -> list:
    """Partition subgroup index-sets into conjugacy classes, each class
    sorted, the classes ordered by their least member."""
    table, inv = np.asarray(g.table), np.asarray(g.inverse)
    by_key = {}
    for sub in subgroup_sets:
        arr = np.array(sub, dtype=np.int64)
        seenclass = set()
        for x in range(g.order):
            conj = np.sort(table[table[x, arr], inv[x]])
            seenclass.add(tuple(int(v) for v in conj))
        by_key.setdefault(min(seenclass), seenclass)
    return [sorted(cls) for _, cls in sorted(by_key.items())]


def subgroup_from_indices(g: FiniteGroup, indices) -> FiniteGroup:
    """Present a subset of ``g`` closed under multiplication as its own
    group, with the parent's labels carried over."""
    indices = sorted(indices)
    pos = {x: i for i, x in enumerate(indices)}
    try:
        table = [[pos[g.table[x][y]] for y in indices] for x in indices]
    except KeyError:
        raise ValueError("index set is not closed under multiplication") from None
    return FiniteGroup(table, labels=[g.labels[x] for x in indices])


def subgroups(g: FiniteGroup) -> list:
    """One representative subgroup per conjugacy class, ordered by size
    then by element set."""
    classes = conjugacy_classes(g, all_subgroup_sets(g))
    reps = sorted((cls[0] for cls in classes), key=lambda t: (len(t), t))
    return [subgroup_from_indices(g, rep) for rep in reps]


def normal_subgroup_sets(g: FiniteGroup) -> list:
    """Index-sets of normal subgroups: the conjugacy classes of size 1."""
    classes = conjugacy_classes(g, all_subgroup_sets(g))
    return sorted((cls[0] for cls in classes if len(cls) == 1), key=lambda t: (len(t), t))


def normal_subgroups(g: FiniteGroup) -> list:
    return [subgroup_from_indices(g, s) for s in normal_subgroup_sets(g)]


def quotient(g: FiniteGroup, n: FiniteGroup) -> FiniteGroup:
    """The quotient of ``g`` by a normal subgroup given as a FiniteGroup
    whose labels identify elements of ``g``."""
    label_pos = {lab: i for i, lab in enumerate(g.labels)}
    try:
        n_idx = sorted(label_pos[lab] for lab in n.labels)
    except KeyError:
        raise ValueError("subgroup labels do not identify elements of the parent") from None
    return quotient_by_indices(g, n_idx)


def quotient_by_indices(g: FiniteGroup, n_idx) -> FiniteGroup:
    """The quotient table of ``g`` by the normal subgroup with index-set
    ``n_idx``, labelled by cosets."""
    arr = np.array(sorted(n_idx), dtype=np.int64)
    table, inv = np.asarray(g.table), np.asarray(g.inverse)
    for x in range(g.order):
        if not np.array_equal(np.sort(table[table[x, arr], inv[x]]), arr):
            raise ValueError("subgroup is not normal in the parent")
    coset_of = {}
    cosets = []
    for x in range(g.order):
        if x in coset_of:
            continue
        members = tuple(int(v) for v in np.sort(table[x, arr]))
        for v in members:
            coset_of[v] = len(cosets)
        cosets.append(members)
    qtable = [[coset_of[int(table[mem_a[0], mem_b[0]])] for mem_b in cosets]
              for mem_a in cosets]
    labels = [tuple(g.labels[v] for v in mem) for mem in cosets]
    return FiniteGroup(qtable, labels=labels)


def simple_id(q: FiniteGroup) -> SimpleGroupId:
    """The unnamed fingerprint of a group table (names are display only)."""
    return SimpleGroupId(q.order, q.element_orders())


def is_simple(g: FiniteGroup) -> bool:
    return g.order >= 2 and len(normal_subgroup_sets(g)) == 2


def composition_factors(g: FiniteGroup) -> tuple:
    """Factors of a maximal normal series, each quotient built as a table.
    A largest proper normal subgroup is maximal."""
    if g.order == 1:
        return ()
    n = max((s for s in normal_subgroup_sets(g) if len(s) < g.order), key=len)
    top = simple_id(quotient_by_indices(g, n))
    return tuple(sorted(composition_factors(subgroup_from_indices(g, n)) + (top,)))


def simple_divisors_monoid_bruteforce(m: TransformationMonoid) -> set:
    """Fingerprints of all simple quotients of all group subsemigroups,
    enumerated directly rather than through maximal subgroups."""
    out = set()
    for indices in group_subsemigroups(m):
        k = group_from_monoid_indices(m, indices)
        for n_set in normal_subgroup_sets(k):
            q = quotient_by_indices(k, n_set)
            if is_simple(q):
                out.add(simple_id(q))
    return out


def group_divisors_with_witnesses(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> dict:
    """Simple divisors of a group, each with the first (subgroup, maximal
    normal subgroup) pair found by scanning the whole subgroup lattice,
    subgroups taken in (size, element set) order, in the order found.  The
    reference for ``_group_divisors_with_witnesses``."""
    subs = all_subgroup_sets(g, cap)
    witnesses: dict = {}
    for k in subs:
        for n in _maximal_normals(g, subs, k):
            fp = _section_id(g, k, n)
            if fp not in witnesses:
                witnesses[fp] = DivisorWitness(
                    subgroup=tuple(g.labels[x] for x in k),
                    normal=tuple(g.labels[x] for x in n),
                )
    return witnesses


def walk_every_leader(m: TransformationMonoid, cap: int = DEFAULT_SUBGROUP_CAP) -> _IdempotentWalk:
    """The idempotent walk with the maximal subgroup of every image/kernel
    class leader built and searched, uncached.  The reference for
    ``fpal.algebra._walk_idempotents``, which skips the leaders that can
    add no divisor."""
    leaders = _class_leaders(m, idempotents(m))
    order_of: dict = {}
    out: dict = {}
    for e in sorted(set(leaders)):
        h = maximal_subgroup_at(m, e)
        order_of[e] = h.order
        for fp, w in _group_divisors_with_witnesses(h, cap).items():
            if fp not in out:
                out[fp] = replace(w, idempotent=e)
    return _IdempotentWalk(tuple(order_of[leader] for leader in leaders),
                           tuple(sorted(out.items())))


def units_by_inverse_search(table: np.ndarray, e: int) -> list:
    """The invertible elements of e M e, for the product table of M, found
    by trying every pair: the quadratic search that the image and kernel
    test in ``maximal_subgroup_at`` replaces."""
    local = sorted(set(table[table[e], e].tolist()))
    return [x for x in local
            if any(table[x, y] == e and table[y, x] == e for y in local)]


# ---------------------------------------------------------------------------
# an independent route through sympy


def composition_factor_orders_sympy(g: FiniteGroup) -> list:
    """Sorted orders of the composition factors that ``sympy`` finds for
    ``g`` presented as the permutation group of its table rows (row x is
    the map y -> xy, so the rows form a faithful image of ``g``).  sympy
    builds composition series of solvable groups only; a nonsolvable
    group is taken only when it is simple, that is when every nontrivial
    element has the whole group as its normal closure."""
    from sympy.combinatorics import Permutation, PermutationGroup

    group = PermutationGroup([Permutation(list(row)) for row in g.table])
    if not group.is_solvable:
        if any(group.normal_closure(x).order() < group.order()
               for x in group.elements if not x.is_identity):
            raise NotImplementedError("nonsolvable group that is not simple")
        return [group.order()]
    series = group.composition_series()
    return sorted(a.order() // b.order() for a, b in zip(series, series[1:]))


# ---------------------------------------------------------------------------
# model checking, one interpretation at a time


def reference_eval(m, interp: Interpretation) -> TableFn:
    """Interpret a term by a direct recursive walk, one table per node,
    with each dagger entry iterated from bottom on its own."""
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


def random_table_by_randrange(plan: tuple, bounds, randrange) -> list:
    """The sampler's table as ``Random.randrange`` draws it: each entry
    uniformly among the values its predecessors allow, starting over when
    a point has none."""
    while True:
        table = [0] * len(plan)
        for idx, below in plan:
            cand = bounds[below(table)][0]
            if not cand:
                break
            table[idx] = cand[randrange(len(cand))]
        else:
            return table


def check_one_at_a_time(eq, poset, strategy: str, seed: int | None = None,
                        samples: int | None = None) -> tuple:
    """``(holds, interpretations_checked, counterexample)`` of an
    exhaustive or sampled check, evaluating every interpretation on its
    own with ``reference_eval`` and stopping at the first whose sides
    differ."""
    if strategy == "sampled":
        rng = random.Random(seed)
        bounds = _upper_bounds(poset)
        plans = [_fill_plan(poset, s.in_arity) for s in eq.symbols]
        interpretations = (
            [random_table_by_randrange(plan, bounds, rng.randrange) for plan in plans]
            for _ in range(samples)
        )
    else:
        pools = [[fn.table for fn in enumerate_monotone(poset, s.in_arity)]
                 for s in eq.symbols]
        interpretations = itertools.product(*pools)
    points = list(itertools.product(range(poset.size), repeat=eq.lhs.source))
    outputs = list(itertools.product(range(poset.size), repeat=eq.lhs.target))
    checked = 0
    for tables in interpretations:
        checked += 1
        interp = Interpretation(poset, {
            s.name: TableFn(poset, s.in_arity, 1, table)
            for s, table in zip(eq.symbols, tables)
        })
        lhs = reference_eval(eq.lhs, interp).table
        rhs = reference_eval(eq.rhs, interp).table
        if lhs != rhs:
            idx = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            return False, checked, {
                "symbols": {s.name: list(t) for s, t in zip(eq.symbols, tables)},
                "input": list(points[idx]),
                "lhs": list(outputs[lhs[idx]]),
                "rhs": list(outputs[rhs[idx]]),
            }
    return True, checked, None
