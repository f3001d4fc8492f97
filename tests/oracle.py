"""Brute-force references for the divisor pipeline, kept out of the
library.  They build the full product table of a monoid where
``fpal.algebra`` composes maps on demand, they enumerate directly what
``fpal.algebra`` derives from the maximal subgroups, and they build
explicit subgroup and quotient tables where ``fpal.algebra`` reads
sections off one subgroup lattice; the tests replay the fast routes
against them."""

from collections import deque

import numpy as np

from fpal.algebra import (
    FiniteGroup,
    SimpleGroupId,
    TransformationMonoid,
    all_subgroup_sets,
)
from fpal.errors import CapExceededError


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
