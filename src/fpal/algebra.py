"""Transition monoids and enough finite group theory to identify their
simple divisors.

The monoid of an automaton is the set of word-induced state maps, with
``x * y`` meaning "apply x, then y".  A simple group S divides a monoid M
when S is a quotient of some subsemigroup of M that happens to be a group;
equivalently, S is a composition factor of a subgroup of one of the
maximal subgroups sitting at the idempotents of M.  Everything here is
brute force over explicit tables, guarded by size caps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .automaton import (
    DEFAULT_MONOID_CAP,
    Automaton,
    Transformation,
    _transformation_closure,
)
from .errors import CapExceededError

DEFAULT_SUBGROUP_CAP = 1024

# Entries kept by each of the module's caches: a few times the distinct
# group tables (76) and monoids (61) that one pass of perfbench's
# divisors-groups workload creates, so such a pass evicts nothing.
SUBGROUP_CACHE_SIZE = 256
MONOID_CACHE_SIZE = 256


def _remember(cache: dict, key, value, maxsize: int):
    """Store ``value`` in a dict used as a bounded cache, dropping the
    oldest entry when it is full."""
    if len(cache) >= maxsize:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per row, the row's bytes, so that two rows share a
    key only when they are equal.  (Reading a row as a base-n integer
    wraps an int64 from 16 states on.)"""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


class TransformationMonoid:
    """All transformations induced by words of an automaton.

    Elements are sorted by their state maps; each carries a shortest
    witness word (ties broken toward earlier letters).  The product table
    is built lazily.
    """

    def __init__(self, elements, witnesses, letters):
        self.elements = tuple(elements)
        self.witnesses = tuple(witnesses)
        self.letters = tuple(letters)
        ident = Transformation.identity(self.elements[0].n)
        if ident not in self.elements:
            raise ValueError("transformation monoid must contain the identity")
        self.identity_index = self.elements.index(ident)
        self._table = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def n_states(self) -> int:
        return self.elements[0].n

    def product(self, i: int, j: int) -> int:
        """Index of element i followed by element j."""
        return int(self.table[i, j])

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            maps = np.array([t.map for t in self.elements], dtype=np.int64) - 1
            keys = _row_keys(maps)
            sort = np.argsort(keys)
            sorted_keys = keys[sort]
            table = np.empty((self.order, self.order), dtype=np.int32)
            for i in range(self.order):
                composed = maps[:, maps[i]]  # row j is "element i, then element j"
                pos = np.searchsorted(sorted_keys, _row_keys(composed))
                table[i] = sort[pos]
            self._table = table
        return self._table

    def element_key(self) -> tuple:
        return tuple(t.map for t in self.elements)


def transition_monoid(q: Automaton, cap: int = DEFAULT_MONOID_CAP) -> TransformationMonoid:
    """Breadth-first closure of the letter actions under composition."""
    witness = _transformation_closure(q, cap)
    elements = sorted(witness, key=lambda t: t.map)
    return TransformationMonoid(elements, [witness[t] for t in elements], q.letters)


def idempotents(m: TransformationMonoid) -> list:
    return [i for i in range(m.order) if m.product(i, i) == i]


# ---------------------------------------------------------------------------
# finite groups as explicit tables


class FiniteGroup:
    """A finite group given by its multiplication table (index based).

    ``labels`` names the elements; subgroups of a monoid's maximal
    subgroups carry monoid element indices, quotients carry coset labels.
    """

    def __init__(self, table, labels=None):
        self.table = np.asarray(table, dtype=np.int32)
        if self.table.ndim != 2 or self.table.shape[0] != self.table.shape[1]:
            raise ValueError("group table must be square")
        self.order = int(self.table.shape[0])
        if self.order < 1:
            raise ValueError("group must have at least one element")
        self.labels = tuple(labels) if labels is not None else tuple(range(self.order))
        if len(self.labels) != self.order:
            raise ValueError("label count differs from group order")
        idx = np.arange(self.order)
        ident = [e for e in range(self.order)
                 if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx)]
        if len(ident) != 1:
            raise ValueError("table has no two-sided identity")
        self.identity = ident[0]
        self._check_basic()
        self._inverse = None

    def _check_basic(self):
        if self.table.min() < 0 or self.table.max() >= self.order:
            raise ValueError("table entries out of range")
        # Latin square: every row and column is a permutation.
        idx = np.arange(self.order)
        if not (np.array_equal(np.sort(self.table, axis=1), np.broadcast_to(idx, self.table.shape))
                and np.array_equal(np.sort(self.table, axis=0), np.broadcast_to(idx[:, None], self.table.shape))):
            raise ValueError("table rows and columns must be permutations")
        if not np.all(np.any(self.table == self.identity, axis=1)):
            raise ValueError("some element has no inverse")

    def check_associative(self) -> bool:
        """Full associativity check; cubic, so only sensible for small
        orders."""
        t = self.table
        return bool(np.array_equal(t[t, :], t[:, t]))

    @property
    def inverse(self) -> np.ndarray:
        if self._inverse is None:
            rows, cols = np.nonzero(self.table == self.identity)
            inv = np.empty(self.order, dtype=np.int32)
            inv[rows] = cols
            self._inverse = inv
        return self._inverse

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = int(self.table[x, i])
            k += 1
        return k

    def element_orders(self) -> tuple:
        return tuple(sorted(self.element_order(i) for i in range(self.order)))

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n)


def group_from_permutations(perms) -> FiniteGroup:
    """Close a set of permutations (1-based image tuples) under
    composition and present the result as a FiniteGroup.  Labels are the
    permutations themselves, sorted."""
    gens = [tuple(p) for p in perms]
    if not gens:
        raise ValueError("need at least one permutation")
    n = len(gens[0])
    ident = tuple(range(1, n + 1))
    for p in gens:
        if sorted(p) != list(ident):
            raise ValueError(f"{p} is not a permutation of [1..{n}]")
    seen = {ident}
    frontier = deque([ident])
    while frontier:
        p = frontier.popleft()
        for g in gens:
            q = tuple(g[v - 1] for v in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    elements = sorted(seen)
    index = {p: i for i, p in enumerate(elements)}
    table = np.empty((len(elements), len(elements)), dtype=np.int32)
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            table[i, j] = index[tuple(q[v - 1] for v in p)]
    return FiniteGroup(table, labels=elements)


def symmetric_group(n: int) -> FiniteGroup:
    if n == 1:
        return cyclic_group(1)
    cycle = tuple(list(range(2, n + 1)) + [1])
    swap = tuple([2, 1] + list(range(3, n + 1)))
    return group_from_permutations([cycle, swap])


def _rank(t: Transformation) -> int:
    return len(set(t.map))


def maximal_subgroup_at(m: TransformationMonoid, e: int) -> FiniteGroup:
    """The group of invertible elements of e M e, the largest group inside
    the monoid whose unit is the idempotent e.  These are the elements of
    e M e with the rank of e: such an x permutes the image of e, so some
    power of x is e."""
    if m.product(e, e) != e:
        raise ValueError(f"element {e} is not idempotent")
    table = m.table
    rank = _rank(m.elements[e])
    units = np.array(
        [x for x in np.unique(table[table[e], e]).tolist() if _rank(m.elements[x]) == rank]
    )
    return FiniteGroup(np.searchsorted(units, table[np.ix_(units, units)]),
                       labels=units.tolist())


# ---------------------------------------------------------------------------
# subgroup enumeration

_subgroup_cache: dict = {}


def _closure(table: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Smallest set containing ``seed`` and closed under the table.  Inside
    a finite group this is the generated subgroup."""
    cur = np.unique(seed)
    while True:
        prods = np.unique(table[np.ix_(cur, cur)])
        merged = np.union1d(cur, prods)
        if merged.size == cur.size:
            return cur
        cur = merged


def all_subgroup_sets(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> tuple:
    """Every subgroup, as a sorted tuple of element indices.  Subgroups are
    generated by repeatedly joining with cyclic subgroups, which reaches
    everything because each subgroup is reachable from a maximal chain."""
    if g.order > cap:
        raise CapExceededError(
            f"subgroup enumeration cap {cap} exceeded by group of order {g.order}"
        )
    key = g.table.tobytes()
    cached = _subgroup_cache.get(key)
    if cached is not None:
        return cached
    table = g.table
    cyclics = {}
    for x in range(g.order):
        orbit = [g.identity]
        y = x
        while y != g.identity:
            orbit.append(y)
            y = int(table[y, x])
        arr = np.unique(np.array(orbit, dtype=np.int64))
        cyclics[arr.tobytes()] = arr
    cyclic_list = list(cyclics.values())
    found = dict(cyclics)
    queue = deque(cyclic_list)
    while queue:
        h = queue.popleft()
        h_set = set(h.tolist())
        for c in cyclic_list:
            if all(v in h_set for v in c.tolist()):
                continue
            k = _closure(table, np.concatenate([h, c]))
            kb = k.tobytes()
            if kb not in found:
                found[kb] = k
                queue.append(k)
    out = sorted((tuple(int(v) for v in arr) for arr in found.values()), key=lambda t: (len(t), t))
    return _remember(_subgroup_cache, key, tuple(out), SUBGROUP_CACHE_SIZE)


def _conjugacy_classes(g: FiniteGroup, subgroup_sets) -> list:
    """Partition subgroup index-sets into conjugacy classes."""
    table, inv = g.table, g.inverse
    by_key = {}
    for sub in subgroup_sets:
        arr = np.array(sub, dtype=np.int64)
        seenclass = set()
        for x in range(g.order):
            conj = np.sort(table[table[x, arr], inv[x]])
            seenclass.add(tuple(int(v) for v in conj))
        rep = min(seenclass)
        by_key.setdefault(rep, seenclass)
    return [sorted(cls) for _, cls in sorted(by_key.items())]


def subgroup_from_indices(g: FiniteGroup, indices) -> FiniteGroup:
    """Present a subset of ``g`` closed under multiplication as its own
    group, with the parent's labels carried over."""
    indices = sorted(indices)
    pos = {x: i for i, x in enumerate(indices)}
    try:
        table = [[pos[int(g.table[x, y])] for y in indices] for x in indices]
    except KeyError:
        raise ValueError("index set is not closed under multiplication") from None
    return FiniteGroup(table, labels=[g.labels[x] for x in indices])


def subgroups(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> list:
    """One representative subgroup per conjugacy class, ordered by size
    then by element set."""
    classes = _conjugacy_classes(g, all_subgroup_sets(g, cap))
    reps = sorted((cls[0] for cls in classes), key=lambda t: (len(t), t))
    return [subgroup_from_indices(g, rep) for rep in reps]


def normal_subgroup_sets(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> list:
    """Index-sets of normal subgroups: the conjugacy classes of size 1."""
    classes = _conjugacy_classes(g, all_subgroup_sets(g, cap))
    return sorted((cls[0] for cls in classes if len(cls) == 1), key=lambda t: (len(t), t))


def normal_subgroups(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> list:
    return [subgroup_from_indices(g, s) for s in normal_subgroup_sets(g, cap)]


def quotient(g: FiniteGroup, n: FiniteGroup) -> FiniteGroup:
    """The quotient of ``g`` by a normal subgroup given as a FiniteGroup
    whose labels identify elements of ``g``."""
    label_pos = {lab: i for i, lab in enumerate(g.labels)}
    try:
        n_idx = sorted(label_pos[lab] for lab in n.labels)
    except KeyError:
        raise ValueError("subgroup labels do not identify elements of the parent") from None
    return _quotient_by_indices(g, n_idx)


def _quotient_by_indices(g: FiniteGroup, n_idx) -> FiniteGroup:
    arr = np.array(sorted(n_idx), dtype=np.int64)
    table, inv = g.table, g.inverse
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
    k = len(cosets)
    qtable = np.empty((k, k), dtype=np.int32)
    for a, mem_a in enumerate(cosets):
        for b, mem_b in enumerate(cosets):
            qtable[a, b] = coset_of[int(table[mem_a[0], mem_b[0]])]
    labels = [tuple(g.labels[v] for v in mem) for mem in cosets]
    return FiniteGroup(qtable, labels=labels)


def is_simple(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> bool:
    """Nontrivial with no proper nontrivial normal subgroup.  The trivial
    group is not simple."""
    if g.order < 2:
        return False
    return len(normal_subgroup_sets(g, cap)) == 2


# ---------------------------------------------------------------------------
# simple groups and composition factors


@dataclass(frozen=True, order=True)
class SimpleGroupId:
    """Identity of a simple group: its order together with the multiset of
    element orders.  This pair separates all simple groups of order up to
    20160, where the classical order collision is split by element orders.
    The name is display only."""

    order: int
    element_orders: tuple
    name: str | None = field(default=None, compare=False)

    def __str__(self) -> str:
        if self.name:
            return self.name
        eo = ",".join(map(str, self.element_orders))
        return f"simple_{self.order}[{eo}]"

    def to_json(self) -> dict:
        out = {"order": self.order}
        if self.name:
            out["name"] = self.name
        out["element_orders"] = list(self.element_orders)
        return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


_NONABELIAN_SIMPLE_NAMES = {
    60: "A_5",
    168: "PSL(2,7)",
    360: "A_6",
    504: "PSL(2,8)",
    660: "PSL(2,11)",
    1092: "PSL(2,13)",
    2448: "PSL(2,17)",
    2520: "A_7",
    3420: "PSL(2,19)",
    4080: "PSL(2,16)",
    5616: "PSL(3,3)",
    6048: "PSU(3,3)",
    6072: "PSL(2,23)",
    7800: "PSL(2,25)",
    7920: "M_11",
    9828: "PSL(2,27)",
    12180: "PSL(2,29)",
    14880: "PSL(2,31)",
}


def _simple_name(order: int, element_orders: tuple) -> str | None:
    if _is_prime(order):
        return f"C_{order}"
    if order == 20160:
        # The one order below 20161 shared by two simple groups; the
        # alternating one has elements of order 15, the linear one does not.
        return "A_8" if 15 in element_orders else "PSL(3,4)"
    return _NONABELIAN_SIMPLE_NAMES.get(order)


def _fingerprint_unchecked(g: FiniteGroup) -> SimpleGroupId:
    orders = g.element_orders()
    return SimpleGroupId(g.order, orders, _simple_name(g.order, orders))


def fingerprint(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> SimpleGroupId:
    """Fingerprint of a simple group; rejects non-simple input."""
    if not is_simple(g, cap):
        raise ValueError(f"group of order {g.order} is not simple")
    return _fingerprint_unchecked(g)


def _maximal_proper_normals(g: FiniteGroup, cap: int) -> list:
    """Proper normal subgroups maximal under inclusion; quotients by these
    are exactly the simple quotients."""
    normals = [s for s in normal_subgroup_sets(g, cap) if len(s) < g.order]
    sets = [set(s) for s in normals]
    out = []
    for i, s in enumerate(normals):
        if any(j != i and sets[i] < sets[j] for j in range(len(normals))):
            continue
        out.append(s)
    return out


def composition_factors(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP, rng=None) -> tuple:
    """Multiset (sorted tuple) of simple factor fingerprints of any maximal
    normal series.  The default tie-break takes the largest maximal normal
    subgroup, then the least element set; pass ``rng`` to randomize the
    choice (the result is the same multiset either way)."""
    if g.order == 1:
        return ()
    candidates = sorted(_maximal_proper_normals(g, cap), key=lambda s: (-len(s), s))
    chosen = candidates[0] if rng is None else candidates[rng.randrange(len(candidates))]
    top = _fingerprint_unchecked(_quotient_by_indices(g, chosen))
    rest = composition_factors(subgroup_from_indices(g, chosen), cap, rng)
    return tuple(sorted(rest + (top,)))


@dataclass(frozen=True)
class DivisorWitness:
    """Where a simple divisor was found: a subgroup K and a normal subgroup
    N of K with K/N of the right fingerprint.  Indices refer to monoid
    elements when the search started from a monoid (then ``idempotent`` is
    the unit of the maximal subgroup searched), otherwise to group
    elements."""

    subgroup: tuple
    normal: tuple
    idempotent: int | None = None
    idempotent_word: tuple | None = None

    def to_json(self) -> dict:
        out = {"subgroup": list(self.subgroup), "normal": list(self.normal)}
        if self.idempotent is not None:
            out["idempotent"] = self.idempotent
            out["idempotent_word"] = list(self.idempotent_word or ())
        return out


def _group_divisors_with_witnesses(g: FiniteGroup, cap: int) -> dict:
    """Simple divisors of a group, which are the simple quotients of its
    subgroups, each with the first (subgroup, maximal normal subgroup)
    pair found.  Conjugate subgroups have the same quotients, so one
    subgroup per conjugacy class is scanned."""
    witnesses: dict = {}
    for k in subgroups(g, cap):
        for n_set in sorted(_maximal_proper_normals(k, cap), key=lambda s: (len(s), s)):
            fp = _fingerprint_unchecked(_quotient_by_indices(k, n_set))
            if fp not in witnesses:
                witnesses[fp] = DivisorWitness(
                    subgroup=k.labels,
                    normal=tuple(k.labels[i] for i in n_set),
                )
    return witnesses


def simple_divisors_group(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> set:
    """All simple groups dividing ``g``: quotients of subgroups of ``g``."""
    return set(_group_divisors_with_witnesses(g, cap))


class _IdempotentWalk(NamedTuple):
    subgroup_orders: tuple  # order of the maximal subgroup at each idempotent
    witnesses: MappingProxyType  # simple divisor -> DivisorWitness, sorted


_walk_cache: dict = {}


def _walk_idempotents(m: TransformationMonoid, cap: int) -> _IdempotentWalk:
    """Build the maximal subgroup at each idempotent once and collect its
    order and its simple divisors.  Every group inside a monoid sits in
    the maximal subgroup at its unit, so the union over idempotents of the
    group divisors is the monoid's divisor set.  Cached per monoid."""
    key = (m.element_key(), cap)
    cached = _walk_cache.get(key)
    if cached is not None:
        return cached
    orders = []
    out: dict = {}
    for e in idempotents(m):
        h = maximal_subgroup_at(m, e)
        orders.append(h.order)
        for fp, w in _group_divisors_with_witnesses(h, cap).items():
            if fp not in out:
                out[fp] = replace(w, idempotent=e, idempotent_word=m.witnesses[e])
    walk = _IdempotentWalk(tuple(orders), MappingProxyType(dict(sorted(out.items()))))
    return _remember(_walk_cache, key, walk, MONOID_CACHE_SIZE)


def divisor_witnesses_monoid(
    m: TransformationMonoid, cap: int = DEFAULT_SUBGROUP_CAP
) -> MappingProxyType:
    """Simple divisors of a monoid with witnesses, as a read-only mapping
    in divisor order."""
    return _walk_idempotents(m, cap).witnesses


def simple_divisors_monoid(
    m: TransformationMonoid, cap: int = DEFAULT_SUBGROUP_CAP
) -> set:
    return set(divisor_witnesses_monoid(m, cap))


def divides(s: SimpleGroupId, m: TransformationMonoid,
            cap: int = DEFAULT_SUBGROUP_CAP) -> tuple:
    """Whether the simple group ``s`` divides the monoid, with a witness."""
    w = divisor_witnesses_monoid(m, cap).get(s)
    return (w is not None, w)


# ---------------------------------------------------------------------------
# report


def algebra_report(m: TransformationMonoid, cap: int = DEFAULT_SUBGROUP_CAP) -> dict:
    """JSON-ready summary: order, idempotents, maximal subgroup orders and
    the sorted simple divisors with their witnesses."""
    walk = _walk_idempotents(m, cap)
    return {
        "order": m.order,
        "idempotents": len(walk.subgroup_orders),
        "maximal_subgroup_orders": list(walk.subgroup_orders),
        "simple_divisors": [
            {**fp.to_json(), "witness": w.to_json()} for fp, w in walk.witnesses.items()
        ],
    }
