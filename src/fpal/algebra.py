"""Transition monoids and enough finite group theory to identify their
simple divisors.

The monoid of an automaton is the set of word-induced state maps, with
``x * y`` meaning "apply x, then y"; the maps are kept in the form of
``automaton.map_form`` and composed on demand, with no product table.
A simple group S divides a monoid M when S is a quotient of some
subsemigroup of M that happens to be a group; equivalently, S is a
quotient K/N of a subgroup K of one of the maximal subgroups H sitting at
the idempotents of M.  Each H is an explicit table; its subgroups are
index sets into that table, found by one search of its subgroup lattice,
and every section K/N is read off that lattice and those index sets.  The
searches are guarded by size caps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import NamedTuple

from .automaton import (
    DEFAULT_MONOID_CAP,
    Automaton,
    Transformation,
    _map_closure,
    map_form,
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


class TransformationMonoid:
    """All transformations induced by words of an automaton.

    Elements are the maps of ``map_form``, sorted; each carries a shortest
    witness word (ties broken toward earlier letters).  There is no
    product table: a product is one composition and an index lookup.
    """

    def __init__(self, maps, witnesses, letters):
        self.maps = tuple(maps)
        self.witnesses = tuple(witnesses)
        self.letters = tuple(letters)
        self.n_states = len(self.maps[0])
        encode, pad, self.then = map_form(self.n_states)
        self.padded = tuple(map(pad, self.maps))
        self.index = MappingProxyType({t: i for i, t in enumerate(self.maps)})
        ident = self.index.get(encode(range(self.n_states)))
        if ident is None:
            raise ValueError("transformation monoid must contain the identity")
        self.identity_index = ident
        self._elements = None
        self._by_image = None

    @property
    def order(self) -> int:
        return len(self.maps)

    @property
    def elements(self) -> tuple:
        """The elements as Transformations (1-based), built on first use."""
        if self._elements is None:
            self._elements = tuple(Transformation(tuple(v + 1 for v in t))
                                   for t in self.maps)
        return self._elements

    @property
    def by_image(self) -> MappingProxyType:
        """Element indices, ascending, bucketed by the image of their map."""
        if self._by_image is None:
            buckets: dict = {}
            for i, t in enumerate(self.maps):
                buckets.setdefault(frozenset(t), []).append(i)
            self._by_image = MappingProxyType(
                {im: tuple(xs) for im, xs in buckets.items()})
        return self._by_image

    def product(self, i: int, j: int) -> int:
        """Index of element i followed by element j."""
        return self.index[self.then(self.maps[i], self.padded[j])]

    def element_key(self) -> tuple:
        return self.maps


def transition_monoid(q: Automaton, cap: int = DEFAULT_MONOID_CAP) -> TransformationMonoid:
    """Breadth-first closure of the letter actions under composition."""
    witness = _map_closure(q, cap)
    maps = sorted(witness)
    return TransformationMonoid(maps, [witness[t] for t in maps], q.letters)


def idempotents(m: TransformationMonoid) -> list:
    then = m.then
    return [i for i, (t, p) in enumerate(zip(m.maps, m.padded)) if then(t, p) == t]


# ---------------------------------------------------------------------------
# finite groups as explicit tables


class FiniteGroup:
    """A finite group given by its multiplication table (index based), a
    tuple of row tuples; ``cols`` is the same table read by columns.

    ``labels`` names the elements; subgroups of a monoid's maximal
    subgroups carry monoid element indices, quotients carry coset labels.
    """

    def __init__(self, table, labels=None):
        rows = self.table = tuple(map(tuple, table))
        n = self.order = len(rows)
        if n < 1:
            raise ValueError("group must have at least one element")
        if any(len(row) != n for row in rows):
            raise ValueError("group table must be square")
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise ValueError("label count differs from group order")
        self.cols = tuple(zip(*rows))
        if not all(0 <= v < n for row in rows for v in row):
            raise ValueError("table entries out of range")
        # Latin square: every row and column is a permutation.
        if any(len(set(line)) != n for line in rows + self.cols):
            raise ValueError("table rows and columns must be permutations")
        idx = tuple(range(n))
        ident = [e for e in idx if rows[e] == idx and self.cols[e] == idx]
        if len(ident) != 1:
            raise ValueError("table has no two-sided identity")
        self.identity = e = ident[0]
        self.inverse = tuple(row.index(e) for row in rows)

    def check_associative(self) -> bool:
        """Full associativity check; cubic, so only sensible for small
        orders."""
        t = self.table
        return all(t[ab] == tuple(row[bc] for bc in t[b])
                   for row in t for b, ab in enumerate(row))

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.table[x][i]
            k += 1
        return k

    def element_orders(self) -> tuple:
        return tuple(sorted(self.element_order(i) for i in range(self.order)))

    def is_abelian(self) -> bool:
        return self.table == self.cols


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def _cayley_table(maps: list, then, padded: list) -> list:
    """Row i, column j: the position in ``maps`` of "maps[i], then
    maps[j]", for maps closed under composition."""
    pos = {t: k for k, t in enumerate(maps)}
    return [[pos[then(t, p)] for p in padded] for t in maps]


def _permutation_closure(perms) -> list:
    """The permutations generated by ``perms`` (1-based image tuples), as
    the sorted maps of the monoid they generate, which for permutations
    is the group."""
    gens = [tuple(p) for p in perms]
    if not gens:
        raise ValueError("need at least one permutation")
    n = len(gens[0])
    for p in gens:
        if sorted(p) != list(range(1, n + 1)):
            raise ValueError(f"{p} is not a permutation of [1..{n}]")
    letters = tuple(f"g{k}" for k in range(len(gens)))
    return sorted(_map_closure(Automaton(n, letters, tuple(zip(*gens)))))


def group_from_permutations(perms) -> FiniteGroup:
    """Close a set of permutations (1-based image tuples) under
    composition and present the result as a FiniteGroup.  Labels are the
    permutations themselves, sorted."""
    maps = _permutation_closure(perms)
    _, pad, then = map_form(len(maps[0]))
    return FiniteGroup(_cayley_table(maps, then, [pad(p) for p in maps]),
                       labels=[tuple(v + 1 for v in p) for p in maps])


def symmetric_group(n: int) -> FiniteGroup:
    if n == 1:
        return cyclic_group(1)
    cycle = tuple(list(range(2, n + 1)) + [1])
    swap = tuple([2, 1] + list(range(3, n + 1)))
    return group_from_permutations([cycle, swap])


def maximal_subgroup_at(m: TransformationMonoid, e: int) -> FiniteGroup:
    """The group of invertible elements of e M e, the largest group inside
    the monoid whose unit is the idempotent e.  Its members are the x with
    the image and the kernel of e.  Among maps with the image of e, "e
    then x" equals x exactly when x also has the kernel of e, so one
    composition per member of the image bucket finds them."""
    then, padded, t_e = m.then, m.padded, m.maps[e]
    if then(t_e, padded[e]) != t_e:
        raise ValueError(f"element {e} is not idempotent")
    units = [x for x in m.by_image[frozenset(t_e)] if then(t_e, padded[x]) == m.maps[x]]
    return FiniteGroup(_cayley_table([m.maps[x] for x in units], then,
                                     [padded[x] for x in units]),
                       labels=units)


# ---------------------------------------------------------------------------
# subgroup enumeration

_subgroup_cache: dict = {}


def all_subgroup_sets(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> tuple:
    """Every subgroup, as a sorted tuple of element indices, in (size,
    element set) order.  Subgroups are generated by repeatedly joining
    with cyclic subgroups, which reaches everything because each subgroup
    is reachable from a maximal chain.  During the search a subgroup is
    an integer bitmask over the elements, kept with its element list and
    the generators it was built from."""
    if g.order > cap:
        raise CapExceededError(
            f"subgroup enumeration cap {cap} exceeded by group of order {g.order}"
        )
    cached = _subgroup_cache.get(g.table)
    if cached is not None:
        return cached
    rows, cols, e = g.table, g.cols, g.identity
    found = {}  # mask -> (elements, generators)
    for x in range(g.order):
        elems, mask, y = [e], 1 << e, x
        while y != e:
            elems.append(y)
            mask |= 1 << y
            y = rows[y][x]
        found.setdefault(mask, (elems, (x,)))
    cyclic_gens = [gens[0] for _, gens in found.values()]
    queue = deque(found)
    while queue:
        h = queue.popleft()
        h_elems, h_gens = found[h]
        # <H, x> = <H, y> for every y in Hx or xH: mark those as done
        done = h
        for x in cyclic_gens:
            if done >> x & 1:
                continue
            row, col = rows[x], cols[x]
            for y in h_elems:
                done |= 1 << row[y] | 1 << col[y]
            gens = h_gens + (x,)
            k, k_elems = _join(rows, cols, e, h, h_elems, gens)
            if k not in found:
                found[k] = (k_elems, gens)
                queue.append(k)
    out = sorted((tuple(sorted(elems)) for elems, _ in found.values()),
                 key=lambda t: (len(t), t))
    return _remember(_subgroup_cache, g.table, tuple(out), SUBGROUP_CACHE_SIZE)


def _join(rows, cols, e: int, h: int, h_elems: list, gens: tuple) -> tuple:
    """The subgroup generated by the subgroup H (mask ``h``, elements
    ``h_elems``) and ``gens``, which must include generators of H, as
    (mask, elements).  It grows by whole right cosets Hr: the union of
    the cosets found is closed once each representative r times each
    generator lies in it (Dimino's algorithm)."""
    mask, elems, reps = h, list(h_elems), [e]
    for r in reps:
        row = rows[r]
        for s in gens:
            z = row[s]
            if not mask >> z & 1:
                reps.append(z)
                col = cols[z]
                coset = [col[y] for y in h_elems]
                elems += coset
                for v in coset:
                    mask |= 1 << v
    return mask, elems


def _maximal_normals(g: FiniteGroup, subs, k) -> list:
    """The maximal proper normal subgroups of the subgroup ``k`` of ``g``,
    in the order of ``subs``, the subgroup lattice of ``g``: the members
    of ``subs`` properly inside ``k`` that every element of ``k``
    normalizes, less those inside a larger one.  Quotients by these are
    exactly the simple quotients of ``k``."""
    k_set = set(k)
    table, inv = g.table, g.inverse
    normals = []
    for n in subs:
        if len(n) >= len(k) or not k_set.issuperset(n):
            continue
        n_set = set(n)
        # x y x^-1 for every x in K and y in N
        if all(table[table[x][y]][inv[x]] in n_set for x in k for y in n):
            normals.append(n)
    return [n for i, n in enumerate(normals)
            if not any(set(n) < set(m) for m in normals[i + 1:])]


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


def _section_id(g: FiniteGroup, k, n) -> SimpleGroupId:
    """Fingerprint of the section K/N, for subgroups ``n`` normal in ``k``
    of ``g``, read off the cosets without building a quotient table: the
    order of the coset xN is the least j with x^j in N, and each coset
    has |N| members."""
    n_set, table = set(n), g.table
    orders = []
    for x in k:
        j, y = 1, x
        while y not in n_set:
            y = table[y][x]
            j += 1
        orders.append(j)
    coset_orders = tuple(sorted(orders)[::len(n)])
    order = len(k) // len(n)
    return SimpleGroupId(order, coset_orders, _simple_name(order, coset_orders))


def is_simple(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> bool:
    """Nontrivial with no proper nontrivial normal subgroup.  The trivial
    group is not simple."""
    if g.order < 2:
        return False
    subs = all_subgroup_sets(g, cap)
    return _maximal_normals(g, subs, subs[-1]) == [subs[0]]


def fingerprint(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> SimpleGroupId:
    """Fingerprint of a simple group; rejects non-simple input."""
    if not is_simple(g, cap):
        raise ValueError(f"group of order {g.order} is not simple")
    return _section_id(g, range(g.order), (g.identity,))


def composition_factors(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP, rng=None) -> tuple:
    """Multiset (sorted tuple) of simple factor fingerprints of any maximal
    normal series, walked down the subgroup lattice of ``g``.  The default
    tie-break takes the largest maximal normal subgroup, then the least
    element set; pass ``rng`` to randomize the choice (the result is the
    same multiset either way)."""
    subs = all_subgroup_sets(g, cap)
    factors = []
    k = subs[-1]
    while len(k) > 1:
        candidates = sorted(_maximal_normals(g, subs, k), key=lambda s: (-len(s), s))
        n = candidates[0] if rng is None else candidates[rng.randrange(len(candidates))]
        factors.append(_section_id(g, k, n))
        k = n
    return tuple(sorted(factors))


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
    pair found, subgroups taken in (size, element set) order.  Conjugate
    subgroups have the same quotients, so the first subgroup with a given
    quotient is the least of its conjugacy class."""
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


def simple_divisors_group(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> set:
    """All simple groups dividing ``g``: quotients of subgroups of ``g``."""
    return set(_group_divisors_with_witnesses(g, cap))


class _IdempotentWalk(NamedTuple):
    subgroup_orders: tuple  # order of the maximal subgroup at each idempotent
    witnesses: tuple  # (simple divisor, DivisorWitness without its word), sorted


_walk_cache: dict = {}


def _walk_idempotents(m: TransformationMonoid, cap: int) -> _IdempotentWalk:
    """Build the maximal subgroup at each idempotent once and collect its
    order and its simple divisors.  Every group inside a monoid sits in
    the maximal subgroup at its unit, so the union over idempotents of the
    group divisors is the monoid's divisor set.  Cached per set of maps,
    which automata with different letters can share, so the witnesses
    name their idempotent by index only."""
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
                out[fp] = replace(w, idempotent=e)
    walk = _IdempotentWalk(tuple(orders), tuple(sorted(out.items())))
    return _remember(_walk_cache, key, walk, MONOID_CACHE_SIZE)


def divisor_witnesses_monoid(
    m: TransformationMonoid, cap: int = DEFAULT_SUBGROUP_CAP
) -> MappingProxyType:
    """Simple divisors of a monoid with witnesses, as a read-only mapping
    in divisor order.  Each witness names its idempotent by a word in the
    monoid's own letters."""
    words = m.witnesses
    return MappingProxyType({
        fp: replace(w, idempotent_word=words[w.idempotent])
        for fp, w in _walk_idempotents(m, cap).witnesses
    })


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
    orders = _walk_idempotents(m, cap).subgroup_orders
    return {
        "order": m.order,
        "idempotents": len(orders),
        "maximal_subgroup_orders": list(orders),
        "simple_divisors": [
            {**fp.to_json(), "witness": w.to_json()}
            for fp, w in divisor_witnesses_monoid(m, cap).items()
        ],
    }
