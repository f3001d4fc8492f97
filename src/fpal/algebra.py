"""Transition monoids and enough finite group theory to identify their
simple divisors.

The monoid of an automaton is the set of word-induced state maps, with
``x * y`` meaning "apply x, then y"; the maps are kept in the form of
``automaton.map_form`` and composed on demand, with no product table.
A simple group S divides a monoid M when S is a quotient of some
subsemigroup of M that happens to be a group; equivalently, S is a
quotient K/N of a subgroup K of one of the maximal subgroups H sitting at
the idempotents of M.  Idempotents with the same image or the same kernel
have isomorphic maximal subgroups, so one H is looked at per class of
them.  The cyclic divisors C_p of H are the primes p dividing |H|
(Cauchy).  A group of order under 60, or of an order with at most two
primes (Burnside), is solvable, and a cyclic group is abelian; neither
has another divisor, so for such an H the C_p are read off the powers of
its units, composed as maps, and no table is built.  Every other H is
built as an explicit table, its subgroups index sets into that table.
Normal subgroups are joins of the subgroups that conjugacy
classes generate, so no subgroup lattice is ever listed.  A nonabelian
divisor is a quotient of a perfect subgroup, which lies in the solvable
residual of H, found from the classes of commutators: a trivial residual
gives none, one of order 60 is A_5.  A larger residual is searched over
its 2-generated subgroups, and the sections K/N are read off those index
sets.  The searches are guarded by size caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd
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

# Entries kept by the module's cache: a few times the distinct monoids
# (61) that one pass of perfbench's divisors-groups workload creates, so
# such a pass evicts nothing.
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
        rows = tuple(map(tuple, table))
        n = len(rows)
        if n < 1:
            raise ValueError("group must have at least one element")
        if any(len(row) != n for row in rows):
            raise ValueError("group table must be square")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count differs from group order")
        if not all(0 <= v < n for row in rows for v in row):
            raise ValueError("table entries out of range")
        cols = tuple(zip(*rows))
        # Latin square: every row and column is a permutation.
        if any(len(set(line)) != n for line in rows + cols):
            raise ValueError("table rows and columns must be permutations")
        idx = tuple(range(n))
        ident = [e for e in idx if rows[e] == idx and cols[e] == idx]
        if len(ident) != 1:
            raise ValueError("table has no two-sided identity")
        self._fill(rows, cols, ident[0], labels)

    @classmethod
    def _known(cls, rows: tuple, identity: int, labels=None) -> "FiniteGroup":
        """A table that is a group by construction, a tuple of row tuples
        with its identity known, taken without the checks of ``__init__``."""
        g = cls.__new__(cls)
        g._fill(rows, tuple(zip(*rows)), identity, labels)
        return g

    def _fill(self, rows: tuple, cols: tuple, identity: int, labels) -> None:
        self.table = rows
        self.cols = cols
        self.order = len(rows)
        self.labels = tuple(labels) if labels is not None else tuple(range(len(rows)))
        self.identity = identity
        self.inverse = tuple(row.index(identity) for row in rows)

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


def _cayley_table(maps: list, then, padded: list) -> tuple:
    """Row i, column j: the position in ``maps`` of "maps[i], then
    maps[j]", for maps closed under composition."""
    pos = {t: k for k, t in enumerate(maps)}
    return tuple(tuple(pos[then(t, p)] for p in padded) for t in maps)


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


def _units_at(m: TransformationMonoid, e: int) -> list:
    """The members of the maximal subgroup at the idempotent e, ascending:
    the x with the image and the kernel of e.  Among maps with the image
    of e, "e then x" equals x exactly when x also has the kernel of e, so
    one composition per member of the image bucket finds them."""
    then, padded, maps, t_e = m.then, m.padded, m.maps, m.maps[e]
    return [x for x in m.by_image[frozenset(t_e)] if then(t_e, padded[x]) == maps[x]]


def maximal_subgroup_at(m: TransformationMonoid, e: int, units: list | None = None) -> FiniteGroup:
    """The group of invertible elements of e M e, the largest group inside
    the monoid whose unit is the idempotent e, labelled by monoid element
    indices.  ``units`` may pass its members, as ``_units_at`` finds
    them."""
    then, padded, t_e = m.then, m.padded, m.maps[e]
    if then(t_e, padded[e]) != t_e:
        raise ValueError(f"element {e} is not idempotent")
    if units is None:
        units = _units_at(m, e)
    return FiniteGroup._known(_cayley_table([m.maps[x] for x in units], then,
                                            [padded[x] for x in units]),
                              units.index(e), labels=units)


# ---------------------------------------------------------------------------
# subgroups, conjugacy classes and normal subgroups


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise CapExceededError(f"subgroup enumeration cap {cap} exceeded by group of order {order}")


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


def _generate(g: FiniteGroup, seeds, h: tuple | None = None, normal_in: tuple = ()) -> tuple:
    """The subgroup generated by the subgroup ``h`` (trivial by default)
    and ``seeds``, both as (mask, elements, generators); each seed outside
    the subgroup so far joins the generators, and its conjugates by
    ``normal_in`` join the seeds: the normal closure in <normal_in>."""
    rows, cols, inv, e = g.table, g.cols, g.inverse, g.identity
    mask, elems, gens = h or (1 << e, [e], ())
    seeds = list(seeds)
    for z in seeds:
        if not mask >> z & 1:
            gens += (z,)
            mask, elems = _join(rows, cols, e, mask, elems, gens)
            seeds += [rows[rows[inv[s]][z]][s] for s in normal_in]
    return mask, elems, gens


def _orbits(xs, moves) -> list:
    """The orbits meeting ``xs`` of the maps that ``moves`` gives for each
    item, each listed from its first member in ``xs``."""
    seen, out = set(), []
    for x in xs:
        if x not in seen:
            seen.add(x)
            out.append([x])
            for y in out[-1]:
                for z in moves(y):
                    if z not in seen:
                        seen.add(z)
                        out[-1].append(z)
    return out


def _conjugation(g: FiniteGroup, gens):
    """y -> [s^-1 y s for s in gens], whose orbits are classes of <gens>."""
    rows, inv = g.table, g.inverse
    return lambda y: [rows[rows[inv[s]][y]][s] for s in gens]


def _maximal_normals(g: FiniteGroup, k) -> list:
    """The maximal proper normal subgroups of the subgroup K of ``g`` with
    elements ``k``, as sorted index tuples in (size, element set) order;
    the quotients by them are the simple quotients of K.  Every normal
    subgroup of K is the join of the subgroups its K-classes generate, so
    they are grown from the trivial one by joining classes, breadth first;
    a proper one is maximal when every class outside it joins it up to K."""
    whole, _, gens = _generate(g, k)
    classes = _orbits(k, _conjugation(g, gens))
    queue = [_generate(g, ())]
    seen, maximal = {queue[0][0]}, []
    for n in queue:
        joins = [_generate(g, cls, n) for cls in classes if not n[0] >> cls[0] & 1]
        proper = [m for m in joins if m[0] != whole]
        if not proper and n[0] != whole:
            maximal.append(tuple(sorted(n[1])))
        for m in proper:
            if m[0] not in seen:
                seen.add(m[0])
                queue.append(m)
    return sorted(maximal, key=lambda t: (len(t), t))


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


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


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
    _check_cap(g.order, cap)
    return _maximal_normals(g, range(g.order)) == [(g.identity,)]


def fingerprint(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> SimpleGroupId:
    """Fingerprint of a simple group; rejects non-simple input."""
    if not is_simple(g, cap):
        raise ValueError(f"group of order {g.order} is not simple")
    return _section_id(g, range(g.order), (g.identity,))


def composition_factors(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP, rng=None) -> tuple:
    """Multiset (sorted tuple) of simple factor fingerprints of any maximal
    normal series of ``g``.  The default tie-break takes the largest
    maximal normal subgroup, then the least element set; pass ``rng`` to
    randomize the choice (the result is the same multiset either way)."""
    _check_cap(g.order, cap)
    factors = []
    k = tuple(range(g.order))
    while len(k) > 1:
        candidates = sorted(_maximal_normals(g, k), key=lambda s: (-len(s), s))
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


def _surely_solvable(n: int) -> bool:
    """Whether every group of order n is solvable because n is under 60,
    the least order of a nonsolvable group, or because n has at most two
    prime divisors (Burnside)."""
    return n < 60 or len(_prime_factors(n)) <= 2


def _least_cyclic_subgroups(members, step, e: int, need, until_generator: bool = False) -> tuple:
    """For each prime p in ``need``, the least subgroup of order p of the
    group with elements ``members`` (ascending), identity e and product
    ``step(y, x)`` = yx, as a sorted tuple: by Cauchy there is one when p
    divides the order, and as two of them meet only in the identity, it
    is the first one met, walking up from the least element.  Each cyclic
    subgroup is walked once: the powers x^j with j prime to the order of x
    generate the same subgroup as x.  Also whether some element generates
    the group; the walk stops once every p is met and, with
    ``until_generator``, a generator too."""
    least: dict = {}
    done, left, cyclic = set(), set(need), False
    for x in members:
        if not left and (cyclic or not until_generator):
            break
        if x in done:
            continue
        elems, y = [e], x
        while y != e:
            elems.append(y)
            y = step(y, x)
        n = len(elems)
        done.update(y for j, y in enumerate(elems) if gcd(j, n) == 1)
        if n in left:
            left.discard(n)
            least[n] = tuple(sorted(elems))
        cyclic = cyclic or n == len(members)
    return least, cyclic


def _solvable_residual(g: FiniteGroup) -> list | None:
    """The elements of the last term of the derived series of ``g``, or
    None when that term is trivial, that is when ``g`` is solvable.  Each
    derived subgroup K' is generated by the K-classes of the commutators
    of K's generators; the series stops early at an order that
    ``_surely_solvable`` accepts."""
    if _surely_solvable(g.order):
        return None
    rows, inv = g.table, g.inverse
    _, elems, gens = _generate(g, range(g.order))
    while not _surely_solvable(len(elems)):
        commutators = [rows[rows[rows[inv[a]][inv[b]]][a]][b]
                       for i, a in enumerate(gens) for b in gens[:i]]
        _, d_elems, d_gens = _generate(g, commutators, normal_in=gens)
        if len(d_elems) == len(elems):
            return elems
        elems, gens = d_elems, d_gens
    return None


def _nonabelian_witnesses(g: FiniteGroup, residual: list) -> dict:
    """The nonabelian simple divisors of ``g``, whose solvable residual R
    is ``residual``, each with its least subgroup K and the first maximal
    normal subgroup N of K giving it.  K is perfect, so inside R, and
    2-generated: preimages of two generators of K/N (simple groups are
    2-generated) generate a subgroup with quotient K/N.  Each such
    subgroup of R is R-conjugate to a <x, y> with x the first member of
    an R-class, and <x, y> = <x, cy> = <x, yc> for c in <x>.  K is the
    least R-conjugate of the least of these subgroups giving K/N."""
    rows, cols, e = g.table, g.cols, g.identity
    r = sorted(residual)
    conjugate = _conjugation(g, _generate(g, r)[2])
    pairs: dict = {}  # mask -> elements, for orders that allow a perfect group
    for x in (cls[0] for cls in _orbits(r, conjugate) if cls[0] != e):
        c_mask, c_elems, _ = _generate(g, (x,))
        done = c_mask
        for y in r:
            if done >> y & 1:
                continue
            row, col = rows[y], cols[y]
            for c in c_elems:
                done |= 1 << row[c] | 1 << col[c]
            mask, elems = _join(rows, cols, e, c_mask, c_elems, (x, y))
            if not _surely_solvable(len(elems)):
                pairs.setdefault(mask, elems)
    given: dict = {}  # nonabelian simple divisor -> the subgroups giving it, least first
    for elems in sorted(pairs.values(), key=len):
        k = tuple(sorted(elems))
        for n in _maximal_normals(g, k):
            if not _is_prime(len(k) // len(n)):
                given.setdefault(_section_id(g, k, n), []).append(k)

    def conjugates(h):  # of the subgroup h by each generator of R
        return [tuple(sorted(c)) for c in zip(*map(conjugate, h))]

    out = {}
    for fp, ks in given.items():
        k = min(map(min, _orbits([k for k in ks if len(k) == len(ks[0])], conjugates)))
        out[fp] = k, next(n for n in _maximal_normals(g, k) if _section_id(g, k, n) == fp)
    return out


def _group_divisors_with_witnesses(g: FiniteGroup, cap: int) -> dict:
    """Simple divisors of a group, which are the simple quotients of its
    subgroups, each with the least subgroup K in (size, element set) order
    that has it as a quotient and the least maximal normal subgroup N of K
    giving it, in the order a scan of the subgroup lattice in that order
    finds them.  The least K for C_p has order p, with N trivial.  The
    least K for a nonabelian S lies in the solvable residual R of the
    group: with R trivial there is no such S, with R of order 60 (perfect,
    so A_5) K is R itself and S is A_5, and otherwise the 2-generated
    subgroups of R are searched.  Groups above ``cap`` are refused,
    whichever route they would take."""
    _check_cap(g.order, cap)
    rows, e = g.table, g.identity
    least, _ = _least_cyclic_subgroups(range(g.order), lambda y, x: rows[y][x], e,
                                       _prime_factors(g.order))
    found = {_section_id(g, k, (e,)): (k, (e,)) for k in least.values()}
    residual = _solvable_residual(g)
    if residual is not None and len(residual) == 60:
        k = tuple(sorted(residual))
        found[_section_id(g, k, (e,))] = (k, (e,))
    elif residual is not None:
        found.update(_nonabelian_witnesses(g, residual))

    def scan_order(item):
        k, n = item[1]
        return len(k), k, len(n), n

    labels = g.labels
    return {
        fp: DivisorWitness(subgroup=tuple(labels[x] for x in k),
                           normal=tuple(labels[x] for x in n))
        for fp, (k, n) in sorted(found.items(), key=scan_order)
    }


def simple_divisors_group(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> set:
    """All simple groups dividing ``g``: quotients of subgroups of ``g``."""
    return set(_group_divisors_with_witnesses(g, cap))


class _IdempotentWalk(NamedTuple):
    subgroup_orders: tuple  # order of the maximal subgroup at each idempotent
    witnesses: tuple  # (simple divisor, DivisorWitness without its word), sorted


_walk_cache: dict = {}


def _kernel_key(t) -> tuple:
    """The kernel of a map as the first state in each state's kernel
    class."""
    first: dict = {}
    return tuple(first.setdefault(v, x) for x, v in enumerate(t))


def _class_leaders(m: TransformationMonoid, idems: list) -> list:
    """For each idempotent, the least idempotent joined to it by a chain of
    idempotents that share an image or a kernel with the next.  Two
    idempotents e, f with one image satisfy ef = e and fe = f, so they are
    L-related; with one kernel, ef = f and fe = e, so they are R-related.
    Either way they lie in one D-class and have isomorphic maximal
    subgroups."""
    leader: dict = {}

    def find(e):
        while leader[e] != e:
            leader[e] = e = leader[leader[e]]
        return e

    first: dict = {}
    for e in idems:
        leader[e] = e
        t = m.maps[e]
        for key in (frozenset(t), _kernel_key(t)):
            a, b = find(e), find(first.setdefault(key, e))
            leader[max(a, b)] = min(a, b)
    return [find(e) for e in idems]


def _walk_idempotents(m: TransformationMonoid, cap: int) -> _IdempotentWalk:
    """Collect the order of the maximal subgroup at each idempotent and the
    monoid's simple divisors.  Every group inside a monoid sits in the
    maximal subgroup at its unit, so the union over idempotents of the
    group divisors is the monoid's divisor set.  Idempotents are walked in
    index order, and only the least one of each image/kernel class (see
    ``_class_leaders``) is looked at: the groups of a class are
    isomorphic, so a later member would add no divisor, and the first
    idempotent giving each divisor is still a class leader.  The rest of
    the class reuses the leader's order.  A leader above ``cap`` is
    refused as soon as its units give |H|, before its group is built.
    When every group of order |H| is solvable, or H is cyclic, the
    divisors of H are the C_p for the primes p dividing |H| (Cauchy): the
    C_p not found yet are read off the powers of the units, and no table
    is built.  Only the other H are built and searched.  Cached per set of
    maps, which automata with different letters can share, so the
    witnesses name their idempotent by index only."""
    key = (m.element_key(), cap)
    cached = _walk_cache.get(key)
    if cached is not None:
        return cached
    idems = idempotents(m)
    leaders = _class_leaders(m, idems)
    order_of: dict = {}
    out: dict = {}
    for e in sorted(set(leaders)):
        units = _units_at(m, e)
        n = order_of[e] = len(units)
        _check_cap(n, cap)
        # the simple divisors of prime order p in ``out`` are the C_p
        need = set(_prime_factors(n)) - {fp.order for fp in out}
        solvable = _surely_solvable(n)
        least, cyclic = _least_cyclic_subgroups(units, m.product, e, need, not solvable)
        if solvable or cyclic:
            for p, k in least.items():
                out[SimpleGroupId(p, (1,) + (p,) * (p - 1), f"C_{p}")] = DivisorWitness(k, (e,), e)
            continue
        h = maximal_subgroup_at(m, e, units)
        for fp, w in _group_divisors_with_witnesses(h, cap).items():
            if fp not in out:
                out[fp] = replace(w, idempotent=e)
    orders = tuple(order_of[leader] for leader in leaders)
    walk = _IdempotentWalk(orders, tuple(sorted(out.items())))
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
