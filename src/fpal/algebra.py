"""Transition monoids and enough finite group theory to identify their
simple divisors.

The monoid of an automaton is the set of word-induced state maps, with
``x * y`` meaning "apply x, then y"; the maps are kept in the form of
``automaton.map_form`` and composed on demand, with no product table:
a monoid is its maps, their witness words and what composing and
looking up a product needs, all built when it is made.
A simple group S divides a monoid M when S is a quotient of some
subsemigroup of M that happens to be a group; equivalently, S is a
quotient K/N of a subgroup K of one of the maximal subgroups H sitting at
the idempotents of M.  Idempotents of one D-class, such as those with
one image, have isomorphic maximal subgroups, so one H is looked at per
image, and none where two products put an earlier one in its D-class.
A group is its elements, its identity and its product, all given to its
one constructor, and no table of products is built: the elements of H
are monoid element indices, multiplied by composing their maps, and its
subgroups are index sets.
The cyclic divisors C_p of H are the primes p dividing |H| (Cauchy),
read off the powers of its elements.  A group of order under
60, or of an order with at most two primes (Burnside), is solvable, and
a cyclic group is abelian; neither has another divisor, so for such an
H the search ends there.  Normal subgroups are joins of the subgroups
that conjugacy classes generate, so no subgroup lattice is ever listed.
A nonabelian divisor is a quotient of a perfect subgroup, which lies in
the solvable residual of H, found from the classes of commutators: a
trivial residual gives none, one of order 60 is A_5.  A larger residual
is searched over its 2-generated subgroups, and the sections K/N are
read off those index sets.  The searches are guarded by size caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from math import gcd
from operator import eq
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
    """All transformations induced by words of an automaton, built whole
    when it is made.

    Elements are the maps of ``map_form``, sorted; each carries a shortest
    witness word (ties broken toward earlier letters).  There is no
    product table: a product is one composition and an index lookup.
    ``index`` is a read-only map -> element index dict.
    """

    __slots__ = ("maps", "witnesses", "letters", "n_states", "then", "padded", "index",
                 "identity_index")

    def __init__(self, maps, witnesses, letters):
        self.maps = tuple(maps)
        self.witnesses = tuple(witnesses)
        self.letters = tuple(letters)
        self.n_states = len(self.maps[0])
        encode, pad, self.then, _ = map_form(self.n_states)
        self.padded = tuple(map(pad, self.maps))
        self.index = MappingProxyType(dict(zip(self.maps, count())))
        ident = self.index.get(encode(range(self.n_states)))
        if ident is None:
            raise ValueError("transformation monoid must contain the identity")
        self.identity_index = ident

    @property
    def order(self) -> int:
        return len(self.maps)

    @property
    def elements(self) -> tuple:
        """The elements as Transformations (1-based), built on each read."""
        return tuple(Transformation(tuple(v + 1 for v in t)) for t in self.maps)

    def product(self, i: int, j: int) -> int:
        """Index of element i followed by element j."""
        return self.index[self.then(self.maps[i], self.padded[j])]


def transition_monoid(q: Automaton, cap: int | None = DEFAULT_MONOID_CAP) -> TransformationMonoid:
    """Breadth-first closure of the letter actions under composition."""
    witness = _map_closure(q, cap)
    maps = sorted(witness)
    return TransformationMonoid(maps, map(witness.__getitem__, maps), q.letters)


def idempotents(m: TransformationMonoid) -> list:
    return list(compress(count(), map(eq, m.maps, map(m.then, m.maps, m.padded))))


# ---------------------------------------------------------------------------
# finite groups, multiplied on demand


class FiniteGroup:
    """A finite group: its elements, ints ascending in ``elements``, its
    identity and its product ``mul(y, x)`` = yx; no table of products is
    kept.  A group of its own has the elements 0, ..., order - 1, and
    ``labels[i]`` names element i (a group of permutations carries the
    permutations).  A maximal subgroup of a monoid has the monoid element
    indices of its members, which are their own labels (``labels`` is
    ``elements``), and its product composes two maps and looks the
    result up in the monoid.  This is the one constructor: it takes these
    parts as they are, a group by construction, and checks nothing.  A
    group read off a multiplication table, with the table's group axioms
    checked, is a reference kept in the tests (``group_from_table`` in
    ``tests/oracle.py``)."""

    __slots__ = ("elements", "order", "identity", "mul", "labels")

    def __init__(self, elements, identity: int, mul, labels=None):
        self.elements, self.order, self.identity, self.mul = elements, len(elements), identity, mul
        self.labels = elements if labels is None else labels

    def element_order(self, i: int) -> int:
        mul, k, x = self.mul, 1, i
        while x != self.identity:
            x = mul(x, i)
            k += 1
        return k

    def element_orders(self) -> tuple:
        return tuple(sorted(map(self.element_order, self.elements)))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("group must have at least one element")
    return FiniteGroup(range(n), 0, lambda y, x: (y + x) % n)


def group_from_permutations(perms) -> FiniteGroup:
    """The group generated by a set of permutations (1-based image
    tuples): the transition monoid of the automaton whose letters act as
    them, which for permutations is a group.  Element i is the i-th
    permutation in sorted order, which is its label, and the product is
    the monoid's."""
    gens = [tuple(p) for p in perms]
    if not gens:
        raise ValueError("need at least one permutation")
    n = len(gens[0])
    for p in gens:
        if sorted(p) != list(range(1, n + 1)):
            raise ValueError(f"{p} is not a permutation of [1..{n}]")
    letters = tuple(f"g{k}" for k in range(len(gens)))
    m = transition_monoid(Automaton(n, letters, tuple(zip(*gens))), cap=None)
    return FiniteGroup(range(m.order), m.identity_index, m.product,
                       tuple(tuple(v + 1 for v in p) for p in m.maps))


def symmetric_group(n: int) -> FiniteGroup:
    if n == 1:
        return cyclic_group(1)
    cycle = tuple(list(range(2, n + 1)) + [1])
    swap = tuple([2, 1] + list(range(3, n + 1)))
    return group_from_permutations([cycle, swap])


def maximal_subgroup_at(m: TransformationMonoid, e: int, same_image) -> FiniteGroup:
    """The group of invertible elements of e M e, the largest group inside
    the monoid whose unit is the idempotent e: the monoid elements x with
    the image and the kernel of e, ascending, multiplied as in the monoid.
    ``same_image`` is e's image class, the ascending indices of the
    elements whose maps have the image of e; among them "e then x" equals
    x exactly when x has the kernel of e too, so one composition per
    member finds them."""
    then, padded, maps, index, t_e = m.then, m.padded, m.maps, m.index, m.maps[e]
    units = tuple([x for x in same_image if then(t_e, padded[x]) == maps[x]])
    if e not in units:  # "e then e" is not e
        raise ValueError(f"element {e} is not idempotent")
    return FiniteGroup(units, e, lambda y, x: index[then(maps[y], padded[x])])


# ---------------------------------------------------------------------------
# subgroups, conjugacy classes and normal subgroups


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise CapExceededError(f"subgroup enumeration cap {cap} exceeded by group of order {order}")


def _join(mul, e: int, h: int, h_elems: list, gens: tuple, within: tuple = (0, ())) -> tuple:
    """The subgroup generated by the subgroup H (mask ``h``, elements
    ``h_elems``) and ``gens``, which must include generators of H, as
    (mask, elements), in the group with product ``mul`` and identity e.
    It grows by whole right cosets Hr: the union of the cosets found is
    closed once each representative r times each generator lies in it
    (Dimino's algorithm).  A subgroup known to hold the join, as (mask,
    elements) ``within``, is it once the cosets fill over half (Lagrange)."""
    mask, elems, reps, half = h, list(h_elems), [e], len(within[1]) // 2
    for r in reps:
        for s in gens:
            z = mul(r, s)
            if not mask >> z & 1:
                reps.append(z)
                coset = [mul(y, z) for y in h_elems]
                elems += coset
                for v in coset:
                    mask |= 1 << v
                if half and len(elems) > half:
                    return within
    return mask, elems


def _generate(g: FiniteGroup, seeds, h: tuple | None = None, normal_in: tuple = ()) -> tuple:
    """The subgroup generated by the subgroup ``h`` (trivial by default)
    and ``seeds``, both as (mask, elements, generators); each seed outside
    the subgroup so far joins the generators, and its conjugates by
    ``normal_in`` join the seeds: the normal closure in <normal_in>."""
    mul, e, conjugate = g.mul, g.identity, _conjugation(g, normal_in)
    mask, elems, gens = h or (1 << e, [e], ())
    seeds = list(seeds)
    for z in seeds:
        if not mask >> z & 1:
            gens += (z,)
            mask, elems = _join(mul, e, mask, elems, gens)
            seeds += conjugate(z)
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


def _inverse(g: FiniteGroup, x: int) -> int:
    """x^-1, the last power of x before the identity."""
    mul, e, y = g.mul, g.identity, x
    while (z := mul(y, x)) != e:
        y = z
    return y


def _conjugation(g: FiniteGroup, gens):
    """y -> [s^-1 y s for s in gens], whose orbits are classes of <gens>."""
    mul, pairs = g.mul, [(_inverse(g, s), s) for s in gens]
    return lambda y: [mul(mul(t, y), s) for t, s in pairs]


def _maximal_normals(g: FiniteGroup, k: tuple) -> list:
    """The maximal proper normal subgroups of the subgroup K of ``g``,
    given as (mask, elements, generators) ``k``, as sorted index tuples
    in (size, element set) order;
    the quotients by them are the simple quotients of K.  Every normal
    subgroup of K is the join of the subgroups its K-classes generate, so
    they are grown from the trivial one by joining classes, breadth first;
    a proper one is maximal when every class outside it joins it up to K.
    A join is a union of classes whose order divides |K|, so when no
    union of N with classes outside it has an order that is a proper
    divisor of |K| but N's own, every join is K and none is built."""
    whole, elems, gens = k
    classes = _orbits(elems, _conjugation(g, gens))
    divisors = sum(1 << d for d in range(1, len(elems)) if len(elems) % d == 0)
    queue = [_generate(g, ())]
    seen, maximal = {queue[0][0]}, []
    for n in queue:
        outside = [cls for cls in classes if not n[0] >> cls[0] & 1]
        orders = 1 << len(n[1])
        for cls in outside:
            orders |= orders << len(cls)
        joins = [] if orders & divisors == 1 << len(n[1]) else [
            _generate(g, cls, n) for cls in outside]
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


# The nonabelian simple groups below order 20160, where the order names
# the group, by order: name and, where fpal has them, generators as
# 1-based permutations.  The cyclic ones are the C_p, p prime.
_SIMPLE_GROUPS = {
    60: ("A_5", ((2, 3, 4, 5, 1), (2, 3, 1, 4, 5))),
    168: ("PSL(2,7)", ((2, 3, 4, 5, 6, 7, 1, 8), (8, 7, 4, 3, 6, 5, 2, 1))),
    360: ("A_6", ((2, 3, 1, 4, 5, 6), (1, 3, 4, 5, 6, 2))),
    504: ("PSL(2,8)", ((2, 1, 4, 3, 6, 5, 8, 7, 9), (9, 2, 6, 7, 8, 3, 4, 5, 1),
                       (1, 3, 5, 7, 4, 2, 8, 6, 9))),
    660: ("PSL(2,11)", ((2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1, 12),
                        (12, 11, 6, 8, 9, 3, 10, 4, 5, 7, 2, 1))),
    1092: ("PSL(2,13)", None),
    2448: ("PSL(2,17)", None),
    2520: ("A_7", None),
    3420: ("PSL(2,19)", None),
    4080: ("PSL(2,16)", None),
    5616: ("PSL(3,3)", None),
    6048: ("PSU(3,3)", None),
    6072: ("PSL(2,23)", None),
    7800: ("PSL(2,25)", None),
    7920: ("M_11", None),
    9828: ("PSL(2,27)", None),
    12180: ("PSL(2,29)", None),
    14880: ("PSL(2,31)", None),
}


def _simple_name(order: int, element_orders: tuple) -> str | None:
    if _is_prime(order):
        return f"C_{order}"
    if order == 20160:
        # The one order below 20161 shared by two simple groups; the
        # alternating one has elements of order 15, the linear one does not.
        return "A_8" if 15 in element_orders else "PSL(3,4)"
    return _SIMPLE_GROUPS[order][0] if order in _SIMPLE_GROUPS else None


def _section_id(g: FiniteGroup, k, n) -> SimpleGroupId:
    """Fingerprint of the section K/N, for subgroups ``n`` normal in ``k``
    of ``g``, read off the cosets without building a quotient table: the
    order of the coset xN is the least j with x^j in N, and each coset
    has |N| members."""
    n_set, mul = set(n), g.mul
    orders = []
    for x in k:
        j, y = 1, x
        while y not in n_set:
            y = mul(y, x)
            j += 1
        orders.append(j)
    coset_orders = tuple(sorted(orders)[::len(n)])
    order = len(k) // len(n)
    return SimpleGroupId(order, coset_orders, _simple_name(order, coset_orders))


def simple_group_id(order: int) -> SimpleGroupId | None:
    """The fingerprint of the simple group of an order below 20160, or
    None when fpal cannot build it: C_p in closed form, another built from
    its generators and fingerprinted as the section G/1."""
    if _is_prime(order):
        return _cyclic_simple_id(order)
    gens = _SIMPLE_GROUPS[order][1]
    if gens is None:
        return None
    g = group_from_permutations(gens)
    return _section_id(g, g.elements, (g.identity,))


def smallest_missing_simple_group(covered) -> SimpleGroupId:
    """The least-order simple group outside ``covered``, a collection of
    fingerprints.  Orders name the groups below 20160, so the scan
    compares orders and builds only the group it returns; it is refused
    when fpal cannot build that one, or when it would pass order 20159."""
    orders = {s.order for s in covered}
    for order in range(2, 20160):
        if order not in orders and (order in _SIMPLE_GROUPS or _is_prime(order)):
            found = simple_group_id(order)
            if found is None:
                raise CapExceededError(f"every simple group of order up to {order - 1} is covered; "
                                       f"fpal cannot build {_SIMPLE_GROUPS[order][0]}, the next one")
            return found
    raise CapExceededError("every simple group of order below 20160 is covered; "
                           "A_8 and PSL(3,4) share that order")


def is_simple(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> bool:
    """Nontrivial with no proper nontrivial normal subgroup: of prime
    order when solvable, and otherwise perfect (its own solvable
    residual) with no normal subgroup between.  The trivial group is not
    simple."""
    _check_cap(g.order, cap)
    if _is_prime(g.order):
        return True
    residual = _solvable_residual(g)
    return (residual is not None and len(residual[1]) == g.order
            and _maximal_normals(g, residual) == [(g.identity,)])


def fingerprint(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> SimpleGroupId:
    """Fingerprint of a simple group; rejects non-simple input."""
    if not is_simple(g, cap):
        raise ValueError(f"group of order {g.order} is not simple")
    return _section_id(g, g.elements, (g.identity,))


def composition_factors(g: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP, rng=None) -> tuple:
    """Multiset (sorted tuple) of simple factor fingerprints of any maximal
    normal series of ``g``.  Each step strips the solvable top of the
    current term K: K/R, for R the solvable residual of K, has the C_p
    for the primes p of |K|/|R|, with multiplicity, as its factors.  Only
    inside the perfect R are maximal normal subgroups looked for; the
    default tie-break takes the largest one, then the least element set,
    and ``rng`` randomizes the choice (the result is the same multiset
    either way, by Jordan-Hoelder)."""
    _check_cap(g.order, cap)
    factors = []
    k = tuple(g.elements)
    while len(k) > 1:
        r = _solvable_residual(g, k)
        top = len(k) // (1 if r is None else len(r[1]))
        for p in _prime_factors(top):
            while top % p == 0:
                factors.append(_cyclic_simple_id(p))
                top //= p
        if r is None:
            break
        candidates = sorted(_maximal_normals(g, r), key=lambda s: (-len(s), s))
        n = candidates[0] if rng is None else candidates[rng.randrange(len(candidates))]
        factors.append(_section_id(g, r[1], n))
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


def _cyclic_simple_id(p: int) -> SimpleGroupId:
    """The fingerprint of C_p: the identity and p - 1 elements of order p."""
    return SimpleGroupId(p, (1,) + (p,) * (p - 1), f"C_{p}")


def _least_cyclic_subgroups(g: FiniteGroup, need: set, until_generator: bool = False) -> tuple:
    """For each prime p in ``need``, the least subgroup of order p of
    ``g``, as a sorted tuple: by Cauchy there is one when p divides the
    order, and as two of them meet only in the identity, it is the first
    one met, walking up from the least element.  Each cyclic subgroup is
    walked once: the powers x^j with j prime to the order of x generate
    the same subgroup as x.  Also whether some element generates ``g``;
    the walk, which uses up ``need``, stops once every p is met and, with
    ``until_generator``, a generator too."""
    mul, e = g.mul, g.identity
    least: dict = {}
    done, left, cyclic = set(), need, False
    for x in g.elements:
        if not left and (cyclic or not until_generator):
            break
        if x in done:
            continue
        elems, y = [e], x
        while y != e:
            elems.append(y)
            y = mul(y, x)
        n = len(elems)
        done.update(y for j, y in enumerate(elems) if gcd(j, n) == 1)
        if n in left:
            left.discard(n)
            least[n] = tuple(sorted(elems))
        cyclic = cyclic or n == g.order
    return least, cyclic


def _solvable_residual(g: FiniteGroup, k=None) -> tuple | None:
    """The last term of the derived series of the subgroup K of ``g``
    with elements ``k`` (all of ``g`` by default), as (mask, elements,
    generators), or None when that term is trivial, that is when K is
    solvable.  Each derived subgroup K' is generated by the K-classes of
    the commutators of K's generators; the series stops early at an order
    that ``_surely_solvable`` accepts."""
    k = g.elements if k is None else k
    if _surely_solvable(len(k)):
        return None
    mul = g.mul
    term = _generate(g, k)
    while not _surely_solvable(len(term[1])):
        gens = term[2]
        inv = [_inverse(g, a) for a in gens]
        commutators = [mul(mul(mul(inv[i], inv[j]), a), b)
                       for i, a in enumerate(gens) for j, b in enumerate(gens[:i])]
        derived = _generate(g, commutators, normal_in=gens)
        if len(derived[1]) == len(term[1]):
            return term
        term = derived
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
    mul, e = g.mul, g.identity
    r = sorted(residual)
    r_mask, _, r_gens = _generate(g, r)
    conjugate = _conjugation(g, r_gens)
    pairs: dict = {}  # mask -> elements, for orders that allow a perfect group
    for x in (cls[0] for cls in _orbits(r, conjugate) if cls[0] != e):
        c_mask, c_elems, _ = _generate(g, (x,))
        done = c_mask
        for y in r:
            if done >> y & 1:
                continue
            for c in c_elems:
                done |= 1 << mul(y, c) | 1 << mul(c, y)
            mask, elems = _join(mul, e, c_mask, c_elems, (x, y), (r_mask, r))
            if not _surely_solvable(len(elems)):
                pairs.setdefault(mask, elems)
    given: dict = {}  # nonabelian simple divisor -> the subgroups giving it, least first
    for elems in sorted(pairs.values(), key=len):
        k = tuple(sorted(elems))
        for n in _maximal_normals(g, _generate(g, k)):
            if not _is_prime(len(k) // len(n)):
                given.setdefault(_section_id(g, k, n), []).append(k)

    def conjugates(h):  # of the subgroup h by each generator of R
        return [tuple(sorted(c)) for c in zip(*map(conjugate, h))]

    out = {}
    for fp, ks in given.items():
        k = min(map(min, _orbits([k for k in ks if len(k) == len(ks[0])], conjugates)))
        normals = _maximal_normals(g, _generate(g, k))
        out[fp] = k, next(n for n in normals if _section_id(g, k, n) == fp)
    return out


def _group_divisors_with_witnesses(g: FiniteGroup, cap: int, skip=(),
                                   idempotent: int | None = None) -> dict:
    """Simple divisors of a group, which are the simple quotients of its
    subgroups, each with the least subgroup K in (size, element set) order
    that has it as a quotient and the least maximal normal subgroup N of K
    giving it (by label), in the order a scan of the subgroup lattice in
    that order finds them, less the C_p for the primes p in ``skip``; the
    witnesses name ``idempotent``.  The least K for C_p has order p, with
    N trivial, and one walk over the cyclic subgroups finds them all: all
    the divisors when the order of the group forces it to be solvable, or
    when the walk meets a generator.  Otherwise the least K for a
    nonabelian S lies in the solvable residual R of the group: with R
    trivial there is no such S, with R of order 60 (perfect, so A_5) K is
    R itself and S is A_5, and otherwise the 2-generated subgroups of R
    are searched.  Groups above ``cap`` are refused before the walk."""
    _check_cap(g.order, cap)
    e, solvable = g.identity, _surely_solvable(g.order)
    least, cyclic = _least_cyclic_subgroups(
        g, set(_prime_factors(g.order)).difference(skip), not solvable)
    if not least and (solvable or cyclic):
        return {}  # nothing new, as for most leaders of an idempotent walk
    found = {_cyclic_simple_id(p): (least[p], (e,)) for p in sorted(least)}
    if not (solvable or cyclic):
        residual = _solvable_residual(g)
        if residual is not None and len(residual[1]) == 60:
            k = tuple(sorted(residual[1]))
            found[_section_id(g, k, (e,))] = (k, (e,))
        elif residual is not None:
            found.update(_nonabelian_witnesses(g, residual[1]))

        def scan_order(item):
            k, n = item[1]
            return len(k), k, len(n), n

        found = dict(sorted(found.items(), key=scan_order))
    if g.labels is not g.elements:  # the elements are 0, ..., order - 1, named by labels
        name = g.labels.__getitem__
        found = {fp: (tuple(map(name, k)), tuple(map(name, n))) for fp, (k, n) in found.items()}
    return {fp: DivisorWitness(k, n, idempotent) for fp, (k, n) in found.items()}


class _IdempotentWalk(NamedTuple):
    subgroup_orders: tuple  # order of the maximal subgroup at each idempotent
    witnesses: tuple  # (simple divisor, DivisorWitness without its word), sorted


_walk_cache: dict = {}


def _walk_idempotents(m: TransformationMonoid, cap: int) -> _IdempotentWalk:
    """Collect the order of the maximal subgroup at each idempotent and the
    monoid's simple divisors.  Every group inside a monoid sits in the
    maximal subgroup at its unit, so the union over idempotents of the
    group divisors is the monoid's divisor set.  Idempotents are walked in
    index order, and only the least one with each image, its leader, is
    looked at: two idempotents e, f with one image satisfy "e, then f" =
    e and "f, then e" = f, so they are L-related and their groups are
    isomorphic; the others reuse their leader's order.  A leader e whose group order does
    not force solvability is skipped when an earlier leader f of that
    order has f(im e) = im f and e(im f) = im e: then e is D-related to f,
    whose group is isomorphic.  The first idempotent giving each divisor
    is the least of its D-class, so it is never skipped.  Each leader's
    search skips the C_p found already, and a leader above ``cap`` is
    refused as soon as |H| is known.  Images are compared by the keys of
    ``map_form``, made on a cache miss only.  Cached per set of maps, which
    automata with different letters can share, so the witnesses name their
    idempotent by index only."""
    key = (m.maps, cap)
    cached = _walk_cache.get(key)
    if cached is not None:
        return cached
    keys, product = tuple(map_form(m.n_states)[3](m.maps)), m.product
    first: dict = {}
    leaders = [first.setdefault(keys[e], e) for e in idempotents(m)]
    classes: dict = {image: [] for image in first}  # a leader's image -> its elements
    for x, image in enumerate(keys):
        if image in classes:
            classes[image].append(x)
    order_of: dict = {}
    peers: dict = {}  # order allowing a nonsolvable group -> the leaders of that order
    out: dict = {}
    found_orders: set = set()
    for e in first.values():
        h = maximal_subgroup_at(m, e, classes[keys[e]])
        order_of[e] = h.order
        if not _surely_solvable(h.order):
            earlier = peers.setdefault(h.order, [])
            d_related = any(keys[product(e, f)] == keys[f] and keys[product(f, e)] == keys[e]
                            for f in earlier)
            earlier.append(e)
            if d_related:
                continue
        for fp, w in _group_divisors_with_witnesses(h, cap, found_orders, e).items():
            if fp not in out:
                out[fp] = w
                found_orders.add(fp.order)
    orders = tuple(map(order_of.__getitem__, leaders))
    walk = _IdempotentWalk(orders, tuple(sorted(out.items())))
    return _remember(_walk_cache, key, walk, MONOID_CACHE_SIZE)


def _with_words(m: TransformationMonoid, walk: _IdempotentWalk) -> MappingProxyType:
    """The walk's witnesses, read-only, each naming its idempotent by a word."""
    words = m.witnesses
    return MappingProxyType({fp: DivisorWitness(w.subgroup, w.normal, w.idempotent,
                                                words[w.idempotent]) for fp, w in walk.witnesses})


def divisor_witnesses_monoid(
    m: TransformationMonoid, cap: int = DEFAULT_SUBGROUP_CAP
) -> MappingProxyType:
    """Simple divisors of a monoid with witnesses, as a read-only mapping
    in divisor order.  Each witness names its idempotent by a word in the
    monoid's own letters."""
    return _with_words(m, _walk_idempotents(m, cap))


def simple_divisors_monoid(
    m: TransformationMonoid, cap: int = DEFAULT_SUBGROUP_CAP
) -> set:
    return set(divisor_witnesses_monoid(m, cap))


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
            {**fp.to_json(), "witness": w.to_json()} for fp, w in _with_words(m, walk).items()
        ],
    }
