"""Brute-force references for the divisor pipeline, kept out of the
library: they enumerate directly what ``fpal.algebra`` derives from the
maximal subgroups, and the tests replay the fast routes against them."""

from collections import deque

import numpy as np

from fpal.algebra import (
    FiniteGroup,
    TransformationMonoid,
    _closure,
    _fingerprint_unchecked,
    _quotient_by_indices,
    idempotents,
    normal_subgroup_sets,
)
from fpal.errors import CapExceededError


def group_subsemigroups(m: TransformationMonoid, max_order: int = 64) -> list:
    """Every subset of the monoid that is closed under the product and
    forms a group, as sorted index tuples.  Grown from idempotent
    singletons one generator at a time."""
    if m.order > max_order:
        raise CapExceededError(
            f"group subsemigroup enumeration capped at monoid order {max_order}"
        )
    table = m.table

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

    seeds = [(e,) for e in idempotents(m)]
    found = {s: True for s in seeds}
    queue = deque(seeds)
    while queue:
        h = queue.popleft()
        h_set = set(h)
        for x in range(m.order):
            if x in h_set:
                continue
            k = _closure(table, np.array(sorted(h_set | {x}), dtype=np.int64))
            kt = tuple(int(v) for v in k)
            if kt in found:
                continue
            if is_group(kt):
                found[kt] = True
                queue.append(kt)
    return sorted(found, key=lambda t: (len(t), t))


def group_from_monoid_indices(m: TransformationMonoid, indices) -> FiniteGroup:
    """Present a group subsemigroup of the monoid as a FiniteGroup with
    monoid element indices as labels."""
    indices = sorted(indices)
    pos = {x: i for i, x in enumerate(indices)}
    try:
        table = [[pos[m.product(x, y)] for y in indices] for x in indices]
    except KeyError:
        raise ValueError("index set is not closed under the monoid product") from None
    return FiniteGroup(table, labels=indices)


def simple_divisors_monoid_bruteforce(m: TransformationMonoid) -> set:
    """Fingerprints of all simple quotients of all group subsemigroups,
    enumerated directly rather than through maximal subgroups."""
    out = set()
    for indices in group_subsemigroups(m):
        k = group_from_monoid_indices(m, indices)
        for n_set in normal_subgroup_sets(k):
            q = _quotient_by_indices(k, n_set)
            if q.order >= 2 and len(normal_subgroup_sets(q)) == 2:
                out.add(_fingerprint_unchecked(q))
    return out


def units_by_inverse_search(m: TransformationMonoid, e: int) -> list:
    """The invertible elements of e M e found by trying every pair, the
    quadratic search that the rank test in ``maximal_subgroup_at``
    replaces."""
    local = sorted({m.product(m.product(e, x), e) for x in range(m.order)})
    return [x for x in local
            if any(m.product(x, y) == e and m.product(y, x) == e for y in local)]
