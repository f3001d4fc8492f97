"""Finite pointed posets as models: morphism terms are interpreted as
monotone functions and ``dagger`` as the least fixed point, computed by
iterating from the bottom element.

A function with k inputs and t outputs is stored as a flat table indexed
by the mixed-radix encoding of its input tuple (first input most
significant); the entry is the encoding of the output tuple.  Composition
is then a single table gather.  Checking an equation means enumerating or
sampling interpretations of its symbols and comparing the two evaluated
tables; a counterexample refutes the equation, but a completed check only
reports that none was found.

Each side of an equation is compiled once per check into a function from
the symbol tables to its table: subterms without symbols become constant
tables at compile time, so an interpretation only pays for the nodes that
read a symbol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from operator import itemgetter

from .errors import CapExceededError, ThresholdExceededError
from .term import Comp, Dagger, Equation, Morphism, Proj, Sym, Tup, symbols_of

DEFAULT_EXHAUSTIVE_THRESHOLD = 100_000
DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 1729

# A sampled check draws samples x (sum over symbols of |P|^arity) table
# entries, at about a microsecond each; it is refused above this many.
# The largest sampled check of the test suite draws 2,560,000.
MAX_SAMPLED_ENTRIES = 4_000_000

# Cache bounds.  A run checks over a few posets at a few arities each, and
# count_monotone is keyed by the cap as well.
_POSET_CACHE_SIZE = 16
_PLAN_CACHE_SIZE = 64
_COUNT_CACHE_SIZE = 256


@dataclass(frozen=True)
class PosetModel:
    """A finite poset with a least element.  ``leq[x][y]`` says x <= y."""

    size: int
    leq: tuple
    bottom: int
    name: str = "poset"

    def __post_init__(self):
        object.__setattr__(self, "leq", tuple(tuple(bool(v) for v in row) for row in self.leq))
        n, leq = self.size, self.leq
        if n < 1 or len(leq) != n or any(len(row) != n for row in leq):
            raise ValueError("order relation shape does not match carrier size")
        for x in range(n):
            if not leq[x][x]:
                raise ValueError("order must be reflexive")
            for y in range(n):
                if leq[x][y] and leq[y][x] and x != y:
                    raise ValueError("order must be antisymmetric")
                for z in range(n):
                    if leq[x][y] and leq[y][z] and not leq[x][z]:
                        raise ValueError("order must be transitive")
        if not all(leq[self.bottom][x] for x in range(n)):
            raise ValueError("bottom element must be below everything")

    def covers_below(self, x: int) -> list:
        """Immediate predecessors of x."""
        below = [y for y in range(self.size) if y != x and self.leq[y][x]]
        return [
            y for y in below
            if not any(z != y and z != x and self.leq[y][z] and self.leq[z][x] for z in below)
        ]

    def height(self) -> int:
        """Length of a longest chain (number of elements)."""
        rank = self.ranks()
        return max(rank) + 1

    def ranks(self) -> tuple:
        rank = [0] * self.size
        changed = True
        while changed:
            changed = False
            for x in range(self.size):
                for y in self.covers_below(x):
                    if rank[x] < rank[y] + 1:
                        rank[x] = rank[y] + 1
                        changed = True
        return tuple(rank)


def chain(k: int) -> PosetModel:
    """The k-element chain 0 < 1 < ... < k-1."""
    if k < 1:
        raise ValueError(f"chain needs at least one element, got {k}")
    leq = tuple(tuple(x <= y for y in range(k)) for x in range(k))
    return PosetModel(k, leq, 0, name=f"chain({k})")


class TableFn:
    """A function P^k -> P^t as a flat table of encoded outputs."""

    __slots__ = ("poset", "in_arity", "out_arity", "table")

    def __init__(self, poset: PosetModel, in_arity: int, out_arity: int, table):
        self.poset = poset
        self.in_arity = in_arity
        self.out_arity = out_arity
        self.table = list(table)
        if len(self.table) != poset.size ** in_arity:
            raise ValueError(
                f"table length {len(self.table)} does not match arity {in_arity}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, TableFn)
            and self.poset == other.poset
            and self.in_arity == other.in_arity
            and self.out_arity == other.out_arity
            and self.table == other.table
        )

    def __repr__(self):
        return f"TableFn(in={self.in_arity}, out={self.out_arity}, table={self.table})"

    def encode(self, tup) -> int:
        code = 0
        for v in tup:
            code = code * self.poset.size + v
        return code

    def decode_out(self, code: int) -> tuple:
        return _decode(code, self.poset.size, self.out_arity)

    def __call__(self, args) -> tuple:
        args = tuple(args)
        if len(args) != self.in_arity:
            raise ValueError(f"expected {self.in_arity} arguments, got {len(args)}")
        return self.decode_out(self.table[self.encode(args)])

    def is_monotone(self) -> bool:
        size = self.poset.size
        leq = self.poset.leq
        for idx, preds in enumerate(_cover_preds(self.poset, self.in_arity)):
            out_x = _decode(self.table[idx], size, self.out_arity)
            for p in preds:
                out_p = _decode(self.table[p], size, self.out_arity)
                if not all(leq[a][b] for a, b in zip(out_p, out_x)):
                    return False
        return True


def _decode(code: int, size: int, width: int) -> tuple:
    out = [0] * width
    for k in range(width - 1, -1, -1):
        out[k] = code % size
        code //= size
    return tuple(out)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _cover_preds(poset: PosetModel, arity: int) -> tuple:
    """For every point of P^arity, the indices of its immediate
    predecessors (one coordinate lowered to a cover)."""
    size = poset.size
    covers = [poset.covers_below(x) for x in range(size)]
    total = size ** arity
    out = []
    for idx in range(total):
        digits = _decode(idx, size, arity)
        preds = []
        s = total
        for pos in range(arity):
            s //= size
            for y in covers[digits[pos]]:
                preds.append(idx + (y - digits[pos]) * s)
        out.append(tuple(preds))
    return tuple(out)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _fill_plan(poset: PosetModel, arity: int) -> tuple:
    """The points of P^arity in a linear extension (total rank, then
    index), each paired with a getter for the values at its immediate
    predecessors.  Filling a table in this order sees every predecessor's
    value before the point itself."""
    ranks = poset.ranks()
    size = poset.size
    preds = _cover_preds(poset, arity)

    def rank(idx):
        return (sum(ranks[d] for d in _decode(idx, size, arity)), idx)

    # only the all-bottom point has no predecessor
    return tuple(
        (idx, itemgetter(*preds[idx]) if preds[idx] else _no_values)
        for idx in sorted(range(size ** arity), key=rank)
    )


def _no_values(table) -> tuple:
    return ()


class _UpperBounds(dict):
    """Memo from the values below a point (the predecessor getter's
    result: one value or a tuple) to the ascending tuple of values that
    lie above all of them, i.e. the values the point may take."""

    def __init__(self, poset: PosetModel):
        super().__init__()
        self.leq = poset.leq
        self.size = poset.size

    def __missing__(self, below) -> tuple:
        lower = below if isinstance(below, tuple) else (below,)
        leq = self.leq
        bounds = self[below] = tuple(
            v for v in range(self.size) if all(leq[lo][v] for lo in lower)
        )
        return bounds


@lru_cache(maxsize=_POSET_CACHE_SIZE)
def _upper_bounds(poset: PosetModel) -> _UpperBounds:
    return _UpperBounds(poset)


def _monotone_tables(poset: PosetModel, arity: int):
    """Yield every monotone table P^arity -> P as a fresh list, by a
    depth-first search along the fill plan that tries each point's
    candidates in ascending order."""
    plan = _fill_plan(poset, arity)
    bounds = _upper_bounds(poset)
    table = [0] * len(plan)
    last = len(plan) - 1
    # stack[k] iterates the values still to try at plan position k
    stack = [iter(bounds[plan[0][1](table)])]
    while stack:
        k = len(stack) - 1
        v = next(stack[k], None)
        if v is None:
            stack.pop()
            continue
        table[plan[k][0]] = v
        if k == last:
            yield table[:]
        else:
            stack.append(iter(bounds[plan[k + 1][1](table)]))


def enumerate_monotone(poset: PosetModel, in_arity: int, limit: int | None = None):
    """Yield every monotone function P^in_arity -> P as a TableFn, in a
    fixed deterministic order.  With ``limit``, raise once more than that
    many functions exist."""
    for count, table in enumerate(_monotone_tables(poset, in_arity), 1):
        if limit is not None and count > limit:
            raise ThresholdExceededError(
                f"more than {limit} monotone functions; sample instead"
            )
        yield TableFn(poset, in_arity, 1, table)


@lru_cache(maxsize=_COUNT_CACHE_SIZE)
def count_monotone(poset: PosetModel, in_arity: int, cap: int) -> int:
    """Number of monotone functions, counting no further than cap + 1."""
    count = 0
    for _ in _monotone_tables(poset, in_arity):
        count += 1
        if count > cap:
            break
    return count


def _random_table(plan: tuple, bounds: _UpperBounds, randrange) -> list:
    """Fill a table along the plan, drawing each entry uniformly among the
    values its predecessors allow; start over when a point has none."""
    while True:
        table = [0] * len(plan)
        for idx, below in plan:
            cand = bounds[below(table)]
            if not cand:
                break
            table[idx] = cand[randrange(len(cand))]
        else:
            return table


def random_monotone(poset: PosetModel, in_arity: int, rng: random.Random) -> TableFn:
    """A random monotone function, filled greedily along a linear
    extension.  Every monotone function has positive probability."""
    table = _random_table(_fill_plan(poset, in_arity), _upper_bounds(poset), rng.randrange)
    return TableFn(poset, in_arity, 1, table)


# ---------------------------------------------------------------------------
# evaluation


class Interpretation:
    """Assignment of a monotone TableFn to every symbol name."""

    def __init__(self, poset: PosetModel, by_name: dict):
        self.poset = poset
        self.by_name = dict(by_name)
        for name, fn in self.by_name.items():
            if fn.poset != poset:
                raise ValueError(f"symbol {name!r} interpreted over a different poset")
            if fn.out_arity != 1:
                raise ValueError(f"symbol {name!r} must have one output")


def _bottom_code(poset: PosetModel, width: int) -> int:
    code = 0
    for _ in range(width):
        code = code * poset.size + poset.bottom
    return code


def _fixed_point_solver(poset: PosetModel, m: int, p: int, height: int):
    """``body -> table``: for ``body: P^m x P^p -> P^m`` as a table, the
    least fixed point at every parameter value, iterating all parameters
    together from bottom.  From bottom a monotone body climbs a chain of
    P^m, which has at most ``m * (height - 1) + 1`` elements; one more step
    is allowed before the body is declared not monotone."""
    span = poset.size ** p
    bottom = _bottom_code(poset, m)
    start = [bottom] * span
    first = slice(bottom * span, (bottom + 1) * span)
    steps = range(m * (height - 1) + 2)

    def solve(body: list) -> list:
        xs = start
        nxt = body[first]
        for _ in steps:
            if nxt == xs:
                return xs
            xs = nxt
            nxt = [body[x * span + c] for c, x in enumerate(xs)]
        raise RuntimeError(
            "fixed-point iteration failed to stabilize; interpretation not monotone"
        )

    return solve


def lfp(fn: TableFn, params=()) -> int:
    """Least fixed point of ``fn: P x P^p -> P`` at the given parameters,
    by iteration from bottom."""
    if fn.out_arity != 1 or fn.in_arity < 1:
        raise ValueError("least fixed point needs a function P x P^p -> P")
    poset = fn.poset
    c = 0
    params = tuple(params)
    if len(params) != fn.in_arity - 1:
        raise ValueError(f"expected {fn.in_arity - 1} parameters, got {len(params)}")
    for v in params:
        c = c * poset.size + v
    # the body at these parameters alone: x -> fn(x, params)
    at_params = fn.table[c::poset.size ** len(params)]
    return _fixed_point_solver(poset, 1, 0, poset.height())(at_params)[0]


def _compile(m: Morphism, poset: PosetModel, height: int, slots: dict) -> tuple:
    """Compile a term in one walk.  A term without symbols becomes its
    constant table, returned as ``(table, None)``; any other term becomes
    ``(None, run)``, where ``run(tables)`` maps the symbol tables, indexed
    by ``slots``, to the term's table."""
    size = poset.size
    if isinstance(m, Proj):
        span = size ** (m.n - m.i)
        return [(idx // span) % size for idx in range(size ** m.n)], None
    if isinstance(m, Sym):
        return None, itemgetter(slots[m.symbol.name])
    if isinstance(m, Tup):
        if not m.parts:
            return [0] * size ** m.source, None
        parts = [_compile(part, poset, height, slots) for part in m.parts]
        scales = [size ** part.target for part in m.parts[1:]]
        if all(run is None for _, run in parts):
            return _pack([table for table, _ in parts], scales), None
        return None, lambda tables: _pack(
            [table if run is None else run(tables) for table, run in parts], scales
        )
    if isinstance(m, Comp):
        inner, inner_run = _compile(m.f, poset, height, slots)
        outer, outer_run = _compile(m.g, poset, height, slots)
        if inner_run is None and outer_run is None:
            return [outer[v] for v in inner], None
        if inner_run is None:
            return None, lambda tables: list(map(outer_run(tables).__getitem__, inner))
        if outer_run is None:
            gather = outer.__getitem__
            return None, lambda tables: list(map(gather, inner_run(tables)))
        return None, lambda tables: list(map(outer_run(tables).__getitem__, inner_run(tables)))
    if isinstance(m, Dagger):
        body, body_run = _compile(m.body, poset, height, slots)
        solve = _fixed_point_solver(poset, m.m, m.source, height)
        if body_run is None:
            return solve(body), None
        return None, lambda tables: solve(body_run(tables))
    raise ValueError(f"cannot evaluate {m!r}")


def _pack(parts: list, scales: list) -> list:
    """Tupling: pack each entry's component outputs in mixed radix,
    ``code = code * size**width + part``, where ``scales`` holds
    ``size**width`` for every component after the first."""
    acc = parts[0]
    for part, scale in zip(parts[1:], scales):
        acc = [a * scale + b for a, b in zip(acc, part)]
    return acc


def _evaluator(m: Morphism, poset: PosetModel, height: int, slots: dict):
    """``tables -> table`` for a term, compiled once."""
    table, run = _compile(m, poset, height, slots)
    return run if run is not None else lambda tables: table


def eval_morphism(m: Morphism, interp: Interpretation) -> TableFn:
    """Interpret a term as a TableFn over the interpretation's poset."""
    tables = []
    slots = {}
    for name, symbol in symbols_of(m).items():
        fn = interp.by_name.get(name)
        if fn is None:
            raise ValueError(f"no interpretation for symbol {name!r}")
        if fn.in_arity != symbol.in_arity:
            raise ValueError(
                f"symbol {name!r} has arity {symbol.in_arity}, "
                f"interpreted with {fn.in_arity}"
            )
        slots[name] = len(tables)
        tables.append(fn.table)
    table = _evaluator(m, interp.poset, interp.poset.height(), slots)(tables)
    return TableFn(interp.poset, m.source, m.target, table)


# ---------------------------------------------------------------------------
# equation checking


@dataclass
class CheckResult:
    """Outcome of one model check.  A recorded counterexample refutes the
    equation; ``holds`` only means no counterexample was found, which is
    why every result carries ``refutation_only``."""

    equation: str
    poset: str
    strategy: str
    seed: int | None
    interpretations_checked: int
    holds: bool
    counterexample: dict | None
    refutation_only: bool = True

    def to_json(self) -> dict:
        out = {
            "equation": self.equation,
            "poset": self.poset,
            "strategy": self.strategy,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        out["interpretations_checked"] = self.interpretations_checked
        out["holds"] = self.holds
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        out["refutation_only"] = self.refutation_only
        return out


def _counterexample(eq: Equation, poset: PosetModel, tables, lhs: list, rhs: list) -> dict:
    size = poset.size
    idx = next((i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)
    if idx is None:
        raise AssertionError("tables differ but no differing entry found")
    return {
        "symbols": {s.name: list(table) for s, table in zip(eq.symbols, tables)},
        "input": list(_decode(idx, size, eq.lhs.source)),
        "lhs": list(_decode(lhs[idx], size, eq.lhs.target)),
        "rhs": list(_decode(rhs[idx], size, eq.rhs.target)),
    }


def interpretation_count(eq: Equation, poset: PosetModel, cap: int) -> int:
    """Product over symbols of the number of monotone interpretations,
    counted no further than cap + 1."""
    total = 1
    for s in eq.symbols:
        total *= count_monotone(poset, s.in_arity, cap)
        if total > cap:
            return total
    return total


def check_equation(
    eq: Equation,
    poset: PosetModel,
    mode: str = "auto",
    seed: int | None = None,
    samples: int | None = None,
    threshold: int = DEFAULT_EXHAUSTIVE_THRESHOLD,
) -> CheckResult:
    """Check an equation over all (or sampled) monotone interpretations.

    ``mode`` is "exhaustive", "sampled", or "auto" (exhaustive when the
    interpretation count fits under ``threshold``).  Sampling uses ``seed``
    (default fixed) and ``samples`` draws, at least one, and is refused
    with CapExceededError past MAX_SAMPLED_ENTRIES table entries.  Both
    sides are compiled once; each interpretation is then a sequence of
    symbol tables in ``eq.symbols`` order.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("auto", "exhaustive"):
        total = interpretation_count(eq, poset, threshold)
        if total > threshold:
            if mode == "exhaustive":
                raise ThresholdExceededError(
                    f"about {total} interpretations exceed the exhaustive "
                    f"threshold {threshold}; sample instead"
                )
            mode = "sampled"
        else:
            mode = "exhaustive"
    if mode == "sampled":
        seed = DEFAULT_SEED if seed is None else seed
        samples = DEFAULT_SAMPLES if samples is None else samples
        if samples < 1:
            raise ValueError(f"a sampled check needs at least one sample, got {samples}")
        entries = samples * sum(poset.size ** s.in_arity for s in eq.symbols)
        if entries > MAX_SAMPLED_ENTRIES:
            raise CapExceededError(
                f"{samples} samples of {entries // samples} table entries each "
                f"exceed the sampling cap of {MAX_SAMPLED_ENTRIES} entries"
            )
        rng = random.Random(seed)
        bounds = _upper_bounds(poset)
        plans = [_fill_plan(poset, s.in_arity) for s in eq.symbols]
        interpretations = (
            [_random_table(plan, bounds, rng.randrange) for plan in plans]
            for _ in range(samples)
        )
    else:
        seed = None
        pools = [list(_monotone_tables(poset, s.in_arity)) for s in eq.symbols]
        interpretations = iproduct(*pools)

    slots = {s.name: k for k, s in enumerate(eq.symbols)}
    height = poset.height()
    lhs = _evaluator(eq.lhs, poset, height, slots)
    rhs = _evaluator(eq.rhs, poset, height, slots)
    checked = 0
    for tables in interpretations:
        checked += 1
        lhs_table = lhs(tables)
        rhs_table = rhs(tables)
        if lhs_table != rhs_table:
            return CheckResult(
                eq.name, poset.name, mode, seed, checked, False,
                _counterexample(eq, poset, tables, lhs_table, rhs_table),
            )
    return CheckResult(eq.name, poset.name, mode, seed, checked, True, None)
