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
read a symbol.  The compiled side evaluates a block of interpretations at
once, each table of the block being the tables of its interpretations one
after another: composition is one gather, with each interpretation's
offset into the block added to its indices (those index vectors depend
on shapes alone and are kept per process); tupling packs the
concatenated tables; a constant is repeated once per interpretation; and
dagger iterates every interpretation of the block together.  On tables of
2 to 64 entries most of a node's cost is the Python call around it, which
a block pays once.  A check of one interpretation, as ``eval_morphism``
makes, is a block of one.

Sampled tables draw each entry as ``Random.randrange`` does, with its
rejection loop inlined, so a seed gives the same interpretations as
before the loop was inlined.  That costs about 0.6 µs per entry, and
posets of one or of three or more elements still pay it.  On a
two-element poset every entry has one or two candidates, so the draw
keeps exactly the random words whose top bit is clear and reads the
entry off their next bit: a block of samples is drawn from bulk words,
and each table is the up-closure of its draws, with the same tables as
entry by entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain as concat, islice, product as iproduct
from math import comb
from operator import add, itemgetter

from .errors import CapExceededError, ThresholdExceededError
from .term import Comp, Dagger, Equation, Morphism, Proj, Sym, Tup, symbols_of

DEFAULT_EXHAUSTIVE_THRESHOLD = 100_000
DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 1729

# A check's work cap, in table entries, applied by check_equation in this
# order before anything of that size is counted or built: each symbol's
# table, |P|^arity, fits alone; the threshold picks the mode; N
# interpretations (the exhaustive count or the samples) of the symbol
# tables, and of each leaf's |P|^s, fit.  An exponent is compared first,
# so no power past the cap is taken or printed.  A chain of k * k order
# entries past it is refused too.
MAX_SAMPLED_ENTRIES = 4_000_000

# Interpretations evaluated together by check_equation: at most BLOCK, and
# no more than fit in BLOCK_ENTRIES entries of their symbol tables or of
# their widest table, which bounds the memory of a block's tables and
# index vectors.  Blocks of 16 or more give
# a check-library pass the same time; blocks of 1 are slower than one
# interpretation at a time was.
BLOCK = 32
BLOCK_ENTRIES = 1024

# Cache bounds.  A run checks over a few posets at a few arities each,
# with one threshold; the pools, which the counts read, share the poset
# bound.
_POSET_CACHE_SIZE = 16
_PLAN_CACHE_SIZE = 64
# A check-library pass asks for about 220 shapes of index vectors.
_OFFSETS_CACHE_SIZE = 256


@dataclass(frozen=True)
class PosetModel:
    """A finite poset with a least element.  ``leq[x][y]`` says x <= y.
    When the poset is made, its order is checked and each element's
    covers (immediate predecessors) and rank (the length of a longest
    chain below it) are found, on bitset rows of down-sets, one int per
    element.  A row lists the elements by how many lie below each, which
    for an order is a linear extension, so its last element is maximal
    in it: the covers of x are taken off x's row one at a time, each with
    its own down-set, and the order is transitive exactly when x's
    down-set holds theirs."""

    size: int
    leq: tuple
    bottom: int
    name: str = "poset"
    _covers: tuple = field(default=(), init=False, repr=False, compare=False)
    _ranks: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        leq = tuple(tuple(map(bool, row)) for row in self.leq)
        object.__setattr__(self, "leq", leq)
        n = self.size
        if n < 1 or len(leq) != n or any(len(row) != n for row in leq):
            raise ValueError("order relation shape does not match carrier size")
        if not all(leq[x][x] for x in range(n)):
            raise ValueError("order must be reflexive")
        columns = tuple(zip(*leq))
        order = sorted(range(n), key=lambda x: sum(columns[x]))

        def bits(flags):  # bit i set when flags marks order[i]
            marks = bytes(map(flags.__getitem__, order))[::-1]
            return int(marks.translate(b"01" + bytes(254)), 2)

        down = [bits(columns[x]) for x in order]
        if any(d & bits(leq[x]) != 1 << i for i, (x, d) in enumerate(zip(order, down))):
            raise ValueError("order must be antisymmetric")
        covers, ranks = [()] * n, [0] * n
        for i, x in enumerate(order):
            rest, held, found = down[i] ^ 1 << i, 0, []
            while rest:
                j = rest.bit_length() - 1
                found.append(order[j])
                held |= down[j]
                rest &= ~down[j]
            if held & ~down[i]:
                raise ValueError("order must be transitive")
            covers[x] = tuple(sorted(found))
            ranks[x] = max((ranks[y] + 1 for y in found), default=0)
        if not (0 <= self.bottom < n and all(leq[self.bottom])):
            raise ValueError("bottom element must be below everything")
        object.__setattr__(self, "_covers", tuple(covers))
        object.__setattr__(self, "_ranks", tuple(ranks))

    def covers_below(self, x: int) -> list:
        """Immediate predecessors of x, ascending."""
        return list(self._covers[x])

    def height(self) -> int:
        """Length of a longest chain (number of elements)."""
        return max(self._ranks) + 1

    def ranks(self) -> tuple:
        """Each element's rank, as computed when the poset was made."""
        return self._ranks


def chain(k: int) -> PosetModel:
    """The k-element chain 0 < 1 < ... < k-1.  Its order has k * k
    entries, and a chain with more than MAX_SAMPLED_ENTRIES is refused
    before any is built."""
    if k < 1:
        raise ValueError(f"chain needs at least one element, got {k}")
    if k * k > MAX_SAMPLED_ENTRIES:
        raise CapExceededError(
            f"chain({k}) has {k}^2 order entries, past the cap of "
            f"{MAX_SAMPLED_ENTRIES} entries"
        )
    leq = tuple((False,) * x + (True,) * (k - x) for x in range(k))
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
        if not all(map(range(poset.size ** out_arity).__contains__, self.table)):
            raise ValueError(f"table entries must lie below {poset.size ** out_arity}")

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
        return _encode(tup, self.poset.size)

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


def _encode(digits, size: int) -> int:
    """The mixed-radix code of a tuple of elements, first one most
    significant; ``_decode`` inverts it."""
    code = 0
    for v in digits:
        code = code * size + v
    return code


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
    lie above all of them, i.e. the values the point may take, with its
    length and the bit length of that, which a draw among them needs."""

    def __init__(self, poset: PosetModel):
        super().__init__()
        self.leq = poset.leq
        self.size = poset.size

    def __missing__(self, below) -> tuple:
        lower = below if isinstance(below, tuple) else (below,)
        leq = self.leq
        cand = tuple(v for v in range(self.size) if all(leq[lo][v] for lo in lower))
        bounds = self[below] = cand, len(cand), len(cand).bit_length()
        return bounds


@lru_cache(maxsize=_POSET_CACHE_SIZE)
def _upper_bounds(poset: PosetModel) -> _UpperBounds:
    return _UpperBounds(poset)


@lru_cache(maxsize=_POSET_CACHE_SIZE)
def _monotone_pool(poset: PosetModel, arity: int, cap: int, entries: int) -> tuple:
    """The count of monotone tables P^arity -> P, up to cap + 1, and the
    tables as tuples in the order of ``_monotone_tables``, or None past cap
    or past entries // |P|^arity, the most an exhaustive check of ``entries``
    entries uses.  Two lower bounds often tell a count past cap unenumerated.

    Total rank strictly increases along < in P^arity, so each level of
    equal total rank is an antichain.  The up-set of each subset of a
    level gives its own monotone map (up-set to a value above bottom, the
    rest to bottom), so when |P| >= 2 there are at least 2^(largest
    level) of them.  And the m = arity * (h - 1) + 1 total ranks all
    occur, h being the height of P, whose longest chain has one element
    of each rank: each monotone map of the total ranks into that chain
    gives its own monotone map, C(m + h - 1, m) of them: 1,352,078 on
    chain(12) at arity 1, where a count would hold 100,000 tables."""
    height = poset.height()
    ranks = arity * (height - 1) + 1
    if comb(ranks + height - 1, ranks) > cap or (
            cap >= 0 and poset.size >= 2
            and _largest_level(poset.ranks(), arity) >= cap.bit_length()):
        return cap + 1, None
    tables, hold = _monotone_tables(poset, arity), min(cap, entries // poset.size ** arity)
    pool = tuple(map(tuple, islice(tables, hold + 1)))
    n = len(pool) + sum(1 for _ in islice(tables, cap + 1 - len(pool)))
    return n, pool if n <= hold else None


def _monotone_tables(poset: PosetModel, arity: int):
    """Yield every monotone table P^arity -> P as a fresh list, by a
    depth-first search along the fill plan that tries each point's
    candidates in ascending order."""
    plan = _fill_plan(poset, arity)
    bounds = _upper_bounds(poset)
    table = [0] * len(plan)
    last = len(plan) - 1
    # stack[k] iterates the values still to try at plan position k
    stack = [iter(bounds[plan[0][1](table)][0])]
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
            stack.append(iter(bounds[plan[k + 1][1](table)][0]))


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


def _largest_level(ranks: tuple, arity: int) -> int:
    """Most points of P^arity sharing one total rank: the largest
    coefficient of (sum over x of z^rank(x))^arity."""
    levels = [1]
    for _ in range(arity):
        nxt = [0] * (len(levels) + max(ranks))
        for r, n in enumerate(levels):
            for x in ranks:
                nxt[r + x] += n
        levels = nxt
    return max(levels)


def count_monotone(poset: PosetModel, in_arity: int, cap: int) -> int:
    """Number of monotone functions, counting no further than cap + 1, as
    their pool counts it."""
    return _monotone_pool(poset, in_arity, cap, MAX_SAMPLED_ENTRIES)[0]


def _random_table(plan: tuple, bounds: _UpperBounds, getrandbits) -> list:
    """Fill a table along the plan, drawing each entry uniformly among the
    values its predecessors allow; start over when a point has none.

    An entry among n candidates is drawn as ``Random.randrange(n)`` draws
    it, inlined: ``getrandbits(n.bit_length())`` until the value is below
    n.  The random stream, and so every seeded table, is the same."""
    while True:
        table = [0] * len(plan)
        for idx, below in plan:
            cand, n, k = bounds[below(table)]
            if not n:
                break
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            table[idx] = cand[r]
        else:
            return table


# An accepted word's top byte (its top bit clear) to 1 when bit 30 draws
# the top of a two-element poset with the given bottom; rejected words'
# top bytes are deleted.
_TOP_BYTE_DRAWS = tuple(bytes((v >> 6 & 1) ^ bottom for v in range(256)) for bottom in (0, 1))
_REJECTED = bytes(range(128, 256))


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _two_element_closure(poset: PosetModel, arity: int, n: int) -> tuple:
    """How ``_two_element_blocks`` reads n samples of a symbol of this
    arity: for each index of its table, the place of its draw in the fill
    plan; and the closure steps ``(up, down, mask)``, one per coordinate,
    on the n tables laid out index by index, entry idx of sample b in byte
    lane ``idx * n + b``.  Along the coordinate of stride s the top is bit
    s equal to ``1 - bottom``, and a top index's predecessor lies s indices
    down (bottom 0) or up (bottom 1)."""
    top = 1 - poset.bottom
    length = 2 ** arity
    positions = [0] * length
    for k, (idx, _) in enumerate(_fill_plan(poset, arity)):
        positions[idx] = k
    steps = []
    for s in (1 << c for c in range(arity)):
        low, high = b"\0" * (s * n), b"\1" * (s * n)
        lanes = (low + high if top else high + low) * (length // (2 * s))
        shift = 8 * s * n
        steps.append((shift * top, shift * poset.bottom, int.from_bytes(lanes, "little")))
    return tuple(positions), tuple(steps)


def _two_element_blocks(poset: PosetModel, arities: tuple, samples: int, getrandbits,
                        block_size: int):
    """The blocks ``_blocks`` makes of ``_random_table``'s samples on a
    two-element poset, as ``(n, tables)``, drawn from the same stream
    without a Python step per entry.

    Every point has one or two candidates, so ``randrange``'s loop keeps
    exactly the 32-bit words whose top bit is clear, whatever the table
    holds: the k-th such word draws the k-th entry in (sample, symbol,
    fill plan) order, by its bit 30 when the entry is free.  An entry is
    top when it drew top or one of its predecessors is top, so a table is
    the up-closure of its draws.  Words are drawn in bulk, the first one
    least significant, and the accepted ones are carried from block to
    block.  A symbol's draws in a block are gathered index by index, one
    strided slice per index, closed by one shift and mask per coordinate
    on an integer with one byte per entry, and read back sample by sample,
    one strided slice per sample.  The generator may be left past the
    last word used."""
    draws = _TOP_BYTE_DRAWS[poset.bottom]
    values = bytes((poset.bottom, 1 - poset.bottom)) + bytes(254)
    lengths = [2 ** a for a in arities]
    entries = sum(lengths)
    offsets = [sum(lengths[:j]) for j in range(len(arities))]
    closures = {}
    pending = b""
    for start in range(0, samples, block_size):
        n = min(block_size, samples - start)
        need = n * entries
        while len(pending) < need:
            words = 2 * (need - len(pending)) + 32
            tops = getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
            pending += tops.translate(draws, _REJECTED)
        if n not in closures:
            closures[n] = [_two_element_closure(poset, a, n) for a in arities]
        tables = []
        for offset, (positions, steps) in zip(offsets, closures[n]):
            own = pending[offset:need]
            x = int.from_bytes(b"".join([own[k::entries] for k in positions]), "little")
            for up, down, mask in steps:
                x |= (x << up >> down) & mask
            by_index = x.to_bytes(n * len(positions), "little")
            tables.append(list(b"".join([by_index[b::n] for b in range(n)]).translate(values)))
        pending = pending[need:]
        yield n, tables


def random_monotone(poset: PosetModel, in_arity: int, rng: random.Random) -> TableFn:
    """A random monotone function, filled greedily along a linear
    extension.  Every monotone function has positive probability."""
    table = _random_table(_fill_plan(poset, in_arity), _upper_bounds(poset), rng.getrandbits)
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


@lru_cache(maxsize=_OFFSETS_CACHE_SIZE)
def _offsets(n: int, width: int, stride: int, step: int) -> tuple:
    """The index vector ``b * stride + c * step`` for b < n and c < width,
    where each of n interpretations owns ``width`` entries of one block
    and ``stride`` of another.  It depends on the shapes of a term's nodes
    and the block's count alone, so every check of the process shares
    it."""
    vec = []
    for b in range(0, n * stride, stride):
        vec += range(b, b + width * step, step) if step else [b] * width
    return tuple(vec)


def lfp(fn: TableFn, params=()) -> int:
    """Least fixed point of ``fn: P x P^p -> P`` at the given parameters,
    by iteration from bottom."""
    if fn.out_arity != 1 or fn.in_arity < 1:
        raise ValueError("least fixed point needs a function P x P^p -> P")
    poset = fn.poset
    params = tuple(params)
    if len(params) != fn.in_arity - 1:
        raise ValueError(f"expected {fn.in_arity - 1} parameters, got {len(params)}")
    # the body at these parameters alone, x -> fn(x, params), as a block of one
    at_params = fn.table[_encode(params, poset.size)::poset.size ** len(params)]
    return _fixed_points(poset, 1, 0)(at_params, 1)[0]


def _compile(m: Morphism, poset: PosetModel, slots: dict, count: int,
             widths: list) -> tuple:
    """Compile a term in one walk.  A term without symbols becomes its
    constant table, returned as ``(table, None)``; any other term becomes
    ``(None, run)``.  ``run(tables, n)`` evaluates the term on a block of n
    interpretations at once: ``tables`` holds, indexed by ``slots``, each
    symbol's n tables one after another, and the result is the term's n
    tables one after another.

    A term's tables have |P|^source entries per interpretation for the
    source of one of its subterms, and the widest is a leaf's: a
    composite has the source of a part, or less.  So each leaf notes its
    width in ``widths`` (a symbol's is counted with the symbol tables), and
    ``_width`` refuses it, before its table is built, past ``count``."""
    size = poset.size
    if isinstance(m, Proj):
        width = _width(size, m.n, count, widths)
        span = size ** (m.n - m.i)
        return [(idx // span) % size for idx in range(width)], None
    if isinstance(m, Sym):
        slot = slots[m.symbol.name]
        return None, lambda tables, n: tables[slot]
    if isinstance(m, Tup):
        if not m.parts:
            return [0] * _width(size, m.source, count, widths), None
        parts = [_compile(part, poset, slots, count, widths) for part in m.parts]
        scales = [size ** part.target for part in m.parts[1:]]
        if all(run is None for _, run in parts):
            return _pack([table for table, _ in parts], scales), None
        return None, lambda tables, n: _pack(
            [table * n if run is None else run(tables, n) for table, run in parts], scales
        )
    if isinstance(m, Comp):
        inner, inner_run = _compile(m.f, poset, slots, count, widths)
        outer, outer_run = _compile(m.g, poset, slots, count, widths)
        if outer_run is None:
            if inner_run is None:
                return [outer[v] for v in inner], None
            at = outer.__getitem__
            return None, lambda tables, n: list(map(at, inner_run(tables, n)))
        inner_run = _as_run(inner, inner_run)
        # interpretation b's inner table reads b's outer table, which
        # starts at b * stride in the block
        shape = size ** m.f.source, size ** m.g.source, 0
        return None, lambda tables, n: list(map(
            outer_run(tables, n).__getitem__,
            map(add, inner_run(tables, n), _offsets(n, *shape)),
        ))
    if isinstance(m, Dagger):
        body, body_run = _compile(m.body, poset, slots, count, widths)
        solve = _fixed_points(poset, m.m, m.source)
        if body_run is None:
            return solve(body, 1), None
        return None, lambda tables, n: solve(body_run(tables, n), n)
    raise ValueError(f"cannot evaluate {m!r}")


def _width(size: int, source: int, count: int, widths: list) -> int:
    """|P|^source entries per interpretation, noted in ``widths``; refused past
    MAX_SAMPLED_ENTRIES for ``count`` of them, the exponent compared first."""
    if size > 1 and source >= MAX_SAMPLED_ENTRIES.bit_length() or (
            count * (width := size ** source) > MAX_SAMPLED_ENTRIES):
        raise _cap_exceeded(count, size, [source])
    widths.append(width)
    return width


def _cap_exceeded(count: int, size: int, sources: list) -> CapExceededError:
    """Refuse ``count`` interpretations of |P|^s table entries, s in ``sources``."""
    tables = " + ".join(f"{size}^{s}" for s in sources)
    return CapExceededError(f"{count} x {tables if len(sources) == 1 else f'({tables})'} "
                            f"table entries exceed the cap of {MAX_SAMPLED_ENTRIES} entries")


def _as_run(table: list | None, run):
    """The run of a compiled term, a constant one repeating its table."""
    return run if run is not None else lambda tables, n: table * n


def _fixed_points(poset: PosetModel, m: int, p: int):
    """``(body, n) -> table``: for n tables of ``body: P^m x P^p -> P^m``
    one after another, the least fixed points at every parameter of every
    table, iterating them all together from bottom.  From bottom a
    monotone body climbs a chain of P^m, which has at most
    ``m * (height - 1) + 1`` elements; one more step is allowed before the
    body is declared not monotone."""
    span = poset.size ** p
    # entry b * span + c of the result reads body b at x * span + c
    shape = span, poset.size ** m * span, 1
    bottom = _encode((poset.bottom,) * m, poset.size)
    steps = range(m * (poset.height() - 1) + 2)

    def solve(body: list, n: int) -> list:
        columns = _offsets(n, *shape)
        xs = [bottom] * (n * span)
        for _ in steps:
            rows = xs if span == 1 else map(span.__mul__, xs)
            nxt = list(map(body.__getitem__, map(add, rows, columns)))
            if nxt == xs:
                return xs
            xs = nxt
        raise RuntimeError(
            "fixed-point iteration failed to stabilize; interpretation not monotone"
        )

    return solve


def _pack(parts: list, scales: list) -> list:
    """Tupling: pack each entry's component outputs in mixed radix,
    ``code = code * size**width + part``, where ``scales`` holds
    ``size**width`` for every component after the first.  A block packs
    entry by entry like a single table."""
    acc = parts[0]
    for part, scale in zip(parts[1:], scales):
        acc = list(map(add, map(scale.__mul__, acc), part))
    return acc


def eval_morphism(m: Morphism, interp: Interpretation) -> TableFn:
    """Interpret a term as a TableFn over the interpretation's poset: a
    block of one interpretation."""
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
    poset = interp.poset
    table = _as_run(*_compile(m, poset, slots, 1, []))(tables, 1)
    return TableFn(poset, m.source, m.target, table)


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


def _counterexample(eq: Equation, poset: PosetModel, tables: list, b: int,
                    idx: int, lhs: int, rhs: int) -> dict:
    """The counterexample of interpretation b of a block at input ``idx``,
    where its sides first differ: ``tables`` are the block's symbol
    tables, ``lhs`` and ``rhs`` the sides' entries there."""
    size = poset.size
    lengths = [size ** s.in_arity for s in eq.symbols]
    return {
        "symbols": {s.name: table[b * k:(b + 1) * k]
                    for s, table, k in zip(eq.symbols, tables, lengths)},
        "input": list(_decode(idx, size, eq.lhs.source)),
        "lhs": list(_decode(lhs, size, eq.lhs.target)),
        "rhs": list(_decode(rhs, size, eq.rhs.target)),
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
    (default fixed) and ``samples`` draws, at least one.  The rule of
    MAX_SAMPLED_ENTRIES refuses a check with CapExceededError: it sizes
    each symbol's table before counting, then N interpretations (the
    exhaustive count or the samples) before any table is built, in either
    mode: the threshold picks the mode, the cap refuses.
    Both sides are compiled once; each interpretation is then a sequence
    of symbol tables in ``eq.symbols`` order, and the sides are evaluated
    on blocks of up to BLOCK consecutive interpretations, of at most
    BLOCK_ENTRIES entries of symbol tables or of widest tables unless one
    interpretation has more.  The first block whose sides differ gives the
    first interpretation that refutes the equation, so the result is the
    one a check of one interpretation at a time would give.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    arities = [s.in_arity for s in eq.symbols]
    entries = sum(_width(poset.size, arity, 1, []) for arity in arities)
    if mode in ("auto", "exhaustive"):
        count = interpretation_count(eq, poset, threshold)
        if count > threshold:
            if mode == "exhaustive":
                raise ThresholdExceededError(
                    f"about {count} interpretations exceed the exhaustive "
                    f"threshold {threshold}; sample instead"
                )
            mode = "sampled"
        else:
            mode = "exhaustive"
    if mode == "sampled":
        seed = DEFAULT_SEED if seed is None else seed
        count = samples = DEFAULT_SAMPLES if samples is None else samples
        if samples < 1:
            raise ValueError(f"a sampled check needs at least one sample, got {samples}")
    else:
        seed = samples = None
    if count * entries > MAX_SAMPLED_ENTRIES:
        raise _cap_exceeded(count, poset.size, arities)
    slots = {s.name: k for k, s in enumerate(eq.symbols)}
    widths = [entries]
    lhs = _as_run(*_compile(eq.lhs, poset, slots, count, widths))
    rhs = _as_run(*_compile(eq.rhs, poset, slots, count, widths))
    block_size = max(1, min(BLOCK, BLOCK_ENTRIES // max(widths)))
    if mode == "sampled":
        getrandbits = random.Random(seed).getrandbits
        if poset.size == 2:
            blocks = _two_element_blocks(poset, arities, samples, getrandbits, block_size)
        else:
            bounds = _upper_bounds(poset)
            plans = [_fill_plan(poset, s.in_arity) for s in eq.symbols]
            blocks = _blocks((
                [_random_table(plan, bounds, getrandbits) for plan in plans]
                for _ in range(samples)
            ), block_size)
    else:
        pools = [_monotone_pool(poset, s.in_arity, threshold, MAX_SAMPLED_ENTRIES)[1]
                 for s in eq.symbols]
        blocks = _blocks(iproduct(*pools), block_size)
    width = poset.size ** eq.lhs.source
    checked = 0
    for n, tables in blocks:
        lhs_block = lhs(tables, n)
        rhs_block = rhs(tables, n)
        if lhs_block != rhs_block:
            # the interpretation holding the first entry where the sides differ
            j = next(j for j, (a, b) in enumerate(zip(lhs_block, rhs_block)) if a != b)
            b = j // width
            return CheckResult(
                eq.name, poset.name, mode, seed, checked + b + 1, False,
                _counterexample(eq, poset, tables, b, j - b * width, lhs_block[j], rhs_block[j]),
            )
        checked += n
    return CheckResult(eq.name, poset.name, mode, seed, checked, True, None)


def _blocks(interpretations, block_size: int):
    """Consecutive runs of ``block_size`` interpretations (fewer at the
    end), each as ``(n, tables)``: the run's length, and every symbol's
    tables of the run, one after another, as ``_compile``'s runs read
    them."""
    while block := list(islice(interpretations, block_size)):
        yield len(block), [list(concat.from_iterable(column)) for column in zip(*block)]
