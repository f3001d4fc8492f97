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

The sides of an equation are compiled together once per check, each
distinct subterm once, into functions from the symbol tables to their
tables: subterms without symbols become constant tables at compile time,
so an interpretation only pays for the nodes that read a symbol, each
once per block.  The checks of a process share projection tables and
dagger solvers.  The compiled side evaluates a block of interpretations
at once, as many as fit in ``BLOCK_ENTRIES`` entries of each of its
tables, each table of the block being the tables of its interpretations
one after another: composition is one gather, with each interpretation's
offset into the block added to its indices; tupling packs the
concatenated tables; a constant is repeated once per interpretation; and
dagger iterates every interpretation of the block together.  The
primitives come from one of the two kernels of ``fpal.kernels``, picked
once per check by its compile walk: bytes, a few C calls per node and
block, when the poset, every output code and every gathered table fit in
a byte (every identity of the library on chain(2), all but two on
chain(3)), and lists, with a ``map`` step per entry, otherwise.

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
from itertools import islice, product as iproduct
from math import comb
from operator import itemgetter

from .errors import CapExceededError, ThresholdExceededError
from .kernels import BLOCK_ENTRIES, Bytes, Lists, PastAByte, fit
from .term import Comp, Dagger, Equation, Morphism, Proj, Sym, Tup

DEFAULT_EXHAUSTIVE_THRESHOLD = 100_000
DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 1729

# A check's work cap, in table entries, applied by prepare_check in this
# order before anything of that size is counted or built: each symbol's
# table, |P|^arity, fits alone; the threshold picks the mode; N
# interpretations (the exhaustive count or the samples) of the symbol
# tables, and of each leaf's |P|^s, fit.  An exponent is compared first,
# so no power past the cap is taken or printed.  A chain of k * k order
# entries past it is refused too.
MAX_SAMPLED_ENTRIES = 4_000_000

# Cache bounds.  A run checks over a few posets at a few arities each,
# with one threshold; the pools, which the counts read, share the poset
# bound.
_POSET_CACHE_SIZE = 16
_PLAN_CACHE_SIZE = 64
# A projection table past this many entries is built for its check alone.
_PROJECTION_ENTRIES = 1024


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
    tables in the order of ``_monotone_tables``, as bytes (as tuples on a
    poset of more than 256 elements), or None past cap
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
    pool = tuple(map(bytes if poset.size <= 256 else tuple, islice(tables, hold + 1)))
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
    plan, and for one sample of more than one entry an ``itemgetter`` of
    those places; and the closure steps ``(up, down, mask)``, one per coordinate,
    on the n tables laid out index by index, entry idx of sample b in byte
    lane ``idx * n + b``.  Along the coordinate of stride s the top is bit
    s equal to ``1 - bottom``, and a top index's predecessor lies s indices
    down (bottom 0) or up (bottom 1).  Only n tables of at most
    BLOCK_ENTRIES entries (8,192) in all are kept, so an entry holds at
    most 13 masks of 8,192 byte lanes (8.8 KB each as an int) and 8,192
    places (36 bytes each, a tuple slot and an int, and 8 more in the
    ``itemgetter`` of a block of one), about 474 KB, and the cache at
    most 64 of them, about 30 MB."""
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
    return tuple(positions), itemgetter(*positions) if n == 1 < length else None, tuple(steps)


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
    strided slice per index (or one ``itemgetter`` call for a block of one),
    closed by one shift and mask per coordinate on an integer with one
    byte per entry, and read back sample by sample, one strided slice per
    sample, as bytes.  The generator may be left past the last word
    used."""
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
            closures[n] = [(_two_element_closure if n << a <= BLOCK_ENTRIES else
                            _two_element_closure.__wrapped__)(poset, a, n) for a in arities]
        tables = []
        for offset, (positions, pick, steps) in zip(offsets, closures[n]):
            own = pending[offset:need]
            x = int.from_bytes(bytes(pick(own)) if pick else
                               b"".join([own[k::entries] for k in positions]), "little")
            for up, down, mask in steps:
                x |= (x << up >> down) & mask
            by_index = x.to_bytes(n * len(positions), "little")
            tables.append(b"".join([by_index[b::n] for b in range(n)]).translate(values))
        pending = pending[need:]
        yield n, tables


# ---------------------------------------------------------------------------
# evaluation


def _compile_sides(sides: list, poset: PosetModel, slots: dict, count: int,
                   widths: list) -> tuple:
    """The kernel a check runs on and the runs of its sides compiled for
    it: ``Bytes`` when the poset, every code and every gathered table of
    the sides fit in a byte, else ``Lists``, which no walk refuses.  The
    sides share one memo, fresh for each kernel tried."""
    for kernel in (Bytes, Lists)[poset.size > 256:]:
        memo = {}
        try:
            compiled = [_compile(side, poset, slots, count, widths, kernel, memo)
                        for side in sides]
        except PastAByte:
            continue
        return kernel, [_as_run(table, run) for table, run, _, _ in compiled]


def _compile(m: Morphism, poset: PosetModel, slots: dict, count: int,
             widths: list, kernel, memo: dict) -> list:
    """Compile a term in one walk, reading each node's source and target
    once, into ``[table, run, source, target]``.  A term without symbols
    becomes its constant table, with run None; any other term has table
    None and ``run(tables, n)``, which evaluates it on a block of n
    interpretations at once: ``tables`` holds, indexed by ``slots``, each
    symbol's n tables one after another, and the result is the term's n
    tables one after another, in the form of ``kernel``.  On ``Bytes`` a
    term whose codes or gathered tables pass a byte raises
    ``PastAByte``.

    ``memo`` maps ``id(node)`` to the entry of each distinct non-symbol
    node; the term keeps its nodes alive while the memo lives.  A node
    reached again returns its entry, its run made a ``_OncePerBlock``,
    which every parent reads from the entry when it runs.

    A term's tables have |P|^source entries per interpretation for the
    source of one of its subterms, and the widest is a leaf's: a
    composite has the source of a part, or less.  So each leaf notes its
    width in ``widths`` (a symbol's is counted with the symbol tables), and
    ``_width`` refuses it, before its table is built, past ``count``."""
    if isinstance(m, Sym):
        slot = slots[m.symbol.name]
        return [None, lambda tables, n: tables[slot], m.symbol.in_arity, 1]
    compiled = memo.get(id(m))
    if compiled is not None:
        if compiled[1] is not None and not isinstance(compiled[1], _OncePerBlock):
            compiled[1] = _OncePerBlock(compiled[1])
        return compiled
    size = poset.size
    if isinstance(m, Proj):
        width = _width(size, m.n, count, widths)
        project = _projection if width <= _PROJECTION_ENTRIES else _projection.__wrapped__
        compiled = [kernel.table(project(kernel, size, m.i, width)), None, m.n, 1]
    elif isinstance(m, Tup) and not m.parts:
        compiled = [kernel.table([0] * _width(size, m.source, count, widths)), None, m.source, 0]
    elif isinstance(m, Tup):
        parts = [_compile(part, poset, slots, count, widths, kernel, memo) for part in m.parts]
        target = sum(part[3] for part in parts)
        fit(kernel, size, target)
        scales = [size ** part[3] for part in parts[1:]]
        pack = kernel.pack
        if all(run is None for _, run, _, _ in parts):
            compiled = [pack([table for table, _, _, _ in parts], scales), None, m.source, target]
        else:
            compiled = [None, lambda tables, n: pack(
                [table * n if run is None else run(tables, n) for table, run, _, _ in parts],
                scales), m.source, target]
    elif isinstance(m, Comp):
        inner = _compile(m.f, poset, slots, count, widths, kernel, memo)
        outer = _compile(m.g, poset, slots, count, widths, kernel, memo)
        source, middle, target = inner[2], outer[2], outer[3]
        fit(kernel, size, middle)
        gather, w, k = kernel.gather, size ** middle, size ** source
        if outer[1] is not None:
            compiled = [None, lambda tables, n: gather(
                outer[1](tables, n), inner[0] * n if inner[1] is None else inner[1](tables, n),
                w, n, k)]
        elif inner[1] is not None:
            compiled = [None, lambda tables, n: gather(outer[0], inner[1](tables, n), w)]
        else:
            compiled = [gather(outer[0], inner[0], w), None]
        compiled += source, target
    elif isinstance(m, Dagger):
        body = _compile(m.body, poset, slots, count, widths, kernel, memo)
        source = body[2] - m.m
        fit(kernel, size, body[2])
        solve = _fixed_points(poset, m.m, source, kernel)
        compiled = ([solve(body[0], 1), None] if body[1] is None else
                    [None, lambda tables, n: solve(body[1](tables, n), n)]) + [source, m.m]
    else:
        raise ValueError(f"cannot evaluate {m!r}")
    memo[id(m)] = compiled
    return compiled


class _OncePerBlock:
    """The run of a subterm that occurs more than once in a check, with the
    last block's ``tables`` list, held so no later list takes its id, and
    the result for it."""

    __slots__ = ("run", "tables", "result")

    def __init__(self, run):
        self.run, self.tables, self.result = run, None, None

    def __call__(self, tables: list, n: int):
        if tables is not self.tables:
            self.result, self.tables = self.run(tables, n), tables
        return self.result


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _projection(kernel, size: int, i: int, width: int):
    """The table of ``pi(i, n)`` for |P|^n = width, read-only: bytes on
    ``Bytes``, a tuple on ``Lists``, which ``kernel.table`` copies.  Only
    tables of at most _PROJECTION_ENTRIES entries are kept, so the cache
    holds at most 64 x 1,024 x 36 bytes (a tuple slot and an int), about
    2.4 MB."""
    span = width // size ** i
    return (bytes if kernel is Bytes else tuple)((idx // span) % size for idx in range(width))


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


def _as_run(table, run):
    """The run of a compiled term, a constant one repeating its table."""
    return run if run is not None else lambda tables, n: table * n


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _fixed_points(poset: PosetModel, m: int, p: int, kernel):
    """``(body, n) -> table``: for n tables of ``body: P^m x P^p -> P^m``
    one after another, the least fixed points at every parameter of every
    table, iterating them all together from bottom with ``kernel.step``.
    From bottom a monotone body climbs a chain of P^m, which has at most
    ``m * (height - 1) + 1`` elements; one more step is allowed before the
    body is declared not monotone.  The checks of a process share each
    solver, which reads ``kernel.step`` as each solve starts."""
    span = poset.size ** p
    w = poset.size ** m * span
    bottom = kernel.table([_encode((poset.bottom,) * m, poset.size)])
    steps = range(m * (poset.height() - 1) + 2)

    def solve(body, n: int):
        xs, step = bottom * (n * span), kernel.step
        for _ in steps:
            nxt = step(body, xs, n, span, w)
            if nxt == xs:
                return xs
            xs = nxt
        raise RuntimeError(
            "fixed-point iteration failed to stabilize; interpretation not monotone"
        )

    return solve


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
        "symbols": {s.name: list(table[b * k:(b + 1) * k])
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


def check_equation(eq: Equation, poset: PosetModel, mode: str = "auto", seed: int | None = None,
                   samples: int | None = None,
                   threshold: int = DEFAULT_EXHAUSTIVE_THRESHOLD) -> CheckResult:
    """Check an equation: the check ``prepare_check`` sizes, run at once."""
    return prepare_check(eq, poset, mode, seed, samples, threshold)()


def prepare_check(eq: Equation, poset: PosetModel, mode: str = "auto", seed: int | None = None,
                  samples: int | None = None, threshold: int = DEFAULT_EXHAUSTIVE_THRESHOLD):
    """Size and compile a check of an equation over all (or sampled)
    monotone interpretations, returned as a function of no arguments that
    runs it to its CheckResult, so that every check can be sized first.

    ``mode`` is "exhaustive", "sampled", or "auto" (exhaustive when the
    interpretation count fits under ``threshold``).  Sampling uses ``seed``
    (default fixed; a negative one, whose stream is its absolute value's,
    is refused in every mode) and ``samples`` draws, at least one.  The rule of
    MAX_SAMPLED_ENTRIES refuses a check with CapExceededError: it sizes
    each symbol's table before counting, then N interpretations (the
    exhaustive count or the samples) before any table is built, in either
    mode: the threshold picks the mode, the cap refuses.
    Both sides are compiled once; each interpretation is then a sequence
    of symbol tables in ``eq.symbols`` order, and the sides are evaluated
    on blocks of consecutive interpretations, as many as fit in
    BLOCK_ENTRIES entries of their symbol tables and of their widest
    tables, and at least one.  The first block whose sides differ gives the
    first interpretation that refutes the equation, so the result is the
    one a check of one interpretation at a time would give.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
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
    kernel, (lhs, rhs) = _compile_sides([eq.lhs, eq.rhs], poset, slots, count, widths)
    block_size = max(1, BLOCK_ENTRIES // max(widths))

    def run() -> CheckResult:
        if mode == "sampled":
            getrandbits = random.Random(seed).getrandbits
            if poset.size == 2:
                blocks = _two_element_blocks(poset, arities, samples, getrandbits, block_size)
                if kernel is Lists:
                    blocks = ((n, [list(table) for table in tables]) for n, tables in blocks)
            else:
                bounds = _upper_bounds(poset)
                plans = [_fill_plan(poset, arity) for arity in arities]
                blocks = _blocks((
                    [kernel.table(_random_table(plan, bounds, getrandbits)) for plan in plans]
                    for _ in range(samples)
                ), kernel.join, block_size)
        else:
            pools = [_monotone_pool(poset, arity, threshold, MAX_SAMPLED_ENTRIES)[1]
                     for arity in arities]
            blocks = _blocks(iproduct(*pools), kernel.join, block_size)
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
                    _counterexample(eq, poset, tables, b, j - b * width,
                                    lhs_block[j], rhs_block[j]),
                )
            checked += n
        return CheckResult(eq.name, poset.name, mode, seed, checked, True, None)

    return run


def _blocks(interpretations, join, block_size: int):
    """Consecutive runs of ``block_size`` interpretations (fewer at the
    end), each as ``(n, tables)``: the run's length, and every symbol's
    tables of the run, one after another, joined by ``join`` into the
    form ``_compile``'s runs read."""
    while block := list(islice(interpretations, block_size)):
        yield len(block), [join(column) for column in zip(*block)]
