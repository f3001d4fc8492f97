"""The two kernels a model check evaluates its blocks on (see
``cpo_model``).  A kernel is a class used as a namespace of primitives
on the tables of a block of n interpretations, each table being theirs
one after another: ``table`` makes a table of codes, ``join`` joins the
tables of a block, ``pack`` tuples parts in mixed radix (``scales`` holds
|P|^target of each part after the first), ``gather(outer, idx, w, n, k)``
reads ``idx``, k entries for each interpretation, in its own w entries of
``outer`` (with n = 1, all of ``idx`` in one table), and ``step(body,
xs, n, span, w)`` is one fixed-point step of n bodies of w entries at
span parameters each.

``Lists`` serves every check, with a ``map`` step per entry.  ``Bytes``
serves a check whose poset, output codes and gathered tables all fit in
a byte, at most 256 of each, in a few C calls per block: tupling is
arithmetic on the tables read as ints, one byte lane per entry, which
no lane carries out of, and a gather adds every interpretation's offset
in one int, then reads with one ``bytes.translate`` per run of
interpretations whose tables fill at most 256 bytes.

The index vectors depend on shapes alone, so every check of a process
shares them, in caches bounded in memory as well as in count.  A block
holds at most ``BLOCK_ENTRIES`` entries in each of its tables, unless one
interpretation alone has more, and no cached vector is longer: at most
entries cached x BLOCK_ENTRIES x bytes per entry, which is 32 x 8,192 x
36 bytes (a tuple slot and an int past 256), about 9.4 MB, for
``offsets``, and 512 x 8,192 x 1.07 bytes (a byte lane in an int's
30-bit digits), about 4.5 MB, for ``lanes``.
"""

from functools import lru_cache
from itertools import chain as concat
from operator import add

# The most entries in each table of a block: a check evaluates
# max(1, BLOCK_ENTRIES // w) interpretations at a time, w being its
# widest table or the sum of its symbol tables.  Measured on a 2-core
# x86-64 box against blocks of at most 32 interpretations and 1,024
# entries, in forked cold passes: a check-library pass (each op's best of
# 20 passes, seeds 21-22) reads op p90 0.277/0.269 ms there and
# 0.233/0.205 ms at 4,096, 0.231/0.202 ms at 8,192 and 0.232/0.231 ms at
# 16,384 entries; `fpal check --builtin conway` (10,000 samples) takes
# 1.67-1.78 s there, 1.20-1.26 s at 4,096, 1.08-1.17 s at 8,192 and
# 1.13-1.21 s at 16,384.
BLOCK_ENTRIES = 8192

# Shapes kept per process.  The library on chain(3) asks for 7 shapes of
# list offsets and, with 200 samples, 262 (block length, shape) pairs of
# lanes (381 with 914, the most its cap lets it draw), on chain(4) 15 and
# 146; a check-library pass on chain(2) asks for 137 lanes.  The lanes
# hold at most 512 x 8,192 x 1.07 bytes, about 4.5 MB.
OFFSETS_CACHE_SIZE = 32
LANES_CACHE_SIZE = 512


@lru_cache(maxsize=OFFSETS_CACHE_SIZE)
def offsets(width: int, stride: int, step: int) -> tuple:
    """The index vector ``b * stride + c * step`` for c < width and
    b < BLOCK_ENTRIES // width, where each interpretation of a block owns
    ``width`` entries of one table and ``stride`` of another: built for
    the longest block of its shape, whose first n * width entries serve
    a block of n, since ``map`` stops at its shorter input."""
    return _index_vector(BLOCK_ENTRIES // width, width, stride, step)


def _index_vector(n: int, width: int, stride: int, step: int) -> tuple:
    vec = []
    for b in range(0, n * stride, stride):
        vec += range(b, b + width * step, step) if step else [b] * width
    return tuple(vec)


def _block_offsets(n: int, width: int, stride: int, step: int) -> tuple:
    """``offsets`` for a block of n, built for it alone past BLOCK_ENTRIES
    entries, which only a block of one wider interpretation has."""
    vec = offsets(width, stride, step)
    return vec if n * width <= len(vec) else _index_vector(n, width, stride, step)


@lru_cache(maxsize=LANES_CACHE_SIZE)
def lanes(n: int, width: int, stride: int, step: int) -> int:
    """The index vector of a block of n on byte lanes, entry i in byte i
    of the int, with b counted afresh in every run of ``256 // stride``
    interpretations.  The block length stays in the key: reading a prefix
    of one vector per shape, a mask per call, made a check-library pass no
    faster than the builds it saves (137 for 40 shapes)."""
    run = b"".join([bytes(range(b, b + width * step, step)) if step else bytes((b,)) * width
                    for b in range(0, min(n, 256 // stride) * stride, stride)])
    return int.from_bytes((run * -(-n * width // len(run)))[:n * width], "little")


def _translate(idx: bytes, table: bytes, n: int, k: int, w: int) -> bytes:
    """``Bytes.gather`` of indices already offset within their runs."""
    run = 256 // w
    if n <= run:
        return idx.translate(table.ljust(256, b"\0"))
    return b"".join([idx[b * k:(b + run) * k].translate(table[b * w:(b + run) * w].ljust(256, b"\0"))
                     for b in range(0, n, run)])


class Lists:
    table = list

    def join(column) -> list:
        return list(concat.from_iterable(column))

    def pack(parts: list, scales: list) -> list:
        acc = parts[0]
        for part, scale in zip(parts[1:], scales):
            acc = list(map(add, map(scale.__mul__, acc), part))
        return acc

    def gather(outer: list, idx: list, w: int, n: int = 1, k: int = 0) -> list:
        # interpretation b's idx reads b's outer table, at b * w in the block
        if n > 1:
            idx = map(add, idx, _block_offsets(n, k, w, 0))
        return list(map(outer.__getitem__, idx))

    def step(body: list, xs: list, n: int, span: int, w: int) -> list:
        # entry b * span + c reads body b at x * span + c
        rows = xs if span == 1 else map(span.__mul__, xs)
        return list(map(body.__getitem__, map(add, rows, _block_offsets(n, span, w, 1))))


class Bytes:
    table = bytes
    join = b"".join

    def pack(parts: list, scales: list) -> bytes:
        acc = int.from_bytes(parts[0], "little")
        for part, scale in zip(parts[1:], scales):
            acc = acc * scale + int.from_bytes(part, "little")
        return acc.to_bytes(len(parts[0]), "little")

    def gather(outer: bytes, idx: bytes, w: int, n: int = 1, k: int = 0) -> bytes:
        if n > 1:
            idx = (int.from_bytes(idx, "little") + lanes(n, k, w, 0)).to_bytes(n * k, "little")
        return _translate(idx, outer, n, k, w)

    def step(body: bytes, xs: bytes, n: int, span: int, w: int) -> bytes:
        idx = int.from_bytes(xs, "little") * span + lanes(n, span, w, 1)
        return _translate(idx.to_bytes(n * span, "little"), body, n, span, w)


class PastAByte(Exception):
    """A term's codes or a table it gathers from pass 256 entries."""


def fit(kernel, size: int, e: int) -> None:
    """On ``Bytes``, raise ``PastAByte`` when |P|^e passes 256, the
    exponent compared first."""
    if kernel is Bytes and size > 1 and (e > 8 or size ** e > 256):
        raise PastAByte
