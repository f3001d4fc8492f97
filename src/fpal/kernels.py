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
interpretations whose tables fill at most 256 bytes.  The offsets depend
on shapes alone, so every check of a process shares them.
"""

from functools import lru_cache
from itertools import chain as concat
from operator import add

# A check-library pass asks for about 220 shapes of index vectors.
OFFSETS_CACHE_SIZE = 256


@lru_cache(maxsize=OFFSETS_CACHE_SIZE)
def offsets(n: int, width: int, stride: int, step: int) -> tuple:
    """The index vector ``b * stride + c * step`` for b < n and c < width,
    where each of n interpretations owns ``width`` entries of one block
    and ``stride`` of another."""
    vec = []
    for b in range(0, n * stride, stride):
        vec += range(b, b + width * step, step) if step else [b] * width
    return tuple(vec)


@lru_cache(maxsize=OFFSETS_CACHE_SIZE)
def lanes(n: int, width: int, stride: int, step: int) -> int:
    """``offsets`` on byte lanes, entry i in byte i of the int, with b
    counted afresh in every run of ``256 // stride`` interpretations."""
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
        return list(map(outer.__getitem__, idx if n == 1 else map(add, idx, offsets(n, k, w, 0))))

    def step(body: list, xs: list, n: int, span: int, w: int) -> list:
        # entry b * span + c reads body b at x * span + c
        rows = xs if span == 1 else map(span.__mul__, xs)
        return list(map(body.__getitem__, map(add, rows, offsets(n, span, w, 1))))


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
