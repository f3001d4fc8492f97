"""Morphism terms of a cartesian category with a parameterized fixed-point
operation.

Objects are finite powers of one generating sort and are identified with
their arity, so every morphism carries an integer source and target.
Products are strict: tupling concatenates targets, arity 0 is the terminal
object, and ``pi(1, 1)`` is the identity on the generator.  A term
``dagger(f, m)`` takes ``f`` with source ``m + p`` and target ``m`` to a
morphism ``p -> m`` (the solution of the system ``x = f(x, params)``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union


class TermError(ValueError):
    """Base class for term construction and parsing failures."""


class TermTypeError(TermError):
    """An ill-typed term."""


class ParseError(TermError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


@dataclass(frozen=True)
class Symbol:
    """An uninterpreted operation symbol taking ``in_arity`` inputs of the
    generating sort to one output."""

    name: str
    in_arity: int

    def __post_init__(self):
        if not self.name:
            raise TermTypeError("symbol name must be nonempty")
        if self.in_arity < 0:
            raise TermTypeError(f"symbol {self.name!r} has negative arity {self.in_arity}")


@dataclass(frozen=True)
class Proj:
    """Projection onto coordinate ``i`` of a product of arity ``n``."""

    i: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise TermTypeError(f"projection arity {self.n} must be at least 1")
        if self.i < 1:
            raise TermTypeError(f"index {self.i} must be at least 1")
        if self.i > self.n:
            raise TermTypeError(f"index {self.i} exceeds arity {self.n}")

    @property
    def source(self) -> int:
        return self.n

    @property
    def target(self) -> int:
        return 1


@dataclass(frozen=True)
class Tup:
    """Tupling of morphisms sharing one source.  The target is the sum of
    the component targets; zero components give the morphism into the
    terminal object, which is why the source is stored explicitly."""

    parts: tuple
    source: int

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.source < 0:
            raise TermTypeError(f"tupling source {self.source} must be nonnegative")
        for k, part in enumerate(self.parts):
            if part.source != self.source:
                raise TermTypeError(
                    f"tupling component {k + 1} has source {part.source}, expected {self.source}"
                )

    @property
    def target(self) -> int:
        return sum(part.target for part in self.parts)


@dataclass(frozen=True)
class Comp:
    """Composition ``g`` after ``f``."""

    g: "Morphism"
    f: "Morphism"

    def __post_init__(self):
        if self.f.target != self.g.source:
            raise TermTypeError(
                f"cannot compose: inner morphism has target {self.f.target}, "
                f"outer expects source {self.g.source}"
            )

    @property
    def source(self) -> int:
        return self.f.source

    @property
    def target(self) -> int:
        return self.g.target


@dataclass(frozen=True)
class Sym:
    """A use of an operation symbol."""

    symbol: Symbol

    @property
    def source(self) -> int:
        return self.symbol.in_arity

    @property
    def target(self) -> int:
        return 1


@dataclass(frozen=True)
class Dagger:
    """Fixed point of ``body: m + p -> m`` over its first ``m`` inputs,
    leaving ``p`` parameters: the result has source ``p`` and target ``m``."""

    body: "Morphism"
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise TermTypeError(f"dagger width {self.m} must be at least 1")
        if self.body.target != self.m:
            raise TermTypeError(
                f"dagger width {self.m} does not match body target {self.body.target}"
            )
        if self.body.source < self.m:
            raise TermTypeError(
                f"dagger body has source {self.body.source}, smaller than its width {self.m}"
            )

    @property
    def source(self) -> int:
        return self.body.source - self.m

    @property
    def target(self) -> int:
        return self.m


Morphism = Union[Proj, Tup, Comp, Sym, Dagger]


# ---------------------------------------------------------------------------
# constructors


def base_from_function(values: Iterable[int], n: int) -> Morphism:
    """The base morphism ``n -> m`` induced by a function ``[m] -> [n]``,
    given as the list of its values.  ``base_from_function([1], 1)`` is the
    identity; ``base_from_function([1, 1], 1)`` duplicates; the empty list
    gives the morphism into the terminal object."""
    vals = list(values)
    if n < 0:
        raise TermTypeError(f"base morphism arity {n} must be nonnegative")
    for v in vals:
        if not 1 <= v <= n:
            raise TermTypeError(f"base morphism value {v} out of range [1..{n}]")
    if len(vals) == 1:
        return Proj(vals[0], n)
    return Tup(tuple(Proj(v, n) for v in vals), n)


def identity(n: int) -> Morphism:
    """The identity morphism on arity ``n``."""
    return base_from_function(range(1, n + 1), n)


def tup(parts: Iterable[Morphism], source: int | None = None) -> Morphism:
    """Tupling.  ``source`` is required (and only used) for zero parts."""
    parts = tuple(parts)
    if not parts:
        if source is None:
            raise TermTypeError("tupling of zero components needs an explicit source arity")
        return Tup((), source)
    if source is not None and source != parts[0].source:
        raise TermTypeError(
            f"declared tupling source {source} disagrees with component source {parts[0].source}"
        )
    return Tup(parts, parts[0].source)


def power(f: Morphism, n: int) -> Morphism:
    """Iterate ``f: 1 + p -> 1`` in its first input: the first power is
    ``f`` itself and each next power feeds the previous one back in."""
    if n < 1:
        raise TermError(f"power exponent {n} must be at least 1")
    if f.target != 1:
        raise TermTypeError(f"power needs a morphism with target 1, got {f.target}")
    if f.source < 1:
        raise TermTypeError("power needs a morphism with source at least 1")
    p = f.source - 1
    params = base_from_function(range(2, p + 2), 1 + p)
    acc = f
    for _ in range(n - 1):
        acc = Comp(f, Tup((acc, params), 1 + p))
    return acc


def symbols_of(m: Morphism) -> dict:
    """All symbols used in ``m``, keyed by name.  Conflicting arities for
    one name are rejected."""
    out: dict = {}

    def walk(t: Morphism) -> None:
        if isinstance(t, Sym):
            prev = out.get(t.symbol.name)
            if prev is not None and prev != t.symbol:
                raise TermTypeError(
                    f"symbol {t.symbol.name!r} used with arities "
                    f"{prev.in_arity} and {t.symbol.in_arity}"
                )
            out[t.symbol.name] = t.symbol
        elif isinstance(t, Tup):
            for part in t.parts:
                walk(part)
        elif isinstance(t, Comp):
            walk(t.g)
            walk(t.f)
        elif isinstance(t, Dagger):
            walk(t.body)

    walk(m)
    return out


# ---------------------------------------------------------------------------
# rendering and parsing


def render(m: Morphism) -> str:
    """Serialize to the functional notation; ``parse`` inverts this."""
    if isinstance(m, Proj):
        return f"pi({m.i},{m.n})"
    if isinstance(m, Tup):
        if not m.parts:
            return f"bang({m.source})"
        return f"tup({','.join(render(p) for p in m.parts)})"
    if isinstance(m, Comp):
        return f"comp({render(m.g)},{render(m.f)})"
    if isinstance(m, Sym):
        return f"sym({m.symbol.name})"
    if isinstance(m, Dagger):
        return f"dagger({render(m.body)},{m.m})"
    raise TermError(f"cannot render {m!r}")


_TOKEN_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<punct>[(),])")


def _tokenize(text: str) -> Iterator[tuple]:
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "name":
            yield ("name", m.group(), pos)
        elif m.lastgroup == "int":
            yield ("int", int(m.group()), pos)
        else:
            yield (m.group(), m.group(), pos)
        pos = m.end()
    yield ("end", None, len(text))


class _Parser:
    def __init__(self, text: str, symbols: Mapping[str, Symbol]):
        self.tokens = list(_tokenize(text))
        self.k = 0
        self.symbols = symbols

    def peek(self) -> tuple:
        return self.tokens[self.k]

    def take(self, kind: str):
        tok = self.tokens[self.k]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    def int_arg(self) -> int:
        return self.take("int")[1]

    def term(self) -> Morphism:
        kind, value, pos = self.take("name")
        self.take("(")
        try:
            if value == "pi":
                i = self.int_arg()
                self.take(",")
                n = self.int_arg()
                out: Morphism = Proj(i, n)
            elif value == "bang":
                out = Tup((), self.int_arg())
            elif value == "tup":
                parts = [self.term()]
                while self.peek()[0] == ",":
                    self.take(",")
                    parts.append(self.term())
                out = Tup(tuple(parts), parts[0].source)
            elif value == "comp":
                g = self.term()
                self.take(",")
                f = self.term()
                out = Comp(g, f)
            elif value == "sym":
                name = self.take("name")[1]
                if name not in self.symbols:
                    raise ParseError(f"unknown symbol {name!r}", pos)
                out = Sym(self.symbols[name])
            elif value == "dagger":
                body = self.term()
                self.take(",")
                out = Dagger(body, self.int_arg())
            else:
                raise ParseError(f"unknown term head {value!r}", pos)
        except TermTypeError as exc:
            raise ParseError(str(exc), pos) from exc
        self.take(")")
        return out


def _symbol_table(symbols) -> Mapping[str, Symbol]:
    if symbols is None:
        return {}
    if isinstance(symbols, Mapping):
        return dict(symbols)
    return {s.name: s for s in symbols}


def parse(text: str, symbols=None) -> Morphism:
    """Parse the functional notation.  ``symbols`` supplies the arity of
    every name usable in ``sym(...)`` (a mapping or an iterable of Symbol);
    without it, terms containing symbols are rejected.  A term nested past
    the interpreter's recursion limit is a ParseError."""
    parser = _Parser(text, _symbol_table(symbols))
    try:
        out = parser.term()
    except RecursionError:
        raise ParseError("term nested too deeply", parser.peek()[2]) from None
    parser.take("end")
    return out


# ---------------------------------------------------------------------------
# equations


@dataclass(frozen=True)
class Equation:
    """A pair of parallel morphism terms over a shared symbol context."""

    name: str
    lhs: Morphism
    rhs: Morphism
    symbols: tuple

    def __post_init__(self):
        if (self.lhs.source, self.lhs.target) != (self.rhs.source, self.rhs.target):
            raise TermTypeError(
                f"equation {self.name!r} sides disagree: "
                f"{self.lhs.source} -> {self.lhs.target} vs {self.rhs.source} -> {self.rhs.target}"
            )
        used = symbols_of(self.lhs)
        for name, sym in symbols_of(self.rhs).items():
            prev = used.get(name)
            if prev is not None and prev != sym:
                raise TermTypeError(f"symbol {name!r} has conflicting arities across sides")
            used[name] = sym
        declared = {s.name: s for s in self.symbols}
        for name, sym in used.items():
            if declared.get(name, sym) != sym:
                raise TermTypeError(
                    f"declared symbol {name!r} disagrees with its use in the equation"
                )
            declared.setdefault(name, sym)
        object.__setattr__(
            self, "symbols", tuple(sorted(declared.values(), key=lambda s: s.name))
        )

    @classmethod
    def of(cls, name: str, lhs: Morphism, rhs: Morphism) -> "Equation":
        """Build an equation, collecting the symbol context from both sides."""
        return cls(name, lhs, rhs, ())

    @property
    def param_arity(self) -> int:
        return self.lhs.source


def render_equation(eq: Equation) -> str:
    """Serialize an equation to the line-oriented file format: a ``name``
    line, one ``sym <name> <arity>`` line per symbol, then ``lhs = rhs``."""
    lines = [f"name {eq.name}"]
    for s in eq.symbols:
        lines.append(f"sym {s.name} {s.in_arity}")
    lines.append(f"{render(eq.lhs)} = {render(eq.rhs)}")
    return "\n".join(lines) + "\n"


def parse_equation(text: str) -> Equation:
    """Parse the format produced by ``render_equation``.  ``#`` starts a
    comment; the equation itself may span several lines."""
    name = "equation"
    symbols: dict = {}
    body: list = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()
        if head[0] == "name" and not body:
            name = line[len("name"):].strip()
        elif head[0] == "sym" and not body:
            if len(head) != 3:
                raise ParseError(f"malformed symbol declaration: {line!r}", 0)
            try:
                arity = int(head[2])
            except ValueError:
                raise ParseError(f"malformed symbol arity in {line!r}", 0) from None
            if head[1] in symbols:
                raise ParseError(f"symbol {head[1]!r} declared twice", 0)
            symbols[head[1]] = Symbol(head[1], arity)
        else:
            body.append(line)
    joined = " ".join(body)
    if joined.count("=") != 1:
        raise ParseError("equation body must contain exactly one '='", 0)
    lhs_text, rhs_text = joined.split("=")
    lhs = parse(lhs_text, symbols)
    rhs = parse(rhs_text, symbols)
    try:
        return Equation(name, lhs, rhs, tuple(symbols.values()))
    except RecursionError:  # a tuple's target is summed two frames a level deep
        raise ParseError("equation nested too deeply", 0) from None
