"""Complete deterministic automata over named input letters.

States are numbered 1..n.  ``delta[s - 1][j]`` is the state reached from
state ``s`` on the ``j``-th letter.  Each letter induces a transformation
of the state set, and words act by composing those transformations left
to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import CapExceededError, NotInitiallyConnectedError

DEFAULT_MONOID_CAP = 5040


def _is_int(v) -> bool:
    """An int that is not a bool: JSON ``true`` loads as a bool, which
    Python counts as the int 1."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class Transformation:
    """A map on states 1..n, stored as the tuple of images."""

    map: tuple

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        n = len(self.map)
        if n == 0:
            raise ValueError("transformation needs at least one state")
        for v in self.map:
            if not 1 <= v <= n:
                raise ValueError(f"transformation value {v} out of range [1..{n}]")

    @property
    def n(self) -> int:
        return len(self.map)

    def apply(self, state: int) -> int:
        return self.map[state - 1]

    def then(self, other: "Transformation") -> "Transformation":
        """The transformation acting as self first, then other."""
        if other.n != self.n:
            raise ValueError(f"cannot chain maps on {self.n} and {other.n} states")
        return Transformation(tuple(other.map[v - 1] for v in self.map))

    def is_identity(self) -> bool:
        return all(v == s + 1 for s, v in enumerate(self.map))

    @staticmethod
    def identity(n: int) -> "Transformation":
        return Transformation(tuple(range(1, n + 1)))


@dataclass(frozen=True)
class Automaton:
    n_states: int
    letters: tuple
    delta: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        if not _is_int(self.n_states) or self.n_states < 1:
            raise ValueError(f"automaton needs at least one state, got {self.n_states!r}")
        if not self.letters:
            raise ValueError("automaton needs at least one letter")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("letter names must be distinct")
        if len(self.delta) != self.n_states:
            raise ValueError(
                f"delta has {len(self.delta)} rows for {self.n_states} states"
            )
        for s, row in enumerate(self.delta, start=1):
            if len(row) != len(self.letters):
                raise ValueError(
                    f"delta row {s} has {len(row)} entries for {len(self.letters)} letters"
                )
            for v in row:
                if not _is_int(v) or not 1 <= v <= self.n_states:
                    raise ValueError(f"delta row {s} target {v!r} out of range [1..{self.n_states}]")
        object.__setattr__(
            self, "_letter_pos", {name: j for j, name in enumerate(self.letters)}
        )

    _letter_pos: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_letters(self) -> int:
        return len(self.letters)

    def letter_index(self, name: str) -> int:
        try:
            return self._letter_pos[name]
        except KeyError:
            raise ValueError(f"unknown letter {name!r}") from None

    def step(self, state: int, letter: str) -> int:
        return self.delta[state - 1][self.letter_index(letter)]

    def letter_transformation(self, j: int) -> Transformation:
        return Transformation(tuple(self.delta[s][j] for s in range(self.n_states)))

    def letter_transformations(self) -> tuple:
        return tuple(self.letter_transformation(j) for j in range(self.n_letters))


@dataclass(frozen=True)
class InitializedAutomaton:
    automaton: Automaton
    initial: int

    def __post_init__(self):
        if not 1 <= self.initial <= self.automaton.n_states:
            raise ValueError(
                f"initial state {self.initial} out of range [1..{self.automaton.n_states}]"
            )


def induced(q: Automaton, word) -> Transformation:
    """The state transformation induced by a word (empty word: identity).
    A plain string is read one letter per character."""
    t = Transformation.identity(q.n_states)
    for name in word:
        t = t.then(q.letter_transformation(q.letter_index(name)))
    return t


# Maps on up to this many states are bytes strings; wider ones are tuples.
BYTE_MAP_STATES = 256


def map_form(n: int) -> tuple:
    """How the algebra engine stores a map on states 0..n-1, as
    ``(encode, pad, then)``.  ``encode`` turns a sequence of 0-based images
    into a map, ``pad(y)`` prepares y once for being applied after other
    maps, and ``then(x, pad(y))`` is the map "x, then y".  Up to
    BYTE_MAP_STATES states a map is a bytes string and composing is one
    ``bytes.translate``; wider maps are tuples.  Either way maps sort like
    the image tuples of their Transformations."""
    if n <= BYTE_MAP_STATES:
        return bytes, lambda y: y.ljust(256, b"\0"), bytes.translate
    return tuple, lambda y: y.__getitem__, lambda x, p: tuple(map(p, x))


def _map_closure(q: Automaton, cap: int | None = None) -> dict:
    """Every word-induced map, in the form of ``map_form``, mapped to a
    shortest word inducing it (ties broken toward earlier letters), in
    breadth-first discovery order."""
    encode, pad, then = map_form(q.n_states)
    start = encode(range(q.n_states))
    gens = [(letter, pad(encode(row[j] - 1 for row in q.delta)))
            for j, letter in enumerate(q.letters)]
    witness = {start: ()}
    frontier = [start]
    while frontier:
        new = []
        for t in frontier:
            base = witness[t]
            for letter, g in gens:
                nxt = then(t, g)
                if nxt not in witness:
                    witness[nxt] = base + (letter,)
                    new.append(nxt)
                    if cap is not None and len(witness) > cap:
                        raise CapExceededError(
                            f"transition monoid exceeds cap {cap}"
                        )
        frontier = new
    return witness


def is_extension(qp: Automaton, q: Automaton) -> bool:
    """True when ``qp`` has the same states, keeps every letter of ``q``
    with its action, and every extra letter acts as some word of ``q``."""
    if qp.n_states != q.n_states:
        raise ValueError(
            f"state counts differ: {qp.n_states} vs {q.n_states}"
        )
    for j, name in enumerate(q.letters):
        if name not in qp.letters:
            return False
        if qp.letter_transformation(qp.letter_index(name)).map != q.letter_transformation(j).map:
            return False
    available = _map_closure(q)
    encode = map_form(q.n_states)[0]
    for name in qp.letters:
        if name in q.letters:
            continue
        j = qp.letter_index(name)
        if encode(row[j] - 1 for row in qp.delta) not in available:
            return False
    return True


def is_restriction(qp: Automaton, q: Automaton) -> bool:
    """True when ``qp`` keeps the states of ``q`` and a subset of its
    letters with unchanged actions."""
    if qp.n_states != q.n_states:
        raise ValueError(
            f"state counts differ: {qp.n_states} vs {q.n_states}"
        )
    for j, name in enumerate(qp.letters):
        if name not in q.letters:
            return False
        if q.letter_transformation(q.letter_index(name)).map != qp.letter_transformation(j).map:
            return False
    return True


def _fresh_letter_names(existing: Sequence[str], count: int) -> list:
    taken = set(existing)
    prefix = "m"
    while any(name.startswith(prefix) and name[len(prefix):].isdigit() for name in taken):
        prefix += "m"
    return [f"{prefix}{k}" for k in range(1, count + 1)]


def saturate(q: Automaton, cap: int = DEFAULT_MONOID_CAP) -> Automaton:
    """Extend the alphabet with one fresh letter per word-induced
    transformation, ordered by their state maps.  The transition monoid is
    unchanged."""
    maps = sorted(_map_closure(q, cap))
    names = _fresh_letter_names(q.letters, len(maps))
    letters = q.letters + tuple(names)
    delta = tuple(
        q.delta[s] + tuple(t[s] + 1 for t in maps) for s in range(q.n_states)
    )
    return Automaton(q.n_states, letters, delta)


def is_initially_connected(iq: InitializedAutomaton) -> bool:
    return len(_reachable_states(iq)) == iq.automaton.n_states


def _reachable_states(iq: InitializedAutomaton) -> list:
    """States reachable from the initial one, in discovery order."""
    q = iq.automaton
    seen = [iq.initial]
    seen_set = {iq.initial}
    k = 0
    while k < len(seen):
        s = seen[k]
        k += 1
        for j in range(q.n_letters):
            t = q.delta[s - 1][j]
            if t not in seen_set:
                seen_set.add(t)
                seen.append(t)
    return seen


def reachable_part(iq: InitializedAutomaton) -> InitializedAutomaton:
    """The subautomaton on the states reachable from the initial state,
    renumbered in discovery order (the initial state becomes 1)."""
    q = iq.automaton
    keep = _reachable_states(iq)
    renum = {s: k + 1 for k, s in enumerate(keep)}
    delta = tuple(
        tuple(renum[q.delta[s - 1][j]] for j in range(q.n_letters)) for s in keep
    )
    return InitializedAutomaton(Automaton(len(keep), q.letters, delta), 1)


# ---------------------------------------------------------------------------
# families


def counter(n: int) -> Automaton:
    """One letter stepping cyclically through ``n`` states."""
    if n < 1:
        raise ValueError(f"counter needs at least one state, got {n}")
    delta = tuple((s % n + 1,) for s in range(1, n + 1))
    return Automaton(n, ("a",), delta)


def symmetric_automaton(n: int) -> Automaton:
    """Two letters on ``n`` states: a full cycle and the transposition of
    states 1 and 2.  Together they induce every permutation."""
    if n < 3:
        raise ValueError(f"symmetric automaton needs at least 3 states, got {n}")
    swap = {1: 2, 2: 1}
    delta = tuple((s % n + 1, swap.get(s, s)) for s in range(1, n + 1))
    return Automaton(n, ("a", "b"), delta)


def full_T2() -> Automaton:
    """Two states with four letters inducing every map: the identity, the
    swap, and the two constant maps."""
    return Automaton(2, ("a", "b", "c", "d"), ((1, 2, 1, 2), (2, 1, 1, 2)))


def monoid_automaton(monoid) -> Automaton:
    """The automaton whose states are the elements of a transformation
    monoid and whose letters act by right multiplication."""
    k = monoid.order
    letters = tuple(f"m{j}" for j in range(1, k + 1))
    delta = tuple(
        tuple(monoid.product(i, j) + 1 for j in range(k)) for i in range(k)
    )
    return Automaton(k, letters, delta)


# ---------------------------------------------------------------------------
# serialization


def to_dict(q) -> dict:
    """JSON-ready dict for an Automaton or InitializedAutomaton."""
    if isinstance(q, InitializedAutomaton):
        out = to_dict(q.automaton)
        out["initial"] = q.initial
        return out
    return {
        "states": q.n_states,
        "letters": list(q.letters),
        "delta": [list(row) for row in q.delta],
    }


def from_dict(data: dict):
    """Inverse of ``to_dict``; returns an InitializedAutomaton when the
    ``initial`` key is present."""
    if not isinstance(data, dict):
        raise ValueError("automaton description must be a JSON object")
    for key in ("states", "letters", "delta"):
        if key not in data:
            raise ValueError(f"automaton description is missing {key!r}")
    extra = set(data) - {"states", "letters", "delta", "initial"}
    if extra:
        raise ValueError(f"unknown automaton keys: {sorted(extra)}")
    states = data["states"]
    letters = data["letters"]
    delta = data["delta"]
    if not _is_int(states):
        raise ValueError("'states' must be an integer")
    if not isinstance(letters, list) or not all(isinstance(x, str) for x in letters):
        raise ValueError("'letters' must be a list of strings")
    if not isinstance(delta, list) or not all(isinstance(row, list) for row in delta):
        raise ValueError("'delta' must be a list of rows")
    q = Automaton(states, tuple(letters), tuple(tuple(row) for row in delta))
    if "initial" in data:
        if not _is_int(data["initial"]):
            raise ValueError("'initial' must be an integer")
        return InitializedAutomaton(q, data["initial"])
    return q
