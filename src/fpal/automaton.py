"""Complete deterministic automata over named input letters.

States are numbered 1..n.  ``delta[s - 1][j]`` is the state reached from
state ``s`` on the ``j``-th letter.  Each letter induces a map of the
state set, and words act by composing those maps left to right; the
maps are composed in the form of ``map_form``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from .errors import CapExceededError, NotInitiallyConnectedError

DEFAULT_MONOID_CAP = 5040


def _is_int(v) -> bool:
    """An int that is not a bool: JSON ``true`` loads as a bool, which
    Python counts as the int 1."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class Transformation:
    """A map on states 1..n, stored as the tuple of images: the 1-based
    view of a monoid element that ``TransformationMonoid.elements``
    gives."""

    map: tuple

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        n = len(self.map)
        if n == 0:
            raise ValueError("transformation needs at least one state")
        for v in self.map:
            if not 1 <= v <= n:
                raise ValueError(f"transformation value {v} out of range [1..{n}]")


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

    @property
    def n_letters(self) -> int:
        return len(self.letters)

    def step(self, state: int, letter: str) -> int:
        """The state reached from ``state`` on ``letter``; a word acts as
        ``functools.reduce(q.step, word, state)``."""
        try:
            j = self.letters.index(letter)
        except ValueError:
            raise ValueError(f"unknown letter {letter!r}") from None
        return self.delta[state - 1][j]


@dataclass(frozen=True)
class InitializedAutomaton:
    automaton: Automaton
    initial: int

    def __post_init__(self):
        if not 1 <= self.initial <= self.automaton.n_states:
            raise ValueError(
                f"initial state {self.initial} out of range [1..{self.automaton.n_states}]"
            )


# Maps on up to this many states are bytes strings; wider ones are tuples.
BYTE_MAP_STATES = 256


def map_form(n: int) -> tuple:
    """How the algebra engine stores a map on states 0..n-1, as
    ``(encode, pad, then, images)``.  ``encode`` turns a sequence of
    0-based images into a map, ``pad(y)`` prepares y once for being applied
    after other maps, ``then(x, pad(y))`` is the map "x, then y", and
    ``images(maps)`` iterates over one key per map, two keys being equal
    exactly when their maps have the same image.  Up to BYTE_MAP_STATES
    states a map is a bytes string, composing is one ``bytes.translate``
    and a key is the states outside the image, deleted from the string of
    all states by one more; wider maps are tuples, keyed by their images
    as frozensets.  Either way maps sort like the image tuples of their
    Transformations."""
    if n <= BYTE_MAP_STATES:
        states = bytes(range(n))
        return (bytes, lambda y: y.ljust(256, b"\0"), bytes.translate,
                lambda maps: map(bytes.translate, repeat(states), repeat(None), maps))
    return (tuple, lambda y: y.__getitem__, lambda x, p: tuple(map(p, x)),
            lambda maps: map(frozenset, maps))


def _map_closure(q: Automaton, cap: int | None = None) -> dict:
    """Every word-induced map, in the form of ``map_form``, mapped to a
    shortest word inducing it (ties broken toward earlier letters), in
    breadth-first discovery order."""
    if cap is not None and cap < 1:  # the identity alone is over the cap
        raise CapExceededError(f"transition monoid exceeds cap {cap}")
    encode, pad, then, _ = map_form(q.n_states)
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
    if not is_restriction(q, qp):
        return False
    available = _map_closure(q)
    encode = map_form(q.n_states)[0]
    for j, name in enumerate(qp.letters):
        if name in q.letters:
            continue
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
        k = q.letters.index(name)
        if any(row[j] != q_row[k] for row, q_row in zip(qp.delta, q.delta)):
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
