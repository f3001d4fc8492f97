import random

import pytest

from fpal.algebra import transition_monoid
from fpal.automaton import Automaton, counter, full_T2, symmetric_automaton
from fpal.errors import CapExceededError

CORPUS_SEED = 20260818
CORPUS_SIZE = 220
CORPUS_MONOID_CAP = 24


def random_automaton(rng: random.Random, max_states: int = 4,
                     max_letters: int = 3) -> Automaton:
    states = range(1, max_states + 1)
    n = rng.choices(states, weights=states)[0]
    m = rng.randint(1, max_letters)
    letters = tuple("abc"[:m])
    delta = tuple(
        tuple(rng.randint(1, n) for _ in range(m)) for _ in range(n)
    )
    return Automaton(n, letters, delta)


def full_transformations(n: int) -> Automaton:
    """A cycle, a swap and a rank n-1 map: they generate all of T_n."""
    delta = tuple(
        (s % n + 1, {1: 2, 2: 1}.get(s, s), 1 if s == 2 else s) for s in range(1, n + 1)
    )
    return Automaton(n, ("a", "b", "c"), delta)


def permutation_automaton(gens) -> Automaton:
    """Automaton whose j-th letter acts as the j-th permutation (1-based
    image tuples)."""
    n = len(gens[0])
    letters = tuple("abcdefgh"[:len(gens)])
    return Automaton(n, letters, tuple(tuple(g[s] for g in gens) for s in range(n)))


def alternating5_automaton() -> Automaton:
    """A 5-cycle and a 3-cycle: their group is A_5."""
    return permutation_automaton([(2, 3, 4, 5, 1), (2, 3, 1, 4, 5)])


# S3 on states 1-3 beside an extensive automaton on states 4-13 (every
# letter moves a state up or leaves it): monoid order 77, 7 idempotents.
# The 13-state automaton that bench/algebra_latency.py times.
ENTAILS_SIZED_DELTA = (
    (2, 2, 1), (3, 1, 2), (1, 3, 3), (4, 4, 4), (7, 7, 5), (7, 8, 6), (9, 7, 8),
    (9, 9, 8), (9, 9, 10), (10, 10, 10), (13, 13, 11), (12, 13, 12), (13, 13, 13),
)


def entails_sized_automaton() -> Automaton:
    return Automaton(13, ("a", "b", "c"), ENTAILS_SIZED_DELTA)


def _cycle(n: int, k: int = 1) -> tuple:
    return tuple((s + k) % n + 1 for s in range(n))


# Three permutations per group, as in the entailment benchmark's pool of
# group-plus-extensive automata.
STREAM_GROUPS = {
    "1": [(1,), (1,), (1,)],
    "C2": [_cycle(2), (1, 2), _cycle(2)],
    "C3": [_cycle(3), (1, 2, 3), _cycle(3, 2)],
    "C4": [_cycle(4), _cycle(4, 2), (1, 2, 3, 4)],
    "C5": [_cycle(5), _cycle(5, 2), (1, 2, 3, 4, 5)],
    "C6": [_cycle(6), _cycle(6, 3), _cycle(6, 2)],
    "C7": [_cycle(7), (1, 2, 3, 4, 5, 6, 7), _cycle(7, 3)],
    "S3": [(2, 3, 1), (2, 1, 3), (1, 2, 3)],
    "D4": [_cycle(4), (4, 3, 2, 1), (1, 2, 3, 4)],
    "D5": [_cycle(5), (5, 4, 3, 2, 1), (1, 2, 3, 4, 5)],
}


def group_plus_extensive(name: str, max_order: int = 120) -> Automaton:
    """Disjoint union of the permutation automaton of ``STREAM_GROUPS[name]``
    and an extensive automaton on 8 to 10 more states, drawn from a
    generator seeded by the name until the monoid has at most
    ``max_order`` elements.  An extensive monoid has only trivial groups,
    so the union has the group's divisors, over many idempotents."""
    gens = STREAM_GROUPS[name]
    ng = len(gens[0])
    shape = random.Random(name)
    while True:
        ne = shape.randint(8, 10)
        ext = [[s if shape.random() < 0.25 else shape.randint(s, min(ne, s + 2))
                for _ in gens] for s in range(1, ne + 1)]
        q = permutation_automaton([tuple(g) + tuple(ng + ext[s][j] for s in range(ne))
                                   for j, g in enumerate(gens)])
        try:
            transition_monoid(q, cap=max_order)
        except CapExceededError:
            continue
        return q


def build_corpus(size: int = CORPUS_SIZE, seed: int = CORPUS_SEED) -> list:
    """A fixed collection of small automata whose monoids stay tiny.

    Seeded, so every run sees the same corpus.  Named families are pinned
    at the front; the rest is filled with random machines whose monoid
    order is at most CORPUS_MONOID_CAP.
    """
    members = [counter(k) for k in range(1, 5)]
    members.append(symmetric_automaton(3))
    members.append(symmetric_automaton(4))
    members.append(Automaton(3, ("a", "b"), ((2, 1), (3, 2), (1, 3))))
    # double transposition + 3-cycle: the even permutations of 4 states
    members.append(Automaton(4, ("a", "b"), ((2, 2), (1, 3), (4, 1), (3, 4))))
    rng = random.Random(seed)
    while len(members) < size:
        q = random_automaton(rng)
        try:
            transition_monoid(q, cap=CORPUS_MONOID_CAP)
        except CapExceededError:
            continue
        members.append(q)
    return members


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_monoids(corpus):
    return [transition_monoid(q, cap=CORPUS_MONOID_CAP) for q in corpus]


def extend_with_word_actions(q: Automaton, rng: random.Random,
                             extra: int = 2) -> Automaton:
    """An extension of ``q``: new letters whose actions are the actions of
    randomly chosen words."""
    m = transition_monoid(q)
    new_letters = []
    new_columns = []
    for k in range(extra):
        t = m.elements[rng.randrange(m.order)]
        new_letters.append(f"e{k}")
        new_columns.append(t.map)
    letters = q.letters + tuple(new_letters)
    delta = tuple(
        tuple(q.delta[i]) + tuple(col[i] for col in new_columns)
        for i in range(q.n_states)
    )
    return Automaton(q.n_states, letters, delta)


def permute_automaton(q: Automaton, state_images, letter_order) -> Automaton:
    """Rename states by ``state_images`` and reorder letters by
    ``letter_order`` (a permutation of letter positions)."""
    letters = tuple(q.letters[j] for j in letter_order)
    delta = [[0] * q.n_letters for _ in range(q.n_states)]
    for i in range(q.n_states):
        for newj, oldj in enumerate(letter_order):
            delta[state_images[i] - 1][newj] = state_images[q.delta[i][oldj] - 1]
    return Automaton(q.n_states, letters, tuple(tuple(r) for r in delta))


def all_automata(n: int, m: int):
    """Every automaton with exactly n states and m letters."""
    import itertools

    letters = tuple("ab"[:m])
    cells = list(itertools.product(range(1, n + 1), repeat=n * m))
    for flat in cells:
        delta = tuple(flat[i * m:(i + 1) * m] for i in range(n))
        yield Automaton(n, letters, delta)
