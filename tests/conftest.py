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
