import random
import resource
import subprocess
import sys

import pytest

from fpal.algebra import transition_monoid
from fpal.automaton import Automaton, counter, full_T2, symmetric_automaton
from fpal.errors import CapExceededError

CORPUS_SEED = 20260818
CORPUS_SIZE = 220
CORPUS_MONOID_CAP = 24

# Equations whose terms hold wide tables although their symbol tables are
# narrow, with the chain they are checked on: pi(1,6) on chain(12) has
# 12^6 = 2,985,984 entries per interpretation, and the symbol-free
# pi(1,5) on chain(30) one constant table of 24,300,000.
WIDE_TERMS = [
    ("name wide composite\nsym f 1\ncomp(sym(f),pi(1,6)) = comp(sym(f),pi(1,6))\n", 12),
    ("name wide constant\npi(1,5) = pi(1,5)\n", 30),
]


def run_limited(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run a Python script in a child process whose address space is held
    to 1.5 GB, so a check that tries to hold a table of billions of
    entries fails there instead of taking the memory of the machine."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=300, preexec_fn=limit)


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


def c2_times_c30_automaton() -> Automaton:
    """One letter swaps states 1 and 2, the other cycles states 3-32: the
    group C_2 x C_30, of order 60 with three primes, and not cyclic."""
    return permutation_automaton([(2, 1) + tuple(range(3, 33)),
                                  (1, 2) + tuple(range(4, 33)) + (3,)])


# S3 on states 1-3 beside an extensive automaton on states 4-13 (every
# letter moves a state up or leaves it): monoid order 77, 7 idempotents.
# The 13-state automaton that bench/algebra_latency.py times.
ENTAILS_SIZED_DELTA = (
    (2, 2, 1), (3, 1, 2), (1, 3, 3), (4, 4, 4), (7, 7, 5), (7, 8, 6), (9, 7, 8),
    (9, 9, 8), (9, 9, 10), (10, 10, 10), (13, 13, 11), (12, 13, 12), (13, 13, 13),
)


def entails_sized_automaton() -> Automaton:
    return Automaton(13, ("a", "b", "c"), ENTAILS_SIZED_DELTA)


def _gf4_mul(a: int, b: int) -> int:
    """Product in GF(4) = GF(2)[w]/(w^2 + w + 1), elements as bit pairs
    (2 is w, 3 is w^2 = w + 1); addition is xor."""
    p = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
    return p ^ 0b111 if p & 4 else p


def asl24_automaton() -> Automaton:
    """ASL(2,4) = 2^4:SL(2,4), order 960 and perfect, acting on the 16
    vectors (a, b) of GF(4)^2, vector (a, b) being state 4a + b + 1.  The
    letters are the translation by (1, 0) and SL(2,4)'s [[1,1],[0,1]],
    [[0,1],[1,0]] and diag(w, w^2)."""
    maps = (
        lambda a, b: (a ^ 1, b),
        lambda a, b: (a ^ b, b),
        lambda a, b: (b, a),
        lambda a, b: (_gf4_mul(2, a), _gf4_mul(3, b)),
    )
    gens = [tuple(4 * x + y + 1 for x, y in (f(a, b) for a in range(4) for b in range(4)))
            for f in maps]
    return permutation_automaton(gens)


def copies_automaton(gens, k: int) -> Automaton:
    """The group of the permutations ``gens`` of n points acting on k
    copies of them at once, copy j holding states j * n + 1 to j * n + n,
    and one collapse letter per copy, which sends each point of every copy
    to that point of its own copy.  The images are all the states and each
    copy; the idempotents with a copy as image all have the same kernel,
    so they lie in one D-class, with the group as maximal subgroup."""
    n = len(gens[0])
    letters = tuple(f"g{j}" for j in range(len(gens))) + tuple(f"c{i}" for i in range(k))
    delta = tuple(tuple(j * n + g[p] for g in gens) + tuple(i * n + p + 1 for i in range(k))
                  for j in range(k) for p in range(n))
    return Automaton(k * n, letters, delta)


def psl213_automaton() -> Automaton:
    """PSL(2,13), order 1092, on the 14 points of the projective line over
    GF(13): x is state x + 1 and infinity is state 14.  The letters are
    x -> x + 1, x -> 4x (4 generates the nonzero squares) and x -> -1/x."""
    inf = 13

    def shift(x):
        return inf if x == inf else (x + 1) % 13

    def scale(x):
        return inf if x == inf else 4 * x % 13

    def invert(x):
        return 0 if x == inf else inf if x == 0 else -pow(x, -1, 13) % 13

    return permutation_automaton([tuple(f(x) + 1 for x in range(14))
                                  for f in (shift, scale, invert)])


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
