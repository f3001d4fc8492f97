import json
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import extend_with_word_actions, random_automaton
from fpal.algebra import transition_monoid
from fpal.automaton import (
    Automaton,
    InitializedAutomaton,
    Transformation,
    counter,
    from_dict,
    full_T2,
    is_extension,
    is_initially_connected,
    is_restriction,
    map_form,
    monoid_automaton,
    reachable_part,
    saturate,
    symmetric_automaton,
    to_dict,
)
from fpal.errors import CapExceededError


def test_transformation_composition_order():
    f, g = (2, 3, 1), (1, 1, 2)
    encode, pad, then, _ = map_form(3)
    # "then" applies f first
    fg = then(encode(v - 1 for v in f), pad(encode(v - 1 for v in g)))
    assert [v + 1 for v in fg] == [g[f[s] - 1] for s in range(3)] == [1, 2, 1]


def test_transformation_validation():
    with pytest.raises(ValueError):
        Transformation((0, 1))
    with pytest.raises(ValueError):
        Transformation((3, 1))
    with pytest.raises(ValueError):
        Transformation(())


def test_automaton_validation():
    with pytest.raises(ValueError):
        Automaton(2, ("a", "a"), ((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        Automaton(2, ("a",), ((1,),))
    with pytest.raises(ValueError):
        Automaton(2, ("a",), ((3,), (1,)))
    with pytest.raises(ValueError):
        Automaton(0, (), ())


def test_counter_structure():
    q = counter(4)
    assert q.letters == ("a",)
    assert [q.step(s, "a") for s in range(1, 5)] == [2, 3, 4, 1]


def test_symmetric_automaton_letters():
    q = symmetric_automaton(3)
    # each letter's map is its column of delta
    assert list(zip(*q.delta)) == [(2, 3, 1), (2, 1, 3)]
    with pytest.raises(ValueError):
        symmetric_automaton(2)


def test_full_t2_letter_actions():
    q = full_T2()
    maps = sorted(zip(*q.delta))
    assert maps == [(1, 1), (1, 2), (2, 1), (2, 2)]


def word_map(q: Automaton, word) -> tuple:
    """The images of states 1..n under a word, read left to right."""
    return tuple(reduce(q.step, word, s) for s in range(1, q.n_states + 1))


def test_induced_word_action():
    q = symmetric_automaton(3)
    # first a (rotate), then b (swap top two)
    assert word_map(q, "ab") == (1, 3, 2)
    assert word_map(q, "") == (1, 2, 3)
    with pytest.raises(ValueError, match="unknown letter 'x'"):
        word_map(q, "ax")


@given(st.integers(0, 400), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_induced_concatenation_is_composition(seed, i, j):
    rng = random.Random(seed)
    q = random_automaton(rng)
    words = ["", "a", q.letters[-1], "a" * i, (q.letters * 3)[:j]]
    u = rng.choice(words)
    v = rng.choice(words)
    u = "".join(c for c in u if c in q.letters)
    v = "".join(c for c in v if c in q.letters)
    m = transition_monoid(q)
    uv = [m.elements.index(Transformation(word_map(q, w))) for w in (u, v, u + v)]
    assert m.product(uv[0], uv[1]) == uv[2]


def test_extension_and_restriction():
    q = counter(2)
    rng = random.Random(7)
    qp = extend_with_word_actions(q, rng, extra=2)
    assert is_extension(qp, q)
    assert is_restriction(q, qp)
    assert not is_extension(q, qp) or qp.n_letters == q.n_letters
    # a genuinely new action is not an extension
    alien = Automaton(2, ("a", "z"), ((2, 1), (1, 1)))
    assert not is_extension(alien, q)


def test_extension_requires_same_states():
    with pytest.raises(ValueError):
        is_extension(counter(3), counter(2))


def test_saturate_counter2():
    q = saturate(counter(2))
    assert q.n_letters == 3  # original letter + one per monoid element
    m0 = transition_monoid(counter(2))
    m1 = transition_monoid(q)
    assert m0.elements == m1.elements
    assert is_extension(q, counter(2))


def test_saturate_full_t2():
    q = saturate(full_T2())
    assert q.n_letters == 8
    assert transition_monoid(q).elements == transition_monoid(full_T2()).elements


def test_saturate_fresh_names_avoid_collisions():
    q = Automaton(2, ("m1", "x"), ((2, 1), (1, 2)))
    sat = saturate(q)
    assert len(set(sat.letters)) == sat.n_letters


def test_initially_connected():
    assert is_initially_connected(InitializedAutomaton(counter(3), 2))
    still = Automaton(2, ("a",), ((1,), (2,)))
    assert not is_initially_connected(InitializedAutomaton(still, 1))


def test_initialized_automaton_validates_state():
    with pytest.raises(ValueError):
        InitializedAutomaton(counter(2), 3)


def test_reachable_part_two_and_three_cycle():
    # state 1,2 form a 2-cycle; states 3,4,5 a 3-cycle
    q = Automaton(5, ("a",), ((2,), (1,), (4,), (5,), (3,)))
    small = reachable_part(InitializedAutomaton(q, 2))
    assert small.automaton.n_states == 2
    assert small.initial == 1
    assert transition_monoid(small.automaton).order == 2
    big = reachable_part(InitializedAutomaton(q, 4))
    assert big.automaton.n_states == 3
    assert transition_monoid(big.automaton).order == 3


def test_reachable_part_is_identity_when_connected():
    iq = InitializedAutomaton(symmetric_automaton(3), 3)
    part = reachable_part(iq)
    assert part.automaton.n_states == 3
    assert part.initial == 1


def test_monoid_automaton_from_counter2():
    m = transition_monoid(counter(2))
    q = monoid_automaton(m)
    assert q.n_states == 2
    assert q.n_letters == 2
    assert q.letters == ("m1", "m2")
    # right multiplication table of C_2
    assert q.delta == ((1, 2), (2, 1))


def test_transition_monoid_cap():
    with pytest.raises(CapExceededError):
        transition_monoid(symmetric_automaton(4), cap=10)


def test_transition_monoid_cap_zero_refuses_the_identity():
    # the identity alone is one element, over a cap of 0; a cap of 1 admits
    # the trivial monoid
    with pytest.raises(CapExceededError, match="exceeds cap 0"):
        transition_monoid(counter(1), cap=0)
    assert transition_monoid(counter(1), cap=1).order == 1


def test_json_round_trip():
    for q in [counter(3), full_T2(), InitializedAutomaton(counter(2), 2)]:
        blob = json.dumps(to_dict(q))
        assert from_dict(json.loads(blob)) == q


def test_from_dict_rejects_bad_payloads():
    with pytest.raises(ValueError):
        from_dict({"states": 2, "letters": ["a"]})
    with pytest.raises(ValueError):
        from_dict({"states": 2, "letters": ["a"], "delta": [[1], [2]], "junk": 0})
    with pytest.raises(ValueError):
        from_dict({"states": "2", "letters": ["a"], "delta": [[1], [2]]})
    with pytest.raises(ValueError):
        from_dict([1, 2, 3])



@pytest.mark.parametrize("payload", [
    {"states": True, "letters": ["a"], "delta": [[True]]},
    {"states": True, "letters": ["a"], "delta": [[1]]},
    {"states": 1, "letters": ["a"], "delta": [[True]]},
    {"states": 2, "letters": ["a"], "delta": [[2], [1]], "initial": True},
], ids=["all", "states", "delta", "initial"])
def test_from_dict_rejects_json_booleans(payload):
    # bool is a subclass of int, so true once loaded as state 1
    with pytest.raises(ValueError):
        from_dict(payload)


def test_automaton_rejects_booleans():
    with pytest.raises(ValueError):
        Automaton(True, ("a",), ((1,),))
    with pytest.raises(ValueError):
        Automaton(2, ("a",), ((2,), (True,)))

@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_random_extension_keeps_monoid(seed):
    rng = random.Random(seed)
    q = random_automaton(rng, max_states=3, max_letters=2)
    try:
        transition_monoid(q, cap=64)
    except CapExceededError:
        return
    qp = extend_with_word_actions(q, rng, extra=rng.randint(1, 2))
    assert is_extension(qp, q)
    assert transition_monoid(qp, cap=64).elements == transition_monoid(q, cap=64).elements
