import itertools
import random

import pytest

from conftest import all_automata, permute_automaton, random_automaton
from fpal.algebra import transition_monoid
from fpal.automaton import Automaton, counter, full_T2, monoid_automaton
from fpal.cpo_model import chain, check_equation
from fpal.errors import CapExceededError
from fpal.identities import (
    adding_id_instance,
    c1_identity,
    c2_identity,
    c22_identity,
    composition_identity,
    conway_library,
    cycle_transposition_identity,
    double_dagger_identity,
    fixed_point_identity,
    gamma,
    gamma_group,
    gamma_init,
    gamma_monoid,
    left_zero_identity,
    n_dagger_identity,
    pairing_dual_identity,
    pairing_identity,
    parameter_identity,
    permutation_identity,
    power_identity,
    right_zero_identity,
    separated_pairing_identity,
    system_view,
)
from fpal.term import render

C2 = chain(2)

ALL_BUILDERS = [
    parameter_identity,
    composition_identity,
    right_zero_identity,
    pairing_identity,
    pairing_dual_identity,
    separated_pairing_identity,
    c1_identity,
    c2_identity,
    c22_identity,
]


def test_every_builder_validates_across_arities():
    for build in ALL_BUILDERS:
        for a, b, c in itertools.product((1, 2), (1, 2), (0, 1, 2)):
            eq = build(a, b, c)
            assert (eq.lhs.source, eq.lhs.target) == (eq.rhs.source, eq.rhs.target)
            # the dropped block of right-zero stays a parameter of the equation
            expected = b + c if build is right_zero_identity else c
            assert eq.param_arity == expected
    for a, c in itertools.product((1, 2), (0, 1, 2)):
        for build in (double_dagger_identity, fixed_point_identity,
                      left_zero_identity):
            eq = build(a, c)
            assert (eq.lhs.source, eq.lhs.target) == (eq.rhs.source, eq.rhs.target)


def test_fixed_point_render_is_stable():
    eq = fixed_point_identity(1, 1)
    assert render(eq.lhs) == "dagger(sym(f),1)"
    assert render(eq.rhs) == "comp(sym(f),tup(dagger(sym(f),1),pi(1,1)))"


def test_left_zero_shape():
    eq = left_zero_identity(1, 1)
    assert render(eq.lhs) == "dagger(comp(sym(f),pi(2,2)),1)"
    assert render(eq.rhs) == "sym(f)"


def test_conway_library_inventory():
    lib = conway_library()
    names = [eq.name for eq in lib]
    assert len(names) == len(set(names))
    prefixes = {n.split("[")[0] for n in names}
    assert prefixes == {
        "parameter", "double-dagger", "composition", "fixed-point",
        "left-zero", "right-zero", "pairing", "pairing-dual",
        "separated-pairing", "c1", "c2", "c22", "permutation", "n-dagger",
    }
    for eq in lib:
        assert (eq.lhs.source, eq.lhs.target) == (eq.rhs.source, eq.rhs.target)


def test_permutation_identity_validates_input():
    with pytest.raises(ValueError):
        permutation_identity((1, 1), 1, 1)
    with pytest.raises(ValueError):
        n_dagger_identity(0, 1, 1)


def test_builders_hold_at_second_order_instances():
    # a couple of arity-2 spot checks that stay exhaustively checkable
    for eq in [
        parameter_identity(2, 1, 0),
        right_zero_identity(2, 2, 1),
        separated_pairing_identity(2, 1, 1),
        n_dagger_identity(3, 1, 1),
        permutation_identity((2, 1), 1, 0),
    ]:
        r = check_equation(eq, C2, mode="exhaustive")
        assert r.holds, eq.name


# -- automaton identities -------------------------------------------------------


def test_gamma_shape_full_t2():
    q = full_T2()
    eq = gamma(q, 1)
    assert eq.param_arity == 1
    assert [s.in_arity for s in eq.symbols] == [5]
    view = system_view(q, 1)
    assert view["system"] == [
        "x1 = f(x1, x2, x1, x2, y1)",
        "x2 = f(x2, x1, x1, x2, y1)",
    ]
    assert view["diagonal"] == "x = f(x, x, x, x, y1)"


def test_gamma_init_projects_one_component():
    eq = gamma_init(counter(3), 2, 1)
    assert eq.param_arity == 1
    assert eq.lhs.target == 1
    with pytest.raises(ValueError):
        gamma_init(counter(3), 4, 1)
    with pytest.raises(ValueError):
        gamma(counter(2), -1)


def test_gamma_monoid_of_counter2():
    m = transition_monoid(counter(2))
    eq = gamma_monoid(m, 1)
    q = monoid_automaton(m)
    assert eq.name == gamma(q, 1).name
    assert q.n_states == 2 and q.n_letters == 2
    r = check_equation(eq, C2)
    assert r.holds


def test_gamma_group_matches_monoid_route():
    from fpal.algebra import cyclic_group

    eq = gamma_group(cyclic_group(3), 1)
    assert [s.in_arity for s in eq.symbols] == [4]
    assert check_equation(eq, C2).holds


def test_gamma_holds_for_p2():
    eq = gamma(counter(2), 2)
    r = check_equation(eq, C2, mode="exhaustive")
    assert r.holds


def test_gamma_p0():
    eq = gamma(counter(3), 0)
    assert eq.param_arity == 0
    assert check_equation(eq, C2).holds


def test_enumeration_invariance_of_gamma():
    rng = random.Random(31)
    automata = [counter(3), full_T2(),
                Automaton(3, ("a", "b"), ((2, 1), (3, 3), (1, 2)))]
    for q in automata:
        states = list(range(1, q.n_states + 1))
        letters = list(range(q.n_letters))
        for _ in range(3):
            rng.shuffle(states)
            rng.shuffle(letters)
            qp = permute_automaton(q, tuple(states), tuple(letters))
            base = check_equation(gamma(q, 1), C2)
            moved = check_equation(gamma(qp, 1), C2)
            assert base.holds == moved.holds


def test_gamma_on_three_chain_sample():
    # spot-check the identity on a deeper chain
    rng = random.Random(8)
    c3 = chain(3)
    candidates = [random_automaton(rng, max_states=3, max_letters=2)
                  for _ in range(6)]
    for q in candidates + [counter(2)]:
        r = check_equation(gamma(q, 1), c3)
        assert r.holds, q


def test_power_identity_inventory():
    eq = power_identity(1, 1)
    assert eq.lhs == eq.rhs  # one power is literally the same term
    with pytest.raises(ValueError):
        power_identity(0, 1)
    for n in (2, 3):
        assert check_equation(power_identity(n, 1), C2).holds


def test_cycle_transposition_identity_types_and_range():
    for n in (3, 4, 5):
        eq = cycle_transposition_identity(n, 1)
        assert (eq.lhs.source, eq.lhs.target) == (eq.rhs.source, eq.rhs.target) == (1, 1)
    eq0 = cycle_transposition_identity(3, 0)
    assert eq0.param_arity == 0
    with pytest.raises(ValueError):
        cycle_transposition_identity(2, 1)


def test_adding_id_types():
    for n, p in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        eq = adding_id_instance(n, p)
        assert (eq.lhs.source, eq.lhs.target) == (eq.rhs.source, eq.rhs.target) == (p, n)
        assert all(s.in_arity == 1 + n + p for s in eq.symbols)
    with pytest.raises(ValueError):
        adding_id_instance(0, 1)


def test_all_small_gammas_validate(corpus):
    for q in corpus[:40]:
        eq = gamma(q, 1)
        assert (eq.lhs.source, eq.lhs.target) == (eq.rhs.source, eq.rhs.target)
