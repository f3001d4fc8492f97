import random

import pytest

from conftest import alternating5_automaton, extend_with_word_actions
from fpal.algebra import fingerprint, cyclic_group, transition_monoid
from fpal.automaton import (
    Automaton,
    InitializedAutomaton,
    counter,
    full_T2,
    saturate,
    symmetric_automaton,
)
from fpal.cpo_model import chain, check_equation
from fpal.entailment import (
    EntailmentReport,
    divisor_basis,
    entails,
    equivalent,
    family_completeness,
    initial_shift_check,
)
from fpal import entailment
from fpal.errors import CapExceededError, NotInitiallyConnectedError
from fpal.identities import gamma


def names(ids) -> list:
    return sorted(str(x) for x in ids)


def test_divisor_basis_examples():
    assert names(divisor_basis([counter(6)])) == ["C_2", "C_3"]
    assert names(divisor_basis([symmetric_automaton(5)])) == [
        "A_5", "C_2", "C_3", "C_5",
    ]
    assert names(divisor_basis([counter(2), counter(3)])) == ["C_2", "C_3"]
    assert divisor_basis([]) == set()


def test_entails_holds_with_coverage():
    report = entails([counter(6)], symmetric_automaton(3))
    assert report.holds
    assert not report.missing
    assert set(report.coverage) == set(report.conclusion_divisors)
    for fp, (i, witness) in report.coverage.items():
        assert i == 0
        assert witness.subgroup


def test_entails_failure_reports_missing():
    report = entails([counter(3)], counter(2))
    assert not report.holds
    assert names(report.missing) == ["C_2"]
    assert report.coverage == {}


def test_entails_across_hypotheses():
    report = entails([counter(4), counter(9)], counter(6))
    assert report.holds
    hyp_indices = {str(fp): i for fp, (i, _) in report.coverage.items()}
    assert hyp_indices == {"C_2": 0, "C_3": 1}


def test_report_invariants():
    for concl in [counter(2), counter(6), symmetric_automaton(3)]:
        report = entails([counter(30)], concl)
        assert isinstance(report, EntailmentReport)
        assert report.holds == (not report.missing)
        covered = set(report.coverage) | set(report.missing)
        assert covered == set(report.conclusion_divisors)


def test_report_json_shape():
    blob = entails([counter(6)], counter(2)).to_json()
    assert blob["holds"] is True
    assert blob["conclusion_divisors"] == ["C_2"]
    assert blob["coverage"]["C_2"]["hypothesis"] == 0
    assert "witness" in blob["coverage"]["C_2"]
    assert blob["missing"] == []


def test_equivalence_examples():
    assert equivalent(counter(4), counter(2))
    assert not equivalent(counter(5), counter(2))
    assert equivalent(full_T2(), saturate(full_T2()))


def test_equivalent_after_extension():
    rng = random.Random(3)
    q = symmetric_automaton(3)
    qp = extend_with_word_actions(q, rng, extra=2)
    assert equivalent(q, qp)


def test_initialized_hypothesis_must_be_connected():
    still = Automaton(2, ("a",), ((1,), (2,)))
    iq = InitializedAutomaton(still, 1)
    with pytest.raises(NotInitiallyConnectedError):
        entails([iq], counter(2))
    with pytest.raises(NotInitiallyConnectedError):
        divisor_basis([iq])


def test_reduce_reachable_drops_unreachable_divisors():
    # a 2-cycle next to a 3-cycle; only the 3-cycle is reachable from state 3
    q = Automaton(5, ("a",), ((2,), (1,), (4,), (5,), (3,)))
    iq = InitializedAutomaton(q, 3)
    report = entails([iq], counter(3), reduce_reachable=True)
    assert report.holds
    assert any("reachable" in note for note in report.notes)
    report = entails([iq], counter(2), reduce_reachable=True)
    assert not report.holds  # the C_2 part was unreachable and dropped


def test_connected_initialized_hypothesis_uses_full_monoid():
    iq = InitializedAutomaton(counter(6), 4)
    report = entails([iq], counter(6))
    assert report.holds
    assert report.notes == ()


def test_initialized_conclusion_is_accepted_with_note():
    report = entails([counter(6)], InitializedAutomaton(counter(2), 2))
    assert report.holds
    assert any("full state set" in note for note in report.notes)


def test_reflexivity_on_sample(corpus, corpus_monoids):
    for q in corpus[::9]:
        assert entails([q], q).holds


def test_monotonicity_of_hypotheses(corpus):
    rng = random.Random(17)
    picks = rng.sample(range(len(corpus)), 24)
    for i, j, k in zip(picks[::3], picks[1::3], picks[2::3]):
        base = entails([corpus[i]], corpus[k])
        widened = entails([corpus[i], corpus[j]], corpus[k])
        if base.holds:
            assert widened.holds


def test_transitivity_at_divisor_level(corpus):
    rng = random.Random(23)
    hits = 0
    for _ in range(60):
        h, q1, q2 = (corpus[rng.randrange(len(corpus))] for _ in range(3))
        if entails([h], q1).holds and entails([q1], q2).holds:
            assert entails([h], q2).holds
            hits += 1
    assert hits > 0


def test_soundness_crosscheck_against_model():
    # whatever the verdict, the conclusion's own identity holds in the model
    c2 = chain(2)
    for hyps, concl in [
        ([counter(3)], counter(2)),
        ([counter(6)], counter(2)),
    ]:
        entails(hyps, concl)
        assert check_equation(gamma(concl, 1), c2).holds


def test_initial_shift_check_identical():
    iq = InitializedAutomaton(counter(3), 1)
    report = initial_shift_check(iq, "a")
    assert report.identical
    assert report.initial == 1
    assert report.shifted_initial == 2
    assert names(report.base_divisors) == names(report.shifted_divisors) == ["C_3"]


def test_initial_shift_check_rejects_unknown_letter():
    iq = InitializedAutomaton(counter(3), 1)
    with pytest.raises(ValueError):
        initial_shift_check(iq, "z")


def test_initial_shift_with_reduction_can_differ():
    # "a" swaps 1 and 2, "b" dumps everything into the sink state 3
    q = Automaton(
        3,
        ("a", "b"),
        ((2, 3), (1, 3), (3, 3)),
    )
    iq = InitializedAutomaton(q, 1)
    report = initial_shift_check(iq, "b", reduce_reachable=True)
    assert report.shifted_initial == 3
    assert names(report.base_divisors) == ["C_2"]
    assert report.shifted_divisors == ()
    assert not report.identical


def test_family_symmetric_alternating_complete():
    for kind in ("symmetric", "alternating"):
        report = family_completeness(kind)
        assert report.complete
        assert report.witness is None
        assert report.covered is None


def test_family_cyclic_incomplete_with_a5_witness():
    report = family_completeness("cyclic")
    assert not report.complete
    assert str(report.witness) == "A_5"
    assert report.witness.order == 60


def test_family_unknown_name():
    with pytest.raises(ValueError):
        family_completeness("sporadic")


def test_family_explicit_list():
    report = family_completeness([counter(2)])
    assert not report.complete
    assert str(report.witness) == "C_3"
    assert names(report.covered) == ["C_2"]

    report = family_completeness([counter(6), symmetric_automaton(4)])
    assert str(report.witness) == "C_5"

    report = family_completeness([counter(2 * 3 * 5 * 7)])
    assert str(report.witness) == "C_11"


def test_family_list_covering_all_small_primes_reports_a5():
    # primes up to 59 all covered: the order-60 group is the next gap
    members = [counter(p) for p in
               (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)]
    report = family_completeness(members)
    assert str(report.witness) == "A_5"


def test_family_list_covering_primes_below_200_and_a5_reports_psl27():
    # C_211 is uncovered too, but PSL(2,7) (order 168) is smaller
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    members = [counter(p) for p in primes] + [alternating5_automaton()]
    report = family_completeness(members)
    assert str(report.witness) == "PSL(2,7)"
    assert report.witness.order == 168


def test_missing_scan_candidates_are_the_named_simple_groups():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    expected = {60: "A_5", 168: "PSL(2,7)", 360: "A_6", 504: "PSL(2,8)", 660: "PSL(2,11)"}
    assert list(entailment._NONABELIAN_GENERATORS) == list(expected)
    for order, gens in entailment._NONABELIAN_GENERATORS.items():
        candidate = entailment._nonabelian_simple_id(order)
        assert (candidate.order, str(candidate)) == (order, expected[order])
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation([v - 1 for v in p]) for p in gens]
        )
        assert group.order() == order
        # simple: every nontrivial conjugacy class generates the whole group
        for cls in group.conjugacy_classes():
            x = next(iter(cls))
            if not x.is_identity:
                assert group.normal_closure(x).order() == order


def test_cyclic_simple_id_closed_form():
    for p in (2, 3, 5, 7, 11, 13):
        closed = entailment._cyclic_simple_id(p)
        assert closed == fingerprint(cyclic_group(p))
        assert str(closed) == f"C_{p}"


def test_missing_scan_refuses_past_order_1091():
    primes = [p for p in range(2, 1092) if all(p % d for d in range(2, p))]
    covered = {entailment._cyclic_simple_id(p) for p in primes}
    covered |= {entailment._nonabelian_simple_id(o) for o in entailment._NONABELIAN_GENERATORS}
    with pytest.raises(CapExceededError):
        entailment._smallest_missing(covered)
    covered.remove(entailment._cyclic_simple_id(1091))
    assert str(entailment._smallest_missing(covered)) == "C_1091"


def test_family_witness_fingerprint_is_cp():
    report = family_completeness([counter(2)])
    c3 = fingerprint(cyclic_group(3))
    assert report.witness == c3
