"""Acceptance suite.

One test per acceptance criterion, each ending in a single printed
``criterion N: PASS/FAIL`` line (visible with ``pytest -rA`` or on failure).
Criterion 6 checks the identity library under the same evaluation policy as
criterion 7: exhaustive where the interpretation count is at most 10^5,
otherwise 10^4 seeded samples.  The sampled checks are refutation-only;
a passing run is evidence, not proof.
"""

import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager

from conftest import all_automata, extend_with_word_actions, random_automaton
from fpal.algebra import (
    composition_factors,
    simple_divisors_group,
    simple_divisors_monoid,
    symmetric_group,
    transition_monoid,
)
from fpal.automaton import counter, full_T2, symmetric_automaton, to_dict
from fpal.cpo_model import chain, check_equation
from fpal.entailment import entails, equivalent
from fpal.identities import (
    adding_id_instance,
    conway_library,
    cycle_transposition_identity,
    gamma,
    gamma_init,
    power_identity,
)
from oracle import simple_divisors_monoid_bruteforce
from test_algebra import group_corpus, names
from test_cpo_model import (
    corrupted_double_dagger,
    corrupted_drop_params,
    corrupted_fixed_point,
    corrupted_left_zero,
)

EXHAUSTIVE_THRESHOLD = 100_000
SAMPLES = 10_000
SEED = 1729


@contextmanager
def criterion(n: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL - {summary}")
        raise
    print(f"criterion {n}: PASS - {summary}")


def policy_check(eq, poset):
    return check_equation(
        eq,
        poset,
        mode="auto",
        seed=SEED,
        samples=SAMPLES,
        threshold=EXHAUSTIVE_THRESHOLD,
    )


def test_criterion_1_monoid_orders():
    with criterion(1, "transition monoid orders match exact combinatorics"):
        for n in (3, 4, 5):
            m = transition_monoid(symmetric_automaton(n))
            assert m.order == math.factorial(n)
        for n in range(1, 9):
            assert transition_monoid(counter(n)).order == n
        assert transition_monoid(full_T2()).order == 4


def test_criterion_2_divisor_oracle_on_corpus(corpus, corpus_monoids):
    with criterion(2, "fast divisors agree with brute-force oracle on corpus"):
        assert len(corpus) >= 200
        for m in corpus_monoids:
            assert m.order <= 24
            assert simple_divisors_monoid(m) == simple_divisors_monoid_bruteforce(m)


def test_criterion_3_composition_series():
    with criterion(3, "composition factors multiply up and are order-invariant"):
        groups = group_corpus()
        assert all(g.order <= 60 for g in groups)
        for g in groups:
            factors = composition_factors(g)
            product = 1
            for f in factors:
                product *= f.order
            assert product == g.order
            for seed in range(5):
                assert composition_factors(g, rng=random.Random(seed)) == factors
        s4 = symmetric_group(4)
        assert sorted(f.order for f in composition_factors(s4)) == [2, 2, 2, 3]
        assert names(simple_divisors_group(symmetric_group(5))) == [
            "A_5", "C_2", "C_3", "C_5",
        ]


def test_criterion_4_entailment_verdicts(corpus):
    with criterion(4, "entailment verdicts, reflexivity and monotonicity"):
        assert entails([counter(6)], symmetric_automaton(3)).holds
        report = entails([counter(3)], counter(2))
        assert not report.holds
        assert names(report.missing) == ["C_2"]
        assert entails([symmetric_automaton(5)], counter(5)).holds

        for q in corpus:
            assert entails([q], q).holds

        rng = random.Random(404)
        for _ in range(30):
            h, extra, concl = (corpus[rng.randrange(len(corpus))] for _ in range(3))
            if entails([h], concl).holds:
                assert entails([h, extra], concl).holds
                assert entails([extra, h], concl).holds


def test_criterion_5_extension_coherence():
    with criterion(5, "extensions preserve the monoid and the identity"):
        rng = random.Random(505)
        pairs = 0
        while pairs < 50:
            q = random_automaton(rng)
            qp = extend_with_word_actions(q, rng, extra=rng.randrange(1, 3))
            m = transition_monoid(q)
            mp = transition_monoid(qp)
            assert {t.map for t in m.elements} == {t.map for t in mp.elements}
            assert equivalent(q, qp)
            pairs += 1


def test_criterion_6_identity_library():
    with criterion(6, "identity library holds; corrupted equations are refuted"):
        c2 = chain(2)
        library = conway_library()
        assert len(library) >= 100
        for eq in library:
            result = policy_check(eq, c2)
            assert result.holds, eq.name
            assert result.counterexample is None
        for n in (3, 4):
            assert policy_check(cycle_transposition_identity(n, 1), c2).holds
        for n in (1, 2):
            assert policy_check(adding_id_instance(n, 1), c2).holds
        corrupted = [
            corrupted_fixed_point(),
            corrupted_left_zero(),
            corrupted_drop_params(),
            corrupted_double_dagger(),
        ]
        assert len(corrupted) >= 3
        for eq in corrupted:
            result = policy_check(eq, c2)
            assert not result.holds
            assert result.counterexample is not None


def test_criterion_7_automaton_identities():
    with criterion(7, "automaton identities hold for every small automaton"):
        c2 = chain(2)
        total = 0
        for n in (1, 2, 3):
            for m in (1, 2):
                for q in all_automata(n, m):
                    total += 1
                    assert policy_check(gamma(q, 1), c2).holds
                    for s in range(1, n + 1):
                        assert policy_check(gamma_init(q, s, 1), c2).holds
        assert total == 778
        for n in range(1, 5):
            assert policy_check(gamma(counter(n), 1), c2).holds
            assert policy_check(power_identity(n, 1), c2).holds


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "fpal", *argv],
        capture_output=True,
        timeout=300,
    )


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "every CLI command is byte-deterministic"):
        c6 = tmp_path / "c6.json"
        c6.write_text(json.dumps(to_dict(counter(6))))
        c2 = tmp_path / "c2.json"
        c2.write_text(json.dumps(to_dict(counter(2))))
        eq = tmp_path / "fp.eq"
        eq.write_text(
            "name fixed-point\n"
            "sym f 2\n"
            "dagger(sym(f),1) = comp(sym(f),tup(dagger(sym(f),1),pi(1,1)))\n"
        )
        commands = [
            ["monoid", str(c6)],
            ["divisors", str(c6)],
            ["gamma", str(c6), "--initial", "2"],
            ["entails", "--hyp", str(c6), "--concl", str(c2)],
            ["check", str(eq), "--samples", "200", "--seed", str(SEED)],
            ["check", "--gamma", str(c2), "--poset", "chain:3", "--exhaustive"],
            ["family", "list", str(c2)],
            ["family", "symmetric"],
        ]
        for argv in commands:
            first = _run_cli(argv)
            second = _run_cli(argv)
            assert first.stdout == second.stdout, argv
            assert first.stderr == second.stderr, argv
            assert first.returncode == second.returncode, argv
