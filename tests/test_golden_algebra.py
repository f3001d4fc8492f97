"""Byte-for-byte goldens for the algebra engine.

``algebra_cli.json`` and ``entails.json`` were recorded before the divisor
pipeline was reworked (units of eMe by rank, one walk over the
idempotents, one BFS closure); ``group_divisors.json`` was recorded before
sections were read off one subgroup lattice (no subgroup or quotient
tables); ``subgroup_lattices.json`` was recorded before the lattice
search moved from numpy index arrays to integer bitsets;
``divisors_cli.json`` was recorded while every maximal subgroup still had
its whole subgroup lattice searched, and ``divisors_cli_large.json`` while
the solvable residual of a maximal subgroup still had its lattice
searched.  ``divisors_cli_cauchy.json`` was recorded while every maximal
subgroup that can add a prime still had its Cayley table built, and
``monoid_cli.json`` while ``fpal monoid`` still printed each element
through its own ``Transformation``.  The monoid and divisor output of
the CLI, the entailment reports, the group divisors with their witnesses
and the subgroup lattices must stay identical.
Rerun this module as a script to rewrite them from the current code.
"""

import contextlib
import io
import json
import os
import pathlib
import random
from unittest import mock

import pytest

from conftest import (
    alternating5_automaton,
    asl24_automaton,
    c2_times_c30_automaton,
    full_transformations,
    psl213_automaton,
    random_automaton,
)
from fpal.algebra import (
    DEFAULT_SUBGROUP_CAP,
    _group_divisors_with_witnesses,
    composition_factors,
)
from fpal.automaton import (
    Automaton,
    InitializedAutomaton,
    counter,
    full_T2,
    symmetric_automaton,
    to_dict,
)
from fpal import entailment
from fpal.cli import main
from fpal.entailment import entails
from oracle import all_subgroup_sets
from test_algebra import automaton_groups, group_corpus

GOLDEN = pathlib.Path(__file__).parent / "golden"
CLI_GOLDEN = GOLDEN / "algebra_cli.json"
ENTAILS_GOLDEN = GOLDEN / "entails.json"
GROUPS_GOLDEN = GOLDEN / "group_divisors.json"
DIVISORS_GOLDEN = GOLDEN / "divisors_cli.json"
LARGE_DIVISORS_GOLDEN = GOLDEN / "divisors_cli_large.json"
CAUCHY_DIVISORS_GOLDEN = GOLDEN / "divisors_cli_cauchy.json"
LATTICES_GOLDEN = GOLDEN / "subgroup_lattices.json"
MONOID_GOLDEN = GOLDEN / "monoid_cli.json"

RANDOM_SEEDS = (0, 3, 5, 9, 11)
PSL27_GENERATORS = ((2, 3, 4, 5, 6, 7, 1, 8), (8, 7, 4, 3, 6, 5, 2, 1))


def cli_inputs() -> dict:
    out = {
        "counter6": counter(6),
        "S3": symmetric_automaton(3),
        "S4": symmetric_automaton(4),
        "full_T2": full_T2(),
        "T3": full_transformations(3),
        "A5": alternating5_automaton(),
    }
    for seed in RANDOM_SEEDS:
        out[f"random{seed}"] = random_automaton(random.Random(seed), max_states=5)
    return out


def psl27_automaton() -> Automaton:
    """Two permutations of 8 states generating PSL(2,7), order 168."""
    gens = PSL27_GENERATORS
    return Automaton(8, ("a", "b"), tuple(tuple(g[s] for g in gens) for s in range(8)))


def divisors_inputs() -> dict:
    """The automata of ``bench/algebra_latency.py`` whose maximal subgroups
    are nonsolvable: S5 (one A5 residual), T5 (196 idempotents) and
    PSL(2,7) (a residual larger than A5)."""
    return {
        "S5": symmetric_automaton(5),
        "T5": full_transformations(5),
        "PSL(2,7)": psl27_automaton(),
    }


def large_divisors_inputs() -> dict:
    """Automata whose group has a perfect residual far above A_5, with the
    ``FPAL_CONFIG`` settings each runs under: ASL(2,4) (order 960, under
    the default cap), S6 (residual A_6) and PSL(2,13) (order 1092, with
    the cap raised to it)."""
    return {
        "ASL(2,4)": (asl24_automaton(), None),
        "S6": (symmetric_automaton(6), None),
        "PSL(2,13) cap 1092": (psl213_automaton(), {"subgroup_cap": 1092}),
    }


def cauchy_divisors_inputs() -> dict:
    """Automata whose simple divisors are the C_p of a maximal subgroup
    that is cyclic or solvable by its order: counter(300) (tuple maps,
    cyclic of an order with three primes), counter(210) (four primes,
    cyclic) and C_2 x C_30 (order 60 with three primes, not cyclic)."""
    return {
        "counter(300)": counter(300),
        "counter(210)": counter(210),
        "C2 x C30": c2_times_c30_automaton(),
    }


def monoid_inputs() -> dict:
    """S4, whose maps are bytes strings, and 257 states with one letter
    swapping states 1 and 2, whose maps are tuples (order 2)."""
    swap = tuple(({1: 2, 2: 1}.get(s, s),) for s in range(1, 258))
    return {"S4": symmetric_automaton(4), "swap on 257 states": Automaton(257, ("a",), swap)}


def cli_output(command: str, q: Automaton, tmp_path, config=None) -> dict:
    """Stdout, stderr and exit code of ``fpal <command>`` on ``q``, with
    ``FPAL_CONFIG`` naming a file that holds ``config``, or unset."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps(to_dict(q)))
    env = {k: v for k, v in os.environ.items() if k != "FPAL_CONFIG"}
    if config is not None:
        env["FPAL_CONFIG"] = str(tmp_path / "config.json")
        pathlib.Path(env["FPAL_CONFIG"]).write_text(json.dumps(config))
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main([command, str(path)])
    return {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "exit": code}


def divisors_cli_outputs(tmp_path) -> dict:
    """``cli_output`` of ``fpal divisors`` per input."""
    return {name: cli_output("divisors", q, tmp_path) for name, q in divisors_inputs().items()}


def large_divisors_cli_outputs(tmp_path) -> dict:
    return {name: cli_output("divisors", q, tmp_path, config)
            for name, (q, config) in large_divisors_inputs().items()}


def cauchy_divisors_cli_outputs(tmp_path) -> dict:
    return {name: cli_output("divisors", q, tmp_path)
            for name, q in cauchy_divisors_inputs().items()}


def monoid_cli_outputs(tmp_path) -> dict:
    return {name: cli_output("monoid", q, tmp_path) for name, q in monoid_inputs().items()}


def split_cycles() -> InitializedAutomaton:
    """From state 1 only the 2-cycle {1, 2} is reachable; the 3-cycle on
    {3, 4, 5} is not."""
    a = (2, 1, 4, 5, 3)
    return InitializedAutomaton(Automaton(5, ("a", "b"), tuple((a[s], s + 1) for s in range(5))), 1)


def entails_queries() -> dict:
    return {
        "counter6 |= S3": ([counter(6)], symmetric_automaton(3), False),
        "counter3 |= counter2": ([counter(3)], counter(2), False),
        "full_T2, counter3 |= S4": ([full_T2(), counter(3)], symmetric_automaton(4), False),
        "S4, counter5 |= A5": ([symmetric_automaton(4), counter(5)], alternating5_automaton(), False),
        "split_cycles reduced |= counter6": ([split_cycles()], counter(6), True),
        "counter2 |= split_cycles at 1": ([counter(2)], split_cycles(), False),
    }


def cli_outputs(tmp_path) -> dict:
    """Stdout of ``fpal monoid`` and ``fpal divisors`` per input."""
    out = {}
    for name, q in cli_inputs().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(to_dict(q)))
        out[name] = {}
        for command in ("monoid", "divisors"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main([command, str(path)]) == 0
            out[name][command] = stdout.getvalue()
    return out


def entails_outputs() -> dict:
    return {
        label: entails(hyps, concl, reduce_reachable=reduce).to_json()
        for label, (hyps, concl, reduce) in entails_queries().items()
    }


def group_outputs(tmp_path) -> dict:
    """Per corpus group: its divisors with witnesses, in the order the scan
    finds them, and its composition factors; and ``fpal divisors`` on T4
    (order 256, 41 idempotents)."""
    groups = []
    for g in group_corpus():
        witnesses = _group_divisors_with_witnesses(g, DEFAULT_SUBGROUP_CAP)
        groups.append({
            "order": g.order,
            "divisors": [{**fp.to_json(), "witness": w.to_json()} for fp, w in witnesses.items()],
            "composition_factors": [fp.to_json() for fp in composition_factors(g)],
        })
    path = tmp_path / "T4.json"
    path.write_text(json.dumps(to_dict(full_transformations(4))))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["divisors", str(path)]) == 0
    return {"groups": groups, "T4_divisors": stdout.getvalue()}


def lattice_text() -> str:
    """Every subgroup lattice of ``group_corpus()`` and of the S4 and A5
    automaton groups, as sorted index lists in lattice order, one group
    per line."""
    groups = {f"corpus{i}": g for i, g in enumerate(group_corpus())}
    groups.update(automaton_groups())
    lines = [f"  {json.dumps(name)}: {json.dumps([list(s) for s in all_subgroup_sets(g)])}"
             for name, g in groups.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_golden_monoid_and_divisors(tmp_path, monkeypatch):
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    golden = json.loads(CLI_GOLDEN.read_text())
    got = cli_outputs(tmp_path)
    assert list(got) == list(golden)
    for name in golden:
        for command in ("monoid", "divisors"):
            assert got[name][command] == golden[name][command], (name, command)


def test_golden_monoid_of_byte_and_tuple_maps(tmp_path, monkeypatch):
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    got = json.dumps(monoid_cli_outputs(tmp_path), indent=2) + "\n"
    assert got == MONOID_GOLDEN.read_text()


def test_golden_divisors_of_nonsolvable_automata(tmp_path, monkeypatch):
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    got = json.dumps(divisors_cli_outputs(tmp_path), indent=2) + "\n"
    assert got == DIVISORS_GOLDEN.read_text()
    got = json.dumps(large_divisors_cli_outputs(tmp_path), indent=2) + "\n"
    assert got == LARGE_DIVISORS_GOLDEN.read_text()


def test_golden_divisors_of_cyclic_and_solvable_order_groups(tmp_path, monkeypatch):
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    got = json.dumps(cauchy_divisors_cli_outputs(tmp_path), indent=2) + "\n"
    assert got == CAUCHY_DIVISORS_GOLDEN.read_text()


@pytest.mark.parametrize("label", list(entails_queries()))
def test_golden_entails(label):
    golden = json.loads(ENTAILS_GOLDEN.read_text())
    hyps, concl, reduce = entails_queries()[label]
    got = entails(hyps, concl, reduce_reachable=reduce).to_json()
    assert json.dumps(got, indent=2) == json.dumps(golden[label], indent=2)


def test_golden_entails_through_the_divisor_cache(monkeypatch):
    cold = {}
    for label, (hyps, concl, reduce) in entails_queries().items():
        monkeypatch.setattr(entailment, "_divisor_tables", {})
        cold[label] = entails(hyps, concl, reduce_reachable=reduce).to_json()
    assert json.dumps(cold, indent=2) + "\n" == ENTAILS_GOLDEN.read_text()
    monkeypatch.setattr(entailment, "_divisor_tables", {})
    for _ in range(2):
        assert json.dumps(entails_outputs(), indent=2) == json.dumps(cold, indent=2)


def test_golden_group_divisors(tmp_path, monkeypatch):
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    got = json.dumps(group_outputs(tmp_path), indent=2) + "\n"
    assert got == GROUPS_GOLDEN.read_text()


def test_golden_subgroup_lattices():
    assert lattice_text() == LATTICES_GOLDEN.read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        CLI_GOLDEN.write_text(json.dumps(cli_outputs(pathlib.Path(tmp)), indent=2) + "\n")
        GROUPS_GOLDEN.write_text(json.dumps(group_outputs(pathlib.Path(tmp)), indent=2) + "\n")
        DIVISORS_GOLDEN.write_text(
            json.dumps(divisors_cli_outputs(pathlib.Path(tmp)), indent=2) + "\n")
        LARGE_DIVISORS_GOLDEN.write_text(
            json.dumps(large_divisors_cli_outputs(pathlib.Path(tmp)), indent=2) + "\n")
        CAUCHY_DIVISORS_GOLDEN.write_text(
            json.dumps(cauchy_divisors_cli_outputs(pathlib.Path(tmp)), indent=2) + "\n")
        MONOID_GOLDEN.write_text(
            json.dumps(monoid_cli_outputs(pathlib.Path(tmp)), indent=2) + "\n")
    ENTAILS_GOLDEN.write_text(json.dumps(entails_outputs(), indent=2) + "\n")
    LATTICES_GOLDEN.write_text(lattice_text())
