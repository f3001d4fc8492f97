"""Byte-for-byte goldens for the algebra engine.

The files under ``golden/`` were recorded before the divisor pipeline was
reworked (units of eMe by rank, one walk over the idempotents, one BFS
closure); the monoid and divisor output of the CLI and the entailment
reports must stay identical.  Rerun this module as a script to rewrite
them from the current code.
"""

import contextlib
import io
import json
import pathlib
import random

import pytest

from conftest import full_transformations, random_automaton
from fpal.automaton import (
    Automaton,
    InitializedAutomaton,
    counter,
    full_T2,
    symmetric_automaton,
    to_dict,
)
from fpal.cli import main
from fpal.entailment import entails

GOLDEN = pathlib.Path(__file__).parent / "golden"
CLI_GOLDEN = GOLDEN / "algebra_cli.json"
ENTAILS_GOLDEN = GOLDEN / "entails.json"

RANDOM_SEEDS = (0, 3, 5, 9, 11)


def alternating5_automaton() -> Automaton:
    """A 5-cycle and a 3-cycle: their group is A_5."""
    gens = [(2, 3, 4, 5, 1), (2, 3, 1, 4, 5)]
    return Automaton(5, ("a", "b"), tuple(tuple(g[s] for g in gens) for s in range(5)))


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


def test_golden_monoid_and_divisors(tmp_path, monkeypatch):
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    golden = json.loads(CLI_GOLDEN.read_text())
    got = cli_outputs(tmp_path)
    assert list(got) == list(golden)
    for name in golden:
        for command in ("monoid", "divisors"):
            assert got[name][command] == golden[name][command], (name, command)


@pytest.mark.parametrize("label", list(entails_queries()))
def test_golden_entails(label):
    golden = json.loads(ENTAILS_GOLDEN.read_text())
    hyps, concl, reduce = entails_queries()[label]
    got = entails(hyps, concl, reduce_reachable=reduce).to_json()
    assert json.dumps(got, indent=2) == json.dumps(golden[label], indent=2)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        CLI_GOLDEN.write_text(json.dumps(cli_outputs(pathlib.Path(tmp)), indent=2) + "\n")
    ENTAILS_GOLDEN.write_text(json.dumps(entails_outputs(), indent=2) + "\n")
