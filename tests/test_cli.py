import json
import subprocess
import sys

import pytest

from fpal.automaton import (
    Automaton,
    InitializedAutomaton,
    counter,
    symmetric_automaton,
    to_dict,
)
from fpal.cli import main


@pytest.fixture
def write_aut(tmp_path):
    def _write(q, name="aut.json"):
        path = tmp_path / name
        path.write_text(json.dumps(to_dict(q)))
        return str(path)

    return _write


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert err == ""
    return code, json.loads(out)


def test_monoid_counter(write_aut, capsys):
    code, blob = run_json(["monoid", write_aut(counter(3))], capsys)
    assert code == 0
    assert blob["order"] == 3
    assert blob["states"] == 3
    assert blob["elements"][blob["identity"]]["witness"] == []
    maps = {tuple(e["map"]) for e in blob["elements"]}
    assert maps == {(1, 2, 3), (2, 3, 1), (3, 1, 2)}


def test_divisors_output(write_aut, capsys):
    code, blob = run_json(["divisors", write_aut(counter(6))], capsys)
    assert code == 0
    names = {d["name"] for d in blob["simple_divisors"]}
    assert names == {"C_2", "C_3"}
    for d in blob["simple_divisors"]:
        assert d["witness"]["subgroup"]


def test_gamma_uninitialized(write_aut, capsys):
    code, blob = run_json(["gamma", write_aut(counter(2))], capsys)
    assert code == 0
    assert "initial" not in blob
    assert blob["symbols"] == [{"name": "f", "arity": 2}]
    assert len(blob["system"]) == 2
    assert blob["system"][0] == "x1 = f(x2, y1)"
    assert blob["lhs"].startswith("dagger(")


def test_gamma_initial_flag_and_file_default(write_aut, capsys):
    path = write_aut(InitializedAutomaton(counter(3), 2))
    code, blob = run_json(["gamma", path], capsys)
    assert code == 0
    assert blob["initial"] == 2

    code, blob = run_json(["gamma", path, "--initial", "3"], capsys)
    assert blob["initial"] == 3
    assert blob["lhs"].startswith("comp(pi(3,")


def test_gamma_bad_initial_state(write_aut, capsys):
    code, out, err = run_cli(["gamma", write_aut(counter(2)), "--initial", "9"], capsys)
    assert code == 2
    assert err.startswith("error[bad-input]:")


def test_entails_exit_codes(write_aut, capsys):
    c6 = write_aut(counter(6), "c6.json")
    c2 = write_aut(counter(2), "c2.json")
    c5 = write_aut(counter(5), "c5.json")

    code, blob = run_json(["entails", "--hyp", c6, "--concl", c2], capsys)
    assert code == 0
    assert blob["holds"] is True

    code, out, err = run_cli(["entails", "--hyp", c5, "--concl", c2], capsys)
    assert code == 1
    assert json.loads(out)["missing"] == ["C_2"]
    assert err == ""


def test_entails_disconnected_hypothesis(write_aut, capsys):
    still = InitializedAutomaton(Automaton(2, ("a",), ((1,), (2,))), 1)
    path = write_aut(still)
    c2 = write_aut(counter(2), "c2.json")
    code, out, err = run_cli(["entails", "--hyp", path, "--concl", c2], capsys)
    assert code == 2
    assert err.startswith("error[not-initially-connected]:")

    code, blob = run_json(
        ["entails", "--hyp", path, "--concl", c2, "--reduce-reachable"], capsys
    )
    assert code == 1
    assert any("reachable" in n for n in blob["notes"])


def test_check_equation_file(tmp_path, capsys):
    eq = tmp_path / "fixed_point.eq"
    eq.write_text(
        "name fixed-point\n"
        "sym f 2\n"
        "dagger(sym(f),1) = comp(sym(f),tup(dagger(sym(f),1),pi(1,1)))\n"
    )
    code, blob = run_json(["check", str(eq)], capsys)
    assert code == 0
    assert blob["poset"] == "chain(2)"
    assert blob["all_hold"] is True
    [result] = blob["results"]
    assert result["equation"] == "fixed-point"
    assert result["strategy"] == "exhaustive"
    assert result["refutation_only"] is True


def test_check_failing_equation_exits_1(tmp_path, capsys):
    # claims f+(p) = f(p,p), which fails when f is the first projection
    eq = tmp_path / "wrong.eq"
    eq.write_text(
        "name wrong\n"
        "sym f 2\n"
        "dagger(sym(f),1) = comp(sym(f),tup(pi(1,1),pi(1,1)))\n"
    )
    code, out, err = run_cli(["check", str(eq), "--exhaustive"], capsys)
    assert code == 1
    blob = json.loads(out)
    assert blob["all_hold"] is False
    assert blob["results"][0]["counterexample"] is not None


def test_check_requires_one_source(tmp_path, write_aut, capsys):
    eq = tmp_path / "x.eq"
    eq.write_text("name x\nsym f 1\nsym(f) = sym(f)\n")
    code, out, err = run_cli(["check"], capsys)
    assert code == 2
    assert err.startswith("error[bad-input]:")
    code, out, err = run_cli(
        ["check", str(eq), "--gamma", write_aut(counter(2))], capsys
    )
    assert code == 2
    assert err.startswith("error[bad-input]:")


def test_check_gamma_and_poset(write_aut, capsys):
    path = write_aut(counter(2))
    code, blob = run_json(["check", "--gamma", path, "--poset", "chain:3"], capsys)
    assert code == 0
    assert blob["poset"] == "chain(3)"
    assert blob["results"][0]["holds"] is True


def test_check_bad_poset(write_aut, capsys):
    code, out, err = run_cli(
        ["check", "--gamma", write_aut(counter(2)), "--poset", "lattice:4"], capsys
    )
    assert code == 2
    assert err.startswith("error[bad-input]:")


def test_check_sampled_seed_determinism(tmp_path, capsys):
    eq = tmp_path / "fixed_point.eq"
    eq.write_text(
        "name fixed-point\n"
        "sym f 2\n"
        "dagger(sym(f),1) = comp(sym(f),tup(dagger(sym(f),1),pi(1,1)))\n"
    )
    argv = ["check", str(eq), "--samples", "50", "--seed", "7"]
    code1, blob1 = run_json(argv, capsys)
    code2, blob2 = run_json(argv, capsys)
    assert code1 == code2 == 0
    assert blob1 == blob2
    assert blob1["results"][0]["strategy"] == "sampled"
    assert blob1["results"][0]["seed"] == 7
    code3, blob3 = run_json(
        ["check", str(eq), "--samples", "50", "--seed", "8"], capsys
    )
    assert blob3["results"][0]["seed"] == 8


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_refuses_zero_samples(tmp_path, capsys, samples):
    eq = tmp_path / "x.eq"
    eq.write_text("name x\nsym f 1\nsym(f) = sym(f)\n")
    code, out, err = run_cli(["check", str(eq), "--samples", samples], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error[bad-input]:")


def test_check_wide_symbol(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exhaustive_threshold": 10, "sample_count": 3}))
    monkeypatch.setenv("FPAL_CONFIG", str(cfg))
    eq = tmp_path / "wide.eq"
    eq.write_text("name wide\nsym f 10\nsym(f) = sym(f)\n")
    code, blob = run_json(["check", str(eq)], capsys)
    assert code == 0
    [result] = blob["results"]
    assert result["strategy"] == "sampled"
    assert result["interpretations_checked"] == 3


def test_check_wide_symbol_past_the_sampling_cap(tmp_path, capsys):
    eq = tmp_path / "wide.eq"
    eq.write_text("name wide\nsym f 10\nsym(f) = sym(f)\n")
    code, out, err = run_cli(["check", str(eq), "--samples", "10000"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error[cap-exceeded]:")


def test_family_verdicts(write_aut, capsys):
    code, blob = run_json(["family", "symmetric"], capsys)
    assert code == 0
    assert blob["complete"] is True

    code, out, err = run_cli(["family", "cyclic"], capsys)
    assert code == 1
    assert json.loads(out)["witness"] == "A_5"

    code, out, err = run_cli(
        ["family", "list", write_aut(counter(2))], capsys
    )
    assert code == 1
    assert json.loads(out)["witness"] == "C_3"


def test_family_list_past_scan_limit_is_cap_exceeded(write_aut, capsys, monkeypatch):
    from fpal import entailment

    monkeypatch.setattr(entailment, "_MISSING_SCAN_LIMIT", 2)
    code, out, err = run_cli(["family", "list", write_aut(counter(2))], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error[cap-exceeded]:")


def test_family_argument_validation(write_aut, capsys):
    code, out, err = run_cli(["family", "list"], capsys)
    assert code == 2
    assert err.startswith("error[bad-input]:")
    code, out, err = run_cli(
        ["family", "cyclic", write_aut(counter(2))], capsys
    )
    assert code == 2
    assert err.startswith("error[bad-input]:")


def test_missing_file_is_io_error(capsys):
    code, out, err = run_cli(["monoid", "/nonexistent/aut.json"], capsys)
    assert code == 2
    assert err.startswith("error[io]:")


def test_malformed_json_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(["monoid", str(path)], capsys)
    assert code == 2
    assert err.startswith("error[json]:")


def test_bad_automaton_payload(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"states": 2, "letters": ["a"], "delta": [[3], [1]]}))
    code, out, err = run_cli(["monoid", str(path)], capsys)
    assert code == 2
    assert err.startswith("error[bad-input]:")



def test_json_boolean_automaton_is_bad_input(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"states": True, "letters": ["a"], "delta": [[True]]}))
    code, out, err = run_cli(["divisors", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error[bad-input]:")


def test_divisors_of_32_state_monoid(write_aut, capsys):
    # the identity and b (1 -> 2) are two idempotents; integer keys in
    # base 32 once wrapped and merged them into one table entry
    delta = tuple((s, 2 if s == 1 else s) for s in range(1, 33))
    code, blob = run_json(["divisors", write_aut(Automaton(32, ("a", "b"), delta))], capsys)
    assert code == 0
    assert blob["order"] == 2
    assert blob["idempotents"] == 2
    assert blob["maximal_subgroup_orders"] == [1, 1]

def test_parse_error_code(tmp_path, capsys):
    eq = tmp_path / "broken.eq"
    eq.write_text("name broken\nsym f 1\nsym(f = sym(f)\n")
    code, out, err = run_cli(["check", str(eq)], capsys)
    assert code == 2
    assert err.startswith("error[parse]:")


def test_config_file(tmp_path, write_aut, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "text", "monoid_cap": 100}))
    monkeypatch.setenv("FPAL_CONFIG", str(cfg))
    code, out, err = run_cli(["monoid", write_aut(counter(3))], capsys)
    assert code == 0
    assert out.startswith("states: 3")
    assert "order: 3" in out


def test_config_cap_enforced(tmp_path, write_aut, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"monoid_cap": 2}))
    monkeypatch.setenv("FPAL_CONFIG", str(cfg))
    code, out, err = run_cli(["monoid", write_aut(counter(3))], capsys)
    assert code == 2
    assert err.startswith("error[cap-exceeded]:")


def test_config_rejects_unknown_keys(tmp_path, write_aut, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"monoid_cap": 100, "verbosity": 3}))
    monkeypatch.setenv("FPAL_CONFIG", str(cfg))
    code, out, err = run_cli(["monoid", write_aut(counter(3))], capsys)
    assert code == 2
    assert err.startswith("error[config]:")
    assert "verbosity" in err


def test_config_rejects_bad_values(tmp_path, write_aut, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    for payload in (
        {"format": "yaml"},
        {"seed": "twelve"},
        {"monoid_cap": -1},
        {"sample_count": 0},
        {"sample_count": -3},
    ):
        cfg.write_text(json.dumps(payload))
        monkeypatch.setenv("FPAL_CONFIG", str(cfg))
        code, out, err = run_cli(["monoid", write_aut(counter(3))], capsys)
        assert code == 2
        assert err.startswith("error[config]:")


def _run_subprocess(argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "fpal", *argv],
        capture_output=True,
        env=env,
        timeout=300,
    )


def test_subprocess_byte_determinism(write_aut):
    c6 = write_aut(counter(6), "c6.json")
    c2 = write_aut(counter(2), "c2.json")
    commands = [
        ["monoid", c6],
        ["divisors", c6],
        ["gamma", c6],
        ["entails", "--hyp", c6, "--concl", c2],
        ["check", "--gamma", c2, "--samples", "25", "--seed", "11"],
        ["family", "list", c2],
    ]
    for argv in commands:
        first = _run_subprocess(argv)
        second = _run_subprocess(argv)
        assert first.stdout == second.stdout, argv
        assert first.returncode == second.returncode, argv


def test_runs_never_import_numpy(write_aut):
    # fpal has no runtime dependency: importing it, finding the divisors
    # of S4 and model checking leave numpy unloaded
    s4 = write_aut(symmetric_automaton(4), "s4.json")
    script = f"""
import contextlib, io, json, sys
import fpal
from fpal.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["divisors", {s4!r}]),
             main(["check", "--builtin", "conway", "--samples", "5"])]
print(json.dumps([codes, "numpy" in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], False]
