import argparse
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WIDE_TERMS, run_limited
from fpal import cli, cpo_model, kernels
from fpal.automaton import (
    Automaton,
    InitializedAutomaton,
    counter,
    symmetric_automaton,
    to_dict,
)
from fpal.cli import main


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def emitted_text_matches_json_dumps(monkeypatch):
    """Every document a test here emits is also written with
    ``json.dumps(indent=2)``, and the two texts must agree."""
    emit = cli.emit

    def checked(obj, config):
        assert cli._json_text(obj) == json.dumps(obj, indent=2)
        emit(obj, config)

    monkeypatch.setattr(cli, "emit", checked)


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


def test_gamma_refuses_negative_parameter_arity(write_aut, capsys):
    # with or without an initial state, the arity is checked first
    path = write_aut(counter(2))
    for extra in ([], ["--initial", "1"]):
        code, out, err = run_cli(["gamma", path, "-p", "-1", *extra], capsys)
        assert (code, out) == (2, "")
        assert err == "error[bad-input]: parameter arity -1 must be nonnegative\n"


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


def test_golden_library_check_on_chain3(capsys, monkeypatch):
    # recorded before the byte kernel: 102 of the 104 library identities
    # run on bytes on chain(3), and the two n-dagger identities with n = 3
    # and a = 2, whose dagger bodies have 3^6 and 3^7 entries, on lists
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    code, out, err = run_cli(["check", "--builtin", "conway", "--samples", "50",
                              "--poset", "chain:3", "--seed", "1729"], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "check_conway_samples50_chain3_seed1729.json").read_text()


def test_library_check_on_chain3_keeps_every_lane_vector(capsys, monkeypatch):
    # 200 samples ask for 262 lane vectors, and every one stays cached
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    kernels.lanes.cache_clear()
    code, out, err = run_cli(["check", "--builtin", "conway", "--samples", "200",
                              "--poset", "chain:3"], capsys)
    assert (code, err) == (0, "")
    info = kernels.lanes.cache_info()
    assert info.misses == info.currsize > 256


def test_check_sizes_every_equation_before_checking_any(monkeypatch, capsys):
    # on chain(4), 200 samples of an identity with two symbols of arity 7
    # pass the work cap; the identities before it were once checked in
    # full (4.5 s) before the refusal threw their verdicts away
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    drawn = []
    draw = cpo_model._random_table
    monkeypatch.setattr(cpo_model, "_random_table",
                        lambda *args: drawn.append(args) or draw(*args))
    code, out, err = run_cli(["check", "--builtin", "conway", "--samples", "200",
                              "--poset", "chain:4"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error[cap-exceeded]: 200 x (4^7 + 4^7) table entries exceed "
                   "the cap of 4000000 entries\n")
    assert not drawn


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


def test_check_refuses_a_negative_seed(capsys, monkeypatch):
    # random.Random(-7) draws the stream of Random(7), so a negative seed
    # was printed but checked as its absolute value; FPAL_CONFIG refuses one
    # too
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    argv = ["check", "--builtin", "conway", "--poset", "chain:3", "--samples", "50"]
    code, out, err = run_cli(argv + ["--seed", "-7"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error[bad-input]:") and err.count("\n") == 1
    assert run_cli(argv + ["--seed", "0"], capsys)[0] == 0


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


@pytest.mark.parametrize("text, k", WIDE_TERMS, ids=["chain12", "chain30"])
def test_check_wide_term_is_cap_exceeded_at_once(tmp_path, text, k):
    eq = tmp_path / "wide.eq"
    eq.write_text(text)
    script = """
import sys, time
from fpal.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""
    proc = run_limited(script, "check", str(eq), "--poset", f"chain:{k}")
    # main printed nothing: the child's one line is its code and time
    [code, seconds] = proc.stdout.split()
    assert code == "2"
    assert float(seconds) < 1.0
    [line] = proc.stderr.splitlines()
    assert line.startswith("error[cap-exceeded]:")


# One line per refusal: (files to write, name -> text; FPAL_CONFIG, a file
# name or None; the arguments, where {name} stands for a file's path; the
# error code).  Each run must exit 2 with nothing on stdout and one line on
# stderr, within a second.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
WIDE_CHAIN7 = "name wide\nsym f 1\ncomp(sym(f),pi(1,4)) = comp(sym(f),pi(1,4))\n"
REFUSALS = {
    "sym f 10000": ({"eq": "name vast\nsym f 10000\nsym(f) = sym(f)\n"}, None,
                    ["check", "{eq}"], "cap-exceeded"),
    "sym f 1000000000": ({"eq": "name vast\nsym f 1000000000\nsym(f) = sym(f)\n"}, None,
                         ["check", "{eq}"], "cap-exceeded"),
    "pi(1,100000000)": ({"eq": "name vast\npi(1,100000000) = pi(1,100000000)\n"}, None,
                        ["check", "{eq}"], "cap-exceeded"),
    "chain:7 auto": ({"eq": WIDE_CHAIN7}, None,
                     ["check", "{eq}", "--poset", "chain:7"], "cap-exceeded"),
    "chain:7 exhaustive": ({"eq": WIDE_CHAIN7}, None,
                           ["check", "{eq}", "--poset", "chain:7", "--exhaustive"],
                           "cap-exceeded"),
    "deep equation": ({"eq": "name deep\n" + "comp(pi(1,1)," * 1200 + "pi(1,1)"
                       + ")" * 1200 + " = pi(1,1)\n"}, None, ["check", "{eq}"], "parse"),
    "deep automaton": ({"aut": DEEP_JSON}, None, ["divisors", "{aut}"], "json"),
    "deep FPAL_CONFIG": ({"cfg": DEEP_JSON}, "cfg", ["check", "--builtin", "conway"], "json"),
}
TIMED_MAIN = """
import contextlib, io, json, sys, time
from fpal.cli import main
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), time.perf_counter() - start]))
"""


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_are_one_error_line_within_a_second(case, tmp_path, monkeypatch):
    files, config, argv, code = REFUSALS[case]
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    if config:
        monkeypatch.setenv("FPAL_CONFIG", str(paths[config]))
    else:
        monkeypatch.delenv("FPAL_CONFIG", raising=False)
    proc = run_limited(TIMED_MAIN, *(arg.format(**paths) for arg in argv))
    assert proc.returncode == 0, proc.stderr[-400:]
    exit_code, out, seconds = json.loads(proc.stdout)
    assert (exit_code, out) == (2, "")
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error[{code}]: ")
    assert seconds < 1.0


@pytest.mark.parametrize("opening, depth", [("comp(pi(1,1),", 980), ("tup(", 490)],
                         ids=["comp 980", "tup 490"])
def test_deep_terms_within_the_recursion_limit_still_check(tmp_path, monkeypatch, opening,
                                                         depth):
    # a fresh interpreter, whose stack holds none of pytest's frames
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    eq = tmp_path / "deep.eq"
    eq.write_text(f"name deep\n{opening * depth}pi(1,1){')' * depth} = pi(1,1)\n")
    proc = _run_subprocess(["check", str(eq)])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["all_hold"] is True


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
    # without A_5's generators, a family covering every prime up to 59
    # reaches a group fpal cannot build
    from fpal import algebra

    monkeypatch.setitem(algebra._SIMPLE_GROUPS, 60, ("A_5", None))
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    files = [write_aut(counter(p), f"c{p}.json") for p in primes]
    code, out, err = run_cli(["family", "list", *files], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error[cap-exceeded]: every simple group of order up to 59 is "
                   "covered; fpal cannot build A_5, the next one\n")


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


def test_config_monoid_cap_zero_refuses_the_trivial_monoid(tmp_path, write_aut, capsys,
                                                           monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"monoid_cap": 0}))
    monkeypatch.setenv("FPAL_CONFIG", str(cfg))
    for command in ("monoid", "divisors"):
        code, out, err = run_cli([command, write_aut(counter(1))], capsys)
        assert (code, out) == (2, "")
        assert err == "error[cap-exceeded]: transition monoid exceeds cap 0\n"


def test_subgroup_cap_refuses_a_group_that_needs_no_lattice(tmp_path, write_aut, capsys,
                                                             monkeypatch):
    # C_12 is solvable, so its divisors need no subgroup search; it is
    # still refused above the cap, and accepted at it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subgroup_cap": 10}))
    monkeypatch.setenv("FPAL_CONFIG", str(cfg))
    code, out, err = run_cli(["divisors", write_aut(counter(12))], capsys)
    assert (code, out) == (2, "")
    assert err == "error[cap-exceeded]: subgroup enumeration cap 10 exceeded by group of order 12\n"
    cfg.write_text(json.dumps({"subgroup_cap": 12}))
    code, blob = run_json(["divisors", write_aut(counter(12))], capsys)
    assert code == 0
    assert [d["name"] for d in blob["simple_divisors"]] == ["C_2", "C_3"]


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


# ---------------------------------------------------------------------------
# argument parsing: main against the full parser


COMMANDS = ("monoid", "divisors", "gamma", "entails", "check", "family")

# Command lines main reads from its argument table alone, building no parser.
WELL_FORMED = [
    ["monoid", "a.json"],
    ["divisors", "a.json"],
    ["divisors", ""],
    ["gamma", "a.json", "-p", "2", "--initial", "3"],
    ["entails", "--hyp", "a.json", "--hyp", "b.json", "--concl", "c.json",
     "--reduce-reachable"],
    ["entails", "--concl", "c.json", "--hyp", "a.json"],
    ["check", "x.eq", "--poset", "chain:3", "--samples", "5", "--seed", "7"],
    ["check", "--seed", "1", "--seed", "2"],
    ["check", "--builtin", "conway", "--exhaustive"],
    ["check", "--gamma", "a.json", "-p", "2"],
    ["family", "list", "a.json", "b.json", "--reduce-reachable"],
    ["family", "symmetric"],
]

# Help, usage errors and parsed namespaces that main must reproduce exactly
# as build_parser().parse_args gives them.  Files need not exist: the
# commands are replaced by stand-ins that only record their namespace.
ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["--help", "divisors"],
    ["bogus"],
    ["bogus", "a.json"],
    *([command, "-h"] for command in COMMANDS),
    ["divisors", "a.json", "--he"],
    ["divisors"],
    ["family"],
    ["entails", "--concl", "c.json"],
    ["gamma", "a.json", "--initial"],
    ["divisors", "a.json", "b.json"],
    ["monoid", "a.json", "--frobnicate"],
    ["monoid", "--frobnicate", "a.json"],
    ["gamma", "a.json", "-p", "x"],
    ["gamma", "a.json", "-p", "-3"],
    ["gamma", "a.json", "-p2"],
    ["gamma", "a.json", "-p=2"],
    ["check", "--builtin", "nope"],
    ["check", "--poset", "--seed"],
    ["check", "--samples", "0x10"],
    ["check", "x.eq", "y.eq"],
    ["family", "bogus"],
    ["family", "list", "a", "--reduce-reachable", "b"],
    ["--", "divisors", "a.json"],
    ["divisors", "--", "a.json"],
    ["family", "cyclic", "--", "-x.json"],
    ["gamma", "a.json", "--init", "1"],
    ["gamma", "a.json", "--par", "2"],
    ["entails", "--hyp=F", "--concl=F"],
    ["check", "--exhaustive", "--samples", "3"],
    *WELL_FORMED,
]


@pytest.fixture
def recorded(monkeypatch):
    """Stand-ins for every ``cmd_*`` that record the namespace they get.
    The parser cache is emptied before and after, so no cached parser
    keeps a stand-in."""
    seen = []

    def record(args, config):
        seen.append(vars(args))
        return 0

    for command in COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{command}", record)
    monkeypatch.delenv("FPAL_CONFIG", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    cli.build_parser.cache_clear()
    yield seen
    cli.build_parser.cache_clear()


def _outcome(call, capsys):
    try:
        result = ("parsed", call())
    except SystemExit as stop:
        result = ("exit", stop.code)
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_main_parses_as_the_full_parser(argv, recorded, capsys):
    expected = _outcome(lambda: vars(cli.build_parser().parse_args(argv)), capsys)
    got = _outcome(lambda: main(argv), capsys)
    if got[0] == ("parsed", 0):
        got = (("parsed", recorded.pop()), *got[1:])
    assert got == expected
    assert recorded == []


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_a_well_formed_argv_builds_no_parser(argv, recorded, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an argument parser was built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert main(argv) == 0
    assert recorded[0]["command"] == argv[0]
    assert cli.build_parser.cache_info().currsize == 0


def test_a_divisors_run_imports_no_argparse(write_aut):
    # argparse, and the gettext and locale modules its messages import,
    # are loaded only for help and usage errors
    script = """import runpy, sys
try:
    runpy.run_module("fpal", run_name="__main__", alter_sys=True)
except SystemExit as done:
    if done.code:
        raise
print(sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-c", script, "divisors",
                           write_aut(symmetric_automaton(4))],
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    report, modules = proc.stdout.rstrip("\n").rsplit("\n", 1)
    assert json.loads(report)["order"] == 24
    assert modules == "[]"


# ---------------------------------------------------------------------------
# the JSON writer: the bytes of json.dumps(indent=2)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_json_text_on_golden_documents(path):
    doc = json.loads(path.read_text())
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-(10**40), 10**40, -1, 0]),
    st.floats(),
    st.sampled_from([-0.0, 1e300, 0.1]),
    st.text(),
    st.sampled_from(["", " ", '"', "\\", "\n", "\x00\x1f", "\u00e9", "\u2028",
                     "\U0001d11e", 'a "quoted" \u00fcber-string']),
)
_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none())
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(st.text(max_size=5), inner, max_size=5),
        st.dictionaries(_KEYS, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_json_text_matches_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)
