"""Best-of-N latencies of fpal's algebra engine, timed in process.

Times ``fpal divisors`` (``fpal.cli.main``, stdout discarded) on the A5,
S4, T4, S5, T5, PSL(2,7), S6 and ASL(2,4) automata, ``algebra_report``
on the PSL(2,13) automaton with the subgroup cap raised to its order
1092 and at the default cap (1024), where it is refused,
``composition_factors`` on PSL(2,7), ``symmetric_group(6)``, and
``transition_monoid`` alone on T5 and on a
13-state, 3-letter automaton of monoid order 77, the size of those in
perfbench's entails-stream workload.  ``entails`` with that automaton as
hypothesis and conclusion is timed warm, as a repeated query after one
untimed call, and cold, with the caches emptied before every call (the
emptying is timed too).  The auto-mode check of ``sym(f) = sym(f)`` with
f of arity 10 on chain(2) is timed until it is refused, and ``fpal check
--builtin conway --samples 200`` (``fpal.cli.main``, stdout discarded) is
timed whole: the model checker on every library identity.  Each sample starts
with fpal's caches empty, so it pays for the whole divisor search; the
best of ``--repeat`` samples is kept.  The 13-state items take under a
millisecond, so each of their samples is the mean of ``SMALL_CALLS``
calls.  Two items are whole ``python -m fpal`` runs in a
fresh interpreter, imports included: ``fpal --help`` and ``fpal divisors``
on S4, each the best of ``CLI_RUNS`` runs.

Each source tree is imported by its own worker interpreter, and the
samples alternate between the trees: every sample of an item is taken on
each tree in turn, the first tree going first on even samples and last on
odd ones, so drift of the machine over the run reaches both trees alike::

    python3 bench/algebra_latency.py --tree parent=../parent/src \\
        --tree change=src --out BENCH_12.json

The output holds ``nproc``, the Python version, and per tree the best
seconds of every item and the line count of its ``fpal`` package.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import time

A5_GENERATORS = ((2, 3, 4, 5, 1), (2, 3, 1, 4, 5))
PSL27_GENERATORS = ((2, 3, 4, 5, 6, 7, 1, 8), (8, 7, 4, 3, 6, 5, 2, 1))

# S3 on states 1-3 beside an extensive automaton on states 4-13 (every
# letter moves a state up or leaves it): monoid order 77.
ENTAILS_SIZED_DELTA = (
    (2, 2, 1), (3, 1, 2), (1, 3, 3), (4, 4, 4), (7, 7, 5), (7, 8, 6), (9, 7, 8),
    (9, 9, 8), (9, 9, 10), (10, 10, 10), (13, 13, 11), (12, 13, 12), (13, 13, 13),
)
SMALL_CALLS = 200
CLI_RUNS = 10


def gf4_mul(a: int, b: int) -> int:
    """Product in GF(4) = GF(2)[w]/(w^2 + w + 1), elements as bit pairs
    (2 is w, 3 is w^2 = w + 1); addition is xor."""
    p = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
    return p ^ 0b111 if p & 4 else p


# ASL(2,4) on the 16 vectors (a, b) of GF(4)^2, vector (a, b) being state
# 4a + b + 1: the translation by (1, 0) and SL(2,4)'s [[1,1],[0,1]],
# [[0,1],[1,0]] and diag(w, w^2).  Order 960, perfect.
ASL24_GENERATORS = tuple(
    tuple(4 * x + y + 1 for x, y in (f(a, b) for a in range(4) for b in range(4)))
    for f in (lambda a, b: (a ^ 1, b), lambda a, b: (a ^ b, b), lambda a, b: (b, a),
              lambda a, b: (gf4_mul(2, a), gf4_mul(3, b))))
# PSL(2,13) on the projective line over GF(13), x being state x + 1 and
# infinity state 14: x -> x + 1, x -> 4x and x -> -1/x.  Order 1092.
PSL213_GENERATORS = (
    tuple(range(2, 14)) + (1, 14),
    tuple(4 * x % 13 + 1 for x in range(13)) + (14,),
    (14,) + tuple(-pow(x, -1, 13) % 13 + 1 for x in range(1, 13)) + (1,),
)


def from_generators(gens):
    """The automaton whose j-th letter acts as the j-th permutation."""
    from fpal.automaton import Automaton

    n = len(gens[0])
    letters = tuple("abcd"[:len(gens)])
    return Automaton(n, letters, tuple(tuple(g[s] for g in gens) for s in range(n)))


def full_transformations(n: int):
    """A cycle, a swap and a rank n-1 map: they generate all of T_n."""
    from fpal.automaton import Automaton

    delta = tuple(
        (s % n + 1, {1: 2, 2: 1}.get(s, s), 1 if s == 2 else s) for s in range(1, n + 1)
    )
    return Automaton(n, ("a", "b", "c"), delta)


def automata() -> dict:
    from fpal.automaton import symmetric_automaton

    return {
        "A5": from_generators(A5_GENERATORS),
        "S4": symmetric_automaton(4),
        "T4": full_transformations(4),
        "S5": symmetric_automaton(5),
        "T5": full_transformations(5),
        "PSL(2,7)": from_generators(PSL27_GENERATORS),
        "S6": symmetric_automaton(6),
        "ASL(2,4)": from_generators(ASL24_GENERATORS),
    }


def clear_caches() -> None:
    """Empty fpal's process-wide caches."""
    from fpal import algebra, cpo_model, entailment

    algebra._walk_cache.clear()
    # a tree from before the per-automaton divisor table has none, and
    # one without a subgroup lattice no lattice cache
    getattr(entailment, "_divisor_tables", {}).clear()
    getattr(algebra, "_subgroup_cache", {}).clear()
    cpo_model.count_monotone.cache_clear()


def sample(run, calls: int = 1, warm: bool = False) -> float:
    """Mean seconds of ``calls`` calls of ``run``, started with fpal's
    caches empty; with ``warm``, one untimed call fills them first."""
    clear_caches()
    if warm:
        run()
    start = time.perf_counter()
    for _ in range(calls):
        run()
    return (time.perf_counter() - start) / calls


def refused(run) -> None:
    """Call ``run``, which must raise ``CapExceededError``."""
    from fpal.errors import CapExceededError

    try:
        run()
    except CapExceededError:
        return
    raise RuntimeError("the call should be refused")


def refuse_wide_symbol() -> None:
    """``sym(f) = sym(f)`` with f of arity 10 on chain(2), auto mode at the
    default settings: too many interpretations to enumerate, too many
    table entries to sample, so the check is refused."""
    from fpal.cpo_model import chain, check_equation
    from fpal.term import Equation, Sym, Symbol

    f = Sym(Symbol("f", 10))
    refused(lambda: check_equation(Equation.of("wide", f, f), chain(2)))


def check_conway() -> None:
    """``fpal check --builtin conway --samples 200``: every library
    identity on chain(2), with the default seed."""
    from fpal import cli

    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["check", "--builtin", "conway", "--samples", "200"]) != 0:
            raise RuntimeError("fpal check failed on the conway library")


def cli_run(argv: list) -> float:
    """Wall seconds of one ``python -m fpal argv`` in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "fpal", *argv], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def items(tmp: str) -> dict:
    """Item name -> a function taking one sample of it, in seconds, for the
    fpal found on ``sys.path``.  Whole-run items are named ``cli ...``."""
    from fpal import algebra, cli, entailment
    from fpal.automaton import Automaton, to_dict

    out = {}
    for name, q in automata().items():
        path = os.path.join(tmp, f"{name}.json")
        pathlib.Path(path).write_text(json.dumps(to_dict(q)))

        def divisors(path=path, name=name):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["divisors", path]) != 0:
                    raise RuntimeError(f"fpal divisors failed on {name}")

        out[f"divisors {name}"] = lambda run=divisors: sample(run)
    out["cli fpal --help"] = lambda: cli_run(["--help"])
    s4 = os.path.join(tmp, "S4.json")
    out["cli fpal divisors S4"] = lambda: cli_run(["divisors", s4])
    psl = algebra.group_from_permutations(PSL27_GENERATORS)
    out["composition_factors PSL(2,7)"] = lambda: sample(lambda: algebra.composition_factors(psl))
    psl213 = algebra.transition_monoid(from_generators(PSL213_GENERATORS))
    if psl213.order != 1092:
        raise RuntimeError("the PSL(2,13) automaton should have monoid order 1092")
    out["algebra_report PSL(2,13), cap 1092"] = lambda: sample(
        lambda: algebra.algebra_report(psl213, cap=1092))
    out["algebra_report PSL(2,13), refused at cap 1024"] = lambda: sample(
        lambda: refused(lambda: algebra.algebra_report(psl213)))
    out["symmetric_group(6)"] = lambda: sample(lambda: algebra.symmetric_group(6))
    t5 = full_transformations(5)
    out["transition_monoid T5"] = lambda: sample(lambda: algebra.transition_monoid(t5))
    small = Automaton(13, ("a", "b", "c"), ENTAILS_SIZED_DELTA)
    if algebra.transition_monoid(small).order != 77:
        raise RuntimeError("the 13-state automaton should have monoid order 77")
    out["transition_monoid 13 states"] = lambda: sample(
        lambda: algebra.transition_monoid(small), SMALL_CALLS)
    out["entails 13 states, warm"] = lambda: sample(
        lambda: entailment.entails([small], small), SMALL_CALLS, warm=True)

    def cold_entails():
        clear_caches()
        entailment.entails([small], small)

    out["entails 13 states, cold"] = lambda: sample(cold_entails, SMALL_CALLS)
    out["check sym f 10 refused"] = lambda: sample(refuse_wide_symbol)
    out["check conway, 200 samples"] = lambda: sample(check_conway)
    return out


def worker() -> int:
    """Print the item names as one JSON line, then answer each item name
    read from stdin with one sample of it, in seconds, on its own line."""
    with tempfile.TemporaryDirectory() as tmp:
        table = items(tmp)
        print(json.dumps(list(table)), flush=True)
        for line in sys.stdin:
            print(json.dumps(table[line.strip()]()), flush=True)
    return 0


def line_count(src: pathlib.Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (src / "fpal").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a source tree (the directory holding fpal) to time; "
                        "repeatable (default: change=src)")
    parser.add_argument("--repeat", type=int, default=3, help="samples per item (default 3)")
    parser.add_argument("--out", help="write the JSON here as well as to stdout")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.worker:
        return worker()
    trees = {}
    for spec in args.tree or ["change=src"]:
        label, sep, src = spec.partition("=")
        if not sep:
            parser.error(f"--tree wants LABEL=SRC, not {spec!r}")
        trees[label] = pathlib.Path(src).resolve()
    workers = {
        label: subprocess.Popen(
            [sys.executable, __file__, "--worker"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for label, src in trees.items()
    }
    try:
        names = [json.loads(w.stdout.readline()) for w in workers.values()]
        if any(n != names[0] for n in names):
            raise RuntimeError("the trees time different items")
        best = {label: {} for label in trees}
        for item in names[0]:
            for k in range(CLI_RUNS if item.startswith("cli ") else args.repeat):
                order = list(workers) if k % 2 == 0 else list(reversed(workers))
                for label in order:
                    w = workers[label]
                    w.stdin.write(item + "\n")
                    w.stdin.flush()
                    line = w.stdout.readline()
                    if not line:
                        raise RuntimeError(f"the {label} worker stopped at {item!r}")
                    seconds = json.loads(line)
                    best[label][item] = min(best[label].get(item, seconds), seconds)
    finally:
        for w in workers.values():
            w.stdin.close()
            w.wait()
    result = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "repeat": args.repeat,
        "cli_runs": CLI_RUNS,
        "samples": "alternating between the trees",
        "trees": {
            label: {
                "src_lines": line_count(src),
                "best_s": {item: round(v, 6) for item, v in best[label].items()},
            }
            for label, src in trees.items()
        },
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
