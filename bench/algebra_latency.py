"""Best-of-N latencies of fpal's algebra engine, timed in process.

Times ``fpal divisors`` (``fpal.cli.main``, stdout discarded) on the A5,
S4, T4, S5, T5, PSL(2,7), S6 and ASL(2,4) automata and on counter(300)
and counter(210), whose groups are cyclic of orders with three and four
primes, ``fpal monoid`` on counter(6) and on T5 (3125 elements, the
largest JSON document the bench writes), ``algebra_report``
on the PSL(2,13) automaton with the subgroup cap raised to its order
1092 and at the default cap (1024), where it is refused,
``composition_factors`` on PSL(2,7) and on C_2^6 (64 elements, every
subgroup normal), ``algebra_report`` on the monoid of 12 commuting
resets (4096 idempotents, each with its own image), on PSL(2,7) acting
on 25 copies of its 8 points with a collapse letter per copy (4368
elements, 26 images, the 25 copies one D-class) and on T4 (41
idempotents, 15 images), each monoid made anew from its maps for every
sample so that no per-monoid data is reused, ``transition_monoid`` and
``algebra_report`` on T4 with its walk cached, which is what a repeated
``fpal divisors`` pays, ``symmetric_group(6)``, and
``transition_monoid`` alone on T5 and on a
13-state, 3-letter automaton of monoid order 77, the size of those in
perfbench's entails-stream workload.  ``entails`` with that automaton as
hypothesis and conclusion is timed warm, as a repeated query after one
untimed call, and cold, with the caches emptied before every call (the
emptying is timed too).  The auto-mode checks of ``sym(f) = sym(f)`` with
f of arity 10 and of arity 3000 on chain(2) are timed until they are
refused, and that of ``comp(sym(f),pi(1,4))`` on chain(7) (1,716
interpretations of 2,401 entries) until it is refused or answered, the
two outcomes of the trees this bench compares.  ``fpal check
--builtin conway --samples 200`` (``fpal.cli.main``, stdout discarded) is
timed whole: the model checker on every library identity, on chain(2),
whose samples are drawn a block at a time, and with ``--poset chain:3``,
whose samples are drawn entry by entry.  The last item
is ``fpal divisors`` on the S7 automaton (order 5040, the monoid cap) with
the subgroup cap raised to 5040 through ``FPAL_CONFIG``; it comes last
because a tree that holds S7's maximal subgroup as a table keeps that
memory for the rest of its worker's life.  Each sample starts
with fpal's caches empty, so it pays for the whole divisor search; the
best of ``--repeat`` samples is kept.  The 13-state items and the warm
T4 report take under a millisecond, so each of their samples is the mean
of ``SMALL_CALLS`` calls.  The items named ``cli ...`` time the
command-line front end, each the best of ``CLI_RUNS`` samples.  ``cli divisors x20`` is twenty
in-process ``fpal divisors`` runs on small automata (counters, S3 and S4),
started with the argument parsers dropped as well, so each sample builds
them as a new process would.  The other two are whole ``python -m fpal``
runs in a fresh interpreter, imports included: ``fpal --help`` and
``fpal divisors`` on S4.

Each source tree is imported by its own worker interpreter, and the
samples alternate between the trees: every sample of an item is taken on
each tree in turn, the first tree going first on even samples and last on
odd ones, so drift of the machine over the run reaches both trees alike::

    python3 bench/algebra_latency.py --tree parent=../parent/src \\
        --tree change=src --out BENCH_15.json

With ``--tier1 N`` each tree's Tier-1 suite (``python -m pytest -q``
in the checkout holding the tree, with ``PYTHONPATH`` set to the tree)
is also run N times, alternating between the trees as the items are,
after the items; the best wall seconds and pytest's last summary line
are kept.  A run that fails, or cannot collect a test, stops the bench.

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
from unittest import mock

A5_GENERATORS = ((2, 3, 4, 5, 1), (2, 3, 1, 4, 5))
PSL27_GENERATORS = ((2, 3, 4, 5, 6, 7, 1, 8), (8, 7, 4, 3, 6, 5, 2, 1))

# S3 on states 1-3 beside an extensive automaton on states 4-13 (every
# letter moves a state up or leaves it): monoid order 77.
ENTAILS_SIZED_DELTA = (
    (2, 2, 1), (3, 1, 2), (1, 3, 3), (4, 4, 4), (7, 7, 5), (7, 8, 6), (9, 7, 8),
    (9, 9, 8), (9, 9, 10), (10, 10, 10), (13, 13, 11), (12, 13, 12), (13, 13, 13),
)
# 12 commuting letters on 13 states, letter i sending state i + 2 to 1:
# the monoid is the 2^12 sets of letters, each an idempotent with its own
# image and kernel.
COMMUTING_RESETS_DELTA = tuple(
    tuple(1 if s == i + 2 else s for i in range(12)) for s in range(1, 14))
# C_2^6, by six disjoint transpositions of 12 points.
ELEMENTARY_ABELIAN_2_6 = tuple(
    tuple((s ^ 1 if s // 2 == i else s) + 1 for s in range(12)) for i in range(6))
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


def copies(gens, k: int):
    """The permutations ``gens`` acting on k copies of their points at
    once, and a letter per copy sending each point of every copy to that
    point of its own copy."""
    from fpal.automaton import Automaton

    n = len(gens[0])
    letters = tuple(f"g{j}" for j in range(len(gens))) + tuple(f"c{i}" for i in range(k))
    delta = tuple(tuple(j * n + g[p] for g in gens) + tuple(i * n + p + 1 for i in range(k))
                  for j in range(k) for p in range(n))
    return Automaton(k * n, letters, delta)


def automata() -> dict:
    from fpal.automaton import counter, symmetric_automaton

    return {
        "A5": from_generators(A5_GENERATORS),
        "S4": symmetric_automaton(4),
        "T4": full_transformations(4),
        "S5": symmetric_automaton(5),
        "T5": full_transformations(5),
        "PSL(2,7)": from_generators(PSL27_GENERATORS),
        "S6": symmetric_automaton(6),
        "ASL(2,4)": from_generators(ASL24_GENERATORS),
        "counter(300)": counter(300),
        "counter(210)": counter(210),
    }


def clear_caches() -> None:
    """Empty fpal's process-wide caches: every ``lru_cache`` of the
    algebra, model-checker and entailment modules, the idempotent walks and
    the divisor tables, as a new process starts."""
    from fpal import algebra, cpo_model, entailment

    for module in (algebra, cpo_model, entailment):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    algebra._walk_cache.clear()
    # a tree from before the per-automaton divisor table has none, and
    # one without a subgroup lattice no lattice cache
    getattr(entailment, "_divisor_tables", {}).clear()
    getattr(algebra, "_subgroup_cache", {}).clear()


def clear_parsers() -> None:
    """Drop the CLI's cached argument parsers (a tree from before the
    per-command parsers has only ``build_parser``)."""
    from fpal import cli

    cli.build_parser.cache_clear()
    if hasattr(cli, "_command_parser"):
        cli._command_parser.cache_clear()


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


def refuse_wide_symbol(arity: int) -> None:
    """``sym(f) = sym(f)`` with f of this arity (10 or more) on chain(2),
    auto mode at the default settings: too many interpretations to
    enumerate, too many table entries to sample, so the check is refused."""
    from fpal.cpo_model import chain, check_equation
    from fpal.term import Equation, Sym, Symbol

    f = Sym(Symbol("f", arity))
    refused(lambda: check_equation(Equation.of("wide", f, f), chain(2)))


def check_wide_chain7() -> None:
    """``comp(sym(f),pi(1,4))`` on both sides, f of arity 1, on chain(7) in
    auto mode: 1,716 interpretations of 7^4 table entries, within the
    threshold.  Its result and its refusal (``CapExceededError``) both
    count."""
    from fpal.cpo_model import chain, check_equation
    from fpal.errors import CapExceededError
    from fpal.term import parse_equation

    eq = parse_equation("sym f 1\ncomp(sym(f),pi(1,4)) = comp(sym(f),pi(1,4))\n")
    try:
        check_equation(eq, chain(7))
    except CapExceededError:
        pass


def fpal_quietly(*argv: str) -> None:
    """``fpal.cli.main(argv)`` with stdout discarded; it must exit 0."""
    from fpal import cli

    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(list(argv)) != 0:
            raise RuntimeError(f"fpal {' '.join(argv)} failed")


def check_conway(*poset: str) -> None:
    """``fpal check --builtin conway --samples 200``: every library
    identity, with the default seed, on chain(2) unless ``poset`` gives
    ``--poset`` and its value."""
    fpal_quietly("check", "--builtin", "conway", *poset, "--samples", "200")


def cli_run(argv: list) -> float:
    """Wall seconds of one ``python -m fpal argv`` in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "fpal", *argv], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def items(tmp: str) -> dict:
    """Item name -> a function taking one sample of it, in seconds, for the
    fpal found on ``sys.path``.  Items named ``cli ...`` time the front end
    and take ``CLI_RUNS`` samples."""
    from fpal import algebra, entailment
    from fpal.automaton import Automaton, counter, symmetric_automaton, to_dict

    def write(name: str, q) -> str:
        path = os.path.join(tmp, f"{name}.json")
        pathlib.Path(path).write_text(json.dumps(to_dict(q)))
        return path

    out = {}
    for name, q in automata().items():
        path = write(name, q)
        out[f"divisors {name}"] = lambda path=path: sample(lambda: fpal_quietly("divisors", path))
    c6 = write("c6", counter(6))
    out["monoid c6"] = lambda: sample(lambda: fpal_quietly("monoid", c6))
    t5_file = os.path.join(tmp, "T5.json")
    out["monoid T5"] = lambda: sample(lambda: fpal_quietly("monoid", t5_file))
    small_files = [write(f"counter{n}", counter(n)) for n in range(2, 20)]
    small_files += [write(f"S{n}-small", symmetric_automaton(n)) for n in (3, 4)]

    def divisors_x20():
        clear_parsers()
        for path in small_files:
            fpal_quietly("divisors", path)

    out["cli divisors x20"] = lambda: sample(divisors_x20)
    out["cli fpal --help"] = lambda: cli_run(["--help"])
    s4 = os.path.join(tmp, "S4.json")
    out["cli fpal divisors S4"] = lambda: cli_run(["divisors", s4])
    psl = algebra.group_from_permutations(PSL27_GENERATORS)
    out["composition_factors PSL(2,7)"] = lambda: sample(lambda: algebra.composition_factors(psl))
    c2_6 = algebra.group_from_permutations(ELEMENTARY_ABELIAN_2_6)
    out["composition_factors C_2^6"] = lambda: sample(lambda: algebra.composition_factors(c2_6))
    psl213 = algebra.transition_monoid(from_generators(PSL213_GENERATORS))
    if psl213.order != 1092:
        raise RuntimeError("the PSL(2,13) automaton should have monoid order 1092")
    out["algebra_report PSL(2,13), cap 1092"] = lambda: sample(
        lambda: algebra.algebra_report(psl213, cap=1092))
    out["algebra_report PSL(2,13), refused at cap 1024"] = lambda: sample(
        lambda: refused(lambda: algebra.algebra_report(psl213)))
    resets = algebra.transition_monoid(
        Automaton(13, tuple(f"r{i}" for i in range(12)), COMMUTING_RESETS_DELTA))
    if resets.order != 4096:
        raise RuntimeError("the commuting resets should have monoid order 4096")
    psl_copies = algebra.transition_monoid(copies(PSL27_GENERATORS, 25))
    if psl_copies.order != 4368:
        raise RuntimeError("PSL(2,7) on 25 copies should have monoid order 4368")
    t4 = algebra.transition_monoid(full_transformations(4))
    for name, m in (("12 commuting resets", resets), ("PSL(2,7) on 25 copies", psl_copies),
                    ("T4", t4)):
        out[f"algebra_report {name}, cold"] = lambda m=m: sample(
            lambda: algebra.algebra_report(algebra.TransformationMonoid(
                m.maps, m.witnesses, m.letters)))
    t4_automaton = full_transformations(4)
    out["algebra_report T4, warm"] = lambda: sample(
        lambda: algebra.algebra_report(algebra.transition_monoid(t4_automaton)),
        SMALL_CALLS, warm=True)
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
    out["check sym f 10 refused"] = lambda: sample(lambda: refuse_wide_symbol(10))
    out["check sym f 3000 refused"] = lambda: sample(lambda: refuse_wide_symbol(3000))
    out["check wide chain(7)"] = lambda: sample(check_wide_chain7)
    out["check conway, 200 samples"] = lambda: sample(check_conway)
    out["check conway chain(3), 200 samples"] = lambda: sample(
        lambda: check_conway("--poset", "chain:3"))
    s7 = write("S7", symmetric_automaton(7))
    cap_file = os.path.join(tmp, "cap5040.json")
    pathlib.Path(cap_file).write_text(json.dumps({"subgroup_cap": 5040}))

    def divisors_s7():
        with mock.patch.dict(os.environ, {"FPAL_CONFIG": cap_file}):
            fpal_quietly("divisors", s7)

    out["divisors S7, subgroup cap 5040"] = lambda: sample(divisors_s7)
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


def tier1_run(src: pathlib.Path) -> tuple:
    """Wall seconds and pytest's last summary line of one Tier-1 run of the
    checkout holding ``src``, which must pass."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=src.parent, env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    seconds, summary = time.perf_counter() - start, done.stdout.strip().splitlines()[-1]
    if done.returncode != 0:
        raise RuntimeError(f"Tier-1 of {src} failed: {summary}")
    return round(seconds, 2), summary


def line_count(src: pathlib.Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (src / "fpal").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a source tree (the directory holding fpal) to time; "
                        "repeatable (default: change=src)")
    parser.add_argument("--repeat", type=int, default=3, help="samples per item (default 3)")
    parser.add_argument("--tier1", type=int, default=0, metavar="N",
                        help="also run each tree's Tier-1 suite N times (default 0)")
    parser.add_argument("--out", help="write the JSON here as well as to stdout")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.tier1 < 0:
        parser.error("--tier1 must not be negative")
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
    tier1 = {label: [] for label in trees}
    for k in range(args.tier1):
        for label in list(trees) if k % 2 == 0 else list(reversed(trees)):
            tier1[label].append(tier1_run(trees[label]))
    result = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "repeat": args.repeat,
        "cli_runs": CLI_RUNS,
        "tier1_runs": args.tier1,
        "samples": "alternating between the trees",
        "trees": {
            label: {
                "src_lines": line_count(src),
                "best_s": {item: round(v, 6) for item, v in best[label].items()},
                **({"tier1": dict(zip(("best_s", "summary"), min(tier1[label])))}
                   if args.tier1 else {}),
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
