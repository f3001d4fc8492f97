"""Best-of-N latencies of fpal's algebra engine, timed in process.

Times ``fpal divisors`` (``fpal.cli.main``, stdout discarded) on the A5,
S4, T4, S5 and T5 automata, ``all_subgroup_sets`` on PSL(2,7),
``symmetric_group(6)``, and ``transition_monoid`` alone on T5 and on a
13-state, 3-letter automaton of monoid order 77, the size of those in
perfbench's entails-stream workload.  Each sample starts with fpal's
subgroup and divisor caches empty, so it pays for the whole lattice
search; the best of ``--repeat`` samples is kept.  The 13-state monoid
takes about a millisecond, so each of its samples is the mean of
``SMALL_CALLS`` calls.  Two items are whole ``python -m fpal`` runs in a
fresh interpreter, imports included: ``fpal --help`` and ``fpal divisors``
on S4, each the best of ``CLI_RUNS`` runs.

Each source tree runs in its own interpreter, so two checkouts are timed
one after the other on the same machine::

    python3 bench/algebra_latency.py --tree parent=../parent/src \\
        --tree change=src --out BENCH_5.json

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


def full_transformations(n: int):
    """A cycle, a swap and a rank n-1 map: they generate all of T_n."""
    from fpal.automaton import Automaton

    delta = tuple(
        (s % n + 1, {1: 2, 2: 1}.get(s, s), 1 if s == 2 else s) for s in range(1, n + 1)
    )
    return Automaton(n, ("a", "b", "c"), delta)


def automata() -> dict:
    from fpal.automaton import Automaton, symmetric_automaton

    a5 = Automaton(5, ("a", "b"),
                   tuple(tuple(g[s] for g in A5_GENERATORS) for s in range(5)))
    return {
        "A5": a5,
        "S4": symmetric_automaton(4),
        "T4": full_transformations(4),
        "S5": symmetric_automaton(5),
        "T5": full_transformations(5),
    }


def best_of(repeat: int, run, calls: int = 1) -> float:
    """Least mean seconds of ``calls`` calls of ``run`` over ``repeat``
    samples."""
    from fpal import algebra

    best = float("inf")
    for _ in range(repeat):
        algebra._subgroup_cache.clear()
        algebra._walk_cache.clear()
        start = time.perf_counter()
        for _ in range(calls):
            run()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def cli_latency(argv: list) -> float:
    """Least wall seconds of ``python -m fpal argv`` over ``CLI_RUNS``
    runs, each in a fresh interpreter."""
    best = float("inf")
    for _ in range(CLI_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "fpal", *argv], check=True,
                       stdout=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - start)
    return best


def measure(repeat: int) -> dict:
    """Best seconds per item for the fpal found on ``sys.path``."""
    from fpal import algebra, cli
    from fpal.automaton import Automaton, to_dict

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, q in automata().items():
            path = os.path.join(tmp, f"{name}.json")
            pathlib.Path(path).write_text(json.dumps(to_dict(q)))

            def divisors(path=path):
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(["divisors", path]) != 0:
                        raise RuntimeError(f"fpal divisors failed on {name}")

            out[f"divisors {name}"] = best_of(repeat, divisors)
        out["cli fpal --help"] = cli_latency(["--help"])
        out["cli fpal divisors S4"] = cli_latency(["divisors", os.path.join(tmp, "S4.json")])
    psl = algebra.group_from_permutations(PSL27_GENERATORS)
    out["all_subgroup_sets PSL(2,7)"] = best_of(repeat, lambda: algebra.all_subgroup_sets(psl))
    out["symmetric_group(6)"] = best_of(repeat, lambda: algebra.symmetric_group(6))
    t5 = full_transformations(5)
    out["transition_monoid T5"] = best_of(repeat, lambda: algebra.transition_monoid(t5))
    small = Automaton(13, ("a", "b", "c"), ENTAILS_SIZED_DELTA)
    if algebra.transition_monoid(small).order != 77:
        raise RuntimeError("the 13-state automaton should have monoid order 77")
    out["transition_monoid 13 states"] = best_of(
        repeat, lambda: algebra.transition_monoid(small), SMALL_CALLS)
    return {key: round(value, 6) for key, value in out.items()}


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
        print(json.dumps(measure(args.repeat)))
        return 0
    result = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "repeat": args.repeat,
        "trees": {},
    }
    for spec in args.tree or ["change=src"]:
        label, sep, src = spec.partition("=")
        if not sep:
            parser.error(f"--tree wants LABEL=SRC, not {spec!r}")
        src_path = pathlib.Path(src).resolve()
        env = {**os.environ, "PYTHONPATH": str(src_path)}
        proc = subprocess.run(
            [sys.executable, __file__, "--worker", "--repeat", str(args.repeat)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result["trees"][label] = {
            "src_lines": line_count(src_path),
            "best_s": json.loads(proc.stdout),
        }
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
