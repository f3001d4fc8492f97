"""The three benchmark workloads: seeded inputs, the ops run on them, and
the known answer each op is checked against.

A workload is built from its seed alone.  The same seed gives the same
inputs, byte for byte, and ``Workload.digest`` fingerprints them so that
two runs can show they saw identical inputs.  fpal is only handed the
generated inputs; every expected answer comes from a closed form or from
how the input was constructed, never from fpal itself.

Every op calls fpal through a module attribute looked up at call time
(``cpo_model.check_equation``, ``cli.main``, ``entailment.entails``), so
the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from fpal import cli, cpo_model, entailment, identities
from fpal.automaton import Automaton
from fpal.term import parse_equation, render_equation

# Model-checking policy of check-library: exhaustive up to the threshold,
# otherwise this many seeded samples.  The threshold is below fpal's
# default so that one pass stays a few seconds long.
LIBRARY_SAMPLES = 25
LIBRARY_THRESHOLD = 250

ENTAILS_OPS = 120
ENTAILS_POOL_COPIES = 4  # pool members per group, so the pool holds 40
ENTAILS_MONOID_ORDER = (60, 80)


@dataclass
class Op:
    """One public call into fpal and the check of its answer.

    ``check`` returns None when the result is the known answer, otherwise
    a one-line reason."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list
    digest: str


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _cycle(n: int, k: int = 1) -> tuple:
    return tuple((s + k) % n + 1 for s in range(n))


def _compose(x: tuple, y: tuple) -> tuple:
    """x first, then y."""
    return tuple(y[v - 1] for v in x)


def _closure(gens, limit: int) -> set:
    """The maps generated by ``gens`` under composition, identity included,
    or the first more than ``limit`` of them found.  The benchmark's own
    closure, so that choosing inputs never calls fpal."""
    ident = tuple(range(1, len(gens[0]) + 1))
    seen = {ident}
    frontier = [ident]
    while frontier and len(seen) <= limit:
        nxt = []
        for t in frontier:
            for g in gens:
                u = _compose(t, g)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def _conjugate(gens: list, rng: random.Random) -> list:
    """The maps with the states renamed by a random permutation."""
    images = list(range(1, len(gens[0]) + 1))
    rng.shuffle(images)
    out = []
    for g in gens:
        h = [0] * len(g)
        for s, t in enumerate(g):
            h[images[s] - 1] = images[t - 1]
        out.append(tuple(h))
    return out


def _perm_automaton(gens) -> Automaton:
    """Automaton whose j-th letter acts as the j-th map (1-based images)."""
    n = len(gens[0])
    letters = tuple("abcdefgh"[:len(gens)])
    return Automaton(n, letters, tuple(tuple(g[s] for g in gens) for s in range(n)))


# ---------------------------------------------------------------------------
# model checking


# Equations that do not hold on chain(2).  Each uses one symbol of arity at
# most 3, so its interpretation count (at most 20) is under the threshold
# and the check is exhaustive: refutation does not depend on the seed.
CORRUPTED_EQUATIONS = [
    """name corrupt: fixed point with the recursion argument swapped
sym f 2
dagger(sym(f),1) = comp(sym(f),tup(pi(1,1),dagger(sym(f),1)))
""",
    """name corrupt: least fixed point replaced by the diagonal
sym f 2
dagger(sym(f),1) = comp(sym(f),tup(pi(1,1),pi(1,1)))
""",
    """name corrupt: feedback read from the parameter slot
sym f 1
dagger(comp(sym(f),pi(1,2)),1) = sym(f)
""",
    """name corrupt: double dagger merged on the wrong coordinates
sym f 3
dagger(dagger(sym(f),1),1) = dagger(comp(sym(f),tup(pi(1,2),pi(2,2),pi(2,2))),1)
""",
    """name corrupt: the other parameter kept
sym f 2
dagger(comp(sym(f),tup(pi(1,3),pi(2,3))),1) = comp(dagger(sym(f),1),pi(2,2))
""",
]


def _check_op(eq, poset, expect_holds: bool, seed: int, samples: int,
              threshold: int) -> Op:
    def call():
        return cpo_model.check_equation(
            eq, poset, mode="auto", seed=seed, samples=samples, threshold=threshold
        )

    def check(result) -> str | None:
        if result.interpretations_checked < 1:
            return "verdict after zero interpretations"
        if result.holds != expect_holds:
            want = "holds" if expect_holds else "refuted"
            return f"expected {want}, got holds={result.holds}"
        if expect_holds != (result.counterexample is None):
            return "counterexample does not match the verdict"
        return None

    return Op(f"{eq.name} on {poset.name}", call, check)


def build_check_library(seed: int) -> Workload:
    """The cases in a seeded order, each with its own sampling seed."""
    c2 = cpo_model.chain(2)
    holding = (
        identities.conway_library()
        + [identities.cycle_transposition_identity(n, 1) for n in (3, 4)]
        + [identities.adding_id_instance(n, 1) for n in (1, 2)]
    )
    corrupted = [parse_equation(text) for text in CORRUPTED_EQUATIONS]
    cases = [(eq, True) for eq in holding] + [(eq, False) for eq in corrupted]
    rng = random.Random(seed)
    rng.shuffle(cases)
    ops, parts = [], [f"{seed} {LIBRARY_SAMPLES} {LIBRARY_THRESHOLD}"]
    for eq, holds in cases:
        op_seed = rng.randrange(2**31)
        ops.append(_check_op(eq, c2, holds, op_seed, LIBRARY_SAMPLES, LIBRARY_THRESHOLD))
        parts.append(f"{render_equation(eq)} {holds} {op_seed}")
    return Workload(ops, _digest(parts))


# ---------------------------------------------------------------------------
# divisors through the CLI


def _symmetric_gens(n: int) -> list:
    return [_cycle(n), (2, 1) + tuple(range(3, n + 1))]


def _full_transformation_gens(n: int) -> list:
    return _symmetric_gens(n) + [(1, 1) + tuple(range(3, n + 1))]


def _primes_dividing(n: int) -> set:
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))}


def _cyclic_names(primes) -> set:
    return {(f"C_{p}", p) for p in primes}


_A5_DIVISORS = _cyclic_names({2, 3, 5}) | {("A_5", 60)}


def _family(name: str):
    """(generators, monoid order, idempotents, simple divisors as (name,
    order) pairs) of a family member.  T_n has sum_k C(n,k) k^(n-k)
    idempotents."""
    if name.startswith("counter"):
        n = int(name[len("counter"):])
        return [_cycle(n)], n, 1, _cyclic_names(_primes_dividing(n))
    if name in ("S3", "S4"):
        n = int(name[1])
        return _symmetric_gens(n), (6, 24)[n - 3], 1, _cyclic_names({2, 3})
    if name == "A5":
        return [_cycle(5), (2, 3, 1, 4, 5)], 60, 1, _A5_DIVISORS
    if name in ("T3", "T4"):
        n = int(name[1])
        return _full_transformation_gens(n), n ** n, {3: 10, 4: 41}[n], _cyclic_names({2, 3})
    raise ValueError(name)


# Members per pass, the same for every seed; the seed relabels states,
# fills in the word letters and shuffles the order.  Relabelling does not
# change the set of maps of S_n, A_5 or T_n (each is closed under
# conjugation), so only the first member of those families computes its
# divisors and the rest hit fpal's divisor cache.  Copies of a counter are
# relabelled into distinct monoids where there are enough (see
# build_divisors_groups).  A5 and T4 hold most of the wall time; the 73
# counters (n = 2..12, evenly) set the median.  S5 (about 5 s) and PSL(2,7)
# (about 11 s) are left out: they would make a pass ten times longer, and
# each op would get a tenth as many latency samples in a run.
DIVISOR_FAMILIES = (
    ["A5"] * 2 + ["T4"] * 3 + ["S4"] * 8 + ["T3"] * 6 + ["S3"] * 8
    + [f"counter{2 + k % 11}" for k in range(73)]
)


def _with_word_letters(gens: list, count: int, rng: random.Random) -> list:
    """Add ``count`` letters acting as random words over the generators;
    the transition monoid is unchanged."""
    out = list(gens)
    for _ in range(count):
        word = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(2, 5))]
        act = word[0]
        for g in word[1:]:
            act = _compose(act, g)
        out.append(act)
    return out


def _divisors_check(order: int, idempotents: int, divisors: set):
    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        report = json.loads(out)
        if report["order"] != order:
            return f"monoid order {report['order']}, expected {order}"
        if report["idempotents"] != idempotents:
            return f"{report['idempotents']} idempotents, expected {idempotents}"
        got = {(d["name"], d["order"]) for d in report["simple_divisors"]}
        if got != divisors:
            return f"divisors {sorted(got)}, expected {sorted(divisors)}"
        if not all(d["witness"]["subgroup"] for d in report["simple_divisors"]):
            return "divisor without a witness subgroup"
        return None

    return check


def _run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def build_divisors_groups(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    # Member k gets k % 3 word letters, so how many letters each family
    # carries, and with it the cost of the pass, does not depend on the seed.
    members = [(family, k % 3) for k, family in enumerate(DIVISOR_FAMILIES)]
    rng.shuffle(members)
    ops, parts, seen = [], [str(seed)], set()
    for k, (family, words) in enumerate(members):
        gens, order, idem, divisors = _family(family)
        # A counter's copies get distinct monoids while relabelling can give
        # one, so how many of them hit fpal's cache does not depend on the
        # seed.  Other families have one monoid however they are relabelled.
        for _ in range(50 if family.startswith("counter") else 1):
            relabelled = _conjugate(gens, rng)
            monoid = frozenset(_closure(relabelled, order))
            if monoid not in seen:
                break
        seen.add(monoid)
        q = _perm_automaton(_with_word_letters(relabelled, words, rng))
        text = json.dumps(
            {"states": q.n_states, "letters": list(q.letters),
             "delta": [list(row) for row in q.delta]}
        )
        path = os.path.join(workdir, f"{k:03d}-{family}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        parts.append(text)
        ops.append(Op(
            f"divisors {family}[{q.n_states} states]",
            lambda path=path: _run_cli(["divisors", path]),
            _divisors_check(order, idem, divisors),
        ))
    return Workload(ops, _digest(parts))


# ---------------------------------------------------------------------------
# entailment stream


# Permutation groups on three letters, with their simple divisors.  Small
# on purpose: the group stages stay cheap and the monoid stages dominate.
ENTAILS_GROUPS = {
    "1": ([(1,), (1,), (1,)], set()),
    "C2": ([_cycle(2), (1, 2), _cycle(2)], {"C_2"}),
    "C3": ([_cycle(3), (1, 2, 3), _cycle(3, 2)], {"C_3"}),
    "C4": ([_cycle(4), _cycle(4, 2), (1, 2, 3, 4)], {"C_2"}),
    "C5": ([_cycle(5), _cycle(5, 2), (1, 2, 3, 4, 5)], {"C_5"}),
    "C6": ([_cycle(6), _cycle(6, 3), _cycle(6, 2)], {"C_2", "C_3"}),
    "C7": ([_cycle(7), (1, 2, 3, 4, 5, 6, 7), _cycle(7, 3)], {"C_7"}),
    "S3": ([(2, 3, 1), (2, 1, 3), (1, 2, 3)], {"C_2", "C_3"}),
    "D4": ([_cycle(4), (4, 3, 2, 1), (1, 2, 3, 4)], {"C_2"}),
    "D5": ([_cycle(5), (5, 4, 3, 2, 1), (1, 2, 3, 4, 5)], {"C_2", "C_5"}),
}


def _pool_member(group: str, copy: int, rng: random.Random) -> Automaton:
    """Disjoint union of the group's permutation automaton and a random
    extensive automaton (every letter moves a state up or leaves it), with
    states shuffled by ``rng``.  An extensive automaton's monoid has only
    trivial groups, so the union has exactly the group's simple divisors.

    The extensive automaton is drawn from the group and the copy number
    alone, not from the workload seed.  A member's monoid, and what its
    divisors cost, is then the same for every seed; with random shapes the
    40 cache misses of a pass cost up to a third more on one seed than on
    another."""
    gens, _ = ENTAILS_GROUPS[group]
    ng = len(gens[0])
    lo, hi = ENTAILS_MONOID_ORDER
    shape = random.Random(f"{group}/{copy}")
    while True:
        ne = shape.randint(8, 10)
        ext = [
            [s if shape.random() < 0.25 else shape.randint(s, min(ne, s + 2)) for _ in gens]
            for s in range(1, ne + 1)
        ]
        union = [
            tuple(g) + tuple(ng + ext[s][j] for s in range(ne))
            for j, g in enumerate(gens)
        ]
        if lo <= len(_closure(union, hi)) <= hi:
            return _perm_automaton(_conjugate(union, rng))


def build_entails_stream(seed: int) -> Workload:
    """Each pool member enters the stream in exactly one op, at a seeded
    position, and is drawn again at random afterwards.  So every seed gives
    40 ops with one divisor-cache miss and 80 with none, and the
    percentiles fall inside those groups rather than between them.  A third
    of the ops have one hypothesis, the rest two."""
    rng = random.Random(seed)
    pool = [(g, _pool_member(g, k, rng))
            for g in ENTAILS_GROUPS for k in range(ENTAILS_POOL_COPIES)]
    rng.shuffle(pool)
    entry = [0] + sorted(rng.sample(range(1, ENTAILS_OPS), len(pool) - 1))
    hyp_counts = [1] * (ENTAILS_OPS // 3) + [2] * (ENTAILS_OPS - ENTAILS_OPS // 3)
    rng.shuffle(hyp_counts)
    ops, parts = [], [str(seed)] + [repr(q.delta) for _, q in pool]
    seen = 0
    for k, n_hyps in enumerate(hyp_counts):
        if seen < len(pool) and entry[seen] == k:
            seen += 1
            roles = [rng.randrange(seen) for _ in range(n_hyps + 1)]
            roles[rng.randrange(n_hyps + 1)] = seen - 1
        else:
            roles = [rng.randrange(seen) for _ in range(n_hyps + 1)]
        hyps, concl = [pool[i] for i in roles[:-1]], pool[roles[-1]]
        covered = set().union(*(ENTAILS_GROUPS[g][1] for g, _ in hyps))
        goal = ENTAILS_GROUPS[concl[0]][1]
        parts.append(repr(roles))
        ops.append(Op(
            f"entails {'+'.join(g for g, _ in hyps)} |- {concl[0]}",
            lambda h=[q for _, q in hyps], c=concl[1]: entailment.entails(h, c),
            _entails_check(goal, goal - covered),
        ))
    return Workload(ops, _digest(parts))


def _entails_check(goal: set, missing: set):
    def check(report) -> str | None:
        if report.holds != (not missing):
            return f"expected holds={not missing}, got holds={report.holds}"
        if {str(s) for s in report.conclusion_divisors} != goal:
            return f"conclusion divisors {sorted(map(str, report.conclusion_divisors))}, expected {sorted(goal)}"
        if {str(s) for s in report.missing} != missing:
            return f"missing {sorted(map(str, report.missing))}, expected {sorted(missing)}"
        return None

    return check


# ---------------------------------------------------------------------------


BUILDERS = {
    "check-library": build_check_library,
    "divisors-groups": build_divisors_groups,
    "entails-stream": build_entails_stream,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's inputs for this seed.  Only divisors-groups writes
    files, into ``workdir``."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(BUILDERS)}")
    if name == "divisors-groups":
        return build_divisors_groups(seed, workdir)
    return BUILDERS[name](seed)
