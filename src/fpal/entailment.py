"""Deciding consequence between automaton identities.

The identity attached to an automaton is a consequence of the identities
attached to a set of hypothesis automata exactly when every simple-group
divisor of the conclusion's transition monoid already divides the
transition monoid of some hypothesis.  This module computes that test and
reports witnesses for each covered divisor and the divisors left over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence, Union

from . import algebra
from .algebra import (
    DEFAULT_SUBGROUP_CAP,
    DivisorWitness,
    SimpleGroupId,
    divisor_witnesses_monoid,
    simple_group_id,
    smallest_missing_simple_group,
    transition_monoid,
)
from .automaton import (
    DEFAULT_MONOID_CAP,
    Automaton,
    InitializedAutomaton,
    is_initially_connected,
    reachable_part,
)
from .errors import NotInitiallyConnectedError

AutomatonLike = Union[Automaton, InitializedAutomaton]


@dataclass(frozen=True)
class EntailmentReport:
    holds: bool
    conclusion_divisors: tuple
    coverage: dict
    missing: tuple
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "conclusion_divisors": [str(s) for s in self.conclusion_divisors],
            "coverage": {
                str(s): {"hypothesis": i, "witness": w.to_json()}
                for s, (i, w) in self.coverage.items()
            },
            "missing": [str(s) for s in self.missing],
            "notes": list(self.notes),
        }


def _hypothesis_automaton(aut: AutomatonLike, index: Optional[int],
                          reduce_reachable: bool):
    """Resolve a hypothesis to a plain automaton, restricting initialized
    ones to their reachable part when allowed."""
    notes = []
    if isinstance(aut, InitializedAutomaton):
        if is_initially_connected(aut):
            return aut.automaton, notes
        label = "hypothesis" if index is None else f"hypothesis {index}"
        if not reduce_reachable:
            raise NotInitiallyConnectedError(
                f"{label} has states unreachable from its initial state; "
                "pass reduce_reachable=True to restrict to the reachable part"
            )
        reduced = reachable_part(aut)
        notes.append(
            f"{label} restricted to its {reduced.automaton.n_states} "
            "reachable states"
        )
        return reduced.automaton, notes
    return aut, notes


_divisor_tables: dict = {}


def _divisor_table(plain: Automaton, monoid_cap: int, subgroup_cap: int):
    """The read-only divisor table of a plain automaton's monoid.  An
    entailment answer depends on nothing else about an automaton, so the
    table is cached per automaton and caps, in a FIFO bounded by
    ``algebra.MONOID_CACHE_SIZE``; a refusal is not cached.  Witness
    words are spelled in the automaton's letters, so letters that compare
    equal but print differently (1, 1.0, True) are told apart by repr."""
    key = (plain, tuple(map(repr, plain.letters)), monoid_cap, subgroup_cap)
    cached = _divisor_tables.get(key)
    if cached is not None:
        return cached
    table = divisor_witnesses_monoid(transition_monoid(plain, cap=monoid_cap),
                                     cap=subgroup_cap)
    return algebra._remember(_divisor_tables, key, table, algebra.MONOID_CACHE_SIZE)


def _per_hypothesis_divisors(hypotheses: Sequence[AutomatonLike],
                             reduce_reachable: bool,
                             monoid_cap: int, subgroup_cap: int):
    """Per-hypothesis simple divisors, each with a witness.

    Returns ``(tables, notes)`` where ``tables[i]`` maps each divisor of
    hypothesis ``i`` to a :class:`DivisorWitness`.
    """
    tables = []
    notes = []
    for i, aut in enumerate(hypotheses):
        plain, local = _hypothesis_automaton(aut, i, reduce_reachable)
        notes.extend(local)
        tables.append(_divisor_table(plain, monoid_cap, subgroup_cap))
    return tables, notes


def divisor_basis(hypotheses: Sequence[AutomatonLike], *,
                  reduce_reachable: bool = False,
                  monoid_cap: int = DEFAULT_MONOID_CAP,
                  subgroup_cap: int = DEFAULT_SUBGROUP_CAP) -> set:
    """Union of the simple divisors of the hypotheses' monoids."""
    tables, _ = _per_hypothesis_divisors(
        hypotheses, reduce_reachable, monoid_cap, subgroup_cap
    )
    out: set = set()
    for table in tables:
        out.update(table)
    return out


def entails(hypotheses: Sequence[AutomatonLike], conclusion: AutomatonLike, *,
            reduce_reachable: bool = False,
            monoid_cap: int = DEFAULT_MONOID_CAP,
            subgroup_cap: int = DEFAULT_SUBGROUP_CAP) -> EntailmentReport:
    """Decide whether the hypotheses' identities force the conclusion's."""
    tables, notes = _per_hypothesis_divisors(
        hypotheses, reduce_reachable, monoid_cap, subgroup_cap
    )
    if isinstance(conclusion, InitializedAutomaton):
        notes.append(
            "conclusion judged over its full state set; the identity at "
            "the marked state follows from the full identity"
        )
        conclusion = conclusion.automaton
    goal = _divisor_table(conclusion, monoid_cap, subgroup_cap)
    coverage = {}
    missing = []
    for fp in goal:
        for i, table in enumerate(tables):
            if fp in table:
                coverage[fp] = (i, table[fp])
                break
        else:
            missing.append(fp)
    return EntailmentReport(
        holds=not missing,
        conclusion_divisors=tuple(goal),
        coverage=coverage,
        missing=tuple(missing),
        notes=tuple(notes),
    )


def equivalent(first: AutomatonLike, second: AutomatonLike, *,
               reduce_reachable: bool = False,
               monoid_cap: int = DEFAULT_MONOID_CAP,
               subgroup_cap: int = DEFAULT_SUBGROUP_CAP) -> bool:
    """Whether each automaton's identity is a consequence of the other's."""
    kwargs = dict(
        reduce_reachable=reduce_reachable,
        monoid_cap=monoid_cap,
        subgroup_cap=subgroup_cap,
    )
    return (entails([first], second, **kwargs).holds
            and entails([second], first, **kwargs).holds)


@dataclass(frozen=True)
class ShiftReport:
    word: tuple
    initial: int
    shifted_initial: int
    base_divisors: tuple
    shifted_divisors: tuple
    identical: bool
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "word": list(self.word),
            "initial": self.initial,
            "shifted_initial": self.shifted_initial,
            "base_divisors": [str(s) for s in self.base_divisors],
            "shifted_divisors": [str(s) for s in self.shifted_divisors],
            "identical": self.identical,
            "notes": list(self.notes),
        }


def initial_shift_check(iq: InitializedAutomaton, word, *,
                        reduce_reachable: bool = False,
                        monoid_cap: int = DEFAULT_MONOID_CAP,
                        subgroup_cap: int = DEFAULT_SUBGROUP_CAP) -> ShiftReport:
    """Compare an initialized automaton against the same automaton started
    at the state the word leads to."""
    shifted = InitializedAutomaton(iq.automaton, reduce(iq.automaton.step, word, iq.initial))
    notes = []
    tables = []
    for label, machine in (("base", iq), ("shifted", shifted)):
        plain, local = _hypothesis_automaton(machine, None, reduce_reachable)
        notes.extend(f"{label}: {msg}" for msg in local)
        tables.append(_divisor_table(plain, monoid_cap, subgroup_cap))
    base, after = (tuple(t) for t in tables)
    return ShiftReport(
        word=tuple(word),
        initial=iq.initial,
        shifted_initial=shifted.initial,
        base_divisors=base,
        shifted_divisors=after,
        identical=set(base) == set(after),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# completeness of families


@dataclass(frozen=True)
class FamilyReport:
    family: str
    complete: bool
    witness: Optional[SimpleGroupId]
    explanation: str
    covered: Optional[tuple] = None

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "complete": self.complete,
            "witness": None if self.witness is None else str(self.witness),
            "witness_details": (
                None if self.witness is None else self.witness.to_json()
            ),
            "explanation": self.explanation,
            "covered": (
                None if self.covered is None else [str(s) for s in self.covered]
            ),
        }


def family_completeness(family, *,
                        reduce_reachable: bool = False,
                        monoid_cap: int = DEFAULT_MONOID_CAP,
                        subgroup_cap: int = DEFAULT_SUBGROUP_CAP) -> FamilyReport:
    """Whether a family of automata proves every automaton identity.

    ``family`` is ``"cyclic"``, ``"symmetric"``, ``"alternating"``, or an
    explicit sequence of automata.  A family is complete when the simple
    divisors of its members exhaust all finite simple groups.
    """
    if isinstance(family, str):
        kind = family.lower()
        if kind == "symmetric":
            return FamilyReport(
                family="symmetric",
                complete=True,
                witness=None,
                explanation=(
                    "every finite simple group embeds in the permutation "
                    "group of some shuffle automaton, so the family's "
                    "divisors exhaust all finite simple groups"
                ),
            )
        if kind == "alternating":
            return FamilyReport(
                family="alternating",
                complete=True,
                witness=None,
                explanation=(
                    "every finite group embeds in a large enough group of "
                    "even permutations, so the family's divisors exhaust "
                    "all finite simple groups"
                ),
            )
        if kind == "cyclic":
            return FamilyReport(
                family="cyclic",
                complete=False,
                witness=simple_group_id(60),
                explanation=(
                    "modular counters only yield prime-order divisors; the "
                    "order-60 simple group never divides any of them"
                ),
            )
        raise ValueError(
            f"unknown family {family!r}: expected 'cyclic', 'symmetric', "
            "'alternating', or a sequence of automata"
        )
    members = list(family)
    covered = divisor_basis(
        members,
        reduce_reachable=reduce_reachable,
        monoid_cap=monoid_cap,
        subgroup_cap=subgroup_cap,
    )
    witness = smallest_missing_simple_group(covered)
    return FamilyReport(
        family=f"list[{len(members)}]",
        complete=False,
        witness=witness,
        explanation=(
            "finitely many finite automata cover finitely many simple "
            "groups; the reported group is the smallest left out"
        ),
        covered=tuple(sorted(covered)),
    )
