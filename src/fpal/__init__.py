"""Fixed-point identities of finite automata.

Terms for morphisms with a parameterized fixed-point operation, the
identity attached to a finite automaton, simple-group divisors of
transition monoids, an entailment decision procedure, and a finite-poset
model checker for refuting candidate identities.
"""

from .algebra import (
    DivisorWitness,
    FiniteGroup,
    SimpleGroupId,
    TransformationMonoid,
    composition_factors,
    cyclic_group,
    fingerprint,
    group_from_permutations,
    simple_divisors_monoid,
    symmetric_group,
    transition_monoid,
)
from .automaton import (
    Automaton,
    InitializedAutomaton,
    Transformation,
    counter,
    full_T2,
    is_extension,
    is_initially_connected,
    is_restriction,
    monoid_automaton,
    reachable_part,
    saturate,
    symmetric_automaton,
)
from .cpo_model import (
    CheckResult,
    PosetModel,
    chain,
    check_equation,
)
from .entailment import (
    EntailmentReport,
    FamilyReport,
    divisor_basis,
    entails,
    equivalent,
    family_completeness,
    initial_shift_check,
)
from .errors import (
    CapExceededError,
    NotInitiallyConnectedError,
    ThresholdExceededError,
)
from .identities import (
    adding_id_instance,
    conway_library,
    cycle_transposition_identity,
    gamma,
    gamma_init,
    power_identity,
    system_view,
)
from .term import (
    Comp,
    Dagger,
    Equation,
    ParseError,
    Proj,
    Sym,
    Symbol,
    TermError,
    TermTypeError,
    Tup,
    identity,
    parse,
    parse_equation,
    power,
    render,
    render_equation,
    tup,
)

__version__ = "0.1.0"
