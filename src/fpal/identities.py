"""Builders for fixed-point equations.

Each builder returns an :class:`~fpal.term.Equation` whose symbols stand
for arbitrary operations; the equation is an identity when it holds under
every interpretation.  The library covers the classical identities of the
fixed-point operation (instantiated at caller-chosen object arities) and
the per-automaton identities that tie the solution of a state system to
the solution of its diagonal.
"""

from __future__ import annotations

from .automaton import Automaton, monoid_automaton
from .term import (
    Comp,
    Dagger,
    Equation,
    Morphism,
    Proj,
    Sym,
    Symbol,
    Tup,
    base_from_function,
    identity,
    power,
    tup,
)


def _sel(values, n: int) -> Morphism:
    return base_from_function(values, n)


def _block(start: int, length: int, n: int) -> Morphism:
    """Select ``length`` consecutive coordinates starting at ``start``."""
    return _sel(range(start, start + length), n)


def schematic(name: str, source: int, target: int):
    """A schematic morphism variable of the given arity, realized as a
    tupling of fresh symbols (one per output)."""
    if target == 1:
        s = Symbol(name, source)
        return Sym(s), (s,)
    syms = tuple(Symbol(f"{name}{j}", source) for j in range(1, target + 1))
    return tup([Sym(s) for s in syms]), syms


def _dup(block: int, copies: int) -> Morphism:
    """The diagonal embedding of a block of coordinates into ``copies``
    adjacent copies of itself."""
    return base_from_function(list(range(1, block + 1)) * copies, block)


# ---------------------------------------------------------------------------
# the classical identity library


def parameter_identity(a: int = 1, b: int = 1, c: int = 1) -> Equation:
    """Substituting into the parameters commutes with taking the fixed
    point."""
    f, _ = schematic("f", a + b, a)
    g, _ = schematic("g", c, b)
    one_a_times_g = tup([_block(1, a, a + c), Comp(g, _block(a + 1, c, a + c))])
    lhs = Dagger(Comp(f, one_a_times_g), a)
    rhs = Comp(Dagger(f, a), g)
    return Equation.of(f"parameter[a={a},b={b},c={c}]", lhs, rhs)


def double_dagger_identity(a: int = 1, c: int = 1) -> Equation:
    """Solving twice equals solving once after merging the two recursion
    blocks through the diagonal."""
    f, _ = schematic("f", 2 * a + c, a)
    merge = _sel(list(range(1, a + 1)) * 2 + list(range(a + 1, a + c + 1)), a + c)
    lhs = Dagger(Dagger(f, a), a)
    rhs = Dagger(Comp(f, merge), a)
    return Equation.of(f"double-dagger[a={a},c={c}]", lhs, rhs)


def composition_identity(a: int = 1, b: int = 1, c: int = 1) -> Equation:
    """The fixed point of f after g can be recovered by applying f to the
    fixed point of g after f."""
    f, _ = schematic("f", b + c, a)
    g, _ = schematic("g", a + c, b)
    lhs = Dagger(Comp(f, tup([g, _block(a + 1, c, a + c)])), a)
    k = Comp(g, tup([f, _block(b + 1, c, b + c)]))
    rhs = Comp(f, tup([Dagger(k, b), identity(c)], source=c))
    return Equation.of(f"composition[a={a},b={b},c={c}]", lhs, rhs)


def fixed_point_identity(a: int = 1, c: int = 1) -> Equation:
    """The solution really is a fixed point of the body."""
    f, _ = schematic("f", a + c, a)
    lhs = Dagger(f, a)
    rhs = Comp(f, tup([Dagger(f, a), identity(c)], source=c))
    return Equation.of(f"fixed-point[a={a},c={c}]", lhs, rhs)


def left_zero_identity(a: int = 1, c: int = 1) -> Equation:
    """Solving a system whose body ignores the recursion block does
    nothing."""
    f, _ = schematic("f", c, a)
    lhs = Dagger(Comp(f, _block(a + 1, c, a + c)), a)
    return Equation.of(f"left-zero[a={a},c={c}]", lhs, f)


def right_zero_identity(a: int = 1, b: int = 1, c: int = 1) -> Equation:
    """Unused trailing parameters can be dropped before or after
    solving."""
    f, _ = schematic("f", a + b, a)
    lhs = Dagger(Comp(f, _block(1, a + b, a + b + c)), a)
    rhs = Comp(Dagger(f, a), _block(1, b, b + c))
    return Equation.of(f"right-zero[a={a},b={b},c={c}]", lhs, rhs)


def pairing_identity(a: int = 1, b: int = 1, c: int = 1) -> Equation:
    """A joint fixed point can be computed blockwise: solve for the first
    block, substitute, solve for the second, and back-substitute."""
    f, _ = schematic("f", a + b + c, a)
    g, _ = schematic("g", a + b + c, b)
    fd = Dagger(f, a)
    h = Comp(g, tup([fd, identity(b + c)], source=b + c))
    hd = Dagger(h, b)
    first = Comp(fd, tup([hd, identity(c)], source=c))
    lhs = Dagger(tup([f, g]), a + b)
    rhs = tup([first, hd], source=c)
    return Equation.of(f"pairing[a={a},b={b},c={c}]", lhs, rhs)


def pairing_dual_identity(a: int = 1, b: int = 1, c: int = 1) -> Equation:
    """The mirror image of the pairing identity, eliminating the second
    block first."""
    f, _ = schematic("f", a + b + c, a)
    g, _ = schematic("g", a + b + c, b)
    swap = _sel(
        list(range(b + 1, b + a + 1)) + list(range(1, b + 1))
        + list(range(b + a + 1, b + a + c + 1)),
        b + a + c,
    )
    gbar = Comp(g, swap)
    gbar_d = Dagger(gbar, b)
    k = Comp(f, tup([_block(1, a, a + c), gbar_d, _block(a + 1, c, a + c)]))
    kd = Dagger(k, a)
    second = Comp(gbar_d, tup([kd, identity(c)], source=c))
    lhs = Dagger(tup([f, g]), a + b)
    rhs = tup([kd, second], source=c)
    return Equation.of(f"pairing-dual[a={a},b={b},c={c}]", lhs, rhs)


def separated_pairing_identity(a: int = 1, b: int = 1, c: int = 1) -> Equation:
    """Two systems that do not mention each other can be solved jointly or
    separately."""
    f, _ = schematic("f", a + c, a)
    g, _ = schematic("g", b + c, b)
    drop_b = _sel(
        list(range(1, a + 1)) + list(range(a + b + 1, a + b + c + 1)), a + b + c
    )
    drop_a = _block(a + 1, b + c, a + b + c)
    lhs = Dagger(tup([Comp(f, drop_b), Comp(g, drop_a)]), a + b)
    rhs = tup([Dagger(f, a), Dagger(g, b)], source=c)
    return Equation.of(f"separated-pairing[a={a},b={b},c={c}]", lhs, rhs)


def c1_identity(a: int = 1, b: int = 1, c: int = 1) -> Equation:
    """Projecting a joint solution onto a block that never reads the other
    block gives that block's own solution."""
    f, _ = schematic("f", a + c, a)
    g, _ = schematic("g", a + b + c, b)
    drop_b = _sel(
        list(range(1, a + 1)) + list(range(a + b + 1, a + b + c + 1)), a + b + c
    )
    joint = Dagger(tup([Comp(f, drop_b), g]), a + b)
    lhs = Comp(_block(1, a, a + b), joint)
    rhs = Dagger(f, a)
    return Equation.of(f"c1[a={a},b={b},c={c}]", lhs, rhs)


def c2_identity(a: int = 1, b: int = 1, c: int = 1) -> Equation:
    """When the second block is a function of the first, that function may
    be substituted into the first block's body without changing the joint
    solution."""
    f, _ = schematic("f", a + b + c, a)
    g, _ = schematic("g", a, b)
    g_of_first = Comp(g, _block(1, a, a + b + c))
    expand = tup([
        _block(1, a, a + b + c),
        g_of_first,
        _block(a + b + 1, c, a + b + c),
    ])
    lhs = Dagger(tup([f, g_of_first]), a + b)
    rhs = Dagger(tup([Comp(f, expand), g_of_first]), a + b)
    return Equation.of(f"c2[a={a},b={b},c={c}]", lhs, rhs)


def c22_identity(a: int = 1, b: int = 1, c: int = 1) -> Equation:
    """The explicit solution of the substituted system from the c2 step."""
    f, _ = schematic("f", a + b + c, a)
    g, _ = schematic("g", a, b)
    g_of_first = Comp(g, _block(1, a, a + b + c))
    embed = tup([
        _block(1, a, a + c),
        Comp(g, _block(1, a, a + c)),
        _block(a + 1, c, a + c),
    ])
    fd = Dagger(Comp(f, embed), a)
    lhs = Dagger(tup([f, g_of_first]), a + b)
    rhs = tup([fd, Comp(g, fd)], source=c)
    return Equation.of(f"c22[a={a},b={b},c={c}]", lhs, rhs)


def permutation_identity(sigma, a: int = 1, c: int = 1) -> Equation:
    """Renaming the recursion variables commutes with solving.  ``sigma``
    lists the images of 1..k."""
    sigma = tuple(sigma)
    k = len(sigma)
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError(f"{sigma} is not a permutation of [1..{k}]")
    inverse = [0] * k
    for i, v in enumerate(sigma, start=1):
        inverse[v - 1] = i

    def blocks(perm):
        out = []
        for v in perm:
            out.extend(range((v - 1) * a + 1, v * a + 1))
        return out

    f, _ = schematic("f", k * a + c, k * a)
    apply_perm = _sel(blocks(sigma), k * a)
    undo_args = _sel(
        blocks(inverse) + list(range(k * a + 1, k * a + c + 1)), k * a + c
    )
    lhs = Dagger(Comp(apply_perm, Comp(f, undo_args)), k * a)
    rhs = Comp(apply_perm, Dagger(f, k * a))
    return Equation.of(f"permutation[sigma={sigma},a={a},c={c}]", lhs, rhs)


def n_dagger_identity(n: int, a: int = 1, c: int = 1) -> Equation:
    """n nested solves collapse to one solve of the body with all n
    recursion blocks identified."""
    if n < 1:
        raise ValueError(f"need at least one dagger, got {n}")
    f, _ = schematic("f", n * a + c, a)
    lhs: Morphism = f
    for _ in range(n):
        lhs = Dagger(lhs, a)
    merge = _sel(list(range(1, a + 1)) * n + list(range(a + 1, a + c + 1)), a + c)
    rhs = Dagger(Comp(f, merge), a)
    return Equation.of(f"n-dagger[n={n},a={a},c={c}]", lhs, rhs)


def conway_library(max_object_arity: int = 2, max_param_arity: int = 1,
                   max_blocks: int = 3) -> list:
    """All identity instances from the classical library, over object
    arities up to ``max_object_arity`` and parameter arity up to
    ``max_param_arity``."""
    obj = range(1, max_object_arity + 1)
    par = range(0, max_param_arity + 1)
    out = []
    for a in obj:
        for c in par:
            out.append(double_dagger_identity(a, c))
            out.append(fixed_point_identity(a, c))
            out.append(left_zero_identity(a, c))
            for b in obj:
                out.append(parameter_identity(a, b, c))
                out.append(composition_identity(a, b, c))
                out.append(right_zero_identity(a, b, c))
                out.append(pairing_identity(a, b, c))
                out.append(pairing_dual_identity(a, b, c))
                out.append(separated_pairing_identity(a, b, c))
                out.append(c1_identity(a, b, c))
                out.append(c2_identity(a, b, c))
                out.append(c22_identity(a, b, c))
    for c in par:
        for a in obj:
            for n in range(1, max_blocks + 1):
                out.append(n_dagger_identity(n, a, c))
        for a in obj:
            out.append(permutation_identity((2, 1), a, c))
        out.append(permutation_identity((2, 3, 1), 1, c))
        out.append(permutation_identity((2, 1, 3), 1, c))
    return out


# ---------------------------------------------------------------------------
# automaton identities


def _system_morphism(q: Automaton, sym_f: Morphism, p: int) -> Morphism:
    """The body of the state system: component i applies the operation to
    the states reached from i, followed by the parameters."""
    n, m = q.n_states, q.n_letters
    comps = []
    for s in range(1, n + 1):
        row = [q.delta[s - 1][j] for j in range(m)] + list(range(n + 1, n + p + 1))
        comps.append(Comp(sym_f, _sel(row, n + p)))
    return tup(comps, source=n + p)


def _diagonal_solution(sym_f: Morphism, m: int, p: int) -> Morphism:
    """Solve the one-variable system got by identifying all inputs."""
    merge = _sel([1] * m + list(range(2, p + 2)), 1 + p)
    return Dagger(Comp(sym_f, merge), 1)


def gamma(q: Automaton, p: int = 1) -> Equation:
    """The identity of an automaton: the joint solution of its state
    system is the diagonal solution, copied to every component."""
    if p < 0:
        raise ValueError(f"parameter arity {p} must be nonnegative")
    n, m = q.n_states, q.n_letters
    sym_f, _ = schematic("f", m + p, 1)
    lhs = Dagger(_system_morphism(q, sym_f, p), n)
    rhs = Comp(_dup(1, n), _diagonal_solution(sym_f, m, p))
    return Equation.of(f"gamma[{n}states,{m}letters,p={p}]", lhs, rhs)


def gamma_init(q: Automaton, initial: int, p: int = 1) -> Equation:
    """One component of the automaton identity: the solution at a chosen
    state equals the diagonal solution."""
    if not 1 <= initial <= q.n_states:
        raise ValueError(f"initial state {initial} out of range [1..{q.n_states}]")
    n, m = q.n_states, q.n_letters
    sym_f, _ = schematic("f", m + p, 1)
    lhs = Comp(Proj(initial, n), Dagger(_system_morphism(q, sym_f, p), n))
    rhs = _diagonal_solution(sym_f, m, p)
    return Equation.of(f"gamma-init[{n}states,{m}letters,q={initial},p={p}]", lhs, rhs)


def gamma_monoid(monoid, p: int = 1) -> Equation:
    """The identity of the automaton whose states are the monoid elements
    acting on themselves by right multiplication."""
    return gamma(monoid_automaton(monoid), p)


def gamma_group(g, p: int = 1) -> Equation:
    """The identity of a group acting on itself by right multiplication."""
    k = g.order
    letters = tuple(f"m{j}" for j in range(1, k + 1))
    delta = tuple(
        tuple(g.table[i][j] + 1 for j in range(k)) for i in range(k)
    )
    return gamma(Automaton(k, letters, delta), p)


def system_view(q: Automaton, p: int = 1, symbol: str = "f") -> dict:
    """Human-readable rendering of the state system and its diagonal."""
    n, m = q.n_states, q.n_letters
    params = [f"y{j}" for j in range(1, p + 1)]
    lines = []
    for s in range(1, n + 1):
        args = [f"x{q.delta[s - 1][j]}" for j in range(m)] + params
        lines.append(f"x{s} = {symbol}({', '.join(args)})")
    diagonal = f"x = {symbol}({', '.join(['x'] * m + params)})"
    return {"system": lines, "diagonal": diagonal}


# ---------------------------------------------------------------------------
# derived families


def power_identity(n: int, p: int = 1) -> Equation:
    """Iterating the body any number of times before solving changes
    nothing."""
    if n < 1:
        raise ValueError(f"power identity needs n >= 1, got {n}")
    sym_f, _ = schematic("f", 1 + p, 1)
    lhs = Dagger(power(sym_f, n), 1)
    rhs = Dagger(sym_f, 1)
    return Equation.of(f"power[n={n},p={p}]", lhs, rhs)


def cycle_transposition_identity(n: int, p: int = 1) -> Equation:
    """The reduced form of the identity of the n-cycle automaton extended
    with a transposition: feeding the (n-2)-th iterate of the partial
    solution back into the body does not change the diagonal solution."""
    if n < 3:
        raise ValueError(f"this family starts at n = 3, got {n}")
    sym_f, _ = schematic("f", 2 + p, 1)
    merge = _sel([1, 1] + list(range(2, p + 2)), 1 + p)
    diag = Comp(sym_f, merge)
    partial = Dagger(sym_f, 1)
    iterated = power(partial, n - 2)
    inner = tup([Proj(1, 1 + p), iterated, _block(2, p, 1 + p)])
    step = tup([Comp(sym_f, inner), _block(2, p, 1 + p)])
    lhs = Dagger(Comp(diag, step), 1)
    rhs = Dagger(diag, 1)
    return Equation.of(f"cycle-with-transposition[n={n},p={p}]", lhs, rhs)


def adding_id_instance(n: int, p: int = 1) -> Equation:
    """Solving a system whose bodies also read a copy of their own state
    equals first solving each body in that extra input, then solving the
    resulting system."""
    if n < 1:
        raise ValueError(f"need at least one component, got {n}")
    syms = [Symbol(f"f{i}", 1 + n + p) for i in range(1, n + 1)]
    comps = []
    for i in range(1, n + 1):
        feed = _sel([i] + list(range(1, n + p + 1)), n + p)
        comps.append(Comp(Sym(syms[i - 1]), feed))
    g = tup(comps, source=n + p)
    lhs = Dagger(g, n)
    rhs = Dagger(tup([Dagger(Sym(s), 1) for s in syms], source=n + p), n)
    return Equation.of(f"self-feedback[n={n},p={p}]", lhs, rhs)
