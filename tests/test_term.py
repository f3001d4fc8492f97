import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpal.term import (
    Comp,
    Dagger,
    Equation,
    ParseError,
    Proj,
    Sym,
    Symbol,
    TermTypeError,
    Tup,
    base_from_function,
    identity,
    parse,
    parse_equation,
    power,
    render,
    render_equation,
    symbols_of,
    tup,
)


def test_projection_arities():
    p = Proj(2, 3)
    assert p.source == 3
    assert p.target == 1


def test_projection_index_out_of_range():
    with pytest.raises(TermTypeError, match="index 3 exceeds arity 2"):
        Proj(3, 2)
    with pytest.raises(TermTypeError):
        Proj(0, 2)


def test_tup_target_is_sum_of_parts():
    t = Tup((Proj(1, 2), identity(2)), 2)
    assert t.source == 2
    assert t.target == 3


def test_tup_rejects_mismatched_sources():
    with pytest.raises(TermTypeError):
        Tup((Proj(1, 2), Proj(1, 3)), 2)


def test_empty_tup_needs_source():
    with pytest.raises(TermTypeError):
        tup([])
    t = Tup((), 2)
    assert t.source == 2
    assert t.target == 0
    assert render(t) == "bang(2)"


def test_comp_arity_mismatch():
    with pytest.raises(TermTypeError):
        Comp(Proj(1, 3), Proj(1, 2))


def test_dagger_shapes():
    f = Sym(Symbol("f", 3))
    d = Dagger(f, 1)
    assert d.source == 2
    assert d.target == 1
    with pytest.raises(TermTypeError):
        Dagger(f, 2)          # target 1 != 2
    with pytest.raises(TermTypeError):
        Dagger(Sym(Symbol("g", 0)), 1)   # source 0 < m


def test_identity_and_base():
    assert identity(3) == Tup((Proj(1, 3), Proj(2, 3), Proj(3, 3)), 3)
    assert base_from_function([2], 2) == Proj(2, 2)
    swap = base_from_function([2, 1], 2)
    assert render(swap) == "tup(pi(2,2),pi(1,2))"
    with pytest.raises(TermTypeError):
        base_from_function([3], 2)


def test_power_shape():
    f = Sym(Symbol("f", 2))
    p3 = power(f, 3)
    assert (p3.source, p3.target) == (2, 1)
    assert power(f, 1) == f
    # f^2 = f . <f, params>
    assert power(f, 2) == Comp(f, Tup((f, Proj(2, 2)), 2))
    with pytest.raises(TermTypeError):
        power(Tup((f, f), 2), 2)


def test_render_examples():
    f = Sym(Symbol("f", 2))
    t = Dagger(f, 1)
    assert render(t) == "dagger(sym(f),1)"
    u = Comp(Proj(1, 2), Tup((t, identity(1)), 1))
    assert render(u) == "comp(pi(1,2),tup(dagger(sym(f),1),pi(1,1)))"


def test_parse_round_trip_explicit():
    f = Symbol("f", 2)
    text = "comp(sym(f),tup(dagger(sym(f),1),pi(1,1)))"
    t = parse(text, [f])
    assert render(t) == text
    assert (t.source, t.target) == (1, 1)


def test_parse_rejects_unknown_symbol():
    with pytest.raises(ParseError, match="unknown symbol"):
        parse("sym(f)", [])


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse("pi(1,2", [])
    with pytest.raises(ParseError):
        parse("frob(1)", [])
    with pytest.raises(ParseError):
        parse("pi(0,2)", [])


def test_constructors_type_each_node():
    # a term that exists is well typed: the constructor refuses the bad node
    with pytest.raises(TermTypeError,
                       match="cannot compose: inner morphism has target 1, outer expects source 3"):
        Comp(Proj(1, 3), Proj(1, 2))
    good = Tup((Proj(1, 2), Proj(1, 2)), 2)
    assert (good.source, good.target) == (2, 2)


def test_symbols_of_conflicting_arity():
    u = Comp(Sym(Symbol("f", 1)), Tup((Sym(Symbol("f", 2)),), 2))
    with pytest.raises(TermTypeError, match="used with arities"):
        symbols_of(u)


# -- generated round-trips ---------------------------------------------------

_LEAF_NAMES = {n: Symbol(f"s{n}", n) for n in range(0, 8)}


@st.composite
def _single_output(draw, source: int, depth: int):
    if depth <= 0:
        options = [Sym(_LEAF_NAMES[source])]
        options.extend(Proj(i, source) for i in range(1, source + 1))
        return draw(st.sampled_from(options))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(_single_output(source, 0))
    if kind == 1:
        width = draw(st.integers(1, 3))
        parts = tuple(
            draw(_single_output(source, depth - 1)) for _ in range(width)
        )
        outer = draw(_single_output(width, depth - 1))
        return Comp(outer, Tup(parts, source))
    if kind == 2:
        body = draw(_single_output(source + 1, depth - 1))
        return Dagger(body, 1)
    return Comp(Sym(_LEAF_NAMES[0]), Tup((), source))


@st.composite
def _terms(draw):
    source = draw(st.integers(0, 3))
    width = draw(st.integers(0, 3))
    if width == 0:
        return Tup((), source)
    if width == 1 and draw(st.booleans()):
        return draw(_single_output(source, 2))
    parts = tuple(draw(_single_output(source, 2)) for _ in range(width))
    return Tup(parts, source)


@given(_terms())
@settings(max_examples=150, deadline=None)
def test_render_parse_round_trip(t):
    text = render(t)
    back = parse(text, symbols_of(t).values())
    assert back == t
    assert (back.source, back.target) == (t.source, t.target)


@given(_terms())
@settings(max_examples=60, deadline=None)
def test_render_has_no_whitespace(t):
    assert " " not in render(t)


# -- equations ---------------------------------------------------------------


def test_equation_requires_parallel_sides():
    f = Sym(Symbol("f", 2))
    with pytest.raises(TermTypeError, match="sides disagree"):
        Equation.of("bad", Dagger(f, 1), f)


def test_equation_collects_symbols():
    f = Sym(Symbol("f", 2))
    eq = Equation.of("fp", Dagger(f, 1), Comp(f, Tup((Dagger(f, 1), identity(1)), 1)))
    assert [s.name for s in eq.symbols] == ["f"]
    assert eq.param_arity == 1


def test_equation_file_round_trip():
    f = Sym(Symbol("f", 2))
    eq = Equation.of("fixed point", Dagger(f, 1),
                     Comp(f, Tup((Dagger(f, 1), identity(1)), 1)))
    text = render_equation(eq)
    back = parse_equation(text)
    assert back.name == eq.name
    assert back.lhs == eq.lhs
    assert back.rhs == eq.rhs
    assert back.symbols == eq.symbols


def test_equation_file_with_comments():
    text = """
    # an uninteresting equation
    name trivial
    sym f 1
    sym g 1   # unused is fine
    sym(f) = sym(f)
    """
    eq = parse_equation(text)
    assert eq.name == "trivial"
    assert eq.lhs == eq.rhs == Sym(Symbol("f", 1))


def test_equation_file_rejects_double_equals():
    with pytest.raises(ParseError):
        parse_equation("name x\nsym f 1\nsym(f) = sym(f) = sym(f)")


def test_equation_file_rejects_bad_sym_line():
    with pytest.raises(ParseError):
        parse_equation("sym f\nsym(f) = sym(f)")
    with pytest.raises(ParseError):
        parse_equation("sym f 1\nsym f 2\nsym(f) = sym(f)")


def _nested(head: str, depth: int) -> str:
    """``pi(1,1)`` inside ``depth`` applications of ``comp(pi(1,1), .)`` or
    of ``tup(.)``, each of them the identity on one sort."""
    opening = "comp(pi(1,1)," if head == "comp" else "tup("
    return opening * depth + "pi(1,1)" + ")" * depth


def test_terms_nested_past_the_recursion_limit_are_parse_errors():
    with pytest.raises(ParseError):
        parse(_nested("comp", 1200))
    with pytest.raises(ParseError):
        parse(_nested("tup", 5000))
    # a tuple this deep parses, but its target is a sum over a recursion
    # twice as deep, taken when the equation is made
    with pytest.raises(ParseError):
        parse_equation(f"name deep\n{_nested('tup', 600)} = pi(1,1)\n")
