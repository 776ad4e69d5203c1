"""Expression parsing, total evaluation and formatting."""

import json
import time

import pytest
from hypothesis import given, strategies as st

from meadows import rings
from meadows.errors import ReservedIdentifier, TermSyntaxError, UnboundVariable, ValueTooLarge
from meadows.meadow import build_meadow
from meadows.morphisms import adjoin_error
from meadows.terms import (
    MAX_DEPTH,
    Add,
    Div,
    ErrorConst,
    Inv,
    Mul,
    Neg,
    Numeral,
    Pow,
    Sub,
    Var,
    bind_env,
    eval_term,
    format_element,
    format_term,
    parse,
)

import corpus


@pytest.fixture(scope="module")
def N():
    return build_meadow(corpus.chain_z_q(), mode="verify")


@pytest.fixture(scope="module")
def M6():
    return adjoin_error(rings.Mod(6))


# -- parsing -------------------------------------------------------------------


def test_parse_division():
    assert parse("1/0") == Div(Numeral(1), Numeral(0))


def test_parse_inverse_product_shape():
    assert parse("x^-1 * y^-1") == Mul(Pow(Var("x"), -1), Pow(Var("y"), -1))


def test_parse_precedence():
    assert parse("2 + -3 * 4") == Add(Numeral(2), Mul(Neg(Numeral(3)), Numeral(4)))


def test_parse_left_associative():
    assert parse("1 - 2 - 3") == parse("(1 - 2) - 3")
    assert parse("8 / 4 / 2") == parse("(8 / 4) / 2")


def test_power_binds_tightest():
    assert parse("2 * x^2") == Mul(Numeral(2), Pow(Var("x"), 2))
    assert parse("-x^2") == Neg(Pow(Var("x"), 2))


def test_a_is_the_error_constant():
    assert parse("a") == ErrorConst()
    assert parse("x + a") == Add(Var("x"), ErrorConst())


def test_syntax_error_carries_position():
    with pytest.raises(TermSyntaxError) as exc:
        parse("1 + * 2")
    assert exc.value.position == 4
    with pytest.raises(TermSyntaxError):
        parse("(1 + 2")
    with pytest.raises(TermSyntaxError):
        parse("x^y")


def test_nesting_past_the_depth_bound_is_a_syntax_error():
    deep = 5000
    for text in (
        "(" * deep + "1" + ")" * deep,
        "-" * deep + "1",
        "1" + " + 1" * deep,
        "x" + " * x" * deep,
    ):
        with pytest.raises(TermSyntaxError, match="nested deeper"):
            parse(text)


def test_nesting_up_to_the_depth_bound_parses(M6):
    n = MAX_DEPTH
    assert parse("(" * n + "1" + ")" * n) == Numeral(1)
    chain = parse("1" + " + 1" * (n - 1))
    assert eval_term(chain, M6) == M6.numeral(n)
    assert parse("-" * (n - 1) + "1") == parse("-(" * (n - 1) + "1" + ")" * (n - 1))


def test_cli_reports_deep_nesting_as_json_error(capsys):
    from meadows.cli import main

    text = "(" * 5000 + "1" + ")" * 5000
    assert main(["--json", "eval", "lattices/z6.json", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "TermSyntaxError"


def test_binding_a_is_reserved(M6):
    with pytest.raises(ReservedIdentifier):
        bind_env(M6, {"a": M6.one})


# -- evaluation -----------------------------------------------------------------


def test_division_by_zero_gives_error_element(N, M6):
    for m in (N, M6):
        assert eval_term(parse("1/0"), m) == m.a


def test_integer_inverts_to_rational(N):
    assert eval_term(parse("2^-1"), N) == N.element("n1", "1/2")


def test_error_absorbs_variables(N):
    env = bind_env(N, {"x": N.element("n0", 5)})
    assert eval_term(parse("x + a"), N, env) == N.a


def test_one_plus_zero_times_law(M6):
    lhs, rhs = parse("(1 + 0*x)^-1"), parse("1 + 0*x")
    for x in M6.elements():
        env = {"x": x}
        assert eval_term(lhs, M6, env) == eval_term(rhs, M6, env)


def test_power_zero_keeps_component_information(N):
    t = parse("x^0")
    env = bind_env(N, {"x": N.element("n1", "2/3")})
    assert eval_term(t, N, env) == N.element("n1", 1)  # 1 + 0*x at the node of x
    env0 = bind_env(N, {"x": N.element("n0", 0)})
    assert eval_term(t, N, env0) == N.element("n0", 1)
    assert eval_term(parse("a^0"), N) == N.a


def test_positive_and_negative_powers(M6, N):
    assert eval_term(parse("5^2"), M6) == M6.element("top", 1)  # 25 mod 6
    assert eval_term(parse("2^-2"), N) == N.element("n1", "1/4")


def test_powers_equal_repeated_multiplication():
    for name, m in corpus.finite_meadows():
        for x in m.elements():
            inv = m.inverse(x)
            for n in range(1, 12):
                for base, exponent in ((x, n), (inv, -n)):
                    want = base
                    for _ in range(n - 1):
                        want = m.mul(want, base)
                    got = eval_term(Pow(Var("x"), exponent), m, {"x": x})
                    assert got == want, (name, x, exponent)


def test_huge_exponent_is_fast(N, M6):
    t0 = time.perf_counter()
    assert eval_term(parse("1^100000"), N) == N.one
    assert eval_term(parse("1^1000000000000"), N) == N.one
    assert eval_term(parse("0^1000000000000"), N) == N.zero
    assert eval_term(parse("(-1)^1000000000001"), N) == N.element("n0", -1)
    assert eval_term(parse("x^1000000000001"), M6, {"x": M6.element("top", 5)}) == M6.element("top", 5)
    assert eval_term(parse("x^100001"), M6, {"x": M6.element("top", 5)}) == M6.element("top", 5)
    assert eval_term(parse("x^-100000"), M6, {"x": M6.element("top", 5)}) == M6.element("top", 1)
    assert time.perf_counter() - t0 < 0.5


def test_a_power_past_the_print_limit_is_refused_naming_its_term(N):
    # nesting multiplies exponents: the middle power is the first one refused
    with pytest.raises(ValueTooLarge, match=r"^a value of Z would have a bit length over .*: \(\(3\)\^99\)\^99$"):
        eval_term(parse("((3^99)^99)^99"), N)


def test_unbound_variable(N):
    with pytest.raises(UnboundVariable):
        eval_term(parse("x + 1"), N)


def test_numerals_enter_at_top(N):
    assert eval_term(parse("7"), N) == N.element("n0", 7)


# -- formatting -----------------------------------------------------------------


def test_format_element_examples(N):
    assert format_element(N.a) == "a"
    assert format_element(N.element("n1", "1/2")) == "1/2 @ n1"
    P = adjoin_error(rings.Product((rings.Mod(2), rings.Mod(2))))
    assert format_element(P.element("top", [1, 0])) == "(1, 0) @ top"


def test_format_poly_values():
    QX = rings.Poly(rings.Q, "x")
    from fractions import Fraction

    val = rings.ring_value(QX, [Fraction(3), Fraction(2)])
    assert rings.format_value(val) == "3 + 2x"


numerals = st.integers(min_value=0, max_value=9).map(Numeral)


def term_strategy():
    return st.recursive(
        numerals | st.just(ErrorConst()) | st.sampled_from([Var("x"), Var("y")]),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: Add(*p)),
            st.tuples(inner, inner).map(lambda p: Mul(*p)),
            st.tuples(inner, inner).map(lambda p: Div(*p)),
            inner.map(Neg),
            st.tuples(inner, st.integers(min_value=-3, max_value=3)).map(lambda p: Pow(*p)),
        ),
        max_leaves=12,
    )


@given(term_strategy())
def test_parse_print_parse_is_identity(t):
    text = format_term(t)
    once = parse(text)
    assert parse(format_term(once)) == once


def test_term_nodes_are_immutable_hashable_and_equal_only_within_their_class():
    x, y = Var("x"), Var("y")
    with pytest.raises(AttributeError):
        Add(x, y).left = y
    with pytest.raises(AttributeError):
        Numeral(1).n = 2
    same_fields = [Add(x, y), Sub(x, y), Mul(x, y), Div(x, y)]
    assert Add(x, y) != Mul(x, y) and not Add(x, y) == Mul(x, y)
    assert Neg(x) != Inv(x) and Add(x, y) != (x, y) and (x, y) != Add(x, y)
    assert len(set(same_fields)) == 4 and len({Neg(x), Inv(x)}) == 2
    assert Add(x, y) == Add(Var("x"), Var("y")) and hash(Add(x, y)) == hash(Add(Var("x"), Var("y")))
    assert {Pow(x, 2): "x^2"}[Pow(Var("x"), 2)] == "x^2"
    for t in [*same_fields, Neg(x), Pow(Add(x, Numeral(2)), -3), ErrorConst(), Mul(Numeral(0), y)]:
        assert parse(format_term(t)) == t


@given(term_strategy())
def test_fuzzed_terms_evaluate_totally(t):
    m = adjoin_error(rings.Mod(6))
    env = {"x": m.element("top", 2), "y": m.element("top", 5)}
    result = eval_term(t, m, env)
    assert m.contains(result)
