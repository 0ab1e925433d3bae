"""Expression parser: grammar, round trips, error reporting."""

import math

import pytest
from hypothesis import given, strategies as st

from bertrand_kit import expr as ex
from bertrand_kit.errors import (
    ExprSyntaxError,
    NonConstantExponentError,
    UnknownFunctionError,
)
from bertrand_kit.jets import evaluate_jet


def val(text, t):
    """Evaluate an expression string at a point via a 0-jet."""
    return evaluate_jet(ex.parse_expression(text), t, 0).coeffs[0]


def test_precedence_and_associativity():
    assert val("2+3*4", 0.0) == 14.0
    assert val("(2+3)*4", 0.0) == 20.0
    assert val("2-3-4", 0.0) == -5.0
    assert val("12/3/2", 0.0) == 2.0
    assert val("2*3^2", 0.0) == 18.0
    assert val("-3^2", 0.0) == -9.0
    assert val("2^3", 0.0) == 8.0


def test_unary_minus():
    assert val("-t", 2.5) == -2.5
    assert val("--t", 2.5) == 2.5
    assert val("3*-t", 2.0) == -6.0


def test_functions_match_math_module():
    for text, ref in [
        ("sin(t)", math.sin(1.3)),
        ("cos(t)", math.cos(1.3)),
        ("tan(t)", math.tan(1.3)),
        ("exp(t)", math.exp(1.3)),
        ("log(t)", math.log(1.3)),
        ("sqrt(t)", math.sqrt(1.3)),
    ]:
        assert val(text, 1.3) == pytest.approx(ref, rel=1e-15)


def test_scientific_notation_constants():
    assert val("1.5e2", 0.0) == 150.0
    assert val("2.5E-3", 0.0) == 0.0025


@pytest.mark.parametrize(
    "text",
    [
        "sin(t)*exp(-t/4)",
        "3*cos(2*t) + t^2 - 1/(1+t)",
        "-sqrt(1+t^2)",
        "t*(t+1)*(t+2)",
        "cos(t)^3 - sin(t)^3",
    ],
)
def test_to_text_round_trip(text):
    node = ex.parse_expression(text)
    again = ex.parse_expression(ex.to_text(node))
    for t in (0.1, 0.9, 2.7):
        assert val(ex.to_text(node), t) == evaluate_jet(again, t, 0).coeffs[0]


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as ei:
        ex.parse_expression("2**3")
    assert 0 <= ei.value.position <= 4
    assert len(ei.value.expected) > 0


def test_unknown_function():
    with pytest.raises(UnknownFunctionError) as ei:
        ex.parse_expression("sinh(t)")
    assert ei.value.name == "sinh"


def test_non_constant_exponent_rejected():
    with pytest.raises(NonConstantExponentError):
        ex.parse_expression("t^t")
    with pytest.raises(NonConstantExponentError):
        ex.parse_expression("2^sin(t)")


@pytest.mark.parametrize("text", [
    "t^(1/0)", "t^(10^400)", "t^exp(1000)", "t^1e400", "t^(1e308*10)",
    "t^(0*(1e308*10))", "t^log(0)", "t^((-8)^(1/3))", "sin(t) + (t+1)^-(1/0)",
])
def test_exponent_that_does_not_fold_to_a_finite_number(text):
    """An exponent whose folding raises, overflows, or gives a NaN or a
    complex number is a syntax error at the exponent's first token."""
    with pytest.raises(ExprSyntaxError) as ei:
        ex.parse_expression(text)
    assert ei.value.position == text.index("^") + 1
    assert "finite" in str(ei.value)


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        ex.parse_expression("sin(t")
    with pytest.raises(ExprSyntaxError):
        ex.parse_expression("(1+2))")


@given(st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_polynomial_matches_python(t):
    assert val("t^3 - 2*t^2 + 4*t - 7", t) == pytest.approx(
        t**3 - 2 * t**2 + 4 * t - 7, rel=1e-12, abs=1e-12
    )


@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
def test_constant_arithmetic(a, b):
    assert val(f"{a}+{b}", 0.0) == a + b
    assert val(f"{a}*{b}", 0.0) == a * b
