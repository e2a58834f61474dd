"""Expression parser and canonical-form round trips."""

import pytest

from ncu2.parser import MAX_DEGREE, MAX_EXPONENT, MAX_NESTING, ParseError, evaluate, parse
from ncu2.scalars import H, HBAR, I, RHAT, rational
from ncu2.shifts import FuncExpr
from ncu2.u2 import AElement


def _c(s):
    return AElement.from_scalar(s)


def test_commutator_reduces():
    assert evaluate("x*y - y*x") == AElement.gen("z").mul_scalar(H)


def test_casimir_reduces():
    assert evaluate("x^2 + y^2 + z^2") == _c(RHAT**2 - HBAR**2)


def test_rational_literals():
    assert evaluate("3/4") == _c(rational(3, 4))
    assert evaluate("0.0625") == _c(rational(1, 16))
    assert evaluate("-1/2 + 1/2") == AElement()


def test_shifted_profile_application():
    e = evaluate("W(tau+2*hbar, rhat-hbar)")
    assert e == AElement.from_coeff(FuncExpr.symbol("W", 2, -1))
    assert evaluate("F(tau, rhat)") == AElement.from_coeff(FuncExpr.symbol("F"))


def test_builtin_symbols():
    assert evaluate("i*i") == _c(rational(-1))
    assert evaluate("t") == _c(I * evaluate("tau").central_part().scalar_part())


def test_division_by_central_scalars():
    assert evaluate("x/2") == AElement.gen("x").mul_scalar(rational(1, 2))
    assert evaluate("rhat/rhat") == _c(rational(1))


def test_round_trip_stability():
    cases = (
        "x*y - y*x",
        "(rhat^2 - hbar^2)",
        "W(tau+2*hbar, rhat-hbar)*x + 1/3",
        "0.0625*x - i*hbar*z",
        "tau*rhat + x^3",
    )
    for text in cases:
        e = evaluate(text)
        assert evaluate(str(e)) == e


def test_syntax_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("x*(")
    assert exc.value.pos == 3
    with pytest.raises(ParseError) as exc:
        parse("x & y")
    assert exc.value.pos == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("2^x")
    with pytest.raises(ParseError):
        parse("x y")  # no implicit multiplication


def test_exponent_bound():
    # parsed only: the bound is about not running large powers
    assert parse(f"x^{MAX_EXPONENT}") == parse(f"x^00{MAX_EXPONENT}")
    for big in (MAX_EXPONENT + 1, 10**11, "9" * 5000):
        with pytest.raises(ParseError, match=f"at most {MAX_EXPONENT}") as exc:
            parse(f"(x+y)^{big}")
        assert exc.value.pos == 6


def test_degree_bound():
    # numbers and i have degree 0, a quotient keeps its dividend's degree;
    # parsed only, the expensive inputs are in tests/test_cli.py
    parse(f"x^{MAX_DEGREE}")
    parse("i^16*2^16*x^16/(rhat^16)")
    parse("(x^8 + y^4)*(3 - i)^16*z^8/W(tau, rhat)")
    with pytest.raises(ParseError, match=f"at most {MAX_DEGREE}, found 17") as exc:
        parse("x^16*W(tau, rhat)/hbar")
    assert exc.value.pos == 4


def test_nesting_bound():
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert evaluate(deep) == evaluate("x")
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}") as exc:
        parse("(" + deep + ")")
    assert exc.value.pos == MAX_NESTING


def test_long_chains_evaluate_without_recursion():
    assert evaluate("x" + "*1" * 3000 + "-x/1" * 2) == evaluate("-x")


def test_bad_divisions():
    with pytest.raises(ParseError):
        evaluate("x/0")
    with pytest.raises(ParseError):
        evaluate("x/(y)")
    with pytest.raises(ParseError):
        evaluate("1/W(tau, rhat)")


def test_bad_shift_arguments():
    with pytest.raises(ParseError):
        parse("W(rhat, tau)")
    with pytest.raises(ParseError):
        parse("W(tau+hbar*2, rhat)")
    with pytest.raises(ParseError):
        parse("W(tau+0.5*hbar, rhat)")
