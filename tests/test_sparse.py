"""The sparse-sum kernel: no stored zero coefficients, fixed printed forms."""

import random

import pytest

from ncu2.glweyl import GlWeylElement, TensorElement, coproduct
from ncu2.parser import evaluate
from ncu2.scalars import HBAR, ONE, RHAT, Scalar, TAU, rational
from ncu2.shifts import FuncExpr
from ncu2.sparse import accumulate
from ncu2.u2 import AElement, CompactElement

_SCALARS = (TAU, RHAT, HBAR, rational(-1, 2), rational(3))


def _compact(rng):
    return CompactElement.gen(rng.choice("txyz")) * rng.choice(_SCALARS)


def _aelement(coeff):
    def atom(rng):
        if coeff is FuncExpr and rng.random() < 0.5:
            f = FuncExpr.symbol(rng.choice("WF"), rng.randint(-1, 1), rng.randint(-1, 1))
            return AElement.from_coeff(f)
        g = AElement.gen(rng.choice("xyz"))
        if coeff is FuncExpr:
            g = g.mul_scalar(FuncExpr.from_scalar(ONE))
        return g * rng.choice(_SCALARS)

    return atom


def _funcexpr(rng):
    f = FuncExpr.symbol(rng.choice("WF"), rng.randint(-1, 1), rng.randint(-1, 1))
    return f * rng.choice(_SCALARS)


def _glweyl(rng):
    i, j = rng.randint(1, 2), rng.randint(1, 2)
    if rng.random() < 0.5:
        e = GlWeylElement.generator(2, i, j)
    else:
        e = GlWeylElement.derivative(2, i, j, hat=rng.random() < 0.5)
    return e * rng.choice(_SCALARS)


def _tensor(rng):
    d = GlWeylElement.derivative(2, rng.randint(1, 2), rng.randint(1, 2))
    return coproduct(d) * rng.choice(_SCALARS)


KINDS = {
    "CompactElement": (_compact, lambda e: e * -1),
    "AElement/Scalar": (_aelement(Scalar), lambda e: -e),
    "AElement/Func": (_aelement(FuncExpr), lambda e: -e),
    "FuncExpr": (_funcexpr, lambda e: -e),
    "GlWeylElement": (_glweyl, lambda e: -e),
    # TensorElement has no subtraction; negate through the scalar product
    "TensorElement": (_tensor, lambda e: e * -1),
}


def _assert_no_zero(e):
    assert all(c for c in e.terms.values()), e.terms


def test_accumulate_drops_a_cancelled_key():
    out = {}
    accumulate(out, "k", rational(1, 2))
    accumulate(out, "j", rational(0))
    assert out == {"k": rational(1, 2)}
    accumulate(out, "k", rational(-1, 2))
    assert out == {}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_seeded_chains_store_no_zero_coefficient(kind):
    make1, neg = KINDS[kind]

    def make(rng):
        return make1(rng) + make1(rng)

    rng = random.Random(7)
    for _ in range(3):
        seen = [make(rng)]
        for _ in range(8):
            a = rng.choice(seen)
            b = make(rng) if rng.random() < 0.5 else rng.choice(seen)
            op = rng.choice(("add", "sub", "mul", "commutator"))
            if op == "add":
                e = a + b
            elif op == "sub":
                e = a + neg(b)
            elif op == "mul":
                e = a * b
            else:
                e = a * b + neg(b * a)
            _assert_no_zero(e)
            assert not (e + neg(e)).terms
            if len(e.terms) <= 12:  # keep products of products small
                seen.append(e)
        e = seen[-1]
        if not isinstance(e, TensorElement):
            assert not (e - e).terms


def test_printed_forms():
    t, x, y, z = (CompactElement.gen(n) for n in "txyz")
    assert str((x + t * y) * (z + RHAT) - 2) == (
        "(-2) + (rhat)*x + (1)*x*z + (rhat)*t*y + (1)*t*y*z"
    )
    X, Y, Z = (AElement.gen(n) for n in "xyz")
    assert str((X + Y * TAU) * (Z * X + HBAR)) == (
        "(-2*i*tau*rhat^2*hbar + 2*i*tau*hbar^3) + (tau*hbar)*y"
        " + (4*i*tau*hbar)*y^2 + (hbar)*x + (2*i*hbar)*x*y + (tau)*x*y*z"
        " + (2*i*tau*hbar)*x^2 + (1)*x^2*z"
    )
    assert str(evaluate("W(tau+hbar, rhat-hbar)*x*z + F(tau, rhat)*y - 1/2")) == (
        "((-1/2)) + ((1)*F(tau, rhat))*y + ((1)*W(tau+hbar, rhat-hbar))*x*z"
    )
    W = FuncExpr.symbol("W", 1, -2)
    F = FuncExpr.symbol("F")
    assert str(W * F * RHAT + W - 3 + F * F) == (
        "(-3) + (1)*F(tau, rhat)*F(tau, rhat)"
        " + (rhat)*F(tau, rhat)*W(tau+hbar, rhat-2*hbar)"
        " + (1)*W(tau+hbar, rhat-2*hbar)"
    )
    d = GlWeylElement.derivative(2, 1, 1)
    a = GlWeylElement.generator(2, 1, 1)
    b = GlWeylElement.generator(2, 1, 2)
    assert str(d * a * b + 3) == (
        "(3)*1 + (-4*hbar^2)*d[1,2] + (2*i*hbar)*l[1,1]*d[1,2]"
        " + (1)*l[1,1]*l[1,2]*d[1,1] + (1)*l[1,2] + (2*i*hbar)*l[1,2]*d[1,1]"
    )
    assert str(coproduct(GlWeylElement.derivative(2, 1, 2))) == (
        "TensorElement({((('d', 1, 2, False),), ()): 1,"
        " ((), (('d', 1, 2, False),)): 1,"
        " ((('d', 1, 2, False),), (('d', 1, 1, False),)): 2*i*hbar,"
        " ((('d', 2, 2, False),), (('d', 1, 2, False),)): 2*i*hbar})"
    )
