"""Central functions with unknown profiles and shifted arguments."""

from hypothesis import given, settings, strategies as st

from ncu2.scalars import HBAR, I, ONE, RHAT, Scalar, TAU, rational
from ncu2.shifts import FuncExpr, atom
from ncu2.theta import d_radial_closed, d_tau_closed, theta
from ncu2.u2 import AElement

W = FuncExpr.symbol("W")
F = FuncExpr.symbol("F")


@st.composite
def funcexprs(draw):
    out = FuncExpr()
    for _ in range(draw(st.integers(1, 3))):
        term = FuncExpr.from_scalar(rational(draw(st.integers(-3, 3).filter(bool))))
        for _ in range(draw(st.integers(0, 2))):
            name = draw(st.sampled_from(("W", "F")))
            p = draw(st.integers(-1, 1))
            q = draw(st.integers(-1, 1))
            term = term * FuncExpr.symbol(name, p, q)
        if draw(st.booleans()):
            term = term.mul_scalar(draw(st.sampled_from((TAU, RHAT, HBAR))))
        out = out + term
    return out


@settings(max_examples=50, deadline=None)
@given(funcexprs(), funcexprs(), funcexprs())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == FuncExpr()


@settings(max_examples=40, deadline=None)
@given(funcexprs(), st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
def test_shift_composition(a, p1, q1, p2, q2):
    assert a.shift_args(p1, q1).shift_args(p2, q2) == a.shift_args(p1 + p2, q1 + q2)


def test_shift_moves_atoms_and_coefficients():
    e = W.mul_scalar(RHAT)
    s = e.shift_args(1, -1)
    assert s == FuncExpr.symbol("W", 1, -1).mul_scalar(RHAT - HBAR)
    assert s.atoms() == {atom("W", 1, -1)}


def test_structure_queries():
    e = W * F + FuncExpr.from_scalar(ONE)
    assert e.symbols() == {"W", "F"}
    assert e.degree() == 2
    assert e.scalar_part() == ONE
    assert e.coefficient((atom("W"), atom("F"))) == ONE
    assert e.coefficient((atom("W"),)) == Scalar(0)


def test_substitute_profiles():
    e = W.shift_args(0, 1) + F
    s = e.substitute({"W": RHAT, "F": TAU})
    assert s.as_scalar() == RHAT + HBAR + TAU
    partial = e.substitute({"F": TAU})
    assert partial.symbols() == {"W"}


def test_evaluate_numeric():
    e = (W * F).mul_scalar(RHAT) + FuncExpr.from_scalar(HBAR)
    vals = {atom("W"): 2.0, atom("F"): -0.5}
    got = e.evaluate(vals, tau=0.0, rhat=3.0, hbar=0.25)
    assert abs(got - (3.0 * 2.0 * -0.5 + 0.25)) < 1e-14


@settings(max_examples=30, deadline=None)
@given(funcexprs())
def test_theta_parts_decomposition(c):
    """theta of a central c: (c + hbar d_tau c) on the diagonal and
    (i hbar / rhat) d_radial c times each generator off it."""
    comps = theta(AElement.from_coeff(c)).comps
    assert comps[0] == AElement.from_coeff(c + d_tau_closed(c).mul_scalar(HBAR))
    off = d_radial_closed(c).mul_scalar(I * HBAR / RHAT)
    for k, name in enumerate("xyz", start=1):
        assert comps[k] == AElement.gen(name).mul_scalar(off)


def test_difference_operators_on_scalars():
    f = FuncExpr.from_scalar(RHAT**2)
    assert d_radial_closed(f) == FuncExpr.from_scalar(RHAT * 2)
    assert d_tau_closed(FuncExpr.from_scalar(TAU)) == FuncExpr.from_scalar(ONE)


def test_as_scalar_rejects_atoms():
    import pytest

    with pytest.raises(ValueError):
        W.as_scalar()
