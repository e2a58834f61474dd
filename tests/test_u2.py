"""The compact u(2) picture and the quantum radius."""

import random

import pytest

from ncu2.glweyl import compact_generators_as_gl
from ncu2.identities import random_central, random_monomial_element
from ncu2.scalars import H, HBAR, I, ONE, RHAT, TAU, Scalar, rational
from ncu2.shifts import FuncExpr, atom
from ncu2.sparse import accumulate
from ncu2.u2 import (
    AElement,
    CompactElement,
    _amono_mul,
    cayley_hamilton,
    generating_matrix,
    quantum_radius_square,
    reduce_casimir,
    sum_of_products,
    to_compact,
)

X = AElement.gen("x")
Y = AElement.gen("y")
Z = AElement.gen("z")


def _c(s):
    return AElement.from_scalar(s)


def test_su2_brackets():
    assert X * Y - Y * X == Z.mul_scalar(H)
    assert Y * Z - Z * Y == X.mul_scalar(H)
    assert Z * X - X * Z == Y.mul_scalar(H)


def test_casimir_relation():
    assert X * X + Y * Y + Z * Z == _c(RHAT**2 - HBAR**2)


def test_z_square_reduction():
    # monomials carry at most one factor of z
    zz = Z * Z
    assert zz == _c(RHAT**2 - HBAR**2) - X * X - Y * Y
    assert all(e <= 1 for (_, _, e) in zz.terms)


def test_central_scalars_commute():
    f = (TAU + RHAT) / (RHAT - HBAR)
    fa = _c(f)
    for g in (X, Y, Z):
        assert fa * g == g * fa


def test_compact_change_of_basis():
    t, x, y, z = compact_generators_as_gl()
    # the compact images reproduce the su(2)_h bracket after reduction
    cx, cy, cz = (reduce_casimir(to_compact(v)) for v in (x, y, z))
    assert cx == X and cy == Y and cz == Z
    ct = reduce_casimir(to_compact(t))
    assert ct == _c(I * TAU)


def test_to_compact_rejects_derivatives():
    from ncu2.glweyl import GlWeylElement

    with pytest.raises(ValueError):
        to_compact(GlWeylElement.derivative(2, 1, 2))


def test_cayley_hamilton_witness():
    w = cayley_hamilton()
    assert w.residual_is_zero()
    t = I * TAU
    assert w.c1_central() == t * 2 + H
    assert w.c2_central() == t**2 + t * H + RHAT**2 - HBAR**2
    assert w.c1.commutes_with_generators()
    assert w.c2.commutes_with_generators()


def test_quantum_radius_square():
    w, disc, r2 = quantum_radius_square()
    assert r2 == _c(RHAT**2)
    # the Casimir itself is rhat^2 - hbar^2
    assert X * X + Y * Y + Z * Z + _c(HBAR**2) == r2


def test_generating_matrix_entries():
    L = generating_matrix()
    t = CompactElement.gen("t")
    z = CompactElement.gen("z")
    assert L[0][0] == t - z * I
    assert L[1][1] == t + z * I
    assert L[0][1] + L[1][0] == CompactElement.gen("x") * (-I * 2)


def test_reduce_casimir_is_identity_on_reduced():
    e = X * Y + _c(rational(1, 3)) * Z
    assert reduce_casimir(e) == e


def test_coefficient_access():
    e = X.mul_scalar(TAU) + _c(RHAT)
    assert e.coefficient((1, 0, 0)) == TAU
    assert e.coefficient((0, 0, 0)) == RHAT
    assert not e.is_central()
    assert _c(RHAT).is_central()
    assert _c(RHAT).central_part() == RHAT


# -- the batched product loop against the per-term product -----------------


def _product_per_term(x, y):
    """Oracle for ``*``: every coefficient product and every partial sum
    is reduced on the spot, one term pair and one output monomial at a
    time."""
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            c = c1 * c2
            for m, s in _amono_mul(m1, m2):
                accumulate(out, m, c if s == ONE else c * s)
    return AElement(out)


def _assert_reduced(e):
    """No denominator factor of a Scalar coefficient, or of a Scalar inside
    a FuncExpr coefficient, divides its numerator."""
    for c in e.terms.values():
        for s in c.terms.values() if isinstance(c, FuncExpr) else (c,):
            for f, _ in s.den:
                assert s.num.div(f)[1], f"{f} divides the numerator of {s}"


def _seeded_element(rng, coeff, terms=3, max_deg=3):
    """A sum of seeded monomials with multi-term central coefficients of
    type ``coeff``; a FuncExpr coefficient also carries a shifted profile."""
    out = AElement()
    for _ in range(terms):
        t = random_monomial_element(rng, max_deg=max_deg)
        if coeff is FuncExpr:
            atom = FuncExpr.symbol(rng.choice("WF"), rng.randint(-1, 1), rng.randint(-1, 1))
            t = t.mul_scalar(atom.mul_scalar(random_central(rng)) + FuncExpr.from_scalar(ONE))
        out = out + t
    return out


def _coeff_types(e):
    return {type(c) for c in e.terms.values()}


def _types(e):
    return {m: type(c) for m, c in e.terms.items()}


@pytest.mark.parametrize("coeff", [Scalar, FuncExpr], ids=["Scalar", "FuncExpr"])
def test_product_matches_the_per_term_product(coeff):
    rng = random.Random(17)
    for _ in range(6):
        x = _seeded_element(rng, coeff)
        y = _seeded_element(rng, coeff)
        xy = x * y
        assert xy == _product_per_term(x, y)
        assert _coeff_types(xy) == {coeff}
        _assert_reduced(xy)


def test_mixed_product_lifts_to_funcexpr():
    """A Scalar-coefficient element times a FuncExpr one equals the
    product with the first lifted, and has only FuncExpr coefficients."""
    rng = random.Random(23)
    for _ in range(4):
        x = _seeded_element(rng, Scalar)
        y = _seeded_element(rng, FuncExpr)
        lifted = AElement({m: FuncExpr.from_scalar(c) for m, c in x.terms.items()})
        for got, want in ((x * y, lifted * y), (y * x, y * lifted)):
            assert got == want
            assert _coeff_types(got) == {FuncExpr}
            _assert_reduced(got)


def test_a_coefficient_is_a_funcexpr_where_a_funcexpr_met_it():
    """On an element with both coefficient types, each output monomial
    keeps a Scalar where only Scalars met and a FuncExpr where W did."""
    w = FuncExpr.symbol("W")
    e = AElement.gen("x") + AElement.from_coeff(w)
    y = AElement.gen("y")
    got = e * y
    assert got.terms == {(1, 1, 0): ONE, (0, 1, 0): w}
    assert _types(got) == {(1, 1, 0): Scalar, (0, 1, 0): FuncExpr}
    assert str(got) == "((1)*W(tau, rhat))*y + (1)*x*y"
    # y*x = x*y - h*z: both terms of the structure constant stay Scalar
    got = y * e
    assert got.terms == {(1, 1, 0): ONE, (0, 0, 1): -H, (0, 1, 0): w}
    assert _types(got) == {(1, 1, 0): Scalar, (0, 0, 1): Scalar, (0, 1, 0): FuncExpr}


def test_terms_that_cancel_drop_their_atom_key():
    """W*x*y - W*x*y cancels inside the one output coefficient x*y, whose
    F term survives; cancelling every term drops the monomial."""
    w, f = FuncExpr.symbol("W"), FuncExpr.symbol("F")
    x, y = AElement.gen("x"), AElement.gen("y")
    got = sum_of_products([(1, x.mul_scalar(w + f), y), (-1, x.mul_scalar(w), y)])
    assert got.terms == {(1, 1, 0): f}
    assert set(got.terms[(1, 1, 0)].terms) == {(atom("F"),)}
    assert not sum_of_products([(1, x.mul_scalar(w), y), (-1, x.mul_scalar(w), y)]).terms
