"""The multiplicative derivative matrix and the closed difference formulas."""

import random

import pytest

from ncu2.identities import random_central, random_monomial_element
from ncu2.scalars import H, HBAR, I, ONE, RHAT, Scalar, TAU, rational
from ncu2.shifts import FuncCoeffs, FuncExpr
from ncu2.theta import (
    ThetaMatrix,
    d_radial_closed,
    d_t,
    d_tau,
    d_tau_closed,
    d_x,
    d_y,
    d_z,
    derive,
    laplacian,
    laplacian_closed,
    q_op,
    radial_extend,
    theta,
    theta_multiplicative,
)
from ncu2.u2 import AElement, ScalarCoeffs

X = AElement.gen("x")
Y = AElement.gen("y")
Z = AElement.gen("z")


def _c(s):
    return AElement.from_scalar(s)


def test_actions_on_generators():
    assert d_x(X) == _c(ONE)
    assert d_y(X) == AElement(ScalarCoeffs)
    assert d_z(X) == AElement(ScalarCoeffs)
    assert d_t(X) == AElement(ScalarCoeffs)


def test_dz_of_xy():
    assert d_z(X * Y) == _c(H * rational(1, 2))


def test_theta_is_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        a = random_monomial_element(rng)
        b = random_monomial_element(rng)
        assert theta_multiplicative(a, b)


def _matmul_dense(ta, tb):
    """Entrywise 4x4 product; oracle for the component table in @."""
    ra, rb = ta.rows(), tb.rows()
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            acc = None
            for k in range(4):
                a, b = ra[i][k], rb[k][j]
                if not a.terms or not b.terms:
                    continue
                p = a * b
                acc = p if acc is None else acc + p
            row.append(acc if acc is not None else AElement(ta.ring))
        rows.append(row)
    # read the components back off the first row and certify that the
    # remaining 12 entries really follow the quaternionic pattern
    out = ThetaMatrix(ta.ring, (rows[0][0], rows[0][1], rows[0][2], rows[0][3]))
    assert out.rows() == rows, "dense product left the quaternionic pattern"
    return out


def test_component_product_matches_dense_product():
    rng = random.Random(5)
    for _ in range(4):
        ta = theta(random_monomial_element(rng, max_deg=2))
        tb = theta(random_monomial_element(rng, max_deg=2))
        assert ta @ tb == _matmul_dense(ta, tb)


def _seeded_element(rng, ring, terms=2, max_deg=2):
    """A sum of seeded monomials with multi-term central coefficients;
    over FuncCoeffs each coefficient also carries a shifted profile."""
    out = AElement(ring)
    for _ in range(terms):
        t = random_monomial_element(rng, ring, max_deg=max_deg)
        if ring is FuncCoeffs:
            atom = FuncExpr.symbol(rng.choice("WF"), rng.randint(-1, 1), rng.randint(-1, 1))
            t = t.mul_scalar(atom.mul_scalar(random_central(rng)) + FuncExpr.from_scalar(ONE))
        out = out + t
    return out


def _theta_composed(a):
    """Oracle for theta(): per term c*m, theta(c) @ theta(x)^p @ theta(y)^q
    @ theta(z)^e, with theta(c) = diag + off*(x E_x + y E_y + z E_z) and
    the generator matrices written out here."""
    ring = a.ring
    zero = AElement(ring)
    ih = AElement.from_scalar(I * HBAR, ring)
    gens = {}
    for k, name in enumerate("xyz", start=1):
        comps = [AElement.gen(name, ring), zero, zero, zero]
        comps[k] = ih
        gens[name] = ThetaMatrix(ring, comps)
    total = ThetaMatrix.zero(ring)
    for mono, c in a.terms.items():
        diag, off = ring.theta_parts(c)
        term = ThetaMatrix(
            ring,
            [AElement.from_coeff(diag, ring)]
            + [AElement.gen(n, ring).mul_scalar(off) for n in "xyz"],
        )
        for name, k in zip("xyz", mono):
            for _ in range(k):
                term = term @ gens[name]
        total = total + term
    return total


def _assert_reduced(tm):
    """No denominator factor of a Scalar coefficient divides its numerator."""
    for comp in tm.comps:
        for c in comp.terms.values():
            for f, _ in c.den:
                assert c.num.div(f)[1], f"{f} divides the numerator of {c}"


@pytest.mark.parametrize("ring, terms", [(ScalarCoeffs, 2), (FuncCoeffs, 1)])
def test_batched_theta_and_product_match_their_oracles(ring, terms):
    rng = random.Random(17)
    for _ in range(3):
        a = _seeded_element(rng, ring, terms)
        b = _seeded_element(rng, ring, terms)
        ta, tb = theta(a), theta(b)
        for e, te in ((a, ta), (b, tb), (a + b, theta(a + b))):
            assert te == _theta_composed(e)
        # every component is nonzero, so all six negative _QTAB signs occur
        assert all(ta.comps) and all(tb.comps)
        prod = ta @ tb
        assert prod == _matmul_dense(ta, tb)
        if ring is ScalarCoeffs:
            _assert_reduced(ta)
            _assert_reduced(prod)


def test_theta_of_radius():
    thr = theta(_c(RHAT))
    assert thr.comps[0] == _c((RHAT**2 + HBAR**2) / RHAT)
    ih_r = I * HBAR / RHAT
    assert thr.comps[1] == X.mul_scalar(ih_r)
    assert thr.comps[2] == Y.mul_scalar(ih_r)
    assert thr.comps[3] == Z.mul_scalar(ih_r)
    # entries of the dense matrix follow the quaternionic pattern
    rows = thr.rows()
    assert rows[0][1] == X.mul_scalar(ih_r) and rows[1][0] == -X.mul_scalar(ih_r)


def test_actions_on_radius():
    r = _c(RHAT)
    assert d_t(r) == _c(-I * HBAR / RHAT)
    assert d_x(r) == X.mul_scalar(ONE / RHAT)
    assert d_tau(r) == _c(HBAR / RHAT)


def test_closed_forms_on_simple_functions():
    assert d_radial_closed(RHAT) == ONE
    assert d_radial_closed(TAU) == Scalar(0)
    assert d_tau_closed(TAU) == ONE
    assert d_tau_closed(RHAT) == HBAR / RHAT
    assert laplacian_closed(TAU * RHAT) == (TAU + HBAR * 2) * 2 / RHAT


def test_radial_extension_agrees_on_the_centre():
    rng = random.Random(3)
    for _ in range(10):
        f = random_central(rng)
        assert radial_extend(_c(f)) == _c(d_radial_closed(f))


def test_q_on_the_centre():
    rng = random.Random(4)
    for _ in range(10):
        f = random_central(rng)
        assert q_op(_c(f)) == _c((RHAT**2 - HBAR**2) / RHAT * d_radial_closed(f))


def test_laplacian_radial_identity():
    f = TAU / RHAT
    assert laplacian(_c(f)) == _c(laplacian_closed(f))


def test_matrix_algebra():
    thx = theta(X)
    thy = theta(Y)
    assert thx + ThetaMatrix.zero(ScalarCoeffs) == thx
    assert thx @ ThetaMatrix.identity(ScalarCoeffs) == thx
    assert theta(X * Y) == thx @ thy


def test_derive_dispatch():
    assert derive("dz", X * Y) == d_z(X * Y)
    with pytest.raises(ValueError):
        derive("curl", X)
