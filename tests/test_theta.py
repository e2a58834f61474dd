"""The multiplicative derivative matrix and the closed difference formulas."""

import random

import pytest

from ncu2.identities import random_central, random_monomial_element
from ncu2.scalars import H, HBAR, I, ONE, RHAT, Scalar, TAU, rational
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
