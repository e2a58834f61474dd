"""The multiplicative derivative matrix and the closed difference formulas."""

import importlib
import random
from pathlib import Path

import pytest

from ncu2.identities import random_central, random_monomial_element
from ncu2 import parser
from ncu2 import theta as theta_module
from ncu2.scalars import H, HBAR, I, ONE, RHAT, Scalar, TAU, rational
from ncu2.shifts import FuncExpr
from ncu2.theta import (
    OPS,
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
from ncu2.u2 import AElement

X = AElement.gen("x")
Y = AElement.gen("y")
Z = AElement.gen("z")


def _c(s):
    return AElement.from_scalar(s)


def test_actions_on_generators():
    assert d_x(X) == _c(ONE)
    assert d_y(X) == AElement()
    assert d_z(X) == AElement()
    assert d_t(X) == AElement()


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
            row.append(acc if acc is not None else AElement())
        rows.append(row)
    # read the components back off the first row and certify that the
    # remaining 12 entries really follow the quaternionic pattern
    out = ThetaMatrix((rows[0][0], rows[0][1], rows[0][2], rows[0][3]))
    assert out.rows() == rows, "dense product left the quaternionic pattern"
    return out


def test_component_product_matches_dense_product():
    rng = random.Random(5)
    for _ in range(4):
        ta = theta(random_monomial_element(rng, max_deg=2))
        tb = theta(random_monomial_element(rng, max_deg=2))
        assert ta @ tb == _matmul_dense(ta, tb)


def _seeded_element(rng, coeff, terms=2, max_deg=2):
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


def _theta_composed(a):
    """Oracle for theta(): per term c*m, theta(c) @ theta(x)^p @ theta(y)^q
    @ theta(z)^e, with theta(c) = diag + off*(x E_x + y E_y + z E_z), diag =
    c + hbar d_tau c and off = (i hbar / rhat) d_radial c from the closed
    formulas, and the generator matrices written out here."""
    zero = AElement()
    ih = AElement.from_scalar(I * HBAR)
    gens = {}
    for k, name in enumerate("xyz", start=1):
        comps = [AElement.gen(name), zero, zero, zero]
        comps[k] = ih
        gens[name] = ThetaMatrix(comps)
    total = ThetaMatrix.zero()
    for mono, c in a.terms.items():
        diag = c + d_tau_closed(c) * HBAR
        off = d_radial_closed(c) * (I * HBAR / RHAT)
        term = ThetaMatrix(
            [AElement.from_coeff(diag)] + [AElement.gen(n).mul_scalar(off) for n in "xyz"]
        )
        for name, k in zip("xyz", mono):
            for _ in range(k):
                term = term @ gens[name]
        total = total + term
    return total


def _assert_reduced(tm):
    """No denominator factor of a Scalar coefficient, or of a Scalar inside
    a FuncExpr coefficient, divides its numerator."""
    for comp in tm.comps:
        for c in comp.terms.values():
            for s in c.terms.values() if isinstance(c, FuncExpr) else (c,):
                for f, _ in s.den:
                    assert s.num.div(f)[1], f"{f} divides the numerator of {s}"


@pytest.mark.parametrize("coeff, terms", [(Scalar, 2), (FuncExpr, 1)], ids=["Scalar-2", "FuncExpr-1"])
def test_batched_theta_and_product_match_their_oracles(coeff, terms):
    rng = random.Random(17)
    for _ in range(3):
        a = _seeded_element(rng, coeff, terms)
        b = _seeded_element(rng, coeff, terms)
        ta, tb = theta(a), theta(b)
        for e, te in ((a, ta), (b, tb), (a + b, theta(a + b))):
            assert te == _theta_composed(e)
        # every component is nonzero, so all six negative _QTAB signs occur
        assert all(ta.comps) and all(tb.comps)
        prod = ta @ tb
        assert prod == _matmul_dense(ta, tb)
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
    assert thx + ThetaMatrix.zero() == thx
    assert thx @ ThetaMatrix.identity() == thx
    assert theta(X * Y) == thx @ thy


def test_derive_dispatch():
    assert derive("dz", X * Y) == d_z(X * Y)
    with pytest.raises(ValueError):
        derive("curl", X)


# -- coefficient types are kept ----------------------------------------------


def _coeff_types(*elements):
    return {type(c) for e in elements for c in e.terms.values()}


def test_parser_and_every_derive_op_give_funcexpr_coefficients():
    rng = random.Random(29)
    leaves = ["x", "y", "z", "tau", "rhat", "2", "i", "W(tau, rhat+hbar)"]
    seen = set()
    for _ in range(6):
        text = "*".join(rng.choice(leaves) for _ in range(3)) + " + " + rng.choice(leaves)
        a = parser.evaluate(text)
        images = [derive(op, a) for op in OPS]
        assert _coeff_types(a, *images) <= {FuncExpr}, text
        seen |= _coeff_types(a, *images)
    assert seen == {FuncExpr}
    # the printed form of a FuncExpr coefficient, against (1) for a Scalar one
    assert str(derive("dx", parser.evaluate("x"))) == "((1))"
    assert str(d_x(X)) == "(1)"


def test_theta_over_the_theta_mult_pool_keeps_reduced_scalars():
    rng = random.Random(0)
    for _ in range(6):
        a = random_monomial_element(rng)
        b = random_monomial_element(rng)
        ta, tb = theta(a), theta(b)
        prod = ta @ tb
        for tm in (ta, tb, theta(a * b), prod):
            assert _coeff_types(*tm.comps) == {Scalar}
            _assert_reduced(tm)


def test_funcexpr_theta_shares_the_monomial_cache():
    theta_module._CACHE.clear()
    rng = random.Random(31)
    a = _seeded_element(rng, Scalar, terms=3)
    theta(a)
    monos = set(a.terms)
    assert set(theta_module._CACHE) == monos
    lifted = AElement({m: FuncExpr.from_scalar(c) for m, c in a.terms.items()})
    assert _coeff_types(*theta(lifted).comps) == {FuncExpr}
    assert set(theta_module._CACHE) == monos


def test_the_benchmark_can_still_corrupt_a_theta_reference(monkeypatch):
    """perfbench/selftest.py's _corrupt calls
    ThetaMatrix.identity(reference.ring), the one reader of the ``ring``
    class attribute and of identity's ignored argument."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    selftest = importlib.import_module("selftest")
    reference = theta(X * Y + _c(RHAT))
    assert selftest._corrupt(reference) != reference
