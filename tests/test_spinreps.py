"""Spin representation cross checks."""

import numpy as np
import pytest

from ncu2.scalars import H, HBAR, RHAT
from ncu2.shifts import FuncExpr
from ncu2.spinreps import (
    UnsupportedSymbolError,
    ch_residual,
    evaluate_element,
    radius_residual,
    spin_rep,
    verify_in_rep,
)
from ncu2.u2 import AElement


def test_bracket_relations_in_rep():
    rep = spin_rep(3, 0.7)
    h = 2j * rep.hbar
    for P, Q, R in ((rep.X, rep.Y, rep.Z), (rep.Y, rep.Z, rep.X), (rep.Z, rep.X, rep.Y)):
        assert np.max(np.abs(P @ Q - Q @ P - h * R)) < 1e-12


def test_hermiticity():
    rep = spin_rep(4, 0.3)
    for M in (rep.X, rep.Y, rep.Z):
        assert np.max(np.abs(M - M.conj().T)) < 1e-13


def test_radius_law():
    for two_j in range(1, 11):
        assert radius_residual(two_j, 0.25) < 1e-10


def test_cayley_hamilton_in_low_spin():
    assert ch_residual(1, 0.5) < 1e-12
    assert ch_residual(2, 0.5, lam=0.9) < 1e-12


def test_symbolic_identity_evaluates_to_zero():
    x = AElement.gen("x")
    y = AElement.gen("y")
    z = AElement.gen("z")
    e = x * y - y * x - z.mul_scalar(H)
    rep = spin_rep(2, 0.4)
    assert verify_in_rep(e, rep) < 1e-13
    cas = x * x + y * y + z * z - AElement.from_scalar(RHAT**2 - HBAR**2)
    assert verify_in_rep(cas, rep) < 1e-12


def test_rejects_profile_symbols():
    a = AElement.from_coeff(FuncExpr.symbol("W"))
    with pytest.raises(UnsupportedSymbolError):
        evaluate_element(a, spin_rep(1, 0.5))


def test_input_validation():
    with pytest.raises(ValueError):
        spin_rep(-1, 0.5)
    with pytest.raises(ValueError):
        spin_rep(2, 0.0)
