"""Symbolic hedgehog reduction and the numeric lattice solver."""

import io
import math
import re

import numpy as np
import pytest

from ncu2 import hedgehog
from ncu2.cli import main
from ncu2.hedgehog import (
    DomainError,
    FieldStrength,
    GaugeField,
    HedgehogError,
    SingularStepError,
    bogomolny_residual,
    bps_profile,
    classical_ode,
    classical_rhs,
    classical_seed,
    eps,
    hedgehog_reduce,
    hedgehog_scalar,
    march,
    profile_equations,
    sym_product,
)
from ncu2.scalars import HBAR, I, ONE, RHAT
from ncu2.shifts import FuncCoeffs, FuncExpr
from ncu2.u2 import AElement


def test_epsilon_symbol():
    assert eps(1, 2, 3) == 1
    assert eps(2, 1, 3) == -1
    assert eps(3, 1, 2) == 1
    assert eps(1, 1, 2) == 0


def test_sym_product_is_symmetric():
    x = AElement.gen("x", FuncCoeffs)
    z = AElement.gen("z", FuncCoeffs)
    assert sym_product(z, x) == sym_product(x, z)
    # sym(z, x) = zx - i hbar y in the ordered basis
    y = AElement.gen("y", FuncCoeffs)
    assert sym_product(z, x) == x * z + y.mul_scalar(I * HBAR)


def test_field_strength_antisymmetry():
    A = GaugeField.hedgehog()
    Fs = FieldStrength(A)
    for i in (1, 2, 3):
        assert Fs.component(2, 1, i) == -Fs.component(1, 2, i)
        assert not Fs.component(1, 1, i)


def test_reduction_certificate():
    red = hedgehog_reduce()
    e1, e2 = profile_equations()
    assert red.e1 == e1 and red.e2 == e2
    e1a = AElement.from_coeff(e1, FuncCoeffs)
    e2a = AElement.from_coeff(e2, FuncCoeffs)
    x, y, z = (AElement.gen(n, FuncCoeffs) for n in "xyz")
    assert set(red.components) == {
        (mu, nu, i) for mu, nu in ((1, 2), (1, 3), (2, 3)) for i in (1, 2, 3)
    }
    # the paper's closed forms: res(1,2,1) = sym(z,x) E1 and
    # res(1,2,3) = E2 + z^2 E1 with z^2 = rhat^2 - hbar^2 - x^2 - y^2
    res121, u, v = red.components[1, 2, 1]
    zx = sym_product(z, x)
    assert res121 == zx * e1a and u == zx and not v
    res123, u, v = red.components[1, 2, 3]
    zsq = AElement.from_scalar(RHAT**2 - HBAR**2, FuncCoeffs) - x * x - y * y
    assert res123 == e2a + zsq * e1a
    assert u == zsq and v == AElement.from_scalar(ONE, FuncCoeffs)
    # every component is certified inside span(E1, E2)
    for res, u, v in red.components.values():
        assert res and res == u * e1a + v * e2a


def test_residual_vanishes_on_diagonal_indices():
    A = GaugeField.hedgehog()
    phi = hedgehog_scalar()
    Fs = FieldStrength(A)
    r = bogomolny_residual(A, phi, Fs, 1, 2, 3)
    assert r  # nonzero for unconstrained profiles
    assert not bogomolny_residual(A, phi, Fs, 1, 1, 2)


def test_profile_equations_classical_limit():
    # substituting the BPS profiles and letting hbar -> 0 kills E1, E2
    e1, e2 = profile_equations()
    for r0 in (0.8, 1.7, 2.4):
        for h in (1e-4, 1e-5):
            vals = {}
            for name, p, q in e1.atoms() | e2.atoms():
                w, f = bps_profile(r0 + q * h)
                vals[(name, p, q)] = w if name == "W" else f
            v1 = e1.evaluate(vals, rhat=r0, hbar=h)
            v2 = e2.evaluate(vals, rhat=r0, hbar=h)
            assert abs(v1) < 1e-2 * h and abs(v2) < 1.0 * h


def test_march_zero_data_stays_zero():
    sol = march((0.0, 0.0, 0.0, 0.0), 0.01, 1.0, 200)
    assert np.all(sol.W == 0.0) and np.all(sol.F == 0.0)


def test_march_matches_classical_oracle():
    h = 2.0**-7
    steps = int(round(2.0 / h))
    sol = march(classical_seed(1.0, h), h, 1.0, steps)
    ref = classical_ode(bps_profile(1.0), 1.0, 3.0, steps)
    err = float(np.max(np.abs(sol.W - ref.W) + np.abs(sol.F - ref.F)))
    assert err < 1e-4


def test_march_domain_errors():
    with pytest.raises(DomainError):
        march((0, 0, 0, 0), -0.1, 1.0, 10)
    with pytest.raises(DomainError):
        march((0, 0, 0, 0), 0.5, 0.25, 10)
    with pytest.raises(DomainError):
        march((0, 0, 0, 0), math.nan, 1.0, 10)
    with pytest.raises(HedgehogError, match="finite"):
        march((0, math.inf, 0, 0), 0.5, 1.0, 10)


def test_march_solves_the_certified_equations():
    # the marched values make the exact E1, E2 vanish at every interior
    # node; the profiles are tau-independent, so atom (name, p, q) reads
    # node k + q
    h, steps = 2.0**-5, 200
    sol = march(classical_seed(1.0, h), h, 1.0, steps)
    e1, e2 = profile_equations()
    prof, r = {"W": sol.W, "F": sol.F}, sol.r
    for k in range(1, steps):
        vals = {(name, p, q): prof[name][k + q] for name, p, q in e1.atoms() | e2.atoms()}
        for e in (e1, e2):
            assert abs(e.evaluate(vals, rhat=r[k], hbar=h)) < 1e-10, k


def test_march_single_step_returns_the_seed():
    seed = classical_seed(1.0, 0.25)
    sol = march(seed, 0.25, 1.0, 1)
    assert list(sol.r) == [1.0, 1.25]
    assert (sol.W[0], sol.F[0], sol.W[1], sol.F[1]) == seed


def test_march_past_departure_raises_at_a_node(capsys):
    # the forward march leaves the classical profile near r = 18 and then
    # grows until binary64 overflows; it must stop there, not return rows
    h, steps = 1 / 16, 1000
    with pytest.raises(SingularStepError) as exc:
        march(classical_seed(1.0, h), h, 1.0, steps)
    node = int(re.search(r"at node (\d+)", str(exc.value)).group(1))
    assert 1 <= node < steps and 1.0 + node * h > 18
    argv = ["solve-hedgehog", "--hbar", "1/16", "--r0", "1", "--steps", "1000", "--init", "classical"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ncu2: {exc.value}\n"


@pytest.mark.parametrize(
    "term, message",
    [
        (FuncExpr.symbol("W", 0, 2), "no stencil slot"),
        (FuncExpr.symbol("W", 1, 1) * FuncExpr.symbol("F"), "no stencil slot"),
        (FuncExpr.symbol("W", 1, 1).mul_scalar(I), "not real"),
    ],
)
def test_march_rejects_equations_outside_its_stencil(monkeypatch, term, message):
    e1, e2 = profile_equations()
    monkeypatch.setattr(hedgehog, "profile_equations", lambda: (e1 + term, e2))
    with pytest.raises(HedgehogError, match=message):
        march((0, 0, 0, 0), 0.1, 1.0, 10)


def test_classical_rhs_matches_bps_derivative():
    r = 1.3
    d = 1e-6
    w0, f0 = bps_profile(r)
    wp_ref = (bps_profile(r + d)[0] - bps_profile(r - d)[0]) / (2 * d)
    fp_ref = (bps_profile(r + d)[1] - bps_profile(r - d)[1]) / (2 * d)
    wp, fp = classical_rhs(r, w0, f0)
    assert abs(wp - wp_ref) < 1e-7 and abs(fp - fp_ref) < 1e-7


def test_csv_and_json_output():
    sol = march(classical_seed(1.0, 0.0625), 0.0625, 1.0, 32)
    buf = io.StringIO()
    sol.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,r,W,F"
    assert len(lines) == 34
    obj = sol.to_json_obj()
    assert obj["hbar"] == 0.0625
    assert len(obj["rows"]) == 33
    assert obj["rows"][0]["r"] == 1.0
