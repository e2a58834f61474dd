"""Acceptance suite: one pass/fail line per criterion.

Each test prints a single PASS/FAIL line and asserts the same
condition, so the pytest -v output and the printed ledger agree.
Symbolic checks are exact; numeric checks state their tolerances.
"""

import random
import time

import numpy as np

from ncu2.glweyl import (
    GlWeylElement,
    apply_qpd,
    compact_generators_as_gl,
    compact_qpd_combos,
    gl2,
)
from ncu2.hedgehog import (
    bps_profile,
    classical_ode,
    classical_seed,
    hedgehog_reduce,
    march,
    sym_product,
)
from ncu2.identities import random_central, run_suite
from ncu2.scalars import H, HBAR, I, ONE, RHAT, Scalar, rational
from ncu2.shifts import FuncCoeffs
from ncu2.spinreps import ch_residual, radius_residual
from ncu2.theta import d_radial_closed, d_t, d_tau, d_x, d_y, d_z, theta
from ncu2.u2 import AElement, ScalarCoeffs


def _report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_01_permutation_table():
    t0 = time.perf_counter()
    entries, passed = run_suite("perm-table")
    elapsed = time.perf_counter() - t0
    ok = passed and len(entries) == 16 and elapsed < 1.0
    _report(f"all 16 permutation relations exact in {elapsed:.3f}s (< 1s)", ok)


def test_02_dz_xy_two_ways():
    # route 1: permute-then-truncate in U(gl(2)_h)
    _, d_x_gl, _, d_z_gl = compact_qpd_combos()
    _, x_gl, y_gl, _ = compact_generators_as_gl()
    half_h = H * rational(1, 2)
    first = apply_qpd(d_z_gl, x_gl * y_gl) == GlWeylElement.scalar(2, half_h)
    # route 2: the multiplicative matrix on the reduced algebra
    x = AElement.gen("x")
    y = AElement.gen("y")
    second = d_z(x * y) == AElement.from_scalar(half_h)
    _report("d_z(x*y) = h/2 by permutation and by the matrix route", first and second)


def test_03_theta_multiplicative_200_pairs():
    t0 = time.perf_counter()
    entries, passed = run_suite("theta-mult")
    elapsed = time.perf_counter() - t0
    ok = passed and elapsed < 60.0
    _report(
        f"theta(ab) = theta(a)theta(b) on 200 random pairs in {elapsed:.1f}s (< 60s)",
        ok,
    )


def test_04_cayley_hamilton():
    entries, passed = run_suite("ch")
    ids = {e["id"] for e in entries}
    ok = passed and "ch/residual" in ids and "ch/c1-variant" in ids
    _report("Cayley-Hamilton residual exactly 0 with certified central c1, c2", ok)


def test_05_theta_of_radius_and_actions():
    r = AElement.from_scalar(RHAT)
    thr = theta(r)
    x = AElement.gen("x")
    y = AElement.gen("y")
    z = AElement.gen("z")
    ih_r = I * HBAR / RHAT
    matrix_ok = (
        thr.comps[0] == AElement.from_scalar((RHAT**2 + HBAR**2) / RHAT)
        and thr.comps[1] == x.mul_scalar(ih_r)
        and thr.comps[2] == y.mul_scalar(ih_r)
        and thr.comps[3] == z.mul_scalar(ih_r)
    )
    inv_r = ONE / RHAT
    actions_ok = (
        d_t(r) == AElement.from_scalar(-I * HBAR / RHAT)
        and d_x(r) == x.mul_scalar(inv_r)
        and d_y(r) == y.mul_scalar(inv_r)
        and d_z(r) == z.mul_scalar(inv_r)
        and d_tau(r) == AElement.from_scalar(HBAR / RHAT)
    )
    _report("theta(rhat) matches the closed matrix and its derivative actions", matrix_ok and actions_ok)


def test_06_leibniz_product_rules():
    entries, passed = run_suite("leibniz")
    _report("both worked product rules hold symbolically and on 20 random f", passed)


def test_07_laplacian_radial_identity():
    entries, passed = run_suite("laplacian")
    ids = {e["id"] for e in entries}
    ok = passed and "laplacian/radial" in ids and "laplacian/tau-shift" in ids
    _report("lap f = (1/rhat) d_r^2 (rhat f) on 50 random f, shift ledger recorded", ok)


def test_08_q_operator():
    from ncu2.theta import q_op

    rng = random.Random(0)
    mult = (RHAT**2 - HBAR**2) / RHAT
    exact = all(
        q_op(AElement.from_scalar(f)) == AElement.from_scalar(mult * d_radial_closed(f))
        for f in (random_central(rng) for _ in range(50))
    )
    # classical limit: Q becomes the Euler operator r d_r on polynomials
    x = AElement.gen("x")
    y = AElement.gen("y")
    z = AElement.gen("z")
    euler = True
    for m, deg in ((x, 1), (x * y, 2), (x * x * y, 3), (x * y * z, 3), (z, 1)):
        q = q_op(m)
        lhs = {k: c.classical_limit() for k, c in q.terms.items() if c.classical_limit()}
        rhs = {k: (c * Scalar(deg)).classical_limit() for k, c in m.terms.items()}
        euler = euler and lhs == rhs
    _report("Q f = ((rhat^2-hbar^2)/rhat) d_r f on 50 random f; classical Euler limit", exact and euler)


def test_09_hedgehog_reduction():
    entries, passed = run_suite("hedgehog")
    red = hedgehog_reduce()
    x = AElement.gen("x", FuncCoeffs)
    z = AElement.gen("z", FuncCoeffs)
    e1 = AElement.from_coeff(red.e1, FuncCoeffs)
    e2 = AElement.from_coeff(red.e2, FuncCoeffs)
    res121, u121, v121 = red.components[1, 2, 1]
    factor_ok = u121 == sym_product(z, x) and not v121 and res121 == u121 * e1
    keys_ok = set(red.components) == {
        (mu, nu, i) for mu, nu in ((1, 2), (1, 3), (2, 3)) for i in (1, 2, 3)
    }
    extra_ok = keys_ok and all(
        res == u * e1 + v * e2
        for (mu, nu, i), (res, u, v) in red.components.items()
        if (mu, nu) == (2, 3)
    )
    _report(
        "Bogomolnyi components reduce to E1, E2 with the sym(z,x) factor; "
        "extra index pair in span",
        passed and factor_ok and extra_ok,
    )


def test_10_classical_actions_on_bk():
    a, b, c, d = gl2()
    der = GlWeylElement.derivative
    pa = {"a": der(2, 1, 1), "b": der(2, 2, 1), "c": der(2, 1, 2), "d": der(2, 2, 2)}
    zero = GlWeylElement.scalar(2, 0)
    ok = True
    bk = GlWeylElement.scalar(2, 1)
    for k in range(0, 6):
        expect_b = bk * 0 if k == 0 else prev * rational(k)
        ok = ok and apply_qpd(pa["b"], bk) == (zero if k == 0 else expect_b)
        for name in ("a", "c", "d"):
            ok = ok and apply_qpd(pa[name], bk) == zero
        prev = bk
        bk = bk * b
    _report("derivative actions on b^k are classical for k <= 5", ok)


def test_11_spin_representations():
    radius_ok = all(radius_residual(two_j, 0.25) < 1e-10 for two_j in range(1, 11))
    ch_ok = ch_residual(1, 0.5, lam=0.7) < 1e-12 and ch_residual(2, 0.5, lam=0.7) < 1e-12
    _report(
        "rhat = (2j+1) hbar to 1e-10 for two_j <= 10; CH residual < 1e-12 in "
        "spin 1/2 and 1",
        radius_ok and ch_ok,
    )


def test_12_solver_convergence():
    t0 = time.perf_counter()
    errs = []
    for k in range(4, 9):
        h = 2.0**-k
        steps = int(round(2.0 / h))
        sol = march(classical_seed(1.0, h), h, 1.0, steps)
        ref = classical_ode(bps_profile(1.0), 1.0, 3.0, steps)
        errs.append(float(np.max(np.abs(sol.W - ref.W) + np.abs(sol.F - ref.F))))
    monotone = all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    final_ok = errs[-1] < 0.05
    zero = march((0.0, 0.0, 0.0, 0.0), 2.0**-8, 1.0, 10_000)
    zero_ok = float(np.max(np.abs(zero.W)) + np.max(np.abs(zero.F))) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = monotone and final_ok and zero_ok and elapsed < 60.0
    _report(
        f"march error vs RK4 decreases {errs[0]:.2e} -> {errs[-1]:.2e} "
        f"(< 0.05), zero data inert, {elapsed:.1f}s (< 60s)",
        ok,
    )
