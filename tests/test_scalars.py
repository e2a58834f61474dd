"""Exact rational function field over the Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy.polys.domains import QQ_I

from ncu2.hedgehog import ReductionError, _solve_span, profile_equations
from ncu2.scalars import (
    DivisionByZero,
    H,
    HBAR,
    I,
    ONE,
    PoleAtZero,
    RHAT,
    Scalar,
    ScalarError,
    TAU,
    ZERO,
    _MAX_EXP,
    _ROOM,
    _fkey,
    gauss,
    product_parts,
    rational,
    solve2,
    sum_parts,
)
from ncu2.shifts import FuncExpr
from ncu2.u2 import AElement, _R2

_GENS = (TAU, RHAT, HBAR, I)
_DENS = (RHAT, RHAT + HBAR, RHAT - HBAR, TAU + RHAT, HBAR * 2 + TAU)


@st.composite
def scalars(draw):
    num = ZERO
    for _ in range(draw(st.integers(1, 3))):
        term = rational(draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, 2))):
            term = term * draw(st.sampled_from(_GENS))
        num = num + term
    if draw(st.booleans()):
        num = num / draw(st.sampled_from(_DENS))
    return num


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_multiplicative_inverse(a):
    if a:
        assert a * a.inv() == ONE
        assert a / a == ONE


@settings(max_examples=40, deadline=None)
@given(scalars(), st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
def test_shift_composition(a, p1, q1, p2, q2):
    assert a.shift_args(p1, q1).shift_args(p2, q2) == a.shift_args(p1 + p2, q1 + q2)


def test_shift_on_generators():
    assert TAU.shift_args(3, -1) == TAU + HBAR * 3
    assert RHAT.shift_args(2, 5) == RHAT + HBAR * 5
    assert HBAR.shift_args(4, 4) == HBAR
    assert I.shift_args(1, 1) == I


def test_gaussian_arithmetic():
    assert I * I == -ONE
    assert (ONE + I) * (ONE - I) == rational(2)
    assert gauss(Fraction(1, 2), Fraction(-1, 3)) * rational(6) == rational(3) - I * 2


def test_powers():
    assert RHAT**0 == ONE
    assert RHAT**3 == RHAT * RHAT * RHAT
    assert (RHAT**2).inv() == RHAT ** (-2)


@settings(max_examples=30, deadline=None)
@given(scalars(), scalars())
def test_evaluate_is_a_homomorphism(a, b):
    pt = dict(tau=0.37, rhat=1.91, hbar=0.13)
    va, vb = a.evaluate(**pt), b.evaluate(**pt)
    assert abs((a + b).evaluate(**pt) - (va + vb)) < 1e-9
    assert abs((a * b).evaluate(**pt) - va * vb) < 1e-9


def test_evaluate_matches_sympy():
    import sympy

    s = (TAU**2 - I * HBAR * RHAT) / (RHAT + HBAR)
    expr = s.as_sympy()
    tau, rhat, hbar = sympy.symbols("tau rhat hbar")
    ref = complex(expr.subs({tau: 2, rhat: 3, hbar: Fraction(1, 2)}))
    assert abs(s.evaluate(tau=2.0, rhat=3.0, hbar=0.5) - ref) < 1e-12


def test_evaluate_on_arrays():
    import numpy as np

    s = (TAU - I * HBAR * RHAT) / (RHAT**2 - HBAR**2)
    r = np.array([1.5, 2.0, 3.25])
    v = s.evaluate(tau=0.5, rhat=r, hbar=0.25)
    assert v.shape == r.shape
    for rk, vk in zip(r, v):
        assert abs(vk - s.evaluate(tau=0.5, rhat=float(rk), hbar=0.25)) < 1e-15
    # the pole at rhat = hbar is caught even when only one point hits it
    with pytest.raises(DivisionByZero):
        s.evaluate(rhat=np.array([1.5, 0.25, 2.0]), hbar=0.25)


def test_classical_limit():
    s = TAU * RHAT + HBAR * RHAT - HBAR**2
    assert s.classical_limit() == TAU * RHAT
    assert (ONE / (RHAT + HBAR)).classical_limit() == ONE / RHAT
    with pytest.raises(PoleAtZero):
        (ONE / HBAR).classical_limit()


def test_division_errors():
    with pytest.raises(DivisionByZero):
        ZERO.inv()
    with pytest.raises(DivisionByZero):
        ONE / ZERO


def test_hash_consistent_with_eq():
    a = (RHAT**2 - HBAR**2) / (RHAT - HBAR)
    b = RHAT + HBAR
    assert a == b
    assert hash(a) == hash(b)


def test_str_is_canonical():
    assert str(ZERO) == "0"
    assert str(RHAT + HBAR) == str(HBAR + RHAT)


def _assert_canonical(s):
    """The reduced form that structural equality relies on."""
    if not s:
        assert s.den == ()
        return
    factors = [f for f, _ in s.den]
    assert all(e >= 1 for _, e in s.den)
    assert all(not f.is_ground and f.LC == QQ_I.one for f in factors)
    assert len(set(factors)) == len(factors)
    assert [_fkey(f) for f in factors] == sorted(_fkey(f) for f in factors)
    for f in factors:
        assert s.num.div(f)[1], f"{f} divides the numerator of {s}"


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), st.integers(-2, 2), st.integers(-2, 2))
def test_results_are_canonical(a, b, p, q):
    derived = [a, a + b, a - b, a * b, a.shift_args(p, q), (a * b).shift_args(p, q)]
    if b:
        derived += [a / b, b.inv()]
    for s in list(derived):
        try:
            derived.append(s.classical_limit())
        except PoleAtZero:
            pass
    for s in derived:
        _assert_canonical(s)
    for s in (a + b - b, a * b / b if b else a):
        assert (s.num, s.den) == (a.num, a.den)
    assert (a - a).den == ()


# -- the packed kernel of product_parts/sum_parts ------------------------------


@st.composite
def gaussian_scalars(draw):
    """Gaussian coefficients with denominators up to 10**6, over products
    of the denominator factors in _DENS, so that groups share factors."""
    num = ZERO
    for _ in range(draw(st.integers(1, 3))):
        re, im = (
            Fraction(draw(st.integers(-(10**6), 10**6)), draw(st.integers(1, 10**6)))
            for _ in range(2)
        )
        term = gauss(re, im)
        for _ in range(draw(st.integers(0, 2))):
            term = term * draw(st.sampled_from((TAU, RHAT, HBAR)))
        num = num + term
    for _ in range(draw(st.integers(0, 2))):
        num = num / draw(st.sampled_from(_DENS))
    return num


# the structure constants the AElement product loop multiplies in
_STRUCTURE = (ONE, H, -H, _R2)


@st.composite
def batches(draw):
    item = st.tuples(
        st.sampled_from((1, -1)), gaussian_scalars(), gaussian_scalars(), st.sampled_from(_STRUCTURE)
    )
    items = draw(st.lists(item, min_size=1, max_size=5))
    if draw(st.booleans()):  # every term again with the other sign: the sum is 0
        items += [(-sign, a, b, s) for sign, a, b, s in items]
    return items


def _batched(items):
    return sum_parts([(sign, product_parts(a, b), s) for sign, a, b, s in items])


def _fold(items):
    out = ZERO
    for sign, a, b, s in items:
        term = a * b * s
        out = out + (term if sign > 0 else -term)
    return out


_A1 = ONE / (RHAT * (RHAT + HBAR))
_A2 = ONE / (RHAT * (RHAT - HBAR))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(batches())
# rhat at the same exponent in two groups cancels only in their sum (to
# 2/(rhat^2 - hbar^2)), and a sum that cancels to 0
@example([(1, _A1, ONE, ONE), (1, _A2, ONE, ONE)])
@example([(1, _A1, RHAT, H), (-1, _A1, RHAT, H)])
def test_packed_batch_equals_the_scalar_fold(items):
    got, want = _batched(items), _fold(items)
    assert (got.num, got.den) == (want.num, want.den)
    _assert_canonical(got)


def test_packed_exponents_at_the_bound():
    # three operands with every exponent at the bound fill each field
    # to 3*_MAX_EXP without a carry
    top = (TAU * RHAT * HBAR) ** _MAX_EXP
    items = [(1, top, top, top), (-1, top / (RHAT + HBAR), RHAT, H)]
    got, want = _batched(items), _fold(items)
    assert (got.num, got.den) == (want.num, want.den)
    with pytest.raises(ScalarError, match="packed bound"):
        product_parts(TAU ** (_MAX_EXP + 1), ONE)
    # a factor that the lcm would raise beyond the room left is refused
    far = (ONE / (RHAT + HBAR)) ** (_ROOM + 1)
    with pytest.raises(ScalarError, match="room"):
        _batched([(1, far, ONE, ONE), (1, ONE / RHAT, ONE, ONE)])


def _row(a, b, u, v):
    return (a, b, a * u + b * v)


def test_solve2_unique_solution():
    u, v = TAU / RHAT, I * HBAR + ONE
    rows = [
        (ZERO, ZERO, ZERO),
        _row(RHAT, ONE, u, v),
        _row(RHAT * 2, rational(2), u, v),  # dependent on the row above
        _row(HBAR, TAU - RHAT, u, v),
        _row(ZERO, ONE / (RHAT + HBAR), u, v),
    ]
    assert solve2(rows) == (u, v)


def test_solve2_inconsistent_third_row():
    rows = [(ONE, ZERO, TAU), (ZERO, ONE, RHAT), (ONE, ONE, TAU + RHAT + HBAR)]
    assert solve2(rows) is None
    assert solve2(rows[:2]) == (TAU, RHAT)


def test_solve2_rank_deficient_rows():
    assert solve2([(ONE, TAU, HBAR), (RHAT, RHAT * TAU, RHAT * HBAR)]) is None
    assert solve2([(ONE, TAU, HBAR)]) is None
    assert solve2([]) is None


def test_solve_span_rejects_a_coordinate_outside_e1_e2():
    e1, e2 = profile_equations()
    x = AElement.gen("x")
    u, v = _solve_span(x.mul_scalar(e1 * RHAT + e2), e1, e2)
    assert (u, v) == (x.mul_scalar(RHAT), x)
    # G appears in neither E1 nor E2, so only its own row sees it
    stray = e1 + FuncExpr.symbol("G")
    with pytest.raises(ReductionError, match="outside span"):
        _solve_span(x.mul_scalar(stray), e1, e2)
