"""Compact u(2)_h generators, the quantum-radius extension A_h, and the
Cayley-Hamilton identity of the generating matrix.

Two element types live here:

* :class:`CompactElement` -- polynomials in t, x, y, z with scalar
  coefficients, normal-ordered under [x,y]=hz, [y,z]=hx, [z,x]=hy and
  central t (order t < x < y < z).
* :class:`AElement` -- elements of the central extension, written on
  the reduced basis x^a y^b z^e with e in {0,1}; the Casimir relation
  z^2 -> rhat^2 - hbar^2 - x^2 - y^2 is applied on sight, and t is
  absorbed into the central coefficients via t = i*tau.

AElement coefficients are plain central functions (Scalar) or
polynomials in opaque shifted profile symbols (FuncExpr); a
coefficient's own type decides its arithmetic.  Both add, negate, test
for zero with ``bool``, multiply with ``*`` (a Scalar times a FuncExpr
through ``FuncExpr.__rmul__``) and shift their arguments with
``shift_args``.  :func:`sum_of_products` is the one AElement product
loop, for both types: it reads a coefficient as its (atom key, Scalar)
terms, multiplies and adds them on the packed integer kernel of
``scalars.product_parts``/``sum_parts``, and reduces each Scalar of an
output coefficient once.  Both element types scale through the one
``SparseSum.mul_scalar``, and put words in PBW order through
``sparse.normal_order`` with the pair rule ``_swap``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .scalars import (
    H, HBAR, I, ONE, RHAT, Scalar, TAU, ZERO, product_parts, solve2, sum_parts,
)
from .shifts import FuncExpr, key_product
from .sparse import NUMBERS, SparseSum, accumulate, normal_order

# letters: 0 = t, 1 = x, 2 = y, 3 = z
_T, _X, _Y, _Z = 0, 1, 2, 3


def _swap(g1: int, g2: int):
    """The pair rule for :func:`normal_order`: None when g1 <= g2, else
    g1*g2 as ordered terms ((word, scalar), ...)."""
    if g1 <= g2:
        return None
    if g2 == _T:
        return (((_T, g1), ONE),)
    if (g1, g2) == (_Y, _X):  # yx = xy - hz
        return (((_X, _Y), ONE), ((_Z,), -H))
    if (g1, g2) == (_Z, _X):  # zx = xz + hy
        return (((_X, _Z), ONE), ((_Y,), H))
    if (g1, g2) == (_Z, _Y):  # zy = yz - hx
        return (((_Y, _Z), ONE), ((_X,), -H))
    raise AssertionError((g1, g2))


def _counts(word):
    return (
        word.count(_T),
        word.count(_X),
        word.count(_Y),
        word.count(_Z),
    )


def _word_of(d, a, b, c):
    return (_T,) * d + (_X,) * a + (_Y,) * b + (_Z,) * c


_R2 = RHAT**2 - HBAR**2  # image of the Casimir x^2+y^2+z^2 in A_h


@lru_cache(maxsize=None)
def _zreduce(a, b, c):
    """Reduce x^a y^b z^c to the e<=1 basis: (((a,b,e), Scalar), ...)."""
    if c <= 1:
        return (((a, b, c), ONE),)
    out = {}
    # rightmost z^2 -> (rhat^2 - hbar^2) - x^2 - y^2 (a central relation)
    for m, s in _zreduce(a, b, c - 2):
        accumulate(out, m, s * _R2)
    stem = _word_of(0, a, b, c - 2)
    for letter in (_X, _Y):
        for w2, s in normal_order(stem + (letter, letter), _swap):
            _, a2, b2, c2 = _counts(w2)
            for m, s2 in _zreduce(a2, b2, c2):
                accumulate(out, m, -(s * s2))
    return tuple(out.items())


@lru_cache(maxsize=None)
def _amono_mul(m1, m2):
    """Product of two reduced monomials: (((a,b,e), Scalar), ...), with
    the ``ONE`` object itself for a unit structure constant."""
    w = _word_of(0, *m1) + _word_of(0, *m2)
    out = {}
    for w2, s in normal_order(w, _swap):
        _, a, b, c = _counts(w2)
        for m, s2 in _zreduce(a, b, c):
            accumulate(out, m, s * s2)
    return tuple((m, ONE if s == ONE else s) for m, s in out.items())


@lru_cache(maxsize=None)
def _cmono_mul(m1, m2):
    """Product of two CompactElement monomials t^d x^a y^b z^c."""
    return normal_order(_word_of(*m1) + _word_of(*m2), _swap)


# ---------------------------------------------------------------------------


def _mono_str(names, m) -> str:
    return "*".join((n if e == 1 else f"{n}^{e}") for n, e in zip(names, m) if e)


class CompactElement(SparseSum):
    """Normal-ordered polynomial in t, x, y, z over the scalar field."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def scalar(cls, c):
        c = c if isinstance(c, Scalar) else Scalar(c)
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def gen(cls, name: str):
        idx = {"t": 0, "x": 1, "y": 2, "z": 3}[name]
        m = [0, 0, 0, 0]
        m[idx] = 1
        return cls({tuple(m): ONE})

    def _like(self):
        return CompactElement()

    def _coerce(self, other):
        if isinstance(other, CompactElement):
            return other
        if isinstance(other, NUMBERS):
            return CompactElement.scalar(other)
        return None

    def _key_str(self, m):
        return _mono_str("txyz", m)

    def __mul__(self, other):
        if isinstance(other, NUMBERS):
            return self.mul_scalar(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                for w, s in _cmono_mul(m1, m2):
                    accumulate(out, _counts(w), c * s)
        return self._new(out)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def commutes_with_generators(self) -> bool:
        for name in ("x", "y", "z"):
            g = CompactElement.gen(name)
            if (self * g - g * self).terms:
                return False
        return True


# -- the AElement product loop ------------------------------------------------


def _coeff_terms(c):
    """A coefficient as its (atom key, Scalar) terms; a Scalar is the one
    term with key ()."""
    return (((), c),) if type(c) is Scalar else tuple(c.terms.items())


def sum_of_products(pairs):
    """The AElement sum of ``sign * x * y`` over ``(sign, x, y)`` pairs of
    AElements: the one AElement product loop, for both coefficient types.

    Each pair of coefficient terms becomes one ``scalars.product_parts``
    on packed Gaussian-integer numerators, filed under its output
    monomial and merged atom key with its structure constant; each such
    bucket is summed and reduced once by ``scalars.sum_parts``.  An
    output coefficient is a FuncExpr exactly when a FuncExpr coefficient
    reached its monomial, so the printed forms keep ``((c))``.
    """
    buckets = {}  # output monomial -> {atom key: [(sign, part, s), ...]}
    lifted = set()  # output monomials that a FuncExpr coefficient reached
    for sign, x, y in pairs:
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                parts = [
                    (key_product(k1, k2), product_parts(s1, s2))
                    for k1, s1 in _coeff_terms(c1) for k2, s2 in _coeff_terms(c2)
                ]
                for m, s in _amono_mul(m1, m2):
                    if FuncExpr in (type(c1), type(c2)):
                        lifted.add(m)
                    bucket = buckets.setdefault(m, {})
                    for k, p in parts:
                        bucket.setdefault(k, []).append((sign, p, s))
    return AElement({
        m: FuncExpr({k: sum_parts(v) for k, v in b.items()}) if m in lifted else sum_parts(b[()])
        for m, b in buckets.items()
    })


class AElement(SparseSum):
    """Canonical element of A_h on the basis x^a y^b z^e, e <= 1."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def from_scalar(cls, s):
        return cls({(0, 0, 0): s if isinstance(s, Scalar) else Scalar(s)})

    @classmethod
    def from_coeff(cls, c):
        return cls({(0, 0, 0): c})

    @classmethod
    def gen(cls, name: str):
        m = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[name]
        return cls({m: ONE})

    def _like(self):
        return AElement()

    def _coerce(self, other):
        if isinstance(other, AElement):
            return other
        if isinstance(other, NUMBERS):
            return AElement.from_scalar(other)
        return None

    def _key_str(self, m):
        return _mono_str("xyz", m)

    # perfbench/spans.py times these by reading the class's own __dict__
    __add__ = __radd__ = SparseSum.__add__

    def __mul__(self, other):
        if isinstance(other, NUMBERS):
            return self.mul_scalar(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return sum_of_products(((1, self, other),))

    def is_central(self) -> bool:
        return all(m == (0, 0, 0) for m in self.terms)

    def central_part(self):
        return self.terms.get((0, 0, 0), ZERO)

    def coefficient(self, m):
        return self.terms.get(m, ZERO)


# ---------------------------------------------------------------------------


_IT = I * TAU  # image of the generator t in the coefficient field


def reduce_casimir(e) -> AElement:
    """Map a CompactElement (or AElement) onto the reduced A_h basis.

    t is sent to i*tau in the centre; z-powers >= 2 are eliminated by
    the Casimir relation.  On AElements this is the identity.
    """
    if isinstance(e, AElement):
        return e
    out = AElement()
    for (d, a, b, c), coeff in e.terms.items():
        base = coeff * _IT**d if d else coeff
        for m, s in _zreduce(a, b, c):
            accumulate(out.terms, m, base * s)
    return out


def to_compact(e) -> CompactElement:
    """Image of a U(gl(2)_h) coordinate element under the compact basis
    change a = t - iz, b = -ix - y, c = -ix + y, d = t + iz."""
    from .glweyl import GlWeylElement, L_KIND

    if not isinstance(e, GlWeylElement) or e.m != 2:
        raise ValueError("to_compact expects a GlWeylElement with m = 2")
    t = CompactElement.gen("t")
    x = CompactElement.gen("x")
    y = CompactElement.gen("y")
    z = CompactElement.gen("z")
    images = {
        (1, 1): t - z * I,
        (1, 2): x * (-I) - y,
        (2, 1): x * (-I) + y,
        (2, 2): t + z * I,
    }
    out = CompactElement()
    for w, c in e.terms.items():
        term = CompactElement.scalar(c)
        for s in w:
            if s[0] != L_KIND:
                raise ValueError("to_compact expects a coordinate element")
            term = term * images[(s[1], s[2])]
        out = out + term
    return out


def generating_matrix():
    """The 2x2 matrix L of U(u(2)_h) in compact generators."""
    t = CompactElement.gen("t")
    x = CompactElement.gen("x")
    y = CompactElement.gen("y")
    z = CompactElement.gen("z")
    return [
        [t - z * I, x * (-I) - y],
        [x * (-I) + y, t + z * I],
    ]


class CHError(ArithmeticError):
    pass


class CHWitness:
    """Certified Cayley-Hamilton data: L^2 - c1*L + c2*I = 0."""

    def __init__(self, c1, c2, residual):
        self.c1 = c1
        self.c2 = c2
        self.residual = residual

    def c1_central(self) -> Scalar:
        return _central_scalar(self.c1)

    def c2_central(self) -> Scalar:
        return _central_scalar(self.c2)

    def residual_is_zero(self) -> bool:
        return all(not e for row in self.residual for e in row)


def _central_scalar(e: CompactElement) -> Scalar:
    a = reduce_casimir(e)
    if not a.is_central():
        raise CHError(f"{e} is not central in A_h")
    return a.central_part()


def cayley_hamilton() -> CHWitness:
    """Determine central c1, c2 with L^2 - c1*L + c2 = 0 and certify it.

    c1 is found by solving E12 = c1 * L12 with the ansatz c1 = alpha*t +
    beta on the PBW basis; c2 then follows from the diagonal.  The
    residual matrix is checked to vanish identically.
    """
    L = generating_matrix()
    E = [
        [
            L[i][0] * L[0][j] + L[i][1] * L[1][j]
            for j in range(2)
        ]
        for i in range(2)
    ]
    t = CompactElement.gen("t")
    T1 = t * L[0][1]
    T0 = L[0][1]
    target = E[0][1]
    monos = sorted(set(T1.terms) | set(T0.terms) | set(target.terms))
    sol = solve2(
        (T1.terms.get(m, ZERO), T0.terms.get(m, ZERO), target.terms.get(m, ZERO))
        for m in monos
    )
    if sol is None:
        raise CHError("no central c1 = alpha*t + beta solves E12 = c1*L12")
    alpha, beta = sol
    c1 = t * alpha + CompactElement.scalar(beta)
    c2 = c1 * L[0][0] - E[0][0]
    ident = [[c2, CompactElement()], [CompactElement(), c2]]
    residual = [
        [
            E[i][j] - c1 * L[i][j] + ident[i][j]
            for j in range(2)
        ]
        for i in range(2)
    ]
    for i in range(2):
        for j in range(2):
            if residual[i][j]:
                raise CHError(f"nonzero CH residual at {(i, j)}")
    for c in (c1, c2):
        if not c.commutes_with_generators():
            raise CHError("CH coefficient is not central")
    return CHWitness(c1, c2, residual)


def quantum_radius_square():
    """Certify rhat^2 = x^2 + y^2 + z^2 + hbar^2 from the CH data.

    Returns (witness, discriminant, rhat_squared) where discriminant =
    c1^2 - 4c2 as a CompactElement and rhat_squared is the AElement
    -(c1^2 - 4c2)/4, certified equal to the central scalar rhat^2.
    """
    w = cayley_hamilton()
    disc = w.c1 * w.c1 - w.c2 * 4
    r2 = reduce_casimir(disc * Fraction(-1, 4))
    if r2 != AElement.from_scalar(RHAT**2):
        raise CHError("quantum radius certification failed")
    return w, disc, r2
