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

AElement coefficients are generic: plain central functions (Scalar) or
polynomials in opaque shifted profile symbols (FuncExpr).  A coefficient
ring is a class with ``zero``, ``one`` and ``from_scalar`` (the image of
a Scalar in the ring); it inherits the closed difference formulas
``d_tau``, ``d_radial`` and ``theta_parts`` from :class:`CoeffRing`.
Ring elements add, negate, test for zero with ``bool``, multiply with
``*`` (by each other and by a Scalar) and shift their arguments with
``shift_args``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .scalars import H, HBAR, I, ONE, RHAT, Scalar, TAU, ZERO, solve2
from .sparse import SparseSum, accumulate

# letters: 0 = t, 1 = x, 2 = y, 3 = z
_T, _X, _Y, _Z = 0, 1, 2, 3


def _swap(g1: int, g2: int):
    """Rewrite g1*g2 (g1 > g2) as ordered terms: ((word, scalar), ...)."""
    if g2 == _T:
        return (((_T, g1), ONE),)
    if (g1, g2) == (_Y, _X):  # yx = xy - hz
        return (((_X, _Y), ONE), ((_Z,), -H))
    if (g1, g2) == (_Z, _X):  # zx = xz + hy
        return (((_X, _Z), ONE), ((_Y,), H))
    if (g1, g2) == (_Z, _Y):  # zy = yz - hx
        return (((_Y, _Z), ONE), ((_X,), -H))
    raise AssertionError((g1, g2))


@lru_cache(maxsize=None)
def _no_word(w):
    """Normal order a word of letters; returns ((sorted word, Scalar), ...)."""
    for idx in range(len(w) - 1):
        if w[idx] > w[idx + 1]:
            break
    else:
        return ((w, ONE),)
    head, tail = w[:idx], w[idx + 2 :]
    out = {}
    for repl, s in _swap(w[idx], w[idx + 1]):
        for w2, s2 in _no_word(head + repl + tail):
            accumulate(out, w2, s * s2)
    return tuple(out.items())


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
        for w2, s in _no_word(stem + (letter, letter)):
            _, a2, b2, c2 = _counts(w2)
            for m, s2 in _zreduce(a2, b2, c2):
                accumulate(out, m, -(s * s2))
    return tuple(out.items())


@lru_cache(maxsize=None)
def _amono_mul(m1, m2):
    """Product of two reduced monomials: (((a,b,e), Scalar), ...)."""
    w = _word_of(0, *m1) + _word_of(0, *m2)
    out = {}
    for w2, s in _no_word(w):
        _, a, b, c = _counts(w2)
        for m, s2 in _zreduce(a, b, c):
            accumulate(out, m, s * s2)
    return tuple(out.items())


@lru_cache(maxsize=None)
def _cmono_mul(m1, m2):
    """Product of two CompactElement monomials t^d x^a y^b z^c."""
    return _no_word(_word_of(*m1) + _word_of(*m2))


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
        if isinstance(other, (int, Fraction, Scalar)):
            return CompactElement.scalar(other)
        return None

    def _key_str(self, m):
        return _mono_str("txyz", m)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            return self._new({m: v * c for m, v in self.terms.items()} if c else {})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                for w, s in _cmono_mul(m1, m2):
                    accumulate(out, _counts(w), c * s)
        return self._new(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def commutes_with_generators(self) -> bool:
        for name in ("x", "y", "z"):
            g = CompactElement.gen(name)
            if (self * g - g * self).terms:
                return False
        return True


# -- coefficient rings -------------------------------------------------------

_INV_2H = ONE / (HBAR * 2)
_INV_2RH = ONE / (RHAT * HBAR * 2)
_INV_2R = ONE / (RHAT * 2)
_I_2R = I / (RHAT * 2)


class CoeffRing:
    """Closed difference formulas for the QPD on the centre, over any ring.

    The d_tau multipliers are (rhat +/- hbar), which is forced by
    d_tau(tau) = 1 and d_tau(rhat) = hbar/rhat.
    """

    @staticmethod
    def d_tau(c):
        return (
            c.shift_args(1, 1) * (RHAT + HBAR)
            + c.shift_args(1, -1) * (RHAT - HBAR)
            - c * (RHAT * 2)
        ) * _INV_2RH

    @staticmethod
    def d_radial(c):
        return (c.shift_args(1, 1) - c.shift_args(1, -1)) * _INV_2H

    @staticmethod
    def theta_parts(c):
        """(c + hbar d_tau c, (i hbar / rhat) d_radial c) with shared shifts."""
        sp = c.shift_args(1, 1)
        sm = c.shift_args(1, -1)
        diag = (sp * (RHAT + HBAR) + sm * (RHAT - HBAR)) * _INV_2R
        off = (sp - sm) * _I_2R
        return diag, off


class ScalarCoeffs(CoeffRing):
    """Coefficient ring of plain central functions f(tau, rhat)."""

    zero = ZERO
    one = ONE

    @staticmethod
    def from_scalar(s: Scalar) -> Scalar:
        return s


class AElement(SparseSum):
    """Canonical element of A_h on the basis x^a y^b z^e, e <= 1."""

    __slots__ = ("ring",)

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def from_scalar(cls, s, ring=ScalarCoeffs):
        s = s if isinstance(s, Scalar) else Scalar(s)
        return cls(ring, {(0, 0, 0): ring.from_scalar(s)})

    @classmethod
    def from_coeff(cls, c, ring=ScalarCoeffs):
        return cls(ring, {(0, 0, 0): c})

    @classmethod
    def gen(cls, name: str, ring=ScalarCoeffs):
        m = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[name]
        return cls(ring, {m: ring.one})

    def _like(self):
        return AElement(self.ring)

    def _coerce(self, other):
        if isinstance(other, AElement):
            if other.ring is not self.ring:
                raise ValueError("mixed coefficient rings")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return AElement.from_scalar(Scalar(other) if not isinstance(other, Scalar) else other, self.ring)
        return None

    def _key_str(self, m):
        return _mono_str("xyz", m)

    # perfbench/spans.py times these by reading the class's own __dict__
    __add__ = __radd__ = SparseSum.__add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.mul_scalar(Scalar(other) if not isinstance(other, Scalar) else other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                for m, s in _amono_mul(m1, m2):
                    accumulate(out, m, c if s is ONE or s == ONE else c * s)
        return self._new(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.mul_scalar(Scalar(other) if not isinstance(other, Scalar) else other)
        return NotImplemented

    def mul_coeff(self, c):
        """Multiply by a (central) coefficient of the ring."""
        if not c:
            return self._like()
        return self._new({m: v * c for m, v in self.terms.items()})

    def mul_scalar(self, s: Scalar):
        if not s:
            return self._like()
        return self._new({m: c * s for m, c in self.terms.items()})

    def is_central(self) -> bool:
        return all(m == (0, 0, 0) for m in self.terms)

    def central_part(self):
        return self.terms.get((0, 0, 0), self.ring.zero)

    def coefficient(self, m):
        return self.terms.get(m, self.ring.zero)


# ---------------------------------------------------------------------------


_IT = I * TAU  # image of the generator t in the coefficient field


def reduce_casimir(e, ring=ScalarCoeffs) -> AElement:
    """Map a CompactElement (or AElement) onto the reduced A_h basis.

    t is sent to i*tau in the centre; z-powers >= 2 are eliminated by
    the Casimir relation.  On AElements this is the identity.
    """
    if isinstance(e, AElement):
        return e
    out = AElement(ring)
    for (d, a, b, c), coeff in e.terms.items():
        base = coeff * _IT**d if d else coeff
        for m, s in _zreduce(a, b, c):
            accumulate(out.terms, m, ring.from_scalar(base * s))
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
