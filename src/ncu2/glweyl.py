"""PBW normal ordering and the quantum double for U(gl(m)_h).

Words mix two kinds of symbols: generators ``l_i^j`` and derivative
symbols ``∂_i^j`` (optionally shifted, ``∂̂_i^j = ∂_i^j + δ_i^j/h``; the
shift only matters on the diagonal and symbols are normalised so that a
"hat" appears on diagonal symbols only).

The rewriting engine moves every derivative symbol to the right of
every generator using the permutation relations and sorts each block,
giving a unique canonical form.  The quantum-partial-derivative action
is permute-then-truncate: after rewriting, a trailing derivative block
acts on 1 (hatted diagonal symbols contribute 1/h, anything else kills
the term).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import H, ONE, Scalar
from .sparse import SparseSum, accumulate

# symbols: ('l', i, j) generator, ('d', i, j, hat) derivative
L_KIND = "l"
D_KIND = "d"


def lsym(i: int, j: int):
    return (L_KIND, i, j)


def dsym(i: int, j: int, hat: bool = False):
    return (D_KIND, i, j, hat and i == j)


def _rewrite_pair(s1, s2):
    """Rewrite rule for an adjacent pair, or None if already ordered.

    Returns a list of (replacement word tuple, scalar factor).
    """
    k1, k2 = s1[0], s2[0]
    if k1 == L_KIND and k2 == L_KIND:
        if s1[1:] <= s2[1:]:
            return None
        # l_i^j l_k^s = l_k^s l_i^j + h(l_i^s d_k^j - l_k^j d_i^s)
        _, i, j = s1
        _, k, s = s2
        out = [((s2, s1), ONE)]
        if k == j:
            out.append(((lsym(i, s),), H))
        if i == s:
            out.append(((lsym(k, j),), -H))
        return out
    if k1 == D_KIND and k2 == L_KIND:
        _, i, j, _hat = s1
        _, k, s = s2
        # D_1 L_2 = L_2 D_1 + P_12 + h D_1 P_12 (hats are pre-expanded)
        out = [((s2, s1), ONE)]
        if i == s and k == j:
            out.append(((), ONE))
        if k == j:
            out.append(((dsym(i, s),), H))
        return out
    if k1 == D_KIND and k2 == D_KIND:
        # QPD commute; sort by (i, j, hat)
        if s1[1:] <= s2[1:]:
            return None
        return [((s2, s1), ONE)]
    return None  # (l, d) is the target order


_INV_H = ONE / H


def _expand_hats(w, c):
    """Expand hatted diagonal symbols ∂̂ = ∂ + 1/h in a word."""
    parts = [((), c)]
    for s in w:
        if s[0] == D_KIND and s[3]:
            un = dsym(s[1], s[2])
            parts = [p for pw, pc in parts for p in ((pw + (un,), pc), (pw, pc * _INV_H))]
        else:
            parts = [(pw + (s,), pc) for pw, pc in parts]
    return parts


def _canon(terms):
    """Canonical form of {word: Scalar}: all l's left, both blocks sorted."""
    out = {}
    work = []
    for w, c in terms.items():
        if c:
            work.extend(_expand_hats(w, c))
    while work:
        w, c = work.pop()
        for idx in range(len(w) - 1):
            rew = _rewrite_pair(w[idx], w[idx + 1])
            if rew is None:
                continue
            for repl, factor in rew:
                work.append((w[:idx] + repl + w[idx + 2 :], c * factor))
            break
        else:
            accumulate(out, w, c)
    return out


def _sym_str(s) -> str:
    if s[0] == L_KIND:
        return f"l[{s[1]},{s[2]}]"
    hat = "^" if s[3] else ""
    return f"d{hat}[{s[1]},{s[2]}]"


class GlWeylElement(SparseSum):
    """Canonical element of the quantum double of U(gl(m)_h)."""

    __slots__ = ("m",)

    def __init__(self, m: int, terms=None, _canonical=False):
        self.m = m
        if terms is None:
            terms = {}
        self.terms = terms if _canonical else _canon(terms)

    # -- constructors --------------------------------------------------

    @classmethod
    def generator(cls, m, i, j):
        return cls(m, {(lsym(i, j),): ONE}, _canonical=True)

    @classmethod
    def derivative(cls, m, i, j, hat=False):
        return cls(m, {(dsym(i, j, hat),): ONE}, _canonical=not (hat and i == j))

    @classmethod
    def scalar(cls, m, c):
        c = c if isinstance(c, Scalar) else Scalar(c)
        return cls(m, {(): c} if c else {}, _canonical=True)

    # -- algebra --------------------------------------------------------

    def _like(self):
        return GlWeylElement(self.m, _canonical=True)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return GlWeylElement.scalar(self.m, other)
        if not isinstance(other, GlWeylElement):
            return None
        if self.m != other.m:
            raise ValueError("mixed gl(m) sizes")
        return other

    def _key_str(self, w):
        return "*".join(_sym_str(s) for s in w) or "1"

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            return GlWeylElement(
                self.m, {w: v * c for w, v in self.terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prod = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(prod, w1 + w2, c1 * c2)
        return GlWeylElement(self.m, prod)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GlWeylElement):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    # -- structure -------------------------------------------------------

    def is_derivative(self) -> bool:
        return all(s[0] == D_KIND for w in self.terms for s in w)


def apply_qpd(p: GlWeylElement, q: GlWeylElement) -> GlWeylElement:
    """Action of a derivative polynomial p on a coordinate polynomial q.

    Permute p*q so all derivative symbols are rightmost, then let the
    trailing derivative block act on 1.
    """
    # "send to zero all terms containing at least one ∂"; the surviving
    # words are distinct, so nothing needs accumulating
    out = {
        w: c for w, c in (p * q).terms.items() if all(s[0] != D_KIND for s in w)
    }
    return GlWeylElement(p.m, out, _canonical=True)


# -- coproduct on the derivative algebra --------------------------------


class TensorElement:
    """Element of A⊗A for A the (commutative) algebra of QPD symbols."""

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        self.m = m
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def one(cls, m):
        return cls(m, {((), ()): ONE})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            accumulate(out, k, v)
        t = TensorElement(self.m)
        t.terms = out
        return t

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            return TensorElement(
                self.m, {k: v * c for k, v in self.terms.items()}
            )
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (tuple(sorted(a1 + a2)), tuple(sorted(b1 + b2)))
                accumulate(out, k, c1 * c2)
        t = TensorElement(self.m)
        t.terms = out
        return t

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.m == other.m and self.terms == other.terms

    def __repr__(self):
        return f"TensorElement({self.terms})"


def coproduct(e: GlWeylElement) -> TensorElement:
    """Coproduct on derivative polynomials (deformed Leibniz rule).

    Δ(∂_i^j) = ∂_i^j⊗1 + 1⊗∂_i^j + h Σ_k ∂_k^j⊗∂_i^k, extended
    multiplicatively; hatted symbols are expanded as ∂ + δ/h first.
    """
    if not e.is_derivative():
        raise ValueError("coproduct is defined on the derivative algebra")
    m = e.m
    total = TensorElement(m)
    for w, c in e.terms.items():
        t = TensorElement.one(m) * c
        for s in w:
            _, i, j, hat = s
            dt = TensorElement(m)
            dt.terms[((dsym(i, j),), ())] = ONE
            dt.terms[((), (dsym(i, j),))] = ONE
            for k in range(1, m + 1):
                accumulate(dt.terms, ((dsym(k, j),), (dsym(i, k),)), H)
            if hat:  # Δ(1/h) = (1/h) 1⊗1
                accumulate(dt.terms, ((), ()), _INV_H)
            t = t * dt
        total = total + t
    return total


def leibniz_apply(
    p: GlWeylElement, u: GlWeylElement, v: GlWeylElement
) -> GlWeylElement:
    """Apply Δ(p) to u⊗v and multiply the halves back in U(gl(m)_h)."""
    m = p.m
    out = GlWeylElement.scalar(m, 0)
    for (a, b), c in coproduct(p).terms.items():
        pa = GlWeylElement(m, {a: ONE}, _canonical=True)
        pb = GlWeylElement(m, {b: ONE}, _canonical=True)
        out = out + apply_qpd(pa, u) * apply_qpd(pb, v) * c
    return out


# -- m = 2 compact-basis helpers -----------------------------------------


def gl2():
    """The four gl(2) generators a, b, c, d as elements."""
    g = GlWeylElement.generator
    return g(2, 1, 1), g(2, 1, 2), g(2, 2, 1), g(2, 2, 2)


def compact_qpd_combos():
    """∂_t, ∂_x, ∂_y, ∂_z expressed through the gl(2) QPD.

    The classical chain rule for the linear change of generators
    t=(a+d)/2, x=i(b+c)/2, y=(c-b)/2, z=i(a-d)/2.
    """
    from .scalars import I

    d = GlWeylElement.derivative
    d_a, d_b, d_c, d_d = d(2, 1, 1), d(2, 2, 1), d(2, 1, 2), d(2, 2, 2)
    d_t = d_a + d_d
    d_x = (d_b + d_c) * (-I)
    d_y = d_c - d_b
    d_z = (d_d - d_a) * I
    return d_t, d_x, d_y, d_z


def compact_generators_as_gl():
    """t, x, y, z of u(2)_h as elements of U(gl(2)_h)."""
    from .scalars import I, rational

    a, b, c, d = gl2()
    half = rational(1, 2)
    t = (a + d) * half
    x = (b + c) * (I * half)
    y = (c - b) * half
    z = (a - d) * (I * half)
    return t, x, y, z


def dd_matrix(u: GlWeylElement):
    """The multiplicative matrix 𝔻(u) = h·(∂̂_j^i(u)) (transposed layout)."""
    m = u.m
    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            dh = GlWeylElement.derivative(m, j, i, hat=True)
            row.append(apply_qpd(dh, u) * H)
        rows.append(row)
    return rows
