"""Central functions with unknown profiles and shifted arguments.

The hedgehog reduction has to push the quantum derivatives through
profile functions W and F that are not given in closed form.  A
:class:`FuncExpr` is a finite sum

    sum_k  c_k(tau, rhat, hbar) * prod_j  S_j(tau + p*hbar, rhat + q*hbar)

where the c_k are exact scalars and each S_j is an opaque symbol
evaluated at integer-shifted arguments.  Products of atoms commute:
they all live in the centre of A_h.  The closed difference formulas act
on such expressions atomically, shifting every argument in sight, which
is exactly how the QPD acts on an arbitrary central function.

A FuncExpr adds, multiplies (by another FuncExpr or by a Scalar) and
shifts its arguments as a Scalar does, so an AElement with FuncExpr
coefficients runs through the whole theta machinery unchanged.
"""

from __future__ import annotations

from .scalars import ONE, Scalar, ZERO
from .sparse import NUMBERS, SparseSum, accumulate


def atom(name: str, p: int = 0, q: int = 0):
    """The symbol ``name`` at arguments (tau + p*hbar, rhat + q*hbar)."""
    return (name, p, q)


def key_product(k1, k2):
    """The atom key of the product of two atom keys (sorted tuples)."""
    return tuple(sorted(k1 + k2)) if k1 and k2 else k1 or k2


def _atom_str(a) -> str:
    name, p, q = a

    def arg(base, k):
        if k == 0:
            return base
        if k == 1:
            return f"{base}+hbar"
        if k == -1:
            return f"{base}-hbar"
        return f"{base}{'+' if k > 0 else '-'}{abs(k)}*hbar"

    return f"{name}({arg('tau', p)}, {arg('rhat', q)})"


class FuncExpr(SparseSum):
    """Sum of scalar-coefficient products of shifted profile atoms."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def from_scalar(cls, s) -> "FuncExpr":
        s = s if isinstance(s, Scalar) else Scalar(s)
        return cls({(): s} if s else {})

    @classmethod
    def symbol(cls, name: str, p: int = 0, q: int = 0) -> "FuncExpr":
        return cls({(atom(name, p, q),): ONE})

    def _like(self):
        return FuncExpr()

    def _coerce(self, other):
        if isinstance(other, FuncExpr):
            return other
        if isinstance(other, NUMBERS):
            return FuncExpr.from_scalar(other)
        return None

    def _key_str(self, k):
        return "*".join(_atom_str(a) for a in k)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.mul_scalar(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                accumulate(out, key_product(k1, k2), c1 * c2)
        return self._new(out)

    __rmul__ = __mul__

    # -- structure ------------------------------------------------------

    def atoms(self):
        """Set of all shifted atoms appearing in the expression."""
        return {a for k in self.terms for a in k}

    def symbols(self):
        return {a[0] for k in self.terms for a in k}

    def degree(self) -> int:
        """Maximal number of atoms multiplied together in one term."""
        return max((len(k) for k in self.terms), default=0)

    def coefficient(self, key) -> Scalar:
        """Scalar coefficient of a product of atoms (a sorted tuple)."""
        return self.terms.get(tuple(sorted(key)), ZERO)

    def scalar_part(self) -> Scalar:
        return self.terms.get((), ZERO)

    # -- calculus -------------------------------------------------------

    def shift_args(self, p: int, q: int) -> "FuncExpr":
        """tau -> tau + p*hbar, rhat -> rhat + q*hbar, everywhere."""
        if p == 0 and q == 0:
            return self
        return self._new({
            tuple(sorted((n, a + p, b + q) for n, a, b in k)): c.shift_args(p, q)
            for k, c in self.terms.items()
        })

    def substitute(self, bindings) -> "FuncExpr":
        """Replace profile symbols by concrete central functions.

        ``bindings`` maps a symbol name to a Scalar in (tau, rhat, hbar);
        an atom (name, p, q) becomes that scalar with shifted arguments.
        Unbound symbols stay symbolic.
        """
        out = FuncExpr()
        for k, c in self.terms.items():
            term = FuncExpr.from_scalar(c)
            for name, p, q in k:
                if name in bindings:
                    s = bindings[name]
                    s = s if isinstance(s, Scalar) else Scalar(s)
                    term = term.mul_scalar(s.shift_args(p, q))
                else:
                    term = term * FuncExpr.symbol(name, p, q)
            out = out + term
        return out

    def as_scalar(self) -> Scalar:
        """The expression as a plain Scalar; fails if atoms remain."""
        if self.atoms():
            raise ValueError(f"unresolved profile symbols in {self}")
        return self.scalar_part()

    def evaluate(self, values, tau=0.0, rhat=0.0, hbar=0.0) -> complex:
        """Numeric evaluation; ``values`` maps atoms to numbers."""
        tot = 0j
        for k, c in self.terms.items():
            v = c.evaluate(tau=tau, rhat=rhat, hbar=hbar)
            for a in k:
                v *= values[a]
            tot += v
        return tot

