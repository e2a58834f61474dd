"""Sparse sums ``{key: coeff}``: the one kernel under every element type.

Each algebra in the package -- compact u(2)_h, the reduced A_h, profile
functions at shifted arguments and the quantum double of U(gl(m)_h) --
stores its elements as a dict from a basis key to a nonzero coefficient.
:func:`accumulate` is the only place a coefficient is added into such a
dict, so no stored coefficient is ever zero.  :class:`SparseSum`
supplies the linear structure and the printed form; a subclass supplies
its products and three hooks:

* ``_like()`` -- an empty element of the same kind (same ring, same m);
* ``_coerce(other)`` -- ``other`` as an element of the same kind, or
  None when it is not one;
* ``_key_str(key)`` -- the printed basis key, "" for the unit.
"""

from __future__ import annotations


def accumulate(out: dict, key, value) -> None:
    """``out[key] += value``, dropping the key when the sum is zero."""
    acc = out.get(key)
    if acc is not None:
        value = acc + value
    if value:
        out[key] = value
    elif acc is not None:
        del out[key]


class SparseSum:
    """Linear structure of a sparse sum; products live in subclasses."""

    __slots__ = ("terms",)

    def _new(self, terms):
        e = self._like()
        e.terms = terms
        return e

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k, c in sorted(self.terms.items()):
            ks = self._key_str(k)
            parts.append(f"({c})*{ks}" if ks else f"({c})")
        return " + ".join(parts)

    __repr__ = __str__
