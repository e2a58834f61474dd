"""The multiplicative 4x4 derivative matrix and the named QPD on A_h.

The map theta sends an element a to the matrix

    i*hbar * [[d^_t a,  d_x a,  d_y a,  d_z a ],
              [-d_x a,  d^_t a, -d_z a, d_y a ],
              [-d_y a,  d_z a,  d^_t a, -d_x a],
              [-d_z a, -d_y a,  d_x a,  d^_t a]]

and preserves products.  It is computed multiplicatively from the
classical actions on the generators and the closed difference formulas
on central functions: with X = x E_x + y E_y + z E_z and the central
parts diag, off of a coefficient c (``theta_parts``),

    theta(c*m) = diag theta(m) + off X theta(m),

where theta(m) and X theta(m) of a bare monomial m are cached per ring.
Every individual derivative is read back from a matrix entry.  The
compositional route is the ground truth for the radial derivative, the
Laplacian and the operator Q = x d_x + y d_y + z d_z; the printed
closed forms are kept alongside for comparison.
"""

from __future__ import annotations

from .scalars import HBAR, I, ONE, RHAT, Scalar
from .u2 import AElement, ScalarCoeffs, sum_of_products

_IH = I * HBAR
_INV_IH = ONE / _IH
_INV_H = ONE / HBAR

# quaternionic pattern matrices: theta(a) = (a + ih d_t a) I
#   + ih d_x(a) E_x + ih d_y(a) E_y + ih d_z(a) E_z
_E = {
    "x": ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    "y": ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)),
    "z": ((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)),
}


# product table of the pattern matrices (quaternion units):
# E_g E_h = sign * E_k, with index 0 standing for the identity
_QTAB = {
    (1, 1): (-1, 0),
    (1, 2): (1, 3),
    (1, 3): (-1, 2),
    (2, 1): (-1, 3),
    (2, 2): (-1, 0),
    (2, 3): (1, 1),
    (3, 1): (1, 2),
    (3, 2): (-1, 1),
    (3, 3): (-1, 0),
}


class ThetaMatrix:
    """4x4 matrix over A_h; the image of an element under theta.

    Every matrix in the image of theta (and every product of such) has
    the quaternionic shape c0*I + c1*E_x + c2*E_y + c3*E_z, so only the
    four components are stored.  ``rows()`` expands the dense matrix;
    ``@`` composes through the component table.
    """

    __slots__ = ("ring", "comps")

    def __init__(self, ring, comps):
        self.ring = ring
        self.comps = tuple(comps)

    @classmethod
    def zero(cls, ring):
        z = AElement(ring)
        return cls(ring, (z, z, z, z))

    @classmethod
    def identity(cls, ring):
        one = AElement.from_coeff(ring.one, ring)
        z = AElement(ring)
        return cls(ring, (one, z, z, z))

    def __add__(self, other):
        return ThetaMatrix(
            self.ring, [a + b for a, b in zip(self.comps, other.comps)]
        )

    def __matmul__(self, other):
        # component k collects sign * a[g] * b[h] over E_g E_h = sign * E_k
        a, b = self.comps, other.comps
        pairs = [[(1, a[0], b[k])] for k in range(4)]
        for g in range(1, 4):
            pairs[g].append((1, a[g], b[0]))
            for h in range(1, 4):
                sign, k = _QTAB[g, h]
                pairs[k].append((sign, a[g], b[h]))
        return ThetaMatrix(self.ring, [sum_of_products(self.ring, p) for p in pairs])

    def __eq__(self, other):
        # I, E_x, E_y, E_z are linearly independent over A_h, so
        # component equality is matrix equality
        return isinstance(other, ThetaMatrix) and all(
            a == b for a, b in zip(self.comps, other.comps)
        )

    def rows(self):
        """The dense 4x4 matrix as a nested list of AElements."""
        c0, cx, cy, cz = self.comps
        rows = [[c0 if i == j else None for j in range(4)] for i in range(4)]
        z = AElement(self.ring)
        for c, name in ((cx, "x"), (cy, "y"), (cz, "z")):
            pat = _E[name]
            for i in range(4):
                for j in range(4):
                    s = pat[i][j]
                    if s:
                        base = rows[i][j] if rows[i][j] is not None else z
                        rows[i][j] = base + (c if s > 0 else -c)
        return [[e if e is not None else z for e in row] for row in rows]

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.rows()
        )

    __repr__ = __str__


# theta of the generators, and (theta(m), X @ theta(m)) of bare monomials
# m, keyed by (ring, key)
_CACHE = {}


def _gen_matrices(ring):
    """theta(x), theta(y), theta(z) over the given coefficient ring."""
    try:
        return _CACHE[ring, "gens"]
    except KeyError:
        pass
    ih = AElement(ring, {(0, 0, 0): ring.from_scalar(_IH)})
    z = AElement(ring)
    mats = {}
    for k, name in enumerate(("x", "y", "z"), start=1):
        comps = [AElement.gen(name, ring), z, z, z]
        comps[k] = ih
        mats[name] = ThetaMatrix(ring, comps)
    _CACHE[ring, "gens"] = mats
    return mats


def _theta_mono(mono, ring):
    """(theta(m), X @ theta(m)) of a bare monomial m = x^p y^q z^e, with
    X = x E_x + y E_y + z E_z; cached per ring."""
    try:
        return _CACHE[ring, mono]
    except KeyError:
        pass
    gens = _gen_matrices(ring)
    term = ThetaMatrix.identity(ring)
    for name, k in zip("xyz", mono):
        for _ in range(k):
            term = term @ gens[name]
    X = ThetaMatrix(ring, [AElement(ring)] + [AElement.gen(n, ring) for n in "xyz"])
    _CACHE[ring, mono] = pair = (term, X @ term)
    return pair


def theta(a: AElement) -> ThetaMatrix:
    """The multiplicative matrix of an element of A_h: each component is
    one sum of products, diag theta(m) + off X theta(m) over the terms c*m."""
    ring = a.ring
    pairs = ([], [], [], [])
    for mono, c in a.terms.items():
        th, xth = _theta_mono(mono, ring)
        diag, off = (AElement(ring, {(0, 0, 0): p}) for p in ring.theta_parts(c))
        for k in range(4):
            pairs[k].append((1, diag, th.comps[k]))
            pairs[k].append((1, off, xth.comps[k]))
    return ThetaMatrix(ring, [sum_of_products(ring, p) for p in pairs])


# -- named derivatives ------------------------------------------------------


def d_x(a: AElement) -> AElement:
    return theta(a).comps[1].mul_scalar(_INV_IH)


def d_y(a: AElement) -> AElement:
    return theta(a).comps[2].mul_scalar(_INV_IH)


def d_z(a: AElement) -> AElement:
    return theta(a).comps[3].mul_scalar(_INV_IH)


def d_t(a: AElement) -> AElement:
    return (theta(a).comps[0] - a).mul_scalar(_INV_IH)


def d_tau(a: AElement) -> AElement:
    # d_tau = i d_t (tau = -i t)
    return (theta(a).comps[0] - a).mul_scalar(_INV_H)


def q_op(a: AElement) -> AElement:
    """Q = x d_x + y d_y + z d_z, all three read from one theta(a)."""
    th = theta(a)
    ring = a.ring
    out = AElement(ring)
    for k, name in enumerate("xyz", start=1):
        out = out + AElement.gen(name, ring) * th.comps[k].mul_scalar(_INV_IH)
    return out


def radial_extend(a: AElement) -> AElement:
    """Radial derivative on all of A_h via d_r := (rhat/(rhat^2-hbar^2)) Q."""
    return q_op(a).mul_scalar(RHAT / (RHAT**2 - HBAR**2))


def laplacian(a: AElement) -> AElement:
    """Quantum Laplacian d_x^2 + d_y^2 + d_z^2, compositionally."""
    out = AElement(a.ring)
    for dfun in (d_x, d_y, d_z):
        out = out + dfun(dfun(a))
    return out


OPS = {
    "dx": d_x,
    "dy": d_y,
    "dz": d_z,
    "dt": d_t,
    "dtau": d_tau,
    "dr": radial_extend,
    "lap": laplacian,
    "Q": q_op,
}


def derive(op: str, a: AElement) -> AElement:
    """Apply a named derivative operator to an element of A_h."""
    try:
        f = OPS[op]
    except KeyError:
        raise ValueError(f"unknown operator {op!r}; expected one of {sorted(OPS)}")
    return f(a)


# -- closed forms on the centre ---------------------------------------------


def d_radial_closed(f: Scalar) -> Scalar:
    """[f(tau+h, rhat+h) - f(tau+h, rhat-h)] / (2*hbar)."""
    return ScalarCoeffs.d_radial(f)


def d_tau_closed(f: Scalar) -> Scalar:
    """Difference formula for d_tau with radial multipliers (rhat +/- hbar)."""
    return ScalarCoeffs.d_tau(f)


def laplacian_closed(f: Scalar) -> Scalar:
    """Closed Laplacian consistent with the compositional semantics.

    Equal to (1/rhat) d_r^2 (rhat f); the tau argument is shifted twice.
    """
    return d_radial_closed(d_radial_closed(f * RHAT)) / RHAT


def printed_laplacian_closed(f: Scalar) -> Scalar:
    """The closed Laplacian as printed (single tau shift); ledger only."""
    s_pp = f.shift_args(1, 2)
    s_pm = f.shift_args(1, -2)
    s_p0 = f.shift_args(1, 0)
    return (s_pp + s_pm - s_p0 * 2) / (HBAR**2 * 4) + (s_pp - s_pm) / (
        HBAR * RHAT * 2
    )


def theta_multiplicative(a: AElement, b: AElement) -> bool:
    """Exact check of theta(a*b) == theta(a) @ theta(b)."""
    return theta(a * b) == theta(a) @ theta(b)
