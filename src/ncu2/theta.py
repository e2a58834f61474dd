"""The multiplicative 4x4 derivative matrix and the named QPD on A_h.

The map theta sends an element a to the matrix

    i*hbar * [[d^_t a,  d_x a,  d_y a,  d_z a ],
              [-d_x a,  d^_t a, -d_z a, d_y a ],
              [-d_y a,  d_z a,  d^_t a, -d_x a],
              [-d_z a, -d_y a,  d_x a,  d^_t a]]

and preserves products.  It is computed multiplicatively from the
classical actions on the generators and the closed difference formulas
on central functions.  With X = x E_x + y E_y + z E_z, theta(c) =
(c + hbar d_tau c) + (i hbar/rhat) d_radial c X, which regroups by the
shifted coefficients c+- = c(tau+hbar, rhat+-hbar) as

    theta(c*m) = c+ P_m + c- M_m,
    P_m = ((rhat+hbar) theta(m) + i X theta(m)) / (2 rhat),
    M_m = ((rhat-hbar) theta(m) - i X theta(m)) / (2 rhat),

with P_m and M_m of each bare monomial cached once, with Scalar
coefficients, for c a Scalar or a FuncExpr alike.  Every individual
derivative is read back from a matrix entry.  The compositional route is
the ground truth for the radial derivative, the Laplacian and the
operator Q = x d_x + y d_y + z d_z; the printed closed forms are kept
alongside for comparison.
"""

from __future__ import annotations

from .scalars import HBAR, I, ONE, RHAT, Scalar
from .u2 import AElement, sum_of_products

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


def _quaternion_table():
    """{(g, h): (sign, k)} with E_g E_h = sign * E_k for g, h in 1..3,
    index 0 standing for the identity: 4x4 integer products of ``_E``."""
    units = [tuple(tuple(int(i == j) for j in range(4)) for i in range(4))]
    units += [_E[n] for n in "xyz"]
    signed = {
        tuple(tuple(s * v for v in row) for row in u): (s, k)
        for k, u in enumerate(units)
        for s in (1, -1)
    }
    table = {}
    for g, a in enumerate(units[1:], start=1):
        for h, b in enumerate(units[1:], start=1):
            p = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)
            if p not in signed:
                raise ValueError(f"E_{g} E_{h} is not +-I or +-E_k: check the _E patterns")
            table[g, h] = signed[p]
    return table


_QTAB = _quaternion_table()


class ThetaMatrix:
    """4x4 matrix over A_h; the image of an element under theta.

    Every matrix in the image of theta (and every product of such) has
    the quaternionic shape c0*I + c1*E_x + c2*E_y + c3*E_z, so only the
    four components are stored.  ``rows()`` expands the dense matrix;
    ``@`` composes through the component table.
    """

    __slots__ = ("comps",)

    # read by perfbench/selftest.py's _corrupt, which calls
    # ThetaMatrix.identity(reference.ring); nothing in ncu2 reads either
    ring = None

    def __init__(self, comps):
        self.comps = tuple(comps)

    @classmethod
    def zero(cls):
        z = AElement()
        return cls((z, z, z, z))

    @classmethod
    def identity(cls, _ignored=None):
        z = AElement()
        return cls((AElement.from_scalar(ONE), z, z, z))

    def __add__(self, other):
        return ThetaMatrix([a + b for a, b in zip(self.comps, other.comps)])

    def __matmul__(self, other):
        # component k collects sign * a[g] * b[h] over E_g E_h = sign * E_k
        a, b = self.comps, other.comps
        pairs = [[(1, a[0], b[k])] for k in range(4)]
        for g in range(1, 4):
            pairs[g].append((1, a[g], b[0]))
            for h in range(1, 4):
                sign, k = _QTAB[g, h]
                pairs[k].append((sign, a[g], b[h]))
        return ThetaMatrix([sum_of_products(p) for p in pairs])

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
        z = AElement()
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


# -- closed forms on the centre, for a Scalar or a FuncExpr c ---------------
#
# The d_tau multipliers are (rhat +/- hbar), which is forced by
# d_tau(tau) = 1 and d_tau(rhat) = hbar/rhat.

_INV_2H = ONE / (HBAR * 2)
_INV_2RH = ONE / (RHAT * HBAR * 2)


def d_radial_closed(c):
    """[c(tau+h, rhat+h) - c(tau+h, rhat-h)] / (2*hbar)."""
    return (c.shift_args(1, 1) - c.shift_args(1, -1)) * _INV_2H


def d_tau_closed(c):
    """Difference formula for d_tau with radial multipliers (rhat +/- hbar)."""
    return (
        c.shift_args(1, 1) * (RHAT + HBAR)
        + c.shift_args(1, -1) * (RHAT - HBAR)
        - c * (RHAT * 2)
    ) * _INV_2RH


# -- theta ---------------------------------------------------------------------

_ZERO = AElement()
_IH_ELEMENT = AElement.from_scalar(_IH)
# theta(x), theta(y), theta(z), and X = x E_x + y E_y + z E_z
_GENS = {
    name: ThetaMatrix(
        [AElement.gen(name)] + [_IH_ELEMENT if j == k else _ZERO for j in (1, 2, 3)]
    )
    for k, name in enumerate("xyz", start=1)
}
_XMAT = ThetaMatrix([_ZERO] + [AElement.gen(n) for n in "xyz"])

# the weights of theta(m) and of X theta(m) in P_m and in M_m
_PM_WEIGHTS = (
    ((RHAT + HBAR) / (RHAT * 2), I / (RHAT * 2)),
    ((RHAT - HBAR) / (RHAT * 2), -I / (RHAT * 2)),
)

# (P_m, M_m) of bare monomials m, with Scalar coefficients
_CACHE = {}


def _theta_mono(mono):
    """(P_m, M_m) of a bare monomial m = x^p y^q z^e; cached."""
    try:
        return _CACHE[mono]
    except KeyError:
        pass
    th = ThetaMatrix.identity()
    for name, k in zip("xyz", mono):
        for _ in range(k):
            th = th @ _GENS[name]
    xth = _XMAT @ th
    _CACHE[mono] = pm = tuple(
        ThetaMatrix([t.mul_scalar(u) + x.mul_scalar(v) for t, x in zip(th.comps, xth.comps)])
        for u, v in _PM_WEIGHTS
    )
    return pm


def theta(a: AElement) -> ThetaMatrix:
    """The multiplicative matrix of an element of A_h: each component is
    one sum of products, c+ P_m + c- M_m over the terms c*m."""
    pairs = ([], [], [], [])
    for mono, c in a.terms.items():
        pm, mm = _theta_mono(mono)
        cp = AElement.from_coeff(c.shift_args(1, 1))
        cm = AElement.from_coeff(c.shift_args(1, -1))
        for k in range(4):
            pairs[k].append((1, cp, pm.comps[k]))
            pairs[k].append((1, cm, mm.comps[k]))
    return ThetaMatrix([sum_of_products(p) for p in pairs])


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
    out = AElement()
    for k, name in enumerate("xyz", start=1):
        out = out + AElement.gen(name) * th.comps[k].mul_scalar(_INV_IH)
    return out


def radial_extend(a: AElement) -> AElement:
    """Radial derivative on all of A_h via d_r := (rhat/(rhat^2-hbar^2)) Q."""
    return q_op(a).mul_scalar(RHAT / (RHAT**2 - HBAR**2))


def laplacian(a: AElement) -> AElement:
    """Quantum Laplacian d_x^2 + d_y^2 + d_z^2, compositionally."""
    out = AElement()
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


# -- closed Laplacians -----------------------------------------------------


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
