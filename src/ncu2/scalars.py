"""Exact coefficient tower: Gaussian rationals and rational functions.

Everything central lives here.  A :class:`Scalar` is an exact rational
function in the three commuting symbols ``tau``, ``rhat`` and ``hbar``
over the Gaussian rationals Q(i).  The deformation parameter ``h`` is
not stored separately: ``h = 2*i*hbar`` throughout.

Scalars are kept in a canonical reduced form: the numerator is a sparse
polynomial and the denominator a multiset of monic irreducible factors.
Cancellation is done by trial exact division against those factors,
which is cheap and keeps gcd(num, den) = 1 as long as the factors are
irreducible over Q(i).  Factorisation (needed only when inverting a
non-monomial scalar) is delegated to sympy and cached.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy
from sympy.polys.domains import QQ_I
from sympy.polys.rings import ring as _make_ring

_RING, _TAU, _RHAT, _HBAR = _make_ring("tau,rhat,hbar", QQ_I)
_ONE_P = _RING.one
_ZERO_P = _RING.zero


class ScalarError(ArithmeticError):
    pass


class DivisionByZero(ScalarError):
    pass


class PoleAtZero(ScalarError):
    """Raised by classical_limit on a scalar with a pole at hbar = 0."""


def _fkey(p):
    # deterministic sort key for denominator factors
    return tuple(
        sorted(
            (m, (g.x.numerator, g.x.denominator, g.y.numerator, g.y.denominator))
            for m, g in p.terms()
        )
    )


def _monic(p):
    """Split p into (monic polynomial, leading Gaussian coefficient)."""
    lc = p.LC
    if lc == QQ_I.one:
        return p, QQ_I.one
    return p.quo_ground(lc), lc


@lru_cache(maxsize=4096)
def _factor_poly(p):
    """Monic irreducible factors of a PolyElement over Q(i).

    Returns (constant in QQ_I, tuple of (monic factor, exponent)).
    """
    if not p:
        raise DivisionByZero("cannot factor the zero polynomial")
    const, factors = sympy.factor_list(p.as_expr(), gaussian=True)
    re, im = const.as_real_imag()
    c = QQ_I.new(Fraction(str(re)), Fraction(str(im)))
    out = []
    for f, e in factors:
        e = int(e)
        fp = _RING.from_expr(f)
        fp, lc = _monic(fp)
        c = c * lc**e
        out.append((fp, e))
    out.sort(key=lambda fe: _fkey(fe[0]))
    return c, tuple(out)


@lru_cache(maxsize=4096)
def _linear_split(f):
    """Decompose f = v + g with v a variable absent from g, or None.

    Denominator factors are monic, so factors linear in some variable
    admit synthetic division, which is much cheaper than long division.
    """
    degs = f.degrees()
    for v in range(len(degs)):
        if degs[v] != 1:
            continue
        vmono = tuple(1 if k == v else 0 for k in range(len(degs)))
        if f.get(vmono) != QQ_I.one:
            continue
        rest = {}
        ok = True
        for mono, cf in f.terms():
            if mono == vmono:
                continue
            if mono[v]:
                ok = False
                break
            rest[mono] = cf
        if ok:
            return v, -_RING.from_dict(rest)
    return None


# A cheap, sound divisibility pre-filter: evaluate the numerator at a
# fixed point lying on the zero set of the linear factor, over GF(p)
# with p = 1 mod 4 so that i has a square root.  A nonzero value proves
# the factor does not divide; zero falls through to exact division.
# It stays because it pays: one in-process pass over the seed-0
# theta-mult benchmark pool (22 pairs, cold caches) took 6.4-6.8 s with
# it and 12.6-13.8 s without it (two runs each, CPython 3.11 on 2
# shared cores).
_P = 998244353
_IMOD = pow(3, (_P - 1) // 4, _P)
_PTS = (123456789, 362436069, 521288629)


@lru_cache(maxsize=1 << 15)
def _minv(d):
    d %= _P
    return pow(d, -1, _P) if d else None


def _gmod(g):
    xi = _minv(g.x.denominator)
    yi = _minv(g.y.denominator)
    if xi is None or yi is None:
        return None
    return (g.x.numerator * xi + _IMOD * g.y.numerator * yi) % _P


_MONOVAL = {}


def _monoval(pt, mono):
    key = pt + mono
    v = _MONOVAL.get(key)
    if v is None:
        v = 1
        for val, e in zip(pt, mono):
            if e:
                v = v * pow(val, e, _P) % _P
        _MONOVAL[key] = v
    return v


def _pmods(poly):
    """Modular images of the coefficients, or None on a bad prime."""
    out = []
    for mono, g in poly.terms():
        gm = _gmod(g)
        if gm is None:
            return None
        out.append((mono, gm))
    return out


def _peval(poly, pt):
    mods = _pmods(poly)
    if mods is None:
        return None
    return _eval_mods(mods, pt)


def _eval_mods(mods, pt):
    tot = 0
    for mono, gm in mods:
        tot += gm * _monoval(pt, mono)
    return tot % _P


@lru_cache(maxsize=4096)
def _root_point(v, r):
    """A GF(p) point with coordinate v set to r's value there, or None."""
    rv = _peval(r, _PTS)
    if rv is None:
        return None
    return _PTS[:v] + (rv,) + _PTS[v + 1 :]


def _synthetic_quo(num, v, r):
    """Exact quotient num / (v - r), or None if the division is inexact."""
    slices = {}
    for mono, cf in num.terms():
        e = mono[v]
        m0 = mono[:v] + (0,) + mono[v + 1 :]
        slices.setdefault(e, {})[m0] = cf
    d = max(slices)
    parts = [_RING.from_dict(slices.get(e, {})) for e in range(d + 1)]
    quo = {}
    b = parts[d]
    for k in range(d, 0, -1):
        for mono, cf in b.terms():
            quo[mono[:v] + (k - 1,) + mono[v + 1 :]] = cf
        b = parts[k - 1] + r * b
    if b:  # nonzero remainder
        return None
    return _RING.from_dict(quo)


def _cancel(num, den):
    """Reduce num against the factored denominator (dict factor -> exp)."""
    if not num:
        return num, {}
    mods = False  # modular image of num, computed lazily, False = stale
    for f in list(den):
        e = den[f]
        fdegs = f.degrees()
        lin = _linear_split(f)
        while e > 0:
            # cheap necessary condition: degrees are additive, so a factor
            # cannot divide a numerator of smaller degree in any variable
            if any(a < b for a, b in zip(num.degrees(), fdegs)):
                break
            if lin is not None:
                pt = _root_point(lin[0], lin[1])
                if pt is not None:
                    if mods is False:
                        mods = _pmods(num)
                    if mods is not None and _eval_mods(mods, pt):
                        break  # provably not divisible
                q = _synthetic_quo(num, lin[0], lin[1])
                if q is None:
                    break
            else:
                q, r = num.div(f)
                if r:
                    break
            num = q
            mods = False
            e -= 1
        if e:
            den[f] = e
        else:
            del den[f]
    return num, den


class Scalar:
    """Element of the field Q(i)(tau, rhat, hbar), exact and canonical."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, value=0):
        if isinstance(value, (int, Fraction)):
            value = gauss(value)
        elif not isinstance(value, Scalar):
            raise TypeError(f"cannot build Scalar from {value!r}")
        self.num, self.den = value.num, value.den
        self._hash = None

    @classmethod
    def _make(cls, num, den):
        self = object.__new__(cls)
        self.num = num
        self.den = tuple(den) if num else ()
        self._hash = None
        return self

    @classmethod
    def _normalized(cls, num, den_dict):
        num, den = _cancel(num, dict(den_dict))
        return cls._make(num, tuple(sorted(den.items(), key=lambda fe: _fkey(fe[0]))))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return Scalar._normalized(self.num + other.num, dict(self.den))
        d1, d2 = dict(self.den), dict(other.den)
        lcm = dict(d1)
        for f, e in d2.items():
            if lcm.get(f, 0) < e:
                lcm[f] = e
        m1 = _ONE_P
        m2 = _ONE_P
        for f, e in lcm.items():
            k = e - d1.get(f, 0)
            if k:
                m1 = m1 * f**k
            k = e - d2.get(f, 0)
            if k:
                m2 = m2 * f**k
        num = self.num * m1 + other.num * m2
        if not num:
            return ZERO
        # an irreducible factor can divide the sum only when neither
        # summand is divisible by it, i.e. when its exponent is the same
        # in both denominators; everything else stays reduced
        cand = [f for f, e in d1.items() if d2.get(f) == e]
        if cand:
            num, left = _cancel(num, {f: d1[f] for f in cand})
            for f in cand:
                if f in left:
                    lcm[f] = left[f]
                else:
                    del lcm[f]
        return Scalar._make(
            num, tuple(sorted(lcm.items(), key=lambda fe: _fkey(fe[0])))
        )

    __radd__ = __add__

    def __neg__(self):
        return Scalar._make(-self.num, self.den)

    def __sub__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_scalar(other) + (-self)

    def __mul__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if other.num.is_ground and not other.den:
            return Scalar._make(self.num.mul_ground(other.num.LC), self.den)
        if self.num.is_ground and not self.den:
            return Scalar._make(other.num.mul_ground(self.num.LC), other.den)
        # both operands are reduced and the denominator factors are
        # irreducible, so cancellation can only happen cross-wise
        n1, d2 = _cancel(self.num, dict(other.den))
        n2, den = _cancel(other.num, dict(self.den))
        for f, e in d2.items():
            den[f] = den.get(f, 0) + e
        return Scalar._make(
            n1 * n2, tuple(sorted(den.items(), key=lambda fe: _fkey(fe[0])))
        )

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self.num:
            raise DivisionByZero("inverse of zero scalar")
        c, factors = _factor_poly(self.num)
        num = _ONE_P
        for f, e in self.den:
            num = num * f**e
        num = num.quo_ground(c)
        return Scalar._make(num, factors)

    def __truediv__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return _as_scalar(other) * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- calculus on the centre ----------------------------------------

    def shift_args(self, p: int, q: int) -> "Scalar":
        """Exact substitution tau -> tau + p*hbar, rhat -> rhat + q*hbar."""
        if p == 0 and q == 0:
            return self
        sub = [(_TAU, _TAU + p * _HBAR), (_RHAT, _RHAT + q * _HBAR)]
        num = self.num.compose(sub)
        den = {}
        for f, e in self.den:
            g, lc = _monic(f.compose(sub))
            if lc != QQ_I.one:
                num = num.quo_ground(lc**e)
            den[g] = den.get(g, 0) + e
        # an affine shift preserves irreducibility and reducedness
        return Scalar._make(num, tuple(sorted(den.items(), key=lambda fe: _fkey(fe[0]))))

    def classical_limit(self) -> "Scalar":
        """Substitute hbar = 0; raises PoleAtZero on a genuine pole."""
        num0 = self.num.compose(_HBAR, _ZERO_P)
        den0 = _ONE_P
        for f, e in self.den:
            f0 = f.compose(_HBAR, _ZERO_P)
            if not f0:
                raise PoleAtZero(f"{self} has a pole at hbar = 0")
            den0 = den0 * f0**e
        if not num0:
            return ZERO
        c, factors = _factor_poly(den0)
        return Scalar._normalized(num0.quo_ground(c), dict(factors))

    def evaluate(self, tau=0.0, rhat=0.0, hbar=0.0):
        """Numeric (binary64 complex) evaluation.

        The arguments may be numpy arrays: the result is then an array
        of the broadcast shape, and a denominator that vanishes at any
        one point raises.
        """
        import numpy as np  # exact arithmetic never needs numpy

        def ev(p):
            tot = 0j
            for (a, b, c), g in p.terms():
                tot += (
                    complex(float(g.x), float(g.y))
                    * tau**a
                    * rhat**b
                    * hbar**c
                )
            return tot

        dv = 1.0 + 0j
        for f, e in self.den:
            dv *= ev(f) ** e
        if np.any(dv == 0):
            raise DivisionByZero(f"denominator of {self} vanishes numerically")
        return ev(self.num) / dv

    def as_sympy(self) -> sympy.Expr:
        e = self.num.as_expr()
        for f, k in self.den:
            e = e / f.as_expr() ** k
        return e

    # -- printing -------------------------------------------------------

    def __str__(self):
        ns = _poly_str(self.num)
        if not self.den:
            return ns
        if len(self.num) > 1:
            ns = f"({ns})"
        parts = []
        for f, e in self.den:
            fs = _poly_str(f)
            if len(f) > 1:
                fs = f"({fs})"
            parts.append(fs if e == 1 else f"{fs}^{e}")
        ds = "*".join(parts)
        if len(parts) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    __repr__ = __str__


def _as_scalar(v):
    if isinstance(v, Scalar):
        return v
    if isinstance(v, (int, Fraction)):
        return Scalar(v)
    return NotImplemented


_VARNAMES = ("tau", "rhat", "hbar")


def _gauss_str(g) -> str:
    re, im = Fraction(g.x.numerator, g.x.denominator), Fraction(g.y.numerator, g.y.denominator)
    if im == 0:
        return str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    ims = "i" if im == 1 else ("-i" if im == -1 else f"{abs(im)}*i")
    sign = "+" if im > 0 else "-"
    if im not in (1, -1):
        return f"({re} {sign} {abs(im)}*i)"
    return f"({re} {sign} {ims.lstrip('-')})"


def _poly_str(p) -> str:
    if not p:
        return "0"
    pieces = []
    for mono, g in sorted(p.terms(), reverse=True):
        vars_ = [
            (f"{name}" if e == 1 else f"{name}^{e}")
            for name, e in zip(_VARNAMES, mono)
            if e
        ]
        gs = _gauss_str(g)
        if vars_:
            if gs == "1":
                term = "*".join(vars_)
            elif gs == "-1":
                term = "-" + "*".join(vars_)
            else:
                term = gs + "*" + "*".join(vars_)
        else:
            term = gs
        pieces.append(term)
    out = pieces[0]
    for t in pieces[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def gauss(re, im=0) -> Scalar:
    """The constant re + i*im, with rational parts."""
    return Scalar._make(_RING.ground_new(QQ_I.new(Fraction(re), Fraction(im))), ())


ZERO = Scalar(0)
ONE = Scalar(1)
I = gauss(0, 1)
TAU = Scalar._make(_TAU, ())
RHAT = Scalar._make(_RHAT, ())
HBAR = Scalar._make(_HBAR, ())
H = I * HBAR * 2  # the algebra-level deformation parameter, h = 2i*hbar


def rational(num, den=1) -> Scalar:
    return Scalar(Fraction(num, den))


def solve2(rows):
    """The (u, v) with a*u + b*v == c on every row (a, b, c), or None.

    The first pair of rows with a nonzero determinant gives the only
    candidate, which is then checked against every row.  None means
    the rows are inconsistent or do not determine (u, v).
    """
    rows = list(rows)
    for k, (a1, b1, c1) in enumerate(rows):
        for a2, b2, c2 in rows[k + 1 :]:
            det = a1 * b2 - b1 * a2
            if det:
                u = (c1 * b2 - b1 * c2) / det
                v = (a1 * c2 - a2 * c1) / det
                if all(a * u + b * v == c for a, b, c in rows):
                    return u, v
                return None
    return None
