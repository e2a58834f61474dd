"""Noncommutative Yang-Mills layer and the hedgehog system.

The su(2) gauge field lives in A_h with coefficients that may contain
opaque profile functions.  Products of Lie-algebra components are
symmetrized, which restores the antisymmetry of the field strength that
naive noncommutative products would break.  Under the spherically
symmetric ansatz

    A_mu^i = eps(mu, i, j) x_j W(rhat),    phi^i = x_i F(rhat)

the Bogomol'nyi system collapses to two difference equations E1 = 0,
E2 = 0 on the profiles W and F.  ``hedgehog_reduce`` performs that
collapse symbolically: it writes each of the nine components (mu, nu, i),
mu < nu, as u*E1 + v*E2 with scalar-coefficient multipliers u, v,
solved exactly with ``scalars.solve2``.  ``march`` solves the resulting
recurrence numerically on the radial lattice of spacing hbar, with an
RK4 integration of the classical system as the limit oracle.  The march
compiles its per-node coefficients from ``profile_equations()``, so E1
and E2 are written down once, and the numbers solve exactly the
equations the reduction certifies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .scalars import HBAR, ONE, RHAT, Scalar, rational, solve2
from .shifts import FuncExpr
from .u2 import AElement
from .theta import d_radial_closed, d_tau_closed, d_x, d_y, d_z


class HedgehogError(Exception):
    pass


class ReductionError(HedgehogError):
    """The Bogomol'nyi residual does not factor through E1, E2."""


class SingularStepError(HedgehogError):
    """The march cannot take the step at some node.

    Either the 2x2 system there is numerically singular, or its solution
    is not finite: past the point where the forward march leaves the
    classical profile its values grow until binary64 overflows.  The
    message names the node as "at node N".
    """


class DomainError(HedgehogError):
    """The radial lattice left the domain r > hbar > 0, or its scale
    overflows binary64 in the stencil or the marching determinant."""


def eps(i: int, j: int, k: int) -> int:
    """Levi-Civita symbol on {1, 2, 3} with eps(1, 2, 3) = 1."""
    return (i - j) * (j - k) * (k - i) // 2


_HALF = rational(1, 2)
_GEN_NAMES = {1: "x", 2: "y", 3: "z"}


def _xgen(i: int) -> AElement:
    return AElement.gen(_GEN_NAMES[i])


def sym_product(u: AElement, v: AElement) -> AElement:
    """Symmetrized product (uv + vu)/2."""
    return (u * v + v * u).mul_scalar(_HALF)


_D = {1: d_x, 2: d_y, 3: d_z}


class GaugeField:
    """Spatial su(2) gauge field: components A_mu^i over A_h."""

    def __init__(self, components):
        self.components = dict(components)

    def component(self, mu: int, i: int) -> AElement:
        return self.components.get((mu, i), AElement())

    @classmethod
    def hedgehog(cls) -> "GaugeField":
        """The ansatz A_mu^i = eps(mu, i, j) x_j W(rhat)."""
        w = AElement.from_coeff(FuncExpr.symbol("W"))
        comps = {}
        for mu in (1, 2, 3):
            for i in (1, 2, 3):
                acc = AElement()
                for j in (1, 2, 3):
                    s = eps(mu, i, j)
                    if s:
                        t = _xgen(j) * w
                        acc = acc + (t if s > 0 else -t)
                comps[mu, i] = acc
        return cls(comps)


def hedgehog_scalar():
    """The triplet phi^i = x_i F(rhat) of the ansatz."""
    f = AElement.from_coeff(FuncExpr.symbol("F"))
    return {i: _xgen(i) * f for i in (1, 2, 3)}


class FieldStrength:
    """Components F_mu_nu^i with symmetrized quadratic term."""

    def __init__(self, A: GaugeField):
        self.A = A

    def component(self, mu: int, nu: int, i: int) -> AElement:
        A = self.A
        out = _D[mu](A.component(nu, i)) - _D[nu](A.component(mu, i))
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                s = eps(k, l, i)
                if s:
                    t = sym_product(A.component(mu, k), A.component(nu, l))
                    out = out + (t if s > 0 else -t)
        return out


def covariant_derivative(A: GaugeField, phi, lam: int, i: int) -> AElement:
    """nabla_lam phi^i = d_lam phi^i + eps(k, l, i) sym(A_lam^k, phi^l)."""
    out = _D[lam](phi[i])
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            s = eps(k, l, i)
            if s:
                t = sym_product(A.component(lam, k), phi[l])
                out = out + (t if s > 0 else -t)
    return out


def bogomolny_residual(A, phi, F: FieldStrength, mu: int, nu: int, i: int) -> AElement:
    """F_mu_nu^i - eps(mu, nu, lam) nabla_lam phi^i; zero on solutions."""
    out = F.component(mu, nu, i)
    for lam in (1, 2, 3):
        s = eps(mu, nu, lam)
        if s:
            t = covariant_derivative(A, phi, lam, i)
            out = out - (t if s > 0 else -t)
    return out


# -- the reduced system -------------------------------------------------------


def profile_equations():
    """The two reduced residuals E1, E2 as expressions in the profiles.

    E1 = -(1/rhat) d_r W + W^2 - (1/rhat) d_r F + F*W
    E2 = ((rhat^2-hbar^2)/rhat) d_r W + 2W + 2hbar d_tau W
         - F - hbar d_tau F - (rhat^2-hbar^2) F*W
    """
    w = FuncExpr.symbol("W")
    f = FuncExpr.symbol("F")
    inv_r = ONE / RHAT
    r2h2 = RHAT**2 - HBAR**2
    e1 = (
        -d_radial_closed(w).mul_scalar(inv_r)
        + w * w
        - d_radial_closed(f).mul_scalar(inv_r)
        + f * w
    )
    e2 = (
        d_radial_closed(w).mul_scalar(r2h2 * inv_r)
        + w.mul_scalar(Scalar(2))
        + d_tau_closed(w).mul_scalar(HBAR * 2)
        - f
        - d_tau_closed(f).mul_scalar(HBAR)
        - (f * w).mul_scalar(r2h2)
    )
    return e1, e2


def _solve_span(res: AElement, e1: FuncExpr, e2: FuncExpr):
    """Write res = u*E1 + v*E2 with scalar-coefficient AElements u, v,
    their coefficients lifted to FuncExpr like those of res.

    Central multipliers act coefficientwise on the monomial basis, so
    the problem splits per monomial into a 2-unknown linear solve over
    the field of central functions, with one row per profile term of
    E1, E2 or the residual coordinate.  Raises ReductionError when a
    residual coordinate falls outside the span.
    """
    span_keys = set(e1.terms) | set(e2.terms)
    u = {}
    v = {}
    for m, c in res.terms.items():
        keys = sorted(span_keys | set(c.terms))
        sol = solve2((e1.coefficient(k), e2.coefficient(k), c.coefficient(k)) for k in keys)
        if sol is None:
            raise ReductionError(
                f"residual coordinate at monomial {m} is outside span(E1, E2): {c}"
            )
        um, vm = sol
        if um:
            u[m] = FuncExpr.from_scalar(um)
        if vm:
            v[m] = FuncExpr.from_scalar(vm)
    return AElement(u), AElement(v)


_INDEX_PAIRS = ((1, 2), (1, 3), (2, 3))


@dataclass
class HedgehogReduction:
    """The certified Bogomol'nyi reduction of the hedgehog ansatz.

    ``components[mu, nu, i]`` is ``(residual, u, v)`` for each of the
    nine components with mu < nu: the Bogomol'nyi residual and the
    scalar-coefficient multipliers with residual = u*E1 + v*E2.
    """

    e1: FuncExpr
    e2: FuncExpr
    components: dict


def hedgehog_reduce() -> HedgehogReduction:
    """Derive the profile equations from the Bogomol'nyi components.

    Solves every component (mu, nu, i), mu < nu in {1, 2, 3} and i in
    1..3, as u*E1 + v*E2 over scalar-coefficient elements of A_h, and
    raises ReductionError if one lies outside span(E1, E2).  The paper's
    closed forms are (u, v) = (sym(z, x), 0) for (1,2,1) and
    (rhat^2 - hbar^2 - x^2 - y^2, 1), i.e. (z^2, 1), for (1,2,3); the
    identity ledger compares the solved multipliers with them.
    """
    A = GaugeField.hedgehog()
    phi = hedgehog_scalar()
    Fs = FieldStrength(A)
    e1, e2 = profile_equations()
    components = {}
    for mu, nu in _INDEX_PAIRS:
        for i in (1, 2, 3):
            res = bogomolny_residual(A, phi, Fs, mu, nu, i)
            components[mu, nu, i] = (res, *_solve_span(res, e1, e2))
    return HedgehogReduction(e1, e2, components)


# -- numeric lattice solver ---------------------------------------------------


@dataclass
class LatticeSolution:
    """Numeric profiles on the uniform radial lattice r_k = r0 + k*dr."""

    hbar: float
    r0: float
    dr: float
    W: np.ndarray
    F: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def r(self) -> np.ndarray:
        """The lattice radii, computed on each access.

        Not stored: a copy would add half again to the memory of every
        solution, and callers that keep many solutions pay for it.
        """
        return self.r0 + self.dr * np.arange(len(self.W))

    def write_csv(self, fh) -> None:
        fh.write("k,r,W,F\n")
        r = self.r
        for k in range(len(r)):
            fh.write(
                f"{k},{r[k]:.17g},{self.W[k]:.17g},{self.F[k]:.17g}\n"
            )

    def to_json_obj(self) -> dict:
        r = self.r
        return {
            "hbar": self.hbar,
            "r0": float(r[0]),
            "meta": self.meta,
            "rows": [
                {"k": k, "r": float(r[k]), "W": float(self.W[k]), "F": float(self.F[k])}
                for k in range(len(r))
            ],
        }

    def write_json(self, fh) -> None:
        json.dump(self.to_json_obj(), fh, indent=2)
        fh.write("\n")


# The six term shapes of E1/E2 as sorted (profile, node offset) tuples.
# The profiles are tau-independent, so the atom (name, p, q) is the value
# at node k + q.  The first two shapes multiply the unknowns W_{k+1} and
# F_{k+1}; the rest are known once nodes k - 1 and k are.
_SHAPES = (
    (("W", 1),),
    (("F", 1),),
    (("W", -1),),
    (("F", -1),),
    (("W", 0), ("W", 0)),
    (("F", 0), ("W", 0)),
)


def _stencil(r, h):
    """Coefficients of E1 and E2 at the nodes r: per equation, one array
    for each shape in ``_SHAPES``.

    Compiled from ``profile_equations()``, so the march solves exactly
    the equations ``hedgehog_reduce`` certifies.  Raises HedgehogError
    on a term outside ``_SHAPES`` or a coefficient that is not real, and
    DomainError on one that overflows binary64.
    """
    out = []
    for e in profile_equations():
        coeffs = {s: np.zeros_like(r) for s in _SHAPES}
        for key, c in e.terms.items():
            shape = tuple(sorted((name, q) for name, _, q in key))
            if shape not in coeffs:
                raise HedgehogError(f"the march has no stencil slot for the term {key}")
            try:
                v = c.evaluate(rhat=r, hbar=h)
            except OverflowError:
                v = None
            if v is None or not np.all(np.isfinite(v)):
                raise DomainError(f"coefficient {c} of the term {key} overflows binary64 at hbar = {h}")
            if np.any(v.imag):
                raise HedgehogError(f"coefficient {c} of the term {key} is not real")
            coeffs[shape] += v.real
        out.append([coeffs[s] for s in _SHAPES])
    return out


def _march(init, h, r0, n):
    """The march itself: a LatticeSolution, or the HedgehogError to raise.

    Raised here, the error would keep this frame, and with it every
    coefficient array, alive in its traceback.
    """
    W = np.empty(n + 1)
    F = np.empty(n + 1)
    W[0], F[0], W[1], F[1] = init
    # _stencil's coefficients are finite, so a det that is not finite is
    # their product overflowing binary64: the input's scale left the domain
    with np.errstate(over="ignore", invalid="ignore"):
        (a11, a12, *known1), (a21, a22, *known2) = _stencil(r0 + h * np.arange(1, n), h)
        det = a11 * a22 - a12 * a21
    bad = np.flatnonzero(~np.isfinite(det))
    if bad.size:
        return DomainError(f"the marching determinant overflows binary64 at node {int(bad[0]) + 1}, hbar = {h}")
    small = np.flatnonzero(np.abs(det) < 1e-12)
    if small.size:
        k = int(small[0])
        return SingularStepError(
            f"marching system singular at node {k + 1} (|det| = {abs(det[k]):.3e})"
        )
    # per node: the coefficients of W_{k-1}, F_{k-1}, W_k^2 and F_k W_k in
    # E1 (p1 .. t1) and E2 (p2 .. t2); a step that overflows is caught by
    # the finiteness check, so numpy's overflow warnings are only noise
    p1, q1, s1, t1 = known1
    p2, q2, s2, t2 = known2
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            i = k - 1
            wm, fm, w, f = W[i], F[i], W[k], F[k]
            b1 = p1[i] * wm + q1[i] * fm + s1[i] * w * w + t1[i] * f * w
            b2 = p2[i] * wm + q2[i] * fm + s2[i] * w * w + t2[i] * f * w
            wp = (-b1 * a22[i] + b2 * a12[i]) / det[i]
            fp = (-a11[i] * b2 + a21[i] * b1) / det[i]
            if not (math.isfinite(wp) and math.isfinite(fp)):
                return SingularStepError(
                    f"marching step at node {k} is not finite (W = {wp}, F = {fp})"
                )
            W[k + 1] = wp
            F[k + 1] = fp
    return LatticeSolution(
        hbar=h, r0=r0, dr=h, W=W, F=F, meta={"init": init, "status": "completed"}
    )


def check_domain(hbar: float, r0: float) -> None:
    """Raise DomainError unless the lattice starts inside r0 > hbar > 0."""
    if not hbar > 0:
        raise DomainError(f"hbar must be positive, got {hbar}")
    if not r0 > hbar:
        raise DomainError(f"need r0 > hbar, got r0 = {r0}, hbar = {hbar}")


def march(init, hbar: float, r0: float, steps: int) -> LatticeSolution:
    """Solve E1 = E2 = 0 forward on the lattice r_k = r0 + k*hbar.

    ``init`` supplies (W0, F0, W1, F1) at the first two nodes.  At each
    interior node the two equations are affine in (W_{k+1}, F_{k+1});
    the 2x2 system is solved exactly in binary64.  Raises
    SingularStepError at the first node where that system is singular or
    its solution is not finite, and DomainError when its coefficients or
    its determinant overflow binary64, so no row returned is NaN or infinite.
    """
    check_domain(hbar, r0)
    n = int(steps)
    if n < 1:
        raise HedgehogError(f"need at least one step, got {steps}")
    init = [float(v) for v in init]
    if not all(map(math.isfinite, init)):
        raise HedgehogError(f"init values must be finite, got {init}")
    sol = _march(init, hbar, r0, n)
    if isinstance(sol, HedgehogError):
        raise sol
    return sol


# -- classical oracle ---------------------------------------------------------


def classical_rhs(r: float, w: float, f: float):
    """(W', F') of the classical Bogomol'nyi hedgehog system.

    From -W'/r + W^2 = F'/r - F W and r W' + 2W = F + r^2 F W:
    W' = (F + r^2 F W - 2W)/r and F' = r(W^2 + F W) - W'.
    """
    if r == 0:
        raise DomainError("classical system is singular at r = 0")
    wp = (f + r * r * f * w - 2 * w) / r
    fp = r * (w * w + f * w) - wp
    return wp, fp


def classical_ode(init, r0: float, r1: float, steps: int) -> LatticeSolution:
    """RK4 integration of the classical system on [r0, r1]."""
    w, f = (float(v) for v in init)
    n = int(steps)
    h = (r1 - r0) / n
    r = r0 + h * np.arange(n + 1)
    W = np.empty(n + 1)
    F = np.empty(n + 1)
    W[0], F[0] = w, f
    for k in range(n):
        rk = r[k]
        k1 = classical_rhs(rk, w, f)
        k2 = classical_rhs(rk + h / 2, w + h / 2 * k1[0], f + h / 2 * k1[1])
        k3 = classical_rhs(rk + h / 2, w + h / 2 * k2[0], f + h / 2 * k2[1])
        k4 = classical_rhs(rk + h, w + h * k3[0], f + h * k3[1])
        w += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        f += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        W[k + 1], F[k + 1] = w, f
    return LatticeSolution(hbar=0.0, r0=r0, dr=h, W=W, F=F, meta={"method": "rk4"})


def bps_profile(r: float):
    """The exact classical solution W = (K-1)/r^2, F = -H/r^2.

    K = r/sinh(r) and H = r coth(r) - 1 satisfy r K' = -K H and
    r H' - H = 1 - K^2, which is this system in the standard form.
    Where sinh(r) overflows binary64 (r above about 710.5), K is
    computed as 2r e^-r / (1 - e^-2r).
    """
    try:
        K = r / math.sinh(r)
    except OverflowError:
        K = 2.0 * r * math.exp(-r) / (1.0 - math.exp(-2.0 * r))
    Hh = r / math.tanh(r) - 1.0
    return (K - 1.0) / (r * r), -Hh / (r * r)


def classical_seed(r0: float, hbar: float):
    """Two-node initial data (W0, F0, W1, F1) from the BPS profile."""
    w0, f0 = bps_profile(r0)
    w1, f1 = bps_profile(r0 + hbar)
    return (w0, f0, w1, f1)
