"""Named identity suites with machine-readable ledgers.

Each suite re-derives a family of identities with the engine and
reports one ledger entry per identity: the engine's value, the
reference value it is checked against, and whether they agree.  Where a
commonly transcribed closed formula disagrees with the engine, both
forms are recorded; the engine derivation is authoritative because it
is certified against the defining relations.

The suites are deterministic given a seed.
"""

from __future__ import annotations

import random

from .scalars import H, HBAR, I, ONE, RHAT, Scalar, TAU, rational
from .glweyl import GlWeylElement, gl2
from .u2 import AElement, CHError, ScalarCoeffs, quantum_radius_square
from .shifts import FuncCoeffs, FuncExpr
from . import theta as th
from . import hedgehog as hh
from . import spinreps as sr


def _entry(id_, description, engine, reference, match, note=""):
    return {
        "id": id_,
        "description": description,
        "engine": str(engine),
        "reference": str(reference),
        "match": bool(match),
        "note": note,
    }


# -- random central functions -------------------------------------------------

_DEN_CHOICES = (None, RHAT, RHAT**2, RHAT - HBAR, RHAT + HBAR, RHAT * (RHAT - HBAR))


def random_central(rng: random.Random) -> Scalar:
    """A random rational central function of (tau, rhat, hbar)."""
    num = Scalar(0)
    for _ in range(rng.randint(1, 3)):
        term = rational(rng.randint(-4, 4) or 1)
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice((TAU, RHAT, HBAR))
        num = num + term
    if not num:
        num = ONE
    den = rng.choice(_DEN_CHOICES)
    return num if den is None else num / den


def random_monomial_element(rng: random.Random, ring=ScalarCoeffs, max_deg=4) -> AElement:
    """A degree <= max_deg monomial in x, y, z times a central function."""
    gens = [AElement.gen(n, ring) for n in "xyz"]
    t = AElement.from_scalar(random_central(rng), ring)
    for _ in range(rng.randint(0, max_deg)):
        t = t * gens[rng.randrange(3)]
    return t


# -- suites -------------------------------------------------------------------


def suite_perm_table(seed=0):
    """The 16 permutation relations of the m = 2 derivative algebra."""
    d = GlWeylElement.derivative
    hpa_a = d(2, 1, 1, hat=True)
    pa_b = d(2, 2, 1)
    pa_c = d(2, 1, 2)
    hpa_d = d(2, 2, 2, hat=True)
    a, b, c, dd = gl2()
    relations = [
        ("hpa_a.a", hpa_a, a, a * hpa_a + hpa_a * H),
        ("hpa_a.b", hpa_a, b, b * hpa_a + pa_c * H),
        ("hpa_a.c", hpa_a, c, c * hpa_a),
        ("hpa_a.d", hpa_a, dd, dd * hpa_a),
        ("pa_b.a", pa_b, a, a * pa_b + pa_b * H),
        ("pa_b.b", pa_b, b, b * pa_b + hpa_d * H),
        ("pa_b.c", pa_b, c, c * pa_b),
        ("pa_b.d", pa_b, dd, dd * pa_b),
        ("pa_c.a", pa_c, a, a * pa_c),
        ("pa_c.b", pa_c, b, b * pa_c),
        ("pa_c.c", pa_c, c, c * pa_c + hpa_a * H),
        ("pa_c.d", pa_c, dd, dd * pa_c + pa_c * H),
        ("hpa_d.a", hpa_d, a, a * hpa_d),
        ("hpa_d.b", hpa_d, b, b * hpa_d),
        ("hpa_d.c", hpa_d, c, c * hpa_d + pa_b * H),
        ("hpa_d.d", hpa_d, dd, dd * hpa_d + hpa_d * H),
    ]
    entries = []
    for name, der, gen, rhs in relations:
        lhs = der * gen
        entries.append(
            _entry(
                f"perm/{name}",
                f"normal ordering of {name}",
                lhs,
                rhs,
                lhs == rhs,
            )
        )
    return entries


def suite_ch(seed=0):
    """Cayley-Hamilton data with engine-determined central coefficients."""
    w, _, r2 = quantum_radius_square()
    c1 = w.c1_central()
    c2 = w.c2_central()
    t = I * TAU
    engine_c1 = t * 2 + H
    engine_c2 = t**2 + t * H + RHAT**2 - HBAR**2
    variant_c1 = t * 2 + HBAR  # a commonly transcribed variant; fails the check
    entries = [
        _entry("ch/c1", "first central coefficient (as 2t + h)", c1, engine_c1, c1 == engine_c1),
        _entry("ch/c2", "second central coefficient", c2, engine_c2, c2 == engine_c2),
        _entry(
            "ch/residual",
            "L^2 - c1 L + c2 I reduced to canonical form",
            "0" if w.residual_is_zero() else "nonzero",
            "0",
            w.residual_is_zero(),
        ),
        _entry(
            "ch/c1-variant",
            "engine c1 differs from the variant 2t + hbar, as expected",
            engine_c1,
            variant_c1,
            engine_c1 != variant_c1,
            "the variant does not annihilate L; the engine value is certified",
        ),
    ]
    rhat2 = AElement.from_scalar(RHAT**2)
    entries.append(
        _entry("ch/rhat2", "quantum radius squared from the discriminant", r2, rhat2, r2 == rhat2)
    )
    return entries


def suite_theta_mult(seed=0, pairs=200):
    """theta(ab) = theta(a) theta(b) on random pairs, exactly."""
    rng = random.Random(seed)
    entries = []
    bad = 0
    for k in range(pairs):
        a = random_monomial_element(rng)
        b = random_monomial_element(rng)
        if not th.theta_multiplicative(a, b):
            bad += 1
            entries.append(
                _entry(f"theta-mult/{k}", "multiplicativity failed", f"a={a}; b={b}", "equal matrices", False)
            )
    entries.append(
        _entry(
            "theta-mult/summary",
            f"{pairs} random pairs, exact matrix equality",
            f"{pairs - bad} passed",
            f"{pairs} passed",
            bad == 0,
        )
    )
    return entries


def suite_leibniz(seed=0, cases=20):
    """The two worked product rules, symbolically and on random functions."""
    ring = FuncCoeffs
    f = FuncExpr.symbol("f")
    fa = AElement.from_coeff(f, ring)
    x = AElement.gen("x", ring)
    y = AElement.gen("y", ring)
    z = AElement.gen("z", ring)
    inv_r = ONE / RHAT
    drf = FuncCoeffs.d_radial(f).mul_scalar(inv_r)
    dtf = FuncCoeffs.d_tau(f).mul_scalar(HBAR)
    lhs1 = th.d_x(x * fa)
    rhs1 = (x * x).mul_coeff(drf) + AElement.from_coeff(f + dtf, ring)
    lhs2 = th.d_x(y * fa)
    rhs2 = (y * x + z.mul_scalar(I * HBAR)).mul_coeff(drf)
    entries = [
        _entry(
            "leibniz/dx-xf",
            "d_x(x f) = (x^2/rhat) d_r f + f + hbar d_tau f",
            lhs1,
            rhs1,
            lhs1 == rhs1,
        ),
        _entry(
            "leibniz/dx-yf",
            "d_x(y f) = ((yx + i hbar z)/rhat) d_r f",
            lhs2,
            rhs2,
            lhs2 == rhs2,
        ),
    ]
    rng = random.Random(seed)
    bad = 0
    sring = ScalarCoeffs
    xs = AElement.gen("x", sring)
    ys = AElement.gen("y", sring)
    zs = AElement.gen("z", sring)
    for _ in range(cases):
        g = random_central(rng)
        ga = AElement.from_scalar(g, sring)
        dg = sring.d_radial(g) * inv_r
        ok1 = th.d_x(xs * ga) == (xs * xs).mul_coeff(dg) + AElement.from_scalar(
            g + sring.d_tau(g) * HBAR, sring
        )
        ok2 = th.d_x(ys * ga) == (ys * xs + zs.mul_scalar(I * HBAR)).mul_coeff(dg)
        if not (ok1 and ok2):
            bad += 1
    entries.append(
        _entry(
            "leibniz/random",
            f"both rules on {cases} random rational functions",
            f"{cases - bad} passed",
            f"{cases} passed",
            bad == 0,
        )
    )
    return entries


def suite_laplacian(seed=0, cases=50):
    """Radial Laplacian identity and the tau-shift bookkeeping."""
    rng = random.Random(seed)
    entries = []
    bad = 0
    for _ in range(cases):
        f = random_central(rng)
        lhs = th.laplacian(AElement.from_scalar(f))
        rhs = AElement.from_scalar(th.laplacian_closed(f))
        if lhs != rhs:
            bad += 1
    entries.append(
        _entry(
            "laplacian/radial",
            f"lap f = (1/rhat) d_r^2 (rhat f) on {cases} random f",
            f"{cases - bad} passed",
            f"{cases} passed",
            bad == 0,
        )
    )
    f = TAU * RHAT
    comp = th.laplacian_closed(f)
    single = th.printed_laplacian_closed(f)
    entries.append(
        _entry(
            "laplacian/tau-shift",
            "composing two radial derivatives shifts tau twice; the "
            "single-shift closed formula differs on f = tau*rhat",
            comp,
            single,
            comp != single,
            "engine (compositional) value is 2(tau + 2 hbar)/rhat; the "
            "single-shift variant gives 2(tau + hbar)/rhat",
        )
    )
    return entries


def suite_hedgehog(seed=0):
    """The paper's closed multipliers, then all nine components in span(E1, E2)."""
    red = hh.hedgehog_reduce()
    ring = FuncCoeffs
    x, y, z = (AElement.gen(n, ring) for n in "xyz")
    zsq = AElement.from_scalar(RHAT**2 - HBAR**2, ring) - x * x - y * y
    closed = (
        ("zx-factor", "(1,2,1) factors as sym(z,x) * E1", (1, 2, 1), hh.sym_product(z, x), 0),
        ("e2", "(1,2,3) reduces to E2 + z^2 E1", (1, 2, 3), zsq, 1),
    )
    entries = []
    for name, claim, key, u0, v0 in closed:
        _, u, v = red.components[key]
        v0 = AElement.from_scalar(Scalar(v0), ring)
        engine, reference = f"u = {u}; v = {v}", f"u = {u0}; v = {v0}"
        entries.append(
            _entry(f"hedgehog/{name}", f"component {claim}", engine, reference, u == u0 and v == v0)
        )
    e1 = AElement.from_coeff(red.e1, ring)
    e2 = AElement.from_coeff(red.e2, ring)
    for (mu, nu, i), (res, u, v) in sorted(red.components.items()):
        combo = u * e1 + v * e2
        entries.append(
            _entry(
                f"hedgehog/span-{mu}{nu}{i}",
                f"component ({mu},{nu},{i}) lies in span(E1, E2)",
                combo,
                res,
                combo == res,
                f"u = {u}; v = {v}",
            )
        )
    return entries


def suite_rep(seed=0):
    """Spin-representation cross checks."""
    entries = []
    hbar = 0.3
    worst = 0.0
    for two_j in range(1, 11):
        worst = max(worst, sr.radius_residual(two_j, hbar))
    entries.append(
        _entry(
            "rep/radius",
            "rhat = (2j+1) hbar for two_j in 1..10",
            f"max residual {worst:.3e}",
            "< 1e-10",
            worst < 1e-10,
        )
    )
    worst = 0.0
    for two_j in (1, 2):
        worst = max(worst, sr.ch_residual(two_j, 0.5, lam=0.7))
    entries.append(
        _entry(
            "rep/ch",
            "Cayley-Hamilton identity evaluated in spin 1/2 and spin 1",
            f"max residual {worst:.3e}",
            "< 1e-12",
            worst < 1e-12,
        )
    )
    return entries


SUITES = {
    "perm-table": suite_perm_table,
    "ch": suite_ch,
    "theta-mult": suite_theta_mult,
    "leibniz": suite_leibniz,
    "laplacian": suite_laplacian,
    "hedgehog": suite_hedgehog,
    "rep": suite_rep,
}


def run_suite(name: str, seed: int = 0):
    """Run a named suite; returns (entries, passed).

    A certification error becomes one failing entry, its message the note.
    """
    try:
        entries = SUITES[name](seed=seed)
    except (CHError, hh.ReductionError) as exc:
        what = "the suite stopped on a certification error"
        entries = [_entry(f"{name}/error", what, type(exc).__name__, "no error", False, str(exc))]
    return entries, all(e["match"] for e in entries)
