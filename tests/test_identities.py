"""Identity ledgers: a wrong engine ingredient must fail its suite.

Each mutation patches one ingredient the way a transcription slip
would, and the suite must report it as a failing entry, not raise, and
``ncu2 verify`` must exit 1.  No patch reaches a memo cache
(``sparse.normal_order``, ``u2._zreduce``) or the shared ``theta._CACHE``:
a patch of the cached theta matrices swaps in an empty cache for the
test, so nothing wrong outlives it.
"""

import functools
import random

import pytest

from ncu2 import glweyl, hedgehog, identities, theta, u2
from ncu2.cli import main
from ncu2.identities import random_central, run_suite
from ncu2.scalars import H, HBAR, ONE
from ncu2.shifts import FuncExpr
from ncu2.theta import d_tau_closed


def _halve_e2_d_tau_w(monkeypatch):
    e1, e2 = hedgehog.profile_equations()
    # E2 holds 2 hbar d_tau W; take hbar d_tau W away
    wrong = e2 - d_tau_closed(FuncExpr.symbol("W")).mul_scalar(HBAR)
    monkeypatch.setattr(hedgehog, "profile_equations", lambda: (e1, wrong))


def _flip_generating_matrix_entry(monkeypatch):
    right = u2.generating_matrix

    def wrong():
        L = right()
        L[1][0] = -L[1][0]
        return L

    monkeypatch.setattr(u2, "generating_matrix", wrong)


@pytest.mark.parametrize(
    "suite, mutate",
    [("hedgehog", _halve_e2_d_tau_w), ("ch", _flip_generating_matrix_entry)],
)
def test_a_wrong_ingredient_fails_the_suite(suite, mutate, monkeypatch, capsys):
    assert run_suite(suite)[1]
    mutate(monkeypatch)
    entries, passed = run_suite(suite)
    assert not passed
    assert any(not e["match"] and e["note"] for e in entries)
    assert main(["verify", "--suite", suite]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_a_wrong_permutation_rule_fails_the_perm_table(monkeypatch, capsys):
    assert run_suite("perm-table")[1]
    right = glweyl._rewrite_pair
    d11_l11 = (glweyl.dsym(1, 1), glweyl.lsym(1, 1))

    # d[1,1] l[1,1] = l[1,1] d[1,1] + 1 + h d[1,1] gets the weight h + hbar^2;
    # a new rule object misses normal_order's cache, so no stale word survives
    def wrong(s1, s2):
        out = right(s1, s2)
        if (s1, s2) == d11_l11:
            out = [(w, H + HBAR**2 if c == H else c) for w, c in out]
        return out

    monkeypatch.setattr(glweyl, "_rewrite_pair", wrong)
    entries, passed = run_suite("perm-table")
    assert not passed
    assert [e["id"] for e in entries if not e["match"]] == ["perm/hpa_a.a"]
    assert main(["verify", "--suite", "perm-table"]) == 1
    assert "FAIL perm/hpa_a.a" in capsys.readouterr().out


def _flip_the_cross_term_of_m(monkeypatch):
    # M_m = ((rhat - hbar) theta(m) - i X theta(m)) / (2 rhat) gets + i X theta(m)
    plus, (diag, cross) = theta._PM_WEIGHTS
    monkeypatch.setattr(theta, "_PM_WEIGHTS", (plus, (diag, -cross)))
    monkeypatch.setattr(theta, "_CACHE", {})


@pytest.mark.parametrize("suite", ["theta-mult", "leibniz", "laplacian"])
def test_a_wrong_theta_matrix_fails_the_suite(suite, monkeypatch, capsys):
    # 20 pairs instead of the 200 that test_03 keeps
    monkeypatch.setitem(identities.SUITES, "theta-mult", functools.partial(identities.suite_theta_mult, pairs=20))
    assert run_suite(suite)[1]
    _flip_the_cross_term_of_m(monkeypatch)
    entries, passed = run_suite(suite)
    assert not passed
    assert any(not e["match"] for e in entries)
    assert main(["verify", "--suite", suite]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_ledger_entries_are_computed():
    entries, passed = run_suite("hedgehog")
    assert passed
    ids = [e["id"] for e in entries]
    spans = [f"hedgehog/span-{mu}{nu}{i}" for mu, nu in ((1, 2), (1, 3), (2, 3)) for i in (1, 2, 3)]
    assert ids == ["hedgehog/zx-factor", "hedgehog/e2", *spans]
    for e in entries:
        assert e["engine"] == e["reference"]
    rhat2 = next(e for e in run_suite("ch")[0] if e["id"] == "ch/rhat2")
    assert rhat2["match"] and rhat2["engine"] == rhat2["reference"] == "(rhat^2)"


def test_a_sampled_identity_names_its_first_failing_case(monkeypatch, capsys):
    # the closed Laplacian goes wrong on the functions that contain tau
    right = theta.laplacian_closed
    monkeypatch.setattr(theta, "laplacian_closed", lambda f: right(f) + ONE if "tau" in str(f) else right(f))
    rng = random.Random(0)
    draws = [random_central(rng) for _ in range(50)]
    bad = [k for k, f in enumerate(draws) if "tau" in str(f)]
    assert 0 < bad[0] and len(bad) < 50
    radial = next(e for e in run_suite("laplacian")[0] if e["id"] == "laplacian/radial")
    assert not radial["match"]
    assert radial["engine"] == f"{50 - len(bad)} passed" and radial["reference"] == "50 passed"
    assert radial["note"] == f"first failing case {bad[0]}: {draws[bad[0]]}"
    assert main(["verify", "--suite", "laplacian"]) == 1
    assert f"[first failing case {bad[0]}: " in capsys.readouterr().out
