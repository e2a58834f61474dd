"""Identity ledgers: a wrong engine ingredient must fail its suite.

Each mutation patches one ingredient the way a transcription slip
would, and the suite must report it as a failing entry, not raise, and
``ncu2 verify`` must exit 1.  Neither patch reaches a memo cache
(``u2._no_word``, ``u2._zreduce``, ``theta._CACHE``), so nothing wrong
outlives the test.
"""

import pytest

from ncu2 import hedgehog, u2
from ncu2.cli import main
from ncu2.identities import run_suite
from ncu2.scalars import HBAR
from ncu2.shifts import FuncCoeffs, FuncExpr


def _halve_e2_d_tau_w(monkeypatch):
    e1, e2 = hedgehog.profile_equations()
    # E2 holds 2 hbar d_tau W; take hbar d_tau W away
    wrong = e2 - FuncCoeffs.d_tau(FuncExpr.symbol("W")).mul_scalar(HBAR)
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
