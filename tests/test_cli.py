"""Command-line interface contract."""

import json

import pytest

from ncu2.cli import MAX_STEPS, main


def test_reduce(capsys):
    assert main(["reduce", "x*y - y*x"]) == 0
    assert capsys.readouterr().out.strip() == "((2*i*hbar))*z"


def test_reduce_json(capsys):
    assert main(["reduce", "x^2 + y^2 + z^2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["reduced"] == "((rhat^2 - hbar^2))"


def test_derive(capsys):
    assert main(["derive", "--op", "dz", "x*y"]) == 0
    assert capsys.readouterr().out.strip() == "((i*hbar))"


def test_syntax_error_is_usage_error(capsys):
    assert main(["reduce", "x*("]) == 2
    err = capsys.readouterr().err
    assert "offset 3" in err


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--op", "grad", "x"])
    assert exc.value.code == 2


def test_verify_suite_json(capsys):
    assert main(["verify", "--suite", "ch", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["suite"] == "ch"
    assert obj["passed"] is True
    assert {"id", "description", "engine", "reference", "match", "note"} <= set(
        obj["entries"][0]
    )
    assert all(e["match"] for e in obj["entries"])


def test_verify_suite_text(capsys):
    assert main(["verify", "--suite", "perm-table"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 16
    assert "FAIL" not in out


def test_solve_hedgehog_csv(capsys):
    rc = main(
        [
            "solve-hedgehog",
            "--hbar",
            "1/16",
            "--r0",
            "1",
            "--steps",
            "32",
            "--init",
            "classical",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,r,W,F"
    assert len(lines) == 34


def test_solve_hedgehog_file_init(tmp_path, capsys):
    seed = tmp_path / "init.txt"
    seed.write_text("0 0 0 0\n")
    out = tmp_path / "run.json"
    rc = main(
        [
            "solve-hedgehog",
            "--hbar",
            "0.0625",
            "--r0",
            "1",
            "--steps",
            "8",
            "--init",
            str(seed),
            "--output",
            str(out),
            "--format",
            "json",
        ]
    )
    assert rc == 0
    obj = json.loads(out.read_text())
    assert all(row["W"] == 0.0 and row["F"] == 0.0 for row in obj["rows"])


def test_solve_hedgehog_bad_domain(capsys):
    rc = main(
        ["solve-hedgehog", "--hbar", "2", "--r0", "1", "--steps", "4", "--init", "classical"]
    )
    assert rc == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_solve_hedgehog_steps_below_one_is_usage_error(steps, capsys):
    rc = main(
        ["solve-hedgehog", "--hbar", "1/16", "--r0", "1", "--steps", steps, "--init", "classical"]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ncu2: --steps must be at least 1, got {steps}\n"


def test_solve_hedgehog_steps_above_the_cap_is_usage_error(capsys):
    steps = MAX_STEPS + 1
    rc = main(
        ["solve-hedgehog", "--hbar", "1/16", "--r0", "1", "--steps", str(steps), "--init", "classical"]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ncu2: --steps must be at most {MAX_STEPS}, got {steps}\n"


def test_reduce_exponent_above_the_cap_is_usage_error(capsys):
    assert main(["reduce", "x^100000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ncu2: exponent must be at most 16 at offset 2\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_solve_hedgehog_non_finite_init_is_usage_error(bad, tmp_path, capsys):
    seed = tmp_path / "init.txt"
    seed.write_text(f"{bad} 0 0 0\n")
    rc = main(
        ["solve-hedgehog", "--hbar", "1/16", "--r0", "1", "--steps", "4", "--init", str(seed)]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("ncu2: init file values must be finite")
    assert err.count("\n") == 1


def test_rep_check(capsys):
    assert main(["rep-check", "--two-j", "2", "--hbar", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "radius residual" in out and "passed" in out


def test_rep_check_json(capsys):
    assert main(["rep-check", "--two-j", "5", "--hbar", "0.25", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True
    assert obj["radius_residual"] < 1e-10


@pytest.mark.parametrize(
    "text, message",
    [
        ("a b c d\n", "ncu2: init file must hold four numbers: could not convert"),
        ("0 0 0\n", "ncu2: init file must hold four numbers, found 3"),
    ],
)
def test_solve_hedgehog_malformed_init_is_usage_error(text, message, tmp_path, capsys):
    seed = tmp_path / "init.txt"
    seed.write_text(text)
    rc = main(
        ["solve-hedgehog", "--hbar", "1/16", "--r0", "1", "--steps", "4", "--init", str(seed)]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--two-j", "-1", "--hbar", "1/4"], "ncu2: --two-j must be in 0..100, got -1\n"),
        # the cap is checked before any matrix is built
        (["--two-j", "101", "--hbar", "1/4"], "ncu2: --two-j must be in 0..100, got 101\n"),
        (["--two-j", "2", "--hbar", "0"], "ncu2: --hbar must be positive, got 0\n"),
    ],
)
def test_rep_check_bad_arguments_are_usage_errors(flags, message, capsys):
    assert main(["rep-check"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
