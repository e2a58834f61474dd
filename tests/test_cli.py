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
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ncu2: need r0 > hbar, got r0 = 1.0, hbar = 2.0\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--hbar", "0", "--r0", "1"], "ncu2: hbar must be positive, got 0.0\n"),
        (["--hbar=-1/4", "--r0", "1"], "ncu2: hbar must be positive, got -0.25\n"),
        (["--r0", "1/2", "--hbar", "1"], "ncu2: need r0 > hbar, got r0 = 0.5, hbar = 1.0\n"),
    ],
)
def test_solve_hedgehog_domain_errors_are_usage_errors(flags, message, capsys):
    rc = main(["solve-hedgehog", *flags, "--steps", "4", "--init", "classical"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


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


@pytest.mark.parametrize(
    "expr, message",
    [
        ("((x+y+z)^4)^5", "degree must be at most 16, found 20 at offset 11"),
        ("((x+y+z)^16)^16", "degree must be at most 16, found 256 at offset 12"),
        ("(x+y+z)^16*(x+y+z)^16", "degree must be at most 16, found 32 at offset 10"),
        ("(tau+rhat+hbar)^16*(tau+rhat+hbar)^16", "degree must be at most 16, found 32 at offset 18"),
        ("(" * 3000 + "x" + ")" * 3000, "parentheses nest deeper than 100 at offset 100"),
    ],
)
def test_reduce_degree_and_nesting_above_the_cap_are_usage_errors(expr, message, capsys):
    assert main(["reduce", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ncu2: {message}\n"


def test_reduce_long_flat_sum(capsys):
    assert main(["reduce", "+".join(["x"] * 3000)]) == 0
    assert capsys.readouterr().out == "((3000))*x\n"


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


def test_solve_hedgehog_r0_zero_is_a_domain_error_before_the_seed(capsys):
    # the classical seed divides by r0, so the domain is checked first
    rc = main(["solve-hedgehog", "--r0", "0", "--hbar", "1/16", "--steps", "4", "--init", "classical"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ncu2: need r0 > hbar, got r0 = 0.0, hbar = 0.0625\n"


@pytest.mark.parametrize("r0", ["711", "1000"])
def test_solve_hedgehog_classical_seed_where_sinh_overflows(r0, capsys):
    rc = main(["solve-hedgehog", "--r0", r0, "--hbar", "1", "--steps", "2", "--init", "classical"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "k,r,W,F" and len(rows) == 4
    r = float(r0)
    w, f = (float(v) for v in rows[1].split(",")[2:])
    # far out, K = r/sinh r vanishes: W = -1/r^2, F = -(r - 1)/r^2
    assert w == pytest.approx(-1 / r**2, rel=1e-12)
    assert f == pytest.approx(-(r - 1) / r**2, rel=1e-12)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["solve-hedgehog", "--r0", "1e400", "--hbar", "1", "--steps", "2", "--init", "classical"],
            "ncu2: --r0 overflows a binary64 float\n",
        ),
        (["rep-check", "--two-j", "3", "--hbar", "1e400"], "ncu2: --hbar overflows a binary64 float\n"),
        (["rep-check", "--two-j", "3", "--hbar", "1e-400"], "ncu2: --hbar underflows to 0 as a binary64 float\n"),
    ],
)
def test_rational_flags_outside_binary64_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("r0, hbar", [("1e300", "1e-300"), ("1e301", "1e300")])
def test_solve_hedgehog_stencil_overflow_is_a_usage_error(r0, hbar, capsys):
    rc = main(["solve-hedgehog", "--r0", r0, "--hbar", hbar, "--steps", "3", "--init", "classical"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ncu2: coefficient ")
    assert lines[0].endswith(f"overflows binary64 at hbar = {float(hbar)}")


@pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
def test_solve_hedgehog_unreadable_init_is_usage_error(case, tmp_path, capsys):
    path = {"missing": tmp_path / "none.txt", "directory": tmp_path, "not utf-8": tmp_path / "init.txt"}[case]
    if case == "not utf-8":
        path.write_bytes(b"0 0 0 \xe9\n")
    rc = main(["solve-hedgehog", "--hbar", "1/16", "--r0", "1", "--steps", "4", "--init", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ncu2: cannot read init file: ")
    assert captured.err.count("\n") == 1


def test_solve_hedgehog_unwritable_output_is_an_error(tmp_path, capsys):
    # the input is fine; writing the result fails, which is not a usage error
    argv = ["solve-hedgehog", "--hbar", "1/16", "--r0", "1", "--steps", "4", "--init", "classical"]
    assert main(argv + ["--output", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ncu2: ") and captured.err.count("\n") == 1
