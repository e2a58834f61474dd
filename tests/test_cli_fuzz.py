"""No traceback reachable from the command line.

A seeded property test over ``cli.main`` argv, run in-process with
captured streams as ``tests/test_cli_bytes.py`` does.  For every example
the command returns 0, 1 or 2 (or argparse exits with 2), no other
exception or warning escapes, and stderr holds at most one line, an
``ncu2:`` message.  A non-zero return prints that line, except a check
that ran and failed (exit 1), which says FAILED on stdout instead.  Only
solve-hedgehog may exit 1 with a message (the march cannot take a step).
"""

import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from ncu2.cli import MAX_STEPS, MAX_TWO_J, main

_EXPONENTS = [-100000, -4000, -400, -330, -308, -1, 0, 1, 300, 308, 310, 400, 4000, 100000]
RATIONALS = st.one_of(
    st.sampled_from(
        ["0", "-0", "1/16", "0.125", "-3/4", "1/0", "", "abc", "nan", "inf", "1/3x", "2/-3"]
    ),
    st.builds(
        "{}{}e{}".format,
        st.sampled_from(["", "-"]),
        st.sampled_from(["1", "7.5", "0.001", "123456789"]),
        st.sampled_from(_EXPONENTS),
    ),
    st.fractions(min_value=-10, max_value=10, max_denominator=64).map(str),
)
STEPS = st.one_of(
    st.sampled_from([-1, 0, 1, 2, MAX_STEPS + 1, 2**63]), st.integers(1, 40)
).map(str)
TWO_J = st.one_of(
    st.sampled_from([-1, 0, 1, MAX_TWO_J, MAX_TWO_J + 1]), st.integers(0, 8)
).map(str)
FORMATS = st.sampled_from([[], ["--format", "json"]])

_LEAVES = ["x", "y", "z", "t", "tau", "rhat", "hbar", "i", "2", "3/4", "0.5",
           "W(tau+hbar, rhat-2*hbar)", "F(tau, rhat)"]
_CONSTANTS = ("i", "2", "3/4", "0.5")
_DENOMINATORS = ["rhat", "rhat-hbar", "tau+1", "2", "0", "x", "rhat-rhat"]


@st.composite
def expressions(draw, budget=6):
    """A grammar expression of static degree at most ``budget``."""
    kind = draw(st.sampled_from(["leaf", "leaf", "sum", "product", "power", "quotient", "paren"]))
    if budget <= 1 or kind == "leaf":
        leaf = draw(st.sampled_from(_LEAVES))
        return leaf if budget >= 1 or leaf in _CONSTANTS else "2"
    if kind == "sum":
        a = draw(expressions(budget=budget - 1))
        b = draw(expressions(budget=budget - 1))
        return f"{a} {draw(st.sampled_from('+-'))} {b}"
    if kind == "product":
        k = draw(st.integers(1, budget - 1))
        return f"{draw(expressions(budget=k))}*{draw(expressions(budget=budget - k))}"
    if kind == "power":
        n = draw(st.integers(0, 3))
        return f"({draw(expressions(budget=budget // max(n, 1)))})^{n}"
    if kind == "quotient":
        den = draw(st.sampled_from(_DENOMINATORS))
        return f"{draw(expressions(budget=budget - 1))}/({den})"
    return f"({draw(expressions(budget=budget - 1))})"


EXPRESSIONS = st.one_of(
    expressions(), st.text(alphabet="xyz+-*/^()W,. 0123456789#$", max_size=12)
)
OPS = st.sampled_from(["dx", "dy", "dz", "dt", "dtau", "dr", "lap", "Q", "curl"])
INIT_FILES = st.one_of(
    st.sampled_from(["classical", "<missing>", "<directory>"]),
    st.sampled_from(
        ["0 0 0 0", "0 0 0", "1 2 3 4 5", "a b c d", "1,2,3,4", "nan 0 0 0", "", "1e999 0 0 0"]
    ).map(lambda body: ("text", body)),
    st.sampled_from([b"\xff\xfe\x00", b"0 0 0 \xe9", b"\x80"]).map(lambda raw: ("bytes", raw)),
)

ARGV = st.one_of(
    st.builds(lambda e, fmt: ["reduce", e] + fmt, EXPRESSIONS, FORMATS),
    st.builds(lambda op, e: ["derive", "--op", op, e], OPS, EXPRESSIONS),
    st.builds(
        lambda j, h, fmt: ["rep-check", "--two-j", j, "--hbar", h] + fmt, TWO_J, RATIONALS, FORMATS
    ),
    st.builds(
        lambda h, r0, n, init, fmt: (
            ["solve-hedgehog", "--hbar", h, "--r0", r0, "--steps", n, "--init", init] + fmt
        ),
        RATIONALS,
        RATIONALS,
        STEPS,
        INIT_FILES,
        FORMATS,
    ),
)


def _materialise(argv, tmp_path):
    """Replace an init-file spec by a path: missing, a directory, or a
    file written with the given text or bytes."""
    out = []
    for a in argv:
        if a == "<missing>":
            a = str(tmp_path / "no-such-init.txt")
        elif a == "<directory>":
            a = str(tmp_path)
        elif isinstance(a, tuple):
            path = tmp_path / "init.txt"
            if a[0] == "text":
                path.write_text(a[1])
            else:
                path.write_bytes(a[1])
            a = str(path)
        out.append(a)
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            # outside pytest a warning reaches stderr as more lines
            warnings.simplefilter("error")
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse
                rc = ("argparse", exc.code)
    return rc, out.getvalue(), err.getvalue()


def _check_failed(argv, out):
    if "--format" in argv:
        return json.loads(out)["passed"] is False
    return out.splitlines()[-1] == "FAILED"


def _solve(r0, hbar, steps, init="classical"):
    return ["solve-hedgehog", "--r0", r0, "--hbar", hbar, "--steps", steps, "--init", init]


@settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=2000,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=ARGV)
# the four crash cases of the first hand probe
@example(argv=_solve("0", "1/16", "4"))
@example(argv=_solve("711", "1", "2"))
@example(argv=_solve("1e400", "1", "2"))
@example(argv=["rep-check", "--two-j", "3", "--hbar", "1e-400"])
# found while writing this test: binary64 overflow in the spin matrices and
# in the march's stencil (each exit 2; the stencil at r0 = 1e300, hbar =
# 1e-300 was reported as "not real" with exit 1), a decimal exponent that
# takes seconds to parse, and init files that cannot be read
@example(argv=["rep-check", "--two-j", "100", "--hbar", "1e300"])
@example(argv=_solve("1", "1e-300", "40"))
@example(argv=_solve("1e301", "1e300", "40"))
@example(argv=_solve("1e300", "1e-300", "3"))
@example(argv=["rep-check", "--two-j", "3", "--hbar", "1e10000000"])
# finite stencil coefficients whose determinant overflows binary64: a
# domain error (exit 2), not a singular march (exit 1)
@example(argv=_solve("1.5", "1e-160", "7"))
@example(argv=_solve("1", "1/16", "4", init="<missing>"))
@example(argv=_solve("1", "1/16", "4", init=("bytes", b"\xff")))
def test_cli_never_raises(argv, tmp_path):
    argv = _materialise(argv, tmp_path)
    rc, out, err = _run(argv)
    assert rc in (0, 1, 2, ("argparse", 2)), (argv, rc)
    if rc == ("argparse", 2):
        assert err.startswith("usage: ncu2"), (argv, err)
        return
    lines = err.splitlines()
    if rc == 0:
        assert lines == [], (argv, err)
    elif lines or rc == 2:
        assert len(lines) == 1 and lines[0].startswith("ncu2: "), (argv, err)
        assert out == "", (argv, out)
        # only the march can fail on valid input; elsewhere exit 1 with a
        # message is bad input that missed its usage check
        assert rc == 2 or argv[0] == "solve-hedgehog", (argv, err)
    else:
        assert _check_failed(argv, out), (argv, out)


def test_an_overflowed_marching_determinant_is_a_domain_error():
    for argv in (_solve("1", "1e-300", "40"), _solve("1.5", "1e-160", "7")):
        rc, out, err = _run(argv)
        assert (rc, out) == (2, ""), (argv, rc, err)
        assert err.startswith("ncu2: the marching determinant overflows binary64 at node 1,"), (argv, err)
