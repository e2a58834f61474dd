"""Command-line front end.

Subcommands:

    reduce EXPR                  print the canonical form of an expression
    derive --op OP EXPR          apply a named derivative and print the image
    verify --suite NAME          run an identity suite and print its ledger
    solve-hedgehog ...           march the profile equations, emit CSV/JSON
    rep-check --two-j N ...      numeric residuals in a spin representation

Exit codes: 0 on success, 1 when a check fails, 2 on usage errors
(including unparsable expressions, a solve-hedgehog lattice outside
the domain r0 > hbar > 0 and an init file that cannot be read as UTF-8
text; a failed write of --output exits 1).  Rational flags accept p/q
or decimal notation; decimals are converted exactly as written.

The verify ledger in JSON mode has the schema

    {"suite": str, "seed": int, "passed": bool,
     "entries": [{"id", "description", "engine", "reference",
                  "match", "note"}, ...]}
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .hedgehog import DomainError, HedgehogError, check_domain, classical_seed, march
from .identities import SUITES, run_suite
from .parser import ParseError, evaluate
from .spinreps import ch_residual, radius_residual
from .theta import OPS, derive


class UsageError(Exception):
    """Bad input that the argument parser cannot see; exits 2."""


# rep-check allocates several dense (2j+1) x (2j+1) complex matrices
MAX_TWO_J = 100
# solve-hedgehog allocates and prints one row per lattice node
MAX_STEPS = 10**6


# the exponent of a decimal like 1e10000: Fraction would build the power
# of ten exactly, which takes seconds from 1e10000000 on, and more than
# four digits is far outside binary64 anyway
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*$", re.IGNORECASE)


def _fraction(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    if exponent and len(exponent.group(1).replace("_", "").lstrip("0")) > 4:
        raise argparse.ArgumentTypeError(f"exponent out of range: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _float(flag: str, value: Fraction) -> float:
    """A rational flag as a binary64 float; a UsageError when the float
    would overflow, or would be 0.0 while the rational is not."""
    try:
        out = float(value)
    except OverflowError:
        raise UsageError(f"{flag} overflows a binary64 float") from None
    if out == 0 and value != 0:
        raise UsageError(f"{flag} underflows to 0 as a binary64 float")
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncu2",
        description="Noncommutative calculus on the quantum u(2) extension.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce an expression to canonical form")
    p.add_argument("expr")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("derive", help="apply a named derivative operator")
    p.add_argument("--op", required=True, choices=tuple(OPS))
    p.add_argument("expr")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("solve-hedgehog", help="march the profile equations")
    p.add_argument("--hbar", type=_fraction, required=True)
    p.add_argument("--r0", type=_fraction, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--init",
        required=True,
        help="'classical' for the exact classical seed, or a file with "
        "four numbers W0 F0 W1 F1",
    )
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("rep-check", help="numeric residuals in a spin rep")
    p.add_argument("--two-j", type=int, required=True, dest="two_j")
    p.add_argument("--hbar", type=_fraction, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return ap


def _cmd_reduce(args) -> int:
    e = evaluate(args.expr)
    if args.format == "json":
        print(json.dumps({"input": args.expr, "reduced": str(e)}))
    else:
        print(e)
    return 0


def _cmd_derive(args) -> int:
    image = derive(args.op, evaluate(args.expr))
    if args.format == "json":
        print(json.dumps({"input": args.expr, "op": args.op, "image": str(image)}))
    else:
        print(image)
    return 0


def _cmd_verify(args) -> int:
    entries, passed = run_suite(args.suite, seed=args.seed)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "seed": args.seed,
                    "passed": passed,
                    "entries": entries,
                },
                indent=2,
            )
        )
    else:
        for e in entries:
            mark = "PASS" if e["match"] else "FAIL"
            line = f"{mark} {e['id']}: {e['description']}"
            if e["note"]:
                line += f" [{e['note']}]"
            print(line)
        print(f"{args.suite}: {'passed' if passed else 'FAILED'}")
    return 0 if passed else 1


def _read_init(source: str):
    if source == "classical":
        return None
    try:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read init file: {exc}") from None
    try:
        vals = [float(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"init file must hold four numbers: {exc}")
    if len(vals) != 4:
        raise UsageError(f"init file must hold four numbers, found {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"init file values must be finite, got {vals}")
    return tuple(vals)


def _cmd_solve_hedgehog(args) -> int:
    if args.steps < 1:
        raise UsageError(f"--steps must be at least 1, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise UsageError(f"--steps must be at most {MAX_STEPS}, got {args.steps}")
    hbar = _float("--hbar", args.hbar)
    r0 = _float("--r0", args.r0)
    init = _read_init(args.init)
    check_domain(hbar, r0)
    if init is None:
        init = classical_seed(r0, hbar)
    sol = march(init, hbar, r0, args.steps)
    fh = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.format == "json":
            sol.write_json(fh)
        else:
            sol.write_csv(fh)
    finally:
        if args.output:
            fh.close()
    return 0


def _cmd_rep_check(args) -> int:
    if not 0 <= args.two_j <= MAX_TWO_J:
        raise UsageError(f"--two-j must be in 0..{MAX_TWO_J}, got {args.two_j}")
    if args.hbar <= 0:
        raise UsageError(f"--hbar must be positive, got {args.hbar}")
    hbar = _float("--hbar", args.hbar)
    try:
        with np.errstate(over="raise", invalid="raise"):
            radius = radius_residual(args.two_j, hbar)
            ch = ch_residual(args.two_j, hbar)
    except (OverflowError, FloatingPointError):
        raise UsageError(f"--hbar {hbar} overflows the binary64 spin matrices") from None
    passed = radius < 1e-10 and ch < 1e-12
    if args.format == "json":
        print(
            json.dumps(
                {
                    "two_j": args.two_j,
                    "hbar": hbar,
                    "radius_residual": radius,
                    "ch_residual": ch,
                    "passed": passed,
                }
            )
        )
    else:
        print(f"radius residual: {radius:.3e}")
        print(f"cayley-hamilton residual: {ch:.3e}")
        print("passed" if passed else "FAILED")
    return 0 if passed else 1


_COMMANDS = {
    "reduce": _cmd_reduce,
    "derive": _cmd_derive,
    "verify": _cmd_verify,
    "solve-hedgehog": _cmd_solve_hedgehog,
    "rep-check": _cmd_rep_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, UsageError, DomainError) as exc:
        print(f"ncu2: {exc}", file=sys.stderr)
        return 2
    except (HedgehogError, ValueError, OSError) as exc:
        print(f"ncu2: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
