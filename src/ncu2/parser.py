"""Recursive-descent parser for algebra expressions.

Grammar (left-associative, no implicit multiplication):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := number | ident shiftargs? | '(' expr ')'

Numbers are nonnegative integers or exact decimals; rationals are
spelled with '/'.  Exponents are at most ``MAX_EXPONENT``, parentheses
nest at most ``MAX_NESTING`` deep, and the static degree of every node
is at most ``MAX_DEGREE``.  Division is restricted to invertible central
factors.  The identifiers t, x, y, z, tau, rhat, hbar and i are built
in; any other identifier names an opaque central profile function, and
may be applied to shifted arguments as in ``W(tau+2*hbar, rhat-hbar)``.

Expressions evaluate to canonical elements of A_h whose coefficients
are all FuncExpr (every leaf is lifted), so the printer's output parses
back to itself within the degree bound.  Each '+'/'-' or '*'/'/' run
parses to one flat chain node, evaluated in a loop, so a long sum costs
no recursion per term.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import HBAR, I, ONE, RHAT, Scalar, TAU
from .shifts import FuncExpr
from .u2 import AElement


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


_SYMBOLS = "+-*/^(),"

# The work of x^n grows fast with n: (x+y+z)^16 takes seconds and ^32
# a minute, so larger exponents are refused rather than run.
MAX_EXPONENT = 16
# Nesting gets round the exponent bound (((x+y+z)^16)^16 never ends), so
# the degree is bounded too: a symbol has degree 1, a number or i 0, a sum
# the max over its terms, a product the sum over its factors, a quotient
# its dividend's and a power n times its base's.
MAX_DEGREE = 16
# Each level of parentheses costs a few stack frames to parse and evaluate.
MAX_NESTING = 100


def tokenize(text: str):
    """Yield (kind, value, position) triples; kinds: num, ident, op, end."""
    out = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _SYMBOLS:
            out.append(("op", ch, k))
            k += 1
            continue
        if ch.isdigit():
            j = k + 1
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            out.append(("num", text[k:j], k))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[k:j], k))
            k = j
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, value):
        kind, v, pos = self.next()
        if v != value:
            found = repr(v) if v else "end of input"
            raise ParseError(f"expected {value!r}, found {found}", pos)

    def parse(self):
        node, _ = self.expr()
        kind, v, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {v!r}", pos)
        return node

    # Each rule returns (node, static degree).

    def expr(self):
        sign = self.peek()[1]
        if sign in ("+", "-"):
            self.next()
        first, deg = self.term()
        if sign == "-":
            first = ("neg", first)
        rest = []
        while self.peek()[1] in ("+", "-"):
            op, pos = self.next()[1:]
            node, d = self.term()
            rest.append((op, node, pos))
            deg = max(deg, d)
        return _chain(first, rest), deg

    def term(self):
        first, deg = self.factor()
        rest = []
        while self.peek()[1] in ("*", "/"):
            op, pos = self.next()[1:]
            if op == "/":
                pos = self.peek()[2]
            node, d = self.factor()
            rest.append((op, node, pos))
            if op == "*":
                deg = _bounded(deg + d, pos)
        return _chain(first, rest), deg

    def factor(self):
        node, deg = self.base()
        kind, v, pos = self.peek()
        if v == "^":
            self.next()
            kind, ev, epos = self.next()
            if kind != "num" or "." in ev:
                raise ParseError("exponent must be a nonnegative integer", epos)
            digits = ev.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent must be at most {MAX_EXPONENT}", epos)
            node = ("pow", node, int(digits))
            deg = _bounded(deg * int(digits), pos)
        return node, deg

    def base(self):
        kind, v, pos = self.next()
        if kind == "num":
            return ("num", _exact_number(v, pos)), 0
        if kind == "ident":
            if self.peek()[1] == "(" and v not in _BUILTINS:
                self.next()
                p = self._shift_arg("tau")
                self.expect(",")
                q = self._shift_arg("rhat")
                self.expect(")")
                return ("app", v, p, q), 1
            return ("sym", v, pos), (0 if v == "i" else 1)
        if v == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            out = self.expr()
            self.expect(")")
            self.depth -= 1
            return out
        found = repr(v) if v else "end of input"
        raise ParseError(f"expected a value, found {found}", pos)

    def _shift_arg(self, base_name):
        kind, v, pos = self.next()
        if v != base_name:
            raise ParseError(f"shifted argument must start with {base_name!r}", pos)
        kind, v, pos = self.peek()
        if v not in ("+", "-"):
            return 0
        sign = 1 if v == "+" else -1
        self.next()
        kind, v, pos = self.next()
        if kind == "num":
            if "." in v:
                raise ParseError("shift multiple must be an integer", pos)
            mult = int(v)
            self.expect("*")
            kind, v, pos = self.next()
        else:
            mult = 1
        if v != "hbar":
            raise ParseError("shifts must be integer multiples of hbar", pos)
        return sign * mult


def _chain(first, rest):
    """A left-associative run ``first op node op node ...`` as one node."""
    return ("chain", first, tuple(rest)) if rest else first


def _bounded(deg, pos):
    if deg > MAX_DEGREE:
        raise ParseError(f"degree must be at most {MAX_DEGREE}, found {deg}", pos)
    return deg


def _exact_number(text, pos) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", pos) from None


def parse(text: str):
    """Parse to an AST of nested tuples."""
    return _Parser(text).parse()


_BUILTINS = {"t", "x", "y", "z", "tau", "rhat", "hbar", "i"}


# the central leaves, as FuncExpr coefficients
_CENTRAL = {"t": I * TAU, "tau": TAU, "rhat": RHAT, "hbar": HBAR, "i": I}


def _lifted(s: Scalar) -> AElement:
    return AElement.from_coeff(FuncExpr.from_scalar(s))


def _eval(node):
    op = node[0]
    if op == "num":
        return _lifted(Scalar(node[1]))
    if op == "sym":
        name = node[1]
        if name in ("x", "y", "z"):
            return AElement.gen(name).mul_scalar(FuncExpr.from_scalar(ONE))
        if name in _CENTRAL:
            return _lifted(_CENTRAL[name])
        return AElement.from_coeff(FuncExpr.symbol(name))
    if op == "app":
        return AElement.from_coeff(FuncExpr.symbol(node[1], node[2], node[3]))
    if op == "neg":
        return -_eval(node[1])
    if op == "chain":
        acc = _eval(node[1])
        for link, sub, pos in node[2]:
            val = _eval(sub)
            if link == "+":
                acc = acc + val
            elif link == "-":
                acc = acc - val
            elif link == "*":
                acc = acc * val
            else:
                den = _central_scalar_or_none(val)
                if den is None or not den:
                    raise ParseError("division only by nonzero central scalars", pos)
                acc = acc.mul_scalar(den.inv())
        return acc
    if op == "pow":
        out = _lifted(ONE)
        base = _eval(node[1])
        for _ in range(node[2]):
            out = out * base
        return out
    raise AssertionError(f"unknown node {node!r}")


def _central_scalar_or_none(e: AElement):
    if not e.is_central():
        return None
    c = e.central_part()
    if isinstance(c, FuncExpr):
        if c.atoms():
            return None
        c = c.scalar_part()
    return c


def evaluate(text: str) -> AElement:
    """Parse and reduce to a canonical element of A_h."""
    return _eval(parse(text))
