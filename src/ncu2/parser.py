"""Recursive-descent parser for algebra expressions.

Grammar (left-associative, no implicit multiplication):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := number | ident shiftargs? | '(' expr ')'

Numbers are nonnegative integers or exact decimals; rationals are
spelled with '/'.  Exponents are at most ``MAX_EXPONENT``.  Division is
restricted to invertible central factors.  The identifiers t, x, y, z,
tau, rhat, hbar and i are built in; any other identifier names an
opaque central profile function, and may be applied to shifted
arguments as in ``W(tau+2*hbar, rhat-hbar)``.

Expressions evaluate to canonical elements of A_h over the profile
coefficient ring, so the printer's output parses back to itself.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import HBAR, I, ONE, RHAT, Scalar, TAU
from .shifts import FuncCoeffs, FuncExpr
from .u2 import AElement


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


_SYMBOLS = "+-*/^(),"

# The work of x^n grows fast with n: (x+y+z)^16 takes seconds and ^32
# a minute, so larger exponents are refused rather than run.
MAX_EXPONENT = 16


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
        node = self.expr()
        kind, v, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {v!r}", pos)
        return node

    def expr(self):
        kind, v, pos = self.peek()
        if v in ("+", "-"):
            self.next()
            node = self.term()
            if v == "-":
                node = ("neg", node)
        else:
            node = self.term()
        while True:
            kind, v, pos = self.peek()
            if v == "+":
                self.next()
                node = ("add", node, self.term())
            elif v == "-":
                self.next()
                node = ("sub", node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, v, pos = self.peek()
            if v == "*":
                self.next()
                node = ("mul", node, self.factor())
            elif v == "/":
                self.next()
                pos = self.peek()[2]
                node = ("div", node, self.factor(), pos)
            else:
                return node

    def factor(self):
        node = self.base()
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
        return node

    def base(self):
        kind, v, pos = self.next()
        if kind == "num":
            return ("num", _exact_number(v, pos))
        if kind == "ident":
            if self.peek()[1] == "(" and v not in _BUILTINS:
                self.next()
                p = self._shift_arg("tau")
                self.expect(",")
                q = self._shift_arg("rhat")
                self.expect(")")
                return ("app", v, p, q)
            return ("sym", v, pos)
        if v == "(":
            node = self.expr()
            self.expect(")")
            return node
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


def _exact_number(text, pos) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", pos) from None


def parse(text: str):
    """Parse to an AST of nested tuples."""
    return _Parser(text).parse()


_BUILTINS = {"t", "x", "y", "z", "tau", "rhat", "hbar", "i"}


def _eval(node, ring):
    op = node[0]
    if op == "num":
        return AElement.from_scalar(Scalar(node[1]), ring)
    if op == "sym":
        name = node[1]
        if name in ("x", "y", "z"):
            return AElement.gen(name, ring)
        if name == "t":
            return AElement.from_scalar(I * TAU, ring)
        if name == "tau":
            return AElement.from_scalar(TAU, ring)
        if name == "rhat":
            return AElement.from_scalar(RHAT, ring)
        if name == "hbar":
            return AElement.from_scalar(HBAR, ring)
        if name == "i":
            return AElement.from_scalar(I, ring)
        return AElement.from_coeff(FuncExpr.symbol(name), ring)
    if op == "app":
        return AElement.from_coeff(FuncExpr.symbol(node[1], node[2], node[3]), ring)
    if op == "neg":
        return -_eval(node[1], ring)
    if op == "add":
        return _eval(node[1], ring) + _eval(node[2], ring)
    if op == "sub":
        return _eval(node[1], ring) - _eval(node[2], ring)
    if op == "mul":
        return _eval(node[1], ring) * _eval(node[2], ring)
    if op == "div":
        den = _eval(node[2], ring)
        den_s = _central_scalar_or_none(den)
        if den_s is None or not den_s:
            raise ParseError("division only by nonzero central scalars", node[3])
        return _eval(node[1], ring).mul_scalar(den_s.inv())
    if op == "pow":
        out = AElement.from_scalar(ONE, ring)
        base = _eval(node[1], ring)
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


def evaluate(text: str, ring=FuncCoeffs) -> AElement:
    """Parse and reduce to a canonical element of A_h."""
    return _eval(parse(text), ring)
