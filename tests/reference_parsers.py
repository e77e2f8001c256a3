"""The text parsers as they stood before they read straight into the kernel's form.

The reference for the differential tests in ``test_text_parsers.py``:
``parse_polynomial`` builds every number, variable, sign, product and partial
sum as a ``MultiPoly``, and ``parse_scalar`` deletes every space, splits at
the signs, reads each term with ``Fraction(str)`` and builds a ``Scalar``
from a dict, which ``parse_element`` realigns into a ``GroupElement``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from valmono.errors import ParseError, RankMismatch
from valmono.exact_algebra import MultiPoly, normal_rational
from valmono.ordered_value import MINUS_INFINITY, PLUS_INFINITY, GroupElement, Scalar, ValueGroup

# -- polynomial text ------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<frac>\d+\s*/\s*\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {pos}: {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup == "frac":
            p, q = m.group("frac").split("/")
            if not int(q):
                raise ParseError(f"zero denominator in {m.group('frac')!r}")
            out.append(("num", Fraction(int(p), int(q))))
        elif m.lastgroup == "int":
            out.append(("num", int(m.group("int"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


class _PolyParser:
    """Recursive descent over +, -, *, ^ and parentheses."""

    def __init__(self, tokens, names):
        self.tokens = tokens
        self.pos = 0
        self.names = list(names)
        self.width = len(self.names)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}")

    def parse(self) -> MultiPoly:
        p = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input at token {self.pos}")
        return p

    def signed_term(self) -> MultiPoly:
        sign = 1
        kind, val = self.peek()
        while kind == "op" and val in "+-":
            self.take()
            if val == "-":
                sign = -sign
            kind, val = self.peek()
        return self.term() * sign

    def expr(self) -> MultiPoly:
        out = self.signed_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                nxt = self.signed_term()
                out = out + nxt if val == "+" else out - nxt
            else:
                return out

    def term(self) -> MultiPoly:
        out = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                out = out * self.factor()
            else:
                return out

    def factor(self) -> MultiPoly:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k = self.exponent()
            if k < 0:
                if not base.is_single_term():
                    raise ParseError("negative exponent on a non-monomial")
                e, c = base.single_term()
                if c != 1 and c != -1:
                    raise ParseError("negative exponent on a non-monic monomial")
                # c is 1 or -1, so c**k == c**-k, and a negative power of an int is a float
                return MultiPoly.monomial(self.width, tuple(x * k for x in e), c**-k)
            return base**k
        return base

    def exponent(self) -> int:
        kind, val = self.take()
        neg = False
        if kind == "op" and val == "-":
            neg = True
            kind, val = self.take()
        if kind != "num" or val.denominator != 1:
            raise ParseError("exponent must be an integer")
        k = int(val)
        return -k if neg else k

    def atom(self) -> MultiPoly:
        kind, val = self.take()
        if kind == "num":
            return MultiPoly.constant(self.width, val)
        if kind == "name":
            if val not in self.names:
                raise ParseError(f"unknown variable {val!r}")
            return MultiPoly.variable(self.width, self.names.index(val))
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}")


def parse_polynomial(text: str, names) -> MultiPoly:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    return _PolyParser(tokens, names).parse()


# -- scalar and element text ----------------------------------------------------

_TERM_RE = re.compile(
    r"""^(?:
        (?P<num>\d+(?:/\d+)?)(?:\*(?P<gen1>[A-Za-z_]\w*))?
        | (?P<gen2>[A-Za-z_]\w*)
    )$""",
    re.VERBOSE,
)


def parse_scalar(group: ValueGroup, text: str) -> Scalar:
    """Inverse of format_scalar; accepts "1+pi", "2*pi", "-3/2*g", "0"."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty scalar")
    coeffs: dict = {}
    i = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    start = i
    tokens = []
    while i <= len(s):
        if i == len(s) or s[i] in "+-":
            tokens.append((sign, s[start:i]))
            if i < len(s):
                sign = -1 if s[i] == "-" else 1
                start = i + 1
            i += 1
        else:
            i += 1
    for sgn, term in tokens:
        if not term:
            raise ParseError(f"bad scalar: {text!r}")
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad scalar term: {term!r}")
        if m.group("gen2") is not None:
            name, c = m.group("gen2"), 1
        else:
            try:
                c = normal_rational(Fraction(m.group("num")))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {term!r}") from None
            name = m.group("gen1") or "1"
        if name not in group._by_name:
            raise ParseError(f"unknown generator {name!r} in {text!r}")
        coeffs[name] = coeffs.get(name, 0) + sgn * c
    if "1" in coeffs and "1" not in group._by_name:
        raise ParseError(f"no unit generator to hold the rational part of {text!r}")
    return Scalar(group, coeffs)


def parse_element(group: ValueGroup, text: str, rank: Optional[int] = None):
    """Inverse of format_element; accepts sentinels, "(a, b)" and bare scalars."""
    s = text.strip()
    low = s.lower()
    if low in ("+inf", "inf", "+infinity", "infinity"):
        return PLUS_INFINITY
    if low in ("-inf", "-infinity"):
        return MINUS_INFINITY
    if s.startswith("(") and s.endswith(")"):
        body = s[1:-1]
        parts = [p for p in body.split(",")]
        if any(not p.strip() for p in parts):
            raise ParseError(f"bad element: {text!r}")
        entries = tuple(parse_scalar(group, p) for p in parts)
    else:
        entries = (parse_scalar(group, s),)
    el = GroupElement(entries)
    if rank is not None and el.rank != rank:
        if el.rank == 1 and rank > 1 and el.is_zero():
            return group.zero(rank)
        raise RankMismatch(f"expected rank {rank}, got {el.rank} in {text!r}")
    return el
