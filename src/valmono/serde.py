"""Parsers and printers for the toolkit's I/O surface.

Covers polynomial expressions ("z^2 - x^2*y"), value groups, and valuation
spec towers as JSON. Element and scalar strings live in ordered_value;
this module builds the composite formats on top. ``_write_file`` is the one
place the package writes a file: trace and state files go through it.
"""

from __future__ import annotations

import os
import re
import stat
from fractions import Fraction

from .errors import ParseError, RankMismatch
from .exact_algebra import MultiPoly, RationalFunction, UniPoly, ev_add, to_multipoly, to_unipoly
from .ordered_value import (
    IndependentGenerator,
    ValueGroup,
    format_element,
    is_sentinel,
    parse_element,
    pi_generator,
    unit_generator,
)
from .valuation_core import Augmented, Composite, Monomial

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
    """Recursive descent over +, -, *, ^ and parentheses, straight into one term map.

    Grammar: ``expr = [signs] term (signs term)*``, ``term = factor ("*"
    factor)*``, ``factor = atom ["^" ["-"] integer]``, ``atom = number | name
    | "(" expr ")"``, where a run of signs multiplies out (``x - - y`` is
    ``x + y``) and a number is an integer or ``p/q``. A term is one
    coefficient and one exponent vector: a number multiplies the
    coefficient, a variable adds to its exponent, ``^k`` raises a number to
    the k-th power or scales a variable's exponent by k, and the sign folds
    into the coefficient. Only a parenthesised factor is a polynomial; the
    term multiplies those out, then scales and shifts the product by its
    coefficient and exponents. ``expr`` adds each term into one map,
    dropping a key whose sum is zero, and builds one ``MultiPoly`` at the
    end. A negative power needs a single-term base with coefficient 1 or
    -1 (a variable, the number 1, or a parenthesised term such as ``(-x)``),
    and keeps that coefficient an ``int``.
    """

    def __init__(self, tokens, names):
        self.tokens = tokens
        self.pos = 0
        self.width = len(names)
        self.index = {}
        for i, name in enumerate(names):
            self.index.setdefault(name, i)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def take_op(self, op: str) -> bool:
        """Take the next token when it is the operator ``op``."""
        kind, val = self.peek()
        if kind == "op" and val == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}")

    def parse(self) -> MultiPoly:
        p = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input at token {self.pos}")
        return p

    def expr(self) -> MultiPoly:
        acc: dict = {}
        while True:
            sign = 1
            kind, val = self.peek()
            while kind == "op" and val in "+-":
                self.pos += 1
                if val == "-":
                    sign = -sign
                kind, val = self.peek()
            self.term(acc, sign)
            kind, val = self.peek()
            if kind != "op" or val not in "+-":
                return MultiPoly(self.width, acc)

    def term(self, acc: dict, coef) -> None:
        """Add ``coef`` times the next product of factors into ``acc``."""
        exps = [0] * self.width
        poly = None
        while True:
            kind, val = self.take()
            if kind == "op" and val == "(":
                kind, val = "poly", self.expr()
                self.expect_op(")")
            elif kind == "name":
                if val not in self.index:
                    raise ParseError(f"unknown variable {val!r}")
                val = self.index[val]
            elif kind != "num":
                raise ParseError(f"unexpected token {val!r}")
            k = self.exponent() if self.take_op("^") else 1
            if kind == "name":
                exps[val] += k
            elif k < 0:
                if kind == "num":
                    e, c = (), val
                else:
                    e, c = val.single_term() if val.is_single_term() else ((), 0)
                if not c:
                    raise ParseError("negative exponent on a non-monomial")
                if c != 1 and c != -1:
                    raise ParseError("negative exponent on a non-monic monomial")
                # c is 1 or -1, so c**k == c**-k, and a negative power of an int is a float
                coef *= c**-k
                for j, x in enumerate(e):
                    exps[j] += x * k
            elif kind == "num":
                coef *= val**k
            else:
                if k != 1:
                    val = val**k
                poly = val if poly is None else poly * val
            if not self.take_op("*"):
                break
        if not coef:
            return
        e = tuple(exps)
        if poly is None:
            items = ((e, coef),)
        else:
            items = ((ev_add(t, e), c * coef) for t, c in poly.terms.items())
        for t, c in items:
            old = acc.get(t)
            if old is not None:
                c += old
                if not c:
                    del acc[t]
                    continue
            acc[t] = c

    def exponent(self) -> int:
        neg = self.take_op("-")
        kind, val = self.take()
        if kind != "num" or val.denominator != 1:
            raise ParseError("exponent must be an integer")
        k = int(val)
        return -k if neg else k


def parse_polynomial(text: str, names) -> MultiPoly:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    return _PolyParser(tokens, names).parse()


def parse_unipoly(text: str, names) -> UniPoly:
    """Parse over all variables and split along the last one."""
    p = parse_polynomial(text, names)
    if any(e[-1] < 0 for e in p.terms):
        raise ParseError(f"negative power of the distinguished variable {names[-1]!r}")
    return to_unipoly(p)


def _out_key(e):
    # distinguished (last) variable first, then total degree, then lex
    return (e[-1], sum(e), e)


def format_multipoly(p: MultiPoly, names) -> str:
    if p.is_zero():
        return "0"
    if len(names) != p.width:
        raise ValueError("name list width mismatch")
    parts = []
    for e in sorted(p.terms, key=_out_key, reverse=True):
        c = p.terms[e]
        factors = []
        for n, k in zip(names, e):
            if k == 0:
                continue
            factors.append(n if k == 1 else f"{n}^{k}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = f"{mag}*" + "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def format_rational(r: RationalFunction, names) -> str:
    num = format_multipoly(r.num, names)
    if r.den.is_one():
        return num
    den = format_multipoly(r.den, names)
    return f"({num})/({den})"


def format_unipoly(p: UniPoly, names, var: str) -> str:
    """Print over base names plus the distinguished variable."""
    return format_multipoly(to_multipoly(p), list(names) + [var])


# -- value groups and specs ------------------------------------------------------


def _field(obj, key, kind=None):
    """A required field of a problem's JSON object, of JSON type ``kind`` when given."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r}")
    if kind is not None and not isinstance(obj[key], kind):
        raise ParseError(f"field {key!r} must be a JSON {'object' if kind is dict else 'list'}")
    return obj[key]


def _finite_element(group: ValueGroup, text, rank=None):
    try:
        value = parse_element(group, str(text), rank=rank)
    except RankMismatch as exc:
        raise ParseError(str(exc)) from None
    if is_sentinel(value):
        raise ParseError(f"value {text!r} must be finite")
    return value


def group_from_json(obj) -> ValueGroup:
    gens = []
    for entry in _field(obj, "generators", list):
        if entry == "1":
            gens.append(unit_generator())
        elif entry == "pi":
            gens.append(pi_generator())
        elif isinstance(entry, dict) and "rational" in entry:
            name = _field(entry, "name")
            raw = entry["rational"]
            try:
                rational = Fraction(raw)
            except (TypeError, ValueError, ZeroDivisionError):
                rational = None
            # a JSON float is inexact, and true or false is no number
            if rational is None or type(raw) not in (int, str):
                raise ParseError(f"generator {name!r} has invalid rational {raw!r}")
            gens.append(IndependentGenerator(name, rational=rational))
        else:
            raise ParseError(f"unsupported generator {entry!r}")
    try:
        return ValueGroup(gens)
    except ValueError as exc:  # no generators, or one named twice
        raise ParseError(str(exc)) from None


def group_to_json(group: ValueGroup) -> dict:
    out = []
    for g in group.names:
        gen = group.generator(g)
        if gen.name == "1" and gen.rational == 1:
            out.append("1")
        elif gen.name == "pi" and gen.rational is None:
            out.append("pi")
        elif gen.rational is not None:
            out.append({"name": gen.name, "rational": str(gen.rational)})
        else:
            raise ValueError(f"generator {gen.name!r} has no serializable form")
    return {"generators": out}


def parse_key(text: str, names) -> UniPoly:
    """A key polynomial; it must be monic of positive degree in the last variable."""
    key = parse_unipoly(text, names)
    if key.degree < 1 or not key.is_monic():
        raise ParseError(f"key {text!r} must be monic of positive degree in {names[-1]!r}")
    return key


def spec_from_json(group: ValueGroup, names, obj):
    kind = _field(obj, "kind")
    if kind == "monomial":
        weights_map = _field(obj, "weights", dict)
        missing = [n for n in names if n not in weights_map]
        if missing:
            raise ParseError(f"missing weights for {missing}")
        parsed = [_finite_element(group, weights_map[n]) for n in names]
        ranks = {w.rank for w in parsed}
        if len(ranks) != 1:
            raise ParseError("monomial weights of mixed rank")
        try:
            return Monomial(group, parsed)
        except ValueError:  # the constructor decides each weight's sign
            raise ParseError("monomial weights must be strictly positive") from None
    if kind == "composite":
        if "1" not in group.names:
            raise ParseError("a composite valuation needs the generator '1' for its key order")
        inner = spec_from_json(group, names, _field(obj, "inner"))
        return Composite(parse_key(str(_field(obj, "key")), names), inner)
    if kind == "augmented":
        base = spec_from_json(group, names, _field(obj, "base"))
        key = parse_key(str(_field(obj, "key")), names)
        assigned = _finite_element(group, _field(obj, "value"), rank=base.rank)
        try:
            return Augmented(base, key, assigned)
        except ValueError:  # the constructor compares the value with the key's
            raise ParseError(f"augmented value {obj['value']!r} must exceed the base value of its key") from None
    raise ParseError(f"unknown spec kind {kind!r}")


def spec_to_json(spec, names) -> dict:
    if isinstance(spec, Monomial):
        return {
            "kind": "monomial",
            "weights": {n: format_element(w) for n, w in zip(names, spec.weights)},
        }
    if isinstance(spec, Augmented) and spec.lifts:
        return {
            "kind": "composite",
            "key": format_unipoly(spec.key, names[:-1], names[-1]),
            "inner": spec_to_json(spec.base, names),
        }
    if isinstance(spec, Augmented):
        return {
            "kind": "augmented",
            "base": spec_to_json(spec.base, names),
            "key": format_unipoly(spec.key, names[:-1], names[-1]),
            "value": format_element(spec.assigned),
        }
    raise TypeError(f"cannot serialize {type(spec).__name__}")


def _innermost_weight_names(val_obj) -> list:
    cur = val_obj
    while True:
        kind = _field(cur, "kind")
        if kind == "monomial":
            return list(_field(cur, "weights", dict))
        cur = _field(cur, "inner" if kind == "composite" else "base")


def load_problem(obj):
    """Full problem JSON: {"group": ..., "vars": [...], "val": {...}}.

    Returns (group, names, spec). Without a ``vars`` key the variable order
    is the innermost weight-map order; the last name is the distinguished
    variable.
    """
    if not isinstance(obj, dict):
        raise ParseError("a problem must be a JSON object")
    group = group_from_json(obj.get("group", {"generators": ["1", "pi"]}))
    val = _field(obj, "val")
    names = obj["vars"] if "vars" in obj else _innermost_weight_names(val)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ParseError("field 'vars' must be a JSON list of variable names")
    if not names:
        raise ParseError("field 'vars' names no variable")
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable names")
    return group, list(names), spec_from_json(group, names, val)


def problem_to_json(group: ValueGroup, names, spec) -> dict:
    return {
        "group": group_to_json(group),
        "vars": list(names),
        "val": spec_to_json(spec, names),
    }


# -- files -------------------------------------------------------------------------


def _write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting an existing file in place.

    The text is encoded before the file is touched, so an encoding error
    leaves the old file whole. The file is opened without ``O_TRUNC``,
    written from its start, and then cut at the end of the new bytes: on
    ext4 (``auto_da_alloc``), closing a file that was truncated to zero
    starts its writeback, about 100 us on every rewrite of a trace or state.
    As with ``open(path, "w")``, the file keeps its inode (hard links, a
    symlink's target and the mode stay), a new file gets mode 0o666 under
    the umask, and the bytes are the same on POSIX. Only a regular file is
    cut, so a device such as ``/dev/null`` or a pipe still works as a target.

    A process killed mid-write leaves the first bytes of the new text over
    the rest of the old file. That is usually malformed, and ``read_trace``
    with replay and ``state_from_json`` reject it (ParseError or
    CertificationError). The one exception: where the bytes written equal
    the old file's start, as when the new text is a prefix of the old file,
    the complete old file remains, a valid artifact of the earlier run.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(data))
