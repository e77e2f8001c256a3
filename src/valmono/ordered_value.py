"""Exact arithmetic and total lexicographic order for value groups.

A value group element is a fixed-length tuple of scalars compared
lexicographically; each scalar is a finite rational combination of declared
real generators.  The generator set is treated as linearly independent over
the rationals, so a nonzero combination is never zero and sign decisions by
interval refinement always terminate.  Two sentinels extend the order:
``PLUS_INFINITY`` above everything and ``MINUS_INFINITY`` below everything.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .errors import DivideByNonPositive, ParseError, RankMismatch

# Refinement levels before giving up; dependent generators are user error.
_MAX_REFINE = 64


def _arctan_inv_bounds(m: int, terms: int) -> tuple[Fraction, Fraction]:
    # Alternating series for arctan(1/m), m >= 2: consecutive partial sums
    # bracket the limit, so the last two give a certified enclosure.
    x = Fraction(1, m)
    x2 = x * x
    term = x
    total = Fraction(0)
    prev = Fraction(0)
    for k in range(max(2, terms)):
        prev = total
        total += term if k % 2 == 0 else -term
        term = term * x2 * (2 * k + 1) / (2 * k + 3)
    return (total, prev) if total < prev else (prev, total)


@lru_cache(maxsize=None)
def _pi_bounds(terms: int) -> tuple[Fraction, Fraction]:
    # 16*arctan(1/5) - 4*arctan(1/239), interval arithmetic on the brackets.
    a_lo, a_hi = _arctan_inv_bounds(5, terms)
    b_lo, b_hi = _arctan_inv_bounds(239, max(2, terms // 2))
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def _default_pi_terms() -> int:
    # Each arctan(1/5) term adds ~1.4 decimal digits.
    digits = int(os.environ.get("VALMONO_PI_DIGITS", "12"))
    return max(4, digits)


class IndependentGenerator:
    """One scalar-field generator: an exact rational or a refinable enclosure.

    ``enclose(level)`` must return rational bounds ``lo < hi`` that strictly
    shrink as ``level`` grows.
    """

    __slots__ = ("name", "rational", "_enclose")

    def __init__(
        self,
        name: str,
        rational=None,
        enclose: Optional[Callable[[int], tuple[Fraction, Fraction]]] = None,
    ):
        if (rational is None) == (enclose is None):
            raise ValueError("need exactly one of a rational value or an enclosure callback")
        self.name = name
        self.rational = None if rational is None else Fraction(rational)
        self._enclose = enclose

    def enclosure(self, level: int) -> tuple[Fraction, Fraction]:
        if self.rational is not None:
            return (self.rational, self.rational)
        lo, hi = self._enclose(level)
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise ValueError(f"enclosure for {self.name!r} must satisfy lo < hi")
        return lo, hi

    def __repr__(self):
        if self.rational is not None:
            return f"IndependentGenerator({self.name!r}, rational={self.rational})"
        return f"IndependentGenerator({self.name!r}, enclose=...)"


def unit_generator(name: str = "1") -> IndependentGenerator:
    return IndependentGenerator(name, rational=1)


def pi_generator(name: str = "pi") -> IndependentGenerator:
    base = _default_pi_terms()

    def enclose(level: int) -> tuple[Fraction, Fraction]:
        return _pi_bounds(base + 8 * level)

    return IndependentGenerator(name, enclose=enclose)


class ValueGroup:
    """Shared generator context for scalars and group elements."""

    __slots__ = ("names", "_by_name")

    def __init__(self, generators: Iterable[IndependentGenerator]):
        gens = tuple(generators)
        self._by_name = {}
        for g in gens:
            if g.name in self._by_name:
                raise ValueError(f"duplicate generator {g.name!r}")
            self._by_name[g.name] = g
        self.names = tuple(g.name for g in gens)
        if not self.names:
            raise ValueError("a value group needs at least one generator")

    def generator(self, name: str) -> IndependentGenerator:
        return self._by_name[name]

    def scalar(self, value=0, **named) -> "Scalar":
        """Build a scalar from a rational and/or name=coefficient terms.

        ``value`` lands on the generator literally named "1" when present,
        otherwise it must be zero.
        """
        coeffs: dict[str, Fraction] = {}
        v = Fraction(value)
        if v:
            if "1" not in self._by_name:
                raise ValueError("no unit generator named '1' to hold a rational part")
            coeffs["1"] = v
        for name, c in named.items():
            if name not in self._by_name:
                raise ValueError(f"unknown generator {name!r}")
            c = Fraction(c)
            if c:
                coeffs[name] = coeffs.get(name, Fraction(0)) + c
        return Scalar(self, coeffs)

    def zero_scalar(self) -> "Scalar":
        return Scalar(self, {})

    def element(self, *scalars) -> "GroupElement":
        entries = []
        for s in scalars:
            if isinstance(s, Scalar):
                entries.append(s)
            else:
                entries.append(self.scalar(s))
        return GroupElement(tuple(entries))

    def zero(self, rank: int) -> "GroupElement":
        return GroupElement(tuple(self.zero_scalar() for _ in range(rank)))

    def __eq__(self, other):
        return isinstance(other, ValueGroup) and self._by_name is other._by_name

    def __hash__(self):
        return id(self._by_name)

    def __repr__(self):
        return f"ValueGroup({', '.join(self.names)})"


def standard_group() -> ValueGroup:
    """The group used throughout the worked examples: generators 1 and pi."""
    return ValueGroup([unit_generator(), pi_generator()])


class Scalar:
    """A finite rational combination of the group's generators.

    Canonical form drops zero coefficients and orders terms by generator
    declaration; with independent generators, structural equality is
    semantic equality.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: ValueGroup, coeffs: dict):
        self.group = group
        ordered = []
        for name in group.names:
            c = coeffs.get(name)
            if c:
                ordered.append((name, Fraction(c)))
        self.coeffs = tuple(ordered)

    def _dict(self) -> dict:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def sign(self) -> int:
        exact = Fraction(0)
        irr = []
        for name, c in self.coeffs:
            g = self.group.generator(name)
            if g.rational is not None:
                exact += c * g.rational
            else:
                irr.append((c, g))
        if not irr:
            return (exact > 0) - (exact < 0)
        for level in range(_MAX_REFINE):
            lo = hi = exact
            for c, g in irr:
                glo, ghi = g.enclosure(level)
                if c > 0:
                    lo, hi = lo + c * glo, hi + c * ghi
                else:
                    lo, hi = lo + c * ghi, hi + c * glo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        raise ArithmeticError(
            "interval refinement failed to separate from zero; "
            "generators are not rationally independent"
        )

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        d = self._dict()
        for name, c in other.coeffs:
            d[name] = d.get(name, Fraction(0)) + c
        return Scalar(self.group, d)

    def __neg__(self):
        return Scalar(self.group, {name: -c for name, c in self.coeffs})

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, k):
        k = Fraction(k)
        return Scalar(self.group, {name: c * k for name, c in self.coeffs})

    __rmul__ = __mul__

    def __eq__(self, other):
        # structural: same named coefficients, regardless of group instance
        return isinstance(other, Scalar) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __repr__(self):
        return f"Scalar({format_scalar(self)})"


class _Sentinel:
    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __repr__(self):
        return "PLUS_INFINITY" if self._sign > 0 else "MINUS_INFINITY"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("sentinel", self._sign))

    def __lt__(self, other):
        if self is other:
            return False
        return self._sign < 0

    def __le__(self, other):
        return self is other or self._sign < 0

    def __gt__(self, other):
        if self is other:
            return False
        return self._sign > 0

    def __ge__(self, other):
        return self is other or self._sign > 0

    def __add__(self, other):
        if isinstance(other, _Sentinel) and other is not self:
            raise ValueError("cannot add opposite infinities")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Sentinel):
            raise ValueError("cannot subtract infinities")
        return self

    def __neg__(self):
        return MINUS_INFINITY if self._sign > 0 else PLUS_INFINITY


PLUS_INFINITY = _Sentinel(1)
MINUS_INFINITY = _Sentinel(-1)


def is_sentinel(v) -> bool:
    return isinstance(v, _Sentinel)


class GroupElement:
    """A lex-ordered tuple of scalars; all entries share one group."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        if not entries:
            raise ValueError("rank must be positive")
        self.entries = entries

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def group(self) -> ValueGroup:
        return self.entries[0].group

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.entries)

    def is_positive(self) -> bool:
        for s in self.entries:
            sg = s.sign()
            if sg:
                return sg > 0
        return False

    def lift(self, extra: int = 1) -> "GroupElement":
        # Order embedding into rank+extra: prepend zero coordinates.
        zero = self.group.zero_scalar()
        return GroupElement(tuple([zero] * extra) + self.entries)

    def __add__(self, other):
        if isinstance(other, _Sentinel):
            return other
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.rank != self.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        return GroupElement(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if isinstance(other, _Sentinel):
            raise ValueError("cannot subtract a sentinel")
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return GroupElement(tuple(-s for s in self.entries))

    def __mul__(self, k: int):
        return GroupElement(tuple(s * k for s in self.entries))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def _cmp(self, other) -> int:
        if other.rank != self.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        for a, b in zip(self.entries, other.entries):
            s = (a - b).sign()
            if s:
                return s
        return 0

    def __lt__(self, other):
        if isinstance(other, _Sentinel):
            return other._sign > 0
        return self._cmp(other) < 0

    def __le__(self, other):
        if isinstance(other, _Sentinel):
            return other._sign > 0
        return self._cmp(other) <= 0

    def __gt__(self, other):
        if isinstance(other, _Sentinel):
            return other._sign < 0
        return self._cmp(other) > 0

    def __ge__(self, other):
        if isinstance(other, _Sentinel):
            return other._sign < 0
        return self._cmp(other) >= 0

    def __repr__(self):
        return f"GroupElement({format_element(self)})"


def compare(a, b) -> int:
    """Total order: -1, 0 or 1.  Sentinels sit at the ends."""
    if isinstance(a, _Sentinel) or isinstance(b, _Sentinel):
        if a is b:
            return 0
        if isinstance(a, _Sentinel):
            return a._sign
        return -b._sign
    return a._cmp(b)


def add(a, b):
    return a + b


def neg(a):
    return -a


def div_by_positive_int(a, n: int):
    """Exact division in the divisible hull."""
    if isinstance(a, _Sentinel):
        raise ValueError("cannot divide a sentinel")
    if not isinstance(n, int) or n < 1:
        raise DivideByNonPositive(f"divisor must be a positive integer, got {n!r}")
    return GroupElement(tuple(s * Fraction(1, n) for s in a.entries))


def minimum(values):
    """Smallest of a nonempty iterable under the total order."""
    it = iter(values)
    best = next(it)
    for v in it:
        if compare(v, best) < 0:
            best = v
    return best


def maximum(values):
    it = iter(values)
    best = next(it)
    for v in it:
        if compare(v, best) > 0:
            best = v
    return best


# ---------------------------------------------------------------------------
# Text form: elements "(s1, s2)", scalars "a + b*g", rationals "p/q".

def format_fraction(f: Fraction) -> str:
    return str(f)


def format_scalar(s: Scalar) -> str:
    if not s.coeffs:
        return "0"
    parts = []
    for name, c in s.coeffs:
        if name == "1":
            body = format_fraction(abs(c))
        elif abs(c) == 1:
            body = name
        else:
            body = f"{format_fraction(abs(c))}*{name}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def format_element(v) -> str:
    if isinstance(v, _Sentinel):
        return "+inf" if v._sign > 0 else "-inf"
    if v.rank == 1:
        return format_scalar(v.entries[0])
    return "(" + ", ".join(format_scalar(s) for s in v.entries) + ")"


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
    coeffs: dict[str, Fraction] = {}
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
            name, c = m.group("gen2"), Fraction(1)
        else:
            c = Fraction(m.group("num"))
            name = m.group("gen1") or "1"
        if name not in group._by_name:
            raise ParseError(f"unknown generator {name!r} in {text!r}")
        coeffs[name] = coeffs.get(name, Fraction(0)) + sgn * c
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
        if el.rank == 1 and rank > 1 and el.entries[0].is_zero():
            return group.zero(rank)
        raise RankMismatch(f"expected rank {rank}, got {el.rank} in {text!r}")
    return el
