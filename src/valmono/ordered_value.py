"""Exact arithmetic and total lexicographic order for value groups.

A value group element is a fixed-length tuple of scalars compared
lexicographically; each scalar is a finite rational combination of declared
real generators.  The generator set is treated as linearly independent over
the rationals, so a nonzero combination is never zero and sign decisions by
interval refinement always terminate.  Two sentinels extend the order:
``PLUS_INFINITY`` above everything and ``MINUS_INFINITY`` below everything.

Canonical form: a scalar stores only its nonzero coefficients, each in the
rational normal form of ``exact_algebra.normal_rational`` (an ``int`` when
integral, else a ``Fraction`` with denominator > 1), in the order its group
declares the generators; a generator's rational value takes the same form.
``Scalar(...)`` establishes it for any ``int`` or ``Fraction`` input and raises
``TypeError`` for any other.  Arithmetic whose result already has it (sums,
negations, multiples, the differences that comparisons take) builds the result
with the private ``Scalar._canonical``, which trusts its input; no other module
calls it.  Sums and products still put each coefficient in normal form, since
``1/2 + 1/2`` and ``1/2 * 2`` are integral.  ``Scalar.sign`` is the one place a scalar's sign is decided.

A generator fixes its sign when it is built: a rational one from its value, an
enclosure one by refining until the enclosure excludes zero (``ArithmeticError``
after ``_MAX_REFINE`` levels).  ``Scalar.sign`` then decides by the first rule
that applies:

* no coefficients: sign 0;
* one coefficient ``c`` on generator ``g``: ``sign(c) * sign(g)``;
* one enclosure generator ``g`` with coefficient ``c``, the rational terms
  summing to ``exact``: the side of ``t = -exact / c`` on which ``g``'s
  enclosures fall, refined level by level; these are exactly the levels at
  which the interval sum would exclude zero;
* otherwise the sum of the enclosures, refined until it excludes zero.

Arithmetic and comparisons work in the left operand's group.  An operand that
carries a generator name the result's group does not declare raises
``ForeignGenerator``, as ``Scalar(group, coeffs)`` does for a name ``group``
does not declare; another group instance with the same names is accepted.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .errors import DivideByNonPositive, ForeignGenerator, ParseError, RankMismatch
from .exact_algebra import normal_rational

# Refinement levels before giving up; dependent generators are user error.
_MAX_REFINE = 64


def _arctan_inv_bounds(m: int, terms: int) -> tuple[Fraction, Fraction]:
    # Alternating series for arctan(1/m), m >= 2: consecutive partial sums
    # bracket the limit, so the last two give a certified enclosure.
    x = Fraction(1, m)
    x2 = x * x
    term = x
    total = prev = 0
    for k in range(max(2, terms)):
        prev = total
        total += term if k % 2 == 0 else -term
        term = term * x2 * Fraction(2 * k + 1, 2 * k + 3)
    return (total, prev) if total < prev else (prev, total)


@lru_cache(maxsize=None)
def _pi_bounds(terms: int) -> tuple[Fraction, Fraction]:
    # 16*arctan(1/5) - 4*arctan(1/239), interval arithmetic on the brackets.
    a_lo, a_hi = _arctan_inv_bounds(5, terms)
    b_lo, b_hi = _arctan_inv_bounds(239, max(2, terms // 2))
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


# arctan(1/5) terms at enclosure level 0; each term adds ~1.4 decimal digits
# and ``Scalar.sign`` refines further on demand
_PI_TERMS = 12


class IndependentGenerator:
    """One scalar-field generator: an exact rational or a refinable enclosure.

    ``enclose(level)`` must return rational bounds ``lo < hi`` that strictly
    shrink as ``level`` grows.  ``sign`` is fixed when the generator is built;
    an enclosure that never excludes zero raises ``ArithmeticError`` then.
    """

    __slots__ = ("name", "rational", "_enclose", "sign")

    def __init__(
        self,
        name: str,
        rational=None,
        enclose: Optional[Callable[[int], tuple[Fraction, Fraction]]] = None,
    ):
        if (rational is None) == (enclose is None):
            raise ValueError("need exactly one of a rational value or an enclosure callback")
        self.name = name
        self.rational = None if rational is None else normal_rational(rational)
        self._enclose = enclose
        if self.rational is not None:
            self.sign = (self.rational > 0) - (self.rational < 0)
        else:
            self.sign = self._side(0)

    def enclosure(self, level: int) -> tuple[Fraction, Fraction]:
        if self.rational is not None:
            return (self.rational, self.rational)
        lo, hi = self._enclose(level)
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise ValueError(f"enclosure for {self.name!r} must satisfy lo < hi")
        return lo, hi

    def _side(self, t) -> int:
        """Sign of ``g - t`` for an enclosure generator: refine until an enclosure excludes t."""
        for level in range(_MAX_REFINE):
            lo, hi = self.enclosure(level)
            if lo > t:
                return 1
            if hi < t:
                return -1
        raise ArithmeticError(
            f"interval refinement failed to separate {self.name!r} from {t}; "
            "generators are not rationally independent"
        )

    def __repr__(self):
        if self.rational is not None:
            return f"IndependentGenerator({self.name!r}, rational={self.rational})"
        return f"IndependentGenerator({self.name!r}, enclose=...)"


def unit_generator(name: str = "1") -> IndependentGenerator:
    return IndependentGenerator(name, rational=1)


def pi_generator(name: str = "pi") -> IndependentGenerator:
    def enclose(level: int) -> tuple[Fraction, Fraction]:
        return _pi_bounds(_PI_TERMS + 8 * level)

    return IndependentGenerator(name, enclose=enclose)


class ValueGroup:
    """Shared generator context for scalars and group elements."""

    __slots__ = ("names", "_by_name", "_rational")

    def __init__(self, generators: Iterable[IndependentGenerator]):
        gens = tuple(generators)
        self._by_name = {}
        for g in gens:
            if g.name in self._by_name:
                raise ValueError(f"duplicate generator {g.name!r}")
            self._by_name[g.name] = g
        self.names = tuple(g.name for g in gens)
        # name -> exact value, or None for a generator known by enclosures
        self._rational = {g.name: g.rational for g in gens}
        if not self.names:
            raise ValueError("a value group needs at least one generator")

    def generator(self, name: str) -> IndependentGenerator:
        return self._by_name[name]

    def scalar(self, value=0, **named) -> "Scalar":
        """Build a scalar from a rational and/or name=coefficient terms.

        ``value`` lands on the generator literally named "1" when present,
        otherwise it must be zero.
        """
        coeffs: dict = {}
        v = normal_rational(value)
        if v:
            if "1" not in self._by_name:
                raise ValueError("no unit generator named '1' to hold a rational part")
            coeffs["1"] = v
        for name, c in named.items():
            if name not in self._by_name:
                raise ValueError(f"unknown generator {name!r}")
            c = normal_rational(c)
            if c:
                coeffs[name] = coeffs.get(name, 0) + c
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

    Canonical form drops zero coefficients, keeps each coefficient in the
    rational normal form (an int when integral, else a Fraction) and orders
    terms by generator declaration; with independent generators, structural
    equality is semantic equality.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: ValueGroup, coeffs: dict):
        self.group = group
        ordered = []
        for name in group.names:
            if name in coeffs:
                c = normal_rational(coeffs[name])
                if c:
                    ordered.append((name, c))
        # as in _from_sums, the names are looked at only when some were dropped
        if len(ordered) < len(coeffs) and not coeffs.keys() <= group._by_name.keys():
            foreign = sorted(coeffs.keys() - group._by_name.keys())
            raise ForeignGenerator(f"generator {foreign[0]!r} is not declared by {group!r}")
        self.coeffs = tuple(ordered)

    @classmethod
    def _canonical(cls, group: ValueGroup, coeffs: tuple) -> "Scalar":
        """A scalar from ``coeffs`` already in canonical form: no check, no copy."""
        s = object.__new__(cls)
        s.group = group
        s.coeffs = coeffs
        return s

    @classmethod
    def _from_sums(cls, group: ValueGroup, sums: dict) -> "Scalar":
        """The scalar of ``sums`` (name -> coefficient, zeros allowed) in ``group``.

        Raises ``ForeignGenerator`` when ``sums`` names a generator that
        ``group`` does not declare; the names are looked at only when the
        canonical form dropped some, by cancellation or as foreign.
        """
        coeffs = tuple((name, normal_rational(sums[name])) for name in group.names if sums.get(name))
        if len(coeffs) < len(sums) and not sums.keys() <= group._by_name.keys():
            foreign = sorted(sums.keys() - group._by_name.keys())
            raise ForeignGenerator(f"generator {foreign[0]!r} is not declared by {group!r}")
        return cls._canonical(group, coeffs)

    def _combined(self, other: "Scalar", subtract: bool) -> "Scalar":
        # self + other or self - other, in self's group
        group = self.group
        if not other.coeffs:
            return self
        if not self.coeffs and other.group is group:
            return -other if subtract else other
        d = dict(self.coeffs)
        if subtract:
            for name, c in other.coeffs:
                d[name] = d.get(name, 0) - c
        else:
            for name, c in other.coeffs:
                d[name] = d.get(name, 0) + c
        return Scalar._from_sums(group, d)

    def _order(self, other: "Scalar") -> int:
        """Sign of self - other; the difference is built only when the two differ."""
        if self.coeffs == other.coeffs:
            return 0
        return self._combined(other, True).sign()

    def is_zero(self) -> bool:
        return not self.coeffs

    def sign(self) -> int:
        coeffs = self.coeffs
        if not coeffs:
            return 0
        by_name = self.group._by_name
        if len(coeffs) == 1:
            name, c = coeffs[0]
            g_sign = by_name[name].sign
            return g_sign if c > 0 else -g_sign
        exact = 0
        irr = []
        rational = self.group._rational
        for name, c in coeffs:
            r = rational[name]
            if r is not None:
                exact += c * r
            else:
                irr.append((c, by_name[name]))
        if not irr:
            return (exact > 0) - (exact < 0)
        if len(irr) == 1:
            # exact + c*g > 0 exactly when g lies on the side of t = -exact/c that c's sign picks
            c, g = irr[0]
            side = g._side(Fraction(-exact, c))
            return side if c > 0 else -side
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
        return self._combined(other, False)

    def __neg__(self):
        return Scalar._canonical(self.group, tuple((name, -c) for name, c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._combined(other, True)

    def __mul__(self, k):
        if type(k) is not int:
            k = normal_rational(k)
        if k == 1:
            return self
        if not k:
            return Scalar._canonical(self.group, ())
        return Scalar._canonical(self.group, tuple((name, normal_rational(c * k)) for name, c in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        # structural: same named coefficients, regardless of group instance
        return isinstance(other, Scalar) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        return self._order(other) < 0

    def __le__(self, other):
        return self._order(other) <= 0

    def __gt__(self, other):
        return self._order(other) > 0

    def __ge__(self, other):
        return self._order(other) >= 0

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
        if k == 1:
            return self
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
            s = a._order(b)
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


def linear_combination(ks, elements) -> GroupElement:
    """The sum of ``k * v`` over ``zip(ks, elements)`` in one pass, equal to the term-by-term sum.

    Each result entry takes the group of that entry of the first element with
    a nonzero k; with every k zero the result is ``elements[0] * 0``.
    """
    terms = []
    for k, v in zip(ks, elements):
        if type(k) is not int:
            k = normal_rational(k)
        if k:
            terms.append((k, v))
    if not terms:
        return elements[0] * 0
    lead = terms[0][1]
    for _, v in terms:
        if v.rank != lead.rank:
            raise RankMismatch(f"rank {lead.rank} vs {v.rank}")
    out = []
    for j, first in enumerate(lead.entries):
        acc = {}
        for k, v in terms:
            for name, c in v.entries[j].coeffs:
                acc[name] = acc.get(name, 0) + c * k
        out.append(Scalar._from_sums(first.group, acc))
    return GroupElement(tuple(out))


def neg(a):
    return -a


def div_by_positive_int(a, n: int):
    """Exact division in the divisible hull."""
    if isinstance(a, _Sentinel):
        raise ValueError("cannot divide a sentinel")
    if not isinstance(n, int) or n < 1:
        raise DivideByNonPositive(f"divisor must be a positive integer, got {n!r}")
    return GroupElement(tuple(s * Fraction(1, n) for s in a.entries))


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
        if el.rank == 1 and rank > 1 and el.entries[0].is_zero():
            return group.zero(rank)
        raise RankMismatch(f"expected rank {rank}, got {el.rank} in {text!r}")
    return el
