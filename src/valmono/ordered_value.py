"""Exact arithmetic and total lexicographic order for value groups.

A value group element is a fixed-length tuple of scalars compared
lexicographically; each scalar is a finite rational combination of declared
real generators.  The generator set is treated as linearly independent over
the rationals, so a nonzero combination is never zero and sign decisions by
interval refinement always terminate.  Two sentinels extend the order:
``PLUS_INFINITY`` above everything and ``MINUS_INFINITY`` below everything.

Canonical form: a scalar stores one integer numerator per generator, aligned
with its group's declared names, over one positive integer denominator, with
``gcd(den, *nums) == 1``; the zero scalar is all zeros over 1.  ``Scalar.coeffs``
shows it as ``(name, coefficient)`` pairs for the nonzero coefficients, each in
the rational normal form of ``exact_algebra.normal_rational`` (an ``int`` when
integral, else a ``Fraction`` with denominator > 1); a generator's rational
value takes the same form.  ``Scalar(...)`` establishes the canonical form for
any ``int`` or ``Fraction`` input and raises ``TypeError`` for any other.
Arithmetic (sums, negations, multiples, quotients by positive integers, linear
combinations) works on the integers alone and reduces by one gcd; it builds
the result with the private ``Scalar._canonical``, which trusts its input; no
other module calls it.  A comparison takes the sign of the difference, built
only when the two scalars differ.  ``Scalar.sign`` is the one place a scalar's
sign is decided.

A generator fixes its sign when it is built: a rational one from its value, an
enclosure one by refining until the enclosure excludes zero (``ArithmeticError``
after ``_MAX_REFINE`` levels).  A group holds its rational generators' values
as integers over one common denominator, so the rational terms of a scalar sum
to an integer ``exact`` over a positive denominator.  The sign is decided by
the first rule that applies:

* no coefficients: sign 0;
* one coefficient ``c`` on generator ``g``: ``sign(c) * sign(g)``;
* no enclosure generator: the sign of ``exact``;
* one enclosure generator ``g`` with coefficient ``c``: the side of
  ``t = -exact / c`` on which ``g``'s enclosures fall, refined level by level
  and decided by integer cross-multiplication with the bounds' numerators and
  denominators; these are exactly the levels at which the interval sum would
  exclude zero;
* otherwise the sum of the enclosures, refined until it excludes zero.

Arithmetic and comparisons work in the left operand's group.  An operand that
carries a generator name the result's group does not declare raises
``ForeignGenerator``, as ``Scalar(group, coeffs)`` does for a name ``group``
does not declare; another group instance with the same names is accepted, in
any declaration order (its numerators are then mapped by name).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
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

    ``enclose(level)`` must return rational bounds ``lo < hi`` (ints or
    Fractions) that strictly shrink as ``level`` grows.  ``sign`` is fixed
    when the generator is built; an enclosure that never excludes zero raises
    ``ArithmeticError`` then.
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
            self.sign = self._side(0, 1)

    def enclosure(self, level: int) -> tuple:
        if self.rational is not None:
            return (self.rational, self.rational)
        lo, hi = self._enclose(level)
        if not lo.numerator * hi.denominator < hi.numerator * lo.denominator:
            raise ValueError(f"enclosure for {self.name!r} must satisfy lo < hi")
        return lo, hi

    def _side(self, a: int, b: int) -> int:
        """Sign of ``g - a/b`` (``b > 0``) for an enclosure generator: refine until an enclosure excludes a/b."""
        for level in range(_MAX_REFINE):
            lo, hi = self.enclosure(level)
            if lo.numerator * b > a * lo.denominator:
                return 1
            if hi.numerator * b < a * hi.denominator:
                return -1
        g = gcd(a, b)
        t = a // g if g == b else f"{a // g}/{b // g}"
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

    __slots__ = ("names", "_by_name", "_rat_den", "_rat_nums", "_gens", "_zero")

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
        # the rational values as integers over one denominator R, None at an enclosure generator
        self._rat_den = lcm(*(g.rational.denominator for g in gens if g.rational is not None))
        self._rat_nums = tuple(
            None if g.rational is None else g.rational.numerator * (self._rat_den // g.rational.denominator)
            for g in gens
        )
        self._gens = gens
        self._zero = (0,) * len(gens)

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
        return Scalar._canonical(self, self._zero, 1)

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


def _reduced(group: ValueGroup, nums, den: int) -> "Scalar":
    """The scalar ``nums / den`` (``den > 0``) in ``group``, divided through by the gcd."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return Scalar._canonical(group, tuple(n // g for n in nums), den // g)
    return Scalar._canonical(group, tuple(nums), den)


def _aligned(s: "Scalar", group: ValueGroup):
    """``s``'s numerators in ``group``'s declaration order.

    Raises ``ForeignGenerator`` when ``s`` has a nonzero coefficient on a
    generator that ``group`` does not declare.
    """
    if s.group is group or s.group.names == group.names:
        return s.nums
    out = [0] * len(group.names)
    foreign = []
    for name, n in zip(s.group.names, s.nums):
        if n:
            if name in group._by_name:
                out[group.names.index(name)] = n
            else:
                foreign.append(name)
    if foreign:
        raise ForeignGenerator(f"generator {min(foreign)!r} is not declared by {group!r}")
    return out


class Scalar:
    """A finite rational combination of the group's generators.

    Stored as integer numerators aligned with the group's names over one
    positive denominator, divided through by their gcd; with independent
    generators, structural equality is semantic equality.
    """

    __slots__ = ("group", "nums", "den")

    def __init__(self, group: ValueGroup, coeffs: dict):
        vals = [normal_rational(coeffs[name]) if name in coeffs else 0 for name in group.names]
        # the names are looked at only when some coefficient was dropped
        if len(vals) - vals.count(0) < len(coeffs) and not coeffs.keys() <= group._by_name.keys():
            foreign = sorted(coeffs.keys() - group._by_name.keys())
            raise ForeignGenerator(f"generator {foreign[0]!r} is not declared by {group!r}")
        den = 1
        for c in vals:
            if type(c) is not int:
                den = lcm(den, c.denominator)
        self.group = group
        self.nums = tuple(vals) if den == 1 else tuple(
            c * den if type(c) is int else c.numerator * (den // c.denominator) for c in vals
        )
        self.den = den

    @classmethod
    def _canonical(cls, group: ValueGroup, nums: tuple, den: int) -> "Scalar":
        """A scalar from numerators and a denominator already in canonical form: no check, no copy."""
        s = object.__new__(cls)
        s.group = group
        s.nums = nums
        s.den = den
        return s

    @property
    def coeffs(self) -> tuple:
        """``(name, coefficient)`` for each nonzero coefficient, in declaration order and normal form."""
        den = self.den
        if den == 1:
            return tuple((name, n) for name, n in zip(self.group.names, self.nums) if n)
        return tuple(
            (name, n // den if n % den == 0 else Fraction(n, den))
            for name, n in zip(self.group.names, self.nums) if n
        )

    def _combined(self, other: "Scalar", subtract: bool) -> "Scalar":
        # self + other or self - other, in self's group
        group = self.group
        if not any(other.nums):
            return self
        if other.group is group and not any(self.nums):
            return -other if subtract else other
        a, b = self.nums, other.nums if other.group is group else _aligned(other, group)
        da, db = self.den, other.den
        if subtract:
            nums = [x * db - y * da for x, y in zip(a, b)]
        else:
            nums = [x * db + y * da for x, y in zip(a, b)]
        return _reduced(group, nums, da * db)

    def _order(self, other: "Scalar") -> int:
        """Sign of self - other; the difference is built only when the two differ."""
        if other.group is self.group and self.den == other.den and self.nums == other.nums:
            return 0
        return self._combined(other, True).sign()

    def is_zero(self) -> bool:
        return not any(self.nums)

    def sign(self) -> int:
        """The one place a scalar's sign is decided.

        The rational terms sum to ``exact / (R * den)``, ``R`` the group's
        common denominator; every decision below is on ``R * den`` times the
        scalar.
        """
        nums = self.nums
        if not any(nums):
            return 0
        group = self.group
        exact = 0
        irr = []
        for n, r, g in zip(nums, group._rat_nums, group._gens):
            if n:
                if r is None:
                    irr.append((n, g))
                else:
                    exact += n * r
        if not irr:
            return (exact > 0) - (exact < 0)
        R = group._rat_den
        if len(irr) == 1:
            n, g = irr[0]
            if not exact and nums.count(0) == len(nums) - 1:
                return g.sign if n > 0 else -g.sign
            # exact + c*g > 0 exactly when g lies on the side of t = -exact/c that c's sign picks
            c = n * R
            if c > 0:
                return g._side(-exact, c)
            return -g._side(exact, -c)
        for level in range(_MAX_REFINE):
            lo = hi = exact
            for n, g in irr:
                glo, ghi = g.enclosure(level)
                c = n * R
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
        return Scalar._canonical(self.group, tuple(-n for n in self.nums), self.den)

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
            return Scalar._canonical(self.group, self.group._zero, 1)
        if type(k) is int:
            return _reduced(self.group, [n * k for n in self.nums], self.den)
        p = k.numerator
        return _reduced(self.group, [n * p for n in self.nums], self.den * k.denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        # structural: same named coefficients, regardless of group instance
        if not isinstance(other, Scalar):
            return False
        if other.group is self.group or other.group.names == self.group.names:
            return self.den == other.den and self.nums == other.nums
        return self.coeffs == other.coeffs

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

    def sign(self) -> int:
        """Sign in the lexicographic order: that of the first nonzero entry."""
        for s in self.entries:
            if any(s.nums):
                return s.sign()
        return 0

    def is_positive(self) -> bool:
        return self.sign() > 0

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
        return GroupElement(tuple(a._combined(b, False) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if isinstance(other, _Sentinel):
            raise ValueError("cannot subtract a sentinel")
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.rank != self.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        return GroupElement(tuple(a._combined(b, True) for a, b in zip(self.entries, other.entries)))

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
        if len(other.entries) != len(self.entries):
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
    terms = []  # (p, q, entries) for each nonzero k = p/q
    for k, v in zip(ks, elements):
        if type(k) is not int:
            k = normal_rational(k)
        if k:
            terms.append((k, 1, v.entries) if type(k) is int else (k.numerator, k.denominator, v.entries))
    lead = terms[0][2] if terms else elements[0].entries
    for _, _, entries in terms:
        if len(entries) != len(lead):
            raise RankMismatch(f"rank {len(lead)} vs {len(entries)}")
    out = []
    for j, first in enumerate(lead):
        group = first.group
        acc, den = None, 1
        for p, q, entries in terms:
            s = entries[j]
            nums = s.nums if s.group is group else _aligned(s, group)
            if not any(nums):
                continue
            d = s.den * q
            if acc is None:
                acc, den = [p * x for x in nums], d
            else:  # acc/den + p*nums/d over the denominator den*d
                acc = [a * d + p * den * x for a, x in zip(acc, nums)]
                den *= d
        out.append(Scalar._canonical(group, group._zero, 1) if acc is None else _reduced(group, acc, den))
    return GroupElement(tuple(out))


def neg(a):
    return -a


def div_by_positive_int(a, n: int):
    """Exact division in the divisible hull."""
    if isinstance(a, _Sentinel):
        raise ValueError("cannot divide a sentinel")
    if not isinstance(n, int) or n < 1:
        raise DivideByNonPositive(f"divisor must be a positive integer, got {n!r}")
    return GroupElement(tuple(_reduced(s.group, s.nums, s.den * n) for s in a.entries))


# ---------------------------------------------------------------------------
# Text form: elements "(s1, s2)", scalars "a + b*g", rationals "p/q".

def format_scalar(s: Scalar) -> str:
    parts = []
    den = s.den
    for name, n in zip(s.group.names, s.nums):
        if not n:
            continue
        g = gcd(n, den)
        p, q = abs(n) // g, den // g  # |coefficient| = p/q in lowest terms
        size = str(p) if q == 1 else f"{p}/{q}"
        if name == "1":
            body = size
        elif p == q:
            body = name
        else:
            body = f"{size}*{name}"
        if not parts:
            parts.append(body if n > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if n > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


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
