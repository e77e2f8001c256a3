"""Exact arithmetic and total lexicographic order for value groups.

A value group element is a fixed-length vector of scalars compared
lexicographically; each scalar is a finite rational combination of declared
real generators.  The generator set is treated as linearly independent over
the rationals, so a nonzero combination is never zero and sign decisions by
interval refinement always terminate.  Two sentinels extend the order:
``PLUS_INFINITY`` above everything and ``MINUS_INFINITY`` below everything.

Canonical form: an element of rank r stores ``nums``, r blocks of one integer
numerator per generator in its group's declaration order, over one positive
integer denominator ``den`` shared by every block, with ``gcd(den, *nums) ==
1``; the zero element is all zeros over 1.  A ``Scalar`` is one block in the
same form, with its own denominator; ``GroupElement.entries`` shows an
element's blocks as scalars.  ``Scalar.coeffs`` shows a scalar as
``(name, coefficient)`` pairs for the nonzero coefficients, each in the
rational normal form of ``exact_algebra.normal_rational`` (an ``int`` when
integral, else a ``Fraction`` with denominator > 1); a generator's rational
value takes the same form.  ``Scalar(...)`` establishes the canonical form for
any ``int`` or ``Fraction`` input and raises ``TypeError`` for any other.
Element arithmetic (sums, negations, multiples, quotients by positive
integers, linear combinations, ``lift``) is one pass over the flat integers,
reduced by one gcd; it builds the result with the private
``GroupElement._canonical``, which trusts its input, as ``Scalar._canonical``
does; no other module calls them.  ``least_value`` finds the least of many
monomial values in one integer pass.  A comparison takes the sign of the
first nonzero block of the difference, built only when the two elements
differ; ``Scalar.sign``, asked on that block, is the one place a sign is
decided.

A generator fixes its sign when it is built: a rational one from its value, an
enclosure one by refining until the enclosure excludes zero (``ArithmeticError``
after ``_MAX_REFINE`` levels).  An enclosure generator keeps every level it has
refined to as four integers, the bounds' numerators and denominators; a level
is asked of its callback, and its ``lo < hi`` checked, once, the first time a
decision needs it.  A group holds its rational generators' values as integers
over one common denominator, so the rational terms of a scalar sum to an
integer ``exact`` over a positive denominator.  ``Scalar.sign`` reads the block
in one pass: it sums ``exact`` and notes the first enclosure term, whether
there is another, and whether any other has the opposite sign.  The sign is
decided by the first rule that applies:

* no coefficients: sign 0;
* no enclosure generator: the sign of ``exact``;
* ``exact`` and every enclosure term ``c * g`` of one sign (a zero ``exact``
  aside): that sign, as for one coefficient ``c`` on ``g``, ``sign(c) * sign(g)``;
  no level is read;
* one enclosure generator ``g`` with coefficient ``c``: the side of
  ``t = -exact / c`` on which ``g``'s kept levels fall, read level by level
  and decided by integer cross-multiplication; these are exactly the levels
  at which the interval sum would exclude zero;
* otherwise the sum of the enclosures, level by level, as an integer fraction
  for each bound, until it excludes zero.

Arithmetic and comparisons work in the left operand's group.  An operand that
carries a generator name the result's group does not declare raises
``ForeignGenerator``, as ``Scalar(group, coeffs)`` does for a name ``group``
does not declare; another group instance with the same names is accepted, in
any declaration order (its numerators are then mapped by name).  Equality and
hashes go by name too, so such a twin of a value equals it and hashes alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
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
    Fractions) that strictly shrink as ``level`` grows.  ``enclosure(level)``
    asks the callback and raises ``ValueError`` unless ``lo < hi``.  The sign
    path asks each level through ``enclosure`` once, the first time a
    decision needs it, levels in order, and keeps it as integers
    ``(lo_num, lo_den, hi_num, hi_den)`` on the generator; later decisions
    read the kept level and neither call the callback nor check it again.
    A level that fails the check is not kept, so each decision that needs it
    raises.  ``sign`` is fixed when the generator is built; an enclosure that
    never excludes zero raises ``ArithmeticError`` then.
    """

    __slots__ = ("name", "rational", "_enclose", "_levels", "sign")

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
        self._levels = []
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

    def _level(self, level: int) -> tuple:
        """The kept bounds of ``level`` as ``(lo_num, lo_den, hi_num, hi_den)``, made through ``enclosure`` when new."""
        levels = self._levels
        while len(levels) <= level:
            lo, hi = self.enclosure(len(levels))
            levels.append((lo.numerator, lo.denominator, hi.numerator, hi.denominator))
        return levels[level]

    def _side(self, a: int, b: int) -> int:
        """Sign of ``g - a/b`` (``b > 0``) for an enclosure generator: refine until an enclosure excludes a/b."""
        for level in range(_MAX_REFINE):
            ln, ld, hn, hd = self._level(level)
            if ln * b > a * ld:
                return 1
            if hn * b < a * hd:
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

    def element(self, *scalars) -> "GroupElement":
        return GroupElement(tuple(s if isinstance(s, Scalar) else self.scalar(s) for s in scalars))

    def zero(self, rank: int) -> "GroupElement":
        return GroupElement._canonical(self, rank, self._zero * rank, 1)

    def __repr__(self):
        return f"ValueGroup({', '.join(self.names)})"


def standard_group() -> ValueGroup:
    """The group used throughout the worked examples: generators 1 and pi."""
    return ValueGroup([unit_generator(), pi_generator()])


def _reduced(group: ValueGroup, rank: int, nums, den: int) -> "GroupElement":
    """The element ``nums / den`` (``den > 0``) of ``group`` and ``rank``, divided through by the gcd."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return GroupElement._canonical(group, rank, tuple(n // g for n in nums), den // g)
    return GroupElement._canonical(group, rank, tuple(nums), den)


def _aligned(v, group: ValueGroup) -> tuple:
    """The numerators of ``v`` (a scalar or an element) in ``group``'s declaration order, block by block.

    Raises ``ForeignGenerator`` when ``v`` has a nonzero coefficient on a
    generator that ``group`` does not declare.
    """
    src = v.group.names
    if v.group is group or src == group.names:
        return v.nums
    u, w = len(src), len(group.names)
    out = [0] * (w * (len(v.nums) // u))
    foreign = []
    for i, n in enumerate(v.nums):
        if n:
            if src[i % u] in group._by_name:
                out[i // u * w + group.names.index(src[i % u])] = n
            else:
                foreign.append(src[i % u])
    if foreign:
        raise ForeignGenerator(f"generator {min(foreign)!r} is not declared by {group!r}")
    return tuple(out)


def _lead_sign(group: ValueGroup, nums, den: int) -> int:
    """Lexicographic sign of ``nums / den``: that of its first nonzero block.

    The block's sign is decided by ``Scalar.sign`` on a transient block
    scalar, which need not be reduced: only its sign is asked.
    """
    for i, n in enumerate(nums):
        if n:
            w = len(group.names)
            i -= i % w
            return Scalar._canonical(group, tuple(nums[i:i + w]), den).sign()
    return 0


class Scalar:
    """A finite rational combination of the group's generators: one block of a value.

    Stored as integer numerators aligned with the group's names over one
    positive denominator, divided through by their gcd; with independent
    generators, structural equality is semantic equality.  Arithmetic runs on
    rank-1 ``GroupElement`` values.
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

    def sign(self) -> int:
        """The one place a scalar's sign is decided, in one pass over the block.

        The rational terms sum to ``exact / (R * den)``, ``R`` the group's
        common denominator; every decision below is on ``R * den`` times the
        scalar.  The pass sums ``exact`` and keeps the first enclosure term,
        whether there is another (``several``) and whether any other has the
        opposite sign (``mixed``).
        """
        group = self.group
        exact = 0
        g1 = None  # the first enclosure generator, its numerator n1 and the sign s1 of its term
        several = mixed = False
        for n, r, g in zip(self.nums, group._rat_nums, group._gens):
            if n:
                if r is not None:
                    exact += n * r
                elif g1 is None:
                    g1, n1, s1 = g, n, g.sign if n > 0 else -g.sign
                else:
                    several = True
                    if (g.sign if n > 0 else -g.sign) != s1:
                        mixed = True
        if g1 is None:
            return (exact > 0) - (exact < 0)
        # terms of one sign, the rational part counted as one term, need no enclosure
        if not mixed and (not exact or (exact > 0) == (s1 > 0)):
            return s1
        R = group._rat_den
        if not several:
            # exact + c*g > 0 exactly when g lies on the side of t = -exact/c that c's sign picks
            c = n1 * R
            if c > 0:
                return g1._side(-exact, c)
            return -g1._side(exact, -c)
        # the interval sum lo_n/lo_d .. hi_n/hi_d of exact and every c*g, level by level
        for level in range(_MAX_REFINE):
            lo_n = hi_n = exact
            lo_d = hi_d = 1
            for n, r, g in zip(self.nums, group._rat_nums, group._gens):
                if n and r is None:
                    ln, ld, hn, hd = g._level(level)
                    c = n * R
                    if c < 0:
                        ln, ld, hn, hd = hn, hd, ln, ld
                    lo_n, lo_d = lo_n * ld + c * ln * lo_d, lo_d * ld
                    hi_n, hi_d = hi_n * hd + c * hn * hi_d, hi_d * hd
            if lo_n > 0:
                return 1
            if hi_n < 0:
                return -1
        raise ArithmeticError(
            "interval refinement failed to separate from zero; "
            "generators are not rationally independent"
        )

    def __eq__(self, other):
        # structural: same named coefficients, regardless of group instance or declaration order
        if not isinstance(other, Scalar):
            return False
        if other.group is self.group or other.group.names == self.group.names:
            return self.den == other.den and self.nums == other.nums
        return dict(self.coeffs) == dict(other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs))

    def __repr__(self):
        return f"Scalar({format_scalar(self)})"


class _Sentinel:
    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __repr__(self):
        return "PLUS_INFINITY" if self._sign > 0 else "MINUS_INFINITY"

    def __lt__(self, other):
        if self is other:
            return False
        return self._sign < 0

    def __add__(self, other):
        if isinstance(other, _Sentinel) and other is not self:
            raise ValueError("cannot add opposite infinities")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Sentinel):
            raise ValueError("cannot subtract infinities")
        return self


PLUS_INFINITY = _Sentinel(1)
MINUS_INFINITY = _Sentinel(-1)


def is_sentinel(v) -> bool:
    return isinstance(v, _Sentinel)


class GroupElement:
    """A lex-ordered vector of ``rank`` scalars of one group, stored flat.

    ``nums`` holds ``rank`` blocks of one integer numerator per generator of
    ``group``, in declaration order, over the one positive denominator
    ``den``, with ``gcd(den, *nums) == 1``.  ``GroupElement(entries)`` builds
    one from scalars, mapping each into the first one's group.
    """

    __slots__ = ("group", "rank", "nums", "den")

    def __init__(self, entries: tuple):
        if not entries:
            raise ValueError("rank must be positive")
        group = entries[0].group
        # the lcm of reduced denominators leaves no common factor with the scaled numerators
        den = lcm(*(s.den for s in entries))
        nums = []
        for s in entries:
            m = den // s.den
            nums.extend(n * m for n in _aligned(s, group))
        self.group = group
        self.rank = len(entries)
        self.nums = tuple(nums)
        self.den = den

    @classmethod
    def _canonical(cls, group: ValueGroup, rank: int, nums: tuple, den: int) -> "GroupElement":
        """An element from flat numerators and a denominator already in canonical form: no check, no copy."""
        v = object.__new__(cls)
        v.group = group
        v.rank = rank
        v.nums = nums
        v.den = den
        return v

    @property
    def entries(self) -> tuple:
        """The blocks as canonical scalars: a read-only view."""
        group, nums, den = self.group, self.nums, self.den
        w = len(group.names)
        out = []
        for i in range(0, len(nums), w):
            block = nums[i:i + w]
            g = gcd(den, *block)
            out.append(Scalar._canonical(group, tuple(n // g for n in block), den // g))
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def sign(self) -> int:
        """Sign in the lexicographic order: that of the first nonzero entry."""
        return _lead_sign(self.group, self.nums, self.den)

    def is_positive(self) -> bool:
        return self.sign() > 0

    def lift(self, extra: int = 1) -> "GroupElement":
        # Order embedding into rank+extra: prepend zero coordinates.
        return GroupElement._canonical(self.group, self.rank + extra, self.group._zero * extra + self.nums, self.den)

    def _combined(self, other: "GroupElement", subtract: bool) -> "GroupElement":
        # self + other or self - other, in self's group
        if other.rank != self.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        b = other.nums if other.group is self.group else _aligned(other, self.group)
        da, db = self.den, other.den
        sb = -da if subtract else da
        return _reduced(self.group, self.rank, [x * db + y * sb for x, y in zip(self.nums, b)], da * db)

    def __add__(self, other):
        if isinstance(other, _Sentinel):
            return other
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self._combined(other, False)

    def __sub__(self, other):
        if isinstance(other, _Sentinel):
            raise ValueError("cannot subtract a sentinel")
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self._combined(other, True)

    def __neg__(self):
        return GroupElement._canonical(self.group, self.rank, tuple(-n for n in self.nums), self.den)

    def __mul__(self, k):
        if type(k) is not int:
            k = normal_rational(k)
        if k == 1:
            return self
        p, q = (k, 1) if type(k) is int else (k.numerator, k.denominator)
        return _reduced(self.group, self.rank, [n * p for n in self.nums], self.den * q)

    __rmul__ = __mul__

    def __eq__(self, other):
        # structural: same named coefficients, regardless of group instance or declaration order
        if not isinstance(other, GroupElement) or other.rank != self.rank or other.den != self.den:
            return False
        try:
            return self.nums == _aligned(other, self.group)
        except ForeignGenerator:
            return False

    def __hash__(self):
        # by name, so that equal elements of groups declared in another order hash alike
        names = self.group.names
        w = len(names)
        return hash((self.rank, self.den, frozenset((i // w, names[i % w], n) for i, n in enumerate(self.nums) if n)))

    def _cmp(self, other) -> int:
        if other.rank != self.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        a, da, db = self.nums, self.den, other.den
        b = other.nums if other.group is self.group else _aligned(other, self.group)
        if da == db and a == b:
            return 0
        return _lead_sign(self.group, [x * db - y * da for x, y in zip(a, b)], da * db)

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

    The result takes the group of the first element with a nonzero k; with
    every k zero it is ``elements[0] * 0``.
    """
    group = acc = None
    den = 1
    for k, v in zip(ks, elements):
        if type(k) is not int:
            k = normal_rational(k)
        if not k:
            continue
        if type(k) is int:
            p, d = k, v.den
        else:
            p, d = k.numerator, v.den * k.denominator
        if group is None:
            group, rank = v.group, v.rank
        elif v.rank != rank:
            raise RankMismatch(f"rank {rank} vs {v.rank}")
        nums = v.nums if v.group is group else _aligned(v, group)
        if acc is None:
            acc, den = [p * x for x in nums], d
        elif d == den:
            acc = [a + p * x for a, x in zip(acc, nums)]
        else:  # acc/den + p*nums/d over the denominator den*d
            acc = [a * d + p * den * x for a, x in zip(acc, nums)]
            den *= d
    if group is None:
        return elements[0].group.zero(elements[0].rank)
    return _reduced(group, rank, acc, den)


def least_value(weights, exponent_vectors) -> GroupElement:
    """The least ``linear_combination(e, weights)`` over one or more integer exponent vectors ``e``.

    The weights are scaled once to one common denominator, so each term's
    value is one integer row.  The least row is kept, compared by the sign of
    the first nonzero block of the difference, and the first of equal rows
    wins; one element, in the first weight's group, is built at the end.
    """
    group, rank = weights[0].group, weights[0].rank
    den = lcm(*(w.den for w in weights))
    rows = []
    for w in weights:
        if w.rank != rank:
            raise RankMismatch(f"rank {rank} vs {w.rank}")
        nums = w.nums if w.group is group else _aligned(w, group)
        m = den // w.den
        rows.append([n * m for n in nums])
    cols = list(zip(*rows))
    best = None
    for e in exponent_vectors:
        row = [sum(map(mul, e, c)) for c in cols]
        if best is None or _lead_sign(group, [a - b for a, b in zip(row, best)], den) < 0:
            best = row
    return _reduced(group, rank, best, den)


def neg(a):
    return -a


def div_by_positive_int(a, n: int):
    """Exact division in the divisible hull."""
    if isinstance(a, _Sentinel):
        raise ValueError("cannot divide a sentinel")
    if type(n) is bool or not isinstance(n, int) or n < 1:
        raise DivideByNonPositive(f"divisor must be a positive integer, got {n!r}")
    return _reduced(a.group, a.rank, a.nums, a.den * n)


# ---------------------------------------------------------------------------
# Text form: elements "(s1, s2)", scalars "a + b*g", rationals "p/q".

def _format_block(names, nums, den: int) -> str:
    # each coefficient is reduced on its own, so the block need not be
    parts = []
    for name, n in zip(names, nums):
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


def format_scalar(s: Scalar) -> str:
    return _format_block(s.group.names, s.nums, s.den)


def format_element(v) -> str:
    if isinstance(v, _Sentinel):
        return "+inf" if v._sign > 0 else "-inf"
    names, nums = v.group.names, v.nums
    w = len(names)
    blocks = [_format_block(names, nums[i:i + w], v.den) for i in range(0, len(nums), w)]
    return blocks[0] if v.rank == 1 else "(" + ", ".join(blocks) + ")"


# One term of a scalar block, with the whitespace before and after it: a sign
# (which only the first term may omit), then n, n/d, n*g, n/d*g or g.
_SCALAR_TERM = re.compile(
    r"\s*(?:(?P<sign>[+-])\s*)?(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?(?:\s*\*\s*(?P<gen1>[A-Za-z_]\w*))?"
    r"|(?P<gen2>[A-Za-z_]\w*))\s*"
)

# A term once every space is deleted, for the refusal messages.
_TERM_RE = re.compile(
    r"""^(?:
        (?P<num>\d+(?:/\d+)?)(?:\*(?P<gen1>[A-Za-z_]\w*))?
        | (?P<gen2>[A-Za-z_]\w*)
    )$""",
    re.VERBOSE,
)


def _read_block(group: ValueGroup, text: str):
    """``text`` as one block: ``(numerators, denominator)``, not reduced; None when it is no block of ``group``.

    One scan of ``_SCALAR_TERM`` from the start; each term adds its
    coefficient into numerators over one common denominator, raised only by
    a term whose denominator does not divide it.
    """
    names = group.names
    nums = [0] * len(names)
    den = 1
    pos, end = 0, len(text)
    while True:
        m = _SCALAR_TERM.match(text, pos)
        if m is None or (pos and not m["sign"]):
            return None
        name = m["gen2"] or m["gen1"] or "1"
        p, q = int(m["num"] or 1), int(m["den"] or 1)
        if not q or name not in group._by_name:
            return None
        if den % q:
            r = q // gcd(den, q)
            nums = [n * r for n in nums]
            den *= r
        i = names.index(name)
        nums[i] += (-p if m["sign"] == "-" else p) * (den // q)
        pos = m.end()
        if pos == end:
            return nums, den


def _scalar_refusal(group: ValueGroup, text: str) -> Optional[ParseError]:
    """Why ``text``, which ``_read_block`` refused, is no scalar; None when a space is the only fault.

    Every space is deleted, and the text is split into terms at its signs: the
    first term that is empty, malformed, over a zero denominator or on an
    undeclared generator names the fault. When every term reads, the deleted
    spaces split a number or a name, and ``_read_block`` reads the text
    without them.
    """
    s = text.strip().replace(" ", "")
    if not s:
        return ParseError("empty scalar")
    for term in re.split("[+-]", s[1:] if s[0] in "+-" else s):
        if not term:
            return ParseError(f"bad scalar: {text!r}")
        m = _TERM_RE.match(term)
        if not m:
            return ParseError(f"bad scalar term: {term!r}")
        name = m["gen2"]
        if name is None:
            if not int(m["num"].partition("/")[2] or 1):
                return ParseError(f"zero denominator in {term!r}")
            name = m["gen1"] or "1"
        if name not in group._by_name:
            return ParseError(f"unknown generator {name!r} in {text!r}")
    return None


def _split_token(text: str) -> ParseError:
    return ParseError(f"whitespace inside a number or a name in {text!r}")


def parse_scalar(group: ValueGroup, text: str) -> Scalar:
    """Inverse of format_scalar; accepts "1+pi", "2*pi", "-3/2*g", "0".

    Grammar: ``scalar = [sign] term (sign term)*``, ``term = number ["*"
    name] | name``, ``number = digits ["/" digits]``, where a name is a
    generator of ``group`` and a bare number lands on the generator named
    "1". Whitespace (``str.isspace``) may stand between tokens, around
    signs, ``*`` and ``/``, but not inside a number or a name: "1 0" and
    "p i" raise ``ParseError``. The text is read in one scan straight into
    integer numerators over one denominator.
    """
    block = _read_block(group, text)
    if block is None:
        raise _scalar_refusal(group, text) or _split_token(text)
    nums, den = block
    g = gcd(den, *nums)
    return Scalar._canonical(group, tuple(n // g for n in nums), den // g)


def parse_element(group: ValueGroup, text: str, rank: Optional[int] = None):
    """Inverse of format_element; accepts sentinels, "(a, b)" and bare scalars.

    Grammar: ``element = sentinel | scalar | "(" scalar ("," scalar)* ")"``,
    where a sentinel is ``+inf``, ``inf``, ``-inf``, ``+infinity``,
    ``infinity`` or ``-infinity`` in any case, and each scalar follows
    ``parse_scalar``'s grammar and whitespace rule. The blocks are read into
    numerators over one denominator, and the element is built once. With
    ``rank`` given, a rank-1 zero widens to the zero of that rank, and any
    other rank raises ``RankMismatch``. A block that only a space inside a
    number or a name spoils is refused after every other fault is looked
    for, so that each such fault keeps its message.
    """
    s = text.strip()
    low = s.lower()
    if low in ("+inf", "inf", "+infinity", "infinity"):
        return PLUS_INFINITY
    if low in ("-inf", "-infinity"):
        return MINUS_INFINITY
    if s.startswith("(") and s.endswith(")"):
        parts = s[1:-1].split(",")
        if any(not p.strip() for p in parts):
            raise ParseError(f"bad element: {text!r}")
    else:
        parts = (s,)
    blocks = []
    spaced = None
    den = 1
    for part in parts:
        block = _read_block(group, part)
        if block is None:
            exc = _scalar_refusal(group, part)
            if exc is not None:
                raise exc
            block = _read_block(group, part.replace(" ", ""))
            spaced = spaced or part
        blocks.append(block)
        den = lcm(den, block[1])
    n = len(blocks)
    if rank is not None and n != rank and (n > 1 or rank < 2 or any(blocks[0][0])):
        raise RankMismatch(f"expected rank {rank}, got {n} in {text!r}")
    if spaced is not None:
        raise _split_token(spaced)
    if rank is not None and n != rank:
        return group.zero(rank)
    return _reduced(group, n, [x * (den // d) for nums, d in blocks for x in nums], den)
