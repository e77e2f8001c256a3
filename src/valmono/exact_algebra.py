"""Exact polynomial arithmetic for the toolkit.

Three layers, all over exact rationals:

* ``MultiPoly``: multivariate Laurent polynomials in the base variables,
  stored as a map from exponent tuples to nonzero rationals.
* ``UniPoly``: polynomials in one distinguished variable whose
  coefficients are ``MultiPoly`` values over the other variables, Laurent
  exponents allowed; carries Euclidean division, divided derivatives and
  expansion along a monic key.
* ``RationalFunction``: a quotient of two ``MultiPoly`` values over all the
  variables, for the images and units of blow-up frames.  A denominator
  equal to 1 is always the one shared ``MultiPoly.one(width)``, so a
  fraction with denominator 1 costs no extra polynomial and is recognised
  by identity.

Every stored rational has one normal form, set by ``normal_rational``: an
``int`` when the value is an integer, otherwise a ``Fraction`` with
denominator > 1.  Most coefficients are integers, and ``int`` arithmetic is
far cheaper than ``Fraction``'s.  ``int / int`` is a float, so a quotient of
coefficients is always written ``Fraction(a, b)``.  Anything that is not an
``int`` or a ``Fraction`` (a float, a string, a ``bool``) raises ``TypeError``.

Polynomials are immutable values: no code writes into a ``terms`` map after
``MultiPoly.__init__`` has built it, and results share coefficients and whole
polynomials with their operands.  Sharing the 1 relies on this.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import le
from typing import Iterable, Sequence

from .errors import NonMonicDivisor

ExponentVector = tuple  # tuple of ints, Laurent exponents allowed


# -- exponent-vector helpers -------------------------------------------------

def ev_zero(width: int) -> ExponentVector:
    return (0,) * width


def ev_unit(width: int, i: int) -> ExponentVector:
    return tuple(1 if q == i else 0 for q in range(width))


def ev_add(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return tuple(x + y for x, y in zip(a, b))


def ev_sub(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return tuple(x - y for x, y in zip(a, b))


def ev_min(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return tuple(min(x, y) for x, y in zip(a, b))


def ev_scale(a: ExponentVector, k: int) -> ExponentVector:
    return tuple(x * k for x in a)


def ev_leq(a: ExponentVector, b: ExponentVector) -> bool:
    """Componentwise order: a divides b as monomials."""
    return all(map(le, a, b))


def ev_support(a: ExponentVector) -> tuple:
    return tuple(i for i, x in enumerate(a) if x)


def _grlex_key(e: ExponentVector):
    return (sum(e), e)


# -- rational normal form ----------------------------------------------------

def normal_rational(c):
    """``c`` in normal form: an int when integral, else a Fraction with denominator > 1.

    Only ``int`` and ``Fraction`` are exact rationals here; a ``bool`` is
    rejected like a float or a string, so a truth value never turns into 0 or 1.
    """
    t = type(c)
    if t is int:
        return c
    if t is Fraction:
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be an int or a Fraction, not {t.__name__}: {c!r}")


_ONES: dict = {}  # width -> the shared polynomial 1, built on first use


class MultiPoly:
    """Laurent polynomial: finite map exponent tuple -> nonzero rational in normal form."""

    __slots__ = ("width", "terms")

    def __init__(self, width: int, terms: dict):
        self.width = width
        clean = {}
        for e, c in terms.items():
            if type(c) is not int:
                c = normal_rational(c)
            if c:
                if len(e) != width:
                    raise ValueError(f"exponent arity {len(e)} != width {width}")
                clean[tuple(e)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, width: int) -> "MultiPoly":
        return cls(width, {})

    @classmethod
    def constant(cls, width: int, c) -> "MultiPoly":
        return cls(width, {ev_zero(width): c})

    @classmethod
    def one(cls, width: int) -> "MultiPoly":
        """The shared 1 of this width."""
        one = _ONES.get(width)
        if one is None:
            one = _ONES[width] = MultiPoly(width, {ev_zero(width): 1})
        return one

    @classmethod
    def monomial(cls, width: int, exps: Sequence[int], c=1) -> "MultiPoly":
        return cls(width, {tuple(exps): c})

    @classmethod
    def variable(cls, width: int, i: int) -> "MultiPoly":
        return cls.monomial(width, ev_unit(width, i))

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self):
        return self.terms.get(ev_zero(self.width), 0)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(ev_zero(self.width)) == 1

    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def single_term(self) -> tuple:
        """(exponents, coefficient) of the unique term."""
        ((e, c),) = self.terms.items()
        return e, c

    def is_laurent_free(self) -> bool:
        return all(all(x >= 0 for x in e) for e in self.terms)

    def leading(self) -> tuple:
        """Greatest term under graded lex; determinism only."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # a polynomial read as the fraction p/1; perfbench reads UniPoly coefficients this way
    @property
    def num(self) -> "MultiPoly":
        return self

    @property
    def den(self) -> "MultiPoly":
        return MultiPoly.one(self.width)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.width != other.width:
            raise ValueError(f"width {self.width} != {other.width}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.width, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            old = terms.get(e)
            terms[e] = c if old is None else old + c
        return MultiPoly(self.width, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.width, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.width, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            old = terms.get(e)
            terms[e] = -c if old is None else old - c
        return MultiPoly(self.width, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = normal_rational(other)
            return MultiPoly(self.width, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = ev_add(e1, e2)
                old = terms.get(e)
                terms[e] = c1 * c2 if old is None else old + c1 * c2
        return MultiPoly(self.width, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial; use RationalFunction")
        out = MultiPoly.one(self.width)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def shift(self, e: ExponentVector) -> "MultiPoly":
        """Multiply by the Laurent monomial with exponents e."""
        return MultiPoly(self.width, {ev_add(t, e): c for t, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.width, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.width == other.width and self.terms == other.terms

    def __repr__(self):
        if self.is_zero():
            return "MultiPoly(0)"
        body = " + ".join(f"{c}*u^{e}" for e, c in sorted(self.terms.items()))
        return f"MultiPoly({body})"


class RationalFunction:
    """Quotient of two MultiPoly values.

    Normal form: a zero numerator forces denominator 1; a single-term
    denominator is folded into the (Laurent) numerator; otherwise the
    denominator is made Laurent-free with no common monomial factor and
    scaled so its graded-lex leading coefficient is 1.  Denominator 1 is
    always the shared ``MultiPoly.one(width)``: a fraction built with no
    denominator or with that object skips normalisation, and sums and
    products of fractions with denominator 1 skip the denominator products,
    which would give the same result.
    Polynomials are immutable values, so fractions share them freely.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        one = MultiPoly.one(num.width)
        if den is None or den is one:
            self.num = num
            self.den = one
            return
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.width != den.width:
            raise ValueError("numerator and denominator width differ")
        if num.is_zero():
            den = one
        elif den.is_single_term():
            e, c = den.single_term()
            if any(e):
                num = num.shift(ev_scale(e, -1))
            if c != 1:
                num = num * Fraction(1, c)
            den = one
        else:
            lows = None
            for e in den.terms:
                lows = e if lows is None else ev_min(lows, e)
            if any(lows):
                num = num.shift(ev_scale(lows, -1))
                den = den.shift(ev_scale(lows, -1))
            _, lc = den.leading()
            if lc != 1:
                inv = Fraction(1, lc)
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @property
    def width(self) -> int:
        return self.num.width

    @classmethod
    def of(cls, value, width: int | None = None) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, MultiPoly):
            return cls(value)
        if width is None:
            raise ValueError("width required to lift a constant")
        return cls(MultiPoly.constant(width, value))

    @classmethod
    def zero(cls, width: int) -> "RationalFunction":
        return cls(MultiPoly.zero(width))

    @classmethod
    def one(cls, width: int) -> "RationalFunction":
        return cls(MultiPoly.one(width))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def laurent_free(self) -> tuple:
        """(num*m, den*m) for the least monomial m clearing the numerator's negative exponents."""
        lows = ev_zero(self.width)
        for e in self.num.terms:
            lows = ev_min(lows, e)
        if not any(lows):
            return self.num, self.den
        m = ev_scale(lows, -1)
        return self.num.shift(m), self.den.shift(m)

    def __add__(self, other):
        other = RationalFunction.of(other, self.width)
        if self.den.is_one() and other.den.is_one():
            return RationalFunction(self.num + other.num)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFunction.of(other, self.width))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RationalFunction.of(other, self.width)
        if self.den.is_one() and other.den.is_one():
            return RationalFunction(self.num * other.num)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFunction.of(other, self.width)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int):
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction(self.num**k, self.den**k)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = RationalFunction.of(other, self.width)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __repr__(self):
        if self.den.is_one():
            return f"RF({self.num!r})"
        return f"RF({self.num!r} / {self.den!r})"


def _coefficient(c, width: int) -> MultiPoly:
    """A UniPoly coefficient: a MultiPoly, a rational constant, or a fraction over 1, unwrapped."""
    if isinstance(c, MultiPoly):
        return c
    if isinstance(c, RationalFunction):
        if c.den.is_one():
            return c.num
        raise TypeError("a UniPoly coefficient must be a polynomial, not a fraction")
    return MultiPoly.constant(width, c)


class UniPoly:
    """Polynomial in the distinguished variable over Laurent polynomials.

    ``coeffs[i]`` multiplies the i-th power; the tuple never ends in a zero.
    ``width`` is the arity of the base-variable layer.
    """

    __slots__ = ("width", "coeffs")

    def __init__(self, width: int, coeffs: Iterable):
        cs = [c if type(c) is MultiPoly else _coefficient(c, width) for c in coeffs]
        while cs and not cs[-1].terms:
            cs.pop()
        self.width = width
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, width: int) -> "UniPoly":
        return cls(width, [])

    @classmethod
    def constant(cls, width: int, c) -> "UniPoly":
        return cls(width, [c])

    @classmethod
    def one(cls, width: int) -> "UniPoly":
        return cls.constant(width, 1)

    @classmethod
    def x(cls, width: int) -> "UniPoly":
        return cls(width, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def coeff(self, i: int) -> MultiPoly:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return MultiPoly.zero(self.width)

    def __add__(self, other):
        other = _as_unipoly(other, self.width)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.width, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.width, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_unipoly(other, self.width))

    def __mul__(self, other):
        other = _as_unipoly(other, self.width)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.width)
        out = [MultiPoly.zero(self.width)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.width, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly.one(self.width)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, c) -> "UniPoly":
        c = _coefficient(c, self.width)
        return UniPoly(self.width, [a * c for a in self.coeffs])

    def __eq__(self, other):
        # another base width differs; an operand that is no polynomial is left to its own __eq__
        if isinstance(other, UniPoly):
            return self.width == other.width and self.coeffs == other.coeffs
        if not isinstance(other, (int, Fraction, MultiPoly, RationalFunction)):
            return NotImplemented
        return self.coeffs == UniPoly(self.width, [other]).coeffs

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        return "UniPoly(" + ", ".join(repr(c) for c in self.coeffs) + ")"


def _as_unipoly(value, width: int) -> UniPoly:
    if isinstance(value, UniPoly):
        if value.width != width:
            raise ValueError("mixed base arity")
        return value
    return UniPoly(width, [value])


# -- operations ---------------------------------------------------------------

def divided_derivative(p: UniPoly, b: int) -> UniPoly:
    """b-th derivative divided by b!: binomial-weighted coefficient shift."""
    if b < 1:
        raise ValueError("order must be >= 1")
    if b > p.degree:
        return UniPoly.zero(p.width)
    return UniPoly(
        p.width,
        [p.coeffs[i] * comb(i, b) for i in range(b, len(p.coeffs))],
    )


def euclid_div(p: UniPoly, q: UniPoly) -> tuple:
    """p = quot*q + rem with deg rem < deg q; q must be monic of degree >= 1.

    One ``_division_round`` over p's coefficients. A step of it reduces the
    degree only when c - c*q[m] is zero, which for p's nonzero top
    coefficient c means q[m] == 1; that is checked once, before the round.
    """
    if q.degree < 1 or not q.is_monic():
        raise NonMonicDivisor("divisor must be monic of positive degree")
    m = q.degree
    if len(p.coeffs) > m and not q.coeffs[m].is_one():
        raise ArithmeticError("division failed to reduce the degree")
    lower = [(k, b) for k, b in enumerate(q.coeffs[:m]) if b.terms]
    quot, rem = _division_round(list(p.coeffs), q, lower)
    return UniPoly(p.width, quot), UniPoly(p.width, rem)


def q_expansion(p: UniPoly, q: UniPoly) -> list:
    """Coefficients p_j with p = sum p_j q^j and deg p_j < deg q.

    Along a power q = z^m of the variable the expansion regroups p's
    coefficients: p_j is the block ``p.coeffs[j*m:(j+1)*m]``, an all-zero
    block being the zero polynomial. Along any other key q's nonzero lower
    coefficients are listed once, and each p_j is the remainder of one
    ``_division_round`` of the previous round's quotient, until the quotient
    is zero. The zero polynomial expands to the empty list.
    """
    if q.degree < 1 or not q.is_monic():
        raise NonMonicDivisor("key must be monic of positive degree")
    m = q.degree
    if all(c.is_zero() for c in q.coeffs[:m]):
        return [UniPoly(p.width, p.coeffs[i:i + m]) for i in range(0, len(p.coeffs), m)]
    lower = [(k, b) for k, b in enumerate(q.coeffs[:m]) if b.terms]
    out, cs = [], list(p.coeffs)
    while cs:
        cs, rem = _division_round(cs, q, lower)
        out.append(UniPoly(p.width, rem))
    return out


def _division_round(cs: list, q: UniPoly, lower: list) -> tuple:
    """Divide the coefficient list cs in place by the monic q of degree m; (quotient, remainder) lists.

    ``lower`` holds the pairs (k, q[k]) of q's nonzero coefficients below
    the top. Schoolbook, for each degree i from the top down to m: c = cs[i]
    stays as a quotient coefficient and c*q[k] is subtracted from
    cs[i - m + k] for each pair.
    """
    m = q.degree
    for i in range(len(cs) - 1, m - 1, -1):
        c = cs[i]
        if c.terms:
            for k, b in lower:
                cs[i - m + k] = cs[i - m + k] - c * b
    return cs[m:], cs[:m]


def to_unipoly(p: MultiPoly) -> UniPoly:
    """Split a width-n polynomial along its last variable."""
    if p.width < 1:
        raise ValueError("need at least one variable")
    width = p.width - 1
    buckets: dict[int, dict] = {}
    for e, c in p.terms.items():
        k = e[-1]
        if k < 0:
            raise ValueError("negative power of the distinguished variable")
        buckets.setdefault(k, {})[e[:-1]] = c
    top = max(buckets) if buckets else -1
    return UniPoly(width, [MultiPoly(width, buckets.get(k, {})) for k in range(top + 1)])


def to_multipoly(p: UniPoly) -> MultiPoly:
    """Inverse of to_unipoly."""
    return MultiPoly(p.width + 1, {e + (k,): c for k, coeff in enumerate(p.coeffs) for e, c in coeff.terms.items()})
