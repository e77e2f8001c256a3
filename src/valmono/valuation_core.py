"""Valuations and their derived invariants.

Two spec shapes form towers:

* ``Monomial``: weights per variable, value of a polynomial is the minimal
  weighted degree of its monomials, extended to quotients by subtraction.
* ``Augmented``: MacLane's augmentation (1936); value is the minimum of
  base(p_j) + j*assigned over the key expansion. ``Composite(key, inner)``
  assigns e_0 = (1, 0, ..., 0) one rank above ``inner`` (Vaquie 2007):
  base values are lifted with a leading 0 and term j leads with j, so the
  first nonzero expansion coefficient gives the least term.

Both take their input through one shared ``value``; each keeps only its own
rules, ``_value_unipoly`` and ``_least_terms``. ``Augmented`` expands its
input along its key and values each nonzero expansion coefficient, or an
input below the key's degree, by calling the base's rule directly. The shared checks are made
once, where the input enters: the coefficients have the input's width and
are tested for zero on the way. On top of the specs: epsilon reports,
truncation reports and residues of value-zero elements.

A residue is decided, not searched. The value of A - c*B is the least term
of the difference of the two key expansions, so a rational c with
v(A - c*B) > v(B) exists exactly when the least-value terms of A and B sit
at the same places with one ratio of coefficients, a number under
``Monomial`` and a base residue under ``Augmented``; it is unique.
``_residue_search`` reads it by that rule and checks the rise exactly:
``residue_of_unit`` asks it for every equal-value blow-up step, and
``next_successor`` on the pair (q^alpha, f) of every successor q^alpha - c*f;
without a rational residue it raises ``TranscendentalResidue``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    CertificationError,
    NonMonicKey,
    NonUnitFactor,
    RankMismatch,
    TranscendentalResidue,
    UnknownVariable,
    ZeroPolynomial,
)
from .exact_algebra import (
    MultiPoly,
    RationalFunction,
    UniPoly,
    divided_derivative,
    ev_leq,
    q_expansion,
    to_unipoly,
)
from .ordered_value import (
    MINUS_INFINITY,
    PLUS_INFINITY,
    GroupElement,
    ValueGroup,
    compare,
    div_by_positive_int,
    least_value,
    linear_combination,
)


def monomial_value(weights, exps) -> GroupElement:
    """Value of the Laurent monomial with these exponents: sum of e * weight."""
    return linear_combination(exps, weights)


class _Spec:
    """The one input path shared by every spec variant.

    Inputs are told apart by their exact type, so a ``bool`` is refused like
    any other non-polynomial. A nonzero constant number has value zero. A
    rational function over all variables, Laurent numerators included, is
    first multiplied through by the monomial that clears its numerator's
    negative exponents, then valued as numerator minus denominator.
    Polynomials reach ``_value_multipoly``, which splits them along the last
    variable unless the variant has a direct rule; ``UniPoly`` values reach
    the variant's own rule, ``_value_unipoly``, once their width is checked
    and they are not zero.
    """

    def value(self, f):
        t = type(f)
        if t is MultiPoly:
            return self._value_multipoly(f)
        if t is UniPoly:
            return self._value_checked(f)
        if t is RationalFunction:
            if f.width != self.width:
                raise UnknownVariable("rational function width mismatch")
            num, den = f.laurent_free()
            return self._value_multipoly(num) - self._value_multipoly(den)
        if t is int or t is Fraction:
            return PLUS_INFINITY if f == 0 else self.group.zero(self.rank)
        raise TypeError(f"cannot evaluate {t.__name__}")

    def _value_multipoly(self, p: MultiPoly):
        return self._value_checked(to_unipoly(p))

    def _value_checked(self, f: UniPoly):
        if f.width != self.width - 1:
            raise UnknownVariable("univariate base width mismatch")
        if f.is_zero():
            return PLUS_INFINITY
        return self._value_unipoly(f)


class Monomial(_Spec):
    """Monomial valuation: positional weights, one per variable, all > 0.

    The last variable is the distinguished one; univariate inputs over
    width n-1 use the first n-1 weights for their coefficients.
    """

    def __init__(self, group: ValueGroup, weights: Sequence[GroupElement]):
        weights = tuple(weights)
        if not weights:
            raise ValueError("at least one weight required")
        rank = weights[0].rank
        for w in weights:
            if w.rank != rank:
                raise RankMismatch("weights of mixed rank")
            if not w.is_positive():
                raise ValueError("weights must be strictly positive (centered)")
        self.group = group
        self.weights = weights
        self.rank = rank
        self.width = len(weights)

    def _value_multipoly(self, p: MultiPoly):
        if p.is_zero():
            return PLUS_INFINITY
        if p.width != self.width:
            raise UnknownVariable(f"polynomial width {p.width} != {self.width}")
        # least monomial value over the terms; Laurent exponents allowed
        return least_value(self.weights, p.terms)

    def _value_unipoly(self, f: UniPoly):
        # one pass over every term, with its degree in the last variable appended
        return least_value(self.weights, [e + (i,) for i, c in enumerate(f.coeffs) for e in c.terms])

    def _least_terms(self, f: UniPoly) -> tuple:
        """(value, terms, exponents): f's terms by exponent, and the exponents of those that attain the value."""
        terms = {e + (i,): a for i, c in enumerate(f.coeffs) for e, a in c.terms.items()}
        low = least_value(self.weights, terms)
        return low, terms, {e for e in terms if compare(monomial_value(self.weights, e), low) == 0}


class Augmented(_Spec):
    """Augmentation of ``base`` along ``key``: the assigned value exceeds the
    key's base value at the base's rank, or is e_0 one rank up (``lifts``)."""

    def __init__(self, base, key: UniPoly, assigned: GroupElement):
        if key.degree < 1 or not key.is_monic():
            raise NonMonicKey("augmented key must be monic of positive degree")
        self.lifts = assigned.rank == base.rank + 1
        if self.lifts:
            # e_0 exceeds every lifted base value: the key's is not computed
            group = base.group
            if "1" not in group.names or assigned != group.element(1, *[0] * base.rank):
                raise RankMismatch("an assigned value one rank above the base must be (1, 0, ..., 0)")
        else:
            base_val = base.value(key)
            if assigned.rank != base.rank:
                raise RankMismatch("assigned value rank differs from base rank")
            if not compare(assigned, base_val) > 0:
                raise ValueError("assigned value must strictly exceed the base value of the key")
        self.base = base
        self.key = key
        self.assigned = assigned
        self.group = base.group
        self.rank = assigned.rank
        self.width = base.width

    def _value_unipoly(self, f: UniPoly):
        return self._least_terms(f)[0]

    def _least_terms(self, f: UniPoly) -> tuple:
        """(value, parts, indices): f's key expansion with the indices of its
        least-value terms. Below the key's degree f is its own expansion, so
        the base value stands (MacLane 1936)."""
        parts = [f] if f.degree < self.key.degree else q_expansion(f, self.key)
        if self.lifts:
            # term j leads with j and a lifted base value with 0, so the
            # first nonzero coefficient's term is the least
            j = next(j for j, p in enumerate(parts) if not p.is_zero())
            v = self.base._value_unipoly(parts[j]).lift()
            return (v + self.assigned * j if j else v), parts, [j]
        best, at = None, []
        for j, p in enumerate(parts):
            if p.is_zero():
                continue
            v = self.base._value_unipoly(p)
            if j:
                v = v + self.assigned * j
            c = -1 if best is None else compare(v, best)
            if c < 0:
                best, at = v, [j]
            elif c == 0:
                at.append(j)
        return best, parts, at


def Composite(key: UniPoly, inner) -> Augmented:
    """``Augmented(inner, key, e_0)``: value(P) = (n, inner(p_n)), where p_n is
    the first nonzero coefficient of the key expansion of P."""
    return Augmented(inner, key, inner.group.element(1, *[0] * inner.rank))


# -- derived invariants --------------------------------------------------------


@dataclass
class EpsilonReport:
    epsilon: object  # GroupElement or MINUS_INFINITY
    b: int | None
    I: tuple


def epsilon(spec, p: UniPoly, value=None) -> EpsilonReport:
    """max over b >= 1 of (value(p) - value(divided_derivative(p, b)))/b.

    ``value``, when given, is the caller's value of p, not computed again.
    """
    if p.is_zero():
        raise ZeroPolynomial("epsilon of the zero polynomial")
    if p.degree == 0:
        return EpsilonReport(MINUS_INFINITY, None, ())
    vp = spec.value(p) if value is None else value
    best = None
    hits: list[int] = []
    for b in range(1, p.degree + 1):
        d = divided_derivative(p, b)
        q = div_by_positive_int(vp - spec.value(d), b)
        c = 1 if best is None else compare(q, best)
        if c > 0:
            best = q
            hits = [b]
        elif c == 0:
            hits.append(b)
    return EpsilonReport(best, hits[0], tuple(hits))


@dataclass
class TruncationReport:
    value: object
    S: tuple
    delta: int | None
    terms: tuple


def truncated_value(spec, q: UniPoly, p: UniPoly) -> TruncationReport:
    """Minimum term value of the key expansion, with its argmin set."""
    if q.degree < 1 or not q.is_monic():
        raise NonMonicKey("truncation key must be monic of positive degree")
    if p.is_zero():
        return TruncationReport(PLUS_INFINITY, (), None, ())
    vq = spec.value(q)
    terms = []
    for j, part in enumerate(q_expansion(p, q)):
        if part.is_zero():
            terms.append(PLUS_INFINITY)
        else:
            terms.append(spec.value(part) + vq * j)
    best = None
    for t in terms:
        if best is None or compare(t, best) < 0:
            best = t
    S = tuple(j for j, t in enumerate(terms) if compare(t, best) == 0)
    return TruncationReport(best, S, max(S), tuple(terms))


def _residue(spec, A, B) -> Fraction:
    """The one rational c with v(A - c*B) > v(B), for polynomials of equal value: the
    one ratio of their least-value terms, which must sit at the same places, read
    as numbers under a monomial spec and as base residues under an augmented one."""
    if type(A) is MultiPoly:
        A, B = to_unipoly(A), to_unipoly(B)
    while type(spec) is Augmented and max(A.degree, B.degree) < spec.key.degree:
        spec = spec.base  # below the key's degree a polynomial is its own expansion
    (_, pa, at), (_, pb, bt) = spec._least_terms(A), spec._least_terms(B)
    ratio = Fraction if type(spec) is Monomial else lambda a, b: _residue(spec.base, a, b)
    cs = {ratio(pa[j], pb[j]) for j in at} if at == bt else ()
    if len(cs) != 1:
        raise TranscendentalResidue("no rational residue matches the element")
    return cs.pop()


def _residue_search(spec, num, den, value) -> tuple:
    """The residue c of polynomials num/den, both of value ``value``, with v(num - c*den), infinite where zero."""
    c = _residue(spec, num, den)
    v = spec.value(num - den * c)
    if compare(v, value) <= 0:
        raise CertificationError("the residue does not raise the value of the element")
    return c, v


def residue_of_unit(spec, h) -> tuple:
    """Exact rational residue c of a value-zero element, with v(h - c).

    The residue is the one rational with v(h - c) > 0: the common ratio of
    the least-value terms of numerator and denominator, level by level down
    the tower. The value returned with it is the one that certified it, plus
    infinity when h is the constant c.
    """
    # a folded Laurent numerator cannot be split along the key; unfold it
    num, den = h.laurent_free()
    vden = spec.value(den)
    if compare(spec.value(num), vden) != 0:
        raise NonUnitFactor("residue of an element with nonzero value")
    c, v = _residue_search(spec, num, den, vden)
    return c, v - vden


def minimalize_monomials(exponents) -> list:
    """Drop exponent vectors componentwise above another; dedupe; sort."""
    uniq = sorted(set(tuple(e) for e in exponents), key=lambda e: (sum(e), e))
    out = []
    for e in uniq:
        if not any(ev_leq(m, e) for m in out):
            out.append(e)
    return out
