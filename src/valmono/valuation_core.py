"""Valuations and their derived invariants.

Three spec variants form towers:

* ``Monomial``: weights per variable, value of a polynomial is the minimal
  weighted degree of its monomials, extended to quotients by subtraction.
* ``Composite``: prepends the key-adic order as a new most-significant
  coordinate; the remaining coordinates come from the inner spec evaluated
  on the first nonzero expansion coefficient.
* ``Augmented``: same rank as its base; value is the minimum of
  base(p_j) + j*assigned over the key expansion.

On top of the specs: epsilon reports, truncation reports, and
non-degeneracy against a frame's monomial valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NonMonicKey, RankMismatch, ZeroPolynomial
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
    add,
    compare,
    div_by_positive_int,
    is_sentinel,
    neg,
)


def _scale(v, k: int):
    """k*v for a GroupElement or sentinel, k >= 0."""
    if is_sentinel(v):
        if k == 0:
            raise ValueError("0 * infinity")
        return v
    return v * k


class Monomial:
    """Monomial valuation: positional weights, one per variable, all > 0.

    The last variable is the distinguished one; univariate inputs over
    width n-1 use the first n-1 weights for their coefficients.
    """

    kind = "monomial"

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
        self._head = Monomial(group, weights[:-1]) if len(weights) > 1 else None

    def monomial_value(self, exps) -> GroupElement:
        out = None
        for e, w in zip(exps, self.weights):
            if e:
                term = w * e
                out = term if out is None else out + term
        if out is None:
            out = self.weights[0] * 0
        return out

    def _value_multipoly(self, p: MultiPoly):
        if p.is_zero():
            return PLUS_INFINITY
        if p.width != self.width:
            raise ValueError(f"polynomial width {p.width} != {self.width}")
        best = None
        for e in p.terms:
            v = self.monomial_value(e)
            if best is None or compare(v, best) < 0:
                best = v
        return best

    def _value_coeff(self, c: RationalFunction):
        """Value of a width n-1 coefficient under the first n-1 weights."""
        if c.is_zero():
            return PLUS_INFINITY
        if self._head is None:
            return self.weights[0] * 0
        return add(self._head._value_multipoly(c.num), neg(self._head._value_multipoly(c.den)))

    def value(self, f):
        if isinstance(f, (int, Fraction)):
            return PLUS_INFINITY if f == 0 else self.weights[0] * 0
        if isinstance(f, MultiPoly):
            return self._value_multipoly(f)
        if isinstance(f, RationalFunction):
            if f.width == self.width:
                return add(self._value_multipoly(f.num), neg(self._value_multipoly(f.den)))
            if f.width == self.width - 1:
                return self._value_coeff(f)
            raise ValueError("rational function width mismatch")
        if isinstance(f, UniPoly):
            if f.width != self.width - 1:
                raise ValueError("univariate base width mismatch")
            if f.is_zero():
                return PLUS_INFINITY
            w_last = self.weights[-1]
            best = None
            for i, c in enumerate(f.coeffs):
                if c.is_zero():
                    continue
                v = add(self._value_coeff(c), _scale(w_last, i) if i else w_last * 0)
                if best is None or compare(v, best) < 0:
                    best = v
            return best
        raise TypeError(f"cannot evaluate {type(f).__name__}")


class Composite:
    """Key-adic order prepended to an inner valuation of the coefficient.

    value(P) = (n, inner(p_n)) where p_n is the first nonzero coefficient
    of the key expansion of P. Rank grows by one.
    """

    kind = "composite"

    def __init__(self, key: UniPoly, inner):
        if key.degree < 1 or not key.is_monic():
            raise NonMonicKey("composite key must be monic of positive degree")
        self.key = key
        self.inner = inner
        self.group = inner.group
        self.rank = inner.rank + 1
        self.width = inner.width

    def _order_scalar(self, n: int):
        return self.group.scalar(value=Fraction(n))

    def _prepend(self, n: int, v) -> GroupElement:
        if is_sentinel(v):
            raise ValueError("inner value of a nonzero coefficient must be finite")
        return GroupElement((self._order_scalar(n),) + v.entries)

    def value(self, f):
        if isinstance(f, (int, Fraction)):
            if f == 0:
                return PLUS_INFINITY
            return self._prepend(0, self.inner.value(1))
        if isinstance(f, MultiPoly):
            f = to_unipoly(f)
        if isinstance(f, RationalFunction):
            if f.width == self.width - 1:
                f = UniPoly(f.width, [f])
            else:
                return add(self.value(f.num), neg(self.value(f.den)))
        if not isinstance(f, UniPoly):
            raise TypeError(f"cannot evaluate {type(f).__name__}")
        if f.is_zero():
            return PLUS_INFINITY
        parts = q_expansion(f, self.key)
        for n, p in enumerate(parts):
            if not p.is_zero():
                return self._prepend(n, self.inner.value(p))
        raise AssertionError("nonzero polynomial with zero expansion")


class Augmented:
    """Truncation with an assigned key value strictly above the base value."""

    kind = "augmented"

    def __init__(self, base, key: UniPoly, assigned: GroupElement):
        if key.degree < 1 or not key.is_monic():
            raise NonMonicKey("augmented key must be monic of positive degree")
        base_val = base.value(key)
        if assigned.rank != base.rank:
            raise RankMismatch("assigned value rank differs from base rank")
        if not compare(assigned, base_val) > 0:
            raise ValueError("assigned value must strictly exceed the base value of the key")
        self.base = base
        self.key = key
        self.assigned = assigned
        self.group = base.group
        self.rank = base.rank
        self.width = base.width

    def value(self, f):
        if isinstance(f, (int, Fraction)):
            return self.base.value(f)
        if isinstance(f, MultiPoly):
            f = to_unipoly(f)
        if isinstance(f, RationalFunction):
            if f.width == self.width - 1:
                f = UniPoly(f.width, [f])
            else:
                return add(self.value(f.num), neg(self.value(f.den)))
        if not isinstance(f, UniPoly):
            raise TypeError(f"cannot evaluate {type(f).__name__}")
        if f.is_zero():
            return PLUS_INFINITY
        best = None
        for j, p in enumerate(q_expansion(f, self.key)):
            if p.is_zero():
                continue
            v = add(self.base.value(p), _scale(self.assigned, j) if j else self.assigned * 0)
            if best is None or compare(v, best) < 0:
                best = v
        return best


# -- derived invariants --------------------------------------------------------


@dataclass
class EpsilonReport:
    epsilon: object  # GroupElement or MINUS_INFINITY
    b: int | None
    I: tuple

    def is_finite(self) -> bool:
        return not is_sentinel(self.epsilon)


def epsilon(spec, p: UniPoly) -> EpsilonReport:
    """max over b >= 1 of (value(p) - value(divided_derivative(p, b)))/b."""
    if p.is_zero():
        raise ZeroPolynomial("epsilon of the zero polynomial")
    if p.degree == 0:
        return EpsilonReport(MINUS_INFINITY, None, ())
    vp = spec.value(p)
    best = None
    hits: list[int] = []
    for b in range(1, p.degree + 1):
        d = divided_derivative(p, b)
        q = div_by_positive_int(add(vp, neg(spec.value(d))), b)
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

    @property
    def delta_is_one(self) -> bool:
        return self.delta == 1


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
            terms.append(add(spec.value(part), _scale(vq, j) if j else vq * 0))
    best = None
    for t in terms:
        if best is None or compare(t, best) < 0:
            best = t
    S = tuple(j for j, t in enumerate(terms) if compare(t, best) == 0)
    return TruncationReport(best, S, max(S), tuple(terms))


def minimalize_monomials(exponents) -> list:
    """Drop exponent vectors componentwise above another; dedupe; sort."""
    uniq = sorted(set(tuple(e) for e in exponents), key=lambda e: (sum(e), e))
    out = []
    for e in uniq:
        if not any(ev_leq(m, e) for m in out):
            out.append(e)
    return out


def is_non_degenerate(spec, frame_val: Monomial, f: MultiPoly, value=None):
    """Compare the frame's monomial value with the spec value on f.

    ``value`` is the spec value of f when the caller already has it.
    Returns (flag, witness): the witness is the minimalized monomial
    support of f, and exists only when the values agree.
    """
    if f.is_zero():
        raise ZeroPolynomial("non-degeneracy of the zero polynomial")
    vu = frame_val.value(f)
    v = spec.value(f) if value is None else value
    if compare(vu, v) == 0:
        return True, minimalize_monomials(f.terms.keys())
    return False, None
