"""Test-side algebra: helpers and oracles that no valmono code path needs.

``from_q_expansion`` rebuilds a polynomial from its key expansion,
``x_power`` is a power of the distinguished variable, ``ev_gcd`` is the
gcd of an exponent vector, and ``relation_lattice`` is a primitive basis
of the integer relations among values, read off ``successors._hermite``.
``candidate_residue`` is the residue search that valmono ran before it read
residues off the least-value terms of the key expansions.
"""

from fractions import Fraction
from math import gcd
from typing import Sequence

from valmono.errors import TranscendentalResidue
from valmono.exact_algebra import MultiPoly, UniPoly, q_expansion, to_multipoly, to_unipoly
from valmono.ordered_value import compare
from valmono.successors import _common_denominator, _flatten, _hermite
from valmono.valuation_core import Augmented


def x_power(width: int, k: int) -> UniPoly:
    return UniPoly(width, [0] * k + [1])


def ev_gcd(a) -> int:
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g


def from_q_expansion(coeffs: Sequence[UniPoly], q: UniPoly) -> UniPoly:
    width = q.width
    out = UniPoly.zero(width)
    power = UniPoly.one(width)
    for c in coeffs:
        out = out + c * power
        power = power * q
    return out


def relation_lattice(values) -> list:
    """Primitive integer basis of the relations sum e_q * v_q = 0."""
    vals = list(values)
    if not vals:
        return []
    names = vals[0].group.names
    cols = [_flatten(v, names) for v in vals]
    den = _common_denominator(cols)
    A, U, _ = _hermite([[int(a * den) for a in col] for col in cols])
    out = []
    for a_col, vec in zip(A, U):
        if any(a_col):
            continue
        g = 0
        for a in vec:
            g = gcd(g, a)
        if g:
            vec = [a // g for a in vec]
        lead = next((a for a in vec if a), 0)
        if lead < 0:
            vec = [-a for a in vec]
        out.append(tuple(vec))
    return sorted(out)


def _multipoly_or_none(p):
    if isinstance(p, MultiPoly):
        return p
    if isinstance(p, UniPoly):
        if all(c.is_laurent_free() for c in p.coeffs):
            return to_multipoly(p)
    return None


def _residue_candidates(spec, A, B) -> set:
    """Rational candidates for the residue of A/B, every level of the tower: ratios of nonzero coefficients."""
    out: set = set()
    Am, Bm = _multipoly_or_none(A), _multipoly_or_none(B)
    if Am is None or Bm is None:
        return out
    for e in set(Am.terms) & set(Bm.terms):
        out.add(Fraction(Am.terms[e], Bm.terms[e]))
    if isinstance(spec, Augmented) and Am.is_laurent_free() and Bm.is_laurent_free():
        pa = q_expansion(to_unipoly(Am), spec.key)
        pb = q_expansion(to_unipoly(Bm), spec.key)
        for j in range(min(len(pa), len(pb))):
            if not pa[j].is_zero() and not pb[j].is_zero():
                out |= _residue_candidates(spec.base, pa[j], pb[j])
    return out


def candidate_residue(spec, num, den) -> Fraction:
    """The residue of num/den, polynomials of equal value, by the candidate search.

    Every ratio of a coefficient shared by numerator and denominator, at
    every level of the tower, is a candidate; the least one whose shift
    num - c*den has a higher value than den is the residue. A pair split
    along the last variable with Laurent coefficients is first multiplied by
    the monomial that clears them, as successors were. Raises
    ``TranscendentalResidue`` when no candidate works.
    """
    if isinstance(num, UniPoly):
        terms = [e for p in (num, den) for c in p.coeffs for e in c.terms]
        m = MultiPoly.monomial(num.width, [max(0, *(-e[i] for e in terms)) for i in range(num.width)])
        num, den = num * UniPoly.constant(num.width, m), den * UniPoly.constant(num.width, m)
    value = spec.value(den)
    for c in sorted(_residue_candidates(spec, num, den)):
        shifted = num - den * c
        if shifted.is_zero() or compare(spec.value(shifted), value) > 0:
            return c
    raise TranscendentalResidue("no rational residue matches the element")
