"""Test-side algebra: helpers and oracles that no valmono code path needs.

``from_q_expansion`` rebuilds a polynomial from its key expansion,
``x_power`` is a power of the distinguished variable, ``ev_gcd`` is the
gcd of an exponent vector, and ``relation_lattice`` is a primitive basis
of the integer relations among values, read off ``successors._hermite``.
"""

from math import gcd
from typing import Sequence

from valmono.exact_algebra import UniPoly
from valmono.successors import _common_denominator, _flatten, _hermite


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
