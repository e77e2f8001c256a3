"""Test-side oracles that share no code with valmono's valuation kernel.

``oracle_value`` is the classical arc formula for a rank-1 MacLane chain
over k(x) in z whose keys have Puiseux roots with rational coefficients
(Favre and Jonsson, *The Valuative Tree*, 2004): with T transcendental,

    v(f) = ord_t f(t^N, phi(t) + T*t^m) / N.

It substitutes with dicts keyed by (t exponent, T exponent), exactly, so a
value is read off the lowest t-power whose coefficient, a polynomial
in T, is not zero; ``initial_form`` returns that coefficient as well.

``predicted_steps`` is the Euclidean algorithm that the monomial blow-up
steps run on z^p - x^q: the sum of the partial quotients of q/p.
"""

from fractions import Fraction
from math import lcm


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ta, Ta), ca in a.items():
        for (tb, Tb), cb in b.items():
            k = (ta + tb, Ta + Tb)
            out[k] = out.get(k, 0) + ca * cb
    return out


def initial_form(f, N: int, phi: dict, m: int) -> tuple:
    """(ord_t / N, {T exponent: coefficient}) of the lowest t-power of
    f(t^N, phi(t) + T*t^m), with ``phi`` given as {t exponent: coefficient}.

    f is a nonzero ``UniPoly`` in z over Laurent polynomials in x. The
    substitution runs in integers: with z = Z/D and the coefficients of f
    over L, L * D^kmax * f(x, z) has integer coefficients, divided out at
    the end.
    """
    terms = {(e[0], k): c for k, coeff in enumerate(f.coeffs) for e, c in coeff.terms.items()}
    D = lcm(*(c.denominator for c in phi.values()))
    L = lcm(*(c.denominator for c in terms.values()))
    z = {(e, 0): int(c * D) for e, c in phi.items()}
    z[(m, 1)] = D
    kmax = max(k for _, k in terms)
    powers = [{(0, 0): 1}]
    for _ in range(kmax):
        powers.append(_mul(powers[-1], z))
    total: dict = {}
    for (i, k), c in terms.items():
        scale = int(c * L) * D ** (kmax - k)
        for (t, T), d in powers[k].items():
            key = (t + N * i, T)
            total[key] = total.get(key, 0) + scale * d
    orders = [t for (t, _), c in total.items() if c]
    if not orders:
        raise ValueError("initial form of the zero polynomial")
    low = min(orders)
    return Fraction(low, N), {T: Fraction(c, L * D**kmax) for (t, T), c in total.items() if t == low and c}


def oracle_value(f, N: int, phi: dict, m: int) -> Fraction:
    """ord_t f(t^N, phi(t) + T*t^m) / N."""
    return initial_form(f, N, phi, m)[0]


def predicted_steps(p: int, q: int) -> int:
    """Sum of the partial quotients of the continued fraction of q/p."""
    steps = 0
    while p:
        steps += q // p
        p, q = q % p, p
    return steps
