"""Test-side oracles that share no code with valmono's valuation kernel.

``oracle_value`` is the classical arc formula for a rank-1 MacLane chain
over k(x) in z whose keys have Puiseux roots with rational coefficients
(Favre and Jonsson, *The Valuative Tree*, 2004): with T transcendental,

    v(f) = ord_t f(t^N, phi(t) + T*t^m) / N.

It substitutes with dicts keyed by (t exponent, T exponent), exactly, so a
value is read off the lowest t-power whose coefficient, a polynomial
in T, is not zero; ``initial_form`` returns that coefficient as well.
``residue_is_rational`` reads the residue of a quotient of equal value off
the two initial forms: it is rational exactly when their ratio is constant
in T.

``tower_from_puiseux`` builds the MacLane chain of the same valuation. Its
keys are the minimal polynomials over k(x) of the truncations of phi before
each characteristic exponent and of phi itself, from Newton's identities
over the conjugates t -> w*t (w^N = 1), and its assigned values are the
oracle's values of the keys. Only valmono's constructors hold the result.

``predicted_steps`` is the Euclidean algorithm that the monomial blow-up
steps run on z^p - x^q: the sum of the partial quotients of q/p.
"""

from fractions import Fraction
from math import gcd, lcm

from valmono.exact_algebra import MultiPoly, UniPoly
from valmono.ordered_value import standard_group
from valmono.valuation_core import Augmented, Monomial


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ta, Ta), ca in a.items():
        for (tb, Tb), cb in b.items():
            k = (ta + tb, Ta + Tb)
            out[k] = out.get(k, 0) + ca * cb
    return out


_POWERS: dict = {}  # powers of the scaled z of each arc, by its terms


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
    powers = _POWERS.setdefault(tuple(sorted(z.items())), [{(0, 0): 1}])
    while len(powers) <= kmax:
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


def residue_is_rational(num, den, N: int, phi: dict, m: int) -> bool:
    """Whether num/den, of value 0 on the arc, has a rational residue: the
    initial forms of num and den, polynomials in T, are proportional."""
    (vn, fn), (vd, fd) = initial_form(num, N, phi, m), initial_form(den, N, phi, m)
    if vn != vd:
        raise ValueError("num and den differ in value")
    return fn.keys() == fd.keys() and len({fn[T] / fd[T] for T in fn}) == 1


def _mul_t(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return out


def _minimal_polynomial(psi: dict, N: int) -> UniPoly:
    """The minimal polynomial over k(x) of psi(t), x = t^N, monic in z.

    With g = gcd(N, exponents of psi), psi is chi(s) in s = t^g and x = s^d,
    d = N/g; the conjugates chi(w*s), w^d = 1, are distinct, and the power
    sum of their j-th powers is d times the terms of chi^j whose s-exponent
    d divides. Newton's identities turn the power sums into the elementary
    symmetric functions e_k, and the polynomial is sum (-1)^k e_k z^(d-k).
    """
    g = gcd(N, *psi)
    d = N // g
    chi = {e // g: Fraction(c) for e, c in psi.items()}
    sums, power = [None], {0: Fraction(1)}
    for _ in range(d):
        power = _mul_t(power, chi)
        sums.append({e // d: d * c for e, c in power.items() if e % d == 0 and c})
    elementary = [{0: Fraction(1)}]
    for k in range(1, d + 1):
        acc: dict = {}
        for i in range(1, k + 1):
            for e, c in _mul_t(elementary[k - i], sums[i]).items():
                acc[e] = acc.get(e, 0) + (-1) ** (i - 1) * c
        elementary.append({e: c / k for e, c in acc.items() if c})
    coeffs = [{e: (-1) ** (d - i) * c for e, c in elementary[d - i].items()} for i in range(d + 1)]
    return UniPoly(1, [MultiPoly(1, {(e,): c for e, c in cs.items()}) for cs in coeffs])


def tower_from_puiseux(phi: dict, N: int, m: int) -> tuple:
    """(spec, keys, assigned values) of the arc x = t^N, z = phi(t) + T*t^m.

    ``phi`` is {t exponent: rational}, its exponents positive and below m.
    The keys are the minimal polynomials of phi truncated before each
    characteristic exponent (where gcd(N, the exponents so far) drops), then
    of phi itself; their degrees rise strictly. The base is monomial, x of
    value 1 and z of a value below the first key's.
    """
    G = standard_group()
    cuts, g = [], N
    for e in sorted(phi):
        if gcd(g, e) < g:
            cuts.append(e)
            g = gcd(g, e)
    truncations = [{e: c for e, c in phi.items() if e < cut} for cut in cuts] + [phi]
    keys = [_minimal_polynomial(psi, N) for psi in truncations]
    values = [oracle_value(key, N, phi, m) for key in keys]
    spec = Monomial(G, [G.element(G.scalar(value=w)) for w in (Fraction(1), min(Fraction(1), values[0] / 2))])
    for key, value in zip(keys, values):
        spec = Augmented(spec, key, G.element(G.scalar(value=value)))
    return spec, keys, values


def predicted_steps(p: int, q: int) -> int:
    """Sum of the partial quotients of the continued fraction of q/p."""
    steps = 0
    while p:
        steps += q // p
        p, q = q % p, p
    return steps
