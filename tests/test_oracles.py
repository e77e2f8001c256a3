"""valmono's values and step counts against classical formulas that share no
code with it (the helpers in ``arc_oracle.py``).

* The rank-1 towers s3 and s4 over (x, z) are arc valuations:
  v(f) = ord_t f(t^N, phi(t) + T*t^m)/N with T transcendental. Seeded sums
  of key products times monomials are valued both ways.
* Towers generated from Puiseux data (N, phi, m) by ``tower_from_puiseux``,
  of depth 1 to 4, value seeded key sums as their arcs do, and
  ``residue_of_unit`` finds a rational residue exactly where the two
  initial forms on the arc are proportional.
* ``monomialize`` on every key of twenty generated towers has a pinned
  outcome, and each failure names the ROADMAP item behind it.
* ``valuation_core._residue`` reads the residue the candidate search it
  replaced (``reference_algebra.candidate_residue``) finds, or both find
  none, on seeded quotients over arc towers of depth 3 to 12, the
  generated towers, the README tower and Laurent successor pairs; 94 of
  them expand along two or more keys.
* Monomializing z^p - x^q under an augmentation of the monomial valuation
  x -> p, z -> q takes as many blow-ups as the partial quotients of q/p sum
  to: the steps run the Euclidean algorithm on (p, q).
"""

import random
from fractions import Fraction
from math import gcd, prod

import pytest

from arc_oracle import initial_form, oracle_value, predicted_steps, residue_is_rational, tower_from_puiseux
from reference_algebra import candidate_residue

from valmono.errors import CertificationError, ResidueUndefined, TranscendentalResidue
from valmono.exact_algebra import MultiPoly, RationalFunction, UniPoly, to_multipoly
from valmono.ordered_value import standard_group
from valmono import orchestrator, puiseux, valuation_core
from valmono.orchestrator import monomialize, steps_used
from valmono.valuation_core import Augmented, Composite, Monomial, _residue, residue_of_unit

SEED = 20261019

G = standard_group()
xt, Z = MultiPoly.variable(1, 0), UniPoly.x(1)
K2 = Z**2 - xt**3
K3 = K2**2 - Z * xt**5
K4 = K3**2 - K2 * xt**10


def t(a):
    return G.element(G.scalar(value=Fraction(a)))


S1 = Augmented(Monomial(G, [t(1), t(1)]), Z, t(Fraction(3, 2)))
S2 = Augmented(S1, K2, t(Fraction(13, 4)))
S3 = Augmented(S2, K3, t(Fraction(53, 8)))
S4 = Augmented(S3, K4, t(Fraction(213, 16)))

# (N, phi, m) of each tower's arc: x = t^N, z = phi(t) + T*t^m
ARC_S3 = (8, {12: 1, 14: Fraction(1, 2)}, 15)
ARC_S4 = (16, {24: 1, 28: Fraction(1, 2), 30: Fraction(-1, 4)}, 31)


def _key_sum(rng, keys, caps, arc, cache) -> UniPoly:
    """A nonzero sum of one to three terms c * x^a * prod keys[i]^b_i, b_i <= caps[i].

    A later term takes, where a few draws allow it, the x power that gives it
    the first term's value; when the two initial forms on the arc are then
    proportional, half the time its coefficient cancels the first term's.
    ``cache`` keeps each key product with its initial form.
    """
    while True:
        f = UniPoly.zero(1)
        for n in range(rng.randint(1, 3)):
            for _ in range(8):
                exps = tuple(rng.randint(0, cap) for cap in caps)
                if exps not in cache:
                    product = UniPoly.one(1)
                    for key, e in zip(keys, exps):
                        product = product * key**e
                    cache[exps] = (product, *initial_form(product, *arc))
                product, w, form = cache[exps]
                tie = n > 0 and (target - w).denominator == 1
                if n == 0 or tie:
                    break
            a = int(target - w) if tie else rng.randint(-2, 10)
            c = rng.choice((-2, -1, 1, 1, Fraction(1, 2), 3))
            if n == 0:
                target, lead = w + a, {T: c * v for T, v in form.items()}
            elif tie and form.keys() == lead.keys() and rng.randrange(2):
                ratios = {lead[T] / v for T, v in form.items()}
                if len(ratios) == 1:
                    c = -ratios.pop()
            f = f + product * (MultiPoly.monomial(1, (a,)) * c)
        if not f.is_zero():
            return f


def _assert_arc_values(spec, arc, elements):
    for f in elements:
        assert spec.value(f) == t(oracle_value(f, *arc)), f


def test_the_oracle_reads_the_keys_assigned_values():
    for spec, arc in ((S3, ARC_S3), (S4, ARC_S4)):
        assert t(oracle_value(spec.key, *arc)) == spec.assigned
    # the two terms of K4 have value 53/4 on both arcs and cancel only on s4's
    for arc in (ARC_S3, ARC_S4):
        assert oracle_value(K3**2, *arc) == oracle_value(K2 * xt**10, *arc) == Fraction(53, 4)
    assert oracle_value(K4, *ARC_S3) == Fraction(53, 4)
    assert oracle_value(K4, *ARC_S4) == Fraction(213, 16)


def test_s3_values_match_the_arc():
    rng, cache = random.Random(SEED), {}
    # K4's two terms tie at 53/4 here without cancelling
    fixed = [K4, K4 + xt**14, K4 * Z - K3 * xt**12, K3**2 - K2 * xt**10 * 2]
    elements = fixed + [_key_sum(rng, (Z, K2, K3), (3, 2, 2), ARC_S3, cache) for _ in range(200)]
    _assert_arc_values(S3, ARC_S3, elements)


def test_s4_values_match_the_arc():
    rng, cache = random.Random(SEED + 1), {}
    elements = [K4 * Z + xt**15, K4 + K3 * xt**7] + [
        _key_sum(rng, (Z, K2, K3, K4), (2, 1, 1, 1), ARC_S4, cache) for _ in range(40)
    ]
    _assert_arc_values(S4, ARC_S4, elements)


COEFFICIENTS = (1, -1, 2, Fraction(1, 2), -3)


def _puiseux_data(rng, depth: int) -> tuple:
    """(N, phi, m) of an arc whose tower has ``depth`` keys.

    Each of the depth - 1 characteristic exponents divides gcd(N, the
    exponents before it) by 2 or 3; now and then a term keeps that gcd.
    """
    factors = [2] * (depth - 1) if depth == 4 else [rng.choice((2, 2, 3)) for _ in range(depth - 1)]
    phi, e, g = {}, 0, prod(factors)
    for n in [1, *factors]:
        if n > 1:
            g //= n
            a = e // g + rng.randint(1, 2)
            while gcd(a, n) != 1:
                a += 1
            e = g * a
            phi[e] = rng.choice(COEFFICIENTS)
        if rng.random() < 0.3:
            e = g * (e // g + rng.randint(1, 2))
            phi[e] = rng.choice(COEFFICIENTS)
    return prod(factors), phi, e + rng.randint(1, 3)


def _generated_towers(rng, count: int):
    """``count`` arcs with their towers, depths 1, 2, 3, 4, 1, ..."""
    for i in range(count):
        N, phi, m = arc = _puiseux_data(rng, 1 + i % 4)
        spec, keys, _values = tower_from_puiseux(phi, N, m)
        assert len(keys) == 1 + i % 4
        yield arc, spec, keys


def test_generated_tower_values_match_the_arc():
    rng, count = random.Random(SEED + 3), 0
    for arc, spec, keys in _generated_towers(rng, 20):
        caps = ((2,), (2, 1), (2, 1, 1), (1, 1, 1, 1))[len(keys) - 1]
        cache = {}
        elements = [*keys, *(_key_sum(rng, keys, caps, arc, cache) for _ in range(8))]
        _assert_arc_values(spec, arc, elements)
        count += len(elements)
    assert count >= 200


def _unit(rng, keys, caps, arc, cache) -> tuple:
    """(num, den) of equal value on the arc: two key sums whose values differ
    by an integer, the lower one multiplied by the power of x that evens them."""
    while True:
        num, den = (_key_sum(rng, keys, caps, arc, cache) for _ in range(2))
        v, w = oracle_value(num, *arc), oracle_value(den, *arc)
        if (v - w).denominator == 1:
            x = UniPoly.constant(1, MultiPoly.monomial(1, (abs(int(v - w)),)))
            return (num, den * x) if v > w else (num * x, den)


def test_residue_verdicts_match_the_arc():
    # every verdict agrees here; a rational residue that residue_of_unit misses
    # would be ROADMAP item 16's (residues read off initial forms)
    rng, verdicts = random.Random(SEED + 5), []
    for arc, spec, keys in _generated_towers(random.Random(SEED + 4), 20):
        caps, cache = ((1,), (1, 1), (1, 1, 1), (1, 0, 0, 1))[len(keys) - 1], {}
        for _ in range(5):
            num, den = _unit(rng, keys, caps, arc, cache)
            try:
                residue, _ = residue_of_unit(spec, RationalFunction(to_multipoly(num), to_multipoly(den)))
            except TranscendentalResidue:
                residue = None
            rational = residue_is_rational(num, den, *arc)
            assert (residue is not None) == rational, (arc, num, den)
            if rational:
                (_, lead), (_, lead_den) = initial_form(num, *arc), initial_form(den, *arc)
                assert residue == lead[min(lead)] / lead_den[min(lead)]
            verdicts.append(rational)
    # both verdicts are exercised
    assert (verdicts.count(True), len(verdicts)) == (39, 100)


def _arc_tower(depth: int) -> tuple:
    """(arc, spec, keys) of s_n = Augmented(s_{n-1}, z - phi_n, n + 1) over
    Monomial(x:1, z:1), phi_n = x + x^2/2 + ... + x^n/n, up to n = depth: the
    arc x = t, z = phi_depth(t) + T*t^(depth + 1)."""
    phi = {n: Fraction(1, n) for n in range(1, depth + 1)}
    spec, keys = Monomial(G, [t(1), t(1)]), []
    for n in range(1, depth + 1):
        keys.append(Z - sum((xt**i * phi[i] for i in range(2, n + 1)), xt))
        spec = Augmented(spec, keys[-1], t(n + 1))
    return (1, phi, depth + 1), spec, keys


def _readme_pairs(rng, count: int) -> list:
    """``count`` pairs of equal value under the README tower: sums of one or two
    terms c * x^a * y^b * z^k * Q^j, matched by value; every other den is num
    scaled and given a term of higher value, so its residue is rational."""
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    z, key = UniPoly.x(2), UniPoly.x(2) ** 2 - x**2 * y
    # x -> 1, y -> 2*pi, z -> 1 + pi
    spec = Composite(key, Monomial(G, [t(1), G.element(G.scalar(pi=2)), G.element(G.scalar(value=1, pi=1))]))
    by_value, pairs = {}, []
    while len(pairs) < count:
        f = UniPoly.zero(2)
        for _ in range(rng.randint(1, 2)):
            a, b, k, j = (rng.randint(0, 3) for _ in range(4))
            f = f + z ** (k % 3) * key**(j % 3) * (x**a * y**b * rng.choice(COEFFICIENTS))
        if f.is_zero():
            continue
        v = spec.value(f)
        if len(pairs) % 2:
            higher = f * (x * rng.choice(COEFFICIENTS))
            pairs.append((spec, f, f * rng.choice(COEFFICIENTS) + higher))
        elif v in by_value:
            pairs.append((spec, f, by_value.pop(v)))
        else:
            by_value[v] = f
    return pairs


def _laurent_pairs(rng, count: int) -> list:
    """Successor pairs (q^alpha, f) whose witness f has a Laurent coefficient,
    as in ``test_a_successor_with_a_laurent_witness``, times seeded Laurent monomials."""
    x, y, z = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1), UniPoly.x(2)
    base = Monomial(G, [t(2), t(3), t(1)])
    key = z - UniPoly.constant(2, MultiPoly.monomial(2, (-1, 1), 5))
    laurent = Augmented(base, key, t(2))
    # z - x at 4 on x: 1, y: 5/2, z: 1 leaves the residue of z / (y^2/x^4) free
    free = Augmented(Monomial(G, [t(1), t(Fraction(5, 2)), t(1)]), z - UniPoly.constant(2, x), t(4))
    pairs = [(laurent, z, UniPoly.constant(2, MultiPoly.monomial(2, (-1, 1)))),
             (laurent, z, UniPoly.constant(2, MultiPoly.monomial(2, (2, -1)))),
             (laurent, z**2, UniPoly.constant(2, MultiPoly.monomial(2, (-2, 2)))),
             (free, z, UniPoly.constant(2, MultiPoly.monomial(2, (-4, 2))))]
    while len(pairs) < count:
        spec, num, den = rng.choice(pairs[:4])
        exps = (rng.randint(-3, 3), rng.randint(-3, 3))
        m = UniPoly.constant(2, MultiPoly.monomial(2, exps, rng.choice(COEFFICIENTS)))
        pairs.append((spec, num * m, den * (m * rng.choice(COEFFICIENTS))))
    return pairs


def _residue_cases(rng) -> list:
    """(spec, num, den) quotients of value zero over every kind of tower."""
    cases = [(S1, Z**2, UniPoly.constant(1, xt**3)), (S2, Z**2, UniPoly.constant(1, xt**3)),
             (S3, K2**2, Z * xt**5), (S3, Z**2, UniPoly.constant(1, xt**3))]
    for depth in range(3, 13):
        arc, spec, keys = _arc_tower(depth)
        cases += [(spec, keys[n - 2], UniPoly.constant(1, xt**n)) for n in (2, depth)]
        cache, chosen = {}, rng.sample(range(depth), 3)
        caps = tuple(int(i in chosen) for i in range(depth))
        cases += [(spec, *_unit(rng, keys, caps, arc, cache)) for _ in range(4)]
    for arc, spec, keys in _generated_towers(random.Random(SEED + 6), 20):
        caps, cache = ((2,), (1, 1), (1, 1, 1), (1, 0, 1, 1))[len(keys) - 1], {}
        cases += [(spec, *_unit(rng, keys, caps, arc, cache)) for _ in range(8)]
    return cases + _readme_pairs(rng, 40) + _laurent_pairs(rng, 20)


def test_the_residue_rule_agrees_with_the_candidate_search(monkeypatch):
    # the rule decides what the search tried candidates for; the levels of a
    # case are the keys the rule expands its quotient along
    expanded, expand = [], valuation_core.q_expansion
    monkeypatch.setattr(valuation_core, "q_expansion", lambda p, q: expanded.append(q) or expand(p, q))
    verdicts = []
    for spec, num, den in _residue_cases(random.Random(SEED + 7)):
        try:
            expected = candidate_residue(spec, num, den)
        except TranscendentalResidue:
            expected = None
        expanded.clear()
        try:
            residue = _residue(spec, num, den)
        except TranscendentalResidue:
            residue = None
        assert residue == expected, (spec, num, den)
        verdicts.append((residue is not None, len({id(q) for q in expanded})))
    deep = [rational for rational, levels in verdicts if levels >= 2]
    assert (len(verdicts), sum(r for r, _ in verdicts)) == (284, 136)
    assert (len(deep), sum(deep)) == (94, 19)
    # the pinned residues among them: 1/n on the arc towers, 1 on s2 and s3, none on s1
    for depth in range(3, 13):
        _, spec, keys = _arc_tower(depth)
        assert _residue(spec, keys[depth - 2], UniPoly.constant(1, xt**depth)) == Fraction(1, depth)
    assert _residue(S2, Z**2, UniPoly.constant(1, xt**3)) == _residue(S3, K2**2, Z * xt**5) == 1
    with pytest.raises(TranscendentalResidue):
        _residue(S1, Z**2, UniPoly.constant(1, xt**3))


# the outcome of monomialize on each key of the towers drawn alone from
# Random(SEED + 3): a step count where it certifies (30 of the 50 keys), else
# the narrow error.
# Every failure is ROADMAP item 9's: the echelon solver's witness for a key
# past the second (DEGREE, NEGATIVE). The second key of row 2 certifies in 6
# steps, its round principalizing what its equal-value step left
DEGREE = (ResidueUndefined, "witness degree reaches the key degree")
NEGATIVE = (ResidueUndefined, "witness requires a negative key power")
GENERATED_OUTCOMES = [
    (0,), (0, DEGREE), (1, 6, DEGREE), (1, 4, DEGREE, DEGREE),
    (0,), (0, 2), (0, DEGREE, DEGREE), (0, 3, DEGREE, DEGREE),
    (0,), (0, 3), (2, 4, DEGREE), (2, 5, DEGREE, DEGREE),
    (0,), (0, NEGATIVE), (1, DEGREE, DEGREE), (2, 4, DEGREE, DEGREE),
    (2,), (0, 3), (0, DEGREE, DEGREE), (0, 3, DEGREE, DEGREE),
]


def test_generated_tower_keys_monomialize_as_pinned(monkeypatch):
    # a key round whose terminal quotient is not exactly the chain link's
    # q^alpha/f searches for its residue; one such key keeps that path
    # exercised: the successor (z + x)^2 - 9x^3 + 6x^4 of a generated tower,
    # whose quotient carries the key image's unit and has residue -54, not -6
    searches, searched, advance, search = [0], [], orchestrator.advance, puiseux.residue_of_unit

    def counted_search(*args):
        searches[0] += 1
        return search(*args)

    def counted_advance(*args, **kwargs):
        before = searches[0]
        try:
            return advance(*args, **kwargs)
        finally:
            searched.append(searches[0] > before)

    monkeypatch.setattr(puiseux, "residue_of_unit", counted_search)
    monkeypatch.setattr(orchestrator, "advance", counted_advance)
    outcomes = []
    for _arc, spec, keys in _generated_towers(random.Random(SEED + 3), 20):
        row = []
        for key in keys:
            try:
                out = monomialize(spec, key, 10_000, names=["x", "z"])
            except (ResidueUndefined, CertificationError) as exc:
                row.append((type(exc), str(exc)))
                continue
            T = RationalFunction(out.monomial()) * out.unit
            assert out.frame.pullback_of(T) == RationalFunction(to_multipoly(key))
            row.append(steps_used(out.state))
        outcomes.append(tuple(row))
    assert outcomes == GENERATED_OUTCOMES
    assert (searched.count(True), len(searched)) == (1, 23)


def test_level_one_step_count_is_the_partial_quotient_sum():
    rng = random.Random(SEED + 2)
    pairs = [(p, q) for p in range(1, 26) for q in range(1, 41) if gcd(p, q) == 1 and (p, q) != (1, 1)]
    for p, q in rng.sample(pairs, 60):
        key = Z**p - UniPoly.constant(1, xt**q)
        base = Monomial(G, [t(p), t(q)])
        spec = Augmented(base, key, t(p * q + rng.choice((1, 2, 7))))
        out = monomialize(spec, key, 100, names=["x", "z"])
        assert steps_used(out.state) == predicted_steps(p, q), (p, q)
