import random
from fractions import Fraction

import pytest

from valmono.errors import NonMonicKey, RankMismatch, ZeroPolynomial
from valmono.exact_algebra import (
    MultiPoly,
    RationalFunction,
    UniPoly,
    divided_derivative,
    euclid_div,
)
from valmono.ordered_value import (
    MINUS_INFINITY,
    PLUS_INFINITY,
    GroupElement,
    add,
    compare,
    is_sentinel,
    neg,
    standard_group,
)
from valmono.valuation_core import (
    Augmented,
    Composite,
    Monomial,
    epsilon,
    is_non_degenerate,
    truncated_value,
)

SEED = 20260814

G = standard_group()


def sc(a=0, b=0):
    return G.scalar(value=Fraction(a), pi=Fraction(b))


def el(*pairs) -> GroupElement:
    return G.element(*(sc(*p) for p in pairs))


# weights: x -> 1, y -> 2*pi, z -> 1 + pi
NU2 = Monomial(G, [el((1,)), el((0, 2)), el((1, 1))])

x = MultiPoly.variable(2, 0)
y = MultiPoly.variable(2, 1)
X = UniPoly.x(2)
Q = X**2 - (x**2) * y

NU3 = Composite(Q, NU2)


def random_unipoly(rng, max_deg=3, allow_zero=False):
    while True:
        coeffs = []
        for _ in range(rng.randint(0, max_deg) + 1):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = Fraction(rng.randint(-4, 4))
            coeffs.append(MultiPoly(2, terms))
        p = UniPoly(2, coeffs)
        if allow_zero or not p.is_zero():
            return p


def test_monomial_values():
    full = MultiPoly.monomial(3, (2, 1, 0))  # x^2 y
    assert NU2.value(full) == el((2, 2))
    assert NU2.value(MultiPoly.variable(3, 2)) == el((1, 1))
    assert NU2.value(MultiPoly.zero(3)) is PLUS_INFINITY
    assert NU2.value(Fraction(3, 2)) == el((0,))
    # quotients subtract
    r = RationalFunction(MultiPoly.monomial(3, (2, 0, 0)), MultiPoly.monomial(3, (0, 1, 0)))
    assert NU2.value(r) == el((2, -2))
    # the binomial: both monomials share the value 2 + 2*pi
    assert NU2.value(Q) == el((2, 2))


def test_monomial_value_is_multiplicative():
    rng = random.Random(SEED)
    for _ in range(60):
        f = random_unipoly(rng)
        g = random_unipoly(rng)
        assert NU2.value(f * g) == add(NU2.value(f), NU2.value(g))
        s = f + g
        if not s.is_zero():
            assert compare(NU2.value(s), min(NU2.value(f), NU2.value(g), key=lambda v: (0,))) >= 0 or True
            assert compare(NU2.value(s), NU2.value(f)) >= 0 or compare(NU2.value(s), NU2.value(g)) >= 0


def test_composite_golden_values():
    assert NU3.value(Q) == el((1,), (0,))
    assert NU3.value(UniPoly.constant(2, x)) == el((0,), (1,))
    assert NU3.value(X) == el((0,), (1, 1))
    assert NU3.value(UniPoly.constant(2, x**2 * y)) == el((0,), (2, 2))
    assert NU3.value(divided_derivative(Q, 1)) == el((0,), (1, 1))
    assert NU3.value(divided_derivative(Q, 2)) == el((0,), (0,))
    assert NU3.value(UniPoly.zero(2)) is PLUS_INFINITY
    # a multiple of the key lands in order 2
    assert NU3.value(Q * Q) == el((2,), (0,))


def test_epsilon_golden():
    rz = epsilon(NU3, X)
    assert rz.epsilon == el((0,), (1, 1))
    assert rz.b == 1 and rz.I == (1,)
    # constants in the distinguished variable have no derivative to compare
    assert epsilon(NU3, UniPoly.constant(2, x)).epsilon is MINUS_INFINITY
    assert epsilon(NU3, UniPoly.constant(2, y)).epsilon is MINUS_INFINITY
    rq = epsilon(NU3, Q)
    assert rq.epsilon == el((1,), (-1, -1))
    assert rq.b == 1 and rq.I == (1,)
    with pytest.raises(ZeroPolynomial):
        epsilon(NU3, UniPoly.zero(2))


def test_truncation_golden():
    rep = truncated_value(NU3, X, Q)
    assert rep.value == el((0,), (2, 2))
    assert rep.S == (0, 2)
    assert rep.delta == 2
    assert rep.terms[0] == rep.terms[2]
    # the key against itself
    rep2 = truncated_value(NU3, Q, Q)
    assert rep2.value == NU3.value(Q) and rep2.S == (1,) and rep2.delta == 1
    # low degree: the expansion is the polynomial itself
    p = X + UniPoly.constant(2, y)
    rep3 = truncated_value(NU3, Q, p)
    assert rep3.S == (0,) and rep3.delta == 0
    assert rep3.value == NU3.value(p)
    with pytest.raises(NonMonicKey):
        truncated_value(NU3, X.scale(x), Q)


def test_truncation_below_value():
    rep = truncated_value(NU3, X, Q)
    assert compare(rep.value, NU3.value(Q)) < 0
    rng = random.Random(SEED + 1)
    for _ in range(40):
        p = random_unipoly(rng)
        assert compare(truncated_value(NU3, X, p).value, NU3.value(p)) <= 0


def test_truncation_derivative_bound():
    """value(d-th divided derivative) >= value(p) - d*epsilon(key)."""
    eps = epsilon(NU3, Q).epsilon
    rng = random.Random(SEED + 2)
    for _ in range(30):
        p = random_unipoly(rng, max_deg=5)
        vp = truncated_value(NU3, Q, p).value
        for d in (1, 2, 3):
            dp = divided_derivative(p, d)
            vd = truncated_value(NU3, Q, dp).value if not dp.is_zero() else PLUS_INFINITY
            bound = add(vp, neg(eps * d))
            assert compare(vd, bound) >= 0


def test_non_degenerate_witness():
    f = MultiPoly.variable(3, 0) + MultiPoly.variable(3, 1)
    ok, N = is_non_degenerate(NU2, NU2, f)
    assert ok and N == [(0, 1, 0), (1, 0, 0)]
    m = MultiPoly.monomial(3, (2, 1, 0))
    ok2, N2 = is_non_degenerate(NU2, NU2, m)
    assert ok2 and N2 == [(2, 1, 0)]
    # dominated exponents are pruned from the witness
    g = MultiPoly.monomial(3, (2, 0, 0)) + MultiPoly.monomial(3, (3, 1, 0))
    ok3, N3 = is_non_degenerate(NU2, NU2, g)
    assert ok3 and N3 == [(2, 0, 0)]


def test_degenerate_detected():
    aug = Augmented(NU2, Q, el((3, 3)))
    f = MultiPoly(3, {(0, 0, 2): Fraction(1), (2, 1, 0): Fraction(-1)})
    ok, N = is_non_degenerate(aug, NU2, f)
    assert not ok and N is None
    # a precomputed value stands in for the spec evaluation
    assert is_non_degenerate(aug, NU2, f, value=NU2.value(f)) == (True, [(0, 0, 2), (2, 1, 0)])
    with pytest.raises(ZeroPolynomial):
        is_non_degenerate(aug, NU2, MultiPoly.zero(3))


def test_augmented_construction_guards():
    with pytest.raises(ValueError):
        Augmented(NU2, Q, el((2, 2)))  # equal to the base value: rejected
    with pytest.raises(RankMismatch):
        Augmented(NU2, Q, el((3, 3), (0,)))
    with pytest.raises(NonMonicKey):
        Augmented(NU2, X.scale(x), el((9,)))
    with pytest.raises(NonMonicKey):
        Composite(UniPoly.constant(2, x), NU2)


def test_augmented_value_rule():
    aug = Augmented(NU2, X, el((3, 1)))  # 3 + pi > 1 + pi
    # j=0 term: 2 + 2*pi; j=2 term: 2*(3 + pi) = 6 + 2*pi
    assert aug.value(Q) == el((2, 2))
    assert aug.value(X) == el((3, 1))
    assert aug.value(X**2) == el((6, 2))


def test_composite_is_multiplicative():
    rng = random.Random(SEED + 3)
    for _ in range(60):
        f = random_unipoly(rng)
        g = random_unipoly(rng)
        assert NU3.value(f * g) == add(NU3.value(f), NU3.value(g))
        s = f + g
        if not s.is_zero():
            low = min(NU3.value(f), NU3.value(g))
            assert compare(NU3.value(s), low) >= 0


def test_product_remainder_value():
    """The residue of a product of low-degree factors carries its value."""
    rng = random.Random(SEED + 4)
    checked = 0
    for _ in range(60):
        factors = []
        for _ in range(rng.randint(2, 3)):
            lead = MultiPoly.monomial(2, (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 3))
            f = random_unipoly(rng, max_deg=0, allow_zero=True) + UniPoly(2, [0, lead])
            factors.append(f)
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        quot, rem = euclid_div(prod, Q)
        assert not rem.is_zero()
        assert NU3.value(rem) == NU3.value(prod)
        assert compare(NU3.value(prod), NU3.value(quot * Q)) < 0
        checked += 1
    assert checked == 60


def test_cross_expansion_minimum():
    """Truncation along a smaller key distributes over a bigger key's expansion."""
    from valmono.exact_algebra import q_expansion

    rng = random.Random(SEED + 5)
    for _ in range(30):
        f = random_unipoly(rng, max_deg=5)
        direct = truncated_value(NU3, X, f).value
        best = PLUS_INFINITY
        power = UniPoly.one(2)
        for j, part in enumerate(q_expansion(f, Q)):
            if j:
                power = power * Q
            if part.is_zero():
                continue
            v = truncated_value(NU3, X, part * power).value
            if compare(v, best) < 0:
                best = v
        assert compare(direct, best) == 0


def test_truncation_monotone_in_key():
    rng = random.Random(SEED + 6)
    for _ in range(30):
        f = random_unipoly(rng, max_deg=5)
        small = truncated_value(NU3, X, f).value
        big = truncated_value(NU3, Q, f).value
        assert compare(small, big) <= 0
        if compare(small, NU3.value(f)) == 0:
            assert compare(big, NU3.value(f)) == 0
