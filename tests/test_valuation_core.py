import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from valmono.blowup_engine import Frame, monomialize_nondegenerate
from valmono.errors import (
    BudgetExceeded,
    CertificationError,
    NonMonicKey,
    RankMismatch,
    TranscendentalResidue,
    UnknownVariable,
    ZeroPolynomial,
)
from valmono.exact_algebra import (
    MultiPoly,
    RationalFunction,
    UniPoly,
    divided_derivative,
    euclid_div,
    q_expansion,
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
from valmono import valuation_core
from valmono.puiseux import valuation_driver
from valmono.successors import Lattice, next_successor
from valmono.valuation_core import (
    Augmented,
    Composite,
    Monomial,
    epsilon,
    monomial_value,
    residue_of_unit,
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


def _reduced(spec, f, budget=10_000):
    """The reduction loop on f from the chart of NU2's weights: (exponents, steps, unit numerator)."""
    frame = Frame.initial(["x", "y", "z"], NU2.weights)
    cert = monomialize_nondegenerate(frame, spec, f, spec.value(f), valuation_driver(spec), budget)
    return cert.exponents, len(cert.steps), cert.unit.num


def test_non_degenerate_witness():
    # a non-degenerate element's minimal support is principalized: x + y in one step
    f = MultiPoly.variable(3, 0) + MultiPoly.variable(3, 1)
    assert _reduced(NU2, f) == ((1, 0, 0), 1, MultiPoly(3, {(0, 0, 0): 1, (0, 1, 0): 1}))
    # a monomial, or a sum whose least exponents are a term, needs no step
    m = MultiPoly.monomial(3, (2, 1, 0))
    assert _reduced(NU2, m) == ((2, 1, 0), 0, MultiPoly.one(3))
    g = MultiPoly.monomial(3, (2, 0, 0)) + MultiPoly.monomial(3, (3, 1, 0))
    assert _reduced(NU2, g) == ((2, 0, 0), 0, MultiPoly(3, {(0, 0, 0): 1, (1, 1, 0): 1}))


def test_degenerate_detected():
    aug = Augmented(NU2, Q, el((3, 3)))
    f = MultiPoly(3, {(0, 0, 2): Fraction(1), (2, 1, 0): Fraction(-1)})
    # above its monomial value f is degenerate: its least-value terms are
    # principalized in a round the budget allows
    assert _reduced(aug, f) == ((2, 2, 1), 3, MultiPoly(3, {(0, 0, 0): 1, (0, 0, 1): 1}))
    with pytest.raises(BudgetExceeded):
        _reduced(aug, f, budget=0)
    # under the frame's own monomial value the same f is non-degenerate: its
    # whole support is principalized, with no budget check, and the tie of
    # z^2 with x^2*y has no rational residue
    with pytest.raises(TranscendentalResidue):
        _reduced(NU2, f, budget=0)
    # told a value no monomial reaches, x + y has one least-value term, x: the
    # round makes no step
    g = MultiPoly.variable(3, 0) + MultiPoly.variable(3, 1)
    with pytest.raises(CertificationError, match="^monomial value differs from the element value$"):
        monomialize_nondegenerate(Frame.initial(["x", "y", "z"], NU2.weights), NU2, g, NU2.value(g) * 2)
    with pytest.raises(ZeroPolynomial):
        _reduced(NU2, MultiPoly.zero(3))


def test_augmented_construction_guards():
    with pytest.raises(ValueError):
        Augmented(NU2, Q, el((2, 2)))  # equal to the base value: rejected
    with pytest.raises(RankMismatch):
        Augmented(NU2, Q, el((3, 3), (0,)))
    with pytest.raises(NonMonicKey):
        Augmented(NU2, X.scale(x), el((9,)))
    with pytest.raises(NonMonicKey):
        Composite(UniPoly.constant(2, x), NU2)


def test_composite_is_the_augmentation_by_e0():
    assert type(NU3) is Augmented and NU3.base is NU2 and NU3.key is Q
    assert NU3.lifts and NU3.assigned == el((1,), (0,)) and NU3.rank == 2
    assert not Augmented(NU2, Q, el((3, 2))).lifts
    # one rank up, every assigned value other than e_0 is refused
    for assigned in (el((2,), (0,)), el((1,), (1,)), el((1, 1), (0,)), el((1,), (0,), (0,))):
        with pytest.raises(RankMismatch):
            Augmented(NU2, Q, assigned)


def test_augmented_value_rule():
    aug = Augmented(NU2, X, el((3, 1)))  # 3 + pi > 1 + pi
    # j=0 term: 2 + 2*pi; j=2 term: 2*(3 + pi) = 6 + 2*pi
    assert aug.value(Q) == el((2, 2))
    assert aug.value(X) == el((3, 1))
    assert aug.value(X**2) == el((6, 2))


@pytest.mark.parametrize("kind", ["monomial", "composite", "augmented"])
def test_laurent_numerator_value(kind):
    spec = {
        "monomial": NU2,
        "composite": NU3,
        "augmented": Augmented(NU2, Q, el((3, 2))),  # 3 + 2*pi > NU2(Q) = 2 + 2*pi
    }[kind]
    x3, y3, z3 = (MultiPoly.variable(3, k) for k in range(3))
    # the common factor z of the denominator folds into the numerator as z^-1
    r = RationalFunction(z3**2 - x3**2 * y3 + x3 * z3 * 5, z3 * (x3 + y3))
    assert any(e[-1] < 0 for e in r.num.terms)
    assert spec.value(r) == spec.value(r.num * z3) - spec.value(r.den * z3)


@pytest.mark.parametrize("kind", ["monomial", "composite", "augmented"])
def test_inputs_are_told_apart_by_exact_type(kind):
    spec = {"monomial": NU2, "composite": NU3, "augmented": Augmented(NU2, Q, el((3, 2)))}[kind]
    zero = spec.group.zero(spec.rank)
    # a bool is no exact rational here, as in the polynomial arithmetic
    for f in (True, False):
        with pytest.raises(TypeError, match="cannot evaluate bool"):
            spec.value(f)
    with pytest.raises(TypeError, match="cannot evaluate float"):
        spec.value(1.0)
    assert spec.value(0) is PLUS_INFINITY
    # a nonzero constant has value zero in every form it comes in
    for c in (3, Fraction(-1, 2), MultiPoly.constant(3, 5), UniPoly.constant(2, Fraction(2, 3)),
              RationalFunction(MultiPoly.constant(3, 7))):
        assert spec.value(c) == zero
    assert spec.value(MultiPoly.zero(3)) is PLUS_INFINITY
    assert spec.value(UniPoly.zero(2)) is PLUS_INFINITY
    # a polynomial of the wrong width, split along its last variable or not
    wrong = "polynomial width 2 != 3" if kind == "monomial" else "univariate base width mismatch"
    with pytest.raises(UnknownVariable, match=wrong):
        spec.value(x + y)
    with pytest.raises(UnknownVariable, match="univariate base width mismatch"):
        spec.value(UniPoly(3, [MultiPoly.variable(3, 0)]))


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


# The rank-1 tower s1 < s2 < s3 over (x, z) of the benchmark's tower workload:
# v(x) = v(z) = 1 at the base, then keys z, K2 = z^2 - x^3, K3 = K2^2 - x^5 z.
def _tower():
    t = lambda a: G.element(sc(a))  # noqa: E731
    xt, Z = MultiPoly.variable(1, 0), UniPoly.x(1)
    k2 = Z**2 - xt**3
    s1 = Augmented(Monomial(G, [t(1), t(1)]), Z, t(Fraction(3, 2)))
    s2 = Augmented(s1, k2, t(Fraction(13, 4)))
    return s1, s2, Augmented(s2, k2**2 - Z * xt**5, t(Fraction(53, 8)))


def _value_from_definition(spec, f: UniPoly):
    """The value of a nonzero f read off each layer's definition, expanding in every key."""
    lowest = cmp_to_key(compare)
    if isinstance(spec, Monomial):
        def least(p):
            return min((monomial_value(spec.weights, e) for e in p.terms), key=lowest)

        return min(
            (least(c) + spec.weights[-1] * i for i, c in enumerate(f.coeffs) if not c.is_zero()),
            key=lowest,
        )
    parts = q_expansion(f, spec.key)
    if spec.lifts:
        n = next(j for j, p in enumerate(parts) if not p.is_zero())
        return GroupElement((G.scalar(n),) + _value_from_definition(spec.base, parts[n]).entries)
    return min(
        (_value_from_definition(spec.base, p) + spec.assigned * j for j, p in enumerate(parts) if not p.is_zero()),
        key=lowest,
    )


def _seeded_coefficient(rng, width: int):
    """A nonzero coefficient over ``width`` variables; every other one has negative exponents.

    A Laurent coefficient is shifted until each variable's least exponent is
    -1 or -2.
    """
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 3) for _ in range(width))
            terms[e] = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 1, 2)))
        num = MultiPoly(width, terms)
        if not num.is_zero():
            break
    if rng.randrange(2):
        return num
    return num.shift(tuple(-min(e[k] for e in num.terms) - rng.randint(1, 2) for k in range(width)))


def _seeded_of_degree(rng, width: int, degree: int) -> UniPoly:
    coeffs = [_seeded_coefficient(rng, width) if rng.randrange(3) else 0 for _ in range(degree)]
    return UniPoly(width, coeffs + [_seeded_coefficient(rng, width)])


def test_tower_values_match_the_definition():
    """Degrees below, at and above each key's degree; below it no expansion is needed."""
    s1, s2, s3 = _tower()
    specs = [s1, s2, s3, NU3, Augmented(NU2, Q, el((3, 2)))]
    rng = random.Random(SEED + 8)
    for spec in specs:
        m = spec.key.degree
        for degree in range(m + 3):
            for _ in range(3):
                f = _seeded_of_degree(rng, spec.width - 1, degree)
                assert spec.value(f) == _value_from_definition(spec, f), (spec.kind, m, degree)
        for j in (1, 2):
            multiple = spec.key**j * _seeded_coefficient(rng, spec.width - 1)
            for f in (multiple, multiple + _seeded_of_degree(rng, spec.width - 1, m - 1)):
                assert spec.value(f) == _value_from_definition(spec, f), (spec.kind, m, "key power", j)
    for spec in (s1.base, NU2):
        for degree in range(4):
            for _ in range(4):
                f = _seeded_of_degree(rng, spec.width - 1, degree)
                assert spec.value(f) == _value_from_definition(spec, f), (spec.kind, degree)


# -- checks that no valid input reaches, each fired by a faulty producer -----------


def test_a_residue_that_does_not_raise_the_value_is_refused(monkeypatch):
    # the rule's residue is certified by v(num - c*den) > v(den): c + 1 fails
    # that check, in an equal-value step's residue and in a successor's
    _, s2, _ = _tower()
    h = RationalFunction(MultiPoly(3, {(0, 0, 2): 1}), MultiPoly(3, {(2, 1, 0): 1}))
    lattice = Lattice.from_variables(["x"], [el((1,))])
    calls = (lambda: residue_of_unit(NU3, h)[0], lambda: next_successor(s2, UniPoly.x(1), lattice)[1].residue)
    assert [call() for call in calls] == [1, 1]
    monkeypatch.setattr(valuation_core, "_residue", lambda spec, A, B: Fraction(2))
    for call in calls:
        with pytest.raises(CertificationError, match="^the residue does not raise the value of the element$"):
            call()
