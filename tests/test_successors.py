import random
from fractions import Fraction

import pytest

from valmono.errors import (
    MaximalKey,
    NonUnitFactor,
    NotInDivisibleHull,
    ResidueUndefined,
)
from valmono.exact_algebra import MultiPoly, RationalFunction, UniPoly
from valmono.ordered_value import compare, div_by_positive_int, standard_group
from valmono.successors import (
    Lattice,
    LatticeGenerator,
    check_limit_successor,
    lattice_multiplier,
    make_key_element,
    next_successor,
    verify_immediate_successor,
)
from valmono.valuation_core import Augmented, Composite, Monomial

SEED = 20260814

G = standard_group()


def sc(a=0, b=0):
    return G.scalar(value=Fraction(a), pi=Fraction(b))


def el(*pairs):
    return G.element(*(sc(*p) for p in pairs))


NU2 = Monomial(G, [el((1,)), el((0, 2)), el((1, 1))])
x = MultiPoly.variable(2, 0)
y = MultiPoly.variable(2, 1)
X = UniPoly.x(2)
Q = X**2 - (x**2) * y
NU3 = Composite(Q, NU2)

VARS_XY = Lattice.from_variables(["x", "y"], [el((1,)), el((0, 2))])


def test_multiplier_golden():
    # 2*(1 + pi) = 2*1 + 1*(2*pi)
    alpha, sol = lattice_multiplier(el((1, 1)), VARS_XY)
    assert alpha == 2
    assert sol == [2, 1]


def test_multiplier_member():
    alpha, sol = lattice_multiplier(el((3, 2)), VARS_XY)
    assert alpha == 1
    assert sol == [3, 1]
    # negative coordinates are fine: 1 - 2*pi
    alpha2, sol2 = lattice_multiplier(el((1, -2)), VARS_XY)
    assert alpha2 == 1 and sol2 == [1, -1]


def test_multiplier_not_in_hull():
    just_x = Lattice.from_variables(["x"], [el((1,))])
    with pytest.raises(NotInDivisibleHull):
        lattice_multiplier(el((0, 1)), just_x)


def test_multiplier_dependent_generators():
    """gcd arithmetic, not a naive rational solve: <2, 3> contains 1."""
    L = Lattice(
        [
            LatticeGenerator("a", el((2,))),
            LatticeGenerator("b", el((3,))),
        ]
    )
    alpha, sol = lattice_multiplier(el((Fraction(1, 5),)), L)
    assert alpha == 5
    assert 2 * sol[0] + 3 * sol[1] == 1


def test_multiplier_rank_two():
    L = Lattice(
        [
            LatticeGenerator("p", el((0,), (1, 0))),
            LatticeGenerator("q", el((1,), (0, 1))),
        ]
    )
    v = el((Fraction(1, 2),), (Fraction(1, 2), Fraction(1, 2)))
    alpha, sol = lattice_multiplier(v, L)
    assert alpha == 2 and sol == [1, 1]


def test_multiplier_reconstruction_property():
    rng = random.Random(SEED)
    gens = [
        LatticeGenerator("x", el((1,))),
        LatticeGenerator("y", el((0, 2))),
        LatticeGenerator("k", el((Fraction(1, 3), 1))),
    ]
    L = Lattice(gens)
    for _ in range(60):
        coeffs = [rng.randint(-3, 3) for _ in gens]
        h = rng.randint(1, 6)
        acc = None
        for c, g in zip(coeffs, gens):
            t = g.value * c
            acc = t if acc is None else acc + t
        v = div_by_positive_int(acc, h)
        if v.is_zero():
            continue
        alpha, sol = lattice_multiplier(v, L)
        assert h % alpha == 0
        recon = None
        for s, g in zip(sol, gens):
            t = g.value * s
            recon = t if recon is None else recon + t
        assert compare(recon, v * alpha) == 0


def test_next_successor_golden():
    succ, cert = next_successor(NU2, X, VARS_XY)
    assert succ == Q
    assert cert.alpha == 2
    assert cert.residue == 1
    assert cert.monomial == MultiPoly.monomial(2, (2, 1))
    assert cert.base_value == el((2, 2))
    tower = Composite(succ, NU2)
    rep = verify_immediate_successor(tower, X, succ, VARS_XY)
    assert rep.passed and rep.alpha == 2
    # the truncated value sits strictly below the assigned value
    assert compare(rep.truncated, tower.value(succ)) < 0


def test_next_successor_alpha_one():
    spec = Monomial(G, [el((1,)), el((0, 2)), el((2,))])
    lat = Lattice.from_variables(["x", "y"], [el((1,)), el((0, 2))])
    succ, cert = next_successor(spec, X, lat)
    assert cert.alpha == 1
    assert succ == X - x**2
    assert succ.degree == X.degree


def test_next_successor_maximal():
    spec = Monomial(G, [el((1,)), el((0, 1))])
    lat = Lattice.from_variables(["x"], [el((1,))])
    with pytest.raises(MaximalKey):
        next_successor(spec, UniPoly.x(1), lat)


def test_next_successor_key_factor():
    """A second step whose witness uses the first key as a factor."""
    assigned = el((1,), (0,))
    lat2 = Lattice(
        [
            LatticeGenerator("x", el((0,), (1,)), kind="variable", index=0),
            LatticeGenerator("y", el((0,), (0, 2)), kind="variable", index=1),
            LatticeGenerator("Q", assigned, kind="key", key=Q),
        ]
    )
    v = NU3.value(Q)
    alpha, sol = lattice_multiplier(v, lat2)
    assert alpha == 1 and sol == [0, 0, 1]
    # the witness would need the key itself: same degree, so refused
    with pytest.raises(ResidueUndefined):
        next_successor(NU3, Q, lat2)


def test_verify_negative_cases():
    tower = Composite(Q, NU2)
    rep = verify_immediate_successor(tower, Q, Q, Lattice.from_variables(["x", "y"], [el((0,), (1,)), el((0,), (0, 2))]))
    assert not rep.passed and not rep.value_check
    # z^2 keeps its truncated value: not a successor of z
    lat = Lattice(
        [
            LatticeGenerator("x", el((0,), (1,)), kind="variable", index=0),
            LatticeGenerator("y", el((0,), (0, 2)), kind="variable", index=1),
        ]
    )
    rep2 = verify_immediate_successor(NU3, X, X**2, lat)
    assert not rep2.passed and not rep2.value_check and rep2.degree_check


def test_check_limit_successor():
    xx = MultiPoly.variable(1, 0)
    U = UniPoly.x(1)
    base = Monomial(G, [el((1,)), el((0, 1))])  # x -> 1, u -> pi
    spec = Augmented(base, U, el((0, 2)))
    P = U + UniPoly.constant(1, xx)  # term values 1 and 2*pi: argmin {0}
    ok, rep = check_limit_successor(spec, U, P)
    assert not ok and rep.delta == 0
    # assign u the value 4: P2 = u + x^4 has both terms at 4
    spec2 = Augmented(base, U, el((4,)))
    P2 = U + UniPoly.constant(1, xx**4)
    aug = Augmented(spec2, P2, el((5,)))
    ok2, rep2 = check_limit_successor(aug, U, P2)
    assert ok2 and rep2.delta == 1 and rep2.S == (0, 1)
    # delta >= 2 rejected
    P3 = U**2 + UniPoly.constant(1, xx**8)
    aug3 = Augmented(spec2, P3, el((9,)))
    ok3, rep3 = check_limit_successor(aug3, U, P3)
    assert not ok3 and rep3.delta == 2


def test_key_element():
    unit = RationalFunction(MultiPoly.one(2), MultiPoly.one(2) + y)
    assert compare(NU3.value(unit), NU3.value(1)) == 0
    ke = make_key_element(
        NU3,
        X,
        [(0, UniPoly.constant(2, -(x**2) * y)), (2, UniPoly.one(2))],
        [unit, RationalFunction.one(2)],
    )
    assert ke.associated_key() == Q
    elem = ke.element()
    assert elem != Q
    # unit decorations leave every truncation term value unchanged
    from valmono.valuation_core import truncated_value

    plain = truncated_value(NU3, X, Q)
    decorated = truncated_value(NU3, X, elem)
    assert decorated.value == plain.value and decorated.S == plain.S
    with pytest.raises(NonUnitFactor):
        make_key_element(NU3, X, [(0, UniPoly.one(2))], [RationalFunction(x)])
    with pytest.raises(NonUnitFactor):
        make_key_element(NU3, X, [(0, UniPoly.one(2))], [RationalFunction.zero(2)])
