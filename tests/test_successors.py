import random
from fractions import Fraction

import pytest

from valmono import successors
from valmono.errors import (
    CertificationError,
    MaximalKey,
    NonMonicKey,
    NotInDivisibleHull,
    RankMismatch,
    ResidueUndefined,
)
from valmono.exact_algebra import MultiPoly, UniPoly
from valmono.ordered_value import compare, div_by_positive_int, standard_group
from valmono.successors import (
    Lattice,
    LatticeGenerator,
    check_limit_successor,
    lattice_multiplier,
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


def test_an_empty_lattice_is_told_its_rank():
    # the coefficient lattice of a problem in one variable has no generator
    empty = Lattice.from_variables([], [], 1)
    assert empty.rank == 1
    assert lattice_multiplier(el((0,)), empty) == (1, [])
    with pytest.raises(NotInDivisibleHull):
        lattice_multiplier(el((1,)), empty)
    with pytest.raises(ValueError):
        Lattice([])
    with pytest.raises(RankMismatch):
        Lattice(VARS_XY.generators, 2)


def test_an_extension_keeps_the_lattice_rank():
    # chain keys are valued by the spec, at its rank; a generator of another
    # rank is refused, not lifted
    key = LatticeGenerator("k", el((Fraction(1, 3),)))
    assert VARS_XY.extended(key).generators == [*VARS_XY.generators, key]
    rank_two = Lattice([LatticeGenerator("p", el((0,), (1, 0)))])
    with pytest.raises(RankMismatch):
        rank_two.extended(key)


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
    succ, cert, _ = next_successor(NU2, X, VARS_XY)
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
    succ, cert, _ = next_successor(spec, X, lat)
    assert cert.alpha == 1
    assert succ == X - x**2
    assert succ.degree == X.degree


def test_next_successor_with_a_laurent_witness():
    # v(x) = 2, v(y) = 3, v(z) = 1: z's witness is y/x or x^2/y, and the key
    # z - 5*y/x sits at 2, so the residue is 5 and the value is the key's
    spec = Augmented(Monomial(G, [el((2,)), el((3,)), el((1,))]), X - UniPoly.constant(2, MultiPoly.monomial(2, (-1, 1), 5)), el((2,)))
    lat = Lattice.from_variables(["x", "y"], [el((2,)), el((3,))])
    succ, cert, value = next_successor(spec, X, lat)
    assert cert.monomial in (MultiPoly.monomial(2, (-1, 1)), MultiPoly.monomial(2, (2, -1)))
    assert cert.residue == 5 and succ == X - UniPoly.constant(2, cert.monomial).scale(5)
    assert compare(value, spec.value(succ)) == 0 and compare(value, cert.base_value) > 0


def test_next_successor_maximal():
    spec = Monomial(G, [el((1,)), el((0, 1))])
    lat = Lattice.from_variables(["x"], [el((1,))])
    with pytest.raises(MaximalKey):
        next_successor(spec, UniPoly.x(1), lat)


def test_next_successor_needs_a_monic_key():
    # 2*z has a value and a lattice multiplier, but 4*z^2 - x^2*y is no successor
    with pytest.raises(NonMonicKey):
        next_successor(NU2, X * 2, VARS_XY)


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


# -- checks that no valid input reaches, each fired by a faulty producer -----------


def test_a_solution_that_does_not_rebuild_the_value_is_refused(monkeypatch):
    real = successors._column_echelon_solve

    def off_by_one(cols, target):
        h, x = real(cols, target)
        return h, [xi + 1 for xi in x]

    monkeypatch.setattr(successors, "_column_echelon_solve", off_by_one)
    with pytest.raises(CertificationError, match="lattice solver produced an invalid combination"):
        lattice_multiplier(el((1, 1)), VARS_XY)


def test_a_verified_successor_with_a_non_monic_leading_coefficient_is_refused(monkeypatch):
    real = successors.q_expansion

    def doubled_lead(p, q):
        parts = real(p, q)
        return parts[:-1] + [parts[-1].scale(2)]

    monkeypatch.setattr(successors, "q_expansion", doubled_lead)
    with pytest.raises(CertificationError, match="verified successor with non-monic leading expansion coefficient"):
        verify_immediate_successor(Composite(Q, NU2), X, Q, VARS_XY)
