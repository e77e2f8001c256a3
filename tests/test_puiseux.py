"""Puiseux packages against hand-computed runs.

The main oracle is the package on z^2 - x^2*y under the composite tower:
three steps, the last one equal-value with residue 1, factoring the element
as x^2*y^2*t times the unit 1 + t. Every frozen number below was derived by
replaying the blow-ups by hand before the module existed.
"""

from fractions import Fraction

import pytest

from valmono.blowup_engine import Frame, transport
from valmono.errors import (
    CertificationError,
    DeltaNotOne,
    NonBinomialInput,
    NonUnitFactor,
    ProtectedCenter,
    ResidueFieldExtension,
    TranscendentalResidue,
)
from valmono.exact_algebra import MultiPoly, RationalFunction, UniPoly
from valmono.ordered_value import compare, standard_group
from valmono.puiseux import (
    _integer_root,
    _rational_power,
    make_problem,
    monomialize_limit_successor,
    prepare_successor,
    puiseux_package,
    residue_of_unit,
)
from valmono.successors import relation_lattice
from valmono.trace import replay_trace, trace_records
from valmono.valuation_core import Augmented, Composite, Monomial

G = standard_group()


def sc(a=0, b=0):
    return G.scalar(value=Fraction(a), pi=Fraction(b))


def el(*pairs):
    return G.element(*(sc(*p) for p in pairs))


x2 = MultiPoly.variable(2, 0)
y2 = MultiPoly.variable(2, 1)
X = UniPoly.x(2)
Q = X**2 - (x2**2) * y2

NU2 = Monomial(G, [el((1,)), el((0, 2)), el((1, 1))])
NU3 = Composite(Q, NU2)

Q3 = MultiPoly(3, {(0, 0, 2): 1, (2, 1, 0): -1})


def tower_frame(protected=()) -> Frame:
    bx = NU3.value(UniPoly.constant(2, RationalFunction(x2)))
    by = NU3.value(UniPoly.constant(2, RationalFunction(y2)))
    bz = NU3.value(X)
    return Frame.initial(["x", "y", "z"], [bx, by, bz], protected=protected)


def test_integer_root_and_rational_power():
    assert _integer_root(0, 3) == 0
    assert _integer_root(27, 3) == 3
    assert _integer_root(28, 3) is None
    assert _integer_root(10**24, 4) == 10**6
    assert _rational_power(Fraction(4), Fraction(1, 2)) == 2
    assert _rational_power(Fraction(8, 27), Fraction(2, 3)) == Fraction(4, 9)
    assert _rational_power(Fraction(8, 27), Fraction(-1, 3)) == Fraction(3, 2)
    assert _rational_power(Fraction(-8), Fraction(1, 3)) == -2
    assert _rational_power(Fraction(-4), Fraction(1, 2)) is None
    assert _rational_power(Fraction(3), Fraction(1, 2)) is None
    assert _rational_power(Fraction(5), Fraction(0)) == 1


def test_residue_of_unit_through_the_tower():
    # z^2/(x^2 y) has value zero; the key relation pins its residue to 1
    h = RationalFunction(MultiPoly(3, {(0, 0, 2): 1}), MultiPoly(3, {(2, 1, 0): 1}))
    assert residue_of_unit(NU3, h) == 1
    assert residue_of_unit(NU3, 3 * h) == 3
    one_plus = RationalFunction(MultiPoly(3, {(0, 0, 0): 2, (1, 0, 0): 5}))
    assert residue_of_unit(NU3, one_plus) == 2
    with pytest.raises(NonUnitFactor):
        residue_of_unit(NU3, RationalFunction(MultiPoly(3, {(1, 0, 0): 1})))
    # under the bare monomial valuation the quotient is transcendental
    with pytest.raises(TranscendentalResidue):
        residue_of_unit(NU2, h)


def test_make_problem_validation():
    fr = tower_frame()
    three = Q3 + MultiPoly(3, {(5, 5, 5): 1})
    with pytest.raises(NonBinomialInput):
        make_problem(fr, NU3, f=three)
    shared = ((Fraction(1), (1, 0, 0), None), (Fraction(2), (1, 0, 0), None))
    with pytest.raises(NonBinomialInput):
        make_problem(fr, NU3, parts=shared)
    # terms of unequal value; the second pair differs by a dividing monomial
    with pytest.raises(CertificationError):
        make_problem(fr, NU3, f=MultiPoly(3, {(0, 0, 2): 1, (1, 0, 0): -1}))
    with pytest.raises(CertificationError):
        make_problem(fr, NU3, f=MultiPoly(3, {(3, 0, 0): 1, (2, 0, 0): 1}))
    # equal values but no cancellation: the monomial valuation has no relation
    with pytest.raises(CertificationError):
        make_problem(fr, NU2, f=Q3)


def test_make_problem_golden_fields():
    fr = tower_frame()
    prob = make_problem(fr, NU3, f=Q3)
    assert prob.delta == (0, 0, 2)
    assert prob.gamma == (2, 1, 0)
    assert prob.shift == (0, 0, 0)
    assert prob.rho == 1
    assert prob.rel0 == (-2, -1, 2)
    assert prob.term_value == el((0,), (2, 2))
    assert prob.target_value == el((1,), (0,))


def test_package_golden_run():
    fr = tower_frame()
    pkg = puiseux_package(fr, NU3, f=Q3, new_name="t")
    assert pkg.frame.names == ("x", "y", "t")
    assert pkg.new_position == 2
    assert pkg.residue == 1
    assert pkg.exponents == (2, 2, 1)
    assert compare(pkg.value, el((1,), (0,))) == 0
    # unit 1 + t
    assert pkg.unit == RationalFunction(MultiPoly(3, {(0, 0, 0): 1, (0, 0, 1): 1}))
    assert pkg.zbar == pkg.unit
    assert [s.J for s in pkg.steps] == [(0, 2), (1, 2), (1, 2)]
    assert [s.j for s in pkg.steps] == [0, 2, 1]
    assert [s.monomial for s in pkg.steps] == [True, True, False]
    assert [r["tau"] for r in pkg.reports] == [(2, 3), (1, 2), (1, 1)]
    assert [r["diff"] for r in pkg.reports] == [(2, 1, -2), (0, 1, -2), (0, 1, -1)]
    assert [r["gcd"] for r in pkg.reports] == [1, 1, 1]
    # final parameter values, the new one carrying the relation drop
    assert pkg.frame.betas[0] == el((0,), (1,))
    assert pkg.frame.betas[1] == el((0,), (0, 1))
    assert pkg.frame.betas[2] == el((1,), (-2, -2))


def test_package_certificate_clauses():
    fr = tower_frame()
    pkg = puiseux_package(fr, NU3, f=Q3, new_name="t")
    # (1) every step but the last is combinatorial
    assert all(s.monomial for s in pkg.steps[:-1]) and not pkg.steps[-1].monomial
    # (2) the terminal unit has certified value zero
    zero = NU3.value(1)
    assert compare(NU3.value(pkg.frame.pullback_of(pkg.zbar)), zero) == 0
    # (3) substitution oracle: monomial times unit equals the element
    recon = pkg.frame.pullback_of(RationalFunction(pkg.monomial()) * pkg.unit)
    assert recon == RationalFunction(Q3)
    # (4) each original variable is a monomial in the parameters times units
    fwd = pkg.frame.forward
    assert fwd["x"].exps == (1, 0, 0) and fwd["x"].units == ()
    assert fwd["y"].exps == (0, 2, 0) and [p for _, p in fwd["y"].units] == [1]
    assert fwd["z"].exps == (1, 1, 0) and [p for _, p in fwd["z"].units] == [1]
    uname = fwd["y"].units[0][0]
    upb = pkg.frame.unit_log[uname].pullback
    assert upb == RationalFunction(MultiPoly(3, {(0, 0, 2): 1}), MultiPoly(3, {(2, 1, 0): 1}))
    assert compare(NU3.value(upb), zero) == 0
    # gcd of the reduced difference stays 1 at every step
    assert all(r["gcd"] == 1 for r in pkg.reports)
    # the relation lattice of the entry values is generated by the binomial
    assert relation_lattice([fr.betas[0], fr.betas[1], fr.betas[2]]) == [(2, 1, -2)]


def test_package_transport_consistency():
    fr = tower_frame()
    pkg = puiseux_package(fr, NU3, f=Q3, new_name="t")
    image = transport(pkg.frame, RationalFunction(Q3))
    # x^2 y^2 t (t + 1), written over (x, y, t)
    expected = RationalFunction(MultiPoly(3, {(2, 2, 1): 1, (2, 2, 2): 1}))
    assert image == expected
    assert pkg.frame.monomial_value((2, 2, 1)) == el((1,), (0,))


def test_package_trace_replays():
    fr = tower_frame()
    pkg = puiseux_package(fr, NU3, f=Q3, new_name="t")
    records = trace_records(pkg.frame)
    report = replay_trace(records)
    assert report["ok"] and report["steps"] == 3
    assert abs(report["det"]) == 1
    assert report["params"] == ["x", "y", "t"]


def test_package_orientation_free():
    """Reversing the term order flips rho and rel0 but not the result."""
    fr = tower_frame()
    reversed_parts = ((Fraction(-1), (2, 1, 0), None), (Fraction(1), (0, 0, 2), None))
    a = puiseux_package(fr, NU3, f=Q3, new_name="t")
    b = puiseux_package(fr, NU3, parts=reversed_parts, new_name="t")
    assert a.exponents == b.exponents
    assert a.unit == b.unit
    assert a.residue == b.residue


def test_package_protected_positions_rejected():
    fr = tower_frame(protected=[2])
    with pytest.raises(ProtectedCenter):
        puiseux_package(fr, NU3, f=Q3)


def test_prepare_successor_identity_chain():
    fr = tower_frame()
    fr2, parts, alpha = prepare_successor(fr, NU3, Q, X, (0, 0, 1))
    assert fr2 is fr  # single-term coefficient: no extra blow-ups
    assert alpha == 2
    assert parts == ((Fraction(1), (0, 0, 2), None), (Fraction(-1), (2, 1, 0), None))
    pkg = puiseux_package(fr2, NU3, parts=parts, position=2, new_name="t")
    assert pkg.exponents == (2, 2, 1)
    assert compare(pkg.value, el((1,), (0,))) == 0


def test_prepare_successor_rejects_middle_terms():
    fr = tower_frame()
    bad = X**3 - UniPoly.x(2) * UniPoly.constant(2, RationalFunction(x2)) - UniPoly.constant(2, RationalFunction(y2))
    with pytest.raises(NonBinomialInput):
        prepare_successor(fr, NU3, bad, X, (0, 0, 1))


def test_residue_field_extension_rejected():
    # u^2 - 3 x^2: the quotient u/x would need sqrt(3)
    xx = MultiPoly.variable(1, 0)
    U = UniPoly.x(1)
    K = U**2 - UniPoly.constant(1, 3 * xx**2)
    spec = Composite(K, Monomial(G, [el((1,)), el((1,))]))
    fr = Frame.initial(
        ["x", "u"],
        [
            spec.value(UniPoly.constant(1, RationalFunction(xx))),
            spec.value(U),
        ],
    )
    f = MultiPoly(2, {(0, 2): 1, (2, 0): -3})
    with pytest.raises(ResidueFieldExtension):
        puiseux_package(fr, spec, f=f)


def test_transcendental_quotient_rejected():
    # u^2 - x y^3 forces a three-way tie whose x/y quotient has no residue
    xm = MultiPoly.variable(2, 0)
    ym = MultiPoly.variable(2, 1)
    U = UniPoly.x(2)
    K = U**2 - UniPoly.constant(2, RationalFunction(xm * ym**3))
    spec = Composite(K, Monomial(G, [el((1,)), el((1,)), el((2,))]))
    fr = Frame.initial(
        ["x", "y", "u"],
        [
            spec.value(UniPoly.constant(2, RationalFunction(xm))),
            spec.value(UniPoly.constant(2, RationalFunction(ym))),
            spec.value(U),
        ],
    )
    f = MultiPoly(3, {(0, 0, 2): 1, (1, 3, 0): -1})
    with pytest.raises(TranscendentalResidue):
        puiseux_package(fr, spec, f=f)


# -- the degree-one limit recipe ------------------------------------------------


xx1 = MultiPoly.variable(1, 0)
U1 = UniPoly.x(1)
LIM_BASE = Monomial(G, [el((1,)), el((0, 1))])
SPEC_U4 = Augmented(LIM_BASE, U1, el((4,)))
P2 = U1 + UniPoly.constant(1, xx1**4)
LIMIT_SPEC = Augmented(SPEC_U4, P2, el((5,)))


def limit_frame() -> Frame:
    bx = LIMIT_SPEC.value(UniPoly.constant(1, RationalFunction(xx1)))
    bu = LIMIT_SPEC.value(U1)
    return Frame.initial(["x", "u"], [bx, bu])


def test_limit_successor_golden():
    fr = limit_frame()
    assert fr.betas == (el((1,)), el((4,)))
    res = monomialize_limit_successor(fr, LIMIT_SPEC, U1, P2, new_name="t")
    assert res.frame.names == ("x", "t")
    assert res.exponents == (4, 1)
    assert compare(res.value, el((5,))) == 0
    assert res.unit == RationalFunction.one(2)
    assert res.coefficient == MultiPoly(2, {(4, 0): 1})
    # the new parameter is exactly P / b1': certified by pullback identity
    assert res.frame.pullbacks[res.package.new_position] == res.candidate
    expected = RationalFunction(
        MultiPoly(2, {(0, 1): 1, (4, 0): 1}), MultiPoly(2, {(4, 0): 1})
    )
    assert res.candidate == expected
    assert res.package.residue == -1
    assert [s.monomial for s in res.package.steps] == [True, True, True, False]
    assert res.frame.betas == (el((1,)), el((1,)))


def test_limit_successor_transport_oracle():
    fr = limit_frame()
    res = monomialize_limit_successor(fr, LIMIT_SPEC, U1, P2, new_name="t")
    # substitution oracle: monomial times unit pulls back to P exactly
    recon = res.frame.pullback_of(RationalFunction(res.monomial()) * res.unit)
    assert recon == RationalFunction(MultiPoly(2, {(0, 1): 1, (4, 0): 1}))
    # and u itself is x^4 (t - 1)
    u_img = transport(res.frame, RationalFunction(MultiPoly(2, {(0, 1): 1})))
    assert u_img == RationalFunction(MultiPoly(2, {(4, 1): 1, (4, 0): -1}))


def test_limit_delta_two_rejected():
    fr = limit_frame()
    P3 = U1**2 + UniPoly.constant(1, xx1**8)
    spec3 = Augmented(SPEC_U4, P3, el((9,)))
    with pytest.raises(DeltaNotOne):
        monomialize_limit_successor(fr, spec3, U1, P3)


def test_limit_without_drop_rejected():
    # under the unaugmented spec the candidate keeps its truncated value
    bx = SPEC_U4.value(UniPoly.constant(1, RationalFunction(xx1)))
    bu = SPEC_U4.value(U1)
    fr = Frame.initial(["x", "u"], [bx, bu])
    with pytest.raises(CertificationError):
        monomialize_limit_successor(fr, SPEC_U4, U1, P2)


def test_limit_trace_replays():
    fr = limit_frame()
    res = monomialize_limit_successor(fr, LIMIT_SPEC, U1, P2, new_name="t")
    report = replay_trace(trace_records(res.frame))
    assert report["ok"] and report["steps"] == 4
    assert report["params"] == ["x", "t"]
