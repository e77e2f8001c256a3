"""Puiseux packages against hand-computed runs.

The main oracle is the package on z^2 - x^2*y under the composite tower:
three steps, the last one equal-value with residue 1, factoring the element
as x^2*y^2*t times the unit 1 + t. Every frozen number below was derived by
replaying the blow-ups by hand before the module existed.
"""

import dataclasses
from fractions import Fraction

import pytest

from valmono import puiseux
from valmono.blowup_engine import Frame, forward_image, tau, transform_exponents, transport
from valmono.errors import (
    CertificationError,
    DeltaNotOne,
    NonBinomialInput,
    NonPolynomialImage,
    NonUnitFactor,
    ResidueFieldExtension,
    TranscendentalResidue,
)
from valmono.exact_algebra import MultiPoly, RationalFunction, UniPoly, ev_sub, to_multipoly
from valmono.ordered_value import PLUS_INFINITY, compare, standard_group
from valmono.puiseux import (
    make_problem,
    monomialize_limit_successor,
    puiseux_package,
    residue_of_unit,
)
from valmono.successors import check_limit_successor
from valmono.trace import replay_trace, trace_records
from valmono.valuation_core import Augmented, Composite, Monomial

from reference_algebra import ev_gcd, relation_lattice

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


def tower_frame() -> Frame:
    bx = NU3.value(UniPoly.constant(2, RationalFunction(x2)))
    by = NU3.value(UniPoly.constant(2, RationalFunction(y2)))
    bz = NU3.value(X)
    return Frame.initial(["x", "y", "z"], [bx, by, bz])


def test_residue_of_unit_through_the_tower():
    # z^2/(x^2 y) has value zero; the key relation pins its residue to 1
    h = RationalFunction(MultiPoly(3, {(0, 0, 2): 1}), MultiPoly(3, {(2, 1, 0): 1}))
    one_plus = RationalFunction(MultiPoly(3, {(0, 0, 0): 2, (1, 0, 0): 5}))
    # the value returned with the residue is v(h - c), the one that certified it
    for unit, c, v in [(h, 1, el((1,), (-2, -2))), (3 * h, 3, el((1,), (-2, -2))), (one_plus, 2, el((0,), (1,)))]:
        assert residue_of_unit(NU3, unit) == (c, v)
        assert NU3.value(unit - c) == v
    assert residue_of_unit(NU3, RationalFunction(MultiPoly(3, {(0, 0, 0): 5}))) == (5, PLUS_INFINITY)
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
    assert puiseux._original_exponents(ev_sub(prob.delta, prob.gamma), prob.frame.history) == (-2, -1, 2)
    assert prob.target_value == el((1,), (0,))


def _reduced_pairs(pkg) -> list:
    """(tau, difference, its gcd) of the package's exponent pair before each step."""
    out, a, g = [], pkg.problem.delta, pkg.problem.gamma
    for s in pkg.steps:
        d = ev_sub(g, a)
        out.append((tau(a, g)[0], d, ev_gcd(d)))
        a, g = transform_exponents(a, [s]), transform_exponents(g, [s])
    return out


def test_package_golden_run():
    fr = tower_frame()
    pkg = puiseux_package(fr, NU3, f=Q3)
    assert pkg.frame.names == ("x", "y", "z'")
    assert pkg.new_position == 2
    assert pkg.residue == 1
    assert pkg.exponents == (2, 2, 1)
    assert compare(pkg.value, el((1,), (0,))) == 0
    # unit 1 + t
    assert pkg.unit == RationalFunction(MultiPoly(3, {(0, 0, 0): 1, (0, 0, 1): 1}))
    assert pkg.unit == RationalFunction(MultiPoly.variable(3, pkg.new_position)) + pkg.residue
    assert [s.J for s in pkg.steps] == [(0, 2), (1, 2), (1, 2)]
    assert [s.j for s in pkg.steps] == [0, 2, 1]
    assert [s.monomial for s in pkg.steps] == [True, True, False]
    reduced = _reduced_pairs(pkg)
    assert [r[0] for r in reduced] == [(2, 3), (1, 2), (1, 1)]
    assert [r[1] for r in reduced] == [(2, 1, -2), (0, 1, -2), (0, 1, -1)]
    assert [r[2] for r in reduced] == [1, 1, 1]
    # final parameter values, the new one carrying the relation drop
    assert pkg.frame.betas[0] == el((0,), (1,))
    assert pkg.frame.betas[1] == el((0,), (0, 1))
    assert pkg.frame.betas[2] == el((1,), (-2, -2))


def test_package_certificate_clauses():
    fr = tower_frame()
    pkg = puiseux_package(fr, NU3, f=Q3)
    # (1) every step but the last is combinatorial
    assert all(s.monomial for s in pkg.steps[:-1]) and not pkg.steps[-1].monomial
    # (2) the terminal unit has certified value zero
    zero = NU3.value(1)
    zbar = RationalFunction(MultiPoly.variable(3, pkg.new_position)) + pkg.residue
    assert compare(NU3.value(pkg.frame.pullback_of(zbar)), zero) == 0
    # (3) substitution oracle: monomial times unit equals the element
    recon = pkg.frame.pullback_of(RationalFunction(pkg.monomial()) * pkg.unit)
    assert recon == RationalFunction(Q3)
    # (4) each original variable is a monomial in the parameters times units
    fx, fy, fz = (forward_image(pkg.frame, k) for k in range(3))
    assert fx == ((1, 0, 0), ())
    assert fy[0] == (0, 2, 0) and [p for _, p in fy[1]] == [1]
    assert fz[0] == (1, 1, 0) and [p for _, p in fz[1]] == [1]
    upb = fy[1][0][0]
    assert upb == RationalFunction(MultiPoly(3, {(0, 0, 2): 1}), MultiPoly(3, {(2, 1, 0): 1}))
    assert compare(NU3.value(upb), zero) == 0
    # gcd of the reduced difference stays 1 at every step
    assert all(r[2] == 1 for r in _reduced_pairs(pkg))
    # the relation lattice of the entry values is generated by the binomial
    assert relation_lattice([fr.betas[0], fr.betas[1], fr.betas[2]]) == [(2, 1, -2)]


def _with_terminal_unit_times(result, factor):
    """The divide result with its last step's unit multiplied by factor."""
    fr = result.frame
    units = tuple((q, u * factor) for q, u in fr.history[-1].units)
    last = dataclasses.replace(fr.history[-1], units=units)
    frame = Frame(fr.names, fr.original_names, fr.init_betas, fr.betas, fr.history[:-1] + (last,))
    return dataclasses.replace(result, frame=frame, steps=result.steps[:-1] + (last,))


@pytest.mark.parametrize(
    "factor, message",
    [
        # still value zero: only the substitution check sees it
        (Fraction(2), "forward images fail the substitution check"),
        # of value v(x): the package does not value it, and the substitution check comes first
        (RationalFunction(MultiPoly.variable(3, 0)), "forward images fail the substitution check"),
    ],
    ids=["times-2", "times-x"],
)
def test_package_rejects_a_tampered_terminal_unit(monkeypatch, factor, message):
    divide = puiseux.divide_monomials
    monkeypatch.setattr(
        puiseux, "divide_monomials", lambda *args: _with_terminal_unit_times(divide(*args), factor)
    )
    with pytest.raises(CertificationError, match=message):
        puiseux_package(tower_frame(), NU3, f=Q3)


def test_a_terminal_unit_of_nonzero_value_is_refused_by_the_frame_check(monkeypatch):
    # the package does not value its terminal unit h: the frame check's
    # v(h - c) = beta > 0 = v(c) implies v(h) = 0, so a unit of value v(x)
    # that passed the substitution check is still refused, by that check
    divide = puiseux.divide_monomials
    x = RationalFunction(MultiPoly.variable(3, 0))
    monkeypatch.setattr(puiseux, "divide_monomials", lambda *args: _with_terminal_unit_times(divide(*args), x))
    monkeypatch.setattr(puiseux, "verify_forward", lambda frame: True)
    with pytest.raises(CertificationError, match="equal-value parameter value differs from the valuation"):
        puiseux_package(tower_frame(), NU3, f=Q3)


def test_package_transport_consistency():
    fr = tower_frame()
    pkg = puiseux_package(fr, NU3, f=Q3)
    image = transport(pkg.frame, RationalFunction(Q3))
    # x^2 y^2 t (t + 1), written over (x, y, t)
    expected = RationalFunction(MultiPoly(3, {(2, 2, 1): 1, (2, 2, 2): 1}))
    assert image == expected
    assert pkg.frame.monomial_value((2, 2, 1)) == el((1,), (0,))


def test_package_trace_replays():
    fr = tower_frame()
    pkg = puiseux_package(fr, NU3, f=Q3)
    records = trace_records(pkg.frame)
    report = replay_trace(records)
    assert report["ok"] and report["steps"] == 3
    assert report["params"] == ["x", "y", "z'"]


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
    with pytest.raises(ResidueFieldExtension, match="a root of order 2") as exc:
        puiseux_package(fr, spec, f=f)
    assert type(exc.value) is ResidueFieldExtension


def _key_frame(spec):
    x = UniPoly.constant(1, RationalFunction(MultiPoly.variable(1, 0)))
    return Frame.initial(["x", "u"], [spec.value(x), spec.value(UniPoly.x(1))])


def _key_specs(key, weights, assigned):
    base = Monomial(G, [el((w,)) for w in weights])
    return {"composite": Composite(key, base), "augmented": Augmented(base, key, el((assigned,)))}


def _binomial_key(c, a, b):
    # u^a - c x^b as a key over x and as a package input over (x, u)
    key = UniPoly.x(1) ** a - UniPoly.constant(1, c * MultiPoly.variable(1, 0) ** b)
    return key, MultiPoly(2, {(0, a): 1, (b, 0): -c})


@pytest.mark.parametrize("kind", ["composite", "augmented"])
@pytest.mark.parametrize("c", [Fraction(2), Fraction(-5), Fraction(7, 3)], ids=str)
def test_package_residue_is_the_key_coefficient(kind, c):
    # u^2 - c x^3 at weights x:2, u:3: the terminal quotient u^2/x^3 has residue c
    key, f = _binomial_key(c, 2, 3)
    spec = _key_specs(key, (2, 3), 7)[kind]
    pkg = puiseux_package(_key_frame(spec), spec, f=f)
    assert pkg.residue == c
    assert pkg.exponents == (6, 1)
    assert len(pkg.steps) == 3
    report = replay_trace(trace_records(pkg.frame))
    assert report["ok"] and report["steps"] == 3


@pytest.mark.parametrize("kind", ["composite", "augmented"])
@pytest.mark.parametrize("c", [Fraction(-3), Fraction(-4), Fraction(-8), Fraction(4)], ids=str)
def test_package_without_a_rational_root_is_a_field_extension(kind, c):
    # u^2 - c x^2 at weights 1, 1: the residue of u/x would be a square root
    # of c, not rational for -3, -4 and -8; for 4 the reducible key's
    # valuation gives u/x no rational residue either
    key, f = _binomial_key(c, 2, 2)
    spec = _key_specs(key, (1, 1), 3)[kind]
    with pytest.raises(ResidueFieldExtension, match="a root of order 2") as exc:
        puiseux_package(_key_frame(spec), spec, f=f)
    assert type(exc.value) is ResidueFieldExtension


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
    res = monomialize_limit_successor(fr, LIMIT_SPEC, U1, P2)
    assert res.frame.names == ("x", "u'")
    assert res.exponents == (4, 1)
    assert compare(res.value, el((5,))) == 0
    assert res.unit == RationalFunction.one(2)
    assert res.coefficient == MultiPoly(2, {(4, 0): 1})
    # the new parameter is exactly P / b1': certified by pullback identity
    assert res.frame.pullback_of(MultiPoly.variable(2, res.new_position)) == res.candidate
    expected = RationalFunction(
        MultiPoly(2, {(0, 1): 1, (4, 0): 1}), MultiPoly(2, {(4, 0): 1})
    )
    assert res.candidate == expected
    assert res.residue == -1
    assert [s.monomial for s in res.steps] == [True, True, True, False]
    assert res.frame.betas == (el((1,)), el((1,)))


def test_limit_successor_transport_oracle():
    fr = limit_frame()
    res = monomialize_limit_successor(fr, LIMIT_SPEC, U1, P2)
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
    with pytest.raises(CertificationError, match="does not drop the key value"):
        monomialize_limit_successor(fr, SPEC_U4, U1, P2)


def _branch_key(n: int) -> UniPoly:
    """z - phi_n with phi_n = sum_{k<n} binom(1/2, k)*x^(k+1), a truncation of x*sqrt(1 + x)."""
    phi, coeff = MultiPoly.zero(1), Fraction(1)
    for k in range(n):
        phi = phi + xx1 ** (k + 1) * coeff
        coeff = coeff * (Fraction(1, 2) - k) / (k + 1)
    return U1 - UniPoly.constant(1, phi)


@pytest.mark.parametrize("n", [3, 6])
def test_a_limit_candidate_with_delta_one_and_no_drop_is_rejected(n):
    # F = z^2 - x^2 - x^3 = (z - phi)(z + phi) over Q[[x]]; under the chain s_n of
    # the keys z - phi_k at k + 1 its argmin along z - phi_n is {0, 1}, but the
    # truncated value n + 2 is v(F): only the value drop refuses it
    spec = Monomial(G, [el((1,)), el((1,))])
    for k in range(1, n + 1):
        spec = Augmented(spec, _branch_key(k), el((k + 1,)))
    F = U1**2 - UniPoly.constant(1, xx1**2 + xx1**3)
    ok, rep = check_limit_successor(spec, _branch_key(n), F)
    assert not ok and rep.delta == 1 and rep.S == (0, 1)
    assert compare(rep.value, el((n + 2,))) == 0 and compare(spec.value(F), el((n + 2,))) == 0
    fr = Frame.initial(["x", "z"], [spec.value(UniPoly.constant(1, xx1)), spec.value(_branch_key(n))])
    with pytest.raises(CertificationError, match="the candidate does not drop the key value"):
        monomialize_limit_successor(fr, spec, _branch_key(n), F)


def test_limit_trace_replays():
    fr = limit_frame()
    res = monomialize_limit_successor(fr, LIMIT_SPEC, U1, P2)
    report = replay_trace(trace_records(res.frame))
    assert report["ok"] and report["steps"] == 4
    assert report["params"] == ["x", "u'"]


# -- checks that no valid input reaches, each fired by a faulty producer -----------


def test_a_residue_of_infinite_value_is_refused(monkeypatch):
    monkeypatch.setattr(puiseux, "residue_of_unit", lambda spec, h: (Fraction(1), PLUS_INFINITY))
    with pytest.raises(CertificationError, match="shifted quotient value is not positive"):
        puiseux_package(tower_frame(), NU3, f=Q3)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda res: dataclasses.replace(res, divider="alpha"), "the package did not collapse the binomial"),
        (
            lambda res: dataclasses.replace(res, steps=res.steps[-1:] + res.steps),
            "a non-terminal package step created a parameter",
        ),
        (
            lambda res: dataclasses.replace(res, steps=res.steps[:-1]),
            "the terminal step must create exactly one parameter",
        ),
    ],
    ids=["not-collapsed", "early-parameter", "no-terminal-step"],
)
def test_package_refuses_a_division_of_the_wrong_shape(monkeypatch, change, message):
    divide = puiseux.divide_monomials
    monkeypatch.setattr(puiseux, "divide_monomials", lambda *args: change(divide(*args)))
    with pytest.raises(CertificationError, match=message):
        puiseux_package(tower_frame(), NU3, f=Q3)


def test_a_new_parameter_that_is_not_the_candidate_is_refused(monkeypatch):
    # an image of the candidate twice too large makes b'_1 twice too large,
    # and the new parameter then pulls back to twice P / b'_1
    real = puiseux.transport
    candidate = RationalFunction(to_multipoly(P2))

    def doubled(frame, expr, from_step=0):
        image = real(frame, expr, from_step)
        return image * 2 if expr == candidate else image

    monkeypatch.setattr(puiseux, "transport", doubled)
    with pytest.raises(CertificationError, match="the new parameter is not the normalized candidate"):
        monomialize_limit_successor(limit_frame(), LIMIT_SPEC, U1, P2)


def _limit_refusal(monkeypatch, name, fault, message, error=CertificationError):
    """The limit recipe on P2, with ``puiseux.<name>`` replaced by ``fault``, refuses with exactly ``message``."""
    monkeypatch.setattr(puiseux, name, fault)
    with pytest.raises(error, match=f"^{message}$"):
        monomialize_limit_successor(limit_frame(), LIMIT_SPEC, U1, P2)


def test_a_limit_loop_that_creates_no_parameter_is_refused(monkeypatch):
    loop = puiseux.monomialize_nondegenerate

    def without_new_parameters(*args):
        cert = loop(*args)
        return dataclasses.replace(cert, steps=tuple(step for step in cert.steps if not step.C))

    _limit_refusal(monkeypatch, "monomialize_nondegenerate", without_new_parameters,
                   "the candidate's loop created no parameter")


def test_a_limit_frame_whose_forward_images_fail_is_refused(monkeypatch):
    _limit_refusal(monkeypatch, "verify_forward", lambda frame: False, "forward images fail the substitution check")


def _after_the_loop(change):
    """``puiseux.transport`` with ``change`` applied to its images in every frame but the starting one."""
    real, start = puiseux.transport, limit_frame().history

    def transport(frame, expr, from_step=0):
        image = real(frame, expr, from_step)
        return image if frame.history == start else change(image)

    return transport


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda image: image / (RationalFunction(MultiPoly.variable(image.width, 0)) + 1),
         "candidate image is not polynomial over the frame"),
        (lambda image: image + 1, "re-expansion in the new parameter is not linear"),
    ],
    ids=["not-polynomial", "not-linear"],
)
def test_a_limit_image_of_the_wrong_shape_is_refused(monkeypatch, change, message):
    _limit_refusal(monkeypatch, "transport", _after_the_loop(change), message, NonPolynomialImage)
