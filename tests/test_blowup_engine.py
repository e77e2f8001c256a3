import dataclasses
import random
from fractions import Fraction

import pytest

from valmono.blowup_engine import (
    CStepData,
    Frame,
    _factor_as_unit,
    divide_monomials,
    forward_image,
    framed_blowup,
    monomialize_nondegenerate,
    principalize,
    tau,
    transform_exponents,
    transport,
    verify_forward,
)
from valmono.errors import (
    CertificationError,
    DegenerateInput,
    EmptyCenter,
    EmptyIdeal,
    ProtectedCenter,
    ResidueUndefined,
)
from valmono.exact_algebra import MultiPoly, RationalFunction, UniPoly, ev_leq
from valmono.ordered_value import GroupElement, compare, standard_group
from valmono.valuation_core import Composite, Monomial

SEED = 20260814

G = standard_group()


def sc(a=0, b=0):
    return G.scalar(value=Fraction(a), pi=Fraction(b))


def el(*pairs) -> GroupElement:
    return G.element(*(sc(*p) for p in pairs))


def rf_var(width, i):
    return RationalFunction(MultiPoly.variable(width, i))


def test_initial_frame():
    fr = Frame.initial(["x", "y"], [el((1,)), el((0, 1))])
    assert fr.names == ("x", "y")
    assert fr.width == 2
    assert forward_image(fr, 0) == ((1, 0), ())
    assert forward_image(fr, 1) == ((0, 1), ())
    assert fr.pullbacks[0] == rf_var(2, 0)
    assert fr.matrix_inv == ((1, 0), (0, 1))
    assert fr.monomial_value((2, 3)) == el((2, 3))
    with pytest.raises(ValueError):
        Frame.initial(["x", "x"], [el((1,)), el((1,))])


def test_single_blowup_strict():
    # values (1, pi): the chart index is the first parameter
    fr = Frame.initial(["x", "y"], [el((1,)), el((0, 1))])
    fr2 = framed_blowup(fr, [0, 1])
    step = fr2.history[0]
    assert step.j == 0 and step.B == (1,) and step.C == ()
    assert step.monomial
    assert fr2.betas == (el((1,)), el((-1, 1)))
    assert fr2.names == ("x", "y")
    # old y = new x * new y
    assert forward_image(fr2, 1) == ((1, 1), ())
    assert forward_image(fr2, 0) == ((1, 0), ())
    # the second parameter pulls back to y/x
    assert fr2.pullbacks[1] == rf_var(2, 1) / rf_var(2, 0)
    assert tuple(forward_image(fr2, k)[0] for k in range(2)) == ((1, 0), (1, 1))
    assert fr2.matrix_inv == ((1, 0), (-1, 1))


def test_center_guards():
    fr = Frame.initial(["x", "y"], [el((1,)), el((0, 1))], protected=["x"])
    with pytest.raises(ProtectedCenter):
        framed_blowup(fr, [0, 1])
    with pytest.raises(EmptyCenter):
        framed_blowup(fr, [1])


def test_equal_value_needs_residue_data():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    with pytest.raises(ResidueUndefined):
        framed_blowup(fr, [0, 1])


def test_equal_value_with_driver():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])

    def driver(frame, q, j):
        return CStepData(residue=Fraction(1), beta_new=el((2,)))

    fr2 = framed_blowup(fr, [0, 1], driver)
    step = fr2.history[0]
    assert step.j == 0 and step.C == (1,) and not step.monomial
    assert fr2.names == ("x", "y'")
    assert fr2.betas == (el((1,)), el((2,)))
    # old y = x * (unit), unit = y/x with residue 1
    exps, ((pullback, power),) = forward_image(fr2, 1)
    assert exps == (1, 0) and power == 1
    assert step.residues == ((1, 1),)
    assert pullback == rf_var(2, 1) / rf_var(2, 0)
    # shifted parameter pulls back to y/x - 1
    assert fr2.pullbacks[1] == rf_var(2, 1) / rf_var(2, 0) - Fraction(1)
    # transport: x - y becomes -x*y' in the new chart
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    moved = transport(fr2, RationalFunction(x - y))
    assert moved == RationalFunction((x * y) * Fraction(-1))


def test_driver_data_validation():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    with pytest.raises(CertificationError):
        framed_blowup(fr, [0, 1], lambda f, q, j: CStepData(Fraction(0), el((2,))))
    with pytest.raises(CertificationError):
        framed_blowup(fr, [0, 1], lambda f, q, j: CStepData(Fraction(1), el((-2,))))


def test_forward_image_and_units():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    fr2 = framed_blowup(fr, [0, 1], lambda f, q, j: CStepData(Fraction(1), el((2,))))
    # x stays x; y = x * unit with unit = y/x, the value-zero quotient
    assert forward_image(fr2, 0) == ((1, 0), ())
    exps, ((unit, power),) = forward_image(fr2, 1)
    assert exps == (1, 0) and power == 1
    # x*y^2 = x^3 * unit^2 and the Laurent monomial y/x = unit
    x, y = rf_var(2, 0), rf_var(2, 1)
    assert fr2.pullbacks[0] ** 3 * unit**2 == x * y**2
    assert unit == y / x
    assert verify_forward(fr2)


@pytest.mark.parametrize(
    "tamper",
    [lambda units: tuple((q, u * 2) for q, u in units), lambda units: ()],
    ids=["unit-times-2", "unit-dropped"],
)
def test_verify_forward_rejects_a_tampered_step(tamper):
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    fr2 = framed_blowup(fr, [0, 1], lambda f, q, j: CStepData(Fraction(1), el((2,))))
    bad = dataclasses.replace(fr2.history[0], units=tamper(fr2.history[0].units))
    tampered = Frame(
        fr2.names, fr2.original_names, fr2.init_betas, fr2.betas, fr2.protected,
        (bad,), fr2.pullbacks, fr2.matrix_inv,
    )
    assert verify_forward(fr2)
    assert not verify_forward(tampered)


def test_tau_basics():
    (a, b), at, gt, delta, swapped = tau((2, 0, 1), (0, 3, 1))
    assert (a, b) == (2, 3)
    assert at == (2, 0, 0) and gt == (0, 3, 0)
    assert delta == (0, 0, 1) and not swapped
    (a, b), at, gt, _, swapped = tau((0, 3), (2, 0))
    assert (a, b) == (2, 3) and swapped
    assert at == (2, 0) and gt == (0, 3)
    # comparable pairs have tau zero
    (a, _), _, _, _, _ = tau((1, 1), (2, 1))
    assert a == 0


def test_divide_one_step():
    # alpha=(1,0), gamma=(0,1), values (1, pi): one step, alpha divides
    fr = Frame.initial(["x", "y"], [el((1,)), el((0, 1))])
    res = divide_monomials(fr, (1, 0), (0, 1))
    assert len(res.steps) == 1
    assert res.alpha == (1, 0) and res.gamma == (1, 1)
    assert res.divider == "alpha"
    assert ev_leq(res.alpha, res.gamma)


def test_divide_three_steps_tau_decreases():
    # alpha=(1,0), gamma=(0,3), values (pi, 1): gamma ends up dividing
    fr = Frame.initial(["x", "y"], [el((0, 1)), el((1,))])
    res = divide_monomials(fr, (1, 0), (0, 3))
    assert len(res.steps) == 3
    assert all(s.j == 1 and s.J == (0, 1) for s in res.steps)
    assert res.alpha == (1, 3) and res.gamma == (0, 3)
    assert res.divider == "gamma"
    # final first-parameter value is pi - 3, still positive
    assert res.frame.betas[0] == el((-3, 1))
    # value of both monomials is preserved
    assert res.frame.monomial_value(res.alpha) == el((0, 1))
    assert res.frame.monomial_value(res.gamma) == el((3,))


def test_divide_equal_values_collapse():
    # alpha=(2,0), gamma=(0,1) with values (1, 2): equal values, same monomial.
    # The final identification is an equal-value step, so a driver is needed.
    fr = Frame.initial(["x", "y"], [el((1,)), el((2,))])
    res = divide_monomials(
        fr, (2, 0), (0, 1), lambda f, q, j: CStepData(Fraction(1), el((5,)))
    )
    assert res.divider == "equal"
    assert res.alpha == res.gamma == (2, 0)
    assert len(res.steps) == 2 and not res.steps[-1].monomial
    # without the driver the same run reports the missing residue
    with pytest.raises(ResidueUndefined):
        divide_monomials(fr, (2, 0), (0, 1))


def test_divide_random_property():
    rng = random.Random(SEED + 41)
    betas = [el((1,)), el((0, 1)), el((3, 2))]
    done = 0
    for _ in range(40):
        fr = Frame.initial(["x", "y", "z"], betas)
        alpha = tuple(rng.randrange(5) for _ in range(3))
        gamma = tuple(rng.randrange(5) for _ in range(3))
        va = fr.monomial_value(alpha)
        vg = fr.monomial_value(gamma)
        res = divide_monomials(fr, alpha, gamma)
        assert ev_leq(res.alpha, res.gamma) or ev_leq(res.gamma, res.alpha)
        c = compare(va, vg)
        if c < 0:
            assert ev_leq(res.alpha, res.gamma)
        elif c > 0:
            assert ev_leq(res.gamma, res.alpha)
        # on monomial histories the forward exponent rows invert matrix_inv
        m = res.frame.width
        rows = [forward_image(res.frame, k)[0] for k in range(m)]
        prod = [
            [sum(rows[a][k] * res.frame.matrix_inv[k][b] for k in range(m)) for b in range(m)]
            for a in range(m)
        ]
        assert prod == [[1 if a == b else 0 for b in range(m)] for a in range(m)]
        for k in range(m):
            e = tuple(1 if i == k else 0 for i in range(m))
            assert transform_exponents(e, res.frame.history) == forward_image(res.frame, k)[0]
        done += 1
    assert done == 40


def test_principalize_single_and_pair():
    fr = Frame.initial(["x", "y"], [el((1,)), el((0, 1))])
    res = principalize(fr, [(2, 0)])
    assert res.steps == () and res.generators == ((2, 0),) and res.index == 0
    res = principalize(fr, [(2, 0), (0, 3)])
    assert len(res.generators) == 1
    gen = res.generators[res.index]
    assert res.frame.monomial_value(gen) == el((2,))
    with pytest.raises(EmptyIdeal):
        principalize(fr, [])


def test_principalize_dominated_dropped():
    fr = Frame.initial(["x", "y"], [el((1,)), el((0, 1))])
    res = principalize(fr, [(1, 0), (1, 2), (1, 0)])
    assert res.generators == ((1, 0),) and res.steps == ()


def test_monomialize_nondegenerate_golden():
    # f = x + y under values (1, pi): x * (1 + y) after one step
    fr = Frame.initial(["x", "y"], [el((1,)), el((0, 1))])
    spec = Monomial(G, [el((1,)), el((0, 1))])
    f = MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)
    cert = monomialize_nondegenerate(fr, spec, f, spec.value(f))
    assert cert.exponents == (1, 0)
    assert cert.value == el((1,))
    one = MultiPoly.one(2)
    y = MultiPoly.variable(2, 1)
    assert cert.unit == RationalFunction(one + y)
    assert len(cert.steps) == 1


def test_factor_as_unit_checks_raise():
    # the checks are exceptions, so they hold under python -O as well
    fr = Frame.initial(["x", "y"], [el((1,)), el((0, 1))])
    spec = Monomial(G, [el((1,)), el((0, 1))])
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    eps, unit, value = _factor_as_unit(fr, spec, RationalFunction(x + x * y), el((1,)))
    assert eps == (1, 0) and unit == RationalFunction(MultiPoly.one(2) + y)
    with pytest.raises(CertificationError, match="monomial value"):
        _factor_as_unit(fr, spec, RationalFunction(x + x * y), el((0, 1)))
    with pytest.raises(CertificationError, match="constant term"):
        _factor_as_unit(fr, spec, RationalFunction(x + y), el((1,)))


def test_monomialize_degenerate_rejected():
    # z^2 - x^2 y has tower value above its monomial value
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    X = UniPoly.x(2)
    key = X**2 - (x**2) * y
    nu2 = Monomial(G, [el((1,)), el((0, 2)), el((1, 1))])
    nu3 = Composite(key, nu2)
    betas = [nu3.value(MultiPoly.variable(3, i)) for i in range(3)]
    fr = Frame.initial(["x", "y", "z"], betas)
    z3 = MultiPoly.variable(3, 2)
    x3 = MultiPoly.variable(3, 0)
    y3 = MultiPoly.variable(3, 1)
    with pytest.raises(DegenerateInput):
        monomialize_nondegenerate(fr, nu3, z3**2 - x3**2 * y3, nu3.value(z3**2 - x3**2 * y3))
    # while x + y stays non-degenerate under the same tower
    cert = monomialize_nondegenerate(fr, nu3, x3 + y3, nu3.value(x3 + y3))
    assert cert.exponents == (1, 0, 0)
    assert cert.value == el((0,), (1,))


def test_monomialize_three_vars():
    # x^3 + y^2 z under values (1, 2pi, 1+pi)
    fr = Frame.initial(["x", "y", "z"], [el((1,)), el((0, 2)), el((1, 1))])
    spec = Monomial(G, [el((1,)), el((0, 2)), el((1, 1))])
    x = MultiPoly.variable(3, 0)
    y = MultiPoly.variable(3, 1)
    z = MultiPoly.variable(3, 2)
    f = x**3 + y**2 * z
    cert = monomialize_nondegenerate(fr, spec, f, spec.value(f))
    # value of x^3 is 3, of y^2 z is 1 + 5pi: the monomial is the x-part
    assert cert.value == el((3,))
    assert cert.frame.monomial_value(cert.exponents) == el((3,))
    # unit is certified: constant term present in numerator and denominator
    assert cert.unit.num.constant_value() != 0
    assert cert.unit.den.constant_value() != 0


def test_transport_roundtrip_against_pullback():
    # transported expressions agree with the pullback oracle
    rng = random.Random(SEED + 42)
    fr0 = Frame.initial(["x", "y"], [el((1,)), el((0, 1))])
    fr = fr0
    for _ in range(3):
        fr = framed_blowup(fr, [0, 1])
    for _ in range(10):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e = (rng.randrange(3), rng.randrange(3))
            terms[e] = Fraction(rng.randrange(-3, 4) or 1)
        p = MultiPoly(2, terms)
        moved = transport(fr, RationalFunction(p))
        # pulling the transported expression back must recover p
        assert fr.pullback_of(moved) == RationalFunction(p)


def test_divide_rejects_a_center_that_does_not_lower_tau(monkeypatch):
    # a center outside the reduced pair leaves tau where it was; the loop
    # must stop with a certification error, also under python -O
    import valmono.blowup_engine as engine

    monkeypatch.setattr(engine, "_center_from_tau", lambda frame, at, gt: [0, 2])
    fr = Frame.initial(["x", "y", "z"], [el((1, 0)), el((0, 1)), el((1, 1))])
    with pytest.raises(CertificationError, match="tau character failed to decrease"):
        divide_monomials(fr, (1, 0, 0), (0, 1, 0))
