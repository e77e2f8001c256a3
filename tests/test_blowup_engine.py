import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
import reference_blowup as ref

from valmono.blowup_engine import (
    CStepData,
    DivideResult,
    Frame,
    _center_from_tau,
    _factor_as_unit,
    _step_image,
    _transform_exponents,
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
    BudgetExceeded,
    CertificationError,
    EmptyCenter,
    EmptyIdeal,
    ResidueUndefined,
)
from valmono.exact_algebra import MultiPoly, RationalFunction, UniPoly, ev_leq
from valmono.ordered_value import GroupElement, compare, standard_group
from valmono.puiseux import _original_exponents, valuation_driver
from valmono.serde import parse_polynomial
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
    assert fr.pullback_of(MultiPoly.variable(2, 0)) == rf_var(2, 0)
    assert ref.matrix_inv(fr) == ((1, 0), (0, 1))
    assert fr.monomial_value((2, 3)) == el((2, 3))
    with pytest.raises(ValueError):
        Frame.initial(["x", "x"], [el((1,)), el((1,))])


@pytest.mark.parametrize("beta", [el((0,)), el((-1,)), el((1, -1))], ids=["zero", "negative", "pi-negative"])
def test_initial_frame_rejects_a_non_positive_value(beta):
    with pytest.raises(CertificationError, match="parameter value must stay positive"):
        Frame.initial(["x", "y"], [el((1,)), beta])


def test_monomial_blowup_decides_no_positivity(monkeypatch):
    # the chart index minimizes the value, so each strict member's difference is
    # proved positive by its sign and no value is proved again afterwards
    fr = Frame.initial(["x", "y", "z"], [el((1,)), el((0, 1)), el((2,))])
    asked = []
    is_positive = GroupElement.is_positive
    monkeypatch.setattr(GroupElement, "is_positive", lambda self: asked.append(self) or is_positive(self))
    fr2 = framed_blowup(fr, [0, 1, 2])
    assert fr2.history[0].monomial and fr2.history[0].B == (1, 2)
    assert asked == []


def _counting_differences(monkeypatch):
    """Every subtraction and comparison of two elements, each of which takes their difference."""
    taken = []
    sub, cmp = GroupElement.__sub__, GroupElement._cmp
    monkeypatch.setattr(GroupElement, "__sub__", lambda a, b: taken.append(("-", a, b)) or sub(a, b))
    monkeypatch.setattr(GroupElement, "_cmp", lambda a, b: taken.append(("cmp", a, b)) or cmp(a, b))
    return taken


def test_one_difference_per_center_member(monkeypatch):
    # the difference that places the chart index is the member's new value;
    # only differences taken before the index moved are taken again
    taken = _counting_differences(monkeypatch)
    fr = Frame.initial(["x", "y", "z"], [el((1,)), el((0, 1)), el((2,))])
    assert framed_blowup(fr, [0, 1]).betas == (el((1,)), el((-1, 1)), el((2,)))
    assert len(taken) == 1
    taken.clear()
    assert framed_blowup(fr, [0, 1, 2]).betas == (el((1,)), el((-1, 1)), el((1,)))
    assert len(taken) == 2
    taken.clear()
    # z < x: the index moves to z, and x's difference is taken against it
    fr = Frame.initial(["x", "y", "z"], [el((2,)), el((0, 1)), el((1,))])
    step = framed_blowup(fr, [0, 1, 2]).history[0]
    assert (step.j, step.B, step.beta_after) == (2, (0, 1), (el((1,)), el((-1, 1)), el((1,))))
    assert len(taken) == 4


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
    assert fr2.pullback_of(MultiPoly.variable(2, 1)) == rf_var(2, 1) / rf_var(2, 0)
    assert tuple(forward_image(fr2, k)[0] for k in range(2)) == ((1, 0), (1, 1))
    assert ref.matrix_inv(fr2) == ((1, 0), (-1, 1))


def test_center_guards():
    fr = Frame.initial(["x", "y"], [el((1,)), el((0, 1))])
    with pytest.raises(EmptyCenter):
        framed_blowup(fr, [1])


def test_equal_value_needs_residue_data():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    with pytest.raises(ResidueUndefined):
        framed_blowup(fr, [0, 1])


def test_equal_value_with_driver():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])

    def driver(frame, q, j, unit):
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
    assert fr2.pullback_of(MultiPoly.variable(2, 1)) == rf_var(2, 1) / rf_var(2, 0) - Fraction(1)
    # transport: x - y becomes -x*y' in the new chart
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    moved = transport(fr2, RationalFunction(x - y))
    assert moved == RationalFunction((x * y) * Fraction(-1))


def test_driver_data_validation():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    with pytest.raises(CertificationError):
        framed_blowup(fr, [0, 1], lambda f, q, j, unit: CStepData(Fraction(0), el((2,))))
    with pytest.raises(CertificationError):
        framed_blowup(fr, [0, 1], lambda f, q, j, unit: CStepData(Fraction(1), el((-2,))))


def test_forward_image_and_units():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    fr2 = framed_blowup(fr, [0, 1], lambda f, q, j, unit: CStepData(Fraction(1), el((2,))))
    # x stays x; y = x * unit with unit = y/x, the value-zero quotient
    assert forward_image(fr2, 0) == ((1, 0), ())
    exps, ((unit, power),) = forward_image(fr2, 1)
    assert exps == (1, 0) and power == 1
    # x*y^2 = x^3 * unit^2 and the Laurent monomial y/x = unit
    x, y = rf_var(2, 0), rf_var(2, 1)
    assert fr2.pullback_of(MultiPoly.variable(2, 0)) ** 3 * unit**2 == x * y**2
    assert unit == y / x
    assert verify_forward(fr2)


@pytest.mark.parametrize(
    "tamper",
    [lambda units: tuple((q, u * 2) for q, u in units), lambda units: ()],
    ids=["unit-times-2", "unit-dropped"],
)
def test_verify_forward_rejects_a_tampered_step(tamper):
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    fr2 = framed_blowup(fr, [0, 1], lambda f, q, j, unit: CStepData(Fraction(1), el((2,))))
    bad = dataclasses.replace(fr2.history[0], units=tamper(fr2.history[0].units))
    tampered = Frame(fr2.names, fr2.original_names, fr2.init_betas, fr2.betas, (bad,))
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
        fr, (2, 0), (0, 1), lambda f, q, j, unit: CStepData(Fraction(1), el((5,)))
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
        # on monomial histories the forward exponent rows invert the history's inverse matrix
        m = res.frame.width
        rows = [forward_image(res.frame, k)[0] for k in range(m)]
        inv = ref.matrix_inv(res.frame)
        prod = [
            [sum(rows[a][k] * inv[k][b] for k in range(m)) for b in range(m)]
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


def test_principalize_values_no_generator_after_dividing(monkeypatch):
    # with every pair comparable, minimalization leaves the one principal
    # generator, so only the divide steps value monomials: four each
    import valmono.blowup_engine as engine

    valued = []
    value = Frame.monomial_value
    monkeypatch.setattr(Frame, "monomial_value", lambda self, e: valued.append(e) or value(self, e))
    divides = []
    divide = engine.divide_monomials
    monkeypatch.setattr(engine, "divide_monomials", lambda *args: divides.append(args) or divide(*args))
    fr = Frame.initial(["x", "y", "z"], [el((1,)), el((0, 1)), el((1, 1))])
    for gens in ([(3, 0, 0)], [(1, 0, 0), (2, 1, 0), (1, 0, 4)], [(3, 0, 0), (0, 2, 1)], [(2, 0, 0), (0, 2, 0), (0, 0, 2)]):
        valued.clear()
        divides.clear()
        res = principalize(fr, gens)
        assert len(res.generators) == 1 and res.index == 0
        assert len(valued) == 4 * len(divides)
    assert divides


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


def test_factor_as_unit_rejects_a_unit_it_cannot_certify():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    spec = Monomial(G, [el((1,)), el((0, 1))])
    # Frame.initial and framed_blowup keep values positive; a frame built
    # directly may not, and then a unit's non-constant term may not be
    # above its constant: every such term must have positive value
    for y_value in (el((0,)), el((0, -1))):
        fr = Frame(["x", "y"], ["x", "y"], spec.weights, [el((1,)), y_value], ())
        for T in (RationalFunction(x + x * y), RationalFunction(x + x * x + x * y), RationalFunction(x, y + 1)):
            with pytest.raises(CertificationError, match="unit term of non-positive value"):
                _factor_as_unit(fr, spec, T, el((1,)))
    fr = Frame(["x", "y"], ["x", "y"], spec.weights, spec.weights, ())
    assert _factor_as_unit(fr, spec, RationalFunction(x + x * x + x * y), el((1,)))[0] == (1, 0)
    # RationalFunction's normal form never leaves a monomial factor in a
    # denominator; an object that skips it makes the unit Laurent
    T = RationalFunction.__new__(RationalFunction)
    T.num, T.den = MultiPoly.one(2), x + x * y
    with pytest.raises(CertificationError, match="unit with negative parameter exponents"):
        _factor_as_unit(fr, spec, T, el((0,)))


@pytest.mark.parametrize(
    "T, eps",
    [
        (RationalFunction(MultiPoly(2, {(2, 1): 1, (3, 1): 1})), (2, 1)),
        (RationalFunction(MultiPoly(2, {(2, 1): 1, (3, 1): 1}), MultiPoly(2, {(0, 0): 3, (0, 1): 2, (1, 1): 1})), (2, 1)),
        (RationalFunction(MultiPoly(2, {(0, 1): 1, (1, 1): 1}), MultiPoly(2, {(1, 0): 1})), (-1, 1)),
    ],
    ids=["over-1", "over-a-sum", "laurent"],
)
def test_factor_as_unit_shifts_the_monomial_out(T, eps):
    # the denominator is already in normal form, so shifting the numerator by
    # -eps gives T / w^eps in its normal form, numerator and denominator alike
    fr = Frame.initial(["x", "y"], [el((1,)), el((0, 1))])
    spec = Monomial(G, [el((1,)), el((0, 1))])
    found, unit, _ = _factor_as_unit(fr, spec, T, fr.monomial_value(eps))
    quotient = T / RationalFunction(MultiPoly.monomial(2, eps))
    assert found == eps
    assert (unit.num, unit.den) == (quotient.num, quotient.den)
    assert unit.num.is_laurent_free() and unit.num.constant_value() != 0


def test_monomialize_reduces_a_degenerate_element():
    # z^2 - x^2 y has tower value above its monomial value: the loop
    # principalizes its two terms of least value, and the equal-value step
    # needs the tower's residue
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
    f = z3**2 - x3**2 * y3
    with pytest.raises(ResidueUndefined):
        monomialize_nondegenerate(fr, nu3, f, nu3.value(f))
    cert = monomialize_nondegenerate(fr, nu3, f, nu3.value(f), valuation_driver(nu3))
    assert (cert.exponents, cert.value, len(cert.steps)) == ((2, 2, 1), el((1,), (0,)), 3)
    assert cert.frame.names == ("x", "y", "z'")
    assert cert.unit == RationalFunction(MultiPoly(3, {(0, 0, 0): 1, (0, 0, 1): 1}))
    assert cert.frame.pullback_of(RationalFunction(MultiPoly.monomial(3, cert.exponents)) * cert.unit) == (
        RationalFunction(f)
    )
    # its first round is budgeted: at a budget of 0 steps the loop stops in the frame it was given
    with pytest.raises(BudgetExceeded) as exc:
        monomialize_nondegenerate(fr, nu3, f, nu3.value(f), valuation_driver(nu3), budget=0)
    assert exc.value.frame is fr and exc.value.state is None
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


# -- transport and pullback_of over seeded frames -------------------------------

RESIDUES = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))


def _seeded_frame(rng):
    """A frame over x, y, z after 1-4 blow-ups; small values make ties, so equal-value members."""
    fr = Frame.initial(["x", "y", "z"], [el((rng.randrange(1, 3),)) for _ in range(3)])
    for _ in range(rng.randrange(1, 5)):
        J = rng.sample(range(3), rng.choice((2, 3)))
        fr = framed_blowup(fr, J, lambda f, q, j, unit: CStepData(rng.choice(RESIDUES), el((rng.randrange(1, 3),))))
    return fr


def _seeded_poly(rng, low, constant=None):
    terms = {(0, 0, 0): constant} if constant else {}
    for _ in range(rng.randrange(1, 4)):
        e = tuple(rng.randrange(low, 3) for _ in range(3))
        terms[e] = terms.get(e, 0) + (rng.randrange(-3, 4) or 1)
    return MultiPoly(3, terms)


def _round_trip_inputs(rng):
    """(polynomial, monomial x unit, general rational function) over x, y, z."""
    poly = _seeded_poly(rng, 0)
    monomial = MultiPoly.monomial(3, tuple(rng.randrange(3) for _ in range(3)))
    unit = RationalFunction(_seeded_poly(rng, 0, constant=1), _seeded_poly(rng, 0, constant=rng.choice((2, -1))))
    general = RationalFunction(_seeded_poly(rng, -1), _seeded_poly(rng, -1) + _seeded_poly(rng, 0))
    return RationalFunction(poly), RationalFunction(monomial) * unit, general


def _terms_digest(r):
    text = repr(tuple(sorted((e, Fraction(c)) for e, c in p.terms.items()) for p in (r.num, r.den)))
    return f"{len(r.num.terms)}/{len(r.den.terms)}:{hashlib.sha256(text.encode()).hexdigest()[:12]}"


# transport's (polynomial, monomial x unit) outputs on the 40 seeded frames, as
# "numerator terms/denominator terms:digest of the sorted terms", recorded when
# every frame stored the pullback of each parameter and transport substituted
# rational-function images term by term
TRANSPORT_TABLE = (
    ("27/1:95ca3553583a", "310/5:da6a57abc684"),
    ("2/1:91e43b7fadfc", "76/9:ca109c169138"),
    ("3/1:b65f5c3e57d1", "4/3:ddf37b582d29"),
    ("5/1:29a8c4ec0802", "11/7:44298e0e18f7"),
    ("14/1:4bc627d3d11c", "51/8:c179c11a80af"),
    ("49/1:a76f62308e17", "41/35:bb6f82e320de"),
    ("137/1:99ee1e9b09a8", "606/43:d428cf25bad0"),
    ("10/1:36f4a921c4e6", "51/9:9721c6578c13"),
    ("3/1:6e1d4bc7061a", "2/2:c78093e9369a"),
    ("36/1:c036c0ccd80a", "165/31:a8a67114c79d"),
    ("5/1:c15aa87e4bc3", "8/4:319782798192"),
    ("6/1:dee9d5370361", "9/9:ed7015ef5d64"),
    ("5/1:96bbf8ca7b03", "20/28:511d495287b2"),
    ("1/1:7d096af9efc6", "2/3:1ff7e32a1be9"),
    ("3/1:3cdd189d7054", "4/2:1d6728bdb012"),
    ("7/1:fd87b16346aa", "5/4:9405eb83b303"),
    ("2/1:2757820caded", "2/4:d8fd02a54aef"),
    ("258/1:1f18c6b9cd1d", "1386/282:683597da62ec"),
    ("2/1:a68e5e12640c", "5/4:78822c6bb780"),
    ("3/1:147801bb197e", "42/14:b6d220eec43f"),
    ("6/1:6b4a6fbc82bb", "24/7:7a16cc403309"),
    ("10/1:b3629af81062", "122/16:951178383eeb"),
    ("4/1:fd284cd28207", "16/7:54a68c263d5e"),
    ("20/1:b9bc1ae6b747", "71/10:df44831cf5f3"),
    ("2/1:bd0644a59bf4", "4/3:c634a9839d46"),
    ("2/1:49162a90dbf3", "2/2:e1717e66f449"),
    ("5/1:20e97992fa5c", "3/3:c897145e526c"),
    ("6/1:9ba6e430c6e7", "36/5:17b1ce9ad93f"),
    ("38/1:898ca3bda337", "40/43:e80473dc1c4f"),
    ("62/1:d15b948116fb", "196/4:973564474311"),
    ("39/1:4bb697de1729", "373/34:46fc8826dd6f"),
    ("2/1:f92da58f9e3c", "6/4:a420aea365de"),
    ("2/1:fc052f33d283", "3/4:727e61ebabdc"),
    ("6/1:b66945b85e2c", "58/6:b5d75f28fbf8"),
    ("1/1:de4d5c8753b1", "3/2:ee3f27e4cc5a"),
    ("78/1:175b10c3cc90", "177/9:47816649e9be"),
    ("76/1:fc36bed12988", "40/26:098e7d8642a1"),
    ("15/1:fc6040d70ea5", "3/26:05849d9d5412"),
    ("1/1:ad0878094917", "3/4:dc0663712237"),
    ("1/1:7cf736e9aefe", "11/15:d965832c9aaa"),
)


def test_transport_and_pullback_round_trip_table():
    rng = random.Random(SEED + 43)
    residues = set()
    for row in TRANSPORT_TABLE:
        fr = _seeded_frame(rng)
        residues |= {r for step in fr.history for _, r in step.residues}
        poly, monomial_unit, general = _round_trip_inputs(rng)
        moved = [transport(fr, r) for r in (poly, monomial_unit, general)]
        assert tuple(_terms_digest(t) for t in moved[:2]) == row
        # a general rational function may come out in another form of the same function
        for r, t in zip((poly, monomial_unit, general), moved):
            assert fr.pullback_of(t) == r
    assert residues == set(RESIDUES)


def test_transport_of_a_laurent_input_stays_small():
    # values x:2, y:1, z:1, then three blow-ups whose equal-value members have
    # residues 2, 1 and 1/2; substituting rational-function images term by
    # term gave 919/609 terms here
    fr = Frame.initial(["x", "y", "z"], [el((2,)), el((1,)), el((1,))])
    for J, residue, value in [((0, 1, 2), 2, 2), ((0, 1, 2), 1, 1), ((1, 2), Fraction(1, 2), 1)]:
        fr = framed_blowup(fr, J, lambda f, q, j, unit, r=residue, v=value: CStepData(Fraction(r), el((v,))))
    assert [(s.j, s.B, s.C) for s in fr.history] == [(1, (0,), (2,)), (0, (2,), (1,)), (1, (), (2,))]
    r = RationalFunction(parse_polynomial("-1/3*y*z^-1 + 1/3*x^-1*y*z^-2 + 1/3*x^-2*y^-1*z^-2", ["x", "y", "z"]))
    moved = transport(fr, r)
    assert len(moved.num.terms) + len(moved.den.terms) <= 60
    assert fr.pullback_of(moved) == r


# -- the per-step kernel against the reference in reference_blowup.py -----------


def _stored(r):
    """A polynomial's terms, or a fraction's numerator and denominator terms, in stored order."""
    if isinstance(r, MultiPoly):
        return list(r.terms.items())
    return list(r.num.terms.items()), list(r.den.terms.items())


def _seeded_laurent(rng):
    """A nonzero Laurent polynomial over x, y, z with int and Fraction coefficients; a sixth are
    the shared 1 and a sixth constants."""
    kind = rng.randrange(6)
    if kind == 0:
        return MultiPoly.one(3)
    if kind == 1:
        return MultiPoly.constant(3, rng.choice((2, -1, Fraction(3, 2))))
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        e = tuple(rng.randrange(-2, 4) for _ in range(3))
        terms[e] = terms.get(e, 0) + rng.choice((1, -2, 3, Fraction(1, 2), Fraction(-5, 3)))
    p = MultiPoly(3, terms)
    return MultiPoly.one(3) if p.is_zero() else p


def _image_or_refusal(kernel, p, step, forward):
    try:
        return _stored(kernel(p, step, forward))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_step_image_matches_the_reference():
    # both directions, on steps with and without equal-value members; a
    # negative power of such a member is refused by both alike
    rng = random.Random(SEED + 44)
    seen = {"monomial": 0, "equal-value": 0, "refused": 0, "moved": 0}
    for _ in range(30):
        fr = _seeded_frame(rng)
        for step in fr.history:
            seen["monomial" if step.monomial else "equal-value"] += 1
            for _ in range(4):
                p = _seeded_laurent(rng)
                for forward in (True, False):
                    out = _image_or_refusal(_step_image, p, step, forward)
                    assert out == _image_or_refusal(ref.step_image, p, step, forward)
                    seen["refused" if isinstance(out, str) else "moved"] += 1
    assert min(seen.values()) > 20, seen


def test_pullback_and_transport_match_the_reference():
    rng = random.Random(SEED + 45)
    kinds = set()
    for _ in range(40):
        fr = _seeded_frame(rng)
        kinds.add(all(step.monomial for step in fr.history))
        laurent = _seeded_laurent(rng)
        fractions = (*_round_trip_inputs(rng), RationalFunction(laurent),
                     RationalFunction(_seeded_laurent(rng), laurent))
        for r in fractions:
            assert _stored(fr.pullback_of(r)) == _stored(ref.pullback_of(fr, r))
            assert _stored(transport(fr, r)) == _stored(ref.transport(fr, r))
        for from_step in range(len(fr.history) + 1):
            assert _stored(transport(fr, fractions[0], from_step)) == _stored(ref.transport(fr, fractions[0], from_step))
    assert kinds == {True, False}  # frames with and without equal-value members


def test_a_negative_equal_value_power_is_refused():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    step = framed_blowup(fr, [0, 1], lambda f, q, j, unit: CStepData(Fraction(1), el((2,)))).history[0]
    assert step.C == (1,)
    for forward in (True, False):
        with pytest.raises(ValueError, match="negative power of an equal-value member"):
            _step_image(MultiPoly(2, {(0, 0): 1, (2, -1): 3}), step, forward)
        # a negative power of the chart index is only relabelled
        assert _step_image(MultiPoly.monomial(2, (-1, 0), 3), step, forward) == MultiPoly.monomial(2, (-1, 0), 3)


def _counting_shifts(monkeypatch):
    """The vector of every MultiPoly.shift call."""
    shifts = []
    shift = MultiPoly.shift
    monkeypatch.setattr(MultiPoly, "shift", lambda self, e: shifts.append(tuple(e)) or shift(self, e))
    return shifts


def test_a_pullback_clears_exponents_only_where_a_member_needs_it(monkeypatch):
    shifts = _counting_shifts(monkeypatch)
    rng = random.Random(SEED + 46)
    # monomial steps only: values x:1, y:pi, z:2+pi never tie
    fr = Frame.initial(["x", "y", "z"], [el((1,)), el((0, 1)), el((2, 1))])
    for J in ((0, 1), (1, 2), (0, 2), (0, 1, 2)):
        fr = framed_blowup(fr, J)
    assert all(step.monomial for step in fr.history)
    for _ in range(20):
        p = _seeded_laurent(rng)
        back = fr.pullback_of(p)
        assert shifts == []
        assert _stored(back) == _stored(ref.pullback_of(fr, p))  # which shifts at every step
        shifts.clear()
    # one equal-value step: y = x*(y' + 1); only a negative power of y' is cleared
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    fr = framed_blowup(fr, [0, 1], lambda f, q, j, unit: CStepData(Fraction(1), el((2,))))
    x, y = rf_var(2, 0), rf_var(2, 1)
    expected = ((y - x) ** 3 / x**5, x / (y - x))
    shifts.clear()
    assert fr.pullback_of(MultiPoly.monomial(2, (-2, 3))) == expected[0]
    assert shifts == []
    assert fr.pullback_of(MultiPoly.monomial(2, (0, -1))) == expected[1]
    assert shifts[:2] == [(0, 1), (0, 1)]  # numerator and denominator, before the step is undone
    # a frame whose pullbacks take equal-value exponents below zero still round-trips
    fr = Frame.initial(["x", "y", "z"], [el((2,)), el((1,)), el((1,))])
    for J, residue, value in [((0, 1, 2), 2, 2), ((0, 1, 2), 1, 1), ((1, 2), Fraction(1, 2), 1)]:
        fr = framed_blowup(fr, J, lambda f, q, j, unit, r=residue, v=value: CStepData(Fraction(r), el((v,))))
    for _ in range(20):
        r = RationalFunction(_seeded_laurent(rng))
        assert fr.pullback_of(transport(fr, r)) == r


def test_divide_rejects_a_center_that_does_not_lower_tau(monkeypatch):
    # a center outside the reduced pair leaves tau where it was; the loop
    # must stop with a certification error, also under python -O
    import valmono.blowup_engine as engine

    monkeypatch.setattr(engine, "_center_from_tau", lambda at, gt: [0, 2])
    fr = Frame.initial(["x", "y", "z"], [el((1, 0)), el((0, 1)), el((1, 1))])
    with pytest.raises(CertificationError, match="tau character failed to decrease"):
        divide_monomials(fr, (1, 0, 0), (0, 1, 0))


# -- the divisibility loop's exponent helpers against reference_blowup.py ----------

# the queries workload's frame: x, y, z valued (0, 1), (0, pi) and (1, 0)
QUERY_WEIGHTS = (el((0,), (1,)), el((0,), (0, 1)), el((1,), (0,)))


def _with_reference_helpers(monkeypatch):
    import valmono.blowup_engine as engine

    monkeypatch.setattr(engine, "tau", ref.tau)
    monkeypatch.setattr(engine, "_center_from_tau", ref.center_from_tau)
    monkeypatch.setattr(engine, "_transform_exponents", ref.transform_exponents)


def _loop_output(run):
    """What a divide or principalize run returns, with each step's fields; or its refusal."""
    try:
        res = run()
    except CertificationError as exc:
        return f"CertificationError: {exc}"
    fields = [dataclasses.astuple(step) for step in res.steps]
    if isinstance(res, DivideResult):
        return res.alpha, res.gamma, res.divider, fields
    return res.generators, res.index, fields


def _loop_inputs(rng):
    """500 (frame, c_provider, "divide", pair) and 500 (..., "principalize", ideal) cases.

    Half on the queries frame with the queries workload's draws, half on a
    rational 2-variable frame, whose ties make equal-value steps.
    """
    cases = []
    for i in range(500):
        if i % 2 == 0:
            fr, provide = Frame.initial(["x", "y", "z"], QUERY_WEIGHTS), None
            pair = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(2)]
            ideal = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(3)]
        else:
            fr = Frame.initial(["x", "y"], [el((rng.randint(1, 3),)), el((rng.randint(1, 3),))])
            provide = lambda f, q, j, unit: CStepData(Fraction(1), el((1,)))  # noqa: E731
            pair = [(0, 0), (0, 0)]
            while ev_leq(*pair) or ev_leq(*pair[::-1]):  # an incomparable pair, so at least one step
                pair = [tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(2)]
            ideal = [tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(rng.randint(2, 3))]
        cases.append((fr, provide, "divide", pair))
        cases.append((fr, provide, "principalize", ideal))
    return cases


def test_loop_helpers_match_the_reference():
    # tau, the center and the exponent moves on every seeded pair, and on
    # each pair's steps in both directions
    rng = random.Random(SEED + 46)
    checked = 0
    for fr, provide, kind, data in _loop_inputs(rng):
        if kind != "divide":
            continue
        alpha, gamma = data
        out = tau(alpha, gamma)
        assert out == ref.tau(alpha, gamma), (alpha, gamma)
        assert _center_from_tau(out[1], out[2]) == ref.center_from_tau(out[1], out[2])
        assert _center_from_tau(out[2], out[1]) == ref.center_from_tau(out[2], out[1])
        for step in divide_monomials(fr, alpha, gamma, provide).steps:
            for e in (alpha, gamma, out[3]):
                for sign in (1, -1):
                    assert _transform_exponents(e, step, sign) == ref.transform_exponents(e, step, sign)
        checked += 1
    assert checked == 500


def test_divide_and_principalize_match_the_reference_loop(monkeypatch):
    # the same 500 pairs and 500 ideals, once through the lean helpers and
    # once through the reference ones: the same steps, exponents and refusals
    rng = random.Random(SEED + 47)
    cases = _loop_inputs(rng)
    runs = []
    for fr, provide, kind, data in cases:
        if kind == "divide":
            runs.append(lambda fr=fr, p=provide, d=data: divide_monomials(fr, d[0], d[1], p))
        else:
            runs.append(lambda fr=fr, p=provide, d=data: principalize(fr, d, p))
    lean = [_loop_output(run) for run in runs]
    _with_reference_helpers(monkeypatch)
    assert [_loop_output(run) for run in runs] == lean
    steps = [out[-1] for out in lean if not isinstance(out, str)]
    kinds = {step[4] for fields in steps for step in fields}
    assert len(lean) == 1000 and kinds == {True, False}  # monomial and equal-value steps


def test_history_exponents_match_the_carried_inverse_matrix():
    # the exponents a package's residue-field test reads off the step history
    # equal e times the inverse exponent matrix frames once carried, row by
    # row update, on every prefix of 500 seeded frames' histories
    rng = random.Random(SEED + 48)
    frames, kinds = 0, set()
    for fr, provide, kind, data in _loop_inputs(rng):
        if kind != "divide":
            continue
        res = divide_monomials(fr, data[0], data[1], provide)
        m = res.frame.width
        for n in range(len(res.frame.history) + 1):
            prefix = Frame(res.frame.names, res.frame.original_names, res.frame.init_betas,
                           res.frame.betas, res.frame.history[:n])
            inv = ref.matrix_inv(prefix)
            for k in range(m):
                e = tuple(1 if i == k else 0 for i in range(m))
                assert _original_exponents(e, prefix.history) == inv[k]
            e = tuple(rng.randint(-4, 4) for _ in range(m))
            assert _original_exponents(e, prefix.history) == tuple(
                sum(e[i] * inv[i][k] for i in range(m)) for k in range(m)
            )
        kinds |= {step.monomial for step in res.frame.history}
        frames += 1
    assert frames == 500 and kinds == {True, False}


# -- checks that no valid input reaches, each fired by a faulty producer -----------


def test_a_center_index_that_does_not_minimize_is_refused(monkeypatch):
    # a sign that calls both differences negative moves the chart index past
    # the member of least value; the second pass over the center refuses it
    fr = Frame.initial(["x", "y"], [el((1,)), el((2,))])
    monkeypatch.setattr(GroupElement, "sign", lambda self: -1)
    with pytest.raises(CertificationError, match="center index does not minimize the value"):
        framed_blowup(fr, [0, 1])


def test_divide_refuses_two_monomials_of_equal_value(monkeypatch):
    import valmono.blowup_engine as engine

    monkeypatch.setattr(engine, "compare", lambda a, b: 0)
    fr = Frame.initial(["x", "y"], [el((1,)), el((2,))])
    with pytest.raises(CertificationError, match="equal values must collapse to one monomial"):
        divide_monomials(fr, (1, 0), (0, 1))


def test_divide_refuses_a_direction_the_values_contradict(monkeypatch):
    import valmono.blowup_engine as engine

    real = engine.compare
    monkeypatch.setattr(engine, "compare", lambda a, b: -real(a, b))
    fr = Frame.initial(["x", "y"], [el((1,)), el((2,))])
    with pytest.raises(CertificationError, match="division direction contradicts the values"):
        divide_monomials(fr, (1, 0), (0, 1))


def test_divide_refuses_a_step_that_changes_a_monomial_value(monkeypatch):
    import valmono.blowup_engine as engine

    real = engine.framed_blowup

    def doubling(frame, J, c_provider=None):
        out = real(frame, J, c_provider)
        out.betas = tuple(b * 2 for b in out.betas)
        return out

    monkeypatch.setattr(engine, "framed_blowup", doubling)
    fr = Frame.initial(["x", "y"], [el((1,)), el((2,))])
    with pytest.raises(CertificationError, match="a blow-up changed the value of a monomial"):
        divide_monomials(fr, (1, 0), (0, 1))


def test_principalize_refuses_two_generators_left(monkeypatch):
    # without minimalization two comparable generators stay, and no pair is left to divide
    import valmono.blowup_engine as engine

    monkeypatch.setattr(engine, "minimalize_monomials", list)
    fr = Frame.initial(["x", "y"], [el((1,)), el((2,))])
    with pytest.raises(CertificationError, match="principal generator fails to divide"):
        principalize(fr, [(1, 0), (2, 0)])
