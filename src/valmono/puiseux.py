"""Puiseux packages: blow-up resolution of decorated binomials.

A package takes a two-term element c1*w^e1*u1 + c2*w^e2*u2 whose terms share
their value while the sum cancels to something strictly higher, and blows up
until the element factors as monomial times certified unit. All steps but the
last are combinatorial; the last one creates the new dependent parameter,
whose shifted quotient carries the residue of the binomial relation.

Every equal-value step takes its residue through ``valuation_driver`` from
``valuation_core.residue_of_unit``. A key package re-proves nothing its chain
link proved: behind exact pullback identities it takes the binomial's values
and, where its terminal quotient is exactly q^alpha/f, the residue from the link.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blowup_engine import (
    DEFAULT_BUDGET,
    CStepData,
    Frame,
    _factor_as_unit,
    divide_monomials,
    monomialize_nondegenerate,
    transform_exponents,
    transport,
    verify_forward,
)
from .errors import (
    CertificationError,
    DeltaNotOne,
    NonBinomialInput,
    NonPolynomialImage,
    ResidueFieldExtension,
    TranscendentalResidue,
    UnknownVariable,
)
from .exact_algebra import (
    MultiPoly,
    RationalFunction,
    UniPoly,
    ev_add,
    ev_leq,
    ev_min,
    ev_scale,
    ev_sub,
    ev_support,
    ev_unit,
    normal_rational,
    q_expansion,
    to_multipoly,
)
from .ordered_value import compare, is_sentinel
from .successors import check_limit_successor
from .valuation_core import residue_of_unit


# -- equal-value step data --------------------------------------------------


def valuation_driver(spec, link=None):
    """Equal-value step data taken straight from the valuation's residues.

    A new parameter takes the primed name of the one it replaces. With
    ``link``, a key step's (q^alpha, chain link of Q' = q^alpha - c*f), a unit
    h with h*(q^alpha - Q') == c*q^alpha takes c and v(Q') - v(f), positive by
    ``make_problem``'s gate; ``check_frame_values`` values h - c before any unit is accepted.
    """
    if link is not None:
        power, succ = link
        c_link, v_link = succ.certificate.residue, succ.value - succ.certificate.base_value
        c_f, c_power = power - to_multipoly(succ.key), power * c_link

    def driver(fr, q, j, h):
        if link is not None and h.num * c_f == h.den * c_power:
            c, v = c_link, v_link
        else:
            c, v = residue_of_unit(spec, h)
        if is_sentinel(v):
            raise CertificationError("shifted quotient value is not positive")
        return CStepData(c, v)

    return driver


# -- problems -----------------------------------------------------------------


@dataclass
class PuiseuxProblem:
    """A binomial over ``frame``, oriented: each side's reduced exponents, its element and target value."""

    frame: Frame
    spec: object
    delta: tuple  # reduced exponents, distinguished side
    gamma: tuple  # reduced exponents, other side
    element: RationalFunction  # the exact element over frame parameters
    target_value: object


def make_problem(frame: Frame, spec, f=None, parts=None, position=None, link=None) -> PuiseuxProblem:
    """Validate and orient a decorated binomial over the frame.

    Exactly one of ``f`` (a plain two-term polynomial) or ``parts``
    (two (coefficient, exponents, unit) triples, units over frame
    parameters or None) must be given. With a key step's ``link``,
    (q^alpha, chain link of Q'), terms that pull back to exactly q^alpha and
    Q' - q^alpha take their values from it: alpha*v(q) for both, the second by
    the ultrametric rule as v(Q') > v(q^alpha), and the link's v(Q') as target.
    """
    m = frame.width
    if (f is None) == (parts is None):
        raise ValueError("exactly one of f and parts is required")
    if f is not None:
        if not isinstance(f, MultiPoly):
            raise TypeError("f must be a MultiPoly over the frame parameters")
        if f.width != m:
            raise UnknownVariable("expression arity mismatch")
        if len(f.terms) != 2:
            raise NonBinomialInput(f"{len(f.terms)} terms where exactly 2 are required")
        parts = tuple((c, e, None) for e, c in sorted(f.terms.items()))
    norm = []
    for c, e, u in parts:
        c = normal_rational(c)
        if c == 0:
            raise NonBinomialInput("term with zero coefficient")
        e = tuple(int(x) for x in e)
        if len(e) != m:
            raise UnknownVariable("exponent arity mismatch")
        if u is not None:
            u = RationalFunction.of(u, m)
        norm.append((c, e, u))
    if len(norm) != 2:
        raise NonBinomialInput(f"{len(norm)} terms where exactly 2 are required")

    (c1, e1, u1), (c2, e2, u2) = norm
    shift = ev_min(e1, e2)
    d1, d2 = ev_sub(e1, shift), ev_sub(e2, shift)
    if d1 == d2:
        raise NonBinomialInput("the two terms share one monomial")
    # orient: the distinguished side carries `position`; by default the
    # side whose reduced support reaches the highest position
    if position is None:
        swap = max(ev_support(d2), default=-1) > max(ev_support(d1), default=-1)
    elif d1[position]:
        swap = False
    elif d2[position]:
        swap = True
    else:
        raise CertificationError("distinguished parameter absent from the binomial")
    if swap:
        (c1, e1, u1, d1), (c2, e2, u2, d2) = (c2, e2, u2, d2), (c1, e1, u1, d1)

    term_rfs = []
    for c, e, u in ((c1, e1, u1), (c2, e2, u2)):
        r = RationalFunction(MultiPoly.monomial(m, e, c))
        if u is not None:
            r = r * u
        term_rfs.append(r)
    element = term_rfs[0] + term_rfs[1]
    if element.is_zero():
        raise NonBinomialInput("the two terms cancel exactly")
    # the pullback is a ring map: the element's is the sum of the terms'
    p1, p2 = (frame.pullback_of(r) for r in term_rfs)
    if link is None:
        v1, target = spec.value(p1), spec.value(p1 + p2)
        if compare(v1, spec.value(p2)) != 0:
            raise CertificationError("binomial terms must share their value")
    else:
        power, succ = link
        if p1 != RationalFunction(power) or p1 + p2 != RationalFunction(to_multipoly(succ.key)):
            raise CertificationError("the binomial does not pull back to its chain link")
        v1, target = succ.certificate.base_value, succ.value
    if compare(target, v1) <= 0:
        raise CertificationError("the binomial carries no cancellation under the valuation")
    return PuiseuxProblem(frame, spec, d1, d2, element, target)


def _parallel_ratio(m, rel):
    """Fraction t with m == t*rel componentwise, else None."""
    ratios = {Fraction(a, b) for a, b in zip(m, rel) if b}
    if len(ratios) > 1 or any(a for a, b in zip(m, rel) if not b):
        return None
    return ratios.pop() if ratios else Fraction(0)


def _original_exponents(e, history) -> tuple:
    """``e`` times the inverse exponent matrix of ``history``: its exponents over the originals, units aside.

    Undoing each step, newest first, lowers the chart index's exponent by the other center members'."""
    e = list(e)
    for step in reversed(history):
        e[step.j] -= sum(e[q] for q in step.J if q != step.j)
    return tuple(e)


def _package_driver(problem: PuiseuxProblem, link):
    """The valuation driver of the key step ``link``.

    A quotient without a rational residue whose exponent over the original
    parameters is a rational multiple t of the binomial relation's raises
    ``ResidueFieldExtension``: its residue is a root of order t's
    denominator. Both exponent vectors are read off the step histories.
    """
    driver = valuation_driver(problem.spec, link)

    def package_driver(fr: Frame, q: int, j: int, h: RationalFunction):
        try:
            return driver(fr, q, j, h)
        except TranscendentalResidue:
            quotient = _original_exponents(ev_sub(ev_unit(fr.width, q), ev_unit(fr.width, j)), fr.history)
            relation = _original_exponents(ev_sub(problem.delta, problem.gamma), problem.frame.history)
            t = _parallel_ratio(quotient, relation)
            if t is None:
                raise
            raise ResidueFieldExtension(
                f"the residue needs a root of order {t.denominator} of the binomial's ratio"
            ) from None

    return package_driver


# -- the package ----------------------------------------------------------------


@dataclass
class PuiseuxPackage:
    problem: PuiseuxProblem
    frame: Frame
    exponents: tuple
    unit: RationalFunction
    value: object
    new_position: int
    new_name: str
    residue: Fraction
    steps: tuple

    def monomial(self) -> MultiPoly:
        return MultiPoly.monomial(self.frame.width, self.exponents)


def puiseux_package(
    frame: Frame, spec, f=None, parts=None, position=None, link=None, budget=DEFAULT_BUDGET
) -> PuiseuxPackage:
    """Resolve a decorated binomial into monomial times unit.

    Certifies the package shape: every step but the last is combinatorial,
    the last creates exactly one dependent parameter whose shifted quotient
    is a value-zero unit. The new parameter takes the primed name of the one
    it replaces. The image then ends through the reduction loop, with the
    package's driver: parts whose units are not constants can leave terms
    over, and the loop's steps follow ``steps``, the package's own. Its
    ``_factor_as_unit`` proves the monomial carries the element's full value.
    The terminal unit h is not valued: ``framed_blowup`` proved its residue c
    nonzero and beta positive, and ``check_frame_values``, run by
    ``_factor_as_unit``, proves v(h - c) = beta, so v(h) = min(v(h - c), v(c))
    = 0 (a minimum over a key expansion, valid key or not, is strictly
    ultrametric if its base is).
    """
    problem = make_problem(frame, spec, f=f, parts=parts, position=position, link=link)
    start = len(frame.history)
    driver = _package_driver(problem, link)
    result = divide_monomials(frame, problem.delta, problem.gamma, driver)
    if result.divider != "equal":
        raise CertificationError("the package did not collapse the binomial")
    fr = result.frame
    steps = tuple(result.steps)
    if not all(s.monomial for s in steps[:-1]):
        raise CertificationError("a non-terminal package step created a parameter")
    last = steps[-1]
    if last.monomial or len(last.C) != 1:
        raise CertificationError("the terminal step must create exactly one parameter")
    new_position = last.C[0]
    residue = dict(last.residues)[new_position]
    if not verify_forward(fr):
        raise CertificationError("forward images fail the substitution check")

    T = transport(fr, problem.element, from_step=start)
    cert = monomialize_nondegenerate(fr, spec, T, problem.target_value, driver, budget)
    fr = cert.frame

    return PuiseuxPackage(
        problem,
        fr,
        cert.exponents,
        cert.unit,
        cert.value,
        new_position,
        fr.names[new_position],
        residue,
        steps,
    )


# -- successors over frames --------------------------------------------------


def prepare_successor(frame: Frame, spec, link, power: UniPoly, key_exps, key_unit=None, budget=DEFAULT_BUDGET):
    """Binomial parts over the frame for the chain link of Q' = q^alpha - c*f; ``power`` is q^alpha.

    key_exps/key_unit give the frame factorization of the current key q.
    The second part is Q' - q^alpha: the link's certificate builds Q' with
    deg f < deg q, so that is -c*f, and ``make_problem`` checks that the two
    parts pull back to q^alpha and Q' - q^alpha. A multi-term f goes
    through the reduction loop under ``budget``, extending the frame; the
    key exponents are pushed through those steps. Returns (frame, parts).
    """
    alpha = link.certificate.alpha
    key_exps = tuple(int(x) for x in key_exps)
    start = len(frame.history)
    frame, part0 = _coefficient_part(frame, spec, link.key - power, budget)
    _, key_exps, key_unit = _moved_part(frame, (1, key_exps, key_unit), start)
    u1 = key_unit**alpha if key_unit is not None else None
    parts = ((1, ev_scale(key_exps, alpha), u1), part0)
    return frame, parts


def _coefficient_part(frame: Frame, spec, coeff: UniPoly, budget):
    """A key-expansion coefficient over the frame: (frame, (c, exps, unit)).

    A term of the image with negative exponents is made polynomial by
    dividing its denominator monomial into its numerator, which needs the
    term's value positive. A single-term image is kept with no unit; a
    longer one ends through the reduction loop. Both extend the frame.
    """
    driver = valuation_driver(spec)
    img = transport(frame, RationalFunction(to_multipoly(coeff)))
    while img.den == 1 and not img.num.is_laurent_free():
        e = min(e for e in img.num.terms if min(e) < 0)
        d = tuple(max(0, -x) for x in e)
        start = len(frame.history)
        res = divide_monomials(frame, d, ev_add(e, d), driver)
        if res.divider != "alpha":
            raise NonPolynomialImage("a Laurent term of the coefficient image has no positive value")
        frame = res.frame
        img = transport(frame, img, from_step=start)
    if img.den != 1:
        raise NonPolynomialImage("coefficient image is not polynomial over the frame")
    poly = img.num
    if poly.is_single_term():
        e, c = poly.single_term()
        return frame, (c, e, None)
    cert = monomialize_nondegenerate(frame, spec, poly, spec.value(coeff), driver, budget)
    return cert.frame, (1, cert.exponents, cert.unit)


def _moved_part(frame: Frame, part, start: int):
    """A (c, exps, unit) part over the step-``start`` frame, in current parameters."""
    c, e, u = part
    e = transform_exponents(e, frame.history[start:])
    return c, e, (transport(frame, u, from_step=start) if u is not None else None)


@dataclass
class LimitMonomialization:
    frame: Frame
    exponents: tuple
    unit: RationalFunction
    value: object
    package: PuiseuxPackage
    coefficient: MultiPoly  # b'_1: the exact linear coefficient of T(P)
    candidate: RationalFunction  # P / b'_1 over the originals, == pullback of t

    def monomial(self) -> MultiPoly:
        return MultiPoly.monomial(self.frame.width, self.exponents)


def monomialize_limit_successor(
    frame: Frame, spec, key: UniPoly, P: UniPoly, budget=DEFAULT_BUDGET
) -> LimitMonomialization:
    """Monomialize a degree-one limit candidate b1*q + b0 (+ absorbed tail).

    Requires truncation argmin {0, 1} with a strict value drop; higher
    expansion terms must lie in the monomial ideal of the first two. The
    new parameter is certified to be P/b'_1 by an exact pullback identity.
    """
    if P.width + 1 != frame.width:
        raise UnknownVariable("candidate arity does not match the frame")
    ok, rep = check_limit_successor(spec, key, P)
    if rep.delta != 1:
        raise DeltaNotOne(f"truncation argmin tops out at {rep.delta}, not 1")
    if not ok:
        raise CertificationError("the candidate does not drop the key value")

    parts_key = q_expansion(P, key)
    fr = frame
    rec = {}
    for idx, bj in enumerate(parts_key):
        if bj.is_zero():
            continue
        start = len(fr.history)
        fr, part = _coefficient_part(fr, spec, bj, budget)
        rec = {i: _moved_part(fr, other, start) for i, other in rec.items()}
        rec[idx] = part
    if 0 not in rec or 1 not in rec:
        raise CertificationError("limit candidate lacks its first two expansion terms")

    k_img = transport(fr, RationalFunction(to_multipoly(key)))
    if k_img.den != 1 or not k_img.num.is_single_term():
        raise NonPolynomialImage("key image over the frame is not a monomial")
    k_exps, k_coeff = k_img.num.single_term()

    # every term beyond the first two must sit in their monomial ideal
    lead = [ev_add(rec[i][1], ev_scale(k_exps, i)) for i in (0, 1)]
    for i in sorted(rec):
        if i < 2:
            continue
        e = ev_add(rec[i][1], ev_scale(k_exps, i))
        if not any(ev_leq(a, e) for a in lead):
            raise NonPolynomialImage("truncation tail escapes the monomial ideal")

    # enforce b1 | b0 so the terminal step sees a bare relation
    (c0, e0, u0), (c1, e1, u1) = rec[0], rec[1]
    if not ev_leq(e1, e0):
        start = len(fr.history)
        fr = divide_monomials(fr, e1, e0, valuation_driver(spec)).frame
        c0, e0, u0 = _moved_part(fr, (c0, e0, u0), start)
        c1, e1, u1 = _moved_part(fr, (c1, e1, u1), start)
        _, k_exps, _ = _moved_part(fr, (k_coeff, k_exps, None), start)

    position = None
    if len(ev_support(k_exps)) == 1:
        position = ev_support(k_exps)[0]
    parts = ((c1 * k_coeff, ev_add(e1, k_exps), u1), (c0, e0, u0))
    pkg = puiseux_package(fr, spec, parts=parts, position=position, budget=budget)

    # exact re-expansion of the full candidate in the new parameter
    T = transport(pkg.frame, RationalFunction(to_multipoly(P)))
    if T.den != 1:
        raise NonPolynomialImage("candidate image is not polynomial over the frame")
    tpos = pkg.new_position
    by_t = {}
    for e, c in T.num.terms.items():
        stripped = tuple(0 if i == tpos else x for i, x in enumerate(e))
        by_t.setdefault(e[tpos], {})[stripped] = c
    if set(by_t) != {1}:
        raise NonPolynomialImage("re-expansion in the new parameter is not linear")
    b1p = MultiPoly(pkg.frame.width, by_t[1])

    # the new parameter is exactly the normalized candidate P / b'_1
    P_orig = RationalFunction(to_multipoly(P))
    candidate = P_orig / pkg.frame.pullback_of(RationalFunction(b1p))
    if pkg.frame.pullback_of(MultiPoly.variable(pkg.frame.width, tpos)) != candidate:
        raise CertificationError("the new parameter is not the normalized candidate")

    target = spec.value(P_orig)
    eps, unit, value = _factor_as_unit(pkg.frame, spec, T, target)
    return LimitMonomialization(pkg.frame, eps, unit, value, pkg, b1p, candidate)
