"""Puiseux packages: blow-up resolution of binomials, and the degree-one limit recipe.

A package takes a two-term polynomial c1*w^e1 + c2*w^e2 whose terms share
their value while the sum cancels to something strictly higher, and blows up
until the element factors as monomial times certified unit. All steps but the
last are combinatorial; the last one creates the new dependent parameter,
whose shifted quotient carries the residue of the binomial relation.

Every equal-value step takes its residue through ``valuation_driver`` from
``valuation_core.residue_of_unit``. A key round (``orchestrator.advance``)
re-proves nothing its chain link proved: where a terminal quotient is exactly
q^alpha/f, its driver takes the residue from the link.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blowup_engine import (
    DEFAULT_BUDGET,
    CStepData,
    Frame,
    divide_monomials,
    monomialize_nondegenerate,
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
from .exact_algebra import MultiPoly, RationalFunction, UniPoly, ev_min, ev_sub, ev_support, ev_unit, to_multipoly
from .ordered_value import compare, is_sentinel
from .successors import check_limit_successor
from .valuation_core import residue_of_unit


# -- equal-value step data --------------------------------------------------


def valuation_driver(spec, link=None):
    """Equal-value step data taken straight from the valuation's residues.

    A new parameter takes the primed name of the one it replaces. With
    ``link``, a key round's (q^alpha, chain link of Q' = q^alpha - c*f), a unit
    h with h*(q^alpha - Q') == c*q^alpha takes c and v(Q') - v(f), positive by
    ``_rises``, which ``_chain_for`` and the loader enforce; ``check_frame_values``
    values h - c before any unit is accepted.
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


def make_problem(frame: Frame, spec, f) -> PuiseuxProblem:
    """Validate and orient a two-term polynomial over the frame.

    The distinguished side is the one whose reduced support reaches the
    highest position. Both terms must share their value, and the binomial
    must cancel to a strictly higher one, its target value.
    """
    m = frame.width
    if not isinstance(f, MultiPoly):
        raise TypeError("f must be a MultiPoly over the frame parameters")
    if f.width != m:
        raise UnknownVariable("expression arity mismatch")
    if len(f.terms) != 2:
        raise NonBinomialInput(f"{len(f.terms)} terms where exactly 2 are required")
    (e1, c1), (e2, c2) = sorted(f.terms.items())
    shift = ev_min(e1, e2)
    d1, d2 = ev_sub(e1, shift), ev_sub(e2, shift)
    if max(ev_support(d2), default=-1) > max(ev_support(d1), default=-1):
        (e1, c1, d1), (e2, c2, d2) = (e2, c2, d2), (e1, c1, d1)
    # the pullback is a ring map: the element's is the sum of the terms'
    p1, p2 = (frame.pullback_of(MultiPoly.monomial(m, e, c)) for e, c in ((e1, c1), (e2, c2)))
    v1, target = spec.value(p1), spec.value(p1 + p2)
    if compare(v1, spec.value(p2)) != 0:
        raise CertificationError("binomial terms must share their value")
    if compare(target, v1) <= 0:
        raise CertificationError("the binomial carries no cancellation under the valuation")
    return PuiseuxProblem(frame, spec, d1, d2, RationalFunction(f), target)


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


def _package_driver(problem: PuiseuxProblem):
    """The valuation driver of a package.

    A quotient without a rational residue whose exponent over the original
    parameters is a rational multiple t of the binomial relation's raises
    ``ResidueFieldExtension``: its residue is a root of order t's
    denominator. Both exponent vectors are read off the step histories.
    """
    driver = valuation_driver(problem.spec)

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


def puiseux_package(frame: Frame, spec, f, budget=DEFAULT_BUDGET) -> PuiseuxPackage:
    """Resolve a two-term polynomial ``f`` over the frame into monomial times unit.

    Certifies the package shape: every step but the last is combinatorial,
    the last creates exactly one dependent parameter whose shifted quotient
    is a value-zero unit. The new parameter takes the primed name of the one
    it replaces. The image then ends through the reduction loop, with the
    package's driver, whose ``_factor_as_unit`` proves the monomial carries
    the element's full value.
    The terminal unit h is not valued: ``framed_blowup`` proved its residue c
    nonzero and beta positive, and ``check_frame_values``, run by
    ``_factor_as_unit``, proves v(h - c) = beta, so v(h) = min(v(h - c), v(c))
    = 0 (a minimum over a key expansion, valid key or not, is strictly
    ultrametric if its base is).
    """
    problem = make_problem(frame, spec, f)
    start = len(frame.history)
    driver = _package_driver(problem)
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


# -- the degree-one limit recipe ------------------------------------------------


@dataclass
class LimitMonomialization:
    frame: Frame
    exponents: tuple
    unit: RationalFunction
    value: object
    new_position: int
    residue: Fraction
    steps: tuple  # the reduction loop's
    coefficient: MultiPoly  # b'_1: the exact linear coefficient of T(P)
    candidate: RationalFunction  # P / b'_1 over the originals, == pullback of t

    def monomial(self) -> MultiPoly:
        return MultiPoly.monomial(self.frame.width, self.exponents)


def monomialize_limit_successor(
    frame: Frame, spec, key: UniPoly, P: UniPoly, budget=DEFAULT_BUDGET
) -> LimitMonomialization:
    """Monomialize a degree-one limit candidate b1*q + b0 (+ tail): its image through the reduction loop.

    Requires truncation argmin {0, 1} with a strict value drop. The new
    parameter t, made by the last loop step that creates one, is certified
    to be P/b'_1 by an exact pullback identity, where the image of P must be
    b'_1*t, linear in t.
    """
    if P.width + 1 != frame.width:
        raise UnknownVariable("candidate arity does not match the frame")
    ok, rep = check_limit_successor(spec, key, P)
    if rep.delta != 1:
        raise DeltaNotOne(f"truncation argmin tops out at {rep.delta}, not 1")
    if not ok:
        raise CertificationError("the candidate does not drop the key value")

    P_orig = RationalFunction(to_multipoly(P))
    cert = monomialize_nondegenerate(
        frame, spec, transport(frame, P_orig), spec.value(P), valuation_driver(spec), budget
    )
    fr = cert.frame
    made = [step for step in cert.steps if step.C]
    if not made:
        raise CertificationError("the candidate's loop created no parameter")
    tpos = made[-1].C[0]
    if not verify_forward(fr):
        raise CertificationError("forward images fail the substitution check")

    # exact re-expansion of the full candidate in the new parameter
    T = transport(fr, P_orig)
    if T.den != 1:
        raise NonPolynomialImage("candidate image is not polynomial over the frame")
    by_t = {}
    for e, c in T.num.terms.items():
        stripped = tuple(0 if i == tpos else x for i, x in enumerate(e))
        by_t.setdefault(e[tpos], {})[stripped] = c
    if set(by_t) != {1}:
        raise NonPolynomialImage("re-expansion in the new parameter is not linear")
    b1p = MultiPoly(fr.width, by_t[1])

    # the new parameter is exactly the normalized candidate P / b'_1
    candidate = P_orig / fr.pullback_of(RationalFunction(b1p))
    if fr.pullback_of(MultiPoly.variable(fr.width, tpos)) != candidate:
        raise CertificationError("the new parameter is not the normalized candidate")
    residue = dict(made[-1].residues)[tpos]
    return LimitMonomialization(fr, cert.exponents, cert.unit, cert.value, tpos, residue, cert.steps, b1p, candidate)
