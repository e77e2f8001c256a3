"""Puiseux packages: blow-up resolution of decorated binomials.

A package takes a two-term element c1*w^e1*u1 + c2*w^e2*u2 whose terms share
their value while the sum cancels to something strictly higher, and blows up
until the element factors as monomial times certified unit. All steps but the
last are combinatorial; the last one creates the new dependent parameter,
whose shifted quotient carries the residue of the binomial relation.

Residues are exact rationals. Candidates are generated from the relation
(powers of the initial ratio) or from coefficient comparisons, and every
candidate is certified by an exact value computation before use; inputs whose
residue would need a proper field extension are rejected with
``ResidueFieldExtension`` or ``TranscendentalResidue``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blowup_engine import (
    CStepData,
    Frame,
    _factor_as_unit,
    divide_monomials,
    monomialize_nondegenerate,
    tau,
    transform_exponents,
    transport,
    verify_forward,
)
from .errors import (
    CertificationError,
    DeltaNotOne,
    NonBinomialInput,
    NonMonicKey,
    NonUnitFactor,
    RecursionBudgetExceeded,
    ResidueFieldExtension,
    TranscendentalResidue,
    UnknownVariable,
)
from .exact_algebra import (
    MultiPoly,
    RationalFunction,
    UniPoly,
    ev_add,
    ev_gcd,
    ev_leq,
    ev_min,
    ev_scale,
    ev_sub,
    ev_support,
    q_expansion,
    to_multipoly,
    to_unipoly,
)
from .ordered_value import compare, is_sentinel
from .successors import check_limit_successor


# -- exact rational powers ---------------------------------------------------


def _integer_root(n: int, k: int):
    """Exact k-th root of n >= 0, or None."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k == n else None


def _rational_power(base: Fraction, t: Fraction):
    """base**t when the result is rational, else None."""
    base = Fraction(base)
    if base == 0:
        return Fraction(0) if t > 0 else None
    p, q = t.numerator, t.denominator
    if p < 0:
        base = 1 / base
        p = -p
    if q == 1:
        return base**p
    if base < 0 and q % 2 == 0:
        return None
    ra = _integer_root(abs(base.numerator), q)
    rb = _integer_root(base.denominator, q)
    if ra is None or rb is None:
        return None
    root = Fraction(-ra if base < 0 else ra, rb)
    return root**p


def _parallel_ratio(m, rel):
    """Fraction t with m == t*rel componentwise, else None."""
    t = None
    for a, b in zip(m, rel):
        if b == 0:
            if a != 0:
                return None
            continue
        s = Fraction(a, b)
        if t is None:
            t = s
        elif s != t:
            return None
    return t if t is not None else Fraction(0)


# -- residues of value-zero elements -----------------------------------------


def _as_multipoly(p):
    if isinstance(p, MultiPoly):
        return p
    if isinstance(p, RationalFunction):
        return p.num if p.den == 1 else None
    if isinstance(p, UniPoly):
        if all(c.is_polynomial() for c in p.coeffs):
            return to_multipoly(p)
    return None


def _residue_candidates(spec, A, B) -> set:
    """Rational candidates for the residue of A/B, every level of the tower."""
    out: set = set()
    Am, Bm = _as_multipoly(A), _as_multipoly(B)
    if Am is None or Bm is None:
        return out
    for e in set(Am.terms) & set(Bm.terms):
        out.add(Am.terms[e] / Bm.terms[e])
    kind = getattr(spec, "kind", "")
    if kind in ("composite", "augmented") and Am.is_laurent_free() and Bm.is_laurent_free():
        inner = spec.inner if kind == "composite" else spec.base
        pa = q_expansion(to_unipoly(Am), spec.key)
        pb = q_expansion(to_unipoly(Bm), spec.key)
        for j in range(min(len(pa), len(pb))):
            if not pa[j].is_zero() and not pb[j].is_zero():
                out |= _residue_candidates(inner, pa[j], pb[j])
    return out


def residue_of_unit(spec, h) -> Fraction:
    """Exact rational residue of a value-zero element, value-certified.

    The residue c satisfies value(h - c) > 0; candidates come from shared
    monomials of numerator and denominator at every key-expansion level.
    """
    if isinstance(h, MultiPoly):
        h = RationalFunction(h)
    zero = spec.value(1)
    v = spec.value(h)
    if is_sentinel(v) or compare(v, zero) != 0:
        raise NonUnitFactor("residue of an element with nonzero value")
    num, den = h.num, h.den
    # a folded Laurent numerator hides the shared supports; unfold it
    lift = None
    for e in num.terms:
        lift = e if lift is None else ev_min(lift, e)
    lift = tuple(max(-t, 0) for t in lift)
    if any(lift):
        num = num.shift(lift)
        den = den.shift(lift)
    vden = spec.value(RationalFunction(den))
    for c in sorted(set(_residue_candidates(spec, num, den))):
        if c == 0:
            continue
        shifted = num - den * c
        if shifted.is_zero():
            return c
        if compare(spec.value(RationalFunction(shifted)), vden) > 0:
            return c
    raise TranscendentalResidue("no rational residue matches the element")


def valuation_driver(spec):
    """Equal-value step data taken straight from the valuation's residues."""

    def driver(fr, q, j):
        h = fr.pullbacks[q] / fr.pullbacks[j]
        c = residue_of_unit(spec, h)
        v = spec.value(h - c)
        if is_sentinel(v) or not v.is_positive():
            raise CertificationError("shifted quotient value is not positive")
        return CStepData(Fraction(c), v, None)

    return driver


# -- problems -----------------------------------------------------------------


@dataclass
class PuiseuxProblem:
    frame: Frame
    spec: object
    terms: tuple  # ((c1, e1, u1), (c2, e2, u2)), distinguished side first
    shift: tuple  # common exponent part of the two terms
    delta: tuple  # reduced exponents, distinguished side
    gamma: tuple  # reduced exponents, other side
    rho: Fraction  # effective initial ratio: residue of w^(delta-gamma)
    rel0: tuple  # delta - gamma in original coordinates
    element: RationalFunction  # the exact element over frame parameters
    term_value: object
    target_value: object
    new_name: str | None = None


def make_problem(frame: Frame, spec, f=None, parts=None, position=None, new_name=None) -> PuiseuxProblem:
    """Validate and orient a decorated binomial over the frame.

    Exactly one of ``f`` (a plain two-term polynomial) or ``parts``
    (two (coefficient, exponents, unit) triples, units over frame
    parameters or None) must be given.
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
        c = Fraction(c)
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
    v1 = spec.value(frame.pullback_of(term_rfs[0]))
    v2 = spec.value(frame.pullback_of(term_rfs[1]))
    if compare(v1, v2) != 0:
        raise CertificationError("binomial terms must share their value")
    target = spec.value(frame.pullback_of(element))
    if compare(target, v1) <= 0:
        raise CertificationError("the binomial carries no cancellation under the valuation")

    r1 = residue_of_unit(spec, frame.pullback_of(u1)) if u1 is not None else Fraction(1)
    r2 = residue_of_unit(spec, frame.pullback_of(u2)) if u2 is not None else Fraction(1)
    rho = -(c2 * r2) / (c1 * r1)
    rel = ev_sub(d1, d2)
    n = len(frame.original_names)
    rel0 = tuple(sum(rel[i] * frame.matrix_inv[i][k] for i in range(m)) for k in range(n))
    return PuiseuxProblem(
        frame,
        spec,
        ((c1, e1, u1), (c2, e2, u2)),
        shift,
        d1,
        d2,
        rho,
        rel0,
        element,
        v1,
        target,
        new_name,
    )


def _package_driver(problem: PuiseuxProblem):
    """Residue data for the terminal equal-value step of a package.

    The quotient's pullback exponent must be a rational multiple t of the
    binomial relation; the residue is then rho**t, certified by an exact
    value comparison before it is accepted.
    """
    spec = problem.spec

    def driver(fr: Frame, q: int, j: int):
        h = fr.pullbacks[q] / fr.pullbacks[j]
        m = ev_sub(fr.matrix_inv[q], fr.matrix_inv[j])
        t = _parallel_ratio(m, problem.rel0)
        root_missing = False
        cands = []
        if t is not None:
            c = _rational_power(problem.rho, t)
            if c is None:
                root_missing = True
            elif c != 0:
                cands.append(c)
        for c in sorted(_residue_candidates(spec, h.num, h.den)):
            if c and c not in cands:
                cands.append(c)
        for c in cands:
            diff = h - c
            if diff.is_zero():
                continue
            v = spec.value(diff)
            if not is_sentinel(v) and v.is_positive():
                name = None
                if problem.new_name and problem.new_name not in fr.names:
                    name = problem.new_name
                return CStepData(Fraction(c), v, name)
        if t is None:
            raise TranscendentalResidue(
                "equal-value quotient lies outside the binomial relation"
            )
        if root_missing:
            raise ResidueFieldExtension(
                f"the residue needs an exact rational power {problem.rho}**{t}"
            )
        raise CertificationError("no candidate residue certifies at the equal-value step")

    return driver


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
    zbar: RationalFunction  # value-zero unit: new parameter + residue
    steps: tuple
    reports: tuple  # one dict per step: tau, diff, gcd, J, j, monomial

    def monomial(self) -> MultiPoly:
        return MultiPoly.monomial(self.frame.width, self.exponents)


def puiseux_package(frame: Frame, spec, f=None, parts=None, position=None, new_name=None) -> PuiseuxPackage:
    """Resolve a decorated binomial into monomial times unit.

    Certifies the package shape: every step but the last is combinatorial,
    the last creates exactly one dependent parameter whose shifted quotient
    is a value-zero unit, and the element's monomial carries its full value.
    """
    problem = make_problem(frame, spec, f=f, parts=parts, position=position, new_name=new_name)
    start = len(frame.history)
    result = divide_monomials(frame, problem.delta, problem.gamma, _package_driver(problem))
    if result.divider != "equal":
        raise CertificationError("the package did not collapse the binomial")
    fr = result.frame
    steps = tuple(result.steps)
    for s in steps[:-1]:
        if not s.monomial:
            raise CertificationError("a non-terminal package step created a parameter")
    last = steps[-1]
    if last.monomial or len(last.C) != 1:
        raise CertificationError("the terminal step must create exactly one parameter")
    new_position = last.C[0]
    residue = dict(last.residues)[new_position]

    T = transport(fr, problem.element, from_step=start)
    eps, unit, value = _factor_as_unit(fr, spec, T, problem.target_value)

    # the terminal unit is the certificate that the relation was consumed
    step_index = start + len(steps) - 1
    record = next(r for r in fr.unit_log.values() if r.step == step_index)
    zero = spec.value(1)
    if compare(spec.value(record.pullback), zero) != 0:
        raise CertificationError("terminal unit value is not zero")
    zbar = RationalFunction(MultiPoly.variable(fr.width, new_position)) + residue
    if not verify_forward(fr):
        raise CertificationError("forward images fail the substitution check")

    reports = []
    a_cur, g_cur = problem.delta, problem.gamma
    for s in steps:
        d = ev_sub(g_cur, a_cur)
        reports.append(
            {
                "tau": tau(a_cur, g_cur)[0],
                "diff": d,
                "gcd": ev_gcd(d),
                "J": s.J,
                "j": s.j,
                "monomial": s.monomial,
            }
        )
        a_cur = transform_exponents(a_cur, (s,))
        g_cur = transform_exponents(g_cur, (s,))

    return PuiseuxPackage(
        problem,
        fr,
        eps,
        unit,
        value,
        new_position,
        fr.names[new_position],
        residue,
        zbar,
        steps,
        tuple(reports),
    )


# -- successors over frames --------------------------------------------------


def prepare_successor(frame: Frame, spec, successor: UniPoly, key: UniPoly, key_exps, key_unit=None, position=None):
    """Binomial parts over the frame for a successor q^alpha - f.

    key_exps/key_unit give the frame factorization of the current key q.
    A multi-term f is monomialized in place, extending the frame; the key
    exponents are pushed through those steps. Returns (frame, parts, alpha).
    """
    parts_key = q_expansion(successor, key)
    if len(parts_key) < 2 or parts_key[-1] != UniPoly.one(successor.width):
        raise NonMonicKey("successor must be monic in the key")
    for p in parts_key[1:-1]:
        if not p.is_zero():
            raise NonBinomialInput("successor has middle key-expansion terms")
    p0 = parts_key[0]
    if p0.is_zero():
        raise NonBinomialInput("successor is a pure key power")
    alpha = len(parts_key) - 1

    key_exps = tuple(int(x) for x in key_exps)
    if not all(c.is_polynomial() for c in p0.coeffs):
        raise RecursionBudgetExceeded("successor coefficient is not polynomial")
    start = len(frame.history)
    img = transport(frame, RationalFunction(to_multipoly(p0)))
    if img.den != 1:
        raise RecursionBudgetExceeded("coefficient image is not polynomial over the frame")
    poly = img.num
    if poly.is_single_term():
        e0, c0 = poly.single_term()
        part0 = (c0, e0, None)
    else:
        if not poly.is_laurent_free():
            raise RecursionBudgetExceeded("coefficient image is not free of denominators")
        cert = monomialize_nondegenerate(frame, spec, poly, valuation_driver(spec))
        frame = cert.frame
        key_exps = transform_exponents(key_exps, cert.steps)
        if key_unit is not None:
            key_unit = transport(frame, key_unit, from_step=start)
        part0 = (Fraction(1), cert.exponents, cert.unit)
    u1 = key_unit**alpha if key_unit is not None else None
    parts = ((Fraction(1), ev_scale(key_exps, alpha), u1), part0)
    return frame, parts, alpha


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


def monomialize_limit_successor(frame: Frame, spec, key: UniPoly, P: UniPoly, new_name=None) -> LimitMonomialization:
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
        if not all(c.is_polynomial() for c in bj.coeffs):
            raise RecursionBudgetExceeded("expansion coefficient is not polynomial")
        start = len(fr.history)
        img = transport(fr, RationalFunction(to_multipoly(bj)))
        if img.den != 1:
            raise RecursionBudgetExceeded("coefficient image is not polynomial over the frame")
        poly = img.num
        if poly.is_single_term():
            e, c = poly.single_term()
            rec[idx] = [e, None, c]
            continue
        if not poly.is_laurent_free():
            raise RecursionBudgetExceeded("coefficient image is not free of denominators")
        cert = monomialize_nondegenerate(fr, spec, poly, valuation_driver(spec))
        fr = cert.frame
        for other in rec.values():
            other[0] = transform_exponents(other[0], cert.steps)
            if other[1] is not None:
                other[1] = transport(fr, other[1], from_step=start)
        rec[idx] = [cert.exponents, cert.unit, Fraction(1)]
    if 0 not in rec or 1 not in rec:
        raise CertificationError("limit candidate lacks its first two expansion terms")

    k_img = transport(fr, RationalFunction(to_multipoly(key)))
    if k_img.den != 1 or not k_img.num.is_single_term():
        raise RecursionBudgetExceeded("key image over the frame is not a monomial")
    k_exps, k_coeff = k_img.num.single_term()

    # every term beyond the first two must sit in their monomial ideal
    lead = [ev_add(rec[i][0], ev_scale(k_exps, i)) for i in (0, 1)]
    for i in sorted(rec):
        if i < 2:
            continue
        e = ev_add(rec[i][0], ev_scale(k_exps, i))
        if not any(ev_leq(a, e) for a in lead):
            raise RecursionBudgetExceeded("truncation tail escapes the monomial ideal")

    # enforce b1 | b0 so the terminal step sees a bare relation
    e0, u0, c0 = rec[0]
    e1, u1, c1 = rec[1]
    if not ev_leq(e1, e0):
        start = len(fr.history)
        dres = divide_monomials(fr, e1, e0, valuation_driver(spec))
        fr = dres.frame
        e1, e0 = dres.alpha, dres.gamma
        k_exps = transform_exponents(k_exps, dres.steps)
        if u0 is not None:
            u0 = transport(fr, u0, from_step=start)
        if u1 is not None:
            u1 = transport(fr, u1, from_step=start)

    position = None
    if len(ev_support(k_exps)) == 1:
        position = ev_support(k_exps)[0]
    parts = ((c1 * k_coeff, ev_add(e1, k_exps), u1), (c0, e0, u0))
    pkg = puiseux_package(fr, spec, parts=parts, position=position, new_name=new_name)

    # exact re-expansion of the full candidate in the new parameter
    T = transport(pkg.frame, RationalFunction(to_multipoly(P)))
    if T.den != 1:
        raise RecursionBudgetExceeded("candidate image is not polynomial over the frame")
    tpos = pkg.new_position
    by_t = {}
    for e, c in T.num.terms.items():
        stripped = tuple(0 if i == tpos else x for i, x in enumerate(e))
        by_t.setdefault(e[tpos], {})[stripped] = c
    if set(by_t) != {1}:
        raise RecursionBudgetExceeded("re-expansion in the new parameter is not linear")
    b1p = MultiPoly(pkg.frame.width, by_t[1])

    # the new parameter is exactly the normalized candidate P / b'_1
    P_orig = RationalFunction(to_multipoly(P))
    if pkg.frame.pullbacks[tpos] != P_orig / pkg.frame.pullback_of(RationalFunction(b1p)):
        raise CertificationError("the new parameter is not the normalized candidate")

    target = spec.value(P_orig)
    eps, unit, value = _factor_as_unit(pkg.frame, spec, T, target)
    return LimitMonomialization(pkg.frame, eps, unit, value, pkg, b1p, P_orig / pkg.frame.pullback_of(RationalFunction(b1p)))
