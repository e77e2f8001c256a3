"""Framed blow-ups and the divisibility machinery built on them.

A Frame is an immutable snapshot of a coordinate chart: parameter names
with their values and the step history.

The history is the one record of what each blow-up did: its center, chart
index, residues and, for each equal-value member, the value-zero unit
old_q/old_j. Every substitution is read off it: ``transport`` pushes an
expression forward through the steps and ``Frame.pullback_of`` undoes them
newest first, both through the one per-step kernel ``_step_image``, and
forward images of the original variables (monomial times units) come from
the same steps. The kernel moves each term's exponents by the step's
relabelling and multiplies by a binomial only a term that carries a power
of an equal-value member; ``Frame.pullback_of`` clears negative powers of
such members first, and only at a step that has them.

Every parameter value is a proved value of the parameter's pullback: the
initial values and each equal-value member's value (its unit minus its
residue) are compared with the spec by ``check_frame_values``, and a strict
member's value beta_q - beta_j is exact for any valuation. Values are
positive, proved once where they come from: ``Frame.initial`` checks the
starting values, ``framed_blowup`` the values a step makes, and the
constructor is a plain record. So a Laurent-free unit whose numerator and
denominator have a nonzero constant term has value exactly zero: the
constant is the one term of least value. Certificates rest on this instead
of pulling units back.

Every operation returns a new Frame; histories are append-only, so traces
can be replayed and cross-checked step by step. The one field set after
construction, ``checked``, remembers how many steps ``check_frame_values``
has passed under which spec, and a blow-up hands it on to the new frame.
``orchestrator._initial_frame`` takes its starting values from the spec,
so its frame starts as checked with no steps; a frame that trace replay or
the state loader builds from outside values starts unchecked, and its
first check compares every initial value with the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import sub
from typing import Callable

from .errors import (
    BudgetExceeded,
    CertificationError,
    EmptyCenter,
    EmptyIdeal,
    ResidueUndefined,
    UnknownVariable,
    ZeroPolynomial,
)
from .exact_algebra import (
    MultiPoly,
    RationalFunction,
    ev_add,
    ev_leq,
    ev_sub,
    ev_unit,
    normal_rational,
)
from .ordered_value import GroupElement, compare, least_value
from .valuation_core import minimalize_monomials, monomial_value


@dataclass(frozen=True)
class CStepData:
    """Driver-supplied data for an equal-value center member.

    residue: the rational residue of the value-0 quotient; beta_new: the
    value of the shifted parameter; new_name defaults to priming.
    """

    residue: Fraction
    beta_new: GroupElement
    new_name: str | None = None


@dataclass(frozen=True)
class TraceStep:
    J: tuple
    j: int
    B: tuple
    C: tuple
    monomial: bool
    residues: tuple  # (position, residue in rational normal form) pairs for C members
    names_after: tuple
    beta_after: tuple
    units: tuple  # (position, old_q/old_j over the originals) pairs for C members


class Frame:
    """A chart: its parameters' names and values, and the step history, its one record of the originals."""

    __slots__ = (
        "names",
        "original_names",
        "init_betas",
        "betas",
        "history",
        "checked",
    )

    def __init__(self, names, original_names, init_betas, betas, history):
        self.names = tuple(names)
        self.original_names = tuple(original_names)
        self.init_betas = tuple(init_betas)
        self.betas = tuple(betas)
        self.history = tuple(history)
        self.checked = None  # (spec, n): the first n steps passed check_frame_values

    # -- construction -----------------------------------------------------------

    @classmethod
    def initial(cls, names, betas) -> "Frame":
        """The chart of the original parameters; the one way in for outside values."""
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        betas = tuple(betas)
        if not all(b.is_positive() for b in betas):
            raise CertificationError("parameter value must stay positive")
        return cls(names, names, betas, betas, ())

    @property
    def width(self) -> int:
        return len(self.names)

    def monomial_value(self, exps) -> GroupElement:
        return monomial_value(self.betas, exps)

    def pullback_of(self, f) -> RationalFunction:
        """Express a polynomial/RF over current parameters in the originals.

        The steps are undone newest first on numerator and denominator.
        Undoing one gives x_j negative powers, and x_j may be an equal-value
        member of an earlier step, so before a step with equal-value members
        both are multiplied by the least monomial that clears their negative
        exponents, when some term has one.
        """
        if not isinstance(f, (MultiPoly, RationalFunction)):
            raise TypeError("pullback of a non-polynomial")
        if f.width != self.width:
            raise UnknownVariable("parameter arity mismatch")
        f = RationalFunction.of(f)
        num, den = f.num, f.den
        for step in reversed(self.history):
            if step.C:
                clear = [0] * self.width
                for e in (*num.terms, *den.terms):
                    for q in step.C:
                        clear[q] = max(clear[q], -e[q])
                if any(clear):
                    num, den = num.shift(clear), den.shift(clear)
            num, den = _step_image(num, step, False), _step_image(den, step, False)
        return RationalFunction(num, den)


def _primed(names, q) -> str:
    base = names[q] + "'"
    name = base
    k = 1
    while name in names:
        k += 1
        name = base + "'" * k
    return name


def framed_blowup(frame: Frame, J, c_provider: Callable | None = None) -> Frame:
    """One blow-up along the parameters at positions J, in the center chart.

    The chart index j minimizes the value over J (ties: smallest position).
    Members whose value drops to zero are the equal-value set C; each needs
    residue data from ``c_provider(frame, q, j, unit)``, given its unit
    old_q/old_j over the originals, and is replaced by its shifted quotient.
    A step with C empty is monomial: it keeps every name and makes no unit.
    """
    m = frame.width
    J = sorted(set(map(int, J)))
    if len(J) < 2:
        raise EmptyCenter("center needs at least two parameters")
    if J[0] < 0 or J[-1] >= m:
        raise UnknownVariable("center position out of range")

    # one difference per member against the chart index: its sign moves the
    # index, splits B from C and proves positive a B member's new value
    j, diffs = J[0], {}
    for q in J[1:]:
        d = frame.betas[q] - frame.betas[j]
        sg = d.sign()
        if sg < 0:
            j, diffs = q, {}
        else:
            diffs[q] = d, sg
    betas = list(frame.betas)
    B, C = [], []
    for q in J:
        if q == j:
            continue
        if q not in diffs:  # taken before the index moved
            d = frame.betas[q] - frame.betas[j]
            diffs[q] = d, d.sign()
        d, sg = diffs[q]
        if sg < 0:
            raise CertificationError("center index does not minimize the value")
        if sg:
            B.append(q)
            betas[q] = d
        else:
            C.append(q)
    names, residues, units = frame.names, (), ()
    if C:  # units, residue data and new names: equal-value members only
        c_data, units = [], []
        for q in C:
            # the value-zero unit old_q/old_j over the originals
            unit = frame.pullback_of(MultiPoly.monomial(m, ev_sub(ev_unit(m, q), ev_unit(m, j))))
            data = c_provider(frame, q, j, unit) if c_provider is not None else None
            if data is None:
                raise ResidueUndefined(
                    "equal-value center member needs residue data from the value tower"
                )
            if data.residue == 0:
                raise CertificationError("zero residue at an equal-value member")
            if not data.beta_new.is_positive():
                raise CertificationError("shifted parameter value must be positive")
            betas[q] = data.beta_new
            c_data.append(data)
            units.append((q, unit))
        # names: stable except C replacements
        names = list(names)
        for q, data in zip(C, c_data):
            names[q] = data.new_name or _primed(frame.names, q)
            if names[q] in frame.names or names.count(names[q]) > 1:
                raise ValueError(f"replacement name {names[q]!r} collides")
        residues = tuple((q, normal_rational(data.residue)) for q, data in zip(C, c_data))

    step = TraceStep(
        J=tuple(J),
        j=j,
        B=tuple(B),
        C=tuple(C),
        monomial=not C,
        residues=residues,
        names_after=tuple(names),
        beta_after=tuple(betas),
        units=tuple(units),
    )
    out = Frame(names, frame.original_names, frame.init_betas, betas, frame.history + (step,))
    out.checked = frame.checked  # the history only grows, so checked steps stay checked
    return out


# -- substitution ----------------------------------------------------------------


def forward_image(frame: Frame, k: int) -> tuple:
    """Original variable k as (exponents over current positions, units).

    Read off the history: before each step, the exponent of every
    equal-value member moves into that step's unit for the member, as
    (unit pullback, power) pairs in step order.
    """
    e = tuple(1 if i == k else 0 for i in range(frame.width))
    units = []
    for step in frame.history:
        units.extend((pullback, e[q]) for q, pullback in step.units if e[q])
        e = _transform_exponents(e, step)
    return e, tuple(units)


def verify_forward(frame: Frame) -> bool:
    """Check every original variable is its forward image: monomial times units."""
    n = len(frame.original_names)
    for k in range(n):
        exps, units = forward_image(frame, k)
        acc = frame.pullback_of(MultiPoly.monomial(n, exps))
        for unit, p in units:
            acc = acc * unit**p
        if acc != RationalFunction(MultiPoly.variable(n, k)):
            return False
    return True


def transport(frame: Frame, expr, from_step: int = 0) -> RationalFunction:
    """Rewrite an expression over step-`from_step` parameters into current ones.

    Each step substitutes old_q -> new_q*new_j (strict members) and
    old_q -> (new_q + residue)*new_j (equal-value members). The numerator
    and denominator are made free of negative exponents once and pushed
    through every step as polynomials; one rational function is built at
    the end.
    """
    m = frame.width
    cur = RationalFunction.of(expr, m)
    if cur.width != m:
        raise UnknownVariable("parameter arity mismatch")
    num, den = cur.laurent_free()
    for step in frame.history[from_step:]:
        num, den = _step_image(num, step, True), _step_image(den, step, True)
    return RationalFunction(num, den)


def _step_image(p: MultiPoly, step: TraceStep, forward: bool) -> MultiPoly:
    """One step's substitution in a polynomial, forward (old parameters to new) or back.

    Every term's exponents move by ``_transform_exponents`` (sign -1 back).
    A term with no power of an equal-value member is only relabelled; the
    power k >= 0 of each equal-value member q becomes (x_q + r)^k forward or
    (x_q - r*x_j)^k back, r its residue, built once per distinct power tuple.
    """
    m, j, C = p.width, step.j, step.C
    sign = 1 if forward else -1
    factors, terms = {}, {}
    for e, c in p.terms.items():
        base = _transform_exponents(e, step, sign)
        powers = tuple(map(e.__getitem__, C))
        if not any(powers):
            old = terms.get(base)
            terms[base] = c if old is None else old + c
            continue
        factor = factors.get(powers)
        if factor is None:
            for (q, r), k in zip(step.residues, powers):
                if k < 0:
                    raise ValueError("negative power of an equal-value member")
                # binomial theorem: the terms x_q^i * (r, or -r*x_j back)^(k-i)
                s, dj = (r, 0) if forward else (-r, 1)
                power = {}
                for i in range(k + 1):
                    x = [0] * m
                    x[q], x[j] = i, dj * (k - i)
                    power[tuple(x)] = comb(k, i) * s ** (k - i)
                factor = MultiPoly(m, power) if factor is None else factor * MultiPoly(m, power)
            factors[powers] = factor
        for fe, fc in factor.terms.items():
            t = ev_add(base, fe)
            old = terms.get(t)
            terms[t] = c * fc if old is None else old + c * fc
    return MultiPoly(m, terms)


# -- tau and the divisibility loop -------------------------------------------------
#
# ``divide_monomials`` blows up the center ``_center_from_tau`` picks from the
# reduced pair until the smaller reduced vector is zero, moving both exponent
# vectors through each step by ``_transform_exponents``; ``principalize``
# divides its least-tau incomparable pair until one generator is left. The
# exponent vectors are plain int tuples, handled whole by ``map``, and the
# steps are monomial ones (no unit, residue or new name) unless two values tie.
# Each call checks its own work exactly: tau strictly decreases, the lower
# value divides, and both monomial values are the same before and after.


def tau(alpha, gamma):
    """Reduced pair sizes: strip the common part, order by total size.

    Returns ((a, b), alpha_red, gamma_red, delta, swapped) with a <= b.
    """
    delta = tuple(map(min, alpha, gamma))
    at = tuple(map(sub, alpha, delta))
    gt = tuple(map(sub, gamma, delta))
    a, b = sum(at), sum(gt)
    if a > b:
        return (b, a), gt, at, delta, True
    return (a, b), at, gt, delta, False


def _transform_exponents(e, step: TraceStep, sign=1):
    """Exponents after the step; with sign -1, before it. Equal-value members drop out."""
    out = list(e)
    j = step.j
    out[j] += sign * (sum(map(e.__getitem__, step.J)) - e[j])
    for q in step.C:
        out[q] = 0
    return tuple(out)


def transform_exponents(e, steps) -> tuple:
    for step in steps:
        e = _transform_exponents(e, step)
    return tuple(e)


def _center_from_tau(at, gt):
    """supp(at) plus a minimal greedy subset of supp(gt) covering |at|."""
    need = sum(at)
    J = {q for q, v in enumerate(at) if v}
    # the largest entries of gt first, ties by position, until they cover |at|
    for v, q in sorted((-v, q) for q, v in enumerate(gt) if v):
        if need <= 0:
            break
        J.add(q)
        need += v
    return sorted(J)


@dataclass
class DivideResult:
    frame: Frame
    alpha: tuple
    gamma: tuple
    steps: tuple
    divider: str  # "alpha" | "gamma" | "equal"


def divide_monomials(frame: Frame, alpha, gamma, c_provider=None) -> DivideResult:
    """Blow up until one exponent vector divides the other.

    The tau character strictly decreases at each step; on exit the
    divisibility direction is cross-checked against the value inequality.
    """
    alpha = tuple(map(int, alpha))
    gamma = tuple(map(int, gamma))
    if len(alpha) != frame.width or len(gamma) != frame.width:
        raise UnknownVariable("exponent arity mismatch")
    value_alpha = frame.monomial_value(alpha)
    value_gamma = frame.monomial_value(gamma)
    start = len(frame.history)
    prev_tau = None
    while True:
        (a, b), at, gt, _, _ = tau(alpha, gamma)
        if a == 0:
            break
        if prev_tau is not None and not (a, b) < prev_tau:
            raise CertificationError("tau character failed to decrease")
        prev_tau = (a, b)
        J = _center_from_tau(at, gt)
        frame = framed_blowup(frame, J, c_provider)
        step = frame.history[-1]
        alpha = _transform_exponents(alpha, step)
        gamma = _transform_exponents(gamma, step)

    steps = frame.history[start:]
    # the lower-value monomial divides; equality gives mutual divisibility
    c = compare(value_alpha, value_gamma)
    if c < 0:
        divider, divides = "alpha", ev_leq(alpha, gamma)
    elif c > 0:
        divider, divides = "gamma", ev_leq(gamma, alpha)
    else:
        if alpha != gamma:
            raise CertificationError("equal values must collapse to one monomial")
        divider, divides = "equal", True
    if not divides:
        raise CertificationError("division direction contradicts the values")
    if frame.monomial_value(alpha) != value_alpha or frame.monomial_value(gamma) != value_gamma:
        raise CertificationError("a blow-up changed the value of a monomial")
    return DivideResult(frame, alpha, gamma, steps, divider)


@dataclass
class PrincipalizeResult:
    frame: Frame
    generators: tuple
    index: int  # position of the principal generator in `generators`
    steps: tuple


def principalize(frame: Frame, N, c_provider=None) -> PrincipalizeResult:
    """Blow up until the monomial ideal is generated by one element.

    Pair selection: among componentwise-incomparable pairs, the one with
    the smallest tau character (ties by index).
    """
    gens = [tuple(map(int, e)) for e in N]
    if not gens:
        raise EmptyIdeal("no generators")
    gens = minimalize_monomials(gens)
    start = len(frame.history)
    while True:
        pairs = []
        for i in range(len(gens)):
            for k in range(i + 1, len(gens)):
                if not ev_leq(gens[i], gens[k]) and not ev_leq(gens[k], gens[i]):
                    t = tau(gens[i], gens[k])[0]
                    pairs.append((t, i, k))
        if not pairs:
            break
        _, i, k = min(pairs)
        result = divide_monomials(frame, gens[i], gens[k], c_provider)
        frame = result.frame
        gens = [transform_exponents(e, result.steps) for e in gens]
        gens = minimalize_monomials(gens)

    # every pair is comparable now, so minimalization has left the one least generator
    if len(gens) != 1:
        raise CertificationError("principal generator fails to divide")
    return PrincipalizeResult(frame, tuple(gens), 0, frame.history[start:])


# -- the reduction loop ------------------------------------------------------------

DEFAULT_BUDGET = 10_000  # blow-up steps, for callers outside a run


@dataclass
class MonomializeCertificate:
    frame: Frame
    exponents: tuple  # the monomial w^eps in final parameters
    unit: RationalFunction  # explicit unit over final parameters
    value: GroupElement  # common value of f and the monomial
    steps: tuple


def monomialize_nondegenerate(
    frame: Frame, spec, f, value, c_provider=None, budget=DEFAULT_BUDGET
) -> MonomializeCertificate:
    """The one reduction loop: a chart element as monomial times certified unit.

    ``f`` is a polynomial, or a rational function whose denominator
    ``_factor_as_unit`` checks, and ``value`` the spec value of its pullback.
    A round ends the loop when the numerator's componentwise least exponents
    are a term. Else it principalizes the whole support if the least monomial
    value (read off the frame's values, proved positive where made) is
    ``value``, and otherwise the least-value terms, raising BudgetExceeded
    with the ``frame`` reached once it has ``budget`` steps. Values are
    positive, so two terms of one value are incomparable: a round that makes
    no step raises. The image is pushed through each round's steps.
    """
    T = RationalFunction.of(f)
    if T.width != frame.width:
        raise UnknownVariable("expression arity mismatch")
    if T.is_zero():
        raise ZeroPolynomial("reduction of the zero polynomial")
    start = len(frame.history)
    while True:
        terms = T.num.terms
        if tuple(map(min, zip(*terms))) in terms:
            break
        low = least_value(frame.betas, terms)
        if compare(low, value) == 0:
            N = terms
        elif len(frame.history) >= budget:
            raise BudgetExceeded(f"budget of {budget} blow-up steps exhausted", frame=frame)
        else:
            N = [e for e in terms if compare(frame.monomial_value(e), low) == 0]
        res = principalize(frame, N, c_provider)
        if not res.steps:
            raise CertificationError("monomial value differs from the element value")
        T = transport(res.frame, T, from_step=len(frame.history))
        frame = res.frame
    eps, unit, value = _factor_as_unit(frame, spec, T, value)
    return MonomializeCertificate(frame, eps, unit, value, frame.history[start:])


def check_frame_values(frame: Frame, spec) -> None:
    """Compare every parameter value the frame took from outside with the spec.

    Those are the initial values, spec values of the original variables,
    and each equal-value member's value, the spec value of its unit minus
    its residue. Strict members' values are differences of these. Steps
    already checked under the same spec are not checked again.
    """
    done_spec, start = frame.checked or (None, 0)
    if done_spec is not spec:
        start = 0
        n = len(frame.original_names)
        for k, beta in enumerate(frame.init_betas):
            if compare(spec.value(MultiPoly.variable(n, k)), beta) != 0:
                raise CertificationError("initial parameter value differs from the valuation")
    for step in frame.history[start:]:
        residues = dict(step.residues)
        for q, unit in step.units:
            if compare(spec.value(unit - residues[q]), step.beta_after[q]) != 0:
                raise CertificationError("equal-value parameter value differs from the valuation")
    frame.checked = (spec, len(frame.history))


def _factor_as_unit(fr: Frame, spec, T: RationalFunction, target):
    """Split T into monomial times certified unit; exact value checks.

    w^eps leaves by a shift of the numerator: T's denominator is already in
    normal form, so the shifted numerator over it is T / w^eps in normal form.
    The unit's value is zero without pulling it back: once the frame's
    values are checked against the spec, each is the value of its
    parameter's pullback, and every term of the unit's numerator and
    denominator other than the nonzero constant has positive value, so the
    constant alone attains the least value, zero. The terms are tested by
    one ``least_value`` pass: the least is positive exactly when each is.
    """
    check_frame_values(fr, spec)
    eps = tuple(map(min, zip(*T.num.terms)))
    unit = RationalFunction(T.num.shift(tuple(-a for a in eps)), T.den)
    for part in (unit.num, unit.den):
        if not part.is_laurent_free():
            raise CertificationError("unit with negative parameter exponents")
        if part.constant_value() == 0:
            raise CertificationError("unit without constant term")
        rest = [e for e in part.terms if any(e)]
        if rest and not least_value(fr.betas, rest).is_positive():
            raise CertificationError("unit term of non-positive value")
    value = fr.monomial_value(eps)
    if compare(value, target) != 0:
        raise CertificationError("monomial value differs from the element value")
    return eps, unit, value
