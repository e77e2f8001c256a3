"""Framed blow-ups and the divisibility machinery built on them.

A Frame is an immutable snapshot of a coordinate chart: parameter names
with their values, the protected positions, forward images of the original
variables (monomial times logged units), exact pullbacks of every current
parameter to the original variables, and the running exponent matrix with
its inverse.

Every operation returns a new Frame; histories are append-only, so traces
can be replayed and cross-checked step by step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    CertificationError,
    DegenerateInput,
    EmptyCenter,
    EmptyIdeal,
    ProtectedCenter,
    ResidueUndefined,
    UnknownVariable,
)
from .exact_algebra import (
    MultiPoly,
    RationalFunction,
    ev_leq,
    ev_min,
    ev_sub,
)
from .ordered_value import GroupElement, compare
from .valuation_core import Monomial, is_non_degenerate, minimalize_monomials


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
    residues: tuple  # (position, Fraction) pairs for C members
    names_after: tuple
    beta_after: tuple


@dataclass(frozen=True)
class ForwardImage:
    exps: tuple  # exponents over current positions
    units: tuple  # (unit name, power) pairs, canonical order


@dataclass(frozen=True)
class UnitRecord:
    name: str
    step: int  # history index that created it
    position: int
    residue: Fraction
    pullback: RationalFunction  # over the original variables; value 0


def _counter_items(c: Counter) -> tuple:
    return tuple(sorted((k, v) for k, v in c.items() if v))


class Frame:
    __slots__ = (
        "names",
        "original_names",
        "init_betas",
        "betas",
        "protected",
        "history",
        "forward",
        "pullbacks",
        "unit_log",
        "matrix",
        "matrix_inv",
    )

    def __init__(
        self,
        names,
        original_names,
        init_betas,
        betas,
        protected,
        history,
        forward,
        pullbacks,
        unit_log,
        matrix,
        matrix_inv,
    ):
        self.names = tuple(names)
        self.original_names = tuple(original_names)
        self.init_betas = tuple(init_betas)
        self.betas = tuple(betas)
        self.protected = frozenset(protected)
        self.history = tuple(history)
        self.forward = dict(forward)
        self.pullbacks = tuple(pullbacks)
        self.unit_log = dict(unit_log)
        self.matrix = matrix
        self.matrix_inv = matrix_inv
        for b in self.betas:
            if not b.is_positive():
                raise CertificationError("parameter value must stay positive")

    # -- construction -----------------------------------------------------------

    @classmethod
    def initial(cls, names, betas, protected=()) -> "Frame":
        names = tuple(names)
        m = len(names)
        if len(set(names)) != m:
            raise ValueError("duplicate parameter names")
        prot = set()
        for p in protected:
            prot.add(p if isinstance(p, int) else names.index(p))
        ident = tuple(tuple(1 if i == k else 0 for k in range(m)) for i in range(m))
        forward = {n: ForwardImage(ident[k], ()) for k, n in enumerate(names)}
        pullbacks = tuple(RationalFunction(MultiPoly.variable(m, k)) for k in range(m))
        betas = tuple(betas)
        return cls(names, names, betas, betas, prot, (), forward, pullbacks, {}, ident, ident)

    @property
    def width(self) -> int:
        return len(self.names)

    def position(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(f"no parameter named {name!r}") from None

    def monomial_value(self, exps) -> GroupElement:
        out = None
        for e, b in zip(exps, self.betas):
            if e:
                t = b * e
                out = t if out is None else out + t
        return out if out is not None else self.betas[0] * 0

    def pullback_of(self, f) -> RationalFunction:
        """Express a polynomial/RF over current parameters in the originals."""
        if not isinstance(f, (MultiPoly, RationalFunction)):
            raise TypeError("pullback of a non-polynomial")
        if f.width != self.width:
            raise UnknownVariable("parameter arity mismatch")
        if isinstance(f, RationalFunction):
            return _rf_substitute(f, self.pullbacks)
        return _mp_substitute(f, self.pullbacks)


def _unique_unit_name(unit_log, base: str) -> str:
    name = f"{base}_bar"
    k = 1
    while name in unit_log:
        k += 1
        name = f"{base}_bar{k}"
    return name


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
    driver-supplied residue data and is replaced by its shifted quotient.
    """
    m = frame.width
    J = sorted(set(int(q) for q in J))
    if len(J) < 2:
        raise EmptyCenter("center needs at least two parameters")
    if any(q < 0 or q >= m for q in J):
        raise UnknownVariable("center position out of range")
    hit = [q for q in J if q in frame.protected]
    if hit:
        raise ProtectedCenter(f"center touches protected positions {hit}")

    j = J[0]
    for q in J[1:]:
        if compare(frame.betas[q], frame.betas[j]) < 0:
            j = q
    beta_j = frame.betas[j]

    B, C = [], []
    for q in J:
        if q == j:
            continue
        c = compare(frame.betas[q], beta_j)
        assert c >= 0, "center index does not minimize the value"
        (C if c == 0 else B).append(q)

    c_data = {}
    for q in C:
        data = c_provider(frame, q, j) if c_provider is not None else None
        if data is None:
            raise ResidueUndefined(
                "equal-value center member needs residue data from the value tower"
            )
        if data.residue == 0:
            raise CertificationError("zero residue at an equal-value member")
        if not data.beta_new.is_positive():
            raise CertificationError("shifted parameter value must be positive")
        c_data[q] = data

    # values
    betas = list(frame.betas)
    for q in B:
        betas[q] = betas[q] - beta_j
    for q in C:
        betas[q] = c_data[q].beta_new

    # names: stable except C replacements
    names = list(frame.names)
    for q in C:
        names[q] = c_data[q].new_name or _primed(frame.names, q)
        if names[q] in frame.names or list(names).count(names[q]) > 1:
            raise ValueError(f"replacement name {names[q]!r} collides")

    # unit log entries for C members
    unit_log = dict(frame.unit_log)
    residues = []
    unit_names = {}
    for q in C:
        uname = _unique_unit_name(unit_log, frame.names[q])
        shifted_pullback = frame.pullbacks[q] / frame.pullbacks[j] - c_data[q].residue
        unit_log[uname] = UnitRecord(
            uname,
            len(frame.history),
            q,
            c_data[q].residue,
            shifted_pullback + c_data[q].residue,
        )
        unit_names[q] = uname
        residues.append((q, c_data[q].residue))

    # step matrix: column j accumulates the center
    def g_apply(e):
        out = list(e)
        out[j] = sum(e[q] for q in J)
        return out

    matrix = tuple(tuple(g_apply(row)) for row in frame.matrix)

    # forward images: transform exponents, move C exponents into units
    forward = {}
    for name, img in frame.forward.items():
        e = g_apply(img.exps)
        units = Counter(dict(img.units))
        for q in C:
            if e[q]:
                units[unit_names[q]] += e[q]
                e[q] = 0
        forward[name] = ForwardImage(tuple(e), _counter_items(units))

    # pullbacks: new_q = old_q/old_j (B), shifted quotient (C), unchanged else
    pullbacks = list(frame.pullbacks)
    for q in B:
        pullbacks[q] = frame.pullbacks[q] / frame.pullbacks[j]
    for q in C:
        pullbacks[q] = frame.pullbacks[q] / frame.pullbacks[j] - c_data[q].residue

    step = TraceStep(
        J=tuple(J),
        j=j,
        B=tuple(B),
        C=tuple(C),
        monomial=not C,
        residues=tuple(residues),
        names_after=tuple(names),
        beta_after=tuple(betas),
    )

    new = Frame(
        names,
        frame.original_names,
        frame.init_betas,
        betas,
        frame.protected,
        frame.history + (step,),
        forward,
        pullbacks,
        unit_log,
        matrix,
        _compose_inverse(frame.matrix_inv, J, j, m),
    )
    return new


def _compose_inverse(prev_inv, J, j, m):
    """prev_inv composed with the elementary inverse of this step."""
    # step matrix G: row q, col j gets 1 for q in J; G_inv: col j gets -1 there
    g_inv = [[1 if a == b else 0 for b in range(m)] for a in range(m)]
    for q in J:
        if q != j:
            g_inv[q][j] = -1
    # new_inv = g_inv @ prev_inv? matrices act on exponent row vectors on the
    # right: e_current = e_original @ M, so M_inv accumulates on the left.
    out = [[0] * m for _ in range(m)]
    for a in range(m):
        for k in range(m):
            if g_inv[a][k]:
                for b in range(m):
                    out[a][b] += g_inv[a][k] * prev_inv[k][b]
    return tuple(tuple(row) for row in out)


# -- substitution ----------------------------------------------------------------


def substitute_monomial(frame: Frame, exps) -> tuple:
    """Image of an original-variable Laurent monomial: (exponents, units)."""
    if len(exps) != len(frame.original_names):
        raise UnknownVariable("original arity mismatch")
    out = [0] * frame.width
    units = Counter()
    for name, k in zip(frame.original_names, exps):
        if not k:
            continue
        img = frame.forward[name]
        for i, e in enumerate(img.exps):
            out[i] += k * e
        for uname, p in img.units:
            units[uname] += k * p
    return tuple(out), _counter_items(units)


def verify_forward(frame: Frame) -> bool:
    """Check every original variable is its recorded monomial times units."""
    n = len(frame.original_names)
    for k, name in enumerate(frame.original_names):
        img = frame.forward[name]
        acc = RationalFunction(MultiPoly.one(n))
        for i, e in enumerate(img.exps):
            if e:
                acc = acc * frame.pullbacks[i] ** e
        for uname, p in img.units:
            acc = acc * frame.unit_log[uname].pullback ** p
        if acc != RationalFunction(MultiPoly.variable(n, k)):
            return False
    return True


def transport(frame: Frame, expr, from_step: int = 0) -> RationalFunction:
    """Rewrite an expression over step-`from_step` parameters into current ones.

    Each step substitutes old_q -> new_q*new_j (strict members) and
    old_q -> (new_q + residue)*new_j (equal-value members).
    """
    m = frame.width
    cur = RationalFunction.of(expr, m) if not isinstance(expr, RationalFunction) else expr
    if cur.width != m:
        raise UnknownVariable("parameter arity mismatch")
    for step in frame.history[from_step:]:
        images = [RationalFunction(MultiPoly.variable(m, q)) for q in range(m)]
        var_j = RationalFunction(MultiPoly.variable(m, step.j))
        for q in step.B:
            images[q] = RationalFunction(MultiPoly.variable(m, q)) * var_j
        res = dict(step.residues)
        for q in step.C:
            images[q] = (RationalFunction(MultiPoly.variable(m, q)) + res[q]) * var_j
        cur = _rf_substitute(cur, images)
    return cur


def _mp_substitute(p: MultiPoly, images) -> RationalFunction:
    m = p.width
    out = RationalFunction.zero(m)
    for e, c in p.terms.items():
        term = RationalFunction(MultiPoly.constant(m, c))
        for k, power in enumerate(e):
            if power:
                term = term * images[k] ** power
        out = out + term
    return out


def _rf_substitute(r: RationalFunction, images) -> RationalFunction:
    return _mp_substitute(r.num, images) / _mp_substitute(r.den, images)


# -- tau and the divisibility loop -------------------------------------------------


def tau(alpha, gamma):
    """Reduced pair sizes: strip the common part, order by total size.

    Returns ((a, b), alpha_red, gamma_red, delta, swapped) with a <= b.
    """
    alpha = tuple(alpha)
    gamma = tuple(gamma)
    delta = tuple(min(a, g) for a, g in zip(alpha, gamma))
    at = ev_sub(alpha, delta)
    gt = ev_sub(gamma, delta)
    swapped = False
    if sum(at) > sum(gt):
        at, gt = gt, at
        swapped = True
    return (sum(at), sum(gt)), at, gt, delta, swapped


def _transform_exponents(e, step: TraceStep):
    out = list(e)
    out[step.j] = sum(e[q] for q in step.J)
    for q in step.C:
        out[q] = 0
    return tuple(out)


def transform_exponents(e, steps) -> tuple:
    for step in steps:
        e = _transform_exponents(e, step)
    return tuple(e)


def _center_from_tau(frame: Frame, at, gt):
    """supp(at) plus a minimal greedy subset of supp(gt) covering |at|."""
    need = sum(at)
    base = [q for q, v in enumerate(at) if v]
    pool = sorted(
        (q for q, v in enumerate(gt) if v),
        key=lambda q: (-gt[q], q),
    )
    K = []
    total = 0
    for q in pool:
        if total >= need:
            break
        K.append(q)
        total += gt[q]
    # prune largest-first while the threshold still holds
    for q in sorted(K, key=lambda q: (-gt[q], q)):
        if total - gt[q] >= need:
            K.remove(q)
            total -= gt[q]
    return sorted(set(base) | set(K))


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
    alpha = tuple(int(a) for a in alpha)
    gamma = tuple(int(g) for g in gamma)
    if len(alpha) != frame.width or len(gamma) != frame.width:
        raise UnknownVariable("exponent arity mismatch")
    for q in frame.protected:
        if alpha[q] or gamma[q]:
            raise ProtectedCenter("exponents touch a protected parameter")
    value_alpha = frame.monomial_value(alpha)
    value_gamma = frame.monomial_value(gamma)
    start = len(frame.history)
    prev_tau = None
    while True:
        (a, b), at, gt, _, _ = tau(alpha, gamma)
        if a == 0:
            break
        if prev_tau is not None:
            assert (a, b) < prev_tau, "tau character failed to decrease"
        prev_tau = (a, b)
        J = _center_from_tau(frame, at, gt)
        frame = framed_blowup(frame, J, c_provider)
        step = frame.history[-1]
        alpha = _transform_exponents(alpha, step)
        gamma = _transform_exponents(gamma, step)

    steps = frame.history[start:]
    # the lower-value monomial divides; equality gives mutual divisibility
    c = compare(value_alpha, value_gamma)
    if c < 0:
        assert ev_leq(alpha, gamma), "division direction contradicts the values"
        divider = "alpha"
    elif c > 0:
        assert ev_leq(gamma, alpha), "division direction contradicts the values"
        divider = "gamma"
    else:
        assert alpha == gamma, "equal values must collapse to one monomial"
        divider = "equal"
    assert frame.monomial_value(alpha) == value_alpha
    assert frame.monomial_value(gamma) == value_gamma
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
    gens = [tuple(int(a) for a in e) for e in N]
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

    best = 0
    for i in range(1, len(gens)):
        if compare(frame.monomial_value(gens[i]), frame.monomial_value(gens[best])) < 0:
            best = i
    for e in gens:
        assert ev_leq(gens[best], e), "principal generator fails to divide"
    return PrincipalizeResult(frame, tuple(gens), best, frame.history[start:])


# -- non-degenerate monomialization -------------------------------------------------


@dataclass
class MonomializeCertificate:
    frame: Frame
    exponents: tuple  # the monomial w^eps in final parameters
    unit: RationalFunction  # explicit unit over final parameters
    value: GroupElement  # common value of f and the monomial
    steps: tuple

    def monomial(self) -> MultiPoly:
        return MultiPoly.monomial(self.frame.width, self.exponents)


def monomialize_nondegenerate(frame: Frame, spec, f: MultiPoly, c_provider=None) -> MonomializeCertificate:
    """Factor a non-degenerate element as monomial times certified unit."""
    if f.width != frame.width:
        raise UnknownVariable("expression arity mismatch")
    group = frame.betas[0].group
    frame_val = Monomial(group, frame.betas)
    target_value = spec.value(frame.pullback_of(f))
    ok, witness = is_non_degenerate(spec, frame_val, f, target_value)
    if not ok:
        raise DegenerateInput("monomial value differs from the assigned value")
    start = len(frame.history)
    result = principalize(frame, witness, c_provider)
    f_new = transport(result.frame, RationalFunction(f), from_step=start)
    eps, unit, value = _factor_as_unit(result.frame, spec, f_new, target_value)
    return MonomializeCertificate(
        result.frame, eps, unit, value, result.frame.history[start:]
    )


def _factor_as_unit(fr: Frame, spec, T: RationalFunction, target):
    """Split T into monomial times certified unit; exact value checks."""
    eps = None
    for e in T.num.terms:
        eps = e if eps is None else ev_min(eps, e)
    unit = T / RationalFunction(MultiPoly.monomial(fr.width, eps))
    _assert_unit(unit)
    value = fr.monomial_value(eps)
    if compare(value, target) != 0:
        raise CertificationError("monomial value differs from the element value")
    zero = spec.value(1)
    if compare(spec.value(fr.pullback_of(unit)), zero) != 0:
        raise CertificationError("unit value is not zero")
    return eps, unit, value


def _assert_unit(r: RationalFunction):
    for part in (r.num, r.den):
        if not part.is_laurent_free():
            raise CertificationError("unit with negative parameter exponents")
        if part.constant_value() == 0:
            raise CertificationError("unit without constant term")
