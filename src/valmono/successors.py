"""Key-polynomial successor chains.

The lattice solver answers "what is the least multiple of this value that
the already-available values generate", by exact integer echelon reduction.
On top of it: binomial successor construction, successor verification
and the limit test. A successor's residue is the valuation's, read by
``valuation_core._residue_search`` from the pair (q^alpha, f): the one
ratio of their least-value terms, Laurent coefficients of f included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import (
    CertificationError,
    MaximalKey,
    NonMonicKey,
    NotInDivisibleHull,
    RankMismatch,
    ResidueUndefined,
    TranscendentalResidue,
    ZeroPolynomial,
)
from .exact_algebra import MultiPoly, UniPoly, normal_rational, q_expansion
from .ordered_value import GroupElement, compare, is_sentinel
from .valuation_core import _residue_search, truncated_value


@dataclass(frozen=True)
class LatticeGenerator:
    label: str
    value: GroupElement
    kind: str = "abstract"  # variable | key | abstract
    index: int | None = None  # variable position, for kind == variable
    key: UniPoly | None = None  # defining polynomial, for kind == key


class Lattice:
    """Finite list of value generators with labels and element payloads.

    A lattice with no generator, such as the coefficient lattice of a
    problem in one variable, is told its rank.
    """

    def __init__(self, generators: Sequence[LatticeGenerator], rank: int | None = None):
        self.generators = list(generators)
        ranks = {g.value.rank for g in self.generators}
        if rank is not None:
            ranks.add(rank)
        if not ranks:
            raise ValueError("an empty lattice needs its rank")
        if len(ranks) > 1:
            raise RankMismatch("lattice generators of mixed rank")
        (self.rank,) = ranks

    @classmethod
    def from_variables(cls, names, weights, rank: int | None = None) -> "Lattice":
        gens = [
            LatticeGenerator(n, w, kind="variable", index=i)
            for i, (n, w) in enumerate(zip(names, weights))
        ]
        return cls(gens, rank)

    def extended(self, gen: LatticeGenerator) -> "Lattice":
        return Lattice(self.generators + [gen])


def _flatten(v: GroupElement, names) -> list:
    out = []
    for s in v.entries:
        d = dict(s.coeffs)
        out.extend(d.get(n, 0) for n in names)
    return out


def _hermite(cols: list):
    """Column Hermite reduction of integer columns: (A, U, pivots).

    A = cols*U column by column, with U unimodular; pivots lists the
    (row, column) positions of the echelon form, each pivot positive.
    Columns of A past the last pivot are zero, and the matching columns
    of U span the integer relations among the input columns.
    """
    k = len(cols)
    dim = len(cols[0]) if cols else 0
    A = [list(col) for col in cols]  # column major
    U = [[1 if i == j else 0 for i in range(k)] for j in range(k)]  # column major

    def col_axpy(j, j0, q):
        A[j] = [a - q * b for a, b in zip(A[j], A[j0])]
        U[j] = [a - q * b for a, b in zip(U[j], U[j0])]

    c = 0
    pivots = []
    for r in range(dim):
        if c >= k:
            break
        while True:
            nz = [j for j in range(c, k) if A[j][r]]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(A[j][r]))
            for j in nz:
                if j != j0:
                    col_axpy(j, j0, A[j][r] // A[j0][r])
        nz = [j for j in range(c, k) if A[j][r]]
        if nz:
            j0 = nz[0]
            A[c], A[j0] = A[j0], A[c]
            U[c], U[j0] = U[j0], U[c]
            if A[c][r] < 0:
                A[c] = [-a for a in A[c]]
                U[c] = [-a for a in U[c]]
            pivots.append((r, c))
            c += 1
    return A, U, pivots


def _common_denominator(rows) -> int:
    den = 1
    for row in rows:
        for a in row:
            den = lcm(den, a.denominator)
    return den


def _column_echelon_solve(cols: list, target: list):
    """Minimal h >= 1 and integer x with sum x_i cols_i = h*target.

    cols and target hold rationals; raises NotInDivisibleHull when no
    multiple of the target lies in the integer span of the columns.
    """
    k = len(cols)
    den = _common_denominator(cols + [target])
    A, U, pivots = _hermite([[int(a * den) for a in col] for col in cols])
    t = [int(a * den) for a in target]

    # forward substitution; rows without a pivot must have zero residual
    w = [0] * k
    ci = 0
    for r in range(len(target)):
        resid = t[r]
        for j in range(ci):
            resid -= A[j][r] * w[j]
        if ci < len(pivots) and pivots[ci][0] == r:
            w[ci] = Fraction(resid, A[ci][r])
            ci += 1
        elif resid:
            raise NotInDivisibleHull("no multiple of the value lies in the lattice")

    h = 1
    for val in w:
        h = lcm(h, val.denominator)
    y = [int(val * h) for val in w]
    x = [sum(U[j][i] * y[j] for j in range(k)) for i in range(k)]
    return h, x


def lattice_multiplier(v: GroupElement, lattice: Lattice):
    """Least h >= 1 with h*v in the integer span, plus one solution vector."""
    if is_sentinel(v):
        raise ValueError("lattice multiplier of an infinite value")
    if v.rank != lattice.rank:
        raise RankMismatch("value rank differs from lattice rank")
    names = v.group.names
    cols = [_flatten(g.value, names) for g in lattice.generators]
    target = _flatten(v, names)
    h, x = _column_echelon_solve(cols, target)
    # cross-check the reconstruction exactly
    acc = None
    for xi, g in zip(x, lattice.generators):
        if xi == 0:
            continue
        term = g.value * xi
        acc = term if acc is None else acc + term
    if acc is None:
        acc = v * 0
    if compare(acc, v * h) != 0:
        raise CertificationError("lattice solver produced an invalid combination")
    return h, x


@dataclass
class SuccessorCertificate:
    kind: str  # optimal | limit
    alpha: int
    monomial: MultiPoly | None  # Laurent monomial part of the witness f
    key_powers: tuple  # (label, exponent) pairs for key factors of f
    residue: Fraction | None
    base_value: GroupElement  # truncated value of the successor: alpha * value(key)


def _witness_from_solution(lattice: Lattice, solution, width: int):
    """Split a lattice solution into a Laurent monomial and key powers."""
    exps = [0] * width
    key_part = []
    for xi, g in zip(solution, lattice.generators):
        if xi == 0:
            continue
        if g.kind == "variable":
            exps[g.index] += xi
        elif g.kind == "key":
            if xi < 0:
                raise ResidueUndefined("witness requires a negative key power")
            key_part.append((g, xi))
        else:
            raise ResidueUndefined(f"abstract generator {g.label!r} in the witness")
    return MultiPoly.monomial(width, tuple(exps)), key_part


def _build_witness(lattice: Lattice, solution, width: int, q: UniPoly):
    mono, key_part = _witness_from_solution(lattice, solution, width)
    f = UniPoly.constant(width, mono)
    for g, power in key_part:
        f = f * g.key**power
    if f.degree >= q.degree:
        raise ResidueUndefined("witness degree reaches the key degree")
    return f, mono, key_part


def next_successor(spec, q: UniPoly, lattice: Lattice, value=None):
    """Build the binomial successor q^alpha - c*f of minimal alpha.

    Returns (successor, certificate, value of the successor). The witness f
    is a Laurent monomial with coefficient one times key powers, and c is the
    residue of q^alpha/f, of value alpha*v(q) by the solver's cross-check:
    the shifted numerator that certifies c is the successor.
    When no key of the spec lies above q that residue is transcendental
    and MacLane leaves it free: c is then 1.
    ``value``, when given, is the caller's value of q, not computed again.
    """
    if q.is_zero():
        raise ZeroPolynomial("successor of the zero polynomial")
    if not q.is_monic():
        raise NonMonicKey("a successor needs a monic key")
    v = spec.value(q) if value is None else value
    try:
        alpha, solution = lattice_multiplier(v, lattice)
    except NotInDivisibleHull as exc:
        raise MaximalKey(
            "no multiple of the key value lies in the available lattice"
        ) from exc
    width = q.width
    try:
        f, mono, key_part = _build_witness(lattice, solution, width, q)
    except ResidueUndefined:
        # retry over the variable sublattice; minimality is preserved only
        # when the restricted multiplier agrees
        var_gens = [g for g in lattice.generators if g.kind == "variable"]
        if not var_gens:
            raise
        sub = Lattice(var_gens)
        try:
            alpha2, solution2 = lattice_multiplier(v, sub)
        except NotInDivisibleHull:
            raise ResidueUndefined(
                "witness is not representable over the variables alone"
            ) from None
        if alpha2 != alpha:
            raise
        f, mono, key_part = _build_witness(sub, solution2, width, q)
    power = q**alpha
    try:
        residue, succ_value = _residue_search(spec, power, f, v * alpha)
    except TranscendentalResidue:
        residue = 1
        succ_value = None
    residue = normal_rational(residue)
    successor = power - f.scale(residue)
    cert = SuccessorCertificate(
        kind="optimal",
        alpha=alpha,
        monomial=mono,
        key_powers=tuple((g.label, power) for g, power in key_part),
        residue=residue,
        base_value=v * alpha,
    )
    return successor, cert, spec.value(successor) if succ_value is None else succ_value


@dataclass
class VerifyReport:
    passed: bool
    value_check: bool
    degree_check: bool
    alpha: int | None
    truncated: object
    value: object


def verify_immediate_successor(spec, q1: UniPoly, q2: UniPoly, lattice: Lattice) -> VerifyReport:
    """Truncation drop plus degree minimality through the lattice multiplier."""
    if lattice.rank < spec.rank:
        # base values embed into rank-raising towers by zero-prepending
        extra = spec.rank - lattice.rank
        lattice = Lattice([replace(g, value=g.value.lift(extra)) for g in lattice.generators], spec.rank)
    rep = truncated_value(spec, q1, q2)
    v2 = spec.value(q2)
    value_check = compare(rep.value, v2) < 0
    alpha = None
    degree_check = False
    try:
        alpha, _ = lattice_multiplier(spec.value(q1), lattice)
        degree_check = q2.degree == q1.degree * alpha
    except NotInDivisibleHull:
        pass
    parts = q_expansion(q2, q1)
    leading = bool(parts) and parts[-1] == UniPoly.one(q1.width)
    passed = value_check and degree_check
    if passed and not leading:
        raise CertificationError("verified successor with non-monic leading expansion coefficient")
    return VerifyReport(passed, value_check, degree_check, alpha, rep.value, v2)


def check_limit_successor(spec, q: UniPoly, q_prime: UniPoly):
    """Necessary limit test: the truncation argmin tops out at index one."""
    rep = truncated_value(spec, q, q_prime)
    v = spec.value(q_prime)
    ok = rep.delta == 1 and compare(rep.value, v) < 0
    return ok, rep
