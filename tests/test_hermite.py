"""The column Hermite kernel behind the lattice solve and the relation basis.

RECORDED holds lattice_multiplier's (h, x) and relation_lattice's basis on
50 seeded value lists, as computed before the two callers shared one kernel.
The solution vector x picks the successor witness, so it must not drift.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from valmono.errors import NotInDivisibleHull
from valmono.ordered_value import compare, standard_group
from valmono.successors import (
    Lattice,
    LatticeGenerator,
    _flatten,
    _hermite,
    lattice_multiplier,
)

from reference_algebra import relation_lattice

G = standard_group()
SEED = 20260814


def _cases(seed):
    """2-4 generators of rank 1-2, about half with a pi part; targets mostly
    rational combinations of the generators, the rest arbitrary."""
    rng = random.Random(seed)
    out = []
    for _ in range(50):
        rank = rng.randint(1, 2)
        k = rng.randint(2, 4)

        def frac():
            return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))

        def val(pi):
            return [(frac(), frac() if pi else Fraction(0)) for _ in range(rank)]

        gens = [val(rng.random() < 0.5) for _ in range(k)]
        if rng.random() < 0.75:
            d = rng.choice((1, 2, 3, 4))
            cs = [Fraction(rng.randint(-3, 3), d) for _ in range(k)]
            target = [
                (
                    sum(c * g[i][0] for c, g in zip(cs, gens)),
                    sum(c * g[i][1] for c, g in zip(cs, gens)),
                )
                for i in range(rank)
            ]
        else:
            target = val(True)
        out.append(([_el(g) for g in gens], _el(target)))
    return out


def _el(pairs):
    return G.element(*(G.scalar(value=a, pi=b) for a, b in pairs))


RECORDED = [
    ((1, (-295, 168, 1, -177)), [(27, -15, 0, 16)]),
    ((126, (-84, 57, -126, 8)), []),
    ((2, (3, -1)), []),
    ((4, (0, -3, 1, 0)), [(0, 0, 0, 1), (1, 0, 0, 0)]),
    ((4, (-27, 12, -51)), [(4, -2, 7)]),
    ((1, (-6, 0, -2, 0)), [(0, 1, 0, 0), (4, 0, 0, -1), (8, 0, 3, 0)]),
    ((3, (-3, 1)), []),
    ((3, (6, 0, 0, 44)), [(0, 0, 1, -8), (0, 1, 0, -4)]),
    ((3, (-6, 0, -22)), [(0, 1, 6)]),
    ((1, (-6, 35, 14, 0)), [(0, 0, 0, 1), (2, -12, -5, 0)]),
    ((4, (-69, 3, -431, 483)), [(3, 0, 18, -20)]),
    (None, [(3, 0, 2)]),
    ((2, (-1, -1)), []),
    ((3, (-16, 0, -4)), [(0, 1, 0)]),
    ((1, (0, 1, 0, 0)), [(0, 0, 0, 1), (1, 0, 1, 0)]),
    ((2, (-2, 3, 2, -1)), [(6, 0, -7, 3)]),
    ((3, (2, 1)), []),
    ((3, (2, -30, 60)), [(0, 4, -9)]),
    ((1, (-2, -2, 0)), []),
    ((1, (-3, -1, 0)), []),
    ((3, (8, -1, -7)), [(6, -3, -4)]),
    ((1, (-1, 0, -2, -3)), [(0, 0, 4, 3), (0, 1, 0, 0)]),
    ((1, (-168, 0, 13, -18)), [(1, -1, 0, 0), (21, 0, -2, 2)]),
    ((1, (0, 14, -2, -14)), [(0, 4, 0, -3), (1, 0, -6, 0)]),
    ((30, (-2, -18, -15, 0)), []),
    ((4, (3, 1)), []),
    ((3, (-12, 5)), []),
    ((24, (-264, 74, 21, -360)), []),
    ((1, (-2, -2)), []),
    ((18, (-161, 135, 188, 188)), [(2, 0, -3, 0), (4, -3, -5, -4)]),
    ((1, (0, -6, -3)), [(0, 9, 4), (1, 0, 0)]),
    ((1, (0, -8, -7, -1)), [(0, 4, 3, 0), (1, -3, 0, 0)]),
    ((2, (1, 0, -2)), [(0, 1, 0)]),
    ((1, (49, 686, -147, 162)), [(0, 13, -3, 3), (3, 38, -8, 9)]),
    ((3, (14, 28, 0, 0)), [(0, 6, 1, 0), (1, 3, 0, -1), (2, 3, 0, 0)]),
    ((4, (1, 3)), []),
    ((4, (0, 0, -1, 0)), []),
    ((6, (2, 0, -9)), [(0, 1, -2)]),
    (None, [(0, 1, 0, -1), (0, 4, -1, 0), (1, -3, 0, 0)]),
    ((2, (56, 3, -153, 512)), [(3, 0, -8, 27)]),
    ((1, (3, 0, 1)), []),
    ((3, (0, 4, -3, 0)), [(0, 4, 0, 1), (1, 8, 0, 0)]),
    ((1, (0, 9, -1, 0)), [(0, 2, 0, -1), (1, 4, 0, 0)]),
    (None, []),
    ((3, (-36, 0, 8, -8)), [(2, -1, -2, 0), (12, 0, -3, 2)]),
    ((4, (29, -29, 19)), [(10, -9, 6)]),
    ((1, (-1, 2, 0)), [(0, 3, -1)]),
    ((1, (0, 12, -1, 0)), [(0, 3, 0, -1), (1, -6, 0, 0)]),
    ((1, (1, -1)), []),
    ((4, (-1, 0)), []),
]

CASES = list(zip(_cases(SEED), RECORDED))


@pytest.mark.parametrize("idx", range(len(CASES)))
def test_lattice_solve_matches_record(idx):
    (vals, target), (mult, relations) = CASES[idx]
    lattice = Lattice([LatticeGenerator(f"g{i}", v) for i, v in enumerate(vals)])
    if mult is None:
        with pytest.raises(NotInDivisibleHull):
            lattice_multiplier(target, lattice)
    else:
        h, x = lattice_multiplier(target, lattice)
        assert (h, tuple(x)) == mult
    assert relation_lattice(vals) == relations


def _det(cols) -> Fraction:
    m = [[Fraction(a) for a in col] for col in cols]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


@pytest.mark.parametrize("idx", range(len(CASES)))
def test_hermite_invariants(idx):
    (vals, _), _ = CASES[idx]
    names = G.names
    frac_cols = [_flatten(v, names) for v in vals]
    den = 1
    for col in frac_cols:
        for a in col:
            den = den * a.denominator // gcd(den, a.denominator)
    cols = [[int(a * den) for a in col] for col in frac_cols]
    A, U, pivots = _hermite(cols)
    k, dim = len(cols), len(cols[0])
    # A = cols * U, column by column
    for j in range(k):
        assert A[j] == [sum(cols[i][r] * U[j][i] for i in range(k)) for r in range(dim)]
    assert abs(_det(U)) == 1
    # echelon shape: positive pivots, nothing past the pivot columns
    for n, (r, c) in enumerate(pivots):
        assert c == n and A[c][r] > 0
        assert all(A[c][rr] == 0 for rr in range(r))
    assert all(not any(A[j]) for j in range(len(pivots), k))
    # every kernel vector is a primitive relation among the values
    zero = vals[0] * 0
    for vec in relation_lattice(vals):
        g = 0
        for a in vec:
            g = gcd(g, a)
        assert g == 1
        acc = zero
        for e, v in zip(vec, vals):
            acc = acc + v * e
        assert compare(acc, zero) == 0
