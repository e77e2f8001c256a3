"""Order, arithmetic and text round-trips for value-group elements."""

import functools
import hashlib
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from valmono.errors import DivideByNonPositive, ForeignGenerator, ParseError, RankMismatch
from valmono.exact_algebra import MultiPoly
from valmono.ordered_value import (
    _MAX_REFINE,
    MINUS_INFINITY,
    PLUS_INFINITY,
    GroupElement,
    IndependentGenerator,
    Scalar,
    ValueGroup,
    compare,
    div_by_positive_int,
    format_element,
    format_scalar,
    least_value,
    linear_combination,
    parse_element,
    parse_scalar,
    pi_generator,
    standard_group,
    unit_generator,
)

SEED = 20260814


@pytest.fixture(scope="module")
def group():
    return standard_group()


def el(group, *entries):
    scalars = []
    for e in entries:
        if isinstance(e, tuple):
            rat, pi = e
            scalars.append(group.scalar(rat, pi=pi))
        else:
            scalars.append(group.scalar(e))
    return group.element(*scalars)


def test_pi_enclosure_brackets_the_frozen_interval():
    # Oracle: pi lies in (3.1415, 3.1416); the level-0 enclosure must agree
    # and must keep shrinking strictly with the level.
    g = pi_generator()
    lo, hi = g.enclosure(0)
    assert Fraction(31415, 10000) < lo < hi < Fraction(31416, 10000)
    lo1, hi1 = g.enclosure(1)
    assert lo <= lo1 < hi1 <= hi
    assert hi1 - lo1 < hi - lo


def test_lex_order_golden(group):
    # (0, 1+pi) < (1, 0): the second coordinate never beats the first.
    a = el(group, 0, (1, 1))
    b = el(group, 1, 0)
    assert compare(a, b) == -1
    assert a < b and b > a


def test_reflexivity(group):
    a = el(group, 0, (1, 1))
    assert compare(a, a) == 0


def test_interval_decision(group):
    # 2+2pi vs 5: with pi in (3.1415, 3.1416), 2+2pi lies in (8.283, 8.2832).
    a = group.element(group.scalar(2, pi=2))
    b = group.element(group.scalar(5))
    assert compare(a, b) == 1


def test_epsilon_quotient_golden(group):
    # ((1,0) - (0,1+pi)) / 1 = (1, -1-pi)
    a = el(group, 1, 0)
    b = el(group, 0, (1, 1))
    q = div_by_positive_int(a - b, 1)
    assert q == el(group, 1, (-1, -1))


def test_half_quotient_golden(group):
    # ((1,0) - (0,0)) / 2 = (1/2, 0)
    a = el(group, 1, 0)
    q = div_by_positive_int(a - group.zero(2), 2)
    assert q == el(group, Fraction(1, 2), 0)


def test_add_zero(group):
    a = el(group, (2, 3), (0, 1))
    assert a + group.zero(2) == a


def test_sentinels(group):
    a = el(group, 0, 0)
    assert MINUS_INFINITY < a < PLUS_INFINITY
    assert compare(PLUS_INFINITY, PLUS_INFINITY) == 0
    assert compare(MINUS_INFINITY, a) == -1
    assert PLUS_INFINITY + a is PLUS_INFINITY
    assert a + PLUS_INFINITY is PLUS_INFINITY
    with pytest.raises(ValueError):
        PLUS_INFINITY + MINUS_INFINITY
    with pytest.raises(ValueError):
        div_by_positive_int(PLUS_INFINITY, 2)


def test_rank_mismatch(group):
    with pytest.raises(RankMismatch):
        compare(el(group, 1), el(group, 1, 0))
    with pytest.raises(RankMismatch):
        el(group, 1) + el(group, 1, 0)


def test_div_errors(group):
    a = el(group, 1, 0)
    with pytest.raises(DivideByNonPositive):
        div_by_positive_int(a, 0)
    with pytest.raises(DivideByNonPositive):
        div_by_positive_int(a, -3)
    # a bool is no divisor, though it is an int to isinstance
    for flag in (True, False):
        with pytest.raises(DivideByNonPositive):
            div_by_positive_int(a, flag)


def _random_scalar(group, rng):
    return group.scalar(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        pi=Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


def _random_element(group, rng, rank=2):
    return GroupElement(tuple(_random_scalar(group, rng) for _ in range(rank)))


def test_prop_total_order(group):
    # Antisymmetry, transitivity and translation invariance on random triples.
    rng = random.Random(SEED)
    for _ in range(200):
        a, b, c = (_random_element(group, rng) for _ in range(3))
        sab, sba = compare(a, b), compare(b, a)
        assert sab == -sba
        if sab <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0
        if sab < 0:
            assert compare(a + c, b + c) < 0


def test_prop_div_roundtrip(group):
    rng = random.Random(SEED + 1)
    for _ in range(100):
        a = _random_element(group, rng)
        n = rng.randint(1, 7)
        q = div_by_positive_int(a, n)
        total = q
        for _ in range(n - 1):
            total = total + q
        assert total == a


def test_refinement_stability():
    # A comparison that already returned must not change under refinement.
    deep = ValueGroup([unit_generator(), pi_generator()])
    a = deep.element(deep.scalar(2, pi=2))
    b = deep.element(deep.scalar(5))
    first = compare(a, b)
    # Force much deeper enclosures, then re-ask.
    deep.generator("pi").enclosure(6)
    assert compare(a, b) == first


def test_scalar_text_roundtrip(group):
    rng = random.Random(SEED + 2)
    cases = [group.scalar(0), group.scalar(1, pi=1), group.scalar(0, pi=2),
             group.scalar(Fraction(-3, 2)), group.scalar(-1, pi=-1)]
    cases += [_random_scalar(group, rng) for _ in range(50)]
    for s in cases:
        assert parse_scalar(group, format_scalar(s)) == s


def test_element_text_roundtrip(group):
    rng = random.Random(SEED + 3)
    for _ in range(50):
        v = _random_element(group, rng)
        assert parse_element(group, format_element(v)) == v
    assert format_element(PLUS_INFINITY) == "+inf"
    assert parse_element(group, "-inf") is MINUS_INFINITY
    assert format_element(el(group, 1, (-1, -1))) == "(1, -1 - pi)"
    assert parse_element(group, "(0, 1+pi)") == el(group, 0, (1, 1))


def test_parse_errors(group):
    for bad in ["", "( ,1)", "2**pi", "1+bogus", "(1,)", "1 0", "p i", "3/1 0*pi", "(1, 2 0)"]:
        with pytest.raises(ParseError):
            parse_element(group, bad)


def test_lift_embedding(group):
    a = el(group, (2, 1))
    assert a.lift() == el(group, 0, (2, 1))
    b = el(group, (3, 0))
    assert (a < b) == (a.lift() < b.lift())


def test_custom_generator_interval():
    # A user generator with a bisection-style refinable enclosure.
    def enclose(level):
        w = Fraction(1, 10 ** (level + 1))
        return (Fraction(141, 100) - w, Fraction(142, 100) + w)

    g = ValueGroup([unit_generator(), IndependentGenerator("s", enclose=enclose)])
    a = g.element(g.scalar(0, s=2))
    b = g.element(g.scalar(3))
    assert compare(a, b) == -1


def _sqrt2_enclosure(level):
    k = level + 3
    lo = Fraction(math.isqrt(2 * 10 ** (2 * k)), 10 ** k)
    return lo, lo + Fraction(1, 10 ** k)


def _kernel_groups():
    """standard_group() and a group with two enclosure generators, pi and r = sqrt(2)."""
    two = [unit_generator(), pi_generator(), IndependentGenerator("r", enclose=_sqrt2_enclosure)]
    return [(standard_group, standard_group()), (lambda: ValueGroup(two), ValueGroup(two))]


def _sparse_scalar(group, rng):
    """A scalar whose coefficient on each generator is zero one time in three."""
    coeffs = {}
    for name in group.names:
        if rng.randrange(3):
            coeffs[name] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Scalar(group, coeffs)


def _one(s):
    """The rank-1 element of one scalar: scalar arithmetic runs on these."""
    return GroupElement((s,))


def _block(v):
    (s,) = v.entries
    return s


def _kernel_results(make_group, group, rank, rng):
    """Every kernel operation on one seeded pair (a, b) of rank-``rank`` elements."""
    a = GroupElement(tuple(_sparse_scalar(group, rng) for _ in range(rank)))
    b = GroupElement(tuple(_sparse_scalar(group, rng) for _ in range(rank)))
    if rng.randrange(2):  # share a leading entry, so compare must look further
        b = GroupElement(a.entries[:1] + b.entries[1:])
    twin = GroupElement(tuple(Scalar(group, dict(s.coeffs)) for s in a.entries))
    other_zero = make_group().zero(rank)  # equal generators, another group instance
    k = rng.choice((-3, -1, 2, 5))
    q = Fraction(rng.choice((-5, -1, 1, 3)), rng.choice((2, 3, 7)))
    n = rng.randint(1, 6)
    elements = [
        (a, a + b), (a, a - b), (b, b - a), (a, -a), (a, a + group.zero(rank)),
        (other_zero, other_zero + a), (a, a + other_zero), (a, a - twin),
        (a, a * 0), (a, a * 1), (a, a * k), (a, k * a), (a, a * q), (a, a * Fraction(1)),
        (a, div_by_positive_int(a, n)), (a, div_by_positive_int(a, 1)),
    ]
    scalars = []
    orders = [compare(a, b), compare(b, a), compare(a, twin)]
    for s, t, u in zip(a.entries, b.entries, twin.entries):
        es, et, eu = _one(s), _one(t), _one(u)
        scalars += [(s, _block(r)) for r in (es + et, es - et, -es, es * 0, es * 1, es * k, es * q)]
        for lhs, rhs in ((es, et), (et, es), (es, eu)):
            orders += [lhs < rhs, lhs <= rhs, lhs > rhs, lhs >= rhs]
    return elements, scalars, orders


def _kernel_rows():
    """(group index, rank, results) rows: four seeded draws per group and rank 1-3."""
    rng = random.Random(SEED + 7)
    for g, (make_group, group) in enumerate(_kernel_groups()):
        for rank in (1, 2, 3):
            for _ in range(4):
                yield g, rank, _kernel_results(make_group, group, rank, rng)


def _scalar_key(s):
    return tuple((name, c.numerator, c.denominator) for name, c in s.coeffs)


def _kernel_digest(elements, scalars, orders) -> str:
    text = repr((
        [tuple(_scalar_key(s) for s in r.entries) for _, r in elements],
        [_scalar_key(r) for _, r in scalars],
        orders,
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _assert_canonical(left_group, s):
    assert s.group is left_group
    ranks = [left_group.names.index(name) for name, _ in s.coeffs]
    assert ranks == sorted(set(ranks))
    assert all(type(c) is int and c != 0 or type(c) is Fraction and c.denominator > 1 for _, c in s.coeffs)


# sums, differences, negations, products by 0, 1, ints and Fractions, halvings,
# element comparisons and <, <=, >, >= of one-entry elements on the seeded
# rows, recorded when every result went through the canonicalising Scalar
# constructor and scalars had their own operators
ORDERED_VALUE_KERNEL_TABLE = (
    "e4b8359cdd67",
    "eecfba8805ca",
    "83edbbba68df",
    "d756f22cbbf7",
    "45777a674430",
    "cf60a38fd4f8",
    "78055efb388e",
    "b395be96108c",
    "d2bef1edc2eb",
    "7fff8b9a8be7",
    "e69e5975d1bb",
    "d4d4e7a745dd",
    "8d8efd91ee3c",
    "a75962f8301e",
    "dc29d6c69bb0",
    "cbbf5b64b60a",
    "5802a33a6c31",
    "d5cc25c82c37",
    "5d08d2ef2117",
    "cdccef00e3e1",
    "9640844d6858",
    "71f1113b656f",
    "880721d5cd39",
    "73ac3c3d583b",
)


def test_kernel_output_table():
    rows = list(_kernel_rows())
    assert len(rows) == len(ORDERED_VALUE_KERNEL_TABLE)
    for (g, rank, results), want in zip(rows, ORDERED_VALUE_KERNEL_TABLE):
        assert _kernel_digest(*results) == want, (g, rank)
        elements, scalars, _ = results
        for left, r in elements:
            for s in r.entries:
                _assert_canonical(left.group, s)
        for left, r in scalars:
            _assert_canonical(left.group, r)


def _reference_sign(s):
    """(sign, level): sum every term's enclosure, a rational term as a point, level by level."""
    for level in range(_MAX_REFINE):
        lo = hi = Fraction(0)
        for name, c in s.coeffs:
            glo, ghi = s.group.generator(name).enclosure(level)
            lo, hi = lo + min(c * glo, c * ghi), hi + max(c * glo, c * ghi)
        if lo > 0:
            return 1, level
        if hi < 0:
            return -1, level
        if lo == hi == 0:
            return 0, level
    raise ArithmeticError("no level separates the sum from zero")


def _recording(name, enclose):
    """A fresh generator that logs the level of every enclosure asked of it after it is built.

    The levels its own sign needed are dropped with the log, so each level a
    later decision reads is asked once more, and logged, the first time.
    """
    levels = []

    def logged(level):
        levels.append(level)
        return enclose(level)

    g = IndependentGenerator(name, enclose=logged)
    g._levels.clear()
    levels.clear()
    return g, levels


def _sign_groups():
    signed = [unit_generator(), IndependentGenerator("m", rational=Fraction(-7, 3)),
              IndependentGenerator("z", rational=0), pi_generator()]
    return [standard_group(), _kernel_groups()[1][1], ValueGroup(signed)]


def test_sign_table_matches_the_interval_sum():
    rng = random.Random(SEED + 9)
    rows = 0
    for group in _sign_groups():
        for _ in range(120):
            names = rng.sample(group.names, rng.randint(0, min(3, len(group.names))))
            s = group.scalar(0, **{n: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for n in names})
            assert s.sign() == _reference_sign(s)[0], s
            rows += 1
        zero = group.scalar(0, **{"1": 0})
        assert zero.sign() == 0
    # rational generators of either sign and of value zero, alone and cancelling
    g = _sign_groups()[2]
    for s, want in ((g.scalar(0, m=2), -1), (g.scalar(0, m=-1), 1), (g.scalar(0, z=5), 0),
                    (g.scalar(7, m=3), 0), (g.scalar(7, m=3, z=-1), 0), (g.scalar(0, z=1, pi=-2), -1)):
        assert s.sign() == _reference_sign(s)[0] == want, s
    assert rows == 360


# pi convergents: t - pi has the sign of (-1)**n, and the deeper ones need
# enclosures past level 0
PI_CONVERGENTS = (
    (Fraction(3), 0), (Fraction(22, 7), 0), (Fraction(333, 106), 0), (Fraction(355, 113), 0),
    (Fraction(411557987, 131002976), 1), (Fraction(139755218526789, 44485467702853), 2),
)


def _near_141(level):
    w = Fraction(1, 10 ** (level + 1))
    return Fraction(141, 100) - w, Fraction(142, 100) + w


def test_sign_refines_to_the_level_the_interval_sum_needs():
    # each case on a fresh generator: a decision asks levels 0 .. the one
    # that separates, each once, in order
    for t, level in PI_CONVERGENTS:
        for k in (1, -3, Fraction(2, 5)):
            pi, levels = _recording("pi", pi_generator().enclosure)
            s = ValueGroup([unit_generator(), pi]).scalar(k * t, pi=-k)
            sign = s.sign()
            assert levels == list(range(level + 1)), (t, k)
            assert (sign, level) == _reference_sign(s)
            assert sign == (1 if t > Fraction(314159265358979, 10 ** 14) else -1) * (1 if k > 0 else -1)
            # asked again, the kept levels decide: the callback is not asked
            del levels[:]
            assert s.sign() == sign and levels == []
    pi, levels = _recording("pi", pi_generator().enclosure)
    group = ValueGroup([unit_generator(), pi])
    assert group.scalar(0, pi=-2).sign() == -1 and not levels  # one coefficient: the generator's own sign
    # t is a level-0 bound itself: level 0 does not exclude it, level 1 does
    for t, side in ((Fraction(131, 100), -1), (Fraction(152, 100), 1)):
        for k in (1, -2):
            g, levels = _recording("g", _near_141)
            s = ValueGroup([unit_generator(), g]).scalar(k * t, g=-k)
            sign = s.sign()
            assert levels == [0, 1]
            assert (sign, 1) == _reference_sign(s) == (side if k > 0 else -side, 1)


def test_terms_of_one_sign_ask_no_enclosure():
    # the rational part and every enclosure term share a sign: that sign, with
    # no refinement; mixed signs still refine
    def fresh():
        pi, levels = _recording("pi", pi_generator().enclosure)
        r, r_levels = _recording("r", _sqrt2_enclosure)
        group = ValueGroup([unit_generator(), IndependentGenerator("m", rational=Fraction(-7, 3)), pi, r])
        return group, levels, r_levels

    for coeffs, want in (((1, {"pi": 1}), 1), ((-2, {"pi": Fraction(-3, 4)}), -1),
                         ((0, {"m": -1, "pi": 2}), 1), ((7, {"m": 3, "pi": -1}), -1),
                         ((0, {"pi": 1, "r": 5}), 1), ((-1, {"m": 1, "pi": -1, "r": -2}), -1)):
        group, levels, r_levels = fresh()
        s = group.scalar(coeffs[0], **coeffs[1])
        assert s.sign() == want and levels == r_levels == [], s
        assert _reference_sign(s)[0] == want, s
    for coeffs in ((4, {"pi": -1}), (0, {"pi": 1, "r": -2})):
        group, levels, r_levels = fresh()
        s = group.scalar(coeffs[0], **coeffs[1])
        sign = s.sign()
        assert levels and sign == _reference_sign(s)[0], s


def test_sign_matches_the_interval_sum_on_deep_convergents():
    # multiples of the convergents that need levels 1 and 2, alone against
    # pi and beside a second enclosure term r - u, u a rational close to
    # sqrt(2): one-generator side tests and interval sums that refine; each
    # case on the groups as kept and on fresh ones
    rng = random.Random(SEED + 14)
    deep = [t for t, level in PI_CONVERGENTS if level]
    roots = (Fraction(14142, 10000), Fraction(141422, 100000), Fraction(99, 70))
    rows = 0
    for index, kept in enumerate(_sign_groups()):
        for _ in range(60):
            k = rng.choice((1, -1)) * Fraction(rng.randint(1, 9), rng.randint(1, 4))
            t = rng.choice(deep)
            coeffs = {"pi": -k}
            exact = k * t
            if "r" in kept.names and rng.randrange(2):
                c = rng.choice((1, -1)) * Fraction(1, 10 ** rng.randint(6, 14))
                coeffs["r"] = c
                exact -= c * rng.choice(roots)
            for group in (kept, _sign_groups()[index]):
                s = group.scalar(exact, **coeffs)
                assert s.sign() == _reference_sign(s)[0], s
                rows += 1
    assert rows == 360


def test_inverted_bounds_raise_when_their_level_is_first_needed():
    # bounds of sqrt(2) that invert at level 2: levels 0 and 1 are checked
    # and kept once; the first decision that needs level 2 raises
    asked = []

    def enclose(level):
        asked.append(level)
        lo, hi = _sqrt2_enclosure(level)
        return (hi, lo) if level == 2 else (lo, hi)

    g = IndependentGenerator("r", enclose=enclose)
    group = ValueGroup([unit_generator(), g])
    assert asked == [0]
    needs_1 = group.scalar(Fraction(14145, 10000), r=-1)  # inside level 0's bounds, outside level 1's
    needs_2 = group.scalar(Fraction(141425, 100000), r=-1)  # inside level 1's bounds, outside level 2's
    assert needs_1.sign() == 1 and asked == [0, 1]
    with pytest.raises(ValueError, match="lo < hi"):
        needs_2.sign()
    assert asked == [0, 1, 2]
    assert needs_1.sign() == 1 and group.scalar(0, r=-3).sign() == -1
    assert asked == [0, 1, 2]  # no level is asked twice


def test_sign_raises_where_no_enclosure_separates():
    with pytest.raises(ArithmeticError):
        IndependentGenerator("z", enclose=lambda level: (Fraction(-1, level + 2), Fraction(1, level + 2)))

    def near_one(level):
        w = Fraction(1, 2 ** (level + 1))
        return 1 - w, 1 + w

    group = ValueGroup([unit_generator(), IndependentGenerator("u", enclose=near_one),
                        IndependentGenerator("w", enclose=near_one)])
    for s in (group.scalar(1, u=-1), group.scalar(0, u=2, w=-2)):
        with pytest.raises(ArithmeticError):
            s.sign()
        with pytest.raises(ArithmeticError):
            _reference_sign(s)
    assert group.scalar(2, u=-1).sign() == 1


def test_every_sign_decision_goes_through_scalar_sign(group, monkeypatch):
    # the per-layer benchmark counts sign decisions by wrapping Scalar.sign
    asked = []
    sign = Scalar.sign

    def counted(s):
        asked.append(format_scalar(s))
        return sign(s)

    monkeypatch.setattr(Scalar, "sign", counted)
    a = group.element(0, group.scalar(1, pi=-1))
    b = group.element(0, 3)
    assert compare(a, b) == -1 and a < b and not a >= b
    assert not a.is_positive() and (b - a).sign() == 1
    # equal entries and zero entries are settled without a sign decision
    assert asked == ["-2 - pi", "-2 - pi", "-2 - pi", "1 - pi", "2 + pi"]


def _term_by_term(ks, elements):
    out = None
    for k, v in zip(ks, elements):
        if k:
            term = v * k
            out = term if out is None else out + term
    return out if out is not None else elements[0] * 0


def test_linear_combination_equals_the_term_by_term_sum():
    rng = random.Random(SEED + 10)
    cases = 0
    for make_group, group in _kernel_groups():
        instances = (group, make_group())  # same generators, two group instances
        for rank in (1, 2, 3):
            for _ in range(8):
                n = rng.randint(1, 4)
                weights = []
                for _ in range(n):
                    g = rng.choice(instances)
                    weights.append(GroupElement(tuple(_sparse_scalar(g, rng) for _ in range(rank))))
                for ks in ([rng.randint(0, 3) for _ in range(n)],
                           [rng.randint(-4, 4) for _ in range(n)],
                           [0] * n,
                           [0] * (n - 1) + [rng.choice((-2, 1, 3))],
                           [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]):
                    got = linear_combination(ks, weights)
                    assert got == _term_by_term(ks, weights), ks
                    assert got.rank == rank
                    lead = next((v for k, v in zip(ks, weights) if k), weights[0])
                    for s in got.entries:
                        _assert_canonical(lead.group, s)
                    cases += 1
    assert cases == 240
    a = standard_group()
    with pytest.raises(RankMismatch):
        linear_combination([1, 1], [a.zero(1), a.zero(2)])
    assert linear_combination([1, 0], [a.zero(1), a.zero(2)]) == a.zero(1)


def test_foreign_generators_raise():
    # r = 5: an order that dropped r would claim 1 > 5
    a = standard_group()
    b = ValueGroup([unit_generator(), IndependentGenerator("r", rational=5)])
    x, y = a.element(a.scalar(1)), b.element(b.scalar(0, r=1))
    for op in (lambda: x + y, lambda: x - y, lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y,
               lambda: a.zero(1) + y, lambda: a.zero(1) - y, lambda: compare(x, y),
               lambda: compare(a.element(0, x.entries[0]), b.element(0, y.entries[0])),
               lambda: linear_combination([1, 2], [x, y]), lambda: least_value([x, y], [(1, 1)]),
               lambda: GroupElement((x.entries[0], y.entries[0])),
               # r cancels in the sum, but the operands still carry it
               lambda: linear_combination([1, 1, -1], [x, y, y])):
        with pytest.raises(ForeignGenerator):
            op()
    # b declares every generator x carries, so the order is decided: 5 > 1
    assert y > x and compare(y, x) == 1 and x != y and y != x
    assert (y - x).group is b and (y - x) == b.element(b.scalar(-1, r=1))


def test_scalar_constructor_rejects_undeclared_generators():
    # "e" used to be dropped, leaving 2*pi
    g = standard_group()
    with pytest.raises(ForeignGenerator, match="'e'"):
        Scalar(g, {"e": 1, "pi": 2})
    with pytest.raises(ForeignGenerator):
        Scalar(g, {"e": 0})
    assert Scalar(g, {"pi": 2, "1": 0}) == g.scalar(0, pi=2)
    # the group's own builders keep their narrower errors
    with pytest.raises(ValueError, match="unknown generator"):
        g.scalar(0, e=1)
    with pytest.raises(ParseError):
        parse_scalar(g, "2*pi + e")


def test_same_names_in_another_group_instance_still_combine():
    a, twin = standard_group(), standard_group()
    swapped = ValueGroup([pi_generator(), unit_generator()])  # same names, other declaration order
    for other in (twin, swapped):
        s = other.element(other.scalar(2, pi=1))
        for r in (a.element(1) + s, a.zero(1) + s, a.zero(1) - s, a.element(a.scalar(0, pi=1)) - s):
            assert r.group is a
            _assert_canonical(a, _block(r))
        assert a.zero(1) + s == a.element(a.scalar(2, pi=1)) == s
        assert hash(a.element(a.scalar(2, pi=1))) == hash(s)
        assert a.zero(1) - s == a.element(a.scalar(-2, pi=-1))
        assert a.element(6) > s and compare(a.element(6), s) == 1
        assert linear_combination([1, 2], [a.element(1), s]) == a.element(a.scalar(5, pi=2))


# every constructor and product that stores a coefficient, given the rational c
# (the products multiply a coefficient 1 by c)
COEFFICIENT_SITES = {
    "MultiPoly": lambda G, c: MultiPoly(1, {(1,): c}).terms.get((1,), 0),
    "Scalar": lambda G, c: dict(Scalar(G, {"pi": c}).coeffs).get("pi", 0),
    "ValueGroup.scalar value": lambda G, c: dict(G.scalar(c).coeffs).get("1", 0),
    "ValueGroup.scalar named": lambda G, c: dict(G.scalar(pi=c).coeffs).get("pi", 0),
    "one-entry element * k": lambda G, c: dict((G.element(G.scalar(pi=1)) * c).entries[0].coeffs).get("pi", 0),
    "k * one-entry element": lambda G, c: dict((c * G.element(G.scalar(pi=1))).entries[0].coeffs).get("pi", 0),
    "linear_combination": lambda G, c: dict(linear_combination([c], [G.element(G.scalar(pi=1))]).entries[0].coeffs).get("pi", 0),
}
RATIONAL_INPUTS = [(3, 3), (Fraction(6, 2), 3), (Fraction(-1, 3), Fraction(-1, 3)), (0, 0), (Fraction(0, 5), 0)]
NON_RATIONAL_INPUTS = [0.1, 2.0, 0.0, "1/3", True, False, None, Decimal("0.5")]


@pytest.mark.parametrize("site", COEFFICIENT_SITES.values(), ids=COEFFICIENT_SITES)
def test_coefficients_take_one_normal_form_and_only_rationals(group, site):
    # an int when integral, else a Fraction with denominator > 1; a float, a
    # string, a bool or None raises instead of becoming a nearby rational
    for c, want in RATIONAL_INPUTS:
        got = site(group, c)
        assert got == want and type(got) is type(want), (c, got)
    for c in NON_RATIONAL_INPUTS:
        with pytest.raises(TypeError, match="coefficient must be an int or a Fraction"):
            site(group, c)


def test_integral_sums_and_products_are_ints(group):
    half = group.element(group.scalar(pi=Fraction(1, 2)))
    one = group.element(group.scalar(pi=1))
    for v in (half * 2, 2 * half, half + half, half - group.element(group.scalar(pi=Fraction(-1, 2))),
              linear_combination([Fraction(1, 2), Fraction(1, 2)], [one, one]),
              div_by_positive_int(group.element(group.scalar(pi=4)), 2) * Fraction(1, 2)):
        s = _block(v)
        assert s.coeffs == (("pi", 1),) and type(s.coeffs[0][1]) is int
        assert v.nums == (0, 1) and v.den == 1
    x = MultiPoly.variable(1, 0)
    for p in (x * Fraction(1, 2) + x * Fraction(1, 2), (x * Fraction(2, 3)) * Fraction(3, 2), x * Fraction(-2, -2)):
        assert p.terms == {(1,): 1} and type(p.terms[(1,)]) is int


# -- the kernel against a Fraction reference ------------------------------------
# A reference scalar is a dict name -> nonzero Fraction; a reference group maps
# each name to its rational value, or to None for pi.

PI_LO = Fraction(314159265358979, 10**14)
PI_HI = PI_LO + Fraction(1, 10**14)


def _ref_combination(pairs):
    """Sum of k * ref over ``(k, ref)`` pairs, zeros dropped."""
    out = {}
    for k, ref in pairs:
        for name, c in ref.items():
            out[name] = out.get(name, 0) + k * Fraction(c)
    return {name: c for name, c in out.items() if c}


def _ref_sign(values, ref):
    lo = hi = Fraction(0)
    for name, c in ref.items():
        r = values[name]
        glo, ghi = (PI_LO, PI_HI) if r is None else (r, r)
        lo, hi = lo + min(c * glo, c * ghi), hi + max(c * glo, c * ghi)
    assert lo > 0 or hi < 0 or lo == hi == 0, ref
    return (lo > 0) - (hi < 0)


def _assert_scalar(s, ref, group):
    """``s`` lies in ``group``, holds exactly ``ref`` and shows it in the normal form."""
    _assert_canonical(group, s)
    assert dict(s.coeffs) == ref, (s, ref)


def _equivalence_groups():
    """(group, values, other groups with the same names) per row family."""
    h = Fraction(-5, 3)
    with_h = [unit_generator(), IndependentGenerator("h", rational=h), pi_generator()]
    return [
        (standard_group(), {"1": 1, "pi": None},
         [standard_group(), ValueGroup([pi_generator(), unit_generator()])]),
        (ValueGroup(with_h), {"1": 1, "h": h, "pi": None},
         [ValueGroup(with_h), ValueGroup(with_h[::-1])]),
    ]


# the tower's values 3/2, 13/4 and 53/8, partners that make their sums
# integral (1/2, 3/4, 11/8), and pi-mixed coefficients over the same denominators
TOWER_COEFFS = (Fraction(3, 2), Fraction(13, 4), Fraction(53, 8), Fraction(1, 2), Fraction(3, 4),
                Fraction(11, 8), Fraction(-3, 2), Fraction(-13, 4), 1, -2, 0)
EQUIVALENCE_FACTORS = (0, 1, 2, -3, Fraction(1, 2), Fraction(2, 3), Fraction(-4, 13), Fraction(8, 53), Fraction(16, 1))


def _equivalence_refs(names, rng):
    refs = [{"1": c} for c in TOWER_COEFFS if c]
    refs += [{"1": Fraction(3, 2), "pi": Fraction(-1, 2)}, {"1": Fraction(13, 4), "pi": Fraction(-1, 4)},
             {"pi": Fraction(53, 8)}, {}]
    if "h" in names:
        refs += [{"h": Fraction(3, 2), "1": Fraction(5, 2)}, {"h": Fraction(-13, 4)}, {"h": 1, "pi": Fraction(1, 8)}]
    for _ in range(12):
        ref = {name: rng.choice(TOWER_COEFFS) for name in names if rng.randrange(3)}
        refs.append({name: c for name, c in ref.items() if c})
    return refs


def test_kernel_equals_the_fraction_reference():
    # scalar arithmetic on one-entry elements, each result read back as its scalar
    rng = random.Random(SEED + 11)
    rows = 0
    for group, values, others in _equivalence_groups():
        refs = _equivalence_refs(group.names, rng)
        for ra in refs:
            a = Scalar(group, ra)
            ea = _one(a)
            _assert_scalar(a, ra, group)
            assert a.sign() == _ref_sign(values, ra) == ea.sign()
            _assert_scalar(_block(-ea), _ref_combination([(-1, ra)]), group)
            for k in EQUIVALENCE_FACTORS:
                want = _ref_combination([(k, ra)])
                _assert_scalar(_block(ea * k), want, group)
                _assert_scalar(_block(k * ea), want, group)
            for n in (1, 2, 3, 8):
                (q,) = div_by_positive_int(ea, n).entries
                _assert_scalar(q, _ref_combination([(Fraction(1, n), ra)]), group)
            for other in (group, *others):
                rb = rng.choice(refs)
                b = Scalar(other, rb)
                eb = _one(b)
                _assert_scalar(_block(ea + eb), _ref_combination([(1, ra), (1, rb)]), group)
                _assert_scalar(_block(ea - eb), _ref_combination([(1, ra), (-1, rb)]), group)
                _assert_scalar(_block(eb - ea), _ref_combination([(1, rb), (-1, ra)]), other)
                want = _ref_sign(values, _ref_combination([(1, ra), (-1, rb)]))
                assert compare(ea, eb) == want
                assert compare(GroupElement((a, b)), GroupElement((b, a))) == want
                assert ((ea < eb), (ea <= eb), (ea > eb), (ea >= eb)) == (want < 0, want <= 0, want > 0, want >= 0)
                ks = (rng.choice(EQUIVALENCE_FACTORS), rng.choice(EQUIVALENCE_FACTORS), Fraction(3, 2))
                (got,) = linear_combination(ks, [ea, eb, ea]).entries
                lead = next((s for k, s in zip(ks, (a, b, a)) if k), a)
                _assert_scalar(got, _ref_combination(zip(ks, (ra, rb, ra))), lead.group)
                assert (a == b) == (ra == rb) == (ea == eb)
                twin = Scalar(other, ra)
                assert compare(ea, _one(twin)) == 0
                for x, y in ((a, b), (a, twin)):
                    if x == y:
                        assert hash(x) == hash(y) and hash(_one(x)) == hash(_one(y))
                rows += 1
    assert rows == 3 * (26 + 29)  # each reference scalar against three groups
    # the tower's values with the partners that make them integral
    g = standard_group()
    for x, y, total in ((Fraction(3, 2), Fraction(1, 2), 2), (Fraction(13, 4), Fraction(3, 4), 4),
                        (Fraction(53, 8), Fraction(11, 8), 8)):
        a, b = _one(g.scalar(x, pi=x)), _one(g.scalar(y, pi=-x))
        lc = linear_combination([1, 1], [a, b])
        for v in (a + b, lc, a * 2 - b * 2 + _one(g.scalar(4 * y - total, pi=-4 * x))):
            assert _block(v).coeffs == (("1", total),) and type(_block(v).coeffs[0][1]) is int


# -- flat elements against a Fraction reference ---------------------------------
# A reference element is a list of reference scalars, one per block.


def _ref_lex_sign(values, blocks):
    """Lexicographic sign of a reference element: that of its first nonzero block."""
    for ref in blocks:
        if ref:
            return _ref_sign(values, ref)
    return 0


def _ref_sum(pairs):
    """Blockwise sum of k * reference element over ``(k, blocks)`` pairs."""
    pairs = list(pairs)
    return [_ref_combination([(k, blocks[i]) for k, blocks in pairs]) for i in range(len(pairs[0][1]))]


def _assert_flat(v, group, ref):
    """``v`` is canonical and flat in ``group`` and holds exactly the reference element ``ref``."""
    assert v.group is group and v.rank == len(ref)
    assert type(v.nums) is tuple and len(v.nums) == v.rank * len(group.names)
    assert all(type(n) is int for n in v.nums) and type(v.den) is int and v.den > 0
    assert math.gcd(v.den, *v.nums) == 1
    assert [dict(s.coeffs) for s in v.entries] == ref, (v, ref)


def _ref_block(names, rng):
    """A reference scalar with mixed denominators, zero one time in four."""
    if not rng.randrange(4):
        return {}
    ref = {name: Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 8))) for name in names if rng.randrange(3)}
    return {name: c for name, c in ref.items() if c}


def test_flat_elements_equal_the_fraction_reference():
    rng = random.Random(SEED + 12)
    rows = 0
    for group, values, others in _equivalence_groups():
        for rank in (1, 2, 3):
            for _ in range(12):
                ra, rb = ([_ref_block(group.names, rng) for _ in range(rank)] for _ in range(2))
                other = rng.choice((group, *others))
                a = GroupElement(tuple(Scalar(group, r) for r in ra))
                b = GroupElement(tuple(Scalar(other, r) for r in rb))
                _assert_flat(a, group, ra)
                _assert_flat(b, other, rb)
                _assert_flat(a + b, group, _ref_sum([(1, ra), (1, rb)]))
                _assert_flat(a - b, group, _ref_sum([(1, ra), (-1, rb)]))
                _assert_flat(b - a, other, _ref_sum([(1, rb), (-1, ra)]))
                _assert_flat(-a, group, _ref_sum([(-1, ra)]))
                for k in (0, 1, -3, 4, Fraction(1, 2), Fraction(-8, 3), Fraction(6, 3)):
                    _assert_flat(a * k, group, _ref_sum([(k, ra)]))
                    _assert_flat(k * a, group, _ref_sum([(k, ra)]))
                for n in (1, 2, 6):
                    _assert_flat(div_by_positive_int(a, n), group, _ref_sum([(Fraction(1, n), ra)]))
                for extra in (1, 2):
                    _assert_flat(a.lift(extra), group, [{}] * extra + ra)
                want = _ref_lex_sign(values, _ref_sum([(1, ra), (-1, rb)]))
                assert compare(a, b) == want == -compare(b, a) == (a > b) - (a < b)
                assert (a == b) == (ra == rb) == (b == a)
                twin = GroupElement(tuple(Scalar(rng.choice(others), r) for r in ra))
                assert a == twin and twin == a and hash(a) == hash(twin) and compare(a, twin) == 0
                ks = [rng.choice((0, 2, -1, Fraction(3, 4), Fraction(-5, 2))) for _ in range(3)]
                lead = next((v for k, v in zip(ks, (a, b, twin)) if k), a)
                _assert_flat(linear_combination(ks, [a, b, twin]), lead.group, _ref_sum(zip(ks, (ra, rb, ra))))
                # Laurent exponent vectors; the first weight's group holds the least value
                exps = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(1, 5))]
                sums = [_ref_sum(zip(e, (ra, rb, ra))) for e in exps]
                least = sums[0]
                for s in sums[1:]:
                    if _ref_lex_sign(values, _ref_sum([(1, s), (-1, least)])) < 0:
                        least = s
                _assert_flat(least_value([a, b, twin], exps), group, least)
                assert least_value([a, b, twin], exps) == min(
                    (linear_combination(e, [a, b, twin]) for e in exps), key=functools.cmp_to_key(compare))
                rows += 1
    assert rows == 2 * 3 * 12
    with pytest.raises(RankMismatch):
        least_value([standard_group().zero(1), standard_group().zero(2)], [(1, 0)])
