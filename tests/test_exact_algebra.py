import hashlib
import random
from fractions import Fraction

import pytest

from valmono.errors import NonMonicDivisor
from valmono.exact_algebra import (
    MultiPoly,
    RationalFunction,
    UniPoly,
    divided_derivative,
    euclid_div,
    ev_add,
    ev_leq,
    ev_min,
    ev_sub,
    q_expansion,
    to_multipoly,
    to_unipoly,
)

from reference_algebra import ev_gcd, from_q_expansion, x_power

SEED = 20260814

# two base variables x, y; distinguished variable is the UniPoly layer
X2 = 2
x = MultiPoly.variable(X2, 0)
y = MultiPoly.variable(X2, 1)


def rf(p) -> RationalFunction:
    return RationalFunction.of(p, X2)


def random_multipoly(rng: random.Random, width: int, max_terms=4, max_exp=3) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(width))
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return MultiPoly(width, terms)


def random_unipoly(rng: random.Random, width: int, max_deg=4) -> UniPoly:
    return UniPoly(
        width,
        [random_multipoly(rng, width, max_terms=3, max_exp=2) for _ in range(rng.randint(0, max_deg + 1))],
    )


def _fraction_terms(p: MultiPoly) -> list:
    """p's terms sorted, each coefficient read as a Fraction, so digests see values only."""
    return sorted((e, Fraction(c)) for e, c in p.terms.items())


def _is_normal(c) -> bool:
    """The rational normal form: a nonzero int, or a Fraction with denominator > 1."""
    return type(c) is int and c != 0 or type(c) is Fraction and c.denominator > 1


def test_exponent_vector_helpers():
    assert ev_add((1, 2), (3, -1)) == (4, 1)
    assert ev_sub((1, 2), (3, -1)) == (-2, 3)
    assert ev_min((1, 2), (3, -1)) == (1, -1)
    assert ev_leq((1, 0), (1, 2))
    assert not ev_leq((2, 0), (1, 2))
    assert ev_gcd((4, -6, 0)) == 2
    assert ev_gcd((0, 0)) == 0


def test_multipoly_ring_identities():
    p = x * x - y
    q = x + 2 * y
    assert p * q == q * p
    assert (p + q) - q == p
    assert p * MultiPoly.one(X2) == p
    assert p * MultiPoly.zero(X2) == MultiPoly.zero(X2)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_multipoly_stores_nonzero_fractions():
    # zeros dropped, integral Fractions stored as ints, other Fractions kept as they are
    half = Fraction(1, 2)
    p = MultiPoly(X2, {(1, 0): 2, (0, 1): 0, (0, 0): Fraction(3, 4), (2, 2): half, (3, 0): Fraction(6, 3)})
    assert p.terms == {(1, 0): Fraction(2), (0, 0): Fraction(3, 4), (2, 2): half, (3, 0): 2}
    assert all(_is_normal(c) for c in p.terms.values()) and p.terms[(2, 2)] is half
    with pytest.raises(ValueError, match="exponent arity 3 != width 2"):
        MultiPoly(X2, {(1, 0, 0): 1})


def test_multipoly_laurent_shift():
    p = (x**2) * y + x
    shifted = p.shift((-1, 0))
    assert shifted == x * y + MultiPoly.monomial(X2, (0, 0)) and shifted.is_laurent_free()
    assert p.shift((-2, -1)).terms == {(0, 0): Fraction(1), (-1, -1): Fraction(1)}


def test_rational_function_monomial_denominator_folds():
    # single-term denominators become Laurent numerators with denominator 1
    r = RationalFunction(x, (x**2) * y)
    assert r.den == MultiPoly.one(X2)
    assert r.num.terms == {(-1, -1): Fraction(1)}


def test_rational_function_laurent_free():
    # the denominator's common factor x*y^2 folds into the numerator as
    # x*y^-2 + x^-1*y^-1; the least clearing monomial is that factor again
    r = RationalFunction(x**2 + y, x * y**2 * (x + y))
    assert r.num.terms == {(1, -2): Fraction(1), (-1, -1): Fraction(1)}
    assert r.laurent_free() == (x**2 + y, x * y**2 * (x + y))
    # only negative exponents are cleared; polynomial numerators stay as they are
    assert RationalFunction(x.shift((0, -1)) + y**2, x + y).laurent_free() == (x + y**3, x * y + y**2)
    s = RationalFunction(x + y, x - y)
    assert s.laurent_free() == (s.num, s.den)
    assert RationalFunction.zero(X2).laurent_free() == (MultiPoly.zero(X2), MultiPoly.one(X2))


def test_rational_function_cross_multiplication_equality():
    # (x^2 - y^2)/(x - y) equals x + y without any gcd computation
    assert RationalFunction(x * x - y * y, x - y) == rf(x + y)
    assert RationalFunction(x, x + y) != rf(1)


def test_rational_function_denominator_normal_form():
    r = RationalFunction(x, 2 * x + 2 * y)
    assert r.den == x + y
    assert r.num == Fraction(1, 2) * x
    # common monomial factors of the denominator are cleared
    s = RationalFunction(x * y, x * y + x * x * y)
    assert s.den == MultiPoly.one(X2) + x
    assert s.num == MultiPoly.one(X2)


def test_rational_function_field_identities():
    rng = random.Random(SEED)
    for _ in range(60):
        a = RationalFunction(random_multipoly(rng, X2), random_multipoly(rng, X2) + 1)
        b = RationalFunction(random_multipoly(rng, X2), random_multipoly(rng, X2) + 1)
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == rf(0)
        if not b.is_zero():
            assert (a / b) * b == a
        assert a * (b + 1) == a * b + a


def test_unipoly_basics():
    X = UniPoly.x(X2)
    p = X**2 - (x**2) * y
    assert p.degree == 2
    assert p.is_monic()
    assert p.coeff(0) == -(x**2) * y
    assert p.coeff(1).is_zero()
    assert (X + 1) * (X - 1) == X**2 - 1


def test_unipoly_equality_with_other_operands():
    # another width or an operand that is no polynomial is unequal, as for MultiPoly
    X = UniPoly.x(X2)
    for other in (None, "z", 1.5, object(), UniPoly.x(3), UniPoly.zero(1)):
        assert not X == other and X != other
    assert X.__eq__(None) is NotImplemented and X.__eq__("z") is NotImplemented
    assert X.__eq__(UniPoly.x(3)) is False and x.__eq__(MultiPoly.variable(3, 0)) is False
    assert x.__eq__(None) is NotImplemented
    # constants, polynomials and fractions over 1 compare as the constant UniPoly, as before
    assert UniPoly.constant(X2, 3) == 3 and UniPoly.constant(X2, Fraction(1, 2)) == Fraction(1, 2)
    assert UniPoly.constant(X2, x * y) == x * y and UniPoly.constant(X2, x) == rf(x)
    assert UniPoly.zero(X2) == 0 and X != x and X != 0
    assert UniPoly(X2, [x, 1]) == UniPoly(X2, [rf(x), MultiPoly.one(X2)])


def test_unipoly_coefficients_are_polynomials():
    """A coefficient is a MultiPoly, a rational constant, or a fraction over 1, which is unwrapped."""
    p = x * y - 2
    u = UniPoly(X2, [rf(p), 3, Fraction(1, 2), p.shift((-1, 0))])
    assert all(type(c) is MultiPoly for c in u.coeffs)
    assert u.coeffs == (p, MultiPoly.constant(X2, 3), MultiPoly.constant(X2, Fraction(1, 2)), p.shift((-1, 0)))
    assert UniPoly.constant(X2, rf(p)).coeffs == (p,)
    for bad in (RationalFunction(p, x + 1), 1.5, True, "x", UniPoly.x(X2)):
        with pytest.raises(TypeError):
            UniPoly(X2, [bad])
        with pytest.raises(TypeError):
            UniPoly.x(X2).scale(bad)


@pytest.mark.parametrize("cls", [MultiPoly, UniPoly])
def test_powers_equal_repeated_products_and_square_only_for_bits_still_to_use(cls, monkeypatch):
    p = x * y - 2 * x + Fraction(1, 3) if cls is MultiPoly else UniPoly(X2, [x - 1, y, Fraction(2, 3)])
    one = cls.one(X2)
    mul = cls.__mul__
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    product = one
    for k in range(10):
        calls.clear()
        monkeypatch.setattr(cls, "__mul__", counted)
        power = p**k
        monkeypatch.setattr(cls, "__mul__", mul)
        assert power == product, k
        # one product per set bit, one squaring per bit after the first
        assert len(calls) == bin(k).count("1") + max(k.bit_length() - 1, 0), k
        product = product * p


def test_divided_derivative_golden():
    X = UniPoly.x(X2)
    q = X**2 - (x**2) * y
    assert divided_derivative(X**2, 1) == 2 * X
    assert divided_derivative(X**2, 2) == UniPoly.one(X2)
    assert divided_derivative(q, 1) == 2 * X
    assert divided_derivative(q, 2) == UniPoly.one(X2)
    assert divided_derivative(q, 3).is_zero()
    with pytest.raises(ValueError):
        divided_derivative(q, 0)


def test_divided_derivative_leibniz():
    """Convolution rule for divided derivatives, with order 0 the identity."""
    rng = random.Random(SEED + 1)

    def dd(p, b):
        return p if b == 0 else divided_derivative(p, b)

    for _ in range(40):
        p = random_unipoly(rng, X2)
        s = random_unipoly(rng, X2)
        for b in (1, 2, 3):
            lhs = dd(p * s, b)
            rhs = UniPoly.zero(X2)
            for r in range(b + 1):
                rhs = rhs + dd(p, r) * dd(s, b - r)
            assert lhs == rhs


def test_euclid_div_golden():
    X = UniPoly.x(X2)
    q = X**2 - (x**2) * y
    quot, rem = euclid_div(X**3, q)
    assert quot == X
    assert rem == X.scale(x**2 * y)
    assert quot * q + rem == X**3
    assert rem.degree < q.degree


def test_euclid_div_requires_monic():
    X = UniPoly.x(X2)
    with pytest.raises(NonMonicDivisor):
        euclid_div(X**2, X.scale(x))
    with pytest.raises(NonMonicDivisor):
        euclid_div(X**2, UniPoly.one(X2))


def test_euclid_div_property():
    rng = random.Random(SEED + 2)
    for _ in range(50):
        p = random_unipoly(rng, X2, max_deg=5)
        q = x_power(X2, rng.randint(1, 3)) + random_unipoly(rng, X2, max_deg=0)
        quot, rem = euclid_div(p, q)
        assert quot * q + rem == p
        assert rem.degree < q.degree


def test_q_expansion_golden():
    # X^4 along X^2 - x^2 y: constant x^4 y^2, middle 2 x^2 y, top 1
    X = UniPoly.x(X2)
    q = X**2 - (x**2) * y
    parts = q_expansion(X**4, q)
    assert parts == [
        UniPoly.constant(X2, x**4 * y**2),
        UniPoly.constant(X2, 2 * x**2 * y),
        UniPoly.one(X2),
    ]
    assert from_q_expansion(parts, q) == X**4


def test_q_expansion_of_key_itself():
    X = UniPoly.x(X2)
    q = X**2 - (x**2) * y
    assert q_expansion(q, q) == [UniPoly.zero(X2), UniPoly.one(X2)]
    assert q_expansion(UniPoly.zero(X2), q) == []


def test_q_expansion_round_trip():
    rng = random.Random(SEED + 3)
    for _ in range(40):
        p = random_unipoly(rng, X2, max_deg=6)
        q = x_power(X2, rng.randint(1, 3)) + random_unipoly(rng, X2, max_deg=0)
        parts = q_expansion(p, q)
        assert all(c.degree < q.degree for c in parts)
        assert from_q_expansion(parts, q) == p


def _expansion_by_division(p: UniPoly, q: UniPoly) -> list:
    """The q-adic expansion by repeated Euclidean division, the general rule."""
    out = []
    while not p.is_zero():
        p, rem = euclid_div(p, q)
        out.append(rem)
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_q_expansion_along_a_variable_power_regroups_the_coefficients(m):
    # along z^m the blocks p.coeffs[j*m:(j+1)*m] are the expansion that
    # division gives, Laurent coefficients and all-zero blocks included
    rng = random.Random(SEED + 7 + m)
    q = x_power(X2, m)
    gap = [MultiPoly.zero(X2)] * m
    inputs = [UniPoly.zero(X2)]
    for _ in range(30):
        p = _recast(rng, rng.choice(["polynomial", "laurent"]), random_unipoly(rng, X2, max_deg=7))
        inputs.append(p)
        if not p.is_zero():
            # an all-zero middle block between two nonzero ones
            inputs.append(UniPoly(X2, (list(p.coeffs) + gap)[:m] + gap + [MultiPoly.monomial(X2, (-1, 1))]))
    assert any(len(p.coeffs) > 2 * m and all(c.is_zero() for c in p.coeffs[m:2 * m]) for p in inputs)
    assert any(not c.is_laurent_free() for p in inputs for c in p.coeffs)
    for p in inputs:
        parts = q_expansion(p, q)
        assert parts == _expansion_by_division(p, q)
        assert parts == [UniPoly(X2, p.coeffs[i:i + m]) for i in range(0, len(p.coeffs), m)]
        assert all(c.degree < m for c in parts)
        assert from_q_expansion(parts, q) == p
    assert q_expansion(UniPoly.zero(X2), q) == []


@pytest.mark.parametrize("key", ["z-x", "K2", "K3"])
def test_q_expansion_along_a_monic_key_matches_division(key):
    # the expansion peels every remainder off one working list; it must
    # equal repeated Euclidean division and sum back to the input
    X = UniPoly.x(X2)
    K2 = X**2 - rf(x**3)
    q = {"z-x": X - rf(x), "K2": K2, "K3": K2**2 - X.scale(x**5)}[key]
    rng = random.Random(SEED + 11 + q.degree)
    for degree in range(13):
        for kind in ("polynomial", "laurent"):
            top = random_multipoly(rng, X2, max_terms=3, max_exp=2) + MultiPoly.monomial(X2, (2, 3))
            coeffs = [random_multipoly(rng, X2, max_terms=3, max_exp=2) for _ in range(degree)] + [top]
            p = _recast(rng, kind, UniPoly(X2, coeffs))
            assert p.degree == degree
            parts = q_expansion(p, q)
            assert parts == _expansion_by_division(p, q)
            assert len(parts) == degree // q.degree + 1
            assert all(c.degree < q.degree for c in parts)
            assert from_q_expansion(parts, q) == p


def _recast(rng, kind: str, p: UniPoly) -> UniPoly:
    """p with each coefficient kept or given a Laurent monomial factor."""
    if kind == "polynomial":
        return p
    return UniPoly(X2, [c * MultiPoly.monomial(X2, (-rng.randint(0, 2), -rng.randint(0, 2))) for c in p.coeffs])


def _kernel_inputs():
    """(kind, divisor degree, p, q) rows: three draws per kind and degree 1-4, deg p > deg q."""
    rng = random.Random(SEED + 5)
    for kind in ("polynomial", "laurent"):
        for m in range(1, 5):
            for _ in range(3):
                d = m + rng.randint(1, 4)
                top = MultiPoly.monomial(X2, (rng.randint(0, 2), rng.randint(0, 2)), rng.choice((1, -2, Fraction(3, 2))))
                p = _recast(rng, kind, random_unipoly(rng, X2, max_deg=d - 1) + x_power(X2, d).scale(top))
                q = x_power(X2, m) + _recast(rng, kind, random_unipoly(rng, X2, max_deg=m - 1))
                yield kind, m, p, q


def _kernel_digest(polys) -> str:
    # each coefficient c as the fraction c/1, the form the table was recorded in
    one = _fraction_terms(MultiPoly.one(X2))
    text = repr([[(_fraction_terms(c), one) for c in p.coeffs] for p in polys])
    return "/".join(str(len(p.coeffs)) for p in polys) + ":" + hashlib.sha256(text.encode()).hexdigest()[:12]


# euclid_div (quotient, remainder) and q_expansion parts on the seeded rows, as
# "coefficient count of each result/...:digest of every coefficient's sorted
# numerator and denominator terms", recorded when each division step built
# x^d * leading coefficient and subtracted its product with the divisor, and
# coefficients were fractions (the rows with other denominators are gone)
KERNEL_TABLE = (
    ("5/1:ac4e4b01e99a", "1/1/1/1/1/1:7cdf880ce507"),
    ("3/1:d46ce2574b6b", "1/1/1/1:4d29e171d4e0"),
    ("4/1:d90312a7b539", "1/1/0/0/1:f39006e467a6"),
    ("5/2:618897ac8724", "2/2/2/1:a93b9a0b517c"),
    ("3/1:84346d3c4a37", "1/0/1:d7a11d0cdbd8"),
    ("5/2:8de91eb60941", "2/0/0/1:eea5d79eccca"),
    ("4/2:679fdd61ce0c", "2/2/1:a0f44d168c1b"),
    ("5/3:3c10ddb13e25", "3/2/2:d639032c7cf2"),
    ("3/3:1b19a828f72b", "3/3:db5d451bf109"),
    ("5/0:571456162154", "0/0/1:c827a7b55906"),
    ("2/4:532ba01448a0", "4/2:2db064bf3bce"),
    ("4/3:725a2bb3a9c9", "3/4:9bfe3154cb22"),
    ("2/0:760900fced9e", "0/0/1:92e8e27992d1"),
    ("5/1:2f03f7d8649a", "1/1/1/1/1/1:f14769d1fba3"),
    ("3/1:475875752ebf", "1/1/1/1:2921caa5a027"),
    ("2/2:fe68212cce02", "2/2:bc080dca65c6"),
    ("3/2:0ba0b9a12d0f", "2/0/1:96a66aea0478"),
    ("2/2:bfc328fa6013", "2/2:61fde6ba5995"),
    ("2/3:8895b762c5c6", "3/2:aa8162fba792"),
    ("2/3:3561f69e7bd1", "3/2:875149b156c5"),
    ("5/3:f170821b8178", "3/3/2:7f02977d1548"),
    ("2/4:fed0f643e624", "4/2:6ef69fd2eca9"),
    ("4/4:21cf1bd28f8f", "4/4:0fee345c9aab"),
    ("4/4:cfef922ef3a2", "4/4:c58fbea0aba6"),
)


def test_kernel_output_table():
    rows = list(_kernel_inputs())
    assert len(rows) == len(KERNEL_TABLE)
    for (kind, m, p, q), want in zip(rows, KERNEL_TABLE):
        quot, rem = euclid_div(p, q)
        parts = q_expansion(p, q)
        assert (_kernel_digest([quot, rem]), _kernel_digest(parts)) == want, (kind, m)
        for r in [quot, rem, *parts]:
            for c in r.coeffs:
                assert type(c) is MultiPoly, (kind, m)
                assert all(_is_normal(v) for v in c.terms.values())


def test_euclid_div_keeps_the_degree_check(monkeypatch):
    # a divisor with leading coefficient 2 that claims to be monic
    X = UniPoly.x(X2)
    q = X.scale(2) + rf(x)
    monkeypatch.setattr(UniPoly, "is_monic", lambda self: True)
    with pytest.raises(ArithmeticError, match="division failed to reduce the degree"):
        euclid_div(X**3 + rf(y), q)


def test_multipoly_unipoly_round_trip():
    p = MultiPoly(
        3,
        {
            (2, 1, 0): Fraction(-1),
            (0, 0, 2): Fraction(1),
            (1, 0, 1): Fraction(3, 2),
        },
    )
    u = to_unipoly(p)
    assert u.degree == 2
    assert u.coeff(0) == -(x**2) * y
    assert to_multipoly(u) == p
    rng = random.Random(SEED + 4)
    for _ in range(30):
        q = random_multipoly(rng, 3, max_terms=5)
        assert to_multipoly(to_unipoly(q)) == q


def _fraction_inputs() -> list:
    """Seeded polynomial, Laurent and rational fractions, then fractions whose denominator
    normalises to 1 in different ways, single-term denominators that fold, and a one over a
    denominator that is not 1."""
    rng = random.Random(SEED + 6)
    out = []
    for kind in ("polynomial", "laurent", "rational"):
        for _ in range(3):
            num = random_multipoly(rng, X2, max_terms=3, max_exp=2) + rng.randint(-2, 2)
            if kind == "laurent":
                num = num.shift((-rng.randint(0, 2), -rng.randint(0, 2)))
            den = x + rng.randint(1, 3) * y + rng.randint(0, 2) if kind == "rational" else None
            out.append((kind, RationalFunction(num, den)))
    p = x * y - 2 * y**2 + Fraction(1, 3)
    a = RationalFunction(x + y, x - 2 * y)
    out += [
        ("den None", RationalFunction(p)),
        ("explicit den 1", RationalFunction(p, MultiPoly(X2, {(0, 0): 1}))),
        ("x/x", rf(x) / rf(x)),
        ("x*p/x", RationalFunction(x * p, x)),
        ("of int", RationalFunction.of(3, X2)),
        ("of Fraction", RationalFunction.of(Fraction(-2, 3), X2)),
        ("of 1", RationalFunction.of(1, X2)),
        ("a + -a", a + (-a)),
        ("a - a", a - a),
        ("p - p", rf(p) - rf(p)),
        ("den 2xy", RationalFunction(p, 2 * x * y)),
        ("den 1/2", RationalFunction(p, MultiPoly.constant(X2, Fraction(1, 2)))),
        ("den y^-1", RationalFunction(x + 1, y.shift((0, -2)))),
        ("(x+y)/(x+y)", RationalFunction(x + y, x + y)),
        ("a", a),
    ]
    return out


def _fraction_rows():
    """(label, a, b): each input with the next one and with a seeded partner."""
    values = _fraction_inputs()
    rng = random.Random(SEED + 7)
    for i, (la, a) in enumerate(values):
        for lb, b in (values[(i + 1) % len(values)], values[rng.randrange(len(values))]):
            yield f"{la} | {lb}", a, b


def _fraction_results(a: RationalFunction, b: RationalFunction) -> list:
    """Every operation of the table on one pair; fractions and polynomials stay objects."""
    out = [a + b, a - b, a * b, -a, a**0, a**2, a**3, b + 1, 1 - b, b * 1, 1 * b, b * Fraction(1), b * Fraction(-3, 2)]
    out += [a / b if not b.is_zero() else "b = 0", a**-1 if not a.is_zero() else "a = 0"]
    out += [a == b, a == 1, b == Fraction(-2, 3), a.is_one(), b.is_one(), a.num.is_one(), a.den.is_one()]
    # a UniPoly takes a fraction as a coefficient only when its denominator is 1
    try:
        out += [UniPoly(X2, [b, a]).is_monic(), UniPoly(X2, [a, b]).is_monic(), (UniPoly.x(X2).scale(b) + a).is_monic()]
        m = to_multipoly(UniPoly(X2, [a, b, a * b]))
    except TypeError as exc:
        out.append(str(exc))
    else:
        out += [m, *to_unipoly(m).coeffs]
    return out


def _fraction_digest(results) -> str:
    def text(r):
        if isinstance(r, RationalFunction):
            return (_fraction_terms(r.num), _fraction_terms(r.den))
        if isinstance(r, MultiPoly):
            return (r.width, _fraction_terms(r))
        return r

    return hashlib.sha256(repr([text(r) for r in results]).encode()).hexdigest()[:12]


# every operation on the seeded pairs, as "digest of each result's sorted numerator
# and denominator terms (booleans and error messages as they are)", recorded when every
# fraction built a fresh 1 polynomial as its denominator and polynomial sums started
# from Fraction(0); the UniPoly and to_multipoly entries re-recorded when UniPoly
# coefficients became polynomials (the fraction entries kept their values)
FRACTION_TABLE = (
    ('polynomial | polynomial', '7f8b32d874d7'),
    ('polynomial | polynomial', '0215805284dc'),
    ('polynomial | polynomial', 'c106f425d45a'),
    ('polynomial | of Fraction', '109daabe64d4'),
    ('polynomial | laurent', '9b93133cd490'),
    ('polynomial | rational', '9a85435d9eb7'),
    ('laurent | laurent', 'a7bc900dc952'),
    ('laurent | of Fraction', '0f945fca80d2'),
    ('laurent | laurent', 'a63d0b106388'),
    ('laurent | a - a', 'a5392e1d9bff'),
    ('laurent | rational', 'd845251211a8'),
    ('laurent | den None', '25c59dd3950b'),
    ('rational | rational', 'c2c407a36ea5'),
    ('rational | rational', 'ed2d192b42e8'),
    ('rational | rational', '2f554dc45901'),
    ('rational | den y^-1', 'ad8f79e9a37c'),
    ('rational | den None', '17f4b5f4d1ff'),
    ('rational | laurent', '47ff6b1c2f20'),
    ('den None | explicit den 1', '6e615df91166'),
    ('den None | (x+y)/(x+y)', '4daee56b0186'),
    ('explicit den 1 | x/x', '568d6da77a15'),
    ('explicit den 1 | rational', '56d01355a474'),
    ('x/x | x*p/x', 'f7a68093acd7'),
    ('x/x | of int', 'd2067df55f1b'),
    ('x*p/x | of int', '9fb9d44353ad'),
    ('x*p/x | a', 'c3c37eefac58'),
    ('of int | of Fraction', '9c6116c3d77f'),
    ('of int | explicit den 1', '4ba22e38c2f9'),
    ('of Fraction | of 1', 'bc61562f9982'),
    ('of Fraction | laurent', '8fb07c99e0aa'),
    ('of 1 | a + -a', 'da7f9577f662'),
    ('of 1 | laurent', '468fbdf10fca'),
    ('a + -a | a - a', '4435c66140d7'),
    ('a + -a | of 1', 'cf0e04ba3fe4'),
    ('a - a | p - p', '4435c66140d7'),
    ('a - a | x/x', 'cf0e04ba3fe4'),
    ('p - p | den 2xy', 'd80054f54f34'),
    ('p - p | of int', 'd4f7d6976316'),
    ('den 2xy | den 1/2', 'a0014da5ff67'),
    ('den 2xy | laurent', '956bd3fb4727'),
    ('den 1/2 | den y^-1', '12bce5e38db1'),
    ('den 1/2 | of 1', 'de47b9ba25c9'),
    ('den y^-1 | (x+y)/(x+y)', '3c97925ad57a'),
    ('den y^-1 | den 2xy', 'f561aceeaddc'),
    ('(x+y)/(x+y) | a', 'c8b6ad5b39cb'),
    ('(x+y)/(x+y) | explicit den 1', 'c097307dbb48'),
    ('a | polynomial', '4696718ce13c'),
    ('a | p - p', 'a98b8bbc2da6'),
)


def test_fraction_output_table():
    rows = list(_fraction_rows())
    assert [label for label, _, _ in rows] == [label for label, _ in FRACTION_TABLE]
    for (label, a, b), (_, want) in zip(rows, FRACTION_TABLE):
        results = _fraction_results(a, b)
        assert _fraction_digest(results) == want, label
        for r in results:
            parts = (r.num, r.den) if isinstance(r, RationalFunction) else (r,) if isinstance(r, MultiPoly) else ()
            assert all(_is_normal(v) for part in parts for v in part.terms.values()), label
            # denominator 1 is the shared polynomial 1
            if isinstance(r, RationalFunction) and r.den.terms == {(0, 0): 1}:
                assert r.den is MultiPoly.one(X2), label
