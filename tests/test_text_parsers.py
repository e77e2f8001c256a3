"""The text parsers against the reference parsers in ``reference_parsers.py``.

Seeded generated inputs, well-formed and malformed: every input gives the
same polynomial or element under both parsers (the same terms in the same
order, the same numerators over the same denominator), or the same error
message. The one intended difference is the whitespace rule: a space inside
a number or a name, which the reference deleted, is refused.
"""

import random
from fractions import Fraction

import pytest
import reference_parsers as ref

from valmono.errors import ParseError, RankMismatch
from valmono.ordered_value import (
    IndependentGenerator,
    ValueGroup,
    parse_element,
    parse_scalar,
    pi_generator,
    standard_group,
)
from valmono.serde import parse_polynomial

SEED = 20261019
NAMES = ["x", "y'", "z"]
WHITESPACE = "whitespace inside a number or a name in "

# -- polynomials ------------------------------------------------------------------


def _gap(rng):
    return rng.choice(["", "", " ", "  "])


def _poly_expr(rng, depth):
    parts = []
    for i in range(rng.randint(1, 3 - (depth > 1))):
        if i == 0:
            signs = rng.choice(["", "", "-", "+", "- -", "-+", "--"])
        else:
            signs = rng.choice(["+", "-", "- -", "+ -", "--", "-+-"])
        parts.append(_gap(rng) + signs + _gap(rng) + _poly_term(rng, depth))
    return "".join(parts)


def _poly_term(rng, depth):
    return (_gap(rng) + "*" + _gap(rng)).join(_poly_factor(rng, depth) for _ in range(rng.randint(1, 3)))


def _poly_factor(rng, depth):
    r = rng.random()
    if r < 0.25 - 0.05 * depth and depth < 3:
        atom = "(" + _poly_expr(rng, depth + 1) + ")"
    elif r < 0.3:
        atom = rng.choice(["(-1)", "(1)", "(-x)", "(-x*z)", "(2/2)", "(-y'*x^2)"])
    elif r < 0.6:
        atom = rng.choice(NAMES)
    elif r < 0.8:
        atom = str(rng.randint(0, 5))
    else:
        atom = f"{rng.randint(0, 7)}{_gap(rng)}/{_gap(rng)}{rng.randint(1, 5)}"
    r = rng.random()
    if r < 0.35:
        return f"{atom}^{rng.randint(0, 4)}"
    if r < 0.5:
        return f"{atom}^-{rng.randint(1, 4)}"
    return atom


def _mangled(rng, text):
    """``text`` with one character deleted or inserted, cut short, or replaced by a malformed string."""
    i = rng.randrange(len(text) + 1)
    r = rng.random()
    if r < 0.3:
        return text[:i] + text[i + 1:]
    if r < 0.8:
        return text[:i] + rng.choice("()+-*^/ x'0w2.,") + text[i:]
    if r < 0.9:
        return text[:i]
    return rng.choice(["", " ", "x +", "x^y", "x^(2)", "1/2/3", "x/y", "3/0*x", "x^", "x^-", "x^1/2",
                       "()", "(x", "x)", "x y", "w", "x^2^3", "0^-1", "2^-1", "(x+y)^-1", "(x-x)^-2",
                       "x^4/2", "x^-0", "0^0", "(x - x)^0", "y'^-2*y'^2"])


def _poly_outcome(parse, text):
    try:
        p = parse(text, NAMES)
    except ParseError as exc:
        return "error", str(exc)
    return p.width, [(e, c, type(c)) for e, c in p.terms.items()]


def test_parse_polynomial_matches_the_reference():
    rng = random.Random(SEED)
    outcomes = {"ok": 0, "error": 0}
    for n in range(1500):
        text = _poly_expr(rng, 0)
        if n % 3 == 0:
            text = _mangled(rng, text)
        got = _poly_outcome(parse_polynomial, text)
        assert got == _poly_outcome(ref.parse_polynomial, text), text
        outcomes["error" if got[0] == "error" else "ok"] += 1
    # both sides of the grammar are exercised
    assert outcomes["ok"] > 500 and outcomes["error"] > 200


def test_parse_polynomial_reads_terms_into_one_map():
    # the terms of this one count: the coefficient folds the sign, numbers and powers
    p = parse_polynomial("-x^2*y' - 4/3*x*y'*z + z^2", NAMES)
    assert p.terms == {(2, 1, 0): -1, (1, 1, 1): Fraction(-4, 3), (0, 0, 2): 1}
    assert parse_polynomial("2^3*x^2*x^-2 - 8", NAMES).is_zero()
    assert parse_polynomial("x - (x - y') + 2*(y' - z)*(y' + z)", NAMES) == parse_polynomial(
        "y' + 2*y'^2 - 2*z^2", NAMES)
    # a key that cancels and comes back takes its place at the end, as a sum of polynomials does
    assert list(parse_polynomial("x - x + y' + x", NAMES).terms) == [(0, 1, 0), (1, 0, 0)]


# -- scalars and elements ---------------------------------------------------------

GROUPS = {
    "standard": standard_group(),
    # no generator named "1", so a bare number has nowhere to go
    "rational": ValueGroup([pi_generator(), IndependentGenerator("h", rational=Fraction(3, 2))]),
}


def _scalar_text(rng, group):
    """A sum of 1-4 terms over ``group``, rarely on "bogus" or with a space inside a number or a name."""
    names = [name for name in group.names if name != "1"] * 8 + ["bogus"]
    bare = 0.3 if "1" in group.names else 0.02
    parts = []
    for i in range(rng.randint(1, 4)):
        sign = rng.choice(["", "", "-", "+"]) if i == 0 else rng.choice(["+", "-"])
        num = str(rng.randint(0, 120))
        if rng.random() < 0.5:
            num += f"{_gap(rng)}/{_gap(rng)}{rng.randint(1, 60)}"
        name = rng.choice(names)
        r = rng.random()
        body = num if r < bare else f"{num}{_gap(rng)}*{_gap(rng)}{name}" if r < 0.7 else name
        if rng.random() < 0.04:
            j = rng.randrange(1, len(body)) if len(body) > 1 else 0
            body = body[:j] + " " + body[j:]
        parts.append(_gap(rng) + sign + _gap(rng) + body)
    return "".join(parts) + _gap(rng)


def _element_text(rng, group, rank):
    blocks = [_scalar_text(rng, group) for _ in range(rank)]
    if rank == 1 and rng.random() < 0.5:
        return blocks[0]
    return "(" + ",".join(blocks) + ")"


def _mangled_element(rng, text):
    i = rng.randrange(len(text) + 1)
    r = rng.random()
    if r < 0.3:
        return text[:i] + text[i + 1:]
    if r < 0.8:
        return text[:i] + rng.choice("()+-*/ ,0p1h_") + text[i:]
    if r < 0.9:
        return text[:i]
    return rng.choice(["", " ", "( ,1)", "2**pi", "1+bogus", "(1,)", "1++2", "-", "3/0*pi", "pi*2", "2pi",
                       "inf", "-Infinity", "(0)", "(0, 0)", "1 0", "p i", "3/1 0", "(1, 2 0)", "1 +", "(1, 2"])


def _element_outcome(parse, group, text, rank):
    try:
        v = parse(group, text, rank=rank)
    except (ParseError, RankMismatch) as exc:
        return type(exc).__name__, str(exc)
    if not hasattr(v, "nums"):
        return "sentinel", v
    return v.rank, v.nums, v.den


@pytest.mark.parametrize("kind", GROUPS)
def test_parse_element_matches_the_reference(kind):
    group = GROUPS[kind]
    rng = random.Random(SEED + len(kind))
    seen = {"ok": 0, "error": 0, "whitespace": 0}
    for n in range(1500):
        rank = rng.randint(1, 3)
        text = _element_text(rng, group, rank)
        if n % 3 == 0:
            text = _mangled_element(rng, text)
        # ask for the rank written, none, or another one
        rank = rng.choice([rank, rank, rank, None, rng.randint(1, 3)])
        got = _element_outcome(parse_element, group, text, rank)
        want = _element_outcome(ref.parse_element, group, text, rank)
        if got[0] == "ParseError" and got[1].startswith(WHITESPACE):
            # the reference deleted the space that split a number or a name, and read the rest
            assert want[0] not in ("ParseError", "RankMismatch"), text
            assert _element_outcome(parse_element, group, text.replace(" ", ""), rank) == want, text
            seen["whitespace"] += 1
            continue
        assert got == want, text
        seen["error" if got[0] in ("ParseError", "RankMismatch") else "ok"] += 1
    assert seen["ok"] > 500 and seen["error"] > 500 and seen["whitespace"] > 30


def _scalar_outcome(parse, group, text):
    try:
        s = parse(group, text)
    except ParseError as exc:
        return "ParseError", str(exc)
    return s.nums, s.den


@pytest.mark.parametrize("kind", GROUPS)
def test_parse_scalar_matches_the_reference(kind):
    group = GROUPS[kind]
    rng = random.Random(SEED + 7 * len(kind))
    for _ in range(500):
        text = _scalar_text(rng, group)
        got = _scalar_outcome(parse_scalar, group, text)
        want = _scalar_outcome(ref.parse_scalar, group, text)
        if got == ("ParseError", WHITESPACE + repr(text)):
            assert want[0] != "ParseError", text
            got = _scalar_outcome(parse_scalar, group, text.replace(" ", ""))
        assert got == want, text


def test_whitespace_stands_between_tokens_only():
    group = standard_group()
    one_plus_pi = parse_element(group, "1+pi")
    for text in ["1\t+pi", "1 +\tpi", "\n1\n+\npi\n", "1 + pi", " + 1 + 1 * pi "]:
        assert parse_element(group, text) == one_plus_pi, text
    assert parse_element(group, "(3 / 2\t*\tpi, - 1)") == parse_element(group, "(3/2*pi, -1)")
    for text in ["1 0", "p i", "3/1 0", "1 0*pi", "2*p i", "(1, 2 0)", "(0 0, 1)"]:
        with pytest.raises(ParseError, match="whitespace inside a number or a name"):
            parse_element(group, text)
    # the zero that the reference read from "0 0" would have widened to rank 2
    with pytest.raises(ParseError, match="whitespace inside a number or a name in '0 0'"):
        parse_element(group, "0 0", rank=2)
    # a refusal the space did not cause keeps its message, and the reference
    # refused a tab anywhere in a term
    with pytest.raises(RankMismatch, match="expected rank 2, got 1 in '1 0'"):
        parse_element(group, "1 0", rank=2)
    with pytest.raises(ParseError, match="unknown generator 'bogus'"):
        parse_element(group, "(1 0, bogus)")
    with pytest.raises(ParseError, match=r"bad scalar term: '1\\t0\*pi'"):
        parse_element(group, "1\t0*pi")
    with pytest.raises(ParseError, match="unknown generator 'pi2'"):
        parse_element(group, "pi 2")
    with pytest.raises(ParseError, match=r"bad scalar term: '2pi'"):
        parse_element(group, "2 pi")
