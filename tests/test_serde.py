import os
import random
import re
import stat
from fractions import Fraction

import pytest

from valmono.errors import ParseError
from valmono.exact_algebra import MultiPoly, RationalFunction, UniPoly
from valmono.ordered_value import format_element, standard_group
from valmono.serde import (
    _write_file,
    format_multipoly,
    format_rational,
    format_unipoly,
    group_from_json,
    group_to_json,
    load_problem,
    parse_polynomial,
    parse_unipoly,
    problem_to_json,
    spec_to_json,
)
from valmono.valuation_core import Augmented, Composite, Monomial

SEED = 20260814
NAMES = ["x", "y", "z"]

NU2_JSON = {
    "group": {"generators": ["1", "pi"]},
    "vars": ["x", "y", "z"],
    "val": {"kind": "monomial", "weights": {"x": "1", "y": "2*pi", "z": "1 + pi"}},
}


def test_parse_golden_key():
    p = parse_polynomial("z^2 - x^2*y", NAMES)
    assert p == MultiPoly(3, {(0, 0, 2): Fraction(1), (2, 1, 0): Fraction(-1)})
    assert format_multipoly(p, NAMES) == "z^2 - x^2*y"


def test_parse_expressions():
    assert parse_polynomial("(x + y)^2", NAMES) == parse_polynomial("x^2 + 2*x*y + y^2", NAMES)
    assert parse_polynomial("-x", NAMES) == -MultiPoly.variable(3, 0)
    assert parse_polynomial("3/2*x*z^3", NAMES).terms == {(1, 0, 3): Fraction(3, 2)}
    assert parse_polynomial("7", NAMES) == MultiPoly.constant(3, 7)
    assert parse_polynomial("x - - y", NAMES) == parse_polynomial("x + y", NAMES)
    # Laurent exponents on monomials pass through
    assert parse_polynomial("x^-2*y", NAMES).terms == {(-2, 1, 0): Fraction(1)}


def test_laurent_monomials_keep_integer_coefficients():
    # a negative power of the int 1 or -1 is a float in Python; the parser stores the int
    for text, exps, c in (("x^-2*y", (-2, 1, 0), 1), ("(-x)^-3", (-3, 0, 0), -1), ("(-y)^-2*z", (0, -2, 1), 1)):
        terms = parse_polynomial(text, NAMES).terms
        assert terms == {exps: c} and type(terms[exps]) is int, text


def test_parse_errors():
    for bad in ["", "x +", "w", "x^y", "(x", "x^(2)", "1/2/3", "x/y"]:
        with pytest.raises(ParseError):
            parse_polynomial(bad, NAMES)
    with pytest.raises(ParseError):
        parse_polynomial("(x+y)^-1", NAMES)  # negative power needs a monomial


def test_print_parse_round_trip():
    rng = random.Random(SEED)
    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 4) for _ in range(3))
            terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        p = MultiPoly(3, terms)
        if p.is_zero():
            continue
        assert parse_polynomial(format_multipoly(p, NAMES), NAMES) == p
    assert format_multipoly(MultiPoly.zero(3), NAMES) == "0"
    assert parse_polynomial("0", NAMES).is_zero()


def test_format_rational():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    r = RationalFunction(x, MultiPoly.one(2) + y)
    assert format_rational(r, ["x", "y"]) == "(x)/(y + 1)"
    s = RationalFunction(x * y, x)  # folds to a polynomial
    assert format_rational(s, ["x", "y"]) == "y"


def test_format_unipoly():
    u = parse_unipoly("z^2 - x^2*y", NAMES)
    assert u.degree == 2
    assert format_unipoly(u, ["x", "y"], "z") == "z^2 - x^2*y"
    # Laurent coefficients print with negative exponents and parse back
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    laurent = UniPoly(2, [x.shift((0, -1)) * 3 + y, MultiPoly.monomial(2, (-2, 1), Fraction(1, 2)), -y.shift((0, -2))])
    text = format_unipoly(laurent, ["x", "y"], "z")
    assert text == "-y^-1*z^2 + 1/2*x^-2*y*z + y + 3*x*y^-1"
    assert parse_unipoly(text, NAMES) == laurent


def test_group_round_trip():
    g = group_from_json({"generators": ["1", "pi"]})
    assert g.names == ("1", "pi")
    assert group_to_json(g) == {"generators": ["1", "pi"]}
    g2 = group_from_json({"generators": [{"name": "half", "rational": "1/2"}]})
    assert group_to_json(g2) == {"generators": [{"name": "half", "rational": "1/2"}]}
    with pytest.raises(ParseError):
        group_from_json({"generators": ["e"]})


def test_generator_rationals_are_exact():
    # JSON ints and strings give exact rationals, stored as an int when integral
    for raw, want in ((3, 3), ("-4/2", -2), ("1/10", Fraction(1, 10)), ("0.1", Fraction(1, 10))):
        r = group_from_json({"generators": [{"name": "h", "rational": raw}]}).generator("h").rational
        assert r == want and type(r) is type(want), raw
    # a JSON float is inexact and a boolean is no number
    for raw in (0.1, 2.0, True, False, None, [1]):
        with pytest.raises(ParseError, match=re.escape(f"generator 'h' has invalid rational {raw!r}")):
            group_from_json({"generators": [{"name": "h", "rational": raw}]})


def test_load_problem_golden():
    group, names, spec = load_problem(NU2_JSON)
    assert names == ["x", "y", "z"]
    assert isinstance(spec, Monomial)
    q = parse_polynomial("z^2 - x^2*y", names)
    assert format_element(spec.value(q)) == "2 + 2*pi"


def test_spec_json_round_trip_tower():
    group, names, nu2 = load_problem(NU2_JSON)
    key = parse_unipoly("z^2 - x^2*y", names)
    nu3 = Composite(key, nu2)
    obj = spec_to_json(nu3, names)
    assert obj["kind"] == "composite" and obj["key"] == "z^2 - x^2*y"
    rebuilt = load_problem({"group": group_to_json(group), "vars": names, "val": obj})[2]
    assert isinstance(rebuilt, Augmented) and rebuilt.assigned == group.element(1, 0)
    assert rebuilt.value(key) == nu3.value(key)

    aug = Augmented(nu2, key, group.element(group.scalar(value=3, pi=3)))
    obj2 = spec_to_json(aug, names)
    rebuilt2 = load_problem({"group": group_to_json(group), "vars": names, "val": obj2})[2]
    assert rebuilt2.value(key) == aug.value(key)
    assert format_element(rebuilt2.assigned) == "3 + 3*pi"


def test_composite_file_form_round_trips_as_the_rank_raising_augmentation():
    group, names, nu2 = load_problem(NU2_JSON)
    val = {"kind": "composite", "key": "z^2 - x^2*y", "inner": NU2_JSON["val"]}
    spec = load_problem({**NU2_JSON, "val": val})[2]
    assert spec.lifts and spec.base.weights == nu2.weights
    assert spec_to_json(spec, names) == {**val, "inner": spec_to_json(nu2, names)}
    # the key order needs the unit generator; without it the file is malformed
    no_unit = {"generators": ["pi"]}
    inner = {"kind": "monomial", "weights": {"x": "pi", "y": "2*pi", "z": "pi"}}
    load_problem({**NU2_JSON, "group": no_unit, "val": inner})
    with pytest.raises(ParseError, match="needs the generator '1'"):
        load_problem({**NU2_JSON, "group": no_unit, "val": {**val, "inner": inner}})


def test_problem_to_json_round_trip():
    group, names, spec = load_problem(NU2_JSON)
    obj = problem_to_json(group, names, spec)
    group2, names2, spec2 = load_problem(obj)
    assert names2 == names
    p = parse_polynomial("x^2*y + z", names)
    assert spec2.value(p) == spec.value(p)


def test_weight_order_follows_vars():
    obj = {
        "group": {"generators": ["1", "pi"]},
        "vars": ["y", "x", "z"],
        "val": {"kind": "monomial", "weights": {"x": "1", "y": "2*pi", "z": "1 + pi"}},
    }
    _, names, spec = load_problem(obj)
    assert names == ["y", "x", "z"]
    assert format_element(spec.weights[0]) == "2*pi"
    with pytest.raises(ParseError):
        load_problem(
            {
                "vars": ["x", "q"],
                "val": {"kind": "monomial", "weights": {"x": "1"}},
            }
        )


def test_each_monomial_weight_sign_is_decided_once(monkeypatch):
    # the loader checks the weights' rank and leaves their signs to Monomial,
    # whose refusal it reports with its own message
    from valmono.ordered_value import GroupElement

    asked = []
    is_positive = GroupElement.is_positive
    monkeypatch.setattr(GroupElement, "is_positive", lambda self: asked.append(self) or is_positive(self))
    spec = load_problem(NU2_JSON)[2]
    assert asked == list(spec.weights)
    for weight in ("-1", "0", "1 - pi"):
        bad = {**NU2_JSON, "val": {"kind": "monomial", "weights": {**NU2_JSON["val"]["weights"], "y": weight}}}
        with pytest.raises(ParseError, match="^monomial weights must be strictly positive$"):
            load_problem(bad)
    mixed = {**NU2_JSON, "val": {"kind": "monomial", "weights": {**NU2_JSON["val"]["weights"], "y": "(1, -1)"}}}
    with pytest.raises(ParseError, match="^monomial weights of mixed rank$"):
        load_problem(mixed)


def _file_state(path) -> tuple:
    """What a rewrite must keep or produce: link kind, mode, link count and bytes."""
    st = os.stat(path)
    return stat.S_ISLNK(os.lstat(path).st_mode), stat.S_IMODE(st.st_mode), st.st_nlink, path.read_bytes()


def test_the_file_writer_keeps_what_open_w_keeps(tmp_path):
    # _write_file overwrites in place instead of truncating to zero; whatever
    # open(path, "w") keeps or makes, it keeps or makes the same
    def write_with_open(path, text):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    results = []
    for name, write in (("writer", _write_file), ("open", write_with_open)):
        d = tmp_path / name
        d.mkdir()
        (d / "old.txt").write_text("an older and much longer text\n" * 40)
        os.chmod(d / "old.txt", 0o640)
        os.link(d / "old.txt", d / "hard.txt")
        (d / "target.txt").write_text("target text that is longer than the new one\n")
        os.symlink(d / "target.txt", d / "sym.txt")
        inodes = {n: (d / n).stat().st_ino for n in ("old.txt", "target.txt")}
        for n in ("new.txt", "old.txt", "sym.txt"):
            write(d / n, f"{n}: caf\u00e9\nline two\n")
        assert inodes == {n: (d / n).stat().st_ino for n in ("old.txt", "target.txt")}
        results.append([_file_state(d / n) for n in ("new.txt", "old.txt", "hard.txt", "sym.txt", "target.txt")])
    assert results[0] == results[1]
    assert results[0][1] == (False, 0o640, 2, "old.txt: caf\u00e9\nline two\n".encode())
    assert results[0][3][0] and results[0][3][3] == results[0][4][3]


def test_the_file_writer_leaves_the_old_file_on_an_encoding_error(tmp_path):
    path = tmp_path / "out.txt"
    _write_file(path, "old text\n")
    with pytest.raises(UnicodeEncodeError):
        _write_file(path, "new \ud800 text\n")
    assert path.read_bytes() == b"old text\n"
