"""CLI verbs, output formats, exit codes, trace and state files."""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

import valmono
from valmono import cli
from valmono.cli import main
from valmono.errors import ResidueUndefined
from valmono.exact_algebra import RationalFunction, to_multipoly
from valmono.orchestrator import load_state, monomialize, state_to_json, steps_used
from valmono.ordered_value import compare
from valmono.serde import load_problem, parse_unipoly
from valmono.trace import verify_trace_file

NU3 = {
    "group": {"generators": ["1", "pi"]},
    "vars": ["x", "y", "z"],
    "val": {
        "kind": "composite",
        "key": "z^2 - x^2*y",
        "inner": {"kind": "monomial", "weights": {"x": "1", "y": "2*pi", "z": "1+pi"}},
    },
}

NU2 = {
    "group": {"generators": ["1", "pi"]},
    "vars": ["x", "y", "z"],
    "val": {"kind": "monomial", "weights": {"x": "1", "y": "2*pi", "z": "1+pi"}},
}


@pytest.fixture
def specs(tmp_path):
    nu3 = tmp_path / "nu3.json"
    nu3.write_text(json.dumps(NU3))
    nu2 = tmp_path / "nu2.json"
    nu2.write_text(json.dumps(NU2))
    return {"nu3": str(nu3), "nu2": str(nu2), "dir": tmp_path}


@pytest.mark.parametrize(
    "problem, command, payload", [row[1:] for row in cli.GOLDEN], ids=[row[0] for row in cli.GOLDEN]
)
def test_golden_row(specs, capsys, problem, command, payload):
    # selftest's table, run through main on the problem files
    assert main([*shlex.split(command), "--spec", specs[problem], "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"


def test_eval_golden(specs, capsys):
    assert main(["eval", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y"]) == 0
    assert capsys.readouterr().out.strip() == "(1, 0)"
    assert main(["eval", "--spec", specs["nu3"], "--poly", "1"]) == 0
    assert capsys.readouterr().out.strip() == "(0, 0)"


def test_epsilon_golden(specs, capsys):
    assert main(["epsilon", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y"]) == 0
    out = capsys.readouterr().out
    assert "epsilon = (1, -1 - pi)" in out


def test_successor_build_and_check(specs, capsys):
    assert main(["successor", "--spec", specs["nu2"], "--key", "z", "--format", "json"]) == 0
    capsys.readouterr()

    assert main(["successor", "--spec", specs["nu3"], "--key", "z", "--check", "z^2 - x^2*y"]) == 0
    assert "passed = True" in capsys.readouterr().out

    assert main(["successor", "--spec", specs["nu3"], "--key", "z", "--check", "z^3"]) == 3
    capsys.readouterr()


# without "vars" the variable order is that of the innermost weight map: the
# composite NU3 (x, y, z) and the tower s2 = [x: 1, z: 1; z, 3/2; z^2 - x^3, 13/4] (x, z)
S2_TOWER = {
    "group": {"generators": ["1"]},
    "vars": ["x", "z"],
    "val": {
        "kind": "augmented",
        "base": {
            "kind": "augmented",
            "base": {"kind": "monomial", "weights": {"x": "1", "z": "1"}},
            "key": "z",
            "value": "3/2",
        },
        "key": "z^2 - x^3",
        "value": "13/4",
    },
}


@pytest.mark.parametrize(
    "problem, poly, value",
    [(NU3, "z^2 - x^2*y", "(1, 0)"), (NU3, "y", "(0, 2*pi)"), (NU3, "x*z", "(0, 2 + pi)"),
     (S2_TOWER, "z^2 - x^3", "13/4"), (S2_TOWER, "x^2*z", "7/2")],
    ids=["nu3-key", "nu3-y", "nu3-xz", "s2-key", "s2-x2z"],
)
def test_a_problem_without_vars_takes_the_innermost_weight_order(tmp_path, capsys, problem, poly, value):
    for k, obj in enumerate((problem, {key: v for key, v in problem.items() if key != "vars"})):
        path = tmp_path / f"problem{k}.json"
        path.write_text(json.dumps(obj))
        assert main(["eval", "--spec", str(path), "--poly", poly]) == 0
        assert capsys.readouterr().out == value + "\n"


# a --poly or --polys argument that names a file: each layout it may hold
POLY_FILES = {
    "poly-object": ("eval", json.dumps({"poly": "z^2 - x^2*y"})),
    "json-string": ("eval", json.dumps("z^2 - x^2*y")),
    "raw-text": ("eval", "z^2 - x^2*y\n"),
    "polys-object": ("uniformize", json.dumps({"polys": ["x^2*y", "z^2 - x^2*y"]})),
    "json-list": ("uniformize", json.dumps(["x^2*y", "z^2 - x^2*y"])),
    "raw-text-list": ("uniformize", "x^2*y; z^2 - x^2*y\n"),
}
INLINE = {"eval": ["--poly", "z^2 - x^2*y"], "uniformize": ["--polys", "x^2*y;z^2 - x^2*y"]}


@pytest.mark.parametrize("verb, content", POLY_FILES.values(), ids=POLY_FILES)
def test_a_polynomial_file_in_each_layout(specs, capsys, verb, content):
    assert main([verb, "--spec", specs["nu3"], *INLINE[verb]]) == 0
    inline = capsys.readouterr().out
    path = specs["dir"] / "poly.json"
    path.write_text(content)
    assert main([verb, "--spec", specs["nu3"], INLINE[verb][0], str(path)]) == 0
    assert capsys.readouterr().out == inline


@pytest.mark.parametrize("content", [json.dumps({"polynomial": "z"}), "5", "null"], ids=["object", "number", "null"])
def test_an_unsupported_polynomial_file_layout_exits_2(specs, capsys, content):
    path = specs["dir"] / "poly.json"
    path.write_text(content)
    assert main(["eval", "--spec", specs["nu3"], "--poly", str(path)]) == 2
    assert "unsupported polynomial file layout" in capsys.readouterr().err


# ROADMAP item 6's first grid row: the successor of z is z - c*x, c the residue of z/x
GRID_ROW_1 = {
    "group": {"generators": ["1"]},
    "vars": ["x", "z"],
    "val": {
        "kind": "augmented",
        "base": {"kind": "monomial", "weights": {"x": "1", "z": "1"}},
        "key": "z - 2*x",
        "value": "3/2",
    },
}


def test_a_successor_residue_other_than_one(tmp_path, capsys):
    problem = tmp_path / "grid1.json"
    problem.write_text(json.dumps(GRID_ROW_1))
    assert main(["successor", "--spec", str(problem), "--key", "z", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["successor"], payload["residue"]) == ("z - 2*x", "2")
    assert main(["monomialize", "--spec", str(problem), "--poly", "z - 2*x", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 1


# the witness of z's successor is the Laurent monomial y/x: the residue search
# clears its negative exponent, and the residue is still the valuation's
LAURENT_WITNESS = {
    "group": {"generators": ["1"]},
    "vars": ["x", "y", "z"],
    "val": {
        "kind": "augmented",
        "base": {"kind": "monomial", "weights": {"x": "2", "y": "3", "z": "1"}},
        "key": "z - 5*y*x^-1",
        "value": "2",
    },
}


def test_a_successor_with_a_laurent_witness(tmp_path, capsys):
    problem = tmp_path / "laurent.json"
    problem.write_text(json.dumps(LAURENT_WITNESS))
    assert main(["successor", "--spec", str(problem), "--key", "z", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["successor"], payload["monomial"], payload["residue"]) == ("z - 5*x^-1*y", "x^-1*y", "5")


# the chain key z - 5*x^-1*y has the Laurent coefficient -5*y/x of value 1 > 0;
# its key step divides x into y first, and the key's image is then a binomial
@pytest.mark.parametrize("poly, steps", [("x*z - 5*y", 2), ("z*x^2 - 5*x*y", 2), ("x*z - 5*y + y^2", 3)])
def test_a_chain_key_with_a_laurent_coefficient_certifies(tmp_path, capsys, poly, steps):
    _, names, spec = load_problem(LAURENT_WITNESS)
    f = parse_unipoly(poly, names)
    out = monomialize(spec, f, 10_000, names=names)
    assert steps_used(out.state) == steps
    T = RationalFunction(out.monomial()) * out.unit
    assert out.frame.pullback_of(T) == RationalFunction(to_multipoly(f))
    assert compare(out.value, spec.value(f)) == 0
    problem, trace = tmp_path / "laurent.json", tmp_path / "laurent.jsonl"
    problem.write_text(json.dumps(LAURENT_WITNESS))
    assert main(["monomialize", "--spec", str(problem), "--poly", poly, "--trace", str(trace), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["exponents"], payload["steps"]) == (list(out.exponents), steps)
    report = verify_trace_file(str(trace))
    assert report["ok"] and report["steps"] == steps


# z - x has value 4 on the weights x: 1, y: 5/2, z: 1; the successor of z is
# z - x^-4*y^2, whose residue search falls back to c = 1 and whose value is
# that of z, so the chain refuses it as its first link instead of extending to
# z - 2*x^-4*y^2, z - 3*x^-4*y^2, ... until the successor cap
NON_RISING_SUCCESSOR = {
    "group": {"generators": ["1"]},
    "vars": ["x", "y", "z"],
    "val": {
        "kind": "augmented",
        "key": "z - x",
        "value": "4",
        "base": {"kind": "monomial", "weights": {"x": "1", "y": "5/2", "z": "1"}},
    },
}


def test_a_successor_whose_value_does_not_rise_is_refused_where_it_is_made(tmp_path, capsys):
    _, names, spec = load_problem(NON_RISING_SUCCESSOR)
    poly = "z^2 - x*z + x^5*y^3"
    with pytest.raises(ResidueUndefined, match="the successor's value does not rise above its base value"):
        monomialize(spec, parse_unipoly(poly, names), 10_000, names=names)
    problem = tmp_path / "non-rising.json"
    problem.write_text(json.dumps(NON_RISING_SUCCESSOR))
    assert main(["monomialize", "--spec", str(problem), "--poly", poly]) == 3
    assert capsys.readouterr().err == "not certified: the successor's value does not rise above its base value\n"


def test_divide_trace_and_dot(specs, capsys):
    trace = specs["dir"] / "div.jsonl"
    rc = main(
        [
            "divide", "--spec", specs["nu3"],
            "--alpha", "0,0,2", "--gamma", "2,1,0",
            "--trace", str(trace), "--format", "json",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    report = verify_trace_file(str(trace))
    assert report["ok"] and report["steps"] == 3

    rc = main(["divide", "--spec", specs["nu3"], "--alpha", "0,0,2", "--gamma", "2,1,0", "--format", "dot"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("digraph trace {")


def test_puiseux_verb(specs, capsys):
    assert main(["puiseux", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y", "--format", "json"]) == 0
    capsys.readouterr()

    # no cancellation under the bare monomial valuation: certified failure
    assert main(["puiseux", "--spec", specs["nu2"], "--poly", "z^2 - x^2*y"]) == 3
    capsys.readouterr()


def test_monomialize_with_artifacts(specs, capsys):
    trace = specs["dir"] / "mono.jsonl"
    state = specs["dir"] / "mono-state.json"
    rc = main(
        [
            "monomialize", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y",
            "--budget", "10000", "--trace", str(trace), "--state", str(state),
            "--format", "json",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert verify_trace_file(str(trace))["ok"]
    loaded = load_state(str(state))
    assert loaded.frame.names == ("x", "y", "z'")

    # zero budget: certified failure, partial state still written
    partial = specs["dir"] / "partial.json"
    rc = main(
        [
            "monomialize", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y",
            "--budget", "0", "--state", str(partial),
        ]
    )
    assert rc == 3
    part = load_state(str(partial))
    assert part.keys_pending and part.budget == 0


@pytest.mark.parametrize("verb, flag", [("monomialize", "--poly"), ("uniformize", "--polys")])
def test_a_negative_budget_is_an_input_error(specs, capsys, verb, flag):
    # exit 2, as for any bad input, not 3 for an exhausted budget; no file written
    trace, state = specs["dir"] / "neg.jsonl", specs["dir"] / "neg-state.json"
    rc = main([verb, "--spec", specs["nu3"], flag, "z^2 - x^2*y", "--budget", "-5",
               "--trace", str(trace), "--state", str(state)])
    assert rc == 2
    assert capsys.readouterr().err == "error: step budget -5 is negative\n"
    assert not trace.exists() and not state.exists()


@pytest.mark.parametrize("poly", ["2*z + 3*x^2*y", "z^2 - x^2*y + 5*x*z"])
def test_monomialize_laurent_unit_value(specs, capsys, poly):
    trace = specs["dir"] / "laurent.jsonl"
    rc = main(["monomialize", "--spec", specs["nu3"], "--poly", poly, "--trace", str(trace), "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["exponents"] == [2, 0, 1]
    assert verify_trace_file(str(trace))["ok"]

    # dot output is the trace graph alone
    assert main(["monomialize", "--spec", specs["nu3"], "--poly", poly, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph trace {") and out.rstrip().endswith("}")


def test_uniformize_verb(specs, capsys):
    rc = main(
        ["uniformize", "--spec", specs["nu2"], "--polys", "x;x+y", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == [0, 1]
    e1, e2 = (entry["exponents"] for entry in payload["entries"])
    assert all(a <= b for a, b in zip(e1, e2))


def test_polys_from_file(specs, capsys):
    fs = specs["dir"] / "fs.json"
    fs.write_text(json.dumps({"polys": ["x", "x+y"]}))
    rc = main(["uniformize", "--spec", specs["nu2"], "--polys", str(fs), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == [0, 1]


# a problem in the distinguished variable alone has no coefficient variable, so its
# coefficient lattice is empty: command, exit code, stdout, stderr
ONE_VARIABLE = {
    "monomialize": (["monomialize", "--poly", "z^2"], 0,
                    '{"exponents": [2], "params": ["z"], "steps": 0, "unit": "1", "value": "2", "verb": "monomialize"}\n',
                    ""),
    "uniformize": (["uniformize", "--polys", "z;z^2"], 0,
                   '{"entries": [{"exponents": [1], "unit": "1", "value": "1"}, '
                   '{"exponents": [2], "unit": "1", "value": "2"}], "order": [0, 1], "params": ["z"], '
                   '"verb": "uniformize"}\n',
                   ""),
    "successor": (["successor", "--key", "z"], 3, "",
                  "not certified: no multiple of the key value lies in the available lattice\n"),
}


@pytest.mark.parametrize("argv, code, out, err", ONE_VARIABLE.values(), ids=ONE_VARIABLE)
def test_one_variable_problems(tmp_path, capsys, argv, code, out, err):
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"vars": ["z"], "val": {"kind": "monomial", "weights": {"z": "1"}}}))
    assert main([*argv, "--spec", str(spec), "--format", "json"]) == code
    assert capsys.readouterr() == (out, err)


def test_parse_errors_exit_two(specs, capsys):
    assert main(["eval", "--spec", specs["nu3"], "--poly", "z^^2"]) == 2
    assert main(["eval", "--spec", str(specs["dir"] / "missing.json"), "--poly", "z"]) == 2
    # only trace-producing verbs offer dot: argparse rejects the choice
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--spec", specs["nu3"], "--poly", "z", "--format", "dot"])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


AUG = {"kind": "augmented", "base": NU2["val"], "key": "z", "value": "5"}


def _without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


# problem file, polynomial, stderr message
MALFORMED = {
    "negative-power": ({**NU2, "val": NU3["val"]}, "z^-1", "negative power of the distinguished variable 'z'"),
    "nonpositive-weight": (
        {**NU2, "val": {"kind": "monomial", "weights": {**NU2["val"]["weights"], "x": "-1"}}},
        "z",
        "monomial weights must be strictly positive",
    ),
    "augmented-value-below-key": (
        {**NU2, "val": {**AUG, "value": "1"}},
        "z",
        "augmented value '1' must exceed the base value of its key",
    ),
    "infinite-weight": (
        {**NU2, "val": {"kind": "monomial", "weights": {**NU2["val"]["weights"], "x": "inf"}}},
        "z",
        "value 'inf' must be finite",
    ),
    "infinite-augmented-value": ({**NU2, "val": {**AUG, "value": "inf"}}, "z", "value 'inf' must be finite"),
    "no-val": (_without(NU2, "val"), "z", "missing field 'val'"),
    "no-weights": ({**NU2, "val": {"kind": "monomial"}}, "z", "missing field 'weights'"),
    "no-key": ({**NU2, "val": _without(AUG, "key")}, "z", "missing field 'key'"),
    "no-value": ({**NU2, "val": _without(AUG, "value")}, "z", "missing field 'value'"),
    "no-base": ({**NU2, "val": _without(AUG, "base")}, "z", "missing field 'base'"),
    "no-inner": ({**NU2, "val": _without(NU3["val"], "inner")}, "z", "missing field 'inner'"),
    "no-generators": ({**NU2, "group": {}}, "z", "missing field 'generators'"),
    "generator-rational": (
        {**NU2, "group": {"generators": [{"name": "h", "rational": "abc"}]}},
        "z",
        "generator 'h' has invalid rational 'abc'",
    ),
    "generator-rational-float": (
        {**NU2, "group": {"generators": [{"name": "h", "rational": 0.1}]}},
        "z",
        "generator 'h' has invalid rational 0.1",
    ),
    "generator-rational-bool": (
        {**NU2, "group": {"generators": [{"name": "h", "rational": True}]}},
        "z",
        "generator 'h' has invalid rational True",
    ),
    "composite-key-not-monic": (
        {**NU2, "val": {"kind": "composite", "key": "2*z^2 - x^3", "inner": NU2["val"]}},
        "z",
        "key '2*z^2 - x^3' must be monic of positive degree in 'z'",
    ),
    "augmented-key-not-monic": (
        {**NU2, "val": {**AUG, "key": "2*z^2 - x^3"}},
        "z",
        "key '2*z^2 - x^3' must be monic of positive degree in 'z'",
    ),
    "weights-of-mixed-rank": (
        {"group": NU2["group"], "vars": ["x", "z"], "val": {"kind": "monomial", "weights": {"x": "1", "z": "(1, 2)"}}},
        "z",
        "monomial weights of mixed rank",
    ),
    "augmented-value-rank": (
        {**NU2, "val": {**AUG, "value": "(1, 2)"}},
        "z",
        "expected rank 1, got 2 in '(1, 2)'",
    ),
    "zero-denominator-weight": (
        {**NU2, "val": {"kind": "monomial", "weights": {**NU2["val"]["weights"], "x": "1/0"}}},
        "z",
        "zero denominator in '1/0'",
    ),
    "zero-denominator-augmented-value": (
        {**NU2, "val": {**AUG, "value": "2 - 3/0*pi"}},
        "z",
        "zero denominator in '3/0*pi'",
    ),
    "problem-is-a-list": ([NU2], "z", "a problem must be a JSON object"),
    "problem-is-a-string": ("NU2", "z", "a problem must be a JSON object"),
    "vars-is-a-number": ({**NU2, "vars": 5}, "z", "field 'vars' must be a JSON list of variable names"),
    "vars-is-a-string": ({**NU2, "vars": "xyz"}, "z", "field 'vars' must be a JSON list of variable names"),
    # a falsy vars is malformed too: only a missing key means weight-map order
    "vars-is-zero": ({**NU2, "vars": 0}, "z", "field 'vars' must be a JSON list of variable names"),
    "vars-is-empty-string": ({**NU2, "vars": ""}, "z", "field 'vars' must be a JSON list of variable names"),
    "vars-is-false": ({**NU2, "vars": False}, "z", "field 'vars' must be a JSON list of variable names"),
    "vars-is-null": ({**NU2, "vars": None}, "z", "field 'vars' must be a JSON list of variable names"),
    "vars-is-empty-list": ({**NU2, "vars": []}, "z", "field 'vars' names no variable"),
    "no-generator": ({**NU2, "group": {"generators": []}}, "z", "a value group needs at least one generator"),
    "duplicate-generator": ({**NU2, "group": {"generators": ["1", "1"]}}, "z", "duplicate generator '1'"),
    "weights-as-a-list": (
        {**NU2, "val": {"kind": "monomial", "weights": ["1", "2*pi", "1+pi"]}},
        "z",
        "field 'weights' must be a JSON object",
    ),
    # a space inside a number or a name is refused, not deleted: "1 0" is not 10
    "weight-with-a-space-in-a-number": (
        {**NU2, "val": {"kind": "monomial", "weights": {"x": "1 0", "y": "2*pi", "z": "1+pi"}}},
        "x",
        "whitespace inside a number or a name in '1 0'",
    ),
    "weight-with-a-space-in-a-name": (
        {**NU2, "val": {"kind": "monomial", "weights": {"x": "1", "y": "2*p i", "z": "1+pi"}}},
        "x",
        "whitespace inside a number or a name in '2*p i'",
    ),
}


@pytest.mark.parametrize("problem, poly, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_exits_two(tmp_path, capsys, problem, poly, message):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(problem))
    assert main(["eval", "--spec", str(spec), "--poly", poly]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# a rational literal with denominator 0 in a polynomial or key argument
ZERO_DENOMINATOR = {
    "eval-poly": ["eval", "--poly", "1/0"],
    "monomialize-poly": ["monomialize", "--poly", "z+1/0"],
    "truncate-key": ["truncate", "--key", "z + 2 / 0", "--poly", "z"],
}


@pytest.mark.parametrize("argv", ZERO_DENOMINATOR.values(), ids=ZERO_DENOMINATOR)
def test_zero_denominator_exits_two(specs, capsys, argv):
    assert main([argv[0], "--spec", specs["nu3"], *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: zero denominator in '")


# a --key follows the rule of a problem file's key: monic of positive degree
NON_MONIC_KEY = {
    "successor": ["successor", "--key", "2*z"],
    "successor-degree-0": ["successor", "--key", "x"],
    "truncate": ["truncate", "--key", "2*z", "--poly", "z^2 - x^2*y"],
}


@pytest.mark.parametrize("argv", NON_MONIC_KEY.values(), ids=NON_MONIC_KEY)
def test_non_monic_key_exits_two(specs, capsys, argv):
    assert main([argv[0], "--spec", specs["nu3"], *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: key {argv[2]!r} must be monic of positive degree in 'z'\n"


# exponent lists of Laurent monomials, which the divide loop does not certify
NEGATIVE_EXPONENTS = {
    "divide": ["divide", "--alpha=2,-3,1", "--gamma=-1,2,0"],
    "principalize": ["principalize", "--gens=-1,0,0;0,1,0"],
}


@pytest.mark.parametrize("argv", NEGATIVE_EXPONENTS.values(), ids=NEGATIVE_EXPONENTS)
def test_negative_exponents_exit_two(specs, capsys, argv):
    assert main([argv[0], "--spec", specs["nu3"], *argv[1:]]) == 2
    assert "has a negative entry" in capsys.readouterr().err


# an empty generator or polynomial list is malformed input, not a failed certificate
EMPTY_LIST = {
    "principalize-empty": (["principalize", "--gens", ""], "no exponent list in --gens"),
    "principalize-separator-only": (["principalize", "--gens", ";"], "no exponent list in --gens"),
    "uniformize-empty": (["uniformize", "--polys", ""], "no polynomial in the input list"),
    "uniformize-separator-only": (["uniformize", "--polys", " ; "], "no polynomial in the input list"),
}


@pytest.mark.parametrize("argv, message", EMPTY_LIST.values(), ids=EMPTY_LIST)
def test_empty_list_exits_two(specs, capsys, argv, message):
    assert main([argv[0], "--spec", specs["nu3"], *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# verbs whose frames take equal-value parameter values from the valuation driver
DRIVEN_FRAME = {
    "divide": ["divide", "--alpha", "0,0,2", "--gamma", "2,1,0"],
    "principalize": ["principalize", "--gens", "0,0,2;2,1,0"],
}


@pytest.mark.parametrize("argv", DRIVEN_FRAME.values(), ids=DRIVEN_FRAME)
def test_frame_values_checked_against_the_spec(specs, capsys, monkeypatch, argv):
    # a driver that doubles each shifted parameter's value builds a frame that
    # replays cleanly but disagrees with the valuation
    real_driver = cli.valuation_driver

    def doubling_driver(spec):
        driver = real_driver(spec)

        def step(fr, q, j, h):
            data = driver(fr, q, j, h)
            return replace(data, beta_new=data.beta_new + data.beta_new)

        return step

    monkeypatch.setattr(cli, "valuation_driver", doubling_driver)
    assert main([argv[0], "--spec", specs["nu3"], *argv[1:]]) == 3
    err = capsys.readouterr().err
    assert err == "not certified: equal-value parameter value differs from the valuation\n"


def test_parser_built_once(tmp_path):
    # count top-level parsers by their prog; a verb's subparser is "valmono <verb>"
    code = (
        "import argparse, contextlib, io, sys\n"
        "progs = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: progs.append(k.get('prog')) or init(self, *a, **k)\n"
        "from valmono import cli\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [cli.main(['eval', '--spec', sys.argv[1], '--poly', 'z']) for _ in range(4)]\n"
        "print(codes, progs.count('valmono'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(valmono.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "missing.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.stdout == "[2, 2, 2, 2] 1\n", proc.stderr


def test_selftest_passes(specs, capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out == "".join(f"PASS {row[0]}\n" for row in cli.GOLDEN)
    assert main(["selftest", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"] == [{"case": row[0], "ok": True} for row in cli.GOLDEN]


def test_selftest_checks_under_optimize():
    # an eval handler that returns a wrong payload and an epsilon handler that
    # raises fail their rows alone, also under -O
    code = (
        "import sys, valmono.cli as cli\n"
        "for verb, handler in (('eval', lambda args, names, spec: ({'verb': 'eval', 'value': '(0, 0)'}, [])),\n"
        "                      ('epsilon', lambda args, names, spec: 1 / 0)):\n"
        "    help_text, _handler, options = cli._VERBS[verb]\n"
        "    cli._VERBS[verb] = (help_text, handler, options)\n"
        "sys.exit(cli.main(['selftest']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(valmono.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 3, proc.stderr
    failed = ["eval-key", "epsilon-key", "epsilon-z", "epsilon-x"]
    assert proc.stderr == (
        'FAIL eval-key: payload {"value": "(0, 0)", "verb": "eval"}\n'
        + "".join(f"FAIL {case}: division by zero\n" for case in failed[1:])
        + "4 selftest case(s) failed\n"
    )
    assert proc.stdout == "".join(f"PASS {row[0]}\n" for row in cli.GOLDEN if row[0] not in failed)


# -- every verb and format in one process ------------------------------------------

# id, command line with {nu2}/{nu3}/{bad}/{trace}/{state} placeholders, then the exit
# code and digests of stdout, stderr, trace bytes and state bytes (None: empty or
# not written). The digests were recorded before the verbs shared one parser,
# except in the rows marked below.
OUTPUT_TABLE = [
    ("eval-text", "eval --spec {nu3} --poly 'z^2 - x^2*y'",
     0, "819fe7980c086e4d", None, None, None),
    ("eval-json", "eval --spec {nu3} --poly 'z^2 - x^2*y' --format json",
     0, "39471aec18c230de", None, None, None),
    # the three *-dot rows of verbs without --trace end in argparse's "invalid
    # choice" since only trace-producing verbs offer dot
    ("eval-dot", "eval --spec {nu3} --poly 'z^2 - x^2*y' --format dot",
     2, None, "cd79888e0f6fd1bd", None, None),
    ("epsilon-text", "epsilon --spec {nu3} --poly 'z^2 - x^2*y'",
     0, "8dcead36d41cb65c", None, None, None),
    ("epsilon-json", "epsilon --spec {nu3} --poly x --format json",
     0, "64049838136ce267", None, None, None),
    ("truncate-text", "truncate --spec {nu3} --key 'z^2 - x^2*y' --poly 'z^2 - x^2*y'",
     0, "12c5459e5dca4880", None, None, None),
    ("truncate-json", "truncate --spec {nu3} --key 'z^2 - x^2*y' --poly 'z^3 - x*z' --format json",
     0, "630b9e7ee6828d9e", None, None, None),
    ("truncate-dot", "truncate --spec {nu3} --key 'z^2 - x^2*y' --poly 'z^2 - x^2*y' --format dot",
     2, None, "ee97153ce0ae2632", None, None),
    ("successor-text", "successor --spec {nu2} --key z",
     0, "70c12592e8c85578", None, None, None),
    ("successor-json", "successor --spec {nu2} --key z --format json",
     0, "3ca2877a37677801", None, None, None),
    ("successor-check-text", "successor --spec {nu3} --key z --check 'z^2 - x^2*y'",
     0, "28eb78aadc1dd113", None, None, None),
    ("successor-check-fails", "successor --spec {nu3} --key z --check 'z^3'",
     3, "faab78f48abd06a3", "595c7b6575ac249d", None, None),
    ("successor-check-fails-json", "successor --spec {nu3} --key z --check 'z^3' --format json",
     3, "462eb797405cfa87", "595c7b6575ac249d", None, None),
    ("divide-text", "divide --spec {nu3} --alpha 0,0,2 --gamma 2,1,0 --trace {trace}",
     0, "8ca2e2aaebe7d64c", None, "38c13a3513a62b55", None),
    ("divide-json", "divide --spec {nu3} --alpha 0,0,2 --gamma 2,1,0 --format json",
     0, "f9a4b8d6bccff7d5", None, None, None),
    ("divide-dot", "divide --spec {nu3} --alpha 0,0,2 --gamma 2,1,0 --format dot --trace {trace}",
     0, "8655bf50ce015c51", None, "38c13a3513a62b55", None),
    ("principalize-text", "principalize --spec {nu3} --gens '3,0,0;0,2,1' --trace {trace}",
     0, "6d9821ac5dec10d9", None, "97254a5b388cb1e1", None),
    ("principalize-json", "principalize --spec {nu3} --gens '0,0,2;2,1,0' --format json --trace {trace}",
     0, "97fcece35cdccbce", None, "38c13a3513a62b55", None),
    ("principalize-dot", "principalize --spec {nu3} --gens '3,0,0;0,2,1' --format dot",
     0, "d9bb5e23ffb1c5ff", None, None, None),
    ("puiseux-text", "puiseux --spec {nu3} --poly 'z^2 - x^2*y' --trace {trace}",
     0, "3e779e3662ca46e6", None, "38c13a3513a62b55", None),
    ("puiseux-json", "puiseux --spec {nu3} --poly 'z^2 - x^2*y' --format json",
     0, "e2fa85021e624c43", None, None, None),
    ("puiseux-dot", "puiseux --spec {nu3} --poly 'z^2 - x^2*y' --format dot",
     0, "8655bf50ce015c51", None, None, None),
    ("puiseux-not-certified", "puiseux --spec {nu2} --poly 'z^2 - x^2*y' --trace {trace}",
     3, None, "e5d324b14df09783", None, None),
    # the state digests of the next six rows were re-recorded when states
    # became compact JSON, when the slice index left the state, and when the
    # key image left it
    ("monomialize-text", "monomialize --spec {nu3} --poly 'z^2 - x^2*y' --trace {trace} --state {state}",
     0, "8e597d6376787bd4", None, "38c13a3513a62b55", "37da8c25ff286ebb"),
    ("monomialize-json", "monomialize --spec {nu3} --poly '2*z + 3*x^2*y' --format json --trace {trace} --state {state}",
     0, "3160f8fbdf6efbcf", None, "9e91c0cb5f6396b2", "2a61b5f44d301b9f"),
    ("monomialize-dot", "monomialize --spec {nu3} --poly 'z^2 - x^2*y' --format dot --state {state}",
     0, "8655bf50ce015c51", None, None, "37da8c25ff286ebb"),
    ("monomialize-budget-0", "monomialize --spec {nu3} --poly 'z^2 - x^2*y' --budget 0 --trace {trace} --state {state}",
     3, None, "e6f86ffa89c64daa", None, "6ef315e0cf337bb8"),
    ("uniformize-text", "uniformize --spec {nu2} --polys 'x;x+y' --trace {trace} --state {state}",
     0, "8dedbc8f898087d3", None, "8605e112bcf04eef", "e177c649c3cfb1f5"),
    ("uniformize-json", "uniformize --spec {nu3} --polys 'x^2*y;z^2 - x^2*y' --format json --trace {trace} --state {state}",
     0, "27cd916fe8fb2419", None, "38c13a3513a62b55", "37da8c25ff286ebb"),
    ("uniformize-dot", "uniformize --spec {nu2} --polys 'x;x+y' --format dot",
     0, "8040302626e8cb19", None, None, None),
    ("missing-spec", "eval --spec {nu3}.missing --poly z",
     2, None, "e1f585812f3527c8", None, None),
    ("parse-error", "eval --spec {nu3} --poly 'z^^2'",
     2, None, "de7beb7a8e61e6cd", None, None),
    # these four exited 0, 0, 3 and 3 until malformed problem files and
    # non-monic keys became parse errors
    ("vars-as-string", "eval --spec {bad} --poly z",
     2, None, "6d86e2d411adc5a8", None, None),
    ("successor-key-not-monic", "successor --spec {nu3} --key '2*z'",
     2, None, "70177a37c2055676", None, None),
    ("successor-key-degree-0", "successor --spec {nu3} --key x",
     2, None, "77d8ee9739c29149", None, None),
    ("truncate-key-not-monic", "truncate --spec {nu3} --key '2*z' --poly 'z^2 - x^2*y'",
     2, None, "70177a37c2055676", None, None),
    # re-recorded when selftest came to run cli.GOLDEN and lost --seed
    ("selftest-text", "selftest",
     0, "d245aa05e0fc6623", None, None, None),
    ("selftest-json", "selftest --format json",
     0, "0c442903930d0116", None, None, None),
    ("selftest-dot", "selftest --format dot",
     2, None, "327796d2a0ef3d59", None, None),
    ("unknown-verb", "frobnicate --spec {nu3}",
     2, None, "d1dfb47d6c95fadc", None, None),
]


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16] if data else None


def _run_output_table(tmp_path) -> list:
    """Run every OUTPUT_TABLE row through one imported main, in table order."""
    paths = {"nu2": tmp_path / "nu2.json", "nu3": tmp_path / "nu3.json", "bad": tmp_path / "bad.json"}
    paths["nu2"].write_text(json.dumps(NU2))
    paths["nu3"].write_text(json.dumps(NU3))
    paths["bad"].write_text(json.dumps({**NU3, "vars": "xyz"}))
    results = []
    for k, (row_id, command, *_expected) in enumerate(OUTPUT_TABLE):
        files = {"trace": tmp_path / f"{k}.jsonl", "state": tmp_path / f"{k}.state.json"}
        argv = [a.format(**paths, **files) for a in shlex.split(command)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        texts = [s.getvalue().replace(str(tmp_path), "<tmp>").encode() for s in (out, err)]
        stored = [f.read_bytes() if f.exists() else None for f in files.values()]
        results.append((row_id, rc, *(_digest(b) for b in texts + stored)))
    return results


def test_cli_output_table(tmp_path, monkeypatch):
    expected = [(row_id, *digests) for row_id, _command, *digests in OUTPUT_TABLE]
    assert _run_output_table(tmp_path) == expected
    # usage messages wrap at a fixed width, not at the terminal's
    monkeypatch.setenv("COLUMNS", "1000")
    wide = tmp_path / "wide"
    wide.mkdir()
    assert _run_output_table(wide) == expected


def test_the_cli_builds_each_trace_once(specs, capsys, monkeypatch):
    # the records the CLI replays are the ones it writes; a second build of the
    # run's records for the file was waste
    built = []
    records = valmono.trace.trace_records

    def counted(frame):
        built.append(frame)
        return records(frame)

    monkeypatch.setattr(valmono.trace, "trace_records", counted)
    monkeypatch.setattr(cli, "trace_records", counted)
    trace = specs["dir"] / "run.jsonl"
    assert main(["monomialize", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y", "--trace", str(trace)]) == 0
    capsys.readouterr()
    # the replay traces its own starting frame once; no frame is traced twice
    assert len(built) == len({id(frame) for frame in built}) == 2
    assert trace.read_text() == "".join(json.dumps(rec) + "\n" for rec in records(built[0]))
    # with --state too, the state file takes the records the trace file and the replay take
    built.clear()
    state = specs["dir"] / "run-state.json"
    assert main(["monomialize", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y",
                 "--trace", str(trace), "--state", str(state)]) == 0
    capsys.readouterr()
    assert len(built) == len({id(frame) for frame in built}) == 2
    assert json.loads(state.read_text())["trace"] == records(built[0])


def test_the_readme_run_writes_the_recorded_files(specs, capsys):
    # the README's monomialize run; the digests are those of the OUTPUT_TABLE
    # monomialize rows (the state's re-recorded when states became compact JSON,
    # when the slice index left them and when the key image left them)
    trace, state = specs["dir"] / "run.jsonl", specs["dir"] / "run-state.json"
    assert main(["monomialize", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y", "--budget", "10000",
                 "--trace", str(trace), "--state", str(state), "--format", "json"]) == 0
    capsys.readouterr()
    assert (_digest(trace.read_bytes()), _digest(state.read_bytes())) == ("38c13a3513a62b55", "37da8c25ff286ebb")


def test_a_rerun_over_longer_files_writes_the_recorded_files(specs, capsys):
    # the README run over longer files at its paths: both are overwritten in
    # place and cut at the new end, so they keep their inodes and lose the old tail
    trace, state = specs["dir"] / "run.jsonl", specs["dir"] / "run-state.json"
    for path in (trace, state):
        path.write_text("a longer file from an earlier run\n" * 2000)
    inodes = (trace.stat().st_ino, state.stat().st_ino)
    assert main(["monomialize", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y", "--budget", "10000",
                 "--trace", str(trace), "--state", str(state), "--format", "json"]) == 0
    capsys.readouterr()
    assert (_digest(trace.read_bytes()), _digest(state.read_bytes())) == ("38c13a3513a62b55", "37da8c25ff286ebb")
    assert (trace.stat().st_ino, state.stat().st_ino) == inodes


# the slice index a state file held before the divisibility slices went: the
# README run had done one slice, and its budget-0 run stopped before the first
PARENT_SLICE_INDEX = {"10000": 1, "0": 0}
# the key image a state file held before the loop came to transport the last
# key afresh: the README run's after its key step, the budget-0 run's z itself
PARENT_KEY_IMAGE = {
    "10000": {"num": "x^2*y^2*z'^2 + x^2*y^2*z'", "den": "1"},
    "0": {"num": "z", "den": "1"},
}


@pytest.mark.parametrize(
    "budget, rc, parent_digest", [("10000", 0, "31410e3cf033acb2"), ("0", 3, "57c191005aee1448")]
)
def test_a_state_in_the_indented_layout_still_loads(specs, capsys, budget, rc, parent_digest):
    # every state file written before states became compact JSON was indented,
    # every one written before the slices went has a slice index, and every
    # one written before the key image left the state has one; the digests
    # are those the OUTPUT_TABLE monomialize rows recorded then
    state, older = specs["dir"] / "run-state.json", specs["dir"] / "older-state.json"
    assert main(["monomialize", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y", "--budget", budget,
                 "--state", str(state)]) == rc
    capsys.readouterr()
    assert state.read_text().count("\n") == 1
    blob = json.loads(state.read_text())
    assert "slice_index" not in blob and "key_image" not in blob
    with open(older, "w", encoding="utf-8") as fh:
        parent = dict(blob, slice_index=PARENT_SLICE_INDEX[budget], key_image=PARENT_KEY_IMAGE[budget])
        json.dump(parent, fh, indent=1, sort_keys=True)
        fh.write("\n")
    assert _digest(older.read_bytes()) == parent_digest
    assert state_to_json(load_state(older)) == state_to_json(load_state(state)) == blob


def test_trace_and_state_can_go_to_a_device(specs, capsys):
    # only a regular file is cut at the end of the new bytes; /dev/null cannot be
    assert main(["monomialize", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y",
                 "--trace", os.devnull, "--state", os.devnull]) == 0
    assert capsys.readouterr().err == ""
