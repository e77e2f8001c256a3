"""CLI verbs, output formats, exit codes, trace and state files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valmono
from valmono.cli import main
from valmono.orchestrator import load_state
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


def test_eval_golden(specs, capsys):
    assert main(["eval", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y"]) == 0
    assert capsys.readouterr().out.strip() == "(1, 0)"
    assert main(["eval", "--spec", specs["nu3"], "--poly", "1"]) == 0
    assert capsys.readouterr().out.strip() == "(0, 0)"


def test_epsilon_golden(specs, capsys):
    assert main(["epsilon", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y"]) == 0
    out = capsys.readouterr().out
    assert "epsilon = (1, -1 - pi)" in out
    assert main(["epsilon", "--spec", specs["nu3"], "--poly", "x", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == "-inf" and payload["b"] is None


def test_truncate_golden(specs, capsys):
    rc = main(
        ["truncate", "--spec", specs["nu3"], "--key", "z^2 - x^2*y", "--poly", "z^2 - x^2*y", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "(1, 0)"
    assert payload["S"] == [1] and payload["delta"] == 1


def test_successor_build_and_check(specs, capsys):
    assert main(["successor", "--spec", specs["nu2"], "--key", "z", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["successor"] == "z^2 - x^2*y"
    assert payload["alpha"] == 2 and payload["residue"] == "1"

    assert main(["successor", "--spec", specs["nu3"], "--key", "z", "--check", "z^2 - x^2*y"]) == 0
    assert "passed = True" in capsys.readouterr().out

    assert main(["successor", "--spec", specs["nu3"], "--key", "z", "--check", "z^3"]) == 3
    capsys.readouterr()


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
    payload = json.loads(capsys.readouterr().out)
    assert payload["divider"] == "equal"
    assert payload["alpha"] == payload["gamma"] == [2, 2, 0]
    report = verify_trace_file(str(trace))
    assert report["ok"] and report["steps"] == 3

    rc = main(["divide", "--spec", specs["nu3"], "--alpha", "0,0,2", "--gamma", "2,1,0", "--format", "dot"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("digraph trace {")


def test_principalize_verb(specs, capsys):
    rc = main(["principalize", "--spec", specs["nu3"], "--gens", "3,0,0;0,2,1", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generators"][payload["index"]] == [3, 0, 0]


def test_puiseux_verb(specs, capsys):
    rc = main(["puiseux", "--spec", specs["nu3"], "--poly", "z^2 - x^2*y", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exponents"] == [2, 2, 1]
    assert payload["residue"] == "1"
    assert payload["value"] == "(1, 0)"

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
    payload = json.loads(capsys.readouterr().out)
    assert payload["exponents"] == [2, 2, 1]
    assert payload["steps"] == 3
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


def test_parse_errors_exit_two(specs, capsys):
    assert main(["eval", "--spec", specs["nu3"], "--poly", "z^^2"]) == 2
    assert main(["eval", "--spec", str(specs["dir"] / "missing.json"), "--poly", "z"]) == 2
    assert main(["eval", "--spec", specs["nu3"], "--poly", "z", "--format", "dot"]) == 2
    capsys.readouterr()


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


# exponent lists of Laurent monomials, which the divide loop does not certify
NEGATIVE_EXPONENTS = {
    "divide": ["divide", "--alpha=2,-3,1", "--gamma=-1,2,0"],
    "principalize": ["principalize", "--gens=-1,0,0;0,1,0"],
}


@pytest.mark.parametrize("argv", NEGATIVE_EXPONENTS.values(), ids=NEGATIVE_EXPONENTS)
def test_negative_exponents_exit_two(specs, capsys, argv):
    assert main([argv[0], "--spec", specs["nu3"], *argv[1:]]) == 2
    assert "has a negative entry" in capsys.readouterr().err


def test_selftest_passes(specs, capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert main(["selftest", "--format", "json", "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(case["ok"] for case in payload["results"])


def test_selftest_checks_under_optimize():
    # with compare broken every golden value check must fail, also under -O
    code = (
        "import sys, valmono.cli as cli\n"
        "cli.compare = lambda a, b: 1\n"
        "sys.exit(cli.main(['selftest']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(valmono.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 3, proc.stderr
    assert "FAIL epsilon-goldens" in proc.stderr
