"""Command-line surface for the valuation toolkit.

Every verb maps to one library operation. Exit code 0 means the operation
ran and its postcondition was certified; 2 means the inputs did not parse;
3 means the operation ran but certification failed, with a diagnostic on
stderr. A trace-producing verb checks its frame's values against the
problem's valuation and replays its trace through the verifier before the
process reports success.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shlex
import sys

from .blowup_engine import check_frame_values, divide_monomials, principalize
from .errors import ParseError, ValmonoError
from .orchestrator import (
    _initial_frame,
    _variable_lattice,
    embedded_uniformize,
    monomialize,
    save_state,
    steps_used,
)
from .ordered_value import format_element, parse_element, standard_group
from .puiseux import puiseux_package, valuation_driver
from .serde import (
    format_multipoly,
    format_rational,
    format_unipoly,
    load_problem,
    parse_key,
    parse_polynomial,
    parse_unipoly,
)
from .successors import next_successor, verify_immediate_successor
from .trace import replay_trace, to_dot, trace_records, write_records
from .valuation_core import Composite, Monomial, epsilon, truncated_value

DEFAULT_BUDGET = 10_000


def _read_source(value: str):
    """A CLI polynomial argument: inline text, or a path to text/JSON."""
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            content = fh.read()
        try:
            obj = json.loads(content)
        except json.JSONDecodeError:
            return content.strip()
        if isinstance(obj, dict) and "polys" in obj:
            return [str(p) for p in obj["polys"]]
        if isinstance(obj, dict) and "poly" in obj:
            return str(obj["poly"])
        if isinstance(obj, list):
            return [str(p) for p in obj]
        if isinstance(obj, str):
            return obj
        raise ParseError(f"unsupported polynomial file layout in {value!r}")
    return value


def _one_poly(value: str) -> str:
    src = _read_source(value)
    if isinstance(src, list):
        raise ParseError("expected a single polynomial, got a list")
    return src


def _many_polys(value: str) -> list:
    src = _read_source(value)
    if isinstance(src, str):
        src = [p for p in src.split(";") if p.strip()]
    if not src:
        raise ParseError("no polynomial in the input list")
    return src


def _exponents(text: str, width: int) -> tuple:
    try:
        out = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad exponent list {text!r}") from exc
    if len(out) != width:
        raise ParseError(f"exponent list {text!r} needs {width} entries")
    if any(e < 0 for e in out):
        raise ParseError(f"exponent list {text!r} has a negative entry")
    return out


def _finish_trace(args, frame, spec, state=None) -> None:
    """Save the state and write the trace if asked, then always check and replay the trace.

    The frame's records are built once: the state file, the trace file and
    the replay all take the same list.
    """
    records = trace_records(frame)
    if state is not None and args.state:
        save_state(state, args.state, records)
    if args.trace:
        write_records(records, args.trace)
    check_frame_values(frame, spec)
    replay_trace(records)
    if args.format == "dot":
        print(to_dot(records))


# -- verbs ------------------------------------------------------------------------
# Each verb takes the parsed arguments and the problem's names and spec, and
# returns its JSON payload and text lines, plus a failure message for stderr
# when it ran but did not certify.


def _cmd_eval(args, names, spec):
    f = parse_unipoly(_one_poly(args.poly), names)
    v = format_element(spec.value(f))
    return {"verb": "eval", "value": v}, [v]


def _cmd_epsilon(args, names, spec):
    f = parse_unipoly(_one_poly(args.poly), names)
    rep = epsilon(spec, f)
    text = format_element(rep.epsilon)
    payload = {
        "verb": "epsilon",
        "epsilon": text,
        "b": rep.b,
        "I": list(rep.I),
    }
    return payload, [f"epsilon = {text}", f"b = {rep.b}", f"I = {list(rep.I)}"]


def _cmd_truncate(args, names, spec):
    q = parse_key(_one_poly(args.key), names)
    f = parse_unipoly(_one_poly(args.poly), names)
    rep = truncated_value(spec, q, f)
    payload = {
        "verb": "truncate",
        "value": format_element(rep.value),
        "S": list(rep.S),
        "delta": rep.delta,
        "terms": [format_element(t) for t in rep.terms],
    }
    return payload, [f"value = {payload['value']}", f"S = {payload['S']}", f"delta = {rep.delta}"]


def _cmd_successor(args, names, spec):
    q = parse_key(_one_poly(args.key), names)
    lattice = _variable_lattice(spec, _initial_frame(spec, names))
    if args.check:
        cand = parse_unipoly(_one_poly(args.check), names)
        rep = verify_immediate_successor(spec, q, cand, lattice)
        payload = {
            "verb": "successor",
            "passed": rep.passed,
            "value_check": rep.value_check,
            "degree_check": rep.degree_check,
            "alpha": rep.alpha,
            "truncated": format_element(rep.truncated),
            "value": format_element(rep.value),
        }
        lines = [
            f"passed = {rep.passed}",
            f"alpha = {rep.alpha}",
            f"truncated = {payload['truncated']} < assigned = {payload['value']}",
        ]
        if not rep.passed:
            return payload, lines, "successor verification failed"
        return payload, lines
    succ, cert, _ = next_successor(spec, q, lattice)
    text = format_unipoly(succ, names[:-1], names[-1])
    payload = {
        "verb": "successor",
        "successor": text,
        "alpha": cert.alpha,
        "residue": str(cert.residue),
        "monomial": format_multipoly(cert.monomial, names[:-1]),
        "base_value": format_element(cert.base_value),
    }
    return payload, [text, f"alpha = {cert.alpha}", f"residue = {cert.residue}"]


def _cmd_divide(args, names, spec):
    frame = _initial_frame(spec, names)
    alpha = _exponents(args.alpha, frame.width)
    gamma = _exponents(args.gamma, frame.width)
    res = divide_monomials(frame, alpha, gamma, valuation_driver(spec))
    _finish_trace(args, res.frame, spec)
    payload = {
        "verb": "divide",
        "divider": res.divider,
        "alpha": list(res.alpha),
        "gamma": list(res.gamma),
        "steps": len(res.steps),
        "params": list(res.frame.names),
    }
    return payload, [
        f"divider = {res.divider}",
        f"alpha -> {list(res.alpha)}",
        f"gamma -> {list(res.gamma)}",
        f"steps = {len(res.steps)}",
    ]


def _cmd_principalize(args, names, spec):
    frame = _initial_frame(spec, names)
    gens = [_exponents(part, frame.width) for part in args.gens.split(";") if part.strip()]
    if not gens:
        raise ParseError("no exponent list in --gens")
    res = principalize(frame, gens, valuation_driver(spec))
    _finish_trace(args, res.frame, spec)
    payload = {
        "verb": "principalize",
        "generators": [list(e) for e in res.generators],
        "index": res.index,
        "steps": len(res.steps),
    }
    return payload, [
        f"principal generator = {list(res.generators[res.index])}",
        f"steps = {len(res.steps)}",
    ]


def _cmd_puiseux(args, names, spec):
    frame = _initial_frame(spec, names)
    f = parse_polynomial(_one_poly(args.poly), names)
    pkg = puiseux_package(frame, spec, f=f)
    _finish_trace(args, pkg.frame, spec)
    payload = {
        "verb": "puiseux",
        "params": list(pkg.frame.names),
        "exponents": list(pkg.exponents),
        "unit": format_rational(pkg.unit, pkg.frame.names),
        "value": format_element(pkg.value),
        "residue": str(pkg.residue),
        "new_parameter": pkg.new_name,
        "steps": len(pkg.steps),
    }
    return payload, [
        f"monomial exponents = {list(pkg.exponents)} over {list(pkg.frame.names)}",
        f"unit = {payload['unit']}",
        f"value = {payload['value']}",
        f"residue = {pkg.residue}",
        f"steps = {len(pkg.steps)}",
    ]


def _run_saving_state(args, run):
    """Run the master loop; with --state, save the state of a run that fails.

    A finished run's state is saved by ``_finish_trace``.
    """
    try:
        return run()
    except ValmonoError as exc:
        state = getattr(exc, "state", None)
        if state is not None and args.state:
            save_state(state, args.state)
        raise


def _cmd_monomialize(args, names, spec):
    f = parse_unipoly(_one_poly(args.poly), names)
    out = _run_saving_state(args, lambda: monomialize(spec, f, args.budget, names=names))
    _finish_trace(args, out.frame, spec, out.state)
    payload = {
        "verb": "monomialize",
        "params": list(out.frame.names),
        "exponents": list(out.exponents),
        "unit": format_rational(out.unit, out.frame.names),
        "value": format_element(out.value),
        "steps": steps_used(out.state),
    }
    return payload, [
        f"monomial exponents = {list(out.exponents)} over {list(out.frame.names)}",
        f"unit = {payload['unit']}",
        f"value = {payload['value']}",
        f"steps = {payload['steps']}",
    ]


def _cmd_uniformize(args, names, spec):
    polys = [parse_unipoly(p, names) for p in _many_polys(args.polys)]
    out = _run_saving_state(
        args, lambda: embedded_uniformize(spec, polys, args.budget, names=names)
    )
    _finish_trace(args, out.frame, spec, out.state)
    payload = {
        "verb": "uniformize",
        "params": list(out.frame.names),
        "order": list(out.order),
        "entries": [
            {
                "exponents": list(e),
                "unit": format_rational(u, out.frame.names),
                "value": format_element(v),
            }
            for e, u, v in out.entries
        ],
    }
    lines = [f"order = {list(out.order)} over {list(out.frame.names)}"]
    for i, entry in enumerate(payload["entries"]):
        lines.append(f"f{i + 1}: exponents = {entry['exponents']} value = {entry['value']}")
    return payload, lines


# -- selftest ---------------------------------------------------------------------

_README_NAMES = ("x", "y", "z")

# The README problem's golden outputs, one row per verb: the case, the problem
# ("nu2" is the monomial valuation x:1, y:2*pi, z:1+pi, "nu3" the composite one
# over it with key z^2 - x^2*y), the command line, and the payload the command
# prints with --format json. ``selftest`` runs each row in memory; the tests run
# each through ``main`` on the same problem read from a file.
GOLDEN = (
    ("eval-key", "nu3", "eval --poly 'z^2 - x^2*y'", {"value": "(1, 0)", "verb": "eval"}),
    ("epsilon-key", "nu3", "epsilon --poly 'z^2 - x^2*y'",
     {"I": [1], "b": 1, "epsilon": "(1, -1 - pi)", "verb": "epsilon"}),
    ("epsilon-z", "nu3", "epsilon --poly z", {"I": [1], "b": 1, "epsilon": "(0, 1 + pi)", "verb": "epsilon"}),
    ("epsilon-x", "nu3", "epsilon --poly x", {"I": [], "b": None, "epsilon": "-inf", "verb": "epsilon"}),
    ("truncate-key", "nu3", "truncate --key 'z^2 - x^2*y' --poly 'z^2 - x^2*y'",
     {"S": [1], "delta": 1, "terms": ["+inf", "(1, 0)"], "value": "(1, 0)", "verb": "truncate"}),
    ("truncate-2z", "nu3", "truncate --key 'z^2 - x^2*y' --poly '2*z'",
     {"S": [0], "delta": 0, "terms": ["(0, 1 + pi)"], "value": "(0, 1 + pi)", "verb": "truncate"}),
    ("successor-z", "nu2", "successor --key z",
     {"alpha": 2, "base_value": "2 + 2*pi", "monomial": "x^2*y", "residue": "1",
      "successor": "z^2 - x^2*y", "verb": "successor"}),
    ("successor-check", "nu3", "successor --key z --check 'z^2 - x^2*y'",
     {"alpha": 2, "degree_check": True, "passed": True, "truncated": "(0, 2 + 2*pi)", "value": "(1, 0)",
      "value_check": True, "verb": "successor"}),
    ("divide", "nu3", "divide --alpha 0,0,2 --gamma 2,1,0",
     {"alpha": [2, 2, 0], "divider": "equal", "gamma": [2, 2, 0], "params": ["x", "y", "z'"], "steps": 3,
      "verb": "divide"}),
    ("principalize", "nu3", "principalize --gens '3,0,0;0,2,1'",
     {"generators": [[3, 0, 0]], "index": 0, "steps": 1, "verb": "principalize"}),
    ("puiseux", "nu3", "puiseux --poly 'z^2 - x^2*y'",
     {"exponents": [2, 2, 1], "new_parameter": "z'", "params": ["x", "y", "z'"], "residue": "1", "steps": 3,
      "unit": "z' + 1", "value": "(1, 0)", "verb": "puiseux"}),
    ("monomialize", "nu3", "monomialize --poly 'z^2 - x^2*y'",
     {"exponents": [2, 2, 1], "params": ["x", "y", "z'"], "steps": 3, "unit": "z' + 1", "value": "(1, 0)",
      "verb": "monomialize"}),
    ("uniformize", "nu3", "uniformize --polys 'x^2*y;z^2 - x^2*y'",
     {"entries": [{"exponents": [2, 2, 0], "unit": "z' + 1", "value": "(0, 2 + 2*pi)"},
                  {"exponents": [2, 2, 1], "unit": "z' + 1", "value": "(1, 0)"}],
      "order": [0, 1], "params": ["x", "y", "z'"], "verb": "uniformize"}),
)


def _readme_specs() -> dict:
    """The README problem's valuations by name, as ``load_problem`` reads them from its file."""
    G = standard_group()
    nu2 = Monomial(G, [parse_element(G, w) for w in ("1", "2*pi", "1+pi")])
    return {"nu2": nu2, "nu3": Composite(parse_key("z^2 - x^2*y", _README_NAMES), nu2)}


def _cmd_selftest(args, _names, _spec):
    """Run every GOLDEN row's verb in memory; a trace verb checks and replays its trace but writes no file."""
    specs = _readme_specs()
    results = []
    for case, problem, command, expected in GOLDEN:
        # --spec carries the problem's name here; no file is read
        row = _parser().parse_args([*shlex.split(command), "--spec", problem])
        try:
            got = json.dumps(_VERBS[row.verb][1](row, _README_NAMES, specs[problem])[0], sort_keys=True)
            error = None if got == json.dumps(expected, sort_keys=True) else f"payload {got}"
        except Exception as exc:  # noqa: BLE001 - report and keep going
            error = str(exc)
        if error is None:
            results.append({"case": case, "ok": True})
        else:
            results.append({"case": case, "ok": False, "error": error})
            print(f"FAIL {case}: {error}", file=sys.stderr)
    payload = {"verb": "selftest", "results": results}
    lines = [f"PASS {r['case']}" for r in results if r["ok"]]
    if len(lines) < len(results):
        return payload, lines, f"{len(results) - len(lines)} selftest case(s) failed"
    return payload, lines


# -- entry point --------------------------------------------------------------------

# every option a verb can take, with its argparse settings
_OPTIONS = {
    "--spec": {"required": True, "help": "problem JSON (group/vars/val)"},
    "--format": {"choices": ["json", "text"], "default": "text"},
    "--trace": {"help": "write the JSONL blow-up trace here"},
    "--budget": {"type": int, "default": DEFAULT_BUDGET},
    "--state": {"help": "write the run's state JSON here: problem, budget, trace and key chain; "
                        "no verb resumes from it yet"},
    "--poly": {"required": True},
    "--key": {"required": True},
    "--check": {"help": "candidate successor to verify instead"},
    "--alpha": {"required": True, "help": "comma-separated exponents"},
    "--gamma": {"required": True, "help": "comma-separated exponents"},
    "--gens": {"required": True, "help": "semicolon-separated exponent lists"},
    "--polys": {"required": True, "help": "semicolon-separated, or a file"},
}
_QUERY = ("--spec", "--format")
_TRACED = (*_QUERY, "--trace")
_RESUMABLE = (*_TRACED, "--budget", "--state")

# verb: (help, handler, its options in help order)
_VERBS = {
    "eval": ("value of a polynomial", _cmd_eval, (*_QUERY, "--poly")),
    "epsilon": ("the epsilon invariant", _cmd_epsilon, (*_QUERY, "--poly")),
    "truncate": ("truncated value along a key", _cmd_truncate, (*_QUERY, "--key", "--poly")),
    "successor": ("build or check an immediate successor", _cmd_successor, (*_QUERY, "--key", "--check")),
    "divide": ("make one monomial divide another", _cmd_divide, (*_TRACED, "--alpha", "--gamma")),
    "principalize": ("principalize a monomial ideal", _cmd_principalize, (*_TRACED, "--gens")),
    "puiseux": ("Puiseux package of a decorated binomial", _cmd_puiseux, (*_TRACED, "--poly")),
    "monomialize": ("certified monomial times unit form", _cmd_monomialize, (*_RESUMABLE, "--poly")),
    "uniformize": ("shared-frame monomialization of a list", _cmd_uniformize, (*_RESUMABLE, "--polys")),
    "selftest": ("run the golden example suite", _cmd_selftest, ("--format",)),
}


# usage and help wrap at 78 columns whatever the terminal's width, so output is reproducible
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser for every verb in _VERBS, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="valmono",
        description="Exact valuation invariants and effective monomialization.",
        formatter_class=_FORMATTER,
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, _handler, options) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text, formatter_class=_FORMATTER)
        for flag in options:
            settings = _OPTIONS[flag]
            if flag == "--format" and "--trace" in options:  # only a trace has a dot graph
                settings = {**settings, "choices": [*settings["choices"], "dot"]}
            p.add_argument(flag, **settings)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _help, handler, options = _VERBS[args.verb]
    try:
        names = spec = None
        if "--spec" in options:
            with open(args.spec, "r", encoding="utf-8") as fh:
                _group, names, spec = load_problem(json.load(fh))
        payload, lines, *failure = handler(args, names, spec)
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True))
        elif args.format == "text":
            for line in lines:
                print(line)
        # with --format dot the trace graph was already printed
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValmonoError as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 3
    if failure:
        print(*failure, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
