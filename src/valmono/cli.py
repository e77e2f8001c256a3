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
import random
import sys
from fractions import Fraction

from .blowup_engine import check_frame_values, divide_monomials, principalize
from .errors import CertificationError, ParseError, ValmonoError
from .exact_algebra import MultiPoly, RationalFunction, UniPoly, divided_derivative
from .orchestrator import (
    _initial_frame,
    _variable_lattice,
    embedded_uniformize,
    monomialize,
    save_state,
    steps_used,
)
from .ordered_value import compare, format_element, is_sentinel, standard_group
from .puiseux import monomialize_limit_successor, puiseux_package, valuation_driver
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
from .valuation_core import Augmented, Composite, Monomial, epsilon, truncated_value

DEFAULT_SEED = 20260814
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
    lattice = _variable_lattice(spec, names)
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
    succ, cert = next_successor(spec, q, lattice)
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


def _golden_problem():
    G = standard_group()

    def el(*pairs):
        return G.element(*(G.scalar(value=Fraction(a), pi=Fraction(b)) for a, b in pairs))

    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    X = UniPoly.x(2)
    Q = X**2 - (x**2) * y
    nu2 = Monomial(G, [el((1, 0)), el((0, 2)), el((1, 1))])
    return G, el, x, y, X, Q, nu2, Composite(Q, nu2)


def _check(ok, what: str) -> None:
    """A selftest check that also runs under python -O."""
    if not ok:
        raise CertificationError(f"check failed: {what}")


def _selftest_cases(seed: int):
    G, el, x, y, X, Q, nu2, nu3 = _golden_problem()

    def case_epsilon():
        rep = epsilon(nu3, Q)
        _check(compare(rep.epsilon, el((1, 0), (-1, -1))) == 0, "epsilon(Q)")
        _check(compare(epsilon(nu3, X).epsilon, el((0, 0), (1, 1))) == 0, "epsilon(z)")
        for plain in (x, y):
            r = epsilon(nu3, UniPoly.constant(2, plain))
            _check(is_sentinel(r.epsilon), "epsilon of a constant")

    def case_truncation():
        rep = truncated_value(nu3, Q, Q)
        _check(compare(rep.value, el((1, 0), (0, 0))) == 0, "truncated value of Q")
        dq = divided_derivative(Q, 1)
        rep2 = truncated_value(nu3, Q, dq)
        _check(compare(rep2.value, el((0, 0), (1, 1))) == 0, "truncated value of dQ")

    def case_successor():
        lattice = _variable_lattice(nu2, ["x", "y", "z"])
        succ, cert = next_successor(nu2, X, lattice)
        _check(succ == Q and cert.alpha == 2, "successor of z")
        rep = verify_immediate_successor(nu3, X, Q, lattice)
        _check(rep.passed and rep.alpha == 2, "immediate successor check")

    def case_package():
        frame = _initial_frame(nu3, ["x", "y", "z"])
        f = MultiPoly(3, {(0, 0, 2): 1, (2, 1, 0): -1})
        pkg = puiseux_package(frame, nu3, f=f, new_name="t")
        _check(pkg.exponents == (2, 2, 1), "package exponents")
        _check(pkg.residue == 1, "package residue")
        _check(compare(pkg.value, el((1, 0), (0, 0))) == 0, "package value")
        report = replay_trace(trace_records(pkg.frame))
        _check(report["ok"] and report["steps"] == 3, "package trace replay")

    def case_limit():
        xx = MultiPoly.variable(1, 0)
        U = UniPoly.x(1)
        base = Monomial(G, [el((1, 0)), el((0, 1))])
        spec_u4 = Augmented(base, U, el((4, 0)))
        P2 = U + UniPoly.constant(1, xx**4)
        spec = Augmented(spec_u4, P2, el((5, 0)))
        frame = _initial_frame(spec, ["x", "u"])
        res = monomialize_limit_successor(frame, spec, U, P2, new_name="t")
        _check(res.exponents == (4, 1), "limit exponents")
        _check(compare(res.value, el((5, 0))) == 0, "limit value")
        report = replay_trace(trace_records(res.frame))
        _check(report["ok"], "limit trace replay")

    def case_monomialize():
        out = monomialize(nu3, Q, DEFAULT_BUDGET, names=["x", "y", "z"])
        _check(out.exponents == (2, 2, 1), "monomialize exponents")
        recon = out.frame.pullback_of(RationalFunction(out.monomial()) * out.unit)
        q3 = RationalFunction(MultiPoly(3, {(0, 0, 2): 1, (2, 1, 0): -1}))
        _check(recon == q3, "monomial times unit pulls back to Q")

    def case_multiplicative():
        rng = random.Random(seed)
        for _ in range(20):
            p1 = _random_unipoly(rng)
            p2 = _random_unipoly(rng)
            lhs = truncated_value(nu3, Q, p1 * p2).value
            rhs = truncated_value(nu3, Q, p1).value + truncated_value(nu3, Q, p2).value
            _check(compare(lhs, rhs) == 0, "truncated value is multiplicative")

    return [
        ("epsilon-goldens", case_epsilon),
        ("truncation-goldens", case_truncation),
        ("successor-goldens", case_successor),
        ("puiseux-package", case_package),
        ("limit-successor", case_limit),
        ("end-to-end-monomialize", case_monomialize),
        ("truncation-multiplicative", case_multiplicative),
    ]


def _random_unipoly(rng) -> UniPoly:
    while True:
        coeffs = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
            coeffs.append(MultiPoly(2, terms))
        p = UniPoly(2, coeffs)
        if not p.is_zero():
            return p


def _cmd_selftest(args, _names, _spec):
    failures = 0
    results = []
    for name, fn in _selftest_cases(args.seed):
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            results.append({"case": name, "ok": False, "error": str(exc)})
            print(f"FAIL {name}: {exc}", file=sys.stderr)
        else:
            results.append({"case": name, "ok": True})
    payload = {"verb": "selftest", "results": results}
    lines = [f"PASS {r['case']}" for r in results if r["ok"]]
    if failures:
        return payload, lines, f"{failures} selftest case(s) failed"
    return payload, lines


# -- entry point --------------------------------------------------------------------

# every option a verb can take, with its argparse settings
_OPTIONS = {
    "--spec": {"required": True, "help": "problem JSON (group/vars/val)"},
    "--format": {"choices": ["json", "text"], "default": "text"},
    "--trace": {"help": "write the JSONL blow-up trace here"},
    "--budget": {"type": int, "default": DEFAULT_BUDGET},
    "--state": {"help": "write the resumable state JSON here"},
    "--poly": {"required": True},
    "--key": {"required": True},
    "--check": {"help": "candidate successor to verify instead"},
    "--alpha": {"required": True, "help": "comma-separated exponents"},
    "--gamma": {"required": True, "help": "comma-separated exponents"},
    "--gens": {"required": True, "help": "semicolon-separated exponent lists"},
    "--polys": {"required": True, "help": "semicolon-separated, or a file"},
    "--seed": {"type": int, "default": DEFAULT_SEED},
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
    "selftest": ("run the golden example suite", _cmd_selftest, ("--format", "--seed")),
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
