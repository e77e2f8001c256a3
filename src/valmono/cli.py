"""Command-line surface for the valuation toolkit.

Every verb maps to one library operation. Exit code 0 means the operation
ran and its postcondition was certified; 2 means the inputs did not parse;
3 means the operation ran but certification failed, with a diagnostic on
stderr. Traces written with --trace are replayed through the verifier
before the process reports success.

Set VALMONO_PI_DIGITS to deepen the default precision of the pi generator.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .blowup_engine import divide_monomials, principalize
from .errors import ParseError, ValmonoError
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
    parse_polynomial,
    parse_unipoly,
)
from .successors import next_successor, verify_immediate_successor
from .trace import replay_trace, to_dot, trace_records, write_trace
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
        return [p for p in src.split(";") if p.strip()]
    return src


def _load_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_problem(json.load(fh))


def _exponents(text: str, width: int) -> tuple:
    try:
        out = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad exponent list {text!r}") from exc
    if len(out) != width:
        raise ParseError(f"exponent list {text!r} needs {width} entries")
    return out


def _element_text(v) -> str:
    return format_element(v)


def _emit(args, payload: dict, lines: list) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _finish_trace(args, frame) -> list:
    """Write the trace if asked, then always replay it through the verifier."""
    records = trace_records(frame)
    if getattr(args, "trace", None):
        write_trace(frame, args.trace)
    replay_trace(records)
    if args.format == "dot":
        print(to_dot(records))
    return records


def _require_not_dot(args) -> None:
    if args.format == "dot":
        raise ParseError("dot output is only available for trace-producing verbs")


# -- verbs ------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    _require_not_dot(args)
    _group, names, spec = _load_spec(args.spec)
    f = parse_unipoly(_one_poly(args.poly), names)
    v = spec.value(f)
    _emit(args, {"verb": "eval", "value": _element_text(v)}, [_element_text(v)])
    return 0


def _cmd_epsilon(args) -> int:
    _require_not_dot(args)
    _group, names, spec = _load_spec(args.spec)
    f = parse_unipoly(_one_poly(args.poly), names)
    rep = epsilon(spec, f)
    text = _element_text(rep.epsilon)
    payload = {
        "verb": "epsilon",
        "epsilon": text,
        "b": rep.b,
        "I": list(rep.I),
    }
    _emit(args, payload, [f"epsilon = {text}", f"b = {rep.b}", f"I = {list(rep.I)}"])
    return 0


def _cmd_truncate(args) -> int:
    _require_not_dot(args)
    _group, names, spec = _load_spec(args.spec)
    q = parse_unipoly(_one_poly(args.key), names)
    f = parse_unipoly(_one_poly(args.poly), names)
    rep = truncated_value(spec, q, f)
    payload = {
        "verb": "truncate",
        "value": _element_text(rep.value),
        "S": list(rep.S),
        "delta": rep.delta,
        "terms": [_element_text(t) for t in rep.terms],
    }
    _emit(
        args,
        payload,
        [
            f"value = {payload['value']}",
            f"S = {payload['S']}",
            f"delta = {rep.delta}",
        ],
    )
    return 0


def _cmd_successor(args) -> int:
    _require_not_dot(args)
    _group, names, spec = _load_spec(args.spec)
    q = parse_unipoly(_one_poly(args.key), names)
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
            "truncated": _element_text(rep.truncated),
            "value": _element_text(rep.value),
        }
        _emit(
            args,
            payload,
            [
                f"passed = {rep.passed}",
                f"alpha = {rep.alpha}",
                f"truncated = {payload['truncated']} < assigned = {payload['value']}",
            ],
        )
        if not rep.passed:
            print("successor verification failed", file=sys.stderr)
            return 3
        return 0
    succ, cert = next_successor(spec, q, lattice)
    text = format_unipoly(succ, names[:-1], names[-1])
    payload = {
        "verb": "successor",
        "successor": text,
        "alpha": cert.alpha,
        "residue": str(cert.residue),
        "monomial": format_multipoly(cert.monomial, names[:-1]),
        "base_value": _element_text(cert.base_value),
    }
    _emit(
        args,
        payload,
        [text, f"alpha = {cert.alpha}", f"residue = {cert.residue}"],
    )
    return 0


def _cmd_divide(args) -> int:
    _group, names, spec = _load_spec(args.spec)
    frame = _initial_frame(spec, names)
    alpha = _exponents(args.alpha, frame.width)
    gamma = _exponents(args.gamma, frame.width)
    res = divide_monomials(frame, alpha, gamma, valuation_driver(spec))
    _finish_trace(args, res.frame)
    payload = {
        "verb": "divide",
        "divider": res.divider,
        "alpha": list(res.alpha),
        "gamma": list(res.gamma),
        "steps": len(res.steps),
        "params": list(res.frame.names),
    }
    if args.format != "dot":
        _emit(
            args,
            payload,
            [
                f"divider = {res.divider}",
                f"alpha -> {list(res.alpha)}",
                f"gamma -> {list(res.gamma)}",
                f"steps = {len(res.steps)}",
            ],
        )
    return 0


def _cmd_principalize(args) -> int:
    _group, names, spec = _load_spec(args.spec)
    frame = _initial_frame(spec, names)
    gens = [_exponents(part, frame.width) for part in args.gens.split(";") if part.strip()]
    res = principalize(frame, gens, valuation_driver(spec))
    _finish_trace(args, res.frame)
    payload = {
        "verb": "principalize",
        "generators": [list(e) for e in res.generators],
        "index": res.index,
        "steps": len(res.steps),
    }
    if args.format != "dot":
        _emit(
            args,
            payload,
            [
                f"principal generator = {list(res.generators[res.index])}",
                f"steps = {len(res.steps)}",
            ],
        )
    return 0


def _cmd_puiseux(args) -> int:
    _group, names, spec = _load_spec(args.spec)
    frame = _initial_frame(spec, names)
    f = parse_polynomial(_one_poly(args.poly), names)
    pkg = puiseux_package(frame, spec, f=f)
    _finish_trace(args, pkg.frame)
    payload = {
        "verb": "puiseux",
        "params": list(pkg.frame.names),
        "exponents": list(pkg.exponents),
        "unit": format_rational(pkg.unit, pkg.frame.names),
        "value": _element_text(pkg.value),
        "residue": str(pkg.residue),
        "new_parameter": pkg.new_name,
        "steps": len(pkg.steps),
    }
    if args.format != "dot":
        _emit(
            args,
            payload,
            [
                f"monomial exponents = {list(pkg.exponents)} over {list(pkg.frame.names)}",
                f"unit = {payload['unit']}",
                f"value = {payload['value']}",
                f"residue = {pkg.residue}",
                f"steps = {len(pkg.steps)}",
            ],
        )
    return 0


def _cmd_monomialize(args) -> int:
    _group, names, spec = _load_spec(args.spec)
    f = parse_unipoly(_one_poly(args.poly), names)
    try:
        out = monomialize(spec, f, args.budget, names=names)
    except ValmonoError as exc:
        state = getattr(exc, "state", None)
        if state is not None and args.state:
            save_state(state, args.state)
        raise
    if args.state:
        save_state(out.state, args.state)
    _finish_trace(args, out.frame)
    payload = {
        "verb": "monomialize",
        "params": list(out.frame.names),
        "exponents": list(out.exponents),
        "unit": format_rational(out.unit, out.frame.names),
        "value": _element_text(out.value),
        "steps": steps_used(out.state),
    }
    if args.format != "dot":
        _emit(
            args,
            payload,
            [
                f"monomial exponents = {list(out.exponents)} over {list(out.frame.names)}",
                f"unit = {payload['unit']}",
                f"value = {payload['value']}",
                f"steps = {payload['steps']}",
            ],
        )
    return 0


def _cmd_uniformize(args) -> int:
    _group, names, spec = _load_spec(args.spec)
    polys = [parse_unipoly(p, names) for p in _many_polys(args.polys)]
    try:
        out = embedded_uniformize(spec, polys, args.budget, names=names)
    except ValmonoError as exc:
        state = getattr(exc, "state", None)
        if state is not None and args.state:
            save_state(state, args.state)
        raise
    if args.state:
        save_state(out.state, args.state)
    _finish_trace(args, out.frame)
    payload = {
        "verb": "uniformize",
        "params": list(out.frame.names),
        "order": list(out.order),
        "entries": [
            {
                "exponents": list(e),
                "unit": format_rational(u, out.frame.names),
                "value": _element_text(v),
            }
            for e, u, v in out.entries
        ],
    }
    if args.format != "dot":
        lines = [f"order = {list(out.order)} over {list(out.frame.names)}"]
        for i, entry in enumerate(payload["entries"]):
            lines.append(f"f{i + 1}: exponents = {entry['exponents']} value = {entry['value']}")
        _emit(args, payload, lines)
    return 0


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


def _selftest_cases(seed: int):
    G, el, x, y, X, Q, nu2, nu3 = _golden_problem()
    zero2 = el((0, 0), (0, 0))

    def case_epsilon():
        rep = epsilon(nu3, Q)
        assert compare(rep.epsilon, el((1, 0), (-1, -1))) == 0
        assert compare(epsilon(nu3, X).epsilon, el((0, 0), (1, 1))) == 0
        for plain in (x, y):
            r = epsilon(nu3, UniPoly.constant(2, RationalFunction(plain)))
            assert is_sentinel(r.epsilon)

    def case_truncation():
        rep = truncated_value(nu3, Q, Q)
        assert compare(rep.value, el((1, 0), (0, 0))) == 0
        dq = divided_derivative(Q, 1)
        rep2 = truncated_value(nu3, Q, dq)
        assert compare(rep2.value, el((0, 0), (1, 1))) == 0

    def case_successor():
        lattice = _variable_lattice(nu2, ["x", "y", "z"])
        succ, cert = next_successor(nu2, X, lattice)
        assert succ == Q and cert.alpha == 2
        rep = verify_immediate_successor(nu3, X, Q, lattice)
        assert rep.passed and rep.alpha == 2

    def case_package():
        frame = _initial_frame(nu3, ["x", "y", "z"])
        f = MultiPoly(3, {(0, 0, 2): 1, (2, 1, 0): -1})
        pkg = puiseux_package(frame, nu3, f=f, new_name="t")
        assert pkg.exponents == (2, 2, 1)
        assert pkg.residue == 1
        assert compare(pkg.value, el((1, 0), (0, 0))) == 0
        report = replay_trace(trace_records(pkg.frame))
        assert report["ok"] and report["steps"] == 3

    def case_limit():
        xx = MultiPoly.variable(1, 0)
        U = UniPoly.x(1)
        base = Monomial(G, [el((1, 0)), el((0, 1))])
        spec_u4 = Augmented(base, U, el((4, 0)))
        P2 = U + UniPoly.constant(1, xx**4)
        spec = Augmented(spec_u4, P2, el((5, 0)))
        frame = _initial_frame(spec, ["x", "u"])
        res = monomialize_limit_successor(frame, spec, U, P2, new_name="t")
        assert res.exponents == (4, 1)
        assert compare(res.value, el((5, 0))) == 0
        report = replay_trace(trace_records(res.frame))
        assert report["ok"]

    def case_monomialize():
        out = monomialize(nu3, Q, DEFAULT_BUDGET, names=["x", "y", "z"])
        assert out.exponents == (2, 2, 1)
        recon = out.frame.pullback_of(RationalFunction(out.monomial()) * out.unit)
        assert recon == RationalFunction(MultiPoly(3, {(0, 0, 2): 1, (2, 1, 0): -1}))

    def case_multiplicative():
        rng = random.Random(seed)
        for _ in range(20):
            p1 = _random_unipoly(rng)
            p2 = _random_unipoly(rng)
            lhs = truncated_value(nu3, Q, p1 * p2).value
            rhs = truncated_value(nu3, Q, p1).value + truncated_value(nu3, Q, p2).value
            assert compare(lhs, rhs) == 0

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
            coeffs.append(RationalFunction(MultiPoly(2, terms)))
        p = UniPoly(2, coeffs)
        if not p.is_zero():
            return p


def _cmd_selftest(args) -> int:
    _require_not_dot(args)
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
            if args.format != "json":
                print(f"PASS {name}")
    if args.format == "json":
        print(json.dumps({"verb": "selftest", "results": results}, sort_keys=True))
    if failures:
        print(f"{failures} selftest case(s) failed", file=sys.stderr)
        return 3
    return 0


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valmono",
        description="Exact valuation invariants and effective monomialization.",
        epilog="Set VALMONO_PI_DIGITS to deepen the default pi precision.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, trace=False, budget=False, state=False):
        p.add_argument("--spec", required=True, help="problem JSON (group/vars/val)")
        p.add_argument("--format", choices=["json", "text", "dot"], default="text")
        if trace:
            p.add_argument("--trace", help="write the JSONL blow-up trace here")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        if state:
            p.add_argument("--state", help="write the resumable state JSON here")

    p = sub.add_parser("eval", help="value of a polynomial")
    common(p)
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("epsilon", help="the epsilon invariant")
    common(p)
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=_cmd_epsilon)

    p = sub.add_parser("truncate", help="truncated value along a key")
    common(p)
    p.add_argument("--key", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=_cmd_truncate)

    p = sub.add_parser("successor", help="build or check an immediate successor")
    common(p)
    p.add_argument("--key", required=True)
    p.add_argument("--check", help="candidate successor to verify instead")
    p.set_defaults(fn=_cmd_successor)

    p = sub.add_parser("divide", help="make one monomial divide another")
    common(p, trace=True)
    p.add_argument("--alpha", required=True, help="comma-separated exponents")
    p.add_argument("--gamma", required=True, help="comma-separated exponents")
    p.set_defaults(fn=_cmd_divide)

    p = sub.add_parser("principalize", help="principalize a monomial ideal")
    common(p, trace=True)
    p.add_argument("--gens", required=True, help="semicolon-separated exponent lists")
    p.set_defaults(fn=_cmd_principalize)

    p = sub.add_parser("puiseux", help="Puiseux package of a decorated binomial")
    common(p, trace=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=_cmd_puiseux)

    p = sub.add_parser("monomialize", help="certified monomial times unit form")
    common(p, trace=True, budget=True, state=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=_cmd_monomialize)

    p = sub.add_parser("uniformize", help="shared-frame monomialization of a list")
    common(p, trace=True, budget=True, state=True)
    p.add_argument("--polys", required=True, help="semicolon-separated, or a file")
    p.set_defaults(fn=_cmd_uniformize)

    p = sub.add_parser("selftest", help="run the golden example suite")
    p.add_argument("--format", choices=["json", "text", "dot"], default="text")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValmonoError as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
