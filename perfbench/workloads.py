"""The three seeded workloads and the checks on their outputs.

Every workload is a list of ops (one pass) built from ``--seed``: fixed
structures whose nonzero rational coefficients and order come from the
seed, plus fixed anchor inputs that have golden digests.  An op's ``run``
is the timed call into valmono; its ``check`` is untimed, raises on a wrong
output and returns the digest of the output.  Valmono is reached through
``vm`` at call time, so a tracer installed on the modules sees every call.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from common import (
    check_point_identity,
    digest,
    evaluate,
    final_betas,
    image_point,
    monomial_at,
    nonzero_rational,
    parse_rational_text,
    points_for,
    poly_add,
    poly_mul,
    poly_text,
    require,
)

BUDGET = 10_000


class Rejected(Exception):
    """The command line refused an input: exit code 2 or 3."""


@dataclass
class Op:
    id: str
    family: str
    input: dict  # JSON-ready description, written to the inputs file
    run: object  # () -> result: the timed call into valmono
    check: object  # (result) -> digest; raises on a wrong output
    expect: str | None = None  # key in the known-failure register


@dataclass
class Workload:
    name: str
    ops: list  # one pass, in seeded order, anchors included
    anchors: list  # fixed-input ops with golden digests; the first is the warm-up op
    probes: list = field(default_factory=list)  # run once after the timed phase


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join([workload, str(seed), *map(str, parts)]))


def _unipoly(vm, terms: dict, width: int):
    ea = vm.exact_algebra
    return ea.to_unipoly(ea.MultiPoly(width, terms))


def _monomial_value(vm, group, records, exps):
    parse = vm.ordered_value.parse_element
    betas = [parse(group, t) for t in final_betas(records)]
    out = betas[0] * 0
    for e, b in zip(exps, betas):
        if e:
            out = out + b * e
    return out


def _certificate_checks(vm, group, spec, records, width, f_terms, exps, unit_num, unit_den, points):
    """The point identity and ``monomial_value(exps) == spec.value(f)``."""
    check_point_identity(f_terms, exps, unit_num, unit_den, records, points)
    value = spec.value(_unipoly(vm, f_terms, width))
    mv = _monomial_value(vm, group, records, exps)
    require(vm.ordered_value.compare(mv, value) == 0, "monomial value differs from spec.value(f)")
    return value


def _read_trace(vm, path: Path):
    """Trace bytes and records, after ``verify_trace_file`` accepted them."""
    report = vm.trace.verify_trace_file(str(path))
    require(report.get("ok") is True, f"trace replay failed: {report}")
    data = path.read_bytes()
    return data, [json.loads(line) for line in data.decode().splitlines() if line.strip()]


# -- running: the README problem through the command line ----------------------------

README_PROBLEM = {
    "group": {"generators": ["1", "pi"]},
    "vars": ["x", "y", "z"],
    "val": {
        "kind": "composite",
        "key": "z^2 - x^2*y",
        "inner": {"kind": "monomial", "weights": {"x": "1", "y": "2*pi", "z": "1+pi"}},
    },
}
XYZ = ("x", "y", "z")
Q = {(0, 0, 2): Fraction(1), (2, 1, 0): Fraction(-1)}


def _m(a, b, c=0, coeff=1) -> dict:
    return {(a, b, c): Fraction(coeff)}


def running_targets(seed: int) -> list:
    """(id, family, verb, [term dicts], register key) in seeded order."""
    rng = _rng("running", seed)
    c = lambda: nonzero_rational(rng)  # noqa: E731
    items = []
    binomials = [((0, 0), (1, 0)), ((1, 0), (0, 1)), ((2, 0), (0, 1)), ((3, 0), (0, 2)),
                 ((1, 1), (0, 2)), ((2, 1), (3, 0)), ((0, 1), (1, 2)), ((1, 0), (2, 2))]
    for k, (a, b) in enumerate(binomials):
        items.append((f"binomial-{k}", "binomial", "monomialize", [{(*a, 0): c(), (*b, 0): c()}], None))
    for k, a in enumerate(range(4)):
        items.append((f"z-linear-{k}", "z-linear", "monomialize", [{(0, 0, 1): c(), (a, 0, 0): c()}], None))
    for k, (a, b) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 2)]):
        items.append((f"Q-multiple-{k}", "Q-multiple", "monomialize", [poly_mul(_m(a, b, 0, c()), Q)], None))
    for k, e in enumerate([(0, 0, 0), (1, 0, 0), (0, 1, 0), (3, 0, 0), (1, 2, 0), (2, 2, 0), (0, 1, 1), (1, 1, 1)]):
        items.append((f"Q-plus-monomial-{k}", "Q-plus-monomial", "monomialize", [poly_add(Q, _m(*e, c()))], None))
    lists = [
        [_m(1, 0, 0, c()), poly_add(_m(1, 0, 0, c()), _m(0, 1, 0, c()))],
        [_m(2, 1, 0, c()), Q],
        [poly_add(_m(1, 0, 0, c()), _m(0, 1, 0, c())), _m(0, 2, 0, c())],
        [poly_add(_m(0, 0, 1, c()), _m(1, 0, 0, c())), _m(2, 0, 0, c())],
        [Q, poly_mul(_m(1, 0, 0, c()), Q)],
    ]
    for k, polys in enumerate(lists):
        items.append((f"uniformize-{k}", "uniformize", "uniformize", polys, None))
    # registered known failures: a bare ValueError out of the unit-value check
    items.append(("z-linear-x2y", "known-failure", "monomialize",
                  [{(0, 0, 1): c(), (2, 1, 0): c()}], "running/z-linear-x2y"))
    items.append(("Q-plus-xz", "known-failure", "monomialize",
                  [poly_add(Q, _m(1, 0, 1, c()))], "running/Q-plus-xz"))
    rng.shuffle(items)
    return items


RUNNING_ANCHORS = [
    ("anchor-readme", "anchor", "monomialize", [Q], None),
    ("anchor-readme-uniformize", "anchor", "uniformize", [_m(2, 1, 0), Q], None),
]


def build_running(vm, seed: int, workdir: Path) -> Workload:
    spec_path = workdir / "problem.json"
    spec_path.write_text(json.dumps(README_PROBLEM, indent=1) + "\n")
    group, _names, spec = vm.serde.load_problem(README_PROBLEM)

    def make(op_id, family, verb, polys, expect):
        texts = [poly_text(p, XYZ) for p in polys]
        trace_path = workdir / f"{op_id}.jsonl"
        state_path = workdir / f"{op_id}.state.json"
        flag = "--polys" if verb == "uniformize" else "--poly"
        argv = [verb, "--spec", str(spec_path), flag, "; ".join(texts), "--format", "json",
                "--trace", str(trace_path), "--state", str(state_path)]
        points = points_for(_rng("running", seed, "points", op_id), XYZ)

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    rc = vm.cli.main(argv)
                except SystemExit as exc:  # argparse reports usage errors this way
                    rc = exc.code
            if rc != 0:
                raise Rejected(f"exit {rc}: {err.getvalue().strip()}")
            return out.getvalue()

        def check(stdout):
            payload = json.loads(stdout)
            trace_bytes, records = _read_trace(vm, trace_path)
            with open(state_path, encoding="utf-8") as fh:
                state_records = json.load(fh)["trace"]
            require(state_records == records, "state file frame differs from the trace file")
            require(payload["params"] == (records[-1].get("names") or records[0]["params"]),
                    "reported parameters differ from the frame")
            entries = payload["entries"] if verb == "uniformize" else [payload]
            require(len(entries) == len(polys), "one certificate per input expected")
            for f_terms, entry in zip(polys, entries):
                num, den = parse_rational_text(entry["unit"], payload["params"])
                value = _certificate_checks(vm, group, spec, state_records, 3, f_terms,
                                            entry["exponents"], num, den, points)
                require(entry["value"] == vm.ordered_value.format_element(value), "reported value differs")
            if verb == "uniformize":
                first = entries[payload["order"][0]]["exponents"]
                for entry in entries:
                    require(all(a <= b for a, b in zip(first, entry["exponents"])),
                            "minimal element does not divide every element")
            return digest(payload, trace_bytes)

        return Op(op_id, family, {"verb": verb, "polys": texts, "argv": argv}, run, check, expect)

    anchors = [make(*item) for item in RUNNING_ANCHORS]
    return Workload("running", anchors + [make(*item) for item in running_targets(seed)], anchors)


# -- tower: the rank-1 augmented tower through library monomialize -------------------

XZ = ("x", "z")
K2 = {(0, 2): Fraction(1), (3, 0): Fraction(-1)}
K3 = poly_add(poly_mul(K2, K2), {(5, 1): Fraction(-1)})


def _xz(a, b, coeff=1) -> dict:
    return {(a, b): Fraction(coeff)}


def tower_targets(seed: int) -> list:
    """(id, spec name, term dict, register key) in seeded order.

    The light rungs take two coefficient draws each, so the middle of the
    op-time distribution is dense; the heavier swell rungs take one.  c*K2
    takes one as well: 11 of the 26 certifying ops of a pass then sit below
    the four K2 + c*x^2*z ops and 11 above them, so the pass median falls in
    the middle of that cluster rather than on its edge.  The heaviest
    certifying rung, K2*x + x^6, is a probe: in the pass it held a third of
    the busy time in one noisy sample per pass.
    """
    rng = _rng("tower", seed)
    c = lambda: nonzero_rational(rng)  # noqa: E731
    items = []
    for level in ("s2", "s3"):
        for draw in ("a", "b"):
            light = [
                ("cK2", poly_mul(K2, _xz(0, 0, c()))),
                ("cK2z", poly_mul(K2, _xz(0, 1, c()))),
                ("K2^2", poly_mul(K2, K2)),
                ("K2^3", poly_mul(K2, poly_mul(K2, K2))),
                ("K2+cx2z", poly_add(K2, _xz(2, 1, c()))),
                ("K2+cx4", poly_add(K2, _xz(4, 0, c()))),
            ]
            items.extend((f"{level}/{name}/{draw}", level, f, None) for name, f in light
                         if (name, draw) != ("cK2", "b"))
        items.append((f"{level}/K2^2+cx7", level, poly_add(poly_mul(K2, K2), _xz(7, 0, c())), None))
    items.append(("s3/K3", "s3", K3, "tower/K3"))
    rng.shuffle(items)
    return items


TOWER_ANCHORS = [
    ("anchor-s2/K2", "s2", K2, None),
    ("anchor-s2/K2+x4", "s2", poly_add(K2, _xz(4, 0)), None),
]
TOWER_PROBES = [
    ("s2/K2x+x6", "s2", poly_add(poly_mul(K2, _xz(1, 0)), _xz(6, 0)), None),
    ("s3/K3^2+x13", "s3", poly_add(poly_mul(K3, K3), _xz(13, 0)), "tower/K3^2+x13"),
]


def tower_specs(vm) -> tuple:
    ov, ea, vc = vm.ordered_value, vm.exact_algebra, vm.valuation_core
    G = ov.standard_group()

    def el(a):
        return G.element(G.scalar(value=Fraction(a)))

    base = vc.Monomial(G, [el(1), el(1)])
    s1 = vc.Augmented(base, ea.UniPoly.x(1), el(Fraction(3, 2)))
    s2 = vc.Augmented(s1, _unipoly(vm, K2, 2), el(Fraction(13, 4)))
    s3 = vc.Augmented(s2, _unipoly(vm, K3, 2), el(Fraction(53, 8)))
    return G, {"s2": s2, "s3": s3}


def build_tower(vm, seed: int, workdir: Path) -> Workload:
    group, specs = tower_specs(vm)

    def make(op_id, level, f_terms, expect):
        spec = specs[level]
        f = _unipoly(vm, f_terms, 2)
        trace_path = workdir / (op_id.replace("/", "_") + ".jsonl")
        points = points_for(_rng("tower", seed, "points", op_id), XZ)

        def run():
            return vm.orchestrator.monomialize(spec, f, BUDGET, names=list(XZ))

        def check(out):
            vm.trace.write_trace(out.frame, str(trace_path))
            trace_bytes, records = _read_trace(vm, trace_path)
            names = list(out.frame.names)
            require(names == (records[-1].get("names") or records[0]["params"]), "frame names differ from the trace")
            value = _certificate_checks(vm, group, spec, records, 2, f_terms, out.exponents,
                                        dict(out.unit.num.terms), dict(out.unit.den.terms), points)
            require(vm.ordered_value.compare(out.value, value) == 0, "reported value differs")
            cert = {
                "params": names,
                "exponents": list(out.exponents),
                "unit": vm.serde.format_rational(out.unit, names),
                "value": vm.ordered_value.format_element(out.value),
                "steps": vm.orchestrator.steps_used(out.state),
            }
            return digest(cert, trace_bytes)

        return Op(op_id, level, {"spec": level, "poly": poly_text(f_terms, XZ)}, run, check, expect)

    anchors = [make(*item) for item in TOWER_ANCHORS]
    probes = [make(*item) for item in TOWER_PROBES]
    return Workload("tower", anchors + [make(*item) for item in tower_targets(seed)], anchors, probes)


# -- queries: small invariant and combinatorial queries ------------------------------

# Ops per kind in one pass, inversely to each kind's mean op time, so every
# kind takes about a sixth of the pass and a slowdown of any one of them
# moves ops_per_s: r times slower moves it by 6 / (5 + r).  Mean scaled op
# times at these shapes: value 6.5 ms, truncate 1.6, epsilon 1.5, euclid 0.9,
# principalize 0.63, divide 0.57.  The cheap kinds then hold most ops, so
# the pass median sits among the divide, principalize, epsilon and euclid
# ops, whose times overlap.
QUERY_COUNTS = {"value": 30, "epsilon": 140, "truncate": 120, "euclid": 220, "divide": 350, "principalize": 320}
FRAME_NAMES = ["x", "y", "z"]


def _unipoly_support(shape) -> list:
    """Support of an element of Q[x, y][z] drawn as in acceptance criterion 3."""
    while True:
        support = set()
        for k in range(shape.randint(0, 4) + 1):
            for _ in range(shape.randint(0, 3)):
                support.add((shape.randint(0, 3), shape.randint(0, 3), k))
        if support:
            return sorted(support)


def _coefficients(support, rng) -> dict:
    return {e: Fraction(rng.randint(1, 4) * rng.choice((1, -1))) for e in support}


def _product_terms(shape, rng) -> dict:
    """Product of 2-3 factors lead*z + const, as in acceptance criterion 3."""
    prod = {(0, 0, 0): Fraction(1)}
    for _ in range(shape.randint(2, 3)):
        lead = _m(shape.randint(0, 2), shape.randint(0, 2), 1, rng.randint(1, 3))
        const = _m(shape.randint(0, 3), shape.randint(0, 3), 0, rng.randint(1, 4) * rng.choice((1, -1)))
        prod = poly_mul(prod, poly_add(lead, const))
    return prod


def query_inputs(seed: int) -> list:
    """(id, kind, data) in seeded order; data holds term dicts and exponents.

    Polynomial supports come from one fixed stream, so every seed asks the
    same shapes of query with new nonzero coefficients; exponent vectors of
    the cheap divide and principalize queries come from the seed.
    """
    shape = random.Random("queries:shapes")
    rng = _rng("queries", seed)
    poly = lambda: _coefficients(_unipoly_support(shape), rng)  # noqa: E731
    vec = lambda top: tuple(rng.randint(0, top) for _ in range(3))  # noqa: E731
    draw = {
        "value": lambda i: {"spec": "NU3" if i % 2 == 0 else "other", "f": poly(), "g": poly()},
        "epsilon": lambda i: {"f": poly()},
        "truncate": lambda i: {"f": poly()},
        "euclid": lambda i: {"f": _product_terms(shape, rng)},
        "divide": lambda i: {"alpha": vec(4), "gamma": vec(4)},
        "principalize": lambda i: {"gens": [vec(3) for _ in range(3)]},
    }
    items = [(f"{kind}-{i}", kind, draw[kind](i)) for kind, n in QUERY_COUNTS.items() for i in range(n)]
    rng.shuffle(items)
    return items


def _transform(e, records) -> tuple:
    """Exponents of a monomial after monomial blow-ups: column j sums the center."""
    e = list(e)
    for rec in records[1:]:
        require(not rec["C"], "a query frame with independent weights took an equal-value step")
        e[rec["j"] - 1] = sum(e[q - 1] for q in rec["J"])
    return tuple(e)


def _unipoly_at(p, point) -> Fraction:
    """Value of a UniPoly over (x, y) coefficients at point (x, y, z)."""
    total = Fraction(0)
    for k, coeff in enumerate(p.coeffs):
        num = evaluate(coeff.num.terms.items(), point[:2])
        den = evaluate(coeff.den.terms.items(), point[:2])
        total += num / den * point[2] ** k
    return total


QUERY_ANCHORS = [
    ("anchor-value", "value", {"spec": "NU3", "f": Q, "g": _m(0, 0, 1)}),
    ("anchor-epsilon", "epsilon", {"f": Q}),
    ("anchor-truncate", "truncate", {"f": Q}),
    ("anchor-euclid", "euclid", {"f": poly_mul(poly_add(_m(0, 0, 1), _m(1, 0)), poly_add(_m(0, 0, 1), _m(0, 1, 0, -1)))}),
    ("anchor-divide", "divide", {"alpha": (2, 0, 1), "gamma": (0, 1, 1)}),
    ("anchor-principalize", "principalize", {"gens": [(2, 0, 0), (0, 1, 0), (1, 0, 1)]}),
]


def _describe(data: dict) -> dict:
    out = {}
    for k, v in data.items():
        out[k] = poly_text(v, XYZ) if isinstance(v, dict) else v
    return out


def build_queries(vm, seed: int, workdir: Path) -> Workload:
    ov, ea, vc, be, tr = vm.ordered_value, vm.exact_algebra, vm.valuation_core, vm.blowup_engine, vm.trace
    G = ov.standard_group()

    def el(*pairs):
        return G.element(*(G.scalar(value=Fraction(p[0]), pi=Fraction(p[1] if len(p) > 1 else 0)) for p in pairs))

    QU = _unipoly(vm, Q, 3)
    nu3 = vc.Composite(QU, vc.Monomial(G, [el((1,)), el((0, 2)), el((1, 1))]))
    other = vc.Composite(QU, vc.Monomial(G, [el((3,)), el((0, 2)), el((3, 1))]))
    specs = {"NU3": nu3, "other": other}
    weights = [el((0,), (1,)), el((0,), (0, 1)), el((1,), (0,))]
    cmp, fmt = ov.compare, ov.format_element

    def frame_checks(frame, points, pairs):
        """Replay the trace; each (original, transported) exponent pair must agree at the points."""
        records = tr.trace_records(frame)
        require(tr.replay_trace(records)["ok"] is True, "trace replay failed")
        for e, e_new in pairs:
            require(_transform(e, records) == tuple(e_new), "exponents disagree with the recorded steps")
        for p in points[:2]:
            img = image_point(records, p)
            require(img is not None, "evaluation point meets a chart zero")
            x = [p[n] for n in FRAME_NAMES]
            for e, e_new in pairs:
                require(monomial_at(e, x) == monomial_at(e_new, img[1]), "monomial identity fails at a point")
        return json.dumps(records, sort_keys=True).encode()

    def make(op_id, kind, data):
        points = points_for(_rng("queries", seed, "points", op_id), XYZ)
        if kind == "value":
            spec = specs[data["spec"]]
            F, Gp = _unipoly(vm, data["f"], 3), _unipoly(vm, data["g"], 3)

            def run():
                return spec.value(F * Gp)

            def check(v):
                require(cmp(v, ov.add(spec.value(F), spec.value(Gp))) == 0, "value is not multiplicative")
                return digest({"value": fmt(v)}, b"")

        elif kind == "epsilon":
            F = _unipoly(vm, data["f"], 3)
            deg = max(e[2] for e in data["f"])

            def run():
                return vm.valuation_core.epsilon(nu3, F)

            def check(rep):
                if deg == 0:
                    require(ov.is_sentinel(rep.epsilon), "constant in z must have epsilon -infinity")
                    return digest({"epsilon": "-inf"}, b"")
                vf = nu3.value(F)
                ratios = []
                for b in range(1, deg + 1):
                    d = {(e[0], e[1], e[2] - b): c * _binomial(e[2], b) for e, c in data["f"].items() if e[2] >= b}
                    vd = nu3.value(_unipoly(vm, d, 3))
                    ratios.append(ov.div_by_positive_int(ov.add(vf, ov.neg(vd)), b))
                best = ratios[0]
                for r in ratios[1:]:
                    if cmp(r, best) > 0:
                        best = r
                hits = tuple(b for b, r in enumerate(ratios, start=1) if cmp(r, best) == 0)
                require(cmp(rep.epsilon, best) == 0, "epsilon is not the maximal ratio")
                require(tuple(rep.I) == hits and rep.b == hits[0], "epsilon argmax set is wrong")
                return digest({"epsilon": fmt(rep.epsilon), "I": list(rep.I)}, b"")

        elif kind == "truncate":
            F = _unipoly(vm, data["f"], 3)

            def run():
                return vm.valuation_core.truncated_value(nu3, QU, F)

            def check(rep):
                # along its own key a composite's truncation is its value
                require(cmp(rep.value, nu3.value(F)) == 0, "truncated value differs from the composite value")
                require(len(rep.S) == 1 and rep.delta == rep.S[0], "argmin set is not a single index")
                for j, t in enumerate(rep.terms):
                    require(cmp(t, rep.value) == (0 if j in rep.S else 1), "argmin set disagrees with the terms")
                return digest({"value": fmt(rep.value), "S": list(rep.S)}, b"")

        elif kind == "euclid":
            P = _unipoly(vm, data["f"], 3)

            def run():
                return vm.exact_algebra.euclid_div(P, QU)

            def check(result):
                quot, rem = result
                require(rem.degree < QU.degree, "remainder degree not below the key degree")
                for p in points[:2]:
                    x = [p[n] for n in XYZ]
                    lhs = evaluate(data["f"].items(), x)
                    require(lhs == _unipoly_at(quot, x) * evaluate(Q.items(), x) + _unipoly_at(rem, x),
                            "p != quot*Q + rem at a point")
                require(cmp(nu3.value(rem), nu3.value(P)) == 0, "remainder value differs from the product value")
                require(cmp(nu3.value(P), nu3.value(quot * QU)) < 0, "quotient term does not exceed the product")
                fu = vm.serde.format_unipoly
                return digest({"quot": fu(quot, ["x", "y"], "z"), "rem": fu(rem, ["x", "y"], "z")}, b"")

        elif kind == "divide":
            alpha, gamma = data["alpha"], data["gamma"]

            def run():
                return vm.blowup_engine.divide_monomials(be.Frame.initial(FRAME_NAMES, weights), alpha, gamma)

            def check(res):
                trace_bytes = frame_checks(res.frame, points, [(alpha, res.alpha), (gamma, res.gamma)])
                fr = be.Frame.initial(FRAME_NAMES, weights)
                c = cmp(fr.monomial_value(alpha), fr.monomial_value(gamma))
                low, high = (res.alpha, res.gamma) if c <= 0 else (res.gamma, res.alpha)
                require(all(a <= b for a, b in zip(low, high)), "lower-value monomial does not divide")
                return digest({"alpha": list(res.alpha), "gamma": list(res.gamma), "divider": res.divider}, trace_bytes)

        else:  # principalize
            gens = [tuple(g) for g in data["gens"]]

            def run():
                return vm.blowup_engine.principalize(be.Frame.initial(FRAME_NAMES, weights), gens)

            def check(res):
                records = tr.trace_records(res.frame)
                moved = [_transform(g, records) for g in gens]
                trace_bytes = frame_checks(res.frame, points, list(zip(gens, moved)))
                g0 = tuple(res.generators[res.index])
                require(g0 in moved, "principal generator is not the image of an input generator")
                for e in moved:
                    require(all(a <= b for a, b in zip(g0, e)), "principal generator does not divide")
                return digest({"generators": [list(g) for g in res.generators], "index": res.index}, trace_bytes)

        return Op(op_id, kind, {"kind": kind, **_describe(data)}, run, check)

    anchors = [make(*item) for item in QUERY_ANCHORS]
    return Workload("queries", anchors + [make(*item) for item in query_inputs(seed)], anchors)


def _binomial(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


WORKLOADS = {"running": build_running, "tower": build_tower, "queries": build_queries}
