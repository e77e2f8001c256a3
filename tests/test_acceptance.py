"""Acceptance suite: eight timed end-to-end checks, one report line each.

Each check prints a single PASS/FAIL line with its wall time and enforces
the stated bound. Checks 4 through 7 stash every frame they build so the
final check can replay all emitted traces, plus one produced through the
command line.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from valmono.blowup_engine import Frame, divide_monomials, forward_image, tau, transform_exponents
from valmono.cli import main as cli_main
from valmono.errors import DeltaNotOne
from valmono.exact_algebra import (
    MultiPoly,
    RationalFunction,
    UniPoly,
    divided_derivative,
    ev_leq,
    ev_sub,
    euclid_div,
)
from valmono.ordered_value import MINUS_INFINITY, add, compare, standard_group
from valmono.orchestrator import embedded_uniformize, monomialize, steps_used
from valmono.puiseux import monomialize_limit_successor, puiseux_package
from valmono.successors import (
    Lattice,
    check_limit_successor,
    next_successor,
    verify_immediate_successor,
)
from valmono.trace import replay_trace, trace_records, verify_trace_file, write_trace
from valmono.valuation_core import Augmented, Composite, Monomial, epsilon

from reference_algebra import ev_gcd

SEED = 20260814

G = standard_group()


def sc(a=0, b=0):
    return G.scalar(value=Fraction(a), pi=Fraction(b))


def el(*pairs):
    return G.element(*(sc(*p) for p in pairs))


x2 = MultiPoly.variable(2, 0)
y2 = MultiPoly.variable(2, 1)
X = UniPoly.x(2)
Q = X**2 - (x2**2) * y2

NU2 = Monomial(G, [el((1,)), el((0, 2)), el((1, 1))])
NU3 = Composite(Q, NU2)
NAMES = ["x", "y", "z"]

# frames stashed by checks 4-7 for the final replay check
EMITTED = []


@contextmanager
def criterion(n, label, limit=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {label}")
        raise
    elapsed = time.monotonic() - t0
    if limit is not None:
        assert elapsed < limit, f"criterion {n} took {elapsed:.2f}s, bound {limit}s"
    print(f"PASS criterion {n}: {label} ({elapsed:.3f}s)")


def test_criterion_1_golden_values():
    with criterion(1, "epsilon and truncation golden values", limit=1.0):
        assert epsilon(NU3, X).epsilon == el((0,), (1, 1))
        assert epsilon(NU3, UniPoly.constant(2, x2)).epsilon is MINUS_INFINITY
        assert epsilon(NU3, UniPoly.constant(2, y2)).epsilon is MINUS_INFINITY
        assert epsilon(NU3, Q).epsilon == el((1,), (-1, -1))
        assert NU3.value(Q) == el((1,), (0,))
        dq = divided_derivative(Q, 1)
        assert dq == 2 * X
        assert NU3.value(dq) == el((0,), (1, 1))


def test_criterion_2_successor_suite():
    with criterion(2, "successor construction and verification", limit=1.0):
        lat = Lattice.from_variables(["x", "y"], [el((1,)), el((0, 2))])
        succ, cert, _ = next_successor(NU2, X, lat)
        assert succ.degree == 2 and succ.degree == 2 * X.degree
        # two terms: X^2 and a rational multiple of x^2 y
        assert succ.coeffs[1].is_zero() and not succ.coeffs[0].is_zero()
        low = succ.coeffs[0]
        assert type(low) is MultiPoly and set(low.terms) == {(2, 1)}
        c = -low.terms[(2, 1)]
        assert type(c) is int and c != 0 or type(c) is Fraction and c.denominator > 1
        assert succ == X**2 - c * (x2**2) * y2
        tower = Composite(succ, NU2)
        rep = verify_immediate_successor(tower, X, succ, lat)
        assert rep.passed and rep.alpha == 2 and rep.degree_check
        assert compare(rep.truncated, tower.value(succ)) < 0


def _random_unipoly(rng, max_deg=4):
    while True:
        coeffs = []
        for _ in range(rng.randint(0, max_deg) + 1):
            terms = {}
            for _ in range(rng.randint(0, 3)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = Fraction(rng.randint(-4, 4))
            coeffs.append(MultiPoly(2, terms))
        p = UniPoly(2, coeffs)
        if not p.is_zero():
            return p


def test_criterion_3_valuation_properties():
    # a second composite over the same key: x -> 3, y -> 2*pi, z -> 3 + pi
    other = Composite(Q, Monomial(G, [el((3,)), el((0, 2)), el((3, 1))]))
    with criterion(3, "multiplicativity and product remainders", limit=30.0):
        rng = random.Random(SEED + 100)
        for i in range(200):
            spec = NU3 if i % 2 == 0 else other
            f = _random_unipoly(rng)
            g = _random_unipoly(rng)
            assert spec.value(f * g) == add(spec.value(f), spec.value(g))
        rng = random.Random(SEED + 101)
        for _ in range(200):
            factors = []
            for _ in range(rng.randint(2, 3)):
                lead = MultiPoly.monomial(
                    2, (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 3)
                )
                const = MultiPoly(
                    2, {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4))}
                )
                factors.append(UniPoly(2, [const, lead]))
            prod = factors[0]
            for f in factors[1:]:
                prod = prod * f
            quot, rem = euclid_div(prod, Q)
            assert not rem.is_zero()
            assert NU3.value(rem) == NU3.value(prod)
            assert compare(NU3.value(prod), NU3.value(quot * Q)) < 0


def test_criterion_4_divisibility_loop():
    weights = [el((0,), (1,)), el((0,), (0, 1)), el((1,), (0,))]
    with criterion(4, "divisibility loop termination and tau descent", limit=30.0):
        rng = random.Random(SEED + 102)
        for _ in range(100):
            fr = Frame.initial(["x", "y", "z"], weights)
            alpha = tuple(rng.randint(0, 4) for _ in range(3))
            gamma = tuple(rng.randint(0, 4) for _ in range(3))
            va = fr.monomial_value(alpha)
            vg = fr.monomial_value(gamma)
            res = divide_monomials(fr, alpha, gamma)
            # replay the character sequence from the recorded steps
            a, g = alpha, gamma
            chars = [tau(a, g)[0]]
            for s in res.steps:
                a = transform_exponents(a, [s])
                g = transform_exponents(g, [s])
                chars.append(tau(a, g)[0])
            assert all(chars[k + 1] < chars[k] for k in range(len(chars) - 1))
            assert chars[-1][0] == 0
            assert ev_leq(res.alpha, res.gamma) or ev_leq(res.gamma, res.alpha)
            c = compare(va, vg)
            if c < 0:
                assert ev_leq(res.alpha, res.gamma) and res.divider == "alpha"
            elif c > 0:
                assert ev_leq(res.gamma, res.alpha) and res.divider == "gamma"
            else:
                assert res.alpha == res.gamma
            if res.steps:
                EMITTED.append(("divide", res.frame))


def test_criterion_5_binomial_package():
    bx = NU3.value(UniPoly.constant(2, RationalFunction(x2)))
    by = NU3.value(UniPoly.constant(2, RationalFunction(y2)))
    fr = Frame.initial(["x", "y", "z"], [bx, by, NU3.value(X)])
    q3 = MultiPoly(3, {(0, 0, 2): 1, (2, 1, 0): -1})
    with criterion(5, "binomial package clauses", limit=5.0):
        pkg = puiseux_package(fr, NU3, f=q3)
        assert pkg.exponents == (2, 2, 1)
        assert compare(pkg.value, el((1,), (0,))) == 0
        # clause 1: every step but the last stays monomial
        assert all(s.monomial for s in pkg.steps[:-1]) and not pkg.steps[-1].monomial
        # clause 2: the terminal unit carries value zero
        zero = NU3.value(1)
        zbar = RationalFunction(MultiPoly.variable(pkg.frame.width, pkg.new_position)) + pkg.residue
        assert compare(NU3.value(pkg.frame.pullback_of(zbar)), zero) == 0
        # clause 3: substitution oracle, monomial times unit equals the input
        recon = pkg.frame.pullback_of(RationalFunction(pkg.monomial()) * pkg.unit)
        assert recon == RationalFunction(q3)
        # clause 4: originals stay monomial-times-unit, units certified
        fx, fy, fz = (forward_image(pkg.frame, k) for k in range(3))
        assert fx == ((1, 0, 0), ())
        assert fy[0] == (0, 2, 0) and fz[0] == (1, 1, 0)
        for _, units in (fy, fz):
            for upb, power in units:
                assert compare(NU3.value(upb), zero) == 0 and power != 0
        # the reduced exponent difference stays primitive at every step
        a, g = pkg.problem.delta, pkg.problem.gamma
        for s in pkg.steps:
            assert ev_gcd(ev_sub(g, a)) == 1
            a, g = transform_exponents(a, [s]), transform_exponents(g, [s])
        EMITTED.append(("package", pkg.frame))


def test_criterion_6_limit_recipe():
    xx1 = MultiPoly.variable(1, 0)
    U1 = UniPoly.x(1)
    base = Monomial(G, [el((1,)), el((0, 1))])
    with criterion(6, "degree-one limit recipe", limit=5.0):
        for deg in (4, 6):
            key_val = el((deg,))
            mid = Augmented(base, U1, key_val)
            P = U1 + UniPoly.constant(1, xx1**deg)
            spec = Augmented(mid, P, el((deg + 1,)))
            ok, rep = check_limit_successor(spec, U1, P)
            assert ok and rep.delta == 1 and rep.S == (0, 1)
            bx = spec.value(UniPoly.constant(1, RationalFunction(xx1)))
            fr = Frame.initial(["x", "u"], [bx, spec.value(U1)])
            res = monomialize_limit_successor(fr, spec, U1, P)
            assert res.exponents == (deg, 1)
            assert compare(res.value, el((deg + 1,))) == 0
            # the new last parameter is the package candidate itself
            assert res.frame.pullback_of(MultiPoly.variable(2, res.package.new_position)) == res.candidate
            recon = res.frame.pullback_of(RationalFunction(res.monomial()) * res.unit)
            assert recon == RationalFunction(
                MultiPoly(2, {(0, 1): 1, (deg, 0): 1})
            )
            EMITTED.append(("limit", res.frame))
        # argmin set reaching index two is refused
        mid4 = Augmented(base, U1, el((4,)))
        P3 = U1**2 + UniPoly.constant(1, xx1**8)
        spec3 = Augmented(mid4, P3, el((9,)))
        ok3, rep3 = check_limit_successor(spec3, U1, P3)
        assert not ok3 and rep3.delta == 2
        fr = Frame.initial(
            ["x", "u"],
            [spec3.value(UniPoly.constant(1, RationalFunction(xx1))), spec3.value(U1)],
        )
        with pytest.raises(DeltaNotOne):
            monomialize_limit_successor(fr, spec3, U1, P3)


def test_criterion_7_end_to_end():
    targets = [
        Q,
        UniPoly.constant(2, RationalFunction(x2 + y2)),
        UniPoly(2, [RationalFunction(x2**3), RationalFunction(y2**2)]),
    ]
    with criterion(7, "monomialization and embedded uniformization", limit=60.0):
        zero = NU3.value(1)
        for f in targets:
            out = monomialize(NU3, f, 10_000, names=NAMES)
            assert steps_used(out.state) <= 10_000
            assert compare(out.frame.monomial_value(out.exponents), NU3.value(f)) == 0
            assert compare(NU3.value(out.frame.pullback_of(out.unit)), zero) == 0
            EMITTED.append(("monomialize", out.frame))
        spec1 = Monomial(G, [el((1,)), el((0, 1))])
        fx = UniPoly.constant(1, RationalFunction(MultiPoly.variable(1, 0)))
        fxy = UniPoly(1, [RationalFunction(MultiPoly.variable(1, 0)), RationalFunction.one(1)])
        uni = embedded_uniformize(spec1, [fx, fxy], 10_000, names=["x", "y"])
        first, second = uni.order
        assert ev_leq(uni.entries[first][0], uni.entries[second][0])
        EMITTED.append(("uniformize", uni.frame))


def test_criterion_8_trace_replay(tmp_path, capsys):
    spec_path = tmp_path / "nu3.json"
    spec_path.write_text(
        json.dumps(
            {
                "group": {"generators": ["1", "pi"]},
                "vars": ["x", "y", "z"],
                "val": {
                    "kind": "composite",
                    "key": "z^2 - x^2*y",
                    "inner": {
                        "kind": "monomial",
                        "weights": {"x": "1", "y": "2*pi", "z": "1+pi"},
                    },
                },
            }
        )
    )
    cli_trace = tmp_path / "cli.jsonl"
    with criterion(8, "trace replay with zero failures"):
        rc = cli_main(
            [
                "monomialize", "--spec", str(spec_path), "--poly", "z^2 - x^2*y",
                "--budget", "10000", "--trace", str(cli_trace),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        failures = []
        if not verify_trace_file(str(cli_trace))["ok"]:
            failures.append("cli")
        assert EMITTED, "earlier checks must have stashed frames"
        for k, (label, frame) in enumerate(EMITTED):
            report = replay_trace(trace_records(frame))
            path = tmp_path / f"{label}-{k}.jsonl"
            write_trace(frame, str(path))
            if not (report["ok"] and verify_trace_file(str(path))["ok"]):
                failures.append(f"{label}-{k}")
        assert failures == []
