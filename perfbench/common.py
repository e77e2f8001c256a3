"""Pieces shared by the workloads: outcomes, the per-op cap, and the
independent checks.

The checks here never call valmono's algebra.  Polynomials are plain dicts
from exponent tuples to Fractions, evaluated term by term; the image of a
point under a blow-up sequence is computed by stepping through the trace
records, so a certificate is tested against the program's claimed
coordinate change rather than against its own rational-function arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import re
import signal
from contextlib import contextmanager
from fractions import Fraction

OUTCOMES = ("certified", "rejected", "crash", "over_cap", "check_failed")


class OverCap(BaseException):
    """Raised by the SIGALRM handler when an op runs past its cap.

    A BaseException so that no ``except Exception`` in the program swallows it.
    """


class CheckFailed(Exception):
    """An output failed one of the benchmark's own checks."""


def classify(exc, valmono_error) -> str:
    """Outcome class of an op that raised ``exc`` (None: it returned)."""
    if exc is None:
        return "certified"
    if isinstance(exc, OverCap):
        return "over_cap"
    if isinstance(exc, CheckFailed):
        return "check_failed"
    if isinstance(exc, valmono_error):
        return "rejected"
    return "crash"


def _on_alarm(signum, frame):
    raise OverCap()


@contextmanager
def op_cap(seconds: float):
    """Interrupt the body with OverCap after ``seconds`` of wall time."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- polynomials as plain term dicts ---------------------------------------------


def poly_text(terms: dict, names) -> str:
    """Text the valmono parser reads: ``3/2*x^2*y - 5*z``."""
    parts = []
    for e in sorted(terms, reverse=True):
        c = Fraction(terms[e])
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if parts:
            parts.append((" - " if c < 0 else " + ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return "".join(parts) if parts else "0"


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def evaluate(terms, point) -> Fraction:
    """Sum of c * prod(point_i ** e_i) over (exponents, c) pairs."""
    total = Fraction(0)
    for e, c in terms:
        v = Fraction(c)
        for x, k in zip(point, e):
            if k:
                v *= x**k
        total += v
    return total


def monomial_at(exps, point) -> Fraction:
    return evaluate([(tuple(exps), 1)], point)


_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_poly_text(text: str, names) -> dict:
    """Inverse of valmono's ``format_multipoly``: signed ``c*x^k*...`` terms."""
    index = {n: i for i, n in enumerate(names)}
    text = text.strip()
    if text == "0":
        return {}
    pieces = _TERM_SPLIT.split(text)
    signs = ["+"] + pieces[1::2]
    out: dict = {}
    for sign, body in zip(signs, pieces[0::2]):
        neg = sign == "-"
        if body.startswith("-"):
            neg, body = not neg, body[1:]
        factors = body.split("*")
        coeff = Fraction(1)
        if factors[0][:1].isdigit():
            coeff = Fraction(factors[0])
            factors = factors[1:]
        e = [0] * len(names)
        for f in factors:
            name, _, power = f.partition("^")
            if name not in index:
                raise CheckFailed(f"unit mentions unknown parameter {name!r}")
            e[index[name]] += int(power) if power else 1
        e = tuple(e)
        out[e] = out.get(e, Fraction(0)) + (-coeff if neg else coeff)
    return {e: c for e, c in out.items() if c}


def parse_rational_text(text: str, names) -> tuple:
    """(numerator, denominator) term dicts of ``format_rational`` output."""
    text = text.strip()
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num, den = text[1:-1].split(")/(", 1)
        return parse_poly_text(num, names), parse_poly_text(den, names)
    return parse_poly_text(text, names), {(0,) * len(names): Fraction(1)}


# -- certificates ----------------------------------------------------------------


def image_point(records, point: dict):
    """Final parameter names and values at the image of an original point.

    Steps through the trace: for the chart index j, a strict member q
    becomes old_q/old_j and an equal-value member old_q/old_j - residue.
    Returns None when the point hits a zero chart coordinate.
    """
    init = records[0]
    require(init.get("event") == "init", "trace does not start with an init record")
    names = list(init["params"])
    w = [Fraction(point[n]) for n in names]
    for rec in records[1:]:
        require("event" not in rec, f"unsupported trace event {rec.get('event')!r}")
        wj = w[rec["j"] - 1]
        if wj == 0:
            return None
        residues = rec.get("residues", {})
        for q in rec["B"]:
            w[q - 1] = w[q - 1] / wj
        for q in rec["C"]:
            w[q - 1] = w[q - 1] / wj - Fraction(residues[str(q)])
        names = list(rec["names"])
    return names, w


def check_point_identity(f_terms: dict, exps, unit_num: dict, unit_den: dict, records, points, want: int = 2) -> None:
    """f(p) == w^exps * unit(w) at ``want`` points p, w the image of p.

    Candidate points whose image meets a zero coordinate or a zero unit
    denominator are skipped; ``points`` holds spares for that.
    """
    checked = 0
    for p in points:
        if checked == want:
            break
        img = image_point(records, p)
        if img is None:
            continue
        names, w = img
        require(len(exps) == len(w), "exponent vector length differs from the frame width")
        den = evaluate(unit_den.items(), w)
        if den == 0 or any(x == 0 for x in w):
            continue
        lhs = evaluate(f_terms.items(), [p[n] for n in records[0]["params"]])
        rhs = monomial_at(exps, w) * evaluate(unit_num.items(), w) / den
        require(lhs == rhs, f"f(p) != monomial*unit at p={p}")
        checked += 1
    require(checked == want, "too few evaluation points avoided the chart's zero set")


def final_betas(records) -> list:
    """Value texts of the final parameters, in frame order."""
    last = records[-1]
    names = last["names"] if "names" in last else records[0]["params"]
    beta = last["beta_after"] if "beta_after" in last else records[0]["beta"]
    return [beta[n] for n in names]


def digest(cert: dict, trace_bytes: bytes) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(cert, sort_keys=True).encode())
    h.update(trace_bytes)
    return h.hexdigest()


def points_for(rng, names, count: int = 2) -> list:
    """Seeded rational points with nonzero coordinates, ready for ``image_point``."""
    out = []
    for _ in range(count + 2):
        out.append({n: Fraction(rng.randint(2, 97), rng.randint(2, 89)) * rng.choice((1, -1)) for n in names})
    return out


def nonzero_rational(rng) -> Fraction:
    return Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))
