"""The blow-up substitution and the divisibility loop's exponent helpers as they stood before their lean forms.

The reference for the differential tests in ``test_blowup_engine.py``:
``step_image`` multiplies every term by its binomial factor, the shared 1
when the term has no power of an equal-value member, and ``pullback_of``
shifts both polynomials by the clearing vector before every undone step,
zero or not. ``transport`` pushes an expression through the same kernel.
``tau``, ``center_from_tau`` and ``transform_exponents`` go element by
element through the ``ev_*`` helpers, lists and sets. ``matrix_inv`` is the
inverse of the running exponent matrix as frames once carried it, updated
row by row at each step.
"""

from __future__ import annotations

from math import comb
from operator import sub

from valmono.exact_algebra import MultiPoly, RationalFunction, ev_add, ev_sub


def tau(alpha, gamma):
    """Reduced pair sizes: ((a, b), alpha_red, gamma_red, delta, swapped) with a <= b."""
    alpha = tuple(alpha)
    gamma = tuple(gamma)
    delta = tuple(min(a, g) for a, g in zip(alpha, gamma))
    at = ev_sub(alpha, delta)
    gt = ev_sub(gamma, delta)
    swapped = False
    if sum(at) > sum(gt):
        at, gt = gt, at
        swapped = True
    return (sum(at), sum(gt)), at, gt, delta, swapped


def center_from_tau(at, gt):
    """supp(at) plus a minimal greedy subset of supp(gt) covering |at|."""
    need = sum(at)
    base = [q for q, v in enumerate(at) if v]
    pool = sorted(
        (q for q, v in enumerate(gt) if v),
        key=lambda q: (-gt[q], q),
    )
    K = []
    total = 0
    for q in pool:
        if total >= need:
            break
        K.append(q)
        total += gt[q]
    return sorted(set(base) | set(K))


def transform_exponents(e, step, sign=1):
    out = list(e)
    out[step.j] += sign * sum(e[q] for q in step.J if q != step.j)
    for q in step.C:
        out[q] = 0
    return tuple(out)


def matrix_inv(frame) -> tuple:
    """The inverse of the exponent matrix M of ``frame``'s steps, rows over the originals.

    Exponent rows act on the right (e_current = e_original @ M); each step's
    inverse subtracts row j from every other center row, starting from the
    identity.
    """
    m = frame.width
    inv = [tuple(1 if i == k else 0 for k in range(m)) for i in range(m)]
    for step in frame.history:
        for q in step.J:
            if q != step.j:
                inv[q] = tuple(map(sub, inv[q], inv[step.j]))
    return tuple(inv)


def step_image(p: MultiPoly, step, forward: bool) -> MultiPoly:
    """One step's substitution in a polynomial, forward (old parameters to new) or back."""
    m, j = p.width, step.j
    factors, terms = {}, {}
    for e, c in p.terms.items():
        base = transform_exponents(e, step, 1 if forward else -1)
        powers = tuple(e[q] for q in step.C)
        if powers not in factors:
            factors[powers] = MultiPoly.one(m)
            for (q, r), k in zip(step.residues, powers):
                if k < 0:
                    raise ValueError("negative power of an equal-value member")
                s, dj = (r, 0) if forward else (-r, 1)
                power = {}
                for i in range(k + 1):
                    x = [0] * m
                    x[q], x[j] = i, dj * (k - i)
                    power[tuple(x)] = comb(k, i) * s ** (k - i)
                factors[powers] = factors[powers] * MultiPoly(m, power)
        for fe, fc in factors[powers].terms.items():
            t = ev_add(base, fe)
            old = terms.get(t)
            terms[t] = c * fc if old is None else old + c * fc
    return MultiPoly(m, terms)


def pullback_of(frame, f) -> RationalFunction:
    """``Frame.pullback_of`` through ``step_image``, shifting at every step."""
    f = RationalFunction.of(f)
    num, den = f.num, f.den
    for step in reversed(frame.history):
        clear = [0] * frame.width
        for e in (*num.terms, *den.terms):
            for q in step.C:
                clear[q] = max(clear[q], -e[q])
        num, den = step_image(num.shift(clear), step, False), step_image(den.shift(clear), step, False)
    return RationalFunction(num, den)


def transport(frame, expr, from_step: int = 0) -> RationalFunction:
    """``blowup_engine.transport`` through ``step_image``."""
    num, den = RationalFunction.of(expr, frame.width).laurent_free()
    for step in frame.history[from_step:]:
        num, den = step_image(num, step, True), step_image(den, step, True)
    return RationalFunction(num, den)
