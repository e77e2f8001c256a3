"""Master-loop scheduling: chains, slices, budgets, resumable state."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from valmono.errors import BudgetExceeded, LimitSuccessorRequired, ZeroPolynomial
from valmono.exact_algebra import MultiPoly, RationalFunction, UniPoly, ev_leq
from valmono.ordered_value import compare, standard_group
from valmono.orchestrator import (
    ChainLink,
    _chain_for,
    _fresh_state,
    _initial_frame,
    advance,
    embedded_uniformize,
    enumerate_pairs,
    monomialize,
    state_from_json,
    state_to_json,
    steps_used,
)
from valmono.successors import SuccessorCertificate
from valmono.valuation_core import Augmented, Composite, Monomial

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


def test_monomialize_golden_key():
    out = monomialize(NU3, Q, 10_000, names=NAMES)
    assert out.exponents == (2, 2, 1)
    assert compare(out.value, el((1,), (0,))) == 0
    assert out.frame.names == ("x", "y", "z'")
    assert out.unit == RationalFunction(MultiPoly(3, {(0, 0, 0): 1, (0, 0, 1): 1}))
    assert steps_used(out.state) == 3
    assert len(out.state.chain) == 2 and not out.state.keys_pending
    cert = out.state.chain[1].certificate
    assert cert.alpha == 2 and cert.residue == 1
    # the whole of f is the monomial times the unit, back over the originals
    recon = out.frame.pullback_of(RationalFunction(out.monomial()) * out.unit)
    assert recon == RationalFunction(MultiPoly(3, {(0, 0, 2): 1, (2, 1, 0): -1}))


def test_monomialize_plain_elements():
    f2 = UniPoly.constant(2, RationalFunction(x2 + y2))
    out = monomialize(NU3, f2, 10_000, names=NAMES)
    assert out.exponents == (1, 0, 0)
    assert compare(out.value, el((0,), (1,))) == 0
    assert steps_used(out.state) == 1

    f3 = UniPoly(2, [RationalFunction(x2**3), RationalFunction(y2**2)])
    out3 = monomialize(NU3, f3, 10_000, names=NAMES)
    assert out3.exponents == (3, 0, 0)
    assert compare(out3.value, el((0,), (3,))) == 0
    zero = NU3.value(1)
    assert compare(NU3.value(out3.frame.pullback_of(out3.unit)), zero) == 0


def test_monomialize_monomial_is_immediate():
    f = UniPoly(2, [RationalFunction.zero(2), RationalFunction(x2)])  # x * z
    out = monomialize(NU3, f, 10_000, names=NAMES)
    assert out.exponents == (1, 0, 1)
    assert steps_used(out.state) == 0
    assert out.unit == RationalFunction.one(3)


def test_monomialize_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        monomialize(NU3, UniPoly(2, []), 10, names=NAMES)


def test_budget_zero_and_resume():
    chain = _chain_for(NU3, Q, NAMES)
    assert [link.key.degree for link in chain] == [1, 2]
    st = _fresh_state(NU3, _initial_frame(NU3, NAMES), chain, 0)
    with pytest.raises(BudgetExceeded) as exc:
        advance(st)
    assert exc.value.state is st and exc.value.task == "advance"

    # resume the partial state with a real budget and finish the chain
    tight = _fresh_state(NU3, _initial_frame(NU3, NAMES), chain, 2)
    with pytest.raises(BudgetExceeded) as exc2:
        while True:
            tight = advance(tight)
    part = exc2.value.state
    resumed = replace(part, budget=10_000)
    while resumed.keys_pending or resumed.targets_pending:
        resumed = advance(resumed)
    assert len(resumed.chain) == 2
    assert steps_used(resumed) == 3


def test_state_roundtrip_and_determinism():
    out1 = monomialize(NU3, Q, 10_000, names=NAMES)
    out2 = monomialize(NU3, Q, 10_000, names=NAMES)
    blob1 = json.dumps(state_to_json(out1.state), sort_keys=True)
    blob2 = json.dumps(state_to_json(out2.state), sort_keys=True)
    assert blob1 == blob2

    back = state_from_json(json.loads(blob1))
    assert json.dumps(state_to_json(back), sort_keys=True) == blob1
    assert back.frame.names == out1.frame.names
    assert back.frame.betas == out1.frame.betas
    # the reloaded state keeps working
    stepped = advance(replace(back, budget=back.budget + 10))
    assert stepped.slice_index == back.slice_index + 1


def test_enumerate_pairs_slices():
    chain = _chain_for(NU3, Q, NAMES)
    st = _fresh_state(NU3, _initial_frame(NU3, NAMES), chain, 100)
    sizes = []
    for j in range(5):
        pairs = enumerate_pairs(st, j)
        sizes.append(len(pairs))
        for a, b in pairs:
            assert compare(st.frame.monomial_value(a), st.frame.monomial_value(b)) <= 0
            assert a[st.key_pos] == 0 and b[st.key_pos] == 0
    assert sizes == [1, 2, 3, 4, 5]


def test_processed_pairs_invariant():
    chain = _chain_for(NU3, Q, NAMES)
    st = _fresh_state(NU3, _initial_frame(NU3, NAMES), chain, 500)
    for _ in range(6):
        st = advance(st)
    assert len(st.processed_pairs) == 1 + 2 + 3 + 4 + 5 + 6
    for a, b in st.processed_pairs:
        assert ev_leq(a, b)


def test_uniformize_golden_pair():
    spec = Monomial(G, [el((1,)), el((0, 1))])
    fx = UniPoly.constant(1, RationalFunction(MultiPoly.variable(1, 0)))
    fxy = UniPoly(1, [RationalFunction(MultiPoly.variable(1, 0)), RationalFunction.one(1)])
    out = embedded_uniformize(spec, [fx, fxy], 10_000, names=["x", "y"])
    assert out.order == (0, 1)
    e0, u0, v0 = out.entries[0]
    e1, u1, v1 = out.entries[1]
    assert e0 == (1, 0) and e1 == (1, 0)
    assert u0 == RationalFunction.one(2)
    assert ev_leq(e0, e1)
    assert compare(v0, v1) == 0


def test_uniformize_reorders_by_value():
    spec = Monomial(G, [el((1,)), el((0, 1))])
    # {y, x}: y has value pi > 1, so x must come first
    fy = UniPoly(1, [RationalFunction.zero(1), RationalFunction.one(1)])
    fx = UniPoly.constant(1, RationalFunction(MultiPoly.variable(1, 0)))
    out = embedded_uniformize(spec, [fy, fx], 10_000, names=["x", "y"])
    assert out.order == (1, 0)
    ex = out.entries[1][0]
    ey = out.entries[0][0]
    assert ev_leq(ex, ey)
    assert steps_used(out.state) >= 1


def test_limit_link_through_master_loop():
    xx = MultiPoly.variable(1, 0)
    U = UniPoly.x(1)
    base = Monomial(G, [el((1,)), el((0, 1))])
    spec_u4 = Augmented(base, U, el((4,)))
    P2 = U + UniPoly.constant(1, xx**4)
    spec = Augmented(spec_u4, P2, el((5,)))
    limit_cert = SuccessorCertificate(
        kind="limit",
        alpha=1,
        monomial=None,
        key_powers=(),
        residue=None,
        base_value=el((4,)),
    )
    chain = (ChainLink(U, None), ChainLink(P2, limit_cert))
    st = _fresh_state(spec, _initial_frame(spec, ["x", "u"]), chain, 10_000)
    while st.keys_pending:
        st = advance(st)
    assert st.key_pos == 1
    assert st.frame.names[1].startswith("u")
    assert compare(spec.value(st.frame.pullback_of(st.key_image)), el((5,))) == 0


def test_chain_extends_from_a_prefix():
    chain = _chain_for(NU3, Q, NAMES)
    assert len(chain) == 2
    assert _chain_for(NU3, Q, NAMES, chain[:1]) == chain
    assert _chain_for(NU3, Q, NAMES, chain) == chain


def test_chain_stalls_raise_limit_required():
    xx = MultiPoly.variable(1, 0)
    U = UniPoly.x(1)
    base = Monomial(G, [el((1,)), el((0, 1))])
    spec_u4 = Augmented(base, U, el((4,)))
    P2 = U + UniPoly.constant(1, xx**4)
    spec = Augmented(spec_u4, P2, el((5,)))
    # the binomial successors u - c*x^4 never reach epsilon(P2): limit point
    with pytest.raises(LimitSuccessorRequired):
        monomialize(spec, P2, 10_000, names=["x", "u"])
