"""Master-loop scheduling: chains, key rounds, budgets, resumable state."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from valmono.blowup_engine import (
    Frame,
    TraceStep,
    _factor_as_unit,
    check_frame_values,
    principalize,
    transport,
)
from valmono.errors import (
    BudgetExceeded,
    CertificationError,
    ParseError,
    ResidueUndefined,
    TranscendentalResidue,
    UnknownVariable,
    ZeroPolynomial,
)
from valmono.exact_algebra import MultiPoly, RationalFunction, UniPoly, ev_leq, to_multipoly, to_unipoly
from valmono.ordered_value import GroupElement, Scalar, compare, format_element, is_sentinel, standard_group
from valmono import blowup_engine, exact_algebra, orchestrator, puiseux, successors, valuation_core
from valmono.orchestrator import (
    ChainLink,
    MasterState,
    _chain_for,
    _fresh_state,
    _initial_frame,
    advance,
    embedded_uniformize,
    load_state,
    monomialize,
    save_state,
    state_from_json,
    state_to_json,
    steps_used,
)
from valmono.puiseux import monomialize_limit_successor, valuation_driver
from valmono.successors import SuccessorCertificate
from valmono.trace import _frame_from_records, replay_trace, trace_records
from valmono.valuation_core import Augmented, Composite, Monomial, _Spec

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

# the rank-1 tower over (x, z) of the tower workload: s1 = [z; 3/2], s2 = [K2; 13/4], s3 = [K3; 53/8]
XZ = MultiPoly.variable(1, 0)
Z = UniPoly.x(1)
K2 = Z**2 - UniPoly.constant(1, XZ**3)
K3 = K2**2 - UniPoly.constant(1, XZ**5) * Z
S1 = Augmented(Monomial(G, [el((1,)), el((1,))]), Z, el((Fraction(3, 2),)))
S2 = Augmented(S1, K2, el((Fraction(13, 4),)))
S3 = Augmented(S2, K3, el((Fraction(53, 8),)))


@pytest.mark.parametrize(
    "terms",
    [
        {(0, 0, 1): 2, (2, 1, 0): 3},  # 2*z + 3*x^2*y
        {(0, 0, 2): 1, (2, 1, 0): -1, (1, 0, 1): 5},  # z^2 - x^2*y + 5*x*z
    ],
)
def test_monomialize_laurent_unit_value(terms):
    # the unit's pullback has a negative z power in its numerator; its
    # value check used to stop at to_unipoly with a ValueError
    f = MultiPoly(3, terms)
    out = monomialize(NU3, to_unipoly(f), 10_000, names=NAMES)
    recon = out.frame.pullback_of(RationalFunction(out.monomial()) * out.unit)
    assert recon == RationalFunction(f)
    assert compare(out.value, NU3.value(f)) == 0


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
    # with no step left, the chain still makes the one link that costs its first
    st = _chain_for(_fresh_state(NU3, _initial_frame(NU3, NAMES), 0), Q, NU3.value(Q))
    assert [link.key.degree for link in st.chain + st.keys_pending] == [1, 2]
    with pytest.raises(BudgetExceeded) as exc:
        advance(st)
    assert exc.value.state is st and exc.value.task == "advance"

    # resume the partial state with a real budget and finish the chain
    resumed = advance(replace(exc.value.state, budget=10_000))
    assert len(resumed.chain) == 2 and not resumed.keys_pending
    assert steps_used(resumed) == 3
    # the budget is checked before each round, so the key's round may end past it
    assert state_to_json(advance(replace(st, budget=2))) == state_to_json(replace(resumed, budget=2))
    # with no key pending, a round is the state itself
    assert advance(resumed) is resumed


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
    more = replace(back, budget=back.budget + 10)
    assert advance(more) is more


def _assert_state_roundtrip(state):
    blob = json.loads(json.dumps(state_to_json(state)))
    back = state_from_json(blob)
    assert state_to_json(back) == blob
    keys = [link.key for link in state.chain + state.keys_pending]
    assert [link.key for link in back.chain + back.keys_pending] == keys
    return blob


def test_state_roundtrip_partial_uniformize_and_tower():
    # a partial state from an exhausted budget, with its key still pending
    with pytest.raises(BudgetExceeded) as exc:
        monomialize(NU3, Q, 0, names=NAMES)
    blob = _assert_state_roundtrip(exc.value.state)
    assert blob["chain"] == [{"key": "z", "certificate": None}]
    assert blob["keys_pending"][0]["key"] == "z^2 - x^2*y"
    assert blob["keys_pending"][0]["certificate"]["monomial"] == "x^2*y"

    x2y = UniPoly.constant(2, RationalFunction(x2**2 * y2))
    out = embedded_uniformize(NU3, [x2y, Q], 10_000, names=NAMES)
    _assert_state_roundtrip(out.state)

    # rank-1 tower s2 over (x, z): the key parameter comes back primed
    st = monomialize(S2, K2 * K2, 10_000, names=["x", "z"]).state
    assert st.frame.names == ("x", "z'")
    blob = _assert_state_roundtrip(st)
    assert blob["chain"][1]["key"] == "z^2 - x^3"


def _without(field):
    return lambda blob: {k: v for k, v in blob.items() if k != field}


def _certificate(**fields):
    """The state with these fields of its last chain link's certificate replaced."""
    def tamper(blob):
        chain = [dict(link) for link in blob["chain"]]
        chain[-1]["certificate"] = dict(chain[-1]["certificate"], **fields)
        return dict(blob, chain=chain)
    return tamper


# one malformed field of a saved state; each must load as ParseError, not a bare KeyError or ValueError
STATE_TAMPERS = {
    "version-1": lambda blob: dict(blob, version=1),
    "version-2": lambda blob: dict(blob, version=2),
    "chain-empty": lambda blob: dict(blob, chain=[]),
    **{f"no-{field}": _without(field) for field in
       ("budget", "chain", "trace", "keys_pending", "problem")},
    "budget-text": lambda blob: dict(blob, budget="x"),
    "budget-fraction": lambda blob: dict(blob, budget=1.5),
    "budget-negative": lambda blob: dict(blob, budget=-7),
    "trace-empty": lambda blob: dict(blob, trace=[]),
    "chain-link-no-key": lambda blob: dict(blob, chain=[{"certificate": None}]),
    "chain-link-no-certificate": lambda blob: dict(blob, chain=[*blob["chain"][:-1], dict(blob["chain"][-1], certificate=None)]),
    "not-an-object": lambda blob: list(blob),
    "alpha-fraction": _certificate(alpha=1.5),
    "alpha-zero": _certificate(alpha=0),
    "alpha-negative": _certificate(alpha=-3),
    "alpha-text": _certificate(alpha="2"),
    "alpha-bool": _certificate(alpha=True),
    "alpha-not-matching-the-base-value": _certificate(alpha=1),
    "kind-bogus": _certificate(kind="bogus"),
    "key-power-fraction": _certificate(key_powers=[["Q1", 2.7]]),
    "key-power-zero": _certificate(key_powers=[["Q1", 0]]),
    "base-value-infinite": _certificate(base_value="+inf"),
    "base-value-wrong": _certificate(base_value="(0, 1)"),
}


@pytest.mark.parametrize("tamper", STATE_TAMPERS.values(), ids=STATE_TAMPERS)
def test_state_rejects_a_malformed_field(tamper):
    blob = json.loads(json.dumps(state_to_json(monomialize(NU3, Q, 10_000, names=NAMES).state)))
    assert blob["version"] == 3 and state_to_json(state_from_json(blob)) == blob
    with pytest.raises(ParseError):
        state_from_json(tamper(blob))


# one field of the certificate of K2 = z^2 - x^3 (alpha 2, witness x^3, residue 1)
# that contradicts the key; a key step would read that residue. Q1 is z, the
# key K2 succeeds, which no witness of K2 may take a power of
NOT_BUILT = r"chain key 'z\^2 - x\^3' is not the successor its certificate builds"
KEY_TAMPERS = {
    "residue": (_certificate(residue="7"), NOT_BUILT),
    "monomial": (_certificate(monomial="x^5"), NOT_BUILT),
    "key-powers": (_certificate(key_powers=[["Q1", 1]]), "KeyError: 'Q1'"),
}


@pytest.mark.parametrize("tamper, refused", KEY_TAMPERS.values(), ids=KEY_TAMPERS)
def test_state_checks_each_certificate_against_its_key(tamper, refused, tmp_path):
    blob = json.loads(json.dumps(state_to_json(monomialize(S2, K2, 10_000, names=["x", "z"]).state)))
    assert blob["chain"][-1]["certificate"]["residue"] == "1" and state_from_json(blob).chain[-1].key == K2
    with pytest.raises(ParseError, match=refused):
        state_from_json(tamper(blob))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(tamper(blob)))
    with pytest.raises(ParseError, match=refused):
        load_state(path)


# K3 = K2^2 - x^5*z pending after K2: its witness is x^5 times Q1, chain link 0 (z)
K3_LINK = {"key": "z^4 - 2*x^3*z^2 - x^5*z + x^6", "certificate": {
    "kind": "optimal", "alpha": 2, "monomial": "x^5", "key_powers": [["Q1", 1]], "residue": "1", "base_value": "13/2"}}


def _pending_k3(**fields):
    """The state with K3 pending, these fields of its certificate replaced."""
    return lambda blob: dict(blob, keys_pending=[dict(K3_LINK, certificate=dict(K3_LINK["certificate"], **fields))])


# a certificate whose degrees do not fit its key is refused before any power is
# expanded: alpha 10^9 (with its base value) or the key power Q1^(10^9)
DEGREE_TAMPERS = {
    "huge-alpha": (_certificate(alpha=10**9, base_value=str(Fraction(3, 2) * 10**9)), "z^2 - x^3"),
    "huge-key-power": (_pending_k3(key_powers=[["Q1", 10**9]]), K3_LINK["key"]),
}


@pytest.mark.parametrize("tamper, key", DEGREE_TAMPERS.values(), ids=DEGREE_TAMPERS)
def test_state_checks_a_certificate_s_degrees_before_expanding(tamper, key):
    blob = json.loads(json.dumps(state_to_json(monomialize(S2, K2, 10_000, names=["x", "z"]).state)))
    assert blob["chain"][-1]["certificate"]["base_value"] == "3"
    with pytest.raises(ParseError, match=re.escape(f"chain key {key!r} does not have its certificate's degrees")):
        state_from_json(tamper(blob))


def test_state_rebuilds_a_key_from_its_key_powers():
    # under s3 K3 rises above its base value 13/2, to 53/8
    blob = json.loads(json.dumps(state_to_json(monomialize(S3, K2, 10_000, names=["x", "z"]).state)))
    k3 = K3_LINK
    (link,) = state_from_json(dict(blob, keys_pending=[k3])).keys_pending
    assert link.key == K3 and link.certificate.key_powers == (("Q1", 1),)
    # Q2 is K2, the key K3 succeeds, and Q3 and later name no earlier link: only keys before K2 are labelled
    for label, refused in (("Q2", "KeyError: 'Q2'"), ("Q3", "KeyError: 'Q3'"), ("Q0", "KeyError: 'Q0'"),
                           ("Q01", "KeyError: 'Q01'"), ("monomial", "KeyError: 'monomial'")):
        bad = dict(k3, certificate=dict(k3["certificate"], key_powers=[[label, 1]]))
        with pytest.raises(ParseError, match=refused):
            state_from_json(dict(blob, keys_pending=[bad]))
    for field in ("monomial", "residue"):
        with pytest.raises(ParseError, match="malformed state"):
            state_from_json(dict(blob, keys_pending=[dict(k3, certificate=dict(k3["certificate"], **{field: None}))]))
    # the README problem's state still loads and saves to the same object
    readme = json.loads(json.dumps(state_to_json(monomialize(NU3, Q, 10_000, names=NAMES).state)))
    assert state_to_json(state_from_json(readme)) == readme


def _k3_pending(budget=10_000) -> MasterState:
    """The s3 state after K2's round, with K3's link (its witness x^5 times Q1) pending."""
    blob = json.loads(json.dumps(state_to_json(monomialize(S3, K2, 10_000, names=["x", "z"]).state)))
    return replace(state_from_json(dict(blob, keys_pending=[K3_LINK])), budget=budget)


def test_a_third_key_package_ends_through_the_reduction_loop():
    # after K2's round z is no chart monomial, so K3's image carries units that
    # are not constants; its round, the one reduction loop, makes a monomial
    # step, the equal-value step and a monomial step that principalizes what
    # the equal-value step left
    state = advance(_k3_pending())
    state, (exps, unit, value) = orchestrator._finalize(state, K3, S3.value(K3))
    assert (steps_used(state), value) == (6, el((Fraction(53, 8),)))
    T = RationalFunction(MultiPoly.monomial(state.frame.width, exps)) * unit
    assert state.frame.pullback_of(T) == RationalFunction(to_multipoly(K3))
    report = replay_trace(trace_records(state.frame))
    assert report["ok"] and report["steps"] == 6


def test_a_stop_inside_a_package_raises_at_advance_with_the_state_before_the_round(monkeypatch):
    # the loop that reduces K3's image, told twice the link's value, never reads
    # the least value as the element's and checks the budget before each round
    reduce = orchestrator.monomialize_nondegenerate

    def doubled_value(frame, spec, f, value, *rest):
        return reduce(frame, spec, f, value * 2, *rest)

    state = _k3_pending(budget=4)
    monkeypatch.setattr(orchestrator, "monomialize_nondegenerate", doubled_value)
    with pytest.raises(BudgetExceeded, match="^budget of 4 blow-up steps exhausted at advance$") as exc:
        advance(state)
    assert exc.value.state is state and exc.value.task == "advance"
    # the loop stopped where its first round's two steps left the frame
    assert len(exc.value.__cause__.frame.history) == 5


# under the README's monomial valuation, z^2 - x^2*y has the value 2 + 2*pi of z^2:
# it does not rise, so its round would find no cancellation
FLAT_LINK = {"key": "z^2 - x^2*y", "certificate": {
    "kind": "optimal", "alpha": 2, "monomial": "x^2*y", "key_powers": [], "residue": "1", "base_value": "2 + 2*pi"}}


def test_state_refuses_a_link_whose_value_does_not_rise():
    blob = json.loads(json.dumps(state_to_json(monomialize(NU2, X, 10_000, names=NAMES).state)))
    assert [link["key"] for link in blob["chain"]] == ["z"]
    with pytest.raises(ParseError, match=r"chain key 'z\^2 - x\^2\*y' does not rise above its base value"):
        state_from_json(dict(blob, keys_pending=[FLAT_LINK]))


def test_state_refuses_a_witness_power_of_the_key_it_succeeds():
    # after the README chain (z, Q), Q2 is Q itself, which no witness of Q's successor may take a power of
    readme = json.loads(json.dumps(state_to_json(monomialize(NU3, Q, 10_000, names=NAMES).state)))
    assert [link["key"] for link in readme["chain"]] == ["z", "z^2 - x^2*y"]
    own = {"key": "z^4 - 2*x^2*y*z^2 - x*z^2 + x^4*y^2 + x^3*y", "certificate": {
        "kind": "optimal", "alpha": 2, "monomial": "x", "key_powers": [["Q2", 1]], "residue": "1", "base_value": "(2, 0)"}}
    with pytest.raises(ParseError, match="KeyError: 'Q2'"):
        state_from_json(dict(readme, keys_pending=[own]))


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


def test_omitted_names_default_to_u_i_and_z():
    # a library caller may omit names: the coefficient variables are u1, u2, ... and the last is z
    named = monomialize(NU3, Q, 10_000, names=NAMES)
    out = monomialize(NU3, Q, 10_000)
    assert out.frame.original_names == ("u1", "u2", "z")
    assert (out.exponents, out.unit, out.value) == (named.exponents, named.unit, named.value)
    assert [(s.J, s.j) for s in out.frame.history] == [(s.J, s.j) for s in named.frame.history]
    spec = Monomial(G, [el((1,)), el((0, 1))])
    fs = [UniPoly.constant(1, RationalFunction(MultiPoly.variable(1, 0))), UniPoly.x(1)]
    pair = embedded_uniformize(spec, fs, 10_000)
    assert pair.frame.original_names == ("u1", "z")
    assert pair.entries == embedded_uniformize(spec, fs, 10_000, names=["x", "y"]).entries


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


def _one(run):
    """An entry point over a one-element list: monomialize its element."""
    return lambda spec, fs, budget, names: run(spec, *fs, budget, names=names)


ENTRY_POINTS = {"monomialize": _one(monomialize), "uniformize": embedded_uniformize}
ZERO2 = UniPoly(2, [])


@pytest.mark.parametrize(
    "entry, fs, names, error",
    [
        ("uniformize", [], NAMES, ZeroPolynomial),
        ("uniformize", [Q, K2], NAMES, ParseError),
        ("monomialize", [ZERO2], NAMES, ZeroPolynomial),
        ("uniformize", [Q, ZERO2], NAMES, ZeroPolynomial),
        ("monomialize", [Q], ["x", "z"], ParseError),
        ("uniformize", [Q], ["x", "z"], ParseError),
        ("monomialize", [Q], NAMES + ["w"], ParseError),
        ("uniformize", [Q, Q], NAMES + ["w"], ParseError),
    ],
    ids=[
        "uniformize-empty", "uniformize-mixed-arities", "monomialize-zero", "uniformize-zero",
        "monomialize-short-names", "uniformize-short-names", "monomialize-long-names", "uniformize-long-names",
    ],
)
def test_entry_points_reject_bad_inputs_with_narrow_errors(entry, fs, names, error):
    with pytest.raises(error):
        ENTRY_POINTS[entry](NU3, fs, 10_000, names)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("f", [X, Q], ids=["z", "readme"])
def test_entry_points_reject_a_negative_budget_before_any_value(entry, f, monkeypatch):
    # z needs no step and the README polynomial needs three; both are refused
    # as input errors, before any value is computed
    def no_value(spec, g):
        raise AssertionError("valued before the budget was checked")

    monkeypatch.setattr(_Spec, "value", no_value)
    with pytest.raises(ParseError, match="step budget -5 is negative"):
        ENTRY_POINTS[entry](NU3, [f], -5, NAMES)


XZ_BASE = Monomial(G, [el((1,)), el((1,))])  # over (x, z)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_an_element_of_another_arity_than_the_spec(entry):
    # Q and the names are over (x, y, z), the valuation over (x, z): a narrow
    # error before any value is computed, not a bare ValueError from valuing Q
    with pytest.raises(ParseError, match="arity"):
        ENTRY_POINTS[entry](XZ_BASE, [Q], 100, NAMES)


@pytest.mark.parametrize(
    "spec, f",
    [
        (XZ_BASE, Q),  # a UniPoly over one base variable too many
        (S2, Q),
        (NU3, K2),  # one too few
        (XZ_BASE, MultiPoly.variable(3, 0)),  # a polynomial over all variables
        (XZ_BASE, RationalFunction(MultiPoly.variable(4, 0))),
    ],
    ids=["monomial-unipoly", "augmented-unipoly", "composite-unipoly", "monomial-multipoly", "monomial-rational"],
)
def test_valuing_an_element_of_another_arity_raises_unknown_variable(spec, f):
    with pytest.raises(UnknownVariable):
        spec.value(f)


@pytest.mark.parametrize(
    "spec, f, names",
    [(NU3, Q, NAMES), (S2, K2 * UniPoly.constant(1, XZ) + UniPoly.constant(1, XZ**6), ["x", "z"])],
    ids=["readme", "tower-s2"],
)
def test_monomialize_is_the_one_element_uniformize(spec, f, names):
    one = monomialize(spec, f, 10_000, names=names)
    out = embedded_uniformize(spec, [f], 10_000, names=names)
    assert out.order == (0,)
    (exps, _, value), = out.entries
    assert exps == one.exponents and compare(value, one.value) == 0
    assert trace_records(out.frame) == trace_records(one.frame)


def test_uniformize_extends_the_chain_once_per_element(monkeypatch):
    import valmono.orchestrator as orchestrator

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _chain_for(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "_chain_for", counted)
    x2y = UniPoly.constant(2, RationalFunction(x2**2 * y2))
    out = embedded_uniformize(NU3, [x2y, Q], 10_000, names=NAMES)
    assert out.order == (0, 1)
    assert calls == [x2y, Q]


def test_uniformize_budget_stops_at_the_divisibility_phase():
    spec = Monomial(G, [el((1,)), el((0, 1))])
    fy = UniPoly(1, [RationalFunction.zero(1), RationalFunction.one(1)])
    fx = UniPoly.constant(1, RationalFunction(MultiPoly.variable(1, 0)))
    # both are frame monomials already; only x | y needs a blow-up
    with pytest.raises(BudgetExceeded) as exc:
        embedded_uniformize(spec, [fy, fx], 0, names=["x", "y"])
    assert exc.value.task == "divisibility of element 0"
    assert exc.value.state.frame.history == ()


def _limit_link_state():
    """Over [x: 1, u: 4; u + x^4, 5], the fresh state with the limit link u + x^4 pending."""
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
    pending = (ChainLink(P2, limit_cert, spec.value(P2)),)
    return replace(_fresh_state(spec, _initial_frame(spec, ["x", "u"]), 10_000), keys_pending=pending)


def test_limit_link_through_master_loop():
    st = _limit_link_state()
    spec, P2 = st.spec, st.keys_pending[0].key
    while st.keys_pending:
        st = advance(st)
    # the round is the limit recipe's reduction loop, step for step
    start = _limit_link_state()
    recipe = monomialize_limit_successor(start.frame, spec, start.chain[-1].key, P2)
    assert json.dumps(trace_records(st.frame)) == json.dumps(trace_records(recipe.frame))
    assert st.frame.names[1].startswith("u")
    # the key transported afresh is the frame monomial x^4*u', of the key's value
    image = transport(st.frame, RationalFunction(to_multipoly(P2)))
    assert image == RationalFunction(MultiPoly.monomial(2, (4, 1)))
    assert compare(spec.value(st.frame.pullback_of(image)), el((5,))) == 0


def test_a_limit_link_survives_the_state_file():
    pending = _limit_link_state()
    for st in (pending, advance(pending)):
        blob = _assert_state_roundtrip(st)
        assert (blob["chain"] + blob["keys_pending"])[-1] == {
            "key": "u + x^4",
            "certificate": {"kind": "limit", "alpha": 1, "monomial": None, "key_powers": [],
                            "residue": None, "base_value": "4"},
        }
        # a limit key must drop the previous key's value at argmin {0, 1}:
        # u + 2*x^4 has the truncated value 4 of its own value
        links = "chain" if st.chain[-1].certificate else "keys_pending"
        tampered = json.loads(json.dumps(blob))
        tampered[links][-1]["key"] = "u + 2*x^4"
        with pytest.raises(ParseError, match=r"chain key 'u \+ 2\*x\^4' is not a limit candidate"):
            state_from_json(tampered)


# a limit certificate carries no witness: alpha 1, and no monomial, key powers or residue
LIMIT_TAMPERS = {
    "alpha-2": {"alpha": 2, "base_value": "8"},
    "residue": {"residue": "5"},
    "monomial": {"monomial": "x"},
    "key-powers": {"key_powers": [["Q1", 3]]},
}


@pytest.mark.parametrize("fields", LIMIT_TAMPERS.values(), ids=LIMIT_TAMPERS)
def test_state_refuses_a_limit_certificate_with_witness_fields(fields):
    blob = json.loads(json.dumps(state_to_json(_limit_link_state())))
    (link,) = blob["keys_pending"]
    tampered = dict(blob, keys_pending=[dict(link, certificate=dict(link["certificate"], **fields))])
    with pytest.raises(ParseError, match="a limit certificate has alpha 1 and no monomial, key powers or residue"):
        state_from_json(tampered)


def test_a_state_refusal_is_not_wrapped_again():
    # the loader's own ParseError is the refusal, its message unchanged; any
    # other fault is wrapped as a malformed state
    limit = json.loads(json.dumps(state_to_json(_limit_link_state())))
    (link,) = limit["keys_pending"]
    readme = json.loads(json.dumps(state_to_json(monomialize(NU2, X, 10_000, names=NAMES).state)))
    refusals = [
        (dict(limit, keys_pending=[dict(link, certificate=dict(link["certificate"], residue="5"))]),
         "a limit certificate has alpha 1 and no monomial, key powers or residue"),
        (dict(readme, keys_pending=[FLAT_LINK]), "chain key 'z^2 - x^2*y' does not rise above its base value"),
        ({k: v for k, v in readme.items() if k != "chain"}, "malformed state: KeyError: 'chain'"),
    ]
    for blob, message in refusals:
        with pytest.raises(ParseError) as exc:
            state_from_json(blob)
        assert str(exc.value) == message


@pytest.mark.parametrize("key", ["z^2 - x^2*y", "z^2 - 7*x^2*y", "z^2 + x^5"])
def test_state_checks_a_limit_link_against_the_previous_key(key):
    # the README chain's key under a limit certificate of the right shape, as it
    # is or replaced: its z-expansion tops out at index 2, so no key here is a
    # limit candidate of z
    blob = json.loads(json.dumps(state_to_json(monomialize(NU3, Q, 10_000, names=NAMES).state)))
    limit = {"kind": "limit", "alpha": 1, "monomial": None, "key_powers": [], "residue": None,
             "base_value": format_element(NU3.value(X))}
    tamper = _certificate(**limit)(blob)
    tamper["chain"][-1]["key"] = key
    with pytest.raises(ParseError, match="is not a limit candidate of the previous key"):
        state_from_json(tamper)


def test_the_element_and_each_chain_key_are_valued_once(monkeypatch):
    """Top-level values (those not inside another value) of the tower anchor s2/K2 + x^4.

    The element's value travels to epsilon, and each key's value travels
    with its chain link: a successor is valued once, as the shifted
    numerator that certifies its residue. The initial frame is checked where
    its values come from, so its variables are not valued again. No
    expansion along the key z divides.
    """
    f = K2 + UniPoly.constant(1, XZ**4)
    valued, depth, divisors = [], [0], []
    value, division_round = _Spec.value, exact_algebra._division_round

    def top_level_value(spec, g):
        if not depth[0]:
            valued.append(g)
        depth[0] += 1
        try:
            return value(spec, g)
        finally:
            depth[0] -= 1

    def recorded_round(cs, q, lower):
        divisors.append(q)
        return division_round(cs, q, lower)

    monkeypatch.setattr(_Spec, "value", top_level_value)
    monkeypatch.setattr(exact_algebra, "_division_round", recorded_round)
    out = monomialize(S2, f, 10_000, names=["x", "z"])
    keys = [link.key for link in out.state.chain]
    assert keys == [Z, K2]

    def same(g, h):
        # a key or the element, valued as a univariate or a plain polynomial
        return g == h if type(g) is UniPoly else type(g) is MultiPoly and g == to_multipoly(h)

    assert [sum(1 for g in valued if same(g, h)) for h in [f] + keys] == [1, 1, 1]
    variables = [MultiPoly.variable(2, k) for k in range(2)]
    assert not [g for g in valued if isinstance(g, MultiPoly) and g in variables]
    assert divisors and all(q != Z for q in divisors)
    assert [compare(link.value, S2.value(link.key)) for link in out.state.chain] == [0, 0]


def _k2_step():
    """The s2 state before its key step, and the chain [z, K2] of the anchor K2 + x^4."""
    state = _fresh_state(S2, _initial_frame(S2, ["x", "z"]), 10_000)
    f = K2 + UniPoly.constant(1, XZ**4)
    extended = _chain_for(state, f, S2.value(f))
    return state, extended.chain + extended.keys_pending


def test_a_key_step_refuses_a_link_value_off_its_package():
    # the round's equal-value step takes v(Q') - v(f) from the chain link, and
    # check_frame_values compares that value with the valuation of the step's
    # unit minus its residue, so a link value off the key's is refused there
    state, links = _k2_step()
    assert [link.key for link in links] == [Z, K2]
    done = advance(replace(state, keys_pending=links[1:]))
    assert done.chain[-1] is links[1] and not done.keys_pending
    for value in (links[1].value * 2, links[1].value + el((Fraction(1, 4),))):
        tampered = replace(state, keys_pending=(replace(links[1], value=value),))
        with pytest.raises(CertificationError, match="equal-value parameter value differs from the valuation"):
            advance(tampered)


def _counted_work(monkeypatch) -> dict:
    """Counts, from here on, of top-level spec values (those not inside another
    value), ``q_expansion`` calls and residue searches, wherever valmono holds
    ``q_expansion`` or the search."""
    counts = {"values": 0, "q_expansion": 0, "searches": 0}
    depth, value = [0], _Spec.value

    def top_level_value(spec, g):
        counts["values"] += not depth[0]
        depth[0] += 1
        try:
            return value(spec, g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_Spec, "value", top_level_value)
    for key, fn in (("q_expansion", exact_algebra.q_expansion), ("searches", valuation_core._residue_search)):
        def counted(*args, _key=key, _fn=fn):
            counts[_key] += 1
            return _fn(*args)

        for module in (exact_algebra, valuation_core, successors, blowup_engine, puiseux, orchestrator):
            for name, held in list(vars(module).items()):
                if held is fn:
                    monkeypatch.setattr(module, name, counted)
    return counts


def test_a_key_step_takes_its_residue_from_the_link_once(monkeypatch):
    # the round's terminal quotient is the link's q^alpha/f, so it takes the
    # residue the successor's search certified; a certificate whose residue is
    # doubled fails the exact identity, and the step searches as before
    state, links = _k2_step()
    counts = _counted_work(monkeypatch)
    cert = links[1].certificate
    runs = []
    for link in (links[1], replace(links[1], certificate=replace(cert, residue=cert.residue * 2))):
        counts["searches"] = 0
        done = advance(replace(state, keys_pending=(link,)))
        runs.append((counts["searches"], trace_records(done.frame)))
    assert [n for n, _ in runs] == [0, 1]
    assert runs[0][1] == runs[1][1]


def test_a_key_step_that_searches_refuses_a_link_value_off_its_package(monkeypatch):
    # with the residue doubled the round searches, so check_frame_values sees
    # the searched value, not the link's; the round takes its target value
    # from the link, and the unit factoriser's comparison of the key monomial's
    # frame value with it then refuses a link value off the key's
    state, links = _k2_step()
    cert = links[1].certificate
    searching = replace(links[1], certificate=replace(cert, residue=cert.residue * 2))
    counts = _counted_work(monkeypatch)
    assert advance(replace(state, keys_pending=(searching,))).chain[-1] is searching
    assert counts["searches"] == 1
    for value in (links[1].value * 2, links[1].value + el((Fraction(1, 4),))):
        tampered = replace(state, keys_pending=(replace(searching, value=value),))
        with pytest.raises(CertificationError, match="monomial value differs from the element value"):
            advance(tampered)


# top-level spec values, q_expansion calls and residue searches of monomialize
# on the tower anchors and the README's rank-2 running example; a key step that
# derives again a value or residue its chain link certified, or a unit or frame
# value a step check proved, raises them
@pytest.mark.parametrize(
    "spec, f, names, work",
    [
        (S2, K2, ["x", "z"], {"values": 10, "q_expansion": 7, "searches": 1}),
        (S2, K2 + UniPoly.constant(1, XZ**4), ["x", "z"], {"values": 10, "q_expansion": 7, "searches": 1}),
        (NU3, Q, NAMES, {"values": 11, "q_expansion": 4, "searches": 1}),
    ],
    ids=["s2/K2", "s2/K2 + x^4", "nu3/Q"],
)
def test_the_tower_anchors_do_their_pinned_work(monkeypatch, spec, f, names, work):
    counts = _counted_work(monkeypatch)
    monomialize(spec, f, 10_000, names=names)
    assert counts == work


def test_an_altered_initial_value_is_still_refused(tmp_path):
    # only _initial_frame, whose values come from the spec, starts checked; a
    # frame built from outside values by Frame.initial is compared in full
    frame = _initial_frame(S2, ["x", "z"])
    assert frame.checked == (S2, 0)
    x_value, z_value = frame.init_betas
    check_frame_values(Frame.initial(["x", "z"], frame.init_betas), S2)
    for betas in ([x_value * 2, z_value], [x_value, z_value * 2]):
        with pytest.raises(CertificationError, match="initial parameter value differs from the valuation"):
            check_frame_values(Frame.initial(["x", "z"], betas), S2)
    # a frame checked under one spec is compared in full under another
    with pytest.raises(CertificationError, match="initial parameter value differs from the valuation"):
        check_frame_values(frame, S1.base)

    # a state with no steps yet, whose trace is its init record: altering a
    # starting value there is refused by the loader, from JSON and from a file
    with pytest.raises(BudgetExceeded) as exc:
        monomialize(S2, K2 * K2, 0, names=["x", "z"])
    blob = json.loads(json.dumps(state_to_json(exc.value.state)))
    assert len(blob["trace"]) == 1 and state_from_json(blob).frame.init_betas == (x_value, z_value)
    path = tmp_path / "state.json"
    for name in ("x", "z"):
        bad = json.loads(json.dumps(blob))
        bad["trace"][0]["beta"][name] = "5"
        with pytest.raises(ParseError, match="initial parameter value differs from the valuation"):
            state_from_json(bad)
        path.write_text(json.dumps(bad))
        with pytest.raises(ParseError, match="initial parameter value differs from the valuation"):
            load_state(path)


def test_chain_extends_from_a_prefix():
    fresh = _fresh_state(NU3, _initial_frame(NU3, NAMES), 10)
    st = _chain_for(fresh, Q, NU3.value(Q))
    chain = st.chain + st.keys_pending
    assert len(chain) == 2 and st.chain == fresh.chain
    assert _chain_for(st, Q, NU3.value(Q)) == st
    # a chain whose last key is done is extended by pending links only
    done = replace(fresh, chain=chain)
    assert _chain_for(done, Q, NU3.value(Q)) == done


def _assert_certified(spec, f, out):
    """The pullback identity, the value and the replayed step count of one run."""
    T = RationalFunction(out.monomial()) * out.unit
    assert out.frame.pullback_of(T) == RationalFunction(to_multipoly(f))
    assert compare(out.value, spec.value(f)) == 0
    report = replay_trace(trace_records(out.frame))
    assert report["ok"] and report["steps"] == steps_used(out.state)


def test_a_successor_takes_its_residue_from_the_valuation():
    # the successor of u is u - c*x^4 with c the residue of u/x^4, here -1: it
    # is the key u + x^4 itself
    xx = MultiPoly.variable(1, 0)
    U = UniPoly.x(1)
    base = Monomial(G, [el((1,)), el((0, 1))])
    P2 = U + UniPoly.constant(1, xx**4)
    spec = Augmented(Augmented(base, U, el((4,))), P2, el((5,)))
    out = monomialize(spec, P2, 10_000, names=["x", "u"])
    _assert_certified(spec, P2, out)
    link = out.state.chain[-1]
    assert link.key == P2 and link.certificate.residue == -1
    assert (steps_used(out.state), out.exponents) == (4, (4, 1))


def test_chain_stalls_raise_limit_required():
    # under the key z^2 + x^2, z/x has no rational residue (y^2 + 1 has no
    # rational root): the binomial successor z - x has the value of z, and the
    # chain refuses it where it is made (ROADMAP item 21)
    key = Z**2 + UniPoly.constant(1, XZ**2)
    spec = Augmented(Monomial(G, [el((1,)), el((1,))]), key, el((3,)))
    with pytest.raises(ResidueUndefined, match="the successor's value does not rise above its base value"):
        monomialize(spec, key, 10_000, names=["x", "z"])


def _z(p):
    return UniPoly.constant(1, p)


# ROADMAP item 6's grid: weights of x and z, the key, its assigned value and the
# inputs beside the key; every key's successor residue differs from 1
RESIDUE_GRID = {
    "z-2x": ((1, 1), Z - _z(XZ * 2), Fraction(3, 2), []),
    "z^2-5x^3": ((2, 3), Z**2 - _z(XZ**3 * 5), 7, []),
    "z^2+x^3": ((2, 3), Z**2 + _z(XZ**3), 7, []),
    "z^2-7/3x^3": ((2, 3), Z**2 - _z(XZ**3 * Fraction(7, 3)), Fraction(19, 3), []),
    "z+4x^2": ((1, 2), Z + _z(XZ**2 * 4), 3, []),
    "z^3-2x^2": ((3, 2), Z**3 - _z(XZ**2 * 2), Fraction(13, 2), [_z(XZ**3)]),
}


def _grid_cases():
    for name, (weights, key, value, tails) in RESIDUE_GRID.items():
        spec = Augmented(Monomial(G, [el((w,)) for w in weights]), key, el((value,)))
        yield name, spec, key
        for tail in tails:
            yield f"{name}+tail", spec, key + tail
    # the README tower's second key with a residue other than 1
    for name, key in (("K2=z^2-2x^3", Z**2 - _z(XZ**3 * 2)), ("K2=z^2+3x^3", Z**2 + _z(XZ**3 * 3))):
        spec = Augmented(S1, key, el((Fraction(13, 4),)))
        yield name, spec, key
        yield f"{name}+x^4", spec, key + _z(XZ**4)


GRID_CASES = list(_grid_cases())
GRID_STEPS = {
    "z-2x": 1, "z^2-5x^3": 3, "z^2+x^3": 3, "z^2-7/3x^3": 3, "z+4x^2": 2, "z^3-2x^2": 3, "z^3-2x^2+tail": 4,
    "K2=z^2-2x^3": 3, "K2=z^2-2x^3+x^4": 4, "K2=z^2+3x^3": 3, "K2=z^2+3x^3+x^4": 4,
}


@pytest.mark.parametrize("name, spec, f", GRID_CASES, ids=[c[0] for c in GRID_CASES])
def test_keys_with_a_residue_other_than_one_certify(name, spec, f):
    out = monomialize(spec, f, 10_000, names=["x", "z"])
    _assert_certified(spec, f, out)
    assert steps_used(out.state) == GRID_STEPS[name]


def _arc_tower(depth: int):
    """s_n = Augmented(s_{n-1}, z - phi_n, n + 1) over Monomial(x:1, z:1),
    phi_n = x + x^2/2 + ... + x^n/n; the residue of (z - phi_{n-1})/x^n is 1/n."""
    spec, keys = Monomial(G, [el((1,)), el((1,))]), []
    for n in range(1, depth + 1):
        keys.append(Z - _z(sum((XZ**i * Fraction(1, i) for i in range(2, n + 1)), XZ)))
        spec = Augmented(spec, keys[-1], el((n + 1,)))
    return spec, keys


ARC3 = _arc_tower(3)
ARC40 = _arc_tower(40)


@pytest.mark.parametrize("k", [2, 3])
def test_the_depth_three_arc_tower_certifies(k):
    spec, keys = ARC3
    out = monomialize(spec, keys[k - 1], 10_000, names=["x", "z"])
    _assert_certified(spec, keys[k - 1], out)
    assert [link.certificate.residue for link in out.state.chain[1:]] == [Fraction(1, n) for n in range(1, k + 1)]


def test_a_thirty_two_link_arc_chain_certifies():
    spec, keys = ARC40
    out = monomialize(spec, keys[30], 10_000, names=["x", "z"])
    _assert_certified(spec, keys[30], out)
    assert len(out.state.chain) == 32 and steps_used(out.state) == 31


@pytest.mark.parametrize("k", [32, 40])
def test_the_arc_tower_chain_has_no_fixed_length(k):
    # z - phi_k needs k + 1 links: the chain's length comes from the valuation, and no limit is involved
    spec, keys = ARC40
    out = monomialize(spec, keys[k - 1], 10_000, names=["x", "z"])
    _assert_certified(spec, keys[k - 1], out)
    assert len(out.state.chain) == k + 1 and steps_used(out.state) == k


def test_a_long_chain_stops_at_the_budget_and_resumes():
    # each pending link costs at least one step: under budget 5 the chain for
    # z - phi_40 stops with 6 links pending, and the state resumes to the full run
    spec, keys = ARC40
    f, names = keys[39], ["x", "z"]
    full = monomialize(spec, f, 10_000, names=names)
    with pytest.raises(BudgetExceeded) as exc:
        monomialize(spec, f, 5, names=names)
    st = exc.value.state
    assert exc.value.task == "chain" and steps_used(st) == 0
    assert st.chain == full.state.chain[:1] and st.keys_pending == full.state.chain[1:7]
    st = replace(st, budget=10_000)
    while st.keys_pending:
        st = advance(st)
    st = _chain_for(st, f, spec.value(f))
    while st.keys_pending:
        st = advance(st)
    assert st.chain == full.state.chain
    assert state_to_json(st) == state_to_json(replace(full.state, budget=10_000))


@pytest.mark.parametrize(
    "spec, f",
    [(S3, K3**2 + UniPoly.constant(1, XZ**13)), (S2, K2 * UniPoly.constant(1, XZ) + UniPoly.constant(1, XZ**6))],
    ids=["s3-K3^2+x13", "s2-K2x+x6"],
)
def test_tower_elements_certify(spec, f):
    # seconds (s2) and over a minute (s3) while each unit was pulled back to be valued
    out = monomialize(spec, f, 10_000, names=["x", "z"])
    T = RationalFunction(out.monomial()) * out.unit
    assert out.frame.pullback_of(T) == RationalFunction(to_multipoly(f))
    assert compare(out.value, spec.value(f)) == 0
    assert replay_trace(trace_records(out.frame))["steps"] == steps_used(out.state)


# a tower of depth 5 over (x, y, z): Monomial(x:1, y:pi, z:1) augmented by the keys
# K_n = z - (x + ... + x^n) at value n + 1, each with residue 1
def c3(p):
    return UniPoly.constant(2, p)


def _depth_five_tower():
    spec = Monomial(G, [el((1,)), el((0, 1)), el((1,))])
    for n, key in KN.items():
        spec = Augmented(spec, key, el((n + 1,)))
    return spec


KN = {n: X - c3(sum((x2**i for i in range(2, n + 1)), x2)) for n in range(1, 6)}
T5 = _depth_five_tower()


# element, blow-up steps, exponents over the final parameters; re-pinned
# (8, 5, 7, 5, 5 steps before) when the graded divisibility slices went
DEEP_TOWER = {
    "K5": (KN[5], 5, (5, 0, 1)),
    "K3+x^3y": (KN[3] + c3(x2**3 * y2), 4, (3, 0, 1)),
    "K4z+x^6y^2": (KN[4] * X + c3(x2**6 * y2**2), 5, (5, 0, 1)),
    "K3K2+x^6y": (KN[3] * KN[2] + c3(x2**6 * y2), 4, (6, 0, 1)),
    "K3+x^2y^2": (KN[3] + c3(x2**2 * y2**2), 4, (4, 0, 0)),
}


@pytest.mark.parametrize("f, steps, exponents", DEEP_TOWER.values(), ids=DEEP_TOWER)
def test_three_variable_tower_elements_certify(f, steps, exponents):
    out = monomialize(T5, f, 10_000, names=NAMES)
    assert (steps_used(out.state), out.exponents) == (steps, exponents)
    T = RationalFunction(out.monomial()) * out.unit
    assert out.frame.pullback_of(T) == RationalFunction(to_multipoly(f))
    assert compare(out.value, T5.value(f)) == 0
    report = replay_trace(trace_records(out.frame))
    assert report["ok"] and report["steps"] == steps


def test_a_three_variable_tower_tie_has_no_rational_residue():
    # K5's image meets x^4*y + x^7 at equal value: the residue is transcendental
    # until value-zero parameters are certified
    with pytest.raises(TranscendentalResidue):
        monomialize(T5, KN[5] + c3(x2**4 * y2 + x2**7), 10_000, names=NAMES)


# a run whose element the reduction loop never reads as non-degenerate: told
# twice the element's value, which no monomial of the chart reaches, each round
# principalizes the image's least-value terms once the budget allows, so the
# run ends in that round's error, in a round that makes no step, or at the budget
FORCED_DEGENERATE = """
import sys
from valmono import orchestrator
from valmono.orchestrator import monomialize
from valmono.serde import load_problem, parse_unipoly
reduce = orchestrator.monomialize_nondegenerate
orchestrator.monomialize_nondegenerate = lambda frame, spec, f, value, *rest: reduce(frame, spec, f, value * 2, *rest)
_, names, spec = load_problem({"group": {"generators": ["1"]}, "vars": ["x", "z"],
                               "val": {"kind": "monomial", "weights": {"x": "2", "z": "3"}}})
for poly, budget in (("z^2 + x^3", 50), ("z^2 + x^4", 50), ("z^2 + x^3", 0)):
    try:
        monomialize(spec, parse_unipoly(poly, names), budget, names=names)
    except Exception as exc:
        print(poly, budget, type(exc).__name__, exc, getattr(exc, "task", None))
"""


def test_a_finalize_that_never_sees_a_non_degenerate_image_ends():
    # each of these ran forever while a degenerate element advanced through
    # the blind slices
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orchestrator.__file__)))
    proc = subprocess.run([sys.executable, "-c", FORCED_DEGENERATE], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout.splitlines() == [
        # the two terms of value 6 tie at the second step, where z^2/x^3 has no rational residue
        "z^2 + x^3 50 TranscendentalResidue no rational residue matches the element None",
        "z^2 + x^4 50 CertificationError monomial value differs from the element value None",
        "z^2 + x^3 0 BudgetExceeded budget of 0 blow-up steps exhausted at finalize finalize",
    ], proc.stderr


def _frame_with(frame, **fields):
    slots = ("names", "original_names", "init_betas", "betas", "history")
    return Frame(**{**{k: getattr(frame, k) for k in slots}, **fields})


def _last_equal_value_step(frame, change):
    """The frame with its last equal-value step's first C member changed."""
    i = max(i for i, step in enumerate(frame.history) if step.C)
    step = frame.history[i]
    history = list(frame.history)
    history[i] = change(step, step.C[0])
    return _frame_with(frame, history=tuple(history))


def _doubled_value(step, q):
    beta_after = list(step.beta_after)
    beta_after[q] = beta_after[q] * 2
    return replace(step, beta_after=tuple(beta_after))


def _residue_seven(step, q):
    return replace(step, residues=tuple((p, Fraction(7) if p == q else r) for p, r in step.residues))


def _doubled_initial_value(frame):
    return _frame_with(frame, init_betas=(frame.init_betas[0] * 2,) + frame.init_betas[1:])


FRAME_TAMPERS = {
    "beta-after": lambda frame: _last_equal_value_step(frame, _doubled_value),
    "residue": lambda frame: _last_equal_value_step(frame, _residue_seven),
    "initial-beta": _doubled_initial_value,
}


@pytest.mark.parametrize("tamper", FRAME_TAMPERS.values(), ids=FRAME_TAMPERS)
@pytest.mark.parametrize(
    "spec, f, names",
    [(NU3, Q, NAMES), (S2, K2 * K2, ["x", "z"])],
    ids=["readme", "tower-s2"],
)
def test_certificate_rejects_a_frame_value_off_the_spec(spec, f, names, tamper):
    # the unit's value is proved from the frame's values, so each value the
    # frame took from outside is compared with the spec first
    out = monomialize(spec, f, 10_000, names=names)
    T = RationalFunction(out.monomial()) * out.unit
    assert _factor_as_unit(_frame_with(out.frame), spec, T, out.value)[0] == out.exponents
    with pytest.raises(CertificationError, match="parameter value differs from the valuation"):
        _factor_as_unit(tamper(out.frame), spec, T, out.value)


def _stored_rationals(obj):
    """Every rational ``obj`` stores: polynomial terms, scalar coefficients,
    generator values, step residues and successor residues."""
    if obj is None or is_sentinel(obj):
        return
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _stored_rationals(item)
    elif isinstance(obj, MultiPoly):
        yield from obj.terms.values()
    elif isinstance(obj, RationalFunction):
        yield from _stored_rationals((obj.num, obj.den))
    elif isinstance(obj, UniPoly):
        yield from _stored_rationals(obj.coeffs)
    elif isinstance(obj, Scalar):
        yield from (c for _, c in obj.coeffs)
        yield from (r for r in (obj.group.generator(name).rational for name in obj.group.names) if r is not None)
    elif isinstance(obj, GroupElement):
        yield from _stored_rationals(obj.entries)
    elif isinstance(obj, Frame):
        yield from _stored_rationals((obj.init_betas, obj.betas, obj.history))
    elif isinstance(obj, TraceStep):
        yield from (r for _, r in obj.residues)
        yield from _stored_rationals(obj.beta_after)
        yield from _stored_rationals([u for _, u in obj.units])
    elif isinstance(obj, MasterState):
        yield from _stored_rationals((obj.frame, obj.chain, obj.keys_pending))
    elif isinstance(obj, ChainLink):
        yield from _stored_rationals((obj.key, obj.certificate, obj.value))
    elif isinstance(obj, SuccessorCertificate):
        yield from _stored_rationals((obj.monomial, obj.base_value))
        if obj.residue is not None:
            yield obj.residue
    else:
        raise TypeError(f"no walk for {type(obj).__name__}")


def test_every_stored_coefficient_is_in_normal_form():
    # an int when integral, else a Fraction with denominator > 1: in frame
    # values, trace residues, units, certificate units and resumable state
    readme = monomialize(NU3, Q, 10_000, names=NAMES)
    x2y = UniPoly.constant(2, RationalFunction(x2**2 * y2))
    uniform = embedded_uniformize(NU3, [x2y, Q], 10_000, names=NAMES)
    tower = monomialize(S3, K3 * K3 + UniPoly.constant(1, XZ**13), 10_000, names=["x", "z"])
    ideal = principalize(_initial_frame(NU3, NAMES), [(3, 0, 0), (0, 2, 1)], valuation_driver(NU3))
    stores = [
        readme.state, readme.unit, readme.value,
        uniform.state, [(unit, value) for _, unit, value in uniform.entries],
        tower.state, tower.unit, tower.value,
        ideal.frame,
    ]
    # the same frames read back from their traces, and the states from their files
    for frame in (readme.frame, uniform.frame, tower.frame, ideal.frame):
        stores.append(_frame_from_records(frame.betas[0].group, trace_records(frame)))
    for state in (readme.state, uniform.state, tower.state):
        stores.append(state_from_json(json.loads(json.dumps(state_to_json(state)))))
    found = list(_stored_rationals(stores))
    assert any(type(c) is int for c in found) and any(type(c) is Fraction for c in found)
    bad = [c for c in found if not (type(c) is int and c != 0 or type(c) is Fraction and c.denominator > 1)]
    assert bad == []
    assert [r for _, r in tower.frame.history[-1].residues], "the tower run ends with an equal-value step"


def _reachable_values(obj, seen):
    """Every stored Scalar and GroupElement reachable from ``obj`` through containers and the attributes of valmono objects."""
    if id(obj) in seen or obj is None or isinstance(obj, (str, int, Fraction, MultiPoly, RationalFunction, UniPoly)):
        return
    seen.add(id(obj))
    if isinstance(obj, (Scalar, GroupElement)):
        yield obj
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from _reachable_values(item, seen)
    elif isinstance(obj, dict):
        for item in obj.items():
            yield from _reachable_values(item, seen)
    elif type(obj).__module__.startswith("valmono.") and not callable(obj):
        slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
        for name in [*getattr(obj, "__dict__", {}), *slots]:
            yield from _reachable_values(getattr(obj, name, None), seen)


def test_every_stored_scalar_is_integer_scaled():
    # the runs of test_every_stored_coefficient_is_in_normal_form: each stored
    # value is a flat element, rank blocks of int numerators, one per
    # generator, over one positive int denominator with gcd 1, the zero
    # element all zeros over 1; no Scalar is stored, and zero blocks occur
    readme = monomialize(NU3, Q, 10_000, names=NAMES)
    x2y = UniPoly.constant(2, RationalFunction(x2**2 * y2))
    uniform = embedded_uniformize(NU3, [x2y, Q], 10_000, names=NAMES)
    tower = monomialize(S3, K3 * K3 + UniPoly.constant(1, XZ**13), 10_000, names=["x", "z"])
    runs = [readme, uniform, tower]
    stores = list(runs)
    for out in runs:  # the frames read back from their traces, and the states from their files
        stores.append(_frame_from_records(out.frame.betas[0].group, trace_records(out.frame)))
        stores.append(state_from_json(json.loads(json.dumps(state_to_json(out.state)))))
    values = list(_reachable_values(stores, set()))
    assert not [v for v in values if isinstance(v, Scalar)]
    assert sum(v.rank for v in values) > 100 and any(v.den > 1 for v in values) and any(v.rank > 1 for v in values)
    assert any(not any(v.nums[:len(v.group.names)]) for v in values), "no stored value has a zero block"
    for v in values:
        assert type(v.rank) is int and v.rank > 0 and type(v.nums) is tuple, v
        assert len(v.nums) == v.rank * len(v.group.names), v
        assert all(type(n) is int for n in v.nums) and type(v.den) is int and v.den > 0, v
        assert gcd(v.den, *v.nums) == 1 and (any(v.nums) or v.den == 1), v


def test_a_state_that_fails_to_encode_leaves_the_old_file(tmp_path, monkeypatch):
    # the text is encoded before the file is opened; a streamed encoding used to
    # truncate the file and leave half a state behind
    out = monomialize(NU3, Q, 10_000, names=NAMES)
    path = tmp_path / "state.json"
    save_state(out.state, path)
    before = path.read_bytes()
    assert before == (json.dumps(state_to_json(out.state), sort_keys=True) + "\n").encode()
    monkeypatch.setattr(orchestrator, "state_to_json", lambda state, records=None: {"chain": [], "frame": object()})
    with pytest.raises(TypeError):
        save_state(out.state, path)
    assert path.read_bytes() == before


def test_a_shorter_state_is_written_over_a_longer_one_in_place(tmp_path):
    # no stale tail after the new end; the inode stays, so a hard link made
    # before the rewrite reads the new state
    path, link = tmp_path / "state.json", tmp_path / "link.json"
    longer = monomialize(NU3, Q, 10_000, names=NAMES).state
    shorter = _fresh_state(NU3, _initial_frame(NU3, NAMES), 10)
    encoded = [(json.dumps(state_to_json(s), sort_keys=True) + "\n").encode() for s in (longer, shorter)]
    assert len(encoded[1]) < len(encoded[0])
    save_state(longer, path)
    assert path.read_bytes() == encoded[0]
    os.link(path, link)
    inode = path.stat().st_ino
    save_state(shorter, path)
    assert path.read_bytes() == link.read_bytes() == encoded[1]
    assert path.stat().st_ino == inode
    assert state_to_json(load_state(link)) == state_to_json(shorter)


# -- checks that no valid input reaches, each fired by a faulty producer -----------

XY_SPEC = Monomial(G, [el((1,)), el((0, 1))])
FX = UniPoly.constant(1, RationalFunction(MultiPoly.variable(1, 0)))
FY = UniPoly(1, [RationalFunction.zero(1), RationalFunction.one(1)])


def test_a_pair_that_does_not_divide_is_refused(monkeypatch):
    # the element of least value comes first and divides the rest; with y
    # (value pi) put first the division of y by x goes the other way
    real = orchestrator._monomialize_in_turn

    def reversed_order(*args):
        state, order, done = real(*args)
        return state, tuple(reversed(order)), done

    monkeypatch.setattr(orchestrator, "_monomialize_in_turn", reversed_order)
    with pytest.raises(CertificationError, match="pair failed to divide at divisibility of element 1"):
        embedded_uniformize(XY_SPEC, [FY, FX], 10_000, names=["x", "y"])


def test_a_minimal_element_that_does_not_divide_is_refused(monkeypatch):
    monkeypatch.setattr(orchestrator, "_divide_pairs", lambda state, pairs: state)
    with pytest.raises(CertificationError, match="minimal element fails to divide"):
        embedded_uniformize(XY_SPEC, [FY, FX], 10_000, names=["x", "y"])


def test_a_key_round_whose_forward_images_fail_is_refused(monkeypatch):
    # advance checks the loop's forward images by substitution, as the limit recipe does
    state, links = _k2_step()
    monkeypatch.setattr(orchestrator, "verify_forward", lambda frame: False)
    with pytest.raises(CertificationError, match="^forward images fail the substitution check$"):
        advance(replace(state, keys_pending=(links[1],)))


def test_an_image_with_a_polynomial_denominator_is_refused(monkeypatch):
    real = orchestrator.transport

    def over_one_plus_x(frame, expr, from_step=0):
        image = real(frame, expr, from_step)
        return image / (RationalFunction(MultiPoly.variable(image.width, 0)) + 1)

    monkeypatch.setattr(orchestrator, "transport", over_one_plus_x)
    with pytest.raises(CertificationError, match="element transported outside the parameter ring"):
        monomialize(XY_SPEC, FX, 10_000, names=["x", "y"])
