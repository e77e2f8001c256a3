import json
from fractions import Fraction

import pytest

from valmono.blowup_engine import CStepData, Frame, divide_monomials, framed_blowup
from valmono.errors import CertificationError, ParseError
from valmono.exact_algebra import UniPoly
from valmono.orchestrator import ChainLink, _fresh_state, state_from_json, state_to_json
from valmono.ordered_value import GroupElement, standard_group
from valmono.trace import (
    read_trace,
    replay_trace,
    to_dot,
    trace_records,
    verify_trace_file,
    write_trace,
)
from valmono.valuation_core import Monomial

G = standard_group()


def sc(a=0, b=0):
    return G.scalar(value=Fraction(a), pi=Fraction(b))


def el(*pairs) -> GroupElement:
    return G.element(*(sc(*p) for p in pairs))


def three_step_frame() -> Frame:
    fr = Frame.initial(["x", "y"], [el((0, 1)), el((1,))])
    return divide_monomials(fr, (1, 0), (0, 3)).frame


def test_records_shape():
    fr = three_step_frame()
    recs = trace_records(fr)
    assert recs[0]["event"] == "init"
    assert recs[0]["params"] == ["x", "y"]
    assert recs[0]["beta"] == {"x": "pi", "y": "1"}
    assert len(recs) == 4
    step = recs[1]
    assert step["J"] == [1, 2] and step["j"] == 2
    assert step["B"] == [1] and step["C"] == []
    assert step["monomial"] is True
    assert step["beta_after"]["x"] == "-1 + pi"


def test_write_read_replay(tmp_path):
    fr = three_step_frame()
    path = tmp_path / "trace.jsonl"
    write_trace(fr, path)
    report = verify_trace_file(path)
    assert report["ok"] and report["steps"] == 3 and abs(report["det"]) == 1
    assert report["beta"]["x"] == "-3 + pi"


def test_replay_catches_tampering(tmp_path):
    fr = three_step_frame()
    path = tmp_path / "trace.jsonl"
    write_trace(fr, path)
    records = read_trace(path)

    bad = [dict(r) for r in records]
    bad[1]["j"] = 1  # the argmin is position 2
    with pytest.raises(CertificationError):
        replay_trace(bad)

    bad = [dict(r) for r in records]
    bad[1]["beta_after"] = dict(bad[1]["beta_after"], x="1 + pi")
    with pytest.raises(CertificationError):
        replay_trace(bad)

    bad = [dict(r) for r in records]
    bad[1]["monomial"] = False
    with pytest.raises(CertificationError):
        replay_trace(bad)


def test_replay_equal_value_step():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    fr = framed_blowup(fr, [0, 1], lambda f, q, j: CStepData(Fraction(2), el((3,))))
    recs = trace_records(fr)
    assert recs[1]["C"] == [2] and recs[1]["residues"] == {"2": "2"}
    report = replay_trace(recs)
    assert report["ok"] and report["beta"]["y'"] == "3"
    # dropping the residue must fail the replay
    broken = [dict(r) for r in recs]
    broken[1].pop("residues")
    with pytest.raises(CertificationError):
        replay_trace(broken)


REMOVED_EVENTS = [
    {"event": "lift", "extra": 1},
    {"event": "protect", "positions": [1]},
    {"event": "reframe", "position": 2, "name": "t", "beta": "(0, 5)"},
]


def test_replay_rejects_lift_protect_reframe():
    fr = framed_blowup(Frame.initial(["x", "y"], [el((1,)), el((0, 1))]), [0, 1])
    recs = trace_records(fr)
    spec = Monomial(G, [el((1,)), el((0, 1))])
    frame = Frame.initial(["x", "u"], spec.weights)
    blob = state_to_json(_fresh_state(spec, frame, [ChainLink(UniPoly.x(1), None)], 10))
    for event in REMOVED_EVENTS:
        with pytest.raises(CertificationError, match="unknown event"):
            replay_trace(recs + [event])
        with pytest.raises(ParseError, match="unknown trace event"):
            state_from_json(dict(blob, trace=blob["trace"] + [event]))
    state_from_json(blob)
    # a center through a parameter protected at init is still refused
    fr = Frame.initial(["x", "y", "z"], [el((1,)), el((0, 1)), el((2,))], protected=[0])
    fr = framed_blowup(fr, [1, 2])
    recs = trace_records(fr)
    assert recs[0]["protected"] == [1]
    assert replay_trace(recs)["steps"] == 1
    tampered = recs + [
        {
            "J": [1, 2],
            "j": 1,
            "B": [2],
            "C": [],
            "monomial": True,
            "names": ["x", "y", "z"],
            "beta_after": {},
        }
    ]
    with pytest.raises(CertificationError, match="protected"):
        replay_trace(tampered)


def test_dot_export():
    fr = three_step_frame()
    dot = to_dot(trace_records(fr))
    assert dot.startswith("digraph trace {")
    assert dot.count("->") == 3
    assert "init" in dot and "J=[1, 2]" in dot


def test_trace_json_is_plain(tmp_path):
    fr = three_step_frame()
    path = tmp_path / "trace.jsonl"
    recs = write_trace(fr, path)
    with open(path) as fh:
        for line, rec in zip(fh, recs):
            assert json.loads(line) == rec
