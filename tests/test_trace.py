import json
import os
import random
import re
from fractions import Fraction

import pytest

from valmono.blowup_engine import CStepData, Frame, divide_monomials, framed_blowup
from valmono.errors import CertificationError, ParseError
from valmono.orchestrator import (
    _fresh_state,
    _initial_frame,
    monomialize,
    state_from_json,
    state_to_json,
)
from valmono.ordered_value import GroupElement, format_element, parse_element, standard_group
from valmono.puiseux import puiseux_package
from valmono.serde import group_from_json, load_problem, parse_polynomial, parse_unipoly
from valmono.trace import (
    read_trace,
    replay_trace,
    to_dot,
    trace_records,
    verify_trace_file,
    write_records,
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
    assert report["ok"] and report["steps"] == 3
    assert report["beta"]["x"] == "-3 + pi"


@pytest.mark.parametrize(
    "line, message",
    [("not json", r"trace line 2: Expecting value: line 1 column 1"), ("[1, 2]", "trace line 2: a record must be a JSON object")],
    ids=["not-json", "not-an-object"],
)
def test_a_bad_trace_line_is_a_parse_error(tmp_path, line, message):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(rec) for rec in trace_records(three_step_frame())]
    path.write_text("\n".join([lines[0], line, *lines[1:]]) + "\n")
    with pytest.raises(ParseError, match=message):
        verify_trace_file(path)


README_PROBLEM = {
    "group": {"generators": ["1", "pi"]},
    "vars": ["x", "y", "z"],
    "val": {
        "kind": "composite",
        "key": "z^2 - x^2*y",
        "inner": {"kind": "monomial", "weights": {"x": "1", "y": "2*pi", "z": "1+pi"}},
    },
}

TOWER_PROBLEM = {
    "group": {"generators": ["1"]},
    "vars": ["x", "z"],
    "val": {
        "kind": "augmented",
        "key": "z^2 - x^3",
        "value": "13/4",
        "base": {
            "kind": "augmented",
            "key": "z",
            "value": "3/2",
            "base": {"kind": "monomial", "weights": {"x": "1", "z": "1"}},
        },
    },
}


def _fresh_blob(spec, frame) -> dict:
    return state_to_json(_fresh_state(spec, frame, 10))


def _monomialize_blob(problem, text) -> dict:
    _, names, spec = load_problem(problem)
    return state_to_json(monomialize(spec, parse_unipoly(text, names), 1000, names=names).state)


def tampering_sources() -> dict:
    """Traces with monomial and equal-value steps, each inside a state file."""
    rng = random.Random(20260814 + 41)  # the draws of test_divide_random_property
    betas = [el((1,)), el((0, 1)), el((3, 2))]
    blobs = {}
    while len(blobs) < 4:
        alpha, gamma = (tuple(rng.randrange(5) for _ in range(3)) for _ in range(2))
        frame = divide_monomials(Frame.initial(["x", "y", "z"], betas), alpha, gamma).frame
        if frame.history:
            blobs[f"divide-{alpha}-{gamma}"] = _fresh_blob(Monomial(G, betas), frame)
    _, names, nu3 = load_problem(README_PROBLEM)
    q = parse_polynomial("z^2 - x^2*y", names)
    package = puiseux_package(_initial_frame(nu3, names), nu3, f=q)
    blobs["puiseux"] = _fresh_blob(nu3, package.frame)
    blobs["readme-monomialize"] = _monomialize_blob(README_PROBLEM, "z^2 - x^2*y")
    blobs["tower-monomialize"] = _monomialize_blob(TOWER_PROBLEM, "z^2 - x^3")
    return blobs


def _dup_center(recs, i):
    recs[i]["J"].append(recs[i]["J"][0])


def _other_chart(recs, i):
    recs[i]["j"] = next(q for q in recs[i]["J"] if q != recs[i]["j"])


def _chart_in(field):
    def tamper(recs, i):
        recs[i][field].append(recs[i]["j"])

    return tamper


def _rename_chart(recs, i):
    recs[i]["names"][recs[i]["j"] - 1] += "_t"


def _unshifted_strict_value(recs, i):
    rec, prev = recs[i], recs[i - 1]
    name = rec["names"][rec["B"][0] - 1]
    rec["beta_after"][name] = (prev.get("beta_after") or prev["beta"])[name]


def _zero_residue(recs, i):
    recs[i]["residues"][str(recs[i]["C"][0])] = "0"


def _chart_residue(recs, i):
    recs[i].setdefault("residues", {})[str(recs[i]["j"])] = "1"


def _keep_name(recs, i):
    rec, prev = recs[i], recs[i - 1]
    q = rec["C"][0] - 1
    old = (prev.get("names") or prev["params"])[q]
    rec["beta_after"][old] = rec["beta_after"].pop(rec["names"][q])
    rec["names"][q] = old


def _nonpositive_value(recs, i):
    rec = recs[i]
    rec["beta_after"][rec["names"][rec["C"][0] - 1]] = "-1"


def _doubled_value(recs, i):
    rec = recs[i]
    name = rec["names"][rec["C"][0] - 1]
    value = parse_element(group_from_json(recs[0]["group"]), rec["beta_after"][name])
    rec["beta_after"][name] = format_element(value * 2)


def _residue_seven(recs, i):
    recs[i]["residues"][str(recs[i]["C"][0])] = "7"


DIFFERS = "differs from its replayed step"
# only the state loader, which holds the problem's spec, sees these tampers
SPEC_DIFFERS = "equal-value parameter value differs from the valuation"

# name -> (field the step record must have nonempty, or None; tamper(records, index); expected message)
TAMPERS = {
    "J-duplicate": (None, _dup_center, DIFFERS),
    "J-one-member": (None, lambda recs, i: recs[i].update(J=[recs[i]["j"]]), "at least two"),
    "J-out-of-range": (None, lambda recs, i: recs[i]["J"].append(99), "out of range"),
    "j": (None, _other_chart, DIFFERS),
    "B": (None, _chart_in("B"), DIFFERS),
    "C": (None, _chart_in("C"), DIFFERS),
    "monomial": (None, lambda recs, i: recs[i].update(monomial=not recs[i]["monomial"]), DIFFERS),
    "names": (None, _rename_chart, DIFFERS),
    "beta-after-B": ("B", _unshifted_strict_value, DIFFERS),
    "residue-zero": ("C", _zero_residue, "zero residue"),
    "residue-missing": ("C", lambda recs, i: recs[i].pop("residues"), "needs residue data"),
    "residue-on-chart": (None, _chart_residue, DIFFERS),
    "extra-key": (None, lambda recs, i: recs[i].update(note="x"), DIFFERS),
    "kept-name": ("C", _keep_name, "collides"),
    "beta-after-C-nonpositive": ("C", _nonpositive_value, "must be positive"),
    "beta-after-C-doubled": ("C", _doubled_value, SPEC_DIFFERS),
    "residue-seven": ("C", _residue_seven, SPEC_DIFFERS),
}


def test_replay_catches_tampering():
    """One field of one record changed: replay and the state loader both refuse.

    The state loader also compares equal-value values with the problem's
    spec, which replay without a spec cannot do.
    """
    sources = tampering_sources()
    hits = {case: 0 for case in TAMPERS}
    missed = []
    for source, blob in sources.items():
        records = blob["trace"]
        assert replay_trace(records)["steps"] == len(records) - 1
        state_from_json(blob)
        for case, (need, tamper, message) in TAMPERS.items():
            idx = next((i for i, rec in enumerate(records) if i and (need is None or rec[need])), None)
            if idx is None:
                continue
            hits[case] += 1
            bad = json.loads(json.dumps(records))
            tamper(bad, idx)
            loaders = [
                (replay_trace, CertificationError),
                (lambda recs: state_from_json(dict(blob, trace=recs)), ParseError),
            ]
            if message == SPEC_DIFFERS:
                assert replay_trace(bad)["ok"]
                loaders = loaders[1:]
            for load, error in loaders:
                try:
                    load(bad)
                    missed.append((source, case, "accepted"))
                except error as exc:
                    if not re.search(message, str(exc)):
                        missed.append((source, case, str(exc)))
    assert not missed
    assert sum(1 for blob in sources.values() if any(r.get("C") for r in blob["trace"][1:])) >= 3
    assert all(hits.values()), hits


def test_replay_equal_value_step():
    fr = Frame.initial(["x", "y"], [el((1,)), el((1,))])
    fr = framed_blowup(fr, [0, 1], lambda f, q, j, unit: CStepData(Fraction(2), el((3,))))
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
    blob = state_to_json(_fresh_state(spec, frame, 10))
    for event in REMOVED_EVENTS:
        with pytest.raises(CertificationError, match="unknown trace event"):
            replay_trace(recs + [event])
        with pytest.raises(ParseError, match="unknown trace event"):
            state_from_json(dict(blob, trace=blob["trace"] + [event]))
    state_from_json(blob)
    # an init record with a protected parameter is refused
    assert recs[0]["protected"] == []
    protected = [dict(recs[0], protected=[1])] + recs[1:]
    with pytest.raises(CertificationError, match="differs from its replayed step"):
        replay_trace(protected)
    with pytest.raises(ParseError, match="differs from its replayed step"):
        state_from_json(dict(blob, trace=[dict(blob["trace"][0], protected=[1])]))


@pytest.mark.parametrize("beta", ["0", "-1", "1 - pi"])
def test_init_record_with_a_non_positive_value_is_refused(beta):
    # Frame.initial is the one way in for a trace's starting values
    spec = Monomial(G, [el((1,)), el((0, 1))])
    frame = Frame.initial(["x", "u"], spec.weights)
    blob = state_to_json(_fresh_state(spec, frame, 10))
    init = blob["trace"][0]
    bad = [dict(init, beta=dict(init["beta"], x=beta))]
    with pytest.raises(CertificationError, match="parameter value must stay positive"):
        replay_trace(bad)
    with pytest.raises(ParseError, match="parameter value must stay positive"):
        state_from_json(dict(blob, trace=bad))


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


def _encoded(records) -> bytes:
    return "".join(json.dumps(rec) + "\n" for rec in records).encode()


def test_a_trace_that_fails_to_encode_leaves_the_old_file(tmp_path):
    # the whole trace is encoded before the file is touched; encoding record by
    # record into the open file used to leave the records before the bad one
    path = tmp_path / "run.jsonl"
    write_records([{"a": 1}, {"b": 2}], path)
    before = path.read_bytes()
    assert before == _encoded([{"a": 1}, {"b": 2}])
    with pytest.raises(TypeError):
        write_records([{"a": 1}, {"b": object()}], path)
    assert path.read_bytes() == before


def test_a_shorter_trace_is_written_over_a_longer_one_in_place(tmp_path):
    # no stale tail after the new end; the inode stays, so a hard link made
    # before the rewrite reads the new trace
    path, link = tmp_path / "run.jsonl", tmp_path / "link.jsonl"
    longer = trace_records(three_step_frame())
    shorter = trace_records(Frame.initial(["x", "y"], [el((0, 1)), el((1,))]))
    write_records(longer, path)
    assert path.read_bytes() == _encoded(longer)
    os.link(path, link)
    inode = path.stat().st_ino
    write_records(shorter, path)
    assert len(_encoded(shorter)) < len(_encoded(longer))
    assert path.read_bytes() == link.read_bytes() == _encoded(shorter)
    assert path.stat().st_ino == inode
    assert read_trace(link) == shorter
