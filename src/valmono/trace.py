"""Blow-up trace files: emission, replay, DOT rendering.

A trace is one JSON object per line. The first line is an ``init`` event
carrying the group, parameter names and starting values; blow-up steps
follow with 1-based positions.

The one replay, ``_frame_from_records``, builds the starting frame with
``Frame.initial``, which proves every starting value positive, re-runs each
recorded center through ``framed_blowup`` (center, residue, positivity and
name checks) and requires every record to equal the record its replayed
step emits (chart index, B/C split, renames, values). Each step adds
columns to the chart column, so the exponent matrix is unimodular by
construction. Equal-value residues, names and values are read from the
record, not from the valuation; a trace carries no valuation, and the state
loader compares them with its problem's spec.

``write_records`` encodes the whole trace, then writes it through
``serde._write_file``, the package's one file writer, which overwrites an
existing file in place.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .blowup_engine import CStepData, Frame, framed_blowup
from .errors import CertificationError, ParseError, ValmonoError
from .ordered_value import format_element, parse_element
from .serde import _write_file, group_from_json, group_to_json


def _beta_map(names, betas) -> dict:
    return {n: format_element(b) for n, b in zip(names, betas)}


def _step_record(item) -> dict:
    rec = {
        "J": [q + 1 for q in item.J],
        "j": item.j + 1,
        "B": [q + 1 for q in item.B],
        "C": [q + 1 for q in item.C],
        "monomial": item.monomial,
        "names": list(item.names_after),
        "beta_after": _beta_map(item.names_after, item.beta_after),
    }
    if item.C:
        rec["residues"] = {str(q + 1): str(Fraction(r)) for q, r in item.residues}
    return rec


def trace_records(frame: Frame) -> list:
    """The full trace of a frame as JSON-ready records."""
    init = {
        "event": "init",
        "group": group_to_json(frame.betas[0].group),
        "params": list(frame.original_names),
        "beta": _beta_map(frame.original_names, frame.init_betas),
        # always empty: the field stays in the trace format so trace bytes and
        # digests are unchanged; replay refuses an init record that names one
        "protected": [],
    }
    return [init] + [_step_record(item) for item in frame.history]


def write_records(records: list, path) -> None:
    """Write trace records, one JSON object per line; a record that fails to encode leaves the old file."""
    _write_file(path, "".join(json.dumps(rec) + "\n" for rec in records))


def write_trace(frame: Frame, path) -> list:
    records = trace_records(frame)
    write_records(records, path)
    return records


def read_trace(path) -> list:
    """The records of a trace file; a line that is not a JSON object raises ParseError."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"trace line {n}: {exc}") from None
                if not isinstance(rec, dict):
                    raise ParseError(f"trace line {n}: a record must be a JSON object")
                records.append(rec)
    if not records:
        raise ParseError("empty trace file")
    return records


def _recorded_c_data(group, rec):
    """The residue, name and value a step record gives each equal-value member."""
    names, residues, values = rec["names"], rec.get("residues", {}), rec["beta_after"]

    def provider(frame, q, j, unit):
        r = residues.get(str(q + 1))
        return None if r is None else CStepData(Fraction(r), parse_element(group, values[names[q]]), names[q])

    return provider


# what a malformed or tampered record can raise while it is replayed
_MALFORMED = (ValmonoError, LookupError, TypeError, ValueError, AttributeError, ZeroDivisionError)


def _frame_from_records(group, records) -> Frame:
    """Rebuild a frame by re-running the recorded blow-ups from the init record.

    Every record must equal the record its replayed step emits; the first
    one that does not, or that cannot be replayed, raises ParseError.
    """
    idx = 0
    try:
        init = records[0]
        if init.get("event") != "init":
            raise ParseError("trace must start with an init record")
        names = list(init["params"])
        betas = [parse_element(group, init["beta"][n]) for n in names]
        frame = Frame.initial(names, betas)
        emitted = trace_records(frame)[0]
        for idx, rec in enumerate(records):
            if idx:
                if "event" in rec:
                    raise ParseError(f"unknown trace event {rec['event']!r}")
                frame = framed_blowup(frame, [q - 1 for q in rec["J"]], _recorded_c_data(group, rec))
                emitted = _step_record(frame.history[-1])
            if rec != emitted:
                raise ParseError("differs from its replayed step")
    except _MALFORMED as exc:
        raise ParseError(f"trace record {idx}: {exc}") from exc
    return frame


def replay_trace(records) -> dict:
    """Re-run a trace through ``framed_blowup`` and check every record.

    Returns a report dict; raises CertificationError on the first failure.
    """
    try:
        frame = _frame_from_records(group_from_json(records[0]["group"]), records)
    except _MALFORMED as exc:
        raise CertificationError(str(exc)) from exc
    return {
        "ok": True,
        "steps": len(frame.history),
        "params": list(frame.names),
        "beta": _beta_map(frame.names, frame.betas),
    }


def verify_trace_file(path) -> dict:
    return replay_trace(read_trace(path))


def to_dot(records) -> str:
    """Render a trace as a linear DOT chain."""
    lines = ["digraph trace {", "  rankdir=LR;", '  node [shape=box, fontname="monospace"];']
    prev = None
    for idx, rec in enumerate(records):
        node = f"n{idx}"
        if rec.get("event") == "init":
            beta = ", ".join(f"{k}={v}" for k, v in rec.get("beta", {}).items())
            label = f"init\\n{beta}"
        else:
            kind = "monomial" if rec.get("monomial") else "equal-value"
            label = f"step {idx}\\nJ={rec['J']} j={rec['j']}\\n{kind}"
        label = label.replace('"', "'")
        lines.append(f'  {node} [label="{label}"];')
        if prev is not None:
            lines.append(f"  {prev} -> {node};")
        prev = node
    lines.append("}")
    return "\n".join(lines)
