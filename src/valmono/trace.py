"""Blow-up trace files: emission, independent replay, DOT rendering.

A trace is one JSON object per line. The first line is an ``init`` event
carrying the group, parameter names, starting values, and protected set;
blow-up steps follow with 1-based positions.

The replay verifier re-executes the value bookkeeping from the init line
alone and fails on any disagreement with the recorded steps. The state
loader rebuilds a ``Frame`` from the same records.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .blowup_engine import CStepData, Frame, framed_blowup
from .errors import CertificationError, ParseError
from .ordered_value import compare, format_element, parse_element
from .serde import group_from_json, group_to_json


def _beta_map(names, betas) -> dict:
    return {n: format_element(b) for n, b in zip(names, betas)}


def trace_records(frame: Frame) -> list:
    """The full trace of a frame as JSON-ready records."""
    group = frame.betas[0].group
    records = [
        {
            "event": "init",
            "group": group_to_json(group),
            "params": list(frame.original_names),
            "beta": _beta_map(frame.original_names, frame.init_betas),
            "protected": sorted(p + 1 for p in frame.protected),
        }
    ]
    for item in frame.history:
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
        records.append(rec)
    return records


def write_trace(frame: Frame, path) -> list:
    records = trace_records(frame)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return records


def read_trace(path) -> list:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records:
        raise ParseError("empty trace file")
    return records


def _frame_from_records(group, records) -> Frame:
    """Rebuild a frame by re-running the recorded blow-ups from the init record."""
    init = records[0]
    if init.get("event") != "init":
        raise ParseError("state trace must start with an init record")
    names = list(init["params"])
    betas = [parse_element(group, init["beta"][n]) for n in names]
    frame = Frame.initial(names, betas, [p - 1 for p in init.get("protected", [])])
    for rec in records[1:]:
        event = rec.get("event")
        if event is not None:
            raise ParseError(f"unknown trace event {event!r}")
        residues = rec.get("residues", {})
        names_after = list(rec["names"])
        beta_after = rec["beta_after"]

        def provider(fr, q, j, _res=residues, _na=names_after, _ba=beta_after):
            r = _res.get(str(q + 1))
            if r is None:
                return None
            return CStepData(
                residue=Fraction(r),
                beta_new=parse_element(group, _ba[_na[q]]),
                new_name=_na[q],
            )

        frame = framed_blowup(frame, [int(q) - 1 for q in rec["J"]], provider)
        if list(frame.names) != names_after:
            raise ParseError("replayed parameter names drift from the record")
    return frame


def _det(matrix) -> Fraction:
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


class _ReplayState:
    def __init__(self, init):
        self.group = group_from_json(init["group"])
        self.names = list(init["params"])
        m = len(self.names)
        beta_map = init.get("beta", {})
        missing = [n for n in self.names if n not in beta_map]
        if missing:
            raise CertificationError(f"init record lacks values for {missing}")
        self.betas = [parse_element(self.group, beta_map[n]) for n in self.names]
        self.protected = set(int(p) - 1 for p in init.get("protected", []))
        self.rows = [[1 if i == k else 0 for k in range(m)] for i in range(m)]
        self.steps = 0

    def check_positive(self, where):
        for n, b in zip(self.names, self.betas):
            if not b.is_positive():
                raise CertificationError(f"{where}: value of {n!r} not positive")


def replay_trace(records) -> dict:
    """Re-execute a trace and verify every recorded step.

    Returns a report dict; raises CertificationError on the first failure.
    """
    if not records or records[0].get("event") != "init":
        raise CertificationError("trace must start with an init event")
    st = _ReplayState(records[0])
    st.check_positive("init")
    for idx, rec in enumerate(records[1:], start=1):
        where = f"record {idx}"
        event = rec.get("event")
        if event is not None:
            raise CertificationError(f"{where}: unknown event {event!r}")

        J = sorted(int(q) - 1 for q in rec["J"])
        if len(J) < 2:
            raise CertificationError(f"{where}: center with fewer than two members")
        if any(q < 0 or q >= len(st.names) for q in J):
            raise CertificationError(f"{where}: center position out of range")
        if set(J) & st.protected:
            raise CertificationError(f"{where}: center touches protected positions")
        j = J[0]
        for q in J[1:]:
            if compare(st.betas[q], st.betas[j]) < 0:
                j = q
        if j != int(rec["j"]) - 1:
            raise CertificationError(f"{where}: chart index is not the value argmin")
        B, C = [], []
        for q in J:
            if q == j:
                continue
            c = compare(st.betas[q], st.betas[j])
            if c < 0:
                raise CertificationError(f"{where}: chart index does not minimize")
            (C if c == 0 else B).append(q)
        if B != sorted(int(q) - 1 for q in rec["B"]):
            raise CertificationError(f"{where}: strict member set mismatch")
        if C != sorted(int(q) - 1 for q in rec["C"]):
            raise CertificationError(f"{where}: equal-value member set mismatch")
        if bool(rec["monomial"]) != (not C):
            raise CertificationError(f"{where}: monomial flag mismatch")

        residues = rec.get("residues", {})
        for q in C:
            r = residues.get(str(q + 1))
            if r is None or Fraction(r) == 0:
                raise CertificationError(f"{where}: missing or zero residue")

        names_after = list(rec.get("names", st.names))
        beta_after_map = rec.get("beta_after", {})
        beta_j = st.betas[j]
        for q in B:
            st.betas[q] = st.betas[q] - beta_j
        for q in C:
            name = names_after[q]
            if name == st.names[q]:
                raise CertificationError(f"{where}: replaced parameter kept its name")
            if name not in beta_after_map:
                raise CertificationError(f"{where}: no recorded value for {name!r}")
            st.betas[q] = parse_element(st.group, beta_after_map[name])
        for q, name in enumerate(names_after):
            if q not in C and name != st.names[q]:
                raise CertificationError(f"{where}: unexpected rename at {q + 1}")
        st.names = names_after
        st.check_positive(where)
        for n, b in zip(st.names, st.betas):
            if n in beta_after_map:
                rec_b = parse_element(st.group, beta_after_map[n])
                if compare(rec_b, b) != 0:
                    raise CertificationError(f"{where}: recorded value of {n!r} drifts")

        for row in st.rows:
            row[j] = sum(row[q] for q in J)
        st.steps += 1

    det = _det(st.rows)
    if abs(det) != 1:
        raise CertificationError(f"exponent matrix determinant {det} is not a unit")
    return {
        "ok": True,
        "steps": st.steps,
        "det": int(det),
        "params": list(st.names),
        "beta": _beta_map(st.names, st.betas),
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
