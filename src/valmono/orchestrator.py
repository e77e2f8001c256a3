"""Master scheduling loop over divisibility slices, keys and targets.

The infinite interleaved sequence is realized as resumable macro-rounds
under an explicit budget counted in blow-up steps. Each round processes
one finite slice of monomial pairs, monomializes the next pending key
polynomial, and monomializes the next queued coefficient-ring element.

The state is a value: ``advance`` returns a new state and never mutates
its input, so callers may fork explorations by keeping old states. All
enumeration orders are fixed, making runs byte-for-byte reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .blowup_engine import (
    CStepData,
    Frame,
    _factor_as_unit,
    divide_monomials,
    framed_blowup,
    monomialize_nondegenerate,
    transform_exponents,
    transport,
)
from .errors import (
    BudgetExceeded,
    CertificationError,
    DegenerateInput,
    LimitSuccessorRequired,
    MaximalKey,
    ParseError,
    ZeroPolynomial,
)
from .exact_algebra import MultiPoly, RationalFunction, UniPoly, ev_leq, to_multipoly
from .ordered_value import compare, format_element, is_sentinel, parse_element
from .puiseux import (
    monomialize_limit_successor,
    prepare_successor,
    puiseux_package,
    valuation_driver,
)
from .serde import load_problem, problem_to_json
from .successors import Lattice, LatticeGenerator, SuccessorCertificate, next_successor
from .valuation_core import epsilon

STATE_VERSION = 1

# chain extension is capped: a run that keeps producing successors without
# reaching the target invariant is treated as a limit point
MAX_CHAIN = 32


@dataclass(frozen=True)
class ChainLink:
    """One certified key polynomial of the successor chain."""

    key: UniPoly
    certificate: SuccessorCertificate | None  # None for the base variable


@dataclass(frozen=True)
class MasterState:
    spec: object
    frame: Frame
    budget: int
    slice_index: int
    chain: tuple  # ChainLink entries already monomialized
    keys_pending: tuple  # ChainLink entries waiting for their package
    targets_pending: tuple  # MultiPoly elements over the original variables
    key_poly: UniPoly  # last monomialized key
    key_image: RationalFunction  # its image over the current parameters
    key_pos: int  # frame position of the parameter carrying the key
    processed_pairs: tuple  # divisibility pairs done so far, kept current
    target_log: tuple  # (exponents, unit, value) per finished target


def steps_used(state: MasterState) -> int:
    return len(state.frame.history)


def _budget_error(state: MasterState, task: str) -> BudgetExceeded:
    exc = BudgetExceeded(
        f"budget of {state.budget} blow-up steps exhausted at {task}"
    )
    exc.state = state
    exc.task = task
    return exc


def _fresh_state(spec, frame: Frame, chain, budget: int, targets=()) -> MasterState:
    links = tuple(chain)
    pos = frame.width - 1
    return MasterState(
        spec=spec,
        frame=frame,
        budget=int(budget),
        slice_index=0,
        chain=links[:1],
        keys_pending=links[1:],
        targets_pending=tuple(targets),
        key_poly=links[0].key,
        key_image=RationalFunction(MultiPoly.variable(frame.width, pos)),
        key_pos=pos,
        processed_pairs=(),
        target_log=(),
    )


def _after_steps(state: MasterState, frame: Frame) -> MasterState:
    """Push every stored exponent vector and unit through the new steps."""
    base = len(state.frame.history)
    steps = frame.history[base:]
    if not steps:
        return replace(state, frame=frame)
    pairs = tuple(
        (transform_exponents(a, steps), transform_exponents(b, steps))
        for a, b in state.processed_pairs
    )
    image = transport(frame, state.key_image, from_step=base)
    tlog = tuple(
        (transform_exponents(e, steps), transport(frame, u, from_step=base), v)
        for e, u, v in state.target_log
    )
    return replace(
        state, frame=frame, processed_pairs=pairs, key_image=image, target_log=tlog
    )


# -- pair enumeration -----------------------------------------------------------


def _graded_monomials(width: int, skip: int, count: int) -> list:
    """First `count` exponent tuples over the coefficient positions.

    Order: increasing total degree, then lexicographic. The position
    `skip` (the key parameter) always carries exponent zero.
    """
    slots = [q for q in range(width) if q != skip]
    out = []
    total = 0
    while len(out) < count:
        for combo in _compositions(total, len(slots)):
            e = [0] * width
            for q, c in zip(slots, combo):
                e[q] = c
            out.append(tuple(e))
            if len(out) == count:
                return out
        total += 1
    return out


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_pairs(state: MasterState, j: int) -> list:
    """The j-th finite slice: the j-th monomial against all earlier ones.

    Each pair is value-sorted, so the first coordinate is the one that
    must divide the second.
    """
    mons = _graded_monomials(state.frame.width, state.key_pos, j + 1)
    sj = mons[j]
    vj = state.frame.monomial_value(sj)
    pairs = []
    for m in mons:
        if compare(state.frame.monomial_value(m), vj) <= 0:
            pairs.append((m, sj))
        else:
            pairs.append((sj, m))
    return pairs


# -- macro-rounds ---------------------------------------------------------------


def _run_slice(state: MasterState) -> MasterState:
    driver = valuation_driver(state.spec)
    queue = list(enumerate_pairs(state, state.slice_index))
    st = state
    while queue:
        a, b = queue.pop(0)
        if not ev_leq(a, b):
            if steps_used(st) >= st.budget:
                raise _budget_error(st, f"slice {st.slice_index}")
            res = divide_monomials(st.frame, a, b, driver)
            st = _after_steps(st, res.frame)
            queue = [
                (transform_exponents(p, res.steps), transform_exponents(q, res.steps))
                for p, q in queue
            ]
            a, b = res.alpha, res.gamma
        assert ev_leq(a, b), "slice pair failed to divide"
        st = replace(st, processed_pairs=st.processed_pairs + ((a, b),))
    return st


def _key_exps_unit(state: MasterState):
    """Current monomial-times-unit split of the key image."""
    target = state.spec.value(state.key_poly)
    eps, unit, _ = _factor_as_unit(state.frame, state.spec, state.key_image, target)
    return eps, unit


def _run_key(state: MasterState) -> MasterState:
    if not state.keys_pending:
        return state
    if steps_used(state) >= state.budget:
        raise _budget_error(state, "key monomialization")
    link = state.keys_pending[0]
    st = state
    if link.certificate is not None and link.certificate.kind == "limit":
        res = monomialize_limit_successor(st.frame, st.spec, st.key_poly, link.key)
        st = _after_steps(st, res.frame)
        image = RationalFunction(res.monomial()) * res.unit
        pos = res.package.new_position
    else:
        exps, unit = _key_exps_unit(st)
        fr2, parts, _ = prepare_successor(
            st.frame, st.spec, link.key, st.key_poly, exps, unit
        )
        st = _after_steps(st, fr2)
        pkg = puiseux_package(st.frame, st.spec, parts=parts, position=st.key_pos)
        st = _after_steps(st, pkg.frame)
        image = RationalFunction(pkg.monomial()) * pkg.unit
        pos = pkg.new_position
    return replace(
        st,
        chain=st.chain + (link,),
        keys_pending=st.keys_pending[1:],
        key_poly=link.key,
        key_image=image,
        key_pos=pos,
    )


def _run_target(state: MasterState) -> MasterState:
    if not state.targets_pending:
        return state
    if steps_used(state) >= state.budget:
        raise _budget_error(state, "target monomialization")
    t = state.targets_pending[0]
    img = transport(state.frame, RationalFunction(t))
    if not img.den.is_single_term():
        raise CertificationError("target transported outside the parameter ring")
    try:
        cert = monomialize_nondegenerate(
            state.frame, state.spec, img.num, valuation_driver(state.spec)
        )
    except DegenerateInput:
        # not resolvable yet; later slices or keys must expose the monomial
        return state
    st = _after_steps(state, cert.frame)
    return replace(
        st,
        targets_pending=st.targets_pending[1:],
        target_log=st.target_log + ((cert.exponents, cert.unit, cert.value),),
    )


def advance(state: MasterState) -> MasterState:
    """One macro-round: a divisibility slice, one key, one target."""
    if steps_used(state) >= state.budget:
        raise _budget_error(state, "advance")
    st = _run_slice(state)
    st = _run_key(st)
    st = _run_target(st)
    return replace(st, slice_index=st.slice_index + 1)


# -- chain construction ----------------------------------------------------------


def _variable_weights(spec, width: int) -> list:
    """Values of the coefficient variables u_1, ..., u_width."""
    return [
        spec.value(UniPoly.constant(width, RationalFunction(MultiPoly.variable(width, i))))
        for i in range(width)
    ]


def _variable_lattice(spec, names) -> Lattice:
    return Lattice.from_variables(list(names[:-1]), _variable_weights(spec, len(names) - 1))


def _chain_for(spec, f: UniPoly, names, links=None) -> tuple:
    """Successor chain [u_n, Q_2, ...] whose last key dominates epsilon(f).

    ``links`` is a chain to extend; by default the chain starts at u_n.
    """
    chain = list(links) if links else [ChainLink(UniPoly.x(f.width), None)]
    target = epsilon(spec, f).epsilon
    if is_sentinel(target):
        return tuple(chain)
    lattice = _variable_lattice(spec, names)
    for i in range(1, len(chain)):
        prev = chain[i - 1].key
        lattice = lattice.extended(
            LatticeGenerator(f"Q{i}", spec.value(prev), kind="key", key=prev)
        )
    while True:
        cur = epsilon(spec, chain[-1].key).epsilon
        if not is_sentinel(cur) and compare(cur, target) >= 0:
            return tuple(chain)
        if len(chain) >= MAX_CHAIN:
            raise LimitSuccessorRequired(
                f"no key within {MAX_CHAIN} successors dominates the target invariant"
            )
        prev = chain[-1].key
        try:
            succ, cert = next_successor(spec, prev, lattice)
        except MaximalKey as exc:
            raise LimitSuccessorRequired(str(exc)) from exc
        lattice = lattice.extended(
            LatticeGenerator(f"Q{len(chain)}", spec.value(prev), kind="key", key=prev)
        )
        chain.append(ChainLink(succ, cert))


def _initial_frame(spec, names) -> Frame:
    width = len(names) - 1
    betas = _variable_weights(spec, width) + [spec.value(UniPoly.x(width))]
    return Frame.initial(list(names), betas)


def _default_names(width: int) -> list:
    return [f"u{i + 1}" for i in range(width - 1)] + ["z"]


# -- public entry points ----------------------------------------------------------


@dataclass(frozen=True)
class MonomializeOutcome:
    state: MasterState
    exponents: tuple
    unit: RationalFunction
    value: object

    @property
    def frame(self) -> Frame:
        return self.state.frame

    def monomial(self) -> MultiPoly:
        return MultiPoly.monomial(self.frame.width, self.exponents)


def _finalize(state: MasterState, f: UniPoly):
    """Monomialize one element in the current frame, advancing on demand."""
    poly = to_multipoly(f)
    while True:
        img = transport(state.frame, RationalFunction(poly))
        if not img.den.is_single_term():
            raise CertificationError("element transported outside the parameter ring")
        try:
            cert = monomialize_nondegenerate(
                state.frame, state.spec, img.num, valuation_driver(state.spec)
            )
            break
        except DegenerateInput:
            state = advance(state)
    state = _after_steps(state, cert.frame)
    expected = state.spec.value(f)
    if compare(cert.value, expected) != 0:
        raise CertificationError("certificate value differs from the valuation")
    return state, (cert.exponents, cert.unit, cert.value)


def monomialize(spec, f: UniPoly, budget: int, names=None, targets=()) -> MonomializeOutcome:
    """Certified monomial-times-unit form of f under the given valuation.

    Extends the key chain until its invariant dominates epsilon(f), runs
    macro-rounds until every chain key is a frame monomial, then factors
    the transported element. Raises LimitSuccessorRequired when the chain
    cannot be extended by a binomial successor.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot monomialize the zero polynomial")
    names = list(names) if names else _default_names(f.width + 1)
    if len(names) != f.width + 1:
        raise ParseError("name list does not match the polynomial arity")
    chain = _chain_for(spec, f, names)
    state = _fresh_state(spec, _initial_frame(spec, names), chain, budget, targets)
    while state.keys_pending or state.targets_pending:
        state = advance(state)
    state, (exps, unit, value) = _finalize(state, f)
    return MonomializeOutcome(state=state, exponents=exps, unit=unit, value=value)


@dataclass(frozen=True)
class UniformizeOutcome:
    state: MasterState
    order: tuple  # input indices, minimal-value element first
    entries: tuple  # per input index: (exponents, unit, value) in the final frame

    @property
    def frame(self) -> Frame:
        return self.state.frame


def embedded_uniformize(spec, fs, budget: int, names=None) -> UniformizeOutcome:
    """Shared-frame monomialization with the minimal element dividing all.

    The element of minimal value is processed first (ties: input order);
    afterwards its monomial is made to divide every other monomial by
    direct divisibility slices on the recorded exponents.
    """
    fs = list(fs)
    if not fs:
        raise ZeroPolynomial("empty input list")
    widths = {f.width for f in fs}
    if len(widths) != 1:
        raise ParseError("mixed arities in the input list")
    for f in fs:
        if f.is_zero():
            raise ZeroPolynomial("cannot monomialize the zero polynomial")
    names = list(names) if names else _default_names(fs[0].width + 1)

    values = [spec.value(f) for f in fs]
    first = 0
    for i in range(1, len(fs)):
        if compare(values[i], values[first]) < 0:
            first = i
    order = (first,) + tuple(i for i in range(len(fs)) if i != first)

    chain = _chain_for(spec, fs[first], names)
    state = _fresh_state(spec, _initial_frame(spec, names), chain, budget)
    entries = {}
    for idx in order:
        links = _chain_for(spec, fs[idx], names, state.chain + state.keys_pending)
        state = replace(state, keys_pending=links[len(state.chain):])
        while state.keys_pending or state.targets_pending:
            state = advance(state)
        state, entries[idx] = _finalize(state, fs[idx])

    # divisibility phase: the first element's monomial must divide the rest
    driver = valuation_driver(spec)
    for idx in order[1:]:
        e1 = _current_exps(state, fs[first], values[first])
        ej = _current_exps(state, fs[idx], values[idx])
        if ev_leq(e1, ej):
            continue
        if steps_used(state) >= state.budget:
            raise _budget_error(state, f"divisibility of element {idx}")
        res = divide_monomials(state.frame, e1, ej, driver)
        state = _after_steps(state, res.frame)
        state = replace(state, processed_pairs=state.processed_pairs + ((res.alpha, res.gamma),))

    final = {}
    for idx in order:
        T = transport(state.frame, RationalFunction(to_multipoly(fs[idx])))
        final[idx] = _factor_as_unit(state.frame, spec, T, values[idx])
    e1 = final[first][0]
    for idx in order[1:]:
        assert ev_leq(e1, final[idx][0]), "minimal element fails to divide"
    return UniformizeOutcome(
        state=state,
        order=order,
        entries=tuple(final[i] for i in range(len(fs))),
    )


def _current_exps(state: MasterState, f: UniPoly, value) -> tuple:
    T = transport(state.frame, RationalFunction(to_multipoly(f)))
    eps, _, _ = _factor_as_unit(state.frame, state.spec, T, value)
    return eps


# -- versioned state files ---------------------------------------------------------


def _poly_json(p: MultiPoly) -> dict:
    return {
        "width": p.width,
        "terms": [[list(e), str(c)] for e, c in sorted(p.terms.items())],
    }


def _poly_from(obj) -> MultiPoly:
    return MultiPoly(
        int(obj["width"]),
        {tuple(int(x) for x in e): Fraction(c) for e, c in obj["terms"]},
    )


def _rf_json(r: RationalFunction) -> dict:
    return {"num": _poly_json(r.num), "den": _poly_json(r.den)}


def _rf_from(obj) -> RationalFunction:
    return RationalFunction(_poly_from(obj["num"]), _poly_from(obj["den"]))


def _unipoly_json(p: UniPoly) -> dict:
    return {"width": p.width, "coeffs": [_rf_json(c) for c in p.coeffs]}


def _unipoly_from(obj) -> UniPoly:
    return UniPoly(int(obj["width"]), [_rf_from(c) for c in obj["coeffs"]])


def _cert_json(cert: SuccessorCertificate | None):
    if cert is None:
        return None
    return {
        "kind": cert.kind,
        "alpha": cert.alpha,
        "monomial": None if cert.monomial is None else _poly_json(cert.monomial),
        "key_powers": [[label, int(p)] for label, p in cert.key_powers],
        "residue": None if cert.residue is None else str(cert.residue),
        "base_value": format_element(cert.base_value),
    }


def _cert_from(obj, group):
    if obj is None:
        return None
    return SuccessorCertificate(
        kind=obj["kind"],
        alpha=int(obj["alpha"]),
        monomial=None if obj["monomial"] is None else _poly_from(obj["monomial"]),
        key_powers=tuple((label, int(p)) for label, p in obj["key_powers"]),
        residue=None if obj["residue"] is None else Fraction(obj["residue"]),
        base_value=parse_element(group, obj["base_value"]),
    )


def _link_json(link: ChainLink) -> dict:
    return {"key": _unipoly_json(link.key), "certificate": _cert_json(link.certificate)}


def _link_from(obj, group) -> ChainLink:
    return ChainLink(_unipoly_from(obj["key"]), _cert_from(obj["certificate"], group))


def state_to_json(state: MasterState) -> dict:
    from .trace import trace_records

    group = state.frame.betas[0].group
    names = list(state.frame.original_names)
    return {
        "version": STATE_VERSION,
        "problem": problem_to_json(group, names, state.spec),
        "budget": state.budget,
        "slice_index": state.slice_index,
        "trace": trace_records(state.frame),
        "chain": [_link_json(l) for l in state.chain],
        "keys_pending": [_link_json(l) for l in state.keys_pending],
        "targets_pending": [_poly_json(t) for t in state.targets_pending],
        "key_poly": _unipoly_json(state.key_poly),
        "key_image": _rf_json(state.key_image),
        "key_pos": state.key_pos,
        "processed_pairs": [[list(a), list(b)] for a, b in state.processed_pairs],
        "target_log": [
            {"exponents": list(e), "unit": _rf_json(u), "value": format_element(v)}
            for e, u, v in state.target_log
        ],
    }


def _frame_from_records(group, records) -> Frame:
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

        def provider(fr, q, j, _rec=rec, _res=residues, _na=names_after, _ba=beta_after):
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


def state_from_json(obj) -> MasterState:
    if obj.get("version") != STATE_VERSION:
        raise ParseError(f"unsupported state version {obj.get('version')!r}")
    group, _names, spec = load_problem(obj["problem"])
    frame = _frame_from_records(group, obj["trace"])
    return MasterState(
        spec=spec,
        frame=frame,
        budget=int(obj["budget"]),
        slice_index=int(obj["slice_index"]),
        chain=tuple(_link_from(l, group) for l in obj["chain"]),
        keys_pending=tuple(_link_from(l, group) for l in obj["keys_pending"]),
        targets_pending=tuple(_poly_from(t) for t in obj["targets_pending"]),
        key_poly=_unipoly_from(obj["key_poly"]),
        key_image=_rf_from(obj["key_image"]),
        key_pos=int(obj["key_pos"]),
        processed_pairs=tuple(
            (tuple(int(x) for x in a), tuple(int(x) for x in b))
            for a, b in obj["processed_pairs"]
        ),
        target_log=tuple(
            (
                tuple(int(x) for x in t["exponents"]),
                _rf_from(t["unit"]),
                parse_element(group, t["value"]),
            )
            for t in obj["target_log"]
        ),
    )


def save_state(state: MasterState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_state(path) -> MasterState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(json.load(fh))
