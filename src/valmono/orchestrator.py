"""Master scheduling loop over key polynomials, with divisions on demand.

The interleaved sequence is realized as resumable rounds under an explicit
budget counted in blow-up steps. Each round, ``advance``, monomializes the
next pending key polynomial; the budget is checked before each round.
Divisions are made where a step asks for them, never blind: every chart
image (an element, a pending key) principalizes its least-value terms in
the one reduction loop, ``monomialize_nondegenerate``.
State files (version 3) store polynomials as the same text that problem files use.

One element loop serves both entry points: ``monomialize`` is its
one-element case, and ``embedded_uniformize`` runs it over a list, the
element of minimal value first, then makes that element's monomial divide
the others through the pair divider.

The state is a value: ``advance`` returns a new state and never mutates
its input, so callers may fork explorations by keeping old states. All
enumeration orders are fixed, making runs byte-for-byte reproducible.

``save_state`` encodes the whole state, then writes it through
``serde._write_file``, the package's one file writer, which overwrites an
existing file in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cmp_to_key

from . import trace
from .blowup_engine import (
    Frame,
    _factor_as_unit,
    check_frame_values,
    divide_monomials,
    monomialize_nondegenerate,
    transform_exponents,
    transport,
    verify_forward,
)
from .errors import (
    BudgetExceeded,
    CertificationError,
    LimitSuccessorRequired,
    MaximalKey,
    ParseError,
    ResidueUndefined,
    ZeroPolynomial,
)
from .exact_algebra import MultiPoly, RationalFunction, UniPoly, ev_leq, normal_rational, to_multipoly
from .ordered_value import compare, format_element, is_sentinel, parse_element
from .puiseux import valuation_driver
from .serde import (
    _write_file,
    format_multipoly,
    format_unipoly,
    load_problem,
    parse_polynomial,
    parse_unipoly,
    problem_to_json,
)
from .successors import Lattice, LatticeGenerator, SuccessorCertificate, check_limit_successor, next_successor
from .valuation_core import epsilon

STATE_VERSION = 3


@dataclass(frozen=True)
class ChainLink:
    """One certified key polynomial of the successor chain, with its value.

    The value is computed once, where the link is made, and every later
    step reads it from the link: the lattice generators, epsilon of the
    key, the next successor and the key's monomialization.
    """

    key: UniPoly
    certificate: SuccessorCertificate | None  # None for the base variable
    value: object  # the spec value of key


@dataclass(frozen=True)
class MasterState:
    spec: object
    frame: Frame
    budget: int
    chain: tuple  # ChainLink entries already monomialized
    keys_pending: tuple  # ChainLink entries waiting for their round


def steps_used(state: MasterState) -> int:
    return len(state.frame.history)


def _budget_error(state: MasterState, task: str) -> BudgetExceeded:
    exc = BudgetExceeded(
        f"budget of {state.budget} blow-up steps exhausted at {task}"
    )
    exc.state = state
    exc.task = task
    return exc


def _fresh_state(spec, frame: Frame, budget: int) -> MasterState:
    """The state before any round: the chain is the base link u_n, valued by
    the frame's initial weight, and no key is pending."""
    pos = frame.width - 1
    return MasterState(
        spec=spec,
        frame=frame,
        budget=int(budget),
        chain=(ChainLink(UniPoly.x(pos), None, frame.init_betas[pos]),),
        keys_pending=(),
    )


# -- rounds ---------------------------------------------------------------------


def _divide_pairs(state: MasterState, pairs) -> MasterState:
    """Blow up until a divides b for each queued (a, b, task), in queue order.

    ``embedded_uniformize``'s divisibility phase queues its pairs here. The
    steps of each division move the exponents still queued. A division that
    would start past the budget raises BudgetExceeded naming its task.
    """
    driver = valuation_driver(state.spec)
    queue = list(pairs)
    while queue:
        a, b, task = queue.pop(0)
        if not ev_leq(a, b):
            if steps_used(state) >= state.budget:
                raise _budget_error(state, task)
            res = divide_monomials(state.frame, a, b, driver)
            state = replace(state, frame=res.frame)
            queue = [
                (transform_exponents(p, res.steps), transform_exponents(q, res.steps), t)
                for p, q, t in queue
            ]
            a, b = res.alpha, res.gamma
        if not ev_leq(a, b):
            raise CertificationError(f"pair failed to divide at {task}")
    return state


def advance(state: MasterState) -> MasterState:
    """One round: the next pending key, transported into the frame, through the reduction loop.

    A key element is a chart element: the round hands the frame image of the
    link's key Q' to ``monomialize_nondegenerate`` at the link's value, with
    the link's driver for an optimal link (a terminal quotient exactly
    q^alpha/f takes the link's residue) and the valuation's for a limit link,
    then checks the forward images by substitution. The budget is checked
    before the round, so its steps may end past it; a stop in the loop raises
    BudgetExceeded at "advance" with this input state, never half a round.
    """
    if not state.keys_pending:
        return state
    if steps_used(state) >= state.budget:
        raise _budget_error(state, "advance")
    link, spec = state.keys_pending[0], state.spec
    if link.certificate.kind == "limit":
        driver = valuation_driver(spec)
    else:
        driver = valuation_driver(spec, (to_multipoly(state.chain[-1].key**link.certificate.alpha), link))
    image = transport(state.frame, RationalFunction(to_multipoly(link.key)))
    try:
        frame = monomialize_nondegenerate(state.frame, spec, image, link.value, driver, state.budget).frame
    except BudgetExceeded as exc:
        raise _budget_error(state, "advance") from exc
    if not verify_forward(frame):
        raise CertificationError("forward images fail the substitution check")
    return replace(state, frame=frame, chain=state.chain + (link,), keys_pending=state.keys_pending[1:])


# -- chain construction ----------------------------------------------------------


def _variable_lattice(spec, frame: Frame) -> Lattice:
    """The lattice of the coefficient variables, valued by the frame's starting values."""
    return Lattice.from_variables(list(frame.original_names[:-1]), list(frame.init_betas[:-1]), spec.rank)


def _key_generators(chain) -> list:
    """The keys a successor of the last link may take powers of: Q_i is link i - 1, the last link excluded."""
    return [LatticeGenerator(f"Q{i}", link.value, kind="key", key=link.key) for i, link in enumerate(chain[:-1], 1)]


def _rises(link: ChainLink) -> bool:
    """Whether the link's value rises above its certificate's base value alpha*v(q), as its round needs."""
    return compare(link.value, link.certificate.base_value) > 0


def _chain_for(state: MasterState, f: UniPoly, value) -> MasterState:
    """The state with links pending until the last key dominates epsilon(f); ``value`` is v(f).

    The chain is the state's, pending links included. The variable weights
    are the frame's starting values: the spec's, as ``_initial_frame`` takes
    them and ``check_frame_values`` checks a loaded frame's. Each new link is
    valued once, by its successor's residue check. A link whose value does
    not rise above alpha*v(q) raises ResidueUndefined; a maximal key raises
    LimitSuccessorRequired. The chain has no fixed length: every key round
    makes a step, so a link is made only while the pending
    links do not exceed the steps left, and past that BudgetExceeded at
    "chain" holds the state with them pending, for ``advance`` to resume.
    """
    spec, done = state.spec, len(state.chain)
    chain = list(state.chain + state.keys_pending)
    target = epsilon(spec, f, value).epsilon
    if is_sentinel(target):
        return state
    lattice = _variable_lattice(spec, state.frame)
    for gen in _key_generators(chain):
        lattice = lattice.extended(gen)
    while True:
        last = chain[-1]
        extended = replace(state, keys_pending=tuple(chain[done:]))
        cur = epsilon(spec, last.key, last.value).epsilon
        if not is_sentinel(cur) and compare(cur, target) >= 0:
            return extended
        if len(chain) - done > state.budget - steps_used(state):
            raise _budget_error(extended, "chain")
        try:
            link = ChainLink(*next_successor(spec, last.key, lattice, last.value))
        except MaximalKey as exc:
            raise LimitSuccessorRequired(str(exc)) from exc
        if not _rises(link):
            raise ResidueUndefined("the successor's value does not rise above its base value")
        chain.append(link)
        lattice = lattice.extended(_key_generators(chain)[-1])


def _initial_frame(spec, names) -> Frame:
    """The chart of the original variables, valued by the spec.

    Its values come from the spec, so the frame starts as checked under it.
    """
    width = len(names) - 1
    weights = [spec.value(UniPoly.constant(width, MultiPoly.variable(width, i))) for i in range(width)]
    frame = Frame.initial(list(names), weights + [spec.value(UniPoly.x(width))])
    frame.checked = (spec, 0)
    return frame


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


def _finalize(state: MasterState, f: UniPoly, expected):
    """Monomialize one element of value `expected` in the current frame, through the reduction loop.

    A stop at the budget raises BudgetExceeded at "finalize" with the frame the loop reached.
    """
    img = transport(state.frame, RationalFunction(to_multipoly(f)))
    if not img.den.is_single_term():
        raise CertificationError("element transported outside the parameter ring")
    # a single-term denominator is folded into the numerator, so img.num pulls back to f
    driver = valuation_driver(state.spec)
    try:
        cert = monomialize_nondegenerate(state.frame, state.spec, img.num, expected, driver, state.budget)
    except BudgetExceeded as exc:
        raise _budget_error(replace(state, frame=exc.frame), "finalize") from exc
    # _factor_as_unit proved cert.value equal to expected
    return replace(state, frame=cert.frame), (cert.exponents, cert.unit, cert.value)


def _monomialize_in_turn(spec, fs, budget: int, names):
    """Monomialize the elements one after another in one shared frame.

    The element of minimal value goes first (ties: input order), the rest
    follow in input order. Each extends the key chain until its invariant
    dominates epsilon of the element, runs macro-rounds until every chain
    key is a frame monomial, then factors the transported element.
    Returns (state, order, done): per input index, `done` holds the
    element's (exponents, unit, value) and the step count they were taken at.
    """
    fs = list(fs)
    if not fs:
        raise ZeroPolynomial("empty input list")
    width = fs[0].width
    if any(f.width != width for f in fs):
        raise ParseError("mixed arities in the input list")
    if width != spec.width - 1:
        raise ParseError(f"input arity {width + 1} does not match the valuation's {spec.width} variables")
    if budget < 0:
        raise ParseError(f"step budget {budget} is negative")
    if any(f.is_zero() for f in fs):
        raise ZeroPolynomial("cannot monomialize the zero polynomial")
    names = list(names) if names else _default_names(width + 1)
    if len(names) != width + 1:
        raise ParseError("name list does not match the polynomial arity")

    values = [spec.value(f) for f in fs]
    first = min(range(len(fs)), key=cmp_to_key(lambda i, j: compare(values[i], values[j])))
    order = (first,) + tuple(i for i in range(len(fs)) if i != first)

    state = _fresh_state(spec, _initial_frame(spec, names), budget)
    done = {}
    for idx in order:
        state = _chain_for(state, fs[idx], values[idx])
        while state.keys_pending:
            state = advance(state)
        state, entry = _finalize(state, fs[idx], values[idx])
        done[idx] = (entry, steps_used(state))
    return state, order, done


def monomialize(spec, f: UniPoly, budget: int, names=None) -> MonomializeOutcome:
    """Certified monomial-times-unit form of f under the given valuation.

    The one-element case of the loop that embedded_uniformize runs. Raises
    LimitSuccessorRequired when the chain cannot be extended by a binomial
    successor.
    """
    state, _, done = _monomialize_in_turn(spec, [f], budget, names)
    (exps, unit, value), _ = done[0]
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

    The elements are monomialized in turn, the element of minimal value
    first; afterwards its monomial is made to divide every other monomial
    by the pair divider on the recorded exponents.
    """
    fs = list(fs)
    state, order, done = _monomialize_in_turn(spec, fs, budget, names)

    # divisibility phase: the first element's monomial must divide the rest.
    # A blow-up maps monomial times unit to monomial' times unit' with the
    # exponents moved by transform_exponents, so no element is re-factored.
    history = state.frame.history
    exps = {idx: transform_exponents(e, history[start:]) for idx, ((e, _, _), start) in done.items()}
    tasks = [(exps[order[0]], exps[idx], f"divisibility of element {idx}") for idx in order[1:]]
    state = _divide_pairs(state, tasks)

    entries = []
    for idx, f in enumerate(fs):
        T = transport(state.frame, RationalFunction(to_multipoly(f)))
        entries.append(_factor_as_unit(state.frame, spec, T, done[idx][0][2]))
    e1 = entries[order[0]][0]
    for idx in order[1:]:
        if not ev_leq(e1, entries[idx][0]):
            raise CertificationError("minimal element fails to divide")
    return UniformizeOutcome(state=state, order=order, entries=tuple(entries))


# -- versioned state files ---------------------------------------------------------


def _cert_json(cert: SuccessorCertificate | None, names):
    if cert is None:
        return None
    return {
        "kind": cert.kind,
        "alpha": cert.alpha,
        "monomial": None if cert.monomial is None else format_multipoly(cert.monomial, names[:-1]),
        "key_powers": [[label, int(p)] for label, p in cert.key_powers],
        "residue": None if cert.residue is None else str(cert.residue),
        "base_value": format_element(cert.base_value),
    }


def _positive_int(value, what: str) -> int:
    if type(value) is not int or value < 1:
        raise ParseError(f"certificate {what} {value!r} must be an integer of at least 1")
    return value


def _cert_from(obj, group, names, prev_value):
    """The certificate ``obj`` holds; ``prev_value`` is the value of the previous chain key."""
    if obj["kind"] not in ("optimal", "limit"):
        raise ParseError(f"unknown certificate kind {obj['kind']!r}")
    alpha = _positive_int(obj["alpha"], "alpha")
    if obj["kind"] == "limit" and (alpha, obj["monomial"], obj["key_powers"], obj["residue"]) != (1, None, [], None):
        raise ParseError("a limit certificate has alpha 1 and no monomial, key powers or residue")
    base_value = parse_element(group, obj["base_value"])
    if base_value != prev_value * alpha:
        raise ParseError(f"certificate base value {obj['base_value']!r} is not {alpha} times the previous key's value")
    return SuccessorCertificate(
        kind=obj["kind"],
        alpha=alpha,
        monomial=None if obj["monomial"] is None else parse_polynomial(obj["monomial"], names[:-1]),
        key_powers=tuple((label, _positive_int(p, "key power")) for label, p in obj["key_powers"]),
        residue=None if obj["residue"] is None else normal_rational(Fraction(obj["residue"])),
        base_value=base_value,
    )


def _link_json(link: ChainLink, names) -> dict:
    return {
        "key": format_unipoly(link.key, names[:-1], names[-1]),
        "certificate": _cert_json(link.certificate, names),
    }


def _links_from(objs, group, spec, names) -> list:
    """Chain links in order, each key valued once; each link but the first has a certificate that fits both keys.

    A limit key must pass ``check_limit_successor`` against the previous key, as ``monomialize_limit_successor`` needs.
    Any other key is rebuilt from its certificate as ``_chain_for`` builds it: its witness takes powers of the
    keys ``_key_generators`` labels, has degree below the previous key's, and its value must rise."""
    links = []
    for obj in objs:
        raw = obj["certificate"]
        cert = None if raw is None and not links else _cert_from(raw, group, names, links[-1].value)
        key = parse_unipoly(obj["key"], names)
        if cert is not None and cert.kind == "limit":
            if not check_limit_successor(spec, links[-1].key, key)[0]:
                raise ParseError(f"chain key {obj['key']!r} is not a limit candidate of the previous key")
        elif cert is not None:
            prev, keys = links[-1].key, {g.label: g.key for g in _key_generators(links)}
            # degrees first, so that no power is expanded past the key's own size
            f_degree = sum(keys[label].degree * power for label, power in cert.key_powers)
            if prev.degree * cert.alpha != key.degree or f_degree >= prev.degree:
                raise ParseError(f"chain key {obj['key']!r} does not have its certificate's degrees")
            f = UniPoly.constant(key.width, cert.monomial)
            for label, power in cert.key_powers:
                f = f * keys[label] ** power
            if key != prev**cert.alpha - f.scale(cert.residue):
                raise ParseError(f"chain key {obj['key']!r} is not the successor its certificate builds")
        link = ChainLink(key, cert, spec.value(key))
        if cert is not None and cert.kind != "limit" and not _rises(link):
            raise ParseError(f"chain key {obj['key']!r} does not rise above its base value")
        links.append(link)
    return links


def state_to_json(state: MasterState, records=None) -> dict:
    """The JSON object of a state; ``records``, when given, must be ``trace.trace_records(state.frame)``."""
    group = state.frame.betas[0].group
    names = list(state.frame.original_names)
    return {
        "version": STATE_VERSION,
        "problem": problem_to_json(group, names, state.spec),
        "budget": state.budget,
        "trace": trace.trace_records(state.frame) if records is None else records,
        "chain": [_link_json(l, names) for l in state.chain],
        "keys_pending": [_link_json(l, names) for l in state.keys_pending],
    }


def state_from_json(obj) -> MasterState:
    """The state a ``state_to_json`` object holds; any malformed or tampered one raises ParseError."""
    try:
        if obj.get("version") != STATE_VERSION:
            raise ParseError(f"unsupported state version {obj.get('version')!r}")
        group, names, spec = load_problem(obj["problem"])
        frame = trace._frame_from_records(group, obj["trace"])
        check_frame_values(frame, spec)
        links = _links_from(obj["chain"] + obj["keys_pending"], group, spec, names)
        chain = tuple(links[:len(obj["chain"])])
        if not chain:
            raise ParseError("state chain is empty")
        budget = obj["budget"]
        if type(budget) is not int or budget < 0:
            raise ParseError(f"state budget {budget!r} is invalid")
        return MasterState(
            spec=spec,
            frame=frame,
            budget=budget,
            chain=chain,
            keys_pending=tuple(links[len(chain):]),
        )
    except ParseError:
        raise
    except trace._MALFORMED as exc:
        raise ParseError(f"malformed state: {type(exc).__name__}: {exc}") from exc


def save_state(state: MasterState, path, records=None) -> None:
    """Write a state file as one line of compact JSON with sorted keys, which the C encoder writes
    (``indent`` would not); ``records`` as for ``state_to_json``. A failed encoding leaves the old file."""
    _write_file(path, json.dumps(state_to_json(state, records), sort_keys=True) + "\n")


def load_state(path) -> MasterState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(json.load(fh))
