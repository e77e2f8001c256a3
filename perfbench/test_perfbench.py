"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They check the benchmark, not valmono: seeded inputs, outcome classes,
the independent point checker, and that BENCHMARK.json names exactly the
metrics the harness prints.
"""

import gc
import json
import random
import time
from fractions import Fraction

import pytest

import layers
import run
from common import CheckFailed, check_point_identity, points_for
from workloads import (
    WORKLOADS,
    Op,
    Rejected,
    build_tower,
    query_inputs,
    running_targets,
    tower_targets,
)

CONTRACT = json.loads((run.HERE / "contract.json").read_text())


@pytest.fixture(scope="module")
def vm():
    return run.valmono_namespace()


def _inputs_bytes(vm, workload, seed, workdir):
    wl = WORKLOADS[workload](vm, seed, workdir)
    return json.dumps([[op.id, op.family, op.expect, op.input] for op in wl.ops + wl.probes]).encode()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(vm, workload, tmp_path):
    assert _inputs_bytes(vm, workload, 7, tmp_path) == _inputs_bytes(vm, workload, 7, tmp_path)
    assert _inputs_bytes(vm, workload, 7, tmp_path) != _inputs_bytes(vm, workload, 8, tmp_path)


def _structure(poly: dict):
    return frozenset(poly)


def test_other_seed_changes_coefficients_not_structure():
    for targets in (running_targets, lambda s: [(i, f, None, [p], e) for i, f, p, e in tower_targets(s)]):
        a = {item[0]: item for item in targets(1)}
        b = {item[0]: item for item in targets(2)}
        assert a.keys() == b.keys()
        changed = 0
        for op_id, item in a.items():
            other = b[op_id]
            assert item[1:3] == other[1:3] and item[4] == other[4]
            assert [_structure(p) for p in item[3]] == [_structure(p) for p in other[3]]
            changed += item[3] != other[3]
        assert changed > len(a) // 2
    kinds = lambda s: sorted((i, k) for i, k, _ in query_inputs(s))  # noqa: E731
    assert kinds(1) == kinds(2)
    assert [d for _, _, d in query_inputs(1)] != [d for _, _, d in query_inputs(2)]


def _runner(vm, cap_s=5.0):
    contract = dict(CONTRACT, workloads={"t": {"cap_s": cap_s, "tail_percentile": 50}})
    contract["known_failures"] = {}
    return run.Runner(vm, contract, "t")


def _op(run_fn, check_fn=lambda result: "digest"):
    return Op("op", "test", {}, run_fn, check_fn)


def _raise(exc):
    def fn(*args):
        raise exc

    return fn


def test_each_outcome_class_comes_from_its_exception(vm):
    def spin():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass

    cases = [
        ("certified", _op(lambda: 1)),
        ("rejected", _op(_raise(vm.errors.ResidueUndefined("no residue")))),
        ("rejected", _op(_raise(Rejected("exit 3: not certified")))),
        ("crash", _op(_raise(ValueError("negative power")))),
        ("over_cap", _op(spin)),
        ("check_failed", _op(lambda: 1, _raise(CheckFailed("bad unit")))),
        ("check_failed", _op(lambda: 1, _raise(ZeroDivisionError("check could not run")))),
    ]
    for expected, op in cases:
        runner = _runner(vm, cap_s=0.2)
        assert runner.execute(op)[0] == expected
        assert runner.counts[expected] == 1
        assert bool(runner.unexpected) == (expected != "certified")


def test_changed_output_for_the_same_input_fails_its_check(vm):
    runner = _runner(vm)
    outputs = iter(["first", "second"])
    op = _op(lambda: 1, lambda result: next(outputs))
    assert runner.execute(op)[0] == "certified"
    assert runner.execute(op)[0] == "check_failed"


def test_registered_failure_is_known_not_unexpected(vm):
    runner = _runner(vm)
    runner.register = {"k": {"outcome": "crash", "exception": "ValueError"}}
    op = Op("op", "test", {}, _raise(ValueError("x")), None, expect="k")
    assert runner.execute(op)[0] == "crash"
    assert runner.known == 1 and not runner.unexpected
    op.run = _raise(vm.errors.CertificationError("unit value is not zero"))
    assert runner.execute(op)[0] == "rejected"
    assert runner.known == 2 and not runner.unexpected
    op.run = _raise(KeyError("x"))
    runner.execute(op)
    assert len(runner.unexpected) == 1


def test_point_checker_rejects_tampered_unit_and_exponent(vm, tmp_path):
    wl = build_tower(vm, 1, tmp_path)
    op = next(o for o in wl.anchors if o.id == "anchor-s2/K2+x4")
    out = op.run()
    op.check(out)
    records = vm.trace.trace_records(out.frame)
    f_terms = {(0, 2): Fraction(1), (3, 0): Fraction(-1), (4, 0): Fraction(1)}
    num, den = dict(out.unit.num.terms), dict(out.unit.den.terms)
    points = points_for(random.Random(3), ["x", "z"])
    check_point_identity(f_terms, out.exponents, num, den, records, points)

    tampered = dict(num)
    e0 = next(iter(tampered))
    tampered[e0] += 1
    with pytest.raises(CheckFailed):
        check_point_identity(f_terms, out.exponents, tampered, den, records, points)
    exps = list(out.exponents)
    exps[0] += 1
    with pytest.raises(CheckFailed):
        check_point_identity(f_terms, tuple(exps), num, den, records, points)


def test_reference_kernel_runs_without_the_collector_and_restores_it():
    seen = []
    kernel = run.reference_kernel

    def spy():
        seen.append(gc.isenabled())
        return kernel()

    run.reference_kernel = spy
    try:
        assert gc.isenabled()
        run.HostSpeed().sample()
        assert gc.isenabled()
        gc.disable()
        run.HostSpeed().sample()
        assert not gc.isenabled()
    finally:
        gc.enable()
        run.reference_kernel = kernel
    assert seen and not any(seen)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert set(CONTRACT["workloads"]) == set(WORKLOADS)
