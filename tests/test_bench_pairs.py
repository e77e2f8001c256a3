"""The pair summary of ``tools/bench_pairs.py`` on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "op_ms_p50": "lower"}
NO_FAILURES = {"parent": (0, 100), "change": (0, 120)}


def _runs(ops, p50):
    return [{"ops_per_s": a, "op_ms_p50": b} for a, b in zip(ops, p50)]


def test_quartiles_are_inclusive_and_one_run_is_its_own_spread():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert bench_pairs.quartiles([10, 20, 30, 40]) == (17.5, 25, 32.5)
    assert bench_pairs.quartiles([7]) == (7, 7, 7)


def test_a_clear_gain_holds_and_directions_are_read_per_metric():
    parent = _runs([400, 410, 420, 430, 405, 415, 425, 412, 418, 408],
                   [2.3, 2.2, 2.4, 2.3, 2.2, 2.3, 2.4, 2.3, 2.2, 2.3])
    change = _runs([460, 470, 455, 465, 400, 475, 468, 462, 458, 466],
                   [1.9, 1.8, 2.0, 1.9, 2.5, 1.9, 1.8, 1.9, 2.0, 1.9])
    out = bench_pairs.summarize(parent, change, BETTER, NO_FAILURES, claim="ops_per_s")
    ops = out["metrics"]["ops_per_s"]
    assert (ops["wins"], ops["ties"], ops["pairs"]) == (9, 0, 10)
    assert ops["parent"] == (408.5, 413.5, 419.5)
    assert ops["change"][1] == 463.5
    assert out["metrics"]["op_ms_p50"]["wins"] == 9  # lower is better there
    claim = out["claim"]
    assert claim["gain"] == pytest.approx(50.0) and claim["parent_iqr"] == pytest.approx(11.0)
    assert claim["holds"] and claim["unmet"] == []
    # the same runs with a larger share of failed ops on the change's side
    failures = {"parent": (1, 100), "change": (2, 120)}
    claim = bench_pairs.summarize(parent, change, BETTER, failures, claim="ops_per_s")["claim"]
    assert claim["unmet"] == ["larger share of failed ops"] and not claim["holds"]
    # an equal share of failed ops is no larger
    failures = {"parent": (5, 100), "change": (6, 120)}
    assert bench_pairs.summarize(parent, change, BETTER, failures, claim="ops_per_s")["claim"]["holds"]


def test_a_claim_fails_on_too_few_pairs_or_wins_or_a_gain_inside_the_spread():
    parent = _runs([400, 410, 420, 430] * 3, [2.0] * 12)

    def unmet(change, claim="ops_per_s", runs=12):
        out = bench_pairs.summarize(parent[:runs], change[:runs], BETTER, NO_FAILURES, claim=claim)
        assert out["claim"]["holds"] == (not out["claim"]["unmet"])
        return out, out["claim"]["unmet"]

    # one pair, won, with no spread: too few pairs all the same
    out, reasons = unmet(_runs([500], [2.0]), runs=1)
    assert out["metrics"]["ops_per_s"]["wins"] == 1 and out["claim"]["parent_iqr"] == 0
    assert reasons == ["fewer than 10 pairs"]
    # nine pairs, each won clearly: still too few
    assert unmet(_runs([500] * 9, [2.0] * 9), runs=9)[1] == ["fewer than 10 pairs"]
    # ten of twelve pairs won: under nine tenths
    out, reasons = unmet(_runs([460, 470, 480, 420] * 2 + [460, 470, 480, 480], [2.0] * 12))
    assert out["metrics"]["ops_per_s"]["wins"] == 10 and reasons == ["won under nine tenths of the pairs"]
    # every pair won, but the median gain (5) is inside the parent's IQR (15)
    out, reasons = unmet(_runs([401, 411, 429, 431] * 3, [2.0] * 12))
    assert out["metrics"]["ops_per_s"]["wins"] == 12
    assert out["claim"]["gain"] == 5 and out["claim"]["parent_iqr"] == 15
    assert reasons == ["median gain within the parent's IQR"]
    # ties count for neither side, and a worse metric is no gain
    out, reasons = unmet(_runs([400, 410, 420, 430] * 3, [2.1] * 12), claim="op_ms_p50")
    assert out["metrics"]["ops_per_s"]["ties"] == 12 and out["metrics"]["ops_per_s"]["wins"] == 0
    assert out["metrics"]["op_ms_p50"]["wins"] == 0
    assert out["claim"]["gain"] == pytest.approx(-0.1)
    assert reasons == ["won under nine tenths of the pairs", "median gain within the parent's IQR"]
    assert bench_pairs.summarize(parent, parent, BETTER, NO_FAILURES)["claim"] is None


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize(_runs([1], [1]), [], BETTER, NO_FAILURES)
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], BETTER, NO_FAILURES)


def test_each_metric_gets_a_verdict_against_its_bound():
    verdict = bench_pairs.bound_verdict
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    # 20% worse in the median is inside a bound of 0.25, 30% worse is beyond it
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.25) == "within bound"
    assert verdict(parent, [v * 1.3 for v in parent], "lower", 0.25) == "worse beyond bound"
    # where higher is better, a fall is the worse direction and a rise is never beyond the bound
    assert verdict(parent, [v * 0.7 for v in parent], "higher", 0.25) == "worse beyond bound"
    assert verdict(parent, [v * 1.5 for v in parent], "higher", 0.25) == "within bound"
    # an equal ratio with no spread is within the tightest bound
    assert verdict([0.9655] * 10, [0.9655] * 10, "higher", 0.001) == "within bound"
    # the parent's IQR (0.4 over a median of 10) is wider than a bound of 0.01 ...
    assert verdict(parent, [v * 1.005 for v in parent], "lower", 0.01) == "unresolved"
    assert verdict(parent, [v * 1.5 for v in parent], "lower", 0.01) == "unresolved"
    # ... unless every change run beats every parent run
    assert verdict(parent, [9.6] * 10, "lower", 0.01) == "within bound"
    assert verdict(parent, [10.4] * 10, "higher", 0.01) == "within bound"
    assert verdict(parent, [9.6] * 9 + [9.7], "lower", 0.01) == "unresolved"
    # a parent median of 0 allows no change, and any spread leaves it unresolved
    assert verdict([0, 0, 0], [0, 0, 0], "lower", 0.25) == "within bound"
    assert verdict([0, 0, 0], [0, 1, 1], "lower", 0.25) == "worse beyond bound"
    assert verdict([0, 1, 0, 1], [0, 0, 0, 0], "lower", 0.25) == "unresolved"


def test_the_summary_carries_the_verdicts_when_bounds_are_given():
    parent = _runs([400, 410, 420, 430] * 3, [2.0, 2.1, 2.0, 2.1] * 3)
    change = _runs([300, 310, 320, 330] * 3, [2.05] * 12)
    rows = bench_pairs.summarize(parent, change, BETTER, NO_FAILURES, bounds={"ops_per_s": 0.1, "op_ms_p50": 0.25})
    assert rows["metrics"]["ops_per_s"]["verdict"] == "worse beyond bound"
    assert rows["metrics"]["op_ms_p50"]["verdict"] == "within bound"
    assert "verdict" not in bench_pairs.summarize(parent, change, BETTER, NO_FAILURES)["metrics"]["ops_per_s"]


def test_the_aa_copy_holds_src_and_perfbench_and_is_removed(tmp_path):
    checkout = tmp_path / "checkout"
    files = {
        "src/valmono/__init__.py": b"VERSION = 1\n",
        "src/valmono/kernel.py": b"def f():\n    return 2\n",
        "perfbench/run.py": b"print('run')\n",
        "perfbench/contract.json": b"{}\n",
    }
    for rel, data in files.items():
        (checkout / rel).parent.mkdir(parents=True, exist_ok=True)
        (checkout / rel).write_bytes(data)
    (checkout / "src/valmono/__pycache__").mkdir()
    (checkout / "src/valmono/__pycache__/kernel.cpython.pyc").write_bytes(b"stale")
    (checkout / "README.md").write_text("not run\n")
    with bench_pairs.aa_copy(checkout) as copy:
        assert copy.resolve() != checkout.resolve() and copy.is_dir()
        copied = sorted(str(f.relative_to(copy)) for f in copy.rglob("*") if f.is_file())
        assert copied == sorted(files)  # byte-identical sources; no bytecode and nothing else
        assert all((copy / rel).read_bytes() == data for rel, data in files.items())
    assert not copy.exists()
    # the copy is removed also when the runs raise
    with pytest.raises(RuntimeError):
        with bench_pairs.aa_copy(checkout) as copy:
            raise RuntimeError("a run failed")
    assert not copy.exists()
    assert (checkout / "src/valmono/__pycache__/kernel.cpython.pyc").exists()  # the checkout is left as it was


def test_aa_takes_no_change_checkout(capsys):
    for argv in (["P", "C", "--aa"], ["P"]):
        with pytest.raises(SystemExit):
            bench_pairs.main(argv + ["--workload", "queries", "--seed", "1"])
    assert "give CHANGE or --aa" in capsys.readouterr().err
