"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed N --pairs K --seconds S [--claim METRIC]
    python3 tools/bench_pairs.py PARENT --aa --workload W --seed N --pairs K --seconds S

Each pair runs ``perfbench/run.py --workload W --seed N --seconds S`` once in
each checkout, the parent first in even pairs and the change first in odd
ones.  Before every run the checkout's ``__pycache__`` directories are
removed and the run gets ``PYTHONDONTWRITEBYTECODE=1``, so neither side
imports bytecode that an earlier run compiled (``setup_s`` and
``peak_rss_mb`` depend on it).  Only the directories under ``src/`` and
``perfbench/``, the code a run imports, are searched; apart from that
bytecode and the ``--aa`` copy below the tool removes or writes no file,
and the benchmark writes its outputs under ``.perfbench_out/``.

For each end-to-end metric it prints each side's median and quartiles,
how many pairs the change won, ties counting for neither side, and a
verdict against the metric's bound; whether lower or higher is better, and
the bound, come from this repository's ``BENCHMARK.json``. The verdict is
"unresolved" when the parent's IQR is wider than the bound times the
parent's median and not every change run beats every parent run; otherwise
"worse beyond bound" when the change's median is worse than the parent's by
more than the bound times the parent's median, and "within bound" when not.
With ``--claim METRIC`` it also says whether a gain on that metric holds
by the pair rule: at least ten pairs ran, the change wins at least nine
tenths of them, the medians differ, in the better direction, by more than
the distance between the parent's quartiles, and the change failed no
larger share of its operations than the parent.

With ``--aa`` there is no CHANGE: PARENT runs against a temporary copy of
its own ``src/`` and ``perfbench/`` at a second path, and the table, with
the copy as the change, shows how far two byte-identical checkouts differ
by their paths alone.  The copy is removed when the runs end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def bound_verdict(parent, change, better: str, bound: float) -> str:
    """One metric's runs on each side against its bound: "within bound", "worse beyond bound" or "unresolved"."""
    lo, median, hi = quartiles(parent)
    sign = -1 if better == "lower" else 1
    allowed = bound * abs(median)
    if hi - lo > allowed and min(sign * v for v in change) <= max(sign * v for v in parent):
        return "unresolved"
    if sign * (quartiles(change)[1] - median) < -allowed:
        return "worse beyond bound"
    return "within bound"


def summarize(parent_runs, change_runs, better: dict, failures: dict, claim=None, bounds=None) -> dict:
    """Compare paired runs: ``parent_runs[i]`` and ``change_runs[i]`` map metric name to value.

    ``better`` maps each metric to ``"lower"`` or ``"higher"``;
    ``failures`` maps ``"parent"`` and ``"change"`` to (failed ops,
    attempted ops) over all of that side's runs; ``bounds``, when given,
    maps each metric to its bound. Returns ``{"metrics": {name: {...}},
    "claim": {...} or None}``; each metric row holds both sides' quartiles,
    the change's wins, the ties, the pair count, the median gain, positive
    when the change is better, and with ``bounds`` the ``bound_verdict``.
    The claim lists the parts of the pair rule it does not meet; it holds
    when there are none.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same positive number of runs on each side")
    rows = {}
    for name, direction in better.items():
        sign = -1 if direction == "lower" else 1
        a = [run[name] for run in parent_runs]
        b = [run[name] for run in change_runs]
        diffs = [sign * (y - x) for x, y in zip(a, b)]
        rows[name] = row = {
            "parent": quartiles(a),
            "change": quartiles(b),
            "wins": sum(d > 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "pairs": len(diffs),
        }
        row["gain"] = sign * (row["change"][1] - row["parent"][1])
        if bounds is not None:
            row["verdict"] = bound_verdict(a, b, direction, bounds[name])
    verdict = None
    if claim is not None:
        row = rows[claim]
        spread = row["parent"][2] - row["parent"][0]
        (pf, pa), (cf, ca) = failures["parent"], failures["change"]
        unmet = [reason for reason, met in (
            (f"fewer than {MIN_PAIRS} pairs", row["pairs"] >= MIN_PAIRS),
            ("won under nine tenths of the pairs", row["wins"] * 10 >= 9 * row["pairs"]),
            ("median gain within the parent's IQR", row["gain"] > spread),
            ("larger share of failed ops", cf * pa <= pf * ca),
        ) if not met]
        verdict = {"metric": claim, "gain": row["gain"], "parent_iqr": spread, "unmet": unmet, "holds": not unmet}
    return {"metrics": rows, "claim": verdict}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``, started without compiled bytecode; its JSON result."""
    for root in ("src", "perfbench"):
        for cache in (checkout / root).rglob("__pycache__"):
            shutil.rmtree(cache, ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"no result from {checkout} (exit {proc.returncode}):\n{proc.stderr}") from None


@contextlib.contextmanager
def aa_copy(checkout: Path):
    """A copy of ``checkout``'s ``src/`` and ``perfbench/``, without bytecode, in a new temporary directory.

    Yields the copy's root; the directory is removed on exit, also when the
    runs raise.
    """
    copy = Path(tempfile.mkdtemp(prefix="bench-aa-"))
    try:
        for part in ("src", "perfbench"):
            shutil.copytree(checkout / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        yield copy
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def _format(name: str, row: dict) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    return (f"{name}: parent {side(row['parent'])}, change {side(row['change'])}; "
            f"change won {row['wins']} of {row['pairs']} pairs ({row['ties']} ties); {row['verdict']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, nargs="?", help="checkout of the change; omitted with --aa")
    ap.add_argument("--aa", action="store_true", help="run PARENT against a temporary copy of itself")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--claim", help="end-to-end metric whose gain is tested by the pair rule")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.aa == (args.change is not None):
        ap.error("give CHANGE or --aa, not both or neither")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    if args.claim is not None and args.claim not in better:
        ap.error(f"--claim must be one of {', '.join(better)}")

    if args.aa:
        with aa_copy(args.parent.resolve()) as copy:
            print(f"A/A: {args.parent.resolve()} against its copy at {copy}", flush=True)
            return _pairs(args, args.parent.resolve(), copy, better, bounds)
    return _pairs(args, args.parent.resolve(), args.change.resolve(), better, bounds)


def _pairs(args, parent: Path, change: Path, better: dict, bounds: dict) -> int:
    """Run the pairs, then print the summary table and the claim verdict."""
    sides = {"parent": parent, "change": change}
    runs = {"parent": [], "change": []}
    failures = {"parent": (0, 0), "change": (0, 0)}
    for i in range(args.pairs):
        for label in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = _run(sides[label], args.workload, args.seed, args.seconds)
            runs[label].append({name: m["value"] for name, m in result["metrics"].items()})
            failed, attempted = failures[label]
            failures[label] = (failed + result["failed"], attempted + result["attempted"])
            print(f"pair {i + 1} {label}: " + ", ".join(f"{k} {v:.4g}" for k, v in runs[label][-1].items()),
                  flush=True)
    summary = summarize(runs["parent"], runs["change"], better, failures, args.claim, bounds)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g}-s runs; failed of attempted "
          "ops: " + ", ".join(f"{label} {f} of {a}" for label, (f, a) in failures.items()))
    for name, row in summary["metrics"].items():
        print(_format(name, row))
    claim = summary["claim"]
    if claim is not None:
        verdict = "holds" if claim["holds"] else "does not hold: " + "; ".join(claim["unmet"])
        print(f"claim {claim['metric']}: median gain {claim['gain']:.4g} against parent IQR "
              f"{claim['parent_iqr']:.4g}: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
