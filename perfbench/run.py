"""valmono benchmark: one seeded workload, closed loop, one op at a time.

    python3 perfbench/run.py --workload running|tower|queries --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --op ID     # re-run one op alone

Run from the repository root; valmono is imported from ``src/``.  Set-up
(fresh import of valmono, building the workload and its files, one untimed
warm-up op on a fixed anchor input) is repeated ``SETUP_REPS`` times and its
median reported as ``setup_s``.  The timed phase then repeats whole passes
over the workload's ops while the next pass is predicted to end within
``--seconds``; every output is checked, untimed.  Probes, inputs kept out
of the timed passes because they are slow or fail, run once afterwards.
With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics of the traced passes are printed instead.
Reported times are scaled to nominal host speed by ``HostSpeed``.

The last line of standard output is the JSON result; the lines before it
summarise outcomes.  Generated inputs go to
``.perfbench_out/<workload>-seed<seed>/inputs.json``, and the certified op
times of an untraced run, wall and scaled, to ``samples.json`` beside it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from common import OUTCOMES, CheckFailed, classify, op_cap, require  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Rejected  # noqa: E402

END_TO_END = (
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("certified_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_REPS = 9


def reference_kernel():
    """Fixed stdlib work, independent of valmono: a product of two
    dict-of-Fraction polynomials, the pattern of valmono's inner loops."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in a.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return out


class HostSpeed:
    """Tracks how fast the host runs right now, from the reference kernel.

    On a shared host the same op's wall time swings by 1.5-2x between
    periods and between CPUs, and a reference timed between ops swings
    with it.  Every op time is scaled by NOMINAL_S over the latest
    reference time, sampled at most SAMPLE_EVERY_S apart, untimed.  The
    kernel runs with the garbage collector off and frees all it allocates,
    so the size of valmono's heap and its collector settings do not reach
    the reference.
    """

    NOMINAL_S = 0.005
    SAMPLE_EVERY_S = 0.25

    def __init__(self):
        self.factor = 1.0
        self.last = float("-inf")
        self.samples = []

    def sample(self) -> float:
        times = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                t0 = time.perf_counter()
                reference_kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        ref = statistics.median(times)
        self.samples.append(ref)
        self.factor = self.NOMINAL_S / ref
        self.last = time.perf_counter()
        return self.factor

    def current(self) -> float:
        if time.perf_counter() - self.last >= self.SAMPLE_EVERY_S:
            self.sample()
        return self.factor


def valmono_namespace():
    """valmono's modules, imported from the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("valmono")
    if Path(package.__file__).resolve().parent != (SRC / "valmono").resolve():
        raise ImportError(f"valmono resolved to {package.__file__}, not the checkout's src/")
    mods = {m: importlib.import_module(f"valmono.{m}") for m in layers.MODULES + ("errors",)}
    return SimpleNamespace(package=package, **mods)


def import_valmono():
    """Import valmono afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "valmono" or m.startswith("valmono.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return valmono_namespace()


class Runner:
    """Executes ops, classifies outcomes and keeps the tallies."""

    def __init__(self, vm, contract: dict, workload: str, speed=None):
        self.vm = vm
        self.speed = speed or HostSpeed()
        self.cap_s = contract["workloads"][workload]["cap_s"]
        self.register = contract["known_failures"]
        self.golden = contract["golden"].get(workload, {})
        self.first_digest = {}  # op id -> digest of its first certified output
        self.status = {}  # op id -> "certified" while every execution certified, else the last failure
        self.counts = {k: 0 for k in OUTCOMES}
        self.known = 0
        self.unexpected = []
        self.tracer = None

    def execute(self, op):
        """Run one op under the cap, check it, record the outcome.

        Returns (outcome, wall seconds, seconds scaled to nominal host speed).
        """
        exc = None
        factor = self.speed.current()
        tracer = self.tracer
        t0 = time.perf_counter()
        try:
            with op_cap(self.cap_s):
                if tracer is not None:
                    tracer.op_id = op.id
                    tracer.enabled[0] = True
                try:
                    t0 = time.perf_counter()
                    result = op.run()
                finally:
                    seconds = time.perf_counter() - t0
                    if tracer is not None:
                        tracer.enabled[0] = False
        except KeyboardInterrupt:
            raise
        except BaseException as e:  # noqa: BLE001 - every failure is an outcome
            exc = e
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.reset_stack()
        if seconds > self.speed.SAMPLE_EVERY_S:  # the host may have changed speed during a long op
            factor = (factor + self.speed.sample()) / 2
        if exc is None:
            try:
                d = op.check(result)
                if op.id in self.golden:
                    require(d == self.golden[op.id], f"digest {d[:12]} differs from the golden digest")
                require(self.first_digest.setdefault(op.id, d) == d,
                        "output differs from the first execution of the same input")
            except Exception as e:  # noqa: BLE001 - a check that cannot run has failed
                exc = e if isinstance(e, CheckFailed) else CheckFailed(f"{type(e).__name__}: {e}")
        outcome = classify(exc, (self.vm.errors.ValmonoError, Rejected))
        self._record(op, outcome, exc)
        return outcome, seconds, seconds * factor

    def _record(self, op, outcome, exc):
        self.counts[outcome] += 1
        if outcome != "certified":
            self.status[op.id] = outcome
        else:
            self.status.setdefault(op.id, outcome)
            return
        entry = self.register.get(op.expect) if op.expect else None
        # a registered failure may also narrow to a documented rejection
        if entry and (outcome == "rejected" or (outcome, type(exc).__name__) == (entry["outcome"], entry["exception"])):
            self.known += 1
            return
        self.unexpected.append((op.id, outcome, f"{type(exc).__name__}: {exc}"[:300]))


def _percentile(samples, pct: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def timed_passes(runner, ops, seconds):
    """Whole passes while the next is predicted to fit; per pass, (outcome, wall, scaled) per op."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append([runner.execute(op) for op in ops])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def family_summary(ops, passes) -> str:
    """Median scaled op time per family, slowest first."""
    by_family = {}
    for times in passes:
        for op, (outcome, _, scaled) in zip(ops, times):
            if outcome == "certified":
                by_family.setdefault(op.family, []).append(scaled)
    rows = sorted(((statistics.median(v), k, len(v)) for k, v in by_family.items()), reverse=True)
    return ", ".join(f"{k} {m * 1000:.1f} ms (n={n})" for m, k, n in rows)


def run_untraced(runner, wl, seconds, tail_pct, out_dir):
    """The timed phase, then the probes; end-to-end metrics except setup_s."""
    passes = timed_passes(runner, wl.ops, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("median op time by family: " + family_summary(wl.ops, passes))
    certified = [(wall, scaled, op.id) for times in passes for op, (outcome, wall, scaled) in zip(wl.ops, times)
                 if outcome == "certified"]
    worst, _, worst_id = max(certified)
    print(f"slowest certified op: {worst_id} {worst:.3f} s wall (cap {runner.cap_s} s)")
    samples = [scaled for _, scaled, _ in certified]
    (out_dir / "samples.json").write_text(json.dumps({
        "op": [op_id for _, _, op_id in certified],
        "wall_ms": [wall * 1000 for wall, _, _ in certified],
        "scaled_ms": [scaled * 1000 for scaled in samples],
    }) + "\n")
    busy = sum(scaled for times in passes for _, _, scaled in times)
    factors = runner.speed.samples
    print(f"host speed: reference kernel {min(factors) * 1000:.2f}-{max(factors) * 1000:.2f} ms "
          f"(nominal {HostSpeed.NOMINAL_S * 1000:g} ms) over {len(factors)} samples; "
          f"unscaled op_ms_p50 {statistics.median(w for w, _, _ in certified) * 1000:.3f} ms")
    for op in wl.probes:
        outcome, wall, _ = runner.execute(op)
        print(f"probe {op.id}: {outcome} after {wall:.3f} s wall")
    distinct = [op.id for op in wl.ops + wl.probes]
    print(f"passes: {len(passes)} x {len(wl.ops)} ops, {len(samples)} certified samples, tail = p{tail_pct}")
    return {
        "op_ms_p50": statistics.median(samples) * 1000,
        "op_ms_tail": _percentile(samples, tail_pct) * 1000,
        "ops_per_s": len(samples) / busy,
        "certified_share": sum(runner.status[i] == "certified" for i in distinct) / len(distinct),
        "peak_rss_mb": rss_mb,
    }


def anchor_alloc_peak_kib(wl) -> float:
    """Largest tracemalloc peak over one untimed run of each anchor op, in KiB.

    The anchors' outputs are checked in every pass; here only their
    allocation is measured.
    """
    peak = 0
    tracemalloc.start()
    try:
        for op in wl.anchors:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            op.run()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak / 1024


def run_traced(runner, vm, wl, seconds):
    """Alternate untraced and traced passes; per-layer metrics of the traced ones.

    The tracing overhead is the median over pairs of traced over untraced
    scaled pass time, minus 1.  The untraced passes also give the wall and
    the scaled median op time side by side, with the reference kernel's time.
    """
    tracer = layers.Tracer(vm)
    ratios = []
    wall, scaled = [], []
    start = time.perf_counter()
    while True:
        plain = 0.0
        for op in wl.ops:
            outcome, w, s = runner.execute(op)
            plain += s
            if outcome == "certified":
                wall.append(w)
                scaled.append(s)
        tracer.install()
        runner.tracer = tracer
        try:
            traced = sum(runner.execute(op)[2] for op in wl.ops)
        finally:
            runner.tracer = None
            tracer.uninstall()
        ratios.append(traced / plain - 1.0)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(ratios) > seconds:
            break
    for op in wl.probes:
        runner.execute(op)
    metrics = tracer.metrics(len(ratios), statistics.median(ratios))
    for name, value in (
        ("untraced.op_ms_p50_wall", statistics.median(wall) * 1000),
        ("untraced.op_ms_p50_scaled", statistics.median(scaled) * 1000),
        ("host.reference_kernel_ms", statistics.median(runner.speed.samples) * 1000),
        ("anchor_alloc_peak_kib", anchor_alloc_peak_kib(wl)),
    ):
        metrics[name] = {"value": value, "unit": dict(layers.HARNESS_METRICS)[name]}
    return tracer, metrics, len(ratios)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--op", help="run only the op with this id, once, and report it")
    args = ap.parse_args(argv)

    if not (SRC / "valmono" / "__init__.py").is_file():
        print(f"error: no valmono sources under {SRC}", file=sys.stderr)
        return 2
    with open(HERE / "contract.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    work = out_dir / "work"
    work.mkdir(parents=True, exist_ok=True)

    speed = HostSpeed()
    setups = []
    try:
        for _ in range(SETUP_REPS):
            # scaled by the mean of the host speed just before and just after
            before = speed.sample()
            t0 = time.perf_counter()
            vm = import_valmono()
            wl = WORKLOADS[args.workload](vm, args.seed, work)
            warm_up = wl.anchors[0].run()
            seconds = time.perf_counter() - t0
            setups.append(seconds * (before + speed.sample()) / 2)
            wl.anchors[0].check(warm_up)
    except Exception as exc:  # noqa: BLE001 - no timed phase without a working warm-up op
        print(f"error: warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    runner = Runner(vm, contract, args.workload, speed)

    inputs = {
        "workload": args.workload,
        "seed": args.seed,
        "rerun": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} --op <id>",
        "ops": [{"id": op.id, "family": op.family, "expect": op.expect, "input": op.input} for op in wl.ops],
        "probes": [{"id": op.id, "family": op.family, "expect": op.expect, "input": op.input} for op in wl.probes],
    }
    (out_dir / "inputs.json").write_text(json.dumps(inputs, indent=1, sort_keys=True) + "\n")

    if args.op:
        match = [op for op in wl.ops + wl.probes if op.id == args.op]
        if not match:
            print(f"error: no op {args.op!r}; see {out_dir / 'inputs.json'}", file=sys.stderr)
            return 2
        outcome, dt, _ = runner.execute(match[0])
        print(json.dumps({"op": args.op, "outcome": outcome, "seconds": dt,
                          "digest": runner.first_digest.get(args.op), "unexpected": runner.unexpected}))
        return 0 if not runner.unexpected else 1

    if args.trace:
        tracer, metrics, pairs = run_traced(runner, vm, wl, args.seconds)
        tracer.write_spans(out_dir / "spans.jsonl")
        print(f"traced passes: {pairs} (each paired with an untraced pass)")
        print(f"tracing overhead: {metrics['tracing_overhead']['value']:+.3f} of untraced op time")
        print(f"spans: {len(tracer.spans)} kept, {tracer.spans_dropped} dropped -> {out_dir / 'spans.jsonl'}")
        shares = {m: metrics[f"{m}.self_s"]["value"] for m in layers.MODULES}
        total = sum(shares.values()) or 1.0
        print("self time by module: " + ", ".join(f"{m} {v / total:.1%}" for m, v in shares.items()))
    else:
        tail_pct = contract["workloads"][args.workload]["tail_percentile"]
        metrics = run_untraced(runner, wl, args.seconds, tail_pct, out_dir)
        metrics["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    attempted = sum(runner.counts.values())
    print("outcomes: " + ", ".join(f"{k} {v}" for k, v in runner.counts.items()))
    print(f"registered known failures seen: {runner.known}; unexpected: {len(runner.unexpected)}")
    for op_id, outcome, detail in runner.unexpected[:10]:
        print(f"  unexpected {op_id}: {outcome}: {detail}")
    print(f"inputs: {out_dir / 'inputs.json'}")
    print(json.dumps({
        "correct": not runner.unexpected,
        "attempted": attempted,
        "failed": len(runner.unexpected),
        "metrics": metrics,
    }))
    return 1 if runner.unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
