"""Print the check digest of every op of benchmark workloads at given seeds.

    python3 tools/op_digests.py --workload running|tower|queries|all --seed N [--seed M ...] [--against CHECKOUT]

For each workload (``all`` means every one) and each seed, builds the
workload with ``perfbench``'s own builders (read only), runs each op and each
probe once and checks its output with the op's own check.  Prints one sorted
JSON map from ``workload/seed/op`` to the digest, or to ``ERR <type>:
<message>`` when the run or the check raised.  Each op runs under the
workload's per-op cap from ``perfbench/contract.json``.  To show that a
change does the same work (same certificates, same trace bytes, same
failures), compare it with the other checkout:

    python3 tools/op_digests.py --workload all --seed 1 --seed 101 --against PARENT

``--against CHECKOUT`` runs the same command with ``CHECKOUT``'s own
``tools/op_digests.py`` in that checkout, prints each key whose digest
differs, or that only one side has, with both digests, and exits 1 when any
does; otherwise it prints how many keys agree and exits 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from common import OverCap, op_cap  # noqa: E402
from run import valmono_namespace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def op_digests(workload: str, seed: int) -> dict:
    """Op id -> digest or ``ERR <type>: <message>`` for one pass plus probes."""
    contract = json.loads((ROOT / "perfbench" / "contract.json").read_text(encoding="utf-8"))
    cap_s = contract["workloads"][workload]["cap_s"]
    vm = valmono_namespace()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        wl = WORKLOADS[workload](vm, seed, Path(tmp))
        for op in wl.ops + wl.probes:
            try:
                with op_cap(cap_s):
                    result = op.run()
                out[op.id] = op.check(result)
            except (Exception, OverCap) as exc:  # noqa: BLE001 - every failure is part of the output
                out[op.id] = f"ERR {type(exc).__name__}: {exc}"
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True, action="append", help="repeat for several seeds")
    ap.add_argument("--against", type=Path, metavar="CHECKOUT", help="compare with the same command run there")
    args = ap.parse_args(argv)
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {}
    for workload in workloads:
        for seed in args.seed:
            for op_id, digest in op_digests(workload, seed).items():
                out[f"{workload}/{seed}/{op_id}"] = digest
    if args.against is None:
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0
    other = _digests_in(args.against.resolve(), args.workload, args.seed)
    differ = sorted(k for k in out.keys() | other.keys() if out.get(k) != other.get(k))
    for key in differ:
        print(f"{key}: here {out.get(key, '(missing)')}, there {other.get(key, '(missing)')}")
    if differ:
        return 1
    print(f"{len(out)} keys, every digest equal")
    return 0


def _digests_in(checkout: Path, workload: str, seeds) -> dict:
    """The digest map that ``checkout``'s own copy of this tool prints for the same workload and seeds."""
    cmd = [sys.executable, str(checkout / "tools" / "op_digests.py"), "--workload", workload]
    for seed in seeds:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"op_digests failed in {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


if __name__ == "__main__":
    sys.exit(main())
