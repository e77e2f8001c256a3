"""Print the check digest of every op of benchmark workloads at given seeds.

    python3 tools/op_digests.py --workload running|tower|queries|all --seed N [--seed M ...]

For each workload (``all`` means every one) and each seed, builds the
workload with ``perfbench``'s own builders (read only), runs each op and each
probe once and checks its output with the op's own check.  Prints one sorted
JSON map from ``workload/seed/op`` to the digest, or to ``ERR <type>:
<message>`` when the run or the check raised.  Each op runs under the
workload's per-op cap from ``perfbench/contract.json``.  To show that a
change does the same work (same certificates, same trace bytes, same
failures), run the same command in both checkouts and compare the outputs:

    python3 tools/op_digests.py --workload all --seed 1 --seed 101 > a.json
    cmp a.json b.json
"""

from __future__ import annotations

import argparse
import json
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
    args = ap.parse_args(argv)
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {}
    for workload in workloads:
        for seed in args.seed:
            for op_id, digest in op_digests(workload, seed).items():
                out[f"{workload}/{seed}/{op_id}"] = digest
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
