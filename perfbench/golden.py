"""Record the golden digests of every workload's fixed anchor inputs.

    python3 perfbench/golden.py            # print them
    python3 perfbench/golden.py --write    # store them in perfbench/contract.json

Run only when a change to valmono's certificates or trace bytes is
intended; the benchmark fails any run whose anchor digests differ.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, valmono_namespace
from workloads import WORKLOADS


def anchor_digests() -> dict:
    vm = valmono_namespace()
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, build in WORKLOADS.items():
            wl = build(vm, 0, Path(tmp))
            out[name] = {op.id: op.check(op.run()) for op in wl.anchors}
    return out


if __name__ == "__main__":
    digests = anchor_digests()
    if "--write" in sys.argv[1:]:
        path = HERE / "contract.json"
        contract = json.loads(path.read_text())
        contract["golden"] = digests
        path.write_text(json.dumps(contract, indent=1) + "\n")
    print(json.dumps(digests, indent=1))
