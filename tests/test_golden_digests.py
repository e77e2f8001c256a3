"""The benchmark's anchor inputs still give the digests its contract records.

``perfbench/golden.py`` runs every workload's fixed anchor ops and hashes
their payloads and trace bytes; ``perfbench/contract.json`` stores the
expected digests under ``golden``. This test only reads both.
"""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_anchor_digests_match_the_contract():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from golden import anchor_digests

    contract = json.loads((PERFBENCH / "contract.json").read_text())
    assert anchor_digests() == contract["golden"]
