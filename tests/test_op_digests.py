"""``tools/op_digests.py --against``: the digests of two checkouts compared key by key."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("op_digests", ROOT / "tools" / "op_digests.py")
op_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_digests)


def _checkout(tmp_path, changed=None, extra=None):
    """A checkout whose tool prints one digest per op "a" and "b" of the workload and seeds it is given."""
    tool = tmp_path / "tools" / "op_digests.py"
    tool.parent.mkdir(parents=True)
    tool.write_text(textwrap.dedent(f"""
        import argparse, json
        ap = argparse.ArgumentParser()
        ap.add_argument("--workload")
        ap.add_argument("--seed", action="append")
        args = ap.parse_args()
        out = {{f"{{args.workload}}/{{s}}/{{op}}": f"d-{{s}}-{{op}}" for s in args.seed for op in "ab"}}
        out.update({json.dumps(changed or {})})
        out.update({json.dumps(extra or {})})
        print(json.dumps(out))
    """))
    return tmp_path


def _fake_digests(workload, seed):
    return {op: f"d-{seed}-{op}" for op in "ab"}


def test_equal_digests_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(op_digests, "op_digests", _fake_digests)
    code = op_digests.main(["--workload", "tower", "--seed", "1", "--seed", "7", "--against", str(_checkout(tmp_path))])
    assert (code, capsys.readouterr().out) == (0, "4 keys, every digest equal\n")


def test_each_differing_or_missing_key_is_printed_and_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(op_digests, "op_digests", _fake_digests)
    there = _checkout(tmp_path, changed={"tower/7/b": "other"}, extra={"tower/7/c": "d-7-c"})
    code = op_digests.main(["--workload", "tower", "--seed", "1", "--seed", "7", "--against", str(there)])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "tower/7/b: here d-7-b, there other",
        "tower/7/c: here (missing), there d-7-c",
    ]


def test_a_checkout_compared_with_itself_agrees(capsys):
    assert op_digests.main(["--workload", "tower", "--seed", "1", "--against", str(ROOT)]) == 0
    assert capsys.readouterr().out.endswith(" keys, every digest equal\n")


def test_a_checkout_whose_tool_fails_stops_the_comparison(tmp_path, monkeypatch):
    monkeypatch.setattr(op_digests, "op_digests", _fake_digests)
    with pytest.raises(SystemExit, match=r"^op_digests failed in .* \(exit 2\)"):
        op_digests.main(["--workload", "tower", "--seed", "1", "--against", str(tmp_path)])
