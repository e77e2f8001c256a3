"""List the functions in ``src/`` that no run calls, or that only the tests call.

    python3 tools/call_trace.py [--runs tier1|workloads|all]

Runs tier-1 (``pytest`` over ``tests/`` and ``perfbench/``) and/or each
workload's ``perfbench/run.py`` (untraced, seed 1, 3 seconds) in this
process under ``sys.setprofile``, and records every Python function called.
Functions are keyed by (file, qualified name), so the re-imports of valmono
that the harness makes merge into one entry.  Code run in a subprocess is
not seen.  A full run takes about 90 seconds on a 2-vCPU host.

Prints one ``NEVER`` line per function defined in ``src/`` that no run
called and, when both tier-1 and the workloads ran, one ``TIER1-ONLY`` line
per function that tier-1 called and no workload did; each line gives the
function's line count, decorators included.  A summary line follows.
Standard output of the runs is discarded; their failures go to stderr.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("running", "tower", "queries")
SEED, SECONDS = 1, 3.0


def source_functions(src: Path) -> dict:
    """(file, qualified name) -> line count of every function defined in the ``.py`` files under ``src``."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        _collect(tree, os.path.realpath(path), "", out)
    return out


def _collect(node, file: str, prefix: str, out: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            out[(file, name)] = child.end_lineno - first + 1
            _collect(child, file, name + ".<locals>.", out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, file, prefix + child.name + ".", out)
        else:
            _collect(child, file, prefix, out)


@contextlib.contextmanager
def recording(seen: set):
    """Add the code object of every Python call made in the body, in any thread, to ``seen``.

    The profile function in place before is restored afterwards; it misses the body's calls."""

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])


def keys_of(codes) -> set:
    """The (file, qualified name) keys of code objects."""
    paths = {}
    keys = set()
    for code in codes:
        path = paths.get(code.co_filename)
        if path is None:
            path = paths[code.co_filename] = os.path.realpath(code.co_filename)
        keys.add((path, code.co_qualname))
    return keys


def trace_tier1() -> set:
    import pytest

    seen = set()
    with contextlib.redirect_stdout(io.StringIO()), recording(seen):
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              str(ROOT / "tests"), str(ROOT / "perfbench")])
    if status != 0:
        print(f"tier-1 exited {int(status)}", file=sys.stderr)
    return keys_of(seen)


def trace_workloads() -> set:
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    seen = set()
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(SEED), "--seconds", str(SECONDS)]
        with contextlib.redirect_stdout(io.StringIO()), recording(seen):
            status = run.main(argv)
        if status != 0:
            print(f"workload {name} exited {status}", file=sys.stderr)
    return keys_of(seen)


def report(functions: dict, tier1: set | None, workloads: set | None, src: Path = SRC) -> list:
    """The report lines, ``NEVER`` lines first; ``tier1`` and ``workloads`` are the keys each run saw,
    or None for a run not made."""
    runs = [s for s in (tier1, workloads) if s is not None]
    tagged = {"NEVER": [key for key in sorted(functions) if not any(key in s for s in runs)]}
    if tier1 is not None and workloads is not None:
        tagged["TIER1-ONLY"] = [key for key in sorted(functions) if key in tier1 and key not in workloads]
    base = os.path.realpath(src)
    lines = [f"{tag:<10} {functions[key]:>4}  {os.path.relpath(key[0], base)}:{key[1]}"
             for tag, keys in tagged.items() for key in keys]
    summary = f"{len(functions)} functions in src/, {sum(functions.values())} lines"
    for tag, keys in tagged.items():
        summary += f"; {tag} {len(keys)} ({sum(functions[key] for key in keys)} lines)"
    return lines + [summary]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", choices=("tier1", "workloads", "all"), default="all")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tier1 = trace_tier1() if args.runs in ("tier1", "all") else None
    workloads = trace_workloads() if args.runs in ("workloads", "all") else None
    for line in report(source_functions(SRC), tier1, workloads):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
