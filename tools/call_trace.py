"""List the functions, or the statements, in ``src/`` that no run reaches, or that only the tests reach.

    python3 tools/call_trace.py [--runs tier1|workloads|all] [--lines]

Runs tier-1 (``pytest`` over ``tests/`` and ``perfbench/``) and/or each
workload's ``perfbench/run.py`` (untraced, seed 1, 3 seconds) in this
process under ``sys.setprofile``, and records every Python function called.
Functions are keyed by (file, qualified name), so the re-imports of valmono
that the harness makes merge into one entry.  Code run in a subprocess is
not seen, in either mode.  A full run takes about 90 seconds on a 2-vCPU
host.

Prints one ``NEVER`` line per function defined in ``src/`` that no run
called and, when both tier-1 and the workloads ran, one ``TIER1-ONLY`` line
per function that tier-1 called and no workload did; each line gives the
function's line count, decorators included.  A summary line follows.
Standard output of the runs is discarded; their failures go to stderr.

With ``--lines`` the same runs go under a ``sys.settrace`` line tracer
instead, which records every line run in a file under ``src/``, and the
report has one ``NEVER`` or ``TIER1-ONLY`` line per statement: its file,
line and first source line, then the totals.  The statements are those of
function bodies, docstrings aside; module and class bodies run at import.
A statement ran when any line from its first (decorators included) to its
last did: no line of a compound statement's body runs unless its header
did.  Lines are traced only in frames of ``src/`` code; a full ``--lines``
run took about 55 seconds on the same host.
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


@contextlib.contextmanager
def recording_lines(seen: set, src: Path = SRC):
    """Add (file, line) for every line run in the body, in any thread, in a file under ``src`` to ``seen``.

    Files are keyed by their real path. The trace function in place before is restored afterwards."""
    base = os.path.join(os.path.realpath(src), "")
    paths = {}  # code file name -> its real path under src, or None

    def line(frame, event, arg):
        if event == "line":
            seen.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            real = os.path.realpath(name)
            paths[name] = real if real.startswith(base) else None
        return line if paths[name] else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(call)
    threading.settrace(call)
    try:
        yield
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])


def source_statements(src: Path) -> dict:
    """(file, line) -> (the lines it spans, its first source line) for every statement in a function body
    under ``src``, docstrings aside."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        file = os.path.realpath(path)
        for node in ast.walk(ast.parse(text, str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                body = body[1:]
            for stmt in _nested(body):
                first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
                out[(file, stmt.lineno)] = (range(first, stmt.end_lineno + 1), lines[stmt.lineno - 1].strip())
    return out


def _nested(body):
    """The statements of a block and of the blocks they hold, ``except`` clauses included,
    but not the bodies of nested functions and classes."""
    for stmt in body:
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "handlers", "orelse", "finalbody"):
                yield from _nested(getattr(stmt, field, ()))


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


def trace_tier1(record=recording) -> set:
    """What ``record`` saw over tier-1."""
    import pytest

    seen = set()
    with contextlib.redirect_stdout(io.StringIO()), record(seen):
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              str(ROOT / "tests"), str(ROOT / "perfbench")])
    if status != 0:
        print(f"tier-1 exited {int(status)}", file=sys.stderr)
    return seen


def trace_workloads(record=recording) -> set:
    """What ``record`` saw over each workload's run."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    seen = set()
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(SEED), "--seconds", str(SECONDS)]
        with contextlib.redirect_stdout(io.StringIO()), record(seen):
            status = run.main(argv)
        if status != 0:
            print(f"workload {name} exited {status}", file=sys.stderr)
    return seen


def _tagged(keys, tier1, workloads, ran) -> dict:
    """``NEVER``: the keys no run saw; ``TIER1-ONLY``, when both ran: those tier-1 saw and the workloads did not."""
    runs = [s for s in (tier1, workloads) if s is not None]
    tagged = {"NEVER": [key for key in keys if not any(ran(key, s) for s in runs)]}
    if tier1 is not None and workloads is not None:
        tagged["TIER1-ONLY"] = [key for key in keys if ran(key, tier1) and not ran(key, workloads)]
    return tagged


def report(functions: dict, tier1: set | None, workloads: set | None, src: Path = SRC) -> list:
    """The report lines, ``NEVER`` lines first; ``tier1`` and ``workloads`` are the keys each run saw,
    or None for a run not made."""
    tagged = _tagged(sorted(functions), tier1, workloads, lambda key, seen: key in seen)
    base = os.path.realpath(src)
    lines = [f"{tag:<10} {functions[key]:>4}  {os.path.relpath(key[0], base)}:{key[1]}"
             for tag, keys in tagged.items() for key in keys]
    summary = f"{len(functions)} functions in src/, {sum(functions.values())} lines"
    for tag, keys in tagged.items():
        summary += f"; {tag} {len(keys)} ({sum(functions[key] for key in keys)} lines)"
    return lines + [summary]


def line_report(statements: dict, tier1: set | None, workloads: set | None, src: Path = SRC) -> list:
    """The ``--lines`` report: ``report`` over statements, with the (file, line) pairs each run saw."""
    tagged = _tagged(sorted(statements), tier1, workloads,
                     lambda key, seen: any((key[0], n) in seen for n in statements[key][0]))
    base = os.path.realpath(src)
    lines = [f"{tag:<10} {os.path.relpath(key[0], base)}:{key[1]}  {statements[key][1]}"
             for tag, keys in tagged.items() for key in keys]
    summary = f"{len(statements)} statements in src/"
    for tag, keys in tagged.items():
        summary += f"; {tag} {len(keys)}"
    return lines + [summary]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", choices=("tier1", "workloads", "all"), default="all")
    ap.add_argument("--lines", action="store_true", help="report statements run, under a line tracer")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    record = recording_lines if args.lines else recording
    tier1 = trace_tier1(record) if args.runs in ("tier1", "all") else None
    workloads = trace_workloads(record) if args.runs in ("workloads", "all") else None
    if args.lines:
        out = line_report(source_statements(SRC), tier1, workloads)
    else:
        out = report(source_functions(SRC), *(None if s is None else keys_of(s) for s in (tier1, workloads)))
    for line in out:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
