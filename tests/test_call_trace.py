"""``tools/call_trace.py``: the functions of a source tree, the calls a run records, and the report."""

import importlib.util
import os
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("call_trace", ROOT / "tools" / "call_trace.py")
call_trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(call_trace)

SOURCE = '''
def used():
    return 1


class K:
    @property
    def tested(self):
        return 2

    def never(self):
        def inner():
            return 3
        return inner
'''


def _tree(tmp_path):
    """A source tree of one module; (src, module file, module)."""
    path = tmp_path / "src" / "pkg" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent(SOURCE))
    spec = importlib.util.spec_from_file_location("pkg_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tmp_path / "src", os.path.realpath(path), module


def test_functions_are_keyed_as_the_calls_a_run_records(tmp_path):
    src, file, module = _tree(tmp_path)
    functions = call_trace.source_functions(src)
    assert functions == {(file, "used"): 2, (file, "K.tested"): 3, (file, "K.never"): 4,
                         (file, "K.never.<locals>.inner"): 2}
    seen = set()
    with call_trace.recording(seen):
        module.used()
        module.K().never()()
        module.K().tested
    assert call_trace.keys_of(seen) & set(functions) == set(functions)


def test_the_report_names_what_no_run_and_what_only_tier1_called(tmp_path):
    src, file, _ = _tree(tmp_path)
    functions = call_trace.source_functions(src)
    tier1, workloads = {(file, "used"), (file, "K.tested")}, {(file, "used")}
    assert call_trace.report(functions, tier1, workloads, src) == [
        "NEVER         4  pkg/mod.py:K.never",
        "NEVER         2  pkg/mod.py:K.never.<locals>.inner",
        "TIER1-ONLY    3  pkg/mod.py:K.tested",
        "4 functions in src/, 11 lines; NEVER 2 (6 lines); TIER1-ONLY 1 (3 lines)",
    ]
    # with one run only, nothing is tier-1 only
    assert call_trace.report(functions, tier1, None, src) == [
        "NEVER         4  pkg/mod.py:K.never",
        "NEVER         2  pkg/mod.py:K.never.<locals>.inner",
        "4 functions in src/, 11 lines; NEVER 2 (6 lines)",
    ]


LINES_SOURCE = '''
def run(flag):
    """A docstring is no statement."""
    total = 0
    for i in range(2):
        if flag:
            total += (
                i
            )
        else:
            total -= i
    try:
        raise ValueError
    except ValueError:
        pass
    except KeyError:
        total = None
    while True:
        break

    def inner():
        return 1
    return total


class K:
    x = 1

    def never(self):
        return 2
'''


def _lines_tree(tmp_path):
    """A source tree of one module for the line tracer; (src, module file, module)."""
    path = tmp_path / "src" / "pkg" / "lines.py"
    path.parent.mkdir(parents=True)
    path.write_text(LINES_SOURCE)
    spec = importlib.util.spec_from_file_location("pkg_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tmp_path / "src", os.path.realpath(path), module


def test_statements_are_those_of_function_bodies_with_the_lines_they_span(tmp_path):
    src, file, _ = _lines_tree(tmp_path)
    statements = call_trace.source_statements(src)
    firsts = sorted(line for _, line in statements)
    # no docstring, no module or class body statement; except clauses count
    assert firsts == [4, 5, 6, 7, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 22, 23, 30]
    assert statements[(file, 7)] == (range(7, 10), "total += (")
    assert statements[(file, 6)][0] == range(6, 12)
    assert statements[(file, 21)][1] == "def inner():"


def test_the_line_tracer_records_the_lines_of_the_tree_that_ran(tmp_path):
    src, file, module = _lines_tree(tmp_path)
    seen = set()
    with call_trace.recording_lines(seen, src):
        module.run(True)
    assert {f for f, _ in seen} == {file}  # this test's own lines are outside the tree
    statements = call_trace.source_statements(src)
    report = call_trace.line_report(statements, seen, None, src)
    assert report == [
        "NEVER      pkg/lines.py:11  total -= i",
        "NEVER      pkg/lines.py:16  except KeyError:",  # the first clause matched
        "NEVER      pkg/lines.py:17  total = None",
        "NEVER      pkg/lines.py:22  return 1",
        "NEVER      pkg/lines.py:30  return 2",
        "17 statements in src/; NEVER 5",
    ]
    workloads = set()
    with call_trace.recording_lines(workloads, src):
        module.run(False)
        module.K().never()
    report = call_trace.line_report(statements, seen, workloads, src)
    assert report == [
        "NEVER      pkg/lines.py:16  except KeyError:",
        "NEVER      pkg/lines.py:17  total = None",
        "NEVER      pkg/lines.py:22  return 1",
        "TIER1-ONLY pkg/lines.py:7  total += (",
        "17 statements in src/; NEVER 3; TIER1-ONLY 1",
    ]
