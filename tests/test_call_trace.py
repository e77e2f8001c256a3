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
