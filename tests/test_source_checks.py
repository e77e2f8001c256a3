"""Source guards: every certification check in the package survives ``python -O``,
and only ``ordered_value`` builds a scalar that skips canonicalisation."""

import ast
from pathlib import Path

import valmono


def _silent_checks(path: Path) -> list:
    """assert statements and ``raise AssertionError`` in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Assert):
            found.append(f"{path.name}:{node.lineno}: assert")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    return sorted(found, key=lambda hit: int(hit.split(":")[1]))


def test_no_check_vanishes_under_optimize():
    sources = sorted(Path(valmono.__file__).parent.glob("*.py"))
    assert sources
    found = [hit for path in sources for hit in _silent_checks(path)]
    assert found == [], "use CertificationError (or a narrower ValmonoError) instead: " + ", ".join(found)


def test_the_guard_sees_both_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(x):\n    assert x\n    raise AssertionError('no')\n")
    assert _silent_checks(sample) == ["sample.py:2: assert", "sample.py:3: raise AssertionError"]


def _trusted_scalar_uses(path: Path) -> list:
    """Every use of the trusted constructor ``Scalar._canonical`` in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "_canonical":
            found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.Constant) and node.value == "_canonical":
            found.append(f"{path.name}:{node.lineno}: string")
    return found


def test_only_ordered_value_skips_scalar_canonicalisation():
    sources = sorted(Path(valmono.__file__).parent.glob("*.py"))
    assert _trusted_scalar_uses(Path(valmono.__file__).parent / "ordered_value.py")
    found = [hit for path in sources if path.name != "ordered_value.py" for hit in _trusted_scalar_uses(path)]
    assert found == [], "build scalars with Scalar(...) or their arithmetic outside ordered_value: " + ", ".join(found)


def test_the_scalar_guard_sees_calls_and_lookups(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(g, s):\n    a = Scalar._canonical(g, ())\n    return getattr(s, '_canonical')\n")
    assert _trusted_scalar_uses(sample) == ["sample.py:2", "sample.py:3: string"]
