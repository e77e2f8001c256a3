"""Source guards: every certification check in the package survives ``python -O``,
only ``ordered_value`` builds a scalar that skips canonicalisation, no module
writes into a polynomial's ``terms`` map (every fraction with denominator 1 shares
one polynomial 1 per width), equal-value residue data has one source besides
recorded traces: the valuation driver, every residue is read by
``valuation_core.residue_of_unit``, only rational functions are divided
with ``/`` (a quotient of int coefficients would be a float), scalar arithmetic
in ``ordered_value`` builds no ``Fraction``, frames are built only where their
values are proved positive, no module reads the environment (every setting
is an argument), one function opens files for writing, JSON is encoded
without ``indent`` (which bypasses the C encoder), ``LimitSuccessorRequired``
is raised only for a ``MaximalKey``, and the spec shapes are ``Monomial`` and
``Augmented`` alone, with the composite file form named only in ``serde``."""

import ast
from fractions import Fraction
from pathlib import Path

import valmono
from valmono import Composite, Monomial, MultiPoly, UniPoly, monomialize, standard_group


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


_TERMS_MUTATORS = ("update", "pop", "popitem", "setdefault", "clear")


def _is_terms(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _terms_writes(path: Path) -> list:
    """Every write into an ``X.terms`` mapping in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        kind = type(node).__name__
        for target in targets:
            if kind == "AugAssign" and _is_terms(target):
                found.append(f"{path.name}:{node.lineno}: {kind}")
            found += [
                f"{path.name}:{node.lineno}: {kind}"
                for sub in ast.walk(target)
                if isinstance(sub, ast.Subscript) and _is_terms(sub.value)
            ]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _TERMS_MUTATORS and _is_terms(node.func.value):
                found.append(f"{path.name}:{node.lineno}: {node.func.attr}")
    return sorted(found, key=lambda hit: int(hit.split(":")[1]))


def test_no_module_writes_into_polynomial_terms():
    sources = sorted(Path(valmono.__file__).parent.glob("*.py"))
    found = [hit for path in sources for hit in _terms_writes(path)]
    assert found == [], "polynomials are immutable values; build a new MultiPoly instead: " + ", ".join(found)


def test_the_terms_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(p, q, e):\n"
        "    p.terms[e] = 1\n"
        "    p.terms[e] += 1\n"
        "    del q.terms[e]\n"
        "    p.terms.update({})\n"
        "    p.terms.pop(e)\n"
        "    p.terms.popitem()\n"
        "    p.terms.setdefault(e, 1)\n"
        "    p.terms.clear()\n"
        "    a, q.terms[e] = 1, 2\n"
        "    p.terms |= {}\n"
        "    p.terms[e]: int = 1\n"
        "    return dict(p.terms), p.terms.get(e), p.terms[e]\n"
    )
    assert _terms_writes(sample) == [
        "sample.py:2: Assign",
        "sample.py:3: AugAssign",
        "sample.py:4: Delete",
        "sample.py:5: update",
        "sample.py:6: pop",
        "sample.py:7: popitem",
        "sample.py:8: setdefault",
        "sample.py:9: clear",
        "sample.py:10: Assign",
        "sample.py:11: AugAssign",
        "sample.py:12: AnnAssign",
    ]


def _c_step_builders(path: Path) -> list:
    """``module.function`` for every ``CStepData(...)`` call in one source file,
    named by the top-level definition that holds it."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if callee == "CStepData":
                    found.append(f"{path.stem}.{owner}")
    return found


def test_only_the_valuation_driver_builds_residue_data():
    sources = sorted(Path(valmono.__file__).parent.glob("*.py"))
    found = sorted(hit for path in sources for hit in _c_step_builders(path))
    assert found == ["puiseux.valuation_driver", "trace._recorded_c_data"], (
        "take equal-value residues from puiseux.valuation_driver: " + ", ".join(found)
    )


def test_the_residue_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "X = CStepData(1, 2)\n"
        "def f(c, v):\n"
        "    def g(fr):\n"
        "        return CStepData(c, v)\n"
        "    return g\n"
        "class K:\n"
        "    def m(self):\n"
        "        return blowup_engine.CStepData(1, 2)\n"
    )
    assert _c_step_builders(sample) == ["sample.<module>", "sample.f", "sample.K"]


def _divisions(path: Path) -> list:
    """``module.Qualified.owner:line`` for every ``/`` and ``/=`` in one source file,
    the owner being the innermost enclosing class or function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{path.stem}.{owner or '<module>'}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return sorted(found, key=lambda hit: int(hit.rsplit(":", 1)[1]))


# the functions that divide rational functions; a coefficient quotient is Fraction(a, b)
RATIONAL_FUNCTION_DIVISIONS = {
    "puiseux.monomialize_limit_successor",
}


def test_coefficients_are_never_divided_with_a_slash():
    sources = sorted(Path(valmono.__file__).parent.glob("*.py"))
    hits = [hit for path in sources for hit in _divisions(path)]
    assert {hit.rsplit(":", 1)[0] for hit in hits} >= RATIONAL_FUNCTION_DIVISIONS
    found = [hit for hit in hits if hit.rsplit(":", 1)[0] not in RATIONAL_FUNCTION_DIVISIONS]
    assert found == [], "int / int is a float; write a coefficient quotient as Fraction(a, b): " + ", ".join(found)


def test_the_division_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "HALF = 1 / 2\n"
        "def f(a, b):\n"
        "    a /= b\n"
        "    return a // b, '1/2', Fraction(a, b)\n"
        "class K:\n"
        "    def m(self, c):\n"
        "        def inner():\n"
        "            return [1 / c]\n"
        "        return -self.x / c\n"
    )
    assert _divisions(sample) == ["sample.<module>:1", "sample.f:3", "sample.K.m.inner:8", "sample.K.m:9"]


def _fraction_constructions(path: Path) -> list:
    """``module.Qualified.owner:line`` for every ``Fraction(...)`` call in one source file,
    the owner being the innermost enclosing class or function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Call):
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if callee == "Fraction":
                found.append(f"{path.stem}.{owner or '<module>'}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return sorted(found, key=lambda hit: int(hit.rsplit(":", 1)[1]))


# the pi enclosure's series and the normal-form view of a scalar's
# coefficients; scalar arithmetic, signs and the text parser run on int numerators
FRACTION_SITES = {
    "ordered_value._arctan_inv_bounds",
    "ordered_value.Scalar.coeffs",
}


def test_scalar_arithmetic_builds_no_fraction():
    hits = _fraction_constructions(Path(valmono.__file__).parent / "ordered_value.py")
    assert {hit.rsplit(":", 1)[0] for hit in hits} == FRACTION_SITES
    found = [hit for hit in hits if hit.rsplit(":", 1)[0] not in FRACTION_SITES]
    assert found == [], "keep scalars as int numerators over one denominator: " + ", ".join(found)


def test_the_fraction_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "HALF = Fraction(1, 2)\n"
        "def f(a):\n"
        "    return a * fractions.Fraction(3, 4)\n"
        "class S:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            return [Fraction(self.n, self.d)]\n"
        "        return Fraction\n"
    )
    assert _fraction_constructions(sample) == ["sample.<module>:1", "sample.f:3", "sample.S.m.inner:7"]


def _owned_calls(path: Path) -> list:
    """``(owner, call)`` for every call in one source file, in line order; the owner is the
    dotted name of the innermost enclosing class or function, or ``""`` at module level."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Call):
            found.append((owner, node))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return sorted(found, key=lambda hit: hit[1].lineno)


def _hit(path: Path, owner: str, node) -> str:
    return f"{path.stem}.{owner or '<module>'}:{node.lineno}"


def _callee(node) -> str | None:
    """The called name: ``f`` of ``f(...)`` and of ``module.f(...)``."""
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)


def _frame_builders(path: Path) -> list:
    """``module.Qualified.owner:line`` for every ``Frame(...)`` call in one source file,
    and every ``cls(...)`` call inside class ``Frame``."""
    found = []
    for owner, node in _owned_calls(path):
        callee = _callee(node)
        if callee == "Frame" or (callee == "cls" and owner.split(".")[0] == "Frame"):
            found.append(_hit(path, owner, node))
    return found


def test_frames_are_built_only_where_their_values_are_proved():
    # Frame.__init__ is a plain record: Frame.initial proves the outside values
    # positive and framed_blowup the values a step makes; nothing else builds one
    sources = sorted(Path(valmono.__file__).parent.glob("*.py"))
    found = sorted(hit.rsplit(":", 1)[0] for path in sources for hit in _frame_builders(path))
    assert found == ["blowup_engine.Frame.initial", "blowup_engine.framed_blowup"], (
        "build frames with Frame.initial or framed_blowup: " + ", ".join(found)
    )


def test_the_frame_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "F = Frame((), (), (), (), (), ())\n"
        "def f(fr):\n"
        "    return blowup_engine.Frame(*fr)\n"
        "class Frame:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n"
        "class Other:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(), Frame.initial((), ())\n"
    )
    assert _frame_builders(sample) == ["sample.<module>:1", "sample.f:3", "sample.Frame.make:7"]


def _monomial_specs(path: Path) -> list:
    """``module.Qualified.owner:line`` for every ``Monomial(...)`` call in one source file."""
    return [_hit(path, owner, node) for owner, node in _owned_calls(path) if _callee(node) == "Monomial"]


def test_frame_monomials_are_valued_without_a_monomial_spec():
    # a Monomial spec proves every weight positive again; a frame's values were
    # proved positive where they were made, so the modules that work in frames
    # value a monomial by least_value or monomial_value of the frame's betas
    package = Path(valmono.__file__).parent
    found = [hit for name in ("blowup_engine", "puiseux", "orchestrator")
             for hit in _monomial_specs(package / f"{name}.py")]
    assert found == [], "value frame monomials by least_value or monomial_value of the betas: " + ", ".join(found)


def test_the_monomial_spec_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "M = Monomial(G, ())\n"
        "def f(fr):\n"
        "    return valuation_core.Monomial(fr.betas[0].group, fr.betas)\n"
        "class K:\n"
        "    def m(self, fr):\n"
        "        return MultiPoly.monomial(1, (1,)), fr.monomial_value((1,)), Monomial, monomial(1)\n"
        "    def n(self):\n"
        "        return [Monomial(*w) for w in self.ws]\n"
    )
    assert _monomial_specs(sample) == ["sample.<module>:1", "sample.f:3", "sample.K.n:8"]


_ENVIRONMENT_READERS = ("environ", "environb", "getenv", "getenvb")


def _environment_reads(path: Path) -> list:
    """Every ``os.environ`` or ``os.getenv`` use, as attribute or import, in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_READERS:
            found.append((node.lineno, node.col_offset, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, 0, a.name) for a in node.names if a.name in _ENVIRONMENT_READERS]
    return [f"{path.name}:{line}: {name}" for line, _, name in sorted(found)]


def test_no_module_reads_the_environment():
    sources = sorted(Path(valmono.__file__).parent.glob("*.py"))
    found = [hit for path in sources for hit in _environment_reads(path)]
    assert found == [], "pass settings as arguments or CLI options, not environment variables: " + ", ".join(found)


def test_the_environment_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n"
        "from os import getenv, path\n"
        "def f():\n"
        "    return os.environ.get('A'), os.getenv('B')\n"
        "def g():\n"
        "    return os.environ['C'], os.path.exists('D')\n"
    )
    assert _environment_reads(sample) == [
        "sample.py:2: getenv",
        "sample.py:4: environ",
        "sample.py:4: getenv",
        "sample.py:6: environ",
    ]


# calls taking (file, mode, ...); any other ``X.open`` is read as ``Path.open(mode, ...)``
_PATH_FIRST_OPENERS = {("open", None), ("open", "io"), ("fdopen", "os"), ("fdopen", None)}


def _may_write(mode) -> bool:
    """A mode argument with w, a, x or +, or one that is not a string literal."""
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set("wax+") & set(mode.value))


def _file_writes(path: Path) -> list:
    """``module.Qualified.owner:line`` for every call in one source file that may open a
    file for writing: ``os.open``, an ``open``/``fdopen`` whose mode may write, and
    ``write_text``/``write_bytes``; the owner is the innermost enclosing class or function."""
    found = []
    for owner, node in _owned_calls(path):
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        base = getattr(func.value, "id", "") if isinstance(func, ast.Attribute) else None
        at = 1 if (callee, base) in _PATH_FIRST_OPENERS else 0
        mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
        if mode is None and len(node.args) > at:
            mode = node.args[at]
        if (callee in ("write_text", "write_bytes") or (callee, base) == ("open", "os")
                or callee in ("open", "fdopen") and _may_write(mode)):
            found.append(_hit(path, owner, node))
    return found


def test_only_the_file_writer_opens_files_for_writing():
    # serde._write_file overwrites in place and encodes before it touches the
    # file; a second writer would bring back truncate-to-zero or half-written files
    sources = sorted(Path(valmono.__file__).parent.glob("*.py"))
    found = sorted({hit.rsplit(":", 1)[0] for path in sources for hit in _file_writes(path)})
    assert found == ["serde._write_file"], "write files through serde._write_file: " + ", ".join(found)


def test_the_file_writer_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "W = open('log', 'a')\n"
        "def f(p, fd, m):\n"
        "    return open(p, 'w'), open(p, 'r+b', encoding=None), open(p, mode='x'), open(p, m)\n"
        "def g(p, fd):\n"
        "    return io.open(p, 'wb'), os.fdopen(fd, 'w'), os.open(p, os.O_RDONLY), p.open('w')\n"
        "def h(p):\n"
        "    p.write_text('t'), p.write_bytes(b''), p.open(mode='a')\n"
        "    return open(p), open(p, 'r'), open(p, 'rb'), p.open(), p.open('r'), io.open(p), os.fdopen(3)\n"
        "class K:\n"
        "    def m(self, p):\n"
        "        def inner():\n"
        "            return open(p, 'wt', encoding='utf-8')\n"
        "        return inner\n"
    )
    assert _file_writes(sample) == (
        ["sample.<module>:1"] + ["sample.f:3"] * 4 + ["sample.g:5"] * 4 + ["sample.h:7"] * 3 + ["sample.K.m.inner:12"]
    )


def _indented_encodings(path: Path) -> list:
    """``module.Qualified.owner:line`` for every ``json.dump``/``json.dumps`` call in one
    source file (or ``dump``/``dumps`` imported bare) that passes ``indent`` or ``**`` options."""
    found = []
    for owner, node in _owned_calls(path):
        func = node.func
        is_json = (isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json"
                   and func.attr in ("dump", "dumps")) or getattr(func, "id", None) in ("dump", "dumps")
        if is_json and any(k.arg in ("indent", None) for k in node.keywords):
            found.append(_hit(path, owner, node))
    return found


def test_json_is_encoded_without_indent():
    # any indent sends the standard library to its pure-Python encoder, about
    # three times slower than the C one on a state file
    sources = sorted(Path(valmono.__file__).parent.glob("*.py"))
    found = [hit for path in sources for hit in _indented_encodings(path)]
    assert found == [], "encode JSON compactly, without indent: " + ", ".join(found)


def test_the_indent_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "S = json.dumps({}, indent=1, sort_keys=True)\n"
        "def f(x, fh, opts):\n"
        "    json.dump(x, fh, **opts), dumps(x, indent=None), json.dumps(x, sort_keys=True)\n"
        "    return pickle.dump(x, fh), json.loads('{}'), json.dump(x, fh, separators=(',', ':'))\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        return dump(x, self.fh, indent='  ')\n"
    )
    assert _indented_encodings(sample) == ["sample.<module>:1", "sample.f:3", "sample.f:3", "sample.K.m:7"]


def _named(node) -> str | None:
    """The name a ``Name`` or ``Attribute`` node ends in."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _limit_raises_outside_maximal_key(path: Path) -> list:
    """``file:line`` of every ``raise LimitSuccessorRequired`` in one source file that is not
    inside the body of an ``except MaximalKey`` handler of its own function."""
    found = []

    def walk(node, guarded):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            guarded = False
        elif isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            guarded = guarded or "MaximalKey" in {_named(t) for t in types if t is not None}
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _named(exc) == "LimitSuccessorRequired" and not guarded:
                found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            walk(child, guarded)

    walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), False)
    return found


def test_a_limit_is_required_only_where_a_key_is_maximal():
    # a chain cap or any other stop that is not a limit would raise a false
    # LimitSuccessorRequired; the chain ends at the budget instead
    sources = sorted(Path(valmono.__file__).parent.glob("*.py"))
    found = [hit for path in sources for hit in _limit_raises_outside_maximal_key(path)]
    assert found == [], "raise LimitSuccessorRequired only for a MaximalKey: " + ", ".join(found)


def test_the_limit_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(n):\n"
        "    if n > 32:\n"
        "        raise LimitSuccessorRequired('cap')\n"
        "    try:\n"
        "        g()\n"
        "    except MaximalKey as exc:\n"
        "        raise LimitSuccessorRequired(str(exc)) from exc\n"
        "    except (ValueError, errors.MaximalKey):\n"
        "        raise errors.LimitSuccessorRequired\n"
        "    except ValueError:\n"
        "        raise LimitSuccessorRequired('other')\n"
        "    try:\n"
        "        g()\n"
        "    except MaximalKey:\n"
        "        def h():\n"
        "            raise LimitSuccessorRequired('later')\n"
        "    raise LimitSuccessorRequired\n"
    )
    assert _limit_raises_outside_maximal_key(sample) == ["sample.py:3", "sample.py:11", "sample.py:16", "sample.py:17"]


def _spec_classes(path: Path) -> list:
    """Classes in one source file that derive from ``_Spec``, directly or through another."""
    specs, found = {"_Spec"}, []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ClassDef):
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
            if bases & specs:
                specs.add(node.name)
                found.append(node.name)
    return found


def _string_constants(path: Path, text: str) -> list:
    """``file:line`` of every string constant equal to ``text`` in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value == text]


def test_the_spec_shapes_are_monomial_and_augmented():
    # a composite is the rank-raising augmentation: every tower walk follows one recursion
    package = Path(valmono.__file__).parent
    assert _spec_classes(package / "valuation_core.py") == ["Monomial", "Augmented"]
    found = [hit for path in sorted(package.glob("*.py")) if path.name != "serde.py"
             for hit in _string_constants(path, "composite")]
    assert found == [], "only the file form names a composite; test the spec's shape instead: " + ", ".join(found)


def test_the_spec_guards_see_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class A(_Spec):\n"
        "    kind = 'composite'\n"
        "class B(A, object):\n"
        "    pass\n"
        "class C(core._Spec):\n"
        "    pass\n"
        "class D:\n"
        "    'a composite'\n"
        "def f(kind):\n"
        "    return kind in ('composite', 'augmented')\n"
    )
    assert _spec_classes(sample) == ["A", "B", "C"]
    assert _string_constants(sample, "composite") == ["sample.py:2", "sample.py:10"]


_RESIDUE_RULE = ("residue_of_unit", "_residue_candidates", "_residue_search")


def _numeric_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _residue_sites(path: Path) -> list:
    """Where one source file defines, imports or fixes a residue: each definition
    of ``residue_of_unit`` or its searches, each import of one of them with the
    definition that holds it, and each number bound to a name or keyword
    ``residue``, with the exception handler around it."""
    found = []

    def visit(node, owner, handler):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
            if node.name in _RESIDUE_RULE:
                found.append(f"{path.stem}.{owner}: def")
        elif isinstance(node, ast.ExceptHandler):
            handler = ast.unparse(node.type) if node.type is not None else "everything"
        where = f"{path.stem}.{owner or '<module>'}"
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in (a.name.rsplit(".", 1)[-1] for a in node.names):
                if name in _RESIDUE_RULE or name.endswith("residue_of_unit"):
                    origin = "." * getattr(node, "level", 0) + (getattr(node, "module", None) or "")
                    found.append(f"{where}: import {name}" + (f" from {origin}" if origin else ""))
        bound = []
        if isinstance(node, ast.Assign):
            bound = [(t, node.value) for t in node.targets if isinstance(t, ast.Name) and t.id == "residue"]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and getattr(node.target, "id", None) == "residue":
            bound = [(node.target, node.value)]
        elif isinstance(node, ast.keyword) and node.arg == "residue":
            bound = [(node, node.value)]
        for _, value in bound:
            if value is not None and _numeric_literal(value):
                found.append(f"{where}: residue = {ast.unparse(value)}" + (f" in except {handler}" if handler else ""))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, handler)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "", None)
    return found


def _class_bindings(path: Path, name: str) -> list:
    """``Class:line`` for every class body in one source file that binds ``name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                    found.append(f"{node.name}:{stmt.lineno}")
    return found


def test_the_valuation_owns_the_residue_rule():
    # every residue is read by valuation_core's one search: an equal-value
    # step's through residue_of_unit, a successor q^alpha - c*f's from the pair
    # (q^alpha, f), and a key package takes that one; a successor keeps 1 only
    # where MacLane leaves the residue free, and a spec's shape is its class
    package = Path(valmono.__file__).parent
    found = sorted(hit for path in sorted(package.glob("*.py")) for hit in _residue_sites(path))
    assert found == [
        "puiseux.<module>: import residue_of_unit from .valuation_core",
        "successors.<module>: import _residue_search from .valuation_core",
        "successors.next_successor: residue = 1 in except TranscendentalResidue",
        "valuation_core._residue_candidates: def",
        "valuation_core._residue_search: def",
        "valuation_core.residue_of_unit: def",
    ], "read residues with valuation_core.residue_of_unit: " + ", ".join(found)
    assert _class_bindings(package / "valuation_core.py", "kind") == []


def test_the_residue_rule_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .valuation_core import residue_of_unit\n"
        "def residue_of_unit(spec, h):\n"
        "    def _residue_candidates():\n"
        "        from valmono.puiseux import residue_of_unit as r\n"
        "    residue = 1\n"
        "    try:\n"
        "        residue: int = -2\n"
        "    except (TranscendentalResidue, ValueError):\n"
        "        residue = 1.5\n"
        "    except Exception:\n"
        "        return Cert(residue=3, alpha=1), f(residue=c)\n"
        "    residue, other = 1, 2\n"
        "class Spec:\n"
        "    kind = 'monomial'\n"
        "    kind: str = 'augmented'\n"
        "    def m(self, kind='x'):\n"
        "        import valmono.valuation_core.residue_of_unit\n"
        "        self.kind = kind\n"
    )
    assert _residue_sites(sample) == [
        "sample.<module>: import residue_of_unit from .valuation_core",
        "sample.residue_of_unit: def",
        "sample.residue_of_unit._residue_candidates: def",
        "sample.residue_of_unit._residue_candidates: import residue_of_unit from valmono.puiseux",
        "sample.residue_of_unit: residue = 1",
        "sample.residue_of_unit: residue = -2",
        "sample.residue_of_unit: residue = 1.5 in except (TranscendentalResidue, ValueError)",
        "sample.residue_of_unit: residue = 3 in except Exception",
        "sample.Spec.m: import residue_of_unit",
    ]
    assert _class_bindings(sample, "kind") == ["Spec:14", "Spec:15"]


def test_the_shared_one_survives_the_readme_problem():
    G = standard_group()
    w = lambda a, b: G.element(G.scalar(value=Fraction(a), pi=Fraction(b)))  # noqa: E731
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    Q = UniPoly.x(2) ** 2 - x**2 * y
    nu3 = Composite(Q, Monomial(G, [w(1, 0), w(0, 2), w(1, 1)]))
    out = monomialize(nu3, Q, 10_000, names=["x", "y", "z"])
    assert out.exponents == (2, 2, 1)
    for width in (2, 3):
        assert MultiPoly.one(width) is MultiPoly.one(width)
        assert MultiPoly.one(width).terms == {(0,) * width: Fraction(1)}
