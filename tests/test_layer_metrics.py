"""The benchmark's per-layer metrics name callables its tracer wraps.

``perfbench/layers.py``'s ``Tracer.install`` names each wrapper after the
module and class that define the function. A function moved to another
module, or a method moved to a shared base class, leaves the metric under
its old name reading 0 on every workload. The names that resolve to
nothing today are pinned, so a move that silences another metric fails
here. The tracer is installed and removed again; nothing is run under it.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import valmono

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_layers", _PATH)
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)

# Every spec is valued through the shared valuation_core._Spec.value, Composite
# is a function, and residue_of_unit is defined in valuation_core: ROADMAP
# item 10 renames these metrics in the next change to the benchmark.
UNRESOLVED = {
    "valuation_core.Monomial.value",
    "valuation_core.Composite.value",
    "valuation_core.Augmented.value",
    "puiseux.residue_of_unit",
}


def _wrapper_names() -> set:
    """The name of every wrapper ``Tracer.install`` puts on valmono."""
    vm = SimpleNamespace(package=valmono, **{m: importlib.import_module(f"valmono.{m}") for m in layers.MODULES})
    tracer = layers.Tracer(vm)
    tracer.install()
    try:
        return set(tracer.stats)
    finally:
        tracer.uninstall()


def test_only_the_known_layer_metrics_name_nothing():
    wrapped = _wrapper_names()
    assert {"valuation_core._Spec.value", "valuation_core.residue_of_unit"} <= wrapped
    assert {name for name in layers.REPORTED if name not in wrapped} == UNRESOLVED

