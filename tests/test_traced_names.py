"""Every name the per-layer tracer in ``perfbench/layers.py`` wraps still
resolves in the package, looked up the way ``Tracer.install`` looks it up: a
function or a counted class as a module attribute, a method in its class's
own namespace (``cls.__dict__``), so an alias a refactor drops shows here and
not only in the slow perfbench smoke test."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_name_resolves():
    layers = _layers()
    unresolved = []
    for table in (layers.TRACED, layers.COUNTED):
        for mod, names in table.items():
            module = importlib.import_module(f"shadowlab.{mod}")
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    target = vars(getattr(module, cls_name, object)).get(meth)
                else:
                    target = getattr(module, name, None)
                if not callable(target):
                    unresolved.append(f"{mod}.{name}")
    assert layers.TRACED and unresolved == [], unresolved
