"""perfbench's tracer against the package: every target it wraps exists,
and restore() puts each original back."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    """perfbench/tracer.py as a module, without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_restore():
    tracer_module = load_tracer()
    targets = [(importlib.import_module(f"koopdmd.{mod}"), attr)
               for mod, attr, *_ in tracer_module.TARGETS]
    missing = [f"{module.__name__}.{attr}" for module, attr in targets
               if not hasattr(module, attr)]
    assert not missing, f"tracer targets that no longer resolve: {missing}"
    originals = [getattr(module, attr) for module, attr in targets]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert not tracer.restored()
    finally:
        tracer.restore()
    assert tracer.restored()
    assert all(getattr(module, attr) is fn for (module, attr), fn in zip(targets, originals))
