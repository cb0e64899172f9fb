"""Every span target of perfbench's tracer names an attribute that exists:
the tracer skips a missing one and drops its metrics without failing, so a
refactor that moves a name would silently empty a per-layer metric."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_resolves():
    targets = tracing_targets()
    missing = []
    for module_path, attr_path, *_ in targets:
        owner = importlib.import_module(module_path)
        *parents, attr = attr_path.split(".")
        try:
            for parent in parents:
                owner = getattr(owner, parent)
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{module_path}.{attr_path}")
    assert targets and missing == []
