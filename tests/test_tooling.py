"""The benchmark's layer tracer must keep resolving against the package."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for _, module, path, _ in tracing.TARGETS:
        # raises when the module, class or function is gone
        _, _, original = tracing._resolve(module, path)
        assert callable(original), f"critwave.{module}.{path}"
