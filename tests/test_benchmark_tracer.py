"""The benchmark's tracer (`perfbench/spans.py`) wraps library functions by
name.  A name it lists that the library no longer has breaks only
`perfbench/run.py --trace 1`, so every listed name is checked here.  The
tracer is imported by path and never installed."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("layer", sorted(spans.LAYERS))
def test_every_traced_name_is_callable(layer):
    home, names = spans.LAYERS[layer]
    module = importlib.import_module(home)
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"{home} lacks {missing}"


def test_traced_modules_import():
    for name in spans.MODULES:
        importlib.import_module(name)
