"""The benchmark tracer's hooks name attributes that exist in the package.

``perfbench/spans.py`` wraps hspex functions by (module, attribute); a
refactor that drops or renames one of them would otherwise surface only in
a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.WRAPPED]


@pytest.mark.parametrize("module, attr", _wrapped())
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
