"""The benchmark tracer's boundaries must name functions that exist in adaptpw.

`perfbench/spans.py` wraps each boundary by module and attribute name when
a traced run starts; a renamed or deleted function would make that run fail.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for _, module, attr, _ in _boundaries()]
)
def test_boundary_resolves(module, attr):
    owner = importlib.import_module(f"adaptpw.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        target = vars(getattr(owner, cls_name))[method]
    else:
        target = getattr(owner, attr)
    assert inspect.isfunction(target)
