"""The benchmark's traced run wraps the functions named in
`perfbench/spans.py`'s LAYERS; a rename or deletion there would break traced
runs, which sit outside this suite.  This test fails first instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{layer}.{name}" for layer, names in spans.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"rml_lab.{layer}"), name, None))]
    assert missing == []
