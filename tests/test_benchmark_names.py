"""The benchmark's span table names functions that exist.

``perfbench/spans.py`` wraps modulikit functions by module and name, and
``perfbench`` is not part of this suite, so a function renamed or deleted
here would silently drop out of traced benchmark runs.  The table is read
from that file without changing it.
"""

from __future__ import annotations

import importlib.util
import pathlib

import modulikit
import modulikit.cli

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = _spans()
    names = [(mod, fn) for mod, fn, _ in spans.TRACED + spans.COUNTED]
    missing = [
        f"{mod}.{fn}" for mod, fn in names if not callable(getattr(getattr(modulikit, mod, None), fn, None))
    ]
    assert missing == []
    assert set(spans.MODULES) >= {mod for mod, _ in names}
    assert all(callable(fn) for _, fn in modulikit.selftest.PROPERTIES)
