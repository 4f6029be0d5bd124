"""The benchmark's span table names functions that exist.

``perfbench/spans.py`` wraps modulikit functions by module and name, and
``perfbench`` is not part of this suite, so a function renamed or deleted
here would silently drop out of traced benchmark runs.  The table is read
from that file without changing it, and so is the selftest row count that
``perfbench/oracle.py`` expects.
"""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np

import modulikit
import modulikit.cli
import modulikit.selftest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = _load("spans")
    names = [(mod, fn) for mod, fn, _ in spans.TRACED + spans.COUNTED]
    missing = [
        f"{mod}.{fn}" for mod, fn in names if not callable(getattr(getattr(modulikit, mod, None), fn, None))
    ]
    assert missing == []
    assert set(spans.MODULES) >= {mod for mod, _ in names}
    assert all(callable(fn) for _, fn in modulikit.selftest.PROPERTIES)


def test_selftest_keeps_the_shape_the_benchmark_wraps():
    # spans.py wraps each fn(rng, samples); oracle.py counts the rows
    props = modulikit.selftest.PROPERTIES
    assert len(props) == _load("oracle").SELFTEST_ROWS
    for name, fn in props:
        out = fn(np.random.default_rng(0), 1)
        assert [type(x) for x in out] == [float, float, int], name
