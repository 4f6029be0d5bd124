"""Span recorder wrapped around modulikit's public functions.

Tracing is installed from the benchmark's side: each traced function is
replaced, in every modulikit module that holds a reference to it, by a
wrapper that records a span ``(name, start, end, parent, op)``.  Modules
that bind a function with ``from .x import f`` look it up under their own
name, so patching only the defining module would miss those callers.

Spans stay in memory until the run ends.  ``aggregate`` turns them into
per-layer totals: busy time (union of a layer's outermost spans), self
time (span minus its direct children) and call counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (module, function, span name).  Several functions may share a span
# name; they then form one layer group (e.g. every ``*_from_json``).
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("jsonio", "loads_path", "jsonio.loads_path"),
    ("jsonio", "weight_data_from_json", "jsonio.decode"),
    ("jsonio", "matrix_from_json", "jsonio.decode"),
    ("jsonio", "connection_from_json", "jsonio.decode"),
    ("jsonio", "frame_tuple_from_json", "jsonio.decode"),
    ("jsonio", "rep_from_json", "jsonio.decode"),
    ("jsonio", "weight_data_to_json", "jsonio.encode"),
    ("jsonio", "matrix_to_json", "jsonio.encode"),
    ("jsonio", "connection_to_json", "jsonio.encode"),
    ("jsonio", "frame_tuple_to_json", "jsonio.encode"),
    ("jsonio", "rep_to_json", "jsonio.encode"),
    ("jsonio", "dumps", "jsonio.dumps"),
    ("connection", "validate_covariance", "connection.validate_covariance"),
    ("connection", "gauge", "connection.gauge"),
    ("connection", "involution", "connection.involution"),
    ("connection", "is_hermitian", "connection.is_hermitian"),
    ("weights", "phase_vector", "weights.phase_vector"),
    ("weights", "decompose", "weights.decompose"),
    ("weights", "commutant_contains", "weights.commutant_contains"),
    ("linalg", "invert", "linalg.invert"),
    ("quiver", "enumerate_cycles", "quiver.enumerate_cycles"),
    ("quiver", "cycle_trace", "quiver.cycle_trace"),
    ("jordan", "spectral", "jordan.spectral"),
    ("selftest", "run_properties", "selftest.run_properties"),
)

# Called thousands of times per op and asked for as a count only, so it
# gets a counter instead of a span to keep tracing overhead and memory low.
COUNTED = (("quiver", "canonical_rotation", "quiver.canonical_rotation.calls"),)

MODULES = ("cli", "jsonio", "connection", "weights", "linalg", "quiver", "jordan", "selftest")


class Recorder:
    """In-memory spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.op, name)] += value

    def _span(self, name, fn, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[(self.op, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under each name that refers to it."""
        import modulikit

        mods = [getattr(modulikit, m) for m in MODULES] + [modulikit]
        after = {
            "jsonio.loads_path": lambda args, _: self.count(
                "jsonio.bytes_in", os.path.getsize(args[0])
            ),
            "jsonio.dumps": lambda _, out: self.count("jsonio.bytes_out", len(out)),
            "quiver.enumerate_cycles": lambda _, out: self.count("quiver.cycle_words", len(out)),
        }
        plan = []
        for mod_name, fn_name, name in TRACED:
            fn = getattr(getattr(modulikit, mod_name), fn_name)
            plan.append((fn, self._span(name, fn, after.get(name))))
        for mod_name, fn_name, name in COUNTED:
            fn = getattr(getattr(modulikit, mod_name), fn_name)
            plan.append((fn, self._counter(name, fn)))
        for original, wrapper in plan:
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        selftest = modulikit.selftest
        self._undo.append((selftest, "PROPERTIES", selftest.PROPERTIES))
        selftest.PROPERTIES = tuple(
            (name, self._span(f"selftest.prop.{name}", fn, None))
            for name, fn in selftest.PROPERTIES
        )

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    # -- output --------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": [[op, name, v] for (op, name), v in self.counters.items()],
        }


def merge(dumps: list[tuple[int, dict]]) -> dict:
    """Concatenate span dumps of several processes, re-keyed by op id."""
    spans, counters = [], []
    for op, d in dumps:
        base = len(spans)
        spans.extend(
            (n, s, e, p + base if p >= 0 else -1, op) for n, s, e, p, _ in d["spans"]
        )
        counters.extend([op, name, v] for _, name, v in d["counters"])
    return {"spans": spans, "counters": counters}


def write_jsonl(path: str, d: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in d["spans"]:
            fh.write(json.dumps(span) + "\n")
        for counter in d["counters"]:
            fh.write(json.dumps(counter) + "\n")


def aggregate(d: dict) -> dict[int, dict[str, float]]:
    """Per-layer totals of each op in a dump, keyed by op id.

    ``<span>.busy_s`` counts only spans with no ancestor of the same name,
    so nested calls within one layer are not counted twice.
    ``<span>.self_s`` subtracts each span's direct children.
    ``<span>.calls`` counts every span.
    """
    spans = d["spans"]
    child_time = [0.0] * len(spans)
    for n, s, e, p, _ in spans:
        if p >= 0:
            child_time[p] += e - s
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (n, s, e, p, op) in enumerate(spans):
        dur = e - s
        row = out[op]
        row[f"{n}.calls"] += 1
        row[f"{n}.self_s"] += dur - child_time[i]
        anc = p
        while anc >= 0 and spans[anc][0] != n:
            anc = spans[anc][3]
        if anc < 0:
            row[f"{n}.busy_s"] += dur
    for op, name, v in d["counters"]:
        out[op][name] += v
    return {op: dict(row) for op, row in out.items()}


def main_traced_cli(argv: list[str]) -> int:
    """Run ``modulikit`` with tracing; ``argv[0]`` is the span dump path."""
    out_path, cli_argv = argv[0], argv[1:]
    import modulikit.cli

    rec = Recorder()
    rec.install()
    try:
        code = modulikit.cli.main(cli_argv)
    finally:
        rec.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main_traced_cli(sys.argv[1:]))
