"""Benchmark worker: runs the ops that run.py sends, one at a time.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It reads one JSON request per line on stdin and answers each
with a JSON header line (exit code, wall and CPU time, and the mean of
the calibration times right before and after the op) followed by the
op's raw stdout and stderr bytes, so timing covers only the op and never
the result check.

Usage: ``python worker.py inproc|subprocess``.  In ``inproc`` mode ops
call ``modulikit.cli.main`` or ``selftest.run_properties`` in this
process; in ``subprocess`` mode each op is a fresh ``python -m modulikit``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

import spans

HERE = os.path.dirname(os.path.abspath(__file__))

# Inputs of the calibration work, fixed so that its cost depends on the
# machine's speed alone.
_CAL_DATA = [{"k": i, "v": [i * 0.5, -i, str(i)]} for i in range(300)]
_CAL_RNG = np.random.default_rng(0)
_CAL_M = (_CAL_RNG.standard_normal((48, 48)) + 1j * _CAL_RNG.standard_normal((48, 48))
          + 10 * np.eye(48))
_CAL_SMALL = _CAL_M[:6, :6].copy()


def calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work modulikit does.

    An interpreter loop, a JSON round trip, many tiny numpy calls and a few
    48x48 LAPACK solves, about 2 ms each on a quiet host.  It never calls
    modulikit and runs with the garbage collector off, so its time moves
    with the speed of the machine only.  It runs right before and after
    every op to measure that speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(20000):
            acc[i % 97] = acc.get(i % 97, 0) + i
        for _ in range(3):
            json.loads(json.dumps(_CAL_DATA))
        x = _CAL_SMALL
        for _ in range(300):
            float(np.abs(x @ x - x.conj().T).max())
        for _ in range(10):
            np.linalg.solve(_CAL_M, _CAL_M @ _CAL_M)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class InProcess:
    def __init__(self) -> None:
        import modulikit.cli
        import modulikit.selftest

        self.cli = modulikit.cli
        self.selftest = modulikit.selftest
        self.recorder: spans.Recorder | None = None

    def trace(self, on: bool) -> None:
        if not on:
            self.recorder.uninstall()
            return
        if self.recorder is None:
            self.recorder = spans.Recorder()
        self.recorder.install()

    def run(self, op_id: int, op: dict):
        if self.recorder is not None:
            self.recorder.op = op_id
        out, err = io.StringIO(), io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        report = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if op["kind"] == "selftest":
                    report = self.selftest.run_properties(seed=op["seed"], samples=op["samples"])
                    code = 0
                else:
                    code = self.cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an escaped exception is a failed op, not a dead worker
                traceback.print_exc()
                code = -1
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if report is not None:
            out.write(json.dumps(report))
        return code, wall, cpu, out.getvalue(), err.getvalue()

    def finish(self) -> dict:
        dump = self.recorder.dump() if self.recorder else None
        return {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "dump": dump}


class Subprocess:
    def __init__(self) -> None:
        self.traced = False
        self.dumps: list[tuple[int, dict]] = []
        self.dump_path = os.path.join(os.environ["PERFBENCH_WORKDIR"], "op-spans.json")

    def trace(self, on: bool) -> None:
        self.traced = on

    def run(self, op_id: int, op: dict):
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "spans.py"), self.dump_path]
        else:
            cmd = [sys.executable, "-m", "modulikit"]
        cpu0 = children_cpu()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + op["argv"], capture_output=True, text=True)
        wall = time.perf_counter() - t0
        cpu = children_cpu() - cpu0
        if self.traced:
            with open(self.dump_path, encoding="utf-8") as fh:
                self.dumps.append((op_id, json.load(fh)))
        return proc.returncode, wall, cpu, proc.stdout, proc.stderr

    def finish(self) -> dict:
        dump = spans.merge(self.dumps) if self.dumps else None
        return {"peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, "dump": dump}


def send(stream, header: dict, *blobs: bytes) -> None:
    stream.write(json.dumps(header).encode() + b"\n")
    for blob in blobs:
        stream.write(blob)
    stream.flush()


def main(mode: str) -> int:
    proto = sys.stdout.buffer
    runner = InProcess() if mode == "inproc" else Subprocess()
    threads = thread_count()
    for line in sys.stdin:
        req = json.loads(line)
        if req["kind"] == "trace":
            runner.trace(req["on"])
            send(proto, {"ok": True})
        elif req["kind"] == "finish":
            result = runner.finish()
            dump = result.pop("dump")
            layers = None
            if dump is not None:
                spans.write_jsonl(req["spans_path"], dump)
                layers = spans.aggregate(dump)
            send(proto, {**result, "threads": threads, "layers": layers})
            return 0
        else:
            # Every op starts from a collected heap, as a one-shot CLI call
            # does, so that no op pays for garbage left by earlier ones.
            gc.collect()
            cal_before = calibrate()
            code, wall, cpu, out, err = runner.run(req["id"], req)
            cal = (cal_before + calibrate()) / 2
            threads = max(threads, thread_count())
            out_b, err_b = out.encode(), err.encode()
            send(proto, {"code": code, "wall": wall, "cpu": cpu, "cal": cal,
                         "out": len(out_b), "err": len(err_b)}, out_b, err_b)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
