"""modulikit benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Load is a closed loop with one client: the worker process runs an op, the
parent checks its result against the oracle, then sends the next op.  A
run is made of whole rounds of the workload's schedule, started while the
measured op time stays within ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
ops twice, untraced and then with spans around every public layer
function, and prints the per-layer metrics and the tracing overhead.
The last stdout line is the result object; the line before it holds the
details (environment, tail percentile, error rate, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread everywhere: the load is one closed-loop client, and
# idle OpenBLAS threads spin on a 2-CPU machine, inflating CPU time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Calibration seconds (``worker.calibrate``) on the reference host, the
# 2-vCPU Xeon of the README at its quiet speed.  That host's speed drifts
# by up to 2x over minutes, so every timing is scaled by CAL_REF_S over the
# mean of the calibration times measured right before and after it: the
# end-to-end timings read as seconds on the reference host.  Timings as
# measured are in the detail line.
CAL_REF_S = 0.0075
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
# Tail = highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PERFBENCH_WORKDIR"] = workdir
    return env


# --- set-up and import layers ---------------------------------------------


def fresh_import_seconds(env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import modulikit"], env=env, check=True)
    return time.perf_counter() - t0


def at_ref(seconds: float, cal: float) -> float:
    """``seconds`` measured next to a calibration time ``cal``, at reference speed."""
    return seconds * CAL_REF_S / cal


def measure_setup(env) -> dict:
    """Median wall time of a fresh interpreter running ``import modulikit``,
    at reference speed (``ref``) and as measured (``raw``)."""
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        cal_before = calibrate()
        t = fresh_import_seconds(env)
        raw.append(t)
        ref.append(at_ref(t, (cal_before + calibrate()) / 2))
    return {"ref": statistics.median(ref), "raw": statistics.median(raw)}


def importtime(env) -> dict:
    """Cumulative import seconds of modulikit, scipy.linalg and numpy."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import modulikit"],
                          env=env, check=True, capture_output=True, text=True)
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {
        "import.total_s": found["modulikit"],
        "import.scipy_linalg_s": found.get("scipy.linalg", 0.0),
        "import.numpy_s": found.get("numpy", 0.0),
    }


# --- worker client ----------------------------------------------------------


class Worker:
    def __init__(self, mode: str, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        self.next_id = 0

    def _request(self, req: dict) -> dict:
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, op: dict):
        self.next_id += 1
        head = self._request({**op, "id": self.next_id})
        out = self.proc.stdout.read(head["out"]).decode()
        err = self.proc.stdout.read(head["err"]).decode()
        return self.next_id, head, out, err

    def trace(self, on: bool) -> None:
        self._request({"kind": "trace", "on": on})

    def finish(self, spans_path: str) -> dict:
        return self._request({"kind": "finish", "spans_path": spans_path})

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


# --- the closed loop --------------------------------------------------------


class Loop:
    """Runs ops through the worker and checks each result once per distinct output."""

    def __init__(self, worker: Worker) -> None:
        self.worker = worker
        self.verdicts: dict[tuple, str | None] = {}

    def run(self, case) -> dict:
        op_id, head, out, err = self.worker.run(case.op)
        key = (case.name, head["code"], hashlib.sha1(out.encode()).digest(), err)
        if key not in self.verdicts:
            self.verdicts[key] = case.check(head["code"], out, err)
        return {"id": op_id, "case": case, "wall": head["wall"], "cpu": head["cpu"],
                "cal": head["cal"], "wall_ref": at_ref(head["wall"], head["cal"]),
                "cpu_ref": at_ref(head["cpu"], head["cal"]), "reason": self.verdicts[key]}

    def rounds(self, plan, rng, seconds: float, traced_replay: bool = False):
        """Whole rounds while the measured op time stays near ``seconds``.

        With ``traced_replay`` every round also runs with tracing on, right
        before or after its untraced run (alternating, so that warm caches
        favour neither side), and traced and untraced ops see the same
        machine state.  Returns the untraced and the traced op records.
        """
        ops, traced = [], []
        busy = 0.0
        done = 0
        while done == 0 or busy + busy / done / 2 < seconds:
            cases = plan.next_round(rng)
            if traced_replay and done % 2:
                traced += self.traced_pass(cases)
            for case in cases:
                rec = self.run(case)
                rec["round"] = done
                busy += rec["wall"]
                ops.append(rec)
            if traced_replay and not done % 2:
                traced += self.traced_pass(cases)
            done += 1
        return ops, traced

    def traced_pass(self, cases) -> list:
        self.worker.trace(True)
        try:
            return [self.run(case) for case in cases]
        finally:
            self.worker.trace(False)


def round_times(ops) -> list[float]:
    out: dict[int, float] = {}
    for op in ops:
        out[op["round"]] = out.get(op["round"], 0.0) + op["wall"]
    return [out[r] for r in sorted(out)]


def tail_percentile(n_planned: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples beyond it.

    Runs too short for that (under 20 ops) fall back to the median.
    """
    return max(50, math.floor(100 * (n_planned - TAIL_BEYOND) / n_planned))


def nearest_rank(sorted_vals, p: float) -> float:
    return sorted_vals[max(0, math.ceil(p / 100 * len(sorted_vals)) - 1)]


# --- environment --------------------------------------------------------------


def environment(threads: int, nproc: int, pinned: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "worker_threads": threads,
        "nproc": nproc,
        "pinned_cpu": pinned,
        "cpu": cpu,
        "commit": commit,
    }


# --- metrics --------------------------------------------------------------------


def timings(walls, cpus, p: int) -> dict:
    walls = sorted(walls)
    return {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": nearest_rank(walls, p),
        "ops_per_s": len(walls) / sum(walls),
        "cpu_s_per_op": sum(cpus) / len(cpus),
    }


def end_to_end(ops, n_planned, peak_rss_kb, setup) -> tuple[dict, dict]:
    p = tail_percentile(n_planned)
    passed = sum(op["reason"] is None for op in ops)
    values = {
        "setup_s": setup["ref"],
        **timings([op["wall_ref"] for op in ops], [op["cpu_ref"] for op in ops], p),
        "oracle_pass_rate": passed / len(ops),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    detail = {
        "ops": len(ops),
        "tail_percentile": p,
        "tail_samples_beyond": sum(op["wall_ref"] > values["op_tail_s"] for op in ops),
        "error_rate": 1.0 - values["oracle_pass_rate"],
        "round_s": round_times(ops),
        "measured": {"setup_s": setup["raw"],
                     **timings([op["wall"] for op in ops], [op["cpu"] for op in ops], p)},
    }
    return values, detail


def per_layer(layers: dict, traced_ops, imports: dict, overhead_pct: float) -> tuple[dict, dict]:
    n = len(traced_ops)
    totals: dict[str, float] = {}
    by_case: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for op in traced_ops:
        row = layers.get(str(op["id"]), {})
        case = by_case.setdefault(op["case"].name, {})
        counts[op["case"].name] = counts.get(op["case"].name, 0) + 1
        for k, v in row.items():
            totals[k] = totals.get(k, 0.0) + v
            case[k] = case.get(k, 0.0) + v
    values = {}
    for name in metric_units("per_layer"):
        if name in imports:
            values[name] = imports[name]
        elif name == "quiver.words_per_rotation":
            rot = totals.get("quiver.canonical_rotation.calls", 0.0)
            values[name] = totals.get("quiver.cycle_words", 0.0) / rot if rot else 0.0
        elif name == "trace.overhead_pct":
            values[name] = overhead_pct
        else:
            values[name] = totals.get(name, 0.0) / n
    detail = {
        "traced_ops": n,
        "layers_by_case": {
            c: {k: v / counts[c] for k, v in sorted(r.items())} for c, r in sorted(by_case.items())
        },
        "words_per_rotation_by_case": {
            c: f"{r['quiver.cycle_words'] / counts[c]:g}/"
               f"{r['quiver.canonical_rotation.calls'] / counts[c]:g}"
            for c, r in by_case.items() if r.get("quiver.canonical_rotation.calls")
        },
    }
    return values, detail


# --- entry point --------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def benchmark(args) -> tuple[dict, dict]:
    """Run one workload; return the result object and the detail object."""
    wl = WORKLOADS[args.workload]
    # The whole closed loop runs on one CPU, inherited by every process it
    # starts: each calibration then runs on the CPU its op runs on (the two
    # vCPUs of a shared host slow down at different moments), and the load
    # stays within nproc.
    nproc = len(os.sched_getaffinity(0))
    pinned = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    env = child_env(workdir)
    worker = None
    phase_s = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phase_s[name] = now - mark
        mark = now

    try:
        if args.trace:
            runs = [importtime(env) for _ in range(IMPORTTIME_REPEATS)]
            imports = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
            setup = None
        else:
            setup = measure_setup(env)
        phase("setup")
        rng = np.random.default_rng(args.seed)
        plan = wl.build(rng, workdir)
        phase("build")
        round_rng = np.random.default_rng([args.seed, 1])
        worker = Worker(wl.mode, env)
        loop = Loop(worker)
        for case in plan.warmup:
            loop.run(case)
        phase("worker_start")
        seconds = args.seconds / 2 if args.trace else args.seconds
        ops, traced = loop.rounds(plan, round_rng, seconds, traced_replay=bool(args.trace))
        round_cases = plan.next_round(np.random.default_rng(0))
        planned_rounds = max(1, round(seconds / wl.nominal_round_s))
        phase("loop")
        spans_path = os.path.join(WORK, f"spans-{wl.name}.jsonl")
        fin = worker.finish(spans_path)
        phase("finish")
        all_ops = ops + traced
        failed = [op for op in all_ops if op["reason"] is not None]
        known = [op for op in failed if op["reason"] == op["case"].known_failure]
        detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                  "env": environment(fin["threads"], nproc, pinned), "phase_s": phase_s}
        if args.trace:
            overhead = 100.0 * (sum(o["wall_ref"] for o in traced)
                                / sum(o["wall_ref"] for o in ops) - 1.0)
            metrics, more = per_layer(fin["layers"], traced, imports, overhead)
            units = metric_units("per_layer")
            more["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            metrics, more = end_to_end(ops, planned_rounds * len(round_cases),
                                       fin["peak_rss_kb"], setup)
            units = metric_units("end_to_end")
        detail.update(more)
        detail["cal_p50_s"] = statistics.median(op["cal"] for op in all_ops)
        detail["known_defect_failures"] = len(known)
        detail["failures"] = {op["case"].name: op["reason"] for op in failed}
        detail["case_p50_s"] = {
            name: statistics.median(o["wall"] for o in ops if o["case"].name == name)
            for name in sorted({o["case"].name for o in ops})
        }
        result = {
            "correct": len(failed) == len(known),
            "attempted": len(all_ops),
            "failed": len(failed),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        return result, detail
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modulikit", "__init__.py")):
        print(f"error: no modulikit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result, detail = benchmark(args)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
