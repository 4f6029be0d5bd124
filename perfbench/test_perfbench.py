"""Tests of the benchmark itself: oracle, tracing and the result format.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads

RUN_PY = os.path.join(run.HERE, "run.py")


def build(name, tmp_path):
    return workloads.WORKLOADS[name].build(np.random.default_rng(7), str(tmp_path))


def case_named(plan, name):
    return next(c for c in plan.next_round(np.random.default_rng(0)) if c.name == name)


def execute(mode, case, tmp_path):
    worker = run.Worker(mode, run.child_env(str(tmp_path)))
    try:
        _, head, out, err = worker.run(case.op)
    finally:
        worker.close()
    return head["code"], out, err


def perturb_gauge(code, out, err):
    rep = json.loads(out)
    rep["result"]["A"]["entries"][0][0] += 1e-3
    return code, json.dumps(rep), err


def perturb_involute(code, out, err):
    rep = json.loads(out)
    entries = rep["result"]["B"]["entries"]
    k = next(i for i, e in enumerate(entries) if e != [0.0, 0.0])
    entries[k] = [-entries[k][0], entries[k][1]]
    return code, json.dumps(rep), err


def perturb_invariants(code, out, err):
    rep = json.loads(out)
    entries = rep["result"]["entries"]
    entries.pop(sorted(entries)[-1])
    return code, json.dumps(rep), err


def perturb_selftest(code, out, err):
    rep = json.loads(out)
    rep["properties"][3]["ok"] = False
    rep["result"], rep["failed"] = "fail", [rep["properties"][3]["name"]]
    return 1, json.dumps(rep), err


@pytest.mark.parametrize(
    "workload, case_name, perturb",
    [
        ("cli-small", "gauge8", perturb_gauge),
        ("dense-connection", "involute64", perturb_involute),
        ("cycles", "invariants-loop-L12", perturb_invariants),
        ("selftest", "selftest-k20", perturb_selftest),
    ],
)
def test_oracle_accepts_real_result_and_rejects_perturbed_one(workload, case_name, perturb, tmp_path):
    wl = workloads.WORKLOADS[workload]
    case = case_named(build(workload, tmp_path), case_name)
    result = execute(wl.mode, case, tmp_path)
    assert case.check(*result) is None
    assert case.check(*perturb(*result)) is not None


def test_oracle_rejects_wrong_exit_codes(tmp_path):
    plan = build("dense-connection", tmp_path)
    forbidden = case_named(plan, "validate-forbidden64")
    malformed = case_named(plan, "malformed64")
    assert forbidden.check(0, '{"result": "pass", "violations": [], "worst": 0.0}', "") is not None
    assert malformed.check(1, "", "error: bad\n") is not None
    assert malformed.check(2, "", "Traceback (most recent call last):\nValueError\n") is not None


def test_only_the_known_defect_outcome_is_excused(tmp_path):
    plan = build("dense-connection", tmp_path)
    flagged = [c for c in plan.next_round(np.random.default_rng(0)) if c.known_failure]
    assert [c.name for c in flagged] == ["validate64-offset1e9"]
    case = flagged[0]
    wrong_fail = '{"result": "fail", "violations": [{"check": "sampled"}], "worst": 1.0}'
    assert case.check(1, wrong_fail, "") == case.known_failure
    for outcome in [(-1, "", "Traceback (most recent call last):\n"), (2, "", "error: bad\n"),
                    (1, "not json", ""), (1, '{"result": "pass"}', "")]:
        assert case.check(*outcome) not in (None, case.known_failure)


def test_brute_force_words_on_chain8_length12():
    words = workloads.oracle.closed_words(workloads.gen.chain_arrows(8), 12)
    assert len(words) == 599


def test_aggregate_self_and_busy_time():
    dump = {
        "spans": [
            ("cli.main", 0.0, 10.0, -1, 1),
            ("jsonio.decode", 1.0, 4.0, 0, 1),
            ("jsonio.decode", 2.0, 3.0, 1, 1),
            ("linalg.invert", 5.0, 6.0, 0, 1),
        ],
        "counters": [[1, "quiver.cycle_words", 5.0]],
    }
    row = spans.aggregate(dump)[1]
    assert row["cli.main.self_s"] == pytest.approx(6.0)
    assert row["jsonio.decode.busy_s"] == pytest.approx(3.0)
    assert row["jsonio.decode.calls"] == 2
    assert row["linalg.invert.busy_s"] == pytest.approx(1.0)
    assert row["quiver.cycle_words"] == 5.0


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 28, 78, 91, 400):
        p = run.tail_percentile(n)
        vals = list(range(n))
        assert sum(v > run.nearest_rank(vals, p) for v in vals) >= 10
    assert run.tail_percentile(5) == run.tail_percentile(19) == 50


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, RUN_PY, *args], capture_output=True, text=True,
                           cwd=cwd, timeout=600)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_minimal_run_emits_every_metric_with_unit(workload):
    seen = {}
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        *_, detail_line, result_line = proc.stdout.strip().splitlines()
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.metric_units(kind)
        seen[trace] = (json.loads(detail_line), result)
    detail, result = seen["0"]
    assert detail["error_rate"] == pytest.approx(result["failed"] / result["attempted"])
    timed = {"setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "cpu_s_per_op"}
    assert set(detail["measured"]) == timed and detail["cal_p50_s"] > 0
    layers = seen["1"][1]["metrics"]
    if workload == "dense-connection":
        assert detail["known_defect_failures"] >= 1
    if workload == "cycles":
        assert seen["1"][0]["words_per_rotation_by_case"]["invariants-chain8-L12"] == "599/6006"
    if workload == "selftest":
        # Every property named in BENCHMARK.json is traced under that name.
        props = [k for k in layers if k.startswith("selftest.prop.")]
        assert len(props) == 25 and all(layers[k]["value"] > 0 for k in props)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cycles", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
