"""The workloads: their inputs, their expected outcomes and their schedule.

A workload builds a list of cases from the seed.  A case is one CLI call
(or one ``selftest.run_properties`` call) together with the oracle check
for its result.  One round runs every case of the schedule once, in a
seeded order; runs are made of whole rounds so that every run measures the
same mix of ops.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen
import oracle

# The oracle's reason for the wrong "fail" that validate gives when the
# weights are offset by 1e9: the sampled check raises tau to the absolute
# weights, so the float phase carries no information (the exact-shift
# covariance item in ROADMAP.md).  Any other failure of that case is a
# new fault.
KNOWN_DEFECT_BIG_WEIGHTS = "verdict fail, expected pass"


@dataclass
class Case:
    name: str
    op: dict
    check: Callable[[int, str, str], str | None]
    # The oracle reason a known, recorded defect gives on this case.
    known_failure: str = ""


@dataclass
class Workload:
    name: str
    # "subprocess": every op is a fresh ``python -m modulikit``;
    # "inproc": ops run inside one long-lived worker process.
    mode: str
    # Mean seconds of one round at the seed commit on a 2-CPU Xeon.  Fixes
    # how many ops a run is planned to have, and so which percentile is
    # the tail, independently of how fast the code under test is.
    nominal_round_s: float
    build: Callable[[np.random.Generator, str], "Plan"]


@dataclass
class Plan:
    # ``next_round(rng)`` returns the cases of one round in order.
    next_round: Callable[[np.random.Generator], list[Case]]
    warmup: list[Case] = field(default_factory=list)


class Files:
    """Writes JSON inputs into a work directory and hands back their paths."""

    def __init__(self, root: str) -> None:
        self.root = root

    def __call__(self, name: str, payload) -> str:
        path = os.path.join(self.root, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path


def cli_case(name, argv, check, known_failure=""):
    return Case(name, {"kind": "cli", "argv": argv}, check, known_failure)


# --- connection data ----------------------------------------------------


def connection_cases(rng, put, n, blocks, chain_len, tag, seed):
    """validate, gauge, involute, hermitian and jordan-spectral at size n."""
    w = gen.grading(rng, n, blocks, chain_len)
    a, b = gen.connection(rng, w)
    ah, bh = gen.connection(rng, w, hermitian=True)
    h = gen.block_gauge(rng, w)
    z = gen.cnormal(rng, n, n)
    conn = put(f"conn{tag}", gen.connection_json(w, a, b))
    herm = put(f"herm{tag}", gen.connection_json(w, ah, bh))
    hpath = put(f"h{tag}", gen.matrix_json(h))
    zpath = put(f"z{tag}", gen.matrix_json(z))
    s = ["--seed", str(seed)]
    return [
        cli_case(f"validate{tag}", ["validate", "--input", conn] + s, oracle.check_validate(w, a, b)),
        cli_case(f"gauge{tag}", ["gauge", "--input", conn, "--input", hpath] + s,
                 oracle.check_gauge(w, a, b, h)),
        cli_case(f"involute{tag}", ["involute", "--input", conn] + s, oracle.check_involute(w, a, b)),
        cli_case(f"hermitian{tag}", ["hermitian", "--input", herm] + s, oracle.check_hermitian(ah, bh)),
        cli_case(f"jordan-spectral{tag}", ["jordan-spectral", "--input", zpath] + s,
                 oracle.check_jordan(z)),
    ]


def forbidden_case(rng, put, n, blocks, chain_len, tag, seed):
    """validate on data with one entry off the weight-shift pattern: exit 1."""
    w = gen.grading(rng, n, blocks, chain_len)
    a, b = gen.connection(rng, w)
    up, _ = oracle.shift_masks(w)
    i, j = np.argwhere(~up)[rng.integers(int((~up).sum()))]
    a[i, j] = 1.0
    path = put(f"forbidden{tag}", gen.connection_json(w, a, b))
    return cli_case(f"validate-forbidden{tag}", ["validate", "--input", path, "--seed", str(seed)],
                    oracle.check_validate(w, a, b))


def malformed_case(rng, put, n, tag):
    """validate on an A matrix with one entry too few: exit 2."""
    w = gen.grading(rng, n, max(1, n // 2), 4)
    a = gen.matrix_json(gen.cnormal(rng, n))
    a["entries"].pop()
    payload = {"weights": gen.weights_json(w), "A": a, "B": gen.matrix_json(np.zeros((n, n)))}
    path = put(f"malformed{tag}", payload)
    return cli_case(f"malformed{tag}", ["validate", "--input", path], oracle.check_malformed())


# --- representations ----------------------------------------------------


def rep_cases(rng, put, levels, max_len, tag, kinds):
    """Cases on one representation: ``invariants``, ``equiv-related`` (a
    gauge-moved copy), ``equiv-distinct`` (A1 scaled) and ``moment``."""
    if levels == 1:
        dims, arrows = [3], gen.LOOP_ARROWS
    else:
        dims, arrows = [1 + 2 * k % 3 for k in range(levels)], gen.chain_arrows(levels)
    mats = gen.representation(rng, dims, arrows)
    moved = gen.gauge_rep(rng, dims, arrows, mats)
    other = {**mats, "A1": mats["A1"] * 1.5}
    rep = put(f"rep{tag}", gen.rep_json(dims, arrows, mats))
    ml = ["--max-len", str(max_len)]
    words = oracle.closed_words(arrows, max_len)
    out = {}
    if "invariants" in kinds:
        out["invariants"] = cli_case(f"invariants{tag}", ["invariants", "--input", rep] + ml,
                                     oracle.check_invariants(words, mats, max_len))
    for kind, partner in (("equiv-related", moved), ("equiv-distinct", other)):
        if kind in kinds:
            path = put(f"rep{tag}-{kind}", gen.rep_json(dims, arrows, partner))
            out[kind] = cli_case(f"{kind}{tag}", ["equiv", "--input", rep, "--input", path] + ml,
                                 oracle.check_equiv(words, mats, partner, max_len))
    if "moment" in kinds:
        out["moment"] = cli_case(f"moment{tag}",
                                 ["moment", "--input", rep, "--convention", "standard"],
                                 oracle.check_moment(dims, arrows, mats))
    return out


# --- workloads ------------------------------------------------------------


def build_cli_small(rng, root):
    """The ten data commands plus a non-pure frame tuple (exit 1), on N <= 8.

    The other negative paths (forbidden entry, malformed input, distinct
    pair) run in ``dense-connection`` and ``cycles``, which keeps this
    round short.
    """
    put = Files(root)
    seed = int(rng.integers(2**31))
    w = gen.grading(rng, 8, 6, 4)
    conn = connection_cases(rng, put, 8, 6, 4, "8", seed)
    a1 = gen.cnormal(rng, 6)
    pure = [a1, a1 @ a1 + 2.0 * a1]
    mixed = [a1, gen.cnormal(rng, 6)]
    z = gen.cnormal(rng, 5, 7)
    reps = rep_cases(rng, put, 4, 6, "4", ("invariants", "equiv-related", "moment"))
    frame = lambda ms: {"rank": len(ms), "A_list": [gen.matrix_json(m) for m in ms]}
    cases = [
        cli_case("decompose8", ["decompose", "--input", put("w8", gen.weights_json(w))],
                 oracle.check_decompose(w)),
        *[c for c in conn if not c.name.startswith("jordan")],
        cli_case("pure6", ["pure", "--input", put("pure6", frame(pure))], oracle.check_pure(pure)),
        cli_case("pure-mixed6", ["pure", "--input", put("mixed6", frame(mixed))],
                 oracle.check_pure(mixed)),
        *reps.values(),
        cli_case("jordan-spectral5x7", ["jordan-spectral", "--input", put("z5x7", gen.matrix_json(z))],
                 oracle.check_jordan(z)),
    ]
    order = [cases[i] for i in rng.permutation(len(cases))]
    return Plan(lambda _rng: order)


def build_dense_connection(rng, root):
    """N=256 (114 blocks) and N=64 connection commands plus three negative paths."""
    put = Files(root)
    seed = int(rng.integers(2**31))
    big = connection_cases(rng, put, 256, 114, 6, "256", seed)
    small = connection_cases(rng, put, 64, 28, 6, "64", seed)
    w = gen.grading(rng, 64, 28, 6, offset=10**9)
    a, b = gen.connection(rng, w)
    huge = cli_case("validate64-offset1e9",
                    ["validate", "--input", put("conn64-offset", gen.connection_json(w, a, b)),
                     "--seed", str(seed)],
                    oracle.check_validate(w, a, b), known_failure=KNOWN_DEFECT_BIG_WEIGHTS)
    cases = big + small + [
        huge,
        forbidden_case(rng, put, 64, 28, 6, "64", seed),
        malformed_case(rng, put, 64, "64"),
    ]
    order = [cases[i] for i in rng.permutation(len(cases))]
    return Plan(lambda _rng: order, warmup=small)


def build_cycles(rng, root):
    """The 8-level chain double at length 12 and the loop double at 12-14."""
    put = Files(root)
    chain = rep_cases(rng, put, 8, 12, "-chain8-L12", ("invariants", "equiv-related"))
    loops = {
        12: rep_cases(rng, put, 1, 12, "-loop-L12", ("invariants", "equiv-related")),
        13: rep_cases(rng, put, 1, 13, "-loop-L13", ("invariants", "equiv-distinct")),
        14: rep_cases(rng, put, 1, 14, "-loop-L14", ("invariants",)),
    }
    cases = [
        chain["invariants"],
        chain["equiv-related"],
        loops[12]["invariants"],
        loops[13]["invariants"],
        loops[14]["invariants"],
        loops[12]["equiv-related"],
        loops[13]["equiv-distinct"],
    ]
    order = [cases[i] for i in rng.permutation(len(cases))]
    return Plan(lambda _rng: order, warmup=[loops[12]["invariants"]])


SELFTEST_SAMPLES = 20


def selftest_case(seed, samples=SELFTEST_SAMPLES):
    return Case(f"selftest-k{samples}",
                {"kind": "selftest", "seed": seed, "samples": samples},
                oracle.check_selftest(seed, samples))


def build_selftest(rng, root):
    """One ``selftest.run_properties`` call per round, each with a fresh seed."""
    return Plan(lambda r: [selftest_case(int(r.integers(2**31)))], warmup=[selftest_case(0, 2)])


# Why each workload exists is stated in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-small", "subprocess", 6.8, build_cli_small),
        Workload("dense-connection", "inproc", 2.9, build_dense_connection),
        Workload("cycles", "inproc", 1.5, build_cycles),
        Workload("selftest", "inproc", 0.21, build_selftest),
    )
}
