"""Reference checks for every op the benchmark issues.

Expected outcomes come from the generated data and numpy, never from
modulikit: the oracle does not import the package.  Each ``check_*``
returns ``None`` when the op's exit code and report are right, or a short
reason when they are not.
"""

from __future__ import annotations

import json

import numpy as np

DEFAULT_TOL = 1e-10
# Relative slack for results that go through a different floating-point
# path than the reference (inversion, SVD, long products).
NUMERIC_TOL = 1e-9


def matrix(obj) -> np.ndarray:
    pairs = np.asarray(obj["entries"], dtype=float).reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(obj["rows"], obj["cols"])


def rel_err(got, want) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def _report(code, out, want_code):
    if code != want_code:
        return None, f"exit {code}, expected {want_code}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, "stdout is not one JSON report"


# --- connection commands ------------------------------------------------


def shift_masks(w):
    """Masks of the entries allowed in A (weight shift +1) and B (shift -1)."""
    w = np.asarray([int(x) for x in w], dtype=np.int64)
    diff = w[:, None] - w[None, :]
    return diff == 1, diff == -1


def pattern_ok(w, a, b) -> bool:
    up, down = shift_masks(w)
    return bool(np.all(a[~up] == 0) and np.all(b[~down] == 0))


def check_validate(w, a, b):
    verdict = pattern_ok(w, a, b)

    def check(code, out, err):
        # A wrong verdict is still parsed, so that it is told apart from a
        # crash or a malformed report.
        rep, why = _report(code, out, code if code in (0, 1) else 0 if verdict else 1)
        if why:
            return why
        if rep.get("result") != ("pass" if code == 0 else "fail"):
            return f"verdict {rep.get('result')} with exit {code}"
        if verdict != (code == 0):
            return f"verdict {rep['result']}, expected {'pass' if verdict else 'fail'}"
        if verdict and (rep["violations"] or rep["worst"] > DEFAULT_TOL):
            return "pass reported with violations"
        if not verdict and not any(v["check"].startswith("structural") for v in rep["violations"]):
            return "forbidden entry not reported"
        return None

    return check


def check_involute(w, a, b):
    want_a, want_b = -np.conj(b.T), -np.conj(a.T)

    def check(code, out, err):
        rep, why = _report(code, out, 0)
        if why:
            return why
        res = rep["result"]
        if [x[0] for x in res["weights"]["weights"]] != [int(x) for x in w]:
            return "weights changed"
        if not (np.array_equal(matrix(res["A"]), want_a) and np.array_equal(matrix(res["B"]), want_b)):
            return "involution is not exact"
        return None

    return check


def check_hermitian(a, b):
    verdict = bool(np.linalg.norm(b + np.conj(a.T)) <= DEFAULT_TOL * max(np.linalg.norm(a), 1e-14))

    def check(code, out, err):
        rep, why = _report(code, out, 0 if verdict else 1)
        if why:
            return why
        return None if rep["result"] is verdict else f"verdict {rep['result']}"

    return check


def check_gauge(w, a, b, h):
    up, down = shift_masks(w)

    def conj(m):
        # h m h^-1 without forming the inverse: solve X h = h m.
        return np.linalg.solve(h.T, (h @ m).T).T

    want_a, want_b = conj(a), conj(b)

    def check(code, out, err):
        rep, why = _report(code, out, 0)
        if why:
            return why
        got_a, got_b = matrix(rep["result"]["A"]), matrix(rep["result"]["B"])
        if np.any(got_a[~up] != 0) or np.any(got_b[~down] != 0):
            return "forbidden blocks are not exactly zero"
        err_ = max(rel_err(got_a, want_a), rel_err(got_b, want_b))
        return None if err_ <= NUMERIC_TOL else f"h A h^-1 off by {err_:.2e}"

    return check


def check_jordan(z):
    def check(code, out, err):
        rep, why = _report(code, out, 0)
        if why:
            return why
        res = rep["result"]
        t = np.asarray(res["t"], dtype=float)
        u, v = matrix(res["u"]), matrix(res["v"])
        r = min(z.shape)
        if t.shape != (r,) or np.any(t < 0) or np.any(np.diff(t) < 0):
            return "singular values not ascending and nonnegative"
        for m in (u, v):
            if np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) > NUMERIC_TOL:
                return "frame is not unitary"
        back = (u[:, :r] * t) @ v[:, :r].conj().T
        e = rel_err(back, z)
        return None if e <= NUMERIC_TOL else f"reconstruction off by {e:.2e}"

    return check


def check_malformed():
    def check(code, out, err):
        if code != 2:
            return f"exit {code}, expected 2"
        lines = err.strip().splitlines()
        if out.strip() or len(lines) != 1 or not lines[0].startswith("error:"):
            return "bad input must give one error line and no report"
        return None

    return check


# --- weights and frame tuples -------------------------------------------


def check_decompose(w):
    w = [int(x) for x in w]
    values = sorted(set(w))
    blocks = [{"weight": [v], "indices": [i for i, x in enumerate(w) if x == v]} for v in values]
    runs = []
    for b in blocks:
        if runs and b["weight"][0] == runs[-1][-1]["weight"][0] + 1:
            runs[-1].append(b)
        else:
            runs.append([b])
    chains = [
        {
            "base_weight": run[0]["weight"][0],
            "dims": [len(b["indices"]) for b in run],
            "indices": [b["indices"] for b in run],
        }
        for run in runs
    ]
    want = {"rank": 1, "dim": len(w), "blocks": blocks, "chains": chains}

    def check(code, out, err):
        rep, why = _report(code, out, 0)
        if why:
            return why
        return None if rep["result"] == want else "blocks or chains differ"

    return check


def check_pure(mats):
    norms = [np.linalg.norm(m) for m in mats]
    first = None
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])
            if first is None and comm > max(DEFAULT_TOL * norms[i] * norms[j], 1e-12):
                first = (i + 1, j + 1)

    def check(code, out, err):
        rep, why = _report(code, out, 0 if first is None else 1)
        if why:
            return why
        if rep["result"] is not (first is None):
            return f"verdict {rep['result']}"
        wit = rep["witness"]
        if first is not None and (wit["side"], wit["i"], wit["j"]) != ("A", *first):
            return "wrong witness pair"
        return None

    return check


# --- representations ----------------------------------------------------


def closed_words(arrows, max_len):
    """Canonical words of every closed walk up to ``max_len``, by brute force.

    Walks every arrow sequence from every vertex, keeps the closed ones,
    and reduces each to its lexicographically least rotation.
    """
    out_of = {}
    for t, h, lab in arrows:
        out_of.setdefault(t, []).append((h, lab))
    found = set()
    stack = [(t, t, ()) for t in {t for t, _, _ in arrows}]
    while stack:
        start, here, word = stack.pop()
        for head, lab in out_of.get(here, ()):
            nxt = word + (lab,)
            if head == start:
                found.add(min(nxt[k:] + nxt[:k] for k in range(len(nxt))))
            if len(nxt) < max_len:
                stack.append((start, head, nxt))
    return found


def word_trace(mats, word) -> complex:
    prod = mats[word[0]]
    for lab in word[1:]:
        prod = mats[lab] @ prod
    return complex(np.trace(prod))


def _pair(z):
    return complex(z[0], z[1])


def _close(got, want) -> bool:
    return abs(got - want) <= NUMERIC_TOL * max(1.0, abs(want))


def check_invariants(words, mats, max_len):
    want = {w: word_trace(mats, w) for w in words}

    def check(code, out, err):
        rep, why = _report(code, out, 0)
        if why:
            return why
        res = rep["result"]
        got = {tuple(k.split(",")): _pair(v) for k, v in res["entries"].items()}
        if res["max_len"] != max_len or set(got) != set(want):
            return f"{len(got)} cycle words, expected {len(want)}"
        bad = sum(not _close(got[w], want[w]) for w in want)
        return None if bad == 0 else f"{bad} traces off"

    return check


def check_equiv(words, mats1, mats2, max_len):
    distinct = None
    for w in sorted(words, key=lambda w: (len(w), w)):
        t1, t2 = word_trace(mats1, w), word_trace(mats2, w)
        if abs(t1 - t2) > DEFAULT_TOL * max(abs(t1), abs(t2), 1.0):
            distinct = (w, t1, t2)
            break

    def check(code, out, err):
        rep, why = _report(code, out, 0 if distinct is None else 1)
        if why:
            return why
        res = rep["result"]
        if res["max_len"] != max_len:
            return "max_len not echoed"
        if distinct is None:
            return None if res["verdict"] == "indistinguishable" else f"verdict {res['verdict']}"
        w, t1, t2 = distinct
        if res["verdict"] != "distinct" or tuple(res["witness"].split(",")) != w:
            return "wrong verdict or witness"
        ok = _close(_pair(res["left_trace"]), t1) and _close(_pair(res["right_trace"]), t2)
        return None if ok else "witness traces off"

    return check


def check_moment(dims, arrows, mats):
    want = [np.zeros((d, d), dtype=complex) for d in dims]
    for t, h, lab in arrows:
        if lab.startswith("A"):
            x, xbar = mats[lab], mats["B" + lab[1:]]
            want[h] += x @ xbar
            want[t] -= xbar @ x

    def check(code, out, err):
        rep, why = _report(code, out, 0)
        if why:
            return why
        got = [matrix(m) for m in rep["result"]["vertices"]]
        if len(got) != len(want) or any(g.shape != w.shape for g, w in zip(got, want)):
            return "wrong vertex shapes"
        e = max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))
        return None if e <= NUMERIC_TOL else f"moment map off by {e:.2e}"

    return check


# --- selftest -----------------------------------------------------------

SELFTEST_ROWS = 25


def check_selftest(seed, samples):
    def check(code, out, err):
        rep, why = _report(code, out, 0)
        if why:
            return why
        rows = rep["properties"]
        if rep["seed"] != seed or rep["samples"] != samples or len(rows) != SELFTEST_ROWS:
            return "seed, samples or row count wrong"
        if rep["result"] != "pass" or rep["failed"]:
            return f"selftest failed: {rep['failed']}"
        if not all(r["ok"] and r["worst"] <= r["tol"] for r in rows):
            return "a row is not ok"
        return None

    return check
