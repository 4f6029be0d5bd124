"""Command-line interface.

Every command reads JSON inputs, prints one JSON report to stdout, and
exits 0 on pass/success, 1 on a definite negative (not pure, distinct,
covariance failure, selftest failure), or 2 on an input or usage error.
Reports are byte-identical for a fixed seed and inputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import connection, jordan, jsonio, quiver, selftest, weights
from .errors import ModulikitError
from .linalg import DEFAULT_TOL

SEED_ENV_VAR = "MODULIKIT_SEED"


@dataclass(frozen=True)
class Command:
    """One row of the command table.

    ``inputs`` names the wire format of each ``--input`` in order: kind
    ``k`` is decoded by ``jsonio.k_from_json``, looked up at call time so
    that a function replaced on ``jsonio`` is the one called.  Its length
    is the required ``--input`` count.  ``tol_key`` is the key
    under which the report's ``tolerances_used`` records ``--tol``, or
    None when the command takes no tolerance.  ``run(args, *decoded)``
    returns the exit code and the report fields; the fields may override
    the default ``violations`` and ``tolerances_used``.
    """

    help: str
    inputs: tuple[str, ...]
    tol_key: str | None
    run: Callable[..., tuple[int, dict]]


def _resolve_seed(value: int | None) -> int:
    name, seed = "--seed", value
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return 0
        try:
            name, seed = SEED_ENV_VAR, int(env)
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")
    return seed


def _exit(ok: bool) -> int:
    return 0 if ok else 1


def _decompose(args, w):
    d = weights.decompose(w)
    blocks = [{"weight": list(b.weight), "indices": list(b.indices)} for b in d.blocks]
    chain_rows = None
    if d.rank == 1:
        chain_rows = [
            {"base_weight": c.base_weight, "dims": list(c.dims), "indices": [list(ix) for ix in c.indices]}
            for c in weights.chains(d).chains
        ]
    return 0, {"result": {"rank": d.rank, "dim": d.dim, "blocks": blocks, "chains": chain_rows}}


def _validate(args, c):
    report = connection.validate_covariance(c, tol=args.tol, seed=args.seed)
    return _exit(report.ok), {
        "result": "pass" if report.ok else "fail",
        "worst": report.worst,
        "checks": report.checks,
        "violations": [asdict(v) for v in report.violations],
    }


def _pure(args, t):
    result = connection.is_pure(t, tol=args.tol)
    return _exit(result.pure), {
        "result": bool(result.pure),
        "witness": asdict(result.witness) if result.witness else None,
    }


def _hermitian(args, c):
    verdict = connection.is_hermitian(c, tol=args.tol)
    return _exit(verdict), {"result": bool(verdict)}


def _invariants(args, rep):
    vec = quiver.invariants(rep, max_len=args.max_len)
    entries = {",".join(word): jsonio.complex_to_json(t) for word, t in vec.entries.items()}
    return 0, {"result": {"max_len": vec.max_len, "entries": entries}}


def _equiv(args, r1, r2):
    cert = quiver.equivalence_certificate(r1, r2, max_len=args.max_len, tol=args.tol)
    payload = {"verdict": cert.verdict, "max_len": cert.max_len}
    if cert.distinct:
        payload["witness"] = ",".join(cert.witness)
        payload["left_trace"] = jsonio.complex_to_json(cert.left_trace)
        payload["right_trace"] = jsonio.complex_to_json(cert.right_trace)
    return _exit(not cert.distinct), {"result": payload}


def _moment(args, rep):
    mus = quiver.moment_map(rep, convention=args.convention)
    worst = max((float(np.max(np.abs(mu))) for mu in mus if mu.size), default=0.0)
    return 0, {
        "result": {
            "convention": args.convention,
            "vertices": [jsonio.matrix_to_json(mu) for mu in mus],
            "max_entry": worst,
        }
    }


def _jordan_spectral(args, z):
    sd = jordan.spectral(z)
    return 0, {
        "result": {
            "t": [float(x) for x in sd.t],
            "u": jsonio.matrix_to_json(sd.u),
            "v": jsonio.matrix_to_json(sd.v),
        }
    }


def _selftest(args):
    report = selftest.run_properties(seed=args.seed)
    report["violations"] = report.pop("failed")
    report["tolerances_used"] = {"default": DEFAULT_TOL}
    return _exit(report["result"] == "pass"), report


COMMANDS = {
    "decompose": Command(
        "weight blocks and chains of integer weight data", ("weight_data",), None, _decompose
    ),
    "validate": Command(
        "structural and sampled covariance check of connection data", ("connection",), "tol", _validate
    ),
    "pure": Command("commutator purity of a frame tuple", ("frame_tuple",), "tol", _pure),
    "involute": Command(
        "apply the involution (A, B) -> (-B*, -A*)",
        ("connection",),
        None,
        lambda args, c: (0, {"result": jsonio.connection_to_json(connection.involution(c))}),
    ),
    "hermitian": Command(
        "test whether connection data is an involution fixed point", ("connection",), "tol", _hermitian
    ),
    "gauge": Command(
        "conjugate connection data by a centralizer element (two --input: data, gauge)",
        ("connection", "matrix"),
        "tol",
        lambda args, c, h: (0, {"result": jsonio.connection_to_json(connection.gauge(c, h, tol=args.tol))}),
    ),
    "invariants": Command("cycle-word traces of a double-quiver representation", ("rep",), None, _invariants),
    "equiv": Command(
        "compare trace invariants of two representations (two --input)", ("rep", "rep"), "tol", _equiv
    ),
    "moment": Command("moment map of a double-quiver representation", ("rep",), None, _moment),
    "jordan-spectral": Command(
        "ascending spectral decomposition of a rectangular matrix", ("matrix",), None, _jordan_spectral
    ),
    "selftest": Command("run the seeded property suite", (), None, _selftest),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error:`` line and exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modulikit",
        description="Weight gradings, covariant connection data, chain-quiver invariants, "
        "and Jordan triple spectral tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.inputs:
            p.add_argument(
                "--input",
                action="append",
                required=True,
                metavar="PATH",
                help="JSON input path" + (" (repeat for each input)" if len(cmd.inputs) > 1 else ""),
            )
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="decision tolerance (finite, > 0)")
        p.add_argument("--max-len", type=int, default=None, help="cycle length bound (>= 1)")
        p.add_argument(
            "--convention",
            choices=quiver.MOMENT_CONVENTIONS,
            default="paper",
            help="moment map convention",
        )
        p.add_argument("--seed", type=int, default=None, help=f"PRNG seed (default {SEED_ENV_VAR} or 0)")
    return parser


def _check_domain(args) -> None:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    if args.max_len is not None and args.max_len < 1:
        raise ValueError(f"--max-len must be >= 1, got {args.max_len}")


def _decode_inputs(args, cmd: Command) -> list:
    paths = getattr(args, "input", None) or []
    if len(paths) != len(cmd.inputs):
        raise ValueError(
            f"{args.command} needs exactly {len(cmd.inputs)} --input path(s), got {len(paths)}"
        )
    return [
        getattr(jsonio, f"{kind}_from_json")(jsonio.loads_path(path))
        for kind, path in zip(cmd.inputs, paths)
    ]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    try:
        # an overflow surfaces below as a non-finite result, not as warnings
        with np.errstate(all="ignore"):
            args.seed = _resolve_seed(args.seed)
            _check_domain(args)
            code, fields = cmd.run(args, *_decode_inputs(args, cmd))
        report = {
            "command": args.command,
            "violations": [],
            "tolerances_used": {cmd.tol_key: args.tol} if cmd.tol_key else {},
            **fields,
        }
        out = jsonio.dumps(report)
    except (ModulikitError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
