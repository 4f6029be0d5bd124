"""Command-line interface.

Every command reads JSON inputs, prints one JSON report to stdout, and
exits 0 on pass/success, 1 on a definite negative (not pure, distinct,
covariance failure, selftest failure), or 2 on an input or usage error.
Reports are byte-identical for a fixed seed and inputs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import jsonio
from .errors import ModulikitError
from .linalg import DEFAULT_TOL, MOMENT_CONVENTIONS

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
    the default ``violations`` and ``tolerances_used``.  Each ``run``
    imports the kernel module it calls, so that a one-shot call compiles
    and runs only its own command's layer.
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
    from . import weights

    d = weights.decompose(w)
    blocks = [{"weight": list(b.weight), "indices": list(b.indices)} for b in d.blocks]
    chain_rows = [
        {
            "base_weight": comp[0].weight[0] if d.rank == 1 else list(comp[0].weight),
            "dims": [b.dim for b in comp],
            "indices": [list(b.indices) for b in comp],
        }
        for comp in weights.components(d)
    ]
    return 0, {"result": {"rank": d.rank, "dim": d.dim, "blocks": blocks, "chains": chain_rows}}


def _validate(args, c):
    from . import connection

    report = connection.validate_covariance(c)
    return _exit(report.ok), {
        "result": "pass" if report.ok else "fail",
        "worst": report.worst,
        "checks": report.checks,
        "violations": [asdict(v) for v in report.violations],
    }


def _pure(args, t):
    from . import connection

    result = connection.is_pure(t, tol=args.tol)
    return _exit(result.pure), {
        "result": bool(result.pure),
        "witness": asdict(result.witness) if result.witness else None,
    }


def _involute(args, c):
    from . import connection

    return 0, {"result": jsonio.connection_arrays(connection.involution(c))}


def _hermitian(args, c):
    from . import connection

    verdict = connection.is_hermitian(c, tol=args.tol)
    return _exit(verdict), {"result": bool(verdict)}


def _gauge(args, c, h):
    from . import connection

    return 0, {"result": jsonio.connection_arrays(connection.gauge(c, h, tol=args.tol))}


def _invariants(args, rep):
    from . import quiver

    vec = quiver.invariants(rep, max_len=args.max_len)
    entries = {",".join(word): jsonio.complex_to_json(t) for word, t in vec.entries.items()}
    return 0, {"result": {"max_len": vec.max_len, "entries": entries}}


def _equiv(args, r1, r2):
    from . import quiver

    cert = quiver.equivalence_certificate(r1, r2, max_len=args.max_len, tol=args.tol)
    payload = {"verdict": cert.verdict, "max_len": cert.max_len}
    if cert.distinct:
        payload["witness"] = ",".join(cert.witness)
        payload["left_trace"] = jsonio.complex_to_json(cert.left_trace)
        payload["right_trace"] = jsonio.complex_to_json(cert.right_trace)
    return _exit(not cert.distinct), {"result": payload}


def _moment(args, rep):
    from . import quiver

    mus = quiver.moment_map(rep, convention=args.convention)
    worst = max((float(np.abs(mu).max()) for mu in mus if mu.size), default=0.0)
    return 0, {
        "result": {
            "convention": args.convention,
            "vertices": mus,
            "max_entry": worst,
        }
    }


def _jordan_spectral(args, z):
    from . import jordan

    sd = jordan.spectral(z)
    return 0, {
        "result": {
            "t": [float(x) for x in sd.t],
            "u": sd.u,
            "v": sd.v,
        }
    }


def _selftest(args):
    from . import selftest

    report = selftest.run_properties(seed=args.seed)
    report["violations"] = report.pop("failed")
    report["tolerances_used"] = {"default": DEFAULT_TOL}
    return _exit(report["result"] == "pass"), report


COMMANDS = {
    "decompose": Command(
        "weight blocks and weight-quiver components of weight data", ("weight_data",), None, _decompose
    ),
    "validate": Command(
        "exact weight-shift pattern check of connection data", ("connection",), None, _validate
    ),
    "pure": Command("commutator purity of a frame tuple", ("frame_tuple",), "tol", _pure),
    "involute": Command("apply the involution (A, B) -> (-B*, -A*)", ("connection",), None, _involute),
    "hermitian": Command(
        "test whether connection data is an involution fixed point", ("connection",), "tol", _hermitian
    ),
    "gauge": Command(
        "conjugate connection data by a centralizer element (two --input: data, gauge)",
        ("connection", "matrix"),
        "tol",
        _gauge,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Each parse starts from a fresh namespace and copies the ``append``
    default before adding to it, so one parse leaves nothing in the
    parser for the next.
    """
    parser = _Parser(
        prog="modulikit",
        description="Weight gradings, covariant connection data, weight-quiver invariants, "
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
            choices=MOMENT_CONVENTIONS,
            default="paper",
            help="moment map convention",
        )
        p.add_argument("--seed", type=int, default=None, help=f"PRNG seed (default {SEED_ENV_VAR} or 0)")
        p.set_defaults(usage_error=p.error)
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


def _report(args, cmd: Command) -> tuple[int, str]:
    """The exit code and report text of one op.

    The decoded inputs and the report's dicts and lists are freed when
    this returns, so that none of them is alive when ``main`` resumes
    the garbage collector.
    """
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
    return code, jsonio.dumps(report)


def _emit(out: str) -> None:
    """Print the report and flush it, so that a failed write raises here."""
    try:
        print(out, flush=True)
    except OSError:
        # the reader is gone: what is left in the buffer, flushed again at
        # exit, goes to the null device instead of failing a second time
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # name the subcommand whose options were misspelt
        args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    cmd = COMMANDS[args.command]
    # The decoded inputs are hundreds of thousands of small lists, none of
    # them in a reference cycle, all alive until the report is built:
    # collections would only scan them again and again.
    # The caller's collector state is restored on every way out.
    resume = gc.isenabled()
    gc.disable()
    try:
        code, out = _report(args, cmd)
        _emit(out)
    except (ModulikitError, ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if resume:
            gc.enable()
    return code


if __name__ == "__main__":
    sys.exit(main())
