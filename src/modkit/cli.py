"""Command line front end.

Subcommands: ``schmidt``, ``modular``, ``kms-verify``, ``cone``, ``ineq``,
``campaign``. Matrices travel as JSON objects with fields (in this order)
``rows``, ``cols``, ``data``, where rows and cols are JSON integers and
data is a row-major list of ``[re, im]`` pairs of JSON numbers (booleans
are neither); ``-`` reads the payload from stdin.

Exit codes: 0 all checks pass, 1 checks ran but failed, 2 payload parse
error, 3 domain error (singular state, bad shapes, non-PSD input),
4 usage error (bad flags, unknown suite, a non-finite ``--t``, a flag the
command would ignore: ``modular``'s ``--t``, ``--samples`` or ``--seed``
without ``--verify``, ``kms-verify``'s ``--dim`` with a state file).

The environment variable ``MODKIT_TOL`` overrides the default residual
tolerance; an explicit ``--tol`` beats the environment. Either must be a
finite number > 0, else the run is a usage error.

Reports with ``--json`` are deterministic for a fixed (seed, dimension,
samples) apart from the ``wall_time`` field, and are strict JSON: a NaN or
infinite value prints as ``null`` (and has already failed its check).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import campaigns
from .campaigns import TOL_RESIDUAL, TOL_STRICT
from .errors import ModkitError, ParseError, UsageError
from .kms import (
    centralizer_basis,
    commutant_dimension,
    gibbs_hamiltonian,
    kms_boundary_defect,
    state_invariance_defect,
)
from .modular import (
    modular_conjugation,
    relative_modular_operator,
    relative_modular_power,
    relative_s_matrix,
    verify_tomita_takesaki,
)
from .sampling import complex_gaussian, random_faithful_density
from .schmidt import is_cyclic_separating, schmidt_decompose
from .states import DensityMatrix
from .vecops import vec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 4

# kms-verify evaluates its probes in stacks of at most this many, so the
# (probes, times, d, d) intermediates stay bounded for any --samples
KMS_BLOCK = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with the documented code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_matrix(source: str) -> np.ndarray:
    """Read a {rows, cols, data} JSON payload from a path or stdin ('-')."""
    try:
        text = sys.stdin.read() if source == "-" else open(source).read()
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {source}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("matrix payload must be a JSON object")
    rows, cols, data = obj.get("rows"), obj.get("cols"), obj.get("data")
    if not (_is_json_int(rows) and _is_json_int(cols)):
        raise ParseError("payload needs JSON integers 'rows' and 'cols'")
    if rows < 1 or cols < 1:
        raise ParseError(f"dimensions must be positive, got {rows} x {cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(
            f"'data' must list rows*cols = {rows * cols} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    # JSON numbers parse to exactly int or float; bool and str fall outside
    if not (
        all(isinstance(z, list) and len(z) == 2 for z in data)
        and {type(x) for z in data for x in z} <= {int, float}
    ):
        raise ParseError("'data' entries must be [re, im] pairs of numbers")
    try:
        # (re, im) float pairs viewed as complex: the same bits as complex(re, im)
        flat = np.array(data, dtype=float).view(complex)
    except OverflowError as exc:
        raise ParseError("matrix entries must be finite") from exc
    if not np.all(np.isfinite(flat)):
        raise ParseError("matrix entries must be finite")
    return flat.reshape(rows, cols)


def _is_json_int(x) -> bool:
    """True for a JSON integer; bool is an int subclass and is excluded."""
    return isinstance(x, int) and not isinstance(x, bool)


def dump_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def _finite_or_none(obj):
    """``obj`` with every NaN or infinite float replaced by None, recursively."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_none(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_none(value) for value in obj]
    return obj


def _emit(obj: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_finite_or_none(obj), indent=2, allow_nan=False))
    else:
        for key, value in obj.items():
            print(f"{key}: {value}")


def _resolve_tol(flag_value: float | None, default: float | None) -> float | None:
    """Flag beats MODKIT_TOL beats ``default`` (None: each check's own)."""
    if flag_value is not None:
        source, value = "--tol", flag_value
    elif "MODKIT_TOL" in os.environ:
        source, value = "MODKIT_TOL", os.environ["MODKIT_TOL"]
    else:
        return default
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"{source} must be a finite number > 0, got {value!r}")
    return tol


def cmd_schmidt(args) -> int:
    # the chained comparison is False for NaN too
    if not 0.0 < args.rank_tol < 1.0:
        raise UsageError(
            f"--rank-tol must be a finite number in (0, 1), got {args.rank_tol!r}"
        )
    m = load_matrix(args.input)
    u = vec(m)
    data = schmidt_decompose(u, rank_tol=args.rank_tol)
    square = u.dim_left == u.dim_right
    out = {
        "dims": [u.dim_left, u.dim_right],
        "rank": data.rank,
        "coefficients": [round(float(c), 12) for c in data.coefficients],
        "cyclic_separating": bool(is_cyclic_separating(u))
        if square
        else None,
    }
    _emit(out, args.json)
    return EXIT_OK


def cmd_modular(args) -> int:
    if not args.verify and (args.t, args.samples, args.seed) != (None, None, None):
        raise UsageError("--t, --samples and --seed only apply with --verify")
    tol = _resolve_tol(args.tol, TOL_RESIDUAL)
    if args.t and not all(map(math.isfinite, args.t)):
        raise UsageError(f"--t must be finite, got {args.t}")
    phi = DensityMatrix(load_matrix(args.phi))
    omega = DensityMatrix(load_matrix(args.omega))
    delta = relative_modular_operator(phi, omega)
    spectrum = np.linalg.eigvalsh(delta.matrix)

    s_op = relative_s_matrix(phi, omega)
    cross = s_op.adjoint().compose(s_op).distance(delta)
    polar = modular_conjugation(omega.dim).compose(
        relative_modular_power(phi, omega, 0.5)
    ).distance(s_op)

    out = {
        "dimension": omega.dim,
        "delta_spectrum": [round(float(v), 12) for v in spectrum],
        "cross_route_residual": float(cross),
        "polar_residual": float(polar),
        "tolerance": tol,
    }
    ok = cross < tol and polar < tol

    if args.verify:
        rng = np.random.default_rng(0 if args.seed is None else args.seed)
        count = 8 if args.samples is None else args.samples
        samples = [complex_gaussian(rng, omega.dim) for _ in range(count)]
        t_grid = args.t if args.t else [0.3, 1.0, 2.7]
        report = verify_tomita_takesaki(omega, samples, t_grid, tol=tol)
        out["tt_max_commutant_residual"] = report.max_commutant_residual
        out["tt_max_flow_residual"] = report.max_flow_residual
        out["tt_passed"] = report.passed
        ok = ok and report.passed

    out["passed"] = bool(ok)
    _emit(out, args.json)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_kms_verify(args) -> int:
    if args.omega is not None and args.dim is not None:
        raise UsageError("--dim applies only without a state file")
    tol = _resolve_tol(args.tol, TOL_RESIDUAL)
    rng = np.random.default_rng(args.seed)
    if args.omega is not None:
        density = DensityMatrix(load_matrix(args.omega))
    else:
        density = random_faithful_density(rng, 4 if args.dim is None else args.dim)
    sys_ = gibbs_hamiltonian(density, args.beta)

    t_grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    boundaries, invariances = [], []
    for start in range(0, args.samples, KMS_BLOCK):
        count = min(KMS_BLOCK, args.samples - start)
        # drawn a_0, b_0, a_1, b_1, ... as one probe pair at a time would be
        probes = np.array([complex_gaussian(rng, density.dim) for _ in range(2 * count)])
        a, b = probes[0::2], probes[1::2]
        boundaries.append(kms_boundary_defect(sys_, a, b, t_grid))
        invariances.append(state_invariance_defect(sys_, a, t_grid))
    # np.max propagates NaN, which the builtin max(0.0, nan) drops; a NaN
    # or inf maximum then fails its < test below
    boundary = float(np.max(np.concatenate(boundaries)))
    invariance = float(np.max(np.concatenate(invariances)))

    basis = centralizer_basis(density)
    commutant_dim = commutant_dimension(density.matrix)
    # the invariance bound is fixed: --tol does not loosen it
    ok = boundary < tol and invariance < TOL_STRICT and len(basis) == commutant_dim
    out = {
        "dimension": density.dim,
        "beta": args.beta,
        "samples": args.samples,
        "max_boundary_defect": float(boundary),
        "max_invariance_defect": float(invariance),
        "centralizer_dimension": len(basis),
        "commutant_dimension": commutant_dim,
        "tolerance": tol,
        "passed": bool(ok),
    }
    _emit(out, args.json)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_campaign(args) -> int:
    """``cone``, ``ineq`` and ``campaign``; the suite comes from the parser."""
    started = time.perf_counter()
    results = campaigns.run_suite(
        args.suite, args.seed, args.dim, args.samples, _resolve_tol(args.tol, None)
    )
    failures = sum(r.failures for r in results)
    if len(results) == 1:
        out = results[0].to_dict()
    else:
        out = {
            "suite": "all",
            "seed": args.seed,
            "dimension": args.dim,
            "samples": args.samples,
            "checks": sum(r.checks for r in results),
            "failures": failures,
            "worst_slack": float(np.min([r.worst_slack for r in results])),
            "suites": [r.to_dict() for r in results],
        }
    out["wall_time"] = round(time.perf_counter() - started, 6)
    _emit(out, args.json)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _dim_arg(text: str) -> int:
    value = int(text)
    if not 2 <= value <= 16:
        raise argparse.ArgumentTypeError("dimension must lie in [2, 16]")
    return value


def _samples_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("samples must be >= 1")
    return value


def _add_common(p, dim_default=4, samples_default=50):
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument(
        "--dim", type=_dim_arg, default=dim_default, help="matrix dimension (2..16)"
    )
    p.add_argument(
        "--samples",
        type=_samples_arg,
        default=samples_default,
        help="instances to draw",
    )
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="residual tolerance override (beats MODKIT_TOL)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> _Parser:
    parser = _Parser(prog="modkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", parents=[], help="Schmidt data of vec(input)")
    p.add_argument("input", help="matrix JSON file, or - for stdin")
    p.add_argument(
        "--rank-tol", type=float, default=1e-10, help="cutoff for rank, coefficients"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("modular", help="relative modular data for two densities")
    p.add_argument("phi", help="density JSON file, or -")
    p.add_argument("omega", help="density JSON file (must be faithful), or -")
    # --t, --seed and --samples feed only --verify; given without it they are
    # usage errors, so they default to None (seed 0, 8 samples under --verify)
    p.add_argument("--t", type=float, action="append", help="flow times for --verify")
    p.add_argument("--verify", action="store_true", help="run Tomita-Takesaki checks")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=_samples_arg, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_modular)

    p = sub.add_parser("kms-verify", help="KMS boundary and centralizer checks")
    p.add_argument("omega", nargs="?", default=None, help="density JSON file")
    p.add_argument("--beta", type=float, default=1.0)
    # --dim sizes the random state only (4 when omitted); with a file it is
    # a usage error
    _add_common(p, dim_default=None)
    p.set_defaults(func=cmd_kms_verify)

    p = sub.add_parser("cone", help="natural positive cone property campaign")
    _add_common(p)
    p.set_defaults(func=cmd_campaign, suite="cone")

    p = sub.add_parser("ineq", help="trace inequality campaign")
    _add_common(p, samples_default=100)
    p.set_defaults(func=cmd_campaign, suite="inequalities")

    p = sub.add_parser("campaign", help="named verification campaign")
    p.add_argument(
        "--suite",
        default="all",
        help=f"one of {', '.join(campaigns.SUITE_NAMES)}",
    )
    _add_common(p, samples_default=100)
    p.set_defaults(func=cmd_campaign)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"modkit: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"modkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModkitError as exc:
        print(f"modkit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
