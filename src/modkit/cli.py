"""Command line front end.

Subcommands: ``schmidt``, ``modular``, ``kms-verify``, ``cone``, ``ineq``,
``campaign``. Matrices travel as JSON objects with fields (in this order)
``rows``, ``cols``, ``data``, where rows and cols are JSON integers and
data is a row-major list of ``[re, im]`` pairs of JSON numbers (booleans
are neither); ``-`` reads the payload from stdin.

Exit codes: 0 all checks pass, 1 checks ran but failed, 2 payload parse
error (unreadable, undecodable, too deeply nested or malformed), 3 domain
error (singular state, bad shapes, non-PSD input, a state file beyond
16 x 16, a ``--beta`` that is not a finite number > 0 or whose energies
overflow), 4 usage error (bad flags, unknown suite, a negative
``--seed``, a non-finite ``--t``, a flag the command would ignore:
``modular``'s ``--t``, ``--samples`` or ``--seed`` without ``--verify``,
``kms-verify``'s ``--dim`` with a state file, ``ineq``'s ``--tol``).

Every command judges each check family against its own bound, unless
``--tol`` or the environment variable ``MODKIT_TOL`` is given (the flag
beats the environment): that value then replaces the bound of every
residual and yes/no family the command evaluates. It moves residual
verdicts and every such margin, but no yes/no verdict: a passing yes/no
check reports the bound in use as its margin, and the value it judges
(a cone membership, say) is computed at a fixed floor. An inequality
report keeps its own relative floor, which is why ``ineq`` takes no
``--tol``.
The override must be a finite number > 0, else the run is a usage
error.

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
from types import SimpleNamespace

import numpy as np

from . import campaigns, schmidt
from .errors import ModkitError, ParseError, ShapeMismatch, UsageError
from .kms import (
    centralizer_dimension,
    centralizer_window,
    commutant_dimension,
    gibbs_hamiltonian,
    probe_pairs,
    time_grid,
)
from .sampling import complex_gaussian_stack, random_faithful_density
from .schmidt import is_cyclic_separating, schmidt_decompose
from .states import FAITHFUL_RTOL, DensityMatrix
from .vecops import MAX_DIM, vec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 4

# kms-verify evaluates its probe pairs in blocks of as many as keep one
# (pairs, d, d) and one (pairs, times) complex array together within this
# many bytes, at least one (kms_block_pairs): on the 5 times, 125 at d = 16,
# 1560 at d = 4 and 3640 at d = 2. The block is the one memory bound of the
# KMS path: modkit.kms holds a few arrays of each shape per block (V* A V,
# V* B V and the weights of each trace; the two sides and the difference of
# each defect) and takes each (probe, time) value as one dot product, so no
# array holds a d x d matrix per pair and time. The default 50 pairs at
# d = 16 take one block call. The block size never moves an output: stacked
# defects equal the per-probe ones.
KMS_BLOCK_BYTES = 512 * 1024


def kms_block_pairs(d: int, times: int) -> int:
    """Probe pairs in one kms-verify block at dimension ``d`` on ``times`` times."""
    return max(1, KMS_BLOCK_BYTES // (16 * (d * d + times)))


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with the documented code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_matrix(source: str) -> np.ndarray:
    """Read a {rows, cols, data} JSON payload from a path or stdin ('-')."""
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, encoding="utf-8") as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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


def _resolve_tol(flag_value: float | None) -> float | None:
    """Flag beats MODKIT_TOL; None without either (each family's own bound)."""
    if flag_value is not None:
        source, value = "--tol", flag_value
    elif "MODKIT_TOL" in os.environ:
        source, value = "MODKIT_TOL", os.environ["MODKIT_TOL"]
    else:
        return None
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"{source} must be a finite number > 0, got {value!r}")
    return tol


def _load_density(source: str) -> DensityMatrix:
    """The density of a state file; beyond MAX_DIM x MAX_DIM a ShapeMismatch."""
    m = load_matrix(source)
    if max(m.shape) > MAX_DIM:
        raise ShapeMismatch(
            f"state files are limited to {MAX_DIM} x {MAX_DIM}, got {m.shape[0]} x {m.shape[1]}"
        )
    return DensityMatrix(m)


def cmd_schmidt(args) -> int:
    # the chained comparison is False for NaN too
    if not 0.0 < args.rank_tol < 1.0:
        raise UsageError(
            f"--rank-tol must be a finite number in (0, 1), got {args.rank_tol!r}"
        )
    m = load_matrix(args.input)
    u = vec(m)
    data = schmidt_decompose(u, rank_tol=args.rank_tol)
    verdict = bool(is_cyclic_separating(u)) if u.dim_left == u.dim_right else None
    out = {
        "dims": [u.dim_left, u.dim_right],
        "rank": data.rank,
        "coefficients": [round(float(c), 12) for c in data.coefficients],
        "cyclic_separating": verdict,
    }
    if verdict is not None and (data.rank == u.dim_left) != verdict:
        # the rank cuts s at rank_tol * s_max, faithfulness s^2 at FAITHFUL_RTOL * s_max^2
        sigma = np.linalg.svd(m, compute_uv=False)
        print(f"modkit: Schmidt rank {data.rank} of {u.dim_left} but cyclic_separating "
              f"{str(verdict).lower()}: smallest Schmidt ratio {sigma[-1] / sigma[0]:.3g}, rank "
              f"cutoff {args.rank_tol:.3g}, faithfulness cutoff {math.sqrt(FAITHFUL_RTOL):.3g}, "
              "each relative to the largest coefficient", file=sys.stderr)
    _emit(out, args.json)
    return EXIT_OK


def cmd_modular(args) -> int:
    if not args.verify and (args.t, args.samples, args.seed) != (None, None, None):
        raise UsageError("--t, --samples and --seed only apply with --verify")
    tol = _resolve_tol(args.tol)
    if args.t and not all(map(math.isfinite, args.t)):
        raise UsageError(f"--t must be finite, got {args.t}")
    phi = _load_density(args.phi)
    omega = _load_density(args.omega)
    probes, times = [], []
    if args.verify:
        rng = np.random.default_rng(0 if args.seed is None else args.seed)
        count = 8 if args.samples is None else args.samples
        probes = complex_gaussian_stack(rng, count, omega.dim)
        times = args.t if args.t else [0.3, 1.0, 2.7]
    pair = campaigns.modular_instance(phi, omega, probes, times)
    # spec(A (x) B) = {a_i b_j}: Delta's spectrum from its two d x d factors
    left, right = (np.linalg.eigvalsh(f) for f in pair.delta.factors)
    spectrum = np.sort(np.outer(left, right).ravel())
    checks = campaigns.evaluate(campaigns.MODULAR_CROSS_ROUTE, pair, tol)
    out = {
        "dimension": omega.dim,
        "delta_spectrum": [round(float(v), 12) for v in spectrum],
        "cross_route_residual": float(checks[0].value),
        "polar_residual": float(checks[1].value),
        "tolerance": campaigns.MODULAR_CROSS_ROUTE.bound(tol),
    }
    if args.verify:
        tt = campaigns.evaluate(campaigns.TOMITA_TAKESAKI, pair, tol)
        out["tt_max_commutant_residual"] = tt[0].value
        out["tt_max_flow_residual"] = tt[1].value
        out["tt_passed"] = all(c.passed for c in tt)
        checks += tt
    out["passed"] = all(c.passed for c in checks)
    _emit(out, args.json)
    return EXIT_OK if out["passed"] else EXIT_FAIL


def cmd_kms_verify(args) -> int:
    if args.omega is not None and args.dim is not None:
        raise UsageError("--dim applies only without a state file")
    tol = _resolve_tol(args.tol)
    rng = np.random.default_rng(args.seed)
    if args.omega is not None:
        density = _load_density(args.omega)
    else:
        density = random_faithful_density(rng, 4 if args.dim is None else args.dim)
    sys_ = gibbs_hamiltonian(density, args.beta)

    grid = time_grid(sys_, campaigns.KMS_TIMES)
    per_block = kms_block_pairs(density.dim, len(grid.t))
    boundaries, invariances = [], []
    for start in range(0, args.samples, per_block):
        count = min(per_block, args.samples - start)
        # drawn a_0, b_0, a_1, b_1, ... as one probe pair at a time would be
        probes = complex_gaussian_stack(rng, 2 * count, density.dim)
        block = SimpleNamespace(pairs=probe_pairs(grid, probes[0::2], probes[1::2]))
        boundaries += campaigns.evaluate(campaigns.KMS_BOUNDARY, block, tol)
        invariances += campaigns.evaluate(campaigns.KMS_INVARIANCE, block, tol)
    if not all(c.passed for c in boundaries):
        # the phases t (E_j - E_k) grow as 1 / beta, and so does their rounding
        scale = float(np.max(np.abs(grid.t)) * np.ptp(sys_.energies))
        print(f"modkit: KMS boundary defect at beta {args.beta:.3g}: largest phase "
              f"|t (E_j - E_k)| over the time grid {scale:.3g}, times eps "
              f"{scale * np.finfo(float).eps:.3g}", file=sys.stderr)

    counts = SimpleNamespace(
        centralizer=centralizer_dimension(density), commutant=commutant_dimension(density)
    )
    routes = campaigns.evaluate(campaigns.KMS_CENTRALIZER_ROUTES, counts, tol)
    if counts.centralizer != counts.commutant:
        gap, threshold, cutoff = centralizer_window(density)
        print(f"modkit: centralizer dimension {counts.centralizer} != commutant dimension "
              f"{counts.commutant}: smallest eigenvalue gap of D {gap:.3g}, grouping "
              f"threshold {threshold:.3g}, null cutoff {cutoff:.3g}", file=sys.stderr)
    out = {
        "dimension": density.dim,
        "beta": args.beta,
        "samples": args.samples,
        # np.max propagates NaN, which the builtin max(0.0, nan) drops
        "max_boundary_defect": float(np.max([c.value for c in boundaries])),
        "max_invariance_defect": float(np.max([c.value for c in invariances])),
        "centralizer_dimension": counts.centralizer,
        "commutant_dimension": counts.commutant,
        "tolerance": campaigns.KMS_BOUNDARY.bound(tol),
        "passed": all(c.passed for c in boundaries + invariances + routes),
    }
    _emit(out, args.json)
    return EXIT_OK if out["passed"] else EXIT_FAIL


def cmd_campaign(args) -> int:
    """``cone``, ``ineq`` and ``campaign``; the suite comes from the parser."""
    started = time.perf_counter()
    results = campaigns.run_suite(
        args.suite, args.seed, args.dim, args.samples, _resolve_tol(args.tol)
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
    if not 2 <= value <= MAX_DIM:
        raise argparse.ArgumentTypeError(f"dimension must lie in [2, {MAX_DIM}]")
    return value


def _seed_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _samples_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("samples must be >= 1")
    return value


def _add_common(p, dim_default=4, samples_default=50, tol=True):
    p.add_argument("--seed", type=_seed_arg, default=0, help="RNG seed (>= 0)")
    p.add_argument(
        "--dim", type=_dim_arg, default=dim_default, help="matrix dimension (2..16)"
    )
    p.add_argument(
        "--samples", type=_samples_arg, default=samples_default, help="instances to draw"
    )
    if tol:
        p.add_argument(
            "--tol", type=float, default=None, help="residual tolerance override (beats MODKIT_TOL)"
        )
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> _Parser:
    parser = _Parser(prog="modkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", parents=[], help="Schmidt data of vec(input)")
    p.add_argument("input", help="matrix JSON file, or - for stdin")
    p.add_argument(
        "--rank-tol", type=float, default=schmidt.RANK_RTOL, help="cutoff for rank, coefficients"
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
    p.add_argument("--seed", type=_seed_arg, default=None)
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

    # each inequality is judged against its own relative floor, so ineq
    # takes no --tol: it would never move a verdict
    p = sub.add_parser("ineq", help="trace inequality campaign")
    _add_common(p, samples_default=100, tol=False)
    p.set_defaults(func=cmd_campaign, suite="inequalities", tol=None)

    p = sub.add_parser("campaign", help="named verification campaign")
    p.add_argument("--suite", default="all", help=f"one of {', '.join(campaigns.SUITE_NAMES)}")
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
