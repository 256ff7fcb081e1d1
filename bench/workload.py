"""Workload process: a closed loop with one client over ``modkit.cli.main``.

Started by ``run.py`` with the BLAS thread count pinned and ``src`` on
``PYTHONPATH``. Each operation calls ``modkit.cli.main(argv)`` in this
process, captures stdout and validates the report. Inputs come only from
the workload seed: operation ``i`` uses a seed derived from
``(workload, seed, i)``. The last stdout line is one JSON object that
``run.py`` turns into metrics.

An operation fails if it raises, its exit code disagrees with its report,
its output is not strict JSON (``NaN``/``Infinity`` rejected), its check
count is not the one expected for (suite, d, samples), or a same-seed
replay gives a different report apart from ``wall_time``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# captured before tracing wraps numpy, so the benchmark's own reference
# computations never show up in the numpy.* layer counts
_EIGVALSH = np.linalg.eigvalsh

# counts per suite for n samples, as the campaign suites define them
SUITE_CHECKS = {
    "vec": lambda n: 7 * n,
    "modular": lambda n: 9 * n,
    "kms": lambda n: 4 * n + (n + 4) // 5,
    "cone": lambda n: 7 * n,
    "inequalities": lambda n: 16 * n,
}
# every phase times at least this many ops; the layer counts of a traced
# phase come from its first MIN_OPS ops
MIN_OPS = 3
SPAN_BUDGET = 1_000_000  # a traced phase stops early at this many spans


class OpFailure(Exception):
    """An operation whose output fails validation."""


def op_seed(workload: str, seed: int, i: int) -> int:
    digest = hashlib.blake2b(f"{workload}:{seed}:{i}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def strict_json(text: str) -> dict:
    def reject(token):
        raise OpFailure(f"report holds the non-JSON constant {token}")

    try:
        obj = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise OpFailure(f"report is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise OpFailure("report is not a JSON object")
    return obj


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OpFailure(message)


def _field(rep: dict, key: str, kind):
    _require(key in rep, f"report lacks {key!r}")
    value = rep[key]
    ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    _require(ok, f"{key!r} has type {type(value).__name__}")
    return value


def _exit_matches(rc: int, passed: bool, what: str) -> None:
    _require(rc == (0 if passed else 1), f"{what}: exit code {rc} but passed={passed}")


@dataclass
class Op:
    argvs: list[list[str]]
    reference: dict = field(default_factory=dict)


class CampaignWorkload:
    """``campaign --suite all --dim d --samples n`` with a fresh seed per op."""

    def __init__(self, name: str, dim: int, samples: int):
        self.name, self.dim, self.samples = name, dim, samples

    def _argv(self, seed: int, samples: int) -> list[str]:
        return ["campaign", "--suite", "all", "--seed", str(seed), "--dim",
                str(self.dim), "--samples", str(samples), "--json"]

    def op(self, seed: int, i: int, workdir: Path) -> Op:
        s = op_seed(self.name, seed, i)
        return Op([self._argv(s, self.samples)], {"seed": s})

    def setup_argvs(self, seed: int, workdir: Path) -> list[list[str]]:
        return [self._argv(op_seed(self.name, seed, 0), 1)]

    def validate(self, op: Op, codes: list[int], reports: list[dict]) -> tuple[int, int]:
        (rc,), (rep,) = codes, reports
        n = self.samples
        _require(rep.get("suite") == "all", "report is not the 'all' suite")
        _require(_field(rep, "seed", int) == op.reference["seed"], "wrong seed")
        _require(_field(rep, "dimension", int) == self.dim, "wrong dimension")
        _require(_field(rep, "samples", int) == n, "wrong sample count")
        checks = _field(rep, "checks", int)
        failures = _field(rep, "failures", int)
        _field(rep, "worst_slack", (int, float))
        expected = sum(fn(n) for fn in SUITE_CHECKS.values())
        _require(checks == expected, f"checks {checks} != expected {expected}")
        _require(0 <= failures <= checks, f"failures {failures} out of range")
        suites = _field(rep, "suites", list)
        names = [s.get("suite") if isinstance(s, dict) else None for s in suites]
        _require(names == list(SUITE_CHECKS), f"suites {names}")
        for sub in suites:
            want = SUITE_CHECKS[sub["suite"]](n)
            _require(_field(sub, "checks", int) == want, f"{sub['suite']} checks != {want}")
            _field(sub, "worst_slack", (int, float))
        _require(sum(s["checks"] for s in suites) == checks, "suite checks do not sum")
        _require(sum(_field(s, "failures", int) for s in suites) == failures,
                 "suite failures do not sum")
        _exit_matches(rc, failures == 0, "campaign")
        return checks, failures


def _faithful_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    w = g @ g.conj().T + 1e-3 * np.eye(d)
    w = 0.5 * (w + w.conj().T)
    return w / np.real(np.trace(w))


def _write_payload(path: Path, m: np.ndarray) -> None:
    data = [[float(z.real), float(z.imag)] for z in m.ravel()]
    path.write_text(json.dumps({"rows": m.shape[0], "cols": m.shape[1], "data": data}))


class StatePairWorkload:
    """One seeded pair of faithful densities feeds many probe operators.

    Per op: ``modular phi omega --verify`` with ``verify_samples`` probes
    and ``kms-verify omega`` with its default probe count.
    """

    KMS_SAMPLES = 50  # the kms-verify default

    def __init__(self, name: str, dim: int, verify_samples: int):
        self.name, self.dim, self.verify_samples = name, dim, verify_samples

    def _pair(self, seed: int, i: int, workdir: Path, prefix: str):
        s = op_seed(self.name, seed, i)
        rng = np.random.default_rng(s)
        phi, omega = _faithful_density(rng, self.dim), _faithful_density(rng, self.dim)
        paths = workdir / f"{prefix}phi.json", workdir / f"{prefix}omega.json"
        for path, m in zip(paths, (phi, omega)):
            _write_payload(path, m)
        return s, phi, omega, [str(p) for p in paths]

    def _argvs(self, s, paths, verify_samples, kms_samples):
        return [
            ["modular", *paths, "--verify", "--samples", str(verify_samples),
             "--seed", str(s), "--json"],
            ["kms-verify", paths[1], "--samples", str(kms_samples), "--seed", str(s),
             "--json"],
        ]

    def op(self, seed: int, i: int, workdir: Path) -> Op:
        s, phi, omega, paths = self._pair(seed, i, workdir, "")
        lam, mu = _EIGVALSH(phi), _EIGVALSH(omega)
        # independent reference: spec(Delta) = {lambda_i / mu_j}
        spectrum = np.sort(np.outer(lam, 1.0 / mu).ravel())
        return Op(self._argvs(s, paths, self.verify_samples, self.KMS_SAMPLES),
                  {"spectrum": spectrum})

    def setup_argvs(self, seed: int, workdir: Path) -> list[list[str]]:
        s, _, _, paths = self._pair(seed, 0, workdir, "setup-")
        return self._argvs(s, paths, 1, 1)

    def validate(self, op: Op, codes: list[int], reports: list[dict]) -> tuple[int, int]:
        (rc_mod, rc_kms), (mod, kms) = codes, reports
        d = self.dim
        tol = _field(mod, "tolerance", (int, float))
        _require(_field(mod, "dimension", int) == d, "modular: wrong dimension")
        spectrum = _field(mod, "delta_spectrum", list)
        _require(len(spectrum) == d * d, "modular: spectrum length")
        ref = op.reference["spectrum"]
        got = np.array(spectrum, dtype=float)
        _require(bool(np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))),
                 "modular: Delta spectrum disagrees with lambda_i / mu_j")
        comm = _field(mod, "tt_max_commutant_residual", (int, float))
        flow = _field(mod, "tt_max_flow_residual", (int, float))
        tt_passed = _field(mod, "tt_passed", bool)
        _require(tt_passed == (comm < tol and flow < tol), "modular: tt_passed inconsistent")
        flags = [
            _field(mod, "cross_route_residual", (int, float)) < tol,
            _field(mod, "polar_residual", (int, float)) < tol,
            tt_passed,
        ]
        passed = _field(mod, "passed", bool)
        _require(passed == all(flags), "modular: passed inconsistent with its checks")
        _exit_matches(rc_mod, passed, "modular")

        ktol = _field(kms, "tolerance", (int, float))
        _require(_field(kms, "dimension", int) == d, "kms-verify: wrong dimension")
        _require(_field(kms, "samples", int) == self.KMS_SAMPLES, "kms-verify: samples")
        centralizer = _field(kms, "centralizer_dimension", int)
        commutant = _field(kms, "commutant_dimension", int)
        # a random faithful density has a simple spectrum: both dimensions are d
        _require(commutant == d, f"kms-verify: commutant dimension {commutant} != {d}")
        kflags = [
            _field(kms, "max_boundary_defect", (int, float)) < ktol,
            _field(kms, "max_invariance_defect", (int, float)) < 1e-12,
            centralizer == commutant,
        ]
        kpassed = _field(kms, "passed", bool)
        _require(kpassed == all(kflags), "kms-verify: passed inconsistent with its checks")
        _exit_matches(rc_kms, kpassed, "kms-verify")
        all_flags = flags + kflags
        return len(all_flags), all_flags.count(False)


WORKLOADS = {
    "campaign-d16": CampaignWorkload("campaign-d16", dim=16, samples=1),
    "campaign-d4": CampaignWorkload("campaign-d4", dim=4, samples=10),
    "statepair-d16": StatePairWorkload("statepair-d16", dim=16, verify_samples=4),
}


def call_cli(main, argvs: list[list[str]]) -> tuple[list[int], list[str]]:
    """Run the commands of one op in-process; returns exit codes and stdouts."""
    codes, outs = [], []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
        outs.append(out.getvalue())
    return codes, outs


def _strip_wall_time(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "wall_time"}


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    check_failures: int = 0
    reasons: list[str] = field(default_factory=list)
    kept: dict[int, list[dict]] = field(default_factory=dict)

    def fail(self, i: int, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"op {i}: {reason}")


def run_op(main, workload, seed, i, workdir, phase, tracer=None, timed=True):
    """Run and validate op i; returns its reports (None if it failed)."""
    op = workload.op(seed, i, workdir)
    if tracer is not None:
        tracer.begin_op(i)
    phase.attempted += 1
    start = time.perf_counter()
    try:
        codes, outs = call_cli(main, op.argvs)
    except Exception as exc:  # a raising operation is a failed operation
        phase.fail(i, f"raised {type(exc).__name__}: {exc}")
        return None
    finally:
        if timed:
            phase.latencies.append(time.perf_counter() - start)
    try:
        reports = [strict_json(text) for text in outs]
        checks, failures = workload.validate(op, codes, reports)
    except OpFailure as exc:
        phase.fail(i, str(exc))
        return None
    except (KeyError, TypeError, ValueError) as exc:
        phase.fail(i, f"malformed report: {type(exc).__name__}: {exc}")
        return None
    phase.checks += checks
    phase.check_failures += failures
    return reports


def run_phase(main, workload, seed, seconds, workdir, tracer=None) -> Phase:
    """Closed loop for ``seconds``; op 0 is an untimed warm-up when untraced.

    A traced phase also stops at SPAN_BUDGET spans, which bounds its memory.
    Keeps the reports of the warm-up and the last op for :func:`replay`.
    """
    phase = Phase()
    i = 0
    if tracer is None:
        phase.kept[0] = run_op(main, workload, seed, 0, workdir, phase, timed=False)
        i = 1
    reports = None
    start = time.perf_counter()
    def more() -> bool:
        if len(phase.latencies) < MIN_OPS:
            return True
        in_budget = tracer is None or len(tracer) < SPAN_BUDGET
        return in_budget and time.perf_counter() - start < seconds

    while more():
        reports = run_op(main, workload, seed, i, workdir, phase, tracer)
        i += 1
    phase.kept[i - 1] = reports
    return phase


def replay(main, workload, seed, workdir, phase) -> None:
    """Run kept ops again with the same seed; reports must be identical."""
    for i, reports in sorted(phase.kept.items()):
        if reports is None:
            continue
        scratch = Phase()
        again = run_op(main, workload, seed, i, workdir, scratch, timed=False)
        phase.attempted += 1
        if again is None:
            phase.fail(i, f"replay failed: {scratch.reasons}")
        elif [_strip_wall_time(r) for r in again] != [_strip_wall_time(r) for r in reports]:
            phase.fail(i, "replay with the same seed gave a different report")


def blas_info() -> str:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parents[1] / "src"
    import modkit
    from modkit import cli

    if Path(modkit.__file__).resolve().parent.parent != src:
        print(f"modkit imported from {modkit.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    # a traced run splits its time between an untraced and a traced phase
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = run_phase(cli.main, workload, args.seed, seconds, args.workdir)
    replay(cli.main, workload, args.seed, args.workdir, phase)
    out = {
        "latencies": phase.latencies,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "reasons": phase.reasons,
        "checks": phase.checks,
        "check_failures": phase.check_failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_argvs": workload.setup_argvs(args.seed, args.workdir),
        "numpy": np.__version__,
        "blas": blas_info(),
    }

    if args.trace:
        from tracing import Tracer, install, per_layer_metrics, write_spans

        tracer = Tracer()
        install(tracer)
        traced = run_phase(cli.main, workload, args.seed, seconds, args.workdir, tracer)
        ops = len(traced.latencies)
        out["traced_latencies"] = traced.latencies
        out["attempted"] += traced.attempted
        out["failed"] += traced.failed
        out["reasons"] += traced.reasons
        out["per_layer"] = per_layer_metrics(tracer, ops, MIN_OPS)
        out["spans"] = len(tracer)
        out["missing"] = tracer.missing
        if args.spans_out is not None:
            write_spans(tracer, args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
