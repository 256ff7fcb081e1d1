"""modkit benchmark: closed-loop CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload campaign-d16 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 20 --record base.jsonl
    python3 bench/run.py --compare base.jsonl new.jsonl

Each run starts ``workload.py`` in a child process with ``src`` on
``PYTHONPATH`` and the BLAS thread count pinned to ``min(2, nproc)``. The
child calls ``modkit.cli.main`` in-process in a closed loop with one client
for ``--seconds`` and validates every report. With ``--trace 0`` this
script then times set-up in fresh interpreters and prints the end-to-end
metrics; with ``--trace 1`` the child runs the loop once untraced and once
traced, and this script prints the per-layer metrics and the tracing
overhead. The last stdout line is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.

``--record FILE`` appends each run, with its environment and per-op
latencies, to a JSON-lines file; ``--compare BASE NEW`` reads two such files and prints, per workload
and metric, both medians, their ratio and a verdict against the bound in
``BENCHMARK.json``. The comparison is a report, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("campaign-d16", "campaign-d4", "statepair-d16")
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops beyond it
TAIL_SEGMENTS = 5

# a fresh interpreter imports modkit and runs the minimal op of the workload
SETUP_SNIPPET = (
    "import json, sys\n"
    "from modkit.cli import main\n"
    "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n"
)


class BenchError(Exception):
    """The run cannot produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run(cmd: list[str], env: dict, deadline: float, **kwargs) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired as exc:  # run() kills and waits for the child
        raise BenchError(f"{cmd[1]} exceeded the time budget") from exc


def run_child(workload, seed, seconds, trace, env, workdir, deadline) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    if trace:
        out_dir = ROOT / ".bench-trace"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(out_dir / f"spans-{workload}-seed{seed}.tsv.gz")]
    proc = _run(cmd, env, deadline, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(argvs, env, deadline) -> list[float]:
    """Wall time of fresh interpreters that import modkit and run one minimal op."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, json.dumps(argvs)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = _run(cmd, env, deadline, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode not in (0, 1):
            raise BenchError(f"set-up op exited {proc.returncode}: {proc.stderr[-2000:]}")
    return times


def throughput(latencies: list[float]) -> float:
    """Closed-loop throughput: timed ops / their summed latency."""
    return len(latencies) / sum(latencies)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail latency.

    The timed ops are cut into TAIL_SEGMENTS consecutive segments of equal
    op count. In each, the tail is the highest percentile with TAIL_BEYOND
    ops beyond it; the median over segments is reported, so one slow stretch
    of the machine moves one segment, not the result.
    """
    n = len(latencies)
    values, percentiles = [], []
    for i in range(TAIL_SEGMENTS):
        segment = sorted(latencies[i * n // TAIL_SEGMENTS:(i + 1) * n // TAIL_SEGMENTS])
        k = max(len(segment) - TAIL_BEYOND - 1, 0)
        values.append(segment[k])
        percentiles.append(100.0 * (k + 1) / len(segment))
    return statistics.median(values), statistics.median(percentiles)


def end_to_end(child: dict, setup: list[float]) -> tuple[dict, str]:
    lat = child["latencies"]
    tail_s, tail_pct = tail(lat)
    checks = child["checks"]
    fail_ratio = child["check_failures"] / checks if checks else 0.0
    values = {
        "ops_per_s": throughput(lat),
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_ms_tail": 1e3 * tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
        "failed_ratio": child["failed"] / child["attempted"],
        "check_fail_ratio": fail_ratio,
        "check_pass_ratio": 1.0 - fail_ratio,
    }
    note = (f"op_ms_tail is the median of p{tail_pct:.1f} over {TAIL_SEGMENTS} segments "
            f"of {len(lat)} timed ops; "
            f"checks {child['check_failures']}/{checks} failed; "
            f"setup_s is the median of {len(setup)} fresh interpreters")
    return values, note


UNITS = {
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "fraction",
    "check_fail_ratio": "fraction",
    "check_pass_ratio": "fraction",
}


def environment(workload: str, seed: int, child: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "blas": child["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def run_workload(workload, seed, seconds, trace, spec, record) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        child = run_child(workload, seed, seconds, trace, env, workdir, deadline)
        setup = [] if trace else time_setup(child["setup_argvs"], env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"== {workload} (seed {seed}, {seconds:g} s, trace {trace})")
    for reason in child["reasons"]:
        print(f"failed: {reason}")
    if trace:
        values = child["per_layer"]
        declared = spec["per_layer"]
        untraced = throughput(child["latencies"])
        traced = throughput(child["traced_latencies"])
        print(f"tracing overhead: traced {traced:.3f} op/s vs untraced {untraced:.3f} op/s "
              f"(traced/untraced = {traced / untraced:.3f}); {child['spans']} spans")
        if child["missing"]:
            print(f"not found in modkit (reported as 0): {', '.join(child['missing'])}")
    else:
        values, note = end_to_end(child, setup)
        declared = spec["end_to_end"]
        for name, value in values.items():
            print(f"{name:<18} {value:14.6f} {UNITS[name]}")
        print(note)
    env_info = environment(workload, seed, child)
    print("env: " + json.dumps(env_info))

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"no value for declared metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if trace:
        for name, entry in metrics.items():
            print(f"{name:<42} {entry['value']:14.6f} {entry['unit']}")
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    if record is not None:
        with open(record, "a") as fh:
            fh.write(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                 "trace": trace, "env": env_info, "result": result,
                                 "latencies": child["latencies"]}) + "\n")
    print(json.dumps(result))
    return result


def _verdict(base, new, better, bound) -> str:
    """better: the gain rule; worse: median worse by more than the bound."""
    mb, mn = statistics.median(base), statistics.median(new)
    if mb == 0:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mn - mb) / mb
    if worse_by > bound:
        return "worse"
    if len(base) >= 2 and len(new) >= 2:
        q1, _, q3 = statistics.quantiles(base, n=4)
        wins = sum(sign * (b - n) > 0 for b, n in zip(base, new))
        if -worse_by * mb > q3 - q1 and wins >= 0.9 * min(len(base), len(new)):
            return "better"
    return "unresolved"


def compare(base_path: str, new_path: str, spec: dict) -> None:
    def load(path):
        runs: dict[tuple[str, str], list[float]] = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                for name, entry in rec["result"]["metrics"].items():
                    runs.setdefault((rec["workload"], name), []).append(entry["value"])
        return runs

    base, new = load(base_path), load(new_path)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':<15} {'metric':<42} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for workload, name in sorted(set(base) & set(new)):
        m = declared.get(name)
        if m is None:
            continue
        b, n = base[(workload, name)], new[(workload, name)]
        mb, mn = statistics.median(b), statistics.median(n)
        ratio = f"{mn / mb:9.3f}" if mb else f"{'-':>9}"
        verdict = _verdict(b, n, m["better"], m["bound"]) if "bound" in m else "-"
        print(f"{workload:<15} {name:<42} {mb:12.6g} {mn:12.6g} {ratio}  {verdict}"
              f"  ({len(b)} vs {len(n)} runs)")


def _terminate(signum, frame):
    # unwinding lets subprocess.run kill and reap the child and the work dir go
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, help="append each run to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), default=None)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            compare(*args.compare, spec)
            return 0
        if args.workload is None:
            ap.error("--workload is required unless --compare is given")
        if not (ROOT / "src" / "modkit" / "cli.py").is_file():
            raise BenchError(f"no modkit sources under {ROOT / 'src'}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            run_workload(name, args.seed, seconds, args.trace, spec, args.record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
