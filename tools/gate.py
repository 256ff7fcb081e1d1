"""Byte-identity gate: one fingerprint line per command of a fixed list.

Runs every command through ``modkit.cli.main`` in this process, with
whatever ``modkit`` is first on ``PYTHONPATH``, and prints for each

    <exit code> <sha256 of stdout> <sha256 of stderr> <argv>

where stdout is hashed with its ``wall_time`` line removed and the argv
shows the scratch directory of the run as ``$TMP``. Two trees agree when
their outputs are identical. The BLAS thread count is not an input of any
report, so the lines of one tree are the same at any thread count:

    PYTHONPATH=src python3 tools/gate.py > new.txt
    PYTHONPATH=../parent/src python3 tools/gate.py > old.txt
    cmp old.txt new.txt

``--dump DIR`` also writes each command's stdout, with ``wall_time``
removed, to ``DIR/NNNN.txt`` (NNNN its 0-based position in the list), so
that ``diff -r`` between two trees' dumps names the fields that changed;
the printed lines are the same with or without it. A dump is for line
diffs, not a JSON parser: where ``wall_time`` was the last field, the
line before it keeps its comma.

``--compare DIR_A DIR_B`` reads two such dump directories instead of
running anything. For each dump that differs it prints the index, the
command, the JSON fields that differ (a field of a list of objects as
``suites[i].field``) and the largest |a - b| / max(1, |a|) over the
numbers of those fields, then each changed field with its count of dumps
and its largest difference. It exits 1 when a dump exists on one side
only:

    python3 tools/gate.py --compare old-dump new-dump

The commands are fixed:

* ``campaign --suite all --samples 3 --json`` for seeds 0-19 at d = 2, 3,
  4, 5, 8 and 16, each also with ``--tol 1e-6`` and with
  ``MODKIT_TOL=1e-6`` (rounding differs most at small and odd d);
* the six CLI lines of the README, on the diag(0.75, 0.25) and
  diag(0.5, 0.5) payloads;
* the two commands of statepair-d16 ops 0-259 at bench seeds 0, 61 and
  62, taken from ``bench/workload.py``;
* ``modular phi omega --verify --json`` on 10 seeded random faithful pairs
  at each of d = 2, 3 and 5, whose Tomita-Takesaki flow residuals carry
  rounding at small and odd d (the commutant residuals read exactly zero
  at every d);
* ``kms-verify omega --json`` at each of d = 2, 4 and 16 on 5 seeded
  densities with exact eigenvalue blocks (seeded multiplicities, in a
  seeded unitary basis), then on two blocks 1e-6 apart, which pass, and
  1e-10 apart, inside the centralizer window, which exit 1 with their
  explanation on stderr. Every other ``kms-verify`` input has a simple
  spectrum, on which the commutant count cannot move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import runpy
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from modkit.cli import dump_matrix, main as modkit_main

ROOT = Path(__file__).resolve().parents[1]
WALL_TIME = re.compile(r'^\s*"?wall_time"?: .*\n?', re.MULTILINE)
DANGLING_COMMA = re.compile(r",(\s*[}\]])")
MISSING = object()


def _write_matrix(path: Path, m: np.ndarray) -> str:
    path.write_text(json.dumps(dump_matrix(m)))
    return str(path)


def _faithful_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """A full-rank density drawn with plain numpy, independent of modkit.sampling."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T + 1e-3 * np.eye(d)
    w = 0.5 * (w + w.conj().T)
    return w / np.real(np.trace(w))


def _blocked_density(rng: np.random.Generator, mults: list[int], gap: float) -> np.ndarray:
    """A density with eigenvalue blocks of sizes ``mults``, ``gap`` apart, in a
    unitary basis drawn with plain numpy, independent of modkit.sampling."""
    d = sum(mults)
    steps = np.repeat(np.arange(len(mults)), mults)
    vals = (1.0 - gap * steps.sum()) / d + gap * steps  # trace one, exact blocks
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return (u * vals) @ u.conj().T


def _multiplicities(rng: np.random.Generator, d: int) -> list[int]:
    """A seeded composition of d into block sizes."""
    mults = []
    while sum(mults) < d:
        mults.append(int(rng.integers(1, d - sum(mults) + 1)))
    return mults


def commands(tmp: Path):
    """(extra environment, argv) pairs, in order; payload files are written
    into ``tmp`` just before the commands that read them."""
    for d in (2, 3, 4, 5, 8, 16):
        for seed in range(20):
            argv = ["campaign", "--suite", "all", "--seed", str(seed), "--dim", str(d),
                    "--samples", "3", "--json"]
            yield {}, argv
            yield {}, argv + ["--tol", "1e-6"]
            yield {"MODKIT_TOL": "1e-6"}, argv

    phi = _write_matrix(tmp / "phi.json", np.diag([0.75, 0.25]))
    omega = _write_matrix(tmp / "omega.json", np.diag([0.5, 0.5]))
    for argv in (
        ["schmidt", phi, "--json"],
        ["modular", phi, omega, "--verify", "--json"],
        ["kms-verify", "--dim", "4", "--beta", "2.0", "--samples", "20", "--seed", "7", "--json"],
        ["cone", "--dim", "4", "--samples", "50", "--seed", "7", "--json"],
        ["ineq", "--dim", "4", "--samples", "100", "--seed", "7", "--json"],
        ["campaign", "--suite", "all", "--seed", "42", "--dim", "4", "--samples", "100", "--json"],
    ):
        yield {}, argv

    workload = runpy.run_path(str(ROOT / "bench" / "workload.py"))["WORKLOADS"]["statepair-d16"]
    pairs = tmp / "statepair"
    pairs.mkdir()
    for seed in (0, 61, 62):
        for i in range(260):
            for argv in workload.op(seed, i, pairs).argvs:
                yield {}, argv

    for d in (2, 3, 5):
        for seed in range(10):
            rng = np.random.default_rng([d, seed])
            phi = _write_matrix(tmp / f"phi-{d}-{seed}.json", _faithful_density(rng, d))
            omega = _write_matrix(tmp / f"omega-{d}-{seed}.json", _faithful_density(rng, d))
            yield {}, ["modular", phi, omega, "--verify", "--json"]

    for d in (2, 4, 16):
        densities = []
        for seed in range(5):
            rng = np.random.default_rng([d, seed, 1])
            # d^-2 apart: every level stays positive for any block sizes
            densities.append((f"blocks-{seed}", _blocked_density(rng, _multiplicities(rng, d), d ** -2)))
        halves = [d // 2, d - d // 2]
        for gap in (1e-6, 1e-10):
            densities.append((f"gap-{gap:g}", _blocked_density(np.random.default_rng([d, 7]), halves, gap)))
        for name, m in densities:
            yield {}, ["kms-verify", _write_matrix(tmp / f"kms-{d}-{name}.json", m), "--json"]


def run(env: dict, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command, with ``env`` set for it."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = modkit_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def shown(env: dict, argv: list[str], tmp: Path) -> str:
    """The command as a line prints it: environment, argv, ``$TMP`` for ``tmp``."""
    words = [f"{key}={value}" for key, value in env.items()] + argv
    return " ".join(words).replace(str(tmp), "$TMP")


def fingerprint(env: dict, argv: list[str], code: int, out: str, err: str, tmp: Path) -> str:
    return f"{code} {_sha(WALL_TIME.sub('', out))} {_sha(err)} {shown(env, argv, tmp)}"


def _fields(obj, name: str = ""):
    """(field, value) pairs of a report; a list of objects is walked as
    ``name[i].field``, any other list is one value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _fields(value, f"{name}.{key}" if name else key)
    elif isinstance(obj, list) and obj and all(isinstance(x, dict) for x in obj):
        for i, value in enumerate(obj):
            yield from _fields(value, f"{name}[{i}]")
    else:
        yield name, obj


def _report(text: str) -> dict:
    """A dumped stdout as {field: value}; one that is not JSON is one field."""
    try:  # without wall_time, the field before it may keep its comma
        return dict(_fields(json.loads(DANGLING_COMMA.sub(r"\1", text))))
    except json.JSONDecodeError:
        return {"stdout": text}


def _numbers(value) -> list[float]:
    values = value if isinstance(value, list) else [value]
    return [v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]


def _largest_difference(a, b) -> float:
    """max |a - b| / max(1, |a|) over paired numbers; 0 if they do not pair."""
    xs, ys = _numbers(a), _numbers(b)
    if len(xs) != len(ys):
        return 0.0
    return max((abs(x - y) / max(1.0, abs(x)) for x, y in zip(xs, ys)), default=0.0)


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print the dumps of two ``--dump`` directories that differ; 1 if a dump
    exists on one side only, else 0."""
    in_a, in_b = ({p.name for p in d.glob("*.txt")} for d in (dir_a, dir_b))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        listed = [shown(env, argv, tmp) for env, argv in commands(tmp)]
    status = 0
    groups: dict[str, list] = {}  # field -> [dumps, largest difference]
    for dump in sorted(in_a | in_b):
        index = int(Path(dump).stem)
        command = listed[index] if index < len(listed) else "?"
        if dump not in in_a or dump not in in_b:
            print(f"{index:04d} {command}: only in {dir_a if dump in in_a else dir_b}")
            status = 1
            continue
        a, b = (_report((d / dump).read_text()) for d in (dir_a, dir_b))
        changed = [f for f in {**a, **b} if a.get(f, MISSING) != b.get(f, MISSING)]
        if not changed:
            continue
        largest = 0.0
        for field in changed:
            diff = _largest_difference(a.get(field), b.get(field))
            largest = max(largest, diff)
            group = groups.setdefault(field, [0, 0.0])
            group[0] += 1
            group[1] = max(group[1], diff)
        print(f"{index:04d} {command}: {', '.join(changed)}; "
              f"largest |a - b| / max(1, |a|) {largest:.3g}")
    for field, (count, largest) in groups.items():
        print(f"{field}: {count} dumps, largest {largest:.3g}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each stdout, without wall_time, to DIR/NNNN.txt")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="print the dumps of two --dump directories that differ")
    args = parser.parse_args(argv)
    if args.compare is not None:
        return compare(*args.compare)
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for i, (env, command) in enumerate(commands(tmp)):
            code, out, err = run(env, command)
            if args.dump is not None:
                (args.dump / f"{i:04d}.txt").write_text(WALL_TIME.sub("", out))
            print(fingerprint(env, command, code, out, err, tmp), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
