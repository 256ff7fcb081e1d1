import itertools
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

GATE = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "gate.py"))


def test_gate_command_list_is_fixed(tmp_path):
    listed = list(GATE["commands"](tmp_path))
    # 20 seeds x 6 dimensions x 3 tolerance settings, 6 README lines,
    # 2 commands for each of 260 statepair ops at 3 bench seeds,
    # 10 random state pairs at each of 3 small dimensions,
    # 7 kms-verify state files at each of 3 dimensions
    assert len(listed) == 360 + 6 + 1560 + 30 + 21
    assert sum(env == {"MODKIT_TOL": "1e-6"} for env, _ in listed) == 120
    assert sum("--tol" in argv for _, argv in listed) == 120
    assert sorted({int(argv[6]) for _, argv in listed[:360]}) == [2, 3, 4, 5, 8, 16]
    assert [argv[0] for _, argv in listed[360:366]] == [
        "schmidt", "modular", "kms-verify", "cone", "ineq", "campaign"
    ]
    statepair = [argv for _, argv in listed[366:1926]]
    assert [argv[0] for argv in statepair[:2]] == ["modular", "kms-verify"]
    assert all(str(tmp_path) in argv[1] for argv in statepair)
    pairs = [argv for _, argv in listed[1926:1956]]
    assert all(argv[0] == "modular" and argv[3:] == ["--verify", "--json"] for argv in pairs)
    assert len({(argv[1], argv[2]) for argv in pairs}) == 30
    states = [argv for _, argv in listed[1956:]]
    assert all(argv[0] == "kms-verify" and argv[2:] == ["--json"] for argv in states)
    assert len({argv[1] for argv in states}) == 21


def test_gate_kms_verify_states_span_the_centralizer_window(tmp_path):
    # exact blocks and a 1e-6 gap pass; a 1e-10 gap, inside the window
    # between the two routes' cutoffs, fails and says why on stderr
    states = [argv for _, argv in GATE["commands"](tmp_path)][1956:]
    for d, group in zip((2, 4, 16), (states[0:7], states[7:14], states[14:21])):
        results = [GATE["run"]({}, argv) for argv in group]
        reports = [json.loads(out) for _, out, _ in results]
        assert all(r["dimension"] == d for r in reports)
        assert [code for code, _, _ in results] == [0] * 6 + [1]
        assert all(err == "" for _, _, err in results[:6])
        assert "centralizer dimension" in results[6][2]
        # at least one seeded state has a block of size 2 or more
        assert any(r["centralizer_dimension"] > d for r in reports[:5])


def test_gate_fingerprint_ignores_wall_time_and_the_scratch_directory(tmp_path, monkeypatch):
    monkeypatch.delenv("MODKIT_TOL", raising=False)
    env = {"MODKIT_TOL": "1e-6"}
    argv = ["campaign", "--suite", "vec", "--dim", "2", "--samples", "1", "--json"]
    lines = set()
    for tmp in (tmp_path / "a", tmp_path / "b"):
        code, out, err = GATE["run"](env, argv)
        assert '"wall_time"' in out and "MODKIT_TOL" not in os.environ
        lines.add(GATE["fingerprint"](env, [*argv, f"{tmp}/x"], code, out, err, tmp))
    (line,) = lines
    assert line.startswith("0 ")
    assert line.endswith(" MODKIT_TOL=1e-6 " + " ".join(argv) + " $TMP/x")


def _dump(directory, reports):
    """Reports as ``--dump`` writes them: wall_time removed, its comma left."""
    directory.mkdir()
    for i, report in enumerate(reports):
        out = json.dumps({**report, "wall_time": 0.1}, indent=2) + "\n"
        (directory / f"{i:04d}.txt").write_text(GATE["WALL_TIME"].sub("", out))


def test_gate_compare_names_the_changed_field(tmp_path, capsys):
    vec, modular = {"suite": "vec", "worst_slack": 0.5}, {"suite": "modular", "worst_slack": 2.0}
    report = {"suite": "all", "checks": 130, "suites": [vec, modular]}
    changed = {**report, "suites": [vec, {**modular, "worst_slack": 2.5}]}
    _dump(tmp_path / "a", [report, report])
    _dump(tmp_path / "b", [report, changed])
    assert GATE["main"](["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    line, summary = capsys.readouterr().out.splitlines()
    # dump 1 is the second campaign command, the d = 2 seed 0 run with --tol
    assert line == ("0001 campaign --suite all --seed 0 --dim 2 --samples 3 --json --tol 1e-6: "
                    "suites[1].worst_slack; largest |a - b| / max(1, |a|) 0.25")
    assert summary == "suites[1].worst_slack: 1 dumps, largest 0.25"


def test_gate_compare_fails_on_a_dump_present_on_one_side(tmp_path, capsys):
    report = {"suite": "all", "checks": 130}
    _dump(tmp_path / "a", [report, report])
    _dump(tmp_path / "b", [report])
    assert GATE["main"](["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("0001 campaign --suite all") and f"only in {tmp_path / 'a'}" in out


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # statepair-d16's first op at bench seed 0: its S*S and polar residuals
    # sum d^4 squares, which a threaded BLAS dot would order by thread count
    env, argv = next(itertools.islice(GATE["commands"](tmp_path), 366, None))
    assert not env and argv[0] == "modular" and "--verify" in argv
    outs = []
    for threads in ("1", "2"):
        child = subprocess.run(
            [sys.executable, "-m", "modkit", *argv], capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, check=True,
        )
        outs.append(GATE["WALL_TIME"].sub("", child.stdout))
    assert "cross_route_residual" in outs[0]
    assert outs[0] == outs[1]
