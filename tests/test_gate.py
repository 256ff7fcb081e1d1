import os
import runpy
from pathlib import Path

GATE = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "gate.py"))


def test_gate_command_list_is_fixed(tmp_path):
    listed = list(GATE["commands"](tmp_path))
    # 20 seeds x 6 dimensions x 3 tolerance settings, 6 README lines,
    # 2 commands for each of 260 statepair ops at 3 bench seeds,
    # 10 random state pairs at each of 3 small dimensions
    assert len(listed) == 360 + 6 + 1560 + 30
    assert sum(env == {"MODKIT_TOL": "1e-6"} for env, _ in listed) == 120
    assert sum("--tol" in argv for _, argv in listed) == 120
    assert sorted({int(argv[6]) for _, argv in listed[:360]}) == [2, 3, 4, 5, 8, 16]
    assert [argv[0] for _, argv in listed[360:366]] == [
        "schmidt", "modular", "kms-verify", "cone", "ineq", "campaign"
    ]
    statepair = [argv for _, argv in listed[366:1926]]
    assert [argv[0] for argv in statepair[:2]] == ["modular", "kms-verify"]
    assert all(str(tmp_path) in argv[1] for argv in statepair)
    pairs = [argv for _, argv in listed[1926:]]
    assert all(argv[0] == "modular" and argv[3:] == ["--verify", "--json"] for argv in pairs)
    assert len({(argv[1], argv[2]) for argv in pairs}) == 30


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
