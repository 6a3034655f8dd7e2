import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import golden  # noqa: E402
import layer_curve  # noqa: E402
import oracle_curve  # noqa: E402
import outcomes  # noqa: E402
import report_diff  # noqa: E402


def test_report_diff_lists_changed_runs_and_fields():
    report = {"result": {"rows": [{"beta": 0.1, "ok": True}, {"beta": 0.5, "ok": True}]}}
    bumped = json.loads(json.dumps(report))
    bumped["result"]["rows"][1]["beta"] = 0.5000000000000002  # 2 ulps
    bumped["result"]["rows"][0]["ok"] = False
    bumped["result"]["extra"] = 1
    old = {
        "tilde": [0, json.dumps(report), ""],
        "hk": [0, json.dumps(report), ""],
        "check": [1, "", "boom"],
    }
    new = {
        "tilde": [0, json.dumps(bumped), ""],
        "hk": [0, json.dumps(report), ""],
        "check": [3, "", "bang"],
    }
    runs, fields = report_diff.compare(old, new)
    assert runs == [("check", 1, 3, "boom", "bang")]
    assert fields == {
        "tilde:result.rows[].beta": (1, 2),
        "tilde:result.rows[].ok": (1, None),
        "tilde:result.extra": (1, None),
    }


def test_report_diff_lists_signed_zeros_and_unexplained_bytes():
    report = {"result": {"beta0_tilde": -0.0, "n": 0}}
    flipped = {"result": {"beta0_tilde": 0.0, "n": 0}}
    old = {
        "tilde": [0, json.dumps(report), ""],
        "gen": [0, json.dumps(report), ""],
    }
    new = {
        "tilde": [0, json.dumps(flipped), ""],
        "gen": [0, json.dumps(report, indent=2), ""],
    }
    runs, fields = report_diff.compare(old, new)
    assert runs == []
    assert fields == {
        "tilde:result.beta0_tilde": (1, 0),
        "gen:<stdout>": (1, None),
    }


def test_golden_grid_writes_edge_configs_outside_configs(tmp_path):
    bundled = sorted(p.name for p in (Path(golden.ROOT) / "configs").glob("*.json"))
    paths = golden.config_paths(str(tmp_path))
    assert list(paths) == ([f"configs/{name}" for name in bundled]
                           + [f"edge/{name}.json" for name in golden.edge_configs()])
    assert sorted(p.name for p in (Path(golden.ROOT) / "configs").glob("*.json")) == bundled
    for name, config in golden.edge_configs().items():
        path = paths[f"edge/{name}.json"]
        assert Path(path).parent == tmp_path
        assert json.loads(Path(path).read_text()) == config


def test_golden_capture_shows_every_warning():
    # under the default filter a warning prints once per code location, so the
    # second run's stderr would depend on the first; a fresh interpreter keeps
    # pytest's own warning capture out of the way
    script = (
        "import sys, warnings\n"
        f"sys.path.insert(0, {str(Path(golden.__file__).parent)!r})\n"
        "import golden\n"
        "def main(argv):\n"
        "    warnings.warn('overflow', RuntimeWarning)\n"
        "    return 0\n"
        "runs = [golden.capture(main, []) for _ in range(2)]\n"
        "print(runs[0] == runs[1] and 'RuntimeWarning: overflow' in runs[0][2])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.stdout, proc.stderr) == ("True\n", "")


def test_oracle_curve_smoke(capsys):
    assert oracle_curve.main(["--degrees", "2", "3", "4", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["config", "degree", "completion_ms", "exact_gram_ms",
                                "ratio_loop_ms"]
    rows = [line.split() for line in lines[1:]]
    assert [(name, int(d)) for name, d, *_ in rows] == [
        (name, d) for name in oracle_curve.CONFIGS for d in (2, 3, 4)]
    assert all(float(v) >= 0.0 for row in rows for v in row[2:])


def test_layer_curve_smoke(capsys):
    assert layer_curve.main(["--horizons", "8", "12", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["config", "horizon", "n", *(f"{s}_ms" for s in layer_curve.STAGES)]
    rows = [line.split() for line in lines[1:]]
    assert [(name, int(h), int(n)) for name, h, n, *_ in rows] == [
        (name, h, h - 1) for name in layer_curve.CONFIGS for h in (8, 12)]
    assert all(float(v) >= 0.0 for row in rows for v in row[3:])


# Every bench job that is not ``ok`` on seed 1: (workload, command, outcome)
# -> job indices.  A change that flips any job's outcome updates this pin
# and lists the job in CHANGES.md.
SEED_1_NOT_OK = {
    ("check_mix", "check", "refused"): [36, 37, 49],
    ("oracle_deep", "oracle", "wrong"): [8, 11, 12],
    ("derive_mix", "quad", "wrong"): [
        288, 385, 387, 389, 408, 410, 412, 414, 416, 418, 546, 548],
}


def test_bench_outcomes_on_seed_1_are_pinned():
    proc = subprocess.run([sys.executable, outcomes.__file__, "--seed", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = {tuple(line.split()) for line in proc.stdout.splitlines()}
    want = {(workload, "1", str(index), command, outcome)
            for (workload, command, outcome), indices in SEED_1_NOT_OK.items()
            for index in indices}
    assert len(want) == 3 + 3 + 12
    assert got == want
