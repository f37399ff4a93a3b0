import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resfluor
import resfluor.cli
from resfluor.cli import run
from resfluor.config import format_float
from resfluor.model import master_map
from resfluor.events import Event, event_to_json, exact_count, free_channel

SMALL = {"grid_stop": 2.0, "grid_num": 11, "n_traj": 40, "horizon": 5.0}


def _config(tmp_path, **overrides) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**SMALL, **overrides}))
    return path


def _trajectories(cfg, out, *extra) -> Path:
    assert run(["trajectories", "--config", str(cfg), "--out", str(out), *extra]) == 0
    return out / "trajectories.csv"


def test_every_subcommand_writes_its_files(tmp_path):
    cfg = _config(tmp_path)
    events = tmp_path / "events.json"
    ev = Event(forward=free_channel(), side=exact_count(0.0, 0.5, 1), horizon=0.5)
    events.write_text("[" + event_to_json(ev) + "]")
    traj = _trajectories(cfg, tmp_path / "traj")
    assert (tmp_path / "traj" / "summary.json").is_file()
    runs = {
        "evolve": (["evolve"], ["evolve.csv"]),
        "event-prob": (["event-prob", "--events", str(events)], ["event_prob.json"]),
        "waiting-time": (["waiting-time"], ["waiting.csv"]),
        "renewal-stats": (
            ["renewal-stats", "--traj", str(traj)],
            ["renewal_report.json", "waiting.csv"],
        ),
    }
    for name, (argv, files) in runs.items():
        out = tmp_path / name
        assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 0, name
        for f in files:
            assert (out / f).stat().st_size > 0, (name, f)
    probs = json.loads((tmp_path / "event-prob" / "event_prob.json").read_text())
    assert 0.0 < float(probs["probabilities"][0]) < 1.0


def test_bad_input_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["evolve", "--config", str(bad), "--out", str(tmp_path / "a")]) == 1
    assert run(["evolve", "--out", str(tmp_path / "b"), "--no-such-flag"]) == 1
    unknown_key = _config(tmp_path, no_such_key=1)
    assert run(["evolve", "--config", str(unknown_key), "--out", str(tmp_path / "c")]) == 1


@pytest.mark.parametrize(
    "events, config",
    [
        ([5], {}),
        ([{"horizon": 1.0, "channels": []}], {}),
        (
            [{
                "horizon": 1.0,
                "channels": {
                    "forward": {"outside": "free", "windows": []},
                    "side": {"outside": "zero", "windows": [
                        {"channel": "side", "window": [0.1], "count": 1}]},
                },
            }],
            {},
        ),
        ([], {"n_traj": None}),
    ],
    ids=["event-not-object", "channels-list", "window-one-end", "null-n-traj"],
)
def test_malformed_input_exits_one_with_message(tmp_path, capsys, events, config):
    cfg = _config(tmp_path, **config)
    path = tmp_path / "events.json"
    path.write_text(json.dumps(events))
    assert run(["event-prob", "--config", str(cfg), "--events", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_trajectories_at_exceptional_drive(tmp_path):
    # the no-side-count generator has no eigenbasis at this drive
    from conftest import Z_STAR

    cfg = _config(tmp_path, z=Z_STAR, n_traj=20)
    traj = _trajectories(cfg, tmp_path / "traj")
    assert traj.read_text().count(",side") > 0


def test_battery_passes_quad_order_to_every_oracle_call(monkeypatch):
    import resfluor.guichardet
    import resfluor.verify
    from resfluor.config import RunConfig

    seen = []
    real = resfluor.guichardet.oracle_davies_map

    def spy(*args, **kwargs):
        seen.append(kwargs.get("quad_order"))
        return real(*args, **kwargs)

    monkeypatch.setattr(resfluor.verify, "oracle_davies_map", spy)
    resfluor.verify.run_battery(RunConfig(quad_order=12))
    # eight call sites, one in a loop over three horizons and one in a loop
    # over the two jump-limit channels
    assert seen == [12] * 11


def test_trajectories_identical_across_thread_counts(tmp_path):
    cfg = _config(tmp_path)
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        _trajectories(cfg, out, "--threads", threads)
        files[threads] = [(out / f).read_bytes() for f in ("trajectories.csv", "summary.json")]
    assert files["1"] == files["2"]


@pytest.mark.parametrize("horizon, n_traj", [(3.0, 400), (0.01, 5)])
def test_renewal_stats_counts_every_trajectory(tmp_path, horizon, n_traj):
    # trajectories without a side click, last ones included, still count
    cfg = _config(tmp_path, horizon=horizon, n_traj=n_traj)
    traj = _trajectories(cfg, tmp_path / "traj")
    out = tmp_path / "renewal"
    assert run(["renewal-stats", "--config", str(cfg), "--traj", str(traj), "--out", str(out)]) == 0
    report = json.loads((out / "renewal_report.json").read_text())
    assert report["n_traj"] == n_traj
    for tail in report["counts_tail"].values():
        assert all(0.0 <= float(v) <= 1.0 for v in tail.values())


def test_renewal_stats_counts_tail_matches_a_direct_count(tmp_path):
    # P[N_t <= n] in the report agrees digit for digit with counting each
    # trajectory's side clicks straight from the sampled CSV
    horizon, n_traj = 20.0, 300
    cfg = _config(tmp_path, horizon=horizon, n_traj=n_traj)
    traj = _trajectories(cfg, tmp_path / "traj")
    out = tmp_path / "renewal"
    assert run(["renewal-stats", "--config", str(cfg), "--traj", str(traj), "--out", str(out)]) == 0
    report = json.loads((out / "renewal_report.json").read_text())
    side = [[] for _ in range(n_traj)]
    for line in traj.read_text().splitlines():
        if line and not line.startswith(("#", "trajectory_index")):
            idx, _jump, t, channel = line.split(",")
            if channel == "side":
                side[int(idx)].append(float(t))
    expected = {}
    for n in (0, 1, 2):
        expected[str(n)] = {}
        for t in (horizon * f for f in (0.2, 0.5, 1.0)):
            below = [sum(x <= t for x in clicks) <= n for clicks in side]
            expected[str(n)][format_float(t)] = format_float(float(np.mean(below)))
    assert report["counts_tail"] == expected


def test_renewal_stats_rejects_csv_without_count(tmp_path):
    cfg = _config(tmp_path)
    traj = _trajectories(cfg, tmp_path / "traj")
    lines = [l for l in traj.read_text().splitlines() if not l.startswith("# n_traj=")]
    stripped = tmp_path / "stripped.csv"
    stripped.write_text("\n".join(lines) + "\n")
    argv = ["renewal-stats", "--config", str(cfg), "--traj", str(stripped)]
    assert run([*argv, "--out", str(tmp_path / "renewal")]) == 1


def test_module_entry_point(tmp_path):
    cfg = _config(tmp_path)
    src = str(Path(resfluor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "resfluor", "evolve", "--config", str(cfg), "--out", str(tmp_path / "o")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "evolve.csv").stat().st_size > 0


def test_evolve_matches_per_point_maps(tmp_path, monkeypatch):
    # one stacked exponential over the grid writes the same bytes as one
    # master_map call per grid point
    cfg = _config(tmp_path, grid_num=201)
    assert run(["evolve", "--config", str(cfg), "--out", str(tmp_path / "stacked")]) == 0
    monkeypatch.setattr(
        resfluor.cli,
        "master_map",
        lambda m, grid: np.stack([master_map(m, float(t)) for t in grid]),
    )
    assert run(["evolve", "--config", str(cfg), "--out", str(tmp_path / "points")]) == 0
    stacked = (tmp_path / "stacked" / "evolve.csv").read_bytes()
    assert stacked == (tmp_path / "points" / "evolve.csv").read_bytes()


def test_verify_passes_every_check(verify_outcome):
    code, report = verify_outcome
    assert code == 0
    assert report["all_pass"]
    assert [row["name"] for row in report["checks"]] == [
        "ideality-zero-count",
        "dilation-undriven",
        "one-side-photon-cross",
        "jump-limit-forward",
        "jump-limit-side",
        "composition-cocycle",
        "isometry-truncation",
        "dyson-vs-exponential",
        "zero-count-davies",
        "amplitude-one-forward",
        "amplitude-brute-forward",
        "amplitude-one-side",
        "amplitude-brute-side",
    ]
    for row in report["checks"]:
        assert row["pass"], row["name"]
        assert row["pass"] == (row["distance"] <= row["tolerance"]), row["name"]


def test_verify_failing_battery_exits_two(tmp_path, monkeypatch):
    failing = {
        "name": "forced-failure",
        "analytic_hash": "0",
        "oracle_hash": "1",
        "distance": 1.0,
        "tolerance": 0.0,
        "pass": False,
        "note": "",
    }
    monkeypatch.setattr(
        resfluor.cli, "run_battery", lambda cfg: {"checks": [failing], "all_pass": False}
    )
    cfg = _config(tmp_path)
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["all_pass"] is False
