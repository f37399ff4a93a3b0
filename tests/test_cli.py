import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resfluor
import resfluor.cli
from resfluor.cli import read_trajectory_csv, run
from resfluor.config import RunConfig, config_hash, format_float
from resfluor.model import master_map
from resfluor.events import Event, event_to_json, exact_count, free_channel
from resfluor.trajectories import sample_batch

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


def test_config_threads_key_exits_one_as_unknown(tmp_path, capsys):
    # the key had no effect and is gone; the --threads flag stays a no-op
    # (test_trajectories_identical_across_thread_counts)
    cfg = _config(tmp_path, threads=1)
    out = tmp_path / "t"
    assert run(["trajectories", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown config key 'threads'" in err
    assert not out.exists()


def _side_event(horizon=1.0, window=(0.1, 0.5), count=1) -> dict:
    """Event JSON with one side window and a free forward channel."""
    return {
        "horizon": horizon,
        "channels": {
            "forward": {"outside": "unconstrained-outside", "windows": []},
            "side": {"outside": "exactly-zero-outside",
                     "windows": [{"channel": "side", "window": list(window), "count": count}]},
        },
    }


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
        (
            [{
                "horizon": 1.0,
                "channels": {
                    "forward": {"outside": "zero", "windows": [
                        {"channel": "side", "window": [0.1, 0.5], "count": 1}]},
                    "side": {"outside": "free", "windows": []},
                },
            }],
            {},
        ),
        ([], {"n_traj": None}),
        ([], {"horizon": float("inf")}),
        ([], {"horizon": float("nan")}),
        ([], {"z": float("nan")}),
        ([], {"kappa_f": float("nan")}),
        ([], {"master_seed": -1}),
        ([], {"master_seed": 2**64}),
        ([], {"n_traj": 2.7}),
        ([], {"n_traj": "3"}),
        ([], {"n_traj": True}),
        ([], {"horizon": "2.5"}),
        ([_side_event(count=1.5)], {}),
        ([_side_event(count=1.0)], {}),
        ([_side_event(count=True)], {}),
        ([_side_event(count="1")], {}),
        ([_side_event(count=-1)], {}),
        ([_side_event(horizon="1")], {}),
        ([_side_event(horizon=float("inf"))], {}),
        ([_side_event(window=(True, 0.8))], {}),
        ([_side_event(window=(0.1, "0.8"))], {}),
    ],
    ids=["event-not-object", "channels-list", "window-one-end", "window-wrong-channel",
         "null-n-traj", "infinite-horizon", "nan-horizon", "nan-z", "nan-kappa-f",
         "negative-seed", "seed-beyond-u64", "float-n-traj", "string-n-traj",
         "bool-n-traj", "string-horizon", "float-count", "integral-float-count",
         "bool-count", "string-count", "negative-count", "string-event-horizon",
         "infinite-event-horizon", "bool-window-end", "string-window-end"],
)
def test_malformed_input_exits_one_with_message(tmp_path, capsys, events, config):
    cfg = _config(tmp_path, **config)
    path = tmp_path / "events.json"
    path.write_text(json.dumps(events))
    assert run(["event-prob", "--config", str(cfg), "--events", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(repr(key) in err for key in config)


@pytest.mark.parametrize(
    "config, events, message",
    [
        ('{"horizon": -1}', "[]", "config key 'horizon' must be >= 0"),
        ("[1, 2]", "[]", "config JSON must be an object"),
        ("{}", '{"horizon": 1.0}', "events file must hold a JSON list of events"),
        ('{"grid_start": -1}', "[]", "config key 'grid_start' must be >= 0"),
        ('{"grid_stop": -0.5}', "[]", "config key 'grid_stop' must be >= 0"),
        ('{"quad_order": 0}', "[]", "config key 'quad_order' must be >= 1"),
    ],
    ids=["negative-horizon", "config-not-object", "events-not-list", "negative-grid-start",
         "negative-grid-stop", "zero-quad-order"],
)
def test_rejected_input_exits_one_with_its_message(tmp_path, capsys, config, events, message):
    cfg, path, out = tmp_path / "config.json", tmp_path / "events.json", tmp_path / "out"
    cfg.write_text(config)
    path.write_text(events)
    assert run(["event-prob", "--config", str(cfg), "--events", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# per field type, JSON values of the wrong type; a str key takes no number
MISTYPED = {
    int: [1.5, "1", True, None, [1]],
    float: ["1.0", True, None, [1.0]],
    complex: ["1", True, [1.0], [1.0, "0"], [True, 0.0], {"re": 1.0}],
    str: [1, None],
}
FIELDS = dataclasses.fields(RunConfig)


@pytest.mark.parametrize("field", FIELDS, ids=[f.name for f in FIELDS])
def test_mistyped_config_value_exits_one_naming_the_key(tmp_path, capsys, field):
    for value in MISTYPED[field.type]:
        cfg = _config(tmp_path, **{field.name: value})
        out = tmp_path / "out"
        assert run(["evolve", "--config", str(cfg), "--out", str(out)]) == 1, value
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(field.name) in err, (value, err)
        assert not out.exists()  # nothing was written, so no directory either


@pytest.mark.parametrize(
    "field", [f for f in FIELDS if f.type is not str], ids=lambda f: f.name
)
def test_numeric_config_key_rejects_out_of_range_values(field):
    # beyond its type's rule, a key may have a lower bound of its own
    below = {"horizon": [-1.0], "grid_start": [-1.0], "grid_stop": [-1e-300], "quad_order": [0]}
    for bad in [-1 if field.type is int else float("nan"), *below.get(field.name, [])]:
        with pytest.raises(ValueError, match=repr(field.name)):
            RunConfig.from_dict({field.name: bad})


def test_config_round_trips_with_every_key_off_its_default():
    off = {"mode": "two-channel", "initial_state": "mixed"}
    for f in FIELDS:
        if f.type is int:
            off[f.name] = f.default + 3
        elif f.type is float:
            off[f.name] = f.default + 0.375
        elif f.type is complex:
            off[f.name] = complex(f.default) + complex(-0.1, 0.3)
    cfg = RunConfig(**off)
    assert all(getattr(cfg, f.name) != f.default for f in FIELDS)
    back = RunConfig.from_json(cfg.to_json())
    assert back == cfg and back.to_json() == cfg.to_json()
    assert config_hash(back) == config_hash(cfg)


@pytest.mark.parametrize(
    "flag, key, value",
    [("--n", "n_traj", 7), ("--seed", "master_seed", 11),
     ("--mode", "mode", "two-channel")],
)
def test_trajectories_flag_overrides_the_config_file(tmp_path, monkeypatch, flag, key, value):
    seen = []
    monkeypatch.setitem(
        resfluor.cli._COMMANDS, "trajectories", lambda cfg, args: seen.append(cfg) or 0
    )
    cfg = _config(tmp_path, master_seed=5, mode="side-only")
    argv = ["trajectories", "--config", str(cfg), "--out", str(tmp_path / "t")]
    assert run(argv) == 0
    assert run([*argv, flag, str(value)]) == 0
    from_file, flagged = seen
    assert getattr(from_file, key) != value and getattr(flagged, key) == value
    assert dataclasses.replace(from_file, **{key: value}) == flagged


def test_trajectories_at_exceptional_drive(tmp_path):
    # the no-side-count generator has no eigenbasis at this drive
    from conftest import Z_STAR

    cfg = _config(tmp_path, z=Z_STAR, n_traj=20)
    traj = _trajectories(cfg, tmp_path / "traj")
    assert traj.read_text().count(",side") > 0


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


def test_renewal_report_holds_the_report_fields_and_the_stamp(tmp_path):
    from resfluor.renewal import RenewalReport

    cfg = _config(tmp_path)
    traj = _trajectories(cfg, tmp_path / "traj")
    out = tmp_path / "renewal"
    assert run(["renewal-stats", "--config", str(cfg), "--traj", str(traj), "--out", str(out)]) == 0
    report = json.loads((out / "renewal_report.json").read_text())
    fields = {f.name for f in dataclasses.fields(RenewalReport)}
    assert set(report) == fields | {"tool", "config_hash"}
    assert report["ks_threshold_99"] == "1.6276236115189504"
    assert isinstance(report["n_traj"], int) and isinstance(report["underpowered"], bool)


def test_renewal_stats_rejects_csv_without_count(tmp_path):
    cfg = _config(tmp_path)
    traj = _trajectories(cfg, tmp_path / "traj")
    lines = [l for l in traj.read_text().splitlines() if not l.startswith("# n_traj=")]
    stripped = tmp_path / "stripped.csv"
    stripped.write_text("\n".join(lines) + "\n")
    argv = ["renewal-stats", "--config", str(cfg), "--traj", str(stripped)]
    assert run([*argv, "--out", str(tmp_path / "renewal")]) == 1


def _edit_rows(path: Path, transform) -> Path:
    """A copy of a trajectory CSV whose row lines pass through ``transform``."""
    lines = path.read_text().splitlines()
    head = [l for l in lines if l.startswith(("#", "trajectory_index"))]
    out = path.with_name("edited.csv")
    out.write_text("\n".join([*head, *transform(lines[len(head):])]) + "\n")
    return out


@pytest.mark.parametrize("mode", ["side-only", "two-channel"])
def test_reader_returns_each_trajectorys_side_times(tmp_path, mode):
    # the short horizon leaves the last trajectories without a side click
    cfg = _config(tmp_path, horizon=1.5, mode=mode)
    traj = _trajectories(cfg, tmp_path / "traj")
    rc = RunConfig.from_json(cfg.read_text())
    trajs = sample_batch(rc.model(), rc.rho0(), rc.horizon, rc.master_seed, rc.n_traj, mode=mode)
    expected = [tr.times("side") for tr in trajs]
    assert sum(map(len, expected)) > 0 and len(expected[-1]) == 0
    assert (mode == "two-channel") == (",forward" in traj.read_text())
    got = read_trajectory_csv(traj)
    assert len(got) == rc.n_traj
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
    # the traced row counter keeps meaning the file's side rows
    assert sum(len(a) for a in got) == traj.read_text().count(",side\n")


@pytest.mark.parametrize("mode", ["side-only", "two-channel"])
def test_reader_ignores_row_order(tmp_path, mode):
    traj = _trajectories(_config(tmp_path, mode=mode), tmp_path / "traj")
    rng = np.random.default_rng(5)
    shuffled = _edit_rows(traj, lambda rows: rng.permutation(rows).tolist())
    got, ref = read_trajectory_csv(shuffled), read_trajectory_csv(traj)
    assert max(map(len, ref)) >= 2
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


def test_reader_without_header_or_rows(tmp_path):
    cfg = _config(tmp_path, horizon=1.5)
    traj = _trajectories(cfg, tmp_path / "traj")
    lines = traj.read_text().splitlines()
    headless = tmp_path / "headless.csv"
    headless.write_text("\n".join(l for l in lines if not l.startswith("trajectory_index")) + "\n")
    got, ref = read_trajectory_csv(headless), read_trajectory_csv(traj)
    assert sum(map(len, ref)) > 0
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
    # no rows at all, with or without trailing comments: empty arrays, no warning
    for tail in ("", "# done\n\n"):
        empty = tmp_path / "empty.csv"
        empty.write_text("# stamp\n# n_traj=3\ntrajectory_index,jump_index,time,channel\n" + tail)
        got = read_trajectory_csv(empty)
        assert len(got) == 3 and all(a.dtype == np.float64 and a.size == 0 for a in got)


@pytest.mark.parametrize(
    "transform, message",
    [
        (lambda rows: ["-1,0,0.5,side", *rows], "outside [0, 40)"),
        (lambda rows: [*rows, "40,0,0.5,side"], "outside [0, 40)"),
        (lambda rows: [*rows, "3,0,nan,side"], "non-finite time"),
        (lambda rows: [*rows, "3,0,0.5"], "4 columns but 3"),
        (lambda rows: [*rows, "3,0,half,side"], "could not convert string 'half'"),
        (lambda rows: [*rows, "3,0,0.5,up"], "could not convert string 'up'"),
    ],
    ids=["negative-index", "index-past-n", "nan-time", "three-fields", "text-time",
         "unknown-channel"],
)
def test_renewal_stats_rejects_malformed_rows(tmp_path, capsys, transform, message):
    cfg = _config(tmp_path)
    edited = _edit_rows(_trajectories(cfg, tmp_path / "traj"), transform)
    argv = ["renewal-stats", "--config", str(cfg), "--traj", str(edited)]
    assert run([*argv, "--out", str(tmp_path / "renewal")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_renewal_stats_on_zero_trajectories_exits_one(tmp_path):
    # a file of zero trajectories has no statistic: exit 1 with a message,
    # and no numpy warning on the way (the interpreter runs with -W error)
    cfg = _config(tmp_path, n_traj=0)
    src = str(Path(resfluor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cli = [sys.executable, "-W", "error", "-m", "resfluor"]
    common = dict(env=env, capture_output=True, text=True, timeout=120)
    argv = ["trajectories", "--config", str(cfg), "--out", str(tmp_path / "t")]
    proc = subprocess.run([*cli, *argv], **common)
    assert proc.returncode == 0, proc.stderr
    traj = tmp_path / "t" / "trajectories.csv"
    assert "# n_traj=0" in traj.read_text().splitlines()
    proc = subprocess.run([*cli, "renewal-stats", "--config", str(cfg), "--traj", str(traj),
                           "--out", str(tmp_path / "r")], **common)
    assert proc.returncode == 1
    assert proc.stderr == "error: the renewal battery needs at least one trajectory, got 0\n"
    assert not (tmp_path / "r" / "renewal_report.json").exists()


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
        "truncated-dilation",
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


def test_battery_passes_quad_order_to_every_oracle_call(tmp_path, monkeypatch):
    # the config file's quad_order reaches each oracle call of `verify`
    import resfluor.verify
    from resfluor.guichardet import OracleResult

    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("quad_order"))
        return OracleResult(np.zeros((4, 4), dtype=complex), 0.0)

    monkeypatch.setattr(resfluor.verify, "oracle_davies_map", spy)
    cfg = _config(tmp_path, quad_order=12)
    run(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
    # nine call sites: one in a loop over three horizons, one in a loop over
    # the two jump-limit channels and the Richardson pair's two horizons, and
    # the truncated-dilation row's
    assert seen == [12] * 14


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
