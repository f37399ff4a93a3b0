import dataclasses
import hashlib
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
from resfluor.config import TOOL_VERSION, RunConfig, config_hash, format_float
from resfluor.model import master_map
from resfluor.events import (
    OUTSIDE_FREE,
    ChannelEvent,
    Event,
    Window,
    event_to_json,
    exact_count,
    free_channel,
    zero_photons,
)
from resfluor.trajectories import sample_batch

_BLOCK = resfluor.cli._BLOCK
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
        ("{}", json.dumps([_side_event(window=(1.0, 1.0 + 8e-16))]),
         "side window [1.0, 1.0000000000000009) not contained in [0, 1.0)"),
        ("{}", json.dumps([_side_event(horizon=0.0, window=(0.0, 8e-16))]),
         "side window [0.0, 8e-16) not contained in [0, 0.0)"),
    ],
    ids=["negative-horizon", "config-not-object", "events-not-list", "negative-grid-start",
         "negative-grid-stop", "zero-quad-order", "window-past-horizon",
         "window-on-zero-horizon"],
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


# sha256 of each file written by the row-by-row writer, before the block
# writer, on PINNED: 312 side-only rows, 1,436 two-channel rows, and 601
# evolve and waiting rows, each more than one block; and of event_prob.json on
# PINNED_EVENTS, computed before the generators were kept per model and each
# lattice term formed once per map
PINNED = {"horizon": 10.0, "n_traj": 150, "grid_num": 601}
PINNED_EVENTS = [
    Event(free_channel(), exact_count(0.5, 2.0, 1), 3.0),
    Event(exact_count(0.2, 0.7, 1, OUTSIDE_FREE), exact_count(0.5, 1.0, 1), 1.0),
    Event(exact_count(0.2, 1.2, 1), exact_count(0.2, 1.2, 1, OUTSIDE_FREE), 2.0),
    Event(free_channel(), ChannelEvent((Window(0.5, 1.5, 1), Window(2.5, 3.0, 1))), 4.0),
    Event(zero_photons(), zero_photons(), 1.5),
    Event(exact_count(0.0, 2.5, 2, OUTSIDE_FREE), free_channel(), 5.0),
]
PINNED_DIGESTS = {
    "evolve/evolve.csv": "542e4a98220db39b6b799a49b2245d1222e5069816b665485a68353e21583481",
    "side-only/summary.json": "4165fb55ffcf350d5d24dd3ac0ea90b66bc0ee554661643330d3aae0170c30d5",
    "side-only/trajectories.csv":
        "620900acd2d82fd4d1b7c79666587b4189678be32c8c51a5a3044cdb67d30a51",
    "two-channel/summary.json":
        "2c760becc8860d24a3010d2aca49a0ff01894c2102e76e15c464b38b34e0d574",
    "two-channel/trajectories.csv":
        "fdd4a6252decb3c2b320de890ad9f642e27f200bc712155526ff44045f0f5685",
    "waiting/waiting.csv": "de3a07ae94707cfb67b7d75467f7e876bcf26f4752b8cd0d321e0f7642ea9a3b",
    "event/event_prob.json": "f77d248361a6c7e3d93e32bd4b784a3d5e83f38546c3550ad11505b16f81745a",
}
# sha256 of renewal-stats' files on side-only and two-channel files of
# PINNED_BATTERY, enough trajectories for every KS test and the independence
# grid, computed while the reader still converted the channel row by row and
# the battery still evaluated the later CDF twice on X_2 and X_3
PINNED_BATTERY = {"n_traj": 1500, "grid_num": 601}
PINNED_BATTERY_DIGESTS = {
    "side-only/renewal_report.json":
        "04bad9bd4d17d818df9b34293c921f9d856d9af2334a0fff953963c68bfeb6f9",
    "side-only/waiting.csv": "714a1d58ba7144953cfbc98873bbbc20fd08a905edba43ac48e82d51d4b6d205",
    "two-channel/renewal_report.json":
        "bc233a0de46d955b9bef019b71e783432e2d4dad23b6eca60e607e5819f87ac4",
    "two-channel/waiting.csv": "714a1d58ba7144953cfbc98873bbbc20fd08a905edba43ac48e82d51d4b6d205",
}


def test_output_files_keep_their_bytes(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(PINNED))
    for mode in ("side-only", "two-channel"):
        _trajectories(cfg, tmp_path / mode, "--mode", mode)
    for sub in ("evolve", "waiting-time"):
        assert run([sub, "--config", str(cfg), "--out", str(tmp_path / sub.split("-")[0])]) == 0
    events = tmp_path / "events.json"
    events.write_text("[" + ", ".join(event_to_json(e) for e in PINNED_EVENTS) + "]")
    out = tmp_path / "event"
    assert run(["event-prob", "--config", str(cfg), "--events", str(events), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_DIGESTS}
    assert got == PINNED_DIGESTS
    cfg.write_text(json.dumps(PINNED_BATTERY))
    for mode in ("side-only", "two-channel"):
        traj = _trajectories(cfg, tmp_path / "battery" / mode, "--mode", mode)
        out = tmp_path / "renewal" / mode
        assert run(["renewal-stats", "--config", str(cfg), "--traj", str(traj),
                    "--out", str(out)]) == 0
        report = json.loads((out / "renewal_report.json").read_text())
        assert report["underpowered"] is False and report["independence_stat"] != "nan"
    got = {name: hashlib.sha256((tmp_path / "renewal" / name).read_bytes()).hexdigest()
           for name in PINNED_BATTERY_DIGESTS}
    assert got == PINNED_BATTERY_DIGESTS


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_block_writer_matches_the_row_by_row_text(tmp_path, n):
    rng = np.random.default_rng(n)
    columns = [np.arange(n), rng.integers(0, 9, n), rng.exponential(size=n),
               np.array(["side", "forward"], dtype=object)[rng.integers(0, 2, n)]]
    cfg = RunConfig()
    path = tmp_path / "out" / "table.csv"
    resfluor.cli._write_csv(path, ["a", "b", "t", "c"], columns, cfg, comments=["note"])
    rows = ["%d,%d,%.17g,%s" % row for row in zip(*(c.tolist() for c in columns))]
    head = [f"# {TOOL_VERSION} config={config_hash(cfg)}", "# note", "a,b,t,c"]
    assert path.read_text() == "\n".join(head + rows) + "\n"


def test_vectorised_float_text_is_format_float_text():
    # _format_floats against format_float, byte for byte: random bit patterns,
    # uniform [0, 50), normals at scales 1e-8..1e18, exact ties at the 17th
    # digit (odd M/4 in [1e15, 2**51), to even), dyadic m * 2**-k, the
    # neighbours of 10**k, ±0, subnormals, ±inf and nan
    rng = np.random.default_rng(28)
    tens = np.array([10.0**k for k in range(-4, 16)]).view(np.int64)
    x = np.concatenate([
        rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
        rng.uniform(0, 50, 20000),
        (rng.normal(size=(27, 400)) * 10.0 ** np.arange(-8, 19)[:, None]).ravel(),
        (2 * rng.integers(2 * 10**15, 2**52, 5000) + 1) / 4,
        np.ldexp(rng.integers(1, 2**20, 5000), -rng.integers(0, 60, 5000)),
        (tens[:, None] + np.arange(-3, 4)).ravel().view(np.float64),
        [0.0, 5e-324, 1e-310, 2.5e-320, np.inf, np.nan, 1e16, 1e-4, 100.0, 120.5],
    ])
    x = np.concatenate([x, -x])
    got = resfluor.config._format_floats(x)
    assert got.dtype == np.dtype("S24")
    assert got.tolist() == [format_float(v).encode() for v in x.tolist()]


def test_trajectory_views_read_the_click_table_and_the_file(tmp_path):
    cfg = _config(tmp_path, mode="two-channel")
    rows = _trajectories(cfg, tmp_path / "traj").read_text().splitlines()[3:]
    rc = RunConfig.from_json(cfg.read_text())
    batch = sample_batch(rc.model(), rc.rho0(), rc.horizon, rc.master_seed, rc.n_traj,
                         mode="two-channel")
    names = batch.channel.tolist()
    assert {"side", "forward"} <= set(names) and len(rows) == len(names)
    for k, tr in enumerate(batch):
        a, b = batch.offsets[k], batch.offsets[k + 1]
        assert (batch.index[a:b] == k).all() and (batch.jump[a:b] == np.arange(b - a)).all()
        assert tr.records == tuple(zip(batch.time[a:b].tolist(), names[a:b]))
        assert np.array([t for t, _ in tr.records]).tobytes() == batch.time[a:b].tobytes()
        for c in ("side", "forward"):
            assert batch.time[a:b][batch.channel[a:b] == c].tolist() == [
                t for t, n in tr.records if n == c]
        assert rows[a:b] == [f"{k},{j},{'%.17g' % t},{c}" for j, (t, c) in enumerate(tr.records)]
        assert (batch.time[a:b] < rc.horizon).all() and tr.row == k


def test_zero_trajectories_give_an_empty_table_and_the_zero_summary(tmp_path):
    m = RunConfig().model()
    batch = sample_batch(m, RunConfig().rho0(), 5.0, 1, 0)
    assert len(batch) == 0 and batch.offsets.tolist() == [0] and batch.terminal.shape == (0, 2, 2)
    assert all(len(c) == 0 for c in (batch.index, batch.jump, batch.time, batch.channel))
    out = tmp_path / "traj"
    _trajectories(_config(tmp_path, n_traj=0), out)
    assert out.joinpath("trajectories.csv").read_text().splitlines()[1:] == [
        "# n_traj=0", "trajectory_index,jump_index,time,channel"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["counts_histogram"] == {} and summary["mean_clicks"] == "0"
    assert summary["terminal_excited_population"] == {"mean": "0", "max": "0"}


@pytest.mark.parametrize("n_max", [2, 3])
def test_verify_passes_at_the_smallest_caps(tmp_path, n_max):
    assert run(["verify", "--config", str(_config(tmp_path, n_max=n_max))]) == 0


@pytest.mark.parametrize("n_max", [0, 1])
def test_verify_rejects_a_cap_below_two_naming_n_max(tmp_path, capsys, n_max):
    assert run(["verify", "--config", str(_config(tmp_path, n_max=n_max))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'n_max'" in err and "Traceback" not in err


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
    expected = [np.array([t for t, c in tr.records if c == "side"]) for tr in trajs]
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

    # rows in trajectory order but for two side rows of one trajectory
    def swap_two_side_rows(rows):
        side = [i for i, row in enumerate(rows) if row.endswith(",side")]
        i, j = next((a, b) for a, b in zip(side, side[1:])
                    if rows[a].split(",")[0] == rows[b].split(",")[0])
        rows[i], rows[j] = rows[j], rows[i]
        return rows

    swapped = _edit_rows(traj, swap_two_side_rows)
    assert swapped.read_text() != traj.read_text()
    assert [a.tobytes() for a in read_trajectory_csv(swapped)] == [a.tobytes() for a in ref]


@pytest.mark.parametrize("comment", ["# note", " # note", "\t# note", "   \t # note"],
                         ids=["no-space", "space", "tab", "spaces-and-tab"])
def test_rows_with_trailing_comments_give_the_plain_files_report(tmp_path, comment):
    # every row, side and forward, ends in a comment, with or without spaces
    # before its '#': the report is the plain file's, byte for byte
    cfg = _config(tmp_path, mode="two-channel")
    traj = _trajectories(cfg, tmp_path / "traj")
    commented = _edit_rows(traj, lambda rows: [row + comment for row in rows])
    assert ",forward" + comment in commented.read_text()
    reports = []
    for path, out in ((traj, tmp_path / "plain"), (commented, tmp_path / "commented")):
        assert run(["renewal-stats", "--config", str(cfg), "--traj", str(path),
                    "--out", str(out)]) == 0
        reports.append((out / "renewal_report.json").read_bytes())
    assert reports[0] == reports[1]


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
        (lambda rows: [*rows, "3,0,-1.5,side"], "negative or non-finite time"),
        (lambda rows: [*rows, "3,0,0.5"], "4 columns but 3"),
        (lambda rows: [*rows, "3,0,half,side"], "could not convert string 'half'"),
        (lambda rows: [*rows, "3,0,0.5,up"], "could not convert string 'up'"),
        # names a fixed-width channel column could cut or fold into a valid one
        (lambda rows: [*rows, "3,0,0.5,forwardly"],
         "could not convert string 'forwardl' (read as its first 8 characters) to a channel"),
        (lambda rows: [*rows, "3,0,0.5,sideways"], "could not convert string 'sideways'"),
        (lambda rows: [*rows, "3,0,0.5,Side"],
         "could not convert string 'Side' to a channel, side or forward\n"),
        # spaces after a channel are read only before a trailing comment
        (lambda rows: [*rows, "3,0,0.5,side "],
         "could not convert string 'side ' to a channel, side or forward\n"),
    ],
    ids=["negative-index", "index-past-n", "nan-time", "negative-time", "three-fields",
         "text-time", "unknown-channel", "longer-channel", "channel-as-wide-as-the-column",
         "capitalised-channel", "spaces-after-the-channel"],
)
def test_renewal_stats_rejects_malformed_rows(tmp_path, capsys, transform, message):
    cfg = _config(tmp_path)
    traj = _trajectories(cfg, tmp_path / "traj")
    kept = set(traj.read_text().splitlines())
    edited = _edit_rows(traj, transform)
    # the one line the transform added
    (line,) = [k for k, l in enumerate(edited.read_text().splitlines(), 1) if l not in kept]
    argv = ["renewal-stats", "--config", str(cfg), "--traj", str(edited)]
    assert run([*argv, "--out", str(tmp_path / "renewal")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {edited} line {line}: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("# n_traj=4\n0,0,0.5,side\n1,0,0.7,side\n3,0,half,side\n", 4,
         "could not convert string 'half' to float64, column 3."),
        ("# n_traj=4\ntrajectory_index,jump_index,time,channel\n0,0,0.5,side\n# note\n\n"
         "1,0,0.7,side\n3,0,0.5\n", 7, "the dtype passed requires 4 columns but 3 were found"),
        ("# stamp\n# n_traj=4\n1.5,0,0.5,side\n", 3, "could not convert string '1.5' to int64"),
        ("# n_traj=4\n0,0,0.5,side\n   \n", 3, "4 columns but 1"),
        # rows that parse but break a rule name the field at fault
        ("# n_traj=4\ntrajectory_index,jump_index,time,channel\n0,0,0.5,side\n# c\n\n"
         "3,0,-1.5,side\n", 6, "negative or non-finite time -1.5\n"),
        ("# n_traj=4\n0,0,0.5,side\n9,0,1.5,side\n", 3, "trajectory index 9 outside [0, 4)\n"),
        ("# n_traj=4\n0,0,0.5,side\n1,0,1.5,sid\n", 3,
         "could not convert string 'sid' to a channel, side or forward\n"),
        # the first faulty row, and its first faulty field
        ("# n_traj=4\n0,0,0.5,side\n0,1,nan,sid\n7,0,-1.0,side\n", 3,
         "negative or non-finite time nan\n"),
        ("# n_traj=4\n\n0,0,0.5,sid# note\n-1,0,0.5,side\n", 3,
         "could not convert string 'sid' to a channel, side or forward\n"),
    ],
    ids=["text-time", "short-row-after-comment-and-blank-lines", "first-row", "blank-spaces",
         "negative-time-after-comment-and-blank-lines", "index-past-n", "channel",
         "first-fault-first", "trailing-comment"],
)
def test_reader_names_the_file_and_line_of_a_row_it_cannot_parse(tmp_path, capsys, text, line,
                                                                  message):
    # np.loadtxt counts data rows, from 0 in one message and from 1 in
    # another, and the range checks count them from 0; the reader's message
    # counts file lines from 1
    traj = tmp_path / "bad.csv"
    traj.write_text(text)
    assert run(["renewal-stats", "--traj", str(traj), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {traj} line {line}: ") and message in err
    assert " row " not in err and "Traceback" not in err


def test_renewal_stats_rejects_a_side_click_at_or_beyond_the_horizon(tmp_path, capsys):
    # the battery tests the default config's law, sampled to horizon 50
    for time in ("70.0", "50"):
        traj = tmp_path / "late.csv"
        traj.write_text(f"# n_traj=2\n0,0,0.5,side\n1,0,{time},side\n")
        assert run(["renewal-stats", "--traj", str(traj), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            f"error: {traj} has a side click at or beyond the config's horizon 50.0\n")
        assert not (tmp_path / "r").exists()
    # a side click just before the horizon is read, and forward rows are ignored
    traj.write_text("# n_traj=2\n0,0,0.5,side\n1,0,49.5,side\n1,1,70.0,forward\n")
    assert run(["renewal-stats", "--traj", str(traj), "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r" / "renewal_report.json").read_text())
    assert report["n_first"] == 2 and report["underpowered"] is True


@pytest.mark.parametrize("rows", ["", "0,0,0.5,side\n"], ids=["no-rows", "one-row"])
def test_renewal_stats_rejects_a_negative_trajectory_count(tmp_path, capsys, rows):
    traj = tmp_path / "negative.csv"
    traj.write_text("# n_traj=-1\ntrajectory_index,jump_index,time,channel\n" + rows)
    argv = ["renewal-stats", "--config", str(_config(tmp_path)), "--traj", str(traj)]
    assert run([*argv, "--out", str(tmp_path / "renewal")]) == 1
    assert capsys.readouterr().err == (
        f"error: {traj} has no '# n_traj=N' line with N >= 0 before its rows\n")


@pytest.mark.parametrize("count", ["abc", "2.5"])
def test_renewal_stats_rejects_a_non_integer_trajectory_count(tmp_path, capsys, count):
    traj = tmp_path / "non-integer.csv"
    traj.write_text(f"# n_traj={count}\ntrajectory_index,jump_index,time,channel\n0,0,0.5,side\n")
    argv = ["renewal-stats", "--config", str(_config(tmp_path)), "--traj", str(traj)]
    assert run([*argv, "--out", str(tmp_path / "renewal")]) == 1
    assert capsys.readouterr().err == (
        f"error: {traj} has no '# n_traj=N' line with N >= 0 before its rows\n")


def test_renewal_battery_passes_on_two_channel_output(tmp_path):
    # the side clicks of a two-channel record follow the side-only laws; the
    # command exits 0 whatever the tests say, so the report is read
    out = tmp_path / "traj"
    argv = ["--mode", "two-channel", "--n", "1500", "--seed", "11"]
    assert run(["trajectories", "--out", str(out), *argv]) == 0
    assert ",forward" in (out / "trajectories.csv").read_text()
    argv = ["renewal-stats", "--traj", str(out / "trajectories.csv")]
    assert run([*argv, "--out", str(tmp_path / "renewal")]) == 0
    report = json.loads((tmp_path / "renewal" / "renewal_report.json").read_text())
    assert report["n_traj"] == 1500 and report["underpowered"] is False
    assert report["passed"] == dict.fromkeys(["ks_first", "ks_later", "ks_third", "independence"],
                                             True)


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
