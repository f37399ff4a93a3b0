"""Batch front door: config parsing, subcommand dispatch, deterministic files.

Subcommands: evolve, event-prob, trajectories, waiting-time, renewal-stats,
verify.  Only :func:`run` parses arguments and builds the config; a flag
whose destination is a config key (``--n`` is ``n_traj``, ``--seed`` is
``master_seed``) overrides the file's value, and each subcommand gets the
finished config.  A file's directory is made when the file is written.  CSV
holds arrays and JSON reports; numbers are written with 17 significant
digits, except the distances and tolerances of ``verify_report.json``, which
are JSON numbers in Python's shortest round-trip form (``1e-09``).  Every
file carries a tool-version/config-hash stamp, so identical config + seed
reproduce byte-identical files; one writer writes every CSV from columns, a
block of rows at a time, each column's text picked by its dtype (a float
column is formatted in numpy, to the bytes ``format_float`` gives).
``--threads`` is kept for scripts and has no effect (the sampler runs one
vectorised batch); a config file's ``threads`` key is rejected as unknown.  Exit codes: 0 success, 1 validation or usage error, 2
failed verification.

``trajectories.csv`` holds one ``trajectory_index,jump_index,time,channel``
row per click, from the sampler's click table, which also gives
``summary.json`` its counts and terminal populations.  ``renewal-stats``
reads the CSV by these rules and exits 1 on any other file: ``#`` lines are
comments; a ``# n_traj=N`` line (N counts every trajectory, click-free ones
too) and the header, if any, come before the first row; rows come in any
order, each an index in [0, N), a jump index, a finite time >= 0 and a
channel, side or forward; forward rows are then ignored.  A row may end in a
``#`` comment, with or without spaces or tabs between the channel and the
``#``; a channel followed by spaces and no comment is rejected.  A message
about a row that breaks these rules names the file, its line, counted from 1,
and the field at fault.  The file does not record its horizon, so the battery takes
the config's: a side click at or beyond it means the file came from another
config, and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import RunConfig, TOOL_VERSION, _format_floats, config_hash, format_float
from .davies import event_probability
from .events import event_from_json
from .linalg import EXCITED_PROJ, devec, vec
from .model import master_map
from .renewal import renewal_test, theoretical_cdf, waiting_densities
from .trajectories import FORWARD, SIDE, sample_batch
from .verify import run_battery

__all__ = ["main", "run"]

_TRAJ_HEADER = "trajectory_index,jump_index,time,channel"
# one character wider than any channel name, so no longer name is cut to a valid one
_CHANNEL_WIDTH = max(len(SIDE), len(FORWARD)) + 1
_TRAJ_ROW = np.dtype([("index", "i8"), ("jump", "i8"), ("time", "f8"),
                      ("channel", f"U{_CHANNEL_WIDTH}")])
_BLOCK = 2048  # rows per formatted block of a CSV file


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="resfluor", description=__doc__, add_help=True)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True):
        sp.add_argument("--config", type=Path, default=None, help="JSON config file")
        sp.add_argument("--out", type=Path, required=out_required, help="output directory")
        sp.add_argument("--threads", type=int, help="kept for scripts that pass it; no effect")

    sp = sub.add_parser("evolve", help="unconditioned evolution on the time grid")
    common(sp)

    sp = sub.add_parser("event-prob", help="probabilities of events from a JSON file")
    common(sp, out_required=False)
    sp.add_argument("--events", type=Path, required=True, help="JSON list of events")

    sp = sub.add_parser("trajectories", help="sample photon-detection records")
    common(sp)
    sp.add_argument("--n", dest="n_traj", type=int, help="number of trajectories")
    sp.add_argument("--seed", dest="master_seed", type=int, help="master seed (u64)")
    sp.add_argument("--mode", choices=["side-only", "two-channel"])

    sp = sub.add_parser("waiting-time", help="theoretical waiting-time tables")
    common(sp)

    sp = sub.add_parser("renewal-stats", help="renewal battery on a trajectory CSV")
    common(sp)
    sp.add_argument("--traj", type=Path, required=True, help="trajectory CSV to read")

    sp = sub.add_parser("verify", help="oracle cross-check battery")
    common(sp, out_required=False)
    return p


def _load_config(args) -> RunConfig:
    """The config file's values, overridden by every flag given for a config key."""
    cfg = RunConfig() if args.config is None else RunConfig.from_json(args.config.read_text())
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    updates = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    if updates:
        cfg = RunConfig.from_dict({**cfg.to_dict(), **updates})
    return cfg


def _write_csv(path: Path, header: list[str], columns, cfg: RunConfig, comments=()):
    """Write the stamp, comment lines, header, and row i of the columns, comma-separated.

    A column's dtype picks its text: a float is written as ``format_float``
    writes it, an integer as ``%d``, a string as it is.  Rows are formatted
    ``_BLOCK`` at a time into bytes, float columns by ``_format_floats`` and
    the row by one ``%`` per block.
    """
    head = [f"{TOOL_VERSION} config={config_hash(cfg)}", *comments]
    columns = [np.asarray(c) for c in columns]
    k, n = len(columns), len(columns[0])
    line = b",".join(b"%d" if c.dtype.kind in "iu" else b"%s" for c in columns) + b"\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(("".join(f"# {c}\n" for c in head) + ",".join(header) + "\n").encode())
        for a in range(0, n, _BLOCK):
            rows = min(_BLOCK, n - a)
            flat = [None] * (k * rows)
            for j, col in enumerate(columns):
                flat[j::k] = _cells(col[a:a + rows])
            fh.write(line * rows % tuple(flat))


def _cells(col: np.ndarray) -> list:
    """A block of a column as ``%`` arguments: floats as text, integers, strings as bytes."""
    if col.dtype.kind == "f":
        return _format_floats(col).tolist()
    if col.dtype.kind in "iu":
        return col.tolist()
    names = col.tolist()
    text = {name: name.encode() for name in set(names)}
    return [text[name] for name in names]


def _write_json(path: Path, payload: dict, cfg: RunConfig):
    payload = {"tool": TOOL_VERSION, "config_hash": config_hash(cfg), **payload}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _floats_as_text(obj):
    """``obj`` with every float, as a value or as a key, in ``format_float`` text."""
    if isinstance(obj, dict):
        return {_floats_as_text(k): _floats_as_text(v) for k, v in obj.items()}
    return format_float(obj) if isinstance(obj, float) else obj


def _cmd_evolve(cfg: RunConfig, args) -> int:
    rho0 = cfg.rho0()
    grid = cfg.grid()
    T = master_map(cfg.model(), grid)
    n = len(grid)
    rho_t = devec(T.conj().transpose(0, 2, 1) @ vec(rho0))
    TP = devec(T @ vec(EXCITED_PROJ))
    pop = np.real(np.trace(rho0 @ TP, axis1=1, axis2=2))

    def re_im(stack):
        return np.stack([stack.real, stack.imag], axis=-1).reshape(n, 8)

    columns = np.column_stack([grid, re_im(rho_t), re_im(TP), pop]).T
    header = ["t"]
    header += [f"rho_{i}{j}_{p}" for i in (1, 2) for j in (1, 2) for p in ("re", "im")]
    header += [f"heis_proj_{i}{j}_{p}" for i in (1, 2) for j in (1, 2) for p in ("re", "im")]
    header += ["excited_population"]
    _write_csv(args.out / "evolve.csv", header, columns, cfg)
    return 0


def _cmd_event_prob(cfg: RunConfig, args) -> int:
    m = cfg.model()
    rho0 = cfg.rho0()
    payload = json.loads(args.events.read_text())
    if not isinstance(payload, list):
        raise ValueError("events file must hold a JSON list of events")
    results = []
    for entry in payload:
        ev = event_from_json(json.dumps(entry))
        p = event_probability(m, rho0, ev, n_max=cfg.n_max)
        results.append(p)
        print(format_float(p))
    if args.out is not None:
        _write_json(
            args.out / "event_prob.json",
            {"probabilities": [format_float(p) for p in results]},
            cfg,
        )
    return 0


def _cmd_trajectories(cfg: RunConfig, args) -> int:
    n = cfg.n_traj
    trajs = sample_batch(cfg.model(), cfg.rho0(), cfg.horizon, cfg.master_seed, n, mode=cfg.mode)
    _write_csv(args.out / "trajectories.csv", _TRAJ_HEADER.split(","),
               [trajs.index, trajs.jump, trajs.time, trajs.channel], cfg, comments=[f"n_traj={n}"])
    counts = np.diff(trajs.offsets)
    # one contiguous array, summed in the order the per-trajectory list was
    terminal_pop = np.ascontiguousarray(trajs.terminal[:, 0, 0].real)
    _write_json(
        args.out / "summary.json",
        {
            "n_traj": n,
            "mode": cfg.mode,
            "counts_histogram": {str(k): int(v) for k, v in enumerate(np.bincount(counts))},
            "mean_clicks": format_float(counts.mean() if n else 0.0),
            "terminal_excited_population": {
                "mean": format_float(terminal_pop.mean() if n else 0.0),
                "max": format_float(terminal_pop.max() if n else 0.0),
            },
        },
        cfg,
    )
    return 0


def _write_waiting(path: Path, cfg: RunConfig):
    m = cfg.model()
    rho0 = cfg.rho0()
    grid = cfg.grid()
    dens = waiting_densities(m, rho0, grid)
    f_later = theoretical_cdf(m, rho0, "later", grid)
    f_first = theoretical_cdf(m, rho0, "first", grid)
    columns = [grid, dens.z, dens.z_first, dens.z_last, f_later, f_first]
    header = ["x", "z", "z_first", "z_last", "F_later", "F_first"]
    _write_csv(path, header, columns, cfg)


def _cmd_waiting_time(cfg: RunConfig, args) -> int:
    _write_waiting(args.out / "waiting.csv", cfg)
    return 0


def read_trajectory_csv(path: Path) -> list[np.ndarray]:
    """Sorted side-click times per trajectory, read by the module docstring's rules.

    One streamed ``np.loadtxt`` call reads every row into a flat table, the
    channel as a string column ``_CHANNEL_WIDTH`` characters wide, checked as a
    column against side and forward.  The side rows are sorted by (index,
    time) only if one pass finds them out of that order, as the sampler's own
    files never are; they are then sliced at each trajectory's end.  Only when a
    row is rejected, by ``np.loadtxt`` or for its index, time or channel, is the
    file read again line by line: to name the row's file line, and first, for
    a channel column that is neither side nor forward, to read a channel
    followed by spaces and a trailing comment as that channel.
    """
    n = None
    with open(path) as fh:
        for first, line in enumerate(iter(fh.readline, ""), 1):
            if line.startswith("# n_traj="):
                try:
                    n = int(line.removeprefix("# n_traj="))
                except ValueError:
                    n = -1  # not an integer: rejected below as a count < 0
            elif not line.startswith("#") and line.strip() not in ("", _TRAJ_HEADER):
                break
        else:
            line = ""  # no rows, on which np.loadtxt would warn
        if n is None or n < 0:
            raise ValueError(f"{path} has no '# n_traj=N' line with N >= 0 before its rows")
        rows = np.zeros(0, _TRAJ_ROW)
        if line:
            try:
                rows = np.loadtxt(itertools.chain([line], fh), dtype=_TRAJ_ROW, delimiter=",",
                                  ndmin=1)
            except ValueError as exc:  # its row number counts data rows only
                raise ValueError(f"{path} line {_file_line(path, first)}: "
                                 + re.sub(r" at row \d+", "", str(exc))) from None
    index, time, channel = rows["index"], rows["time"], rows["channel"]
    if (unknown := (channel != SIDE) & (channel != FORWARD)).any():
        for k, name in _spaced_channels(path, first, np.flatnonzero(unknown)).items():
            channel[k], unknown[k] = name, False
    is_side = channel == SIDE
    bad_index, bad_time = (index < 0) | (index >= n), ~((0 <= time) & (time < np.inf))
    if (bad := bad_index | bad_time | unknown).any():
        k = bad.argmax()
        at = f"{path} line {_file_line(path, first, k)}: "
        if bad_index[k]:
            raise ValueError(at + f"trajectory index {index[k]} outside [0, {n})")
        if bad_time[k]:
            raise ValueError(at + f"negative or non-finite time {float(time[k])!r}")
        cut = len(channel[k]) == _CHANNEL_WIDTH  # it may be the start of a longer name
        raise ValueError(at + f"could not convert string '{channel[k]}'"
                         + (f" (read as its first {_CHANNEL_WIDTH} characters)" if cut else "")
                         + f" to a channel, {SIDE} or {FORWARD}")
    index, times = index[is_side], time[is_side]
    step = np.diff(index)
    if not ((step > 0) | ((step == 0) & (np.diff(times) >= 0))).all():
        times = times[np.lexsort((times, index))]
    ends = np.cumsum(np.bincount(index, minlength=n)).tolist()
    return [times[a:b] for a, b in zip([0] + ends, ends)]


def _spaced_channels(path: Path, first: int, rows: np.ndarray) -> dict[int, str]:
    """Row -> channel for each of ``rows`` written as a channel, spaces and a trailing comment.

    ``np.loadtxt`` cuts the comment and keeps the spaces, so "side # note"
    reads as 'side '.  Rows count from 0 at line ``first``, as
    ``np.loadtxt`` counts them once it has read the file: one per line with
    text before its first ``#``.
    """
    wanted, found, row = set(rows.tolist()), {}, -1
    with open(path) as fh:
        for text in itertools.islice(fh, first - 1, None):
            data, comment, _ = text.partition("#")
            if not data.rstrip("\r\n"):
                continue
            row += 1
            name = data.rsplit(",", 1)[-1].rstrip()
            if row in wanted and comment and name in (SIDE, FORWARD):
                found[row] = name
    return found


def _file_line(path: Path, first: int, row: float = np.inf) -> int:
    """The line, from 1, of data row ``row`` (from 0) of those from line ``first`` on.

    Without ``row`` it is the first of those lines that ``np.loadtxt`` rejects.
    """
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a comment or blank line alone holds no data
        for number, text in enumerate(fh, 1):
            try:
                if number >= first:
                    row -= len(np.loadtxt([text], dtype=_TRAJ_ROW, delimiter=",", ndmin=1))
            except ValueError:
                return number
            if row < 0:
                return number


def _cmd_renewal_stats(cfg: RunConfig, args) -> int:
    clicks = read_trajectory_csv(args.traj)
    if any(len(ts) and ts[-1] >= cfg.horizon for ts in clicks):
        raise ValueError(f"{args.traj} has a side click at or beyond the config's horizon "
                         f"{cfg.horizon}")
    report = renewal_test(clicks, cfg.model(), cfg.rho0(), cfg.horizon)
    _write_json(args.out / "renewal_report.json", _floats_as_text(dataclasses.asdict(report)), cfg)
    _write_waiting(args.out / "waiting.csv", cfg)
    return 0


def _cmd_verify(cfg: RunConfig, args) -> int:
    report = run_battery(cfg)
    for c in report["checks"]:
        flag = "pass" if c["pass"] else "FAIL"
        print(
            f"{flag}  {c['name']}: distance {c['distance']:.3e} "
            f"(tolerance {c['tolerance']:.3e})"
        )
    if args.out is not None:
        _write_json(args.out / "verify_report.json", report, cfg)
    return 0 if report["all_pass"] else 2


_COMMANDS = {
    "evolve": _cmd_evolve,
    "event-prob": _cmd_event_prob,
    "trajectories": _cmd_trajectories,
    "waiting-time": _cmd_waiting_time,
    "renewal-stats": _cmd_renewal_stats,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](_load_config(args), args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
