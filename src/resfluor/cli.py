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
block of rows at a time as one byte array.  A column's text is picked by its
dtype and made in numpy: a float's is the bytes ``format_float`` gives, an
integer's its ``%d`` digits, and a channel's its name, from its code.
``--threads`` is kept for scripts and has no effect (the sampler runs one
vectorised batch); a config file's ``threads`` key is rejected as unknown.
Exit codes: 0 success, 1 validation or usage error, 2 failed verification.

``trajectories.csv`` holds one ``trajectory_index,jump_index,time,channel``
row per click, from the sampler's click table, which also gives
``summary.json`` its counts and terminal populations.  ``renewal-stats``
reads the CSV, UTF-8 text, back into a click table of its side clicks, the
sampler's :class:`~resfluor.trajectories.Batch`, which the renewal battery
takes as it is.  It reads by these rules and exits 1 on any other file:
``#`` lines are comments; a ``# n_traj=N`` line (N counts every trajectory,
click-free ones too) and the header, if any, come before the first row; rows
come in any order, each an index in [0, N), a jump index, a finite time >= 0
and a channel, side or forward; forward rows are then ignored, and the file's
jump index with them: a click's rank is counted among its trajectory's side
clicks.  A row may end in a ``#`` comment, with or without spaces or tabs
between the channel and the ``#``; a channel followed by spaces and no
comment is rejected.  The message names the file and its first faulty line,
counted from 1, whatever its fault: a row that does not parse, an index, time
or channel that breaks these rules, named with the field at fault, or a byte
that is not UTF-8.  A ``--config`` or ``--events`` file with such a byte, or
an events file that is not JSON, fails naming the file.  The trajectory file
does not record its horizon, so the battery takes the config's: a side click
at or beyond it means the file came from another config, and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np

from .config import (RunConfig, TOOL_VERSION, _DIGITS, _format_floats, config_hash,
                     format_float)
from .davies import event_probability
from .events import event_from_json
from .linalg import EXCITED_PROJ, devec, vec
from .model import master_map
from .renewal import renewal_test, theoretical_cdf, waiting_densities
from .trajectories import CHANNELS, FORWARD, SIDE, Batch, sample_batch
from .verify import run_battery

__all__ = ["main", "run"]

_TRAJ_HEADER = "trajectory_index,jump_index,time,channel"
# one character wider than any channel name, so no longer name is cut to a valid one
_CHANNEL_WIDTH = max(len(SIDE), len(FORWARD)) + 1
_TRAJ_ROW = np.dtype([("index", "i8"), ("jump", "i8"), ("time", "f8"),
                      ("channel", f"U{_CHANNEL_WIDTH}")])
_BLOCK = 2048  # rows per formatted block of a CSV file
# the channel names by code, as fixed-width bytes, and the side code
_CHANNEL_TEXT = CHANNELS.astype("S")
_SIDE_CODE = np.int8(CHANNELS.tolist().index(SIDE))
# an integer >= _TENS[j] has more than j + 1 digits; 2**63 - 1 has 19
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)
# _KEEP[z]: five 4-byte words that clear the first z bytes, a number's leading zeros
_KEEP = np.where(np.arange(20) >= np.arange(20)[:, None], 255, 0).astype(np.uint8).view("<u4")


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
    cfg = RunConfig() if args.config is None else RunConfig.from_json(_read_text(args.config))
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    updates = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    if updates:
        cfg = RunConfig.from_dict({**cfg.to_dict(), **updates})
    return cfg


def _read_text(path: Path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 fails naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_csv(path: Path, header: list[str], columns, cfg: RunConfig, comments=()):
    """Write the stamp, comment lines, header, and row i of the columns, comma-separated.

    A column's dtype picks its text, by :func:`_cells`.  Rows are written
    ``_BLOCK`` at a time: the block's cells are placed side by side in one
    uint8 array, with a ``,`` after each cell and a ``\\n`` after the last,
    and every NUL byte, the cells' padding, is dropped by one
    ``bytes.translate``.  No cell's text holds a NUL, so every byte of the
    text is kept.
    """
    head = [f"{TOOL_VERSION} config={config_hash(cfg)}", *comments]
    columns = [np.asarray(c) for c in columns]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(("".join(f"# {c}\n" for c in head) + ",".join(header) + "\n").encode())
        for a in range(0, len(columns[0]), _BLOCK):
            cells = [_cells(c[a:a + _BLOCK]) for c in columns]
            ends = list(itertools.accumulate(c.shape[1] + 1 for c in cells))
            text = np.full((len(cells[0]), ends[-1]), ord(","), np.uint8)
            for cell, end in zip(cells, ends):
                text[:, end - 1 - cell.shape[1]:end - 1] = cell
            text[:, -1] = ord("\n")
            fh.write(text.tobytes().translate(None, b"\0"))


def _cells(col: np.ndarray) -> np.ndarray:
    """A block of a column as a ``(rows, w)`` uint8 array of its text, unused bytes NUL.

    A float is ``format_float``'s text, the ``S24`` of :func:`_format_floats`;
    an integer is its ``%d`` digits, from 4-digit words of ``_DIGITS``, its
    leading zeros NUL, and a negative one raises ``ValueError``; a bytes
    (``S``) column, such as channel names gathered from a table by code, is
    its own bytes.
    """
    if col.dtype.kind == "f":
        return _format_floats(col).view(np.uint8).reshape(len(col), -1)
    if col.dtype.kind not in "iu":
        return col.view(np.uint8).reshape(len(col), -1)
    col = np.asarray(col, np.int64)
    if col.min(initial=0) < 0:
        raise ValueError("an integer CSV column holds a value outside [0, 2**63)")
    width = len(str(col.max(initial=0)))
    digits = 1 + np.searchsorted(_TENS[:width - 1], col, side="right")
    groups = -(-width // 4)
    words = np.empty((len(col), groups), "<u4")
    for j in range(groups - 1, 0, -1):
        col, low = np.divmod(col, 10000)
        words[:, j] = _DIGITS[low]
    words[:, 0] = _DIGITS[col]
    words &= np.take(_KEEP[:, :groups], 4 * groups - digits, axis=0)
    return words.view(np.uint8)[:, 4 * groups - width:]


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
    try:
        payload = json.loads(_read_text(args.events))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.events}: {exc}") from None
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
               [trajs.index, trajs.jump, trajs.time, _CHANNEL_TEXT[trajs.channel]], cfg,
               comments=[f"n_traj={n}"])
    counts = np.diff(trajs.offsets)
    # a contiguous copy, so the mean sums in the order that gives its pinned bits
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


def read_trajectory_csv(path: Path) -> Batch:
    """The file's side clicks as a :class:`Batch`, read by the module docstring's rules.

    ``len()`` of the table is the file's ``# n_traj=N``, click-free
    trajectories included; its ``jump`` column is each click's rank among its
    trajectory's side clicks, its ``channel`` column a read-only broadcast of
    the side code, and it has no terminal states.  One streamed
    ``np.loadtxt`` call reads every row, the channel as a string
    ``_CHANNEL_WIDTH`` characters wide, and :func:`_fault` checks the
    columns.  A file that either of them rejects, or that holds a byte that
    is not UTF-8, is read again by :func:`_walk`.  The side rows are sorted
    by (index, time) only if one pass finds them out of that order, as the
    sampler's own files never are.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            n, _, line = _header(path, enumerate(fh, 1))
            rows = _parse(itertools.chain([line], fh) if line else [])
    except ValueError:  # a UnicodeDecodeError too
        rows = None
    if rows is None or _fault(rows, n):
        n, rows = _walk(path)
    is_side = rows["channel"] == SIDE
    index, times = rows["index"][is_side], rows["time"][is_side]
    step = np.diff(index)
    if not ((step > 0) | ((step == 0) & (np.diff(times) >= 0))).all():
        order = np.lexsort((times, index))
        index, times = index[order], times[order]
    return Batch(n, index, times, np.broadcast_to(_SIDE_CODE, times.shape))


def _header(path: Path, lines) -> tuple[int, int, str]:
    """``(N, number, line)``: the file's ``# n_traj=N`` and its first row's line and text.

    ``lines`` yields each line with its number, from the file's first; they
    are read up to the first row, and ``line`` is empty if there is none.
    """
    n = None
    for number, line in lines:
        if line.startswith("# n_traj="):
            try:
                n = int(line.removeprefix("# n_traj="))
            except ValueError:
                n = -1  # not an integer: rejected below as a count < 0
        elif not line.startswith("#") and line.strip() not in ("", _TRAJ_HEADER):
            break
    else:
        number, line = 0, ""
    if n is None or n < 0:
        raise ValueError(f"{path} has no '# n_traj=N' line with N >= 0 before its rows")
    return n, number, line


def _parse(lines) -> np.ndarray:
    """The rows of ``lines`` by one ``np.loadtxt`` call; none for ``[]``, on which it warns."""
    if not lines:
        return np.zeros(0, _TRAJ_ROW)
    return np.loadtxt(lines, dtype=_TRAJ_ROW, delimiter=",", ndmin=1)


def _fault(rows: np.ndarray, n: int) -> tuple[int, str] | None:
    """``(k, message)`` for the first of ``rows`` whose index, time or channel is at fault."""
    index, time, channel = rows["index"], rows["time"], rows["channel"]
    bad_index, bad_time = (index < 0) | (index >= n), ~((0 <= time) & (time < np.inf))
    if not (bad := bad_index | bad_time | ((channel != SIDE) & (channel != FORWARD))).any():
        return None
    k = bad.argmax()
    if bad_index[k]:
        return k, f"trajectory index {index[k]} outside [0, {n})"
    if bad_time[k]:
        return k, f"negative or non-finite time {float(time[k])!r}"
    cut = len(channel[k]) == _CHANNEL_WIDTH  # it may be the start of a longer name
    return k, (f"could not convert string '{channel[k]}'"
               + (f" (read as its first {_CHANNEL_WIDTH} characters)" if cut else "")
               + f" to a channel, {SIDE} or {FORWARD}")


def _walk(path: Path) -> tuple[int, np.ndarray]:
    """``(N, rows)`` of the file read a line at a time, or its first fault, naming its line.

    A row is a line from the first row on with text before its ``#``, as
    ``np.loadtxt`` counts them; before a trailing comment, spaces after a
    side or forward channel are cut.  The rows are parsed in one call, and
    only if it fails each alone, up to the first it rejects.  A byte that is
    not UTF-8 ends the rows, and is named if no row before it is at fault.
    """
    lines = _lines(path)
    n, number, line = _header(path, lines)
    numbers, texts, pending = [], [], None
    try:
        for number, line in itertools.chain([(number, line)], lines):
            data, comment, _ = line.partition("#")
            if data:
                if comment and data.rsplit(",", 1)[-1].rstrip() in (SIDE, FORWARD):
                    data = data.rstrip()
                numbers.append(number)
                texts.append(data)
    except ValueError as exc:  # names the byte's line
        pending = exc
    try:
        rows = _parse(texts)
    except ValueError as error:
        for k, text in enumerate(texts):
            try:
                _parse([text])
            except ValueError as exc:
                error = exc
                break
        # the file line replaces np.loadtxt's row number, which counts parsed rows only
        pending = ValueError(f"{path} line {numbers[k]}: " + re.sub(r" at row \d+", "", str(error)))
        rows = _parse(texts[:k])
    if fault := _fault(rows, n):
        k, message = fault
        raise ValueError(f"{path} line {numbers[k]}: {message}")
    if pending:
        raise pending
    return n, rows


def _lines(path: Path):
    """Each line of the file with its number, from 1, decoded one line at a time.

    Lines end at \\n, \\r\\n or \\r, as in a file opened as text.  A byte
    that is not UTF-8 raises ``ValueError`` naming the file, the line and
    the byte's position in it.
    """
    with open(path, "rb") as fh:
        lines = (line for chunk in fh for line in chunk.splitlines())
        for number, raw in enumerate(lines, 1):
            try:
                yield number, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None


def _cmd_renewal_stats(cfg: RunConfig, args) -> int:
    clicks = read_trajectory_csv(args.traj)
    if (clicks.time >= cfg.horizon).any():
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
