"""Batch front door: config parsing, subcommand dispatch, deterministic files.

Subcommands: evolve, event-prob, trajectories, waiting-time, renewal-stats,
verify.  All numeric output uses 17 significant digits, CSV for arrays and
JSON for reports, and every file carries a tool-version/config-hash stamp,
so identical config + seed reproduce byte-identical files at any thread
count.  ``trajectories.csv`` also records its trajectory count in a
``# n_traj=N`` line, which ``renewal-stats`` requires.  Exit codes: 0
success, 1 validation or usage error, 2 failed verification.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import RunConfig, TOOL_VERSION, config_hash, format_float
from .davies import event_probability
from .events import event_from_json
from .linalg import EXCITED_PROJ, vec
from .model import master_map
from .renewal import renewal_test, theoretical_cdf, waiting_densities
from .trajectories import Trajectory, sample_batch
from .verify import run_battery

__all__ = ["main", "run"]


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
        sp.add_argument("--threads", type=int, default=None, help="worker threads")

    sp = sub.add_parser("evolve", help="unconditioned evolution on the time grid")
    common(sp)

    sp = sub.add_parser("event-prob", help="probabilities of events from a JSON file")
    common(sp, out_required=False)
    sp.add_argument("--events", type=Path, required=True, help="JSON list of events")

    sp = sub.add_parser("trajectories", help="sample photon-detection records")
    common(sp)
    sp.add_argument("--n", type=int, default=None, help="number of trajectories")
    sp.add_argument("--seed", type=int, default=None, help="master seed (u64)")
    sp.add_argument("--mode", type=str, default=None, choices=["side-only", "two-channel"])

    sp = sub.add_parser("waiting-time", help="theoretical waiting-time tables")
    common(sp)

    sp = sub.add_parser("renewal-stats", help="renewal battery on a trajectory CSV")
    common(sp)
    sp.add_argument("--traj", type=Path, required=True, help="trajectory CSV to read")

    sp = sub.add_parser("verify", help="oracle cross-check battery")
    common(sp, out_required=False)
    return p


def _load_config(path: Path | None, overrides: dict) -> RunConfig:
    cfg = RunConfig() if path is None else RunConfig.from_json(path.read_text())
    updates = {k: v for k, v in overrides.items() if v is not None}
    if updates:
        cfg = RunConfig.from_dict({**cfg.to_dict(), **updates})
    return cfg


def _stamp(cfg: RunConfig) -> str:
    return f"{TOOL_VERSION} config={config_hash(cfg)}"


def _write_csv(path: Path, header: list[str], rows, cfg: RunConfig, comments=()):
    lines = [f"# {_stamp(cfg)}", *(f"# {c}" for c in comments), ",".join(header)]
    for row in rows:
        lines.append(
            ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)
        )
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict, cfg: RunConfig):
    payload = {"tool": TOOL_VERSION, "config_hash": config_hash(cfg), **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _cmd_evolve(args) -> int:
    cfg = _load_config(args.config, {"threads": args.threads})
    m = cfg.model()
    rho0 = cfg.rho0()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.grid()
    T = master_map(m, grid)
    n = len(grid)
    # column-stacked images, read back as 2x2 matrices in row-major order
    rho_t = (T.conj().transpose(0, 2, 1) @ vec(rho0)).reshape(n, 2, 2).transpose(0, 2, 1)
    TP = (T @ vec(EXCITED_PROJ)).reshape(n, 2, 2).transpose(0, 2, 1)
    pop = np.real(np.trace(rho0 @ TP, axis1=1, axis2=2))

    def re_im(stack):
        return np.stack([stack.real, stack.imag], axis=-1).reshape(n, 8)

    rows = np.column_stack([grid, re_im(rho_t), re_im(TP), pop]).tolist()
    header = ["t"]
    header += [f"rho_{i}{j}_{p}" for i in (1, 2) for j in (1, 2) for p in ("re", "im")]
    header += [f"heis_proj_{i}{j}_{p}" for i in (1, 2) for j in (1, 2) for p in ("re", "im")]
    header += ["excited_population"]
    _write_csv(out / "evolve.csv", header, rows, cfg)
    return 0


def _cmd_event_prob(args) -> int:
    cfg = _load_config(args.config, {"threads": args.threads})
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
        args.out.mkdir(parents=True, exist_ok=True)
        _write_json(
            args.out / "event_prob.json",
            {"probabilities": [format_float(p) for p in results]},
            cfg,
        )
    return 0


def _traj_rows(trajs: list[Trajectory]):
    for tr in trajs:
        for k, (t, c) in enumerate(tr.records):
            yield (tr.index, k, float(t), c)


def _cmd_trajectories(args) -> int:
    cfg = _load_config(
        args.config,
        {
            "threads": args.threads,
            "n_traj": args.n,
            "master_seed": args.seed,
            "mode": args.mode,
        },
    )
    m = cfg.model()
    rho0 = cfg.rho0()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    n = cfg.n_traj
    workers = max(1, cfg.threads)
    if workers == 1 or n < 2 * workers:
        trajs = sample_batch(m, rho0, cfg.horizon, cfg.master_seed, n, mode=cfg.mode)
    else:
        # chunked by index range; per-trajectory streams make the result
        # independent of the split
        bounds = np.linspace(0, n, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    lambda se: sample_batch(
                        m, rho0, cfg.horizon, cfg.master_seed,
                        se[1] - se[0], mode=cfg.mode, first_index=se[0],
                    ),
                    zip(bounds[:-1], bounds[1:]),
                )
            )
        trajs = [t for part in parts for t in part]

    _write_csv(
        out / "trajectories.csv",
        ["trajectory_index", "jump_index", "time", "channel"],
        _traj_rows(trajs),
        cfg,
        comments=[f"n_traj={n}"],
    )
    counts = np.array([len(t.records) for t in trajs], dtype=int)
    hist = np.bincount(counts) if len(counts) else np.array([], dtype=int)
    terminal_pop = [float(np.real(t.terminal_state[0, 0])) for t in trajs]
    _write_json(
        out / "summary.json",
        {
            "n_traj": n,
            "mode": cfg.mode,
            "counts_histogram": {str(k): int(v) for k, v in enumerate(hist)},
            "mean_clicks": format_float(float(counts.mean()) if len(counts) else 0.0),
            "terminal_excited_population": {
                "mean": format_float(float(np.mean(terminal_pop)) if terminal_pop else 0.0),
                "max": format_float(float(np.max(terminal_pop)) if terminal_pop else 0.0),
            },
        },
        cfg,
    )
    return 0


def _waiting_rows(cfg: RunConfig):
    m = cfg.model()
    rho0 = cfg.rho0()
    grid = cfg.grid()
    dens = waiting_densities(m, rho0, grid)
    f_later = theoretical_cdf(m, rho0, "later", grid)
    f_first = theoretical_cdf(m, rho0, "first", grid)
    for k, x in enumerate(grid):
        yield (
            float(x),
            float(dens.z[k]),
            float(dens.z_first[k]),
            float(dens.z_last[k]),
            float(f_later[k]),
            float(f_first[k]),
        )


def _cmd_waiting_time(args) -> int:
    cfg = _load_config(args.config, {"threads": args.threads})
    args.out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        args.out / "waiting.csv",
        ["x", "z", "z_first", "z_last", "F_later", "F_first"],
        _waiting_rows(cfg),
        cfg,
    )
    return 0


def read_trajectory_csv(path: Path) -> list[np.ndarray]:
    """Side-click time arrays per trajectory from the documented CSV format.

    The trajectory count comes from the file's ``# n_traj=N`` line, so
    trajectories without a side click are kept as empty arrays.
    """
    n = None
    per: dict[int, list[float]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# n_traj="):
                n = int(line.removeprefix("# n_traj="))
            if not line or line.startswith("#") or line.startswith("trajectory_index"):
                continue
            idx_s, _jump, t_s, channel = line.split(",")
            if channel == "side":
                per.setdefault(int(idx_s), []).append(float(t_s))
    if n is None:
        raise ValueError(f"{path} has no '# n_traj=N' line")
    if per and not 0 <= min(per) <= max(per) < n:
        raise ValueError(f"{path} has trajectory indices outside [0, {n})")
    return [np.array(sorted(per.get(i, []))) for i in range(n)]


def _cmd_renewal_stats(args) -> int:
    cfg = _load_config(args.config, {"threads": args.threads})
    m = cfg.model()
    rho0 = cfg.rho0()
    args.out.mkdir(parents=True, exist_ok=True)
    clicks = read_trajectory_csv(args.traj)
    tail_times = tuple(cfg.horizon * f for f in (0.2, 0.5, 1.0))
    report = renewal_test(clicks, m, rho0, tail_times=tail_times)
    _write_json(
        args.out / "renewal_report.json",
        {
            "n_traj": report.n_traj,
            "n_first": report.n_first,
            "n_later": report.n_later,
            "ks_stat_first": format_float(report.ks_stat_first),
            "ks_stat_later": format_float(report.ks_stat_later),
            "ks_stat_third": format_float(report.ks_stat_third),
            "ks_threshold_99": format_float(report.ks_threshold_99),
            "independence_stat": format_float(report.independence_stat),
            "independence_pvalue": format_float(report.independence_pvalue),
            "counts_tail": {
                str(k): {format_float(t): format_float(v) for t, v in d.items()}
                for k, d in report.counts_tail.items()
            },
            "underpowered": report.underpowered,
            "passed": report.passed,
        },
        cfg,
    )
    _write_csv(
        args.out / "waiting.csv",
        ["x", "z", "z_first", "z_last", "F_later", "F_first"],
        _waiting_rows(cfg),
        cfg,
    )
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config, {"threads": args.threads})
    report = run_battery(cfg)
    for c in report["checks"]:
        flag = "pass" if c["pass"] else "FAIL"
        print(
            f"{flag}  {c['name']}: distance {c['distance']:.3e} "
            f"(tolerance {c['tolerance']:.3e})"
        )
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
