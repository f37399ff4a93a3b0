"""The benchmark's three workloads.

A workload generates its inputs from the seed (``make_inputs``), runs three
timed steps per round (``run_step``), turns each step's raw result into
per-operation outputs (``digest``, untimed), and checks the first round's
outputs against the independent reference or a property of the method
(``check``).  Later rounds must reproduce the first round's outputs
exactly, since the program is deterministic.

Subcommands go through ``resfluor.cli.run`` with ``--threads 1``; library
routines without a subcommand go through the package's public functions.
Timed calls look those up as module attributes at call time, so that a
traced run's wrappers see them.  The checks and the reference are imported
only when the outputs are checked, so their SciPy imports count neither in
set-up time nor in peak memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import resfluor
import resfluor.cli
import resfluor.verify
from resfluor import SeedSpec, build_model, event_from_json
from resfluor.davies import dyson_truncation_tail
from resfluor.events import OUTSIDE_FREE, OUTSIDE_ZERO

KAPPA = 2.0 ** -0.5  # symmetric channels, |kappa_f|^2 = |kappa_s|^2 = 1/2
Z_DRIVE = 1.0
SIZES = ("full", "short")


class Failed:
    """Output of an operation that raised or exited non-zero."""

    def __init__(self, why: str):
        self.why = why


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _matrix_key(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    """Base: inputs under ``workdir``, three steps, one list of ops per step."""

    name = ""
    steps: tuple[str, str, str] = ("", "", "")

    def __init__(self, seed: int, size: str, workdir: Path, tracer):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.seed = int(seed)
        self.size = size
        self.dir = Path(workdir)
        self.tracer = tracer

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def cli(self, *argv) -> tuple[int, str] | Failed:
        """One subcommand through the CLI entry point, stdout captured."""
        argv = [str(a) for a in argv] + ["--threads", "1"]
        out = io.StringIO()
        span = self.tracer.start(f"cli.{argv[0]}")
        try:
            with contextlib.redirect_stdout(out):
                code = resfluor.cli.run(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            return Failed(f"{argv[0]} raised {exc!r}")
        finally:
            self.tracer.stop(span)
        if code != 0:
            return Failed(f"{argv[0]} exited {code}")
        if self.tracer.enabled:
            out_dir = Path(argv[argv.index("--out") + 1])
            self.tracer.count("cli.bytes_written", sum(f.stat().st_size for f in out_dir.iterdir()))
        return code, out.getvalue()

    # interface
    def make_inputs(self) -> None:
        raise NotImplementedError

    def run_step(self, k: int):
        raise NotImplementedError

    def digest(self, k: int, raw, full: bool) -> list[tuple[object, object]]:
        """(fingerprint, payload) per operation; payloads only when ``full``."""
        raise NotImplementedError

    def check(self, payloads: list[list]) -> list[list[list[str]]]:
        """Failure messages per step and operation."""
        raise NotImplementedError


# --- counting-maps ------------------------------------------------------------

# Count patterns as fractions of the horizon: per channel (outside policy,
# [(a, b, count), ...]).  Edge fractions are at least 0.05 apart across the
# whole event, and the seed moves each by less than 0.02, so the overlap
# pattern, the segment count and the cost stay fixed.
_Z, _F = "zero", "free"
SINGLE_WINDOW = (
    ((_Z, []), (_Z, [])),
    ((_F, []), (_F, [(0.2, 0.7, 0)])),
    ((_F, []), (_Z, [(0.3, 0.75, 1)])),
    ((_Z, []), (_F, [(0.2, 0.8, 2)])),
    ((_F, []), (_Z, [(0.25, 0.8, 3)])),
    ((_F, [(0.15, 0.6, 1)]), (_F, [])),
    ((_Z, [(0.2, 0.85, 2)]), (_Z, [])),
    ((_Z, [(0.1, 0.7, 3)]), (_F, [])),
    # both channels pinned in one segment: the shuffle path
    ((_Z, [(0.3, 0.8, 1)]), (_Z, [(0.3, 0.8, 1)])),
    ((_F, [(0.1, 0.6, 2)]), (_F, [(0.1, 0.6, 1)])),
)
MULTI_WINDOW = (
    ((_F, []), (_Z, [(0.1, 0.4, 2), (0.55, 0.9, 2)])),
    ((_F, [(0.1, 0.35, 1), (0.6, 0.85, 1)]), (_F, [(0.25, 0.7, 1)])),
    ((_F, [(0.05, 0.55, 2)]), (_Z, [(0.4, 0.9, 1)])),
    ((_F, []), (_F, [(0.1, 0.45, 1), (0.45, 0.8, 2)])),
    ((_Z, [(0.1, 0.4, 2)]), (_F, [(0.6, 0.9, 2)])),
    ((_Z, [(0.15, 0.6, 1)]), (_Z, [(0.4, 0.85, 1)])),
    ((_F, [(0.1, 0.3, 1), (0.5, 0.7, 0), (0.75, 0.95, 1)]), (_Z, [])),
)
_OUTSIDE = {_Z: OUTSIDE_ZERO, _F: OUTSIDE_FREE}


def _event_from_template(template, horizon: float, jitter: dict) -> dict:
    """Reference-form event; ``jitter`` maps each edge fraction to its shift."""
    event = {"horizon": horizon}
    for name, (outside, windows) in zip(("forward", "side"), template):
        event[name] = {
            "outside": outside,
            "windows": [
                (horizon * (a + jitter[a]), horizon * (b + jitter[b]), c) for a, b, c in windows
            ],
        }
    return event


def event_json(event: dict) -> dict:
    """The documented CLI schema of a reference-form event."""
    return {
        "horizon": event["horizon"],
        "channels": {
            name: {
                "outside": _OUTSIDE[event[name]["outside"]],
                "windows": [
                    {"channel": name, "window": [a, b], "count": c}
                    for a, b, c in event[name]["windows"]
                ],
            }
            for name in ("forward", "side")
        },
    }


class CountingMaps(Workload):
    """event-prob on single- and multi-window cylinder events, then evolve."""

    name = "counting-maps"
    steps = ("event-prob single-window", "event-prob multi-window", "evolve")

    def make_inputs(self) -> None:
        rng = self.rng()
        short = self.size == "short"
        files = {}
        self.events = {}
        for key, templates in (("single", SINGLE_WINDOW), ("multi", MULTI_WINDOW)):
            if short:
                templates = templates[::4]
            events = []
            for template in templates:
                edges = sorted({e for _, ws in template for w in ws for e in w[:2]})
                jitter = {e: rng.uniform(-0.018, 0.018) for e in edges}
                events.append(_event_from_template(template, rng.uniform(1.5, 2.5), jitter))
            self.events[key] = events
            files[key] = self.dir / f"events_{key}.json"
        self.config = {
            "kappa_f": KAPPA,
            "kappa_s": KAPPA,
            "z": Z_DRIVE,
            "initial_state": "mixed",
            "grid_start": 0.0,
            # fixed: the number of squarings in each point's exponential
            # grows with t, so a seeded stop would move the step's cost
            "grid_stop": 12.0,
            "grid_num": 101 if short else 2001,
        }
        self.dir.mkdir(parents=True, exist_ok=True)
        for key, path in files.items():
            path.write_text(json.dumps([event_json(e) for e in self.events[key]]))
        (self.dir / "config.json").write_text(json.dumps(self.config))

    def run_step(self, k: int):
        cfg = self.dir / "config.json"
        if k < 2:
            key = ("single", "multi")[k]
            return self.cli("event-prob", "--config", cfg, "--events",
                            self.dir / f"events_{key}.json", "--out", self.dir / f"out_{key}")
        return self.cli("evolve", "--config", cfg, "--out", self.dir / "out_evolve")

    def digest(self, k: int, raw, full: bool):
        if k < 2:
            n = len(self.events[("single", "multi")[k]])
            if isinstance(raw, Failed):
                return [(raw.why, raw)] * n
            path = self.dir / f"out_{('single', 'multi')[k]}" / "event_prob.json"
            probs = json.loads(path.read_text())["probabilities"]
            if raw[1].split() != probs or len(probs) != n:
                return [("stdout and event_prob.json disagree", Failed("inconsistent output"))] * n
            return [(p, float(p)) for p in probs]
        if isinstance(raw, Failed):
            return [(raw.why, raw)]
        path = self.dir / "out_evolve" / "evolve.csv"
        table = np.loadtxt(path, delimiter=",", comments="#", skiprows=2) if full else None
        return [(_sha(path), table)]

    def check(self, payloads):
        import checks
        import reference as ref

        rho0 = 0.5 * np.eye(2)
        m = build_model(KAPPA, KAPPA, Z_DRIVE)
        out = []
        for key, probs in zip(("single", "multi"), payloads[:2]):
            msgs = []
            for i, (event, p) in enumerate(zip(self.events[key], probs)):
                if isinstance(p, Failed):
                    msgs.append([p.why])
                    continue
                program_event = event_from_json(json.dumps(event_json(event)))
                qe = resfluor.davies_map(m, program_event, n_max=6, quad_order=24).quad_error
                p_ref = ref.event_probability(KAPPA, KAPPA, Z_DRIVE, rho0, event)
                msgs.append(checks.check_probability(f"{key} event {i}", p, p_ref, qe))
            out.append(msgs)
        table = payloads[2][0]
        if isinstance(table, Failed):
            out.append([[table.why]])
        else:
            c = self.config
            times = np.linspace(c["grid_start"], c["grid_stop"], c["grid_num"])
            rho_ref = ref.evolve_states(KAPPA, KAPPA, Z_DRIVE, rho0, times)
            # T_t(P) = M_t vec_c(P), M_t column-stacked like the program's maps
            p_vec = ref.EXCITED.reshape(4, order="F")
            heis_ref = np.array([(ref.master_superop(KAPPA, KAPPA, Z_DRIVE, t) @ p_vec)
                                 .reshape(2, 2, order="F") for t in times])
            out.append([checks.check_evolve(table, times, rho_ref, heis_ref)])
        return out


# --- cross-check -------------------------------------------------------------


class CrossCheck(Workload):
    """Kernel-oracle maps, the amplitude brute force, and the Dyson route."""

    name = "cross-check"
    # Gauss-Legendre order of the oracle and the Dyson route.  On these
    # horizons (<= 0.4) order 12 already matches the reference to roundoff,
    # as orders 16 and 24 do, so a 30 s run holds a dozen rounds or more.
    quad_order = 12
    steps = ("oracle maps, free channels", "oracle maps, exact events; amplitudes", "dyson map")

    def make_inputs(self) -> None:
        from resfluor import Event, concat_events, exact_count, free_channel, zero_photons
        from resfluor.events import ChannelEvent, Window

        rng = self.rng()
        short = self.size == "short"
        driven = build_model(KAPPA, KAPPA, Z_DRIVE)
        undriven = build_model(KAPPA, KAPPA, 0.0)
        free, none = free_channel(), zero_photons()

        def pinned(a, b, count):
            return ChannelEvent((Window(a, b, count),), OUTSIDE_ZERO)

        t_ff = rng.uniform(0.25, 0.3)
        t_1s = rng.uniform(0.06, 0.09)
        t_und = np.sort(rng.uniform(0.3, 1.0, size=3))
        a, b = 0.05 + rng.uniform(-0.02, 0.02), 0.3 + rng.uniform(-0.02, 0.02)
        e_lo, e_hi = 0.1 + rng.uniform(-0.02, 0.02), 0.3 + rng.uniform(-0.02, 0.02)
        f_lo, f_hi = 0.05 + rng.uniform(-0.02, 0.02), 0.2 + rng.uniform(-0.02, 0.02)
        E = Event(none, exact_count(e_lo, e_hi, 1), 0.4)
        F = Event(exact_count(f_lo, f_hi, 1), none, 0.3)
        cap_free = 2 if short else 3
        # (label, model, event, cap); caps 3-4 in the full size.  Maps of
        # events with a free channel are truncated at the cap ...
        self.free_maps = [
            ("free/free", driven, Event(free, free, t_ff), cap_free),
            ("one side photon", driven, Event(free, exact_count(0.0, t_1s, 1), t_1s), cap_free),
            *[(f"undriven free/free t={t:.3f}", undriven, Event(free, free, float(t)), cap_free)
              for t in (t_und[:1] if short else t_und)],
        ]
        # ... and those without one are exact up to quadrature
        self.exact_maps = [
            ("zero-outside 2f+1s", driven,
             Event(pinned(a, b, 1 if short else 2), pinned(a, b, 1), 0.35), 4),
            ("composition F", driven, F, 4),
            ("composition E", driven, E, 4),
            ("composition F+E", driven, concat_events(F, E), 4),
        ]
        t_amp = rng.uniform(0.8, 1.2)
        s_amp = t_amp * rng.uniform(0.2, 0.6)
        self.amplitudes = [
            ("one forward emission", t_amp, (s_amp,), ()),
            ("one side emission", t_amp, (), (s_amp,)),
        ]
        self.t_dyson = rng.uniform(0.12, 0.18)
        self.dyson_cap = 2 if short else 4
        self.dyson_event = Event(free, free, self.t_dyson)
        self.driven = driven

    def run_step(self, k: int):
        def oracle(maps):
            return [lambda m=m, e=e, c=c: resfluor.oracle_davies_map(
                        m, e, n_max=c, quad_order=self.quad_order)
                    for _, m, e, c in maps]

        if k == 0:
            calls = oracle(self.free_maps)
        elif k == 1:
            m = self.driven
            calls = oracle(self.exact_maps) + [
                lambda t=t, of=of, os_=os_: (
                    resfluor.driven_amplitude(m, t, of, os_),
                    resfluor.verify.amplitude_by_region_quadrature(m, t, of, os_),
                )
                for _, t, of, os_ in self.amplitudes
            ]
        else:
            calls = [lambda: resfluor.davies_map(self.driven, self.dyson_event, n_max=self.dyson_cap,
                                                 quad_order=self.quad_order, expansion="dyson")]
        results = []
        for call in calls:
            try:
                results.append(call())
            except Exception as exc:  # one failed operation, the rest still run
                results.append(Failed(repr(exc)))
        return results

    def digest(self, k: int, raw, full: bool):
        out = []
        for r in raw:
            if isinstance(r, Failed):
                out.append((r.why, r))
            elif isinstance(r, tuple):  # amplitude pair
                out.append((_matrix_key(*r), r))
            elif k < 2:
                out.append((_matrix_key(r.matrix, r.tail_bound), r))
            else:
                out.append((_matrix_key(r.matrix, r.quad_error), r))
        return out

    def _check_maps(self, maps, results, tol_of) -> list[list[str]]:
        import checks
        import reference as ref

        msgs = []
        for (label, m, event, _), res in zip(maps, results):
            if isinstance(res, Failed):
                msgs.append([res.why])
                continue
            expected = ref.event_superop(m.kappa_f, m.kappa_s, m.z, _reference_event(event))
            msgs.append(checks.check_map(label, res.matrix, expected, tol_of(res)))
        return msgs

    def check(self, payloads):
        import checks
        import reference as ref

        free_res, exact_and_amps, (dyson,) = payloads
        free_msgs = self._check_maps(self.free_maps, free_res, lambda r: r.tail_bound + 1e-9)
        # with no free channel and the pinned total within the cap, the oracle
        # truncates nothing; only roundoff separates it from the reference
        n_exact = len(self.exact_maps)
        exact_res, amps = exact_and_amps[:n_exact], exact_and_amps[n_exact:]
        exact_msgs = self._check_maps(self.exact_maps, exact_res, lambda r: checks.ROUNDOFF)
        oF, oE, oFE = exact_res[1:4]
        if not any(isinstance(r, Failed) for r in (oF, oE, oFE)):
            exact_msgs[3] += checks.check_map(
                "oracle(F) oracle(E) = oracle(F+E)", oF.matrix @ oE.matrix, oFE.matrix,
                checks.ROUNDOFF)
        amp_msgs = []
        for (label, *_), res in zip(self.amplitudes, amps):
            if isinstance(res, Failed):
                amp_msgs.append([res.why])
            else:
                amp_msgs.append(checks.check_map(label, res[0], res[1], checks.ROUNDOFF))
        if isinstance(dyson, Failed):
            dyson_msgs = [[dyson.why]]
        else:
            m = self.driven
            tol = (dyson_truncation_tail(m, self.t_dyson, self.dyson_cap) + dyson.quad_error
                   + checks.ROUNDOFF)
            dyson_msgs = [checks.check_map(
                "dyson free/free", dyson.matrix,
                ref.master_superop(m.kappa_f, m.kappa_s, m.z, self.t_dyson), tol)]
        return [free_msgs, exact_msgs + amp_msgs, dyson_msgs]


def _reference_event(event) -> dict:
    """A program Event as the reference's plain-data event."""
    out = {"horizon": float(event.horizon)}
    for name in ("forward", "side"):
        ch = getattr(event, name)
        out[name] = {
            "outside": _F if ch.free else _Z,
            "windows": [(w.a, w.b, w.count) for w in ch.windows],
        }
    return out


# --- sampling ------------------------------------------------------------------

HORIZON = 50.0  # the default configuration's horizon


def parse_trajectories(path: Path, n_traj: int, picks) -> dict:
    """Per-trajectory forward and side counts, plus the raw rows of ``picks``."""
    counts = {"forward": np.zeros(n_traj, dtype=int), "side": np.zeros(n_traj, dtype=int)}
    rows = {i: [] for i in picks}
    bad = 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("trajectory_index"):
                continue
            line = line.rstrip("\n")
            idx_s, _, _, channel = line.split(",")
            idx = int(idx_s)
            if channel in counts and 0 <= idx < n_traj:
                counts[channel][idx] += 1
            else:
                bad += 1
            if idx in rows:
                rows[idx].append(line)
    return {"counts": counts, "rows": rows, "bad_rows": bad}


class Sampling(Workload):
    """Side-only trajectories, renewal-stats on them, two-channel trajectories."""

    name = "sampling"
    steps = ("trajectories side-only", "renewal-stats", "trajectories two-channel")

    def make_inputs(self) -> None:
        rng = self.rng()
        short = self.size == "short"
        self.n_side = 1500 if short else 5000
        self.n_two = 300 if short else 1250
        self.seeds = [int(s) for s in rng.integers(0, 2**63, size=2)]
        # trajectories re-sampled one at a time: the first, the last, two more
        self.picks = {
            mode: sorted({0, n - 1, *(int(i) for i in rng.integers(1, n - 1, size=2))})
            for mode, n in (("side-only", self.n_side), ("two-channel", self.n_two))
        }
        self.config = {
            "kappa_f": KAPPA,
            "kappa_s": KAPPA,
            "z": Z_DRIVE,
            "horizon": HORIZON,
            "initial_state": "ground",
            "grid_start": 0.0,
            "grid_stop": 12.0,
            "grid_num": 241,
        }
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "config.json").write_text(json.dumps(self.config))

    def run_step(self, k: int):
        cfg = self.dir / "config.json"
        if k == 1:
            return self.cli("renewal-stats", "--config", cfg, "--traj",
                            self.dir / "side" / "trajectories.csv", "--out", self.dir / "renewal")
        mode, sub, n, seed = (("side-only", "side", self.n_side, self.seeds[0]) if k == 0
                              else ("two-channel", "two", self.n_two, self.seeds[1]))
        return self.cli("trajectories", "--config", cfg, "--out", self.dir / sub,
                        "--n", n, "--seed", seed, "--mode", mode)

    def digest(self, k: int, raw, full: bool):
        if isinstance(raw, Failed):
            return [(raw.why, raw)]
        if k == 1:
            d = self.dir / "renewal"
            key = _sha(d / "renewal_report.json") + _sha(d / "waiting.csv")
            payload = None
            if full:
                payload = {
                    "report": json.loads((d / "renewal_report.json").read_text()),
                    "waiting": np.loadtxt(d / "waiting.csv", delimiter=",", comments="#",
                                          skiprows=2),
                }
            return [(key, payload)]
        sub, mode, n = ("side", "side-only", self.n_side) if k == 0 else ("two", "two-channel", self.n_two)
        path = self.dir / sub / "trajectories.csv"
        payload = parse_trajectories(path, n, self.picks[mode]) if full else None
        return [(_sha(path), payload)]

    def _resample(self, seed: int, mode: str, rows: dict) -> list[str]:
        import checks

        m = build_model(KAPPA, KAPPA, Z_DRIVE)
        ground = np.diag([0.0, 1.0]).astype(complex)
        msgs = []
        for i in self.picks[mode]:
            tr = resfluor.sample_trajectory(m, ground, HORIZON, SeedSpec(seed, i), mode=mode)
            msgs += checks.check_resampled_rows(i, rows[i], tr.records)
        return msgs

    def check(self, payloads):
        import checks
        import reference as ref

        (side,), (renewal,), (two,) = payloads
        n_f_ref, n_s_ref = ref.expected_counts(KAPPA, KAPPA, Z_DRIVE, ref.GROUND, HORIZON)
        out = []
        for payload, seed, mode in ((side, self.seeds[0], "side-only"),
                                    (two, self.seeds[1], "two-channel")):
            if isinstance(payload, Failed):
                out.append([[payload.why]])
                continue
            msgs = [f"{payload['bad_rows']} malformed rows"] if payload["bad_rows"] else []
            msgs += checks.check_mean_count(f"{mode} side", payload["counts"]["side"], n_s_ref)
            if mode == "two-channel":
                msgs += checks.check_mean_count(f"{mode} forward", payload["counts"]["forward"],
                                                n_f_ref)
            elif payload["counts"]["forward"].any():
                msgs.append("side-only file holds forward clicks")
            msgs += self._resample(seed, mode, payload["rows"])
            out.append([msgs])
        if isinstance(renewal, Failed):
            out.insert(1, [[renewal.why]])
        elif isinstance(side, Failed):
            out.insert(1, [["no side-only file to compare with"]])
        else:
            s = side["counts"]["side"]
            msgs = checks.check_renewal_report(
                renewal["report"], self.n_side, int((s >= 1).sum()), int((s >= 2).sum()),
                int((s >= 3).sum()))
            table = renewal["waiting"]
            msgs += checks.check_cdf("waiting.csv F_later", table[:, 4],
                                     ref.side_cdf_later(KAPPA, KAPPA, Z_DRIVE, table[:, 0]))
            out.insert(1, [msgs])
        return out


WORKLOADS = {w.name: w for w in (CountingMaps, CrossCheck, Sampling)}
