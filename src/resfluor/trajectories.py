"""Monte Carlo sampling of photon-detection records.

Two observation schemes are supported:

* ``side-only``: only the side detector is read out.  Between detections the
  conditional state evolves by the Schroedinger dual of Z_t (forward channel
  traced out, no side count), and each side click projects the atom to the
  ground state exactly.
* ``two-channel``: both detectors are read out.  Between clicks the state
  evolves by the dual of the no-count map Ad[B_t]; at a click the channel is
  drawn from the two instantaneous rates and the corresponding jump matrix
  (zI + V_f or V_s) is applied.

Waiting times are sampled by inverting the no-click survival probability
S(x) = Tr(rho E_x(I)), a scalar component of a 4x4 semigroup (see
:mod:`resfluor.semigroup`).  S is nonincreasing, so a row crosses its uniform
u within the cap iff S(cap) < u; those rows bisect [0, cap] for a fixed
number of steps, which brings the bracket below 1e-10.  Each row's result
depends on its own state and uniform only.  Every trajectory owns a
counter-based random stream Philox(key=(master_seed, trajectory_index)),
making each trajectory a pure function of its seed pair: batches are
bit-reproducible at any parallelism level and across runs.

Uniform-draw discipline (fixed so streams are portable): one uniform per
waiting-time attempt, and in two-channel mode one further uniform per
realized click for the channel choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import I2, require_density_matrix, vec
from .model import Model, no_jump_generator, no_side_count_generator, side_jump
from .semigroup import Component, SemigroupCache

__all__ = [
    "SeedSpec",
    "Trajectory",
    "survival",
    "sample_waiting_time",
    "apply_side_jump",
    "evolve_no_jump",
    "sample_trajectory",
    "sample_batch",
    "trajectory_density_audit",
    "waiting_time_cap",
]

SIDE = "side"
FORWARD = "forward"

_BISECT_TOL = 1e-10
_JUMP_POP_TOL = 1e-14
_BLOCK = 64


def _batch_vec(rhos: np.ndarray) -> np.ndarray:
    """Column-stack each matrix of a (B,2,2) stack into rows of a (B,4) array."""
    return rhos.transpose(0, 2, 1).reshape(rhos.shape[0], 4)


def _batch_devec(vecs: np.ndarray) -> np.ndarray:
    return vecs.reshape(vecs.shape[0], 2, 2).transpose(0, 2, 1)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus trajectory index; the pair addresses one stream."""

    master_seed: int
    trajectory_index: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in a u64")
        if self.trajectory_index < 0:
            raise ValueError("trajectory_index must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Ordered click records plus the conditional state at the horizon."""

    records: tuple[tuple[float, str], ...]
    horizon: float
    terminal_state: np.ndarray
    index: int = 0

    def times(self, channel: str | None = None) -> np.ndarray:
        return np.array(
            [t for t, c in self.records if channel is None or c == channel]
        )

    def inter_arrivals(self, channel: str | None = None) -> np.ndarray:
        ts = self.times(channel)
        if len(ts) == 0:
            return ts
        return np.diff(np.concatenate([[0.0], ts]))


def waiting_time_cap(m: Model) -> float:
    """Search cap for survival inversion: 50 * (1 + 1/|kappa_s|^2)."""
    ks2 = abs(m.kappa_s) ** 2
    if ks2 == 0.0:
        return np.inf
    return 50.0 * (1.0 + 1.0 / ks2)


class _ModeOps:
    """Survival, dual evolution and jumps for one observation mode."""

    def __init__(self, m: Model, mode: str):
        if mode not in ("side-only", "two-channel"):
            raise ValueError(f"unknown mode {mode!r}")
        gen = no_side_count_generator(m) if mode == "side-only" else no_jump_generator(m)
        self.sg = SemigroupCache(gen)
        self.jump_mats = {FORWARD: m.z * I2 + m.V_f, SIDE: m.V_s}

    def survival(self, rhos: np.ndarray) -> Component:
        """x -> Tr(rho_b E_x(I)) for each state of a (B,2,2) stack."""
        return self.sg.component(_batch_vec(rhos), vec(I2))

    def dual_evolve(self, rhos: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Unnormalized Schroedinger evolution of a (B,2,2) stack over gaps xs."""
        duals = self.sg.at(xs).conj().transpose(0, 2, 1)
        out = np.einsum("bij,bj->bi", duals, _batch_vec(rhos))
        out_m = _batch_devec(out)
        # defend Hermiticity against roundoff
        return 0.5 * (out_m + out_m.conj().transpose(0, 2, 1))


def survival(m: Model, rho, x, mode: str = "side-only") -> float:
    """No-click survival probability Tr(rho * E_x(I)) for the given mode.

    In side-only mode E is the Z semigroup (forward channel unobserved); in
    two-channel mode it is the no-count map.  Monotone nonincreasing in x,
    equal to 1 at x = 0.
    """
    rho = require_density_matrix(rho)
    return float(_ModeOps(m, mode).survival(rho[None])(float(x))[0])


def _invert_survival(S: Component, u: np.ndarray, cap: float) -> np.ndarray:
    """Solve S_b(x) = u_b per row by bisection on [0, cap].

    S_b falls from S_b(0) = 1, so row b crosses u_b within the cap iff
    S_b(cap) < u_b.  Every row bisects for the same fixed number of steps,
    which leaves each result within 1e-10 of its root and independent of the
    rest of the batch.  Rows that never cross come back as +inf, unless the
    survival at the cap is already below 1e-12, in which case the click is
    placed at the cap (bias far below Monte Carlo resolution).
    """
    hardcap = cap if np.isfinite(cap) else 1e6
    s_cap = S(np.full(u.shape, hardcap))
    lo, hi = np.zeros(u.shape), np.full(u.shape, hardcap)
    for _ in range(int(np.ceil(np.log2(hardcap / _BISECT_TOL)))):
        mid = 0.5 * (lo + hi)
        below = S(mid) < u
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    stuck = np.where(s_cap < 1e-12, hardcap, np.inf)
    return np.where(s_cap < u, 0.5 * (lo + hi), stuck)


def sample_waiting_time(m: Model, rho, u: float, mode: str = "side-only") -> float:
    """Inverse-transform waiting time: the x with survival(x) = u.

    ``u`` must lie in (0, 1).  Returns ``inf`` when the survival never
    reaches u within :func:`waiting_time_cap` (undriven corners).
    """
    if not (0.0 < u < 1.0):
        raise ValueError("u must lie strictly between 0 and 1")
    rho = require_density_matrix(rho)
    S = _ModeOps(m, mode).survival(rho[None])
    return float(_invert_survival(S, np.array([u]), waiting_time_cap(m))[0])


def apply_side_jump(m: Model, rho) -> np.ndarray:
    """State after a side click: V rho V^dag / Tr(rho V^dag V) = ground, exactly.

    Raises when the excited population is below threshold; the sampler never
    requests a jump from a de-excited state, so hitting this signals an
    inconsistency upstream.
    """
    rho = require_density_matrix(rho)
    pop = float(np.real(np.trace(rho @ m.P)))
    if pop <= _JUMP_POP_TOL:
        raise ValueError("side jump requested from a de-excited state")
    post = m.V @ rho @ m.V.conj().T / pop
    return 0.5 * (post + post.conj().T)


def evolve_no_jump(m: Model, rho, x: float, mode: str = "side-only") -> np.ndarray:
    """Conditional state after x units of click-free evolution, renormalized.

    The unnormalized trace equals the survival probability; both are
    computed from the same dual semigroup.
    """
    if x < 0:
        raise ValueError("evolve_no_jump requires x >= 0")
    rho = require_density_matrix(rho)
    ops = _ModeOps(m, mode)
    un = ops.dual_evolve(rho[None, :, :], np.array([float(x)]))[0]
    tr = float(np.real(np.trace(un)))
    if tr <= 0:
        raise ArithmeticError("no-jump evolution annihilated the state")
    return un / tr


def _stream(master_seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[master_seed, index]))


class _UniformTape:
    """Per-trajectory uniforms, prefetched in blocks in stream order.

    Each row consumes only its own stream through a cursor, so prefetching
    more than a trajectory ends up using never changes what it sees.
    """

    def __init__(self, master_seed: int, indices: np.ndarray):
        self.gens = [_stream(int(master_seed), int(i)) for i in indices]
        self.tape = (
            np.stack([g.random(_BLOCK) for g in self.gens])
            if self.gens
            else np.zeros((0, _BLOCK))
        )
        self.cursor = np.zeros(len(indices), dtype=int)

    def draw(self, rows: np.ndarray) -> np.ndarray:
        while rows.size and self.cursor[rows].max() >= self.tape.shape[1]:
            more = np.stack([g.random(_BLOCK) for g in self.gens])
            self.tape = np.concatenate([self.tape, more], axis=1)
        out = self.tape[rows, self.cursor[rows]]
        self.cursor[rows] += 1
        return out


def sample_batch(
    m: Model,
    rho0,
    horizon: float,
    master_seed: int,
    n_traj: int,
    mode: str = "side-only",
    first_index: int = 0,
) -> list[Trajectory]:
    """Sample ``n_traj`` trajectories with indices first_index..first_index+n-1.

    All trajectories advance in lockstep rounds (one waiting-time inversion
    per round, vectorized); each consumes uniforms only from its own stream,
    so the result is identical to sampling them one at a time.  ``rho0`` may
    also be a stack of n_traj initial states (one per trajectory), which is
    how a batch resumes from previously computed conditional states.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    B = int(n_traj)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim == 3:
        if rho0.shape != (B, 2, 2):
            raise ValueError("initial-state stack must have shape (n_traj, 2, 2)")
        for r in rho0:
            require_density_matrix(r)
    else:
        rho0 = require_density_matrix(rho0)
    ops = _ModeOps(m, mode)
    cap = waiting_time_cap(m)
    indices = np.arange(first_index, first_index + B, dtype=int)
    tape = _UniformTape(master_seed, indices)

    states = rho0.copy() if rho0.ndim == 3 else np.broadcast_to(rho0, (B, 2, 2)).copy()
    clock = np.zeros(B)
    active = np.ones(B, dtype=bool)
    rec_traj: list[np.ndarray] = []
    rec_time: list[np.ndarray] = []
    rec_chan: list[np.ndarray] = []

    while active.any():
        rows = np.flatnonzero(active)
        u = tape.draw(rows)
        waits = _invert_survival(ops.survival(states[rows]), u, cap)
        t_new = clock[rows] + waits
        jumped = t_new < horizon
        # the ones that outlast the horizon freeze now
        done_rows = rows[~jumped]
        active[done_rows] = False
        jrows = rows[jumped]
        if jrows.size == 0:
            continue
        gaps = waits[jumped]
        evolved = ops.dual_evolve(states[jrows], gaps)
        trs = np.real(np.einsum("bii->b", evolved))
        evolved = evolved / trs[:, None, None]
        if mode == "side-only":
            chans = np.array([SIDE] * jrows.size)
            pops = np.real(evolved[:, 0, 0])
            if np.any(pops <= _JUMP_POP_TOL):
                raise ArithmeticError("sampler drew a side click from a dead state")
            # V rho V^dag / rho_11 is the ground state for every rho
            post = np.broadcast_to(np.diag([0.0, 1.0]).astype(complex), evolved.shape)
        else:
            uc = tape.draw(jrows)
            Cf = m.z * I2 + m.V_f
            rate_f = np.real(np.einsum("bij,ji->b", evolved, Cf.conj().T @ Cf))
            rate_s = np.real(np.einsum("bij,ji->b", evolved, m.V_s.conj().T @ m.V_s))
            total = rate_f + rate_s
            # ties at equal floating rates break toward the side channel
            pick_forward = uc * total > rate_s
            chans = np.where(pick_forward, FORWARD, SIDE)
            post = np.empty_like(evolved)
            for ch in (FORWARD, SIDE):
                sel = np.flatnonzero(chans == ch)
                if sel.size:
                    mat = ops.jump_mats[ch]
                    un = mat @ evolved[sel] @ mat.conj().T
                    trs_ch = np.real(np.einsum("bii->b", un))
                    post[sel] = un / trs_ch[:, None, None]
        states[jrows] = 0.5 * (post + post.conj().transpose(0, 2, 1))
        clock[jrows] = t_new[jumped]
        rec_traj.append(jrows.copy())
        rec_time.append(t_new[jumped].copy())
        rec_chan.append(chans.copy())

    # terminal conditional states: click-free stretch to the horizon
    tails = np.maximum(horizon - clock, 0.0)
    finals = ops.dual_evolve(states, tails)
    trs = np.real(np.einsum("bii->b", finals))
    finals = finals / trs[:, None, None]

    per_traj: list[list[tuple[float, str]]] = [[] for _ in range(B)]
    for rows, ts, cs in zip(rec_traj, rec_time, rec_chan):
        for r, t, c in zip(rows, ts, cs):
            per_traj[r].append((float(t), str(c)))
    return [
        Trajectory(
            records=tuple(per_traj[k]),
            horizon=float(horizon),
            terminal_state=finals[k],
            index=int(indices[k]),
        )
        for k in range(B)
    ]


def sample_trajectory(
    m: Model,
    rho0,
    horizon: float,
    seed: SeedSpec,
    mode: str = "side-only",
) -> Trajectory:
    """Sample a single trajectory; identical to its row in any batch."""
    return sample_batch(
        m,
        rho0,
        horizon,
        seed.master_seed,
        1,
        mode=mode,
        first_index=seed.trajectory_index,
    )[0]


def trajectory_density_audit(m: Model, rho0, traj: Trajectory) -> dict:
    """Compare the sampler's stepwise density with the word-integrand trace.

    The product of per-step click densities and the final survival factor
    must reproduce Tr(rho0 Z_{x1} J_s Z_{x2} ... J_s Z_{x_{k+1}}(I)); this
    pins the Schroedinger/Heisenberg duality convention.  Side-only records
    are assumed.
    """
    ops = _ModeOps(m, "side-only")
    ks2 = abs(m.kappa_s) ** 2
    xs = list(traj.inter_arrivals()) + [traj.horizon - (traj.times()[-1] if traj.records else 0.0)]

    rho = require_density_matrix(rho0)
    stepwise = 1.0
    for x in xs[:-1]:
        zp = ops.sg.at(float(x)) @ vec(m.P)
        dens = ks2 * float(np.real(vec(rho).conj() @ zp))
        stepwise *= dens
        un = ops.dual_evolve(rho[None], np.array([float(x)]))[0]
        rho = m.V @ (un / np.real(np.trace(un))) @ m.V.conj().T
        rho = rho / np.real(np.trace(rho))
    stepwise *= float(ops.survival(rho[None])(float(xs[-1]))[0])

    # word = Z_{x1} J_s Z_{x2} ... J_s Z_{x_last} applied to the identity
    Js = side_jump(m)
    word = ops.sg.at(float(xs[-1])) @ vec(I2)
    for x in reversed(xs[:-1]):
        word = ops.sg.at(float(x)) @ (Js @ word)
    trace_form = float(np.real(vec(rho0).conj() @ word))
    return {"stepwise": float(stepwise), "trace_form": trace_form}
