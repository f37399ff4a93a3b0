"""Monte Carlo sampling of photon-detection records.

A trajectory alternates two steps: click-free evolution up to the next
detection, then the jump of the detected channel.  The two observation
schemes run the same steps and differ only in which channels are observed:

* ``side-only``: only the side detector is read out.  Between detections the
  conditional state evolves by the Schroedinger dual of Z_t (forward channel
  traced out, no side count); a click applies V_s.
* ``two-channel``: both detectors are read out.  Between clicks the state
  evolves by the dual of the no-count map Ad[B_t]; a click draws its channel
  from the two rates and applies the model's C_f = zI + V_f or V_s.

``_ModeOps`` owns both steps for a (B, 2, 2) stack of states.  A jump forms
C rho C^dag entrywise from the Hermitian state's four real numbers and
divides by its real trace, so after a side click, in either scheme, the
state is the ground state exactly.

The side-only record is therefore a renewal process (Cox, *Renewal Theory*,
1962): every wait after the first has one law, S_later, the survival from
the ground state.  Side-only sampling keeps only a clock and a clicked flag
per trajectory, inverts one survival Component shared by the whole batch
(the ground state, then rho0) and calls neither ``evolve`` nor ``jump`` per
click; a click is checked only for a side-click rate -S'(x)/S(x) above
``_JUMP_RATE_TOL``.  The terminal state is one ``evolve`` at the end: from
the ground state over the time since the last click, or from rho0 over the
horizon for a trajectory that never clicked.  Two-channel sampling evolves,
draws a channel and jumps every click.

Both the click-free state and the no-click survival probability
S(x) = Tr(rho E_x(I)) are scalar components of the mode's 4x4 semigroup E_x,
evaluated by :class:`resfluor.semigroup.Component` (its eigen route, or
``expm`` where the generator is defective) and checked once per batch
against ``SemigroupCache.at``.  A waiting time is the x where S falls
through a uniform u, from :meth:`Component.crossing`: safeguarded Newton on
log S, each wait certified to lie within 5e-11 of a computed sign change of
S - u.  A wait from the ground state starts Newton from a table of log
S_later, built once per batch; any other starts cold.  Each row's result
depends on its own state and uniform only.

Every trajectory owns a counter-based random stream, the doubles of
``Generator(Philox(key=[master_seed, trajectory_index]))``.  They are
computed for all rows at once by a numpy Philox4x64-10, bit for bit, so each
trajectory is a pure function of its seed pair, independent of the batch it
runs in.

A batch is one table of arrays, a :class:`Batch`, and the CLI reads a
trajectory file's side clicks back into one.  Its channel column holds int8
codes into the one table of names ``CHANNELS``.  Indexing it makes a
:class:`Trajectory` view, which builds its (time, channel name) records when
read.

Uniform-draw discipline (fixed so streams are portable): one uniform per
waiting-time attempt, and in two-channel mode one further uniform per
realized click for the channel choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import I2, devec, ground_state, require_density_matrix, vec
from .model import Model, no_side_count_generator
from .semigroup import Component, SemigroupCache

__all__ = [
    "SeedSpec",
    "Trajectory",
    "Batch",
    "sample_trajectory",
    "sample_batch",
    "waiting_time_cap",
]

SIDE = "side"
FORWARD = "forward"
# the names of the click table's int8 channel codes: CHANNELS[code]
CHANNELS = np.array([FORWARD, SIDE], dtype=object)
CHANNELS.flags.writeable = False

_JUMP_RATE_TOL = 1e-14
# uniforms per refill of a row's tape: four Philox blocks of four words
_TAPE = 16
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_U32, _LOW32 = np.uint64(32), np.uint64(0xFFFFFFFF)


# Targets t with Re(vec(rho0)^dag E_x t) = Re rho_11, Re rho_22, Re rho_21 and
# Im rho_21 of the unnormalised click-free state, vec(rho) = E_x^dag vec(rho0)
_STATE_TARGETS = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 1j, 0, 0]])


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus trajectory index; the pair addresses one stream."""

    master_seed: int
    trajectory_index: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed < 2**64):
            raise ValueError(f"'master_seed' must lie in [0, 2**64), got {self.master_seed}")
        if self.trajectory_index < 0:
            raise ValueError("trajectory_index must be >= 0")


class Trajectory:
    """A view over one trajectory's rows of a :class:`Batch`; ``records`` are built when read.

    ``len()`` of a view is its click count, read from the batch's offsets.
    """

    __slots__ = ("batch", "row")

    def __init__(self, batch: Batch, row: int):
        self.batch, self.row = batch, row

    terminal_state = property(lambda self: self.batch.terminal[self.row])

    def __len__(self) -> int:
        return int(self.batch.offsets[self.row + 1] - self.batch.offsets[self.row])

    @property
    def records(self) -> tuple[tuple[float, str], ...]:
        t = self.batch
        a, b = t.offsets[self.row:self.row + 2].tolist()
        return tuple(zip(t.time[a:b].tolist(), CHANNELS.take(t.channel[a:b]).tolist()))


class Batch:
    """A click table of ``n_traj`` trajectories; ``batch[k]`` views trajectory k.

    One table entry per click, sorted by (trajectory, time): ``index``,
    ``jump`` (rank in its trajectory), ``time`` and ``channel`` (an int8
    code, the index of its name in ``CHANNELS``).
    It is built from ``owner``, each entry's row from 0; row k owns entries
    ``offsets[k]:offsets[k + 1]``, and a row without a click still counts
    in ``len()``.  A sampled batch holds the state ``terminal[k]`` at the
    horizon; a table read from a file has none, and ``terminal`` is None.
    """

    def __init__(self, n_traj: int, owner, time, channel, terminal=None, first_index: int = 0):
        self.offsets = np.searchsorted(owner, np.arange(n_traj + 1))
        self.index, self.time, self.channel = first_index + owner, time, channel
        self.jump = np.arange(len(owner)) - self.offsets[owner]
        self.terminal = terminal

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k: int) -> Trajectory:
        if not 0 <= k < len(self):
            raise IndexError(f"trajectory {k} of a batch of {len(self)}")
        return Trajectory(self, k)


def waiting_time_cap(m: Model) -> float:
    """Search cap for survival inversion: 50 * (1 + 1/|kappa_s|^2)."""
    ks2 = abs(m.kappa_s) ** 2
    if ks2 == 0.0:
        return np.inf
    return 50.0 * (1.0 + 1.0 / ks2)


class _ModeOps:
    """Survival, click-free evolution and jumps for one observation mode.

    The only code that evolves, jumps or renormalises a conditional state.
    ``channels`` holds the observed channels' codes, the side channel last;
    ``jumps`` stacks their jump matrices C_c, the model's ``C_f`` and ``V_s``,
    and ``rate_ops`` their C_c^dag C_c.
    """

    def __init__(self, m: Model, mode: str):
        if mode == "side-only":
            gen, channels, jumps = no_side_count_generator(m), [SIDE], [m.V_s]
        elif mode == "two-channel":
            gen, channels, jumps = m.L0, [FORWARD, SIDE], [m.C_f, m.V_s]
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.sg = SemigroupCache(gen)
        self.channels = np.array([CHANNELS.tolist().index(c) for c in channels], np.int8)
        self.jumps = np.stack(jumps)
        self.rate_ops = np.stack([C.conj().T @ C for C in jumps])

    def survival(self, rhos: np.ndarray) -> Component:
        """x -> Tr(rho_b E_x(I)) for each state of a (B,2,2) stack."""
        return self.sg.component(vec(rhos), vec(I2))

    def evolve(self, rhos: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Click-free Schroedinger evolution over gaps xs, renormalised.

        The state is read as four real components of the semigroup, so it is
        Hermitian by construction.
        """
        vals = self.sg.component(vec(rhos), _STATE_TARGETS)(xs)
        trs = vals[0] + vals[1]
        if np.any(trs <= 0):
            raise ArithmeticError("click-free evolution annihilated the state")
        p11, p22, re21, im21 = vals / trs
        p21 = re21 + 1j * im21
        return np.stack([p11, p21.conj(), p21, p22], axis=1).reshape(-1, 2, 2)

    def check_routes(self) -> None:
        """Compare :meth:`evolve` once with the ``expm`` route of ``SemigroupCache.at``.

        The gap 1 / (1 + ||G||) keeps exp(xG) of order one.  Healthy caches
        agree to about 1e-12; eigenvalues off by a relative 1e-6 differ by 1e-7.
        """
        x, rho = 1.0 / (1.0 + np.linalg.norm(self.sg.G, 2)), 0.5 * I2
        un = devec(self.sg.at(x).conj().T @ vec(rho))
        if np.abs(self.evolve(rho[None], np.array([x]))[0] - un / un.trace().real).max() > 1e-9:
            raise ArithmeticError("click-free state disagrees with the expm route")

    def jump(self, rhos: np.ndarray, pick: np.ndarray) -> np.ndarray:
        """C rho C^dag / Tr for each row's channel index ``pick``, renormalised.

        The three independent entries come entrywise from the Hermitian
        rho = [[p, conj(q)], [q, s]], so the result is Hermitian by
        construction.  Real and imaginary parts are divided by the real trace
        separately, so an entry equal to the trace becomes exactly 1.
        """
        (a, b), (c, d) = self.jumps[pick].transpose(1, 2, 0)
        p, s, q = rhos[:, 0, 0].real, rhos[:, 1, 1].real, rhos[:, 1, 0]
        top = abs(a) ** 2 * p + abs(b) ** 2 * s + 2 * (b * q * a.conj()).real
        bottom = abs(c) ** 2 * p + abs(d) ** 2 * s + 2 * (d * q * c.conj()).real
        off = c * a.conj() * p + d * b.conj() * s + d * a.conj() * q + c * b.conj() * q.conj()
        trs = top + bottom
        if np.any(trs <= _JUMP_RATE_TOL):
            raise ArithmeticError("click drawn from a state with no rate in its channel")
        post = np.empty(rhos.shape, dtype=complex)
        post[:, 0, 0], post[:, 1, 1] = top / trs, bottom / trs
        post.real[:, 1, 0], post.imag[:, 1, 0] = off.real / trs, off.imag / trs
        post[:, 0, 1] = post[:, 1, 0].conj()
        return post


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    mh, ml = m >> _U32, m & _LOW32
    xh, xl = x >> _U32, x & _LOW32
    lh, hl = ml * xh, mh * xl
    mid = ((ml * xl) >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    return mh * xh + (lh >> _U32) + (hl >> _U32) + (mid >> _U32), m * x


def _philox_doubles(master_seed: int, keys: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Doubles 4*first_b .. 4*first_b + _TAPE - 1 of the stream of each key k_b.

    Bit for bit the doubles of ``Generator(Philox(key=[master_seed, k_b])).random``
    there: block j of a stream is Philox4x64-10 (Salmon et al., SC'11) of the
    counter (j + 1, 0, 0, 0) under the key (master_seed, k_b), its four words
    come out in order, and a double is a word's top 53 bits over 2**53.
    Every stream and block is one lane of the same uint64 arithmetic, which
    wraps modulo 2**64 as the construction requires.
    """
    ctr = first.astype(np.uint64)[:, None] + np.arange(1, _TAPE // 4 + 1, dtype=np.uint64)
    k0 = np.full(ctr.shape, master_seed, dtype=np.uint64)
    k1 = np.broadcast_to(keys[:, None], ctr.shape)
    x0, x1, x2, x3 = ctr, np.zeros_like(ctr), np.zeros_like(ctr), np.zeros_like(ctr)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        h0, l0 = _mulhilo(_PHILOX_M[0], x0)
        h1, l1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = h1 ^ x1 ^ k0, l1, h0 ^ x3 ^ k1, l0
    words = np.stack([x0, x1, x2, x3], axis=-1).reshape(len(keys), _TAPE)
    return (words >> np.uint64(11)) * 2.0**-53


class _UniformTape:
    """Per-trajectory uniforms, drawn in stream order a few blocks at a time.

    Row b holds the next _TAPE doubles of its own stream; a row whose cursor
    reaches the end of them refills with the following ones, computed for
    every such row at once.  A row never sees another row's draws.
    """

    def __init__(self, master_seed: int, indices: np.ndarray):
        self.seed, self.keys = int(master_seed), indices
        self.tape = np.zeros((len(indices), _TAPE))
        self.cursor = np.zeros(len(indices), dtype=np.int64)

    def draw(self, rows: np.ndarray) -> np.ndarray:
        fresh = rows[self.cursor[rows] % _TAPE == 0]
        if fresh.size:
            self.tape[fresh] = _philox_doubles(self.seed, self.keys[fresh], self.cursor[fresh] // 4)
        out = self.tape[rows, self.cursor[rows] % _TAPE]
        self.cursor[rows] += 1
        return out


def sample_batch(m: Model, rho0, horizon: float, master_seed: int, n_traj: int,
                 mode: str = "side-only", first_index: int = 0) -> Batch:
    """Sample ``n_traj`` trajectories with indices first_index..first_index+n-1.

    All trajectories advance in lockstep rounds (one waiting-time inversion
    per round, vectorized); each consumes uniforms only from its own stream,
    so the result is identical to sampling them one at a time.  ``rho0`` may
    also be a stack of n_traj initial states (one per trajectory), which is
    how a batch resumes from previously computed conditional states.
    The result is the click table, a :class:`Batch`; ``batch[k]`` is a
    :class:`Trajectory` view that builds ``records`` when read.
    """
    if not 0.0 <= horizon < np.inf:
        raise ValueError("horizon must be finite and >= 0")
    SeedSpec(master_seed, first_index)
    if isinstance(n_traj, bool) or not isinstance(n_traj, (int, np.integer)) or n_traj < 0:
        raise ValueError(f"n_traj must be an integer >= 0, got {n_traj!r}")
    B = int(n_traj)
    rho0 = require_density_matrix(rho0)
    if rho0.ndim == 3 and rho0.shape != (B, 2, 2):
        raise ValueError("initial-state stack must have shape (n_traj, 2, 2)")
    ops = _ModeOps(m, mode)
    ops.check_routes()
    tape = _UniformTape(master_seed, np.arange(first_index, first_index + B, dtype=np.uint64))
    rounds = _side_only_rounds if mode == "side-only" else _two_channel_rounds
    states, clock, owner, times, picks = rounds(ops, rho0, horizon, waiting_time_cap(m), tape)

    # terminal conditional states: click-free stretch to the horizon
    finals = ops.evolve(states, np.maximum(horizon - clock, 0.0))

    # clicks grouped by trajectory in round order, which is time order
    order = np.argsort(owner, kind="stable")
    return Batch(B, owner[order], times[order], ops.channels[picks[order]], finals, first_index)


def _side_only_rounds(ops, rho0, horizon, cap, tape):
    """Side-only rounds on one survival Component shared by every wait.

    A side click leaves the ground state, so only a clock and a clicked flag
    are kept per trajectory.  Weight row 0 is the ground state, with a
    log-survival table to start Newton; the rows after it are rho0, one
    state or the stack.  A trajectory waits on row 0 once it has clicked,
    or from the start when its initial state is exactly the ground state,
    and on its own initial row otherwise.  Each click's hazard
    -S'(x) / S(x), its side-click rate, must exceed _JUMP_RATE_TOL.
    """
    B, g = len(tape.keys), ground_state()
    stack = rho0 if rho0.ndim == 3 else rho0[None]
    S = ops.survival(np.concatenate([g[None], stack]))
    S.tabulate(0, cap)
    first = np.where((stack == g).all(axis=(1, 2)), 0, 1 + np.arange(len(stack)))
    first = np.broadcast_to(first, (B,))
    clock, clicked = np.zeros(B), np.zeros(B, dtype=bool)
    owner, times = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    rows = np.arange(B)
    while rows.size:
        which = np.where(clicked[rows], 0, first[rows])
        waits = S.crossing(tape.draw(rows), cap, which)
        t_new = clock[rows] + waits
        # the ones that outlast the horizon freeze now
        jumped = t_new < horizon
        rows, which, waits, t_new = rows[jumped], which[jumped], waits[jumped], t_new[jumped]
        if np.any(S.hazard(waits, which) <= _JUMP_RATE_TOL):
            raise ArithmeticError("click drawn from a state with no rate in its channel")
        clicked[rows], clock[rows] = True, t_new
        owner.append(rows)
        times.append(t_new)
    owner = np.concatenate(owner)
    states = np.where(clicked[:, None, None], g, np.broadcast_to(rho0, (B, 2, 2)))
    return states, clock, owner, np.concatenate(times), np.zeros(owner.size, dtype=np.intp)


def _two_channel_rounds(ops, rho0, horizon, cap, tape):
    """Two-channel rounds: per round a survival of the active states, then
    click-free evolution, the channel draw and the jump of each click."""
    B = len(tape.keys)
    states = np.broadcast_to(rho0, (B, 2, 2)).copy()
    clock, active = np.zeros(B), np.ones(B, dtype=bool)
    owner, times, picks = [np.zeros(0, dtype=np.intp)], [np.zeros(0)], [np.zeros(0, dtype=np.intp)]
    while active.any():
        rows = np.flatnonzero(active)
        waits = ops.survival(states[rows]).crossing(tape.draw(rows), cap)
        t_new = clock[rows] + waits
        jumped = t_new < horizon
        active[rows[~jumped]] = False
        jrows = rows[jumped]
        if jrows.size == 0:
            continue
        evolved = ops.evolve(states[jrows], waits[jumped])
        uc = tape.draw(jrows)
        rates = np.real(np.einsum("bij,cji->bc", evolved, ops.rate_ops))
        # ties at equal floating rates break toward the side channel
        pick = np.where(uc * rates.sum(axis=1) > rates[:, 1], 0, 1)
        states[jrows] = ops.jump(evolved, pick)
        clock[jrows] = t_new[jumped]
        owner.append(jrows)
        times.append(t_new[jumped])
        picks.append(pick)
    return states, clock, np.concatenate(owner), np.concatenate(times), np.concatenate(picks)


def sample_trajectory(m: Model, rho0, horizon: float, seed: SeedSpec,
                      mode: str = "side-only") -> Trajectory:
    """Sample a single trajectory; identical to its row in any batch."""
    return sample_batch(m, rho0, horizon, seed.master_seed, 1, mode=mode,
                        first_index=seed.trajectory_index)[0]
