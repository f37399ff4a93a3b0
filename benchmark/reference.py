"""Independent reference for the benchmark's correctness checks.

Nothing here imports ``resfluor``.  The model is rebuilt from its physics:
a two-level atom (basis e1 = excited, e2 = ground, lowering operator
sigma = |e2><e1|) decays with total rate 1 into a forward channel of
amplitude kappa_f and a side channel of amplitude kappa_s, and a laser of
amplitude z shares the forward mode.  In the Schroedinger picture

    drho/dt = -i[H, rho] + D[sigma] rho,   H = i (conj(z) kappa_f sigma - z conj(kappa_f) sigma^dag),

so the Rabi frequency is 2|z kappa_f|.  The forward detector sees the field
z + kappa_f sigma and the side detector kappa_s sigma, giving the jump
terms J_f rho = C_f rho C_f^dag, J_s rho = C_s rho C_s^dag with
C_f = z + kappa_f sigma, C_s = kappa_s sigma, and the no-count generator
L0 = L - J_f - J_s.

Counting maps come from the block-bidiagonal counting-generator
exponential of Van Loan ("Computing integrals involving the matrix
exponential", IEEE TAC 1978): the unnormalized states with exactly
(n_f, n_s) counts so far form a lattice whose generator has L0 (plus the
jump terms of free channels) on the diagonal and J_f, J_s on the
off-diagonals, so one ``scipy.linalg.expm`` per segment propagates the
whole lattice.  Multi-window events project onto the pinned count at each
window end.  Integrals over time (expected counts, waiting-time CDFs) use
the same augmented-exponential trick.

Matrices act on row-major vectorized density matrices, vec(A X B) =
kron(A, B^T) vec(X); this deliberately differs from the column stacking
the program uses.  :func:`heisenberg_superop` converts a Schroedinger map
into the program's stored convention (Heisenberg picture, column stacking)
so maps can be compared entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

SIGMA = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
GROUND = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_I = np.eye(2, dtype=complex)
_TRACE = np.array([1.0, 0.0, 0.0, 1.0])  # Tr(X) = _TRACE @ vec_r(X)


def vec_r(X) -> np.ndarray:
    return np.asarray(X, dtype=complex).reshape(4)


def unvec_r(v) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(2, 2)


def _sandwich(A, B) -> np.ndarray:
    """Superoperator of X -> A X B."""
    return np.kron(A, np.asarray(B).T)


@dataclass(frozen=True)
class Generators:
    """Schroedinger-picture generators of the two-channel model."""

    master: np.ndarray
    no_count: np.ndarray
    jump_f: np.ndarray
    jump_s: np.ndarray


def generators(kappa_f, kappa_s, z) -> Generators:
    kf, ks, z = complex(kappa_f), complex(kappa_s), complex(z)
    H = 1j * (np.conj(z) * kf * SIGMA - z * np.conj(kf) * SIGMA.conj().T)
    P = SIGMA.conj().T @ SIGMA
    master = (
        -1j * (_sandwich(H, _I) - _sandwich(_I, H))
        + _sandwich(SIGMA, SIGMA.conj().T)
        - 0.5 * (_sandwich(P, _I) + _sandwich(_I, P))
    )
    C_f = z * _I + kf * SIGMA
    C_s = ks * SIGMA
    jump_f = _sandwich(C_f, C_f.conj().T)
    jump_s = _sandwich(C_s, C_s.conj().T)
    return Generators(master, master - jump_f - jump_s, jump_f, jump_s)


# --- events -----------------------------------------------------------------
#
# An event is given as plain data: {"horizon": H, "forward": channel,
# "side": channel}, a channel being {"outside": "zero" | "free",
# "windows": [(a, b, count), ...]} with disjoint half-open windows.


def _window_at(channel: dict, t: float):
    for w in channel["windows"]:
        if w[0] <= t < w[1]:
            return w
    return None


def _segments(event: dict) -> list[tuple[float, float]]:
    cuts = {0.0, float(event["horizon"])}
    for name in ("forward", "side"):
        for a, b, _ in event[name]["windows"]:
            cuts.update((float(a), float(b)))
    cuts = sorted(cuts)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _lattice_generator(g: Generators, modes) -> np.ndarray:
    """Counting generator of one segment; ``modes`` holds, per channel,
    ("free",), ("zero",) or ("pinned", count)."""
    dims = [m[1] + 1 if m[0] == "pinned" else 1 for m in modes]
    diag = g.no_count.copy()
    for m, J in zip(modes, (g.jump_f, g.jump_s)):
        if m[0] == "free":
            diag = diag + J
    n = dims[0] * dims[1]
    A = np.zeros((4 * n, 4 * n), dtype=complex)

    def blk(i, j):
        return slice(4 * (i * dims[1] + j), 4 * (i * dims[1] + j) + 4)

    for i in range(dims[0]):
        for j in range(dims[1]):
            A[blk(i, j), blk(i, j)] = diag
            if i + 1 < dims[0]:
                A[blk(i + 1, j), blk(i, j)] = g.jump_f
            if j + 1 < dims[1]:
                A[blk(i, j + 1), blk(i, j)] = g.jump_s
    return A


def _propagate_event(g: Generators, event: dict, x0: np.ndarray) -> np.ndarray:
    """Unnormalized final state vector(s) of the event; x0 is (4, k)."""
    # state lattice: shape (n_f, n_s, 4, k); counts beyond a window's pin
    # are dropped (counts only grow, so such paths fail the event)
    state = x0.reshape(1, 1, 4, -1).astype(complex)
    open_w = [None, None]
    names = ("forward", "side")
    for a, b in _segments(event):
        mid = 0.5 * (a + b)
        modes = []
        for c, name in enumerate(names):
            ch = event[name]
            w = _window_at(ch, mid)
            if open_w[c] is not None and w is not open_w[c]:
                # window closed: keep exactly the pinned count
                state = np.take(state, [open_w[c][2]], axis=c)
                open_w[c] = None
            if w is not None and open_w[c] is None:
                pad = [(0, 0)] * state.ndim
                pad[c] = (0, w[2])
                state = np.pad(state, pad)
                open_w[c] = w
            if w is not None:
                modes.append(("pinned", w[2]))
            else:
                modes.append(("free",) if ch["outside"] == "free" else ("zero",))
        A = _lattice_generator(g, modes)
        shape = state.shape
        flat = state.reshape(-1, shape[-1])
        state = (expm((b - a) * A) @ flat).reshape(shape)
    for c in (0, 1):
        if open_w[c] is not None:
            state = np.take(state, [open_w[c][2]], axis=c)
    return state[0, 0]


def event_probability(kappa_f, kappa_s, z, rho0, event: dict) -> float:
    g = generators(kappa_f, kappa_s, z)
    final = _propagate_event(g, event, vec_r(rho0)[:, None])[:, 0]
    return float(np.real(_TRACE @ final))


def schroedinger_event_map(kappa_f, kappa_s, z, event: dict) -> np.ndarray:
    """4x4 map rho0 -> unnormalized final state, on row-major vectors."""
    g = generators(kappa_f, kappa_s, z)
    return _propagate_event(g, event, np.eye(4, dtype=complex))


def heisenberg_superop(S: np.ndarray) -> np.ndarray:
    """Dual of a Schroedinger map S in the program's stored convention.

    The Heisenberg map M satisfies Tr(rho M(A)) = Tr(S(rho) A); it is
    returned as the 4x4 matrix acting on column-stacked operators,
    vec_c(X) = (x11, x21, x12, x22).  Entry (k, l) of M(E_pq) is
    Tr(E_lk M(E_pq)) = Tr(S(E_lk) E_pq) = S(E_lk)_qp.
    """
    M = np.empty((4, 4), dtype=complex)
    for p in range(2):
        for q in range(2):
            for k in range(2):
                for l in range(2):
                    E_lk = np.zeros((2, 2), dtype=complex)
                    E_lk[l, k] = 1.0
                    M[k + 2 * l, p + 2 * q] = unvec_r(S @ vec_r(E_lk))[q, p]
    return M


def event_superop(kappa_f, kappa_s, z, event: dict) -> np.ndarray:
    """Heisenberg counting map of an event, column-stacked like the program's."""
    return heisenberg_superop(schroedinger_event_map(kappa_f, kappa_s, z, event))


def master_superop(kappa_f, kappa_s, z, t: float) -> np.ndarray:
    """Heisenberg unconditioned map T_t, column-stacked like the program's."""
    return heisenberg_superop(expm(t * generators(kappa_f, kappa_s, z).master))


# --- unconditioned evolution and its integrals ------------------------------


def evolve_states(kappa_f, kappa_s, z, rho0, times) -> np.ndarray:
    """rho_t for each t, shape (len(times), 2, 2)."""
    L = generators(kappa_f, kappa_s, z).master
    ts = np.asarray(times, dtype=float)
    props = expm(ts[:, None, None] * L[None, :, :])
    return (props @ vec_r(rho0)).reshape(len(ts), 2, 2)


def _integrated_rate(gen: np.ndarray, jump: np.ndarray, rho0, xs) -> np.ndarray:
    """int_0^x Tr(jump e^{u gen} rho0) du for each x, via the augmented
    generator [[gen, 0], [Tr(jump .), 0]]."""
    aug = np.zeros((5, 5), dtype=complex)
    aug[:4, :4] = gen
    aug[4, :4] = _TRACE @ jump
    start = np.concatenate([vec_r(rho0), [0.0]])
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    props = expm(xs[:, None, None] * aug[None, :, :])
    return np.real(props[:, 4, :] @ start)


def expected_counts(kappa_f, kappa_s, z, rho0, horizon: float) -> tuple[float, float]:
    """Expected forward and side counts on [0, horizon] from rho0."""
    g = generators(kappa_f, kappa_s, z)
    n_f = _integrated_rate(g.master, g.jump_f, rho0, horizon)[0]
    n_s = _integrated_rate(g.master, g.jump_s, rho0, horizon)[0]
    return float(n_f), float(n_s)


def side_cdf_later(kappa_f, kappa_s, z, xs) -> np.ndarray:
    """F_later(x): CDF of the wait between side clicks.  A side click leaves
    the atom in the ground state; it then evolves with the side channel
    watched (generator L0 + J_f) until the next side jump."""
    g = generators(kappa_f, kappa_s, z)
    return _integrated_rate(g.no_count + g.jump_f, g.jump_s, GROUND, xs)
