"""Counting maps for cylinder events, as blocks of one lattice exponential.

For an event prescribing exact photon counts in windows, the conditioned
(unnormalized, Heisenberg-picture) evolution is the sum over jump orders,
integrated over the ordered jump times, of the words

    E(d_1) J_(c_1) E(d_2) J_(c_2) ... J_(c_n) E(d_{n+1})

where the J's are the model's channel jump superoperators ``J_f`` and
``J_s``, and E is the no-count semigroup exp(d L0) of its ``L0``.  Such sums
are blocks of a single matrix exponential (Van Loan, IEEE TAC 23, 395 (1978);
the tilted-generator form of full counting statistics): index the counts
seen so far by a lattice site, put L0 on the diagonal blocks and J_c on the
blocks that raise channel c's count, and the (0, n) block of exp(t A) is the
map for exactly n counts, evaluated by :func:`resfluor.linalg.superop_exp`.

:meth:`Event.segments`, the one place an event is cut, cuts the horizon into
segments at all window edges.  Within a segment a channel is pinned (inside
one of its windows: its jumps raise its count, capped at the window's count),
silent (outside its windows, exactly zero outside: no jumps), or free
(outside its windows, unconstrained).  At each window end the block row is
projected onto the window's count and that channel's count restarts at 0.
All of an event's segment generators share one lattice, so
:func:`davies_map` exponentiates them in one stacked ``superop_exp`` call per
event and then applies the products and restarts in segment order.

``expansion="resum"`` (the default) puts a free channel's jumps on the
diagonal, which sums them to all orders.  ``expansion="dyson"`` lets them
raise one extra-count axis shared by both channels and capped at the
total-count cap less the pinned counts: the truncated Dyson sum, evaluated
exactly, kept as a separately computable route so the two can be compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .events import Event
from .linalg import I2, apply_superop, require_density_matrix, superop_exp
from .model import Model

__all__ = ["DaviesResult", "davies_map", "event_probability", "dyson_truncation_tail"]


@dataclass(frozen=True)
class DaviesResult:
    """A computed counting map.

    ``quad_error`` stays for callers that add it to their tolerances; the
    lattice exponential involves no quadrature, so it is always 0.0.
    """

    matrix: np.ndarray
    quad_error: float = 0.0

    def __call__(self, A) -> np.ndarray:
        return apply_superop(self.matrix, A)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, the same products without its any-rank set-up."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def _raise(shape, axis: int, cap: int) -> np.ndarray:
    """Lattice map raising ``axis`` by one, from counts below ``cap`` only."""
    factors = [np.eye(n) for n in shape]
    factors[axis] = np.diag((np.arange(1, shape[axis]) <= cap).astype(float), k=1)
    return reduce(_kron, factors)


def _restart(row: np.ndarray, shape, axis: int, count: int) -> np.ndarray:
    """Keep the blocks with ``count`` on ``axis`` and move them to index 0."""
    r = np.moveaxis(row.reshape(4, *shape, 4), axis + 1, 0)
    out = np.zeros_like(r)
    out[0] = r[count]
    return np.moveaxis(out, 0, axis + 1).reshape(row.shape)


def dyson_truncation_tail(m: Model, horizon: float, n_cap: int) -> float:
    """Poisson-style bound on the weight of trajectories with > n_cap jumps.

    Uses the always-valid interaction-rate constant 2|z|^2 + 1 as the click
    rate; the actual antibunched process has much lighter tails, so this is
    a generous overestimate.
    """
    lam = (2.0 * abs(m.z) ** 2 + 1.0) * float(horizon)
    term = math.exp(-lam)
    cdf = 0.0
    for n in range(n_cap + 1):
        cdf += term
        term *= lam / (n + 1)
    return max(0.0, 1.0 - cdf)


def davies_map(
    m: Model,
    e: Event,
    n_max: int = 6,
    quad_order: int = 24,
    expansion: str = "resum",
) -> DaviesResult:
    """Heisenberg-picture counting map for a cylinder event.

    One stacked exponential covers every segment of the event; an event
    with no segments (a zero horizon) gives the identity.  Each lattice term,
    a channel's pinned or free jumps, is formed once per call and added to
    every segment generator that needs it.  ``n_max`` caps
    the total count: an event pinning more photons raises, and the Dyson
    route truncates there.  ``quad_order`` is accepted and ignored; the map
    is computed exactly, so ``quad_error`` is 0.0.
    """
    if e.total_count > n_max:
        raise ValueError(
            f"event pins {e.total_count} photons, beyond the configured cap {n_max}"
        )
    if expansion not in ("resum", "dyson"):
        raise ValueError(f"unknown expansion {expansion!r}")
    channels = (e.forward, e.side)
    jumps = (m.J_f, m.J_s)
    extra = n_max - e.total_count if expansion == "dyson" else 0
    shape = tuple(max((w.count for w in ch.windows), default=0) + 1 for ch in channels)
    shape += (extra + 1 if e.forward.free or e.side.free else 1,)
    eye = np.eye(math.prod(shape))
    base = _kron(eye, m.L0)

    @cache
    def term(axis: int, cap: int | None) -> np.ndarray:
        # channel ``axis``'s jumps: pinned below count ``cap``, or free if None
        if cap is None:
            return _kron(eye if expansion == "resum" else _raise(shape, 2, extra), jumps[axis])
        return _kron(_raise(shape, axis, cap), jumps[axis])

    segments = e.segments()
    gens = np.repeat(base[None], len(segments), axis=0)
    for A, (_, _, owners) in zip(gens, segments):
        for axis, (ch, owner) in enumerate(zip(channels, owners)):
            if owner is not None:
                A += term(axis, ch.windows[owner].count)
            elif ch.free:
                A += term(axis, None)
    exps = superop_exp(gens, [b - a for a, b, _ in segments])

    row = _kron(np.eye(1, len(eye)), np.eye(4, dtype=complex))
    for E, (_, b, owners) in zip(exps, segments):
        row = row @ E
        for axis, (ch, owner) in enumerate(zip(channels, owners)):
            if owner is not None and b == ch.windows[owner].b:
                row = _restart(row, shape, axis, ch.windows[owner].count)
    return DaviesResult(row.reshape(4, *shape, 4)[:, 0, 0].sum(axis=1))


def event_probability(m: Model, rho, e: Event, n_max: int = 6) -> float:
    """P[rho sees the event] = Tr(rho * map(I)); must land in [-1e-8, 1 + 1e-8]."""
    rho = require_density_matrix(rho)
    res = davies_map(m, e, n_max=n_max)
    p = float(np.real(np.trace(rho @ res(I2))))
    if p < -1e-8 or p > 1.0 + 1e-8:
        raise ArithmeticError(f"computed event probability {p} falls outside [0, 1]")
    return p
