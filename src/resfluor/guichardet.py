"""Independent brute-force oracle built on the integral-sum kernel.

The reversible atom-field evolution has an explicit integral-sum kernel: for
four disjoint finite sets of times (forward/side emissions sigma_f, sigma_s
and forward/side absorptions tau_f, tau_s) the kernel is an alternating
product of no-decay exponentials exp(-(dt/2) V^dag V) and channel letters
(V_f, V_s for emissions; -V_f^dag, -V_s^dag for absorptions), read from the
latest time leftward, and it vanishes unless all times lie in [0, t].

Evaluating the evolution on the driven coherent vector (laser of amplitude z
on the forward channel, vacuum on the side channel) collapses the
integral-sum action to

    amp(omega_f, omega_s) = sum over kept forward emissions sigma_f of
        z^(#dropped) * sum over absorption insertions tau_f of
        z^|tau_f| * integral of kernel over tau_f placements,

and because two adjacent absorption letters annihilate (V^dag is nilpotent),
each gap between consecutive kept emission times holds at most one tau
point, whose placement integral is one-dimensional.  Those one-dimensional
integrals are done with a Gauss-Legendre rule.

The oracle counting map then integrates amp^dag A amp over the event's
photon configurations sector by sector (explicitly truncated at the total
photon cap, with Gauss-Legendre rules on the ordered time simplices) and
multiplies by the coherent normalization e^{-t|z|^2}.  The event is cut into
segments and its counts spread over them by this module's own enumeration.
None of this shares code paths with the analytic semigroup/jump
construction, so agreement between the two pipelines checks the formulas,
not the integrator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .events import ChannelEvent, Event
from .model import Model, forward_jump, side_jump
from .quadrature import effective_order, gauss_legendre_01, simplex_nodes

__all__ = [
    "GuichardetPoint",
    "KernelArgs",
    "integral_sum_kernel",
    "driven_amplitude",
    "OracleResult",
    "oracle_davies_map",
    "jump_limit_check",
]

_FREE = -1  # per-segment count marker for an unconstrained channel
_CHUNK = 1 << 16
# sector integrals cap their per-axis order under this node budget; the
# integrands are entire, so moderate orders already sit far below the
# package tolerances (checked against full order in the test suite)
_SECTOR_NODE_BUDGET = 40_000


def _sector_order(order: int, ndim_total: int) -> int:
    if ndim_total <= 0:
        return order
    cap = max(4, int(_SECTOR_NODE_BUDGET ** (1.0 / ndim_total)))
    return min(order, cap)


@dataclass(frozen=True)
class GuichardetPoint:
    """A finite set of times, kept strictly increasing."""

    times: tuple[float, ...] = ()

    def __post_init__(self):
        ts = tuple(float(x) for x in self.times)
        if any(not np.isfinite(x) for x in ts):
            raise ValueError("times must be finite")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be strictly increasing and distinct")
        object.__setattr__(self, "times", ts)

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class KernelArgs:
    """The four disjoint time sets the kernel takes."""

    sigma_f: GuichardetPoint = GuichardetPoint()
    sigma_s: GuichardetPoint = GuichardetPoint()
    tau_f: GuichardetPoint = GuichardetPoint()
    tau_s: GuichardetPoint = GuichardetPoint()

    def __post_init__(self):
        all_times = (
            list(self.sigma_f.times)
            + list(self.sigma_s.times)
            + list(self.tau_f.times)
            + list(self.tau_s.times)
        )
        if len(set(all_times)) != len(all_times):
            raise ValueError("kernel argument sets must be pairwise disjoint")


def _no_decay_factor(dt):
    """exp(-(dt/2) V^dag V) = diag(e^(-dt/2), 1)."""
    out = np.zeros(np.shape(dt) + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-np.asarray(dt) / 2.0)
    out[..., 1, 1] = 1.0
    return out


def integral_sum_kernel(m: Model, t: float, args: KernelArgs) -> np.ndarray:
    """Direct evaluation of the kernel at one argument tuple."""
    letters = []
    for pt, mat in (
        (args.sigma_f, m.V_f),
        (args.sigma_s, m.V_s),
        (args.tau_f, -m.V_f.conj().T),
        (args.tau_s, -m.V_s.conj().T),
    ):
        letters.extend((x, mat) for x in pt.times)
    letters.sort(key=lambda p: p[0])
    if any(x < 0.0 or x > t for x, _ in letters):
        return np.zeros((2, 2), dtype=complex)
    out = np.eye(2, dtype=complex)
    prev = 0.0
    for x, mat in letters:
        out = mat @ _no_decay_factor(x - prev)[()] @ out
        prev = x
    return _no_decay_factor(t - prev)[()] @ out


def _amplitude_batch(m: Model, t: float, times: np.ndarray, labels, m_tau: int) -> np.ndarray:
    """Driven-coherent-vector amplitudes for a batch of photon configurations.

    ``times`` has shape (B, n) with rows sorted increasingly; ``labels`` is a
    length-n tuple of 'f'/'s' channel tags shared by the whole batch.
    Returns a (B, 2, 2) stack.
    """
    B, n = times.shape
    z = m.z
    letter = {"f": m.V_f, "s": m.V_s}
    absorb = -m.V_f.conj().T
    q = effective_order(24, 1)
    gx, gw = gauss_legendre_01(q)

    f_slots = [i for i, lab in enumerate(labels) if lab == "f"]

    out = np.zeros((B, 2, 2), dtype=complex)
    for kept_mask in itertools.product((True, False), repeat=len(f_slots)):
        dropped = sum(1 for k in kept_mask if not k)
        if z == 0 and dropped > 0:
            continue
        kept_f = {slot for slot, k in zip(f_slots, kept_mask) if k}
        fixed = [i for i, lab in enumerate(labels) if lab == "s" or i in kept_f]
        mfix = len(fixed)
        # gap g = 0..mfix spans (previous fixed time, next fixed time), the
        # horizon ends closing the first and last gaps
        lows = [np.zeros(B) if g == 0 else times[:, fixed[g - 1]] for g in range(mfix + 1)]
        highs = [np.full(B, t) if g == mfix else times[:, fixed[g]] for g in range(mfix + 1)]

        def plain_gap(g):
            return _no_decay_factor(highs[g] - lows[g])

        def bridged_gap(g):
            # one absorption letter integrated across the gap:
            # integral over u of D(b-u) @ absorb @ D(u-a); D is diagonal with
            # entries (e^(-x/2), 1), so accumulate the diagonals as scalars
            a, b = lows[g], highs[g]
            length = b - a
            u = a[:, None] + length[:, None] * gx[None, :]
            dl = np.empty((B, q, 2))
            dl[:, :, 0] = np.exp(-(b[:, None] - u) / 2.0)
            dl[:, :, 1] = 1.0
            dr = np.empty((B, q, 2))
            dr[:, :, 0] = np.exp(-(u - a[:, None]) / 2.0)
            dr[:, :, 1] = 1.0
            pair = np.einsum("q,bqi,bqj->bij", gw, dl, dr) * length[:, None, None]
            return pair * absorb[None, :, :]

        # only tau patterns covering every interior gap survive: two emission
        # letters with nothing but an exponential in between annihilate, so
        # the free choices are the two end gaps
        free_slots = sorted(set([0, mfix]))
        base_tau = [False] * (mfix + 1)
        for g in range(1, mfix):
            base_tau[g] = True
        n_interior = sum(base_tau)

        cache: dict[tuple[int, bool], np.ndarray] = {}

        def gap_factor(g, with_tau):
            key = (g, with_tau)
            if key not in cache:
                cache[key] = bridged_gap(g) if with_tau else plain_gap(g)
            return cache[key]

        for ends in itertools.product((False, True), repeat=len(free_slots)):
            tau_gaps = list(base_tau)
            for g, flag in zip(free_slots, ends):
                tau_gaps[g] = tau_gaps[g] or flag
            n_tau = sum(tau_gaps)
            if n_tau > m_tau:
                continue
            if z == 0 and n_tau > 0:
                continue
            word = gap_factor(mfix, tau_gaps[mfix])
            for g in range(mfix - 1, -1, -1):
                word = word @ letter[labels[fixed[g]]]
                word = word @ gap_factor(g, tau_gaps[g])
            out += z ** (dropped + n_tau) * word
    return out


def driven_amplitude(m: Model, t: float, omega_f, omega_s, m_tau: int = 6) -> np.ndarray:
    """Amplitude matrix of the driven evolution at one Guichardet point pair.

    ``omega_f`` / ``omega_s`` are iterables of emission times.  Times outside
    [0, t] make the amplitude vanish (the kernel's indicator).
    """
    of = GuichardetPoint(tuple(sorted(float(x) for x in omega_f)))
    os_ = GuichardetPoint(tuple(sorted(float(x) for x in omega_s)))
    if any(x < 0.0 or x > t for x in of.times + os_.times):
        return np.zeros((2, 2), dtype=complex)
    merged = sorted(
        [(x, "f") for x in of.times] + [(x, "s") for x in os_.times], key=lambda p: p[0]
    )
    if len({x for x, _ in merged}) != len(merged):
        raise ValueError("forward and side times must be disjoint")
    labels = tuple(lab for _, lab in merged)
    times = np.array([[x for x, _ in merged]], dtype=float)
    return _amplitude_batch(m, float(t), times, labels, m_tau)[0]


@dataclass(frozen=True)
class OracleResult:
    """Oracle counting map plus sector-truncation error estimates.

    ``truncation_error`` is the tail of the coherent photon-number weight
    e^{-t|z|^2} (t|z|^2)^n / n! beyond the sector cap.  The driven atom
    scatters additional photons on top of the laser ones, so this
    estimator undercounts; ``tail_bound`` repeats the computation at the
    bounded interaction rate 2|z|^2 + 1 and is the number tolerances
    should use.
    """

    matrix: np.ndarray
    truncation_error: float
    tail_bound: float = 0.0

    def __call__(self, A) -> np.ndarray:
        from .linalg import apply_superop

        return apply_superop(self.matrix, A)


def _coherent_tail(lam: float, n_cap: int) -> float:
    if lam <= 0.0:
        return 0.0
    term = np.exp(-lam)
    cdf = 0.0
    for n in range(n_cap + 1):
        cdf += term
        term *= lam / (n + 1)
    return float(max(0.0, 1.0 - cdf))


def _segment_edges(e: Event) -> list[tuple[float, float]]:
    edges = {0.0, float(e.horizon)}
    for ch in (e.forward, e.side):
        for w in ch.windows:
            edges.add(float(w.a))
            edges.add(float(w.b))
    cuts = sorted(edges)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 1e-15]


def _channel_status(ch: ChannelEvent, segments) -> list[int | None]:
    """Window index owning each segment, or None for outside-window segments."""
    out = []
    for a, b in segments:
        mid = 0.5 * (a + b)
        idx = None
        for i, w in enumerate(ch.windows):
            if w.a <= mid < w.b:
                idx = i
                break
        out.append(idx)
    return out


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _channel_assignments(ch: ChannelEvent, segments):
    """Yield per-segment counts (int, or _FREE outside a free channel)."""
    status = _channel_status(ch, segments)
    outside_val = _FREE if ch.free else 0
    per_window_segments = [
        [k for k, s in enumerate(status) if s == i] for i in range(len(ch.windows))
    ]
    window_splits = [
        list(_compositions(w.count, len(segs)))
        for w, segs in zip(ch.windows, per_window_segments)
    ]
    for split_choice in itertools.product(*window_splits):
        counts = [outside_val if s is None else 0 for s in status]
        for segs, split in zip(per_window_segments, split_choice):
            for k, c in zip(segs, split):
                counts[k] = c
        yield counts


def _shuffles(n_f: int, n_s: int):
    """All time-ordered channel words with n_f forward and n_s side letters."""
    n = n_f + n_s
    for fpos in itertools.combinations(range(n), n_f):
        word = ["s"] * n
        for p in fpos:
            word[p] = "f"
        yield tuple(word)


def _explicit_assignments(e: Event, segments, n_max: int):
    """Per-segment (k_f, k_s) exact counts, free stretches expanded to the cap."""
    for counts_f in _channel_assignments(e.forward, segments):
        for counts_s in _channel_assignments(e.side, segments):
            pinned = sum(c for c in counts_f if c != _FREE) + sum(
                c for c in counts_s if c != _FREE
            )
            slots = [
                (which, k)
                for which, counts in (("f", counts_f), ("s", counts_s))
                for k, c in enumerate(counts)
                if c == _FREE
            ]
            budget = n_max - pinned
            if budget < 0:
                continue
            for total in range(budget + 1):
                for extra in _compositions(total, len(slots)):
                    kf = [0 if c == _FREE else c for c in counts_f]
                    ks = [0 if c == _FREE else c for c in counts_s]
                    for (which, k), add in zip(slots, extra):
                        (kf if which == "f" else ks)[k] += add
                    yield kf, ks


def oracle_davies_map(
    m: Model,
    e: Event,
    n_max: int = 4,
    m_tau: int = 6,
    quad_order: int = 24,
) -> OracleResult:
    """Counting map computed from kernel amplitudes, sector by sector.

    Integrates amp(omega)^dag A amp(omega) over all photon configurations the
    event admits, truncating total photon number at ``n_max``; the returned
    truncation estimate is the coherent weight beyond the cap.
    """
    if e.total_count > n_max:
        raise ValueError(
            f"event pins {e.total_count} photons, beyond the oracle cap {n_max}"
        )
    t = float(e.horizon)
    segments = _segment_edges(e)
    total = np.zeros((4, 4), dtype=complex)
    for kf, ks in _explicit_assignments(e, segments, n_max):
        for seg_words in itertools.product(
            *[list(_shuffles(kf[i], ks[i])) for i in range(len(segments))]
        ):
            labels = tuple(lab for word in seg_words for lab in word)
            total += _sector_integral(m, t, segments, seg_words, labels, quad_order, m_tau)
    total *= np.exp(-t * abs(m.z) ** 2)
    return OracleResult(
        total,
        _coherent_tail(t * abs(m.z) ** 2, n_max),
        _coherent_tail(t * (2.0 * abs(m.z) ** 2 + 1.0), n_max),
    )


def _sector_integral(m, t, segments, seg_words, labels, quad_order, m_tau):
    """Tensor the per-segment simplex rules and integrate Ad[amp] over them."""
    ndim_total = len(labels)
    per_seg = []
    for (a, b), word in zip(segments, seg_words):
        ndim = len(word)
        if ndim == 0:
            continue
        order = _sector_order(quad_order, ndim_total)
        times, _, w = simplex_nodes(ndim, b - a, order)
        per_seg.append((times + a, w))
    if not per_seg:
        amp = _amplitude_batch(m, t, np.zeros((1, 0)), (), m_tau)
        return _ad_batch(amp)[0]

    sizes = [p[0].shape[0] for p in per_seg]
    out = np.zeros((4, 4), dtype=complex)
    for flat_start in range(0, int(np.prod(sizes)), _CHUNK):
        flat = np.arange(flat_start, min(flat_start + _CHUNK, int(np.prod(sizes))))
        idx = np.unravel_index(flat, sizes)
        times = np.concatenate(
            [per_seg[k][0][idx[k]] for k in range(len(per_seg))], axis=1
        )
        weights = np.ones(len(flat))
        for k in range(len(per_seg)):
            weights = weights * per_seg[k][1][idx[k]]
        amp = _amplitude_batch(m, t, times, labels, m_tau)
        out += np.einsum("b,bij->ij", weights, _ad_batch(amp))
    return out


def _ad_batch(amp: np.ndarray) -> np.ndarray:
    """Ad[amp] = kron(amp^T, amp^dag) for a (B, 2, 2) stack."""
    at = amp.transpose(0, 2, 1)
    ad = amp.conj().transpose(0, 2, 1)
    return np.einsum("bij,bkl->bikjl", at, ad).reshape(amp.shape[0], 4, 4)


def jump_limit_check(m: Model, t_list, n_max: int = 4, quad_order: int = 24) -> dict:
    """Difference quotients of one-photon counting maps against the jump maps.

    For each t, computes (1/t) * oracle map of "exactly one photon in [0, t)
    in this channel, none in the other" and reports its distance to the
    corresponding jump superoperator.  The distance should shrink linearly
    in t; entries with an empty window are flagged and carry no data.
    """
    from .events import exact_count, zero_photons

    report = {"forward": [], "side": []}
    targets = {"forward": forward_jump(m), "side": side_jump(m)}
    for t in t_list:
        if t <= 0:
            for channel in ("forward", "side"):
                report[channel].append({"t": float(t), "no_data": True})
            continue
        for channel in ("forward", "side"):
            one = exact_count(0.0, t, 1)
            ev = Event(
                forward=one if channel == "forward" else zero_photons(),
                side=one if channel == "side" else zero_photons(),
                horizon=t,
            )
            est = oracle_davies_map(m, ev, n_max=n_max, quad_order=quad_order).matrix / t
            dist = float(np.linalg.norm(est - targets[channel]))
            report[channel].append(
                {"t": float(t), "distance": dist, "ratio": dist / t, "no_data": False}
            )
    for channel in ("forward", "side"):
        rows = [r for r in report[channel] if not r["no_data"]]
        rows.sort(key=lambda r: r["t"], reverse=True)
        report[channel + "_distance_decreasing"] = all(
            a["distance"] >= b["distance"] - 1e-12 for a, b in zip(rows, rows[1:])
        )
    return report
