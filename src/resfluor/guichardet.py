"""Independent brute-force oracle built on the integral-sum kernel.

The reversible atom-field evolution has an explicit integral-sum kernel: for
four disjoint finite sets of times (forward/side emissions sigma_f, sigma_s
and forward/side absorptions tau_f, tau_s) the kernel is an alternating
product of free evolutions D(dt) = exp(-(dt/2) V^dag V) = diag(e^(-dt/2), 1)
and channel letters (V_f, V_s for emissions; -V_f^dag, -V_s^dag for
absorptions), read from the latest time leftward, and it vanishes unless all
times lie in [0, t].  :func:`integral_sum_kernel_batch` evaluates it at many
argument tuples that share one letter order; :func:`integral_sum_kernel` is
its one-tuple form.

Evaluating the evolution on the driven coherent vector (laser of amplitude z
on the forward channel, vacuum on the side channel) collapses the
integral-sum action to

    amp(omega_f, omega_s) = sum over kept forward emissions sigma_f of
        z^(#dropped) * sum over absorption insertions tau_f of
        z^|tau_f| * integral of kernel over tau_f placements,

and because two adjacent absorption letters annihilate (V^dag is nilpotent),
each gap between consecutive kept emission times holds at most one tau
point, whose placement integral is one-dimensional.  Since D is diagonal,
that integral has a closed form, derived from the kernel in
:func:`_bridged`.  Batches of 2x2 matrices are multiplied entrywise over
the batch.

The oracle counting map then integrates amp^dag A amp over the event's
photon configurations sector by sector (explicitly truncated at the total
photon cap, with Gauss-Legendre rules on the ordered time simplices) and
multiplies by the coherent normalization e^{-t|z|^2}.  The event is cut into
segments and its counts spread over them by this module's own enumeration.
None of this shares code paths with the analytic semigroup/jump
construction -- from :mod:`resfluor.model` it takes only the ``Model``
container -- so agreement between the two pipelines checks the formulas,
not the integrator.  Comparing the two routes is the job of
:mod:`resfluor.verify`.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .events import ChannelEvent, Event
from .model import Model
from .quadrature import simplex_nodes

__all__ = [
    "GuichardetPoint",
    "KernelArgs",
    "integral_sum_kernel",
    "integral_sum_kernel_batch",
    "driven_amplitude",
    "OracleResult",
    "oracle_davies_map",
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


# Batched 2x2 matrices are held entrywise as (m00, m01, m10, m11); each entry
# is a scalar or a (B,) array, and None marks a structural zero.  The kernel's
# letters and gap factors are diagonal or single-entry, so skipping the zeros
# leaves about two of the eight scalar products per matrix product.


def _entries(M) -> tuple:
    """A constant 2x2 matrix in entrywise form."""
    return tuple(None if v == 0 else complex(v) for v in np.asarray(M).ravel())


def _dot(x1, y1, x2, y2):
    """x1*y1 + x2*y2 with None as zero."""
    p = None if x1 is None or y1 is None else x1 * y1
    q = None if x2 is None or y2 is None else x2 * y2
    if p is None:
        return q
    return p if q is None else p + q


def _mul(a, b) -> tuple:
    """Matrix product of two entrywise 2x2 batches."""
    return (
        _dot(a[0], b[0], a[1], b[2]),
        _dot(a[0], b[1], a[1], b[3]),
        _dot(a[2], b[0], a[3], b[2]),
        _dot(a[2], b[1], a[3], b[3]),
    )


def _dense(a, B: int) -> np.ndarray:
    """Entrywise batch as a (4, B) complex array, rows m00, m01, m10, m11."""
    out = np.zeros((4, B), dtype=complex)
    for k, v in enumerate(a):
        if v is not None:
            out[k] = v
    return out


def _free(x) -> tuple:
    """exp(-(x/2) V^dag V) = D(x) = diag(e^(-x/2), 1)."""
    return (np.exp(-np.asarray(x) / 2.0), None, None, 1.0)


def _bridged(X: tuple, length) -> tuple:
    """One letter X integrated across a gap: int_a^b D(b-u) X D(u-a) du.

    D is diagonal with D_00(x) = e^(-x/2) and D_11(x) = 1, so entry (i, j) is
    X_ij times phi_ij(L) = int_0^L D_ii(L-v) D_jj(v) dv with L = b - a:
    phi_00 = L e^(-L/2) (the two decays multiply to e^(-L/2) for every v),
    phi_11 = L, and phi_01 = phi_10 = int_0^L e^(-v/2) dv = -2 expm1(-L/2).
    expm1 keeps full relative accuracy on gaps far shorter than one.
    """
    length = np.asarray(length, dtype=float)
    edge = -2.0 * np.expm1(-length / 2.0)
    phi = (length * np.exp(-length / 2.0), edge, edge, length)
    return tuple(None if x is None else x * p for x, p in zip(X, phi))


def _letter_table(m: Model) -> dict[str, tuple]:
    return {
        "sigma_f": _entries(m.V_f),
        "sigma_s": _entries(m.V_s),
        "tau_f": _entries(-m.V_f.conj().T),
        "tau_s": _entries(-m.V_s.conj().T),
    }


def integral_sum_kernel_batch(m: Model, t: float, times, letters) -> np.ndarray:
    """The kernel at B argument tuples that share one letter order.

    ``letters`` names the set each time column belongs to ('sigma_f',
    'sigma_s', 'tau_f' or 'tau_s'), and every row of ``times`` (shape (B, n))
    is strictly increasing, so the columns are in time order.  Rows with a
    time outside [0, t] give zero (the kernel's indicator).  Returns a
    (B, 2, 2) stack.
    """
    table = _letter_table(m)
    letters = tuple(letters)
    if any(name not in table for name in letters):
        raise ValueError(f"letters must be among {sorted(table)}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 2 or times.shape[1] != len(letters):
        raise ValueError(
            f"times must have shape (B, {len(letters)}), got {times.shape}"
        )
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(np.diff(times, axis=1) <= 0):
        raise ValueError("each row of times must be strictly increasing")
    B = times.shape[0]
    out = (1.0, None, None, 1.0)
    prev = 0.0
    for k, name in enumerate(letters):
        out = _mul(table[name], _mul(_free(times[:, k] - prev), out))
        prev = times[:, k]
    out = _dense(_mul(_free(t - prev), out), B)
    inside = np.all((times >= 0.0) & (times <= t), axis=1)
    out = np.where(inside, out, 0.0)
    return out.T.reshape(B, 2, 2)


def integral_sum_kernel(m: Model, t: float, args: KernelArgs) -> np.ndarray:
    """Direct evaluation of the kernel at one argument tuple."""
    letters = sorted(
        (x, name)
        for name in ("sigma_f", "sigma_s", "tau_f", "tau_s")
        for x in getattr(args, name).times
    )
    times = np.array([[x for x, _ in letters]], dtype=float)
    return integral_sum_kernel_batch(m, t, times, [name for _, name in letters])[0]


def _amplitude_batch(m: Model, t: float, times: np.ndarray, labels) -> np.ndarray:
    """Driven-coherent-vector amplitudes for a batch of photon configurations.

    ``times`` has shape (B, n) with rows sorted increasingly; ``labels`` is a
    length-n tuple of 'f'/'s' channel tags shared by the whole batch.
    Returns a (4, B) array of the entries m00, m01, m10, m11.
    """
    B = times.shape[0]
    z = m.z
    table = _letter_table(m)
    letter = {"f": table["sigma_f"], "s": table["sigma_s"]}
    absorb = table["tau_f"]

    # gap factors depend only on the pair of fixed times bounding the gap
    # (None for the horizon ends), so every kept-emission mask shares them
    gaps: dict[tuple, tuple] = {}

    def gap(lo, hi, with_tau):
        key = (lo, hi, with_tau)
        if key not in gaps:
            a = 0.0 if lo is None else times[:, lo]
            b = t if hi is None else times[:, hi]
            gaps[key] = _bridged(absorb, b - a) if with_tau else _free(b - a)
        return gaps[key]

    f_slots = [i for i, lab in enumerate(labels) if lab == "f"]
    out = np.zeros((4, B), dtype=complex)
    for kept_mask in itertools.product((True, False), repeat=len(f_slots)):
        dropped = sum(1 for k in kept_mask if not k)
        if z == 0 and dropped > 0:
            continue
        kept_f = {slot for slot, k in zip(f_slots, kept_mask) if k}
        fixed = [i for i, lab in enumerate(labels) if lab == "s" or i in kept_f]
        # gap g = 0..len(fixed) spans (fixed[g-1], fixed[g]), the horizon ends
        # closing the first and last gaps.  Two emission letters with nothing
        # but an exponential in between annihilate, so every interior gap
        # holds one absorption and only the end gaps are free to hold none.
        bounds = [None, *fixed, None]
        n_interior = max(len(fixed) - 1, 0)
        if fixed:
            core = letter[labels[fixed[0]]]
            for g in range(1, len(fixed)):
                core = _mul(gap(bounds[g], bounds[g + 1], True), core)
                core = _mul(letter[labels[fixed[g]]], core)
        for tau_left in (False, True):
            for tau_right in (False, True) if fixed else (False,):
                n_tau = n_interior + tau_left + tau_right
                if z == 0 and n_tau > 0:
                    continue
                word = gap(None, bounds[1], tau_left)
                if fixed:
                    word = _mul(gap(bounds[-2], None, tau_right), _mul(core, word))
                out += z ** (dropped + n_tau) * _dense(word, B)
    return out


def driven_amplitude(m: Model, t: float, omega_f, omega_s) -> np.ndarray:
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
    return _amplitude_batch(m, float(t), times, labels)[:, 0].reshape(2, 2)


@dataclass(frozen=True)
class OracleResult:
    """Oracle counting map plus sector-truncation error estimates.

    ``truncation_error`` is the tail of the coherent photon-number weight
    e^{-t|z|^2} (t|z|^2)^n / n! beyond the sector cap.  The driven atom
    scatters additional photons on top of the laser ones, so this
    estimator undercounts; ``tail_bound`` repeats the computation at the
    bounded interaction rate 2|z|^2 + 1 and is the number tolerances
    should use.  ``diagnostics`` holds deterministic work counts: the
    number of photon sectors integrated and the quadrature nodes summed
    over them.
    """

    matrix: np.ndarray
    truncation_error: float
    tail_bound: float = 0.0
    diagnostics: Mapping[str, int] = field(default_factory=dict)

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
    sectors = nodes = 0
    for kf, ks in _explicit_assignments(e, segments, n_max):
        for seg_words in itertools.product(
            *[list(_shuffles(kf[i], ks[i])) for i in range(len(segments))]
        ):
            labels = tuple(lab for word in seg_words for lab in word)
            part, n_nodes = _sector_integral(m, t, segments, seg_words, labels, quad_order)
            total += part
            sectors += 1
            nodes += n_nodes
    total *= np.exp(-t * abs(m.z) ** 2)
    return OracleResult(
        total,
        _coherent_tail(t * abs(m.z) ** 2, n_max),
        _coherent_tail(t * (2.0 * abs(m.z) ** 2 + 1.0), n_max),
        MappingProxyType({"sectors": sectors, "nodes": nodes}),
    )


def _sector_integral(m, t, segments, seg_words, labels, quad_order):
    """Tensor the per-segment simplex rules and integrate Ad[amp] over them.

    Returns the 4x4 integral and the number of quadrature nodes.
    """
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
        amp = _amplitude_batch(m, t, np.zeros((1, 0)), ())
        return _ad_sum(np.ones(1), amp), 1

    sizes = [p[0].shape[0] for p in per_seg]
    n_nodes = int(np.prod(sizes))
    out = np.zeros((4, 4), dtype=complex)
    for flat_start in range(0, n_nodes, _CHUNK):
        flat = np.arange(flat_start, min(flat_start + _CHUNK, n_nodes))
        idx = np.unravel_index(flat, sizes)
        times = np.concatenate(
            [per_seg[k][0][idx[k]] for k in range(len(per_seg))], axis=1
        )
        weights = np.ones(len(flat))
        for k in range(len(per_seg)):
            weights = weights * per_seg[k][1][idx[k]]
        out += _ad_sum(weights, _amplitude_batch(m, t, times, labels))
    return out, n_nodes


def _ad_sum(w: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """sum_b w_b Ad[amp_b] for amplitudes given entrywise as a (4, B) array.

    Ad[M] = kron(M^T, M^dag) has entry [2i+k, 2j+l] = M_ji conj(M_lk), so
    the sum is the weighted Gram matrix G[p, q] = sum_b w_b M_p conj(M_q) of
    the entries p = 2j+i, q = 2l+k, with its indices regrouped.
    """
    gram = (amp * w) @ amp.conj().T
    return gram.reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4)
