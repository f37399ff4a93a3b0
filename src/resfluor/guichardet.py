"""Independent brute-force oracle built on the integral-sum kernel.

The reversible atom-field evolution has an explicit integral-sum kernel: for
four disjoint finite sets of times (forward/side emissions sigma_f, sigma_s
and forward/side absorptions tau_f, tau_s) the kernel is an alternating
product of free evolutions D(dt) = exp(-(dt/2) V^dag V) = diag(e^(-dt/2), 1)
and channel letters (V_f, V_s for emissions; -V_f^dag, -V_s^dag for
absorptions), read from the latest time leftward, and it vanishes unless all
times lie in [0, t].  :func:`integral_sum_kernel` takes the four sets as the
strictly increasing rows of a (B, n) array, one set name per column.

Evaluating the evolution on the driven coherent vector (laser of amplitude z
on the forward channel, vacuum on the side channel) collapses the
integral-sum action to

    amp(omega_f, omega_s) = sum over kept forward emissions sigma_f of
        z^(#dropped) * sum over absorption insertions tau_f of
        z^|tau_f| * integral of kernel over tau_f placements,

and because two adjacent absorption letters annihilate (V^dag is nilpotent),
each gap between consecutive kept emission times holds at most one tau
point, whose placement integral is one-dimensional.  Every letter has one
nonzero entry and D is diagonal, so each such word has one nonzero entry in
closed form; :func:`_amplitude_batch` sums them by one recursion over the
last kept emission, in O(n^2) vector steps for n emissions.

The oracle counting map then integrates amp^dag A amp over the event's
photon configurations sector by sector (explicitly truncated at the total
photon cap, with Gauss-Legendre rules on the ordered time simplices) and
multiplies by the coherent normalization e^{-t|z|^2}.  :meth:`Event.segments`,
the one place an event is cut, gives its segments and the window owning each,
and one generator yields each sector as a tuple of per-segment channel words,
the photons of a segment in time order.  At z = 0 (exactly) a sector with two
or more photons is exactly zero: each interior gap needs an absorption
letter, and each absorption carries a factor z, so those sectors are counted,
not integrated.  The sectors that put the same number of photons in each
segment form a group that shares one tensor grid, with the gap factors
computed on it, built once per call from simplex rules also built once per
call, and each sector's integral is added to the total.  None of this shares
code paths with the analytic semigroup/jump construction -- from
:mod:`resfluor.model` it takes only the ``Model`` container, and of a model it
reads only the amplitudes, V_f and V_s, not the generators and jump maps the
model also holds -- so agreement between the two pipelines, which
:mod:`resfluor.verify` compares, checks the formulas, not the integrator.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .events import Event
from .model import Model
from .quadrature import simplex_nodes

__all__ = [
    "integral_sum_kernel",
    "driven_amplitude",
    "OracleResult",
    "oracle_davies_map",
]

_CHUNK = 1 << 16
# sector integrals cap their per-axis order under this node budget; the
# integrands are entire, so moderate orders already sit far below the
# package tolerances (checked against full order in the test suite)
_SECTOR_NODE_BUDGET = 40_000


def _sector_order(order: int, ndim_total: int) -> int:
    if ndim_total <= 0:
        return order
    return min(order, max(4, int(_SECTOR_NODE_BUDGET ** (1.0 / ndim_total))))


def _checked_times(times, n: int) -> np.ndarray:
    """``times`` as a (B, n) float array of finite, strictly increasing rows."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 2 or times.shape[1] != n:
        raise ValueError(f"times must have shape (B, {n}), got {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(np.diff(times, axis=1) <= 0):
        raise ValueError("each row of times must be strictly increasing")
    return times


def integral_sum_kernel(m: Model, t: float, times, letters) -> np.ndarray:
    """The kernel at B argument tuples that share one letter order.

    ``letters`` names the set each time column belongs to ('sigma_f',
    'sigma_s', 'tau_f' or 'tau_s'), and every row of ``times`` (shape (B, n))
    is strictly increasing, so the columns are in time order and the four
    sets of a row are disjoint.  Rows with a time outside [0, t] give zero
    (the kernel's indicator).  Returns a (B, 2, 2) stack.

    Every letter has at most one nonzero entry per column and D is diagonal,
    so column ``col`` of a word is one entry followed from row ``col``: a
    letter moves it to the row of its nonzero entry in that column and
    multiplies it by that entry, or zeroes the column; a free evolution
    multiplies it by e^(-dt/2) while it sits in row 0.
    """
    table = {
        "sigma_f": m.V_f,
        "sigma_s": m.V_s,
        "tau_f": -m.V_f.conj().T,
        "tau_s": -m.V_s.conj().T,
    }
    letters = tuple(letters)
    if any(name not in table for name in letters):
        raise ValueError(f"letters must be among {sorted(table)}")
    times = _checked_times(times, len(letters))
    B = times.shape[0]
    # decay[:, k] is D_00 over the gap before letter k; the last, up to t
    edges = np.concatenate([np.zeros((B, 1)), times, np.full((B, 1), float(t))], axis=1)
    decay = np.exp(-np.diff(edges, axis=1) / 2.0)
    out = np.zeros((2, 2, B), dtype=complex)
    for col in (0, 1):
        row, value = col, 1.0
        for k, name in enumerate(letters):
            if row == 0:
                value = decay[:, k] * value
            (rows,) = np.nonzero(table[name][:, row])
            if not rows.size:
                break
            value, row = table[name][rows[0], row] * value, rows[0]
        else:
            out[row, col] = decay[:, -1] * value if row == 0 else value
    inside = np.all((times >= 0.0) & (times <= t), axis=1)
    out[:, :, ~inside] = 0.0
    return out.transpose(2, 0, 1)


def _amplitude_batch(m: Model, t: float, times: np.ndarray, labels, gaps) -> np.ndarray:
    """Driven-coherent-vector amplitudes for a batch of photon configurations.

    ``times`` has shape (B, n) with rows sorted increasingly, and ``labels``
    is a length-n tuple of 'f'/'s' channel tags shared by the whole batch.
    ``gaps`` stores the gap factors computed on ``times`` and may come filled
    from an earlier batch on the same ``times``.  Returns a (4, B) array of
    the entries m00, m01, m10, m11.

    Emission letters have their one entry kappa at (1, 0), the absorption
    letter -conj(kappa_f) at (0, 1), and D is diagonal.  One absorption
    across a gap [a, b] integrates to int_a^b D_00(b - u) D_11(u - a) du =
    phi(b - a), phi(L) = -2 expm1(-L/2) (full relative accuracy on short
    gaps), and with its z carries tau = -conj(kappa_f) z.  A kept set K
    (every side letter, any forward ones) weighs z^#dropped prod kappa
    tau^(|K|-1) prod phi(interior gap), as two emissions with only D between
    annihilate; it lands in m10 if its first gap is free (e^(-x_first/2)) or
    m11 if bridged (tau phi(x_first)), and a bridged last gap moves it to m00
    or m01.  The empty set (no side letter) is D(t) plus one bridge in m01.

    The 2^(#forward) sets are summed by one recursion over their last
    element: heads[j] holds, over the sets ending at j, the weight with the
    drops up to j times (e^(-x_first/2), tau phi(x_first)).  It starts a set
    at j if no side letter precedes j and extends each heads[i] from the
    last side letter before j on; a set ends at j if no side letter follows.
    That is at most n(n-1)/2 vector steps per word.
    """
    z = m.z
    tau = -np.conj(m.kappa_f) * z
    kappa = {"f": m.kappa_f, "s": m.kappa_s}

    # a bridged (phi) or free (e^(-x/2)) gap, None at the horizon ends
    def gap(lo, hi, bridged=True):
        if (lo, hi, bridged) not in gaps:
            x = (t if hi is None else times[:, hi]) - (0.0 if lo is None else times[:, lo])
            gaps[lo, hi, bridged] = -2.0 * np.expm1(-x / 2.0) if bridged else np.exp(-x / 2.0)
        return gaps[lo, hi, bridged]

    n = len(labels)
    sides = [i for i, lab in enumerate(labels) if lab == "s"]
    out = np.zeros((4, times.shape[0]), dtype=complex)
    if not sides:
        out[0] += z**n * gap(None, None, False)
        out[1] += z**n * tau * gap(None, None)
        out[3] += z**n
    heads = []
    # a kept set starts at or before the first side letter and skips none
    first, start = (sides[0] if sides else n), 0
    for j, lab in enumerate(labels):
        head = z**j * np.stack([gap(None, j, False), tau * gap(None, j)]) if j <= first else 0.0
        for i in range(start, j):
            head = head + (z ** (j - i - 1) * tau) * gap(i, j) * heads[i]
        heads.append(kappa[lab] * head)
        start = j if lab == "s" else start
    for j in range(sides[-1] if sides else 0, n):
        tail = z ** (n - 1 - j) * heads[j]
        out[2:] += tail
        out[:2] += tau * gap(j, None) * tail
    return out


def driven_amplitude(m: Model, t: float, omega_f, omega_s) -> np.ndarray:
    """Amplitude matrix of the driven evolution at one pair of emission sets.

    ``omega_f`` / ``omega_s`` are iterables of forward and side emission
    times; together they must be finite and distinct.  Times outside [0, t]
    make the amplitude vanish (the kernel's indicator).
    """
    merged = sorted([(float(x), "f") for x in omega_f] + [(float(x), "s") for x in omega_s])
    times = _checked_times([[x for x, _ in merged]], len(merged))
    if np.any((times < 0.0) | (times > t)):
        return np.zeros((2, 2), dtype=complex)
    labels = tuple(lab for _, lab in merged)
    return _amplitude_batch(m, float(t), times, labels, {})[:, 0].reshape(2, 2)


@dataclass(frozen=True)
class OracleResult:
    """Oracle counting map plus sector-truncation error estimates.

    ``truncation_error`` is the tail of the coherent photon-number weight
    e^{-t|z|^2} (t|z|^2)^n / n! beyond the sector cap.  The driven atom
    scatters additional photons on top of the laser ones, so this
    estimator undercounts; ``tail_bound`` repeats the computation at the
    bounded interaction rate 2|z|^2 + 1 and is the number tolerances
    should use.  ``diagnostics`` holds deterministic work counts:
    ``sectors``, the photon sectors integrated; ``zero_sectors``, those
    skipped because they are exactly zero at z = 0 (two or more photons);
    ``nodes``, the amplitudes evaluated over the integrated sectors; and
    ``node_sets``, the distinct simplex rules built, one per (segment,
    photons in it, order) and read by the grid of every sector group that
    needs it.
    """

    matrix: np.ndarray
    truncation_error: float
    tail_bound: float = 0.0
    diagnostics: Mapping[str, int] = field(default_factory=dict)

    def __call__(self, A) -> np.ndarray:
        from .linalg import apply_superop

        return apply_superop(self.matrix, A)


def _coherent_tail(lam: float, n_cap: int) -> float:
    term = np.exp(-lam)
    cdf = 0.0
    for n in range(n_cap + 1):
        cdf += term
        term *= lam / (n + 1)
    return float(max(0.0, 1.0 - cdf))


def _sectors(e: Event, segments, n_max: int):
    """Every photon sector the event admits, as a tuple of per-segment words.

    A word is one segment's photons in time order, each 'f' or 's'.  The walk
    over the segments carries the photon budget and each window's remaining
    count, and admits a word when a channel has letters outside its windows
    only if it is free, every window's letters over its segments sum to its
    count (so a window's last segment takes what is left of it), and all
    words together hold at most ``n_max`` letters.  ``segments`` is
    ``e.segments()``, whose owner indices name each segment's windows.
    Counts are keyed by (channel, window index), not by the window: a
    forward and a side window with equal bounds and count compare equal.
    """
    channels = (e.forward, e.side)
    owners = [[None if i is None else (c, i) for c, i in enumerate(own)] for *_, own in segments]
    last = {key: k for k, own in enumerate(owners) for key in own if key}

    def walk(k, budget, left):
        if k == len(segments):
            if not any(left.values()):
                yield ()
            return
        room = [
            left[key] if key else (budget if ch.free else 0)
            for key, ch in zip(owners[k], channels)
        ]
        need = [r if key and last[key] == k else 0 for r, key in zip(room, owners[k])]
        for n in range(sum(need), min(budget, sum(room)) + 1):
            for word in itertools.product("fs", repeat=n):
                used = (word.count("f"), word.count("s"))
                if need[0] <= used[0] <= room[0] and need[1] <= used[1] <= room[1]:
                    rest = left | {key: left[key] - u for key, u in zip(owners[k], used) if key}
                    for tail in walk(k + 1, budget - n, rest):
                        yield (word, *tail)

    counts = {(c, i): w.count for c, ch in enumerate(channels) for i, w in enumerate(ch.windows)}
    yield from walk(0, n_max, counts)


def oracle_davies_map(
    m: Model,
    e: Event,
    n_max: int = 4,
    quad_order: int = 24,
) -> OracleResult:
    """Counting map computed from kernel amplitudes, sector by sector.

    Integrates amp(omega)^dag A amp(omega) over all photon configurations the
    event admits, truncating total photon number at ``n_max``; the returned
    truncation estimate is the coherent weight beyond the cap.  At z = 0 the
    sectors of two or more photons are exact zeros and are counted, not
    integrated.  The others are integrated in groups of equal photon counts
    per segment: a group reads one simplex rule per (segment, photons,
    order), each built once per call, and builds its tensor grid once; each
    of its sectors integrates over that grid into its own 4x4, which is
    added to the total.
    """
    if e.total_count > n_max:
        raise ValueError(f"event pins {e.total_count} photons, beyond the oracle cap {n_max}")
    t = float(e.horizon)
    segments = e.segments()
    groups: dict[tuple[int, ...], list] = {}
    zero_sectors = nodes = 0
    for seg_words in _sectors(e, segments, n_max):
        counts = tuple(map(len, seg_words))
        if m.z == 0 and sum(counts) >= 2:
            zero_sectors += 1
            continue
        groups.setdefault(counts, []).append(seg_words)
    rules = {}
    total = np.zeros((4, 4), dtype=complex)
    for counts, members in groups.items():
        order = _sector_order(quad_order, sum(counts))
        for (a, b, _), ndim in zip(segments, counts):
            if ndim and (a, ndim, order) not in rules:
                x, _, w = simplex_nodes(ndim, b - a, order)
                rules[a, ndim, order] = (x + a, w)
        chunks = _tensor_grid([rules[a, n, order] for (a, *_), n in zip(segments, counts) if n])
        for seg_words in members:
            labels = tuple(lab for word in seg_words for lab in word)
            part = np.zeros((4, 4), dtype=complex)
            for times, weights, gaps in chunks:
                part += _ad_sum(weights, _amplitude_batch(m, t, times, labels, gaps))
                nodes += len(weights)
            total += part
    return OracleResult(
        total * np.exp(-t * abs(m.z) ** 2),
        _coherent_tail(t * abs(m.z) ** 2, n_max),
        _coherent_tail(t * (2.0 * abs(m.z) ** 2 + 1.0), n_max),
        MappingProxyType({
            "sectors": sum(map(len, groups.values())),
            "zero_sectors": zero_sectors,
            "nodes": nodes,
            "node_sets": len(rules),
        }),
    )


def _tensor_grid(per_seg: list) -> list:
    """The tensor grid, in C order, over per-segment (times, weights) rules.

    Returns [(times, weights, gap factors)] per chunk of ``_CHUNK`` nodes,
    each gap-factor dict empty for the words integrated on it to fill.  No
    rule (the empty sector) gives one node at no time.
    """
    sizes = [len(w) for _, w in per_seg]
    n_nodes = int(np.prod(sizes))
    chunks = []
    for start in range(0, n_nodes, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, n_nodes))
        times = [np.zeros((len(flat), 0))]
        weights = np.ones(len(flat))
        stride = n_nodes
        for (v, w), size in zip(per_seg, sizes):
            stride //= size
            i = flat // stride % size
            times.append(v[i])
            weights = weights * w[i]
        chunks.append((np.concatenate(times, axis=1), weights, {}))
    return chunks


def _ad_sum(w: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """sum_b w_b Ad[amp_b] for amplitudes given entrywise as a (4, B) array.

    Ad[M] = kron(M^T, M^dag) has entry [2i+k, 2j+l] = M_ji conj(M_lk), so
    the sum is the weighted Gram matrix G[p, q] = sum_b w_b M_p conj(M_q) of
    the entries p = 2j+i, q = 2l+k, with its indices regrouped.
    """
    gram = (amp * w) @ amp.conj().T
    return gram.reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4)
