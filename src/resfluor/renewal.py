"""Waiting-time densities and renewal-property tests for the side channel.

After every side click the atom sits in its ground state exactly, so the
side-channel record is a (modified) renewal process: the inter-arrival times
X_2, X_3, ... are i.i.d., and X_1 differs only through the initial state.
In terms of the between-clicks semigroup Z_x the theoretical densities are

    z(x)       = |kappa_s|^2 * (Z_x(P))_22      inter-click density, i >= 2
    z_last(x)  = |kappa_s|^2 * (Z_x(I))_22      density weight of the final,
                                                click-free stretch
    z_first(x) = Tr(rho Z_x(P))                 first-interval weight; the
                                                sampling density of X_1 is
                                                |kappa_s|^2 * z_first(x)

z(0) = 0 with zero slope: side photons arrive antibunched.  Each density is
a scalar component of Z_x and each CDF its exact integral, evaluated by
:class:`resfluor.semigroup.SemigroupCache`, which also covers drives where
the generator of Z has no eigenbasis.

``renewal_test`` runs the statistical battery on sampled trajectories:
Kolmogorov-Smirnov for X_1 (first-interval law) and X_2, X_3 (stationary
law), a chi-square independence check of (X_2, X_3) on a quantile-binned
grid, and the decay of P[N_t <= n].  Kolmogorov-Smirnov thresholds come from
the asymptotic distribution and require n >= 1000; smaller samples mark the
report underpowered instead of passing or failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import I2, require_density_matrix, vec
from .model import Model, no_side_count_generator, side_jump
from .semigroup import SemigroupCache
from .trajectories import Trajectory

__all__ = [
    "WaitingDensities",
    "waiting_densities",
    "first_click_hazard",
    "factorized_probability",
    "theoretical_cdf",
    "RenewalReport",
    "renewal_test",
    "MIN_KS_SAMPLES",
]

MIN_KS_SAMPLES = 1000
_E22 = vec(np.diag([0.0, 1.0]))  # picks the (2,2) entry of a column-stacked matrix


@dataclass(frozen=True)
class WaitingDensities:
    """Theoretical waiting densities tabulated on a grid."""

    grid: np.ndarray
    z: np.ndarray
    z_first: np.ndarray
    z_last: np.ndarray


def _z_semigroup(m: Model) -> SemigroupCache:
    """Z_x, the between-side-clicks semigroup (forward channel traced out)."""
    return SemigroupCache(no_side_count_generator(m))


def _clamp_roundoff(arr: np.ndarray) -> np.ndarray:
    """Set negative roundoff within 1e-12 of zero to 0, in place."""
    arr[(arr < 0.0) & (arr > -1e-12)] = 0.0
    return arr


def waiting_densities(m: Model, rho, grid) -> WaitingDensities:
    """Tabulate z, z_first, z_last on the grid.

    Z_0 = Id exactly (see :class:`SemigroupCache`), so the antibunching
    endpoint z(0) = 0 is exact; elsewhere, negative roundoff within 1e-12 of
    zero is clamped to keep the tabulated densities nonnegative.
    """
    rho = require_density_matrix(rho)
    sg = _z_semigroup(m)
    ks2 = abs(m.kappa_s) ** 2
    grid = np.asarray(grid, dtype=float)
    z_vals = ks2 * sg.component(_E22, vec(m.P))(grid)
    z_last = ks2 * sg.component(_E22, vec(I2))(grid)
    z_first = sg.component(vec(rho), vec(m.P))(grid)
    _clamp_roundoff(z_vals)
    _clamp_roundoff(z_first)
    return WaitingDensities(grid=grid, z=z_vals, z_first=z_first, z_last=z_last)


def first_click_hazard(m: Model, rho, x) -> np.ndarray:
    """-d/dx of the no-side-click survival, i.e. the actual X_1 density.

    Computed from the generator acting on the identity; equals
    |kappa_s|^2 * z_first(x) identically, which the tests assert.
    """
    rho = require_density_matrix(rho)
    sg = _z_semigroup(m)
    return -sg.component(vec(rho), sg.G @ vec(I2))(x)


def factorized_probability(m: Model, rho, inter_arrivals) -> float:
    """Density of a click record with the given inter-arrival times.

    For times (x_1, ..., x_{k+1}) -- k clicks, then a click-free stretch --
    returns z_first(x_1) * prod_{l=2..k} z(x_l) * z_last(x_{k+1}), checking
    it against the direct word trace Tr(rho Z_{x1} J_s ... J_s Z_{x_{k+1}} I)
    to 1e-10 before returning.  As in :func:`waiting_densities`, negative
    roundoff within 1e-12 of zero in each density factor is clamped to 0, so
    roundoff cannot make the density negative; a zero gap between two clicks
    gives exactly 0 through Z_0 = Id.
    """
    xs = [float(x) for x in inter_arrivals]
    if len(xs) < 1:
        raise ValueError("need at least the final stretch duration")
    if any(x < 0 for x in xs):
        raise ValueError("inter-arrival times must be >= 0")
    rho = require_density_matrix(rho)
    sg = _z_semigroup(m)
    ks2 = abs(m.kappa_s) ** 2

    def factor(x, weight_vec, target_vec) -> float:
        return float(_clamp_roundoff(sg.component(weight_vec, target_vec)(x))[0])

    if len(xs) == 1:
        product = factor(xs[0], vec(rho), vec(I2))
    else:
        product = factor(xs[0], vec(rho), vec(m.P))
        for x in xs[1:-1]:
            product *= ks2 * factor(x, _E22, vec(m.P))
        product *= ks2 * factor(xs[-1], _E22, vec(I2))

    Js = side_jump(m)
    word = sg.at(xs[-1]) @ vec(I2)
    for x in reversed(xs[:-1]):
        word = sg.at(x) @ (Js @ word)
    trace_form = float(np.real(vec(rho).conj() @ word))
    if abs(product - trace_form) > 1e-10 * max(1.0, abs(trace_form)):
        raise ArithmeticError(
            f"factorized and word forms disagree: {product} vs {trace_form}"
        )
    return product


def theoretical_cdf(m: Model, rho, which: str, x) -> np.ndarray:
    """CDF of an inter-arrival time: 'first' for X_1, 'later' for X_i, i >= 2.

    The 'later' CDF integrates z; the 'first' CDF integrates the actual X_1
    density |kappa_s|^2 * z_first, both exactly (see
    :meth:`resfluor.semigroup.Component.integral`).  Monotone, 0 at 0, and
    tending to 1 for a driven atom; roundoff is clipped to [0, 1].
    """
    rho = require_density_matrix(rho)
    weights = {"later": _E22, "first": vec(rho)}
    if which not in weights:
        raise ValueError("which must be 'first' or 'later'")
    F = _z_semigroup(m).component(weights[which], vec(m.P)).integral(x)
    vals = np.clip(abs(m.kappa_s) ** 2 * F, 0.0, 1.0)
    return vals if np.ndim(x) else float(vals[0])


@dataclass(frozen=True)
class RenewalReport:
    """Outcome of the renewal battery on a trajectory batch."""

    n_traj: int
    n_first: int
    n_later: int
    ks_stat_first: float
    ks_stat_later: float
    ks_stat_third: float
    ks_threshold_99: float
    independence_stat: float
    independence_pvalue: float
    counts_tail: dict
    underpowered: bool
    passed: dict = field(default_factory=dict)


def renewal_test(
    trajs,
    m: Model,
    rho,
    alpha: float = 0.01,
    tail_times: tuple[float, ...] = (),
) -> RenewalReport:
    """Run the renewal battery on sampled trajectories.

    ``trajs`` is a list of :class:`Trajectory` (or per-trajectory arrays of
    side-click times).  Infinite or missing intervals are excluded from the
    CDF comparisons and show up only through the sample sizes.
    """
    from scipy import stats  # only here: it dominates the package's import time

    rho = require_density_matrix(rho)
    side = [
        tr.times("side") if isinstance(tr, Trajectory) else np.asarray(tr, dtype=float)
        for tr in trajs
    ]
    inter = [np.diff(ts, prepend=0.0) for ts in side]
    x1 = np.array([xs[0] for xs in inter if len(xs) >= 1])
    x2 = np.array([xs[1] for xs in inter if len(xs) >= 2])
    x3 = np.array([xs[2] for xs in inter if len(xs) >= 3])
    pairs = np.array([[xs[1], xs[2]] for xs in inter if len(xs) >= 3])

    cdf_later = lambda v: theoretical_cdf(m, rho, "later", v)
    cdf_first = lambda v: theoretical_cdf(m, rho, "first", v)

    underpowered = min(len(x1), len(x2), len(x3)) < MIN_KS_SAMPLES
    ks_first = stats.kstest(x1, cdf_first).statistic if len(x1) else np.nan
    ks_later = stats.kstest(x2, cdf_later).statistic if len(x2) else np.nan
    ks_third = stats.kstest(x3, cdf_later).statistic if len(x3) else np.nan
    thr = float(stats.kstwobign.isf(alpha))

    # independence on a 10x10 grid with deciles of the theoretical CDF, so
    # expected counts are uniform under the null
    if len(pairs) >= MIN_KS_SAMPLES:
        u = cdf_later(pairs[:, 0])
        v = cdf_later(pairs[:, 1])
        bins = np.linspace(0.0, 1.0, 11)
        hist, _, _ = np.histogram2d(u, v, bins=[bins, bins])
        expected = len(pairs) / 100.0
        chi2 = float(((hist - expected) ** 2 / expected).sum())
        pval = float(stats.chi2.sf(chi2, df=99))
    else:
        chi2, pval = np.nan, np.nan

    counts_tail = {}
    if tail_times:
        # per-trajectory side-click counts up to each tail time, one bincount each
        owner = np.repeat(np.arange(len(side)), [len(ts) for ts in side])
        every = np.concatenate([np.zeros(0), *side])
        click_counts = {
            t: np.bincount(owner[every <= t], minlength=len(side)) for t in tail_times
        }
        for n in (0, 1, 2):
            counts_tail[n] = {
                float(t): float(np.mean(click_counts[t] <= n)) for t in tail_times
            }

    passed = {}
    if not underpowered:
        lim = lambda n: thr / np.sqrt(n)
        passed = {
            "ks_first": bool(ks_first <= lim(len(x1))),
            "ks_later": bool(ks_later <= lim(len(x2))),
            "ks_third": bool(ks_third <= lim(len(x3))),
            "independence": bool(pval > alpha),
        }
    return RenewalReport(
        n_traj=len(inter),
        n_first=len(x1),
        n_later=len(x2),
        ks_stat_first=float(ks_first),
        ks_stat_later=float(ks_later),
        ks_stat_third=float(ks_third),
        ks_threshold_99=thr,
        independence_stat=chi2,
        independence_pvalue=pval,
        counts_tail=counts_tail,
        underpowered=underpowered,
        passed=passed,
    )
