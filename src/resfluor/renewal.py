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
:class:`resfluor.semigroup.Component`, which also covers drives where the
generator of Z has no eigenbasis.  ``factorized_probability`` checks its
product of densities against a word trace of Z_x = ``SemigroupCache.at(x)``,
the ``expm`` route, so the check shares no eigen form with what it checks.

``renewal_test`` runs the statistical battery on side-click times:
Kolmogorov-Smirnov for X_1 (first-interval law) and X_2, X_3 (stationary
law) and a chi-square independence check of (X_2, X_3) on a quantile-binned
grid, each at level 0.01, and the decay of P[N_t <= n].  Kolmogorov-Smirnov
thresholds come from the asymptotic distribution and require n >= 1000;
smaller samples mark the report underpowered instead of passing or failing.
The KS distance and its threshold equal ``scipy.stats``' bit for bit, and
the chi-square p-value comes from a closed form with a stated error bound,
so the battery loads no SciPy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import I2, require_density_matrix, vec
from .model import Model, no_side_count_generator
from .semigroup import SemigroupCache

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
_ALPHA = 0.01  # level of the KS and independence tests; ks_threshold_99 assumes it
_KS_THRESHOLD = 1.6276236115189504  # scipy.stats.kstwobign.isf(_ALPHA)
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

    word = sg.at(xs[-1]) @ vec(I2)
    for x in reversed(xs[:-1]):
        word = sg.at(x) @ (m.J_s @ word)
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


def _ks_statistic(x: np.ndarray, F: np.ndarray) -> float:
    """Two-sided one-sample KS distance, as ``scipy.stats.kstest``; NaN if empty.

    ``F`` holds the law's CDF at each entry of ``x``, evaluated once by the
    caller; both are put in the order of ``np.argsort(x)``.
    """
    n = len(x)
    if n == 0:
        return np.nan
    F = F[np.argsort(x)]
    d_plus = (np.arange(1.0, n + 1) / n - F).max()
    d_minus = (F - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def _chi2_sf_99(x: float) -> float:
    """P[chi^2 > x] at the independence test's 99 degrees of freedom.

    This is Q(99/2, x/2), and at a half-integer order the incomplete gamma
    function closes (Abramowitz & Stegun 26.4.4): with y = x/2,

        Q(49 + 1/2, y) = erfc(sqrt y) + e^-y sum_{k=1}^{49} y^(k-1/2) / Gamma(k+1/2),

    each term formed as the exp of its logarithm.  Those exponents are at most
    y + 49 |ln y| + ln Gamma(49.5) < y + 49 |ln y| + 143 in magnitude, so the
    positive terms, and their sum, carry a relative error of at most
    4u (y + 49 |ln y| + 143), u = 2^-53: below 1e-12 for 1e-8 <= x <= 1400.
    x <= 0 gives 1.
    """
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    ln_y = math.log(y)
    return math.erfc(math.sqrt(y)) + sum(
        math.exp((k - 0.5) * ln_y - y - math.lgamma(k + 0.5)) for k in range(1, 50)
    )


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


def renewal_test(clicks, m: Model, rho, horizon: float) -> RenewalReport:
    """Run the renewal battery on per-trajectory arrays of side-click times.

    The input is concatenated once into a flat table of click times, each with
    its trajectory (owner) and rank in it.  A click's gap to the one before
    (to 0 at rank 0) is X_1, X_2 or X_3 at rank 0, 1 or 2; the X_2 paired
    with an X_3 sits just before it.  Infinite or missing intervals are
    excluded from the CDF comparisons and show up only through the sample sizes.
    Each sample's CDF values come from one :func:`theoretical_cdf` call, three
    in all, which the KS distances and the independence grid share; each value
    depends on its own argument alone, so sharing keeps every statistic's bits.
    ``counts_tail[n][t]`` is the share of trajectories with at most n clicks
    by t, for n = 0, 1, 2 and t = 0.2, 0.5 and 1.0 times ``horizon``, the
    horizon the clicks were sampled to.
    Zero trajectories raise ``ValueError``: no statistic is defined on them.
    """
    rho = require_density_matrix(rho)
    lengths = np.array([len(ts) for ts in clicks], dtype=int)
    if not lengths.size:
        raise ValueError("the renewal battery needs at least one trajectory, got 0")
    every = np.concatenate([np.zeros(0), *clicks])
    owner = np.repeat(np.arange(len(lengths)), lengths)
    rank = np.arange(len(every)) - (np.cumsum(lengths) - lengths)[owner]
    gap = every - np.where(rank > 0, np.roll(every, 1), 0.0)
    x1, x2, x3 = (gap[rank == k] for k in (0, 1, 2))
    F1 = theoretical_cdf(m, rho, "first", x1)
    F2 = theoretical_cdf(m, rho, "later", x2)
    F3 = theoretical_cdf(m, rho, "later", x3)

    underpowered = min(len(x1), len(x2), len(x3)) < MIN_KS_SAMPLES
    ks_first = _ks_statistic(x1, F1)
    ks_later = _ks_statistic(x2, F2)
    ks_third = _ks_statistic(x3, F3)

    # independence on a 10x10 grid with deciles of the theoretical CDF, so
    # expected counts are uniform under the null; an X_2 is paired when its
    # trajectory has a third click
    if len(x3) >= MIN_KS_SAMPLES:
        paired = F2[lengths[owner[rank == 1]] >= 3]
        bins = np.linspace(0.0, 1.0, 11)
        hist, _, _ = np.histogram2d(paired, F3, bins=[bins, bins])
        expected = len(x3) / 100.0
        chi2 = float(((hist - expected) ** 2 / expected).sum())
        pval = _chi2_sf_99(chi2)
    else:
        chi2, pval = np.nan, np.nan

    tail_times = [horizon * f for f in (0.2, 0.5, 1.0)]
    click_counts = [np.bincount(owner[every <= t], minlength=len(lengths)) for t in tail_times]
    counts_tail = {
        n: {float(t): float(np.mean(c <= n)) for t, c in zip(tail_times, click_counts)}
        for n in (0, 1, 2)
    }

    passed = {}
    if not underpowered:
        lim = lambda n: _KS_THRESHOLD / np.sqrt(n)
        passed = {
            "ks_first": bool(ks_first <= lim(len(x1))),
            "ks_later": bool(ks_later <= lim(len(x2))),
            "ks_third": bool(ks_third <= lim(len(x3))),
            "independence": bool(pval > _ALPHA),
        }
    return RenewalReport(
        n_traj=len(lengths),
        n_first=len(x1),
        n_later=len(x2),
        ks_stat_first=float(ks_first),
        ks_stat_later=float(ks_later),
        ks_stat_third=float(ks_third),
        ks_threshold_99=_KS_THRESHOLD,
        independence_stat=chi2,
        independence_pvalue=pval,
        counts_tail=counts_tail,
        underpowered=underpowered,
        passed=passed,
    )
