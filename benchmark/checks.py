"""Pass/fail checks on the program's outputs.

Every check returns a list of failure messages; an empty list means the
output passed.  Tolerances are derived in README.md ("Correctness checks").
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

# Roundoff allowance for a probability or a map entry of size <= 1 computed
# by two double-precision routes (quadrature sums over <= 3e5 nodes against a
# scipy expm); observed differences stay below 1e-14.
ROUNDOFF = 1e-12
# Mean counts must lie within this many standard errors of the reference.
MEAN_SIGMAS = 5.0
# Significance level at which the renewal statistics themselves are judged.
RENEWAL_ALPHA = 1e-6
# Significance level behind the program's own `passed` flags
# (ks_threshold_99 is the 99 % quantile of the Kolmogorov distribution).
PROGRAM_ALPHA = 0.01


def probability_tolerance(quad_error: float) -> float:
    """|p - p_ref| <= sqrt(2) * quad_error + ROUNDOFF.

    p = Tr(rho M(I)) and |Tr(rho X)| <= ||rho||_F ||X||_F with ||rho||_F <= 1,
    ||vec(I)|| = sqrt(2), so an error dM of the map moves p by at most
    sqrt(2) ||dM||_F; quad_error = ||M_24 - M_12||_F bounds the error of the
    full-order map, which converges spectrally.
    """
    return math.sqrt(2.0) * quad_error + ROUNDOFF


def check_probability(label: str, p: float, p_ref: float, quad_error: float) -> list[str]:
    tol = probability_tolerance(quad_error)
    if not abs(p - p_ref) <= tol:
        return [f"{label}: probability {p!r} differs from reference {p_ref!r} by "
                f"{abs(p - p_ref):.3e} > {tol:.3e}"]
    return []


def check_map(label: str, M, M_ref, tol: float) -> list[str]:
    dist = float(np.linalg.norm(np.asarray(M) - np.asarray(M_ref)))
    if not dist <= tol:
        return [f"{label}: distance {dist:.3e} > tolerance {tol:.3e}"]
    return []


def check_evolve(table: np.ndarray, times, rho_ref, heis_ref) -> list[str]:
    """Rows of evolve.csv: t, rho_t (re, im x4), T_t(P) (re, im x4), population.

    Matrix entries come in row-major order 11, 12, 21, 22; rho_t must have
    trace 1 and be positive semidefinite.
    """
    fails = []
    if table.shape != (len(times), 18):
        return [f"evolve: table shape {table.shape}, expected ({len(times)}, 18)"]
    if not np.array_equal(table[:, 0], np.asarray(times, dtype=float)):
        fails.append("evolve: time column differs from the configured grid")
    rho = (table[:, 1:9:2] + 1j * table[:, 2:9:2]).reshape(-1, 2, 2)
    heis = (table[:, 9:17:2] + 1j * table[:, 10:17:2]).reshape(-1, 2, 2)
    pop = table[:, 17]
    for name, got, ref in (("rho_t", rho, rho_ref), ("T_t(P)", heis, heis_ref)):
        err = float(np.max(np.abs(got - ref)))
        if not err <= ROUNDOFF:
            fails.append(f"evolve: {name} off the reference by {err:.3e}")
    err = float(np.max(np.abs(pop - np.real(rho_ref[:, 0, 0]))))
    if not err <= ROUNDOFF:
        fails.append(f"evolve: excited population off the reference by {err:.3e}")
    tr_err = float(np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)))
    if not tr_err <= ROUNDOFF:
        fails.append(f"evolve: trace of rho_t off 1 by {tr_err:.3e}")
    herm = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    min_eig = float(np.min(np.linalg.eigvalsh(herm)))
    if not min_eig >= -ROUNDOFF:
        fails.append(f"evolve: rho_t has eigenvalue {min_eig:.3e} < 0")
    return fails


def check_mean_count(label: str, counts, expected: float) -> list[str]:
    """Sample mean within MEAN_SIGMAS standard errors of the expectation."""
    counts = np.asarray(counts, dtype=float)
    se = float(np.std(counts, ddof=1) / math.sqrt(len(counts)))
    dev = float(np.mean(counts) - expected)
    if not abs(dev) <= MEAN_SIGMAS * se:
        return [f"{label}: mean count {np.mean(counts):.6f} is {dev / se:+.2f} standard "
                f"errors from the reference {expected:.6f}"]
    return []


def check_renewal_report(report: dict, n_traj: int, n_first: int, n_later: int,
                         n_third: int) -> list[str]:
    """renewal_report.json against counts taken from the trajectory CSV.

    Each `passed` flag must equal its own statistic compared with the
    program's threshold, and each statistic must lie inside the acceptance
    region at RENEWAL_ALPHA.  The flags alone sit at a 1 % false-alarm rate
    each, so on about 4 % of seeds a correct program gets a false flag;
    the statistics at 1e-6 fail a correct program essentially never.
    """
    fails = []
    if report.get("underpowered") is not False:
        fails.append("renewal: report is underpowered")
    for key, want in (("n_traj", n_traj), ("n_first", n_first), ("n_later", n_later)):
        if report.get(key) != want:
            fails.append(f"renewal: {key} = {report.get(key)!r}, the CSV holds {want}")
    passed = report.get("passed", {})
    thr = float(report["ks_threshold_99"])
    if abs(thr - stats.kstwobign.isf(PROGRAM_ALPHA)) > 1e-12:
        fails.append(f"renewal: ks_threshold_99 = {thr!r}")
    strict = float(stats.kstwobign.isf(RENEWAL_ALPHA))
    for key, n in (("first", n_first), ("later", n_later), ("third", n_third)):
        stat = float(report[f"ks_stat_{key}"])
        if passed.get(f"ks_{key}") is not bool(stat <= thr / math.sqrt(n)):
            fails.append(f"renewal: passed.ks_{key} disagrees with its statistic")
        if not stat <= strict / math.sqrt(n):
            fails.append(f"renewal: ks_stat_{key} = {stat:.4g} beyond the "
                         f"alpha = {RENEWAL_ALPHA:g} threshold {strict / math.sqrt(n):.4g}")
    pval = float(report["independence_pvalue"])
    if passed.get("independence") is not bool(pval > PROGRAM_ALPHA):
        fails.append("renewal: passed.independence disagrees with its p-value")
    if not pval > RENEWAL_ALPHA:
        fails.append(f"renewal: independence p-value {pval:.3g} <= {RENEWAL_ALPHA:g}")
    return fails


def check_cdf(label: str, F, F_ref) -> list[str]:
    err = float(np.max(np.abs(np.asarray(F) - np.asarray(F_ref))))
    if not err <= ROUNDOFF:
        return [f"{label}: CDF off the reference by {err:.3e}"]
    return []


def trajectory_rows(index: int, records) -> list[str]:
    """The CSV rows a trajectory must have: index, jump index, time, channel."""
    return [f"{index},{k},{'%.17g' % t},{c}" for k, (t, c) in enumerate(records)]


def check_resampled_rows(index: int, csv_rows: list[str], records) -> list[str]:
    want = trajectory_rows(index, records)
    if csv_rows != want:
        return [f"trajectory {index}: {len(csv_rows)} CSV rows differ from the "
                f"{len(want)} rows of sampling it alone"]
    return []
