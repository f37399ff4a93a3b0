"""Cross-validation battery: analytic pipeline against the kernel oracle.

Each check computes one object twice -- once through the semigroup/jump
construction and once through the integral-sum-kernel oracle (or an
otherwise independent route) -- and records name, value hashes, distance and
tolerance.  The reference-amplitude check is special: the package carries
the two textbook one-photon amplitude matrices whose short-time limits
define the jump operators, and at finite times the exact amplitudes pick up
drive-interference corrections these forms drop.  That check therefore
validates our amplitude against a brute-force kernel quadrature and then
*reports* the comparison with the reference forms, flagging a discrepancy
instead of failing or silently adjusting either side.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from .config import RunConfig, format_float
from .davies import davies_map, dyson_truncation_tail
from .events import Event, exact_count, free_channel, zero_photons, concat_events
from .guichardet import (
    driven_amplitude,
    integral_sum_kernel_batch,
    jump_limit_check,
    oracle_davies_map,
)
from .linalg import I2, ad_map, apply_superop, frobenius_dist, superop_exp, vec
from .model import (
    build_model,
    forward_jump,
    lindblad_generator,
    master_map,
    no_count_map,
    no_jump_operator,
    side_jump,
)
from .quadrature import gauss_legendre_01

__all__ = [
    "matrix_hash",
    "reference_forward_amplitude",
    "reference_side_amplitude",
    "amplitude_by_region_quadrature",
    "run_battery",
]


def matrix_hash(M) -> str:
    M = np.asarray(M, dtype=complex)
    parts = []
    for v in M.ravel():
        parts.append(format_float(v.real))
        parts.append(format_float(v.imag))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def reference_forward_amplitude(m, t: float, s: float) -> np.ndarray:
    """Textbook one-forward-photon amplitude; exact only as t -> 0.

    [[z e^{-t/2}, 2 z^2 kf* (e^{-t/2} - 1)], [kappa_f e^{-s/2}, z]] -- the
    finite-t drive-interference corrections are absent by construction.
    """
    z, kfb = m.z, np.conj(m.kappa_f)
    return np.array(
        [
            [z * np.exp(-t / 2), 2 * z**2 * kfb * np.exp(-t / 2) - 2 * z**2 * kfb],
            [m.kappa_f * np.exp(-s / 2), z],
        ],
        dtype=complex,
    )


def reference_side_amplitude(m, t: float, s: float) -> np.ndarray:
    """Textbook one-side-photon amplitude kappa_s e^{-s/2} E21; exact at z = 0."""
    out = np.zeros((2, 2), dtype=complex)
    out[1, 0] = m.kappa_s * np.exp(-s / 2)
    return out


def amplitude_by_region_quadrature(m, t: float, omega_f, omega_s, order: int = 48) -> np.ndarray:
    """Brute-force driven amplitude: the kernel integrated region by region.

    Independent of the oracle's closed-form gap integrals: it enumerates the
    kept forward emissions and up to two absorption times, splits the
    absorption domain at the emission times so every region is smooth, and
    integrates the kernel (:func:`integral_sum_kernel_batch`) over each
    choice of distinct regions with a tensor Gauss-Legendre rule of
    ``order`` nodes per absorption.  The absorptions of one choice sit in
    distinct regions, so the time order of all letters is fixed and the
    whole tensor grid is one kernel batch.  Only supports one emission
    (either channel), which is all the battery needs.
    """
    omega_f = tuple(float(x) for x in omega_f)
    omega_s = tuple(float(x) for x in omega_s)
    if len(omega_f) + len(omega_s) > 1:
        raise NotImplementedError("brute-force path supports at most one emission")
    gx, gw = gauss_legendre_01(order)
    z = m.z

    def tau_integral(sigma_f, sigma_s, n):
        fixed = sorted([(x, "sigma_f") for x in sigma_f] + [(x, "sigma_s") for x in sigma_s])
        cuts = [0.0] + [x for x, _ in fixed] + [t]
        # region r lies between fixed letters r - 1 and r; empty ones are dropped
        regions = [r for r in range(len(cuts) - 1) if cuts[r + 1] - cuts[r] > 0]
        acc = np.zeros((2, 2), dtype=complex)
        # a repeated region would be an ordered sub-simplex, but those all
        # vanish (two adjacent absorptions annihilate), so take distinct ones
        for combo in itertools.combinations(regions, n):
            axes = [(cuts[r] + (cuts[r + 1] - cuts[r]) * gx, (cuts[r + 1] - cuts[r]) * gw)
                    for r in combo]
            nodes = [g.ravel() for g in np.meshgrid(*[x for x, _ in axes], indexing="ij")]
            weights = np.ones(1)
            for g in np.meshgrid(*[w for _, w in axes], indexing="ij"):
                weights = weights * g.ravel()
            columns, letters = [], []
            for r in range(len(fixed) + 1):
                if r in combo:
                    columns.append(nodes[combo.index(r)])
                    letters.append("tau_f")
                if r < len(fixed):
                    columns.append(np.full(weights.shape, fixed[r][0]))
                    letters.append(fixed[r][1])
            times = np.stack(columns, axis=1) if columns else np.zeros((1, 0))
            kernel = integral_sum_kernel_batch(m, t, times, letters)
            acc += np.tensordot(weights, kernel, axes=1)
        return acc

    total = np.zeros((2, 2), dtype=complex)
    for kept in itertools.product((False, True), repeat=len(omega_f)):
        sigma_f = tuple(x for x, k in zip(omega_f, kept) if k)
        dropped = len(omega_f) - len(sigma_f)
        max_tau = len(sigma_f) + len(omega_s) + 1
        for n in range(max_tau + 1):
            weight = z ** (dropped + n)
            if weight == 0 and (dropped + n) > 0:
                continue
            total += weight * tau_integral(sigma_f, omega_s, n)
    return total


def _check(name, analytic, oracle, tol, note=""):
    analytic = np.asarray(analytic, dtype=complex)
    oracle = np.asarray(oracle, dtype=complex)
    dist = frobenius_dist(analytic, oracle)
    return {
        "name": name,
        "analytic_hash": matrix_hash(analytic),
        "oracle_hash": matrix_hash(oracle),
        "distance": dist,
        "tolerance": tol,
        "pass": bool(dist <= tol),
        "note": note,
    }


def run_battery(cfg: RunConfig) -> dict:
    """Run every cross-check; returns a JSON-ready report with per-check rows."""
    m = cfg.model()
    n_max = min(cfg.n_max, 4)  # oracle sectors get expensive beyond this
    checks = []

    # no-count map: oracle event {(0,0)} against Ad[B_t]
    t = 0.8
    ev0 = Event(forward=zero_photons(), side=zero_photons(), horizon=t)
    checks.append(
        _check(
            "ideality-zero-count",
            no_count_map(m, t),
            oracle_davies_map(m, ev0, n_max=n_max).matrix,
            1e-9,
        )
    )

    # undriven reduction: full-space oracle map against exp(tL)
    m0 = build_model(m.kappa_f, m.kappa_s, 0.0)
    worst = 0.0
    for tt in (0.25, 0.5, 1.0):
        evf = Event(forward=free_channel(), side=free_channel(), horizon=tt)
        om = oracle_davies_map(m0, evf, n_max=n_max).matrix
        worst = max(worst, frobenius_dist(om, superop_exp(lindblad_generator(m0), tt)))
    checks.append(
        {
            "name": "dilation-undriven",
            "analytic_hash": matrix_hash(superop_exp(lindblad_generator(m0), 1.0)),
            "oracle_hash": matrix_hash(om),
            "distance": worst,
            "tolerance": 1e-7,
            "pass": bool(worst <= 1e-7),
            "note": "max over t in {0.25, 0.5, 1}",
        }
    )

    # driven cross-check on a one-side-photon event; horizon chosen so the
    # oracle's sector truncation sits below the tolerance
    t1 = 0.075
    ev1 = Event(forward=free_channel(), side=exact_count(0.0, t1, 1), horizon=t1)
    ora = oracle_davies_map(m, ev1, n_max=n_max)
    dav = davies_map(m, ev1, n_max=cfg.n_max)
    checks.append(
        _check(
            "one-side-photon-cross",
            dav.matrix,
            ora.matrix,
            1e-7,
            note=f"truncation estimate {ora.truncation_error:.2e}",
        )
    )

    # jump limits at small t
    rep = jump_limit_check(m, [1e-3], n_max=min(n_max, 3), quad_order=cfg.quad_order)
    for channel, target in (("forward", forward_jump(m)), ("side", side_jump(m))):
        dist = rep[channel][0]["distance"]
        tol = 5e-3 * np.linalg.norm(target)
        checks.append(
            {
                "name": f"jump-limit-{channel}",
                "analytic_hash": matrix_hash(target),
                "oracle_hash": "difference-quotient",
                "distance": dist,
                "tolerance": tol,
                "pass": bool(dist <= tol),
                "note": "distance of (1/t) one-photon map at t = 1e-3",
            }
        )

    # composition law with both factors from the oracle
    E = Event(forward=zero_photons(), side=exact_count(0.1, 0.3, 1), horizon=0.4)
    F = Event(forward=exact_count(0.05, 0.2, 1), side=zero_photons(), horizon=0.3)
    oE = oracle_davies_map(m, E, n_max=n_max).matrix
    oF = oracle_davies_map(m, F, n_max=n_max).matrix
    comb = concat_events(F, E)
    oC = oracle_davies_map(m, comb, n_max=n_max).matrix
    checks.append(_check("composition-cocycle", oF @ oE, oC, 1e-7))

    # truncated isometry: full-space oracle map on the identity
    t2 = 0.3
    evf = Event(forward=free_channel(), side=free_channel(), horizon=t2)
    full = oracle_davies_map(m, evf, n_max=n_max)
    dist = frobenius_dist(apply_superop(full.matrix, I2), I2)
    tol = full.tail_bound + 1e-9
    checks.append(
        {
            "name": "isometry-truncation",
            "analytic_hash": matrix_hash(I2),
            "oracle_hash": matrix_hash(apply_superop(full.matrix, I2)),
            "distance": dist,
            "tolerance": tol,
            "pass": bool(dist <= tol),
            "note": (
                f"coherent-weight tail {full.truncation_error:.2e}, "
                f"rate-bound tail {full.tail_bound:.2e}"
            ),
        }
    )

    # Dyson route against the exponential, explicitly truncated
    t3, cap = 0.15, min(cfg.n_max, 6)
    evf3 = Event(forward=free_channel(), side=free_channel(), horizon=t3)
    dy = davies_map(m, evf3, n_max=cap, expansion="dyson")
    tail = dyson_truncation_tail(m, t3, cap)
    checks.append(
        _check(
            "dyson-vs-exponential",
            master_map(m, t3),
            dy.matrix,
            tail + dy.quad_error + 1e-9,
            note=f"jump cap {cap}, tail bound {tail:.2e}",
        )
    )

    # zero-count event against the contraction sandwich
    checks.append(
        _check(
            "zero-count-davies",
            davies_map(m, ev0, n_max=cfg.n_max).matrix,
            ad_map(no_jump_operator(m, t)),
            1e-10,
        )
    )

    # reference one-photon amplitudes: validate our amplitude against the
    # brute-force kernel quadrature, then report against the reference forms
    tk, sk = 1.0, 0.3
    for name, omega, ref in (
        ("amplitude-one-forward", ((sk,), ()), reference_forward_amplitude(m, tk, sk)),
        ("amplitude-one-side", ((), (sk,)), reference_side_amplitude(m, tk, sk)),
    ):
        amp = driven_amplitude(m, tk, *omega, m_tau=cfg.m_tau)
        brute = amplitude_by_region_quadrature(m, tk, *omega)
        self_dist = frobenius_dist(amp, brute)
        ref_dist = frobenius_dist(amp, ref)
        reproduced = ref_dist <= 1e-8
        checks.append(
            {
                "name": name,
                "analytic_hash": matrix_hash(ref),
                "oracle_hash": matrix_hash(amp),
                "distance": ref_dist,
                "tolerance": 1e-8,
                "pass": bool(self_dist <= 1e-10),
                "status": "reproduced" if reproduced else "discrepancy-reported",
                "reference_value": _matrix_json(ref),
                "computed_value": _matrix_json(amp),
                "brute_force_distance": self_dist,
                "note": (
                    "reference form reproduced"
                    if reproduced
                    else "reference form drops drive-interference terms; both "
                    "values reported, neither adjusted"
                ),
            }
        )

    all_pass = all(c["pass"] for c in checks)
    return {"checks": checks, "all_pass": bool(all_pass)}


def _matrix_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[v.real, v.imag] for v in row] for row in M]
