"""Cross-validation battery: analytic pipeline against the kernel oracle.

Every row computes one object twice -- once through the semigroup/jump
construction and once through the integral-sum-kernel oracle (or an
otherwise independent route) -- over one or more (analytic, oracle) pairs.
A row records its name, the hashes of the pair at the largest distance,
that distance and its tolerance, and it passes iff distance <= tolerance.
The jump-limit rows compare each jump map with the Richardson pair of two
one-photon oracle maps.  The one-side-photon-cross and truncated-dilation
rows compare an oracle map with the Dyson route at the oracle's own photon
cap, so truncation is no part of their distance.  The amplitude rows gate the
oracle's closed-form amplitude against the factorised form
:func:`resfluor.model.emission_amplitude` and against a brute-force
quadrature of :func:`resfluor.guichardet.integral_sum_kernel`, whose
entrywise products the closed form does not use.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from .config import RunConfig, format_float
from .davies import davies_map, dyson_truncation_tail
from .events import Event, exact_count, free_channel, zero_photons, concat_events
from .guichardet import driven_amplitude, integral_sum_kernel, oracle_davies_map
from .linalg import I2, ad_map, apply_superop, frobenius_dist, superop_exp
from .model import (
    build_model,
    emission_amplitude,
    lindblad_generator,
    master_map,
    no_count_map,
    no_jump_operator,
)
from .quadrature import gauss_legendre_01

__all__ = ["matrix_hash", "amplitude_by_region_quadrature", "run_battery"]


def matrix_hash(M) -> str:
    M = np.asarray(M, dtype=complex)
    parts = []
    for v in M.ravel():
        parts.append(format_float(v.real))
        parts.append(format_float(v.imag))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def amplitude_by_region_quadrature(m, t: float, omega_f, omega_s, order: int = 48) -> np.ndarray:
    """Brute-force driven amplitude: the kernel integrated region by region.

    Independent of the oracle's closed-form gap integrals: it enumerates the
    kept forward emissions and up to two absorption times, splits the
    absorption domain at the emission times so every region is smooth, and
    integrates :func:`resfluor.guichardet.integral_sum_kernel` over each
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
            kernel = integral_sum_kernel(m, t, times, letters)
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


def _jump_limit_tolerance(m, J, t: float) -> float:
    """Twice a bound on ||2 Q(t/2) - Q(t) - J||, Q(x) the one-photon map over [0, x) / x.

    With A the no-count generator, Q(x) = sum_n x^n/(n+1)! sum_(j+k=n) A^j J A^k,
    n + 1 terms of norm at most a^n ||J||, a = |z|^2 + 1 + 2|z||kappa_f| >= ||A||.
    The pair's n-th term carries a factor 2^(1-n) - 1, so the difference is at
    most ||J|| (a t)^2 (1/4 + a t e^(a t)/6) < ||J|| (a t)^2 / 2 while a t <= 1/2;
    the other half of the tolerance covers the oracle's quadrature and rounding.
    """
    a = abs(m.z) ** 2 + 1.0 + 2.0 * abs(m.z) * abs(m.kappa_f)
    return float(np.linalg.norm(J) * (a * t) ** 2)


def _roundoff_tolerance(M) -> float:
    """64 u ||M||_F (u = 2^-53), for a map two routes compute as one exact sum.

    The oracle's Gauss-Legendre remainder on the cap-3 free/free map lies far
    below it: along each cube axis of the simplex rule the integrand is a
    polynomial of degree < 3 times exponentials of rate <= t, so p nodes leave
    about C(2p, 2) t^(2p-2) (p!)^4 / ((2p+1) ((2p)!)^3) of its scale, 7e-20 at
    p = 6 and 2e-111 at p = 24 (t = 0.3).  Measured on the default, complex,
    z = 1.5 and z = 2 configs: 1-4 u ||M||_F from p = 6 up, 7e-10 at p = 4.
    """
    return float(64.0 * 2.0**-53 * np.linalg.norm(M))


def _check(name, pairs, tol, note=""):
    """One row: the largest distance over (analytic, oracle) pairs, gated at tol."""
    dist, analytic, oracle = max(
        ((frobenius_dist(a, o), a, o) for a, o in pairs), key=lambda row: row[0]
    )
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
    if cfg.n_max < 2:  # the composition-cocycle row pins two photons
        raise ValueError(f"verify needs config key 'n_max' >= 2, got {cfg.n_max}")
    m = cfg.model()
    checks = []

    def oracle(model, event):
        return oracle_davies_map(model, event, n_max=cfg.n_max, quad_order=cfg.quad_order)

    # no-count map: oracle event {(0,0)} against Ad[B_t]
    t = 0.8
    ev0 = Event(forward=zero_photons(), side=zero_photons(), horizon=t)
    checks.append(
        _check("ideality-zero-count", [(no_count_map(m, t), oracle(m, ev0).matrix)], 1e-9)
    )

    # undriven reduction: full-space oracle map against exp(tL)
    m0 = build_model(m.kappa_f, m.kappa_s, 0.0)
    pairs = [
        (
            superop_exp(lindblad_generator(m0), tt),
            oracle(m0, Event(forward=free_channel(), side=free_channel(), horizon=tt)).matrix,
        )
        for tt in (0.25, 0.5, 1.0)
    ]
    checks.append(_check("dilation-undriven", pairs, 1e-7, note="max over t in {0.25, 0.5, 1}"))

    # driven cross-check on a one-side-photon event: the oracle and the Dyson
    # route are truncated at the same photon cap, so the cap is no error
    t1 = 0.075
    ev1 = Event(forward=free_channel(), side=exact_count(0.0, t1, 1), horizon=t1)
    ora = oracle(m, ev1)
    dav = davies_map(m, ev1, n_max=cfg.n_max, expansion="dyson")
    checks.append(
        _check(
            "one-side-photon-cross",
            [(dav.matrix, ora.matrix)],
            1e-7,
            note=f"photon cap {cfg.n_max} on both routes",
        )
    )

    # jump limits: Q(x), the one-photon oracle map over [0, x) divided by x,
    # tends to the jump map J, and the Richardson pair 2 Q(t/2) - Q(t) is
    # J + O(t^2); an event with one photon has a single sector at any cap
    tj = 1e-3
    for channel, target in (("forward", m.J_f), ("side", m.J_s)):
        q = []
        for x in (tj / 2, tj):
            one, none = exact_count(0.0, x, 1), zero_photons()
            ev = Event(one, none, x) if channel == "forward" else Event(none, one, x)
            q.append(oracle(m, ev).matrix / x)
        tol = _jump_limit_tolerance(m, target, tj)
        note = "Richardson pair 2 Q(t/2) - Q(t) at t = 1e-3"
        checks.append(_check(f"jump-limit-{channel}", [(target, 2.0 * q[0] - q[1])], tol, note))

    # composition law with both factors from the oracle
    E = Event(forward=zero_photons(), side=exact_count(0.1, 0.3, 1), horizon=0.4)
    F = Event(forward=exact_count(0.05, 0.2, 1), side=zero_photons(), horizon=0.3)
    oE = oracle(m, E).matrix
    oF = oracle(m, F).matrix
    comb = concat_events(F, E)
    oC = oracle(m, comb).matrix
    checks.append(_check("composition-cocycle", [(oF @ oE, oC)], 1e-7))

    # truncated isometry: full-space oracle map on the identity
    t2 = 0.3
    evf = Event(forward=free_channel(), side=free_channel(), horizon=t2)
    full = oracle(m, evf)
    checks.append(
        _check(
            "isometry-truncation",
            [(I2, apply_superop(full.matrix, I2))],
            full.tail_bound + 1e-9,
            note=(
                f"coherent-weight tail {full.truncation_error:.2e}, "
                f"rate-bound tail {full.tail_bound:.2e}"
            ),
        )
    )

    # truncated dilation: at one photon cap the free/free oracle map and the
    # Dyson route are the same truncated sum, so only rounding separates them
    cap = min(3, cfg.n_max)
    ocap = oracle_davies_map(m, evf, n_max=cap, quad_order=cfg.quad_order).matrix
    dcap = davies_map(m, evf, n_max=cap, expansion="dyson").matrix
    note = f"photon cap {cap} on both routes"
    checks.append(_check("truncated-dilation", [(dcap, ocap)], _roundoff_tolerance(dcap), note))

    # Dyson route against the exponential, explicitly truncated
    t3, cap = 0.15, min(cfg.n_max, 6)
    evf3 = Event(forward=free_channel(), side=free_channel(), horizon=t3)
    dy = davies_map(m, evf3, n_max=cap, expansion="dyson")
    tail = dyson_truncation_tail(m, t3, cap)
    checks.append(
        _check(
            "dyson-vs-exponential",
            [(master_map(m, t3), dy.matrix)],
            tail + 1e-9,
            note=f"jump cap {cap}, tail bound {tail:.2e}",
        )
    )

    # zero-count event against the contraction sandwich
    checks.append(
        _check(
            "zero-count-davies",
            [(davies_map(m, ev0, n_max=cfg.n_max).matrix, ad_map(no_jump_operator(m, t)))],
            1e-10,
        )
    )

    # one-photon amplitudes: the oracle's closed-form gaps against the
    # factorised semigroup form, and against the brute-force kernel quadrature
    tk, sk = 1.0, 0.3
    for channel, omega in (("forward", ((sk,), ())), ("side", ((), (sk,)))):
        amp = driven_amplitude(m, tk, *omega)
        exact = emission_amplitude(m, tk, *omega)
        checks.append(
            _check(f"amplitude-one-{channel}", [(exact, amp)], 1e-12 * np.linalg.norm(exact))
        )
        brute = amplitude_by_region_quadrature(m, tk, *omega)
        checks.append(_check(f"amplitude-brute-{channel}", [(amp, brute)], 1e-10))

    all_pass = all(c["pass"] for c in checks)
    return {"checks": checks, "all_pass": bool(all_pass)}
