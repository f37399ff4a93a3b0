import numpy as np
import pytest
from conftest import random_model

from resfluor.davies import davies_map
from resfluor.events import Event, exact_count, free_channel, zero_photons, concat_events
from resfluor.guichardet import (
    GuichardetPoint,
    KernelArgs,
    driven_amplitude,
    integral_sum_kernel,
    integral_sum_kernel_batch,
    oracle_davies_map,
)
from resfluor.linalg import (
    I2,
    apply_superop,
    excited_state,
    frobenius_dist,
    superop_exp,
)
from resfluor.model import (
    build_model,
    emission_amplitude,
    forward_jump,
    lindblad_generator,
    no_count_map,
    no_jump_operator,
    side_jump,
)
from resfluor.verify import amplitude_by_region_quadrature

SQ2 = 2.0 ** -0.5
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def exact_forward_amplitude(m, t, s):
    """Hand-derived closed form of the one-forward-photon amplitude."""
    z, kf = m.z, m.kappa_f
    kfb = np.conj(kf)
    e = np.exp
    return np.array(
        [
            [
                z * e(-t / 2) - 2 * z * abs(kf) ** 2 * e(-s / 2) * (1 - e(-(t - s) / 2)),
                -2 * z**2 * kfb * (1 - e(-t / 2))
                + 4 * z**2 * abs(kf) ** 2 * kfb * (1 - e(-s / 2)) * (1 - e(-(t - s) / 2)),
            ],
            [kf * e(-s / 2), z - 2 * z * abs(kf) ** 2 * (1 - e(-s / 2))],
        ],
        dtype=complex,
    )


def exact_side_amplitude(m, t, s):
    """Hand-derived closed form of the one-side-photon amplitude."""
    z, kfb, ks = m.z, np.conj(m.kappa_f), m.kappa_s
    e = np.exp
    return np.array(
        [
            [
                -2 * z * ks * kfb * e(-s / 2) * (1 - e(-(t - s) / 2)),
                4 * z**2 * ks * kfb**2 * (1 - e(-s / 2)) * (1 - e(-(t - s) / 2)),
            ],
            [ks * e(-s / 2), -2 * z * ks * kfb * (1 - e(-s / 2))],
        ],
        dtype=complex,
    )


def test_guichardet_point_validation():
    with pytest.raises(ValueError):
        GuichardetPoint((0.3, 0.3))
    with pytest.raises(ValueError):
        GuichardetPoint((0.5, 0.2))
    with pytest.raises(ValueError):
        KernelArgs(
            sigma_f=GuichardetPoint((0.1,)), tau_f=GuichardetPoint((0.1,))
        )


def test_kernel_empty_and_single(sym_model):
    t, s = 1.0, 0.3
    out = integral_sum_kernel(sym_model, t, KernelArgs())
    assert frobenius_dist(out, np.diag([np.exp(-t / 2), 1.0])) == 0.0
    out1 = integral_sum_kernel(sym_model, t, KernelArgs(sigma_f=GuichardetPoint((s,))))
    assert frobenius_dist(out1, sym_model.kappa_f * np.exp(-s / 2) * E21) < 1e-16


def test_kernel_indicator_vanishes_outside(sym_model):
    out = integral_sum_kernel(
        sym_model, 1.0, KernelArgs(tau_s=GuichardetPoint((1.5,)))
    )
    assert np.all(out == 0)
    out2 = integral_sum_kernel(
        sym_model, 1.0, KernelArgs(sigma_f=GuichardetPoint((-0.1,)))
    )
    assert np.all(out2 == 0)


def test_kernel_adjacent_emissions_annihilate(sym_model):
    # two emission letters with only an exponential between them vanish
    out = integral_sum_kernel(
        sym_model, 1.0, KernelArgs(sigma_f=GuichardetPoint((0.2, 0.5)))
    )
    assert np.all(out == 0)
    # likewise two absorptions
    out2 = integral_sum_kernel(
        sym_model, 1.0, KernelArgs(tau_f=GuichardetPoint((0.2, 0.5)))
    )
    assert np.all(out2 == 0)


def kernel_by_products(m, t, times, letters):
    """The kernel as a plain product of 2x2 matrices, earliest letter rightmost."""
    mats = {
        "sigma_f": m.V_f,
        "sigma_s": m.V_s,
        "tau_f": -m.V_f.conj().T,
        "tau_s": -m.V_s.conj().T,
    }

    def free(x):
        return np.diag([np.exp(-x / 2), 1.0])

    out, prev = np.eye(2), 0.0
    for x, name in zip(times, letters):
        out = mats[name] @ free(x - prev) @ out
        prev = x
    return free(t - prev) @ out


@pytest.mark.parametrize("seed", range(6))
def test_kernel_batch_matches_scalar_kernel(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng)
    t = rng.uniform(0.5, 3.0)
    n = seed % 5
    # emissions and absorptions alternate (adjacent equal kinds annihilate),
    # each on a random channel
    first = rng.integers(0, 2)
    letters = [("sigma_", "tau_")[(first + k) % 2] + "fs"[rng.integers(0, 2)] for k in range(n)]
    times = np.sort(rng.uniform(0.0, t, size=(40, n)), axis=1)
    if n:
        times[-1, -1] = t + 0.5  # outside [0, t]: the indicator zeroes the row
    batch = integral_sum_kernel_batch(m, t, times, letters)
    assert batch.shape == (40, 2, 2)
    for row, k_row in zip(times, batch):
        args = KernelArgs(
            **{
                name: GuichardetPoint(tuple(x for x, lab in zip(row, letters) if lab == name))
                for name in ("sigma_f", "sigma_s", "tau_f", "tau_s")
            }
        )
        scalar = integral_sum_kernel(m, t, args)
        assert frobenius_dist(k_row, scalar) <= 1e-15
        if row.size and row[-1] > t:
            assert np.all(k_row == 0)
        else:
            assert np.abs(k_row).max() > 0
            assert frobenius_dist(k_row, kernel_by_products(m, t, row, letters)) <= 1e-14


def test_kernel_batch_validation(sym_model):
    with pytest.raises(ValueError):
        integral_sum_kernel_batch(sym_model, 1.0, [[0.5, 0.2]], ["sigma_f", "tau_f"])
    with pytest.raises(ValueError):
        integral_sum_kernel_batch(sym_model, 1.0, [[0.2, 0.2]], ["sigma_f", "tau_f"])
    with pytest.raises(ValueError):
        integral_sum_kernel_batch(sym_model, 1.0, [[0.2]], ["sigma_f", "tau_f"])
    with pytest.raises(ValueError):
        integral_sum_kernel_batch(sym_model, 1.0, [[0.2]], ["omega"])


@pytest.mark.parametrize(
    "omega_f, omega_s",
    [((), (1e-9,)), ((), (1.0 - 1e-9,)), ((1e-9,), ()), ((1.0 - 1e-9,), ())],
)
def test_amplitude_short_gaps_keep_relative_accuracy(sym_model, omega_f, omega_s):
    # an emission 1e-9 from an end leaves a gap of length L = 1e-9 whose
    # bridged integral 2(1 - e^(-L/2)) sets amplitude entries of size ~1e-10;
    # forming it as e^(-L/2) - 1 instead of expm1 costs them ~1e-7 relative
    t = 1.0
    for m in (sym_model, random_model(np.random.default_rng(11))):
        fast = driven_amplitude(m, t, omega_f, omega_s)
        brute = amplitude_by_region_quadrature(m, t, omega_f, omega_s)
        assert np.all(np.abs(fast - brute) <= 1e-12 * np.abs(brute))


def test_amplitude_long_horizon_against_brute_force(sym_model):
    t = 20.0
    for m in (sym_model, random_model(np.random.default_rng(12))):
        for omega_f, omega_s in (((), ()), ((7.0,), ()), ((), (13.0,))):
            fast = driven_amplitude(m, t, omega_f, omega_s)
            brute = amplitude_by_region_quadrature(m, t, omega_f, omega_s)
            assert frobenius_dist(fast, brute) <= 1e-12 * np.linalg.norm(brute)


def test_amplitude_empty_scales_to_no_jump_operator(sym_model):
    t = 1.0
    amp = driven_amplitude(sym_model, t, [], [])
    scaled = np.exp(-t * abs(sym_model.z) ** 2 / 2) * amp
    assert frobenius_dist(scaled, no_jump_operator(sym_model, t)) < 1e-14


def test_amplitude_closed_forms(sym_model):
    t, s = 1.0, 0.3
    af = driven_amplitude(sym_model, t, [s], [])
    assert frobenius_dist(af, exact_forward_amplitude(sym_model, t, s)) < 1e-13
    aside = driven_amplitude(sym_model, t, [], [s])
    assert frobenius_dist(aside, exact_side_amplitude(sym_model, t, s)) < 1e-13


@pytest.mark.parametrize("seed", range(3))
def test_amplitude_cocycle_across_a_split(seed):
    # amp_t(omega) = amp_{t-s}(omega_late - s) amp_s(omega_early): the
    # amplitude is a finite sum, so this holds to roundoff however many
    # emissions there are (a cap on absorption insertions broke it at >= 6)
    rng = np.random.default_rng(900 + seed)
    m = random_model(rng)
    t, s = 2.0, 0.9
    for n_early, n_late, side in ((3, 3, None), (3, 4, None), (2, 3, "early"), (2, 3, "late")):
        f_early = np.sort(rng.uniform(0.0, s, n_early))
        f_late = np.sort(rng.uniform(s, t, n_late))
        s_early = [rng.uniform(0.0, s)] if side == "early" else []
        s_late = [rng.uniform(s, t)] if side == "late" else []
        whole = driven_amplitude(m, t, [*f_early, *f_late], s_early + s_late)
        early = driven_amplitude(m, s, f_early, s_early)
        late = driven_amplitude(m, t - s, f_late - s, np.array(s_late) - s)
        assert np.abs(whole - late @ early).max() < 1e-14, (n_early, n_late, side)


def test_amplitude_undriven_side_photon():
    m0 = build_model(SQ2, SQ2, 0.0)
    t, s = 1.0, 0.3
    amp = driven_amplitude(m0, t, [], [s])
    assert frobenius_dist(amp, m0.kappa_s * np.exp(-s / 2) * E21) < 1e-16


def test_amplitude_against_brute_force(sym_model):
    t, s = 0.9, 0.4
    for omega_f, omega_s in (((), ()), ((s,), ()), ((), (s,))):
        fast = driven_amplitude(sym_model, t, omega_f, omega_s)
        brute = amplitude_by_region_quadrature(sym_model, t, omega_f, omega_s)
        assert frobenius_dist(fast, brute) < 1e-10


def test_amplitude_matches_the_factorised_semigroup_form():
    # e^{t|z|^2/2} B_{t-s_n} C_n ... C_1 B_{s_1}, built from the semigroup and
    # the jump matrices, against the kernel oracle's closed-form gaps
    rng = np.random.default_rng(21)
    for _ in range(4):
        m = random_model(rng)
        t = rng.uniform(0.5, 3.0)
        for n_f, n_s in ((0, 0), (1, 0), (0, 1), (3, 2), (6, 0), (0, 6), (6, 6)):
            omega_f, omega_s = rng.uniform(0.0, t, n_f), rng.uniform(0.0, t, n_s)
            exact = emission_amplitude(m, t, omega_f, omega_s)
            amp = driven_amplitude(m, t, omega_f, omega_s)
            assert frobenius_dist(amp, exact) <= 1e-12 * np.linalg.norm(exact), (n_f, n_s)


def test_oracle_zero_count_matches_no_count_map(sym_model):
    t = 0.7
    ev = Event(forward=zero_photons(), side=zero_photons(), horizon=t)
    res = oracle_davies_map(sym_model, ev)
    assert frobenius_dist(res.matrix, no_count_map(sym_model, t)) < 1e-9


def test_oracle_dilation_undriven():
    m0 = build_model(SQ2, SQ2, 0.0)
    t = 0.5
    ev = Event(forward=free_channel(), side=free_channel(), horizon=t)
    res = oracle_davies_map(m0, ev, n_max=4)
    assert frobenius_dist(res.matrix, superop_exp(lindblad_generator(m0), t)) < 1e-8


def test_oracle_one_side_photon_vs_analytic(sym_model):
    t = 0.075
    ev = Event(forward=free_channel(), side=exact_count(0.0, t, 1), horizon=t)
    ora = oracle_davies_map(sym_model, ev, n_max=4)
    dav = davies_map(sym_model, ev)
    dist = frobenius_dist(ora.matrix, dav.matrix)
    assert dist < 1e-7
    assert dist < ora.tail_bound + dav.quad_error + 1e-9


def test_oracle_composition_cocycle(sym_model):
    E = Event(forward=zero_photons(), side=exact_count(0.1, 0.3, 1), horizon=0.4)
    F = Event(forward=exact_count(0.05, 0.2, 1), side=zero_photons(), horizon=0.3)
    oE = oracle_davies_map(sym_model, E, n_max=4).matrix
    oF = oracle_davies_map(sym_model, F, n_max=4).matrix
    oC = oracle_davies_map(sym_model, concat_events(F, E), n_max=4).matrix
    assert frobenius_dist(oF @ oE, oC) < 1e-7


def test_oracle_probability_and_truncation_fields(sym_model):
    t = 0.3
    ev = Event(forward=free_channel(), side=free_channel(), horizon=t)
    res = oracle_davies_map(sym_model, ev, n_max=4)
    p = float(np.real(np.trace(excited_state() @ res(I2))))
    assert 0.0 <= p <= 1.0 + 1e-9
    assert res.truncation_error > 0
    assert res.tail_bound > res.truncation_error
    # isometry up to the reported (rate-bound) tail
    assert frobenius_dist(apply_superop(res.matrix, I2), I2) <= res.tail_bound + 1e-9


def test_oracle_diagnostics_count_sectors_and_nodes(sym_model):
    t = 0.2
    ev = Event(forward=zero_photons(), side=exact_count(0.0, t, 1), horizon=t)
    # one sector (a single side emission) on a 1-D rule of quad_order nodes
    res = oracle_davies_map(sym_model, ev, n_max=1, quad_order=12)
    assert dict(res.diagnostics) == {"sectors": 1, "nodes": 12}
    again = oracle_davies_map(sym_model, ev, n_max=1, quad_order=12)
    assert again.diagnostics == res.diagnostics
    assert np.array_equal(again.matrix, res.matrix)
    # free forward channel, cap 2: sectors "s", "fs" and "sf", with 12 and
    # 12^2 nodes
    ev2 = Event(forward=free_channel(), side=exact_count(0.0, t, 1), horizon=t)
    res2 = oracle_davies_map(sym_model, ev2, n_max=2, quad_order=12)
    assert dict(res2.diagnostics) == {"sectors": 3, "nodes": 12 + 2 * 144}


def test_oracle_capacity_error(sym_model):
    ev = Event(forward=exact_count(0.0, 1.0, 3), side=exact_count(0.0, 1.0, 2), horizon=1.0)
    with pytest.raises(ValueError):
        oracle_davies_map(sym_model, ev, n_max=4)


def test_jump_limit_check(sym_model):
    # (1/t) times the one-photon oracle map tends to the jump map
    for channel, target, tol in (
        ("forward", forward_jump(sym_model), 1e-2),
        ("side", side_jump(sym_model), 5e-3),
    ):
        dists = []
        for t in (1e-1, 1e-2, 1e-3):
            one, none = exact_count(0.0, t, 1), zero_photons()
            ev = Event(
                forward=one if channel == "forward" else none,
                side=one if channel == "side" else none,
                horizon=t,
            )
            est = oracle_davies_map(sym_model, ev, n_max=3).matrix / t
            dists.append(frobenius_dist(est, target))
        assert dists[-1] < tol * np.linalg.norm(target), channel
        assert all(a >= b for a, b in zip(dists, dists[1:])), channel


def test_jump_limit_symmetry_between_channels():
    # undriven, swapping channel weights swaps the roles of the two limits
    m_a = build_model(0.6, 0.8, 0.0)
    m_b = build_model(0.8, 0.6, 0.0)
    t = 1e-2
    ev_f = Event(forward=exact_count(0.0, t, 1), side=zero_photons(), horizon=t)
    ev_s = Event(forward=zero_photons(), side=exact_count(0.0, t, 1), horizon=t)
    fa = oracle_davies_map(m_a, ev_f, n_max=2).matrix
    sb = oracle_davies_map(m_b, ev_s, n_max=2).matrix
    assert frobenius_dist(fa, sb) < 1e-12
