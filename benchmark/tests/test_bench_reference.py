"""The independent reference against closed forms and against itself."""

import numpy as np
import pytest
from scipy.linalg import expm

import reference as ref

SQ2 = 2.0 ** -0.5


def _event(horizon, forward=("free", []), side=("free", [])):
    return {
        "horizon": horizon,
        "forward": {"outside": forward[0], "windows": forward[1]},
        "side": {"outside": side[0], "windows": side[1]},
    }


@pytest.mark.parametrize("kf2", [0.5, 0.2, 0.9])
@pytest.mark.parametrize("t", [0.1, 0.7, 3.0])
def test_undriven_one_side_photon(kf2, t):
    # started excited and undriven, the atom emits exactly one photon, into
    # the side channel with probability |kappa_s|^2, by time t with 1 - e^-t
    kf, ks = np.sqrt(kf2), np.sqrt(1 - kf2) * np.exp(0.3j)
    e = _event(t, side=("zero", [(0.0, t, 1)]))
    p = ref.event_probability(kf, ks, 0.0, ref.EXCITED, e)
    assert p == pytest.approx(abs(ks) ** 2 * (1 - np.exp(-t)), abs=1e-14)


def test_undriven_window_end_projection():
    # one side photon in [0, a) then none in [a, t), and the reverse order
    a, t, ks2 = 0.4, 1.3, 0.5
    first = _event(t, side=("free", [(0.0, a, 1), (a, t, 0)]))
    later = _event(t, side=("free", [(0.0, a, 0), (a, t, 1)]))
    assert ref.event_probability(SQ2, SQ2, 0.0, ref.EXCITED, first) == pytest.approx(
        ks2 * (1 - np.exp(-a)), abs=1e-14)
    assert ref.event_probability(SQ2, SQ2, 0.0, ref.EXCITED, later) == pytest.approx(
        ks2 * (np.exp(-a) - np.exp(-t)), abs=1e-14)
    # an undriven atom cannot emit into both channels
    both = _event(t, forward=("free", [(0.0, t, 1)]), side=("free", [(0.0, t, 1)]))
    assert ref.event_probability(SQ2, SQ2, 0.0, ref.EXCITED, both) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("kf2,z", [(0.5, 1.0), (0.3, 0.7 * np.exp(1.1j)), (0.8, 2.0)])
def test_stationary_excited_population(kf2, z):
    kf, ks = np.sqrt(kf2), np.sqrt(1 - kf2)
    rho = ref.evolve_states(kf, ks, z, ref.GROUND, [400.0])[0]
    x = abs(z) ** 2 * kf2
    assert rho[0, 0].real == pytest.approx(4 * x / (1 + 8 * x), abs=1e-12)
    if kf2 == 0.5 and z == 1.0:
        assert rho[0, 0].real == pytest.approx(0.4, abs=1e-12)


def test_exact_counts_sum_to_one():
    t = 1.5
    total = sum(
        ref.event_probability(SQ2, SQ2, 1.0, ref.GROUND, _event(t, side=("zero", [(0.0, t, n)])))
        for n in range(12)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_master_map_duality_and_identity():
    rng = np.random.default_rng(0)
    S = expm(0.8 * ref.generators(SQ2, SQ2, 1.0 + 0.5j).master)
    M = ref.heisenberg_superop(S)
    for _ in range(3):
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = X @ X.conj().T
        rho /= np.trace(rho)
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        MA = (M @ A.flatten(order="F")).reshape(2, 2, order="F")
        lhs = np.trace(rho @ MA)
        rhs = np.trace(ref.unvec_r(S @ ref.vec_r(rho)) @ A)
        assert lhs == pytest.approx(rhs, abs=1e-14)
    assert np.allclose(ref.master_superop(SQ2, SQ2, 1.0, 0.0), np.eye(4), atol=0, rtol=0)


def test_expected_counts_undriven():
    n_f, n_s = ref.expected_counts(np.sqrt(0.3), np.sqrt(0.7), 0.0, ref.EXCITED, 40.0)
    assert n_f == pytest.approx(0.3, abs=1e-12)
    assert n_s == pytest.approx(0.7, abs=1e-12)


def test_expected_counts_stationary_rate():
    # once stationary, side clicks arrive at |kappa_s|^2 * 0.4 per unit time
    a = ref.expected_counts(SQ2, SQ2, 1.0, ref.GROUND, 60.0)[1]
    b = ref.expected_counts(SQ2, SQ2, 1.0, ref.GROUND, 70.0)[1]
    assert (b - a) / 10.0 == pytest.approx(0.5 * 0.4, abs=1e-10)


def test_side_cdf_later_is_first_click_law_from_ground():
    xs = np.array([0.0, 0.5, 2.0, 6.0])
    F = ref.side_cdf_later(SQ2, SQ2, 1.0, xs)
    for x, f in zip(xs[1:], F[1:]):
        none = _event(x, side=("zero", [(0.0, x, 0)]))
        assert f == pytest.approx(1 - ref.event_probability(SQ2, SQ2, 1.0, ref.GROUND, none), abs=1e-13)
    assert F[0] == 0.0
    assert ref.side_cdf_later(SQ2, SQ2, 1.0, [200.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(ref.side_cdf_later(SQ2, SQ2, 0.0, xs))) <= 1e-15
