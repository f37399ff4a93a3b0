import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from resfluor.linalg import excited_state, ground_state
from resfluor.model import build_model, no_side_count_generator
from resfluor.renewal import (
    MIN_KS_SAMPLES,
    _chi2_sf_99,
    factorized_probability,
    first_click_hazard,
    renewal_test,
    theoretical_cdf,
    waiting_densities,
)
from resfluor.trajectories import sample_batch

SQ2 = 2.0 ** -0.5


def test_density_endpoints(sym_model):
    g = ground_state()
    grid = np.array([0.0, 1e-5, 0.5, 2.0])
    dens = waiting_densities(sym_model, g, grid)
    assert dens.z[0] == 0.0
    assert dens.z_first[0] == 0.0  # ground start carries no excited weight
    assert np.all(dens.z >= 0)
    assert np.all((0.0 <= dens.z_last) & (dens.z_last <= 1.0))
    # zero slope at zero: antibunching to second order
    h = 1e-5
    d2 = waiting_densities(sym_model, g, np.array([h, 2 * h]))
    slope = d2.z[0] / h
    assert abs(slope) < 1e-4  # z ~ x^2/4, so z(h)/h ~ h/4
    # z(x) = c x^2 + d x^3 + ..., so the linear term cancels in z(2h) - 2 z(h)
    # and (z(2h) - 2 z(h)) / h^2 = z''(0) + 6 d h.  Starting in the ground state,
    # the drive commutator gives c = |z|^2 |kappa_f|^2 |kappa_s|^2.  Error bound:
    # |6 d h| ~ 0.75 h plus roundoff ~ eps / h^2, about 1e-5 at h = 1e-5.
    m = sym_model
    curvature = (d2.z[1] - 2 * d2.z[0]) / h**2
    expected = 2 * abs(m.z) ** 2 * abs(m.kappa_f) ** 2 * abs(m.kappa_s) ** 2
    assert abs(curvature - expected) < 1e-4


def test_densities_undriven_excited():
    m0 = build_model(SQ2, SQ2, 0.0)
    grid = np.linspace(0.0, 3.0, 7)
    dens = waiting_densities(m0, excited_state(), grid)
    assert np.allclose(dens.z_first, np.exp(-grid), atol=1e-12)
    # actual first-click density carries the side weight
    assert np.allclose(
        first_click_hazard(m0, excited_state(), grid),
        abs(m0.kappa_s) ** 2 * np.exp(-grid),
        atol=1e-12,
    )


def test_hazard_ratio_is_side_weight(sym_model):
    g = ground_state()
    grid = np.linspace(0.1, 4.0, 9)
    dens = waiting_densities(sym_model, g, grid)
    hz = first_click_hazard(sym_model, g, grid)
    assert np.allclose(hz, abs(sym_model.kappa_s) ** 2 * dens.z_first, atol=1e-12)


def test_factorized_probability_corners(sym_model):
    g = ground_state()
    # no clicks: plain survival, 1 - F_first
    val = factorized_probability(sym_model, g, [1.2])
    assert val == pytest.approx(1.0 - theoretical_cdf(sym_model, g, "first", 1.2), abs=1e-12)
    # one click then an immediate horizon end
    dens = waiting_densities(sym_model, g, np.array([0.7]))
    expected = dens.z_first[0] * abs(sym_model.kappa_s) ** 2
    assert factorized_probability(sym_model, g, [0.7, 0.0]) == pytest.approx(
        expected, abs=1e-12
    )
    # two clicks back to back: antibunching kills the density
    assert factorized_probability(sym_model, g, [0.7, 0.0, 0.5]) == 0.0
    # nearly back to back: roundoff must not turn the density negative
    assert factorized_probability(sym_model, g, [1e-9, 0.5]) >= 0.0
    assert factorized_probability(sym_model, g, [0.7, 1e-9, 0.5]) >= 0.0
    with pytest.raises(ValueError):
        factorized_probability(sym_model, g, [0.3, -0.1])
    with pytest.raises(ValueError):
        factorized_probability(sym_model, g, [])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_factorized_probability_random_arguments(sym_model, k):
    rng = np.random.default_rng(600 + k)
    xs = rng.uniform(0.05, 1.5, size=k + 1)
    # the function asserts factorized and word forms agree internally
    val = factorized_probability(sym_model, ground_state(), xs)
    assert val >= 0.0


def test_factorized_probability_catches_corrupted_eigenvalues(sym_model, monkeypatch):
    # the densities come from the eigen form, the word check from expm: an
    # eigenvalue error of 1e-6 must surface instead of cancelling out
    import resfluor.renewal
    from resfluor.semigroup import SemigroupCache

    sg = SemigroupCache(no_side_count_generator(sym_model))
    assert sg._diagonalizable
    sg.lam = sg.lam * (1 + 1e-6)
    monkeypatch.setattr(resfluor.renewal, "_z_semigroup", lambda m: sg)
    with pytest.raises(ArithmeticError):
        factorized_probability(sym_model, ground_state(), [0.7, 1.3, 0.5])


def test_theoretical_cdf_properties(sym_model):
    g = ground_state()
    assert theoretical_cdf(sym_model, g, "later", 0.0) == 0.0
    grid = np.linspace(0.0, 40.0, 30)
    F = theoretical_cdf(sym_model, g, "later", grid)
    assert np.all(np.diff(F) >= -1e-12)
    # F tends to 1 with tail ~ C exp(-gap x), C ~ 1.1; 1 - F(40) = 1.3e-4 is
    # genuine, so check the limit where the tail bound is ~1e-13.
    gap = -float(np.max(np.linalg.eigvals(no_side_count_generator(sym_model)).real))
    assert theoretical_cdf(sym_model, g, "later", 30.0 / gap) == pytest.approx(
        1.0, abs=1e-9
    )
    with pytest.raises(ValueError):
        theoretical_cdf(sym_model, g, "nope", 1.0)


def test_theoretical_cdf_never_exceeds_one(sym_model):
    # far in the tail the eigen antiderivative rounds to 1 + O(1e-15); a CDF
    # fed to the KS test and the decile binning must stay inside [0, 1]
    for rho in (ground_state(), excited_state()):
        for which in ("later", "first"):
            F = theoretical_cdf(sym_model, rho, which, np.array([0.0, 1e3, 1e6]))
            assert np.all((0.0 <= F) & (F <= 1.0))
            assert theoretical_cdf(sym_model, rho, which, 1e6) <= 1.0


def test_theoretical_cdf_against_adaptive_quadrature(sym_model):
    g = ground_state()

    def z_density(x):
        return float(waiting_densities(sym_model, g, np.array([x])).z[0])

    for x in (0.4, 1.3, 3.7):
        ref = quad(z_density, 0.0, x, epsabs=1e-12, epsrel=1e-12)[0]
        assert theoretical_cdf(sym_model, g, "later", x) == pytest.approx(ref, abs=1e-9)


def test_theoretical_cdf_median_self_consistency(sym_model):
    g = ground_state()
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if theoretical_cdf(sym_model, g, "later", mid) < 0.5:
            lo = mid
        else:
            hi = mid
    assert theoretical_cdf(sym_model, g, "later", 0.5 * (lo + hi)) == pytest.approx(
        0.5, abs=1e-9
    )


def test_theoretical_cdf_undriven_first():
    m0 = build_model(SQ2, SQ2, 0.0)
    x = 1.1
    assert theoretical_cdf(m0, excited_state(), "first", x) == pytest.approx(
        abs(m0.kappa_s) ** 2 * (1 - np.exp(-x)), abs=1e-12
    )


def test_tail_decays_at_spectral_gap(sym_model):
    g = ground_state()
    gap = -float(np.max(np.linalg.eigvals(no_side_count_generator(sym_model)).real))
    xs = np.arange(6.0, 30.0, 4.0)
    tails = 1.0 - theoretical_cdf(sym_model, g, "later", xs)
    C = tails[0] / np.exp(-gap * xs[0])
    assert np.all(tails <= 1.5 * C * np.exp(-gap * xs))


def _synthetic_clicks(m, rho, n_traj, horizon, seed):
    """Inverse-transform draws straight from the theoretical CDFs."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, horizon, 4001)
    F = theoretical_cdf(m, rho, "later", grid)
    Ff = theoretical_cdf(m, rho, "first", grid)
    out = []
    for _ in range(n_traj):
        t_click, clicks = 0.0, []
        first = True
        while True:
            u = rng.random()
            Fx = Ff if first else F
            if u >= Fx[-1]:
                break
            x = float(np.interp(u, Fx, grid))
            t_click += x
            if t_click >= horizon:
                break
            clicks.append(t_click)
            first = False
        out.append(np.array(clicks))
    return out


def test_renewal_battery_null_calibration(sym_model):
    g = ground_state()
    clicks = _synthetic_clicks(sym_model, g, 4000, 60.0, seed=2024)
    rep = renewal_test(clicks, sym_model, g, 60.0)
    assert not rep.underpowered
    assert rep.passed["ks_first"] and rep.passed["ks_later"] and rep.passed["ks_third"]
    assert rep.passed["independence"]
    # N_t tails decrease toward zero
    for n in (0, 1, 2):
        vals = list(rep.counts_tail[n].values())
        assert vals[0] >= vals[-1]


def test_renewal_battery_on_sampler_output(sym_model):
    g = ground_state()
    trajs = sample_batch(sym_model, g, 60.0, 555, 4000)
    rep = renewal_test([[t for t, _ in tr.records] for tr in trajs], sym_model, g, 60.0)
    assert not rep.underpowered
    assert all(rep.passed.values())


def test_renewal_battery_negative_control(sym_model):
    g = ground_state()
    clicks = _synthetic_clicks(sym_model, g, 4000, 60.0, seed=7)
    corrupted = []
    for c in clicks:
        if len(c) >= 3:
            x2 = c[1] - c[0]
            c = c.copy()
            c[2] = c[1] + x2  # force X3 := X2
        corrupted.append(c)
    rep = renewal_test(corrupted, sym_model, g, 60.0)
    assert not rep.passed["independence"]


def test_renewal_battery_underpowered(sym_model):
    g = ground_state()
    trajs = sample_batch(sym_model, g, 60.0, 3, 50)
    rep = renewal_test([[t for t, _ in tr.records] for tr in trajs], sym_model, g, 60.0)
    assert rep.underpowered
    assert rep.passed == {}
    assert rep.n_later < MIN_KS_SAMPLES


def test_cdf_and_densities_at_exceptional_drive(exceptional_model):
    # Z_x has no eigenbasis here; the CDFs must still integrate the densities
    m = exceptional_model
    rho = np.diag([0.3, 0.7]).astype(complex)
    xs = np.array([0.5, 2.0, 7.0])
    densities = {
        "later": lambda s: waiting_densities(m, rho, np.array([s])).z[0],
        "first": lambda s: first_click_hazard(m, rho, s)[0],
    }
    for which, density in densities.items():
        F = theoretical_cdf(m, rho, which, xs)
        for x, Fx in zip(xs, F):
            ref = quad(density, 0.0, x, epsabs=1e-13, epsrel=1e-12)[0]
            assert Fx == pytest.approx(ref, rel=1e-10, abs=1e-13), which
    hz = first_click_hazard(m, rho, xs)
    assert np.allclose(hz, abs(m.kappa_s) ** 2 * waiting_densities(m, rho, xs).z_first,
                       atol=1e-13)
    assert factorized_probability(m, rho, [0.7, 1.2, 0.4]) > 0.0


@pytest.mark.parametrize(
    "n_traj, ties, ragged",
    [(1, False, None), (1, True, None), (7, True, None), (1200, False, None), (1200, True, None),
     (2000, False, "list"), (2000, True, "array")],
    ids=["1-False", "1-True", "7-True", "1200-False", "1200-True", "2000-False-list",
         "2000-True-array"],
)
def test_battery_statistics_equal_scipy_stats_bit_for_bit(sym_model, n_traj, ties, ragged):
    # the battery computes without scipy.stats; its KS distances and threshold
    # must still be scipy.stats' to the last bit, and its chi-square p-value
    # agree within the closed form's stated bound, with the same verdict.
    # Ragged input holds 0-6 clicks per trajectory, as Python lists or arrays.
    g = ground_state()
    rng = np.random.default_rng([n_traj, ties])
    gaps = rng.exponential(5.0, size=(n_traj, 6 if ragged else 3))
    if ties:
        gaps = np.round(gaps, 1) + 0.1
    clicks = list(np.cumsum(gaps, axis=1))
    if ragged:
        clicks = [c[:k] for c, k in zip(clicks, rng.integers(0, 7, size=n_traj))]
        if ragged == "list":
            clicks = [c.tolist() for c in clicks]
    rep = renewal_test(clicks, sym_model, g, gaps.sum(axis=1).max() + 1.0)
    inter = [np.diff(c, prepend=0.0) for c in clicks]
    x1, x2, x3 = (np.array([xs[k] for xs in inter if len(xs) > k]) for k in range(3))
    cdf_first = lambda v: theoretical_cdf(sym_model, g, "first", v)
    cdf_later = lambda v: theoretical_cdf(sym_model, g, "later", v)
    assert (rep.n_traj, rep.n_first, rep.n_later) == (n_traj, len(x1), len(x2))
    assert rep.ks_stat_first == stats.kstest(x1, cdf_first).statistic
    assert rep.ks_stat_later == stats.kstest(x2, cdf_later).statistic
    assert rep.ks_stat_third == stats.kstest(x3, cdf_later).statistic
    assert rep.ks_threshold_99 == stats.kstwobign.isf(0.01)
    if len(x3) >= MIN_KS_SAMPLES:
        # the (X_2, X_3) pairs of the trajectories with a third click
        pairs = np.array([xs[1:3] for xs in inter if len(xs) >= 3])
        bins = np.linspace(0.0, 1.0, 11)
        hist = np.histogram2d(cdf_later(pairs[:, 0]), cdf_later(pairs[:, 1]), [bins, bins])[0]
        expected = len(pairs) / 100.0
        assert rep.independence_stat == float(((hist - expected) ** 2 / expected).sum())
        ref = stats.chi2.sf(rep.independence_stat, df=99)
        assert rep.independence_pvalue == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert rep.passed["independence"] == (ref > 0.01)


def test_chdtrc_is_the_chi_square_survival_function():
    # the closed form's relative error is at most 4u (y + 49 |ln y| + 143),
    # y = x / 2, which stays below 1e-12 on [1e-8, 1400]
    rng = np.random.default_rng(99)
    x = np.concatenate([[1e-300, 1e-10, 99.0, 1400.0], rng.uniform(0, 1400, 5000),
                        rng.chisquare(99, 5000), np.geomspace(1e-12, 1400, 1000)])
    got = np.array([_chi2_sf_99(v) for v in x])
    ref = stats.chi2.sf(x, df=99)
    bound = 4 * 2.0**-53 * (x / 2 + 49 * np.abs(np.log(x / 2)) + 143)
    assert (np.abs(got - ref) <= bound * ref).all()
    assert (bound[x >= 1e-8] < 1e-12).all()
    assert _chi2_sf_99(0.0) == _chi2_sf_99(-3.0) == 1.0


def test_battery_reports_nan_for_empty_samples(sym_model):
    # one trajectory without a click and one with a single click: X_1 has one
    # value, X_2 and X_3 none
    rep = renewal_test([np.array([]), np.array([1.0])], sym_model, ground_state(), 2.0)
    assert (rep.n_traj, rep.n_first, rep.n_later) == (2, 1, 0)
    assert 0.0 <= rep.ks_stat_first <= 1.0
    assert np.isnan([rep.ks_stat_later, rep.ks_stat_third, rep.independence_stat]).all()
    assert rep.underpowered and rep.passed == {}
