import sys

import numpy as np
import pytest

import resfluor.guichardet
import resfluor.verify
from resfluor.config import RunConfig
from resfluor.davies import davies_map
from resfluor.events import Event, exact_count, free_channel, zero_photons
from resfluor.guichardet import OracleResult, oracle_davies_map
from resfluor.linalg import frobenius_dist
from resfluor.model import build_model
from resfluor.verify import (
    _jump_limit_tolerance,
    _roundoff_tolerance,
    amplitude_by_region_quadrature,
)

# the default config; configs on which the battery's one-side-photon row
# failed while the oracle was capped at four photons (1.03e-7 and 9.7e-7
# against 1e-7); and z = 2, the largest drive the battery is run at (2.44e-8
# at cap 6)
_CONFIGS = {
    "default": RunConfig(),
    "complex": RunConfig(
        kappa_f=0.3 + 0.5j, kappa_s=-0.4 + 1j * 2.0 ** -0.5, z=0.6 - 0.9j, initial_state="mixed"
    ),
    "z=1.5": RunConfig(z=1.5),
    "z=2": RunConfig(z=2.0),
}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_one_side_photon_cross_passes_at_the_config_cap(name):
    # the oracle at cfg.n_max against the all-orders map: at cap 6 the
    # truncation alone sits below the one-side-photon-cross row's tolerance
    cfg = _CONFIGS[name]
    m, t = cfg.model(), 0.075
    ev = Event(forward=free_channel(), side=exact_count(0.0, t, 1), horizon=t)
    ora = oracle_davies_map(m, ev, n_max=cfg.n_max, quad_order=cfg.quad_order)
    dav = davies_map(m, ev, n_max=cfg.n_max)
    assert cfg.n_max == 6
    assert frobenius_dist(dav.matrix, ora.matrix) <= 1e-7


@pytest.mark.parametrize("cap", [2, 3, 6])
def test_one_side_photon_cross_compares_like_with_like_at_every_cap(cap):
    # the battery's row compares the oracle with the Dyson route at the same
    # cap (measured 7.0e-18, 1.1e-18 and 7.1e-18); against the all-orders map
    # the cap-2 truncation alone (9.2e-5) would fail the row's 1e-7
    m, t = RunConfig().model(), 0.075
    ev = Event(forward=free_channel(), side=exact_count(0.0, t, 1), horizon=t)
    ora = oracle_davies_map(m, ev, n_max=cap, quad_order=24).matrix
    dyson = davies_map(m, ev, n_max=cap, expansion="dyson").matrix
    assert frobenius_dist(dyson, ora) <= 1e-15
    if cap == 2:
        assert frobenius_dist(davies_map(m, ev, n_max=cap).matrix, ora) > 1e-7


@pytest.mark.parametrize("channel", ["forward", "side"])
@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_jump_limit_richardson_pair_passes(name, channel):
    # the battery's jump-limit rows, with the oracle called directly; their
    # first difference Q(t) failed at z = 2 (4.38e-2 against 4.25e-2 for the
    # forward channel)
    cfg = _CONFIGS[name]
    m, t = cfg.model(), 1e-3
    target = m.J_f if channel == "forward" else m.J_s

    def q(x):
        one, none = exact_count(0.0, x, 1), zero_photons()
        ev = Event(one, none, x) if channel == "forward" else Event(none, one, x)
        return oracle_davies_map(m, ev, n_max=cfg.n_max, quad_order=cfg.quad_order).matrix / x

    tol = _jump_limit_tolerance(m, target, t)
    # below the first difference's old tolerance, which Q(t) alone misses
    assert tol < 5e-3 * np.linalg.norm(target)
    assert frobenius_dist(target, q(t)) > tol
    assert frobenius_dist(target, 2.0 * q(t / 2) - q(t)) <= tol


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_truncated_dilation_row_passes_with_tenfold_margin(name):
    # the battery's truncated-dilation row: at cap 3 the free/free oracle map
    # and the Dyson route are the same truncated sum (measured 2.2e-16 to
    # 4.6e-16 against about 1.2e-14); four Gauss-Legendre nodes per axis
    # leave a quadrature error the row sees
    cfg = _CONFIGS[name]
    m, cap = cfg.model(), min(3, cfg.n_max)
    ev = Event(forward=free_channel(), side=free_channel(), horizon=0.3)
    dyson = davies_map(m, ev, n_max=cap, expansion="dyson").matrix
    tol = _roundoff_tolerance(dyson)
    ora = oracle_davies_map(m, ev, n_max=cap, quad_order=cfg.quad_order).matrix
    assert 10.0 * frobenius_dist(dyson, ora) <= tol
    coarse = oracle_davies_map(m, ev, n_max=cap, quad_order=4).matrix
    assert frobenius_dist(dyson, coarse) > tol


def test_battery_gives_the_oracle_the_config_cap(monkeypatch):
    seen = []

    def spy(model, event, n_max, quad_order):
        seen.append((n_max, quad_order))
        return OracleResult(np.zeros((4, 4), dtype=complex), 0.0)

    monkeypatch.setattr(resfluor.verify, "oracle_davies_map", spy)
    resfluor.verify.run_battery(RunConfig(n_max=7, quad_order=12))
    # nine call sites: one in a loop over three horizons, one in a loop over
    # the two jump-limit channels and the Richardson pair's two horizons, and
    # the truncated-dilation row's, capped at three photons
    assert seen == [(7, 12)] * 13 + [(3, 12)]


def test_brute_force_amplitude_reaches_the_kernel(monkeypatch):
    # a wrapper bound, as a tracer binds it, under every name a resfluor
    # module gives guichardet.integral_sum_kernel sees the kernel batches
    real = resfluor.guichardet.integral_sum_kernel
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2].shape)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "resfluor" or name.startswith("resfluor."):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, spy)
    m = build_model(0.6, 0.8, 0.7)
    amp = amplitude_by_region_quadrature(m, 1.0, (0.3,), (), order=8)
    assert calls and all(len(shape) == 2 for shape in calls)
    assert np.abs(amp).max() > 0
