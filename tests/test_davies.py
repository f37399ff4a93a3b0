import numpy as np
import pytest

from conftest import random_model
from resfluor.davies import davies_map, dyson_truncation_tail, event_probability
from resfluor.events import (
    OUTSIDE_FREE,
    ChannelEvent,
    Event,
    Window,
    concat_events,
    exact_count,
    free_channel,
    zero_photons,
)
from resfluor.linalg import (
    EXCITED_PROJ,
    I2,
    LOWER,
    ad_map,
    apply_superop,
    choi_matrix,
    excited_state,
    frobenius_dist,
    ground_state,
    superop_exp,
    vec,
)
from resfluor.model import (
    build_model,
    lindblad_generator,
    master_generator,
    master_map,
    no_count_map,
    no_jump_operator,
    no_side_count_map,
)

SQ2 = 2.0 ** -0.5


def _full_event(t):
    return Event(forward=free_channel(), side=free_channel(), horizon=t)


def _zero_event(t):
    return Event(forward=zero_photons(), side=zero_photons(), horizon=t)


@pytest.mark.parametrize("seed", range(10))
def test_zero_count_event_is_contraction_sandwich(seed):
    rng = np.random.default_rng(500 + seed)
    m = random_model(rng)
    t = rng.uniform(1e-3, 2.0)
    res = davies_map(m, _zero_event(t))
    assert frobenius_dist(res.matrix, ad_map(no_jump_operator(m, t))) < 1e-10
    assert res.quad_error == 0.0


def test_full_event_is_master_map(sym_model):
    for t in (0.2, 0.9):
        res = davies_map(sym_model, _full_event(t))
        assert frobenius_dist(res.matrix, master_map(sym_model, t)) < 1e-12
        assert frobenius_dist(apply_superop(res.matrix, I2), I2) < 1e-13


def test_probability_corners():
    m0 = build_model(SQ2, SQ2, 0.0)
    assert event_probability(m0, ground_state(), _zero_event(2.0)) == pytest.approx(1.0)
    t = 1.4
    assert event_probability(m0, excited_state(), _zero_event(t)) == pytest.approx(
        np.exp(-t), abs=1e-12
    )
    # branching ratio: exactly one side photon ever, no forward photon
    T = 40.0
    ev = Event(forward=zero_photons(), side=exact_count(0.0, T, 1), horizon=T)
    assert event_probability(m0, excited_state(), ev) == pytest.approx(
        abs(m0.kappa_s) ** 2, abs=1e-9
    )


def test_sigma_additivity_on_side_counts(sym_model):
    t = 1.0
    total = np.zeros(4, dtype=complex)
    for n in range(7):
        ev = Event(forward=free_channel(), side=exact_count(0.0, t, n), horizon=t)
        total = total + davies_map(sym_model, ev).matrix @ vec(I2)
    assert np.linalg.norm(total - vec(I2)) < 1e-8


def test_composition_law_one_photon_windows(sym_model):
    early = Event(forward=zero_photons(), side=exact_count(0.1, 0.3, 1), horizon=0.4)
    late = Event(forward=exact_count(0.05, 0.25, 1), side=zero_photons(), horizon=0.35)
    # the earlier window's map sits on the left of the matrix product
    lhs = davies_map(sym_model, early).matrix @ davies_map(sym_model, late).matrix
    combined = concat_events(early, late)
    rhs = davies_map(sym_model, combined).matrix
    assert frobenius_dist(lhs, rhs) < 1e-8


def test_complete_positivity_of_counting_maps(sym_model):
    t = 0.8
    ev1 = Event(forward=free_channel(), side=exact_count(0.1, 0.6, 1), horizon=t)
    candidates = [
        no_count_map(sym_model, t),
        sym_model.J_f,
        sym_model.J_s,
        no_side_count_map(sym_model, t),
        master_map(sym_model, t),
        davies_map(sym_model, ev1).matrix,
    ]
    for S in candidates:
        C = choi_matrix(S)
        assert np.linalg.eigvalsh((C + C.conj().T) / 2).min() >= -1e-10


def test_continuity_at_zero(sym_model):
    L = master_generator(sym_model)
    for A in (I2, EXCITED_PROJ, LOWER, LOWER + LOWER.conj().T):
        rate = np.linalg.norm(apply_superop(L, A))
        for t in (1e-3, 4e-3, 1.6e-2, 6.4e-2):
            dist = frobenius_dist(
                apply_superop(davies_map(sym_model, _full_event(t)).matrix, A), A
            )
            assert dist <= 1.05 * t * rate + 1e-12


def test_dyson_route_matches_exponential(sym_model):
    t, cap = 0.15, 6
    res = davies_map(sym_model, _full_event(t), n_max=cap, expansion="dyson")
    tail = dyson_truncation_tail(sym_model, t, cap)
    dist = frobenius_dist(res.matrix, master_map(sym_model, t))
    assert dist <= tail + res.quad_error + 1e-9
    assert res.quad_error < 1e-6


def test_dyson_and_resum_agree_on_pinned_events(sym_model):
    ev = Event(forward=free_channel(), side=exact_count(0.0, 0.2, 1), horizon=0.2)
    a = davies_map(sym_model, ev, expansion="resum").matrix
    b = davies_map(sym_model, ev, n_max=6, expansion="dyson").matrix
    assert frobenius_dist(a, b) < dyson_truncation_tail(sym_model, 0.2, 5) + 1e-9


def test_rate_constant_of_the_tails_bounds_the_click_rate(sym_model):
    # dyson_truncation_tail and the oracle's tail_bound take K = 2|z|^2 + 1 as
    # the click rate: I - B_t^dag B_t <= tK I, with slack at least -1e-12
    rng = np.random.default_rng(24)
    ts = np.geomspace(1e-4, 3, 12)

    def slack(m, K, t):
        B = no_jump_operator(m, t)
        return np.linalg.eigvalsh(t * K * I2 - (I2 - B.conj().T @ B)).min()

    # undriven, forward-only and random models
    models = [build_model(SQ2, SQ2, 0.0), sym_model]
    models += [build_model(1.0, 0.0, rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 6)))
               for _ in range(3)]
    for m in models + [random_model(rng) for _ in range(30)]:
        assert min(slack(m, 2 * abs(m.z) ** 2 + 1, t) for t in ts) >= -1e-12
    # the constant 2|z|^2|kappa_f|^2 + 1 undershoots the small-t click rate
    # |z|^2 + (1 + sqrt(1 + 4|z|^2|kappa_f|^2)) / 2 of the symmetric atom:
    # slack / t tends to 2 - (3 + sqrt 3) / 2
    K = 2 * abs(sym_model.z) ** 2 * abs(sym_model.kappa_f) ** 2 + 1
    assert slack(sym_model, K, 1e-3) / 1e-3 == pytest.approx(2 - (3 + np.sqrt(3)) / 2, abs=5e-3)


def test_capacity_and_validation_errors(sym_model):
    with pytest.raises(ValueError):
        davies_map(sym_model, Event(
            forward=exact_count(0.0, 1.0, 4),
            side=exact_count(0.0, 1.0, 3),
            horizon=1.0,
        ), n_max=6)
    with pytest.raises(ValueError):
        davies_map(sym_model, _full_event(0.5), expansion="nope")
    with pytest.raises(ValueError):
        ChannelEvent(windows=(Window(0.0, 0.6, 1), Window(0.5, 1.0, 1)))


def test_probability_is_additive_over_disjoint_counts(sym_model):
    t = 0.7
    rho = ground_state()
    ps = [
        event_probability(
            sym_model,
            rho,
            Event(forward=free_channel(), side=exact_count(0.0, t, n), horizon=t),
        )
        for n in range(5)
    ]
    assert all(p >= -1e-10 for p in ps)
    assert sum(ps) == pytest.approx(1.0, abs=1e-8)


def test_multi_window_event_splits_counts(sym_model):
    # one photon somewhere in [0, 1) equals split over [0, 0.4) and [0.4, 1)
    t = 1.0
    whole = davies_map(
        sym_model,
        Event(forward=free_channel(), side=exact_count(0.0, t, 1), horizon=t),
    ).matrix
    a = davies_map(
        sym_model,
        Event(
            forward=free_channel(),
            side=ChannelEvent(windows=(Window(0.0, 0.4, 1), Window(0.4, 1.0, 0))),
            horizon=t,
        ),
    ).matrix
    b = davies_map(
        sym_model,
        Event(
            forward=free_channel(),
            side=ChannelEvent(windows=(Window(0.0, 0.4, 0), Window(0.4, 1.0, 1))),
            horizon=t,
        ),
    ).matrix
    assert frobenius_dist(whole, a + b) < 1e-10


def test_zero_horizon_is_identity(sym_model):
    res = davies_map(sym_model, _zero_event(0.0))
    assert frobenius_dist(res.matrix, np.eye(4)) == 0.0
    # and no jump fits in it: the Dyson tail is exactly zero at every cap
    assert [dyson_truncation_tail(sym_model, 0.0, n) for n in range(4)] == [0.0] * 4


@pytest.mark.parametrize("expansion", ["resum", "dyson"])
def test_map_does_not_depend_on_the_maps_built_before_it(expansion):
    # the model's generators are built once and reused: a map from a model
    # that has served another event equals one from a fresh model, bit for bit
    args = (0.6, 0.8j, 1.0 - 0.5j)
    a = Event(exact_count(0.2, 0.9, 2, OUTSIDE_FREE), free_channel(), 1.0)
    b = Event(free_channel(), ChannelEvent((Window(0.1, 0.4, 1), Window(0.6, 0.8, 1))), 1.2)
    m = build_model(*args)
    davies_map(m, a, expansion=expansion)
    got = davies_map(m, b, expansion=expansion).matrix
    assert got.tobytes() == davies_map(build_model(*args), b, expansion=expansion).matrix.tobytes()


@pytest.mark.parametrize("expansion", ["resum", "dyson"])
def test_one_stacked_exponential_per_event(sym_model, monkeypatch, expansion):
    # the stacked call gives each segment the exponential of its single call,
    # so the map equals one computed segment by segment, bit for bit
    import resfluor.davies as davies

    ev = Event(
        forward=ChannelEvent(windows=(Window(0.1, 0.5, 1),), outside=OUTSIDE_FREE),
        side=ChannelEvent(windows=(Window(0.3, 0.7, 1), Window(0.8, 1.2, 0))),
        horizon=1.5,
    )
    calls = []

    def one_by_one(G, t):
        calls.append(len(t))
        return np.stack([superop_exp(g, s) for g, s in zip(G, t)])

    monkeypatch.setattr(davies, "superop_exp", one_by_one)
    split = davies_map(sym_model, ev, expansion=expansion).matrix
    assert calls == [7]  # cuts at 0, 0.1, 0.3, 0.5, 0.7, 0.8, 1.2 and 1.5
    monkeypatch.undo()
    assert np.array_equal(davies_map(sym_model, ev, expansion=expansion).matrix, split)
