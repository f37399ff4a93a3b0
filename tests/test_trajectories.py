import gc
import hashlib
import weakref

import numpy as np
import pytest

from conftest import random_model
from resfluor.davies import event_probability
from resfluor.events import Event, exact_count, free_channel
from resfluor.linalg import (
    I2,
    devec,
    excited_state,
    frobenius_dist,
    ground_state,
    maximally_mixed,
    vec,
)
from resfluor.model import build_model, no_count_map, no_side_count_map
from resfluor.renewal import theoretical_cdf
from resfluor.trajectories import SeedSpec, sample_batch, sample_trajectory, waiting_time_cap
from resfluor.trajectories import _TAPE, _ModeOps, _UniformTape, _philox_doubles
import resfluor.semigroup as semigroup
import resfluor.trajectories as trajectories
from resfluor.config import RunConfig

SQ2 = 2.0 ** -0.5


def _survival(m, rhos, mode="side-only"):
    # the sampler's survivals x -> Tr(rho_b E_x(I)), one weight row per state
    return _ModeOps(m, mode).survival(np.stack(rhos))


def _wait(m, rho, u):
    # the sampler's side-only waiting time for uniforms u, all from rho
    u = np.atleast_1d(u)
    return _survival(m, [rho]).crossing(u, waiting_time_cap(m), np.zeros(u.size, dtype=int))


def _evolve(m, rho, x, mode="side-only"):
    # the sampler's renormalised click-free state after x
    return _ModeOps(m, mode).evolve(rho[None], np.array([float(x)]))[0]


def test_survival_corners(sym_model, undriven_model):
    assert _survival(sym_model, [excited_state()])(0.0)[0] == pytest.approx(1.0)
    x = 2.0
    ks2 = abs(undriven_model.kappa_s) ** 2
    ground_at_5, excited_at_x = _survival(undriven_model, [ground_state(), excited_state()])(
        np.array([5.0, x]))
    assert ground_at_5 == pytest.approx(1.0)
    assert excited_at_x == pytest.approx((1 - ks2) + ks2 * np.exp(-x), abs=1e-12)


def test_survival_monotone(sym_model):
    xs = np.linspace(0, 6, 40)
    vals = _survival(sym_model, [maximally_mixed()])(xs)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert np.all((-1e-12 <= vals) & (vals <= 1.0 + 1e-12))
    # side-only survival is 1 - F_first, the integral of the X_1 density
    want = 1.0 - theoretical_cdf(sym_model, maximally_mixed(), "first", xs)
    assert np.abs(vals - want).max() < 1e-12


def test_waiting_time_corners(sym_model, undriven_model):
    # u -> 1 gives x -> 0
    assert _wait(sym_model, excited_state(), 1 - 1e-12)[0] < 1e-9
    # pure exponential corner
    m = build_model(0.0, 1.0, 0.0)
    u = 0.37
    assert _wait(m, excited_state(), u)[0] == pytest.approx(-np.log(u), abs=1e-9)
    # undriven ground state never clicks
    assert _wait(undriven_model, ground_state(), 0.5)[0] == np.inf
    # u = 0 is below every survival value: the search returns its cap, where
    # the survival has fallen below 1e-12
    assert _wait(sym_model, excited_state(), 0.0)[0] == waiting_time_cap(sym_model)


def test_waiting_time_inverts_survival(sym_model):
    u = np.array([0.9, 0.5, 0.12])
    x = _wait(sym_model, maximally_mixed(), u)
    assert _survival(sym_model, [maximally_mixed()])(x) == pytest.approx(u, abs=1e-9)
    assert 1.0 - theoretical_cdf(sym_model, maximally_mixed(), "first", x) == pytest.approx(
        u, abs=1e-9)


def test_waiting_time_cap_value(sym_model):
    assert waiting_time_cap(sym_model) == pytest.approx(50.0 * (1 + 2.0))
    # no side channel: the side survival never falls, so the search is uncapped
    assert waiting_time_cap(build_model(1.0, 0.0, 1.0)) == np.inf


def test_apply_side_jump(sym_model):
    # the sampler's side-only jump: ground exactly, and no jump without a rate
    g = ground_state()
    ops = _ModeOps(sym_model, "side-only")
    post = ops.jump(np.stack([excited_state(), maximally_mixed()]), np.array([0, 0]))
    assert np.array_equal(post, np.stack([g, g]))
    with pytest.raises(ArithmeticError, match="no rate"):
        ops.jump(g[None], np.array([0]))


def test_evolve_no_jump(sym_model, undriven_model):
    rho = maximally_mixed()
    assert frobenius_dist(_evolve(sym_model, rho, 0.0), rho) < 1e-15
    with pytest.raises(ValueError):
        _evolve(sym_model, rho, -0.1)
    assert frobenius_dist(_evolve(undriven_model, ground_state(), 3.0), ground_state()) < 1e-14
    m = build_model(0.0, 1.0, 0.0)
    out = _evolve(m, excited_state(), np.log(2))
    assert frobenius_dist(out, excited_state()) < 1e-13


def _random_state(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return 0.5 * (rho + rho.conj().T) / np.trace(rho).real


def test_evolution_is_the_exact_dual_of_the_counting_map(exceptional_model):
    # Tr(rho_x A) S(x) = Tr(rho E_x(A)) for each matrix unit A, where rho_x is
    # the renormalised click-free state, S the survival and E_x the expm-built
    # map of the mode; A = E11 + E22 makes the unnormalised trace the survival.
    # rho_x is read as four real components of the semigroup, so it is
    # Hermitian bit for bit; the exceptional drive takes the expm route
    assert not _ModeOps(exceptional_model, "side-only").sg._diagonalizable
    rng = np.random.default_rng(2026)
    for k in range(4):
        m = random_model(rng) if k < 3 else exceptional_model
        for mode, E in (("side-only", no_side_count_map), ("two-channel", no_count_map)):
            rho = _random_state(rng)
            for x in (0.3, 1.7, 4.0):
                state = _evolve(m, rho, x, mode)
                assert np.array_equal(state, state.conj().T)
                out = state * _survival(m, [rho], mode)(x)[0]
                Ex = E(m, x)
                for A in np.eye(4, dtype=complex):
                    want = np.trace(rho @ devec(Ex @ A))
                    assert abs(np.trace(out @ devec(A)) - want) < 1e-12


def test_route_check_catches_a_corrupted_eigen_form(sym_model, monkeypatch):
    # evolve reads the eigen form, SemigroupCache.at the expm route: healthy
    # caches pass, eigenvalues off by a relative 1e-6 raise, and every
    # batch runs the check before it samples
    rng = np.random.default_rng(5)
    for m in (sym_model, random_model(rng)):
        for mode in ("side-only", "two-channel"):
            ops = _ModeOps(m, mode)
            ops.check_routes()
            ops.sg.lam = ops.sg.lam * (1 + 1e-6)
            with pytest.raises(ArithmeticError, match="expm route"):
                ops.check_routes()

    def spy(self):
        raise ArithmeticError("route check ran")

    monkeypatch.setattr(_ModeOps, "check_routes", spy)
    with pytest.raises(ArithmeticError, match="route check ran"):
        sample_batch(sym_model, ground_state(), 1.0, 1, 0)


def test_unnormalized_trace_equals_survival(sym_model):
    # the renormalised click-free state times the survival is the
    # unnormalised state, whose trace Tr(rho E_x(I)) is the survival
    rho = maximally_mixed()
    for x in (0.2, 1.1, 3.0):
        S = _survival(sym_model, [rho])(x)[0]
        un = _evolve(sym_model, rho, x) * S
        want = np.trace(rho @ devec(no_side_count_map(sym_model, x) @ vec(I2)))
        assert np.trace(un).real == pytest.approx(want.real, abs=1e-12)
        assert np.trace(un).real == pytest.approx(S, abs=1e-12)


def test_side_click_leaves_the_ground_state_exactly(monkeypatch):
    # two-channel sampling jumps every click; side-only sampling sets clicked
    # rows to the ground state and calls no jump, so its jump is checked on
    # random states directly, as is the two-channel one
    seen, modes = [], []
    real_jump = _ModeOps.jump

    def spy(self, rhos, pick):
        post = real_jump(self, rhos, pick)
        seen.append(post[self.channels[pick] == "side"])
        modes.append(len(self.channels))
        return post

    monkeypatch.setattr(_ModeOps, "jump", spy)
    rng = np.random.default_rng(11)
    for _ in range(3):
        m = random_model(rng)
        for mode in ("side-only", "two-channel"):
            sample_batch(m, maximally_mixed(), 10.0, 11, 40, mode=mode)
            seen.append(real_jump(_ModeOps(m, mode), np.stack(
                [_random_state(rng) for _ in range(20)]), np.full(20, -1)))
    posts = np.concatenate(seen)
    assert len(posts) > 200
    assert np.array_equal(posts, np.broadcast_to(ground_state(), posts.shape))
    assert modes and set(modes) == {2}


def test_click_from_a_dead_state_raises(undriven_model):
    ops = _ModeOps(undriven_model, "two-channel")
    for pick in (0, 1):
        with pytest.raises(ArithmeticError):
            ops.jump(ground_state()[None], np.array([pick]))


def test_non_finite_horizon_rejected(sym_model):
    # a zero-trajectory batch returns at once, so a missing check fails here
    for horizon in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError):
            sample_batch(sym_model, ground_state(), horizon, 1, 0)


@pytest.mark.parametrize("n_traj", [-1, 2.5, 2.0, True, "3"])
def test_n_traj_must_be_an_integer_at_least_zero(sym_model, n_traj):
    with pytest.raises(ValueError, match="n_traj"):
        sample_batch(sym_model, ground_state(), 1.0, 1, n_traj)
    assert len(sample_batch(sym_model, ground_state(), 1.0, 1, np.int64(2))) == 2


def test_out_of_range_seed_rejected(sym_model):
    # a zero-trajectory batch draws nothing, so only the seed check can raise
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            sample_batch(sym_model, ground_state(), 1.0, seed, 0)


def test_seeds_above_two_to_the_63_keep_their_own_streams(sym_model):
    # the Philox key is built as uint64, so large seeds are neither rounded
    # through float64 nor overflow
    times = [
        [t for t, _ in sample_trajectory(sym_model, excited_state(), 20.0, SeedSpec(seed)).records]
        for seed in (2**63, 2**63 + 1, 2**64 - 1)
    ]
    assert not np.array_equal(times[0], times[1])
    assert len(times[2]) > 0


def test_trajectory_corners(undriven_model):
    g = ground_state()
    tr = sample_trajectory(undriven_model, g, 20.0, SeedSpec(5, 0))
    assert tr.records == ()
    assert frobenius_dist(tr.terminal_state, g) < 1e-12
    m = build_model(0.0, 1.0, 0.0)
    tr2 = sample_trajectory(m, excited_state(), 2000.0, SeedSpec(5, 1))
    assert len(tr2.records) == 1
    # no side channel: a side-only batch records no clicks from any state
    m0 = build_model(1.0, 0.0, 1.0)
    for rho0 in (g, excited_state()):
        batch = sample_batch(m0, rho0, 20.0, 7, 16)
        assert len(batch) == 16 and all(tr.records == () for tr in batch)


def test_determinism_across_batching(sym_model):
    g = ground_state()
    whole = sample_batch(sym_model, g, 30.0, 999, 64)
    parts = [*sample_batch(sym_model, g, 30.0, 999, 32),
             *sample_batch(sym_model, g, 30.0, 999, 32, first_index=32)]
    assert all(a.records == b.records for a, b in zip(whole, parts))
    again = sample_batch(sym_model, g, 30.0, 999, 64)
    assert all(a.records == b.records for a, b in zip(whole, again))
    single = sample_trajectory(sym_model, g, 30.0, SeedSpec(999, 17))
    assert single.records == whole[17].records


def test_two_channel_between_jump_rates(sym_model):
    trajs = sample_batch(sym_model, ground_state(), 15.0, 31, 400, mode="two-channel")
    nf = sum(sum(1 for _, c in t.records if c == "forward") for t in trajs)
    ns = sum(sum(1 for _, c in t.records if c == "side") for t in trajs)
    # forward counter sees laser photons plus scattered light; side only decay
    assert nf > 3 * ns
    for t in list(trajs)[:5]:
        times = [x for x, _ in t.records]
        assert all(a < b for a, b in zip(times, times[1:]))


def _stepwise_density(m, rho0, tr, horizon):
    # product of the sampler's per-click densities and the final survival
    ks2 = abs(m.kappa_s) ** 2
    times = np.array([t for t, _ in tr.records])
    gaps = np.diff(np.concatenate(([0.0], times)))
    ops = _ModeOps(m, "side-only")
    rho, dens = rho0, 1.0
    for x in gaps:
        rho_x = ops.evolve(rho[None], np.array([x]))[0]
        dens *= ks2 * np.trace(rho_x @ m.P).real * ops.survival(rho[None])(x)[0]
        rho = ops.jump(rho_x[None], np.array([0]))[0]
    last = horizon - (times[-1] if len(times) else 0.0)
    return dens * ops.survival(rho[None])(last)[0]


def _trace_form_density(m, rho0, tr, horizon):
    # Tr(rho0 Z_{x1} J_s Z_{x2} ... J_s Z_{x_last}(I)) with expm-built Z_x
    times = np.array([t for t, _ in tr.records])
    gaps = np.diff(np.concatenate(([0.0], times)))
    last = horizon - (times[-1] if len(times) else 0.0)
    word = no_side_count_map(m, float(last)) @ vec(I2)
    for x in reversed(gaps):
        word = no_side_count_map(m, float(x)) @ (m.J_s @ word)
    return np.trace(rho0 @ devec(word)).real


def test_density_audit_pins_duality(sym_model):
    # the sampler's stepwise density equals the Heisenberg word integrand;
    # a complex model and start state make a wrong conjugation show
    rng = np.random.default_rng(77)
    for m, rho0 in ((sym_model, ground_state()), (random_model(rng), _random_state(rng))):
        trajs = sample_batch(m, rho0, 12.0, 777, 8)
        checked = 0
        for tr in trajs:
            if not (1 <= len(tr.records) <= 5):
                continue
            assert _stepwise_density(m, rho0, tr, 12.0) == pytest.approx(
                _trace_form_density(m, rho0, tr, 12.0), rel=1e-9, abs=1e-12
            )
            checked += 1
        assert checked > 0


def test_click_statistics_match_counting_maps(sym_model):
    # empirical P[N_t = k] against the analytic counting probabilities
    g = ground_state()
    t, n = 1.5, 20000
    trajs = sample_batch(sym_model, g, t, 4242, n)
    counts = np.array([len(tr.records) for tr in trajs])
    for k in range(4):
        ev = Event(forward=free_channel(), side=exact_count(0.0, t, k), horizon=t)
        p = event_probability(sym_model, g, ev)
        phat = float(np.mean(counts == k))
        se = max(np.sqrt(p * (1 - p) / n), 1e-4)
        assert abs(phat - p) < 3 * se


def test_conditioning_consistency_split_resume(sym_model):
    # sampling [0, s) and resuming from the conditional state reproduces the
    # law of the full horizon within Monte Carlo resolution
    g = ground_state()
    s, t, n = 2.0, 2.0, 8000
    first = sample_batch(sym_model, g, s, 100, n)
    resumed = sample_batch(
        sym_model,
        np.array([tr.terminal_state for tr in first]),
        t,
        101,
        n,
    )
    tot = np.array([len(a.records) + len(b.records) for a, b in zip(first, resumed)])
    direct = sample_batch(sym_model, g, s + t, 102, n)
    dd = np.array([len(tr.records) for tr in direct])
    for k in range(4):
        p1 = float(np.mean(tot == k))
        p2 = float(np.mean(dd == k))
        se = np.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n) + 1e-6
        assert abs(p1 - p2) < 3 * se


def test_initial_state_stack_validation(sym_model):
    with pytest.raises(ValueError):
        sample_batch(sym_model, np.zeros((3, 2, 2)), 1.0, 1, 4)
    # valid states, but one per trajectory is required
    with pytest.raises(ValueError, match="initial-state stack"):
        sample_batch(sym_model, np.stack([ground_state()] * 3), 1.0, 1, 4)


def test_sampler_at_exceptional_drive(exceptional_model):
    # no eigenbasis: survival, inversion and sampling run through expm
    m = exceptional_model
    assert not _ModeOps(m, "side-only").sg._diagonalizable
    u = np.array([0.9, 0.5, 0.12])
    x = _wait(m, maximally_mixed(), u)
    assert _survival(m, [maximally_mixed()])(x) == pytest.approx(u, abs=1e-9)
    g = ground_state()
    whole = sample_batch(m, g, 8.0, 5, 12)
    parts = [*sample_batch(m, g, 8.0, 5, 5), *sample_batch(m, g, 8.0, 5, 7, first_index=5)]
    assert [t.records for t in whole] == [t.records for t in parts]
    assert sum(len(t.records) for t in whole) > 0


def _numpy_stream(seed, index):
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_vectorised_philox_equals_numpy_streams_bit_for_bit():
    # seeds and indices up to 2**64 - 1, several refills of every row, and
    # rows drawing at different paces
    indices = np.array([0, 1, 2**32 + 7, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    rng = np.random.default_rng(8)
    for seed in (0, 1, 20250809, 2**63, 2**64 - 1):
        seen = [[] for _ in indices]
        tape = _UniformTape(seed, indices)
        for _ in range(8 * _TAPE):
            rows = np.flatnonzero(rng.random(len(indices)) < 0.7)
            for r, v in zip(rows, tape.draw(rows)):
                seen[r].append(v)
        for got, i in zip(seen, indices):
            assert len(got) > 3 * _TAPE
            assert np.array_equal(got, _numpy_stream(seed, i).random(len(got)))
        blocks = np.array([0, 5, 2**40], dtype=np.int64)
        far = _philox_doubles(seed, indices[:3], blocks)
        for row, i, b in zip(far, indices, blocks):
            if b < 100:
                assert np.array_equal(row, _numpy_stream(seed, i).random(4 * b + _TAPE)[4 * b:])
            else:
                # advance(b) moves numpy's block counter by b
                bitgen = np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
                bitgen.advance(int(b))
                assert np.array_equal(row, np.random.Generator(bitgen).random(_TAPE))


@pytest.mark.parametrize("knob", [None, ("_NEWTON_STEPS", 1), ("_NEWTON_TOL", 1.0)])
def test_every_wait_is_certified(exceptional_model, monkeypatch, knob):
    # each finite wait x has S(x - 5e-11) >= u > S(x + 5e-11) in the computed
    # survival, on random models in both modes, at z* (the expm route) and on
    # stacked random states; a row's wait does not depend on its batch.  The
    # knobs force the bisection fallback: Newton stopped after one step, or
    # stopped early at a point that fails the certificate pair
    if knob:
        monkeypatch.setattr(semigroup, *knob)
    rng = np.random.default_rng(2027)
    cases = [(random_model(rng), mode) for _ in range(4) for mode in ("side-only", "two-channel")]
    cases.append((exceptional_model, "side-only"))
    for m, mode in cases:
        ops = _ModeOps(m, mode)
        states = np.stack([_random_state(rng) for _ in range(40)] + [ground_state(), excited_state()])
        u = rng.random(len(states))
        u[:4] = (1 - 1e-12, 1e-9, 0.5, 2.0**-53)
        cap = waiting_time_cap(m)
        S = ops.survival(states)
        x = S.crossing(u, cap)
        crossed = S(np.full(len(u), cap)) < u
        assert crossed.sum() > 30
        assert np.all(np.isfinite(x[crossed]) & (x[crossed] >= 0) & (x[crossed] <= cap))
        lo = S(np.where(crossed, np.maximum(x - 5e-11, 0.0), 0.0))
        hi = S(np.where(crossed, x + 5e-11, 0.0))
        assert np.all(lo[crossed] >= u[crossed]) and np.all(hi[crossed] < u[crossed])
        for b in (0, 3, 17, len(u) - 1):
            alone = ops.survival(states[b:b + 1]).crossing(u[b:b + 1], cap)
            assert np.array_equal(alone, x[b:b + 1])


def test_sampler_rounds_at_z_star_call_expm_a_bounded_number_of_times(exceptional_model, monkeypatch):
    # at z* each survival value is one expm; certified Newton needs the cap
    # value, a few steps and the certificate pair, where a fixed 41-step
    # bisection needed 43 calls per round.  A round is one crossing call; the
    # batch's route check, start table and terminal states count against it
    calls, rounds = [0], [0]
    real_exp, real_crossing = semigroup.superop_exp, semigroup.Component.crossing

    def count_exp(G, t):
        calls[0] += 1
        return real_exp(G, t)

    def count_rounds(self, *args):
        rounds[0] += 1
        return real_crossing(self, *args)

    monkeypatch.setattr(semigroup, "superop_exp", count_exp)
    monkeypatch.setattr(semigroup.Component, "crossing", count_rounds)
    trajs = sample_batch(exceptional_model, maximally_mixed(), 20.0, 3, 200)
    assert sum(len(t.records) for t in trajs) > 200
    assert rounds[0] >= 4
    assert calls[0] <= 16 * rounds[0]


def test_jump_equals_the_matrix_sandwich():
    # the entrywise C rho C^dag / Tr equals the matrix product to roundoff,
    # for the model's jumps and for general complex C, whose upper-right
    # entry (zero in every model jump) makes each term count
    rng = np.random.default_rng(12)
    for k in range(4):
        m = random_model(rng)
        for mode in ("side-only", "two-channel"):
            ops = _ModeOps(m, mode)
            if k == 3:
                ops.jumps = rng.normal(size=ops.jumps.shape) + 1j * rng.normal(size=ops.jumps.shape)
            rhos = np.stack([_random_state(rng) for _ in range(30)])
            pick = rng.integers(0, len(ops.channels), size=30)
            post = ops.jump(rhos, pick)
            C = ops.jumps[pick]
            un = C @ rhos @ C.conj().transpose(0, 2, 1)
            want = un / np.trace(un, axis1=1, axis2=2).real[:, None, None]
            assert np.abs(post - want).max() < 1e-14
            assert np.array_equal(post, post.conj().transpose(0, 2, 1))


def test_table_started_waits_are_certified_and_batch_independent(exceptional_model):
    # side-only waits on the shared ground row start from its log-survival
    # table; each still has S(x - 5e-11) >= u > S(x + 5e-11), and a wait
    # depends on its own row and uniform only, on a complex model with a
    # stacked rho0 and at z* (the table built from one stacked expm)
    rng = np.random.default_rng(2031)
    for m in (random_model(rng), exceptional_model):
        cap = waiting_time_cap(m)
        S = _ModeOps(m, "side-only").survival(
            np.stack([ground_state()] + [_random_state(rng) for _ in range(6)]))
        S.tabulate(0, cap)
        u = rng.random(300)
        u[:3] = (1 - 2.0**-53, 1e-9, 2.0**-53)
        which = np.where(np.arange(300) % 3 == 0, 1 + np.arange(300) % 6, 0)
        x = S.crossing(u, cap, which)
        crossed = S._values(np.full(300, cap), which)[0] < u
        assert S.last_crossing["waits"] == crossed.sum() > 290
        assert np.all(np.isfinite(x[crossed]) & (x[crossed] >= 0) & (x[crossed] <= cap))
        lo = S._values(np.maximum(x[crossed] - 5e-11, 0.0), which[crossed])[0]
        hi = S._values(x[crossed] + 5e-11, which[crossed])[0]
        assert np.all(lo >= u[crossed]) and np.all(hi < u[crossed])
        for b in (0, 1, 2, 3, 150, 299):
            assert S.crossing(u[b:b + 1], cap, which[b:b + 1])[0] == x[b]
        stack = np.stack([ground_state() if k % 4 == 0 else _random_state(rng) for k in range(24)])
        whole = sample_batch(m, stack, 40.0, 91, 24)
        parts = [*sample_batch(m, stack[:10], 40.0, 91, 10),
                 *sample_batch(m, stack[10:], 40.0, 91, 14, first_index=10)]
        assert [t.records for t in whole] == [t.records for t in parts]
        assert sum(len(t.records) for t in whole) > 24
        for k in (0, 5, 23):
            one = sample_trajectory(m, stack[k], 40.0, SeedSpec(91, k))
            assert one.records == whole[k].records
            assert np.array_equal(one.terminal_state, whole[k].terminal_state)


def test_a_shared_weight_row_gives_the_bits_and_counts_of_the_per_row_gather(
        monkeypatch, exceptional_model):
    # when every wait reads one weight row, its coefficients are broadcast;
    # the waits, the hazards and the last_crossing counts equal those of the
    # gather of one copy per wait, from the table start and cold, on the
    # eigen route and on the expm route at z*
    real_values = semigroup.Component._values
    shared = []

    def per_row(self, xs, rows=slice(None), slope=False):
        if not isinstance(rows, slice) and len(rows) == 1 and xs.size > 1:
            shared.append(True)
            rows = np.full(xs.size, rows[0])
        return real_values(self, xs, rows, slope)

    rng = np.random.default_rng(2028)
    u = rng.random(1000)
    u[:3] = (1 - 2.0**-53, 1e-9, 2.0**-53)
    for m in (RunConfig().model(), exceptional_model):
        cap = waiting_time_cap(m)
        for row, table in ((0, True), (0, False), (1, False)):
            got = []
            for gather in (False, True):
                if gather:
                    monkeypatch.setattr(semigroup.Component, "_values", per_row)
                S = _survival(m, [ground_state(), _random_state(np.random.default_rng(3))])
                if table:
                    S.tabulate(row, cap)
                which = np.full(u.size, row)
                x = S.crossing(u, cap, which)
                clicks = np.isfinite(x) & (x < cap)
                got.append((x, S.hazard(x[clicks], which[clicks]), S.last_crossing))
                monkeypatch.undo()
            assert shared and clicks.sum() > 950
            assert np.array_equal(got[0][0], got[1][0]) and np.array_equal(got[0][1], got[1][1])
            assert got[0][2] == got[1][2] and got[0][2]["waits"] == clicks.sum()
            f, df = real_values(S, x[clicks], which[clicks], slope=True)
            assert np.array_equal(got[0][1], -df / f)
            shared.clear()


@pytest.mark.parametrize("name, digest", [
    ("excited", "666c3953c8888bbd31e75f7501b731c1ce600d681730ac6ef807269b0806d0ec"),
    ("mixed", "8a9fd7de8ad1d3becb013c8de452223133ad84c7429ed1ca7ba979ee689a7de8"),
    ("stacked", "af542c9f58258ac2ac084bd80aa15d1a5b29ceb6c44a42f59f62cd061ce783a2"),
], ids=["excited", "mixed", "stacked"])
def test_side_only_batches_off_the_ground_state_keep_their_bits(name, digest):
    # first waits on rho0's own weight row and later ones on the shared
    # ground row: the click table and the terminal states keep their bytes
    states = (ground_state(), excited_state(), maximally_mixed())
    rho0 = {"excited": excited_state(), "mixed": maximally_mixed(),
            "stacked": np.stack([states[k % 3] for k in range(60)])}[name]
    b = sample_batch(RunConfig().model(), rho0, 50.0, 2028, 60)
    h = hashlib.sha256()
    for a in (b.index, b.jump, b.time, b.terminal):
        h.update(a.tobytes())
    assert h.hexdigest() == digest and len(b.time) > 550


@pytest.mark.parametrize("mode", ["side-only", "two-channel"])
def test_single_trajectory_equals_its_batch_row(sym_model, exceptional_model, mode):
    # records and terminal state bit for bit, from the ground state (every
    # side-only wait on the table) and from a mixed state, at z* too
    for m in (sym_model, exceptional_model):
        for rho0 in (ground_state(), maximally_mixed()):
            batch = sample_batch(m, rho0, 30.0, 404, 40, mode=mode, first_index=7)
            assert sum(len(t.records) for t in batch) > 40
            for k in (0, 13, 39):
                one = sample_trajectory(m, rho0, 30.0, SeedSpec(404, 7 + k), mode=mode)
                assert one.records == batch[k].records
                assert np.array_equal(one.terminal_state, batch[k].terminal_state)


def test_table_start_halves_the_newton_evaluations(monkeypatch):
    # on the default config, the table start at least halves the Newton
    # evaluations per wait from the ground state, in crossing itself and over
    # a side-only batch, and no wait falls back to bisection
    m = RunConfig().model()
    cap = waiting_time_cap(m)
    u = np.random.default_rng(5).random(20000)
    per_wait = []
    for table in (False, True):
        S = _ModeOps(m, "side-only").survival(ground_state()[None])
        if table:
            S.tabulate(0, cap)
        S.crossing(u, cap, np.zeros(u.size, dtype=int))
        counts = S.last_crossing
        assert counts["waits"] == u.size
        assert counts["certificate_failures"] == counts["bisections"] == 0
        per_wait.append(counts["newton_evals"] / counts["waits"])
    assert per_wait[1] <= 0.5 * per_wait[0]

    total = dict.fromkeys(counts, 0)
    real_crossing = semigroup.Component.crossing

    def add_counts(self, *args):
        out = real_crossing(self, *args)
        for key, n in self.last_crossing.items():
            total[key] += n
        return out

    monkeypatch.setattr(semigroup.Component, "crossing", add_counts)
    trajs = sample_batch(m, ground_state(), 50.0, 8, 500)
    assert total["waits"] >= sum(len(t.records) for t in trajs) > 2000
    assert total["certificate_failures"] == total["bisections"] == 0
    assert total["newton_evals"] <= 0.5 * per_wait[0] * total["waits"]


def test_side_only_terminal_state_evolves_from_ground_after_the_last_click():
    # side-only keeps no state per click: a clicked trajectory's terminal
    # state is the click-free evolution of the ground state over horizon -
    # last click, a click-free one's the evolution of rho0 over the horizon
    rng = np.random.default_rng(17)
    m, rho0, horizon = random_model(rng), _random_state(rng), 6.0
    trajs = sample_batch(m, rho0, horizon, 23, 60)
    clicked = [tr for tr in trajs if tr.records]
    assert 0 < len(clicked) < len(trajs)
    for tr in trajs:
        last = tr.records[-1][0] if tr.records else None
        start, x = (rho0, horizon) if last is None else (ground_state(), horizon - last)
        assert np.array_equal(tr.terminal_state, _evolve(m, start, x))


def test_side_click_at_or_below_the_rate_threshold_raises(sym_model, monkeypatch):
    # the side-only sampler checks each click's hazard -S'/S as jump checks
    # its rate; a threshold above every hazard makes the first click raise
    monkeypatch.setattr(trajectories, "_JUMP_RATE_TOL", 1e3)
    with pytest.raises(ArithmeticError, match="no rate"):
        sample_batch(sym_model, ground_state(), 10.0, 1, 20)
    monkeypatch.setattr(trajectories, "_JUMP_RATE_TOL", 1e-14)
    assert sum(len(t.records) for t in sample_batch(sym_model, ground_state(), 10.0, 1, 20)) > 0


def test_a_batch_is_freed_without_the_cycle_collector(sym_model):
    # a batch holds no views and a view holds its batch, so there is no
    # cycle: reference counting alone frees an in-process caller's batches
    gc.disable()
    try:
        batch = sample_batch(sym_model, ground_state(), 10.0, 5, 50)
        ref, views, tr = weakref.ref(batch), list(batch), batch[3]
        a, b = batch.offsets[3:5]
        table = tuple(zip(batch.time[a:b].tolist(), batch.channel[a:b].tolist()))
        del batch
        # a live view keeps its batch and still reads the table
        assert ref() is not None
        assert tr.records == table and len(table) > 0 and tr.row == 3
        del views, tr
        assert ref() is None
    finally:
        gc.enable()


def test_a_batch_indexes_and_iterates_its_trajectories(sym_model):
    batch = sample_batch(sym_model, ground_state(), 10.0, 5, 7, first_index=4)
    assert len(batch) == len(list(batch)) == 7
    assert [tr.row for tr in batch] == list(range(7))
    for k in (7, 100, -1):
        with pytest.raises(IndexError):
            batch[k]
    empty = sample_batch(sym_model, ground_state(), 10.0, 5, 0)
    assert len(empty) == 0 and list(empty) == []
    with pytest.raises(IndexError):
        empty[0]
