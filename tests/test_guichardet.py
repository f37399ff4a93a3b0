import itertools
from collections import Counter

import numpy as np
import pytest
from conftest import random_model

import resfluor.guichardet
from resfluor.davies import davies_map
from resfluor.events import (
    OUTSIDE_FREE,
    OUTSIDE_ZERO,
    ChannelEvent,
    Event,
    Window,
    concat_events,
    exact_count,
    free_channel,
    zero_photons,
)
from resfluor.guichardet import (
    _ad_sum,
    _amplitude_batch,
    _sector_order,
    _sectors,
    driven_amplitude,
    integral_sum_kernel,
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
    lindblad_generator,
    no_count_map,
    no_jump_operator,
)
from resfluor.quadrature import simplex_nodes
from resfluor.verify import _roundoff_tolerance, amplitude_by_region_quadrature

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


def test_kernel_empty_and_single(sym_model):
    t, s = 1.0, 0.3
    out = integral_sum_kernel(sym_model, t, np.zeros((1, 0)), [])
    assert out.shape == (1, 2, 2)
    assert frobenius_dist(out[0], np.diag([np.exp(-t / 2), 1.0])) == 0.0
    out1 = integral_sum_kernel(sym_model, t, [[s]], ["sigma_f"])[0]
    assert frobenius_dist(out1, sym_model.kappa_f * np.exp(-s / 2) * E21) < 1e-16


def test_kernel_indicator_vanishes_outside(sym_model):
    out = integral_sum_kernel(sym_model, 1.0, [[1.5]], ["tau_s"])
    assert np.all(out == 0)
    out2 = integral_sum_kernel(sym_model, 1.0, [[-0.1]], ["sigma_f"])
    assert np.all(out2 == 0)
    # the amplitude keeps the indicator: one emission outside [0, t] zeroes it
    for omega_f, omega_s in (([1.5], []), ([], [-0.1]), ([0.3], [1.2]), ([0.2, 0.4], [1.0 + 1e-12])):
        amp = driven_amplitude(sym_model, 1.0, omega_f, omega_s)
        assert amp.shape == (2, 2) and np.all(amp == 0), (omega_f, omega_s)


def test_kernel_adjacent_emissions_annihilate(sym_model):
    # two emission letters with only an exponential between them vanish
    out = integral_sum_kernel(sym_model, 1.0, [[0.2, 0.5]], ["sigma_f", "sigma_f"])
    assert np.all(out == 0)
    # likewise two absorptions
    out2 = integral_sum_kernel(sym_model, 1.0, [[0.2, 0.5]], ["tau_f", "tau_f"])
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
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
    # a random model, and two whose side or forward letters are zero matrices
    models = [
        random_model(rng),
        build_model(phases[0], 0.0, phases[2]),
        build_model(0.0, phases[1], 0.8 * phases[2]),
    ]
    t = rng.uniform(0.5, 3.0)
    n = seed % 5
    # emissions and absorptions alternate, each on a random channel or all
    # on one; the last word repeats a kind, and adjacent equal kinds annihilate
    first = rng.integers(0, 2)
    alternating = [(first + k) % 2 for k in range(n)]
    repeating = rng.integers(0, 2, size=n + 2)
    repeating[1] = repeating[0]
    words = [
        [("sigma_", "tau_")[k] + "fs"[rng.integers(0, 2)] for k in kinds]
        for kinds in (alternating, repeating)
    ]
    for m in models:
        dead = {"f": m.kappa_f == 0, "s": m.kappa_s == 0}
        live = "s" if dead["f"] else "f"
        for letters in (words[0], [name[:-1] + live for name in words[0]], words[1]):
            zero = any(dead[name[-1]] for name in letters) or any(
                a[:-1] == b[:-1] for a, b in zip(letters, letters[1:])
            )
            times = np.sort(rng.uniform(0.0, t, size=(40, len(letters))), axis=1)
            if letters:
                times[-1, -1] = t + 0.5  # outside [0, t]: the indicator zeroes the row
            batch = integral_sum_kernel(m, t, times, letters)
            assert batch.shape == (40, 2, 2)
            for row, k_row in zip(times, batch):
                if row.size and row[-1] > t:
                    assert np.all(k_row == 0)
                    continue
                assert np.all(k_row == 0) == zero, letters
                assert frobenius_dist(k_row, kernel_by_products(m, t, row, letters)) <= 1e-14


def test_guichardet_point_validation(sym_model):
    # a kernel row is one Guichardet point: finite and strictly increasing,
    # so a repeated time, or a time in two sets, fails
    for times in ([[0.5, 0.2]], [[0.3, 0.3]], [[0.2, np.nan]], [[0.1, 0.1]]):
        with pytest.raises(ValueError):
            integral_sum_kernel(sym_model, 1.0, times, ["sigma_f", "tau_f"])
    with pytest.raises(ValueError):
        integral_sum_kernel(sym_model, 1.0, [[0.3, 0.3]], ["sigma_f", "sigma_f"])


def test_kernel_batch_validation(sym_model):
    # a batch is a 2-d array of rows, one column per letter
    with pytest.raises(ValueError):
        integral_sum_kernel(sym_model, 1.0, [0.2, 0.5], ["sigma_f", "tau_f"])
    with pytest.raises(ValueError):
        integral_sum_kernel(sym_model, 1.0, [[0.2]], ["sigma_f", "tau_f"])
    with pytest.raises(ValueError):
        integral_sum_kernel(sym_model, 1.0, [[0.2]], ["omega"])
    # the amplitude checks its merged emission times the same way, before
    # its indicator
    bad = (((0.3, 0.3), ()), ((0.3,), (0.3,)), ((2.0,), (2.0,)), ((np.inf,), ()), ((), (np.nan,)))
    for omega_f, omega_s in bad:
        with pytest.raises(ValueError, match="times must be"):
            driven_amplitude(sym_model, 1.0, omega_f, omega_s)


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
        # (20, 0) and (24, 4) hold 2^20 and 2^24 kept-emission subsets
        for n_f, n_s in ((0, 0), (1, 0), (0, 1), (3, 2), (6, 0), (0, 6), (6, 6), (20, 0), (24, 4)):
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
    assert dict(res.diagnostics) == {"sectors": 1, "zero_sectors": 0, "nodes": 12, "node_sets": 1}
    again = oracle_davies_map(sym_model, ev, n_max=1, quad_order=12)
    assert again.diagnostics == res.diagnostics
    assert np.array_equal(again.matrix, res.matrix)
    # free forward channel, cap 2: sectors "s", "fs" and "sf", with 12 and
    # 12^2 nodes; "fs" and "sf" share one 2-D rule
    ev2 = Event(forward=free_channel(), side=exact_count(0.0, t, 1), horizon=t)
    res2 = oracle_davies_map(sym_model, ev2, n_max=2, quad_order=12)
    assert dict(res2.diagnostics) == {
        "sectors": 3, "zero_sectors": 0, "nodes": 12 + 2 * 144, "node_sets": 2
    }
    # undriven free/free at cap 6: of the 127 sectors only "", "f" and "s"
    # are integrated, the two one-photon sectors on one shared rule
    m0 = build_model(SQ2, SQ2, 0.0)
    ev3 = Event(forward=free_channel(), side=free_channel(), horizon=t)
    res3 = oracle_davies_map(m0, ev3, n_max=6, quad_order=12)
    assert dict(res3.diagnostics) == {
        "sectors": 3, "zero_sectors": 124, "nodes": 1 + 2 * 12, "node_sets": 1
    }
    # and no coherent photon is missed at z = 0
    assert res3.truncation_error == 0.0
    # zero horizon: no segment, so the one sector is the empty word on a
    # one-node grid, the map is the identity and both tails vanish
    res4 = oracle_davies_map(sym_model, Event(free_channel(), free_channel(), 0.0), n_max=3)
    assert np.array_equal(res4.matrix, np.eye(4))
    assert (res4.truncation_error, res4.tail_bound) == (0.0, 0.0)
    assert dict(res4.diagnostics) == {"sectors": 1, "zero_sectors": 0, "nodes": 1, "node_sets": 0}


def _sector_parts(m, e, n_max, quad_order):
    """Every sector's words and integral, each on its own grid, none skipped.

    The reference for the oracle's shared grids: every sector builds its own
    simplex rules, tensors them in C order and cuts the grid into chunks of
    the oracle's ``_CHUNK`` nodes, each with fresh gap factors.
    """
    t = float(e.horizon)
    segments = e.segments()
    chunk = resfluor.guichardet._CHUNK
    for words in _sectors(e, segments, n_max):
        labels = tuple(lab for word in words for lab in word)
        order = _sector_order(quad_order, len(labels))
        rules = []
        for (a, b, _), word in zip(segments, words):
            if word:
                x, _, w = simplex_nodes(len(word), b - a, order)
                rules.append((x + a, w))
        idx = list(itertools.product(*(range(len(w)) for _, w in rules)))
        idx = np.array(idx, dtype=int).reshape(len(idx), len(rules)).T
        times = np.zeros((idx.shape[1], 0))
        weights = np.ones(idx.shape[1])
        for (x, w), i in zip(rules, idx):
            times = np.concatenate([times, x[i]], axis=1)
            weights = weights * w[i]
        part = np.zeros((4, 4), dtype=complex)
        for lo in range(0, len(weights), chunk):
            amp = _amplitude_batch(m, t, times[lo:lo + chunk], labels, {})
            part += _ad_sum(weights[lo:lo + chunk], amp)
        yield words, part


def _summed(m, e, parts):
    """The oracle's map from sector integrals, summed in the oracle's order.

    That order is by group, the sectors with equal photons per segment, in
    the order the walk first meets each group, and by the walk inside one.
    """
    groups = {}
    for words, part in parts:
        groups.setdefault(tuple(map(len, words)), []).append(part)
    total = np.zeros((4, 4), dtype=complex)
    for part in itertools.chain.from_iterable(groups.values()):
        total += part
    return total * np.exp(-float(e.horizon) * abs(m.z) ** 2)


# free/free (one segment), a window (three segments) and windows on both
# channels (six segments), with the caps each is checked at
_SKIP_CASES = (
    (Event(free_channel(), free_channel(), 0.4), range(2, 7)),
    (Event(exact_count(0.1, 0.3, 1, OUTSIDE_FREE), free_channel(), 0.4), range(2, 5)),
    (Event(exact_count(0.05, 0.2, 1, OUTSIDE_FREE),
           ChannelEvent((Window(0.1, 0.25, 1), Window(0.3, 0.4, 0)), OUTSIDE_FREE), 0.4),
     range(2, 4)),
)


def test_oracle_skipped_sectors_are_exact_zeros():
    # at z = 0 every sector with two or more photons integrates to exactly
    # zero, so skipping them leaves the map's bits as they are; a small
    # nonzero drive skips nothing
    rng = np.random.default_rng(31)
    for z in (0.0, 0.0, 1e-4):
        m = random_model(rng)
        m = build_model(m.kappa_f, m.kappa_s, z * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        for e, caps in _SKIP_CASES:
            for n_max in caps if z == 0 else caps[:2]:
                res = oracle_davies_map(m, e, n_max=n_max, quad_order=3)
                parts = list(_sector_parts(m, e, n_max, 3))
                many = [part for words, part in parts if sum(map(len, words)) >= 2]
                assert res.diagnostics["zero_sectors"] == (len(many) if z == 0 else 0)
                assert res.diagnostics["sectors"] + res.diagnostics["zero_sectors"] == len(parts)
                if z == 0:
                    assert not any(part.any() for part in many)
                unskipped = _summed(m, e, parts)
                assert res.matrix.tobytes() == unskipped.tobytes(), (z, e, n_max)


def test_oracle_builds_one_rule_per_segment_ndim_and_order(monkeypatch):
    # every sector reads the rule of its (segment, ndim, order) from one
    # store per call, and the map has the bits of a fresh rule per sector
    calls = []
    real = resfluor.guichardet.simplex_nodes

    def spy(ndim, length, order):
        calls.append((ndim, length, order))
        return real(ndim, length, order)

    monkeypatch.setattr(resfluor.guichardet, "simplex_nodes", spy)
    rng = np.random.default_rng(32)
    for e, caps in _SKIP_CASES:
        segments = e.segments()
        for n_max in caps[:2]:
            m = random_model(rng)
            expected = {
                (k, len(word), _sector_order(6, sum(map(len, words))))
                for words in _sectors(e, segments, n_max)
                for k, word in enumerate(words)
                if word
            }
            calls.clear()
            res = oracle_davies_map(m, e, n_max=n_max, quad_order=6)
            assert len(calls) == len(expected) == res.diagnostics["node_sets"]
            assert sorted(calls) == sorted(
                (ndim, segments[k][1] - segments[k][0], order) for k, ndim, order in expected
            )
            fresh = _summed(m, e, _sector_parts(m, e, n_max, 6))
            assert res.matrix.tobytes() == fresh.tobytes(), (e, n_max)


def test_oracle_chunked_grids_match_the_per_sector_reference(monkeypatch):
    # at 7 nodes a chunk every grid of two or more photons spans several
    # chunks; chunking only splits each sector's node sum into partial sums,
    # whose reordering moves the map by roundoff of its own size
    rng = np.random.default_rng(33)
    for e, caps in _SKIP_CASES:
        for n_max in caps[:2]:
            m = random_model(rng)
            whole = oracle_davies_map(m, e, n_max=n_max, quad_order=6)
            monkeypatch.setattr(resfluor.guichardet, "_CHUNK", 7)
            res = oracle_davies_map(m, e, n_max=n_max, quad_order=6)
            fresh = _summed(m, e, _sector_parts(m, e, n_max, 6))
            monkeypatch.undo()
            assert res.matrix.tobytes() == fresh.tobytes(), (e, n_max)
            assert res.diagnostics == whole.diagnostics
            assert frobenius_dist(res.matrix, whole.matrix) <= _roundoff_tolerance(whole.matrix)


def test_oracle_builds_each_group_grid_once(monkeypatch):
    # sectors with equal photon counts per segment share one grid, however
    # the sector walk interleaves them: 20 and 78 groups on these events
    grids = []  # holds every times array, so no id is reused
    real = resfluor.guichardet._amplitude_batch

    def spy(m, t, times, labels, gaps):
        grids.append(times)
        return real(m, t, times, labels, gaps)

    monkeypatch.setattr(resfluor.guichardet, "_amplitude_batch", spy)
    m = random_model(np.random.default_rng(34))
    for (e, _), expected in zip(_SKIP_CASES[1:], (20, 78)):
        grids.clear()
        oracle_davies_map(m, e, n_max=4, quad_order=6)
        groups = {tuple(map(len, words)) for words in _sectors(e, e.segments(), 4)}
        assert len({id(times) for times in grids}) == len(groups) == expected


def _obeys(e, segments, words):
    """The event's rules, checked on one tuple of per-segment words."""
    for label, ch in (("f", e.forward), ("s", e.side)):
        in_window = [0] * len(ch.windows)
        for (a, b, _), word in zip(segments, words):
            k = word.count(label)
            owner = [i for i, w in enumerate(ch.windows) if w.a <= a and b <= w.b]
            if owner:
                in_window[owner[0]] += k
            elif k and not ch.free:
                return False
        if in_window != [w.count for w in ch.windows]:
            return False
    return True


def _brute_force_sectors(e, segments, n_max):
    """Every tuple of per-segment words with at most n_max letters, filtered.

    A tuple of n letters in time order and a cut of them into the segments
    name each tuple of words exactly once.
    """
    out = Counter()
    for n in range(n_max + 1):
        for letters in itertools.product("fs", repeat=n):
            for cuts in itertools.combinations_with_replacement(range(n + 1), len(segments) - 1):
                ends = (0, *cuts, n)
                words = tuple(letters[i:j] for i, j in zip(ends, ends[1:]))
                if _obeys(e, segments, words):
                    out[words] += 1
    return out


def _random_channel(rng):
    k = int(rng.integers(0, 3))
    edges = np.sort(rng.choice(np.arange(11) / 10, size=2 * k, replace=False))
    windows = tuple(
        Window(edges[2 * i], edges[2 * i + 1], int(rng.integers(0, 3))) for i in range(k)
    )
    return ChannelEvent(windows, (OUTSIDE_FREE, OUTSIDE_ZERO)[int(rng.integers(0, 2))])


_SECTOR_CASES = [
    # forward and side windows that compare equal as values
    (Event(exact_count(0.3, 0.8, 1), exact_count(0.3, 0.8, 1), 1.0), 4),
    # a forward window cut into three segments by the side window
    (Event(exact_count(0.1, 0.9, 2, OUTSIDE_FREE), exact_count(0.3, 0.5, 1), 1.0), 4),
    # a zero-count window on an otherwise free channel
    (Event(exact_count(0.2, 0.6, 0, OUTSIDE_FREE), free_channel(), 1.0), 4),
    (Event(free_channel(), free_channel(), 1.0), 4),
]


def test_sectors_equal_a_brute_force_filter():
    rng = np.random.default_rng(12)
    cases = list(_SECTOR_CASES)
    while len(cases) < len(_SECTOR_CASES) + 150:
        e = Event(_random_channel(rng), _random_channel(rng), 1.0)
        cases += [(e, n) for n in range(e.total_count, 4)]
    for e, n_max in cases:
        segments = e.segments()
        got = Counter(_sectors(e, segments, n_max))
        assert got == _brute_force_sectors(e, segments, n_max), (e, n_max)
    # the equal windows pin one photon each into the middle segment
    e = _SECTOR_CASES[0][0]
    assert sorted(_sectors(e, e.segments(), 2)) == [((), tuple(w), ()) for w in ("fs", "sf")]
    # free/free at cap n: every word of at most n letters in one segment
    for n in range(7):
        e = Event(free_channel(), free_channel(), 1.0)
        assert len(list(_sectors(e, e.segments(), n))) == 2 ** (n + 1) - 1


def test_oracle_agrees_with_dyson_on_a_window_overhanging_the_horizon(sym_model):
    # both routes read the sliver past the horizon from Event.segments(), so
    # they agree to roundoff on it, and the oracle integrates its sectors too
    for forward in (free_channel(), zero_photons()):
        e = Event(forward, exact_count(0.1, 0.3 + 2e-16, 1, OUTSIDE_FREE), 0.3)
        assert len(e.segments()) == 3
        for cap in (3, 4):
            dyson = davies_map(sym_model, e, n_max=cap, expansion="dyson").matrix
            oracle = oracle_davies_map(sym_model, e, n_max=cap)
            assert oracle.diagnostics["sectors"] == len(list(_sectors(e, e.segments(), cap)))
            assert frobenius_dist(oracle.matrix, dyson) <= _roundoff_tolerance(dyson), cap


def test_oracle_capacity_error(sym_model):
    ev = Event(forward=exact_count(0.0, 1.0, 3), side=exact_count(0.0, 1.0, 2), horizon=1.0)
    with pytest.raises(ValueError):
        oracle_davies_map(sym_model, ev, n_max=4)


def test_jump_limit_check(sym_model):
    # (1/t) times the one-photon oracle map tends to the jump map
    for channel, target, tol in (
        ("forward", sym_model.J_f, 1e-2),
        ("side", sym_model.J_s, 5e-3),
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
