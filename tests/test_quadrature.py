import math

import numpy as np
import pytest

import resfluor.quadrature
from resfluor.quadrature import gauss_legendre_01, simplex_nodes


def test_gauss_legendre_01_integrates_polynomials():
    x, w = gauss_legendre_01(6)
    for p in range(11):
        assert np.dot(w, x**p) == pytest.approx(1.0 / (p + 1), abs=1e-14)


@pytest.mark.parametrize("ndim", [0, 1, 2, 3, 4])
def test_simplex_volume(ndim):
    T = 1.7
    _, _, w = simplex_nodes(ndim, T, 12)
    assert w.sum() == pytest.approx(T**ndim / math.factorial(ndim), rel=1e-13)


def test_simplex_nodes_ordered_and_gaps_consistent():
    times, gaps, _ = simplex_nodes(3, 2.0, 8)
    assert np.all(np.diff(times, axis=1) >= 0)
    assert np.all(times >= 0) and np.all(times <= 2.0)
    recon = np.cumsum(gaps[:, :-1], axis=1)
    assert np.allclose(recon, times, atol=1e-14)
    assert np.allclose(gaps.sum(axis=1), 2.0, atol=1e-14)


def test_simplex_exponential_integral():
    # int over 0<v1<v2<T of e^{-(v2-v1)} equals T - 1 + e^{-T}
    T = 1.3
    times, _, w = simplex_nodes(2, T, 24)
    val = np.dot(w, np.exp(-(times[:, 1] - times[:, 0])))
    exact = T - 1.0 + np.exp(-T)
    assert val == pytest.approx(exact, rel=1e-13)


def test_invalid_order_or_dimension_raises():
    with pytest.raises(ValueError, match="order"):
        gauss_legendre_01(0)
    with pytest.raises(ValueError, match="ndim"):
        simplex_nodes(-1, 1.0, 4)


def test_cached_rules_are_read_only_and_kept_as_built():
    x, w = gauss_legendre_01(5)
    kept = x.copy(), w.copy()
    # simplex_nodes hands out new arrays, so writing to them changes no later rule
    times, gaps, weights = simplex_nodes(3, 0.7, 5)
    expected = [a.tobytes() for a in (times, gaps, weights)]
    for a in (x, w, *resfluor.quadrature._cube[3, 5]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 99.0
    times[0], gaps[0], weights[0] = 99.0, 99.0, 99.0
    assert [a.tobytes() for a in simplex_nodes(3, 0.7, 5)] == expected
    assert all(np.array_equal(a, b) for a, b in zip(gauss_legendre_01(5), kept))


@pytest.mark.parametrize("ndim", [0, 1, 2, 3, 4])
def test_simplex_rule_has_the_same_bytes_from_an_empty_and_a_warm_store(monkeypatch, ndim):
    # each length's rule alone, from an empty store, against the same rule
    # after the other lengths' calls have filled the store, in either order
    lengths = (0.3, 1.0, 2.7)
    for order in (1, 4, 7):
        cold = {}
        for length in lengths:
            monkeypatch.setattr(resfluor.quadrature, "_cube", {})
            cold[length] = [a.tobytes() for a in simplex_nodes(ndim, length, order)]
        for sequence in (lengths, lengths[::-1]):
            monkeypatch.setattr(resfluor.quadrature, "_cube", {})
            for length in sequence:
                assert [a.tobytes() for a in simplex_nodes(ndim, length, order)] == cold[length]
