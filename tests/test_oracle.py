"""Dense reference paths: representations, spectra, evolution."""

import random

import numpy as np
import pytest

from cubewalk import dynamics, oracle
from cubewalk.bitspace import ConnectionSet, GroupElement, hypercube
from cubewalk.dynamics import all_amplitudes
from cubewalk.oracle import (DENSE_CAP, DenseCapError, OracleMismatchError,
                             _eigenvalues, _regular_rep, adjacency_dense,
                             commutation_check, evolve_dense, evolve_expm,
                             verify_equivalence)
from cubewalk.spectral import spectrum

from oracles import random_set


def test_regular_rep_permutes_by_xor():
    # every w at n <= 6, then one w at the cap, the largest broadcast
    cases = [GroupElement(bits, n) for n in range(1, 7)
             for bits in range(1 << n)]
    cases.append(GroupElement(0b1011001110, DENSE_CAP))
    for w in cases:
        mat = _regular_rep(w)
        size = 1 << w.n
        want = np.zeros((size, size), dtype=np.int64)
        for x in range(size):
            want[x ^ w.bits, x] = 1
        assert mat.dtype == np.int64
        np.testing.assert_array_equal(mat, want)
    assert adjacency_dense(hypercube(DENSE_CAP)).dtype == np.int64


def test_adjacency_entries():
    rng = random.Random(7)
    for _ in range(30):
        omega = random_set(rng, rng.randint(1, 6))
        adj = adjacency_dense(omega)
        size = 1 << omega.n
        np.testing.assert_array_equal(adj, adj.T)
        assert np.all(adj.sum(axis=0) == omega.d)
        for _ in range(20):
            x, y = rng.randrange(size), rng.randrange(size)
            assert adj[x, y] == ((x ^ y) in omega.elements)


def test_dense_eigenvalues_match_transform_spectrum():
    rng = random.Random(11)
    for _ in range(40):
        omega = random_set(rng, rng.randint(1, 6))
        np.testing.assert_array_equal(_eigenvalues(adjacency_dense(omega)),
                                      spectrum(omega).values)


def test_dense_eigenvalues_match_eigh():
    rng = random.Random(13)
    for _ in range(20):
        omega = random_set(rng, rng.randint(1, 5))
        adj = adjacency_dense(omega)
        ours = np.sort(_eigenvalues(adj))
        numeric = np.sort(np.linalg.eigvalsh(adj.astype(np.float64)))
        assert np.max(np.abs(ours - numeric)) <= 1e-9


def test_evolution_routes_agree():
    rng = random.Random(17)
    for _ in range(20):
        omega = random_set(rng, rng.randint(1, 5))
        t = rng.uniform(0, 6)
        u1 = evolve_dense(omega, t)
        u2 = evolve_expm(omega, t)
        assert np.max(np.abs(u1 - u2)) <= 1e-8
        size = 1 << omega.n
        gram = u1 @ u1.conj().T
        assert np.max(np.abs(gram - np.eye(size))) <= 1e-10


def test_evolution_column_equals_amplitudes():
    rng = random.Random(19)
    for _ in range(20):
        omega = random_set(rng, rng.randint(1, 5))
        t = rng.uniform(0, 6)
        u = evolve_dense(omega, t)
        col = all_amplitudes(omega, t) / (1 << omega.n)
        assert np.max(np.abs(u[:, 0] - col)) <= 1e-9


def test_cross_check_runs_inside_evolve():
    evolve_dense(hypercube(3), 0.7)  # raises if the routes ever split


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_time_is_refused(t):
    for route in (evolve_dense, evolve_expm):
        with pytest.raises(ValueError, match="finite"):
            route(hypercube(2), t)


def test_one_adjacency_per_trial(monkeypatch):
    built = []

    def counted(omega):
        built.append(omega)
        return adjacency_dense(omega)

    monkeypatch.setattr(oracle, "adjacency_dense", counted)
    evolve_dense(hypercube(3), 0.7)
    assert len(built) == 1
    built.clear()
    # one per trial, shared by both dense routes and eigvalsh; two per pair
    verify_equivalence(trials=7, pair_trials=3, seed=2, n_max=4)
    assert len(built) == 7 + 2 * 3


def test_non_finite_deviation_fails(monkeypatch):
    def nan_amplitudes(omega, t):
        return np.full(1 << omega.n, np.nan, dtype=complex)

    monkeypatch.setattr(dynamics, "all_amplitudes", nan_amplitudes)
    with pytest.raises(OracleMismatchError, match="closed-form"):
        verify_equivalence(trials=5, pair_trials=1)


def test_commutation():
    rng = random.Random(23)
    for _ in range(25):
        a = random_set(rng, 4)
        b = random_set(rng, 4)
        assert commutation_check(a, b) == 0


def test_dense_cap():
    with pytest.raises(DenseCapError):
        adjacency_dense(ConnectionSet(DENSE_CAP + 1, (1,)))
    with pytest.raises(DenseCapError):
        verify_equivalence(trials=1, n_max=DENSE_CAP + 1)


def test_verify_equivalence_smoke():
    result = verify_equivalence(trials=8, pair_trials=3, seed=1, n_max=4)
    assert result["ok"]
    assert result["commutator_max"] == 0
    assert result["closed_form_dev"] <= 1e-8
    assert result["expm_dev"] <= 1e-8
    assert result["unitarity_dev"] <= 1e-10
    assert result["spectrum_dev"] <= 1e-8
    # deterministic under the seed
    again = verify_equivalence(trials=8, pair_trials=3, seed=1, n_max=4)
    assert again == result
