"""Dense-matrix reference path, kept deliberately independent.

Everything else in the package works through the Walsh-Hadamard transform.
This module rebuilds the same objects the slow, literal way so the two
routes can be compared: the regular representation as explicit Kronecker
products of bit-flip blocks, the adjacency matrix as their sum, and the
walk operator both by dense diagonalization and by scipy's expm.  None of
it imports the transform; agreement between the two routes is evidence,
not tautology.  Each trial of ``verify_equivalence`` builds one adjacency
matrix, and both dense routes and the ``eigvalsh`` check read it.

Dense work is capped at n ≤ 10 (a 1024×1024 complex matrix); the fast
path has no such limit.

Tolerances: the two evolution routes must agree within 1e-8 in max norm,
and any returned unitary must satisfy ‖UU† − I‖_max ≤ 1e-10.  Adjacency
commutators and eigenvalue diagonalization are exact integer statements.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from .bitspace import ConnectionSet, GroupElement, _mask_labels, _same_space

DENSE_CAP = 10
EVOLVE_TOL = 1e-8
UNITARY_TOL = 1e-10


class DenseCapError(ValueError):
    """The request exceeds the dense-matrix size cap."""


class OracleMismatchError(RuntimeError):
    """The two independent computation routes disagree beyond tolerance."""


_FLIP = np.array([[0, 1], [1, 0]], dtype=np.int64)
_EYE2 = np.eye(2, dtype=np.int64)


def _check_cap(n: int) -> None:
    if n > DENSE_CAP:
        raise DenseCapError(
            f"dense path is capped at n <= {DENSE_CAP}, got {n}")


def _kron_step(mat: np.ndarray, block: np.ndarray) -> np.ndarray:
    """np.kron(mat, block) for a 2×2 block, as one broadcast product."""
    rows, cols = mat.shape
    return (mat[:, None, :, None] * block[None, :, None, :]).reshape(
        2 * rows, 2 * cols)


def _regular_rep(w: GroupElement) -> np.ndarray:
    """Permutation matrix of x ↦ x⊕w as a Kronecker product.

    Factor i of the product is a bit flip when bit i of w is set, identity
    otherwise, ordered most significant first to match the binary vertex
    labels.
    """
    _check_cap(w.n)
    mat = np.ones((1, 1), dtype=np.int64)
    for i in range(w.n - 1, -1, -1):
        mat = _kron_step(mat, _FLIP if (w.bits >> i) & 1 else _EYE2)
    return mat


def adjacency_dense(omega: ConnectionSet) -> np.ndarray:
    """Σ_{w∈Ω} ρ(w): the adjacency matrix of X(Z₂ⁿ, Ω), dense int64."""
    _check_cap(omega.n)
    size = 1 << omega.n
    acc = np.zeros((size, size), dtype=np.int64)
    for w in omega.members():
        acc += _regular_rep(w)
    return acc


@functools.lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    mat = np.ones((1, 1), dtype=np.int64)
    for _ in range(n):
        mat = _kron_step(mat, block)
    mat.setflags(write=False)
    return mat


def _finite_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    return t


def _eigenvalues(adj: np.ndarray) -> np.ndarray:
    """Eigenvalues by explicit conjugation H A H / 2ⁿ, exact in int64.

    The conjugated matrix must come out diagonal with entries divisible by
    2ⁿ; anything else means the adjacency matrix was not cubelike.
    """
    size = adj.shape[0]
    had = _hadamard(size.bit_length() - 1)
    conj = had @ adj @ had
    diag = np.diagonal(conj).copy()
    off = conj - np.diag(diag)
    if np.any(off):
        raise OracleMismatchError("H A H is not diagonal")
    if np.any(diag % size):
        raise OracleMismatchError("H A H diagonal is not divisible by 2^n")
    return diag // size


def _unitary(adj: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """U(t) by diagonalization, with its defect ‖UU† − I‖_max."""
    lam = _eigenvalues(adj)
    size = adj.shape[0]
    had = _hadamard(size.bit_length() - 1).astype(np.float64)
    phases = np.exp(-1j * t * lam)
    unitary = (had * phases[None, :]) @ had / size
    gram = unitary @ unitary.conj().T
    defect = float(np.abs(gram - np.eye(size)).max())
    if not defect <= UNITARY_TOL:
        raise OracleMismatchError(f"unitarity defect {defect:.3e}")
    return unitary, defect


def _expm(adj: np.ndarray, t: float) -> np.ndarray:
    # Imported here so that importing the package does not load scipy.
    from scipy.linalg import expm

    return expm(-1j * t * adj.astype(np.float64))


def evolve_dense(omega: ConnectionSet, t: float) -> np.ndarray:
    """Walk operator U(t) = exp(−itA) by dense diagonalization.

    The result is also compared entrywise against scipy's
    scaling-and-squaring expm; disagreement beyond EVOLVE_TOL or a
    unitarity defect beyond UNITARY_TOL raises OracleMismatchError.  A
    non-finite ``t`` raises ValueError.
    """
    t = _finite_time(t)
    adj = adjacency_dense(omega)
    unitary, _ = _unitary(adj, t)
    dev = float(np.abs(unitary - _expm(adj, t)).max())
    if not dev <= EVOLVE_TOL:
        raise OracleMismatchError(
            f"diagonalization and expm disagree by {dev:.3e}")
    return unitary


def evolve_expm(omega: ConnectionSet, t: float) -> np.ndarray:
    """Walk operator through scipy.linalg.expm, the second dense route.

    A non-finite ``t`` raises ValueError.
    """
    t = _finite_time(t)
    return _expm(adjacency_dense(omega), t)


def commutation_check(first: ConnectionSet, second: ConnectionSet) -> int:
    """Max |entry| of [A₁, A₂]; exactly 0 for any two cubelike sets."""
    _same_space(first.n, second=second)
    a = adjacency_dense(first)
    b = adjacency_dense(second)
    comm = a @ b - b @ a
    return int(np.abs(comm).max())


def _random_set(rng: random.Random, n: int) -> ConnectionSet:
    mask = rng.randrange(1, 1 << ((1 << n) - 1))
    return ConnectionSet(n, tuple(_mask_labels(mask)))


def _worst(route: str, worst: float, dev: float) -> float:
    # max() keeps its first argument against a NaN, so a NaN would pass.
    if not math.isfinite(dev):
        raise OracleMismatchError(f"{route} route deviation is {dev}")
    return max(worst, dev)


def verify_equivalence(*, trials: int = 100, pair_trials: int = 50,
                       seed: int = 0, n_max: int = 6) -> dict:
    """Drive the dense routes against the transform path on random inputs.

    Returns a report with the worst deviations observed; ``ok`` is True
    when every deviation is inside its tolerance; a non-finite deviation
    raises OracleMismatchError naming its route.  The closed-form route
    under test is dynamics.all_amplitudes, reshaped into a matrix via
    U[b, a] = T(a⊕b)/2ⁿ.  Negative counts, two zero counts and
    ``n_max`` < 1 raise ValueError: an ``ok`` report always checked something.
    """
    from .dynamics import all_amplitudes
    from .spectral import spectrum

    for name, count in (("trials", trials), ("pair_trials", pair_trials)):
        if count < 0:
            raise ValueError(f"{name} must be non-negative, got {count}")
    if trials == pair_trials == 0:
        raise ValueError("trials and pair_trials are both 0: nothing to check")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if n_max > DENSE_CAP:
        raise DenseCapError(
            f"dense path is capped at n <= {DENSE_CAP}, got n_max={n_max}")
    rng = random.Random(seed)
    closed_dev = 0.0
    expm_dev = 0.0
    unitary_dev = 0.0
    spectrum_dev = 0.0
    for _ in range(trials):
        n = rng.randint(1, n_max)
        omega = _random_set(rng, n)
        t = rng.uniform(0.0, 2.0 * np.pi)
        size = 1 << n
        adj = adjacency_dense(omega)
        dense, defect = _unitary(adj, t)
        unitary_dev = max(unitary_dev, defect)
        expm_dev = _worst("expm", expm_dev,
                          float(np.abs(dense - _expm(adj, t)).max()))
        idx = np.arange(size)
        fast = all_amplitudes(omega, t)[idx[:, None] ^ idx[None, :]] / size
        closed_dev = _worst("closed-form", closed_dev,
                            float(np.abs(dense - fast).max()))
        eigs = np.sort(np.linalg.eigvalsh(adj.astype(np.float64)))
        exact = np.sort(spectrum(omega).values)
        spectrum_dev = _worst("spectrum", spectrum_dev,
                              float(np.abs(eigs - exact).max()))
    commutator_max = 0
    for _ in range(pair_trials):
        a = _random_set(rng, 4)
        b = _random_set(rng, 4)
        commutator_max = max(commutator_max, commutation_check(a, b))
    ok = (closed_dev <= EVOLVE_TOL and expm_dev <= EVOLVE_TOL
          and unitary_dev <= UNITARY_TOL and spectrum_dev <= EVOLVE_TOL
          and commutator_max == 0)
    return {
        "trials": trials,
        "pair_trials": pair_trials,
        "seed": seed,
        "n_max": n_max,
        "closed_form_dev": closed_dev,
        "expm_dev": expm_dev,
        "unitarity_dev": unitary_dev,
        "spectrum_dev": spectrum_dev,
        "commutator_max": commutator_max,
        "ok": ok,
    }
