"""Textbook oracles that the tests hold the library against.

Each one is computed from its definition, on plain integer labels.  The
only name taken from ``cubewalk`` is ConnectionSet, the type that
``random_set`` returns; nothing here calls a library routine, so a test
that agrees with one of these is evidence, not tautology.
"""

import itertools
from collections import deque

from cubewalk.bitspace import ConnectionSet


def random_set(rng, n):
    """A nonempty connection set on Z₂ⁿ: a uniform size, then labels."""
    pool = range(1, 1 << n)
    return ConnectionSet(n, tuple(rng.sample(pool,
                                             rng.randint(1, len(pool)))))


def all_sets(n):
    """Every nonempty label tuple on Z₂ⁿ, by size, then lexicographically."""
    pool = range(1, 1 << n)
    for k in range(1, len(pool) + 1):
        yield from itertools.combinations(pool, k)


def xor(labels):
    acc = 0
    for x in labels:
        acc ^= x
    return acc


def character(w, v):
    """The character χ_w(v) = (−1)^(w·v)."""
    return 1 - 2 * (bin(w & v).count("1") & 1)


def eigenvalues(labels, n):
    """The character sums λ_v = Σ_w χ_w(v), for every v in Z₂ⁿ."""
    return [sum(character(w, v) for w in labels) for v in range(1 << n)]


def gf2_rank(labels):
    """Rank of the labels as vectors over GF(2): the size of an
    elimination basis, each label reduced against the basis so far."""
    basis = []
    for vec in labels:
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis.append(vec)
    return len(basis)


def bfs_dist(labels, source):
    """Distances from ``source`` by deque BFS, for reached vertices only."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for w in labels:
            y = x ^ w
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist
