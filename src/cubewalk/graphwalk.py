"""Combinatorial structure of cubelike graphs, without materializing them.

X(Z₂ⁿ, Ω) has vertex set Z₂ⁿ and edges x ~ x⊕w for w ∈ Ω.  The graph is
vertex transitive (translation by any label is an automorphism), so all
distance questions reduce to distances from 0.  BFS here works on the
implicit graph with a vectorized frontier; nothing below ever builds an
adjacency matrix.

Connectivity is a rank condition: the graph is connected iff Ω spans Z₂ⁿ
over GF(2), which ``bitspace.spans`` tests.  Bipartiteness is a linear condition: the graph is bipartite
iff some functional c has cᵀw = 1 for every generator, and it is complete
bipartite exactly when such a c exists and d = 2^(n−1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitspace import (ConnectionSet, DimensionMismatchError, GroupElement,
                       odd_parity_functional)


class DisconnectedGraphError(ValueError):
    """The requested quantity is only defined for connected graphs."""


@dataclass(frozen=True, eq=False)
class DistanceProfile:
    """BFS distances from one source; -1 marks unreachable vertices."""

    n: int
    source: GroupElement
    dist: np.ndarray
    diameter: int
    connected: bool

    def shell_sizes(self) -> list[int]:
        """Number of vertices at each distance 0..diameter from the source."""
        reached = self.dist[self.dist >= 0]
        return np.bincount(reached).tolist()


def neighbors(omega: ConnectionSet, x: GroupElement) -> list[GroupElement]:
    """The vertices adjacent to x, in ascending generator order."""
    if x.n != omega.n:
        raise DimensionMismatchError(
            f"vertex of Z2^{x.n} against a set on Z2^{omega.n}")
    return [GroupElement(x.bits ^ w, omega.n) for w in omega.elements]


def bfs_profile(omega: ConnectionSet, source: GroupElement) -> DistanceProfile:
    """Distances from ``source`` to every vertex of X(Z₂ⁿ, Ω).

    The diameter reported for a disconnected graph is the eccentricity of
    the source within its component.  Translation by the source is an
    automorphism, so the profile is the one from 0 read at x ⊕ source.
    """
    if source.n != omega.n:
        raise DimensionMismatchError(
            f"source of Z2^{source.n} against a set on Z2^{omega.n}")
    size = 1 << omega.n
    gens = np.array([omega.elements], dtype=np.int64)
    dist = _bfs_rows(gens, omega.n)[0]
    if source.bits:
        dist = dist[np.arange(size) ^ source.bits]
    reached = dist[dist >= 0]
    dist.setflags(write=False)
    return DistanceProfile(n=omega.n, source=source, dist=dist,
                           diameter=int(reached.max()),
                           connected=int(reached.size) == size)


def _bfs_rows(gens: np.ndarray, n: int) -> np.ndarray:
    """Distances from 0 for each row of generator labels, -1 if unreached.

    ``gens`` is (rows × k); a row with fewer than k generators is padded
    with label 0, which maps every vertex to itself and so adds nothing.
    All rows walk together on one flat array, where vertex x of row r sits
    at r·2ⁿ + x; xor with a label touches only the low n bits, so it stays
    inside its row.  Each level marks the neighbours of its frontier in a
    boolean array and reads the unvisited ones back with ``flatnonzero``,
    which dedupes the next frontier without a sort.  The generators are
    gathered one column at a time, so no level holds more than a few
    frontier-sized arrays; a single row xors its label scalars directly.
    """
    rows = gens.shape[0]
    dist = np.full((rows, 1 << n), -1, dtype=np.int32)
    dist[:, 0] = 0
    flat = dist.reshape(-1)
    frontier = np.arange(rows, dtype=np.int64) << n
    level = 0
    while frontier.size:
        level += 1
        marked = np.zeros(flat.size, dtype=bool)
        if rows == 1:
            for label in gens[0].tolist():
                marked[frontier ^ label] = True
        else:
            owner = frontier >> n
            for column in gens.T:
                marked[frontier ^ column[owner]] = True
        frontier = np.flatnonzero(marked & (flat < 0))
        flat[frontier] = level
    return dist


def antipodal_pairs(omega: ConnectionSet) -> list[GroupElement]:
    """All δ at maximum distance from 0; {x, x⊕δ} are the antipodal pairs.

    Raises DisconnectedGraphError when the graph is not connected, since
    antipodality is not meaningful there.
    """
    profile = bfs_profile(omega, GroupElement.zero(omega.n))
    if not profile.connected:
        raise DisconnectedGraphError(
            "antipodal pairs are defined only for connected graphs")
    far = np.nonzero(profile.dist == profile.diameter)[0]
    return [GroupElement(int(v), omega.n) for v in far]


def bipartite_functional(omega: ConnectionSet) -> GroupElement | None:
    """A functional c with cᵀw = 1 for every generator, if one exists.

    Its level sets are the two color classes, so a return of None means
    the graph has an odd cycle.  The empty set gets None as well: with no
    edges there is no canonical functional to report.
    """
    if omega.d == 0:
        return None
    c = odd_parity_functional(omega.elements, omega.n)
    return None if c is None else GroupElement(c, omega.n)


def is_complete_bipartite(omega: ConnectionSet) -> tuple[int, int] | None:
    """Part sizes if X(Z₂ⁿ, Ω) is complete bipartite, else None.

    A cubelike graph is complete bipartite exactly when it is bipartite
    and d = 2^(n−1): the color classes are the level sets of the
    functional, each of size 2^(n−1), and every cross pair is an edge
    precisely when Ω is the full odd level set.
    """
    if omega.d != 1 << (omega.n - 1):
        return None
    if bipartite_functional(omega) is None:
        return None
    half = 1 << (omega.n - 1)
    return (half, half)
