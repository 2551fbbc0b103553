"""Combinatorial structure of cubelike graphs, without materializing them.

X(Z₂ⁿ, Ω) has vertex set Z₂ⁿ and edges x ~ x⊕w for w ∈ Ω.  The graph is
vertex transitive (translation by any label is an automorphism), so all
distance questions reduce to distances from 0.  BFS here works on the
implicit graph with a vectorized frontier; nothing below ever builds an
adjacency matrix.  It runs in two directions (Beamer, Asanović and
Patterson, SC 2012): top-down, the frontier marks its neighbours, while
the frontier is small; bottom-up, each unvisited vertex looks for a
neighbour in the frontier, once the frontier's edges far outnumber the
unvisited vertices, as in the widest levels of a dense set.

Connectivity is decided by what the BFS reaches.  It is also a rank
condition, the graph being connected iff Ω spans Z₂ⁿ over GF(2), and the
tests use that rank as their oracle.  Bipartiteness is a linear
condition: the graph is bipartite iff some functional c has cᵀw = 1 for
every generator, and it is complete bipartite exactly when such a c
exists and d = 2^(n−1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitspace import (ConnectionSet, GroupElement, _same_space,
                       odd_parity_functional)


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

    def farthest(self) -> np.ndarray:
        """The vertices at distance ``diameter`` from the source, ascending."""
        return np.flatnonzero(self.dist == self.diameter)


def bfs_profile(omega: ConnectionSet, source: GroupElement) -> DistanceProfile:
    """Distances from ``source`` to every vertex of X(Z₂ⁿ, Ω).

    The diameter reported for a disconnected graph is the eccentricity of
    the source within its component.  Translation by the source is an
    automorphism, so the profile is the one from 0 read at x ⊕ source.
    """
    _same_space(omega.n, source=source)
    size = 1 << omega.n
    dist = _bfs(omega.elements, omega.n)
    if source.bits:
        dist = dist[np.arange(size) ^ source.bits]
    reached = dist[dist >= 0]
    dist.setflags(write=False)
    return DistanceProfile(n=omega.n, source=source, dist=dist,
                           diameter=int(reached.max()),
                           connected=int(reached.size) == size)


# A level runs bottom-up once its frontier's edges outnumber the unvisited
# vertices this many times over.  An unvisited vertex that the level does
# not reach tests every label, and a test (a gather and two compressions)
# costs more than a top-down mark, so the switch waits for a frontier that
# dwarfs what is left.  Measured at n = 16 and 20 on the hypercube and on
# random sets of n + 1 to 5n labels: 32 came within 5% of the best ratio
# tried (1 to 64) on every set, while 1 ran up to 5.7 times slower than
# top-down alone, and 16 twice as slow as 32 at 5n labels.
BOTTOM_UP_RATIO = 32


def _bfs(labels: Sequence[int], n: int) -> np.ndarray:
    """int32 distances from 0 over the generator ``labels``, -1 if unreached.

    Each level runs top-down (``_top_down``) while the frontier is small
    and bottom-up (``_bottom_up``) once its edges outnumber the unvisited
    vertices ``BOTTOM_UP_RATIO`` times over (Beamer, Asanović and
    Patterson, "Direction-optimizing breadth-first search", SC 2012); both
    directions find the same level.
    """
    dist = np.full(1 << n, -1, dtype=np.int32)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    unvisited = dist.size - 1
    pending = None  # a superset of the unvisited vertices, once listed
    level = 0
    while frontier.size:
        level += 1
        if frontier.size * len(labels) > BOTTOM_UP_RATIO * unvisited:
            pending = np.flatnonzero(dist < 0) if pending is None \
                else pending[dist[pending] < 0]
            frontier, pending = _bottom_up(labels, dist, frontier, pending)
        else:
            frontier = _top_down(labels, dist, frontier)
        dist[frontier] = level
        unvisited -= frontier.size
    return dist


def _top_down(labels: Sequence[int], dist: np.ndarray,
              frontier: np.ndarray) -> np.ndarray:
    """The next level, from the neighbours of the frontier.

    The neighbours are marked in a boolean array, one label at a time, so
    no level holds more than a few frontier-sized arrays, and the
    unvisited ones read back with ``flatnonzero``, which dedupes them
    without a sort.
    """
    marked = np.zeros(dist.size, dtype=bool)
    for label in labels:
        marked[frontier ^ label] = True
    return np.flatnonzero(marked & (dist < 0))


def _bottom_up(labels: Sequence[int], dist: np.ndarray, frontier: np.ndarray,
               pending: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The next level, from the unvisited vertices ``pending``.

    Each pending vertex tests its labels in turn against the frontier and
    drops out at its first hit.  Returns the vertices that hit, the next
    frontier, and those that never did, which are still unvisited.
    """
    infront = np.zeros(dist.size, dtype=bool)
    infront[frontier] = True
    found = []
    for label in labels:
        hit = infront[pending ^ label]
        found.append(pending[hit])
        pending = pending[~hit]
        if not pending.size:
            break
    return np.concatenate(found), pending


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
