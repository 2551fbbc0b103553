"""Distances, connectivity, and bipartite structure on implicit graphs."""

import math
import random
from collections import deque

import numpy as np
import pytest

from cubewalk import graphwalk
from cubewalk.bitspace import ConnectionSet, GroupElement, hypercube
from cubewalk.graphwalk import (_bfs, bfs_profile, bipartite_functional,
                                is_complete_bipartite)
from cubewalk.pst import folded_cube

from oracles import bfs_dist, gf2_rank, random_set


def _two_colorable(omega):
    # greedy 2-coloring of the component of 0; a conflict is an odd cycle
    color = {0: 0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for w in omega.elements:
            y = x ^ w
            if y not in color:
                color[y] = color[x] ^ 1
                queue.append(y)
            elif color[y] == color[x]:
                return False
    return True


def test_bfs_matches_oracle():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 7)
        omega = random_set(rng, n)
        source = GroupElement(rng.randrange(1 << n), n)
        profile = bfs_profile(omega, source)
        oracle = bfs_dist(omega.elements, source.bits)
        for v in range(1 << n):
            want = oracle.get(v, -1)
            assert profile.dist[v] == want, (omega.format(), v)
        assert profile.connected == (len(oracle) == 1 << n)
        assert profile.diameter == max(oracle.values())


def test_bfs_matches_oracle_set_by_set():
    # the empty set, a disconnected set, the complete set and uneven
    # degrees, from 0 and from every source
    n = 4
    sets = [(), (1, 2, 3), tuple(range(1, 16)), (8,), (1, 6, 10, 12, 15),
            (3, 5), (7, 9, 14)]
    for labels in sets:
        omega = ConnectionSet(n, labels)
        assert _bfs(labels, n).tolist() == _oracle_dist(labels, n)
        for source in range(1 << n):
            oracle = bfs_dist(omega.elements, source)
            profile = bfs_profile(omega, GroupElement(source, n))
            assert profile.dist.tolist() == [oracle.get(v, -1)
                                             for v in range(1 << n)]
            assert profile.diameter == max(oracle.values())


@pytest.fixture
def directions(monkeypatch):
    """The direction of every BFS level run during the test, in order."""
    ran = []
    for name in ("_top_down", "_bottom_up"):
        inner = getattr(graphwalk, name)

        def counting(*args, inner=inner, name=name):
            ran.append(name)
            return inner(*args)

        monkeypatch.setattr(graphwalk, name, counting)
    return ran


def _oracle_dist(labels, n):
    oracle = bfs_dist(labels, 0)
    return [oracle.get(v, -1) for v in range(1 << n)]


def test_two_direction_bfs_matches_oracle_on_dense_sets(directions):
    rng = random.Random(21)
    for n in range(8, 13):
        for d in (n + 1, 2 * n, 5 * n, 1 << (n - 2)):
            labels = tuple(rng.sample(range(1, 1 << n), d))
            directions.clear()
            dist = _bfs(labels, n)
            assert dist.dtype == np.int32
            assert dist.tolist() == _oracle_dist(labels, n)
            if d >= 5 * n:  # a dense set ends bottom-up
                assert directions[0] == "_top_down"
                assert directions[-1] == "_bottom_up", (n, d)


def test_two_direction_bfs_on_disconnected_sets(directions):
    # labels inside a proper subspace: the other cosets stay unvisited
    # through every bottom-up level, and the walk still ends
    rng = random.Random(22)
    for n, k in ((8, 7), (10, 8), (12, 11)):
        labels = tuple(rng.sample(range(1, 1 << k), (2 << k) // 3))
        directions.clear()
        dist = _bfs(labels, n)
        assert dist.tolist() == _oracle_dist(labels, n)
        assert "_bottom_up" in directions
        assert (dist >= 0).sum() == 1 << k
        profile = bfs_profile(ConnectionSet(n, labels), GroupElement(5, n))
        assert not profile.connected and (profile.dist < 0).sum() == \
            (1 << n) - (1 << k)


def test_bfs_of_the_empty_set():
    for n in (1, 4, 10):
        assert _bfs((), n).tolist() == [0] + [-1] * ((1 << n) - 1)
        profile = bfs_profile(ConnectionSet(n, ()), GroupElement.zero(n))
        assert profile.diameter == 0 and not profile.connected


def test_hypercube_profile():
    for n in range(1, 8):
        profile = bfs_profile(hypercube(n), GroupElement.zero(n))
        assert profile.connected
        assert profile.diameter == n
        assert profile.shell_sizes() == [math.comb(n, k)
                                         for k in range(n + 1)]


def test_disconnected_profile():
    omega = ConnectionSet(2, (3,))  # two disjoint edges
    profile = bfs_profile(omega, GroupElement.zero(2))
    assert not profile.connected
    assert profile.diameter == 1  # eccentricity inside the component
    assert list(profile.dist) == [0, -1, -1, 1]


def test_connectivity_equals_span():
    rng = random.Random(9)
    for _ in range(100):
        omega = random_set(rng, rng.randint(1, 7))
        reached = len(bfs_dist(omega.elements, 0))
        spans = gf2_rank(omega.elements) == omega.n
        assert spans == (reached == 1 << omega.n)
        assert spans == bfs_profile(omega, GroupElement.zero(
            omega.n)).connected


def test_antipodal_pairs():
    # the antipodal offsets of a connected graph are its farthest vertices
    # from 0: the cube's is 1…1
    cube = bfs_profile(hypercube(3), GroupElement.zero(3))
    assert cube.connected and cube.farthest().tolist() == [0b111]
    # the three-generator twin of the cube has a unique far vertex too
    twin = ConnectionSet(3, (1, 2, 7))
    profile = bfs_profile(twin, GroupElement.zero(3))
    assert profile.connected and profile.farthest().tolist() == [0b100]
    # the profile's farthest vertices from another source: one read, which
    # the graph command shares
    far = bfs_profile(twin, GroupElement(0b101, 3)).farthest()
    assert far.tolist() == [0b101 ^ 0b100]


def test_bipartite_functional_against_two_coloring():
    rng = random.Random(15)
    for _ in range(120):
        omega = random_set(rng, rng.randint(1, 6))
        got = bipartite_functional(omega)
        if got is None:
            assert not _two_colorable(omega)
        else:
            assert all(bin(got.bits & w).count("1") & 1
                       for w in omega.elements)


def test_bipartite_functional_empty_set():
    assert bipartite_functional(ConnectionSet(3, ())) is None


def test_complete_bipartite_known_cases():
    assert is_complete_bipartite(folded_cube(3)) == (4, 4)
    assert is_complete_bipartite(hypercube(2)) == (2, 2)  # the 4-cycle
    assert is_complete_bipartite(hypercube(1)) == (1, 1)  # one edge
    assert is_complete_bipartite(hypercube(3)) is None  # too sparse
    assert is_complete_bipartite(ConnectionSet(2, (1, 2, 3))) is None  # odd


def test_complete_bipartite_exhaustive_small():
    # adjacency-level oracle: complete bipartite iff the neighborhood of 0
    # is one side, its complement the other, and every cross pair is an
    # edge while no same-side pair is
    for n in (1, 2, 3):
        width = (1 << n) - 1
        for mask in range(1, 1 << width):
            labels = tuple(j + 1 for j in range(width) if mask >> j & 1)
            omega = ConnectionSet(n, labels)
            size = 1 << n
            side_b = set(omega.elements)
            side_a = set(range(size)) - side_b
            proper = all(((x ^ y) in omega.elements) == (
                (x in side_a) != (y in side_a))
                for x in range(size) for y in range(size) if x != y)
            want = (len(side_a), len(side_b)) if proper else None
            assert is_complete_bipartite(omega) == want, omega.format()
