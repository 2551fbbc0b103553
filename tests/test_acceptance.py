"""Acceptance gate: nine numbered criteria, one test each.

Each test carries its own independent oracle (direct character sums,
textbook BFS, scipy expm, eigh-based time sweeps) so a green run means the
library agrees with routes it does not share code with.  Tolerances and
time limits are pinned here and nowhere else.
"""

import hashlib
import math
import random
import time

import numpy as np
from scipy.linalg import expm

from cubewalk.bitspace import ConnectionSet, GroupElement, hypercube
from cubewalk.dynamics import (HALF_PI, GaussianInteger, RationalAngle,
                               all_fidelities, exact_components)
from cubewalk.graphwalk import bfs_profile, is_complete_bipartite
from cubewalk.oracle import commutation_check, evolve_dense
from cubewalk.pst import certify, folded_cube, plan_route, pst_at_half_pi
from cubewalk.scanner import antipodality_audit, conjecture_scan
from cubewalk.spectral import classify_set, spectrum

from oracles import all_sets, bfs_dist, eigenvalues, random_set, xor

REVIVAL_TOL = 1e-9        # criterion 3: fidelity defect at t = pi
ORACLE_TOL = 1e-8         # criterion 5: dense evolution agreement
SWEEP_MARGIN = 1e-6       # criterion 7: off-diagonal fidelity headroom
DENSE_CHECK_TOL = 1e-9    # criteria 2/8/9: expm re-verification
CLOSED_FORM_LIMIT = 1.0   # criterion 1: seconds per dimension
CONGRUENCE_LIMIT = 60.0   # criterion 4: seconds for the n=4 sweep
SCAN_LIMIT = 300.0        # criterion 7: seconds, single-threaded


def _adjacency(labels, n):
    size = 1 << n
    adj = np.zeros((size, size), dtype=np.float64)
    members = set(labels)
    for x in range(size):
        for y in range(size):
            if x ^ y in members:
                adj[x, y] = 1.0
    return adj


def test_criterion_1_hypercube_transfer():
    for n in range(1, 11):
        started = time.perf_counter()
        cert = pst_at_half_pi(hypercube(n))
        elapsed = time.perf_counter() - started
        assert elapsed < CLOSED_FORM_LIMIT, (n, elapsed)
        assert cert is not None
        assert cert.delta == GroupElement.all_ones(n)
        assert cert.time == HALF_PI
        assert isinstance(cert.phase, GaussianInteger)
        # exact amplitudes: unit modulus at the far corner, zero elsewhere
        re, im = exact_components(hypercube(n), HALF_PI)
        sq = re * re + im * im
        ones = (1 << n) - 1
        assert sq[ones] == (1 << n) ** 2
        assert np.count_nonzero(sq) == 1
        fid = all_fidelities(hypercube(n), HALF_PI)
        assert fid[ones] == 1.0
        assert np.all(fid[:ones] == 0.0)


def test_criterion_2_figure_example():
    c1 = ConnectionSet.parse("010,001,111", 3)
    # transfer pairs are exactly {x, x xor 100}: exact amplitudes single
    # out delta = 100, and the independent expm route sees the same pairs
    re, im = exact_components(c1, HALF_PI)
    sq = re * re + im * im
    assert sq[0b100] == 64
    assert np.count_nonzero(sq) == 1
    unitary = expm(-1j * (math.pi / 2) * _adjacency(c1.elements, 3))
    for x in range(8):
        row = np.abs(unitary[:, x])
        assert abs(row[x ^ 0b100] - 1.0) <= DENSE_CHECK_TOL
        row[x ^ 0b100] = 0.0
        assert np.max(row) <= DENSE_CHECK_TOL
    # folded cube: complete bipartite with equal parts
    assert is_complete_bipartite(folded_cube(3)) == (4, 4)
    # same metric skeleton as the plain cube
    ours = bfs_profile(c1, GroupElement.zero(3))
    cube = bfs_profile(hypercube(3), GroupElement.zero(3))
    assert ours.diameter == 3
    assert ours.shell_sizes() == [1, 3, 3, 1]
    assert cube.diameter == ours.diameter
    assert cube.shell_sizes() == ours.shell_sizes()


def test_criterion_3_revival_at_pi():
    rng = random.Random(12)
    exact_cases = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        pool = range(1, 1 << n)
        omega = ConnectionSet(
            n, tuple(rng.sample(pool, rng.randint(1, min(40, len(pool))))))
        fid = all_fidelities(omega, math.pi)  # float route on purpose
        assert abs(fid[0] - 1.0) <= REVIVAL_TOL
        assert np.max(fid[1:]) <= REVIVAL_TOL
        if n <= 6:
            re, im = exact_components(omega, RationalAngle(1))
            sq = re * re + im * im
            assert sq[0] == (1 << n) ** 2
            assert np.count_nonzero(sq) == 1
            exact_cases += 1
    assert exact_cases > 30  # the exact leg must actually run


def test_criterion_4_congruences_n4():
    started = time.perf_counter()
    rng = random.Random(4)
    checked = 0
    for labels in all_sets(4):
        omega = ConnectionSet(4, labels)
        report = classify_set(omega)
        assert report.all_pass, labels
        checked += 1
        if rng.randrange(512) == 0:
            # independent spot check: the spectrum feeding the classifier
            # matches plain character sums
            direct = eigenvalues(labels, 4)
            assert list(spectrum(omega).values) == direct
    elapsed = time.perf_counter() - started
    assert checked == 32767
    assert elapsed < CONGRUENCE_LIMIT, elapsed


def test_criterion_5_oracle_equivalence():
    rng = random.Random(55)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 6)
        omega = random_set(rng, n)
        t = rng.uniform(0.0, 2.0 * math.pi)
        dense = evolve_dense(omega, t)
        # closed form through an independent direct sum: the (b, a) entry
        # is (1/2^n) sum_v (-1)^((a xor b).v) e^(-i lambda_v t)
        lam = np.array(eigenvalues(omega.elements, n))
        idx = np.arange(1 << n)
        parity = (np.bitwise_count(
            (idx[:, None] ^ idx[None, :])[:, :, None]
            & idx[None, None, :]) & 1).astype(np.int64)
        signs = 1 - 2 * parity
        phases = np.exp(-1j * t * lam)
        closed = (signs * phases[None, None, :]).sum(axis=2) / (1 << n)
        worst = max(worst, float(np.abs(dense - closed).max()))
    assert worst <= ORACLE_TOL, worst
    for _ in range(50):
        a = random_set(rng, 4)
        b = random_set(rng, 4)
        assert commutation_check(a, b) == 0


def test_criterion_6_quantization_at_half_pi():
    for n in (1, 2, 3, 4):
        unit = (1 << n) ** 2
        for labels in all_sets(n):
            omega = ConnectionSet(n, labels)
            re, im = exact_components(omega, HALF_PI)
            sq = re * re + im * im
            hot = np.flatnonzero(sq)
            assert hot.size == 1, labels
            assert sq[hot[0]] == unit, labels
            assert hot[0] == xor(labels), labels


def test_criterion_7_conjecture_scan():
    started = time.perf_counter()
    for n in (1, 2, 3, 4):
        report = conjecture_scan(n)
        assert report.findings == []
        assert report.violations == 0
        assert report.summary["counterexamples"] == 0
        assert report.universe == (1 << ((1 << n) - 1 - n)) - 1
    # cross-validation: dense sweeps over a fine grid on every
    # xor-sum-zero set at n <= 3, fully outside the exact decision path
    grid = np.pi * np.arange(1, 1025) / 1024.0
    for n in (2, 3):
        for labels in all_sets(n):
            if xor(labels) != 0:
                continue
            adj = _adjacency(labels, n)
            w, vectors = np.linalg.eigh(adj)
            phases = np.exp(-1j * np.outer(grid, w))
            cols = (phases * vectors[0][None, :]) @ vectors.T
            fid = np.abs(cols)
            fid[:, 0] = 0.0  # returns to the start are not transfer
            assert fid.max() < 1.0 - SWEEP_MARGIN, labels
    elapsed = time.perf_counter() - started
    assert elapsed < SCAN_LIMIT, elapsed


def test_criterion_8_antipodality_audit():
    reports = {}
    for n in (1, 2, 3, 4):
        report = antipodality_audit(n)
        reports[n] = report
        assert report.violations == 0, n
        assert report.summary["violations"] == 0
        # the digest every emitted manifest carries reproduces from the
        # canonical payload alone
        want = hashlib.sha256(report.canonical_json().encode()).hexdigest()
        assert report.digest() == want
    # established totals at n = 4: transfer happens exactly on the sets
    # with nonzero xor-sum, once each
    assert reports[4].universe == 32767
    assert reports[4].summary["sets_with_pst"] == 30720
    assert reports[4].summary["offsets_checked"] == 30720
    # deterministic: a rerun is byte-identical
    again = antipodality_audit(3)
    assert again.canonical_json() == reports[3].canonical_json()
    assert again.digest() == reports[3].digest()
    # spot re-verification of findings through independent routes
    rng = random.Random(88)
    findings = reports[4].findings
    for record in rng.sample(findings, 7):
        labels = tuple(int(x, 2) for x in record["omega"])
        dist = bfs_dist(labels, 0)
        ecc = max(dist.values())
        assert record["diameter"] == ecc
        assert record["connected"] == (len(dist) == 16)
        for entry in record["pst"]:
            db = int(entry["delta"], 2)
            assert entry["is_xor_sum"] == (db == xor(labels))
            assert entry["distance"] == dist[db]
            assert entry["antipodal"] == (dist[db] == ecc)
            when = RationalAngle.parse(entry["time"])
            unitary = expm(-1j * when.radians * _adjacency(labels, 4))
            assert abs(abs(unitary[db, 0]) - 1.0) <= DENSE_CHECK_TOL


def test_criterion_9_routing():
    for n in range(3, 7):
        for target in range(1, 1 << n):
            plan = plan_route(n, target)
            acc = 0
            for stage in plan.stages:
                acc ^= stage.hop.bits
                fresh = certify(stage.omega, stage.hop, stage.time)
                assert isinstance(fresh.phase, GaussianInteger)
                assert fresh.phase.abs2() == 1
            assert acc == target
            assert len(plan.stages) == bin(target).count("1")
            assert plan.total_time == RationalAngle(len(plan.stages), 2)
    # dense composition of whole plans at n = 3
    for target in range(1, 8):
        plan = plan_route(3, target)
        u_total = np.eye(8, dtype=complex)
        for stage in plan.stages:
            u_total = expm(-1j * stage.time.radians
                           * _adjacency(stage.omega.elements, 3)) @ u_total
        assert abs(abs(u_total[target, 0]) - 1.0) <= DENSE_CHECK_TOL
