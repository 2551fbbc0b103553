"""Transfer decisions, certificates, and routing."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cubewalk.bitspace import ConnectionSet, GroupElement, hypercube
from cubewalk.dynamics import (HALF_PI, GaussianInteger, RationalAngle,
                               all_fidelities)
from cubewalk import pst
from cubewalk.oracle import evolve_expm
from cubewalk.pst import (CertificationError, certify, decide_pst_exact,
                          folded_cube, plan_route, pst_at_half_pi,
                          pst_offsets)
from cubewalk.scanner import _indicators, enumerate_sets, scan_sets
from cubewalk.spectral import _wht_rows, classify_set, spectrum, wht

from oracles import all_sets, eigenvalues, random_set


def _divisors(x):
    out = [k for k in range(1, x + 1) if x % k == 0]
    return out


def _pst_oracle(omega, delta_bits):
    """Brute-force earliest transfer time as a Fraction of pi, or None.

    All phases must line up: (d - lambda_v) * tau must be an integer with
    the parity of v.delta.  Any valid denominator divides the gcd of the
    spectral gaps and validity repeats with period 1, so scanning reduced
    a/b over b | gcd, 0 < a <= b is exhaustive.
    """
    lam = eigenvalues(omega.elements, omega.n)
    gaps = [lam[0] - x for x in lam]
    parity = [bin(v & delta_bits).count("1") & 1
              for v in range(len(lam))]
    g = 0
    for gap in gaps:
        g = math.gcd(g, gap)
    if g == 0:
        return None
    best = None
    for b in _divisors(g):
        for a in range(1, b + 1):
            if math.gcd(a, b) != 1:
                continue
            if all(gap * a % b == 0 and (gap * a // b - p) % 2 == 0
                   for gap, p in zip(gaps, parity)):
                frac = Fraction(a, b)
                if best is None or frac < best:
                    best = frac
    return best


def test_half_pi_certificate_on_the_cube():
    cert = pst_at_half_pi(hypercube(3))
    assert cert is not None
    assert cert.delta == GroupElement.all_ones(3)
    assert cert.time == HALF_PI
    assert cert.phase == GaussianInteger(0, 1)  # e^(-3i*pi/2)
    assert cert.method == "closed-form"


def test_half_pi_phase_cycle():
    # phase depends only on the degree, period 4
    for n, bits in ((1, (1,)), (2, (1, 2)), (3, (1, 2, 4)),
                    (4, (1, 2, 4, 8))):
        cert = pst_at_half_pi(ConnectionSet(n, bits))
        want = [GaussianInteger(1, 0), GaussianInteger(0, -1),
                GaussianInteger(-1, 0), GaussianInteger(0, 1)][len(bits) % 4]
        assert cert.phase == want


def test_half_pi_none_when_sum_vanishes():
    assert pst_at_half_pi(ConnectionSet(2, (1, 2, 3))) is None
    assert pst_at_half_pi(folded_cube(3)) is None


def test_decide_matches_brute_force_exhaustively():
    # every set and every nonzero offset at n <= 3
    for n in (1, 2, 3):
        width = (1 << n) - 1
        for mask in range(1, 1 << width):
            labels = tuple(j + 1 for j in range(width) if mask >> j & 1)
            omega = ConnectionSet(n, labels)
            assert len(pst_offsets(omega)) <= 1, labels
            for db in range(1, 1 << n):
                got = decide_pst_exact(omega, GroupElement(db, n))
                want = _pst_oracle(omega, db)
                if want is None:
                    assert got is None, (labels, db)
                else:
                    assert got is not None, (labels, db)
                    assert Fraction(got.p, got.q) == want, (labels, db)


def test_scan_findings_match_brute_force():
    # the survey's block decision against the oracle on all 127 sets
    found = {tuple(int(x, 2) for x in record["omega"]):
             [(int(e["delta"], 2), e["time"]) for e in record["pst"]]
             for record in scan_sets(3).findings}
    want = {}
    subsets = list(all_sets(3))
    assert len(subsets) == 127
    for labels in subsets:
        omega = ConnectionSet(3, labels)
        for db in range(1, 8):
            when = _pst_oracle(omega, db)
            if when is not None:
                time = str(RationalAngle(when.numerator, when.denominator))
                want.setdefault(labels, []).append((db, time))
    assert found == want


def test_decide_matches_brute_force_random_n4():
    rng = random.Random(21)
    for _ in range(40):
        omega = random_set(rng, 4)
        db = rng.randrange(1, 16)
        got = decide_pst_exact(omega, GroupElement(db, 4))
        want = _pst_oracle(omega, db)
        assert (got is None) == (want is None)
        if want is not None:
            assert Fraction(got.p, got.q) == want


@pytest.mark.parametrize("omega, delta", [
    # n = 5, d = 11, xor-sum 0: the smallest-degree u = 0 transfer
    (ConnectionSet.parse("00001,00110,00111,01000,01001,01100,01101,"
                         "10000,10001,10010,10011", 5), 0b00001),
    # n = 6, {e_i} and {1 xor e_i}, d = 12: transfer at distance 2
    (ConnectionSet(6, tuple(1 << i for i in range(6))
                   + tuple(63 ^ (1 << i) for i in range(6))), 0b111111),
])
def test_xor_sum_zero_transfer_fixtures(omega, delta):
    assert omega.u.bits == 0
    quarter = RationalAngle(1, 4)
    assert pst_offsets(omega) == {delta: quarter}
    for db in range(1, 1 << omega.n):
        want = _pst_oracle(omega, db)
        assert want == (Fraction(1, 4) if db == delta else None), db
    unitary = evolve_expm(omega, quarter.radians)
    assert abs(abs(unitary[delta, 0]) - 1.0) <= 1e-8
    # certified exactly, with phase e^(-i d pi/4)
    cert = certify(omega, GroupElement(delta, omega.n), quarter)
    assert isinstance(cert.phase, complex)
    assert abs(cert.phase - cmath.exp(-1j * omega.d * math.pi / 4)) <= 1e-9
    assert abs(cert.phase - unitary[delta, 0]) <= 1e-9
    with pytest.raises(CertificationError):
        certify(omega, GroupElement(delta ^ 0b11, omega.n), quarter)


def _generator_rows(omega):
    """Row i of the n x d generator matrix as a d-bit word."""
    return [sum(1 << j for j, w in enumerate(omega.elements) if w >> i & 1)
            for i in range(omega.n)]


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_cheung_godsil_xor_sum_zero_rule(seed):
    # Cheung & Godsil (LAA 2011): with xor-sum 0, transfer exists iff the
    # row code of the generator matrix is self-orthogonal but not doubly
    # even; it happens at pi/4, to the offset of the rows of weight 2 mod 4
    quarter = RationalAngle(1, 4)
    findings = 0
    for omega in enumerate_sets(5, u_zero=True, sample=2000, seed=seed):
        rows = _generator_rows(omega)
        orthogonal = all((a & b).bit_count() % 2 == 0
                         for i, a in enumerate(rows) for b in rows[i + 1:])
        delta = sum(1 << i for i, r in enumerate(rows)
                    if r.bit_count() % 4 == 2)
        offsets = pst_offsets(omega)
        assert bool(offsets) == (orthogonal and delta != 0), omega.format()
        if not offsets:
            continue
        findings += 1
        assert offsets == {delta: quarter}
        unitary = evolve_expm(omega, quarter.radians)
        assert abs(abs(unitary[delta, 0]) - 1.0) <= 1e-8
    assert findings > 0


def _gcd_decision(values):
    """The reference decision, with g the gcd of the gaps and a floor
    division: δ and g per row."""
    size = values.shape[1]
    gaps = values[:, :1] - values
    g = np.gcd.reduce(gaps, axis=1)
    odd = (gaps // np.maximum(g, 1)[:, None]) & 1
    basis = 1 << np.arange(size.bit_length() - 1)
    delta = (odd[:, basis] * basis).sum(axis=1)
    chars = np.bitwise_count(np.arange(size) & delta[:, None]) & 1
    transfers = (g > 0) & (odd == chars).all(axis=1)
    return np.where(transfers, delta, 0), g


def _xor_sum_zero(rng, n):
    """A random set with xor-sum 0, made by toggling label u."""
    labels = set(rng.sample(range(1, 1 << n), rng.randint(2, (1 << n) - 1)))
    u = 0
    for w in labels:
        u ^= w
    return tuple(sorted(labels ^ {u} - {0}))


def test_lowest_bit_g_is_the_gcd_of_the_gaps():
    # for distinct labels the gcd of the gaps is a power of two (Ward), so
    # the lowest set bit of their OR is the gcd, and the decision without
    # division gives the gcd decision's δ and time: every set at n <= 4,
    # random sets at n = 5..10 (the xor-sum-zero ones have 4 | g), and
    # the two pi/4 fixtures
    rng = random.Random(16)
    batches = []
    for n in range(1, 5):
        batches.append((n, range(1, 1 << ((1 << n) - 1))))
    for n in range(5, 11):
        sets = [random_set(rng, n).elements for _ in range(400)]
        sets += [_xor_sum_zero(rng, n) for _ in range(400)]
        batches.append((n, [sum(1 << (w - 1) for w in labels)
                            for labels in sets]))
    fixtures = [
        ConnectionSet.parse("00001,00110,00111,01000,01001,01100,01101,"
                            "10000,10001,10010,10011", 5),
        ConnectionSet(6, tuple(1 << i for i in range(6))
                      + tuple(63 ^ (1 << i) for i in range(6)))]
    batches += [(omega.n, [sum(1 << (w - 1) for w in omega.elements)])
                for omega in fixtures]
    checked, transfers, times = 0, 0, set()
    for n, masks in batches:
        values = _wht_rows(_indicators(list(masks), n))
        delta, g = pst._decide_rows(values)
        want_delta, want_g = _gcd_decision(values)
        assert np.array_equal(g, want_g), n
        assert np.array_equal(delta, want_delta), n
        checked += len(values)
        transfers += int(np.count_nonzero(delta))
        times |= set(g[delta != 0].tolist())
    assert checked == 1 + 7 + 127 + 32767 + 6 * 800 + 2
    assert transfers > 30720 and times == {2, 4}


def test_decide_rejects_zero_offset():
    with pytest.raises(ValueError):
        decide_pst_exact(hypercube(3), GroupElement.zero(3))


def test_decide_on_edgeless_graph():
    omega = ConnectionSet(3, ())
    assert decide_pst_exact(omega, GroupElement(1, 3)) is None


def test_pst_offsets_agree_with_single_decisions():
    rng = random.Random(27)
    for _ in range(30):
        omega = random_set(rng, rng.randint(1, 4))
        table = pst_offsets(omega)
        for db in range(1, 1 << omega.n):
            single = decide_pst_exact(omega, GroupElement(db, omega.n))
            assert (db in table) == (single is not None)
            if single is not None:
                assert table[db] == single


def test_transfer_found_at_its_certified_fidelity():
    # any offset the decision returns really has fidelity 1, checked on
    # the float path at the returned time
    rng = random.Random(33)
    for _ in range(25):
        omega = random_set(rng, rng.randint(1, 4))
        for db, when in pst_offsets(omega).items():
            fid = all_fidelities(omega, when.radians)
            assert abs(fid[db] - 1.0) <= 1e-9


def test_certify_accepts_and_packages():
    omega = ConnectionSet(3, (1, 2, 7))  # u = 100
    cert = certify(omega, GroupElement(4, 3), HALF_PI)
    assert cert.method == "exact-decision"
    assert isinstance(cert.phase, GaussianInteger)
    assert cert.phase.abs2() == 1


def test_certify_rejects_wrong_claims():
    omega = ConnectionSet(3, (1, 2, 7))
    with pytest.raises(CertificationError):
        certify(omega, GroupElement(1, 3), HALF_PI)  # wrong offset
    with pytest.raises(CertificationError):
        certify(omega, GroupElement(4, 3), RationalAngle(1, 1))  # wrong time
    with pytest.raises(CertificationError):
        certify(omega, GroupElement(4, 3), RationalAngle(1, 3))  # float path


def test_certify_is_exact_at_every_rational_time():
    # every set (the edgeless one too), every offset (0 too) and every
    # t = k*pi/q with 0 < k <= 2q at n <= 3, against the float fidelity
    for n in (1, 2, 3):
        width = (1 << n) - 1
        for mask in range(1 << width):
            omega = ConnectionSet(n, tuple(j + 1 for j in range(width)
                                           if mask >> j & 1))
            for q in (1, 2, 3, 4, 6):
                for k in range(1, 2 * q + 1):
                    t = RationalAngle(k, q)
                    fid = all_fidelities(omega, t.radians)
                    for db in range(1 << n):
                        want = abs(fid[db] - 1.0) <= 1e-9
                        try:
                            cert = certify(omega, GroupElement(db, n), t)
                        except CertificationError:
                            assert not want, (omega.format(), db, str(t))
                            continue
                        assert want, (omega.format(), db, str(t))
                        assert cert.time == t and cert.delta.bits == db
                        if t.is_quarter_exact:
                            assert isinstance(cert.phase, GaussianInteger)
                        else:
                            assert isinstance(cert.phase, complex)
                        expected = cmath.exp(-1j * omega.d * t.radians)
                        assert abs(complex(cert.phase) - expected) <= 1e-9


def _aligned_by_division(d, values, delta_bits, q):
    """The certificate's congruences by % and //: the oracle of the masks."""
    m = min(q, 2 * d + 1)
    weights = np.bitwise_count(np.arange(values.size) & delta_bits)
    gaps = d - values
    if (gaps % m).any():
        return False
    return not ((gaps // m - weights) & 1).any()


@pytest.mark.parametrize("q", (1, 2, 3, 4, 6, 8, 16))
def test_certificate_accepts_and_rejects_as_division_does(q):
    # synthetic spectra: aligned gaps, one tampered gap, or noise; gaps
    # may be negative, so & and >> must floor as % and // do
    rng = np.random.default_rng(q)
    verdicts = set()
    for trial in range(300):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(0, 20))
        m = min(q, 2 * d + 1)
        delta = GroupElement(int(rng.integers(0, 1 << n)), n)
        parity = np.bitwise_count(np.arange(1 << n) & delta.bits) & 1
        gaps = m * (2 * rng.integers(-3, 4, size=1 << n) + parity)
        if trial % 3 == 1:
            gaps[rng.integers(0, 1 << n)] += rng.integers(1, 2 * m + 1)
        elif trial % 3 == 2:
            gaps = rng.integers(-4 * m, 4 * m + 1, size=1 << n)
        values = d - gaps
        want = _aligned_by_division(d, values, delta.bits, q)
        try:
            pst._certificate(n, d, values, delta, RationalAngle(1, q),
                             "exact-decision")
        except CertificationError:
            got = False
        else:
            got = True
        assert got == want, (n, d, delta.bits, values.tolist())
        verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("omega, delta, time", [
    (hypercube(4), 0b1111, HALF_PI),
    (ConnectionSet(3, (1, 2, 7)), 0b100, HALF_PI),
    (ConnectionSet.parse("00001,00110,00111,01000,01001,01100,01101,"
                         "10000,10001,10010,10011", 5), 0b00001,
     RationalAngle(1, 4)),
])
def test_certificate_rejects_every_single_tampered_gap(omega, delta, time):
    values = spectrum(omega).values
    delta = GroupElement(delta, omega.n)
    pst._certificate(omega.n, omega.d, values, delta, time, "closed-form")
    for v in range(values.size):
        for shift in (1, -1, time.q, -time.q):  # divisibility, then parity
            tampered = values.copy()
            tampered[v] += shift
            with pytest.raises(CertificationError):
                pst._certificate(omega.n, omega.d, tampered, delta, time,
                                 "closed-form")


def test_certify_huge_numerators_and_denominators():
    omega, delta = hypercube(3), GroupElement(0b111, 3)
    # (2^62 + 1)*pi/2 is pi/2 plus a whole number of periods
    huge = certify(omega, delta, RationalAngle(2 ** 62 + 1, 2))
    half = certify(omega, delta, HALF_PI)
    assert (huge.delta, huge.phase, huge.method) == \
        (half.delta, half.phase, half.method)
    with pytest.raises(CertificationError):
        certify(omega, delta, RationalAngle(2 ** 62 + 1, 3))
    # a denominator beyond int64: nothing moves on the edgeless graph
    tiny = RationalAngle(1, 2 ** 70)
    still = certify(ConnectionSet(3, ()), GroupElement.zero(3), tiny)
    assert still.phase == 1
    with pytest.raises(CertificationError):
        certify(omega, GroupElement.zero(3), tiny)


def test_folded_cube_shape():
    assert folded_cube(3).elements == (1, 2, 4, 7)
    assert folded_cube(1).elements == (1,)
    assert folded_cube(4).u.bits == 0
    assert folded_cube(3).u.bits == 0


def test_plan_route_structure():
    plan = plan_route(4, 0b1011)
    assert [s.hop.bits for s in plan.stages] == [1, 2, 8]
    acc = 0
    for stage in plan.stages:
        acc ^= stage.hop.bits
        assert stage.time == HALF_PI
        assert stage.hop.bits not in stage.omega.elements
        assert stage.certificate.phase.abs2() == 1
    assert acc == plan.target.bits
    assert plan.total_time == RationalAngle(3, 2)
    assert str(plan.total_time) == "3*pi/2"


def test_plan_route_single_bit_and_n1():
    plan = plan_route(1, 1)
    assert len(plan.stages) == 1
    assert plan.stages[0].omega.elements == (1,)
    plan = plan_route(5, 0b10000)
    assert len(plan.stages) == 1
    assert plan.stages[0].hop.bits == 0b10000


def test_plan_route_rejections():
    with pytest.raises(ValueError):
        plan_route(3, 0)


def test_plan_route_dense_composition():
    # multiply the actual stage unitaries and watch the walker arrive
    from cubewalk.oracle import evolve_dense
    target = 0b110
    plan = plan_route(3, target)
    u_total = np.eye(8, dtype=complex)
    for stage in plan.stages:
        u_total = evolve_dense(stage.omega, stage.time.radians) @ u_total
    assert abs(abs(u_total[target, 0]) - 1.0) <= 1e-9


# ── one spectrum per set ──────────────────────────────────────────────────

def test_one_integer_transform_per_set(integer_transforms):
    rng = random.Random(10)
    omega = ConnectionSet(10, tuple(rng.sample(range(1, 1 << 10), 23)))
    assert omega.u.bits
    spec = spectrum(omega)
    assert classify_set(omega).eigenvalues is spec.values
    assert pst_at_half_pi(omega).delta == omega.u
    for delta in (omega.u, GroupElement(rng.randrange(1, 1 << 10), 10)):
        decide_pst_exact(omega, delta)
    certify(omega, omega.u, HALF_PI)
    all_fidelities(omega, RationalAngle(1, 3))
    assert integer_transforms == [(1 << 10,)]


def test_one_transfer_decision_per_set(monkeypatch):
    calls = []
    inner = pst._decide_rows

    def counting(values):
        calls.append(values.shape)
        return inner(values)

    monkeypatch.setattr(pst, "_decide_rows", counting)
    omega = hypercube(4)
    assert decide_pst_exact(omega, GroupElement(0b1111, 4)) == HALF_PI
    assert decide_pst_exact(omega, GroupElement(0b0011, 4)) is None
    table = pst_offsets(omega)
    table[0b0011] = HALF_PI  # the caller's copy, not the stored one
    assert pst_offsets(omega) == {0b1111: HALF_PI}
    assert decide_pst_exact(omega, GroupElement(0b0011, 4)) is None
    assert calls == [(1, 16)]
    # an equal but distinct set decides for itself
    assert pst_offsets(hypercube(4)) == {0b1111: HALF_PI}
    assert len(calls) == 2
    edgeless = ConnectionSet(3, ())
    assert pst_offsets(edgeless) == {} and pst_offsets(edgeless) == {}
    assert len(calls) == 3


def test_plan_route_runs_no_transform(integer_transforms):
    # the folded-cube spectrum is in closed form: a plan runs no integer
    # transform and holds no spectrum between plans
    for n in [*range(2, 13), 5]:
        integer_transforms.clear()
        plan = plan_route(n, (1 << n) - 1)
        assert len(plan.stages) == n
        assert plan_route(n, 1).stages[0].hop.bits == 1
        assert integer_transforms == []
        assert pst._folded_spectrum(n).dtype == np.int8
        # no stage set carries a spectrum, so a re-check runs its own WHT
        for stage in plan.stages:
            certify(stage.omega, stage.hop, stage.time)
        assert integer_transforms == [(1 << n,)] * n


def test_folded_spectrum_closed_form_matches_the_transform():
    # the stage certificates check the closed form, so it is pinned to an
    # independent source: the WHT of the folded cube's indicator
    for n in range(2, 21):
        values = pst._folded_spectrum(n)
        assert values.dtype == np.int8
        assert np.array_equal(values, wht(folded_cube(n).indicator())), n


def _stage_spectrum(folded, i):
    """λ_v − (−1)^(vᵢ): the folded-cube spectrum once eᵢ leaves the set."""
    v = np.arange(folded.size)
    return folded - (1 - 2 * ((v >> i) & 1))


def test_stage_spectra_are_the_folded_cube_spectrum_less_one_generator():
    for n in range(2, 11):
        folded = wht(folded_cube(n).indicator())
        plan = plan_route(n, (1 << n) - 1)
        for i, stage in enumerate(plan.stages):
            assert stage.hop.bits == 1 << i
            assert _stage_spectrum(folded, i).tolist() == \
                wht(stage.omega.indicator()).tolist()
            assert "_spectrum" not in vars(stage.omega)
    assert "_spectrum" not in vars(plan_route(1, 1).stages[0].omega)


def test_one_revival_pass_decides_as_every_stage_check(monkeypatch):
    # plan_route's one pass over the folded-cube spectrum accepts exactly
    # when each stage's own certificate, on its own spectrum, would: on the
    # true spectrum, and at n <= 5 on copies with one entry moved
    checks = []
    inner = pst._certificate

    def counting(*args):
        checks.append(args[3])
        return inner(*args)

    def stage_verdicts(n, folded):
        verdicts = set()
        for i in range(n):
            try:
                inner(n, n, _stage_spectrum(folded, i), GroupElement(1 << i, n),
                      HALF_PI, "closed-form")
            except CertificationError:
                verdicts.add(False)
            else:
                verdicts.add(True)
        return verdicts

    def route(n, folded):
        monkeypatch.setattr(pst, "_folded_spectrum", lambda m: folded)
        try:
            return plan_route(n, (1 << n) - 1)
        except CertificationError:
            return None
        finally:
            monkeypatch.setattr(pst, "_folded_spectrum", held)

    held = pst._folded_spectrum
    monkeypatch.setattr(pst, "_certificate", counting)
    seen = set()
    for n in range(2, 11):
        folded = held(n)
        checks.clear()
        assert stage_verdicts(n, folded) == {True}
        plan = route(n, folded)
        assert checks == [GroupElement.zero(n)]  # one pass for all n stages
        for stage in plan.stages:  # each certificate is the stage's own
            assert stage.certificate == certify(stage.omega, stage.hop,
                                                HALF_PI, "closed-form")
        if n > 5:
            continue
        for v in range(1 << n):
            for shift in (1, -1, 2, -2, 4, -4):
                tampered = folded.copy()
                tampered[v] += shift
                verdicts = stage_verdicts(n, tampered)
                assert verdicts == {route(n, tampered) is not None}
                seen |= verdicts
    assert seen == {True, False}


def test_plan_route_rejects_a_tampered_folded_spectrum(monkeypatch):
    n = 5
    clean = pst._folded_spectrum(n)
    for v in range(1 << n):
        tampered = clean.copy()
        tampered[v] += 2  # the gap Δ_v moves by 2 and leaves 0 mod 4
        monkeypatch.setattr(pst, "_folded_spectrum", lambda m: tampered)
        for target in range(1, 1 << n):
            with pytest.raises(CertificationError):
                plan_route(n, target)
    # the tampering touched copies: a fresh spectrum is the transform's,
    # and a clean plan certifies
    monkeypatch.undo()
    assert pst._folded_spectrum(n).tolist() == \
        wht(folded_cube(n).indicator()).tolist()
    plan = plan_route(n, 0b10110)
    assert [stage.hop.bits for stage in plan.stages] == [0b10, 0b100, 0b10000]
